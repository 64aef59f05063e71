"""Command-line interface.

Every numeric result is an exact base-10 integer; invariant factors and
other potentially large values are rendered as decimal strings in JSON
reports.  Reports are objects with "command", "input", "result" and
"warnings" keys.

Each leaf subparser binds its handler and report name with
``set_defaults(run=..., name=...)`` and says whether its ``--dim`` may
be the top dimension.  ``main`` loads the complex (``verify simplex``
takes none), checks the count flags and ``--dim`` once, and calls
``args.run(args, comp, warnings)``.  A handler returns only its result
dict and appends any warnings; ``main`` builds the report and derives
the exit code from the result alone: ``"verdict": "FAIL"`` exits 5,
``"complete": false`` exits 4, anything else exits 0.

Exit codes: 0 success / verification PASS; 2 input error; 3 hypothesis
violation (any ``HypothesisError``: e.g. a spanning tree with torsion,
``flow canonical`` on an infinite K_i, or ``verify sphere`` on a
non-pseudomanifold); 4 enumeration budget exceeded (partial results);
5 verification FAIL.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import random
import sys
from collections import defaultdict

from . import generators
from .complexes import SimplicialComplex, make_face
from .critical import (
    alternating_order,
    critical_group_direct,
    critical_group_reduced,
    verify_simplex_structure,
    verify_smtt,
)
from .flows import (
    ChipState,
    critical_representative,
    equivalent,
    extend_to_conservative,
    fire,
    is_conservative,
    is_recurrent,
    stabilize,
    to_group_element,
)
from .trees import (
    DEFAULT_BUDGET,
    BudgetExceededError,
    HypothesisError,
    NotATreeError,
    as_spanning_tree,
    enumerate_trees,
    find_torsion_free_tree,
)

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_HYPOTHESIS = 3
EXIT_BUDGET = 4
EXIT_VERIFY = 5

_NO_TREE = "no torsion-free spanning tree exists in this dimension"


# -- input handling ---------------------------------------------------------


def load_facet_file(path):
    """One facet per line, whitespace-separated positive integer labels;
    blank lines and lines starting with '#' are ignored."""
    facets = []
    try:
        with open(path, encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, 1):
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                try:
                    facets.append([int(tok) for tok in line.split()])
                except ValueError:
                    raise ValueError(f"{path}:{lineno}: not an integer list: {line!r}")
    except OSError as exc:
        raise ValueError(f"cannot read facet file: {exc}")
    if not facets:
        raise ValueError(f"{path}: no facets found")
    return facets


def _load_complex(args):
    if args.gen is not None and args.facets is not None:
        raise ValueError("give either --gen or --facets, not both")
    if args.gen is not None:
        return generators.from_spec(args.gen), f"gen {args.gen}"
    if args.facets is not None:
        return SimplicialComplex.from_facets(load_facet_file(args.facets)), f"file {args.facets}"
    raise ValueError("no complex given: use --gen SPEC or --facets FILE")


def _parse_ints(text, what):
    try:
        return [int(tok) for tok in text.replace(",", " ").split()]
    except ValueError:
        raise ValueError(f"{what} must be a list of integers, got {text!r}")


def _resolve_tree(comp, dim, spec):
    """--tree auto finds a torsion-free tree; otherwise a facet-style file
    listing the tree's top faces."""
    if spec == "auto":
        tree = find_torsion_free_tree(comp, dim)
        if tree is None:
            raise HypothesisError(_NO_TREE)
        return tree
    try:
        return as_spanning_tree(comp, dim, load_facet_file(spec))
    except NotATreeError:
        raise NotATreeError(f"{spec}: the listed faces are not a spanning tree") from None


# -- report plumbing --------------------------------------------------------


def _s(x):
    return str(int(x))


def _factors(fs):
    return [_s(f) for f in fs]


def _emit(report, as_json):
    if as_json:
        print(json.dumps(report, indent=2, sort_keys=True))
        return

    def walk(obj, indent):
        pad = "  " * indent
        if isinstance(obj, dict):
            for k in obj:
                v = obj[k]
                if isinstance(v, (dict, list)) and v and not _is_flat(v):
                    print(f"{pad}{k}:")
                    walk(v, indent + 1)
                else:
                    print(f"{pad}{k}: {_flat(v)}")
        elif isinstance(obj, list):
            for v in obj:
                print(f"{pad}- {_flat(v)}")

    walk(report, 0)


def _is_flat(v):
    if isinstance(v, list):
        return all(not isinstance(x, (dict, list)) for x in v)
    return not isinstance(v, dict)


def _flat(v):
    if isinstance(v, list):
        return "[" + ", ".join(str(x) for x in v) + "]"
    return str(v)


# -- subcommands ------------------------------------------------------------


def _cmd_info(args, comp, warnings):
    hom = {}
    for i in range(-1, comp.dim + 1):
        g = comp.reduced_homology(i)
        hom[str(i)] = {"betti": g.betti, "torsion": _factors(g.torsion)}
    return {
        "dimension": comp.dim,
        "f_vector": list(comp.f_vector()),
        "facets": [list(f) for f in comp.facets()],
        "pure": comp.is_pure(),
        "apc": comp.is_apc(),
        "homology": hom,
    }


def _cmd_critical_group(args, comp, warnings):
    why = "no torsion-free tree found"
    if args.tree == "auto":
        try:
            tree = find_torsion_free_tree(comp, args.dim)
        except BudgetExceededError as exc:
            tree, why = None, str(exc)
    else:
        tree = _resolve_tree(comp, args.dim, args.tree)
    if tree is not None:
        group = critical_group_reduced(comp, args.dim, tree)
        route = "reduced"
        tree_out = [list(f) for f in tree.top_faces]
    else:
        group = critical_group_direct(comp, args.dim)
        route = "direct"
        tree_out = None
        warnings.append(f"{why}; used the direct route")
    return {
        "dimension": args.dim,
        "invariant_factors": _factors(group.torsion),
        "free_rank": group.betti,
        "order": _s(group.order),
        "route": route,
        "tree": tree_out,
    }


def _cmd_trees(args, comp, warnings):
    streamed = []
    census = enumerate_trees(
        comp,
        args.dim,
        budget=args.budget,
        on_tree=streamed.append if args.stream else None,
    )
    warnings.extend(census.warnings)
    result = {
        "dimension": args.dim,
        "count": census.count,
        "tau": _s(census.tau),
        "torsion_histogram": {_s(t): n for t, n in sorted(census.torsion_histogram.items())},
        "complete": census.complete,
        "extensions": census.extensions,
    }
    if args.stream:
        result["trees"] = [
            {"faces": [list(f) for f in t.top_faces], "torsion": _s(t.torsion_order)}
            for t in streamed
        ]
    return result


def _cmd_verify_smtt(args, comp, warnings):
    if args.dim < 1:
        raise ValueError("--dim must be at least 1 for the matrix-tree identities")
    rep = verify_smtt(comp, args.dim, budget=args.budget)
    warnings.extend(rep.warnings)
    return {
        "dimension": args.dim,
        "pi": _s(rep.pi),
        "tau": _s(rep.tau),
        "tau_prev": _s(rep.tau_prev),
        "homology_order": _s(rep.homology_order),
        "tree_used": [list(f) for f in rep.tree_faces],
        "tree_torsion": _s(rep.tree_torsion),
        "det_reduced": _s(rep.det_reduced),
        "identities": {
            "eigenvalue": "PASS" if rep.eigenvalue_identity_ok else "FAIL",
            "determinant": "PASS" if rep.determinant_identity_ok else "FAIL",
        },
        "verdict": "PASS" if rep.ok else "FAIL",
    }


def _cmd_verify_main_thm(args, comp, warnings):
    direct = critical_group_direct(comp, args.dim)
    found = []

    def grab(tree):
        if tree.torsion_order == 1:
            found.append(tree)
        return len(found) >= args.trees

    census = enumerate_trees(comp, args.dim, budget=args.budget, on_tree=grab)
    partial = len(found) < args.trees and not census.complete
    if not found and not partial:
        raise HypothesisError(_NO_TREE)
    rows = []
    for tree in found:
        g = critical_group_reduced(comp, args.dim, tree)
        rows.append(
            {
                "faces": [list(f) for f in tree.top_faces],
                "invariant_factors": _factors(g.torsion),
                "match": g == direct,
            }
        )
    result = {
        "dimension": args.dim,
        "direct_factors": _factors(direct.torsion),
        "direct_free_rank": direct.betti,
        "trees": rows,
    }
    if partial:
        # the budget ran out before the requested trees were found: no verdict
        result["complete"] = False
        warnings.extend(census.warnings)
    else:
        result["verdict"] = "PASS" if all(row["match"] for row in rows) else "FAIL"
    return result


def _cmd_verify_sphere(args, comp, warnings):
    d = comp.dim
    if d < 1:
        raise ValueError("sphere check needs dimension at least 1")
    facets = comp.faces(d)
    # the theorem's hypothesis: pure, every ridge in exactly two facets,
    # and any facet reached from any other through shared ridges
    ridges = defaultdict(list)
    for f in facets:
        for j in range(len(f)):
            ridges[f[:j] + f[j + 1:]].append(f)
    reached, frontier = set(), [facets[0]]
    while frontier:
        f = frontier.pop()
        if f not in reached:
            reached.add(f)
            frontier.extend(g for j in range(len(f)) for g in ridges[f[:j] + f[j + 1:]])
    if (not comp.is_pure() or any(len(fs) != 2 for fs in ridges.values())
            or len(reached) != len(facets)):
        raise HypothesisError(
            "complex is not a pseudomanifold; the sphere theorem does not apply"
        )
    group = critical_group_direct(comp, d - 1)
    cyclic = group.betti == 0 and len(group.torsion) <= 1
    return {
        "dimension": d,
        "facets": len(facets),
        "group": _factors(group.torsion),
        "group_order": _s(group.order),
        "cyclic": cyclic,
        "verdict": "PASS" if cyclic and group.order == len(facets) else "FAIL",
    }


def _cmd_verify_simplex(args, comp, warnings):
    rep = verify_simplex_structure(args.n, args.k)
    return {
        "n": rep.n,
        "k": rep.k,
        "coker_A": _factors(rep.coker_a),
        "coker_AAT": _factors(rep.coker_aat),
        "K_factors": {
            str(rep.k - 1): _factors(rep.factors_k_minus_1),
            str(rep.k): _factors(rep.factors_k),
        },
        "checks": {
            "blocks": rep.blocks_ok,
            "cyclic_sums": rep.cyclic_ok,
            "exponent_k_minus_1": rep.exponent_k_minus_1_ok,
            "exponent_k": rep.exponent_k_ok,
            "maxwell_cokernel": rep.maxwell_ok,
        },
        "aat_matches": rep.aat_matches,
        "verdict": "PASS" if rep.passed else "FAIL",
    }


def _cmd_verify_alt_product(args, comp, warnings):
    value = alternating_order(comp, args.dim)
    group = critical_group_direct(comp, args.dim)
    ok = value.denominator == 1 and group.betti == 0 and value == group.order
    return {
        "dimension": args.dim,
        "alternating_product": str(value),
        "group_order": _s(group.order),
        "verdict": "PASS" if ok else "FAIL",
    }


def _cmd_flow_fire(args, comp, warnings):
    values = _parse_ints(args.config, "--config")
    face = make_face(_parse_ints(args.face, "--face"))
    out = fire(comp, args.dim, values, face)
    return {
        "dimension": args.dim,
        "configuration": list(values),
        "fired": list(face),
        "result": list(out),
        "conservative": is_conservative(comp, args.dim, out),
    }


def _cmd_flow_extend(args, comp, warnings):
    tree = _resolve_tree(comp, args.dim, args.tree)
    theta = _parse_ints(args.theta, "--theta")
    out = extend_to_conservative(comp, args.dim, tree, theta)
    return {
        "dimension": args.dim,
        "tree": [list(f) for f in tree.top_faces],
        "theta": theta,
        "configuration": list(out),
        "conservative": is_conservative(comp, args.dim, out),
    }


def _cmd_flow_equiv(args, comp, warnings):
    a = _parse_ints(args.config, "--config")
    b = _parse_ints(args.config2, "--config2")
    return {"dimension": args.dim, "equivalent": equivalent(comp, args.dim, a, b)}


def _cmd_flow_canonical(args, comp, warnings):
    tree = _resolve_tree(comp, args.dim, args.tree)
    values = _parse_ints(args.config, "--config")
    g = to_group_element(comp, args.dim, tree, values)
    return {
        "dimension": args.dim,
        "tree": [list(f) for f in tree.top_faces],
        "moduli": _factors(g.moduli),
        "residues": _factors(g.residues),
    }


def _chip_state(args, comp):
    return ChipState(comp, args.bank, tuple(_parse_ints(args.chips, "--chips")))


def _cmd_chip_stabilize(args, comp, warnings):
    final, fired = stabilize(_chip_state(args, comp))
    return {
        "bank": args.bank,
        "vertices": list(final.non_bank),
        "stable": list(final.chips),
        "firings": {str(v): n for v, n in fired.items()},
    }


def _cmd_chip_recurrent(args, comp, warnings):
    return {"bank": args.bank, "recurrent": is_recurrent(_chip_state(args, comp))}


def _cmd_chip_representative(args, comp, warnings):
    rep = critical_representative(_chip_state(args, comp))
    return {
        "bank": args.bank,
        "vertices": list(rep.non_bank),
        "critical": list(rep.chips),
    }


def _cmd_chip_group_law(args, comp, warnings):
    rng = random.Random(args.seed)
    if args.chips and args.chips2:
        pairs = [(
            _parse_ints(args.chips, "--chips"),
            _parse_ints(args.chips2, "--chips2"),
        )]
    elif args.chips or args.chips2:
        raise ValueError("group-law needs both --chips and --chips2, or neither")
    else:
        k = len(comp.vertices()) - 1
        bound = 2 * max(len(ws) for ws in comp.neighbors().values())
        pairs = [
            (
                [rng.randrange(bound + 1) for _ in range(k)],
                [rng.randrange(bound + 1) for _ in range(k)],
            )
            for _ in range(args.samples)
        ]
    checked = []
    for a, b in pairs:
        sa = ChipState(comp, args.bank, tuple(a))
        sb = ChipState(comp, args.bank, tuple(b))
        lhs = critical_representative(critical_representative(sa) + critical_representative(sb))
        rhs = critical_representative(sa + sb)
        checked.append({"a": list(a), "b": list(b), "match": lhs.chips == rhs.chips})
    holds = all(row["match"] for row in checked)
    return {
        "bank": args.bank,
        "pairs_checked": len(checked),
        "law_holds": holds,
        "pairs": checked if len(checked) <= 10 else checked[:10],
        "verdict": "PASS" if holds else "FAIL",
    }


# -- parser -----------------------------------------------------------------


def build_parser():
    # the shared flags may appear before or after the subcommand; the
    # SUPPRESS defaults keep subparsers from clobbering values parsed
    # by the main parser
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--gen", metavar="SPEC", default=argparse.SUPPRESS,
                        help="generate a complex: bipyramid | cycle N | "
                        "complete N | simplex-skeleton N K | sphere D | moore M")
    common.add_argument("--facets", metavar="FILE", default=argparse.SUPPRESS,
                        help="read facets from a file, one per line")
    common.add_argument("--json", action="store_true", default=argparse.SUPPRESS,
                        help="emit a JSON report")

    def leaf(subs, command, run, *, top_dim=None, **kwargs):
        """The subparser of ``command`` bound to its handler; a top_dim of
        True or False adds a required --dim that may or may not be the
        complex's top dimension."""
        p = subs.add_parser(command.split()[-1], parents=[common], **kwargs)
        p.set_defaults(run=run, name=command)
        if top_dim is not None:
            p.add_argument("--dim", type=int, required=True)
            p.set_defaults(top_dim=top_dim)
        return p

    p = argparse.ArgumentParser(
        prog="simpcrit",
        parents=[common],
        description="Exact critical groups, spanning trees, and chip-firing "
        "for finite simplicial complexes.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    leaf(sub, "info", _cmd_info, help="f-vector, homology, purity, APC")

    cg = leaf(sub, "critical-group", _cmd_critical_group, top_dim=False,
              help="invariant factors of K_i")
    cg.add_argument("--tree", default="auto", help="'auto' or a file of tree faces")

    tr = leaf(sub, "trees", _cmd_trees, top_dim=True, help="enumerate spanning trees")
    tr.add_argument("--census", action="store_true", help="census only (default)")
    tr.add_argument("--stream", action="store_true", help="list every tree")
    tr.add_argument("--budget", type=int, default=DEFAULT_BUDGET)

    ver = sub.add_parser("verify", help="verify an identity, exit 5 on FAIL")
    vsub = ver.add_subparsers(dest="verify_cmd", required=True)
    vs = leaf(vsub, "verify smtt", _cmd_verify_smtt, top_dim=True,
              help="both matrix-tree identities")
    vs.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    vm = leaf(vsub, "verify main-thm", _cmd_verify_main_thm, top_dim=False,
              help="reduced route matches the direct definition")
    vm.add_argument("--trees", type=int, default=3, help="torsion-free trees to try")
    vm.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    leaf(vsub, "verify sphere", _cmd_verify_sphere,
         help="top critical group is cyclic of facet order")
    vx = leaf(vsub, "verify simplex", _cmd_verify_simplex,
              help="stacked-matrix identities on a simplex")
    vx.add_argument("--n", type=int, required=True)
    vx.add_argument("--k", type=int, required=True)
    leaf(vsub, "verify alt-product", _cmd_verify_alt_product, top_dim=False,
         help="alternating eigenvalue product equals |K_i|")

    fl = sub.add_parser("flow", help="face-flow operations")
    fsub = fl.add_subparsers(dest="flow_cmd", required=True)
    ff = leaf(fsub, "flow fire", _cmd_flow_fire, top_dim=True)
    ff.add_argument("--config", required=True)
    ff.add_argument("--face", required=True)
    fe = leaf(fsub, "flow extend", _cmd_flow_extend, top_dim=True)
    fe.add_argument("--theta", required=True)
    fe.add_argument("--tree", default="auto")
    fq = leaf(fsub, "flow equiv", _cmd_flow_equiv, top_dim=True)
    fq.add_argument("--config", required=True)
    fq.add_argument("--config2", required=True)
    fc = leaf(fsub, "flow canonical", _cmd_flow_canonical, top_dim=True)
    fc.add_argument("--config", required=True)
    fc.add_argument("--tree", default="auto")

    ch = sub.add_parser("chip", help="graph chip-firing game")
    csub = ch.add_subparsers(dest="chip_cmd", required=True)
    for name, run in (("stabilize", _cmd_chip_stabilize), ("recurrent", _cmd_chip_recurrent),
                      ("representative", _cmd_chip_representative)):
        c = leaf(csub, f"chip {name}", run)
        c.add_argument("--bank", type=int, required=True)
        c.add_argument("--chips", required=True)
    cl = leaf(csub, "chip group-law", _cmd_chip_group_law)
    cl.add_argument("--bank", type=int, required=True)
    cl.add_argument("--chips")
    cl.add_argument("--chips2")
    cl.add_argument("--samples", type=int, default=20)
    cl.add_argument("--seed", type=int, default=0, help="seed for the random pairs")

    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    for attr, default in (("gen", None), ("facets", None), ("json", False)):
        if not hasattr(args, attr):
            setattr(args, attr, default)
    warnings = []
    try:
        for flag, low in (("budget", 0), ("trees", 1), ("samples", 1)):
            if getattr(args, flag, low) < low:
                raise ValueError(f"--{flag} must be at least {low}, got {getattr(args, flag)}")
        if args.run is _cmd_verify_simplex:
            # the one command that builds its own complex
            if args.gen is not None or args.facets is not None:
                raise ValueError("verify simplex builds its own complex; give no --gen or --facets")
            comp, source = None, f"gen simplex-skeleton {args.n} {args.n - 1}"
        else:
            comp, source = _load_complex(args)
        if "dim" in args:
            hi = comp.dim if args.top_dim else comp.dim - 1
            if not 0 <= args.dim <= hi:
                raise ValueError(f"--dim {args.dim} out of range [0, {hi}] for this complex")
        result = args.run(args, comp, warnings)
    except HypothesisError as exc:
        print(f"hypothesis violation: {exc}", file=sys.stderr)
        return EXIT_HYPOTHESIS
    except BudgetExceededError as exc:
        print(f"warning: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (ValueError, OverflowError) as exc:
        # an OverflowError is an integer argument too large to be a size
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    report = {"command": args.name, "input": {"source": source}, "result": result,
              "warnings": warnings}
    if comp is not None:
        text = "\n".join(" ".join(map(str, f)) for f in comp.facets())
        report["input"]["digest"] = hashlib.sha256(text.encode()).hexdigest()
        report["input"]["f_vector"] = list(comp.f_vector())
    _emit(report, args.json)
    if result.get("verdict") == "FAIL":
        return EXIT_VERIFY
    if result.get("complete") is False:
        return EXIT_BUDGET
    return EXIT_OK


def run():
    sys.exit(main())


if __name__ == "__main__":
    run()
