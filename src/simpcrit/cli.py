"""Command-line interface.

Every numeric result is an exact base-10 integer; invariant factors and
other potentially large values are rendered as decimal strings in JSON
reports.  Reports are objects with "command", "input", "result" and
"warnings" keys.

Exit codes: 0 success / verification PASS; 2 input error; 3 hypothesis
violation (e.g. a spanning tree with torsion); 4 enumeration budget
exceeded (partial results); 5 verification FAIL.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import random
import sys

from . import generators
from .complexes import SimplicialComplex, make_face
from .critical import (
    alternating_order,
    critical_group_direct,
    critical_group_reduced,
    verify_simplex_structure,
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
    NotAcyclicError,
    NotATreeError,
    TreeHasTorsionError,
    enumerate_trees,
    find_torsion_free_tree,
    is_spanning_tree,
    verify_smtt,
)

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_HYPOTHESIS = 3
EXIT_BUDGET = 4
EXIT_VERIFY = 5


class CliInputError(Exception):
    pass


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
                    raise CliInputError(f"{path}:{lineno}: not an integer list: {line!r}")
    except OSError as exc:
        raise CliInputError(f"cannot read facet file: {exc}")
    if not facets:
        raise CliInputError(f"{path}: no facets found")
    return facets


def _load_complex(args):
    if args.gen and args.facets:
        raise CliInputError("give either --gen or --facets, not both")
    if args.gen:
        try:
            return generators.from_spec(args.gen), f"gen {args.gen}"
        except ValueError as exc:
            raise CliInputError(str(exc))
    if args.facets:
        try:
            return SimplicialComplex.from_facets(load_facet_file(args.facets)), f"file {args.facets}"
        except ValueError as exc:
            raise CliInputError(str(exc))
    raise CliInputError("no complex given: use --gen SPEC or --facets FILE")


def _digest(comp):
    text = "\n".join(" ".join(map(str, f)) for f in comp.facets())
    return hashlib.sha256(text.encode()).hexdigest()


def _parse_ints(text, what):
    try:
        return [int(tok) for tok in text.replace(",", " ").split()]
    except ValueError:
        raise CliInputError(f"{what} must be a list of integers, got {text!r}")


def _resolve_tree(comp, dim, spec):
    """--tree auto finds a torsion-free tree; otherwise a facet-style file
    listing the tree's top faces."""
    if spec == "auto":
        tree = find_torsion_free_tree(comp, dim)
        if tree is None:
            raise TreeHasTorsionError(
                "no torsion-free spanning tree exists in this dimension"
            )
        return tree
    faces = load_facet_file(spec)
    tree = is_spanning_tree(comp, dim, faces)
    if tree is None:
        raise NotATreeError(f"{spec}: the listed faces are not a spanning tree")
    return tree


def _check_dim(comp, dim, top_allowed):
    hi = comp.dim if top_allowed else comp.dim - 1
    if not 0 <= dim <= hi:
        raise CliInputError(f"--dim {dim} out of range [0, {hi}] for this complex")


# -- report plumbing --------------------------------------------------------


def _s(x):
    return str(int(x))


def _factors(fs):
    return [_s(f) for f in fs]


def _report(command, source, comp, result, warnings=()):
    rep = {
        "command": command,
        "input": {"source": source},
        "result": result,
        "warnings": list(warnings),
    }
    if comp is not None:
        rep["input"]["digest"] = _digest(comp)
        rep["input"]["f_vector"] = list(comp.f_vector())
    return rep


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


def _cmd_info(args, comp, source):
    hom = {}
    for i in range(-1, comp.dim + 1):
        g = comp.reduced_homology(i)
        hom[str(i)] = {"betti": g.betti, "torsion": _factors(g.torsion)}
    result = {
        "dimension": comp.dim,
        "f_vector": list(comp.f_vector()),
        "facets": [list(f) for f in comp.facets()],
        "pure": comp.is_pure(),
        "apc": comp.is_apc(),
        "homology": hom,
    }
    return _report("info", source, comp, result), EXIT_OK


def _cmd_critical_group(args, comp, source):
    _check_dim(comp, args.dim, top_allowed=False)
    warnings = []
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
    result = {
        "dimension": args.dim,
        "invariant_factors": _factors(group.torsion),
        "free_rank": group.betti,
        "order": _s(group.order),
        "route": route,
        "tree": tree_out,
    }
    return _report("critical-group", source, comp, result, warnings), EXIT_OK


def _cmd_trees(args, comp, source):
    _check_dim(comp, args.dim, top_allowed=True)
    streamed = []

    def keep(tree):
        streamed.append(tree)
        return False

    census = enumerate_trees(
        comp,
        args.dim,
        budget=args.budget,
        on_tree=keep if args.stream else None,
    )
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
    code = EXIT_OK if census.complete else EXIT_BUDGET
    return _report("trees", source, comp, result, census.warnings), code


def _cmd_verify_smtt(args, comp, source):
    _check_dim(comp, args.dim, top_allowed=True)
    if args.dim < 1:
        raise CliInputError("--dim must be at least 1 for the matrix-tree identities")
    rep = verify_smtt(comp, args.dim, budget=args.budget)
    result = {
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
    return (
        _report("verify smtt", source, comp, result, rep.warnings),
        EXIT_OK if rep.ok else EXIT_VERIFY,
    )


def _cmd_verify_main_thm(args, comp, source):
    _check_dim(comp, args.dim, top_allowed=False)
    direct = critical_group_direct(comp, args.dim)
    wanted = max(1, args.trees)
    found = []

    def grab(tree):
        if tree.torsion_order == 1:
            found.append(tree)
        return len(found) >= wanted

    census = enumerate_trees(comp, args.dim, budget=args.budget, on_tree=grab)
    partial = len(found) < wanted and not census.complete
    if not found and not partial:
        raise TreeHasTorsionError("no torsion-free spanning tree exists")
    rows = []
    all_match = True
    for tree in found:
        g = critical_group_reduced(comp, args.dim, tree)
        match = g == direct
        all_match = all_match and match
        rows.append(
            {
                "faces": [list(f) for f in tree.top_faces],
                "invariant_factors": _factors(g.torsion),
                "match": match,
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
        return _report("verify main-thm", source, comp, result, census.warnings), EXIT_BUDGET
    result["verdict"] = "PASS" if all_match else "FAIL"
    return (
        _report("verify main-thm", source, comp, result),
        EXIT_OK if all_match else EXIT_VERIFY,
    )


def _cmd_verify_sphere(args, comp, source):
    d = comp.dim
    if d < 1:
        raise CliInputError("sphere check needs dimension at least 1")
    n_facets = len(comp.faces(d))
    # pseudomanifold sanity: every ridge in exactly two facets
    ridge_deg = {}
    for f in comp.faces(d):
        for j in range(len(f)):
            r = f[:j] + f[j + 1:]
            ridge_deg[r] = ridge_deg.get(r, 0) + 1
    pseudo = all(v == 2 for v in ridge_deg.values())
    group = critical_group_direct(comp, d - 1)
    cyclic = group.betti == 0 and len(group.torsion) <= 1
    ok = cyclic and group.order == n_facets
    result = {
        "dimension": d,
        "facets": n_facets,
        "pseudomanifold": pseudo,
        "group": _factors(group.torsion),
        "group_order": _s(group.order),
        "cyclic": cyclic,
        "verdict": "PASS" if ok else "FAIL",
    }
    warnings = []
    if not pseudo:
        warnings.append("complex is not a pseudomanifold; the sphere theorem does not apply")
    return _report("verify sphere", source, comp, result, warnings), (
        EXIT_OK if ok else EXIT_VERIFY
    )


def _cmd_verify_simplex(args, comp, source):
    rep = verify_simplex_structure(args.n, args.k)
    result = {
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
    return (
        _report("verify simplex", f"gen simplex-skeleton {args.n} {args.n - 1}", None, result),
        EXIT_OK if rep.passed else EXIT_VERIFY,
    )


def _cmd_verify_alt_product(args, comp, source):
    _check_dim(comp, args.dim, top_allowed=False)
    value = alternating_order(comp, args.dim)
    group = critical_group_direct(comp, args.dim)
    ok = value.denominator == 1 and group.betti == 0 and value == group.order
    result = {
        "dimension": args.dim,
        "alternating_product": str(value),
        "group_order": _s(group.order),
        "verdict": "PASS" if ok else "FAIL",
    }
    return _report("verify alt-product", source, comp, result), (
        EXIT_OK if ok else EXIT_VERIFY
    )


def _cmd_flow(args, comp, source):
    _check_dim(comp, args.dim, top_allowed=True)
    i = args.dim
    if args.flow_cmd == "fire":
        values = _parse_ints(args.config, "--config")
        face = make_face(_parse_ints(args.face, "--face"))
        out = fire(comp, i, values, face)
        result = {
            "dimension": i,
            "configuration": list(values),
            "fired": list(face),
            "result": list(out),
            "conservative": is_conservative(comp, i, out),
        }
        return _report("flow fire", source, comp, result), EXIT_OK
    if args.flow_cmd == "extend":
        tree = _resolve_tree(comp, i, args.tree)
        theta = _parse_ints(args.theta, "--theta")
        out = extend_to_conservative(comp, i, tree, theta)
        result = {
            "dimension": i,
            "tree": [list(f) for f in tree.top_faces],
            "theta": theta,
            "configuration": list(out),
            "conservative": is_conservative(comp, i, out),
        }
        return _report("flow extend", source, comp, result), EXIT_OK
    if args.flow_cmd == "equiv":
        a = _parse_ints(args.config, "--config")
        b = _parse_ints(args.config2, "--config2")
        result = {"dimension": i, "equivalent": equivalent(comp, i, a, b)}
        return _report("flow equiv", source, comp, result), EXIT_OK
    if args.flow_cmd == "canonical":
        tree = _resolve_tree(comp, i, args.tree)
        values = _parse_ints(args.config, "--config")
        g = to_group_element(comp, i, tree, values)
        result = {
            "dimension": i,
            "tree": [list(f) for f in tree.top_faces],
            "moduli": _factors(g.moduli),
            "residues": _factors(g.residues),
        }
        return _report("flow canonical", source, comp, result), EXIT_OK
    raise CliInputError(f"unknown flow subcommand {args.flow_cmd!r}")


def _chip_state(args, comp):
    try:
        return ChipState(comp, args.bank, tuple(_parse_ints(args.chips, "--chips")))
    except ValueError as exc:
        raise CliInputError(str(exc))


def _cmd_chip(args, comp, source):
    if args.chip_cmd == "stabilize":
        state = _chip_state(args, comp)
        final, fired = stabilize(state)
        result = {
            "bank": args.bank,
            "vertices": list(final.non_bank),
            "stable": list(final.chips),
            "firings": {str(v): n for v, n in fired.items()},
        }
        return _report("chip stabilize", source, comp, result), EXIT_OK
    if args.chip_cmd == "recurrent":
        state = _chip_state(args, comp)
        try:
            rec = is_recurrent(state)
        except ValueError as exc:
            raise CliInputError(str(exc))
        result = {"bank": args.bank, "recurrent": rec}
        return _report("chip recurrent", source, comp, result), EXIT_OK
    if args.chip_cmd == "representative":
        state = _chip_state(args, comp)
        rep = critical_representative(state)
        result = {
            "bank": args.bank,
            "vertices": list(rep.non_bank),
            "critical": list(rep.chips),
        }
        return _report("chip representative", source, comp, result), EXIT_OK
    if args.chip_cmd == "group-law":
        rng = random.Random(args.seed)
        if args.chips and args.chips2:
            pairs = [(
                _parse_ints(args.chips, "--chips"),
                _parse_ints(args.chips2, "--chips2"),
            )]
        elif args.chips or args.chips2:
            raise CliInputError("group-law needs both --chips and --chips2, or neither")
        else:
            k = len(comp.vertices()) - 1
            bound = 2 * max(
                sum(1 for e in comp.faces(1) if v in e) for v in comp.vertices()
            )
            pairs = [
                (
                    [rng.randrange(bound + 1) for _ in range(k)],
                    [rng.randrange(bound + 1) for _ in range(k)],
                )
                for _ in range(args.samples)
            ]
        holds = True
        checked = []
        for a, b in pairs:
            sa = ChipState(comp, args.bank, tuple(a))
            sb = ChipState(comp, args.bank, tuple(b))
            lhs = critical_representative(critical_representative(sa) + critical_representative(sb))
            rhs = critical_representative(sa + sb)
            ok = lhs.chips == rhs.chips
            holds = holds and ok
            checked.append({"a": list(a), "b": list(b), "match": ok})
        result = {
            "bank": args.bank,
            "pairs_checked": len(checked),
            "law_holds": holds,
            "pairs": checked if len(checked) <= 10 else checked[:10],
            "verdict": "PASS" if holds else "FAIL",
        }
        return _report("chip group-law", source, comp, result), (
            EXIT_OK if holds else EXIT_VERIFY
        )
    raise CliInputError(f"unknown chip subcommand {args.chip_cmd!r}")


# -- parser -----------------------------------------------------------------


def build_parser():
    # the shared flags may appear before or after the subcommand; the
    # SUPPRESS defaults keep subparsers from clobbering values parsed
    # by the main parser
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--gen", metavar="SPEC", default=argparse.SUPPRESS,
                        help="generate a complex: bipyramid | cycle N | "
                        "complete N | simplex-skeleton N K | sphere D")
    common.add_argument("--facets", metavar="FILE", default=argparse.SUPPRESS,
                        help="read facets from a file, one per line")
    common.add_argument("--json", action="store_true", default=argparse.SUPPRESS,
                        help="emit a JSON report")
    common.add_argument("--seed", type=int, default=argparse.SUPPRESS,
                        help="seed for randomized subcommands")

    p = argparse.ArgumentParser(
        prog="simpcrit",
        parents=[common],
        description="Exact critical groups, spanning trees, and chip-firing "
        "for finite simplicial complexes.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    sub.add_parser("info", parents=[common], help="f-vector, homology, purity, APC")

    cg = sub.add_parser("critical-group", parents=[common], help="invariant factors of K_i")
    cg.add_argument("--dim", type=int, required=True)
    cg.add_argument("--tree", default="auto", help="'auto' or a file of tree faces")

    tr = sub.add_parser("trees", parents=[common], help="enumerate spanning trees")
    tr.add_argument("--dim", type=int, required=True)
    tr.add_argument("--census", action="store_true", help="census only (default)")
    tr.add_argument("--stream", action="store_true", help="list every tree")
    tr.add_argument("--budget", type=int, default=DEFAULT_BUDGET)

    ver = sub.add_parser("verify", help="verify an identity, exit 5 on FAIL")
    vsub = ver.add_subparsers(dest="verify_cmd", required=True)
    vs = vsub.add_parser("smtt", parents=[common], help="both matrix-tree identities")
    vs.add_argument("--dim", type=int, required=True)
    vs.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    vm = vsub.add_parser("main-thm", parents=[common],
                         help="reduced route matches the direct definition")
    vm.add_argument("--dim", type=int, required=True)
    vm.add_argument("--trees", type=int, default=3, help="torsion-free trees to try")
    vm.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    vsub.add_parser("sphere", parents=[common],
                    help="top critical group is cyclic of facet order")
    vx = vsub.add_parser("simplex", parents=[common],
                         help="stacked-matrix identities on a simplex")
    vx.add_argument("--n", type=int, required=True)
    vx.add_argument("--k", type=int, required=True)
    va = vsub.add_parser("alt-product", parents=[common],
                         help="alternating eigenvalue product equals |K_i|")
    va.add_argument("--dim", type=int, required=True)

    fl = sub.add_parser("flow", help="face-flow operations")
    fsub = fl.add_subparsers(dest="flow_cmd", required=True)
    ff = fsub.add_parser("fire", parents=[common])
    ff.add_argument("--dim", type=int, required=True)
    ff.add_argument("--config", required=True)
    ff.add_argument("--face", required=True)
    fe = fsub.add_parser("extend", parents=[common])
    fe.add_argument("--dim", type=int, required=True)
    fe.add_argument("--theta", required=True)
    fe.add_argument("--tree", default="auto")
    fq = fsub.add_parser("equiv", parents=[common])
    fq.add_argument("--dim", type=int, required=True)
    fq.add_argument("--config", required=True)
    fq.add_argument("--config2", required=True)
    fc = fsub.add_parser("canonical", parents=[common])
    fc.add_argument("--dim", type=int, required=True)
    fc.add_argument("--config", required=True)
    fc.add_argument("--tree", default="auto")

    ch = sub.add_parser("chip", help="graph chip-firing game")
    csub = ch.add_subparsers(dest="chip_cmd", required=True)
    for name in ("stabilize", "recurrent", "representative"):
        c = csub.add_parser(name, parents=[common])
        c.add_argument("--bank", type=int, required=True)
        c.add_argument("--chips", required=True)
    cl = csub.add_parser("group-law", parents=[common])
    cl.add_argument("--bank", type=int, required=True)
    cl.add_argument("--chips")
    cl.add_argument("--chips2")
    cl.add_argument("--samples", type=int, default=20)

    return p


_DISPATCH = {
    "info": _cmd_info,
    "critical-group": _cmd_critical_group,
    "trees": _cmd_trees,
    "flow": _cmd_flow,
    "chip": _cmd_chip,
}

_VERIFY_DISPATCH = {
    "smtt": _cmd_verify_smtt,
    "main-thm": _cmd_verify_main_thm,
    "sphere": _cmd_verify_sphere,
    "simplex": _cmd_verify_simplex,
    "alt-product": _cmd_verify_alt_product,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    for attr, default in (("gen", None), ("facets", None), ("json", False), ("seed", 0)):
        if not hasattr(args, attr):
            setattr(args, attr, default)
    try:
        if args.command == "verify" and args.verify_cmd == "simplex":
            comp, source = None, None
        else:
            comp, source = _load_complex(args)
        if args.command == "verify":
            handler = _VERIFY_DISPATCH[args.verify_cmd]
        else:
            handler = _DISPATCH[args.command]
        report, code = handler(args, comp, source)
    except CliInputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (NotATreeError, TreeHasTorsionError, NotAcyclicError) as exc:
        print(f"hypothesis violation: {exc}", file=sys.stderr)
        return EXIT_HYPOTHESIS
    except BudgetExceededError as exc:
        print(f"warning: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    _emit(report, args.json)
    return code


def run():
    sys.exit(main())


if __name__ == "__main__":
    run()
