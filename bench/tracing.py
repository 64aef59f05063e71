"""Per-layer tracing from outside the package.

``install`` wraps each traced public function at every module binding it
is looked up through (``invariant_factors``, for one, is imported by name
into ``trees``, ``complexes`` and ``critical``), and methods on their
class, so calls made inside the package are caught too.  Every call
becomes a span (id, name, start, end, parent) kept in memory; a
function's self time is its span minus the time covered by its child
spans.  ``uninstall`` puts every original binding back.

Counter hooks run after a span has closed.  Their time is charged to no
function: it is added to the parent's child time, so it never shows up
as the parent's self time.
"""

from __future__ import annotations

import functools
import importlib
import sys
from collections import Counter, defaultdict
from time import perf_counter

# (metric prefix, module, attribute); "Class.attr" names a class attribute
TARGETS = [
    ("complexes.from_facets", "simpcrit.complexes", "SimplicialComplex.from_facets"),
    ("complexes.boundary_matrix", "simpcrit.complexes", "SimplicialComplex.boundary_matrix"),
    ("complexes.reduced_homology", "simpcrit.complexes", "SimplicialComplex.reduced_homology"),
    ("complexes.hash", "simpcrit.complexes", "SimplicialComplex.__hash__"),
    ("intlinalg.smith_normal_form", "simpcrit.intlinalg", "smith_normal_form"),
    ("intlinalg.invariant_factors", "simpcrit.intlinalg", "invariant_factors"),
    ("intlinalg.rank", "simpcrit.intlinalg", "rank"),
    ("intlinalg.determinant", "simpcrit.intlinalg", "determinant"),
    ("intlinalg.lattice_membership", "simpcrit.intlinalg", "lattice_membership"),
    ("intlinalg.matmul", "simpcrit.intlinalg", "IntMatrix.__mul__"),
    ("intlinalg.char_poly", "simpcrit.intlinalg", "char_poly"),
    ("critical.laplacian", "simpcrit.critical", "laplacian"),
    ("critical.reduced_laplacian", "simpcrit.critical", "reduced_laplacian"),
    ("critical.critical_group_direct", "simpcrit.critical", "critical_group_direct"),
    ("critical.critical_group_reduced", "simpcrit.critical", "critical_group_reduced"),
    ("critical.pi_product", "simpcrit.critical", "pi_product"),
    ("trees.enumerate_trees", "simpcrit.trees", "enumerate_trees"),
    ("trees.find_torsion_free_tree", "simpcrit.trees", "find_torsion_free_tree"),
    ("trees.is_spanning_tree", "simpcrit.trees", "is_spanning_tree"),
    ("flows.fire", "simpcrit.flows", "fire"),
    ("flows.equivalent", "simpcrit.flows", "equivalent"),
    ("flows.to_group_element", "simpcrit.flows", "to_group_element"),
    ("flows.extend_to_conservative", "simpcrit.flows", "extend_to_conservative"),
    ("flows.stabilize", "simpcrit.flows", "stabilize"),
    ("flows.critical_representative", "simpcrit.flows", "critical_representative"),
    ("flows.is_recurrent", "simpcrit.flows", "is_recurrent"),
    ("cli.main", "simpcrit.cli", "main"),
]

# counters beyond calls and self time: (name, unit, better)
COUNTERS = [
    ("trees.leaves", "count", "higher"),
    ("trees.extensions", "count", "lower"),
    ("trees.leaves_per_kext", "ratio", "higher"),
    ("intlinalg.snf.cells", "count", "lower"),
    ("intlinalg.snf.max_side", "count", "lower"),
    ("intlinalg.snf.unit_factor_ratio", "ratio", "higher"),
    ("intlinalg.snf.transform_bits_max", "bits", "lower"),
    ("intlinalg.snf.repeat_ratio", "ratio", "lower"),
    ("intlinalg.char_poly.coeff_bits_max", "bits", "lower"),
    ("critical.laplacian.repeat_ratio", "ratio", "lower"),
    ("complexes.boundary_matrix.repeat_ratio", "ratio", "lower"),
    ("flows.firings", "count", "lower"),
    ("flows.firings_per_s", "1/s", "higher"),
    ("trace.coverage", "ratio", "higher"),
    ("trace.overhead_frac", "ratio", "lower"),
]


def per_layer_specs():
    """Every per-layer metric as (name, unit, better), in report order."""
    out = []
    for name, _, _ in TARGETS:
        out.append((f"{name}.calls", "count", "lower"))
        out.append((f"{name}.self_s", "s", "lower"))
    return out + COUNTERS


def _matrix_key(m):
    return hash((m.rows, m.cols, tuple(map(tuple, m.data))))


def _max_bits(*matrices):
    return max((abs(x).bit_length() for m in matrices for row in m.data for x in row), default=0)


class Recorder:
    """In-memory spans plus the per-function totals and counters."""

    def __init__(self):
        self.spans = []  # (id, name, start, end, parent id or -1)
        self.stack = []  # open frames: [span id, child time]
        self.next_id = 0
        self.calls = Counter()
        self.self_s = defaultdict(float)
        self.total_s = defaultdict(float)
        self.top_s = 0.0  # time inside spans that have no parent
        self.stats = Counter()
        self.seen = defaultdict(set)
        self._keep = []  # objects whose id() is a repeat key stay alive

    def wrap(self, name, fn):
        hook = _HOOKS.get(name)
        rec = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [rec.next_id, 0.0]
            rec.next_id += 1
            parent = rec.stack[-1] if rec.stack else None
            rec.stack.append(frame)
            result = None
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                t1 = perf_counter()
                rec.stack.pop()
                if hook is not None and result is not None:
                    hook(rec, args, kwargs, result)
                t2 = perf_counter()
                rec.spans.append((frame[0], name, t0, t1, parent[0] if parent else -1))
                rec.calls[name] += 1
                rec.self_s[name] += (t1 - t0) - frame[1]
                rec.total_s[name] += t1 - t0
                if parent is not None:
                    parent[1] += t2 - t0
                else:
                    rec.top_s += t1 - t0

        traced.__wrapped_by_bench__ = True
        return traced

    def repeat(self, kind, key, keep=None):
        """Count a call, and a repeat if ``key`` was seen before."""
        self.stats[f"{kind}.calls"] += 1
        if key in self.seen[kind]:
            self.stats[f"{kind}.repeats"] += 1
        else:
            self.seen[kind].add(key)
            if keep is not None:
                self._keep.append(keep)

    def dump(self, path):
        """Write the spans as tab-separated lines: id, parent, name, start, end."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id\tparent\tname\tstart\tend\n")
            for sid, name, t0, t1, parent in self.spans:
                fh.write(f"{sid}\t{parent}\t{name}\t{t0:.9f}\t{t1:.9f}\n")

    def metrics(self, traced_wall_s):
        """Per-layer values of one traced pass, except overhead_frac,
        which needs the untraced passes and is filled in by the caller."""
        out = {}
        for name, _, _ in TARGETS:
            out[f"{name}.calls"] = self.calls[name]
            out[f"{name}.self_s"] = self.self_s[name]
        st = self.stats

        def ratio(a, b):
            return a / b if b else 0.0

        out["trees.leaves"] = st["trees.leaves"]
        out["trees.extensions"] = st["trees.extensions"]
        out["trees.leaves_per_kext"] = ratio(1000 * st["trees.leaves"], st["trees.extensions"])
        out["intlinalg.snf.cells"] = st["snf.cells"]
        out["intlinalg.snf.max_side"] = st["snf.max_side"]
        out["intlinalg.snf.unit_factor_ratio"] = ratio(st["snf.unit_factors"], st["snf.factors"])
        out["intlinalg.snf.transform_bits_max"] = st["snf.transform_bits_max"]
        out["intlinalg.snf.repeat_ratio"] = ratio(st["snf.repeats"], st["snf.calls"])
        out["intlinalg.char_poly.coeff_bits_max"] = st["char_poly.coeff_bits_max"]
        out["critical.laplacian.repeat_ratio"] = ratio(
            st["laplacian.repeats"], st["laplacian.calls"]
        )
        out["complexes.boundary_matrix.repeat_ratio"] = ratio(
            st["boundary_matrix.repeats"], st["boundary_matrix.calls"]
        )
        out["flows.firings"] = st["flows.firings"]
        out["flows.firings_per_s"] = ratio(st["flows.firings"], self.total_s["flows.stabilize"])
        out["trace.coverage"] = ratio(self.top_s, traced_wall_s)
        return out


# -- counter hooks: (recorder, call args, call kwargs, result) --------------


def _snf_common(rec, mat, factors):
    st = rec.stats
    st["snf.cells"] += mat.rows * mat.cols
    st["snf.max_side"] = max(st["snf.max_side"], mat.rows, mat.cols)
    st["snf.factors"] += len(factors)
    st["snf.unit_factors"] += sum(1 for d in factors if d == 1)
    rec.repeat("snf", _matrix_key(mat))


def _hook_snf(rec, args, kwargs, result):
    _snf_common(rec, args[0], result.d)
    bits = _max_bits(result.u, result.v, result.u_inv, result.v_inv)
    rec.stats["snf.transform_bits_max"] = max(rec.stats["snf.transform_bits_max"], bits)


def _hook_invariant_factors(rec, args, kwargs, result):
    _snf_common(rec, args[0], result)


def _hook_char_poly(rec, args, kwargs, result):
    bits = max((abs(c).bit_length() for c in result), default=0)
    rec.stats["char_poly.coeff_bits_max"] = max(rec.stats["char_poly.coeff_bits_max"], bits)


def _hook_laplacian(rec, args, kwargs, result):
    kind = args[2] if len(args) > 2 else kwargs.get("kind", "up_down")
    rec.repeat("laplacian", (id(args[0]), args[1], str(kind)), keep=args[0])


def _hook_boundary_matrix(rec, args, kwargs, result):
    rec.repeat("boundary_matrix", (id(args[0]), args[1]), keep=args[0])


def _hook_enumerate_trees(rec, args, kwargs, result):
    rec.stats["trees.leaves"] += result.count
    rec.stats["trees.extensions"] += result.extensions


def _hook_stabilize(rec, args, kwargs, result):
    rec.stats["flows.firings"] += sum(result[1].values())


_HOOKS = {
    "intlinalg.smith_normal_form": _hook_snf,
    "intlinalg.invariant_factors": _hook_invariant_factors,
    "intlinalg.char_poly": _hook_char_poly,
    "critical.laplacian": _hook_laplacian,
    "complexes.boundary_matrix": _hook_boundary_matrix,
    "trees.enumerate_trees": _hook_enumerate_trees,
    "flows.stabilize": _hook_stabilize,
}


# -- installing and removing the wrappers -----------------------------------


def _package_modules():
    return [m for n, m in sorted(sys.modules.items()) if n == "simpcrit" or n.startswith("simpcrit.")]


def install(rec):
    """Wrap every target; returns the patch list that ``uninstall`` takes."""
    patches = []
    modules = _package_modules()
    for name, modname, attr in TARGETS:
        mod = importlib.import_module(modname)
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(mod, cls_name)
            raw = cls.__dict__[meth]
            if isinstance(raw, classmethod):
                new = classmethod(rec.wrap(name, raw.__func__))
            else:
                new = rec.wrap(name, raw)
            patches.append((cls, meth, raw))
            setattr(cls, meth, new)
            continue
        fn = getattr(mod, attr)
        wrapper = rec.wrap(name, fn)
        for m in modules:
            for key, value in list(vars(m).items()):
                if value is fn:
                    patches.append((m, key, value))
                    setattr(m, key, wrapper)
    return patches


def uninstall(patches):
    for owner, attr, original in reversed(patches):
        setattr(owner, attr, original)


def find_patched():
    """Names of package bindings that still hold a benchmark wrapper."""
    found = []
    for m in _package_modules():
        for key, value in vars(m).items():
            inner = value.__func__ if isinstance(value, classmethod) else value
            if getattr(inner, "__wrapped_by_bench__", False):
                found.append(f"{m.__name__}.{key}")
            if isinstance(value, type):
                for attr, member in vars(value).items():
                    inner = member.__func__ if isinstance(member, classmethod) else member
                    if getattr(inner, "__wrapped_by_bench__", False):
                        found.append(f"{m.__name__}.{key}.{attr}")
    return found
