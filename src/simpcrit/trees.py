"""Simplicial spanning trees.

Recognition, exhaustive enumeration with rank-based pruning,
torsion-weighted counts tau_i, and verification of the matrix-tree
identities.

An i-dimensional spanning tree of a complex is determined by its set of
i-faces (it always contains the full (i-1)-skeleton): the boundary
columns of those faces must be linearly independent over Q and their
number must equal f_i - beta_i + beta_{i-1} of the i-skeleton.  The
remaining tree condition then follows, and the torsion order
|H_{i-1}(tree)| is the product of the invariant factors of the
restricted boundary matrix.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .complexes import SimplicialComplex, make_face
from .intlinalg import Echelon, determinant, eliminate, invariant_factors, rank

DEFAULT_BUDGET = 10_000_000


class NotATreeError(ValueError):
    """The given set of faces is not a simplicial spanning tree."""


class TreeHasTorsionError(ValueError):
    """The tree has nontrivial codimension-one torsion, which the
    requested operation's hypotheses forbid."""


@dataclass(frozen=True)
class SpanningTree:
    dimension: int
    top_faces: tuple
    torsion_order: int


@dataclass
class TreeCensus:
    dimension: int
    count: int = 0
    tau: int = 0
    torsion_histogram: dict = field(default_factory=dict)
    complete: bool = True
    extensions: int = 0
    warnings: tuple = ()


class BudgetExceededError(Exception):
    """The work budget ran out before the search could give its answer."""


class _StopStream(Exception):
    pass


def required_tree_size(comp: SimplicialComplex, i) -> int:
    """f_i - beta_i + beta_{i-1}, computed on the i-skeleton."""
    r_i = rank(comp.boundary_matrix(i))
    f_prev = len(comp.faces(i - 1))
    r_prev = rank(comp.boundary_matrix(i - 1))
    beta_prev = (f_prev - r_prev) - r_i
    return r_i + beta_prev


def is_spanning_tree(comp: SimplicialComplex, i, top_faces):
    """The SpanningTree on those i-faces, or None if they are not one.

    Checks column independence and the face-count condition; the third
    tree condition follows from these two.  Unknown faces raise.
    """
    if not 0 <= i <= comp.dim:
        raise ValueError(f"dimension {i} out of range [0, {comp.dim}]")
    fs = sorted({make_face(f) for f in top_faces})
    cols = [comp.face_index(i, f) for f in fs]
    if len(fs) != required_tree_size(comp, i):
        return None
    sub = comp.boundary_matrix(i).submatrix(range(len(comp.faces(i - 1))), cols)
    facs = invariant_factors(sub)
    if len(facs) != len(fs):
        return None
    torsion = 1
    for f in facs:
        torsion *= f
    return SpanningTree(dimension=i, top_faces=tuple(fs), torsion_order=torsion)


def as_spanning_tree(comp, i, tree) -> SpanningTree:
    """Coerce a SpanningTree or an iterable of i-faces, re-validating it."""
    cand = tree.top_faces if isinstance(tree, SpanningTree) else tree
    if isinstance(tree, SpanningTree) and tree.dimension != i:
        raise NotATreeError(f"tree has dimension {tree.dimension}, expected {i}")
    try:
        checked = is_spanning_tree(comp, i, cand)
    except ValueError as exc:
        raise NotATreeError(str(exc)) from None
    if checked is None:
        raise NotATreeError(f"not a {i}-dimensional spanning tree of the complex")
    return checked


def require_torsion_free(tree: SpanningTree) -> SpanningTree:
    if tree.torsion_order != 1:
        raise TreeHasTorsionError(
            f"spanning tree has torsion of order {tree.torsion_order}"
        )
    return tree


def _greedy_tree(comp, i):
    """Lexicographically greedy maximal independent set of i-faces."""
    need = required_tree_size(comp, i)
    bd = comp.boundary_matrix(i)
    ech = Echelon()
    picked = []
    for j, face in enumerate(comp.faces(i)):
        if ech.insert(bd.column(j)):
            picked.append(face)
            if len(picked) == need:
                break
    if len(picked) != need:
        return None
    return is_spanning_tree(comp, i, picked)


def find_torsion_free_tree(comp, i, *, budget=DEFAULT_BUDGET):
    """A torsion-free i-tree: greedy first, enumeration as a fallback.

    Returns None only when the search completed and no spanning tree is
    torsion-free (or none exists); raises BudgetExceededError when the
    budget ran out before a torsion-free tree was found.
    """
    tree = _greedy_tree(comp, i)
    if tree is None or tree.torsion_order == 1:
        return tree
    found = []

    def grab(t):
        if t.torsion_order == 1:
            found.append(t)
            return True
        return False

    census = enumerate_trees(comp, i, budget=budget, on_tree=grab)
    if found:
        return found[0]
    if not census.complete:
        raise BudgetExceededError(
            f"enumeration budget of {budget} extensions exceeded "
            f"before a torsion-free {i}-tree was found"
        )
    return None


class _EnumState:
    __slots__ = ("bd", "faces", "need", "budget", "on_tree", "census")

    def __init__(self, bd, faces, need, budget, on_tree, census):
        self.bd = bd
        self.faces = faces
        self.need = need
        self.budget = budget
        self.on_tree = on_tree
        self.census = census


def _record(state, chosen):
    rows = range(state.bd.rows)
    sub = state.bd.submatrix(rows, chosen)
    torsion = 1
    for f in invariant_factors(sub):
        torsion *= f
    tree = SpanningTree(
        dimension=state.census.dimension,
        top_faces=tuple(state.faces[j] for j in chosen),
        torsion_order=torsion,
    )
    c = state.census
    c.count += 1
    c.tau += torsion * torsion
    c.torsion_histogram[torsion] = c.torsion_histogram.get(torsion, 0) + 1
    if state.on_tree is not None and state.on_tree(tree):
        raise _StopStream


def _dfs(state, cands, chosen):
    # cands: (face_index, column reduced against all chosen basis vectors),
    # columns nonzero, indices increasing past chosen
    need = state.need - len(chosen)
    total = len(cands)
    for pos in range(total):
        if total - pos < need:
            break
        _expand(state, cands, pos, chosen)


def _expand(state, cands, pos, chosen):
    """Force candidate #pos into the tree and recurse on the remainder,
    reduced against its column."""
    j, vec = cands[pos]
    if state.need - len(chosen) == 1:
        _record(state, chosen + [j])
        return
    p = 0
    while not vec[p]:
        p += 1
    child = []
    for pos2 in range(pos + 1, len(cands)):
        state.census.extensions += 1
        if state.census.extensions > state.budget:
            raise BudgetExceededError
        j2, v2 = cands[pos2]
        if v2[p]:
            w = eliminate(v2, vec, p)
            if any(w):
                child.append((j2, w))
        else:
            child.append((j2, v2))
    if len(child) >= state.need - len(chosen) - 1:
        _dfs(state, child, chosen + [j])


def _root_candidates(bd):
    # boundary columns have entries 0 and +-1, so they are already primitive
    cols = (bd.column(j) for j in range(bd.cols))
    return [(j, col) for j, col in enumerate(cols) if any(col)]


def enumerate_trees(
    comp: SimplicialComplex,
    i,
    *,
    budget=DEFAULT_BUDGET,
    on_tree=None,
) -> TreeCensus:
    """Exhaustively enumerate the i-dimensional spanning trees.

    Subsets are explored in lexicographic order with incremental-rank
    pruning, so dependent prefixes die early.  ``on_tree`` receives each
    SpanningTree as found; returning a truthy value stops the run.
    Exceeding ``budget`` column reductions leaves a partial census with
    ``complete=False`` and a warning, never a silent truncation.

    If the i-skeleton is not acyclic in positive codimension the census
    is empty (no spanning trees exist).
    """
    if not 0 <= i <= comp.dim:
        raise ValueError(f"dimension {i} out of range [0, {comp.dim}]")
    census = TreeCensus(dimension=i)
    if not comp.skeleton(i).is_apc():
        census.warnings = (
            "skeleton is not acyclic in positive codimension: no spanning trees",
        )
        return census
    need = required_tree_size(comp, i)
    bd = comp.boundary_matrix(i)
    state = _EnumState(bd, comp.faces(i), need, budget, on_tree, census)
    try:
        if need == 0:
            _record(state, [])
        else:
            _dfs(state, _root_candidates(bd), [])
    except BudgetExceededError:
        census.complete = False
        census.warnings += (
            f"enumeration budget of {budget} extensions exceeded; census is partial",
        )
    except _StopStream:
        census.complete = False
        census.warnings += ("enumeration stopped early by the stream callback",)
    return census


@dataclass(frozen=True)
class SmttReport:
    """Both matrix-tree identities evaluated exactly on one complex.

    ``tree_faces`` records which (i-1)-tree was used in the determinant
    formula; the theorem allows any, so the report keeps the choice
    reproducible.
    """

    dimension: int
    pi: int
    tau: int
    tau_prev: int
    homology_order: int
    tree_faces: tuple
    tree_torsion: int
    det_reduced: int
    eigenvalue_identity_ok: bool
    determinant_identity_ok: bool
    warnings: tuple = ()

    @property
    def ok(self):
        return self.eigenvalue_identity_ok and self.determinant_identity_ok


def verify_smtt(
    comp: SimplicialComplex,
    i,
    *,
    census=None,
    census_prev=None,
    budget=DEFAULT_BUDGET,
) -> SmttReport:
    """Check pi_i = tau_i * tau_{i-1} / |H_{i-2}|^2 and the determinant
    form of tau_i, all in exact integer arithmetic (cross-multiplied).

    Precomputed censuses may be passed in to avoid re-enumeration.
    A partial census makes the identities undefined: BudgetExceededError.
    """
    from .critical import pi_product, reduced_laplacian

    if not 1 <= i <= comp.dim:
        raise ValueError(f"dimension {i} out of range [1, {comp.dim}]")
    if census is None:
        census = enumerate_trees(comp, i, budget=budget)
    if census_prev is None:
        census_prev = enumerate_trees(comp, i - 1, budget=budget)
    warnings = census.warnings + census_prev.warnings
    for c in (census, census_prev):
        if not c.complete:
            raise BudgetExceededError(f"{c.dimension}-tree " + "; ".join(c.warnings))
    if census_prev.tau == 0:
        raise ValueError("tau_{i-1} is zero: the identities are undefined")
    h = comp.reduced_homology(i - 2)
    if h.betti:
        raise ValueError("H_{i-2} of the complex is infinite")
    h_order = h.order

    pi = pi_product(comp, i)
    eig_ok = pi * h_order * h_order == census.tau * census_prev.tau

    tree = find_torsion_free_tree(comp, i - 1, budget=budget)
    if tree is None:
        tree = _greedy_tree(comp, i - 1)
    if tree is None:
        raise ValueError(f"no ({i - 1})-dimensional spanning tree exists")
    det = determinant(reduced_laplacian(comp, i - 1, tree))
    t2 = tree.torsion_order * tree.torsion_order
    det_ok = census.tau * t2 == h_order * h_order * det

    return SmttReport(
        dimension=i,
        pi=pi,
        tau=census.tau,
        tau_prev=census_prev.tau,
        homology_order=h_order,
        tree_faces=tree.top_faces,
        tree_torsion=tree.torsion_order,
        det_reduced=det,
        eigenvalue_identity_ok=eig_ok,
        determinant_identity_ok=det_ok,
        warnings=warnings,
    )
