"""Simplicial spanning trees.

Recognition, one lexicographic depth-first search with rank-based
pruning (the exhaustive census, and the first torsion-free tree at its
first such leaf), torsion-weighted counts tau_i, and verification of the
matrix-tree identities.

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
from .intlinalg import determinant, eliminate, invariant_factors, rank

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
    """f_i - beta_i + beta_{i-1}, computed on the i-skeleton.

    On the i-skeleton f_i - beta_i = rank d_i and beta_{i-1} =
    f_{i-1} - rank d_{i-1} - rank d_i, so this is f_{i-1} - rank d_{i-1}.
    """
    return len(comp.faces(i - 1)) - rank(comp.boundary_matrix(i - 1))


def _check_dim(comp, i):
    if not 0 <= i <= comp.dim:
        raise ValueError(f"dimension {i} out of range [0, {comp.dim}]")


def is_spanning_tree(comp: SimplicialComplex, i, top_faces):
    """The SpanningTree on those i-faces, or None if they are not one.

    Checks column independence and the face-count condition; the third
    tree condition follows from these two.  Unknown faces raise.
    """
    _check_dim(comp, i)
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


def find_torsion_free_tree(comp, i, *, budget=DEFAULT_BUDGET):
    """The first torsion-free i-tree in lexicographic order of face indices.

    ``budget`` counts the tree search's column reductions from the first
    one on.  Its first leaf, the lexicographically first basis, costs at
    most (tree size) x (index of its last face) extensions: 274,170 for
    the 741-face first 2-tree of ``simplex_skeleton(40, 2)``.  Returns
    None when no i-tree exists (beta~_{i-1} != 0) or none is torsion-free;
    raises BudgetExceededError when the budget runs out before one is found.
    """
    _check_dim(comp, i)
    if comp.reduced_homology(i - 1).betti:
        return None
    return _first_tree(comp, i, budget, torsion_free=True)


def _first_tree(comp, i, budget, torsion_free):
    """The search's first leaf with torsion 1 (any torsion unless
    ``torsion_free``).  The full search, counting extensions from zero
    again, runs only if the first leaf, from ``_descend``, is rejected."""
    found = []

    def grab(t):
        if t.torsion_order == 1 or not torsion_free:
            found.append(t)
            return True
        return False

    census = _search(comp, i, budget, grab, descend=True)
    if census.count and not found:
        census = _search(comp, i, budget, grab)
    if found:
        return found[0]
    if not census.complete:
        kind = "torsion-free " if torsion_free else ""
        raise BudgetExceededError(
            f"enumeration budget of {budget} extensions exceeded "
            f"before a {kind}{i}-tree was found"
        )
    return None


class _EnumState:
    __slots__ = ("bd", "faces", "need", "budget", "on_tree", "census")

    def __init__(self, comp, i, budget, on_tree):
        self.bd = comp.boundary_matrix(i)
        self.faces = comp.faces(i)
        self.need = required_tree_size(comp, i)
        self.budget = budget
        self.on_tree = on_tree
        self.census = TreeCensus(dimension=i)

    def charge(self, n):
        """Count n extensions (column reductions) against the budget."""
        c = self.census
        if c.extensions + n > self.budget:
            c.extensions = self.budget + 1
            raise BudgetExceededError
        c.extensions += n


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


def _dfs(state, root):
    """The search, with an explicit stack so that its depth costs no
    Python frames.  ``levels[k]`` is [candidates, next position] below
    ``chosen[:k]``: (face index, column reduced against the chosen
    columns), nonzero, in increasing index order."""
    need = state.need
    chosen = []
    levels = [[root, 0]]
    while levels:
        level = levels[-1]
        cands, pos = level
        left = need - len(chosen)
        if len(cands) - pos < left:
            levels.pop()
            if chosen:
                chosen.pop()
            continue
        level[1] = pos + 1
        j, vec = cands[pos]
        if left == 1:
            _record(state, chosen + [j])
            continue
        # take candidate #pos and reduce the rest against its column
        state.charge(len(cands) - pos - 1)
        p = 0
        while not vec[p]:
            p += 1
        child = []
        for k in range(pos + 1, len(cands)):
            cand = cands[k]
            v2 = cand[1]
            if v2[p]:
                w = eliminate(v2, vec, p)
                if any(w):
                    child.append((cand[0], w))
            else:
                child.append(cand)
        if len(child) >= left - 1:
            chosen.append(j)
            levels.append([child, 0])


def _descend(state, cands):
    """The first leaf of ``_dfs``, keeping no candidate lists: each
    candidate is reduced against the taken columns, in ``_dfs``'s order,
    only when its turn comes, so nothing past the leaf's last face is
    touched and the extensions are fewer.  Records nothing if the
    candidates run out (no tree exists)."""
    basis = []  # (pivot, taken column reduced against the earlier ones)
    chosen = []
    for j, v in cands:
        steps = 0
        for p, b in basis:
            steps += 1
            if v[p]:
                v = eliminate(v, b, p)
                if not any(v):
                    break
        state.charge(steps)
        if any(v):
            chosen.append(j)
            if len(chosen) == state.need:
                _record(state, chosen)
                return
            p = 0
            while not v[p]:
                p += 1
            basis.append((p, v))


def _root_candidates(bd):
    # boundary columns have entries 0 and +-1, so they are already primitive
    cols = (bd.column(j) for j in range(bd.cols))
    return ((j, col) for j, col in enumerate(cols) if any(col))


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
    is empty, with a warning: the matrix-tree theorems it serves assume
    that.  Trees can still exist (whenever beta~_{i-1} = 0), and
    ``find_torsion_free_tree`` does not apply this check.
    """
    _check_dim(comp, i)
    if any(comp.reduced_homology(j).betti for j in range(-1, i)):
        # H~_j for j < i depends only on faces of dimension <= i
        return TreeCensus(dimension=i, warnings=(
            "skeleton is not acyclic in positive codimension: no spanning trees",
        ))
    return _search(comp, i, budget, on_tree)


def _search(comp, i, budget, on_tree, descend=False):
    """The one tree search: depth-first over face indices in lexicographic
    order, a leaf for every set of ``required_tree_size`` independent
    columns.  With ``descend``, only up to its first leaf."""
    state = _EnumState(comp, i, budget, on_tree)
    census = state.census
    try:
        if state.need == 0:
            _record(state, [])
        elif descend:
            _descend(state, _root_candidates(state.bd))
        else:
            _dfs(state, list(_root_candidates(state.bd)))
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

    Precomputed censuses may be passed in to avoid re-enumeration; one
    of the wrong dimension raises ValueError.  A partial census makes
    the identities undefined: BudgetExceededError.  The (i-1)-tree for
    the determinant is the first torsion-free one, else the first of any
    torsion; its search costs no more than the (i-1)-census, so it fits
    in any budget the census fitted in.
    """
    from .critical import pi_product, reduced_laplacian

    if not 1 <= i <= comp.dim:
        raise ValueError(f"dimension {i} out of range [1, {comp.dim}]")
    for c, d in ((census, i), (census_prev, i - 1)):
        if c is not None and c.dimension != d:
            raise ValueError(f"expected a {d}-tree census, got one of dimension {c.dimension}")
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
        tree = _first_tree(comp, i - 1, budget, torsion_free=False)
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
