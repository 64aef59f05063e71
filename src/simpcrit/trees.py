"""Simplicial spanning trees.

Recognition, one lexicographic depth-first search with rank-based
pruning (the exhaustive census, and the first torsion-free tree at its
first such leaf), and torsion-weighted counts tau_i.  The matrix-tree
identities that tie tau_i to the Laplacians are checked in ``critical``.

An i-dimensional spanning tree of a complex is determined by its set of
i-faces (it always contains the full (i-1)-skeleton): the boundary
columns of those faces must be linearly independent over Q and their
number must equal f_i - beta_i + beta_{i-1} of the i-skeleton.  The
remaining tree condition then follows, and the torsion order
|H_{i-1}(tree)| is the product of the invariant factors of the
restricted boundary matrix.

An i-tree exists exactly when beta~_{i-1} = 0 (Duval, Klivans and
Martin, Simplicial matrix-tree theorems, Trans. AMS 2009).  The
exhaustive search reads the torsion off its last Bareiss pivot instead:
by the same paper's determinant lemma, the square minor of d_i on the
rows outside a fixed (i-1)-basis and the columns of a tree T is
+-c |H_{i-1}(T)|, with an index c that does not depend on T.  The search
calibrates c with the tree check at its first leaf and divides every
leaf's pivot by it, exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import prod

from .complexes import SimplicialComplex, make_face
from .intlinalg import column_basis, invariant_factors

DEFAULT_BUDGET = 10_000_000


class HypothesisError(ValueError):
    """The request is outside the hypotheses of the theorem it uses; the
    CLI exits 3.  A spent budget is not one: BudgetExceededError."""


class NotATreeError(HypothesisError):
    """The given set of faces is not a simplicial spanning tree."""


class TreeHasTorsionError(HypothesisError):
    """This tree has nontrivial codimension-one torsion, which the
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


class NotAcyclicError(HypothesisError):
    """The skeleton is not acyclic in positive codimension, which the
    matrix-tree theorems assume."""


class BudgetExceededError(Exception):
    """The work budget ran out before the search could give its answer."""


class _StopStream(Exception):
    pass


def required_tree_size(comp: SimplicialComplex, i) -> int:
    """f_i - beta_i + beta_{i-1}, computed on the i-skeleton.

    On the i-skeleton f_i - beta_i = rank d_i and beta_{i-1} =
    f_{i-1} - rank d_{i-1} - rank d_i, so this is f_{i-1} - rank d_{i-1}.
    """
    return len(comp.faces(i - 1)) - len(comp._boundary_factors(i - 1))


def _check_dim(comp, i):
    if not 0 <= i <= comp.dim:
        raise ValueError(f"dimension {i} out of range [0, {comp.dim}]")


def _rank_and_torsion(bd, cols):
    """(rank, torsion order) of the boundary columns ``cols`` of bd: the
    number and the product of the invariant factors of that submatrix."""
    facs = invariant_factors(bd.submatrix(range(bd.rows), cols))
    return len(facs), prod(facs)


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
    r, torsion = _rank_and_torsion(comp.boundary_matrix(i), cols)
    if r != len(fs):
        return None
    return SpanningTree(dimension=i, top_faces=tuple(fs), torsion_order=torsion)


def as_spanning_tree(comp, i, tree) -> SpanningTree:
    """Coerce a SpanningTree or an iterable of i-faces, checked once per
    (complex, i, face set).  The checked tree is returned, never the
    caller's torsion order; a failed check raises NotATreeError, and only
    an unknown face or a bad dimension is not remembered."""
    if isinstance(tree, SpanningTree):
        if tree.dimension != i:
            raise NotATreeError(f"tree has dimension {tree.dimension}, expected {i}")
        tree = tree.top_faces
    try:
        faces = tuple(sorted({make_face(f) for f in tree}))
        checked = comp._memoized(("tree", i, faces), lambda: is_spanning_tree(comp, i, faces))
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
    the census's first torsion-free leaf, or None (with no budget spent
    if beta~_{i-1} != 0); raises BudgetExceededError when the budget runs
    out before one is found.
    """
    _check_dim(comp, i)
    found = []

    def grab(t):
        if t.torsion_order == 1:
            found.append(t)
            return True
        return False

    # the full search, counting extensions from zero again, runs only if
    # the first leaf, from ``_descend``, has torsion
    census = _search(comp, i, budget, grab, descend=True)
    if census.count and not found:
        census = _search(comp, i, budget, grab)
    if found:
        return found[0]
    if not census.complete:
        raise BudgetExceededError(
            f"enumeration budget of {budget} extensions exceeded "
            f"before a torsion-free {i}-tree was found"
        )
    return None


class _EnumState:
    __slots__ = ("comp", "faces", "need", "budget", "on_tree", "census")

    def __init__(self, comp, i, budget, on_tree):
        self.comp = comp
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

    def checked_torsion(self, chosen):
        """The torsion of the leaf ``chosen`` from its memoized tree check."""
        faces = [self.faces[j] for j in chosen]
        return as_spanning_tree(self.comp, self.census.dimension, faces).torsion_order


def _record(state, chosen, torsion):
    c = state.census
    c.count += 1
    c.tau += torsion * torsion
    c.torsion_histogram[torsion] = c.torsion_histogram.get(torsion, 0) + 1
    if state.on_tree is not None and state.on_tree(
        SpanningTree(c.dimension, tuple(state.faces[j] for j in chosen), torsion)
    ):
        raise _StopStream


def _exact_div(a, b):
    q, r = divmod(a, b)
    if r:
        raise ArithmeticError(f"leaf minor {a} is not a multiple of {b}")
    return q


def _dfs(state, root):
    """The search, with an explicit stack so that its depth costs no
    Python frames.  ``levels[k]`` is [candidates, next position, pivot]
    below ``chosen[:k]``: (face index, column reduced against the chosen
    columns), nonzero, in increasing index order, and the pivot taken at
    level k - 1 (1 at the root).

    ``root`` holds the columns of d_i on the ``need`` rows of
    ``_rows_outside_basis``.  Each step is Bareiss's, divided exactly by
    the parent pivot, so a level-k entry is a (k+1)-minor and a leaf's
    one nonzero entry is +-det d_i[rows, tree] = c |H_{i-1}(tree)| (see
    the module docstring).  The first leaf reads c off its tree check."""
    need = state.need
    chosen = []
    levels = [[root, 0, 1]]
    index = None
    while levels:
        level = levels[-1]
        cands, pos, prev = level
        left = need - len(chosen)
        if len(cands) - pos < left:
            levels.pop()
            if chosen:
                chosen.pop()
            continue
        level[1] = pos + 1
        j, vec = cands[pos]
        if left == 1:
            tree = chosen + [j]
            det = abs(next(x for x in vec if x))
            if index is None:
                index = _exact_div(det, state.checked_torsion(tree))
            _record(state, tree, _exact_div(det, index))
            continue
        # take candidate #pos and reduce the rest against its column
        state.charge(len(cands) - pos - 1)
        p = 0
        while not vec[p]:
            p += 1
        a = vec[p]
        child = []
        for k in range(pos + 1, len(cands)):
            cand = cands[k]
            v2 = cand[1]
            c = v2[p]
            if c:
                w = [(a * x - c * y) // prev for x, y in zip(v2, vec)]
                if any(w):
                    child.append((cand[0], w))
            elif a == prev:
                child.append(cand)
            else:
                child.append((cand[0], [a * x // prev for x in v2]))
        if len(child) >= left - 1:
            chosen.append(j)
            levels.append([child, 0, a])


def _descend(state, cands):
    """The first leaf of ``_dfs``, keeping no candidate lists: each
    candidate is reduced against the taken columns, in ``_dfs``'s order,
    only when its turn comes (``column_basis``), so nothing past the
    leaf's last face is touched and the extensions are fewer."""
    chosen = []
    for j, steps, taken in column_basis(cands):
        state.charge(steps)
        if taken:
            chosen.append(j)
            if len(chosen) == state.need:
                _record(state, chosen, state.checked_torsion(chosen))
                return


def _root_candidates(bd, rows):
    # boundary columns have entries 0 and +-1, so they are already primitive
    data = [bd.data[r] for r in rows]
    cols = ([row[j] for row in data] for j in range(bd.cols))
    return ((j, col) for j, col in enumerate(cols) if any(col))


def _rows_outside_basis(comp, i):
    """The (i-1)-faces outside the first maximal independent set of
    columns of d_{i-1}: f_{i-1} - rank d_{i-1} = ``required_tree_size``
    of them.  A chain in ker d_{i-1} that vanishes on them is a relation
    among independent columns, so it is zero: restricting to these rows
    is injective on ker d_{i-1}, which holds the columns of d_i.  Column
    sets of d_i are independent on these rows iff they are on all."""
    bd = comp.boundary_matrix(i - 1)
    basis = {j for j, _, taken in column_basis(_root_candidates(bd, range(bd.rows))) if taken}
    return [r for r in range(bd.cols) if r not in basis]


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
    ``complete=False`` and a warning, never a silent truncation.  The
    census is empty, complete and warned of exactly when beta~_{i-1} != 0.
    """
    _check_dim(comp, i)
    return _search(comp, i, budget, on_tree)


def _search(comp, i, budget, on_tree, descend=False):
    """The one tree search: depth-first over face indices in lexicographic
    order, a leaf for every set of ``required_tree_size`` independent
    columns.  With ``descend``, only up to its first leaf.  When
    beta~_{i-1} != 0 no i-tree exists: an empty, complete census with a
    warning, and no budget spent."""
    if comp.reduced_homology(i - 1).betti:
        why = f"reduced homology in dimension {i - 1} is infinite: no {i}-dimensional spanning trees"
        return TreeCensus(dimension=i, warnings=(why,))
    state = _EnumState(comp, i, budget, on_tree)
    census = state.census
    bd = comp.boundary_matrix(i)
    try:
        if descend:
            _descend(state, _root_candidates(bd, range(bd.rows)))
        else:
            _dfs(state, list(_root_candidates(bd, _rows_outside_basis(comp, i))))
    except BudgetExceededError:
        census.complete = False
        census.warnings += (
            f"enumeration budget of {budget} extensions exceeded; census is partial",
        )
    except _StopStream:
        census.complete = False
        census.warnings += ("enumeration stopped early by the stream callback",)
    return census
