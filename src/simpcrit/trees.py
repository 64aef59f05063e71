"""Simplicial spanning trees.

Recognition, one lexicographic depth-first search with rank-based
pruning (the exhaustive census), the first torsion-free tree (the
complex's first basis of d_i, the census's first leaf, unless that has
torsion), and torsion-weighted counts tau_i.  The matrix-tree
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
leaf's pivot by it, exactly.  That (i-1)-basis, and the first leaf, are
the first column bases of d_{i-1} and d_i, each computed once per complex.

The census kernel ``_dfs`` works on packed columns.  Each column on the
``need`` rows is one Python int whose lane r, bits [r*w, (r+1)*w), holds
row r as a balanced base-2^w digit, with a small int mask whose bits
cover the nonzero lanes.  A Bareiss step is then a few big-int
operations on whole columns instead of a loop over entries.  The lane
width w is set by Hadamard's bound on the minors the search reads, so no
lane it decodes ever carries into the next (the proof is in ``_dfs``).
The last three levels run on small ints: at three faces left, the three
live lanes of each column are decoded once, each pivot's children are
formed lane by lane, and the last two levels are one pair loop, where a
leaf is a nonzero 2x2 determinant.  Leaves are counted in a dict keyed
by |det| and divided by c once per distinct value when the census is
folded.  Only the first leaf and streamed leaves become SpanningTrees.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import isqrt, prod

from .complexes import SimplicialComplex, make_face
from .intlinalg import IntMatrix, invariant_factors

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
    _check_dim(comp, i)
    return comp._cycle_rank(i - 1)


def _check_dim(comp, i):
    if not 0 <= i <= comp.dim:
        raise ValueError(f"dimension {i} out of range [0, {comp.dim}]")


def _check_budget(budget):
    if budget < 0:
        raise ValueError(f"budget must be at least 0, got {budget}")


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
    bd = comp._boundary_columns(i)
    sub = IntMatrix.from_columns(len(comp.faces(i - 1)), [bd[j] for j in cols])
    facs = invariant_factors(sub)
    if len(facs) != len(fs):
        return None
    return SpanningTree(dimension=i, top_faces=tuple(fs), torsion_order=prod(facs))


def as_spanning_tree(comp, i, tree) -> SpanningTree:
    """Coerce a SpanningTree or an iterable of i-faces, checked once per
    (complex, i, face set).  The checked tree is returned, never the
    caller's torsion order.  A failed check raises NotATreeError; an unknown
    face or a bad dimension raises ValueError and is not remembered."""
    if isinstance(tree, SpanningTree):
        if tree.dimension != i:
            raise NotATreeError(f"tree has dimension {tree.dimension}, expected {i}")
        tree = tree.top_faces
    faces = tuple(sorted({make_face(f) for f in tree}))
    checked = comp._memoized(("tree", i, faces), lambda: is_spanning_tree(comp, i, faces))
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
    """The first torsion-free i-tree in lexicographic order of face indices:
    the census's first torsion-free leaf, or None (with no budget spent if
    beta~_{i-1} != 0).  The first leaf is the complex's first basis of d_i,
    read under ``budget``: at most (tree size) x (index of its last face)
    extensions, 274,170 for the 741-face first 2-tree of
    ``simplex_skeleton(40, 2)``.  Only if it has torsion does the census
    run, counting from zero again.  Raises BudgetExceededError when the
    budget runs out before an answer.
    """
    _check_dim(comp, i)
    _check_budget(budget)
    if comp.reduced_homology(i - 1).betti:
        return None
    try:
        basis = comp._first_basis(i, _EnumState(comp, i, budget, None).charge)
    except BudgetExceededError:
        pass
    else:
        first = as_spanning_tree(comp, i, [comp.faces(i)[j] for j in basis])
        if first.torsion_order == 1:
            return first
        found = []
        census = enumerate_trees(
            comp, i, budget=budget, on_tree=lambda t: t.torsion_order == 1 and not found.append(t)
        )
        if found:
            return found[0]
        if census.complete:
            return None
    raise BudgetExceededError(
        f"enumeration budget of {budget} extensions exceeded "
        f"before a torsion-free {i}-tree was found"
    )


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


def _exact_div(a, b):
    q, r = divmod(a, b)
    if r:
        raise ArithmeticError(f"leaf minor {a} is not a multiple of {b}")
    return q


def _dfs(state, root, width):
    """The search, with an explicit stack so that its depth costs no
    Python frames.  ``levels`` holds one [candidates, next position,
    pivot, live lanes] per level k below ``chosen[:k]``: the candidates
    are the (face index, packed column, lane mask) triples of the columns
    reduced against the chosen ones, nonzero, in increasing index order,
    the pivot is the one taken at level k - 1 (1 at the root), and the
    live lanes are the bits of the need - k rows not yet pivoted on.

    ``root`` holds the columns of d_i on the ``need`` rows of
    ``_rows_outside_basis``, packed by ``_packed_root``: a column is one
    int, sum of x_r << r*width over its entries x_r, so lane r is a
    balanced base-2^width digit, and bit r of its mask is set whenever
    lane r is nonzero (the mask may have more bits set).  Each step is
    Bareiss's, divided exactly by the parent pivot, so a level-k lane is
    a (k+1)-minor and a leaf's one nonzero lane is
    +-det d_i[rows, tree] = c |H_{i-1}(tree)| (see the module
    docstring).

    A step takes column V with mask m.  Its pivot lane p holds V's lowest
    set bit, since the lanes below p are zero, and a is that lane.  A
    later candidate V2 with mask m2 has c = 0 in lane p if m2 misses bit
    p; otherwise c is decoded from V2's low (p+1)*width bits.  Its child
    is (a*V2 - c*V) // prev, with mask (m2 | m) less bit p; with c = 0 it
    is V2 itself when a == prev, else a*V2 // prev.

    The stack holds the levels with four or more faces left; the last
    three run on small ints.  ``triples`` takes the level with three left:
    every candidate lives on the same three lanes, decoded once to
    (x1, x2, x3), and the same step runs on them, with the pivot in the
    first nonzero lane and each child the two other lanes of
    (a*V2 - c*V) // prev, or of V2 or a*V2 // prev when c = 0.  ``pairs``
    takes the last two levels as one loop on the two lanes (x1, x2) of a
    child: taking V then V2 gives the leaf whose one lane is
    (x1*y2 - x2*y1) // prev, the child the step would build; a zero is no
    leaf.  Both charge the budget as the step would, and at the same
    points.  Leaves are counted in ``dets``, keyed by |det|, and folded
    into the census once at exit, each det divided exactly by c.  The
    first leaf reads c off its tree check; only it, and every leaf when
    ``on_tree`` is set, becomes a SpanningTree.  ``room`` counts the
    budget down; its spent part is written back to ``extensions`` at
    exit.

    The lanes never carry.  Every lane the search decodes (a and c in a
    step, x1, x2 and x3 in ``triples``, x1 and x2 at a root of two rows)
    is a minor of order at most ``need`` of the root, whose columns have
    entries 0, +-1 and at most i + 1 nonzeros, so Hadamard's bound gives
    |minor| <= (i + 1)^(need/2) < 2^(width - 1) (see ``enumerate_trees``).  The
    undivided a*V2 - c*V is never decoded, so its lanes may overflow:
    it is the integer sum of u_r << r*width, every u_r a multiple of
    prev (Bareiss), so // prev is exact and gives the lanes u_r / prev,
    which are minors again."""
    need, census, on_tree = state.need, state.census, state.on_tree
    half = 1 << (width - 1)
    digit = (1 << width) - 1
    room = state.budget
    dets = {}
    index = None

    def leaf(tree, det):
        nonlocal index
        if index is None:
            index = _exact_div(det, state.checked_torsion(tree))
        dets[det] = dets.get(det, 0) + 1
        if on_tree is not None and on_tree(SpanningTree(
            census.dimension, tuple(state.faces[j] for j in tree), _exact_div(det, index)
        )):
            raise _StopStream

    def pairs(lanes, prev, chosen):
        nonlocal room
        n = len(lanes)
        for pos in range(n - 1):
            room -= n - pos - 1
            if room < 0:
                raise BudgetExceededError
            j, x1, x2 = lanes[pos]
            for j2, y1, y2 in lanes[pos + 1:]:
                det = x1 * y2 - x2 * y1
                if det:
                    det = abs(det // prev)
                    if index is None or on_tree is not None:
                        leaf(chosen + [j, j2], det)
                    else:
                        dets[det] = dets.get(det, 0) + 1

    def triples(cands, prev, live, chosen):
        nonlocal room
        lo = live & -live
        mid = (live ^ lo) & -(live ^ lo)
        s1 = (lo.bit_length() - 1) * width
        s2 = (mid.bit_length() - 1) * width
        s3 = ((live ^ lo ^ mid).bit_length() - 1) * width
        lanes = []
        # every lane outside ``live`` is zero, so all three reads are exact
        for j, v, _ in cands:
            x1 = (((v >> s1) + half) & digit) - half
            v -= x1 << s1
            x2 = (((v >> s2) + half) & digit) - half
            lanes.append((j, x1, x2, (v - (x2 << s2)) >> s3))
        n = len(lanes)
        for pos in range(n - 2):
            room -= n - pos - 1
            if room < 0:
                raise BudgetExceededError
            t = lanes[pos]
            # the pivot is the first nonzero lane k; the child keeps q and r
            k, q, r = (1, 2, 3) if t[1] else (2, 1, 3) if t[2] else (3, 1, 2)
            j, a, u, w = t[0], t[k], t[q], t[r]
            child = []
            for y in lanes[pos + 1:]:
                c = y[k]
                if c:
                    z1 = (a * y[q] - c * u) // prev
                    z2 = (a * y[r] - c * w) // prev
                    if z1 or z2:
                        child.append((y[0], z1, z2))
                elif a == prev:
                    child.append((y[0], y[q], y[r]))
                else:
                    child.append((y[0], a * y[q] // prev, a * y[r] // prev))
            if len(child) >= 2:
                pairs(child, a, chosen + [j])

    chosen = []
    levels = [[root, 0, 1, (1 << need) - 1]] if need > 3 else []
    try:
        if need == 1:
            for j, v, _ in root:
                leaf([j], abs(v))
        elif need == 2:
            lanes = []
            for j, v, _ in root:
                x1 = ((v + half) & digit) - half
                lanes.append((j, x1, (v - x1) >> width))
            pairs(lanes, 1, [])
        elif need == 3:
            triples(root, 1, 7, [])
        while levels:
            level = levels[-1]
            cands, pos, prev, live = level
            left = need - len(chosen)
            if len(cands) - pos < left:
                levels.pop()
                if chosen:
                    chosen.pop()
                continue
            level[1] = pos + 1
            # take candidate #pos and reduce the rest against its column
            room -= len(cands) - pos - 1
            if room < 0:
                raise BudgetExceededError
            j, vec, mask = cands[pos]
            p = ((vec & -vec).bit_length() - 1) // width
            shift = p * width
            a = (((vec >> shift) + half) & digit) - half
            bit = 1 << p
            # lanes 0..p of V2 as one residue; adding half of 2^shift absorbs
            # the signed sum of the lanes below p, which is smaller than that
            low = (1 << (shift + width)) - 1
            rounding = (1 << shift) >> 1
            child = []
            for cand in cands[pos + 1:]:
                j2, v2, m2 = cand
                if m2 & bit:
                    c = (((((v2 & low) + rounding) >> shift) + half) & digit) - half
                    if c:
                        w = (a * v2 - c * vec) // prev
                        if w:
                            child.append((j2, w, (m2 | mask) & ~bit))
                        continue
                if a == prev:
                    child.append(cand)
                else:
                    child.append((j2, a * v2 // prev, m2))
            if len(child) >= left - 1:
                if left == 4:
                    triples(child, a, live & ~bit, chosen + [j])
                else:
                    chosen.append(j)
                    levels.append([child, 0, a, live & ~bit])
    finally:
        census.extensions = state.budget - room
        for det, n in dets.items():
            t = _exact_div(det, index)
            census.count += n
            census.tau += t * t * n
            census.torsion_histogram[t] = n


def _packed_root(cols, rows, width):
    """The (face index, packed column, lane mask) candidates of ``_dfs``:
    the sparse (row, value) columns ``cols`` on ``rows``, the r-th of them
    in lane r, for the columns nonzero there.  Each column is summed from
    its nonzeros alone."""
    lane = {k: r for r, k in enumerate(rows)}
    root = []
    for j, col in enumerate(cols):
        v = m = 0
        for k, x in col:
            r = lane.get(k)
            if r is not None:
                v += x << r * width
                m |= 1 << r
        if m:
            root.append((j, v, m))
    return root


def _rows_outside_basis(comp, i):
    """The (i-1)-faces outside the complex's first column basis of
    d_{i-1}: f_{i-1} - rank d_{i-1} = ``required_tree_size`` of them.
    A chain in ker d_{i-1} that vanishes on them is a relation among
    independent columns, so it is zero: restricting to these rows
    is injective on ker d_{i-1}, which holds the columns of d_i.  Column
    sets of d_i are independent on these rows iff they are on all."""
    basis = set(comp._first_basis(i - 1))
    return [r for r in range(len(comp.faces(i - 1))) if r not in basis]


def enumerate_trees(
    comp: SimplicialComplex,
    i,
    *,
    budget=DEFAULT_BUDGET,
    on_tree=None,
) -> TreeCensus:
    """Exhaustively enumerate the i-dimensional spanning trees: depth-first
    over face indices in lexicographic order, a leaf for every set of
    ``required_tree_size`` independent columns.

    Incremental-rank pruning makes dependent prefixes die early.
    ``on_tree`` receives each SpanningTree as found; returning a truthy
    value stops the run.  Exceeding ``budget`` column reductions leaves a
    partial census with ``complete=False`` and a warning, never a silent
    truncation.  When beta~_{i-1} != 0 no i-tree exists: the census is
    empty, complete and warned of, with no budget spent.
    """
    _check_dim(comp, i)
    _check_budget(budget)
    if comp.reduced_homology(i - 1).betti:
        why = f"reduced homology in dimension {i - 1} is infinite: no {i}-dimensional spanning trees"
        return TreeCensus(dimension=i, warnings=(why,))
    state = _EnumState(comp, i, budget, on_tree)
    census = state.census
    # |minor| <= (i + 1)^(need/2) < isqrt((i + 1)^need) + 1 < 2^(width - 2):
    # one more bit for the sign, and one to spare
    width = (isqrt((i + 1) ** state.need) + 1).bit_length() + 2
    root = _packed_root(comp._boundary_columns(i), _rows_outside_basis(comp, i), width)
    try:
        _dfs(state, root, width)
    except BudgetExceededError:
        census.extensions = budget + 1
        census.complete = False
        census.warnings += (
            f"enumeration budget of {budget} extensions exceeded; census is partial",
        )
    except _StopStream:
        census.complete = False
        census.warnings += ("enumeration stopped early by the stream callback",)
    return census
