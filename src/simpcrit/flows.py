"""Flows on faces and the graph chip-firing game.

A configuration is a plain tuple of ints indexed by the i-faces of the
complex in lexicographic order.  Firing a face subtracts its up-down
Laplacian column; configurations that differ by an integer combination
of Laplacian columns are equivalent, and the canonical coordinates of an
equivalence class are residues modulo the invariant factors of the
reduced Laplacian of a chosen torsion-free tree.

Each of those cokernel maps costs one Smith form with transforms, paid
lazily on first use and memoized on the complex: one per dimension for
``equivalent``, one per (dimension, tree) each for ``to_group_element``
and ``extend_to_conservative``.  Every later query is a few
matrix-vector products.

In dimension > 0 no canonical notion of stability is known, so firing
there is exposed as pure linear algebra only; the stable / recurrent /
critical machinery below is for graphs (dimension-0 configurations with
a designated bank vertex).
"""

from __future__ import annotations

from dataclasses import dataclass

from .complexes import SimplicialComplex, make_face
from .critical import _theta_indices, laplacian, reduced_laplacian
from .intlinalg import _solve, smith_normal_form
from .trees import as_spanning_tree, require_torsion_free


@dataclass(frozen=True)
class GroupElement:
    """Residues modulo the invariant factors of the reduced Laplacian.

    Addition is componentwise modulo each factor.  Coordinates are
    canonical per (complex, tree, pivoting rule); equivalence of the
    underlying configurations does not depend on the tree.
    """

    moduli: tuple
    residues: tuple

    def __add__(self, other):
        if not isinstance(other, GroupElement):
            return NotImplemented
        if self.moduli != other.moduli:
            raise ValueError("group elements live in different groups")
        return GroupElement(
            self.moduli,
            tuple((a + b) % m for a, b, m in zip(self.residues, other.residues, self.moduli)),
        )

    def __neg__(self):
        return GroupElement(self.moduli, tuple((-a) % m for a, m in zip(self.residues, self.moduli)))

    @property
    def is_identity(self):
        return not any(self.residues)


def _check_config(comp, i, values):
    values = tuple(int(x) for x in values)
    if len(values) != len(comp.faces(i)):
        raise ValueError(
            f"configuration has length {len(values)}, expected {len(comp.faces(i))}"
        )
    return values


def fire(comp: SimplicialComplex, i, values, face) -> tuple:
    """Fire the face: subtract its up-down Laplacian column.

    Diverts one unit of flow from the face around each (i+1)-face
    containing it; a face contained in no (i+1)-face fires trivially.
    """
    values = _check_config(comp, i, values)
    j = comp.face_index(i, make_face(face))
    col = laplacian(comp, i).column(j)
    return tuple(v - c for v, c in zip(values, col))


def is_conservative(comp: SimplicialComplex, i, values) -> bool:
    """True iff the configuration lies in the kernel of the boundary map
    (for i = 0: the entries sum to zero, by the augmentation)."""
    values = _check_config(comp, i, values)
    return all(x == 0 for x in comp.boundary_matrix(i).apply(values))


def extend_to_conservative(comp: SimplicialComplex, i, tree, theta_values) -> tuple:
    """The unique conservative configuration with the given values on the
    faces outside the tree.

    The tree must be torsion-free; existence and uniqueness of the
    extension are exactly what that hypothesis buys.  The Smith form of
    the tree's boundary columns is computed once per (complex, i, tree).
    """
    tree = require_torsion_free(as_spanning_tree(comp, i, tree))
    theta = _theta_indices(comp, i, tree)
    theta_values = [int(x) for x in theta_values]
    if len(theta_values) != len(theta):
        raise ValueError(
            f"theta has length {len(theta_values)}, expected {len(theta)}"
        )
    bd = comp.boundary_matrix(i)
    tree_cols = [comp.face_index(i, f) for f in tree.top_faces]
    out = [0] * bd.cols
    for j, v in zip(theta, theta_values):
        out[j] = v
    s = comp._memoized(
        ("tree_boundary_snf", i, tree.top_faces),
        lambda: smith_normal_form(bd.submatrix(range(bd.rows), tree_cols)),
    )
    x = _solve(s, [-r for r in bd.apply(out)])
    if x is None:
        raise AssertionError("torsion-free tree failed to absorb the boundary")
    for j, v in zip(tree_cols, x):
        out[j] = v
    return tuple(out)


def _dot(row, values):
    return sum(a * x for a, x in zip(row, values) if a)


def _torsion_rows(s):
    """(j, row j of U mod d_j, d_j) for each invariant factor d_j > 1 of
    the Smith form U * A * V = diag(d); rows with d_j = 1 test nothing."""
    return tuple(
        (j, tuple(x % d for x in s.u.data[j]), d) for j, d in enumerate(s.d) if d > 1
    )


def _laplacian_image(comp, i):
    """(torsion rows, free rows) that cut out the image of L_i: w lies in
    it iff (U w)_j is divisible by d_j below the rank and zero beyond it.
    The rows beyond the rank are kept exactly."""

    def build():
        s = smith_normal_form(laplacian(comp, i))
        return _torsion_rows(s), s.u.data[s.rank:]

    return comp._memoized(("laplacian_image", i), build)


def equivalent(comp: SimplicialComplex, i, values_a, values_b) -> bool:
    """True iff the difference lies in the integer column span of the
    up-down Laplacian (i.e. some sequence of firings links the two).

    The Smith form of the Laplacian is computed once per (complex, i).
    """
    a = _check_config(comp, i, values_a)
    b = _check_config(comp, i, values_b)
    diff = [x - y for x, y in zip(a, b)]
    torsion, free = _laplacian_image(comp, i)
    return all(_dot(row, diff) % d == 0 for _, row, d in torsion) and not any(
        _dot(row, diff) for row in free
    )


def _group_coordinates(comp, i, tree):
    """(moduli, torsion rows) of the tree's reduced Laplacian, or None when
    its cokernel has a free part, so that the failure is memoized too."""

    def build():
        s = smith_normal_form(reduced_laplacian(comp, i, tree))
        return None if s.rank < s.source_rows else (s.d, _torsion_rows(s))

    return comp._memoized(("group_coordinates", i, tree.top_faces), build)


def to_group_element(comp: SimplicialComplex, i, tree, values) -> GroupElement:
    """Canonical coordinates of a configuration's class.

    ``values`` is either a full configuration or just the subvector on
    the faces outside the tree (which determines the class).  Firing any
    face never changes the result; two conservative configurations map
    to the same element iff they are equivalent.  The Smith form of the
    reduced Laplacian is computed once per (complex, i, tree); a residue
    is then one dot product modulo its factor.
    """
    tree = require_torsion_free(as_spanning_tree(comp, i, tree))
    theta = _theta_indices(comp, i, tree)
    values = [int(x) for x in values]
    if len(values) == len(comp.faces(i)):
        values = [values[j] for j in theta]
    elif len(values) != len(theta):
        raise ValueError(
            f"expected a configuration of length {len(comp.faces(i))} or {len(theta)}"
        )
    coords = _group_coordinates(comp, i, tree)
    if coords is None:
        raise ValueError("critical group has a free part; residues are not canonical")
    moduli, rows = coords
    residues = [0] * len(moduli)
    for j, row, d in rows:
        residues[j] = _dot(row, values) % d
    return GroupElement(moduli=moduli, residues=tuple(residues))


# -- graph chip-firing ------------------------------------------------------


def _graph(comp: SimplicialComplex):
    """(sorted vertices, neighbor map) of the 1-skeleton."""
    if comp.dim < 1:
        raise ValueError("chip-firing needs a complex with edges")
    # the bank must be able to absorb from everywhere: H~_0 = 0
    if comp.reduced_homology(0).betti:
        raise ValueError("the 1-skeleton is disconnected")
    return comp.vertices(), comp.neighbors()


@dataclass(frozen=True)
class ChipState:
    """Chips on the non-bank vertices of a connected graph.

    ``chips`` is indexed by the non-bank vertices in sorted order; the
    bank's balance is deliberately not part of the state.
    """

    complex: SimplicialComplex
    bank: int
    chips: tuple

    def __post_init__(self):
        verts, _ = _graph(self.complex)
        if self.bank not in verts:
            raise ValueError(f"bank vertex {self.bank} is not in the graph")
        non_bank = tuple(v for v in verts if v != self.bank)
        chips = tuple(int(c) for c in self.chips)
        if len(chips) != len(non_bank):
            raise ValueError(f"expected {len(non_bank)} chip counts, got {len(chips)}")
        if any(c < 0 for c in chips):
            raise ValueError("chip counts must be nonnegative")
        object.__setattr__(self, "chips", chips)

    @property
    def non_bank(self):
        verts, _ = _graph(self.complex)
        return tuple(v for v in verts if v != self.bank)

    def __add__(self, other):
        if not isinstance(other, ChipState):
            return NotImplemented
        if (self.complex, self.bank) != (other.complex, other.bank):
            raise ValueError("chip states live on different games")
        return ChipState(self.complex, self.bank, tuple(a + b for a, b in zip(self.chips, other.chips)))


def is_stable(state: ChipState) -> bool:
    _, nbrs = _graph(state.complex)
    return all(c < len(nbrs[v]) for v, c in zip(state.non_bank, state.chips))


def stabilize(state: ChipState):
    """Fire ready non-bank vertices until none can fire.

    A worklist holds the ready vertices.  A vertex with c chips and degree
    deg fires c // deg times in one step, and a neighbour joins the list
    when those chips make it ready.  The final state and the firing counts
    do not depend on the order of the firings (the abelian property,
    Bjorner-Lovasz-Shor 1991), so batching changes neither.  The cost is
    O(deg) Python steps per batch, at most one batch per firing.
    Returns (stable state, per-vertex firing counts in non-bank order).
    """
    _, nbrs = _graph(state.complex)
    non_bank = state.non_bank
    pos = {v: idx for idx, v in enumerate(non_bank)}
    deg = [len(nbrs[v]) for v in non_bank]
    adj = [[pos[w] for w in nbrs[v] if w in pos] for v in non_bank]
    chips = list(state.chips)
    counts = [0] * len(non_bank)
    # a vertex is on the list iff it is ready, so it is never on it twice
    ready = [idx for idx, c in enumerate(chips) if c >= deg[idx]]
    while ready:
        idx = ready.pop()
        k, chips[idx] = divmod(chips[idx], deg[idx])
        counts[idx] += k
        for w in adj[idx]:
            c = chips[w]
            chips[w] = c + k
            if c < deg[w] <= c + k:
                ready.append(w)
    return ChipState(state.complex, state.bank, tuple(chips)), dict(zip(non_bank, counts))


def fire_bank(state: ChipState) -> ChipState:
    """The bank gives one chip to each of its neighbors."""
    _, nbrs = _graph(state.complex)
    pos = {v: idx for idx, v in enumerate(state.non_bank)}
    chips = list(state.chips)
    for w in nbrs[state.bank]:
        chips[pos[w]] += 1
    return ChipState(state.complex, state.bank, tuple(chips))


def is_recurrent(state: ChipState) -> bool:
    """Burning test: fire the bank into the stable state and stabilize;
    recurrent iff every non-bank vertex fires exactly once and the state
    returns to itself."""
    if not is_stable(state):
        raise ValueError("recurrence is decided on stable states")
    final, fired = stabilize(fire_bank(state))
    return final.chips == state.chips and all(n == 1 for n in fired.values())


def is_critical(state: ChipState) -> bool:
    """Stable and recurrent."""
    return is_stable(state) and is_recurrent(state)


def critical_representative(state: ChipState) -> ChipState:
    """The unique critical state reachable from the input.

    Repeats (stabilize; fire bank) until a stable state recurs; every
    step preserves the equivalence class, and the recurring state is
    critical.
    """
    s, _ = stabilize(state)
    seen = {s.chips}
    while True:
        s, _ = stabilize(fire_bank(s))
        if s.chips in seen:
            return s
        seen.add(s.chips)
