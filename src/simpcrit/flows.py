"""Flows on faces and the graph chip-firing game.

A configuration is a plain tuple of ints indexed by the i-faces of the
complex in lexicographic order.  Firing a face subtracts its up-down
Laplacian column; configurations that differ by an integer combination
of Laplacian columns are equivalent, and the canonical coordinates of an
equivalence class are residues modulo the invariant factors of the
reduced Laplacian of a chosen torsion-free tree.

In dimension > 0 no canonical notion of stability is known, so firing
there is exposed as pure linear algebra only; the stable / recurrent /
critical machinery below is for graphs (dimension-0 configurations with
a designated bank vertex).
"""

from __future__ import annotations

from dataclasses import dataclass

from .complexes import SimplicialComplex, make_face
from .critical import _theta_indices, laplacian, reduced_laplacian
from .intlinalg import lattice_membership, smith_normal_form
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
    extension are exactly what that hypothesis buys.
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
    rows = range(bd.rows)
    rhs = bd.submatrix(rows, theta).apply(theta_values)
    x = lattice_membership(bd.submatrix(rows, tree_cols), [-r for r in rhs])
    if x is None:
        raise AssertionError("torsion-free tree failed to absorb the boundary")
    out = [0] * bd.cols
    for j, v in zip(theta, theta_values):
        out[j] = v
    for j, v in zip(tree_cols, x):
        out[j] = v
    return tuple(out)


def equivalent(comp: SimplicialComplex, i, values_a, values_b) -> bool:
    """True iff the difference lies in the integer column span of the
    up-down Laplacian (i.e. some sequence of firings links the two)."""
    a = _check_config(comp, i, values_a)
    b = _check_config(comp, i, values_b)
    diff = [x - y for x, y in zip(a, b)]
    return lattice_membership(laplacian(comp, i), diff) is not None


def to_group_element(comp: SimplicialComplex, i, tree, values) -> GroupElement:
    """Canonical coordinates of a configuration's class.

    ``values`` is either a full configuration or just the subvector on
    the faces outside the tree (which determines the class).  Firing any
    face never changes the result; two conservative configurations map
    to the same element iff they are equivalent.
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
    s = smith_normal_form(reduced_laplacian(comp, i, tree))
    if s.rank < len(theta):
        raise ValueError("critical group has a free part; residues are not canonical")
    w = s.u.apply(values)
    return GroupElement(moduli=s.d, residues=tuple(x % d for x, d in zip(w, s.d)))


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

    The lowest-labelled ready vertex fires first, which makes the run
    deterministic; the final state and firing counts do not depend on
    the order (the abelian property, exercised by the tests).
    Returns (stable state, per-vertex firing counts).
    """
    _, nbrs = _graph(state.complex)
    non_bank = state.non_bank
    pos = {v: idx for idx, v in enumerate(non_bank)}
    chips = list(state.chips)
    fired = {v: 0 for v in non_bank}
    while True:
        for idx, v in enumerate(non_bank):
            deg = len(nbrs[v])
            if chips[idx] >= deg:
                chips[idx] -= deg
                fired[v] += 1
                for w in nbrs[v]:
                    if w in pos:
                        chips[pos[w]] += 1
                break
        else:
            return ChipState(state.complex, state.bank, tuple(chips)), fired


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
