"""Flows on faces and the graph chip-firing game.

A configuration is a plain tuple of ints indexed by the i-faces of the
complex in lexicographic order.  Firing a face subtracts its up-down
Laplacian column; configurations that differ by an integer combination
of Laplacian columns are equivalent, and the canonical coordinates of an
equivalence class are residues modulo the invariant factors of the
reduced Laplacian of a chosen torsion-free tree.

Each map is prepared lazily on first use and memoized on the complex.
Both flow maps dot a configuration with rows of U that intlinalg picks:
``equivalent`` those of the logged sparse eliminator on the Laplacian's
sparse rows (``intlinalg._membership_rows``), once per dimension, and
``to_group_element`` those of a Smith form of the reduced Laplacian
(``intlinalg._coordinate_rows``).  ``extend_to_conservative`` solves
with a Smith form of the tree's boundary columns.  Each Smith form is
taken once per (dimension, tree), and its fixed pivot rule fixes the
residues; no transform matrix is built.  A tree is checked once per
complex too (``as_spanning_tree``), so every later query is a few dot
products or log passes.  The chip game is likewise built once per
(complex, bank).

In dimension > 0 no canonical notion of stability is known, so firing
there is exposed as pure linear algebra only; the stable / recurrent /
critical machinery below is for graphs (dimension-0 configurations with
a designated bank vertex).  ``stabilize`` runs a worklist of ready
vertices; in a long run it also fires, at once, a lower bound on the
firing counts still to come that a float solve of the reduced Laplacian
proposes and exact integer arithmetic certifies, so piles of any size
and long cycles settle in a few solves.  What the step needs, an integer
g with L~ g >= 1 and a sparse LDL^T factor of the reduced Laplacian L~
for the solves, is built once per (complex, bank) as well.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from heapq import heappop, heappush
from operator import mul

from .complexes import SimplicialComplex, make_face
from .critical import _laplacian_rows, _theta_indices, laplacian, reduced_laplacian
from .intlinalg import _coordinate_rows, _integers, _membership_rows, _solve, smith_normal_form
from .trees import HypothesisError, as_spanning_tree, require_torsion_free


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

    @property
    def is_identity(self):
        return not any(self.residues)


def _check_config(comp, i, values):
    values = _integers(values)
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
    extension are exactly what that hypothesis buys.  The tree is checked,
    and the Smith form of its boundary columns computed, once per
    (complex, i, tree).
    """
    tree = require_torsion_free(as_spanning_tree(comp, i, tree))
    theta = _theta_indices(comp, i, tree)
    theta_values = _integers(theta_values)
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
    """u . values for a row u given as its (index, nonzero entry) pairs."""
    return sum(x * values[k] for k, x in row)


def equivalent(comp: SimplicialComplex, i, values_a, values_b) -> bool:
    """True iff the difference lies in the integer column span of the
    up-down Laplacian (i.e. some sequence of firings links the two).

    The test is built once per (complex, i): the rows of U that decide
    membership, from the logged sparse eliminator on the Laplacian's
    sparse rows (``intlinalg._membership_rows``); no Smith form and no
    dense Laplacian.  Every answer is a bool, so U need not be canonical.
    At the top dimension the Laplacian is zero.
    """
    a = _check_config(comp, i, values_a)
    b = _check_config(comp, i, values_b)
    if i == comp.dim:
        return a == b
    diff = [x - y for x, y in zip(a, b)]
    torsion, zero = comp._memoized(
        ("laplacian_image", i), lambda: _membership_rows(_laplacian_rows(comp, i))
    )
    return all(_dot(row, diff) % d == 0 for _, row, d in torsion) and not any(
        _dot(row, diff) for row in zero
    )


def to_group_element(comp: SimplicialComplex, i, tree, values) -> GroupElement:
    """Canonical coordinates of a configuration's class.

    ``values`` is either a full configuration or just the subvector on
    the faces outside the tree (which determines the class).  Firing any
    face never changes the result; two conservative configurations map
    to the same element iff they are equivalent.  The tree is checked,
    and the moduli and coordinate rows of its reduced Laplacian taken
    (``_coordinate_rows``), once per (complex, i, tree); a residue is then
    one dot product modulo its factor.  A free part in K_i raises
    HypothesisError, a ValueError.
    """
    tree = require_torsion_free(as_spanning_tree(comp, i, tree))
    theta = _theta_indices(comp, i, tree)
    values = _integers(values)
    if len(values) == len(comp.faces(i)):
        values = [values[j] for j in theta]
    elif len(values) != len(theta):
        raise ValueError(
            f"expected a configuration of length {len(comp.faces(i))} or {len(theta)}"
        )
    moduli, rows = comp._memoized(("group_coordinates", i, tree.top_faces),
                                  lambda: _coordinate_rows(reduced_laplacian(comp, i, tree)))
    if len(moduli) < len(theta):  # the reduced Laplacian is singular
        raise HypothesisError("critical group has a free part; residues are not canonical")
    residues = [0] * len(moduli)
    for j, row, d in rows:
        residues[j] = _dot(row, values) % d
    return GroupElement(moduli=moduli, residues=tuple(residues))


# -- graph chip-firing ------------------------------------------------------


def _game(comp: SimplicialComplex, bank):
    """(sorted non-bank vertices, their degrees, their non-bank neighbours'
    positions, the bank's neighbours' positions), memoized on the complex;
    a build that raised is not stored, so a bad bank raises every time."""

    def build():
        if comp.dim < 1:
            raise ValueError("chip-firing needs a complex with edges")
        # the bank must be able to absorb from everywhere: H~_0 = 0
        if comp.reduced_homology(0).betti:
            raise ValueError("the 1-skeleton is disconnected")
        verts = comp.vertices()
        if bank not in verts:
            raise ValueError(f"bank vertex {bank} is not in the graph")
        nbrs = comp.neighbors()
        non_bank = tuple(v for v in verts if v != bank)
        pos = {v: idx for idx, v in enumerate(non_bank)}
        deg = tuple(len(nbrs[v]) for v in non_bank)
        adj = tuple(tuple(pos[w] for w in nbrs[v] if w in pos) for v in non_bank)
        return non_bank, deg, adj, tuple(pos[w] for w in nbrs[bank])

    return comp._memoized(("chip_game", bank), build)


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
        non_bank, _, _, _ = _game(self.complex, self.bank)
        chips = _integers(self.chips)
        if len(chips) != len(non_bank):
            raise ValueError(f"expected {len(non_bank)} chip counts, got {len(chips)}")
        if any(c < 0 for c in chips):
            raise ValueError("chip counts must be nonnegative")
        object.__setattr__(self, "chips", chips)

    @property
    def non_bank(self):
        non_bank, _, _, _ = _game(self.complex, self.bank)
        return non_bank

    def __add__(self, other):
        if not isinstance(other, ChipState):
            return NotImplemented
        if (self.complex, self.bank) != (other.complex, other.bank):
            raise ValueError("chip states live on different games")
        return ChipState(self.complex, self.bank, tuple(a + b for a, b in zip(self.chips, other.chips)))


def is_stable(state: ChipState) -> bool:
    _, deg, _, _ = _game(state.complex, state.bank)
    return all(c < d for c, d in zip(state.chips, deg))


_SCALE_BITS = 40  # bulk-step solutions are fixed point with this many fraction bits
_TOP_BITS = 60  # a bulk step solves for the top this many bits of each pile


def _apply_laplacian(deg, adj, x):
    """L~ * x for the reduced Laplacian L~ = diag(deg) - (non-bank adjacency)."""
    out = []
    for d, xi, a in zip(deg, x, adj):
        s = d * xi
        for j in a:  # a plain loop: a generator per vertex costs twice as much
            s -= x[j]
        out.append(s)
    return out


def _factor(deg, adj):
    """The float LDL^T factor of L~, one (vertex p, pivot d_p, later
    vertices i, multipliers L[i][p]) per elimination step.  Each step takes
    a vertex of least current degree off a lazy heap, as
    ``intlinalg._eliminate_unit_pivots`` does, so paths, cycles and trees
    get no fill-in.  L~ and its Schur complements are irreducible, diagonally
    dominant M-matrices, so every pivot is positive and none needs a swap."""
    rows = {p: {p: float(d), **dict.fromkeys(a, -1.0)} for p, (d, a) in enumerate(zip(deg, adj))}
    heap = sorted((len(row), p) for p, row in rows.items())
    factor = []
    while heap:
        length, p = heappop(heap)
        if len(rows.get(p, ())) != length:
            continue  # stale: eliminated, or its row changed since the push
        prow = rows.pop(p)
        d = prow.pop(p)
        for i, a in prow.items():
            row = rows[i]
            del row[p]
            f = a / d
            for j, b in prow.items():  # j == i updates the diagonal
                row[j] = row.get(j, 0.0) - f * b
            heappush(heap, (len(row), i))
        factor.append((p, d, tuple(prow), tuple(a / d for a in prow.values())))
    return factor


def _solve_float(factor, b):
    """An approximate solution of L~ y = b in floats from its LDL^T factor:
    a forward pass, the diagonal and a backward pass, O(factor nonzeros);
    only a proposal, which callers certify in integers."""
    y = [float(x) for x in b]
    for p, d, later, mults in factor:
        yp = y[p]
        for i, m in zip(later, mults):
            y[i] -= m * yp
        y[p] = yp / d
    for p, _, later, mults in reversed(factor):
        y[p] -= sum(map(mul, mults, map(y.__getitem__, later)))
    return y


def _build_certificate(deg, adj):
    """(g, z, factor): an integer g with L~ g >= 1 entrywise, checked
    exactly, the float z ~ L~^-1 * 1 it came from and the LDL^T factor of
    L~ (``_factor``) that solved for z; None if g fails its check.
    L~ g >= 1 and L~^-1 >= 0 give g >= L~^-1 * 1."""
    factor = _factor(deg, adj)
    z = _solve_float(factor, [1] * len(deg))
    # rounding up perturbs each entry of L~ g by more than -deg, so scale
    # z by max(deg) + 2 to keep L~ g >= 1 through the float error
    lift = max(deg) + 2
    g = [math.ceil(lift * x) for x in z]
    return (g, z, factor) if min(_apply_laplacian(deg, adj, g)) >= 1 else None


def _certificate(comp, bank):
    """``_build_certificate`` for the game, memoized per (complex, bank)."""
    _, deg, adj, _ = _game(comp, bank)
    return comp._memoized(("chip_certificate", bank), lambda: _build_certificate(deg, adj))


def _odometer_lower_bound(deg, adj, certificate, chips):
    """A nonnegative integer vector below the odometer of ``chips``, or None
    if the step would not pay for its float solve or certifies nothing.

    A float solve proposes y ~ L~^-1 b for b = chips - deg + 1, scaled by
    2^40 and rounded to the integer y_S; the exact residual
    r = 2^40 b - L~ y_S has r >= -rho with rho = max(0, -min r), so
    2^40 L~^-1 b = y_S + L~^-1 r >= y_S - rho * g.
    """
    g, z, factor = certificate
    b = [c - d + 1 for c, d in zip(chips, deg)]
    # keep the top bits of each entry, so that huge piles convert to floats
    shift = max(0, max(map(abs, b)).bit_length() - _TOP_BITS)
    b_top = [x >> shift for x in b] if shift else b
    # z . b is the sum of L~^-1 b (L~ is symmetric), about what the step
    # fires; each worklist step fires at least once, so a step that would
    # fire fewer than n^2 saves less than the gap between later checks
    if sum(map(mul, z, b_top)) < len(b) ** 2 >> shift:
        return None
    y = _solve_float(factor, b_top)
    y_s = [round(x * 2**_SCALE_BITS) << shift for x in y]
    r = _apply_laplacian(deg, adj, y_s)
    rho = max(0, max(ly - (x << _SCALE_BITS) for ly, x in zip(r, b)))
    bulk = [max(0, -((rho * gi - yi) >> _SCALE_BITS)) for yi, gi in zip(y_s, g)]
    return bulk if any(bulk) else None


def stabilize(state: ChipState):
    """Fire ready non-bank vertices until none can fire.

    A worklist holds the ready vertices.  A vertex with c chips and degree
    deg fires c // deg times in one step, and a neighbour joins the list
    when those chips make it ready.  The final state and the firing counts
    do not depend on the order of the firings (the abelian property,
    Bjorner-Lovasz-Shor 1991), so batching changes neither.

    A bulk step fires a certified lower bound v on the odometer still to
    come at once (``_odometer_lower_bound``) and rebuilds the list.  The
    first check for one comes after sum(deg) <= n^2 worklist steps (n
    non-bank vertices), and later checks at least n^2 steps apart; a check
    that fires nothing doubles the gap to the next.  The first check on a
    game builds its certificate (``_certificate``); a check then costs
    O(n) until its z . b test predicts at least n^2 firings, and only then
    runs a solve.  A step solves for the top 60 bits of each pile, so
    while a pile is longer after it, the next step comes at once.  A graph
    whose certificate fails its exact check never takes a bulk step.  So a
    call that settles within sum(deg) steps runs the worklist alone and
    builds nothing.

    Why the output does not change.  Let u be the odometer of the start s
    (its firing counts) and f = s - L~ u the stable result, so
    0 <= f <= deg - 1 (L~ the reduced Laplacian).  Least action
    (Fey-Levine-Peres 2010) holds for any integer start c: if c - L~ w is
    stable, no legal firing sequence from c fires a vertex more than w
    times.  Suppose the firings so far, F, satisfy F <= u, and let
    c = s - L~ F.  Then u - F = L~^-1 (c - f) >= L~^-1 (c - deg + 1),
    because L~^-1 >= 0 entrywise on a connected graph with a bank; v is
    0 or more and at most the ceiling of the right-hand side, and u - F
    is an integer vector, so F + v <= u.  Worklist firings are legal from
    c, and c - L~ (u - F) = f is stable, so they keep F <= u too.  Each
    worklist step and each bulk step taken fires at least once, so the
    loop ends, with s - L~ F stable; least action from s then gives
    u <= F.  So F = u and the result is f, however negative some piles
    went on the way.  Floats only propose; every count fired is
    certified in integer arithmetic.

    Returns (stable state, per-vertex firing counts in non-bank order).
    """
    non_bank, deg, adj, _ = _game(state.complex, state.bank)
    chips = list(state.chips)
    counts = [0] * len(non_bank)
    n_squared = len(deg) ** 2
    budget = sum(deg)
    # a vertex is on the list iff it is ready, so it is never on it twice
    ready = [idx for idx, c in enumerate(chips) if c >= deg[idx]]
    while ready:
        for _ in range(budget):
            idx = ready.pop()
            k, chips[idx] = divmod(chips[idx], deg[idx])
            counts[idx] += k
            for w in adj[idx]:
                c = chips[w]
                chips[w] = c + k
                if c < deg[w] <= c + k:
                    ready.append(w)
            if not ready:
                break
        else:
            budget = max(budget, n_squared)
            certificate = _certificate(state.complex, state.bank)
            bulk = certificate and _odometer_lower_bound(deg, adj, certificate, chips)
            if not bulk:
                budget *= 2
                continue
            while bulk:
                chips = [c - x for c, x in zip(chips, _apply_laplacian(deg, adj, bulk))]
                counts = [n + x for n, x in zip(counts, bulk)]
                # the step saw the top bits of each pile: if one is longer, take the next at once
                if max(map(abs, chips)).bit_length() <= _TOP_BITS:
                    break
                bulk = _odometer_lower_bound(deg, adj, certificate, chips)
            ready = [idx for idx, c in enumerate(chips) if c >= deg[idx]]
    return ChipState(state.complex, state.bank, tuple(chips)), dict(zip(non_bank, counts))


def fire_bank(state: ChipState) -> ChipState:
    """The bank gives one chip to each of its neighbors."""
    _, _, _, bank_adj = _game(state.complex, state.bank)
    chips = list(state.chips)
    for idx in bank_adj:
        chips[idx] += 1
    return ChipState(state.complex, state.bank, tuple(chips))


def is_recurrent(state: ChipState) -> bool:
    """Burning test: fire the bank into the stable state and stabilize;
    recurrent iff the state returns to itself.  Every non-bank vertex then
    fired exactly once: the bank adds beta = L~ * 1 (L~ the reduced
    Laplacian), so the firing counts u solve L~ * u = L~ * 1, and L~ is
    nonsingular on a connected graph."""
    if not is_stable(state):
        raise ValueError("recurrence is decided on stable states")
    final, _ = stabilize(fire_bank(state))
    return final.chips == state.chips


def is_critical(state: ChipState) -> bool:
    """Stable and recurrent."""
    return is_stable(state) and is_recurrent(state)


def critical_representative(state: ChipState) -> ChipState:
    """The unique critical state reachable from the input: the first fixed
    point stab(s + beta) == s of (stabilize; fire bank), which is recurrent.

    Each step keeps the class, and the stable states are finite, so the
    steps cycle, and every cycle is a fixed point.  Firing each vertex once
    takes s + beta to the stable s, so by least action (Fey-Levine-Peres
    2010) stab(s + beta) fires each vertex at most once; around a cycle of
    length m the firing counts sum to m * 1, so every step fired each
    vertex once and left its state unchanged.
    """
    s, _ = stabilize(state)
    while True:
        nxt, _ = stabilize(fire_bank(s))
        if nxt.chips == s.chips:
            return s
        s = nxt
