import random
import sys
import time
from itertools import combinations, product

import pytest
from test_acceptance import RP2_FACETS, linial_meshulam
from test_critical import LM_PDET
from test_intlinalg import check_coordinate_rows
from test_trees import lm_moore

from simpcrit import flows, intlinalg
from simpcrit.complexes import SimplicialComplex
from simpcrit.critical import (
    _laplacian_rows,
    _theta_indices,
    critical_group_direct,
    critical_group_reduced,
    laplacian,
    reduced_laplacian,
)
from simpcrit.flows import (
    ChipState,
    GroupElement,
    critical_representative,
    equivalent,
    extend_to_conservative,
    fire,
    fire_bank,
    is_conservative,
    is_critical,
    is_recurrent,
    is_stable,
    stabilize,
    to_group_element,
)
from simpcrit.generators import bipyramid, complete_graph, cycle, moore, sphere
from simpcrit.intlinalg import AbelianGroup, lattice_membership, smith_normal_form
from simpcrit.trees import (
    TreeHasTorsionError,
    enumerate_trees,
    find_torsion_free_tree,
    is_spanning_tree,
)

STAR_TREE = [(1, 2), (1, 3), (1, 4), (1, 5)]
PATH_TREE = [(1, 2), (2, 3), (3, 4), (3, 5)]


# ---- firing ----------------------------------------------------------------

def test_fire_edge_23_bipyramid():
    b = bipyramid()
    zero = (0,) * 9
    out = fire(b, 1, zero, (2, 3))
    delta = dict(zip(b.faces(1), out))
    # one unit diverted across 123, 234 and 235 each; signs follow the
    # increasing-vertex orientation
    assert delta[(2, 3)] == -3
    assert delta[(1, 2)] == -1 and delta[(1, 3)] == 1
    assert delta[(2, 4)] == 1 and delta[(3, 4)] == -1
    assert delta[(2, 5)] == 1 and delta[(3, 5)] == -1
    assert delta[(1, 4)] == 0 and delta[(1, 5)] == 0


def test_fire_vertex_is_classic_chip_firing():
    c4 = cycle(4)
    out = fire(c4, 0, (5, 0, 0, 0), (1,))
    assert out == (3, 1, 0, 1)


def test_fire_isolated_face_is_identity():
    # edge 34 sits in no triangle, so firing it changes nothing
    comp = SimplicialComplex.from_facets([(1, 2, 3), (3, 4)])
    conf = (0, 0, 2, -1)  # edges 12, 13, 23, 34
    assert fire(comp, 1, conf, (3, 4)) == conf


def test_fire_unknown_face():
    with pytest.raises(ValueError):
        fire(bipyramid(), 1, (0,) * 9, (4, 5))


# ---- conservativity -----------------------------------------------------------

def test_boundaries_are_conservative():
    b = bipyramid()
    col = b.boundary_matrix(2).column(0)
    assert is_conservative(b, 1, col)
    assert is_conservative(b, 1, (0,) * 9)


def test_zero_sum_is_the_dim0_condition():
    c4 = cycle(4)
    assert is_conservative(c4, 0, (1, -1, 2, -2))
    assert not is_conservative(c4, 0, (1, 0, 0, 0))


def test_extend_to_conservative_properties():
    b = bipyramid()
    tree = find_torsion_free_tree(b, 1)
    assert extend_to_conservative(b, 1, tree, [0] * 5) == (0,) * 9

    rng = random.Random(4)
    theta_faces = [f for f in b.faces(1) if f not in set(tree.top_faces)]
    for _ in range(20):
        t1 = [rng.randint(-4, 4) for _ in theta_faces]
        t2 = [rng.randint(-4, 4) for _ in theta_faces]
        c1 = extend_to_conservative(b, 1, tree, t1)
        c2 = extend_to_conservative(b, 1, tree, t2)
        c12 = extend_to_conservative(b, 1, tree, [a + b_ for a, b_ in zip(t1, t2)])
        assert is_conservative(b, 1, c1)
        # restriction to the complement reproduces theta
        restr = [c1[b.face_index(1, f)] for f in theta_faces]
        assert restr == t1
        # linearity gives uniqueness together with the zero case
        assert c12 == tuple(a + b_ for a, b_ in zip(c1, c2))


def test_extend_unit_theta_gives_fundamental_cycle():
    b = bipyramid()
    tree = find_torsion_free_tree(b, 1)
    theta = [1, 0, 0, 0, 0]  # edge 23
    hat = extend_to_conservative(b, 1, tree, theta)
    assert is_conservative(b, 1, hat)
    assert hat[b.face_index(1, (2, 3))] == 1


def test_extend_needs_torsion_free_tree():
    from simpcrit.generators import simplex_skeleton
    from simpcrit.trees import is_spanning_tree

    rp2_facets = [
        (1, 2, 3), (1, 2, 4), (1, 3, 5), (1, 4, 6), (1, 5, 6),
        (2, 3, 6), (2, 4, 5), (2, 5, 6), (3, 4, 5), (3, 4, 6),
    ]
    comp = simplex_skeleton(6, 2)
    torsion_tree = is_spanning_tree(comp, 2, rp2_facets)
    assert torsion_tree is not None and torsion_tree.torsion_order == 2
    with pytest.raises(TreeHasTorsionError):
        extend_to_conservative(comp, 2, torsion_tree, [0] * (20 - 10))


# ---- equivalence and group elements ----------------------------------------------

def test_firing_preserves_equivalence_class():
    b = bipyramid()
    tree = find_torsion_free_tree(b, 1)
    rng = random.Random(8)
    conf = extend_to_conservative(b, 1, tree, [2, -1, 0, 3, 1])
    start = conf
    g0 = to_group_element(b, 1, tree, conf)
    for _ in range(100):
        face = b.faces(1)[rng.randrange(9)]
        conf = fire(b, 1, conf, face)
        assert to_group_element(b, 1, tree, conf) == g0
    assert equivalent(b, 1, start, conf)


def test_equivalent_reflexive_and_fire():
    b = bipyramid()
    conf = (1, 2, 3, 4, 5, 6, 7, 8, 9)
    assert equivalent(b, 1, conf, conf)
    assert equivalent(b, 1, conf, fire(b, 1, conf, (2, 4)))


def test_inequivalent_configurations_detected():
    b = bipyramid()
    tree = find_torsion_free_tree(b, 1)
    # theta = e_23 generates Z/15, so it is not equivalent to zero
    c = extend_to_conservative(b, 1, tree, [1, 0, 0, 0, 0])
    assert not equivalent(b, 1, c, (0,) * 9)
    assert not to_group_element(b, 1, tree, c).is_identity


def test_group_elements_enumerate_z15():
    b = bipyramid()
    tree = find_torsion_free_tree(b, 1)
    # the class of edge 24 generates: its residue is a unit mod 15
    gen = to_group_element(b, 1, tree, [0, 1, 0, 0, 0])
    seen = set()
    acc = gen
    for _ in range(15):
        seen.add(acc.residues)
        acc = acc + gen
    assert len(seen) == 15
    assert acc == gen  # full cycle returned to the start
    ident = to_group_element(b, 1, tree, [0] * 5)
    assert ident.is_identity
    fifteen = ident
    for _ in range(15):
        fifteen = fifteen + gen
    assert fifteen == ident
    # edge 23's class only generates the order-5 subgroup
    e23 = to_group_element(b, 1, tree, [1, 0, 0, 0, 0])
    sub = {tuple((k * r) % m for r, m in zip(e23.residues, e23.moduli)) for k in range(15)}
    assert len(sub) == 5


def test_group_element_map_is_a_homomorphism():
    b = bipyramid()
    tree = find_torsion_free_tree(b, 1)
    rng = random.Random(19)
    for _ in range(20):
        t1 = [rng.randint(-5, 5) for _ in range(5)]
        t2 = [rng.randint(-5, 5) for _ in range(5)]
        t12 = [x + y for x, y in zip(t1, t2)]
        lhs = to_group_element(b, 1, tree, t1) + to_group_element(b, 1, tree, t2)
        assert lhs == to_group_element(b, 1, tree, t12)


def test_group_element_theta_and_full_length_agree():
    b = bipyramid()
    tree = find_torsion_free_tree(b, 1)
    theta = [3, 1, -2, 0, 5]
    conf = extend_to_conservative(b, 1, tree, theta)
    assert to_group_element(b, 1, tree, theta) == to_group_element(b, 1, tree, conf)


def test_same_element_iff_equivalent_on_theta_vectors():
    b = bipyramid()
    tree = find_torsion_free_tree(b, 1)
    rng = random.Random(12)
    for _ in range(20):
        t1 = [rng.randint(-3, 3) for _ in range(5)]
        t2 = [rng.randint(-3, 3) for _ in range(5)]
        c1 = extend_to_conservative(b, 1, tree, t1)
        c2 = extend_to_conservative(b, 1, tree, t2)
        same = to_group_element(b, 1, tree, t1) == to_group_element(b, 1, tree, t2)
        assert same == equivalent(b, 1, c1, c2)


# ---- chip-firing game ---------------------------------------------------------------

def brute_force_recurrent(state):
    """Search the firing-sequence graph for a nontrivial loop back to the
    start; the bank fires only at stable states (game rules)."""
    nbrs = state.complex.neighbors()
    start = state.chips
    seen = set()
    stack = [start]
    found = False
    while stack:
        chips = stack.pop()
        moves = []
        stable = True
        for idx, v in enumerate(state.non_bank):
            if chips[idx] >= len(nbrs[v]):
                stable = False
                nxt = list(chips)
                nxt[idx] -= len(nbrs[v])
                for w in nbrs[v]:
                    if w != state.bank:
                        nxt[state.non_bank.index(w)] += 1
                moves.append(tuple(nxt))
        if stable:
            nxt = list(chips)
            for w in nbrs[state.bank]:
                nxt[state.non_bank.index(w)] += 1
            moves.append(tuple(nxt))
        for nxt in moves:
            if nxt == start:
                found = True
            if nxt not in seen and len(seen) < 50000:
                seen.add(nxt)
                stack.append(nxt)
    return found


def test_stabilize_already_stable():
    c5 = cycle(5)
    s = ChipState(c5, 5, (1, 0, 1, 0))
    final, fired = stabilize(s)
    assert final.chips == s.chips
    assert all(n == 0 for n in fired.values())


def test_path_graph_cascade():
    # path 1 - 2 - q: the end vertex has degree 1, so two chips there
    # cascade through vertex 2 before the game settles
    path = SimplicialComplex.from_facets([(1, 2), (2, 3)])
    s = ChipState(path, 3, (2, 0))
    final, fired = stabilize(s)
    assert final.chips == (0, 1)
    assert fired == {1: 3, 2: 1}
    # cross-check by exhausting every permissible firing order
    outcomes = set()

    def play(chips, hist):
        moves = []
        if chips[0] >= 1:
            moves.append((0, (chips[0] - 1, chips[1] + 1)))
        if chips[1] >= 2:
            moves.append((1, (chips[0] + 1, chips[1] - 2)))
        if not moves:
            outcomes.add((chips, tuple(sorted(hist.items()))))
            return
        for v, nxt in moves:
            h2 = dict(hist)
            h2[v + 1] += 1
            play(nxt, h2)

    play((2, 0), {1: 0, 2: 0})
    assert outcomes == {((0, 1), ((1, 3), (2, 1)))}


def test_stabilize_is_order_independent():
    rng = random.Random(21)
    graphs = [cycle(5), complete_graph(4), cycle(6),
              SimplicialComplex.from_facets([(1, 2), (2, 3), (3, 4), (4, 1), (1, 3)])]
    for comp in graphs:
        verts, nbrs = comp.vertices(), comp.neighbors()
        bank = verts[-1]
        non_bank = tuple(v for v in verts if v != bank)
        for _ in range(25):
            chips = tuple(rng.randint(0, 6) for _ in non_bank)
            state = ChipState(comp, bank, chips)
            final, fired = stabilize(state)
            # scrambled replay: fire any random ready vertex until stable
            cur = list(chips)
            count = {v: 0 for v in non_bank}
            while True:
                ready = [idx for idx, v in enumerate(non_bank) if cur[idx] >= len(nbrs[v])]
                if not ready:
                    break
                idx = rng.choice(ready)
                v = non_bank[idx]
                cur[idx] -= len(nbrs[v])
                count[v] += 1
                for w in nbrs[v]:
                    if w != bank:
                        cur[non_bank.index(w)] += 1
            assert tuple(cur) == final.chips
            assert count == fired


def test_burning_test_matches_brute_force():
    graphs = [
        SimplicialComplex.from_facets([(1, 2), (2, 3)]),          # path
        complete_graph(3),
        cycle(4),
        complete_graph(4),
    ]
    for comp in graphs:
        verts = comp.vertices()
        bank = verts[-1]
        non_bank = [v for v in verts if v != bank]
        degs = [sum(1 for e in comp.faces(1) if v in e) for v in non_bank]
        for chips in product(*(range(d) for d in degs)):
            state = ChipState(comp, bank, chips)
            assert is_recurrent(state) == brute_force_recurrent(state)


def test_all_zero_state_not_recurrent_on_k3():
    k3 = complete_graph(3)
    assert not is_recurrent(ChipState(k3, 3, (0, 0)))


def test_recurrent_requires_stable():
    with pytest.raises(ValueError):
        is_recurrent(ChipState(cycle(4), 4, (5, 0, 0)))


def test_big_pile_stabilizes_to_recurrent():
    c4 = cycle(4)
    s, _ = stabilize(ChipState(c4, 4, (9, 0, 3)))
    rep = critical_representative(s)
    assert is_critical(rep)


def test_critical_representative_fixed_point():
    c5 = cycle(5)
    for chips in product(range(2), repeat=4):
        state = ChipState(c5, 5, chips)
        if is_critical(state):
            assert critical_representative(state).chips == chips


def test_critical_counts_match_group_order():
    from simpcrit.critical import critical_group_direct

    cases = [(cycle(n), n) for n in (3, 4, 5, 6)] + [(complete_graph(4), 4)]
    for comp, bank in cases:
        non_bank = [v for v in comp.vertices() if v != bank]
        degs = [sum(1 for e in comp.faces(1) if v in e) for v in non_bank]
        crit = [
            chips
            for chips in product(*(range(d) for d in degs))
            if is_critical(ChipState(comp, bank, chips))
        ]
        assert len(crit) == critical_group_direct(comp, 0).order


def test_group_law_on_c5_sampled():
    c5 = cycle(5)
    rng = random.Random(33)
    for _ in range(40):
        a = tuple(rng.randint(0, 4) for _ in range(4))
        b = tuple(rng.randint(0, 4) for _ in range(4))
        sa, sb = ChipState(c5, 5, a), ChipState(c5, 5, b)
        lhs = critical_representative(critical_representative(sa) + critical_representative(sb))
        rhs = critical_representative(sa + sb)
        assert lhs.chips == rhs.chips


def test_disconnected_graph_rejected():
    comp = SimplicialComplex.from_facets([(1, 2), (3, 4)])
    with pytest.raises(ValueError):
        ChipState(comp, 1, (0, 0, 0))


def test_chipstate_validation():
    c4 = cycle(4)
    with pytest.raises(ValueError):
        ChipState(c4, 9, (0, 0, 0))
    with pytest.raises(ValueError):
        ChipState(c4, 4, (0, 0))
    with pytest.raises(ValueError):
        ChipState(c4, 4, (-1, 0, 0))


def test_bank_fire_adds_to_neighbors():
    c4 = cycle(4)
    s = fire_bank(ChipState(c4, 4, (0, 0, 0)))
    assert s.chips == (1, 0, 1)
    assert is_stable(s)


def stabilize_lowest_label(state):
    """Test oracle: fire the lowest-labelled ready vertex once, then rescan
    from the first vertex, until none is ready."""
    nbrs = state.complex.neighbors()
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
            return tuple(chips), fired


def test_stabilize_matches_lowest_label_oracle():
    rng = random.Random(20261018)
    for _ in range(300):
        n = rng.randint(2, 12)
        edges = {(v, v + 1) for v in range(1, n)}  # a spanning path keeps it connected
        edges |= {e for e in combinations(range(1, n + 1), 2) if rng.random() < 0.4}
        comp = SimplicialComplex.from_facets(sorted(edges))
        bank = rng.randint(1, n)
        state = ChipState(comp, bank, tuple(rng.randint(0, 3 * n) for _ in range(n - 1)))
        final, fired = stabilize(state)
        want_chips, want_fired = stabilize_lowest_label(state)
        assert final.chips == want_chips
        assert list(fired.items()) == list(want_fired.items())


def test_stabilize_a_million_chips():
    k12 = complete_graph(12)
    start = (10**6,) + (0,) * 10
    final, fired = stabilize(ChipState(k12, 12, start))
    nbrs = k12.neighbors()
    for v, c0, c1 in zip(final.non_bank, start, final.chips):
        moved = len(nbrs[v]) * fired[v] - sum(fired.get(w, 0) for w in nbrs[v])
        assert c0 - moved == c1
    assert is_stable(final)


def reduced_laplacian_times(state, fired):
    """L~ * fired over the non-bank vertices, from the neighbour lists."""
    nbrs = state.complex.neighbors()
    return [len(nbrs[v]) * fired[v] - sum(fired.get(w, 0) for w in nbrs[v])
            for v in state.non_bank]


def test_stabilize_huge_piles():
    """A pile of 10^400 settles exactly and fast, also on cycle(400) and the
    20 x 20 grid, where each bulk step is followed at once by the next while
    a pile is longer than the top bits a step solves for."""
    cases = [(comp, 12, pile, 1.0) for comp in (complete_graph(12), cycle(12))
             for pile in (10**20, 10**400)]
    cases += [(cycle(400), 400, 10**400, 2.0), (grid_graph(20, 20), 1, 10**400, 2.0)]
    for comp, bank, pile, seconds in cases:
        start = (pile,) + (0,) * (len(comp.vertices()) - 2)
        state = ChipState(comp, bank, start)
        clock = time.process_time()
        final, fired = stabilize(state)
        assert time.process_time() - clock < seconds
        moved = reduced_laplacian_times(state, fired)
        assert final.chips == tuple(c - m for c, m in zip(start, moved))
        assert is_stable(final) and min(final.chips) >= 0 and min(fired.values()) >= 0


def stabilize_worklist(state):
    """Test oracle: the worklist loop alone, with no bulk steps, verbatim."""
    non_bank, deg, adj, _ = flows._game(state.complex, state.bank)
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


def grid_graph(rows, cols):
    def label(i, j):
        return i * cols + j + 1
    return SimplicialComplex.from_facets(
        [(label(i, j), label(i, j + 1)) for i in range(rows) for j in range(cols - 1)]
        + [(label(i, j), label(i + 1, j)) for i in range(rows - 1) for j in range(cols)])


def bulk_step_graphs():
    """Seeded cycles, paths, grids and sparse connected graphs, each with a
    random bank, on which the worklist needs many steps."""
    rng = random.Random(20261019)
    graphs = []
    for n in (20, 35, 50, 80):
        graphs.append(cycle(n))
        graphs.append(SimplicialComplex.from_facets([(v, v + 1) for v in range(1, n)]))
    for side in range(6, 11):
        graphs.append(grid_graph(side, side + rng.randint(0, 1)))
    for _ in range(6):
        n = rng.randint(20, 60)
        # a random tree plus a few chords
        edges = {(rng.randint(1, v - 1), v) for v in range(2, n + 1)}
        edges |= {tuple(sorted(rng.sample(range(1, n + 1), 2))) for _ in range(n // 4)}
        graphs.append(SimplicialComplex.from_facets(sorted(edges)))
    return [(comp, rng.choice(comp.vertices()), rng) for comp in graphs]


def test_bulk_step_matches_worklist(monkeypatch):
    took = []
    bound = flows._odometer_lower_bound

    def spy(*args):
        bulk = bound(*args)
        took.append(bulk is not None)
        return bulk

    monkeypatch.setattr(flows, "_odometer_lower_bound", spy)
    stepped = 0
    cases = bulk_step_graphs()
    for comp, bank, rng in cases:
        _, deg, _, _ = flows._game(comp, bank)
        state = ChipState(comp, bank, tuple(rng.randint(0, 4 * d) for d in deg))
        took.clear()
        final, fired = stabilize(state)
        want, want_fired = stabilize_worklist(state)
        assert (final.chips, list(fired.items())) == (want.chips, list(want_fired.items()))
        stepped += any(took)
    assert 2 * stepped > len(cases), (stepped, len(cases))


@pytest.fixture
def schedule(monkeypatch):
    """Counts worklist steps, and the count at each bulk-step check and at
    each certificate build: (steps, checks, builds).  Each worklist step of
    ``stabilize`` calls divmod once, so a divmod seen from flows counts it."""
    steps, checks, builds = [0], [], []
    bound, build = flows._odometer_lower_bound, flows._build_certificate

    def counting_divmod(a, b):
        steps[0] += 1
        return divmod(a, b)

    def spy_bound(*args):
        checks.append(steps[0])
        return bound(*args)

    def spy_build(*args):
        builds.append(steps[0])
        return build(*args)

    monkeypatch.setattr(flows, "divmod", counting_divmod, raising=False)
    monkeypatch.setattr(flows, "_odometer_lower_bound", spy_bound)
    monkeypatch.setattr(flows, "_build_certificate", spy_build)
    return steps, checks, builds


def test_first_check_comes_after_sum_of_degrees(schedule):
    """Fresh or memoized, a game's first bulk-step check comes after
    sum(deg) worklist steps (62 on cycle(32), not n^2 = 961), and on a
    fresh game that check builds the certificate, once.  Stabilizing the
    same state again on the memoized game checks at the same steps."""
    steps, checks, builds = schedule
    rng = random.Random(20261020)
    # piles of up to deg or 8 deg on fresh 32-cycles: some settle with no check
    cases = [(cycle(32), 1, top) for top in (1, 8) * 30]
    cases += [(comp, bank, 4) for comp, bank, _ in bulk_step_graphs()]
    checked = 0
    for comp, bank, top in cases:
        _, deg, _, _ = flows._game(comp, bank)
        state = ChipState(comp, bank, tuple(rng.randint(0, top * d) for d in deg))
        runs = []
        for _ in range(2):
            steps[0] = 0
            checks.clear()
            builds.clear()
            assert stabilize(state) == stabilize_worklist(state)
            runs.append((list(checks), list(builds), steps[0]))
        (fresh, built, taken), (again, rebuilt, _) = runs
        # a call that settles within sum(deg) steps takes no check and builds nothing
        first = fresh[0] if fresh else None
        assert first == sum(deg) or (first is None and taken <= sum(deg)), (first, taken)
        assert built == fresh[:1] and rebuilt == [] and again == fresh, runs
        checked += bool(fresh)
    assert 30 < checked < len(cases), checked


def test_checks_that_fire_nothing_back_off_from_n_squared(schedule, monkeypatch):
    """After a check that fires nothing the gap to the next is n^2 doubled,
    then doubled again, also when the first check came after sum(deg)."""
    steps, checks, _ = schedule
    monkeypatch.setattr(flows, "_odometer_lower_bound", lambda *args: checks.append(steps[0]))
    comp = cycle(32)
    flows._certificate(comp, 1)
    state = ChipState(comp, 1, (100,) * 31)
    assert stabilize(state) == stabilize_worklist(state)
    gaps = [b - a for a, b in zip([0] + checks, checks)]
    assert len(gaps) >= 3 and gaps == [62] + [961 << k for k in range(1, len(gaps))], gaps


def test_chip_firing_is_invariant_under_relabeling():
    """stabilize and critical_representative commute with a vertex
    relabeling that carries the bank and the chips along, although the
    worklist order, the float solves and the bulk steps all change."""
    cases = list(bulk_step_graphs())
    cases.append((complete_graph(12), 12, random.Random(12)))
    for comp, bank, rng in cases:
        _, deg, _, _ = flows._game(comp, bank)
        state = ChipState(comp, bank, tuple(rng.randint(0, 4 * d) for d in deg))
        final, fired = stabilize(state)
        critical = critical_representative(state)
        labels = comp.vertices()
        for _ in range(3):
            # as test_acceptance.relabeled, keeping the permutation
            perm = dict(zip(labels, rng.sample(labels, len(labels))))
            image = SimplicialComplex.from_facets(
                [tuple(perm[v] for v in f) for f in comp.facets()])
            start = dict(zip((perm[v] for v in state.non_bank), state.chips))
            moved = ChipState(image, perm[bank], tuple(start[w] for w in sorted(start)))
            final2, fired2 = stabilize(moved)
            assert dict(zip(final2.non_bank, final2.chips)) == {
                perm[v]: c for v, c in zip(final.non_bank, final.chips)}
            assert fired2 == {perm[v]: k for v, k in fired.items()}
            critical2 = critical_representative(moved)
            assert dict(zip(critical2.non_bank, critical2.chips)) == {
                perm[v]: c for v, c in zip(critical.non_bank, critical.chips)}


def test_chip_certificate_is_exact():
    """The memoized g satisfies L~ g >= 1 in exact integers, on every graph
    family the bulk step is tested on and on complete graphs."""
    cases = [(comp, bank) for comp, bank, _ in bulk_step_graphs()]
    cases += [(complete_graph(n), n) for n in (3, 12, 30)]
    for comp, bank in cases:
        state = ChipState(comp, bank, (0,) * (len(comp.vertices()) - 1))
        certificate = flows._certificate(comp, bank)
        assert certificate is not None
        g, _, _ = certificate
        assert all(type(x) is int for x in g)
        assert min(reduced_laplacian_times(state, dict(zip(state.non_bank, g)))) >= 1
        assert flows._certificate(comp, bank) is certificate


def test_chip_factor_pivots_are_positive_and_solves_are_accurate():
    """The LDL^T factor of L~ eliminates every non-bank vertex once with a
    positive pivot, and its solve leaves max|L~ y - b| <= 2^-30 max|b|."""
    rng = random.Random(20261022)
    cases = [(comp, bank) for comp, bank, _ in bulk_step_graphs()]
    cases += [(grid_graph(20, 20), 1)] + [(complete_graph(n), n) for n in (3, 12, 30)]
    for comp, bank in cases:
        state = ChipState(comp, bank, (0,) * (len(comp.vertices()) - 1))
        _, _, factor = flows._certificate(comp, bank)
        assert sorted(p for p, _, _, _ in factor) == list(range(len(state.chips)))
        assert all(d > 0 for _, d, _, _ in factor)
        for b in ([1] * len(state.chips), [rng.randint(-10**6, 10**6) for _ in state.chips]):
            y = flows._solve_float(factor, b)
            lhs = reduced_laplacian_times(state, dict(zip(state.non_bank, y)))
            assert max(abs(x - c) for x, c in zip(lhs, b)) <= 2**-30 * max(map(abs, b))


def test_chip_factor_has_no_fill_on_paths_cycles_and_trees():
    """Least-degree elimination keeps the factor of a path, a cycle or a
    tree at one off-diagonal entry per edge off the bank, so its solves
    take O(n)."""
    rng = random.Random(20261023)
    cases = [(comp, bank) for comp, bank, _ in bulk_step_graphs()
             if max(map(len, comp.neighbors().values())) <= 2]
    for _ in range(10):
        n = rng.randint(2, 80)
        tree = SimplicialComplex.from_facets([(rng.randint(1, v - 1), v) for v in range(2, n + 1)])
        cases.append((tree, rng.randint(1, n)))
    assert len(cases) == 18
    for comp, bank in cases:
        _, _, factor = flows._certificate(comp, bank)
        edges = len(comp.faces(1)) - len(comp.neighbors()[bank])
        assert sum(len(later) for _, _, later, _ in factor) == edges
    _, _, factor = flows._certificate(cycle(32), 1)
    assert sum(len(later) for _, _, later, _ in factor) == 30


def test_chip_game_is_built_once_per_bank(monkeypatch):
    calls = []
    original = SimplicialComplex.neighbors

    def counting(self):
        calls.append(self)
        return original(self)

    builds = []
    build = flows._build_certificate

    def counting_build(deg, adj):
        builds.append(len(deg))
        return build(deg, adj)

    monkeypatch.setattr(SimplicialComplex, "neighbors", counting)
    monkeypatch.setattr(flows, "_build_certificate", counting_build)
    comp = SimplicialComplex.from_facets(combinations(range(1, 7), 2))
    rng = random.Random(76)
    for _ in range(30):
        final, _ = stabilize(ChipState(comp, 6, tuple(rng.randint(0, 9) for _ in range(5))))
        assert is_stable(final) and final.non_bank == (1, 2, 3, 4, 5)
        assert fire_bank(final).chips == tuple(c + 1 for c in final.chips)
        # a pile this large takes bulk steps, which need the certificate
        final, _ = stabilize(ChipState(comp, 6, (rng.randint(10**6, 10**7), 0, 0, 0, 0)))
        assert is_stable(final)
    assert len(calls) == 1 and builds == [5]
    for _ in range(3):
        stabilize(ChipState(comp, 1, (0, 0, 0, 0, 10**6)))
    assert len(calls) == 2 and builds == [5, 5]
    # a build that raised is not stored, so a bad bank raises on every call
    for _ in range(2):
        with pytest.raises(ValueError, match="bank vertex 9 is not in the graph"):
            ChipState(comp, 9, (0,) * 5)


def test_bank_fixed_points_fire_every_vertex_once():
    """Wherever stab(s + beta) == s for a stable s, every non-bank vertex
    fired exactly once; and critical_representative, which stops at the
    first such fixed point, agrees with the first repeat of the orbit."""
    rng = random.Random(20261019)
    fixed = moved = 0
    for _ in range(200):
        n = rng.randint(2, 9)
        edges = {(v, v + 1) for v in range(1, n)}  # a spanning path keeps it connected
        edges |= {e for e in combinations(range(1, n + 1), 2) if rng.random() < 0.4}
        comp = SimplicialComplex.from_facets(sorted(edges))
        # few chips, so that most orbits fire the bank before they settle
        state = ChipState(comp, rng.randint(1, n), tuple(rng.randint(0, 2) for _ in range(n - 1)))
        s, _ = stabilize(state)
        seen = set()
        while s.chips not in seen:
            seen.add(s.chips)
            nxt, fired = stabilize(fire_bank(s))
            if nxt.chips == s.chips:
                fixed += 1
                assert set(fired.values()) == {1} and is_recurrent(s)
            s = nxt
        moved += len(seen) > 1
        assert critical_representative(state).chips == s.chips
    assert fixed == 200 and moved > 100


def test_moore_spaces_carry_torsion_in_homology():
    rng = random.Random(77)
    for m in range(2, 8):
        comp = moore(m)
        assert comp.f_vector() == (1, 3 * m + 4, 12 * m + 3, 9 * m)
        assert comp.reduced_homology(1) == AbelianGroup(0, (m,))
        assert comp.reduced_homology(2) == AbelianGroup(0, ())
        tree = find_torsion_free_tree(comp, 1)
        k1 = AbelianGroup(0, (m, m))
        assert critical_group_direct(comp, 1) == k1 == critical_group_reduced(comp, 1, tree)
        census = enumerate_trees(comp, 2)
        assert (census.count, census.tau, census.torsion_histogram, census.complete) == (
            1, m * m, {m: 1}, True)
        if m in (3, 5):
            check_equivalent(comp, 1, rng, 3)
            check_tree_maps(comp, 1, tree, rng, 4)


# ---- prepared cokernel maps against the per-call Smith forms -------------------------

def extend_oracle(comp, i, tree, theta_values):
    """The conservative extension by a fresh lattice solve with the tree's
    boundary columns."""
    theta = _theta_indices(comp, i, tree)
    bd = comp.boundary_matrix(i)
    tree_cols = [comp.face_index(i, f) for f in tree.top_faces]
    rows = range(bd.rows)
    rhs = bd.submatrix(rows, theta).apply(theta_values)
    x = lattice_membership(bd.submatrix(rows, tree_cols), [-r for r in rhs])
    out = [0] * bd.cols
    for j, v in zip(theta, theta_values):
        out[j] = v
    for j, v in zip(tree_cols, x):
        out[j] = v
    return tuple(out)


def group_element_oracle(comp, i, tree, theta_values):
    """Residues of U * theta modulo the invariant factors, U from a fresh
    Smith form of the reduced Laplacian."""
    s = smith_normal_form(reduced_laplacian(comp, i, tree))
    w = s.u.apply(theta_values)
    return GroupElement(s.d, tuple(x % d for x, d in zip(w, s.d)))


def check_equivalent(comp, i, rng, pairs):
    """equivalent() against lattice_membership on pairs linked by firing
    and on unrelated pairs; repeated calls agree."""
    lap = laplacian(comp, i)
    n = len(comp.faces(i))
    for _ in range(pairs):
        a = [rng.randint(-3, 3) for _ in range(n)]
        moves = lap.apply([rng.randint(-2, 2) for _ in range(n)])
        linked = [x - y for x, y in zip(a, moves)]
        other = [x + (k == 0) for k, x in enumerate(linked)]
        for b in (linked, other, [rng.randint(-3, 3) for _ in range(n)]):
            want = lattice_membership(lap, [x - y for x, y in zip(a, b)]) is not None
            assert equivalent(comp, i, a, b) is want
            assert equivalent(comp, i, b, a) is want
        assert equivalent(comp, i, a, linked)


def check_tree_maps(comp, i, tree, rng, vectors):
    """to_group_element and extend_to_conservative against their oracles;
    two vectors get the same element iff equivalent() says so."""
    m = len(_theta_indices(comp, i, tree))
    thetas = [[rng.randint(-3, 3) for _ in range(m)] for _ in range(vectors)]
    thetas.append([0] * m)
    elements = []
    for t in thetas:
        ext = extend_to_conservative(comp, i, tree, t)
        assert ext == extend_oracle(comp, i, tree, t)
        assert extend_to_conservative(comp, i, tree, t) == ext
        g = to_group_element(comp, i, tree, t)
        assert g == group_element_oracle(comp, i, tree, t)
        assert to_group_element(comp, i, tree, ext) == g
        elements.append((ext, g))
    for (e1, g1), (e2, g2) in combinations(elements, 2):
        assert (g1 == g2) == equivalent(comp, i, e1, e2)


def test_prepared_maps_match_oracles_on_small_complexes():
    rng = random.Random(71)
    b = bipyramid()
    rp2 = SimplicialComplex.from_facets(RP2_FACETS)
    for comp, dims in ((b, (0, 1, 2)), (sphere(2), (0, 1)), (cycle(6), (0,)),
                       (complete_graph(5), (0,)), (rp2, (0, 1))):
        for i in dims:
            check_equivalent(comp, i, rng, 4)
    for comp, i in ((b, 0), (b, 1), (sphere(2), 1), (cycle(6), 0), (complete_graph(5), 0),
                    (rp2, 1)):
        check_tree_maps(comp, i, find_torsion_free_tree(comp, i), rng, 6)
    check_tree_maps(b, 1, is_spanning_tree(b, 1, PATH_TREE), rng, 6)


def test_prepared_maps_match_oracles_on_torsion():
    rng = random.Random(72)
    finite = 0
    for spec in LM_PDET:
        comp = linial_meshulam(*spec)
        check_equivalent(comp, 1, rng, 1)
        tree = find_torsion_free_tree(comp, 1)
        if comp.reduced_homology(1).betti:
            for _ in range(2):
                with pytest.raises(ValueError, match="free part"):
                    to_group_element(comp, 1, tree, [0] * len(_theta_indices(comp, 1, tree)))
            continue
        finite += 1
        check_tree_maps(comp, 1, tree, rng, 2)
    assert finite == 14


def spy_on_snf(monkeypatch, record):
    """Call record(a, s) for each Smith form s of a matrix a, through any
    module's binding of smith_normal_form."""
    original = intlinalg.smith_normal_form

    def spy(a):
        s = original(a)
        record(a, s)
        return s

    for name, module in list(sys.modules.items()):
        if name == "simpcrit" or name.startswith("simpcrit."):
            for key, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, key, spy)


@pytest.fixture
def snf_calls(monkeypatch):
    """Shapes of the matrices handed to smith_normal_form."""
    calls = []
    spy_on_snf(monkeypatch, lambda a, s: calls.append((a.rows, a.cols)))
    return calls


@pytest.fixture
def smith_forms(monkeypatch):
    """The Smith forms smith_normal_form returns."""
    forms = []
    spy_on_snf(monkeypatch, lambda a, s: forms.append(s))
    return forms


def built_transforms(s):
    return [name for name in ("u", "v", "u_inv", "v_inv") if name in vars(s)]


def test_smith_forms_build_only_the_transforms_read(smith_forms):
    comp = linial_meshulam(9, 0.5, 2)
    tree = find_torsion_free_tree(comp, 1)
    theta = _theta_indices(comp, 1, tree)
    rng = random.Random(75)
    x = [rng.randint(-3, 3) for _ in comp.faces(1)]
    assert equivalent(comp, 1, x, fire(comp, 1, x, comp.faces(1)[0]))
    to_group_element(comp, 1, tree, x)
    # group coordinates read rows of U off the row log; the image test
    # takes no Smith form
    extend_to_conservative(comp, 1, tree, x[:len(theta)])
    # and solving passes over both logs, so no transform matrix is built
    assert len(smith_forms) == 2
    assert [built_transforms(s) for s in smith_forms] == [[], []]


def test_one_smith_form_per_memo_key(snf_calls):
    comp = linial_meshulam(9, 0.5, 2)
    assert not comp.reduced_homology(1).betti
    tree = find_torsion_free_tree(comp, 1)
    theta = _theta_indices(comp, 1, tree)
    n, m = len(comp.faces(1)), len(theta)
    rng = random.Random(73)
    for k in range(50):
        x = [rng.randint(-3, 3) for _ in range(n)]
        if k % 3 == 0:
            assert equivalent(comp, 1, x, fire(comp, 1, x, rng.choice(comp.faces(1))))
        elif k % 3 == 1:
            assert to_group_element(comp, 1, tree, x) == to_group_element(
                comp, 1, tree, [x[j] for j in theta])
        else:
            assert is_conservative(comp, 1, extend_to_conservative(comp, 1, tree, x[:m]))
    # the reduced Laplacian and the tree's boundary columns; the image test
    # of equivalent() takes no Smith form
    assert sorted(snf_calls) == sorted([(m, m), (len(comp.faces(0)), len(tree.top_faces))])


def test_each_tree_gets_its_own_prepared_map(snf_calls):
    b = bipyramid()
    trees = [find_torsion_free_tree(b, 1), is_spanning_tree(b, 1, PATH_TREE)]
    assert trees[0].top_faces != trees[1].top_faces
    rng = random.Random(74)
    confs = [extend_to_conservative(b, 1, trees[0], [rng.randint(-2, 2) for _ in range(5)])
             for _ in range(8)]
    for c1, c2 in combinations(confs, 2):
        same = [to_group_element(b, 1, t, c1) == to_group_element(b, 1, t, c2) for t in trees]
        assert same == [equivalent(b, 1, c1, c2)] * 2
    # one extension and two coordinate maps; the image test takes none
    assert sorted(snf_calls) == [(5, 4), (5, 5), (5, 5)]


def equivalent_fixtures():
    """Complexes whose Laplacians have torsion, free parts, zero rows and
    empty rows for the image test of equivalent()."""
    return [
        bipyramid(), sphere(2), SimplicialComplex.from_facets(RP2_FACETS), moore(3), moore(5),
        lm_moore(2, 6, 0.4, 1), lm_moore(3, 5, 0.4, 3),
        # the hollow triangle 345 leaves a free Z in K_1
        SimplicialComplex.from_facets([(1, 2, 3), (3, 4), (3, 5), (4, 5)]),
        # two components and an isolated vertex, an empty row of L_0
        SimplicialComplex.from_facets([(1, 2, 3), (4, 5), (5, 6), (4, 6), (7,)]),
        linial_meshulam(12, 0.5, 1),
    ]


def test_equivalent_matches_lattice_membership_in_every_dimension():
    rng = random.Random(76)
    for comp in equivalent_fixtures():
        for i in range(-1, comp.dim + 1):
            lap = laplacian(comp, i)
            n = lap.rows
            for _ in range(4):
                a = [rng.randint(-3, 3) for _ in range(n)]
                linked = [x - y for x, y in zip(a, lap.apply([rng.randint(-2, 2) for _ in range(n)]))]
                k = rng.randrange(n)
                shifted = [x + (j == k) for j, x in enumerate(linked)]
                for b in (linked, shifted, [rng.randint(-3, 3) for _ in range(n)]):
                    want = lattice_membership(lap, [x - y for x, y in zip(a, b)]) is not None
                    assert equivalent(comp, i, a, b) is want, (comp, i)
                    assert equivalent(comp, i, b, a) is want, (comp, i)
                assert equivalent(comp, i, a, linked)


def test_unit_phase_packs_no_empty_row():
    # rows empty from the start (an isolated vertex, the top dimension)
    # and rows that a Schur update empties are dropped, with a log or not
    empty = emptied = 0
    for comp in equivalent_fixtures():
        for i in range(-1, comp.dim + 1):
            for log in (None, []):
                rows = _laplacian_rows(comp, i)
                start = sum(map(bool, rows))
                rest = intlinalg._eliminate_unit_pivots(rows, log)
                assert 0 not in rest.ints, (comp, i)
            empty += len(rows) - start
            emptied += start - len(rest.taken) - len(rest.ids)
    assert (empty, emptied) == (268, 43)


def test_coordinate_rows_on_reduced_laplacians():
    seen = 0
    for comp in equivalent_fixtures():
        for i in range(comp.dim + 1):
            tree = find_torsion_free_tree(comp, i)
            if tree is not None:
                seen += check_coordinate_rows(reduced_laplacian(comp, i, tree))
    assert seen == 18


def test_equivalent_builds_its_image_test_once_with_no_smith_form(snf_calls, monkeypatch):
    comp = linial_meshulam(12, 0.5, 1)
    built = []

    def spy(name, real):
        monkeypatch.setattr(flows, name, lambda *args: built.append(name) or real(*args))

    spy("_laplacian_rows", flows._laplacian_rows)
    spy("_membership_rows", flows._membership_rows)
    spy("laplacian", flows.laplacian)
    x = [k % 5 - 2 for k in range(len(comp.faces(1)))]
    y = [v + (k == 0) for k, v in enumerate(x)]
    assert equivalent(comp, 1, x, x)
    assert built == ["_laplacian_rows", "_membership_rows"] and snf_calls == []
    assert not equivalent(comp, 1, x, y)
    assert built == ["_laplacian_rows", "_membership_rows"] and snf_calls == []


def test_free_part_raises_on_every_call(snf_calls):
    # the hollow triangle 345 leaves a free Z in K_1
    comp = SimplicialComplex.from_facets([(1, 2, 3), (3, 4), (3, 5), (4, 5)])
    tree = find_torsion_free_tree(comp, 1)
    for _ in range(2):
        with pytest.raises(ValueError, match="free part"):
            to_group_element(comp, 1, tree, [0] * 2)
    assert len(snf_calls) == 1
