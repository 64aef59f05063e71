"""Acceptance suite: one test per criterion, exact integer comparisons
throughout, one PASS line printed per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import random
from fractions import Fraction
from itertools import combinations, product
from math import comb

import pytest

from simpcrit.complexes import SimplicialComplex
from simpcrit.critical import (
    alternating_order,
    critical_group_direct,
    critical_group_reduced,
    reduced_laplacian,
    verify_simplex_structure,
)
from simpcrit.flows import (
    ChipState,
    critical_representative,
    extend_to_conservative,
    fire,
    is_conservative,
    is_critical,
    stabilize,
    to_group_element,
)
from simpcrit.generators import (
    bipyramid,
    complete_graph,
    cycle,
    simplex_skeleton,
    sphere,
)
from simpcrit.intlinalg import (
    IntMatrix,
    determinant,
    pseudo_determinant,
    smith_normal_form,
)
from simpcrit.trees import (
    enumerate_trees,
    find_torsion_free_tree,
    verify_smtt,
)

RP2_FACETS = [
    (1, 2, 3), (1, 2, 4), (1, 3, 5), (1, 4, 6), (1, 5, 6),
    (2, 3, 6), (2, 4, 5), (2, 5, 6), (3, 4, 5), (3, 4, 6),
]

# (n, p, seed) of seeded Linial-Meshulam 2-complexes whose K_1 carries
# torsion, most of them with a free part too (e.g. Z^3 + Z/5 + Z/10)
LM_TORSION = [
    (6, 0.5, 3), (7, 0.4, 1), (7, 0.5, 3), (8, 0.3, 1), (8, 0.4, 1), (8, 0.5, 2),
    (9, 0.3, 1), (9, 0.4, 2), (9, 0.5, 2), (10, 0.2, 2), (10, 0.3, 2), (10, 0.5, 1),
]

BIPYR_REDUCED = [
    [3, -1, -1, 1, 1],
    [-1, 2, 0, -1, 0],
    [-1, 0, 2, 0, -1],
    [1, -1, 0, 2, 0],
    [1, 0, -1, 0, 2],
]


@pytest.fixture(scope="module")
def big_skeleton():
    return simplex_skeleton(6, 2)


@pytest.fixture(scope="module")
def big_census(big_skeleton):
    # shared between the SMTT check (criterion 6) and the extended
    # census (criterion 7); about five seconds of enumeration
    return enumerate_trees(big_skeleton, 2)


def linial_meshulam(n, p, seed):
    """All edges on 1..n plus each triangle, in combinations order, kept
    when random.Random(seed).random() < p."""
    rng = random.Random(seed)
    tris = [t for t in combinations(range(1, n + 1), 3) if rng.random() < p]
    return SimplicialComplex.from_facets(list(combinations(range(1, n + 1), 2)) + tris)


def _first_torsion_free_trees(comp, i, want):
    found = []

    def grab(tree):
        if tree.torsion_order == 1:
            found.append(tree)
        return len(found) >= want

    enumerate_trees(comp, i, on_tree=grab)
    return found


def test_criterion_1_bipyramid_reduced_laplacian():
    b = bipyramid()
    red = reduced_laplacian(b, 1, [(1, 2), (1, 3), (1, 4), (1, 5)])
    assert red.data == BIPYR_REDUCED
    assert determinant(red) == 15
    tree = find_torsion_free_tree(b, 1)
    assert tree.top_faces == ((1, 2), (1, 3), (1, 4), (1, 5))
    group = critical_group_reduced(b, 1, tree)
    assert group.torsion == (15,) and group.betti == 0
    print("\n[PASS] criterion 1: bipyramid reduced Laplacian, det 15, K_1 = Z/15")


def test_criterion_2_bipyramid_tree_census():
    b = bipyramid()
    trees = []
    census = enumerate_trees(b, 2, on_tree=lambda t: trees.append(t) and False)
    assert census.count == 15
    assert census.tau == 15
    assert all(t.torsion_order == 1 for t in trees)
    facets = set(b.faces(2))
    removed = {frozenset(facets - set(t.top_faces)) for t in trees}
    expected = {
        frozenset({f, g})
        for f, g in combinations(sorted(facets), 2)
        if not (set(f) & set(g)) & {4, 5}
    }
    assert removed == expected
    assert critical_group_direct(b, 1).order == census.tau == 15
    print("[PASS] criterion 2: 15 two-trees (facet pairs avoiding apexes), tau_2 = 15 = |K_1|")


def test_criterion_3_main_theorem_oracle_equivalence():
    rp2 = SimplicialComplex.from_facets(RP2_FACETS)
    # H_1(RP^2) = Z/2; its single 2-tree is itself, with torsion 2
    assert critical_group_direct(rp2, 1).torsion == (2, 2)
    census = enumerate_trees(rp2, 2)
    assert (census.count, census.tau, census.torsion_histogram) == (1, 4, {2: 1})
    lm = [linial_meshulam(*spec) for spec in LM_TORSION]
    k1 = [critical_group_direct(c, 1) for c in lm]
    assert all(g.torsion[-1] > 1 for g in k1)
    assert sum(g.betti > 0 for g in k1) == 10

    fixtures = [bipyramid(), sphere(2), sphere(3), rp2] + lm
    fixtures += [simplex_skeleton(n, k) for n in (4, 5, 6) for k in (1, 2) if k <= n - 2]
    rng = random.Random(20260808)
    graphs = 0
    while graphs < 20:
        n = rng.randint(3, 7)
        verts = range(1, n + 1)
        edges = [e for e in combinations(verts, 2) if rng.random() < 0.55]
        try:
            comp = SimplicialComplex.from_facets(edges) if edges else None
        except ValueError:
            continue
        if comp is None or len(comp.vertices()) != n or not comp.is_apc():
            continue
        fixtures.append(comp)
        graphs += 1

    pairs_checked = 0
    for comp in fixtures:
        for i in range(comp.dim):
            direct = critical_group_direct(comp, i)
            for tree in _first_torsion_free_trees(comp, i, 3):
                red = critical_group_reduced(comp, i, tree)
                assert red.torsion == direct.torsion, (comp, i, tree)
                assert red.betti == direct.betti
                pairs_checked += 1
    assert pairs_checked >= 60
    print(f"[PASS] criterion 3: reduced = direct invariant factors on "
          f"{len(fixtures)} fixtures ({pairs_checked} tree comparisons)")


def test_criterion_4_sphere_theorem():
    for d in (1, 2, 3):
        s = sphere(d)
        group = critical_group_direct(s, d - 1)
        assert group.betti == 0
        assert group.torsion == (d + 2,)
        assert len(s.faces(d)) == d + 2
    for n in range(3, 9):
        assert critical_group_direct(cycle(n), 0).torsion == (n,)
    print("[PASS] criterion 4: K_(d-1) of sphere boundaries cyclic of facet "
          "order (d = 1..3); cycles give Z/n (n = 3..8)")


def test_criterion_5_simplex_skeleta():
    for n in (4, 5, 6):
        group = critical_group_direct(complete_graph(n), 0)
        assert group.torsion == tuple([n] * (n - 2))
    for n in (4, 5):
        census = enumerate_trees(complete_graph(n), 1)
        assert census.tau == n ** (n - 2)
        assert census.count == n ** (n - 2)
    matches = {}
    for n, k in ((4, 1), (5, 1), (5, 2)):
        rep = verify_simplex_structure(n, k)
        assert rep.passed, rep
        assert rep.coker_a == tuple([n] * comb(n - 2, k))
        matches[(n, k)] = rep.aat_matches
    # record which direct sum coker(A A^T) realizes: the doubled K_{k-1}
    # always, also K_{k-1} + K_k exactly when the two binomials coincide
    assert matches[(5, 1)] == "both"
    assert matches[(4, 1)] == matches[(5, 2)] == "K[k-1] doubled"
    print(f"[PASS] criterion 5: K_0(K_n) = (Z/n)^(n-2); Cayley counts by "
          f"enumeration; simplex structure checks pass, coker(AA^T) matches {matches}")


def test_criterion_6_smtt_identities(big_skeleton, big_census):
    fixtures = [
        (bipyramid(), None),
        (sphere(2), None),
        (big_skeleton, big_census),
    ]
    for comp, census2 in fixtures:
        for i in (1, 2):
            rep = verify_smtt(comp, i, census=census2 if i == 2 else None)
            assert rep.ok, (comp, i, rep)
        for i in (0, 1):
            value = alternating_order(comp, i)
            group = critical_group_direct(comp, i)
            assert group.betti == 0
            assert value == Fraction(group.order), (comp, i, value)
    print("[PASS] criterion 6: both matrix-tree identities at i = 1, 2 and "
          "alternating products on bipyramid, sphere(2), 2-skeleton of the 6-vertex simplex")


def test_criterion_7_extended_six_vertex_census(big_census):
    assert big_census.complete
    assert big_census.tau == 46656 == 6 ** 6
    # pins the DFS column reduction, as in test_group_order_equals_next_tau
    assert (big_census.count, big_census.extensions) == (46620, 278544)
    assert 2 in big_census.torsion_histogram
    assert big_census.torsion_histogram[2] >= 1
    # histogram consistency with the torsion-weighted count
    assert big_census.tau == sum(t * t * n for t, n in big_census.torsion_histogram.items())
    print(f"[PASS] criterion 7: tau_2 = 46656 = 6^6 over {big_census.count} trees, "
          f"torsion histogram {big_census.torsion_histogram}")


def test_criterion_8_flow_and_chip_properties():
    rng = random.Random(97)

    # firing invariance of the equivalence class, 100 random firings
    for comp, i in ((bipyramid(), 1), (sphere(2), 1), (cycle(5), 0)):
        tree = find_torsion_free_tree(comp, i)
        theta_len = len(comp.faces(i)) - len(tree.top_faces)
        conf = extend_to_conservative(comp, i, tree, [rng.randint(-3, 3) for _ in range(theta_len)])
        g0 = to_group_element(comp, i, tree, conf)
        for _ in range(100):
            face = comp.faces(i)[rng.randrange(len(comp.faces(i)))]
            conf = fire(comp, i, conf, face)
        assert to_group_element(comp, i, tree, conf) == g0
        assert is_conservative(comp, i, conf)

    # extension lands in the kernel; zero case plus linearity pin uniqueness
    b = bipyramid()
    tree = find_torsion_free_tree(b, 1)
    assert extend_to_conservative(b, 1, tree, [0] * 5) == (0,) * 9
    for _ in range(25):
        t1 = [rng.randint(-4, 4) for _ in range(5)]
        t2 = [rng.randint(-4, 4) for _ in range(5)]
        c1 = extend_to_conservative(b, 1, tree, t1)
        c2 = extend_to_conservative(b, 1, tree, t2)
        both = extend_to_conservative(b, 1, tree, [x + y for x, y in zip(t1, t2)])
        assert is_conservative(b, 1, c1)
        assert both == tuple(x + y for x, y in zip(c1, c2))

    # stabilization is firing-order independent, 100 scrambles
    from simpcrit.flows import _graph

    scrambles = 0
    for comp in (cycle(5), complete_graph(4), cycle(6)):
        verts, nbrs = _graph(comp)
        bank = verts[-1]
        non_bank = tuple(v for v in verts if v != bank)
        for _ in range(34):
            chips = tuple(rng.randint(0, 5) for _ in non_bank)
            final, fired = stabilize(ChipState(comp, bank, chips))
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
            assert tuple(cur) == final.chips and count == fired
            scrambles += 1
    assert scrambles >= 100

    # critical configurations biject with K_0
    for comp, bank in [(cycle(n), n) for n in (3, 4, 5, 6)] + [(complete_graph(4), 4)]:
        non_bank = [v for v in comp.vertices() if v != bank]
        degs = [sum(1 for e in comp.faces(1) if v in e) for v in non_bank]
        count = sum(
            1
            for chips in product(*(range(d) for d in degs))
            if is_critical(ChipState(comp, bank, chips))
        )
        assert count == critical_group_direct(comp, 0).order

    # the group law, exhaustively on C_5 with entries bounded by 2 * max degree
    c5 = cycle(5)
    bound = 4
    reps = {}
    for chips in product(range(2 * bound + 1), repeat=4):
        reps[chips] = critical_representative(ChipState(c5, 5, chips)).chips
    for a in product(range(bound + 1), repeat=4):
        ra = reps[a]
        for b_ in product(range(bound + 1), repeat=4):
            summed = tuple(x + y for x, y in zip(a, b_))
            folded = tuple(x + y for x, y in zip(ra, reps[b_]))
            assert reps[summed] == reps[folded]
    print("[PASS] criterion 8: firing invariance, conservative extension, "
          "order-independent stabilization, critical counts, exhaustive C_5 group law")


def test_criterion_9_linear_algebra_kernel():
    rng = random.Random(1234)
    for _ in range(500):
        m = rng.randint(1, 8)
        n = rng.randint(1, 8)
        a = IntMatrix(m, n, [[rng.randint(-9, 9) for _ in range(n)] for _ in range(m)])
        s = smith_normal_form(a)
        assert s.u * a * s.v == s.diagonal_matrix()
        assert abs(determinant(s.u)) == 1
        assert abs(determinant(s.v)) == 1
        for x, y in zip(s.d, s.d[1:]):
            assert y % x == 0
    for _ in range(200):
        m = rng.randint(1, 6)
        n = rng.randint(1, 6)
        a = IntMatrix(m, n, [[rng.randint(-9, 9) for _ in range(n)] for _ in range(m)])
        assert pseudo_determinant(a * a.transpose()) == pseudo_determinant(a.transpose() * a)
    print("[PASS] criterion 9: 500 SNF reconstructions with unimodular "
          "transforms; 200 Gram pseudo-determinant agreements")
