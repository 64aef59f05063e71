from itertools import combinations

import pytest
from test_acceptance import linial_meshulam

from simpcrit.complexes import SimplicialComplex
from simpcrit.critical import reduced_laplacian
from simpcrit.generators import bipyramid, complete_graph, cycle, sphere
from simpcrit.intlinalg import determinant
from simpcrit.trees import (
    BudgetExceededError,
    NotAcyclicError,
    NotATreeError,
    as_spanning_tree,
    enumerate_trees,
    find_torsion_free_tree,
    is_spanning_tree,
    required_tree_size,
    verify_smtt,
)

RP2_FACETS = [
    (1, 2, 3), (1, 2, 4), (1, 3, 5), (1, 4, 6), (1, 5, 6),
    (2, 3, 6), (2, 4, 5), (2, 5, 6), (3, 4, 5), (3, 4, 6),
]


# ---- oracles -------------------------------------------------------------

def spanning_trees_brute(n_vertices, edges):
    """All spanning trees of a graph by checking every (n-1)-subset of
    edges for connectivity with a union-find."""
    out = []
    verts = sorted({v for e in edges for v in e})
    for sub in combinations(edges, n_vertices - 1):
        parent = {v: v for v in verts}

        def find(v):
            while parent[v] != v:
                parent[v] = parent[parent[v]]
                v = parent[v]
            return v

        acyclic = True
        for a, b in sub:
            ra, rb = find(a), find(b)
            if ra == rb:
                acyclic = False
                break
            parent[ra] = rb
        if acyclic:
            out.append(frozenset(sub))
    return out


# ---- recognition ------------------------------------------------------------

def test_vertex_is_a_zero_tree():
    b = bipyramid()
    assert required_tree_size(b, 0) == 1
    for v in b.vertices():
        t = is_spanning_tree(b, 0, [(v,)])
        assert t is not None and t.torsion_order == 1
    assert is_spanning_tree(b, 0, [(1,), (2,)]) is None


def test_graph_one_trees_are_spanning_trees():
    c5 = cycle(5)
    assert is_spanning_tree(c5, 1, [(1, 2), (2, 3), (3, 4), (4, 5)]) is not None
    # the full cycle has one edge too many, a path misses a vertex
    assert is_spanning_tree(c5, 1, list(c5.faces(1))) is None
    assert is_spanning_tree(c5, 1, [(1, 2), (2, 3), (3, 4)]) is None


def test_bipyramid_two_tree_pair_rule():
    # removing facets F, F' is a tree exactly when their intersection
    # avoids the apexes 4 and 5
    b = bipyramid()
    facets = set(b.faces(2))
    good = set(facets) - {(1, 2, 4), (2, 3, 5)}
    assert is_spanning_tree(b, 2, good) is not None
    bad = set(facets) - {(1, 3, 4), (2, 3, 4)}  # intersection {3,4} hits 4
    assert is_spanning_tree(b, 2, bad) is None


def test_unknown_face_raises():
    with pytest.raises(ValueError):
        is_spanning_tree(bipyramid(), 1, [(4, 5)])


def test_as_spanning_tree_coercion():
    b = bipyramid()
    t = as_spanning_tree(b, 1, [(1, 2), (1, 3), (1, 4), (1, 5)])
    assert t.top_faces == ((1, 2), (1, 3), (1, 4), (1, 5))
    with pytest.raises(NotATreeError):
        as_spanning_tree(b, 1, [(1, 2), (1, 3), (1, 4)])
    with pytest.raises(NotATreeError):
        as_spanning_tree(b, 2, t)


# ---- enumeration -------------------------------------------------------------

def test_bipyramid_two_tree_census():
    census = enumerate_trees(bipyramid(), 2)
    assert census.count == 15
    assert census.tau == 15
    assert census.torsion_histogram == {1: 15}
    assert census.complete


def test_bipyramid_two_trees_match_pair_characterization():
    b = bipyramid()
    facets = set(b.faces(2))
    trees = []
    enumerate_trees(b, 2, on_tree=lambda t: trees.append(t) and False)
    seen = {frozenset(facets - set(t.top_faces)) for t in trees}
    expected = {
        frozenset({f, g})
        for f, g in combinations(sorted(facets), 2)
        if not (set(f) & set(g)) & {4, 5}
    }
    assert seen == expected


def test_graph_census_matches_brute_force():
    for comp, n in ((cycle(5), 5), (complete_graph(4), 4), (bipyramid().skeleton(1), 5)):
        census = enumerate_trees(comp, 1)
        brute = spanning_trees_brute(n, list(comp.faces(1)))
        assert census.count == len(brute)
        assert census.tau == len(brute)  # graph trees never have torsion


def test_bipyramid_one_skeleton_tau_is_75():
    assert enumerate_trees(bipyramid(), 1).tau == 75


def test_zero_tree_census_counts_vertices():
    census = enumerate_trees(bipyramid(), 0)
    assert census.count == 5 and census.tau == 5


def test_sphere_trees_are_single_facet_deletions():
    for d in (2, 3):
        s = sphere(d)
        census = enumerate_trees(s, d)
        assert census.count == d + 2
        assert census.torsion_histogram == {1: d + 2}
        trees = []
        enumerate_trees(s, d, on_tree=lambda t: trees.append(t) and False)
        for t in trees:
            assert len(set(s.faces(d)) - set(t.top_faces)) == 1


def test_non_apc_skeleton_has_no_trees():
    comp = SimplicialComplex.from_facets([(1, 2), (3, 4)])
    census = enumerate_trees(comp, 1)
    assert census.count == 0 and census.warnings


def test_all_three_tree_conditions_hold():
    # construction checks two of the conditions; re-check all three,
    # including vanishing rational homology one dimension down
    b = bipyramid()
    trees = []
    enumerate_trees(b, 2, on_tree=lambda t: trees.append(t) and False)
    for t in trees[:5]:
        sub = SimplicialComplex.from_facets(list(t.top_faces) + list(b.faces(1)))
        assert sub.reduced_homology(2).betti == 0
        assert sub.reduced_homology(2).torsion == ()
        assert sub.reduced_homology(1).betti == 0
        assert len(t.top_faces) == required_tree_size(b, 2)


def test_budget_gives_partial_census_with_warning():
    census = enumerate_trees(bipyramid(), 2, budget=10)
    assert not census.complete
    assert any("budget" in w for w in census.warnings)
    assert census.count < 15


def test_stream_early_stop():
    seen = []
    census = enumerate_trees(bipyramid(), 2, on_tree=lambda t: seen.append(t) or len(seen) >= 3)
    assert len(seen) == 3
    assert not census.complete


# ---- torsion-free search -------------------------------------------------------

def test_find_torsion_free_tree_bipyramid_star():
    t = find_torsion_free_tree(bipyramid(), 1)
    assert t.top_faces == ((1, 2), (1, 3), (1, 4), (1, 5))
    assert t.torsion_order == 1


def test_find_torsion_free_tree_zero_dim():
    t = find_torsion_free_tree(bipyramid(), 0)
    assert t.top_faces == ((1,),)


def test_find_torsion_free_tree_none_when_disconnected():
    comp = SimplicialComplex.from_facets([(1, 2), (3, 4)])
    assert find_torsion_free_tree(comp, 1) is None


def test_find_torsion_free_tree_budget_is_not_absence():
    # the only 2-tree of RP^2 is RP^2 itself, with torsion 2: a completed
    # search answers None, an exhausted budget raises instead
    rp2 = SimplicialComplex.from_facets(RP2_FACETS)
    assert find_torsion_free_tree(rp2, 2) is None
    with pytest.raises(BudgetExceededError, match="budget"):
        find_torsion_free_tree(rp2, 2, budget=1)


def first_tree_brute(comp, i, torsion_free):
    """The first index combination, in itertools.combinations order, that
    is_spanning_tree accepts (with torsion 1 if torsion_free).  The tree
    size comes from the homology of the i-skeleton, not from the search."""
    sk = comp.skeleton(i)
    faces = comp.faces(i)
    need = len(faces) - sk.reduced_homology(i).betti + sk.reduced_homology(i - 1).betti
    for combo in combinations(range(len(faces)), need):
        t = is_spanning_tree(comp, i, [faces[j] for j in combo])
        if t is not None and (t.torsion_order == 1 or not torsion_free):
            return t
    return None


def test_first_trees_match_brute_force():
    rp2 = SimplicialComplex.from_facets(RP2_FACETS)
    rp2_tetra = SimplicialComplex.from_facets(RP2_FACETS + [(5, 6, 7, 8)])
    # RP^2 with the loop 4-5-6 coned off: its first 2-tree has torsion 2,
    # a later one none
    rp2_cone = SimplicialComplex.from_facets(RP2_FACETS + [(4, 5, 7), (4, 6, 7), (5, 6, 7)])
    assert first_tree_brute(rp2_cone, 2, torsion_free=False).torsion_order == 2
    comps = [bipyramid(), rp2, rp2_tetra, rp2_cone, sphere(3),
             linial_meshulam(6, 0.5, 3), linial_meshulam(7, 0.5, 1)]
    for comp in comps:
        for i in range(comp.dim + 1):
            want = first_tree_brute(comp, i, torsion_free=True)
            assert find_torsion_free_tree(comp, i) == want, (comp, i)
    # every 2-tree of RP^2 plus a tetrahedron contains RP^2, so it has
    # torsion 2, and verify_smtt at i = 3 falls back to the first tree of
    # any torsion
    rep = verify_smtt(rp2_tetra, 3)
    fallback = first_tree_brute(rp2_tetra, 2, torsion_free=False)
    assert rep.ok and rep.tree_torsion == 2
    assert rep.tree_faces == fallback.top_faces


def test_tree_exists_without_apc():
    # two disjoint solid tetrahedra: beta~_1 = 0, so 2-trees exist, but
    # beta~_0 = 1, so the census declines and no 1-tree exists
    comp = SimplicialComplex.from_facets([(1, 2, 3, 4), (5, 6, 7, 8)])
    t = find_torsion_free_tree(comp, 2)
    assert t is not None and is_spanning_tree(comp, 2, t.top_faces) == t
    census = enumerate_trees(comp, 2)
    assert census.count == 0 and census.complete
    assert census.warnings == (
        "skeleton is not acyclic in positive codimension: no spanning trees",)
    assert find_torsion_free_tree(comp, 1) is None


def test_no_tree_is_answered_before_searching():
    # two disjoint K_6: every spanning forest would be walked without the
    # beta~_0 check, and the budget of 100 would run out
    k6 = list(combinations(range(1, 7), 2))
    comp = SimplicialComplex.from_facets(k6 + [(a + 6, b + 6) for a, b in k6])
    assert find_torsion_free_tree(comp, 1, budget=100) is None


def test_first_tree_search_counts_against_budget():
    with pytest.raises(BudgetExceededError, match="budget of 1 "):
        find_torsion_free_tree(bipyramid(), 1, budget=1)


def test_first_tree_costs_no_more_than_the_census_walk():
    rp2_cone = SimplicialComplex.from_facets(RP2_FACETS + [(4, 5, 7), (4, 6, 7), (5, 6, 7)])
    # the first tree ends at the last edge, and (2, 3) becomes zero before
    # it meets the third tree edge: the walk to the leaf costs exactly 8
    graph = SimplicialComplex.from_facets([(1, 2), (1, 3), (1, 4), (2, 3), (4, 5)])
    for comp, i in ((bipyramid(), 1), (bipyramid(), 2), (sphere(3), 2), (rp2_cone, 2), (graph, 1)):
        found = []

        def grab(t):
            found.append(t)
            return t.torsion_order == 1

        walk = enumerate_trees(comp, i, on_tree=grab)
        assert find_torsion_free_tree(comp, i, budget=walk.extensions) == found[-1]
    assert walk.extensions == 8
    # no extension to spare when the first leaf ends at the last face, or
    # when it has torsion (as in rp2_cone) and the whole walk is needed
    for comp, i in ((graph, 1), (rp2_cone, 2)):
        budget = enumerate_trees(comp, i, on_tree=lambda t: t.torsion_order == 1).extensions
        with pytest.raises(BudgetExceededError):
            find_torsion_free_tree(comp, i, budget=budget - 1)


def test_deep_trees_need_no_recursion():
    # trees of 1,199 and 599 faces: a search taking two Python frames per
    # face would pass the default recursion limit of 1,000
    comp = cycle(1200)
    assert find_torsion_free_tree(comp, 1).top_faces == comp.faces(1)[:1199]
    path = SimplicialComplex.from_facets([(v, v + 1) for v in range(1, 600)])
    census = enumerate_trees(path, 1)
    assert (census.count, census.tau, census.complete) == (1, 1, True)


# ---- matrix-tree identities ------------------------------------------------------

def test_smtt_bipyramid():
    b = bipyramid()
    for i in (1, 2):
        rep = verify_smtt(b, i)
        assert rep.ok, rep
    rep = verify_smtt(b, 2)
    assert rep.tau == 15 and rep.det_reduced == 15 and rep.tree_torsion == 1


def test_smtt_reduces_to_classical_matrix_tree():
    for comp, n in ((cycle(6), 6), (complete_graph(5), 5)):
        rep = verify_smtt(comp, 1)
        assert rep.ok
        brute = spanning_trees_brute(n, list(comp.faces(1)))
        assert rep.tau == len(brute)
        assert rep.det_reduced == len(brute)


def test_smtt_rejects_census_of_wrong_dimension():
    b = bipyramid()
    with pytest.raises(ValueError, match="2-tree census.*dimension 1"):
        verify_smtt(b, 2, census=enumerate_trees(b, 1))
    with pytest.raises(ValueError, match="1-tree census.*dimension 2"):
        verify_smtt(b, 2, census_prev=enumerate_trees(b, 2))


def test_smtt_requires_apc():
    # two disjoint solid tetrahedra: beta~_0 = 1, so the 1-skeleton is not
    # APC; the theorem does not apply, and no FAIL is reported
    comp = SimplicialComplex.from_facets([(1, 2, 3, 4), (5, 6, 7, 8)])
    with pytest.raises(NotAcyclicError, match="1-skeleton is not acyclic"):
        verify_smtt(comp, 1)
    assert issubclass(NotAcyclicError, ValueError)


def test_smtt_sphere():
    rep = verify_smtt(sphere(2), 2)
    assert rep.ok and rep.tau == 4


def test_cycle_reduced_laplacian_det_counts_trees():
    c5 = cycle(5)
    t = find_torsion_free_tree(c5, 0)
    red = reduced_laplacian(c5, 0, t)
    assert red.rows == 4
    assert determinant(red) == 5


def test_group_order_equals_next_tau():
    # |K_i| = tau_{i+1} whenever H_{i-1} vanishes and a torsion-free
    # i-tree exists
    from simpcrit.critical import critical_group_direct
    from simpcrit.generators import simplex_skeleton

    # top-dimensional extension counts pin the DFS column reduction
    for comp, top_extensions in ((bipyramid(), 80), (sphere(2), 9), (simplex_skeleton(5, 2), 593)):
        for i in range(comp.dim):
            assert comp.reduced_homology(i - 1).order == 1
            assert find_torsion_free_tree(comp, i) is not None
            census = enumerate_trees(comp, i + 1)
            assert critical_group_direct(comp, i).order == census.tau
        assert census.extensions == top_extensions
