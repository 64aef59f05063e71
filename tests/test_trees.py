import random
from collections import Counter
from itertools import combinations
from math import comb, prod

import pytest
from test_acceptance import LM_TORSION, RP2_FACETS, linial_meshulam, relabeled
from test_intlinalg import check_column_basis, sparse_columns

from simpcrit import intlinalg, trees
from simpcrit.complexes import SimplicialComplex
from simpcrit.critical import critical_group_reduced, pi_product, reduced_laplacian, verify_smtt
from simpcrit.flows import extend_to_conservative, to_group_element
from simpcrit.generators import (
    bipyramid,
    complete_graph,
    cycle,
    full_simplex,
    moore,
    simplex_skeleton,
    sphere,
)
from simpcrit.intlinalg import column_basis, determinant, invariant_factors
from simpcrit.trees import (
    DEFAULT_BUDGET,
    BudgetExceededError,
    HypothesisError,
    NotAcyclicError,
    NotATreeError,
    SpanningTree,
    TreeHasTorsionError,
    as_spanning_tree,
    enumerate_trees,
    find_torsion_free_tree,
    is_spanning_tree,
    required_tree_size,
)

# RP^2 with the loop 4-5-6 coned off: its first 2-tree has torsion 2, a
# later one none
RP2_CONE_FACETS = RP2_FACETS + [(4, 5, 7), (4, 6, 7), (5, 6, 7)]
# plus a disjoint solid tetrahedron: beta~_0 = 1, so not APC, but 2-trees exist
CONE_TETRA_FACETS = RP2_CONE_FACETS + [(20, 21, 22, 23)]


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


def test_a_tree_is_checked_once(monkeypatch):
    # one Smith form of d_1[:, T] per complex, however the tree is passed
    faces = [(1, 2), (1, 3), (1, 4), (2, 5)]
    factored = []
    monkeypatch.setattr(trees, "invariant_factors",
                        lambda m: factored.append(m) or invariant_factors(m))

    def checks(comp):
        bd = comp.boundary_matrix(1)
        sub = bd.submatrix(range(bd.rows), [comp.face_index(1, f) for f in faces])
        return sum(m == sub for m in factored)

    b = bipyramid()
    critical_group_reduced(b, 1, faces)
    assert checks(b) == 1
    # a tree that a search returns was checked by the search
    for comp, i in ((bipyramid(), 1), (SimplicialComplex.from_facets(CONE_TETRA_FACETS), 2)):
        factored.clear()
        tree = find_torsion_free_tree(comp, i)
        critical_group_reduced(comp, i, tree)
        bd = comp.boundary_matrix(i)
        sub = bd.submatrix(range(bd.rows), [comp.face_index(i, f) for f in tree.top_faces])
        assert sum(m == sub for m in factored) == 1, (comp, i)
    b = bipyramid()
    factored.clear()
    for k in range(20):
        tree = SpanningTree(1, tuple(faces), torsion_order=1) if k % 3 else faces[::-1]
        if k % 2:
            to_group_element(b, 1, tree, [k, 0, 0, 0, 1])
        else:
            extend_to_conservative(b, 1, tree, [k, 0, 0, 0, 1])
    assert checks(b) == 1


def test_a_forged_torsion_order_is_not_trusted():
    comp = SimplicialComplex.from_facets(RP2_FACETS + [(5, 6, 7, 8)])
    # the first 2-tree: RP^2 and three faces of the tetrahedron, torsion 2
    forged = SpanningTree(2, tuple(RP2_FACETS + [(5, 6, 7), (5, 6, 8), (5, 7, 8)]), 1)
    # the second call finds the check remembered, with the true torsion
    with pytest.raises(TreeHasTorsionError, match="order 2"):
        critical_group_reduced(comp, 2, forged)
    with pytest.raises(TreeHasTorsionError, match="order 2"):
        to_group_element(comp, 2, forged, [0] * len(comp.faces(2)))


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


# ---- leaf torsion: the last Bareiss pivot against one Smith form per leaf ------

def snf_torsion(comp, tree):
    """|H_{i-1}(tree)| as the product of the invariant factors of the
    tree's boundary columns: the per-leaf oracle."""
    bd = comp.boundary_matrix(tree.dimension)
    cols = [comp.face_index(tree.dimension, f) for f in tree.top_faces]
    return prod(invariant_factors(bd.submatrix(range(bd.rows), cols)))


def stream_leaves(comp, i, *, budget=DEFAULT_BUDGET, stop=None):
    leaves = []
    census = enumerate_trees(comp, i, budget=budget,
                             on_tree=lambda t: leaves.append(t) or len(leaves) == stop)
    return census, leaves


def test_leaf_torsion_matches_smith_form():
    rp2 = SimplicialComplex.from_facets(RP2_FACETS)
    rp2_cone = SimplicialComplex.from_facets(RP2_CONE_FACETS)
    cases = [(rp2, 1), (rp2, 2), (rp2_cone, 1), (rp2_cone, 2),
             (bipyramid(), 0), (bipyramid(), 1), (bipyramid(), 2), (sphere(2), 1), (sphere(2), 2)]
    for comp, i in cases:
        census, leaves = stream_leaves(comp, i)
        assert census.complete and census.count == len(leaves) > 0
        for t in leaves:
            assert t.torsion_order == snf_torsion(comp, t), (comp, i, t)
    census = enumerate_trees(rp2_cone, 2)
    assert (census.count, census.torsion_histogram, census.extensions) == (13, {2: 3, 1: 10}, 363)


def test_census_leaf_torsion_matches_smith_form():
    comp = simplex_skeleton(6, 2)
    census, leaves = stream_leaves(comp, 2)
    assert (census.count, census.tau, census.extensions) == (46620, 46656, 278544)
    assert census.torsion_histogram == {1: 46608, 2: 12}
    twisted = [t for t in leaves if t.torsion_order != 1]
    assert len(twisted) == 12
    for t in twisted + leaves[:2000]:
        assert t.torsion_order == snf_torsion(comp, t), t
    comp = simplex_skeleton(7, 2)
    census, leaves = stream_leaves(comp, 2, budget=20_000, stop=5000)
    assert (census.count, census.extensions, census.complete) == (5000, 13450, False)
    for t in leaves:
        assert t.torsion_order == snf_torsion(comp, t), t


def twisted_rows(comp):
    """The 2-faces of ``comp`` outside a column basis of d_2 that holds
    RP^2: a 2-basis holding RP^2 has H_1 = Z/2."""
    bd = comp.boundary_matrix(2)
    rp2 = [comp.face_index(2, f) for f in RP2_FACETS]
    order = rp2 + [j for j in range(bd.cols) if j not in rp2]
    cols = dict(sparse_columns(bd))
    basis = {j for j, _, taken in column_basis((j, cols[j]) for j in order) if taken}
    assert set(rp2) <= basis
    return [r for r in range(bd.cols) if r not in basis]


def test_leaf_torsion_with_a_twisted_basis(monkeypatch):
    # the rows may lie outside any (i-1)-basis.  The 2-skeleton of the
    # 5-simplex holds RP^2, so every leaf's minor on the rows outside a
    # 2-basis holding it is twice its torsion
    comp = simplex_skeleton(6, 3)
    rows = twisted_rows(comp)
    monkeypatch.setattr(trees, "_rows_outside_basis", lambda c, i: rows)
    census, leaves = stream_leaves(comp, 3)
    assert (census.count, census.extensions, census.torsion_histogram) == (1296, 11664, {1: 1296})
    top = comp.boundary_matrix(3)
    for t in leaves:
        cols = [comp.face_index(3, f) for f in t.top_faces]
        assert abs(determinant(top.submatrix(rows, cols))) == 2 * t.torsion_order
        assert t.torsion_order == snf_torsion(comp, t), t


def test_pinned_census_walks():
    # the search on the rows outside an (i-1)-basis keeps every leaf and
    # every extension of the search on all rows; simplex_skeleton(6, 2),
    # with 278,544 extensions, is pinned above
    pinned = ((bipyramid(), 15, 80), (sphere(2), 4, 9), (simplex_skeleton(5, 2), 125, 593))
    for comp, count, extensions in pinned:
        census = enumerate_trees(comp, 2)
        assert (census.count, census.extensions) == (count, extensions), comp


def test_pinned_wide_lane_walks():
    # packed columns of many wide lanes: M(30) has one 2-tree of 270 faces
    # (270 lanes of 216 bits), and the 2-trees of simplex_skeleton(12, 3)
    # have 55 faces.  The masks send all but 1,949 of the 36,315 and all
    # but 486 of the 8,175 reductions down the c = 0 path
    census = enumerate_trees(moore(30), 2)
    assert (census.count, census.tau, census.extensions) == (1, 900, 36315)
    census, leaves = stream_leaves(simplex_skeleton(12, 3), 2, stop=3)
    assert (census.count, census.extensions, census.complete) == (3, 8175, False)
    assert all(t.torsion_order == 1 for t in leaves)


# ---- the census kernel against a leaf-by-leaf stack walk ---------------------

def stack_dfs(state, root, width):
    """The census kernel as one stack walk that visits every leaf as a
    level of its own and records it at once: the oracle for ``_dfs``'s
    pair loop and determinant-keyed counts."""
    need = state.need
    half = 1 << (width - 1)
    digit = (1 << width) - 1
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
        j, vec, mask = cands[pos]
        p = ((vec & -vec).bit_length() - 1) // width
        shift = p * width
        if left == 1:
            tree = chosen + [j]
            det = abs(vec >> shift)
            if index is None:
                index = trees._exact_div(det, state.checked_torsion(tree))
            record(state, tree, trees._exact_div(det, index))
            continue
        state.charge(len(cands) - pos - 1)
        a = (((vec >> shift) + half) & digit) - half
        bit = 1 << p
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
            chosen.append(j)
            levels.append([child, 0, a])


def record(state, chosen, torsion):
    c = state.census
    c.count += 1
    c.tau += torsion * torsion
    c.torsion_histogram[torsion] = c.torsion_histogram.get(torsion, 0) + 1
    if state.on_tree is not None and state.on_tree(
        SpanningTree(c.dimension, tuple(state.faces[j] for j in chosen), torsion)
    ):
        raise trees._StopStream


def both_kernels(monkeypatch, comp, i, **kwargs):
    """(census, histogram items, streamed leaves) and the unstreamed census,
    from ``_dfs`` and from ``stack_dfs``."""
    runs = []
    for dfs in (trees._dfs, stack_dfs):
        with monkeypatch.context() as m:
            m.setattr(trees, "_dfs", dfs)
            census, leaves = stream_leaves(comp, i, **kwargs)
            counted = enumerate_trees(comp, i, budget=kwargs.get("budget", DEFAULT_BUDGET))
        runs.append((census, list(census.torsion_histogram.items()), leaves, counted))
    return runs


def test_census_kernel_matches_the_stack_walk(monkeypatch):
    rp2_cone = SimplicialComplex.from_facets(RP2_CONE_FACETS)
    cases = [(bipyramid(), 0), (cycle(3), 1), (cycle(4), 1), (sphere(2), 2), (sphere(2), 1),
             (bipyramid(), 1), (bipyramid(), 2), (rp2_cone, 2), (simplex_skeleton(5, 2), 2)]
    needs = set()
    for comp, i in cases:
        needs.add(required_tree_size(comp, i))
        new, old = both_kernels(monkeypatch, comp, i)
        assert new == old and new[0].complete and new[0].count > 0, (comp, i)
    assert {1, 2, 3} <= needs
    # every budget cut and every stop point keeps the same partial census;
    # the level-3 pivots of ss(5, 2) fall in each of the three live lanes
    ss52 = simplex_skeleton(5, 2)
    for comp in (bipyramid(), rp2_cone, ss52):
        full = enumerate_trees(comp, 2)
        for budget in range(full.extensions + 1):
            new, old = both_kernels(monkeypatch, comp, 2, budget=budget)
            assert new == old and new[0].complete == (budget == full.extensions), (comp, budget)
    assert full.extensions == 593
    for comp, stops in ((bipyramid(), 15), (ss52, 125)):
        for stop in range(1, stops + 1):
            new, old = both_kernels(monkeypatch, comp, 2, stop=stop)
            assert new == old and len(new[2]) == stop, (comp, stop)


def assert_streamed_census_is_counted(comp, i):
    census, leaves = stream_leaves(comp, i)
    counted = enumerate_trees(comp, i)
    assert census == counted and census.complete
    assert Counter(t.torsion_order for t in leaves) == census.torsion_histogram
    return census


def test_streamed_and_counted_censuses_agree(monkeypatch):
    census = assert_streamed_census_is_counted(simplex_skeleton(6, 2), 2)
    assert (census.count, census.extensions) == (46620, 278544)
    comp = simplex_skeleton(6, 3)
    rows = twisted_rows(comp)
    monkeypatch.setattr(trees, "_rows_outside_basis", lambda c, i: rows)
    census = assert_streamed_census_is_counted(comp, 3)
    assert (census.count, census.extensions) == (1296, 11664)


def lm_moore(m, n, p, seed):
    """M(m) and the seeded LM(n, p, seed) on its first n vertices: H~_1
    and the trees can both carry torsion."""
    return SimplicialComplex.from_facets(moore(m).facets() + linial_meshulam(n, p, seed).facets())


def test_census_is_invariant_under_relabeling():
    # count, tau and the torsion histogram are invariants of the complex;
    # the extensions depend on the labels' order, but on nothing else
    rp2_cone = SimplicialComplex.from_facets(RP2_CONE_FACETS)
    cases = [(bipyramid(), i) for i in range(3)] + [(moore(3), 2), (rp2_cone, 1), (rp2_cone, 2)]
    cases += [(lm_moore(2, 6, 0.4, 1), 2), (lm_moore(3, 5, 0.4, 3), 2)]
    rng = random.Random(20261020)
    for comp, i in cases:
        want = enumerate_trees(comp, i)
        assert want.complete and want.count > 0, (comp, i)
        for _ in range(3):
            other = relabeled(comp, rng)
            got = enumerate_trees(other, i)
            assert (got.count, got.tau, got.torsion_histogram, got.complete) == (
                want.count, want.tau, want.torsion_histogram, True), (comp, i)
            again = SimplicialComplex.from_facets(list(reversed(other.facets())))
            assert enumerate_trees(again, i) == got, (comp, i)


def test_census_matches_brute_force():
    # every leaf, in order and with its torsion, against is_spanning_tree
    # on every subset of the tree size
    rp2 = SimplicialComplex.from_facets(RP2_FACETS)
    rp2_cone = SimplicialComplex.from_facets(RP2_CONE_FACETS)
    cases = [(comp, i) for comp in (rp2, bipyramid(), sphere(2), simplex_skeleton(5, 2))
             for i in range(comp.dim + 1)]
    cases += [(rp2_cone, 0), (rp2_cone, 2), (simplex_skeleton(6, 3), 3)]
    # trees of one face: a vertex, an edge, a triangle, a tetrahedron
    cases += [(cycle(5), 0), (full_simplex(2), 1), (full_simplex(3), 2), (full_simplex(4), 3)]
    cases += [(moore(m), i) for m in range(2, 6) for i in (0, 2)]
    seeded = [linial_meshulam(6, 0.6, s) for s in (1, 2, 3, 4, 5, 6, 8, 9, 10, 11, 12)]
    seeded += [lm_moore(2, 5, 0.4, s) for s in (1, 2, 3, 5, 6)]
    seeded += [lm_moore(m, 6, 0.4, s) for m in (2, 3) for s in (1, 2, 3, 5, 6)]
    seeded += [lm_moore(4, 6, 0.4, s) for s in (1, 2, 5)]
    # Z/2 beside Z/m: RP^2 on vertices 21..26, disjoint from the rest
    far = [tuple(v + 20 for v in f) for f in RP2_FACETS]
    seeded += [SimplicialComplex.from_facets(far + list(linial_meshulam(6, 0.6, s).facets()))
               for s in (4, 6, 10)]
    seeded += [SimplicialComplex.from_facets(far + list(lm_moore(m, n, 0.4, s).facets()))
               for m, n, s in ((2, 5, 2), (2, 5, 7), (2, 6, 1), (3, 5, 2), (3, 5, 7), (3, 6, 1))]
    cases += [(comp, 2) for comp in seeded]
    torsion = Counter()
    for comp, i in cases:
        need = required_tree_size(comp, i)
        assert comb(len(comp.faces(i)), need) <= 20_000, (comp, i)
        want = list(trees_brute(comp, i))
        census, leaves = stream_leaves(comp, i)
        assert leaves == want, (comp, i)
        histogram = Counter(t.torsion_order for t in want)
        assert census.complete and census.count == len(want), (comp, i)
        assert census.tau == sum(t * t * n for t, n in histogram.items()), (comp, i)
        assert census.torsion_histogram == histogram, (comp, i)
        torsion.update(histogram)
    assert {1, 2, 3, 4, 6} <= set(torsion)


def test_full_search_without_apc():
    # disjoint unions are not APC (beta~_0 = 1), but beta~_1 = 0, so their
    # 2-trees exist and the census walks them all
    shifted = [tuple(v + 10 for v in f) for f in RP2_FACETS]
    two_rp2 = SimplicialComplex.from_facets(RP2_FACETS + shifted)
    assert not two_rp2.is_apc(2)
    assert find_torsion_free_tree(two_rp2, 2) is None
    census, _ = stream_leaves(two_rp2, 2)
    assert census.torsion_histogram == {4: 1}

    # two disjoint coned RP^2: a tree is a pair of trees, one of each
    shifted = [tuple(v + 10 for v in f) for f in RP2_CONE_FACETS]
    two_cones = SimplicialComplex.from_facets(RP2_CONE_FACETS + shifted)
    assert not two_cones.is_apc(2)
    cone_tree = [(1, 2, 3), (1, 2, 4), (1, 3, 5), (1, 4, 6), (1, 5, 6), (2, 3, 6),
                 (2, 4, 5), (2, 5, 6), (3, 4, 5), (4, 5, 7), (4, 6, 7), (5, 6, 7)]
    want = tuple(cone_tree) + tuple(tuple(v + 10 for v in f) for f in cone_tree)
    t = find_torsion_free_tree(two_cones, 2)
    assert t.top_faces == want and t.torsion_order == 1
    census, leaves = stream_leaves(two_cones, 2)
    assert (census.count, census.extensions) == (169, 16770)
    assert census.torsion_histogram == {4: 9, 2: 60, 1: 100}
    for t in leaves:
        assert t.torsion_order == snf_torsion(two_cones, t), t

    # a coned RP^2 and a solid tetrahedron: 13 x 4 trees
    census = enumerate_trees(SimplicialComplex.from_facets(CONE_TETRA_FACETS), 2)
    assert (census.count, census.tau, census.complete) == (52, 88, True)
    assert census.torsion_histogram == {1: 40, 2: 12}


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


def trees_brute(comp, i):
    """Every i-tree, in itertools.combinations order of the face indices,
    by is_spanning_tree on each subset of the tree size.  The tree size
    comes from the homology of the i-skeleton, not from the search."""
    sk = comp.skeleton(i)
    faces = comp.faces(i)
    need = len(faces) - sk.reduced_homology(i).betti + sk.reduced_homology(i - 1).betti
    for combo in combinations(faces, need):
        t = is_spanning_tree(comp, i, combo)
        if t is not None:
            yield t


def first_tree_brute(comp, i, torsion_free):
    """The first tree of ``trees_brute`` (with torsion 1 if torsion_free)."""
    return next((t for t in trees_brute(comp, i) if t.torsion_order == 1 or not torsion_free),
                None)


def test_first_trees_match_brute_force():
    rp2 = SimplicialComplex.from_facets(RP2_FACETS)
    rp2_tetra = SimplicialComplex.from_facets(RP2_FACETS + [(5, 6, 7, 8)])
    rp2_cone = SimplicialComplex.from_facets(RP2_CONE_FACETS)
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


def test_a_torsion_free_first_basis_needs_no_census(monkeypatch):
    # the first basis of d_i is the census's first leaf: the census kernel
    # runs only when that basis has torsion, and then once
    calls = []
    dfs = trees._dfs

    def counting(*args):
        calls.append(args)
        return dfs(*args)

    def refuse(*args):
        raise AssertionError("the census ran")

    monkeypatch.setattr(trees, "_dfs", refuse)
    cases = [(bipyramid(), 0), (bipyramid(), 1), (bipyramid(), 2), (sphere(3), 2),
             (linial_meshulam(7, 0.5, 1), 1), (linial_meshulam(7, 0.5, 1), 2),
             (simplex_skeleton(8, 2), 2)]
    for comp, i in cases:
        t = find_torsion_free_tree(comp, i)
        assert t is not None and t.torsion_order == 1, (comp, i)
    monkeypatch.setattr(trees, "_dfs", counting)
    rp2_cone = SimplicialComplex.from_facets(RP2_CONE_FACETS)
    assert find_torsion_free_tree(rp2_cone, 2) == first_tree_brute(rp2_cone, 2, torsion_free=True)
    assert len(calls) == 1

def test_tree_exists_without_apc():
    # two disjoint solid tetrahedra: beta~_1 = 0, so 2-trees exist (a pair
    # of 3-facet trees, 4 x 4 of them), but beta~_0 = 1, so no 1-tree does
    comp = SimplicialComplex.from_facets([(1, 2, 3, 4), (5, 6, 7, 8)])
    t = find_torsion_free_tree(comp, 2)
    assert t is not None and is_spanning_tree(comp, 2, t.top_faces) == t
    census, leaves = stream_leaves(comp, 2)
    assert (census.count, census.tau, census.extensions) == (16, 16, 135)
    assert census.torsion_histogram == {1: 16} and census.complete
    assert leaves[0] == t
    census = enumerate_trees(comp, 1)
    assert (census.count, census.extensions, census.complete) == (0, 0, True)
    assert census.warnings == (
        "reduced homology in dimension 0 is infinite: no 1-dimensional spanning trees",)
    assert find_torsion_free_tree(comp, 1) is None


def test_one_existence_rule():
    # a census is empty iff beta~_{i-1} != 0, and the torsion-free search
    # returns the census's first torsion-free leaf
    shift = [tuple(v + 10 for v in f) for f in RP2_CONE_FACETS]
    comps = [bipyramid(), sphere(2), sphere(3), simplex_skeleton(5, 2), cycle(5),
             SimplicialComplex.from_facets(RP2_FACETS),
             SimplicialComplex.from_facets(RP2_CONE_FACETS),
             SimplicialComplex.from_facets(RP2_FACETS + [(5, 6, 7, 8)]),
             SimplicialComplex.from_facets(CONE_TETRA_FACETS),
             SimplicialComplex.from_facets(RP2_CONE_FACETS + shift),
             SimplicialComplex.from_facets([(1, 2, 3, 4), (5, 6, 7, 8)]),
             SimplicialComplex.from_facets([(1, 2), (3, 4)]),
             linial_meshulam(6, 0.5, 3), linial_meshulam(7, 0.5, 1)]
    assert sum(not comp.is_apc() for comp in comps) >= 4
    for comp in comps:
        for i in range(comp.dim + 1):
            census, leaves = stream_leaves(comp, i)
            assert census.complete, (comp, i)
            assert (census.count == 0) == bool(comp.reduced_homology(i - 1).betti), (comp, i)
            free = [t for t in leaves if t.torsion_order == 1]
            assert find_torsion_free_tree(comp, i) == (free[0] if free else None), (comp, i)


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
    rp2_cone = SimplicialComplex.from_facets(RP2_CONE_FACETS)
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


# ---- the first column basis of each boundary map --------------------------------

def test_first_basis_is_the_first_maximal_independent_set():
    # against a column_basis scan of every column; beta~_1 = 4 on
    # LM(8, 0.3, 1), so its basis of d_2 is smaller than a 2-tree
    lm = linial_meshulam(8, 0.3, 1)
    comps = [SimplicialComplex.from_facets(RP2_FACETS), simplex_skeleton(6, 3), lm,
             lm_moore(2, 5, 0.4, 1), lm_moore(3, 6, 0.4, 2)]
    comps += [moore(m) for m in range(2, 6)]
    for comp in comps:
        for i in range(-1, comp.dim + 1):
            bd = comp.boundary_matrix(i)
            want = [j for j, _, taken in column_basis(sparse_columns(bd)) if taken]
            assert list(comp._first_basis(i)) == want, (comp, i)
    assert len(lm._first_basis(2)) == required_tree_size(lm, 2) - 4


def test_column_basis_of_boundaries_matches_the_dense_reducer(monkeypatch):
    # every d_i and its transpose (whose columns are the rows pi_product
    # scans) of M(m), the LM_TORSION complexes and their unions with M(m)
    comps = [moore(m) for m in range(2, 8)]
    comps += [linial_meshulam(*spec) for spec in LM_TORSION]
    comps += [lm_moore(m, 6, 0.4, seed) for m in (2, 3) for seed in (1, 2, 3)]
    checked = 0
    for comp in comps:
        for i in range(-1, comp.dim + 1):
            bd = comp.boundary_matrix(i)
            check_column_basis(bd, monkeypatch)
            check_column_basis(bd.transpose(), monkeypatch)
            checked += 1
    assert checked == 96


def test_first_basis_is_scanned_once_and_stops_at_dim_ker_below(monkeypatch):
    calls = [0]
    eliminate = intlinalg.eliminate

    def counting(*args):
        calls[0] += 1
        return eliminate(*args)

    monkeypatch.setattr(intlinalg, "eliminate", counting)
    trees._rows_outside_basis(moore(30), 2)
    assert calls[0] <= 7590
    calls[0] = 0
    m = moore(30)
    find_torsion_free_tree(m, 1)
    pi_product(m, 1)
    trees._rows_outside_basis(m, 2)
    assert calls[0] <= 7682
    # a budget stops a fresh scan at the same column as ever
    calls[0] = 0
    with pytest.raises(BudgetExceededError):
        find_torsion_free_tree(simplex_skeleton(14, 2), 2, budget=500)
    assert calls[0] == 342


def test_a_memoized_first_basis_charges_its_cost():
    # a memo hit charges the scan's whole cost at once, so a budget
    # refuses the memoized first tree exactly when a fresh scan would
    comp = simplex_skeleton(8, 2)
    tree = find_torsion_free_tree(comp, 2)
    charged = []
    basis = comp._first_basis(2, charged.append)
    assert basis == tuple(comp.face_index(2, f) for f in tree.top_faces)
    (cost,) = charged
    with pytest.raises(BudgetExceededError):
        find_torsion_free_tree(comp, 2, budget=cost - 1)
    assert find_torsion_free_tree(comp, 2, budget=cost) == tree
    # a scan that runs out stores nothing: the next one charges column by column
    fresh = simplex_skeleton(8, 2)
    with pytest.raises(BudgetExceededError):
        find_torsion_free_tree(fresh, 2, budget=cost - 1)
    charged.clear()
    assert fresh._first_basis(2, charged.append) == basis
    assert len(charged) > 1 and sum(charged) == cost


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


def test_smtt_requires_apc():
    # two disjoint solid tetrahedra: beta~_0 = 1, so the 1-skeleton is not
    # APC; the theorem does not apply, and no FAIL is reported
    comp = SimplicialComplex.from_facets([(1, 2, 3, 4), (5, 6, 7, 8)])
    with pytest.raises(NotAcyclicError, match="1-skeleton is not acyclic"):
        verify_smtt(comp, 1)
    assert issubclass(NotAcyclicError, ValueError)


def test_hypothesis_errors_share_one_base():
    # the CLI maps HypothesisError to exit 3 and a spent budget to exit 4
    for exc in (NotATreeError, TreeHasTorsionError, NotAcyclicError):
        assert issubclass(exc, HypothesisError)
    assert issubclass(HypothesisError, ValueError)
    assert not issubclass(BudgetExceededError, ValueError)


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

    # top-dimensional extension counts pin the DFS column reduction
    for comp, top_extensions in ((bipyramid(), 80), (sphere(2), 9), (simplex_skeleton(5, 2), 593)):
        for i in range(comp.dim):
            assert comp.reduced_homology(i - 1).order == 1
            assert find_torsion_free_tree(comp, i) is not None
            census = enumerate_trees(comp, i + 1)
            assert critical_group_direct(comp, i).order == census.tau
        assert census.extensions == top_extensions
