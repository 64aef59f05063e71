import random
from collections import Counter
from fractions import Fraction
from math import comb

import pytest
from test_acceptance import BIPYR_REDUCED, LM_TORSION, RP2_FACETS, linial_meshulam, relabeled
from test_intlinalg import sparse_columns
from test_trees import lm_moore

from simpcrit.complexes import SimplicialComplex
from simpcrit.critical import (
    _column_and_row_basis,
    _direct_sum_factors,
    _theta_indices,
    alternating_order,
    critical_group_direct,
    critical_group_reduced,
    laplacian,
    maxwell_matrix,
    pi_product,
    reduced_laplacian,
    verify_simplex_structure,
    verify_smtt,
)
from simpcrit.generators import (
    bipyramid,
    complete_graph,
    cycle,
    full_simplex,
    moore,
    simplex_skeleton,
    sphere,
)
from simpcrit.intlinalg import (
    AbelianGroup,
    IntMatrix,
    char_poly,
    cokernel,
    column_basis,
    determinant,
    invariant_factors,
    pseudo_determinant,
    rank,
    smith_normal_form,
)
from simpcrit.trees import (
    NotAcyclicError,
    NotATreeError,
    TreeHasTorsionError,
    enumerate_trees,
    find_torsion_free_tree,
    required_tree_size,
)

# ---- Laplacians -------------------------------------------------------------

def test_graph_up_down_laplacian_is_degree_minus_adjacency():
    c4 = cycle(4)
    lap = laplacian(c4, 0)
    assert lap.data == [[2, -1, 0, -1], [-1, 2, -1, 0], [0, -1, 2, -1], [-1, 0, -1, 2]]


def test_bipyramid_laplacian_diagonal():
    b = bipyramid()
    lap = laplacian(b, 1)
    j = b.face_index(1, (2, 3))
    assert lap[j, j] == 3  # edge 23 lies in triangles 123, 234, 235


def test_laplacian_kinds_and_total():
    b = bipyramid()
    assert laplacian(b, 2).data == IntMatrix(7, 7).data  # top dimension: zero
    assert laplacian(b, -1).data == [[5]]  # augmentation


def test_laplacian_is_built_once_per_complex():
    c = bipyramid()
    for i in range(-1, c.dim + 1):
        assert laplacian(c, i) is laplacian(c, i)


def test_laplacians_are_symmetric_and_chain_property():
    for comp in (bipyramid(), sphere(3), simplex_skeleton(5, 2)):
        for i in range(0, comp.dim + 1):
            lap = laplacian(comp, i)
            assert lap.is_symmetric()
            assert comp.boundary_matrix(i) * lap == 0


def test_laplacian_psd_witness():
    rng = random.Random(2)
    b = bipyramid()
    lap = laplacian(b, 1)
    cb = b.boundary_matrix(2).transpose()
    for _ in range(25):
        x = [rng.randint(-5, 5) for _ in range(9)]
        quad = sum(xi * yi for xi, yi in zip(x, lap.apply(x)))
        assert quad == sum(v * v for v in cb.apply(x))
        assert quad >= 0


# ---- reduced Laplacians --------------------------------------------------------

def test_bipyramid_reduced_laplacian_matches_known_matrix():
    b = bipyramid()
    red = reduced_laplacian(b, 1, [(1, 2), (1, 3), (1, 4), (1, 5)])
    assert red.data == BIPYR_REDUCED
    assert determinant(red) == 15
    assert smith_normal_form(red).d == (1, 1, 1, 1, 15)


def test_reduced_laplacian_rejects_non_trees():
    b = bipyramid()
    with pytest.raises(NotATreeError):
        reduced_laplacian(b, 1, [(1, 2), (1, 3), (1, 4), (2, 3)])


def test_reduced_laplacian_empty_complement():
    solid = full_simplex(3)  # one triangle; its 2-tree is the whole top level
    red = reduced_laplacian(solid, 2, [(1, 2, 3)])
    assert red.rows == 0 and red.cols == 0


# ---- critical groups -------------------------------------------------------------

def test_groups_share_one_type():
    rp2 = SimplicialComplex.from_facets(RP2_FACETS)
    for comp in (bipyramid(), rp2):
        tree = find_torsion_free_tree(comp, 1)
        red = critical_group_reduced(comp, 1, tree)
        lap = reduced_laplacian(comp, 1, tree)
        groups = [cokernel(lap), comp.reduced_homology(1), critical_group_direct(comp, 1), red]
        assert len({type(g) for g in groups}) == 1
        assert red == cokernel(lap)
    assert str(rp2.reduced_homology(1)) == "Z/2"
    assert str(critical_group_direct(rp2, 1)) == "Z/2 + Z/2"

def test_bipyramid_critical_group_both_routes():
    b = bipyramid()
    tree = find_torsion_free_tree(b, 1)
    red = critical_group_reduced(b, 1, tree)
    direct = critical_group_direct(b, 1)
    assert red.torsion == (15,)
    assert red.betti == 0 and red.order == 15
    assert direct.torsion == (15,)
    assert str(red) == "Z/15"


def test_sphere_critical_groups_are_cyclic():
    for d in (1, 2, 3):
        g = critical_group_direct(sphere(d), d - 1)
        assert g.betti == 0
        assert g.torsion == (d + 2,)


def test_cycle_critical_group():
    for n in range(3, 9):
        g = critical_group_direct(cycle(n), 0)
        assert g.torsion == (n,)


def test_complete_graph_critical_group():
    for n in (4, 5, 6):
        g = critical_group_direct(complete_graph(n), 0)
        assert g.torsion == tuple([n] * (n - 2))
        assert g.order == n ** (n - 2)


def test_k0_equals_one_skeleton_group():
    b = bipyramid()
    assert critical_group_direct(b, 0).torsion == \
        critical_group_direct(b.skeleton(1), 0).torsion


def critical_group_by_kernel_basis(comp, i):
    """K_i from an integer basis of ker(boundary_i): the rows of V^-1
    below the rank of the Smith form of the boundary map.  Each Laplacian
    column is rewritten in that basis and the group is the cokernel of
    the coefficient matrix."""
    bd = comp.boundary_matrix(i)
    s = smith_normal_form(bd)
    w = s.v_inv * laplacian(comp, i)
    assert not any(any(w.data[r]) for r in range(s.rank))
    facs = smith_normal_form(IntMatrix(bd.cols - s.rank, bd.cols, w.data[s.rank:])).d
    return bd.cols - s.rank - len(facs), tuple(f for f in facs if f > 1)


def test_direct_route_matches_kernel_basis_oracle():
    rp2 = SimplicialComplex.from_facets(RP2_FACETS)
    for comp in [bipyramid(), rp2] + [linial_meshulam(*spec) for spec in LM_TORSION]:
        g = critical_group_direct(comp, 1)
        assert (g.betti, g.torsion) == critical_group_by_kernel_basis(comp, 1)


def test_laplacian_factors_match_smith_form():
    # the matrices K_1 is read from, L_1 and the reduced L_1 of a
    # torsion-free tree, factored without transforms and with them
    for spec in LM_TORSION:
        comp = linial_meshulam(*spec)
        tree = find_torsion_free_tree(comp, 1)
        for a in (laplacian(comp, 1), reduced_laplacian(comp, 1, tree)):
            assert invariant_factors(a) == smith_normal_form(a).d, spec


def test_reduced_route_requires_torsion_free_tree():
    # the 6-vertex projective plane is a 2-tree of the simplex skeleta
    # with torsion of order 2; the reduced route must refuse it
    from simpcrit.trees import is_spanning_tree

    comp = simplex_skeleton(6, 3)
    rp2_tree = is_spanning_tree(comp, 2, RP2_FACETS)
    assert rp2_tree is not None and rp2_tree.torsion_order == 2
    with pytest.raises(TreeHasTorsionError):
        critical_group_reduced(comp, 2, rp2_tree)


def test_dimension_range_checks():
    b = bipyramid()
    with pytest.raises(ValueError):
        critical_group_direct(b, 2)
    with pytest.raises(ValueError):
        critical_group_direct(b, -1)


# ---- both routes without the Laplacian ---------------------------------------------

# the 7-vertex torus: H~_1 = Z^2, so K_1 has free rank 2
TORUS_FACETS = [f for i in range(7) for f in (
    (1 + i, 1 + (i + 1) % 7, 1 + (i + 3) % 7), (1 + i, 1 + (i + 2) % 7, 1 + (i + 3) % 7))]


def block_route_cases():
    """(complex, i) at every i in [0, dim) of each differential fixture."""
    comps = [bipyramid(), SimplicialComplex.from_facets(RP2_FACETS)]
    comps += [moore(m) for m in range(2, 8)]
    comps += [linial_meshulam(*spec) for spec in LM_TORSION]
    comps += [lm_moore(m, 6, 0.4, seed) for m in (2, 3) for seed in (1, 2, 3)]
    comps += [simplex_skeleton(6, 2), simplex_skeleton(7, 3), cycle(7), complete_graph(6)]
    comps += [SimplicialComplex.from_facets(TORUS_FACETS)]
    # the edge 5 6 lies in no triangle: a zero row of d_2
    comps += [SimplicialComplex.from_facets(bipyramid().facets() + ((5, 6),))]
    return [(comp, i) for comp in comps for i in range(comp.dim)]


def test_laplacian_is_the_product_of_the_boundary_and_its_transpose():
    # summed from the sparse boundary columns: d_{i+1} d_{i+1}^T at every
    # i below the top, [f_0] at -1 and zero at the top
    comps = list(dict.fromkeys(comp for comp, _ in block_route_cases()))
    comps += [linial_meshulam(*spec) for spec in ((12, 0.5, 1), (18, 0.4, 1), (25, 0.15, 1))]
    for comp in comps:
        for i in range(-1, comp.dim):
            bd = comp.boundary_matrix(i + 1)
            assert laplacian(comp, i) == bd * bd.transpose(), (comp, i)
        n = len(comp.faces(comp.dim))
        assert laplacian(comp, comp.dim) == IntMatrix(n, n)


def test_both_routes_match_the_dense_laplacian_formulas():
    # the oracles form the Laplacians: coker L_i minus rank d_i for the
    # direct route, and coker of the reduced L_i of a torsion-free tree
    cases = block_route_cases()
    free = zero_rows = 0
    for comp, i in cases:
        g = cokernel(laplacian(comp, i))
        want = AbelianGroup(g.betti - rank(comp.boundary_matrix(i)), g.torsion)
        assert critical_group_direct(comp, i) == want, (comp, i)
        free += want.betti > 0
        zero_rows += any(not any(row) for row in comp.boundary_matrix(i + 1).data)
        tree = find_torsion_free_tree(comp, i)
        assert _theta_indices(comp, i, tree), (comp, i)
        want = cokernel(reduced_laplacian(comp, i, tree))
        assert critical_group_reduced(comp, i, tree) == want, (comp, i)
    assert (len(cases), free, zero_rows) == (63, 15, 13)


def test_neither_route_forms_a_laplacian(monkeypatch):
    # nor do the eigenvalue products and the matrix-tree checks, run on
    # the dimensions whose censuses are small
    calls = Counter()
    for name in ("__mul__", "transpose"):
        def counted(self, *args, _name=name, _orig=getattr(IntMatrix, name)):
            calls[_name] += 1
            return _orig(self, *args)
        monkeypatch.setattr(IntMatrix, name, counted)
    cases = [(bipyramid(), (1, 2)), (moore(3), ()), (linial_meshulam(8, 0.3, 1), ()),
             (simplex_skeleton(6, 3), (1,)), (sphere(2), (1, 2))]
    for comp, smtt in cases:
        for i in range(comp.dim):
            tree = find_torsion_free_tree(comp, i)
            calls.clear()
            critical_group_direct(comp, i)
            critical_group_reduced(comp, i, tree)
            alternating_order(comp, i)
            assert not calls, (comp, i, calls)
        for j in range(comp.dim + 1):
            pi_product(comp, j)
            if j in smtt:
                assert verify_smtt(comp, j).ok, (comp, j)
            assert not calls, (comp, j, calls)
        assert not [key for key in comp._memo if key[0] == "laplacian"], comp


ESCAPED = "^Laplacian image escaped the boundary kernel$"


def test_direct_route_checks_the_sparse_boundary():
    # flipping any one sign of d_{i+1} makes d_i d_{i+1} nonzero
    for comp in (bipyramid(), moore(2)):
        for i in range(comp.dim):
            key = ("boundary_columns", i + 1)
            cols = comp._boundary_columns(i + 1)
            for c, col in enumerate(cols):
                for k, (r, sign) in enumerate(col):
                    bad = col[:k] + ((r, -sign),) + col[k + 1:]
                    comp._memo[key] = cols[:c] + (bad,) + cols[c + 1:]
                    with pytest.raises(AssertionError, match=ESCAPED):
                        critical_group_direct(comp, i)
            comp._memo[key] = cols


# ---- simplex skeleta and the stacked matrix ------------------------------------------

def test_maxwell_matrix_shape_and_blocks():
    a = maxwell_matrix(4, 1)
    assert a.rows == a.cols == 6
    aat = a * a.transpose()
    # top block: reduced vertex Laplacian of K4 at vertex 1
    assert aat.submatrix(range(3), range(3)).data == [[3, -1, -1], [-1, 3, -1], [-1, -1, 3]]
    assert aat.submatrix(range(3), range(3, 6)) == 0


def test_maxwell_cokernels():
    from simpcrit.intlinalg import cokernel

    assert cokernel(maxwell_matrix(4, 1)).torsion == (4, 4)
    ck = cokernel(maxwell_matrix(5, 2))
    assert ck.betti == 0 and ck.order == 125


def test_maxwell_parameter_range():
    with pytest.raises(ValueError):
        maxwell_matrix(4, 3)
    with pytest.raises(ValueError):
        maxwell_matrix(4, 0)


def test_simplex_checks_build_only_the_k_plus_1_skeleton(monkeypatch):
    # faces of dimension k-1..k+1 are all they read: no facet wider than k + 2
    widths = []
    build = SimplicialComplex.from_facets.__func__

    def spy(cls, facets):
        facets = list(facets)
        widths.append(max(map(len, facets), default=0))
        return build(cls, facets)

    monkeypatch.setattr(SimplicialComplex, "from_facets", classmethod(spy))
    assert verify_simplex_structure(7, 2).passed
    maxwell_matrix(7, 2)
    assert widths and max(widths) == 4


def test_simplex_checks_reject_k_before_building(monkeypatch):
    def refuse(cls, facets):
        raise AssertionError("a complex was built before k was checked")

    monkeypatch.setattr(SimplicialComplex, "from_facets", classmethod(refuse))
    for check in (verify_simplex_structure, maxwell_matrix):
        # no vertex at all fails the same range check
        for n, k in ((10**5, 0), (0, 1)):
            with pytest.raises(ValueError, match="^need 1 <= k <= n - 2$"):
                check(n, k)


@pytest.mark.parametrize("n,k", [(4, 1), (5, 1), (5, 2)])
def test_verify_simplex_structure(n, k):
    rep = verify_simplex_structure(n, k)
    assert rep.passed, rep
    assert rep.factors_k_minus_1 == tuple([n] * comb(n - 2, k))
    assert rep.factors_k == tuple([n] * comb(n - 2, k + 1))
    # the doubled reading always holds; the shifted one exactly when the
    # binomials agree
    if comb(n - 2, k) == comb(n - 2, k + 1):
        assert rep.aat_matches == "both"
    else:
        assert rep.aat_matches == "K[k-1] doubled"


def test_simplex_skeleton_k1_order():
    # |K_1| of the 2-skeleton on 6 vertices is 6^C(4,2)
    g = critical_group_direct(simplex_skeleton(6, 2), 1)
    assert g.order == 6 ** 6
    assert g.torsion == tuple([6] * 6)


# ---- eigenvalue products ----------------------------------------------------------

def test_pi_products_bipyramid():
    b = bipyramid()
    assert pi_product(b, 0) == 5
    assert pi_product(b, 1) == 375  # 5 * (75 spanning trees of the 1-skeleton)
    assert pi_product(b, 2) == 1125
    assert pseudo_determinant(laplacian(b, 2)) == 1  # the zero top Laplacian


def test_pi_product_c3():
    c3 = cycle(3)
    assert pi_product(c3, 0) == 3
    assert pi_product(c3, 1) == 9  # nonzero eigenvalues 3, 3


def test_alternating_order_matches_group_order():
    cases = [
        (bipyramid(), 1, 15),
        (bipyramid(), 0, 75),
        (cycle(3), 0, 3),
        (cycle(7), 0, 7),
        (complete_graph(4), 0, 16),
        (sphere(2), 1, 4),
    ]
    for comp, i, expected in cases:
        val = alternating_order(comp, i)
        assert val == Fraction(expected)
        assert critical_group_direct(comp, i).order == expected


# LM_TORSION and 18 more seeded LM(n, p, seed), n <= 12, all with torsion
# in K_1; 14 of the 30 have H_1 finite
LM_PDET = LM_TORSION + [
    (6, 0.4, 4), (6, 0.5, 1), (7, 0.3, 1), (7, 0.5, 1), (7, 0.5, 4), (7, 0.6, 1),
    (8, 0.5, 1), (8, 0.6, 1), (8, 0.6, 2), (9, 0.4, 1), (9, 0.4, 4), (9, 0.5, 1),
    (9, 0.6, 1), (10, 0.4, 1), (10, 0.4, 4), (10, 0.6, 1), (11, 0.3, 1), (12, 0.3, 1),
]
RP2_CONE_FACETS = RP2_FACETS + [(4, 5, 7), (4, 6, 7), (5, 6, 7)]


def pdet_by_char_poly(a):
    """The pseudo-determinant as the lowest nonzero coefficient of the
    characteristic polynomial (Faddeev-LeVerrier), in absolute value."""
    return next(abs(c) for c in reversed(char_poly(a)) if c)


def test_pseudo_determinants_match_char_poly_oracle():
    rp2 = SimplicialComplex.from_facets(RP2_FACETS)
    rp2_cone = SimplicialComplex.from_facets(RP2_CONE_FACETS)
    alt_checked = 0
    for comp in [rp2, rp2_cone] + [linial_meshulam(*spec) for spec in LM_PDET]:
        assert critical_group_direct(comp, 1).torsion
        # j = dim + 1 is the zero Laplacian of the top dimension
        for j in range(comp.dim + 2):
            lap = laplacian(comp, j - 1)
            want = pdet_by_char_poly(lap)
            assert pseudo_determinant(lap) == want, (comp, j)
            if j <= comp.dim:
                assert pi_product(comp, j) == want, (comp, j)
                bd = comp.boundary_matrix(j)
                # the down-up Laplacian has the same nonzero eigenvalues
                assert pseudo_determinant(bd.transpose() * bd) == want, (comp, j)
        # |K_i| = tau_{i+1} / |H_{i-1}|^2 is the alternating product when
        # beta~_j = 0 for j <= i (so K_i is finite) and a torsion-free
        # i-tree exists
        for i in range(comp.dim):
            if not comp.is_apc(i + 1) or find_torsion_free_tree(comp, i) is None:
                continue
            group = critical_group_direct(comp, i)
            assert group.betti == 0
            assert alternating_order(comp, i) == group.order, (comp, i)
            alt_checked += i == 1
    assert alt_checked == 16  # RP^2, the coned RP^2 and 14 LM complexes


def test_reduced_route_matches_direct_on_torsion():
    # the two routes to K_i on every LM_PDET complex (criterion 3 runs the
    # 12 LM_TORSION ones), RP^2 and the coned RP^2, at each i with a
    # torsion-free i-tree
    comps = [SimplicialComplex.from_facets(RP2_FACETS),
             SimplicialComplex.from_facets(RP2_CONE_FACETS)]
    comps += [linial_meshulam(*spec) for spec in LM_PDET]
    checked = 0
    for comp in comps:
        for i in range(comp.dim):
            tree = find_torsion_free_tree(comp, i)
            if tree is None:
                continue
            assert critical_group_reduced(comp, i, tree) == critical_group_direct(comp, i), (comp, i)
            checked += 1
    assert checked == 64


def test_pi_product_without_a_tree():
    # beta~_1 = 4: no 2-tree exists, and the column basis of d_2 is
    # smaller than a tree would be
    lm = linial_meshulam(8, 0.3, 1)
    bd = lm.boundary_matrix(2)
    basis = [j for j, _, taken in column_basis(sparse_columns(bd)) if taken]
    assert find_torsion_free_tree(lm, 2) is None
    assert len(basis) == required_tree_size(lm, 2) - 4
    assert pi_product(lm, 2) == pdet_by_char_poly(laplacian(lm, 1))


def test_pi_product_factors_only_the_map_below():
    # beta~_1 = 0, so the first basis of d_2 stops at dim ker d_1 = rank d_2:
    # pi_2 factors d_1 (16 x 120) and never d_2 (120 x 220)
    lm = linial_meshulam(16, 0.4, 1)
    pi = pi_product(lm, 2)
    assert ("boundary_factors", 2) not in lm._memo
    assert pi == pdet_by_char_poly(laplacian(lm, 1))


def test_pi_product_divides_by_a_nonunit_minor():
    # the square minor d_RT of d_2 is 2 on RP^2 and the coned RP^2, so
    # the division by its square is not a division by 1
    for facets in (RP2_FACETS, RP2_CONE_FACETS):
        comp = SimplicialComplex.from_facets(facets)
        rows, r = _column_and_row_basis(comp, 2)
        cols = len(comp._first_basis(2))
        assert len(r) == cols
        minor = [[rows[q].get(k, 0) for k in range(cols)] for q in r]
        assert abs(determinant(IntMatrix(len(r), cols, minor))) == 2
        assert pi_product(comp, 2) == pdet_by_char_poly(laplacian(comp, 1))


def test_pi_product_of_simplex_skeleta():
    # the nonzero eigenvalues of the up-down Laplacian of the full simplex
    # on n vertices in dimension j - 1 are all n, C(n - 1, j) of them, and
    # the k-skeleton has the same d_j for j <= k
    checked = 0
    for n in range(3, 10):
        for k in range(min(n, 4)):
            comp = simplex_skeleton(n, k)
            for j in range(k + 1):
                assert pi_product(comp, j) == n ** comb(n - 1, j), (n, k, j)
                checked += 1
    assert checked == 66


def test_spectra_and_groups_do_not_depend_on_vertex_labels():
    rng = random.Random(20261020)
    comps = [moore(3), bipyramid(), linial_meshulam(9, 0.5, 1), linial_meshulam(12, 0.4, 2)]
    # unions of M(m) with LM: Z/m in H~_1 beside LM's torsion
    comps += [lm_moore(2, 6, 0.4, 1), lm_moore(3, 5, 0.4, 3)]
    reduced = 0
    for comp in comps:
        pis = [pi_product(comp, j) for j in range(comp.dim + 1)]
        groups = [critical_group_direct(comp, i) for i in range(comp.dim)]
        for _ in range(3):
            other = relabeled(comp, rng)
            assert other.f_vector() == comp.f_vector() and other != comp
            assert [pi_product(other, j) for j in range(comp.dim + 1)] == pis, comp
            for i, group in enumerate(groups):
                assert critical_group_direct(other, i) == group, (comp, i)
                tree = find_torsion_free_tree(other, i)
                if tree is not None:
                    assert critical_group_reduced(other, i, tree) == group, (comp, i)
                    reduced += 1
    assert reduced == 3 * sum(comp.dim for comp in comps)


def test_groups_of_a_disjoint_union_are_direct_sums():
    # for i >= 1, d_i and d_(i+1) of K + M(2) are block-diagonal, so K_i is
    # K_i(K) + K_i(M(2)); d_0 is not (the union has one empty face), so K_0
    # is left out.  The union is disconnected, so it has no 1-tree and only
    # the direct route applies.
    m2 = moore(2)
    for comp in (moore(3), bipyramid(), linial_meshulam(9, 0.5, 1), linial_meshulam(12, 0.4, 2)):
        shift = max(comp.vertices())
        moved = [[v + shift for v in f] for f in m2.facets()]
        union = SimplicialComplex.from_facets([*comp.facets(), *moved])
        f, g = comp.f_vector(), m2.f_vector()
        assert union.f_vector() == (1,) + tuple(x + y for x, y in zip(f[1:], g[1:]))
        for i in range(1, union.dim):
            a, b = critical_group_direct(comp, i), critical_group_direct(m2, i)
            want = AbelianGroup(a.betti + b.betti, _direct_sum_factors(a.torsion, b.torsion))
            assert critical_group_direct(union, i) == want, (comp, i)


def suspension(comp):
    """The suspension K * S^0: each facet coned from each of two new
    apexes above the largest label."""
    top = max(comp.vertices())
    return SimplicialComplex.from_facets([f + (a,) for a in (top + 1, top + 2) for f in comp.facets()])


def test_suspension_shifts_reduced_homology_up_by_one():
    # H~_(i+1)(SK) = H~_i(K) for every i, torsion included: M(3) has
    # H~_1 = Z/3 (the unions' torsion is in their 2-trees, H~_1 = 0 there);
    # SK is connected, so H~_0(SK) = 0
    fixtures = (moore(3), bipyramid(), linial_meshulam(9, 0.5, 1), linial_meshulam(12, 0.4, 2),
                lm_moore(2, 6, 0.4, 1), lm_moore(3, 5, 0.4, 3))
    checked = 0
    for comp in fixtures:
        susp = suspension(comp)
        assert susp.dim == comp.dim + 1
        assert susp.reduced_homology(0) == AbelianGroup(0, ())
        for i in range(-1, comp.dim + 1):
            assert susp.reduced_homology(i + 1) == comp.reduced_homology(i), (comp, i)
            checked += 1
    assert checked == 24
    assert suspension(moore(3)).reduced_homology(2) == AbelianGroup(0, (3,))


# 20 seeded LM(n, p, seed), n <= 14, none of them in LM_PDET
LM_PI = [
    (n, p, seed)
    for n, p in ((5, 0.5), (8, 0.35), (11, 0.25), (12, 0.4), (14, 0.15))
    for seed in (11, 12, 13, 14)
]


def test_pi_product_matches_two_bareiss_determinants():
    # pseudo_determinant still takes det(B^T L B) / det(B^T B) from a
    # column basis B of L, so it is an independent oracle for every pi_j
    checked = 0
    for spec in LM_PI:
        comp = linial_meshulam(*spec)
        assert pi_product(comp, 0) == len(comp.faces(0))  # the augmentation
        for j in range(comp.dim + 1):
            want = pseudo_determinant(laplacian(comp, j - 1))
            assert pi_product(comp, j) == want, (spec, j)
            checked += 1
        # d_j != 0 for j <= dim, so the only rank-0 case is the zero top
        # Laplacian, whose pi would be the empty product
        assert pseudo_determinant(laplacian(comp, comp.dim)) == 1
        with pytest.raises(ValueError):
            pi_product(comp, comp.dim + 1)
    assert checked == 60


def test_smtt_identities_on_torsion():
    # the censuses are exhaustive, so only small inputs: every 1-tree of
    # K_6 and every 2-tree of RP^2 (torsion 2), the coned RP^2 and LM(6, p)
    comps = [SimplicialComplex.from_facets(RP2_FACETS),
             SimplicialComplex.from_facets(RP2_CONE_FACETS)]
    comps += [linial_meshulam(*spec) for spec in ((6, 0.5, 3), (6, 0.4, 4), (6, 0.5, 1))]
    checked = 0
    for comp in comps:
        for i in (1, 2):
            if not comp.is_apc(i):
                with pytest.raises(NotAcyclicError):
                    verify_smtt(comp, i)
                continue
            rep = verify_smtt(comp, i)
            assert rep.ok, (comp, i, rep)
            checked += 1
    assert checked == 8


def test_lattice_membership_of_reduced_laplacian_image():
    from simpcrit.intlinalg import lattice_membership

    b = bipyramid()
    red = reduced_laplacian(b, 1, [(1, 2), (1, 3), (1, 4), (1, 5)])
    v = red.apply([1, 1, 0, 0, 0])
    x = lattice_membership(red, v)
    assert x is not None and red.apply(x) == v


def test_tree_choice_independence():
    b = bipyramid()
    trees = []
    enumerate_trees(b, 1, on_tree=lambda t: trees.append(t) or len(trees) >= 6)
    factor_sets = {critical_group_reduced(b, 1, t).torsion for t in trees}
    assert factor_sets == {(15,)}
