import random
from fractions import Fraction
from math import comb

import pytest
from test_acceptance import LM_TORSION, RP2_FACETS, linial_meshulam

from simpcrit.complexes import SimplicialComplex
from simpcrit.critical import (
    alternating_order,
    critical_group_direct,
    critical_group_reduced,
    laplacian,
    maxwell_matrix,
    pi_product,
    reduced_laplacian,
    verify_simplex_structure,
)
from simpcrit.generators import (
    bipyramid,
    complete_graph,
    cycle,
    full_simplex,
    simplex_skeleton,
    sphere,
)
from simpcrit.intlinalg import (
    IntMatrix,
    char_poly,
    cokernel,
    column_basis,
    determinant,
    pseudo_determinant,
    smith_normal_form,
)
from simpcrit.trees import (
    NotAcyclicError,
    NotATreeError,
    TreeHasTorsionError,
    enumerate_trees,
    find_torsion_free_tree,
    required_tree_size,
    verify_smtt,
)

BIPYR_REDUCED = [
    [3, -1, -1, 1, 1],
    [-1, 2, 0, -1, 0],
    [-1, 0, 2, 0, -1],
    [1, -1, 0, 2, 0],
    [1, 0, -1, 0, 2],
]


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
    cb = b.coboundary_matrix(2)
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


RP2_FACETS = [
    (1, 2, 3), (1, 2, 4), (1, 3, 5), (1, 4, 6), (1, 5, 6),
    (2, 3, 6), (2, 4, 5), (2, 5, 6), (3, 4, 5), (3, 4, 6),
]


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


def test_pi_product_without_a_tree():
    # beta~_1 = 4: no 2-tree exists, and the column basis of d_2 is
    # smaller than a tree would be
    lm = linial_meshulam(8, 0.3, 1)
    bd = lm.boundary_matrix(2)
    basis = [j for j, _, taken in column_basis((j, bd.column(j)) for j in range(bd.cols)) if taken]
    assert find_torsion_free_tree(lm, 2) is None
    assert len(basis) == required_tree_size(lm, 2) - 4
    assert pi_product(lm, 2) == pdet_by_char_poly(laplacian(lm, 1))


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
