from fractions import Fraction
from itertools import combinations

import pytest

from simpcrit.complexes import SimplicialComplex, make_face
from simpcrit.generators import (
    bipyramid,
    complete_graph,
    cycle,
    full_simplex,
    simplex_skeleton,
    sphere,
)

RP2_FACETS = [
    (1, 2, 3), (1, 2, 4), (1, 3, 5), (1, 4, 6), (1, 5, 6),
    (2, 3, 6), (2, 4, 5), (2, 5, 6), (3, 4, 5), (3, 4, 6),
]


def frac_rank(rows):
    m = [[Fraction(x) for x in row] for row in rows]
    r = 0
    ncols = len(m[0]) if m else 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(m)) if m[i][c]), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        m[r] = [x / m[r][c] for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c]:
                m[i] = [a - m[i][c] * b for a, b in zip(m[i], m[r])]
        r += 1
        if r == len(m):
            break
    return r


def betti_oracle(comp, i):
    """Reduced Betti number by rational row reduction, independent of
    the library's Smith machinery."""
    f_i = len(comp.faces(i))
    r_i = frac_rank(comp.boundary_matrix(i).data) if f_i else 0
    if i < comp.dim:
        r_up = frac_rank(comp.boundary_matrix(i + 1).data)
    else:
        r_up = 0
    return (f_i - r_i) - r_up


# ---- construction -----------------------------------------------------------

def test_make_face_validation():
    assert make_face([3, 1, 2]) == (1, 2, 3)
    with pytest.raises(ValueError):
        make_face([1, 1, 2])
    with pytest.raises(ValueError):
        make_face([0, 1])


def test_from_facets_bipyramid_f_vector():
    assert bipyramid().f_vector() == (1, 5, 9, 7)


def test_from_facets_point_and_triangle_boundary():
    pt = SimplicialComplex.from_facets([(1,)])
    assert pt.f_vector() == (1, 1)
    tri = SimplicialComplex.from_facets([(1, 2), (1, 3), (2, 3)])
    assert tri.f_vector() == (1, 3, 3)


def test_from_facets_rejects_bad_input():
    with pytest.raises(ValueError):
        SimplicialComplex.from_facets([])
    with pytest.raises(ValueError):
        SimplicialComplex.from_facets([()])
    with pytest.raises(ValueError):
        SimplicialComplex.from_facets([(1, 1, 2)])


def test_vertex_labels_need_not_be_contiguous():
    comp = SimplicialComplex.from_facets([(2, 7), (7, 40)])
    assert comp.vertices() == (2, 7, 40)
    assert comp.f_vector() == (1, 3, 2)


def test_downward_closure():
    comp = SimplicialComplex.from_facets([(1, 2, 3, 4)])
    for k in range(1, 4):
        for sub in combinations((1, 2, 3, 4), k):
            assert comp.has_face(sub)
    assert comp.faces(-1) == ((),)


# ---- boundary matrices --------------------------------------------------------

def test_boundary_of_an_edge():
    comp = SimplicialComplex.from_facets([(1, 2)])
    bd1 = comp.boundary_matrix(1)
    # d[v0 v1] = [v1] - [v0]
    assert bd1.column(0) == [-1, 1]
    assert comp.boundary_matrix(0).data == [[1, 1]]
    assert comp.boundary_matrix(-1).rows == 0
    assert comp.boundary_matrix(-1).cols == 1


def test_bipyramid_boundary_shapes():
    b = bipyramid()
    assert (b.boundary_matrix(1).rows, b.boundary_matrix(1).cols) == (5, 9)
    assert (b.boundary_matrix(2).rows, b.boundary_matrix(2).cols) == (9, 7)
    assert (b.coboundary_matrix(2).rows, b.coboundary_matrix(2).cols) == (7, 9)


@pytest.mark.parametrize(
    "comp",
    [bipyramid(), sphere(2), sphere(3), complete_graph(5), simplex_skeleton(5, 2),
     SimplicialComplex.from_facets(RP2_FACETS)],
    ids=["bipyramid", "sphere2", "sphere3", "K5", "skel52", "rp2"],
)
def test_boundary_squares_to_zero(comp):
    for i in range(0, comp.dim):
        assert comp.boundary_matrix(i) * comp.boundary_matrix(i + 1) == 0


def test_coboundary_is_transpose():
    b = bipyramid()
    for i in range(-1, b.dim + 1):
        assert b.coboundary_matrix(i) == b.boundary_matrix(i).transpose()


def test_boundary_matrix_out_of_range():
    with pytest.raises(ValueError):
        bipyramid().boundary_matrix(3)
    with pytest.raises(ValueError):
        bipyramid().boundary_matrix(-2)


# ---- homology -------------------------------------------------------------------

def test_sphere_homology():
    s2 = sphere(2)
    assert s2.reduced_homology(2).betti == 1
    assert s2.reduced_homology(1) == s2.reduced_homology(0)
    assert s2.reduced_homology(1).betti == 0
    assert s2.reduced_homology(1).torsion == ()


def test_bipyramid_homology():
    b = bipyramid()
    # the two tetrahedral shells are independent 2-cycles
    assert [b.reduced_homology(i).betti for i in range(-1, 3)] == [0, 0, 0, 2]
    assert all(b.reduced_homology(i).torsion == () for i in range(-1, 3))


def test_rp2_homology():
    rp2 = SimplicialComplex.from_facets(RP2_FACETS)
    h1 = rp2.reduced_homology(1)
    assert h1.betti == 0 and h1.torsion == (2,)
    assert rp2.reduced_homology(2).betti == 0
    assert str(h1) == "Z/2"


@pytest.mark.parametrize(
    "comp",
    [bipyramid(), sphere(2), cycle(6), complete_graph(4),
     SimplicialComplex.from_facets([(1, 2), (3, 4)]),
     SimplicialComplex.from_facets([(1,)])],
    ids=["bipyramid", "sphere2", "C6", "K4", "2edges", "point"],
)
def test_betti_matches_rational_oracle(comp):
    for i in range(-1, comp.dim + 1):
        assert comp.reduced_homology(i).betti == betti_oracle(comp, i)


@pytest.mark.parametrize(
    "comp",
    [bipyramid(), sphere(2), sphere(3), cycle(5), complete_graph(4),
     SimplicialComplex.from_facets(RP2_FACETS)],
    ids=["bipyramid", "sphere2", "sphere3", "C5", "K4", "rp2"],
)
def test_euler_poincare(comp):
    f_alt = sum((-1) ** i * len(comp.faces(i)) for i in range(-1, comp.dim + 1))
    b_alt = sum((-1) ** i * comp.reduced_homology(i).betti for i in range(-1, comp.dim + 1))
    assert f_alt == b_alt


# ---- purity and APC ----------------------------------------------------------------

def test_pure_and_apc_flags():
    b = bipyramid()
    assert b.is_pure() and b.is_apc()
    two_edges = SimplicialComplex.from_facets([(1, 2), (3, 4)])
    assert two_edges.is_pure() and not two_edges.is_apc()
    mixed = SimplicialComplex.from_facets([(1, 2, 3), (3, 4)])
    assert not mixed.is_pure()


def test_graph_apc_iff_connected():
    assert cycle(5).is_apc()
    assert complete_graph(6).is_apc()
    assert not SimplicialComplex.from_facets([(1, 2), (3, 4)]).is_apc()


def test_apc_of_a_skeleton():
    # two disjoint solid tetrahedra: the 0-skeleton is APC, every higher
    # one has beta~_0 = 1; RP^2's H_1 is finite, its 2-skeleton APC
    tetras = SimplicialComplex.from_facets([(1, 2, 3, 4), (5, 6, 7, 8)])
    assert tetras.is_apc(0) and not tetras.is_apc(1) and not tetras.is_apc(3)
    assert tetras.is_apc(3) == tetras.is_apc()
    rp2 = SimplicialComplex.from_facets(RP2_FACETS)
    assert all(rp2.is_apc(k) for k in range(3))
    assert all(bipyramid().is_apc(k) for k in range(3))


def test_skeleton():
    skel = full_simplex(4).skeleton(1)
    assert skel == complete_graph(4)
    assert full_simplex(4).skeleton(3) is full_simplex(4) or \
        full_simplex(4).skeleton(3) == full_simplex(4)
    assert sphere(2).skeleton(1) == complete_graph(4)


def test_facets_listing():
    mixed = SimplicialComplex.from_facets([(1, 2, 3), (3, 4)])
    assert mixed.facets() == ((3, 4), (1, 2, 3))
    assert bipyramid().facets() == tuple(sorted(
        [(1, 2, 3), (1, 2, 4), (1, 2, 5), (1, 3, 4), (1, 3, 5), (2, 3, 4), (2, 3, 5)]))


def test_equality_and_hash_compare_faces():
    a = SimplicialComplex.from_facets(RP2_FACETS)
    b = SimplicialComplex.from_facets(list(reversed(RP2_FACETS)))
    assert a is not b
    assert a == b and hash(a) == hash(b)
    assert a == a and hash(a) == hash(a)
    # same f-vector, different faces
    c = SimplicialComplex.from_facets([(1, 2), (3, 4)])
    d = SimplicialComplex.from_facets([(1, 3), (2, 4)])
    assert c.f_vector() == d.f_vector() and c != d and d != c
    assert a != SimplicialComplex.from_facets(RP2_FACETS[:-1])
    assert a != "RP2"
    assert len({a, b, c, d}) == 3
