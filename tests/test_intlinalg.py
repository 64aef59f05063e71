import random
from fractions import Fraction
from itertools import combinations
from math import gcd, prod

import pytest

from simpcrit.intlinalg import (
    IntMatrix,
    char_poly,
    cokernel,
    determinant,
    invariant_factors,
    lattice_membership,
    pseudo_determinant,
    rank,
    smith_normal_form,
)


# ---- oracles -------------------------------------------------------------

def det_cofactor(rows):
    """Cofactor-expansion determinant over exact rationals/ints."""
    n = len(rows)
    if n == 0:
        return 1
    if n == 1:
        return rows[0][0]
    out = 0
    for j in range(n):
        if rows[0][j]:
            minor = [r[:j] + r[j + 1:] for r in rows[1:]]
            out += (-1) ** j * rows[0][j] * det_cofactor(minor)
    return out


def poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def poly_add(a, b):
    n = max(len(a), len(b))
    a = a + [0] * (n - len(a))
    b = b + [0] * (n - len(b))
    return [x + y for x, y in zip(a, b)]


def char_poly_cofactor(m):
    """det(xI - A) by cofactor expansion with polynomial entries;
    returns coefficients in ascending order."""
    n = m.rows

    def entry(i, j):
        # polynomial in ascending coefficients
        if i == j:
            return [-m.data[i][j], 1]
        return [-m.data[i][j]]

    def pdet(idx_rows, idx_cols):
        if not idx_rows:
            return [1]
        i = idx_rows[0]
        out = [0]
        for pos, j in enumerate(idx_cols):
            e = entry(i, j)
            if any(e):
                rest = pdet(idx_rows[1:], idx_cols[:pos] + idx_cols[pos + 1:])
                term = poly_mul(e, rest)
                if pos % 2:
                    term = [-x for x in term]
                out = poly_add(out, term)
        return out

    return pdet(list(range(n)), list(range(n)))


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


def random_matrix(rng, rows, cols, lo=-9, hi=9):
    return IntMatrix(rows, cols, [[rng.randint(lo, hi) for _ in range(cols)] for _ in range(rows)])


# ---- IntMatrix basics ------------------------------------------------------

def test_matrix_shapes_and_ops():
    a = IntMatrix(2, 3, [[1, 2, 3], [4, 5, 6]])
    assert a.transpose().data == [[1, 4], [2, 5], [3, 6]]
    assert (a * a.transpose()).data == [[14, 32], [32, 77]]
    assert a.apply([1, 0, -1]) == [-2, -2]
    assert (a - a) == 0
    assert IntMatrix(0, 3).rows == 0
    assert IntMatrix(3, 0).transpose().cols == 3
    with pytest.raises(ValueError):
        IntMatrix(-1, 2)
    with pytest.raises(ValueError):
        IntMatrix(2, 2, [[1, 2], [3, 4], [5, 6]])


def test_matrix_equality_with_zero():
    assert IntMatrix(2, 2) == 0
    assert not (IntMatrix.identity(2) == 0)


# ---- Smith normal form -----------------------------------------------------

def test_snf_diag_2_3():
    s = smith_normal_form(IntMatrix.diagonal([2, 3]))
    assert s.d == (1, 6)


def test_snf_zero_matrix():
    s = smith_normal_form(IntMatrix(3, 4))
    assert s.d == () and s.rank == 0
    assert s.u * IntMatrix(3, 4) * s.v == s.diagonal_matrix()


def test_snf_empty_shapes():
    for shape in ((0, 3), (3, 0), (0, 0)):
        s = smith_normal_form(IntMatrix(*shape))
        assert s.rank == 0 and s.d == ()


def test_snf_reconstruction_and_unimodularity():
    rng = random.Random(1)
    for _ in range(120):
        m = rng.randint(1, 8)
        n = rng.randint(1, 8)
        a = random_matrix(rng, m, n)
        s = smith_normal_form(a)
        assert s.u * a * s.v == s.diagonal_matrix()
        assert abs(determinant(s.u)) == 1
        assert abs(determinant(s.v)) == 1
        assert s.u * s.u_inv == IntMatrix.identity(m)
        assert s.v * s.v_inv == IntMatrix.identity(n)
        for x, y in zip(s.d, s.d[1:]):
            assert y % x == 0
        assert len(s.d) == frac_rank(a.data)


def test_snf_deterministic():
    rng = random.Random(7)
    a = random_matrix(rng, 5, 5)
    s1 = smith_normal_form(a)
    s2 = smith_normal_form(IntMatrix(5, 5, [r[:] for r in a.data]))
    assert s1.u == s2.u and s1.v == s2.v and s1.d == s2.d


def test_invariant_factors_match_snf():
    rng = random.Random(13)
    for _ in range(40):
        a = random_matrix(rng, rng.randint(1, 6), rng.randint(1, 6))
        assert invariant_factors(a) == smith_normal_form(a).d


def sparse_matrix(rng, rows, cols, density, values):
    return IntMatrix(rows, cols, [
        [rng.choice(values) if rng.random() < density else 0 for _ in range(cols)]
        for _ in range(rows)
    ])


def test_invariant_factors_differential_sparse():
    # against the dense Smith form with transforms, which never takes the
    # sparse unit-pivot path
    rng = random.Random(20261018)
    families = [
        (-1, 1),  # eliminating units fills in and creates new units
        (-4, -2, 2, 6),  # no unit entry at all
        (-3, -1, 1, 1, 2, 5),
    ]
    for trial in range(90):
        m, n = rng.randint(1, 40), rng.randint(1, 40)
        a = sparse_matrix(rng, m, n, rng.uniform(0.05, 0.3), families[trial % 3])
        if trial % 2:
            for i in rng.sample(range(m), m // 4):
                a.data[i] = [0] * n
            for j in rng.sample(range(n), n // 4):
                for row in a.data:
                    row[j] = 0
        d = smith_normal_form(a).d
        assert invariant_factors(a) == d
        assert rank(a) == len(d)
    # a unit that only appears after the first elimination: 3 - 1*2 = 1
    assert invariant_factors(IntMatrix(2, 2, [[1, 2], [1, 3]])) == (1, 1)
    for shape in ((0, 5), (5, 0), (0, 0)):
        assert invariant_factors(IntMatrix(*shape)) == ()
        assert rank(IntMatrix(*shape)) == 0


def test_invariant_factors_are_gcds_of_minors():
    # d_1 ... d_k is the gcd of the k x k minors, and every minor past
    # the rank vanishes
    rng = random.Random(4)
    for _ in range(300):
        m, n = rng.randint(1, 4), rng.randint(1, 4)
        a = sparse_matrix(rng, m, n, rng.uniform(0.3, 1.0), (-4, -3, -2, -1, 1, 2, 3, 6))
        d = invariant_factors(a)
        for k in range(1, min(m, n) + 1):
            g = 0
            for rs in combinations(range(m), k):
                for cs in combinations(range(n), k):
                    g = gcd(g, det_cofactor([[a.data[i][j] for j in cs] for i in rs]))
            assert g == (prod(d[:k]) if k <= len(d) else 0)


# ---- determinant -----------------------------------------------------------

def test_determinant_identity_and_errors():
    assert determinant(IntMatrix.identity(4)) == 1
    assert determinant(IntMatrix(0, 0)) == 1
    with pytest.raises(ValueError):
        determinant(IntMatrix(2, 3))


def test_determinant_against_cofactor_oracle():
    rng = random.Random(3)
    for _ in range(60):
        n = rng.randint(1, 5)
        a = random_matrix(rng, n, n)
        assert determinant(a) == det_cofactor(a.data)


def test_determinant_vs_snf_product():
    rng = random.Random(11)
    for _ in range(40):
        n = rng.randint(1, 6)
        a = random_matrix(rng, n, n)
        d = determinant(a)
        s = smith_normal_form(a)
        if d:
            prod = 1
            for x in s.d:
                prod *= x
            assert abs(d) == prod
        else:
            assert s.rank < n


# ---- characteristic polynomial ----------------------------------------------

def test_char_poly_small_cases():
    assert char_poly(IntMatrix.identity(2)) == [1, -2, 1]
    assert char_poly(IntMatrix.diagonal([2, 3])) == [1, -5, 6]
    # vertex Laplacian of the triangle graph
    c3 = IntMatrix(3, 3, [[2, -1, -1], [-1, 2, -1], [-1, -1, 2]])
    assert char_poly(c3) == [1, -6, 9, 0]
    assert char_poly(IntMatrix(0, 0)) == [1]


def test_char_poly_against_cofactor_oracle():
    rng = random.Random(5)
    for _ in range(40):
        n = rng.randint(1, 5)
        a = random_matrix(rng, n, n, -5, 5)
        ours = char_poly(a)
        oracle = char_poly_cofactor(a)  # ascending
        assert ours == list(reversed(oracle))


# ---- pseudo-determinant ------------------------------------------------------

def test_pseudo_determinant_zero_and_c3():
    assert pseudo_determinant(IntMatrix(4, 4)) == 1
    assert pseudo_determinant(IntMatrix(0, 0)) == 1
    c3 = IntMatrix(3, 3, [[2, -1, -1], [-1, 2, -1], [-1, -1, 2]])
    assert pseudo_determinant(c3) == 9


def test_pseudo_determinant_rejects_asymmetric():
    with pytest.raises(ValueError):
        pseudo_determinant(IntMatrix(2, 2, [[1, 2], [3, 4]]))


def test_pseudo_determinant_gram_symmetry():
    rng = random.Random(17)
    for _ in range(60):
        m = random_matrix(rng, rng.randint(1, 5), rng.randint(1, 5), -4, 4)
        assert pseudo_determinant(m * m.transpose()) == pseudo_determinant(m.transpose() * m)


# ---- cokernel ---------------------------------------------------------------

def test_cokernel_examples():
    ck = cokernel(IntMatrix.diagonal([2, 3]))
    assert ck.betti == 0 and ck.torsion == (6,)
    ck = cokernel(IntMatrix(1, 2, [[2, 4]]))
    assert ck.betti == 0 and ck.torsion == (2,)
    ck = cokernel(IntMatrix(3, 2))
    assert ck.betti == 3 and ck.torsion == ()
    assert ck.order == 1


# ---- lattice membership -------------------------------------------------------

def test_lattice_membership_diag():
    a = IntMatrix.diagonal([2, 3])
    assert lattice_membership(a, [4, 3]) == [2, 1]
    assert lattice_membership(a, [1, 0]) is None
    with pytest.raises(ValueError):
        lattice_membership(a, [1, 2, 3])


def test_lattice_membership_solution_is_exact():
    rng = random.Random(23)
    for _ in range(50):
        m = rng.randint(1, 5)
        n = rng.randint(1, 5)
        a = random_matrix(rng, m, n, -4, 4)
        x0 = [rng.randint(-3, 3) for _ in range(n)]
        v = a.apply(x0)
        x = lattice_membership(a, v)
        assert x is not None
        assert a.apply(x) == v


def test_lattice_membership_against_brute_force():
    rng = random.Random(29)
    for _ in range(30):
        a = random_matrix(rng, 2, 2, -2, 2)
        v = [rng.randint(-3, 3), rng.randint(-3, 3)]
        x = lattice_membership(a, v)
        brute = None
        for x1 in range(-8, 9):
            for x2 in range(-8, 9):
                if a.apply([x1, x2]) == v:
                    brute = [x1, x2]
                    break
            if brute:
                break
        if x is None:
            # membership can still hold with huge coefficients only when
            # the matrix is singular in a special way; on this box the
            # brute-force window is wide enough to be decisive
            assert brute is None or max(map(abs, brute)) > 8
        else:
            assert a.apply(x) == v


# ---- rank --------------------------------------------------------------------

def test_rank_against_fraction_oracle():
    rng = random.Random(31)
    for _ in range(60):
        a = random_matrix(rng, rng.randint(1, 7), rng.randint(1, 7), -5, 5)
        assert rank(a) == frac_rank(a.data)
