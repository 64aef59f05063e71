import copy
import hashlib
import heapq
import random
from fractions import Fraction
from itertools import combinations, product
from math import gcd, prod

import pytest

from simpcrit import critical, intlinalg
from simpcrit.complexes import SimplicialComplex
from simpcrit.critical import laplacian, reduced_laplacian
from simpcrit.intlinalg import (
    IntMatrix,
    _PackedRows,
    _diagonalize,
    _eliminate_unit_pivots,
    _normalize_diagonal,
    _select_pivot,
    char_poly,
    cokernel,
    column_basis,
    determinant,
    invariant_factors,
    lattice_membership,
    pseudo_determinant,
    rank,
    smith_normal_form,
)
from simpcrit.trees import find_torsion_free_tree


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


def identity(n):
    return IntMatrix.diagonal([1] * n)


def smith_diagonal(s, rows, cols):
    """The rows x cols matrix with the invariant factors s.d on its
    diagonal and zeros elsewhere: what U * A * V must equal."""
    d = list(s.d) + [0] * min(rows, cols)
    return IntMatrix(rows, cols, [[d[i] if i == j else 0 for j in range(cols)] for i in range(rows)])


# ---- IntMatrix basics ------------------------------------------------------

def test_matrix_shapes_and_ops():
    a = IntMatrix(2, 3, [[1, 2, 3], [4, 5, 6]])
    assert a.transpose().data == [[1, 4], [2, 5], [3, 6]]
    assert (a * a.transpose()).data == [[14, 32], [32, 77]]
    assert a.apply([1, 0, -1]) == [-2, -2]
    assert IntMatrix(0, 3).rows == 0
    assert IntMatrix(3, 0).transpose().cols == 3
    with pytest.raises(ValueError):
        IntMatrix(-1, 2)
    with pytest.raises(ValueError):
        IntMatrix(2, 2, [[1, 2], [3, 4], [5, 6]])


def test_matrix_equality_with_zero():
    assert IntMatrix(2, 2) == 0
    assert not (identity(2) == 0)


# ---- Smith normal form -----------------------------------------------------

def test_snf_diag_2_3():
    s = smith_normal_form(IntMatrix.diagonal([2, 3]))
    assert s.d == (1, 6)


def test_snf_zero_matrix():
    s = smith_normal_form(IntMatrix(3, 4))
    assert s.d == () and s.rank == 0
    assert s.u * IntMatrix(3, 4) * s.v == smith_diagonal(s, 3, 4)


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
        assert s.u * a * s.v == smith_diagonal(s, m, n)
        assert abs(determinant(s.u)) == 1
        assert abs(determinant(s.v)) == 1
        assert s.u * s.u_inv == identity(m)
        assert s.v * s.v_inv == identity(n)
        for x, y in zip(s.d, s.d[1:]):
            assert y % x == 0
        assert len(s.d) == frac_rank(a.data)


def test_snf_deterministic():
    rng = random.Random(7)
    a = random_matrix(rng, 5, 5)
    s1 = smith_normal_form(a)
    s2 = smith_normal_form(IntMatrix(5, 5, [r[:] for r in a.data]))
    assert s1.u == s2.u and s1.v == s2.v and s1.d == s2.d


def transform_fixtures():
    """150 matrices up to 9 x 9: the empty shapes, a zero matrix,
    diag(2, 3) (which needs the divisibility fold), then seeded dense and
    sparse ones with small and larger entries."""
    yield from (IntMatrix(0, 4), IntMatrix(4, 0), IntMatrix(0, 0), IntMatrix(3, 5))
    yield IntMatrix.diagonal([2, 3])
    rng = random.Random(20261019)
    for k in range(145):
        m, n = rng.randint(1, 9), rng.randint(1, 9)
        lo, hi = ((-9, 9), (-2, 2), (-40, 40))[k % 3]
        density = (1.0, 0.4)[k % 2]
        yield IntMatrix(m, n, [[rng.randint(lo, hi) if rng.random() < density else 0
                                for _ in range(n)] for _ in range(m)])


def test_snf_transforms_are_pinned():
    # d, U, V and both inverses are canonical for the pivot rule; any
    # change to the elimination or to how the transforms are built shows here
    h = hashlib.sha256()
    for a in transform_fixtures():
        s = smith_normal_form(a)
        h.update(repr((s.d, s.u.data, s.v.data, s.u_inv.data, s.v_inv.data)).encode())
    assert h.hexdigest() == "f1b2029f4209d61f6898c1a04085c010c9c236e98d63df2ba325a4d15a2885ee"


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


def mix_rows(rng, rows, steps):
    """rows after ``steps`` random unimodular row additions."""
    for _ in range(steps):
        i, k = rng.sample(range(len(rows)), 2)
        q = rng.choice((-2, -1, 1, 2))
        rows[i] = [x + q * y for x, y in zip(rows[i], rows[k])]
    return rows


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
    # U * diag(d) * V with d no divisor chain, mixed until no entry is a
    # unit, so that all of it reaches the dense diagonalization
    for _ in range(24):
        m, n = rng.randint(2, 30), rng.randint(2, 30)
        d = [rng.choice((2, 3, 4, 6, 9, 10, 15, 25, 0, 7 * 2**30)) for _ in range(min(m, n))]
        d[0] = 6  # never the zero matrix
        rows = [[d[i] if i == j else 0 for j in range(n)] for i in range(m)]
        while True:
            rows = mix_rows(rng, rows, m + n)
            rows = [list(c) for c in zip(*mix_rows(rng, [list(c) for c in zip(*rows)], m + n))]
            if not any(x in (1, -1) for r in rows for x in r):
                break
        a = IntMatrix(m, n, rows)
        assert invariant_factors(a) == smith_normal_form(a).d
    # dense, with 60-bit entries
    for _ in range(3):
        a = random_matrix(rng, 25, 25, -2**60, 2**60)
        assert invariant_factors(a) == smith_normal_form(a).d
    # a unit that only appears after the first elimination: 3 - 1*2 = 1
    assert invariant_factors(IntMatrix(2, 2, [[1, 2], [1, 3]])) == (1, 1)
    for shape in ((0, 5), (5, 0), (0, 0)):
        assert invariant_factors(IntMatrix(*shape)) == ()
        assert rank(IntMatrix(*shape)) == 0


def sparse_rows(a):
    """The rows of a as the {col: nonzero value} dicts the sparse phase takes."""
    return [{c: x for c, x in enumerate(row) if x} for row in a.data]


def check_unit_elimination(a):
    """The sparse phase stops only when no entry is +-1, and its pivot
    count plus the dense phase's factors are the Smith form's."""
    rest = _eliminate_unit_pivots(sparse_rows(a))
    units = len(rest.taken)
    assert not any(x in (1, -1) for v in rest.ints for x in rest.unpack(v))
    assert (1,) * units + _normalize_diagonal(_diagonalize(rest)) == smith_normal_form(a).d


def test_unit_elimination_leaves_no_unit():
    rng = random.Random(20261019)
    for trial in range(60):
        m, n = rng.randint(1, 30), rng.randint(1, 30)
        values = ((-1, 1), (-3, -1, 1, 1, 2, 5), (-2, -1, 2, 3))[trial % 3]
        check_unit_elimination(sparse_matrix(rng, m, n, rng.uniform(0.05, 0.4), values))
    # seeded Linial-Meshulam complexes, as in test_acceptance: all edges,
    # and each triangle kept with probability p; K_1 has torsion on each
    for n, p, seed in ((6, 0.5, 3), (8, 0.3, 1), (9, 0.3, 1), (10, 0.2, 2)):
        tri_rng = random.Random(seed)
        tris = [t for t in combinations(range(1, n + 1), 3) if tri_rng.random() < p]
        comp = SimplicialComplex.from_facets(list(combinations(range(1, n + 1), 2)) + tris)
        check_unit_elimination(laplacian(comp, 1))
        check_unit_elimination(reduced_laplacian(comp, 1, find_torsion_free_tree(comp, 1)))


def test_unit_elimination_revisits_updated_rows():
    # row 1 is the shortest and is popped first, with no unit; pivoting on
    # (0, 0) turns it into [0, -1, -10], whose -1 is found only because
    # the update pushes row 1 again
    a = IntMatrix(2, 3, [[1, 2, 5], [2, 3, 0]])
    rest = _eliminate_unit_pivots(sparse_rows(a))
    assert (rest.taken, rest.ints) == ([0, 1], [])
    check_unit_elimination(a)


def plain_unit_pivots(sparse_rows):
    """The unit-pivot elimination with plain set bookkeeping: the pivot row
    leaves its columns' sets before the Schur update, every nonzero the
    update writes adds its row to its column's set, and emptied columns
    are dropped after it.  The oracle for ``_eliminate_unit_pivots``."""
    rows = {r: row for r, row in enumerate(sparse_rows) if row}
    cols = {}
    for r, row in rows.items():
        for c in row:
            cols.setdefault(c, set()).add(r)
    heap = [(len(row), r) for r, row in rows.items()]
    heapq.heapify(heap)
    pivots = []
    while heap:
        length, pr = heapq.heappop(heap)
        prow = rows.get(pr)
        if prow is None or len(prow) != length:
            continue
        unit_cols = [(len(cols[c]), c) for c, x in prow.items() if x == 1 or x == -1]
        if not unit_cols:
            continue
        pc = min(unit_cols)[1]
        del rows[pr]
        p = prow.pop(pc)
        for cc in prow:
            cols[cc].discard(pr)
        pcol = cols.pop(pc)
        pcol.discard(pr)
        for s in pcol:
            srow = rows[s]
            f = srow.pop(pc) * p
            for cc, x in prow.items():
                v = srow.get(cc, 0) - f * x
                if v:
                    srow[cc] = v
                    cols[cc].add(s)
                else:
                    del srow[cc]
                    cols[cc].discard(s)
            if srow:
                heapq.heappush(heap, (len(srow), s))
            else:
                del rows[s]
        for cc in prow:
            if not cols[cc]:
                del cols[cc]
        pivots.append(pr)
    return pivots, _PackedRows(rows.values())


def test_unit_elimination_matches_plain_bookkeeping(monkeypatch):
    # the same pivots, so the same pivot rows and the same packed remainder
    def same(rows):
        rest = _eliminate_unit_pivots(copy.deepcopy(rows))
        want, want_rest = plain_unit_pivots(copy.deepcopy(rows))
        assert (rest.taken, rest.ints) == (want, want_rest.ints)
        return rest

    rng = random.Random(20261020)
    for trial in range(60):
        m, n = rng.randint(1, 30), rng.randint(1, 30)
        values = ((-1, 1), (-3, -1, 1, 1, 2, 5), (-2, -1, 2, 3))[trial % 3]
        same(sparse_rows(sparse_matrix(rng, m, n, rng.uniform(0.05, 0.4), values)))
    # the block matrices [[I, B^T], [B, 0]] of both K_1 routes on seeded LM
    seen = []
    monkeypatch.setattr(critical, "_sparse_invariant_factors", lambda rows: seen.append(
        copy.deepcopy(rows)) or intlinalg._sparse_invariant_factors(rows))
    for n, p, seed in ((6, 0.5, 3), (8, 0.3, 1), (9, 0.3, 1), (10, 0.2, 2), (12, 0.25, 1)):
        tri_rng = random.Random(seed)
        tris = [t for t in combinations(range(1, n + 1), 3) if tri_rng.random() < p]
        comp = SimplicialComplex.from_facets(list(combinations(range(1, n + 1), 2)) + tris)
        critical.critical_group_direct(comp, 1)
        tree = find_torsion_free_tree(comp, 1)
        critical.critical_group_reduced(comp, 1, tree)
    assert len(seen) == 10
    assert any(same(rows).ints for rows in seen)


# ---- the packed diagonalization against the list-row one it replaced --------

def list_row_diagonalize(a_data):
    """The list-row diagonalization: the diagonal, in no divisibility order,
    of a diagonal matrix equivalent to the dense rows a_data, zeros left
    out.  Its pivot is the smallest nonzero |entry| of the whole block;
    Euclid runs down its column and along its row until both are clear."""
    A = [row[:] for row in a_data]
    diag = []
    while A and A[0]:
        m, n = len(A), len(A[0])
        p = _select_pivot(A, 0, m, n)
        if p is None:
            break
        pi, pj = p
        A[pi], A[0] = A[0], A[pi]
        if pj:
            for r in A:
                r[pj], r[0] = r[0], r[pj]
        while True:
            while True:  # Euclid down column 0
                A0 = A[0]
                if A0[0] < 0:
                    A[0] = A0 = [-x for x in A0]
                piv = A0[0]
                half = piv >> 1
                best = 0
                for i in range(1, m):
                    Ai = A[i]
                    if Ai[0]:
                        q = (Ai[0] + half) // piv
                        if q:
                            A[i] = Ai = [x - q * y for x, y in zip(Ai, A0)]
                        a = abs(Ai[0])
                        if a and (not best or a < best):
                            best, bi = a, i
                if not best:
                    break
                A[bi], A[0] = A0, A[bi]
            best = 0
            for j in range(1, n):  # Euclid along row 0
                if A0[j]:
                    A0[j] = a = A0[j] % piv
                    if a and (not best or a < best):
                        best, bj = a, j
            if not best:
                break
            for r in A:
                r[bj], r[0] = r[0], r[bj]
        diag.append(piv)
        A = [r[1:] for r in A[1:]]
    return diag


def branch_calls(monkeypatch):
    """The arguments of each call of ``_PackedRows.widen`` (the quotient's
    bits) and ``_PackedRows.swap`` from here on."""
    calls = {"widen": [], "swap": []}
    for name in calls:
        real = getattr(_PackedRows, name)

        def spy(self, *args, name=name, real=real):
            calls[name].append(args)
            return real(self, *args)

        monkeypatch.setattr(_PackedRows, name, spy)
    return calls


def check_diagonalize(a):
    """The packed diagonalization of a, packed from its sparse rows, gives
    the list-row one's invariant factors."""
    got = _diagonalize(_PackedRows(sparse_rows(a)))
    assert _normalize_diagonal(got) == _normalize_diagonal(list_row_diagonalize(a.data)), a


def test_packed_diagonalize_matches_the_list_rows(monkeypatch):
    rng = random.Random(20261020)
    calls = branch_calls(monkeypatch)

    def run(matrices):
        """Check each matrix; the quotient bits of each widening, and the
        number of swaps, that they took."""
        widen, swap = len(calls["widen"]), len(calls["swap"])
        for a in matrices:
            check_diagonalize(a)
        return [q for q, in calls["widen"][widen:]], len(calls["swap"]) - swap

    # empty, zero and m x 1: Euclid down the one column, no swap, no widening
    assert run([IntMatrix(0, 0), IntMatrix(0, 4), IntMatrix(4, 0), IntMatrix(3, 5)]
               + [random_matrix(rng, rng.randint(1, 12), 1) for _ in range(10)]) == ([], 0)
    # 1 x n: Euclid along the one row swaps each remainder into column 0
    widen, swap = run([random_matrix(rng, 1, rng.randint(2, 12), 2, 9) for _ in range(10)])
    assert not widen and swap > 0
    # seeded square, non-square, singular and rank-deficient matrices with
    # entries of a few bits, a fifth with zero rows and columns (which get
    # no lane): both branches, the entries outgrowing the guard in the
    # larger ones
    mixed = []
    for trial in range(80):
        m, n = rng.randint(1, 12), rng.randint(1, 12)
        if trial % 4 == 3:
            r = rng.randint(1, min(m, n))
            a = random_matrix(rng, m, r, -6, 6) * random_matrix(rng, r, n, -6, 6)
        else:
            a = sparse_matrix(rng, m, n, rng.uniform(0.3, 1.0), (-9, -6, -4, -3, -2, 2, 3, 4, 5, 8))
        if trial % 5 == 1:
            for j in rng.sample(range(n), n // 3):
                for row in a.data:
                    row[j] = 0
            for i in rng.sample(range(m), m // 3):
                a.data[i] = [0] * n
        mixed.append(a)
    widen, swap = run(mixed)
    assert widen and swap > 0
    # dense 30 x 30 to 40 x 42 with 30-bit entries, like the torsion
    # remainders: both branches
    widen, swap = run([random_matrix(rng, k, k + rng.randint(-2, 2), -2**30, 2**30)
                       for k in range(30, 41, 5)])
    assert widen and swap > 0
    # a +-1 in column 0 of a row of entries up to 10^40 (133 bits), among
    # such rows: a first step's quotient has over 120 bits, and beside the
    # pivot row's 133-bit entries it fits no lane of the input's width.
    # Each matrix first widens for such a quotient, and then finishes.
    for _ in range(6):
        m, n = rng.randint(2, 8), rng.randint(2, 8)
        a = random_matrix(rng, m, n, -10**40, 10**40)
        a.data[rng.randrange(m)][0] = rng.choice((-1, 1))
        widen, _ = run([a])
        assert widen and widen[0] > 120


def test_packed_rows_take_the_sparsest_columns_first():
    # lanes by nonzero count, ties to the lowest column: 3, then 0 and 7;
    # the columns no row holds get none
    rows = _PackedRows([{0: 2, 3: 5, 7: 6}, {0: 3, 7: -4}, {0: 9, 3: 2, 7: 8}, {}])
    assert rows.n == 3
    assert [rows.unpack(v) for v in rows.ints] == [[5, 2, 6], [0, 3, -4], [2, 9, 8], [0, 0, 0]]


def test_lane_guard_proves_exactly_the_entries_below_it():
    # with every lane a balanced digit, the guard test lowers a row's bound
    # to the guard iff each entry is in [-2^(guard-1), 2^(guard-1)),
    # whatever its neighbours hold, down to the widest digits +-(2^(width-1) - 1)
    rows = _PackedRows([{0: 5, 1: 3, 2: -7}])
    g, w = rows.guard, rows.width
    lo, hi = -(1 << (g - 1)), (1 << (g - 1)) - 1
    edges = (lo - 1, lo, -1, 0, hi, hi + 1, 1 - (1 << (w - 1)), (1 << (w - 1)) - 1)
    for lanes in product(edges, repeat=3):
        rows.ints[0], rows.bits[0] = rows.pack(enumerate(lanes))
        assert rows.unpack(rows.ints[0]) == list(lanes)
        rows.bits[0] = w - 1
        rows.prove(0)
        assert rows.bits[0] == (g if all(lo <= x <= hi for x in lanes) else w - 1), lanes


def test_invariant_factors_of_diagonals():
    # the diagonal becomes a divisor chain by gcd and lcm; zeros drop out
    assert invariant_factors(IntMatrix.diagonal([6, 10, 15])) == (1, 30, 30)
    assert invariant_factors(IntMatrix.diagonal([4, 6])) == (2, 12)
    assert invariant_factors(IntMatrix.diagonal([2**40, 3, 0])) == (1, 3 * 2**40)


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
    assert determinant(identity(4)) == 1
    assert determinant(IntMatrix(0, 0)) == 1
    with pytest.raises(ValueError):
        determinant(IntMatrix(2, 3))


def test_determinant_against_cofactor_oracle():
    rng = random.Random(3)
    for _ in range(60):
        n = rng.randint(1, 5)
        a = random_matrix(rng, n, n)
        assert determinant(a) == det_cofactor(a.data)
    # singular inputs: a zero first column leaves no pivot at the first
    # step, and an n x (n-1) by (n-1) x n product has rank below n
    for n in range(2, 7):
        a = random_matrix(rng, n, n)
        for row in a.data:
            row[0] = 0
        products = [random_matrix(rng, n, n - 1) * random_matrix(rng, n - 1, n) for _ in range(5)]
        for m in [a] + products:
            assert determinant(m) == det_cofactor(m.data) == 0


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
    assert char_poly(identity(2)) == [1, -2, 1]
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
    # symmetric but indefinite: nonzero eigenvalues 3 and -1
    assert pseudo_determinant(IntMatrix(3, 3, [[1, 2, 0], [2, 1, 0], [0, 0, 0]])) == 3


def test_pseudo_determinant_rejects_asymmetric():
    with pytest.raises(ValueError):
        pseudo_determinant(IntMatrix(2, 2, [[1, 2], [3, 4]]))
    with pytest.raises(ValueError, match="non-square"):
        pseudo_determinant(IntMatrix(2, 3))


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


def membership_cases():
    """150 seeded matrices with torsion, zero rows and zero columns, each
    with 12 vectors w: image vectors, image vectors moved along one axis,
    and random vectors."""
    rng = random.Random(31)
    for trial in range(150):
        m, n = rng.randint(1, 12), rng.randint(1, 12)
        values = ((-1, 1), (-3, -1, 1, 1, 2, 5), (-2, 2, 3, 4, 6))[trial % 3]
        a = sparse_matrix(rng, m, n, rng.uniform(0.05, 0.8), values)
        ws = []
        for _ in range(4):
            v = a.apply([rng.randint(-3, 3) for _ in range(n)])
            k, step = rng.randrange(m), rng.choice((1, 2, 3, 6))
            moved = [x + step * (j == k) for j, x in enumerate(v)]
            ws += [v, moved, [rng.randint(-3, 3) for _ in range(m)]]
        yield a, ws


def test_membership_rows_decide_the_column_lattice():
    # the rows of U off the logged sparse eliminator against the Smith
    # form's solve
    with_torsion = with_zero = 0
    for a, ws in membership_cases():
        torsion, zero = intlinalg._membership_rows(sparse_rows(a))
        with_torsion += bool(torsion)
        with_zero += bool(zero)
        assert all(t > 1 for _, _, t in torsion)
        for w in ws:
            def dot(u):
                return sum(x * w[k] for k, x in u)

            member = all(dot(u) % t == 0 for _, u, t in torsion) and not any(map(dot, zero))
            assert member is (lattice_membership(a, w) is not None), (a, w)
    assert (with_torsion, with_zero) == (67, 89)


def test_membership_rows_are_pinned():
    # the torsion rows with their pivots and the zero rows, in order, on
    # the seeded matrices and on L_1 of LM(12, 0.5, 1) and LM(9, 0.5, 2);
    # the digest was taken before the zero rows were derived as the rows
    # that no phase pivots on
    inputs = [sparse_rows(a) for a, _ in membership_cases()]
    for n, seed in ((12, 1), (9, 2)):
        tri_rng = random.Random(seed)
        tris = [t for t in combinations(range(1, n + 1), 3) if tri_rng.random() < 0.5]
        comp = SimplicialComplex.from_facets(list(combinations(range(1, n + 1), 2)) + tris)
        inputs.append(critical._laplacian_rows(comp, 1))
    out = []
    for rows in inputs:
        torsion, zero = intlinalg._membership_rows(rows)
        out.append(([(tuple(u), t) for _, u, t in torsion], [tuple(u) for u in zero]))
    digest = hashlib.sha256(repr(out).encode()).hexdigest()
    assert digest == "346ca1ea0ce52cbcbf576ce0137bddf5aefb90777dbec7008ebdf296cef6e806"


def check_coordinate_rows(a):
    """``_coordinate_rows`` gives the Smith form's d and, for each d_j > 1,
    row j of its U mod d_j, the U that ``_log_rows`` builds whole."""
    s = smith_normal_form(a)
    d, rows = intlinalg._coordinate_rows(a)
    assert d == s.d
    got = [(j, [(k, x % t) for k, x in u if x % t], t) for j, u, t in rows]
    want = [(j, [(k, x % t) for k, x in enumerate(s.u.data[j]) if x % t], t)
            for j, t in enumerate(s.d) if t > 1]
    assert got == want
    return bool(rows)


def test_coordinate_rows_are_rows_of_the_smith_forms_u():
    rng = random.Random(37)
    with_torsion = 0
    for trial in range(60):
        m, n = rng.randint(1, 10), rng.randint(1, 10)
        values = ((-1, 1), (-3, -1, 1, 1, 2, 5), (-2, 2, 3, 4, 6))[trial % 3]
        with_torsion += check_coordinate_rows(sparse_matrix(rng, m, n, rng.uniform(0.1, 0.8), values))
    assert with_torsion == 29


# ---- rank --------------------------------------------------------------------

def test_rank_against_fraction_oracle():
    rng = random.Random(31)
    for _ in range(60):
        a = random_matrix(rng, rng.randint(1, 7), rng.randint(1, 7), -5, 5)
        assert rank(a) == frac_rank(a.data)


# ---- the sparse column reducer against the dense one it replaced ---------------

def dense_eliminate(v, b, p):
    """The dense fraction-free step: b[p]*v - v[p]*b over its gcd."""
    a, c = b[p], v[p]
    w = [a * x - c * y for x, y in zip(v, b)]
    g = 0
    for x in w:
        g = gcd(g, x)
        if g == 1:
            return w
    return [x // g for x in w] if g > 1 else w


def dense_column_basis(cols, pivots):
    """The dense column reducer: each column, a list, is checked against
    every taken column in turn and reduced where that one's pivot (its
    lowest nonzero row) is nonzero, until it is zero.  The pivot row of
    each step is appended to ``pivots``."""
    basis = []
    for j, v in cols:
        steps = 0
        for p, b in basis:
            steps += 1
            if v[p]:
                pivots.append(p)
                v = dense_eliminate(v, b, p)
                if not any(v):
                    break
        taken = any(v)
        if taken:
            p = 0
            while not v[p]:
                p += 1
            basis.append((p, v))
        yield j, steps, taken


def sparse_columns(a):
    """(index, column) pairs of a's columns as {row: nonzero value} dicts,
    the input of ``column_basis``."""
    return [(j, {r: x for r, x in enumerate(a.column(j)) if x}) for j in range(a.cols)]


def check_column_basis(a, monkeypatch):
    """The sparse reducer gives the dense one's (index, steps, taken)
    triples, takes the same steps on the same pivot rows, and leaves its
    input columns as they were."""
    want_pivots, pivots = [], []
    real = intlinalg.eliminate
    cols = sparse_columns(a)
    before = [dict(v) for _, v in cols]
    with monkeypatch.context() as m:
        m.setattr(intlinalg, "eliminate", lambda v, b, p: pivots.append(p) or real(v, b, p))
        got = list(column_basis(cols))
    assert got == list(dense_column_basis(((j, a.column(j)) for j in range(a.cols)), want_pivots)), a
    assert pivots == want_pivots, a
    assert [v for _, v in cols] == before
    return got


def test_column_basis_matches_the_dense_reducer(monkeypatch):
    rng = random.Random(20261020)
    total = early = 0
    for trial in range(150):
        m, n = rng.randint(1, 14), rng.randint(1, 14)
        values = ((-1, 1), (-3, -1, 1, 2, 5), (-9, 4, 6, 12))[trial % 3]
        a = sparse_matrix(rng, m, n, rng.uniform(0.1, 0.6), values)
        if trial % 4 == 1:
            # columns that are combinations of earlier ones, or zero
            for j in range(n // 2, n):
                x, y = rng.sample(range(n // 2 + 1), 2)
                q = rng.choice((-2, -1, 0, 1, 3))
                for row in a.data:
                    row[j] = q * row[x] - row[y] if trial % 8 == 1 else 0
        got = check_column_basis(a, monkeypatch)
        taken = 0
        for _, steps, t in got:
            # a dependent column that stops before the last taken one
            early += not t and steps < taken
            taken += t
        assert sum(t for _, _, t in got) == frac_rank(a.data)
        total += len(got)
    for _ in range(10):
        check_column_basis(random_matrix(rng, rng.randint(1, 9), rng.randint(1, 9), -2**40, 2**40),
                           monkeypatch)
    for shape in ((0, 3), (3, 0), (0, 0)):
        assert check_column_basis(IntMatrix(*shape), monkeypatch) == [(j, 0, False)
                                                                      for j in range(shape[1])]
    assert (total, early) == (1097, 63)
