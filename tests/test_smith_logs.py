"""The sparse Smith elimination against its dense original, and the
transforms read off its logs against the replayed U and V."""

import hashlib
import random

from test_acceptance import linial_meshulam
from test_intlinalg import mix_rows

from simpcrit.critical import laplacian, reduced_laplacian
from simpcrit.generators import moore
from simpcrit.intlinalg import IntMatrix, _apply_log, _snf_engine, _solve, smith_normal_form
from simpcrit.trees import find_torsion_free_tree


def dense_snf_engine(a_data, m, n, row_log, col_log):
    """The Smith elimination before it was made sparse, kept as an oracle:
    the same min-|value| pivot rule, but every step walks whole rows and
    columns and every pivot gets the divisibility scan."""
    A = [row[:] for row in a_data]

    def swap_rows(i, k):
        A[i], A[k] = A[k], A[i]
        row_log.append((i, k, None))

    def add_row(i, k, q):
        Ai, Ak = A[i], A[k]
        for j in range(n):
            if Ak[j]:
                Ai[j] += q * Ak[j]
        row_log.append((i, k, q))

    def neg_row(i):
        A[i] = [-x for x in A[i]]
        row_log.append((i, None, -1))

    def swap_cols(j, k):
        for r in A:
            r[j], r[k] = r[k], r[j]
        col_log.append((j, k, None))

    def add_col(j, k, q):
        for r in A:
            if r[k]:
                r[j] += q * r[k]
        col_log.append((j, k, q))

    def select_pivot(t):
        best = bi = bj = 0
        for i in range(t, m):
            for j in range(t, n):
                a = abs(A[i][j])
                if a and (not best or a < best):
                    best, bi, bj = a, i, j
        return (bi, bj) if best else None

    t = 0
    while t < min(m, n):
        p = select_pivot(t)
        if p is None:
            break
        while True:
            pi, pj = p
            if pi != t:
                swap_rows(pi, t)
            if pj != t:
                swap_cols(pj, t)
            if A[t][t] < 0:
                neg_row(t)
            piv = A[t][t]
            dirty = False
            for i in range(t + 1, m):
                if A[i][t]:
                    q = A[i][t] // piv
                    if q:
                        add_row(i, t, -q)
                    dirty = dirty or bool(A[i][t])
            for j in range(t + 1, n):
                if A[t][j]:
                    q = A[t][j] // piv
                    if q:
                        add_col(j, t, -q)
                    dirty = dirty or bool(A[t][j])
            if dirty:
                p = select_pivot(t)
                continue
            viol = next((r for r in range(t + 1, m)
                         if any(A[r][c] % piv for c in range(t + 1, n))), -1)
            if viol < 0:
                break
            add_row(t, viol, 1)
            p = t, t
        t += 1
    return [A[k][k] for k in range(t)]


def engine_fixtures():
    """320 seeded matrices up to 12 x 12 (dense and sparse, small and large
    entries, zero rows and columns, products that need the divisibility
    fold), then the L_1 and reduced L_1 of LM(9..13) and M(3..5)."""
    yield from (IntMatrix(0, 4), IntMatrix(4, 0), IntMatrix(0, 0), IntMatrix(3, 5))
    yield from (IntMatrix.diagonal([2, 3]), IntMatrix.diagonal([4, 6, 10]))
    rng = random.Random(20261020)
    for k in range(314):
        m, n = rng.randint(1, 12), rng.randint(1, 12)
        if k % 4 == 3:
            # a diagonal whose entries need not divide each other, mixed
            # on both sides: its Smith form needs the divisibility fold
            d = [rng.choice((2, 3, 4, 5, 6, 9, 10, 12)) for _ in range(min(m, n))]
            rows = [[d[i] if i == j else 0 for j in range(n)] for i in range(m)]
            rows = mix_rows(rng, rows, 2 * m) if m > 1 else rows
            cols = [list(c) for c in zip(*rows)]
            cols = mix_rows(rng, cols, 2 * n) if n > 1 else cols
            rows = [list(r) for r in zip(*cols)]
        else:
            lo, hi = ((-9, 9), (-2, 2), (-40, 40))[k % 3]
            density = (1.0, 0.4, 0.15)[k // 3 % 3]
            rows = [[rng.randint(lo, hi) if rng.random() < density else 0
                     for _ in range(n)] for _ in range(m)]
            for _ in range(k % 3):  # zero rows and columns
                rows[rng.randrange(m)] = [0] * n
                c = rng.randrange(n)
                for r in rows:
                    r[c] = 0
        yield IntMatrix(m, n, rows)
    for comp in [linial_meshulam(n, 0.5, 1) for n in range(9, 14)] + [moore(m) for m in (3, 4, 5)]:
        yield laplacian(comp, 1)
        yield reduced_laplacian(comp, 1, find_torsion_free_tree(comp, 1))


def is_fold(op):
    # clearing steps add a pivot row to a row below it; a fold adds a row
    # below the pivot to the pivot row
    i, k, q = op
    return q is not None and k is not None and i < k


def test_snf_engine_matches_the_dense_oracle():
    folds = 0
    for a in engine_fixtures():
        logs = [], [], [], []
        d = _snf_engine(a.data, a.rows, a.cols, logs[0], logs[1])
        assert (d, logs[0], logs[1]) == (dense_snf_engine(a.data, a.rows, a.cols, logs[2], logs[3]),
                                         logs[2], logs[3])
        folds += any(map(is_fold, logs[0]))
    assert folds >= 50


def test_rows_and_solves_read_off_the_logs():
    rng = random.Random(20261021)
    for a in engine_fixtures():
        s = smith_normal_form(a)
        m, n = a.rows, a.cols
        u = s.u.data
        for j in range(m):
            e = [int(j == k) for k in range(m)]
            assert _apply_log(s.row_log, e[:], back=True) == u[j]
            if j < s.rank and s.d[j] > 1:
                d = s.d[j]
                row = _apply_log(s.row_log, e, back=True, mod=d)
                assert [x % d for x in row] == [x % d for x in u[j]]
                assert max(map(abs, row)) < d  # kept reduced on the way
        # a vector in the lattice, one next to it, and an arbitrary one
        v = a.apply([rng.randint(-5, 5) for _ in range(n)])
        near = v[:]
        if m:
            near[rng.randrange(m)] += rng.randint(1, 3)
        for k, v in enumerate((v, near, [rng.randint(-9, 9) for _ in range(m)])):
            w = s.u.apply(v)
            want = None
            if all(w[j] % dj == 0 for j, dj in enumerate(s.d)) and not any(w[s.rank:]):
                want = s.v.apply([w[j] // dj for j, dj in enumerate(s.d)] + [0] * (n - s.rank))
            assert _solve(s, v) == want
            if k == 0:
                assert want is not None and a.apply(want) == v


def test_snf_logs_are_pinned():
    # the logs of two Laplacians far larger than the transform fixtures
    for n, digest in ((12, "f06f6ecd79ff184543f4470df78860f0858afd2b08f7ed4e6635b7b71ec1cd4b"),
                      (14, "a1554523cdaf49187487f0c6d42e93c667cad7a8596a2d690192e9f489884363")):
        s = smith_normal_form(laplacian(linial_meshulam(n, 0.5, 1), 1))
        assert hashlib.sha256(repr((s.d, s.row_log, s.col_log)).encode()).hexdigest() == digest, n
