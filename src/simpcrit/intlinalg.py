"""Exact integer linear algebra.

Everything here works over Z with Python's arbitrary-precision ints:
Smith normal form with unimodular transforms, fraction-free (Bareiss)
determinants, pseudo-determinants, cokernels of integer maps as finitely
generated abelian groups, and integer linear solving via the Smith
transforms.

A pseudo-determinant (the product of the nonzero eigenvalues of a
symmetric matrix L) comes from a basis B of L's column space, taken from
the columns of any F with col(F) = col(L): L maps col(B) into itself, so
pdet(L) = det(B^T L B) / det(B^T B), two Bareiss determinants of side
rank(L) and one exact division.

Matrices are dense.  Invariant factors, cokernels and ranks first
eliminate +-1 pivots in a private sparse form, since the boundary maps
and Laplacians of complexes are sparse and almost unimodular; the dense
Smith form then runs only on what is left.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, prod


class IntMatrix:
    """A dense rows x cols matrix of Python ints.

    0 x n and n x 0 matrices are legal.  Instances are treated as
    immutable by the rest of the library: every operation returns a new
    matrix, and matrices handed out by caching layers must not be
    mutated.
    """

    __slots__ = ("rows", "cols", "data")

    def __init__(self, rows, cols, data=None):
        if rows < 0 or cols < 0:
            raise ValueError("matrix dimensions must be nonnegative")
        self.rows = rows
        self.cols = cols
        if data is None:
            self.data = [[0] * cols for _ in range(rows)]
        else:
            data = [[int(x) for x in row] for row in data]
            if len(data) != rows or any(len(r) != cols for r in data):
                raise ValueError("data does not match the declared shape")
            self.data = data

    @classmethod
    def identity(cls, n):
        m = cls(n, n)
        for i in range(n):
            m.data[i][i] = 1
        return m

    @classmethod
    def diagonal(cls, entries, rows=None, cols=None):
        entries = [int(x) for x in entries]
        r = len(entries) if rows is None else rows
        c = len(entries) if cols is None else cols
        m = cls(r, c)
        for i, e in enumerate(entries):
            m.data[i][i] = e
        return m

    def __getitem__(self, ij):
        i, j = ij
        return self.data[i][j]

    def column(self, j):
        return [r[j] for r in self.data]

    @property
    def is_square(self):
        return self.rows == self.cols

    def is_symmetric(self):
        if not self.is_square:
            return False
        d = self.data
        return all(d[i][j] == d[j][i] for i in range(self.rows) for j in range(i))

    def transpose(self):
        out = IntMatrix(self.cols, self.rows)
        od = out.data
        for i, r in enumerate(self.data):
            for j, x in enumerate(r):
                od[j][i] = x
        return out

    def submatrix(self, row_indices, col_indices):
        row_indices = list(row_indices)
        col_indices = list(col_indices)
        d = self.data
        return IntMatrix(
            len(row_indices),
            len(col_indices),
            [[d[i][j] for j in col_indices] for i in row_indices],
        )

    def apply(self, vec):
        """Matrix times column vector, returned as a list of ints."""
        vec = list(vec)
        if len(vec) != self.cols:
            raise ValueError("vector length does not match column count")
        return [sum(a * x for a, x in zip(r, vec) if a) for r in self.data]

    def __mul__(self, other):
        if isinstance(other, IntMatrix):
            if self.cols != other.rows:
                raise ValueError("incompatible shapes for matrix product")
            out = IntMatrix(self.rows, other.cols)
            od, bd = out.data, other.data
            for i, arow in enumerate(self.data):
                orow = od[i]
                for t, a in enumerate(arow):
                    if a:
                        brow = bd[t]
                        for j, b in enumerate(brow):
                            if b:
                                orow[j] += a * b
            return out
        if isinstance(other, int):
            return IntMatrix(self.rows, self.cols, [[other * x for x in r] for r in self.data])
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, int):
            return self.__mul__(other)
        return NotImplemented

    def __add__(self, other):
        if not isinstance(other, IntMatrix):
            return NotImplemented
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("incompatible shapes for matrix sum")
        return IntMatrix(
            self.rows, self.cols,
            [[a + b for a, b in zip(r1, r2)] for r1, r2 in zip(self.data, other.data)],
        )

    def __sub__(self, other):
        if not isinstance(other, IntMatrix):
            return NotImplemented
        return self.__add__(-other)

    def __neg__(self):
        return IntMatrix(self.rows, self.cols, [[-x for x in r] for r in self.data])

    def __eq__(self, other):
        if isinstance(other, IntMatrix):
            return (self.rows, self.cols) == (other.rows, other.cols) and self.data == other.data
        if other == 0:
            return all(x == 0 for r in self.data for x in r)
        return NotImplemented

    def __hash__(self):
        return hash((self.rows, self.cols, tuple(tuple(r) for r in self.data)))

    def __repr__(self):
        if self.rows * self.cols <= 36:
            return f"IntMatrix({self.rows}, {self.cols}, {self.data})"
        return f"IntMatrix({self.rows}x{self.cols})"


@dataclass(frozen=True)
class SmithForm:
    """U * A * V = diag(d) with U, V unimodular and d_1 | d_2 | ... | d_r > 0.

    ``u_inv`` and ``v_inv`` are the exact inverses of the transforms.  No
    library code reads them: integer solving and group coordinates use
    ``u`` and ``v`` only.  They stay because the benchmark tracer reads
    their bit-lengths and the tests check them.
    """

    d: tuple
    rank: int
    u: IntMatrix
    v: IntMatrix
    u_inv: IntMatrix
    v_inv: IntMatrix
    source_rows: int
    source_cols: int

    def diagonal_matrix(self):
        return IntMatrix.diagonal(self.d, self.source_rows, self.source_cols)


@dataclass(frozen=True)
class AbelianGroup:
    """A finitely generated abelian group Z^betti + Z/t_1 + ... + Z/t_k,
    with invariant factors 1 < t_1 | t_2 | ... | t_k."""

    betti: int
    torsion: tuple

    @property
    def order(self):
        """Order of the torsion part (the whole group when betti = 0)."""
        return prod(self.torsion)

    def __str__(self):
        parts = ["Z"] * self.betti + [f"Z/{t}" for t in self.torsion]
        return " + ".join(parts) if parts else "0"


def _select_pivot(A, t, m, n):
    """Nonzero entry of minimal |value| in A[t:, t:]; ties to lowest (row, col)."""
    best = 0
    bi = bj = -1
    for i in range(t, m):
        Ai = A[i]
        for j in range(t, n):
            a = Ai[j]
            if a:
                if a < 0:
                    a = -a
                if best == 0 or a < best:
                    best, bi, bj = a, i, j
                    if best == 1:
                        return bi, bj
    return (bi, bj) if best else None


def _snf_engine(a_data, m, n, want_transforms):
    A = [row[:] for row in a_data]
    if want_transforms:
        U = [[int(i == j) for j in range(m)] for i in range(m)]
        Ui = [[int(i == j) for j in range(m)] for i in range(m)]
        V = [[int(i == j) for j in range(n)] for i in range(n)]
        Vi = [[int(i == j) for j in range(n)] for i in range(n)]
    else:
        U = Ui = V = Vi = None

    def swap_rows(i, k):
        A[i], A[k] = A[k], A[i]
        if U is not None:
            U[i], U[k] = U[k], U[i]
            for r in range(m):
                Uir = Ui[r]
                Uir[i], Uir[k] = Uir[k], Uir[i]

    def add_row(i, k, q):
        # row i += q * row k
        Ai, Ak = A[i], A[k]
        for j in range(n):
            if Ak[j]:
                Ai[j] += q * Ak[j]
        if U is not None:
            Uiq, Ukq = U[i], U[k]
            for j in range(m):
                if Ukq[j]:
                    Uiq[j] += q * Ukq[j]
            for r in range(m):
                Uir = Ui[r]
                if Uir[i]:
                    Uir[k] -= q * Uir[i]

    def neg_row(i):
        A[i] = [-x for x in A[i]]
        if U is not None:
            U[i] = [-x for x in U[i]]
            for r in range(m):
                Ui[r][i] = -Ui[r][i]

    def swap_cols(j, k):
        for r in A:
            r[j], r[k] = r[k], r[j]
        if V is not None:
            for r in V:
                r[j], r[k] = r[k], r[j]
            Vi[j], Vi[k] = Vi[k], Vi[j]

    def add_col(j, k, q):
        # col j += q * col k
        for r in A:
            if r[k]:
                r[j] += q * r[k]
        if V is not None:
            for r in V:
                if r[k]:
                    r[j] += q * r[k]
            Vik, Vij = Vi[k], Vi[j]
            for c in range(n):
                if Vij[c]:
                    Vik[c] -= q * Vij[c]

    t = 0
    dim = min(m, n)
    while t < dim:
        p = _select_pivot(A, t, m, n)
        if p is None:
            break
        pi, pj = p
        if pi != t:
            swap_rows(pi, t)
        if pj != t:
            swap_cols(pj, t)
        if A[t][t] < 0:
            neg_row(t)
        while True:
            piv = A[t][t]
            dirty = False
            for i in range(t + 1, m):
                a = A[i][t]
                if a:
                    q = a // piv
                    if q:
                        add_row(i, t, -q)
                    if A[i][t]:
                        dirty = True
            for j in range(t + 1, n):
                a = A[t][j]
                if a:
                    q = a // piv
                    if q:
                        add_col(j, t, -q)
                    if A[t][j]:
                        dirty = True
            if dirty:
                # a remainder smaller than the pivot survived; re-pivot on it
                pi, pj = _select_pivot(A, t, m, n)
                if pi != t:
                    swap_rows(pi, t)
                if pj != t:
                    swap_cols(pj, t)
                if A[t][t] < 0:
                    neg_row(t)
                continue
            piv = A[t][t]
            viol = -1
            for r in range(t + 1, m):
                Ar = A[r]
                for c in range(t + 1, n):
                    if Ar[c] % piv:
                        viol = r
                        break
                if viol >= 0:
                    break
            if viol < 0:
                break
            # fold the offending row into row t; the next pass shrinks the pivot
            add_row(t, viol, 1)
        t += 1

    d = []
    for k in range(dim):
        if A[k][k] == 0:
            break
        d.append(A[k][k])
    return d, U, V, Ui, Vi


def smith_normal_form(a: IntMatrix) -> SmithForm:
    """Smith normal form with unimodular transforms and their inverses.

    Deterministic: the pivot is always the nonzero entry of minimal
    absolute value, ties broken by lowest (row, col).
    """
    d, U, V, Ui, Vi = _snf_engine(a.data, a.rows, a.cols, True)
    return SmithForm(
        d=tuple(d),
        rank=len(d),
        u=IntMatrix(a.rows, a.rows, U),
        v=IntMatrix(a.cols, a.cols, V),
        u_inv=IntMatrix(a.rows, a.rows, Ui),
        v_inv=IntMatrix(a.cols, a.cols, Vi),
        source_rows=a.rows,
        source_cols=a.cols,
    )


def _eliminate_unit_pivots(a_data):
    """Sparse Schur elimination of +-1 pivots.

    A unit pivot p at (r, c) leaves the cokernel unchanged when row r and
    column c are replaced by the Schur complement A - A[:, c] * p * A[r, :],
    and it contributes one invariant factor 1.  Pivots are taken by least
    Markowitz cost (row nonzeros - 1) * (column nonzeros - 1), ties to the
    lowest (row, col), until no entry is +-1; zero rows and columns drop
    out.  Returns the pivot count and the dense rows of what is left.
    """
    rows = {}  # row -> {col: nonzero value}, ascending row order
    cols = {}  # col -> set of rows with a nonzero there
    for r, row in enumerate(a_data):
        sparse = {c: x for c, x in enumerate(row) if x}
        if sparse:
            rows[r] = sparse
            for c in sparse:
                cols.setdefault(c, set()).add(r)
    units = 0
    while True:
        # rows are scanned in ascending order, so only a pivot in the same
        # row can tie with the best one and win on a lower column
        best = -1
        for r, row in rows.items():
            others = len(row) - 1
            for c, x in row.items():
                if x == 1 or x == -1:
                    cost = others * (len(cols[c]) - 1)
                    if best < 0 or cost < best or (cost == best and r == pr and c < pc):
                        best, pr, pc = cost, r, c
            if best == 0:
                break
        if best < 0:
            break
        prow = rows.pop(pr)
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
            if not srow:
                del rows[s]
        for cc in prow:
            if not cols[cc]:
                del cols[cc]
        units += 1
    keep = sorted(cols)
    return units, [[row.get(c, 0) for c in keep] for row in rows.values()]


def invariant_factors(a: IntMatrix) -> tuple:
    """The d_1 | d_2 | ... | d_r of the Smith form (1's included).

    Unit pivots are eliminated sparsely first, each adding a factor 1;
    the dense Smith form then runs on the remainder only.  Invariant
    factors are unique, so the pivot order never changes the result.
    """
    units, rest = _eliminate_unit_pivots(a.data)
    d, *_ = _snf_engine(rest, len(rest), len(rest[0]) if rest else 0, False)
    return (1,) * units + tuple(d)


def eliminate(v, b, p):
    """b[p]*v - v[p]*b divided by its gcd: the fraction-free step that
    clears position p of v against the pivot b[p] != 0."""
    a, c = b[p], v[p]
    w = [a * x - c * y for x, y in zip(v, b)]
    g = 0
    for x in w:
        g = gcd(g, x)
        if g == 1:
            return w
    return [x // g for x in w] if g > 1 else w


def column_basis(cols):
    """The lexicographically first maximal independent set of columns.

    ``cols`` yields (index, column) pairs.  For each one this yields
    (index, steps, taken): ``taken`` says whether the column is
    independent of the columns taken before it, ``steps`` how many of
    those it was reduced against with ``eliminate`` (a column stops as
    soon as it is zero).  Taken columns are kept reduced.
    """
    basis = []  # (pivot, taken column reduced against the earlier ones)
    for j, v in cols:
        steps = 0
        for p, b in basis:
            steps += 1
            if v[p]:
                v = eliminate(v, b, p)
                if not any(v):
                    break
        taken = any(v)
        if taken:
            p = 0
            while not v[p]:
                p += 1
            basis.append((p, v))
        yield j, steps, taken


def rank(a: IntMatrix) -> int:
    return len(invariant_factors(a))


def determinant(a: IntMatrix) -> int:
    """Exact determinant by fraction-free (Bareiss) elimination."""
    if not a.is_square:
        raise ValueError("determinant of a non-square matrix")
    n = a.rows
    if n == 0:
        return 1
    M = [row[:] for row in a.data]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if M[k][k] == 0:
            for i in range(k + 1, n):
                if M[i][k]:
                    M[k], M[i] = M[i], M[k]
                    sign = -sign
                    break
            else:
                return 0
        Mk = M[k]
        pkk = Mk[k]
        for i in range(k + 1, n):
            Mi = M[i]
            mik = Mi[k]
            for j in range(k + 1, n):
                Mi[j] = (Mi[j] * pkk - mik * Mk[j]) // prev
            Mi[k] = 0
        prev = pkk
    return sign * M[n - 1][n - 1]


def char_poly(a: IntMatrix) -> list:
    """Coefficients of det(xI - A), highest power first.

    Faddeev-LeVerrier with exact integer arithmetic; every division is
    exact for integer input.  O(n^4) big-integer work, so nothing in the
    package calls it: it is the test oracle of ``pseudo_determinant`` and
    ``pi_product``, and ``bench/tracing.py`` traces it by this name.
    """
    if not a.is_square:
        raise ValueError("characteristic polynomial of a non-square matrix")
    n = a.rows
    coeffs = [1]
    M = [[int(i == j) for j in range(n)] for i in range(n)]
    Ad = a.data
    for k in range(1, n + 1):
        AM = [[0] * n for _ in range(n)]
        for i in range(n):
            Ai = Ad[i]
            AMi = AM[i]
            for t in range(n):
                x = Ai[t]
                if x:
                    Mt = M[t]
                    for j in range(n):
                        if Mt[j]:
                            AMi[j] += x * Mt[j]
        tr = sum(AM[i][i] for i in range(n))
        q, r = divmod(-tr, k)
        if r:
            raise ArithmeticError("inexact division in Faddeev-LeVerrier")
        coeffs.append(q)
        for i in range(n):
            AM[i][i] += q
        M = AM
    return coeffs


def _pdet_on_basis(a: IntMatrix, f: IntMatrix) -> int:
    """Product of the nonzero eigenvalues of a symmetric a whose column
    space is that of f, in absolute value: |det(B^T a B)| / det(B^T B),
    B the first maximal independent set of f's columns.  a maps col(B)
    into itself, so the division is exact."""
    keep = [j for j, _, taken in column_basis((j, f.column(j)) for j in range(f.cols)) if taken]
    b = f.submatrix(range(f.rows), keep)
    bt = b.transpose()
    return abs(determinant(bt * (a * b))) // determinant(bt * b)


def pseudo_determinant(a: IntMatrix) -> int:
    """Product of the nonzero eigenvalues of a symmetric matrix, in absolute
    value; 1 for a zero (or 0 x 0) matrix, as an empty product.

    Computed from a basis B of a's own columns as |det(B^T a B)| /
    det(B^T B), two Bareiss determinants of side rank(a) and an exact
    division; no characteristic polynomial is formed.  Asymmetric input
    is rejected: the contract assumes the matrix is a Gram matrix M * M^T,
    which guarantees positive semidefiniteness.
    """
    if not a.is_square:
        raise ValueError("pseudo-determinant of a non-square matrix")
    if not a.is_symmetric():
        raise ValueError("pseudo-determinant requires a symmetric matrix")
    return _pdet_on_basis(a, a)


def cokernel(a: IntMatrix) -> AbelianGroup:
    """Z^rows modulo the integer column span of a."""
    facs = invariant_factors(a)
    return AbelianGroup(betti=a.rows - len(facs), torsion=tuple(f for f in facs if f > 1))


def lattice_membership(a: IntMatrix, v):
    """An integer x with a*x = v, or None if v is outside the column lattice.

    Uses the Smith transforms: with U*A*V = D and w = U*v, a solution
    exists iff d_j | w_j for j < rank and w_j = 0 beyond the rank.
    """
    v = [int(x) for x in v]
    if len(v) != a.rows:
        raise ValueError("vector length does not match row count")
    return _solve(smith_normal_form(a), v)


def _solve(s: SmithForm, v):
    """``lattice_membership`` for the matrix whose Smith form is s, so that
    callers that solve many times with one matrix pay its Smith form once."""
    w = s.u.apply(v)
    y = [0] * s.source_cols
    for j, dj in enumerate(s.d):
        q, r = divmod(w[j], dj)
        if r:
            return None
        y[j] = q
    if any(w[j] for j in range(s.rank, s.source_rows)):
        return None
    return s.v.apply(y)
