"""Exact integer linear algebra.

Everything here works over Z with Python's arbitrary-precision ints:
Smith normal form with its operation log, fraction-free (Bareiss)
determinants, pseudo-determinants, cokernels of integer maps as finitely
generated abelian groups, and integer linear solving via the Smith
transforms, applied as passes over the log.

A pseudo-determinant (the product of the nonzero eigenvalues of a
symmetric matrix L) comes from a basis B of L's own columns: L maps
col(B) into itself, so pdet(L) = |det(B^T L B)| / det(B^T B), two
Bareiss determinants of side rank(L) and one exact division.  It also
takes indefinite input.  The determinant of a positive definite matrix,
or |det| of any nonsingular one, is the product of its invariant
factors, which is cheaper on sparse input; the eigenvalue products of
the critical module are built from three such products, so no library
path but ``pseudo_determinant`` runs Bareiss.

``IntMatrix`` is dense.  Invariant factors are computed from sparse
rows, {col: nonzero value} dicts (``_sparse_invariant_factors``):
``invariant_factors``, cokernels and ranks convert an ``IntMatrix`` to
them, and the homology, the critical groups and the eigenvalue products
build theirs straight from the sparse boundary maps.  The one
fraction-free column reducer, ``column_basis`` with its step
``eliminate``, takes sparse columns, {row: nonzero value} dicts, in the
same way: a column is reduced only against the taken columns whose
pivot it holds, and each step touches only nonzeros, so the first basis
of a boundary map costs what its nonzeros and their fill-in cost, not
its dense shape.  Boundary maps and Laplacians of complexes are sparse and
almost unimodular, so +-1 pivots are eliminated first, in that form.  Each
pivot is taken from the shortest row that holds a +-1, in the sparsest
of that row's +-1 columns, and a heap of row lengths finds that row
without rescanning the matrix.  What is left is packed, each row into
one int whose lanes hold its columns (``_PackedRows``), and diagonalized
with no divisibility condition, by Euclid down column 0 and along the
pivot's row: a row step is one big-int operation on a whole row, and a
bound on each row, re-proved by a guard test of one add and one AND,
keeps the lanes from carrying.  A gcd/lcm pass turns the diagonal into
the invariant factors.  Invariant factors are
unique (each d_1 ... d_k is the gcd of the k x k minors, which no
unimodular step changes), so this path is free to pick its own pivots.
With a log of its row operations it also decides membership in a column
lattice (``_membership_rows``), where no U need be canonical.
The Smith form with transforms is not: its U and V, and so the group
coordinates read from U (``_coordinate_rows``), are canonical only for
its fixed min-|value| pivot rule, which it keeps.  Both take their rows
of U from ``_torsion_rows``.  When it takes the pivot at (t, t), the
rows above t are finished and zero in every column >= t, so its
clearing steps touch only the nonzeros of row and column t.  A row of
U, U * v and V * y are each one pass over a log (``_apply_log``); U, V
and their inverses are built, row by row through the same pass, only
when read.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from heapq import heapify, heappop, heappush
from math import gcd, prod


def _integers(values) -> tuple:
    """The values as a tuple of ints.  A value x with int(x) != x, such as
    0.5, raises ValueError, where int() alone would truncate it."""
    values = tuple(values)
    ints = tuple(map(int, values))
    if ints != values:
        x = next(x for x, n in zip(values, ints) if n != x)
        raise ValueError(f"non-integral value {x!r}")
    return ints


class IntMatrix:
    """A dense rows x cols matrix of Python ints.

    0 x n and n x 0 matrices are legal.  The operations are the ones the
    library builds its maps from: the matrix product ``*``, ``transpose``,
    ``submatrix``, ``apply`` (matrix times vector), and equality, with
    another matrix or with 0 (the zero test).  Instances are treated as
    immutable by the rest of the library: every operation returns a new
    matrix, and matrices handed out by caching layers must not be
    mutated.  Entries are taken as ints; a non-integral one, such as 1.5,
    raises ValueError.
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
            data = [list(_integers(row)) for row in data]
            if len(data) != rows or any(len(r) != cols for r in data):
                raise ValueError("data does not match the declared shape")
            self.data = data

    @classmethod
    def diagonal(cls, entries):
        entries = _integers(entries)
        m = cls(len(entries), len(entries))
        for i, e in enumerate(entries):
            m.data[i][i] = e
        return m

    @classmethod
    def from_columns(cls, rows, cols):
        """The rows x len(cols) matrix whose column c holds the (row, value)
        pairs of cols[c] and zeros elsewhere."""
        m = cls(rows, len(cols))
        for c, col in enumerate(cols):
            for r, x in col:
                m.data[r][c] = x
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
        return NotImplemented

    def __eq__(self, other):
        if isinstance(other, IntMatrix):
            return (self.rows, self.cols) == (other.rows, other.cols) and self.data == other.data
        if other == 0:
            return all(x == 0 for r in self.data for x in r)
        return NotImplemented

    def __repr__(self):
        if self.rows * self.cols <= 36:
            return f"IntMatrix({self.rows}, {self.cols}, {self.data})"
        return f"IntMatrix({self.rows}x{self.cols})"


@dataclass(frozen=True)
class SmithForm:
    """U * A * V = diag(d) with U, V unimodular and d_1 | d_2 | ... | d_r > 0.

    The elimination of A (of ``shape`` m x n) only logs its row and column
    operations; each transform is built from a log when first read, row by
    row through ``_apply_log``, a column operation on A being the same row
    operation on V^T.  The library itself reads rows of U and the products
    U * v and V * y off the logs and builds none of the four.
    """

    d: tuple
    rank: int
    shape: tuple
    row_log: tuple
    col_log: tuple

    u = cached_property(lambda self: _log_rows(self.row_log, self.shape[0]))
    u_inv = cached_property(lambda self: _log_rows(_inverse_log(self.row_log), self.shape[0]))
    v = cached_property(lambda self: _log_rows(self.col_log, self.shape[1]).transpose())
    v_inv = cached_property(lambda self: _log_rows(_inverse_log(self.col_log), self.shape[1]).transpose())


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


def _apply_log(log, v, back=False, mod=0):
    """v, a list changed in place and returned, under a logged operation
    sequence E_1..E_k.  Each E is an (i, k, q): (i, k, None) swaps rows i
    and k, (i, None, -1) negates row i, and (i, k, q) adds q times row k
    to row i.

    Forward this is E_k...E_1 * v: (i, k, q) adds q * v[k] to v[i], so a
    row log gives U * v.  ``back`` runs the transposed operations last
    first, (i, k, q) adding q * v[i] to v[k], which gives v^T E_k...E_1:
    row j of U from e_j and the row log.  Column operations act on the
    right (V = E_1...E_k), so the same backward pass over the column log
    gives V * y.  A swap swaps and a negation negates either way.  The
    backward pass with ``mod`` reduces each entry it adds to modulo
    ``mod``.
    """
    if not back:
        for i, k, q in log:
            if q is None:
                v[i], v[k] = v[k], v[i]
            elif k is None:
                v[i] = -v[i]
            elif v[k]:
                v[i] += q * v[k]
        return v
    for i, k, q in reversed(log):
        if q is None:
            v[i], v[k] = v[k], v[i]
        elif k is None:
            v[i] = -v[i]
        elif v[i]:
            v[k] = (v[k] + q * v[i]) % mod if mod else v[k] + q * v[i]
    return v


def _log_rows(log, size):
    """E_k...E_1 for the logged operations E_1..E_k: row j is e_j passed
    backward through the log."""
    return IntMatrix(size, size, [_apply_log(log, [int(k == j) for k in range(size)], back=True)
                                  for j in range(size)])


def _sparse_log_row(log, size, j, mod=0):
    """Row j of E_k...E_1 for the logged operations E_1..E_k, as its
    (index, nonzero entry) pairs: e_j passed backward through the log,
    mod ``mod``."""
    u = _apply_log(log, [int(k == j) for k in range(size)], back=True, mod=mod)
    return [(k, x) for k, x in enumerate(u) if x]


def _inverse_log(log):
    """The log of (E_k...E_1)^-1 = E_1^-1...E_k^-1: reversed, each add
    negated; a swap and a negation are their own inverses."""
    return [(i, k, q if q is None or k is None else -q) for i, k, q in reversed(log)]


def _snf_engine(a_data, m, n, row_log, col_log):
    """The invariant factors of the m x n a_data, which is not changed;
    each row and column operation is appended to ``row_log`` or
    ``col_log``.

    When the pivot at (t, t) is taken, the rows above t are finished and
    zero in every column >= t, and the rows from t on are zero in every
    column < t.  So a clearing pass touches only what can change: a row
    step adds the pivot row's nonzero columns, listed once per pass; a
    column step visits the rows >= t that are nonzero in column t; a
    column swap skips the rows above t; and a unit pivot divides every
    entry, so it needs no divisibility scan.
    """
    A = [row[:] for row in a_data]
    t = 0
    dim = min(m, n)
    while t < dim:
        p = _select_pivot(A, t, m, n)
        if p is None:
            break
        while True:
            pi, pj = p
            if pi != t:
                A[pi], A[t] = A[t], A[pi]
                row_log.append((pi, t, None))
            if pj != t:
                for i in range(t, m):
                    r = A[i]
                    r[pj], r[t] = r[t], r[pj]
                col_log.append((pj, t, None))
            At = A[t]
            if At[t] < 0:
                A[t] = At = [-x for x in At]
                row_log.append((t, None, -1))
            piv = At[t]
            # the row steps leave row t alone, and a column step changes
            # only the entry of row t that it clears
            nz = [(j, x) for j, x in enumerate(At) if x]
            dirty = False
            for i in range(t + 1, m):
                Ai = A[i]
                a = Ai[t]
                if a:
                    q = a // piv
                    if q:
                        for j, x in nz:
                            Ai[j] -= q * x
                        row_log.append((i, t, -q))
                    if Ai[t]:
                        dirty = True
            col = [A[i] for i in range(t, m) if A[i][t]]
            for j, a in nz:
                if j > t:
                    q = a // piv
                    if q:
                        for r in col:
                            r[j] -= q * r[t]
                        col_log.append((j, t, -q))
                    if At[j]:
                        dirty = True
            if dirty:
                # a remainder smaller than the pivot survived; re-pivot on it
                p = _select_pivot(A, t, m, n)
                continue
            if piv == 1:
                break
            viol = next((i for i in range(t + 1, m) if any(x % piv for x in A[i])), None)
            if viol is None:
                break
            # fold the offending row into row t; the next pass shrinks the pivot
            A[t] = [x + y for x, y in zip(At, A[viol])]
            row_log.append((t, viol, 1))
            p = t, t
        t += 1
    # each pivot is positive, and later steps never touch it
    return [A[k][k] for k in range(t)]


def smith_normal_form(a: IntMatrix) -> SmithForm:
    """Smith normal form with its row and column logs; the unimodular
    transforms and their inverses are built from them when first read.

    Deterministic: the pivot is always the nonzero entry of minimal
    absolute value, ties broken by lowest (row, col).
    """
    row_log, col_log = [], []
    d = _snf_engine(a.data, a.rows, a.cols, row_log, col_log)
    return SmithForm(d=tuple(d), rank=len(d), shape=(a.rows, a.cols),
                     row_log=tuple(row_log), col_log=tuple(col_log))


def _eliminate_unit_pivots(sparse_rows, log=None):
    """Sparse Schur elimination of +-1 pivots.

    A unit pivot p at (r, c) leaves the cokernel unchanged when row r and
    column c are replaced by the Schur complement A - A[:, c] * p * A[r, :],
    and it contributes one invariant factor 1.  Invariant factors are
    unique, so any pivot order gives the same ones; this one keeps fill-in
    low without rescanning the matrix.  A heap of (row length, row) is
    built once, and each row a Schur update changes is pushed again.  Each
    step pops the shortest live row (an entry is stale once its row is
    gone or its length has changed) and pivots on its +-1 in the column
    with the fewest nonzeros, ties to the lowest column; a row with no +-1
    is dropped until an update pushes it again.  So when the heap is empty
    no entry is +-1.  Zero rows and columns drop out.  Returns what is left
    as ``_PackedRows``, packed from the surviving dicts with no dense copy,
    each row named by its index, whose ``taken`` lists the pivot rows.  The
    matrix comes as its rows, {col: nonzero value} dicts, which the
    elimination changes.  With a ``log``, each Schur update is appended to
    it as a row operation in ``_apply_log``'s format.
    """
    # ascending row order
    rows = {r: row for r, row in enumerate(sparse_rows) if row}
    cols = {}  # col -> set of rows with a nonzero there
    for r, row in rows.items():
        for c in row:
            cols.setdefault(c, set()).add(r)
    heap = [(len(row), r) for r, row in rows.items()]
    heapify(heap)
    taken = []
    while heap:
        length, pr = heappop(heap)
        prow = rows.get(pr)
        if prow is None or len(prow) != length:
            continue
        unit_cols = [(len(cols[c]), c) for c, x in prow.items() if x == 1 or x == -1]
        if not unit_cols:
            continue
        pc = min(unit_cols)[1]
        del rows[pr]
        p = prow.pop(pc)
        pcol = cols.pop(pc)
        pcol.discard(pr)
        for s in pcol:
            srow = rows[s]
            f = srow.pop(pc) * p
            if log is not None:
                log.append((s, pr, -f))
            for cc, x in prow.items():
                old = srow.get(cc)
                if old is None:
                    srow[cc] = -f * x
                    cols[cc].add(s)
                    continue
                v = old - f * x
                if v:
                    srow[cc] = v
                else:
                    del srow[cc]
                    cols[cc].discard(s)
            if srow:
                heappush(heap, (len(srow), s))
            else:
                del rows[s]
        for cc in prow:
            col = cols[cc]
            col.discard(pr)
            if not col:
                del cols[cc]
        taken.append(pr)
    return _PackedRows(rows.values(), rows, taken)


class _PackedRows:
    """The rows of an integer matrix, each packed into one int: lane j,
    bits [j*width, (j+1)*width), holds the row's entry in the j-th column
    as a balanced base-2^width digit, the convention of
    ``trees._packed_root``.  Packed from a collection of {col: nonzero
    value} dicts, with no dense copy; columns with no nonzero get no
    lane.  Widths are whole bytes, so a row is packed and decoded in one
    pass through bytes.

    The lanes hold the columns sparsest first, ties to the lowest column,
    and ``_diagonalize`` pivots in lane order.  Euclid down a sparse
    column mixes few rows, so fill-in and entry growth stay low.  In
    column order, the 568-sided remainder of pi_2 of a shifted complex on
    40 vertices grew 1,700-bit entries and took minutes, where sparsest
    first takes about a second.

    ``ints`` holds the rows and ``bits`` a bound on each: every |entry|
    of row k is below 2^bits[k].  Whoever changes a row keeps its bound
    at most width - 1, so every lane stays a balanced digit and none
    carries into the next.  The width is worked out from the entries:
    ``guard`` leaves them room to grow by half, and the width leaves room
    past the guard for a step's quotient and 32 bits more, so that a row
    takes many steps between guard tests.  ``prove`` lowers a bound to
    the guard with one add and one AND; ``widen`` repacks every row in
    wider lanes.  ``ids`` names each row by the source row it came from
    (its place among ``rows`` unless given), and ``taken`` lists the ids
    of the rows pivoted on: those given, then ``_diagonalize``'s in order.
    """

    def __init__(self, rows, ids=None, taken=None):
        count = Counter(c for row in rows for c in row)
        lane = {c: j for j, c in enumerate(sorted(count, key=lambda c: (count[c], c)))}
        self.n = len(lane)
        top = max((abs(x).bit_length() for row in rows for x in row.values()), default=0)
        self._layout(top, 0)
        self.ints, self.bits = [], []
        for row in rows:
            v, b = self.pack((lane[c], x) for c, x in row.items())
            self.ints.append(v)
            self.bits.append(b)
        self.ids = list(range(len(self.ints)) if ids is None else ids)
        self.taken = [] if taken is None else taken

    def _layout(self, top, qbits):
        """Lanes for entries of ``top`` bits, wide enough for a step by a
        quotient of ``qbits`` bits."""
        self.guard = g = top + top // 2 + 8
        self.width = w = -(-(g + qbits + 32) // 8) * 8
        ones = int.from_bytes((b"\1" + bytes(w // 8 - 1)) * self.n, "little")
        self.offset = ones << (w - 1)  # makes every lane nonnegative
        # (v + off) & mask == 0 iff every lane is in [-2^(g-1), 2^(g-1))
        self.off = ones << (g - 1)
        self.mask = (ones << w) - (ones << g)

    def pack(self, items):
        """The int whose lanes are the (lane, value) ``items`` and zeros, and
        the bits of its largest |value|."""
        size = self.width // 8
        half = 1 << (self.width - 1)
        parts = [half.to_bytes(size, "little")] * self.n
        top = 0
        for j, x in items:
            parts[j] = (x + half).to_bytes(size, "little")
            top = max(top, abs(x).bit_length())
        return int.from_bytes(b"".join(parts), "little") - self.offset, top

    def unpack(self, v):
        """The n lanes of v, as a list."""
        size = self.width // 8
        half = 1 << (self.width - 1)
        b = (v + self.offset).to_bytes(self.n * size, "little")
        return [int.from_bytes(b[k:k + size], "little") - half for k in range(0, len(b), size)]

    def prove(self, k):
        """Lower row k's bound to the guard if the guard test shows its
        entries fit: each lane being a balanced digit, the test passes iff
        every entry is in [-2^(guard-1), 2^(guard-1))."""
        if self.bits[k] > self.guard and not (self.ints[k] + self.off) & self.mask:
            self.bits[k] = self.guard

    def widen(self, qbits):
        """Repack every row, decoded exactly since its bound held, in lanes
        wide enough for its largest entry and a step by a quotient of
        ``qbits`` bits."""
        rows = [self.unpack(v) for v in self.ints]
        self._layout(max(max(map(abs, row), default=0) for row in rows).bit_length(), qbits)
        for k, row in enumerate(rows):
            self.ints[k], self.bits[k] = self.pack(enumerate(row))
            rows[k] = None  # one decoded copy at most, shrinking as it goes

    def swap(self, k, row, j):
        """Swap columns 0 and j, when every row but row k is zero in column
        0: row k becomes its decoded lanes ``row`` so swapped, and each
        other row moves its lane j to lane 0.  Returns column 0."""
        row[0], row[j] = row[j], row[0]
        w = self.width
        half, digit = 1 << (w - 1), (1 << w) - 1
        s = j * w
        # (v + r) >> s is lanes j.. of v: r, half of 2^s, absorbs the
        # signed sum of the lanes below j, which is smaller than that
        r = 1 << (s - 1)
        lead = []
        for i, v in enumerate(self.ints):
            x = 0 if i == k else ((((v + r) >> s) & digit) ^ half) - half
            if x:
                self.ints[i] = v + x - (x << s)
            lead.append(x)
        self.ints[k], self.bits[k] = self.pack(enumerate(row))
        lead[k] = row[0]
        return lead

    def drop_column(self):
        """Drop column 0, which must be zero in every row."""
        w = self.width
        self.n -= 1
        self.ints[:] = [v >> w for v in self.ints]
        self.offset >>= w
        self.off >>= w
        self.mask >>= w


def _diagonalize(rows, log=None):
    """The diagonal, in no divisibility order, of a diagonal matrix
    equivalent to the ``_PackedRows`` rows, which are used up; zeros are
    left out.  With a ``log``, each row step and each negation of a pivot
    row is appended to it in ``_apply_log``'s format, under the rows' ids;
    the column steps are not logged.

    Columns are taken in lane order, sparsest first (``_PackedRows``).
    The pivot is the smallest nonzero |entry| of column 0, read off each
    row's low ``width`` bits; a zero column is shifted out.  Euclid runs
    down column 0 with row steps, each one ``v -= q * p`` on a whole row,
    by nearest quotients, each time pivoting on the smallest remainder.
    The column is then clear but for the pivot row, so Euclid along that
    row, by column steps, changes that row alone: it is decoded once and
    its entries are reduced modulo the pivot.  The smallest remainder that
    survives is swapped into column 0 in every row, and Euclid goes on
    down the column; when none survives, the pivot's row is dropped and
    its column is shifted out of every other row.

    A step v_i -= q * v_p bounds row i by max(b_i, bits(q) + b_p) + 1.
    Before a step whose bound would pass width - 1, both rows are
    re-proved with the guard test; if the step still does not fit, every
    row is repacked in lanes wide enough for it (``_PackedRows.widen``),
    so no lane ever carries and every step is taken at once.
    """
    ints, bits, ids = rows.ints, rows.bits, rows.ids
    diag = []
    while ints and rows.n:
        half = 1 << (rows.width - 1)
        digit = (1 << rows.width) - 1
        lead = [((v & digit) ^ half) - half for v in ints]
        best, pi = _least(lead)
        if not best:
            rows.drop_column()
            continue
        while True:
            while True:  # Euclid down column 0
                a = lead[pi]
                if a < 0:
                    ints[pi] = -ints[pi]
                    a = lead[pi] = -a
                    if log is not None:
                        log.append((ids[pi], None, -1))
                p, bp, h = ints[pi], bits[pi], a >> 1
                best = 0
                for i, c in enumerate(lead):
                    if c and i != pi:
                        q = (c + h) // a
                        if q:
                            qb = q.bit_length()
                            b = max(bits[i], qb + bp) + 1
                            if b >= rows.width:
                                rows.prove(i)
                                rows.prove(pi)
                                bp = bits[pi]
                                b = max(bits[i], qb + bp) + 1
                                if b >= rows.width:
                                    rows.widen(qb)
                                    p, bp = ints[pi], bits[pi]
                                    b = max(bits[i], qb + bp) + 1
                            ints[i] -= q * p
                            bits[i] = b
                            if log is not None:
                                log.append((ids[i], ids[pi], -q))
                            lead[i] = c = c - q * a
                        if c and (not best or abs(c) < best):
                            best, bi = abs(c), i
                if not best:
                    break
                pi = bi
            # column 0 is clear but for row pi: Euclid along that row
            if a == 1 or ints[pi] == a:
                break
            row = [x % a for x in rows.unpack(ints[pi])]
            best, j = _least(row)
            if not best:
                break
            row[0] = a
            lead = rows.swap(pi, row, j)
            best, pi = _least(lead)
        diag.append(a)
        rows.taken.append(ids.pop(pi))
        del ints[pi], bits[pi]
        rows.drop_column()
    return diag


def _least(values):
    """(|x|, index) of the nonzero x of least |x| in ``values``, ties to
    the lowest index; (0, None) if there is none."""
    return min(((abs(x), i) for i, x in enumerate(values) if x), default=(0, None))


def _normalize_diagonal(entries):
    """d_1 | d_2 | ... for the nonzero ones of the nonnegative ``entries``:
    Z/a + Z/b is Z/gcd(a, b) + Z/lcm(a, b), so the group they present is
    unchanged."""
    ones = entries.count(1)
    d = [e for e in entries if e > 1]
    for i in range(len(d)):
        for j in range(i + 1, len(d)):
            g = gcd(d[i], d[j])
            d[i], d[j] = g, d[i] // g * d[j]
    return (1,) * ones + tuple(d)


def invariant_factors(a: IntMatrix) -> tuple:
    """The d_1 | d_2 | ... | d_r of the Smith form (1's included).

    The dense rows are turned into the sparse ones that
    ``_sparse_invariant_factors`` factors.  Invariant factors are unique,
    so that path takes its own pivot order, with no divisibility scan;
    ``smith_normal_form`` keeps its min-|value| rule because its
    transforms, unlike the factors, depend on it.
    """
    return _sparse_invariant_factors([{c: x for c, x in enumerate(row) if x} for row in a.data])


def _sparse_invariant_factors(sparse_rows) -> tuple:
    """``invariant_factors`` of the matrix whose rows are the {col: nonzero
    value} dicts ``sparse_rows``, which are used up.

    Unit pivots are eliminated sparsely first, each adding a factor 1;
    ``_diagonalize`` then runs on the dense remainder only, and
    ``_normalize_diagonal`` turns its diagonal into a divisor chain.
    """
    rest = _eliminate_unit_pivots(sparse_rows)
    return (1,) * len(rest.taken) + _normalize_diagonal(_diagonalize(rest))


def _torsion_rows(log, m, pivots):
    """(j, row j of U mod a, a) for each (j, a) of ``pivots`` with a > 1,
    U being the m x m product of the ``log`` (``_sparse_log_row``)."""
    return [(j, _sparse_log_row(log, m, j, a), a) for j, a in pivots if a > 1]


def _membership_rows(sparse_rows):
    """(torsion, zero): w lies in the integer column span of the matrix A
    whose rows are the {col: nonzero value} dicts ``sparse_rows``, which
    are used up, iff u . w is divisible by a for each (j, u, a) in
    ``torsion`` and is 0 for each u in ``zero``; each u is a row of U, as
    its (index, nonzero entry) pairs.

    U logs the row operations of ``_sparse_invariant_factors``'
    eliminator; its column operations leave the span alone, and U A V is
    diagonal up to order.  So the rows of U that decide are those of the
    pivots a_j > 1, mod a_j and in ``_diagonalize``'s order (no divisor
    chain is needed, ``_torsion_rows``), and those of the rows that end up
    zero: every row that neither phase pivoted on, in ascending order.
    """
    m = len(sparse_rows)
    log = []
    rest = _eliminate_unit_pivots(sparse_rows, log)
    diag = [1] * len(rest.taken) + _diagonalize(rest, log)  # unit pivots first
    pivoted = set(rest.taken)
    return (_torsion_rows(log, m, zip(rest.taken, diag)),
            [_sparse_log_row(log, m, j) for j in range(m) if j not in pivoted])


def _coordinate_rows(a: IntMatrix):
    """(d, ``_torsion_rows`` of (j, d_j)) for the Smith form U * A * V =
    diag(d) of ``a``: the cokernel's moduli and coordinate rows, read off
    the row log; its min-|value| pivot rule fixes U, and so the residues."""
    s = smith_normal_form(a)
    return s.d, _torsion_rows(s.row_log, a.rows, enumerate(s.d))


def eliminate(v, b, p):
    """b[p]*v - v[p]*b divided by the gcd of its entries: the fraction-free
    step that clears row p of v against the pivot b[p] != 0.  Columns are
    {row: nonzero value} dicts; the result is a new one, and only the
    nonzeros of v and b are touched."""
    a, c = b[p], v[p]
    w = {r: a * x for r, x in v.items()}
    for r, y in b.items():
        x = w.get(r, 0) - c * y
        if x:
            w[r] = x
        else:
            del w[r]
    g = 0
    for x in w.values():
        g = gcd(g, x)
        if g == 1:
            return w
    return {r: x // g for r, x in w.items()} if g > 1 else w


def column_basis(cols):
    """The lexicographically first maximal independent set of columns.

    ``cols`` yields (index, column) pairs, each column a {row: nonzero
    value} dict, which is not changed.  For each one this yields
    (index, steps, taken): ``taken`` says whether the column is
    independent of the columns taken before it, ``steps`` how many of
    those it was checked against in turn (a column stops as soon as it is
    zero).  Taken columns are kept reduced, each with its lowest row as
    pivot, and a column is reduced with ``eliminate`` against those whose
    pivot it holds.
    """
    basis = []  # (pivot, taken column reduced against the earlier ones)
    for j, v in cols:
        steps = 0
        for p, b in basis:
            steps += 1
            if p in v:
                v = eliminate(v, b, p)
                if not v:
                    break
        taken = bool(v)
        if taken:
            basis.append((min(v), v))
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


def pseudo_determinant(a: IntMatrix) -> int:
    """Product of the nonzero eigenvalues of a symmetric matrix, in absolute
    value; 1 for a zero (or 0 x 0) matrix, as an empty product.

    With B the first maximal independent set of a's columns, a maps
    col(B) = col(a) into itself, so the value is |det(B^T a B)| /
    det(B^T B): two Bareiss determinants of side rank(a) and an exact
    division; no characteristic polynomial is formed.  Asymmetric input
    is rejected: the contract assumes the matrix is a Gram matrix M * M^T,
    which guarantees positive semidefiniteness.
    """
    if not a.is_square:
        raise ValueError("pseudo-determinant of a non-square matrix")
    if not a.is_symmetric():
        raise ValueError("pseudo-determinant requires a symmetric matrix")
    # a is symmetric, so column j is row j
    cols = ((j, {r: x for r, x in enumerate(row) if x}) for j, row in enumerate(a.data))
    keep = [j for j, _, taken in column_basis(cols) if taken]
    b = a.submatrix(range(a.rows), keep)
    bt = b.transpose()
    return abs(determinant(bt * (a * b))) // determinant(bt * b)


def cokernel(a: IntMatrix) -> AbelianGroup:
    """Z^rows modulo the integer column span of a."""
    facs = invariant_factors(a)
    return AbelianGroup(betti=a.rows - len(facs), torsion=tuple(f for f in facs if f > 1))


def lattice_membership(a: IntMatrix, v):
    """An integer x with a*x = v, or None if v is outside the column lattice.

    Uses the Smith transforms: with U*A*V = D and w = U*v, a solution
    exists iff d_j | w_j for j < rank and w_j = 0 beyond the rank.  U * v
    and V * y are one pass each over the elimination's logs, so neither
    transform is built.  Each logged step touches only its pivot's row
    and column: the rows above the pivot are finished, zero in every
    later column.
    """
    v = list(_integers(v))
    if len(v) != a.rows:
        raise ValueError("vector length does not match row count")
    return _solve(smith_normal_form(a), v)


def _solve(s: SmithForm, v):
    """``lattice_membership`` for the matrix whose Smith form is s, so that
    callers that solve many times with one matrix pay its Smith form once."""
    w = _apply_log(s.row_log, list(v))
    y = [0] * s.shape[1]
    for j, dj in enumerate(s.d):
        q, r = divmod(w[j], dj)
        if r:
            return None
        y[j] = q
    if any(w[s.rank:]):
        return None
    return _apply_log(s.col_log, y, back=True)
