"""Critical groups of simplicial complexes.

Two independent routes to the same group:

* ``critical_group_direct`` works straight from the definition,
  ker(boundary) modulo the image of the up-down Laplacian, with no
  hypotheses beyond the dimension range.  It is the ground truth.
  Since im(boundary_i) is free, ker(boundary_i) is a direct summand of
  the i-chains and coker(Laplacian) = K_i + Z^rank(boundary_i), so no
  kernel basis is needed.
* ``critical_group_reduced`` is the fast path through the reduced
  Laplacian of a torsion-free spanning tree; agreement of the two is
  the content of the main structure theorem and is what the test suite
  checks on every fixture.

Neither route forms its Laplacian.  Each is B B^T, B being
boundary_{i+1} on the i-faces kept (all of them, or those outside the
tree), and two unimodular block steps turn [[I, B^T], [B, 0]] into
[[I, 0], [0, -B B^T]].  So both factor that sparse block matrix, built
from the complex's memoized sparse boundary columns
(``_block_cokernel``), and so do the eigenvalue products and the
determinant form of the matrix-tree theorem.  ``laplacian`` and
``reduced_laplacian`` remain for the flows module, the simplex checks,
and callers that want the matrices.

The module also builds the skew-style stacked matrix of reduced
boundary/coboundary maps for skeleta of simplices and verifies its
cokernel identities, computes the eigenvalue products pi_j and their
alternating quotient, and checks both identities of the simplicial
matrix-tree theorem against the tree census.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import islice
from math import comb, prod

from .complexes import SimplicialComplex
from .generators import simplex_skeleton
from .intlinalg import (
    AbelianGroup,
    IntMatrix,
    _normalize_diagonal,
    _sparse_invariant_factors,
    cokernel,
    column_basis,
)
from .trees import (
    DEFAULT_BUDGET,
    BudgetExceededError,
    NotAcyclicError,
    as_spanning_tree,
    enumerate_trees,
    require_torsion_free,
)


def laplacian(comp: SimplicialComplex, i) -> IntMatrix:
    """The up-down Laplacian boundary_{i+1} times its transpose on i-chains,
    an f_i x f_i symmetric matrix built once per complex, from the sparse
    boundary columns (``_laplacian_rows``).

    It is zero when i is the top dimension.  Dimension -1 is allowed: its
    Laplacian is the 1 x 1 matrix [f_0] coming from the augmentation.
    """
    if not -1 <= i <= comp.dim:
        raise ValueError(f"dimension {i} out of range [-1, {comp.dim}]")

    def build():
        # L is symmetric, so its rows are its columns
        n = len(comp.faces(i))
        return IntMatrix.from_columns(n, [row.items() for row in _laplacian_rows(comp, i)])

    return comp._memoized(("laplacian", i), build)


def _laplacian_rows(comp: SimplicialComplex, i) -> list:
    """The rows of ``laplacian(comp, i)`` as fresh {col: nonzero value}
    dicts: B B^T is the sum of the outer products of B's columns, so each
    sparse column of B = boundary_{i+1} adds x * y at (r, s) for each
    two of its (row, value) pairs.  All empty at the top dimension."""
    rows = [{} for _ in comp.faces(i)]
    for col in comp._boundary_columns(i + 1) if i < comp.dim else ():
        for r, x in col:
            row = rows[r]
            for s, y in col:
                row[s] = row.get(s, 0) + x * y
    return [{s: x for s, x in row.items() if x} for row in rows]


def _theta_indices(comp: SimplicialComplex, i, tree) -> list:
    """Indices of the i-faces outside the tree, in lexicographic order."""
    in_tree = set(tree.top_faces)
    return [j for j, f in enumerate(comp.faces(i)) if f not in in_tree]


def reduced_laplacian(comp: SimplicialComplex, i, tree) -> IntMatrix:
    """Up-down Laplacian restricted to the i-faces outside the tree.

    Rows and columns follow the lexicographic order of the complement.
    ``tree`` may be a SpanningTree or an iterable of i-faces; it is
    checked once per complex (``as_spanning_tree``), and NotATreeError is
    raised if it is not one.
    """
    theta = _theta_indices(comp, i, as_spanning_tree(comp, i, tree))
    return laplacian(comp, i).submatrix(theta, theta)


def _block_cokernel(cols, theta) -> AbelianGroup:
    """coker(B B^T), B being the matrix of the sparse columns ``cols``
    ((row, value) pairs) on the rows indexed by ``theta``, read off the
    sparse block matrix M = [[I, B^T], [B, 0]] without forming B B^T.

    Subtracting B times the first block row from the second, then the
    first block column times B^T from the second, are unimodular steps
    that turn M into [[I, 0], [0, -B B^T]].  So M has the invariant
    factors of B B^T and len(cols) more 1's, and its cokernel is that of
    B B^T, free rank included.  Rows 0 .. len(cols) - 1 of M belong to
    the columns of B, the rest to theta in its order.
    """
    off = len(cols)
    pos = {r: off + k for k, r in enumerate(theta)}
    rows = [{c: 1} for c in range(off)] + [{} for _ in pos]
    for c, col in enumerate(cols):
        for r, x in col:
            p = pos.get(r)
            if p is not None:
                rows[c][p] = rows[p][c] = x
    facs = _sparse_invariant_factors(rows)
    return AbelianGroup(len(pos) + off - len(facs), tuple(f for f in facs if f > 1))


def critical_group_reduced(comp: SimplicialComplex, i, tree) -> AbelianGroup:
    """K_i as the cokernel of the reduced Laplacian of a torsion-free tree.

    That Laplacian is B B^T for B, boundary_{i+1} on the i-faces outside
    the tree, and its cokernel is read off [[I, B^T], [B, 0]] (see
    ``_block_cokernel``), so it is never formed.
    """
    if not 0 <= i < comp.dim:
        raise ValueError(f"dimension {i} out of range [0, {comp.dim})")
    tree = require_torsion_free(as_spanning_tree(comp, i, tree))
    return _block_cokernel(comp._boundary_columns(i + 1), _theta_indices(comp, i, tree))


def critical_group_direct(comp: SimplicialComplex, i) -> AbelianGroup:
    """K_i straight from the definition: ker(boundary_i) / im(Laplacian).

    The image of boundary_i is free, so its kernel is a direct summand of
    the i-chains and coker(Laplacian) = K_i + Z^rank(boundary_i).  K_i is
    the cokernel of the Laplacian with rank(boundary_i) taken off its free
    part.  No tree is involved.  The Laplacian is B B^T for B =
    boundary_{i+1}, and its cokernel is read off [[I, B^T], [B, 0]] (see
    ``_block_cokernel``), so it is never formed.

    The image lies in the kernel because boundary_i boundary_{i+1} = 0,
    which is checked on the sparse columns first.  That is the same as
    boundary_i L = 0: with X = boundary_i boundary_{i+1}, boundary_i L = X
    boundary_{i+1}^T, and boundary_i L boundary_i^T = X X^T, which is 0
    only if X is.
    """
    if not 0 <= i < comp.dim:
        raise ValueError(f"dimension {i} out of range [0, {comp.dim})")
    below = comp._boundary_columns(i)
    for col in comp._boundary_columns(i + 1):
        image = {}
        for r, sign in col:
            for q, s in below[r]:
                image[q] = image.get(q, 0) + sign * s
        if any(image.values()):
            raise AssertionError("Laplacian image escaped the boundary kernel")
    g = _block_cokernel(comp._boundary_columns(i + 1), range(len(comp.faces(i))))
    return AbelianGroup(g.betti - len(comp._boundary_factors(i)), g.torsion)


# -- skeleta of simplices -------------------------------------------------


def maxwell_matrix(n, k) -> IntMatrix:
    """The stacked reduced boundary/coboundary matrix of the n-vertex simplex.

    Rows: the boundary map on k-faces with the rows of (k-1)-faces
    containing vertex 1 deleted, on top of the negated coboundary map
    into (k+1)-faces with only the rows of (k+1)-faces containing
    vertex 1 kept.  The result is square of side C(n-1,k) + C(n-1,k+1)
    and its cokernel is (Z/n)^C(n-2,k).
    """
    return _skeleton_and_maxwell(n, k)[1]


def _skeleton_and_maxwell(n, k):
    """The (k+1)-skeleton of the n-vertex simplex and its stacked matrix.

    Every simplex check reads faces of dimension k-1 to k+1 only, so the
    skeleton gives the same matrices as the whole simplex without its
    2^n faces; k is checked before anything is built.
    """
    if not 1 <= k <= n - 2:
        raise ValueError("need 1 <= k <= n - 2")
    comp = simplex_skeleton(n, k + 1)
    bd_k = comp.boundary_matrix(k)
    keep_low = [r for r, f in enumerate(comp.faces(k - 1)) if 1 not in f]
    top = [bd_k.data[r][:] for r in keep_low]
    cb = comp.boundary_matrix(k + 1).transpose()
    keep_high = [r for r, f in enumerate(comp.faces(k + 1)) if 1 in f]
    bottom = [[-x for x in cb.data[r]] for r in keep_high]
    return comp, IntMatrix(len(top) + len(bottom), bd_k.cols, top + bottom)


@dataclass(frozen=True)
class SimplexStructureReport:
    """Cross-checks between the stacked matrix and the critical groups
    of the n-vertex simplex at dimensions k-1 and k.

    ``aat_matches`` records which direct sum the cokernel of A*A^T
    agreed with: the doubled K_{k-1}, the sum K_{k-1} + K_k, or both
    (they coincide exactly when C(n-2,k) = C(n-2,k+1)).
    """

    n: int
    k: int
    coker_a: tuple
    coker_aat: tuple
    factors_k_minus_1: tuple
    factors_k: tuple
    blocks_ok: bool
    cyclic_ok: bool
    exponent_k_minus_1_ok: bool
    exponent_k_ok: bool
    maxwell_ok: bool
    aat_matches: str

    @property
    def passed(self):
        return (
            self.blocks_ok
            and self.cyclic_ok
            and self.exponent_k_minus_1_ok
            and self.exponent_k_ok
            and self.maxwell_ok
            and self.aat_matches != "neither"
        )


def _direct_sum_factors(*factor_lists):
    facs = _normalize_diagonal([f for fl in factor_lists for f in fl])
    return tuple(f for f in facs if f > 1)


def verify_simplex_structure(n, k) -> SimplexStructureReport:
    """Verify the stacked-matrix identities on the n-vertex simplex.

    Computes everything from scratch on both sides: the blocks of A*A^T
    against reduced Laplacians, the cokernel of A against (Z/n)^C(n-2,k),
    the critical groups K_{k-1} and K_k against their predicted exponents,
    and which direct sum matches coker(A*A^T).
    """
    comp, a = _skeleton_and_maxwell(n, k)
    aat = a * a.transpose()

    # block structure: top-left is the up-down Laplacian at k-1 reduced by
    # the tree of (k-1)-faces containing vertex 1; bottom-right is the
    # down-up Laplacian at k+1 restricted to (k+1)-faces containing vertex 1
    star = [f for f in comp.faces(k - 1) if 1 in f]
    top = reduced_laplacian(comp, k - 1, star)
    m = top.rows
    bd = comp.boundary_matrix(k + 1)
    kept = bd.submatrix(range(bd.rows), [r for r, f in enumerate(comp.faces(k + 1)) if 1 in f])
    down_up = kept.transpose() * kept
    size = aat.rows
    blocks_ok = (
        aat.submatrix(range(m), range(m)) == top
        and aat.submatrix(range(m, size), range(m, size)) == down_up
        and aat.submatrix(range(m), range(m, size)) == 0
    )

    coker_a = cokernel(a)
    coker_aat = cokernel(aat)
    g_km1 = critical_group_direct(comp, k - 1)
    g_k = critical_group_direct(comp, k)

    cyclic_ok = (
        g_km1.betti == 0
        and g_k.betti == 0
        and all(f == n for f in g_km1.torsion)
        and all(f == n for f in g_k.torsion)
    )
    exp_km1_ok = len(g_km1.torsion) == comb(n - 2, k)
    exp_k_ok = len(g_k.torsion) == comb(n - 2, k + 1)
    maxwell_ok = coker_a == AbelianGroup(0, tuple([n] * comb(n - 2, k)))

    shifted = _direct_sum_factors(g_km1.torsion, g_k.torsion)
    doubled = _direct_sum_factors(g_km1.torsion, g_km1.torsion)
    if coker_aat.torsion == shifted and coker_aat.torsion == doubled:
        matches = "both"
    elif coker_aat.torsion == shifted:
        matches = "K[k-1]+K[k]"
    elif coker_aat.torsion == doubled:
        matches = "K[k-1] doubled"
    else:
        matches = "neither"

    return SimplexStructureReport(
        n=n,
        k=k,
        coker_a=coker_a.torsion,
        coker_aat=coker_aat.torsion,
        factors_k_minus_1=g_km1.torsion,
        factors_k=g_k.torsion,
        blocks_ok=blocks_ok,
        cyclic_ok=cyclic_ok,
        exponent_k_minus_1_ok=exp_km1_ok,
        exponent_k_ok=exp_k_ok,
        maxwell_ok=maxwell_ok,
        aat_matches=matches,
    )


# -- eigenvalue products ---------------------------------------------------


def pi_product(comp: SimplicialComplex, j) -> int:
    """Product of the nonzero eigenvalues of the up-down Laplacian in
    dimension j - 1.  With the augmentation convention, pi_0 = f_0.

    Let d = boundary_j have rank r, T its first column basis, computed
    once per complex, C = d[:, T], and R the first maximal independent
    set of C's rows, so that the r x r minor d_RT = C_R is invertible over Q.
    Every column of d lies in col(C), so d = C X for one r-row X, and
    d_R = C_R X gives X = d_RT^-1 d_R.  The nonzero eigenvalues of
    L = d d^T = C (X X^T C^T) are those of the r x r matrix
    (X X^T C^T) C = (X X^T)(C^T C), which has rank r, so

        pi_j = det(C^T C) det(X X^T) = det(C^T C) det(L_RR) / det(d_RT)^2,

    L_RR being the principal R x R block of L = d_R d_R^T.  C^T C and
    L_RR are positive definite, so each determinant is the order of a
    finite cokernel, read off a sparse block matrix by ``_block_cokernel``
    (B = C^T, and B = d_R), and |det d_RT| is the product of the invariant
    factors of the rows R of C.  All three come from the sparse boundary
    columns, with no Laplacian, product or transpose formed, and
    unit-pivot elimination does most of the work.
    """
    if not 0 <= j <= comp.dim:
        raise ValueError(f"index {j} out of range [0, {comp.dim}]")
    rows, r = _column_and_row_basis(comp, j)
    minor = prod(_sparse_invariant_factors([dict(rows[q]) for q in r]))
    gram = _block_cokernel([row.items() for row in rows.values()], range(len(r))).order
    return gram * _block_cokernel(comp._boundary_columns(j), r).order // minor**2


def _column_and_row_basis(comp, j):
    """The nonzero rows of C = d[:, T], d = boundary_j and T its first
    column basis, as a {row: {k: value}} dict, k indexing T; and R, the
    first maximal independent set of C's rows, which stops at |T|."""
    cols = comp._boundary_columns(j)
    t = comp._first_basis(j)
    rows = {}
    for k, c in enumerate(t):
        for q, sign in cols[c]:
            rows.setdefault(q, {})[k] = sign
    basis = (q for q, _, taken in column_basis(sorted(rows.items())) if taken)
    return rows, list(islice(basis, len(t)))


def alternating_order(comp: SimplicialComplex, i) -> Fraction:
    """Alternating product of the pi_j whose value is |K_i| under the
    usual hypotheses (vanishing lower homology and a torsion-free tree).

    Returns the exact rational prod_{j=0}^{i+1} pi_j^((-1)^(i+1-j))
    unconditionally; whether it equals the group order is the caller's
    check.
    """
    if not 0 <= i < comp.dim:
        raise ValueError(f"dimension {i} out of range [0, {comp.dim})")
    out = Fraction(1)
    for j in range(i + 2):
        out *= Fraction(pi_product(comp, j)) ** ((-1) ** (i + 1 - j))
    return out


# -- the simplicial matrix-tree theorem -----------------------------------


@dataclass(frozen=True)
class SmttReport:
    """Both matrix-tree identities evaluated exactly on one complex.

    ``tree_faces`` records which (i-1)-tree was used in the determinant
    formula; the theorem allows any, so the report keeps the choice
    reproducible.
    """

    dimension: int
    pi: int
    tau: int
    tau_prev: int
    homology_order: int
    tree_faces: tuple
    tree_torsion: int
    det_reduced: int
    eigenvalue_identity_ok: bool
    determinant_identity_ok: bool
    warnings: tuple = ()

    @property
    def ok(self):
        return self.eigenvalue_identity_ok and self.determinant_identity_ok


def verify_smtt(comp: SimplicialComplex, i, *, budget=DEFAULT_BUDGET) -> SmttReport:
    """Check pi_i = tau_i * tau_{i-1} / |H_{i-2}|^2 and the determinant
    form of tau_i, all in exact integer arithmetic (cross-multiplied).

    The theorem needs the i-skeleton to be acyclic in positive
    codimension: otherwise NotAcyclicError.  That makes H_{i-2} finite
    and gives (i-1)-trees.
    A partial census makes the identities undefined: BudgetExceededError.
    The (i-1)-tree for the determinant is the first torsion-free leaf of
    the (i-1)-census, else its first leaf, so no second search runs; the
    tree is then checked once, by ``as_spanning_tree``.  The determinant
    of its reduced Laplacian B B^T, B being boundary_i on the (i-1)-faces
    outside it, is read off the sparse boundary (``_block_cokernel``).
    """
    if not 1 <= i <= comp.dim:
        raise ValueError(f"dimension {i} out of range [1, {comp.dim}]")
    if not comp.is_apc(i):
        raise NotAcyclicError(
            f"the {i}-skeleton is not acyclic in positive codimension: "
            "the matrix-tree identities do not apply"
        )
    first = {}  # torsion-free or not -> the first such leaf

    def keep(t):
        first.setdefault(t.torsion_order == 1, t)

    census = enumerate_trees(comp, i, budget=budget)
    census_prev = enumerate_trees(comp, i - 1, budget=budget, on_tree=keep)
    for c in (census, census_prev):
        if not c.complete:
            raise BudgetExceededError(f"{c.dimension}-tree " + "; ".join(c.warnings))
    h_order = comp.reduced_homology(i - 2).order

    pi = pi_product(comp, i)
    eig_ok = pi * h_order * h_order == census.tau * census_prev.tau

    tree = first.get(True) or first[False]
    # the reduced Laplacian is a principal block of the PSD Laplacian, so
    # det >= 0, and 0 iff it is singular, i.e. its cokernel has a free part
    theta = _theta_indices(comp, i - 1, as_spanning_tree(comp, i - 1, tree))
    red = _block_cokernel(comp._boundary_columns(i), theta)
    det = 0 if red.betti else red.order
    t2 = tree.torsion_order * tree.torsion_order
    det_ok = census.tau * t2 == h_order * h_order * det

    return SmttReport(
        dimension=i,
        pi=pi,
        tau=census.tau,
        tau_prev=census_prev.tau,
        homology_order=h_order,
        tree_faces=tree.top_faces,
        tree_torsion=tree.torsion_order,
        det_reduced=det,
        eigenvalue_identity_ok=eig_ok,
        determinant_identity_ok=det_ok,
        warnings=census.warnings + census_prev.warnings,
    )
