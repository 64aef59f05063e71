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

The module also builds the skew-style stacked matrix of reduced
boundary/coboundary maps for skeleta of simplices and verifies its
cokernel identities, plus the eigenvalue products pi_j and their
alternating quotient.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb

from .complexes import SimplicialComplex
from .generators import full_simplex
from .intlinalg import (
    AbelianGroup,
    IntMatrix,
    cokernel,
    invariant_factors,
    pseudo_determinant,
    rank,
)
from .trees import as_spanning_tree, require_torsion_free


def laplacian(comp: SimplicialComplex, i) -> IntMatrix:
    """The up-down Laplacian boundary_{i+1} times its transpose on i-chains,
    an f_i x f_i symmetric matrix built once per complex.

    It is zero when i is the top dimension.  Dimension -1 is allowed: its
    Laplacian is the 1 x 1 matrix [f_0] coming from the augmentation.
    """
    if not -1 <= i <= comp.dim:
        raise ValueError(f"dimension {i} out of range [-1, {comp.dim}]")

    def build():
        if i == comp.dim:
            n = len(comp.faces(i))
            return IntMatrix(n, n)
        bd = comp.boundary_matrix(i + 1)
        return bd * bd.transpose()

    return comp._memoized(("laplacian", i), build)


def _theta_indices(comp: SimplicialComplex, i, tree) -> list:
    """Indices of the i-faces outside the tree, in lexicographic order."""
    in_tree = set(tree.top_faces)
    return [j for j, f in enumerate(comp.faces(i)) if f not in in_tree]


def reduced_laplacian(comp: SimplicialComplex, i, tree) -> IntMatrix:
    """Up-down Laplacian restricted to the i-faces outside the tree.

    Rows and columns follow the lexicographic order of the complement.
    ``tree`` may be a SpanningTree or an iterable of i-faces; it is
    re-validated either way and NotATreeError is raised on failure.
    """
    theta = _theta_indices(comp, i, as_spanning_tree(comp, i, tree))
    return laplacian(comp, i).submatrix(theta, theta)


def critical_group_reduced(comp: SimplicialComplex, i, tree) -> AbelianGroup:
    """K_i as the cokernel of the reduced Laplacian of a torsion-free tree."""
    if not 0 <= i < comp.dim:
        raise ValueError(f"dimension {i} out of range [0, {comp.dim})")
    tree = require_torsion_free(as_spanning_tree(comp, i, tree))
    return cokernel(reduced_laplacian(comp, i, tree))


def critical_group_direct(comp: SimplicialComplex, i) -> AbelianGroup:
    """K_i straight from the definition: ker(boundary_i) / im(Laplacian).

    The image of boundary_i is free, so its kernel is a direct summand of
    the i-chains and coker(Laplacian) = K_i + Z^rank(boundary_i).  K_i is
    the cokernel of the Laplacian with rank(boundary_i) taken off its free
    part.  No tree is involved.
    """
    if not 0 <= i < comp.dim:
        raise ValueError(f"dimension {i} out of range [0, {comp.dim})")
    bd = comp.boundary_matrix(i)
    lap = laplacian(comp, i)
    if bd * lap != 0:
        raise AssertionError("Laplacian image escaped the boundary kernel")
    g = cokernel(lap)
    return AbelianGroup(g.betti - rank(bd), g.torsion)


# -- skeleta of simplices -------------------------------------------------


def maxwell_matrix(n, k) -> IntMatrix:
    """The stacked reduced boundary/coboundary matrix of the n-vertex simplex.

    Rows: the boundary map on k-faces with the rows of (k-1)-faces
    containing vertex 1 deleted, on top of the negated coboundary map
    into (k+1)-faces with only the rows of (k+1)-faces containing
    vertex 1 kept.  The result is square of side C(n-1,k) + C(n-1,k+1)
    and its cokernel is (Z/n)^C(n-2,k).
    """
    if not 1 <= k <= n - 2:
        raise ValueError("need 1 <= k <= n - 2")
    comp = full_simplex(n)
    bd_k = comp.boundary_matrix(k)
    keep_low = [r for r, f in enumerate(comp.faces(k - 1)) if 1 not in f]
    top = [bd_k.data[r][:] for r in keep_low]
    cb = comp.boundary_matrix(k + 1).transpose()
    keep_high = [r for r, f in enumerate(comp.faces(k + 1)) if 1 in f]
    bottom = [[-x for x in cb.data[r]] for r in keep_high]
    return IntMatrix(len(top) + len(bottom), bd_k.cols, top + bottom)


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
    entries = [f for fl in factor_lists for f in fl]
    facs = invariant_factors(IntMatrix.diagonal(entries))
    return tuple(f for f in facs if f > 1)


def verify_simplex_structure(n, k) -> SimplexStructureReport:
    """Verify the stacked-matrix identities on the n-vertex simplex.

    Computes everything from scratch on both sides: the blocks of A*A^T
    against reduced Laplacians, the cokernel of A against (Z/n)^C(n-2,k),
    the critical groups K_{k-1} and K_k against their predicted exponents,
    and which direct sum matches coker(A*A^T).
    """
    comp = full_simplex(n)
    a = maxwell_matrix(n, k)
    aat = a * a.transpose()

    # block structure: top-left is the up-down Laplacian at k-1 reduced by
    # the tree of (k-1)-faces containing vertex 1; bottom-right is the
    # down-up Laplacian at k+1 restricted to (k+1)-faces containing vertex 1
    star = [f for f in comp.faces(k - 1) if 1 in f]
    top = reduced_laplacian(comp, k - 1, star)
    m = top.rows
    keep_high = [r for r, f in enumerate(comp.faces(k + 1)) if 1 in f]
    bd = comp.boundary_matrix(k + 1)
    down_up = (bd.transpose() * bd).submatrix(keep_high, keep_high)
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
    dimension j - 1.  With the augmentation convention, pi_0 = f_0."""
    if not 0 <= j <= comp.dim:
        raise ValueError(f"index {j} out of range [0, {comp.dim}]")
    return pseudo_determinant(laplacian(comp, j - 1))


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
