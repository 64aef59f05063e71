"""Generators for the standard test complexes."""

from __future__ import annotations

from itertools import combinations

from .complexes import SimplicialComplex


def bipyramid() -> SimplicialComplex:
    """The equatorial bipyramid: two tetrahedra glued along a shared
    triangle, with the equatorial triangle kept as a face.  Five
    vertices, seven facets."""
    return SimplicialComplex.from_facets(
        [(1, 2, 3), (1, 2, 4), (1, 2, 5), (1, 3, 4), (1, 3, 5), (2, 3, 4), (2, 3, 5)]
    )


def cycle(n) -> SimplicialComplex:
    """The cycle graph on n >= 3 vertices."""
    if n < 3:
        raise ValueError("a cycle needs at least 3 vertices")
    edges = [(i, i + 1) for i in range(1, n)] + [(1, n)]
    return SimplicialComplex.from_facets(edges)


def complete_graph(n) -> SimplicialComplex:
    """The complete graph on n >= 2 vertices."""
    if n < 2:
        raise ValueError("a complete graph needs at least 2 vertices")
    return SimplicialComplex.from_facets(combinations(range(1, n + 1), 2))


def simplex_skeleton(n, k) -> SimplicialComplex:
    """The k-skeleton of the simplex on n vertices."""
    if n < 1:
        raise ValueError("need at least one vertex")
    if not 0 <= k <= n - 1:
        raise ValueError(f"skeleton dimension must lie in [0, {n - 1}]")
    return SimplicialComplex.from_facets(combinations(range(1, n + 1), k + 1))


def full_simplex(n) -> SimplicialComplex:
    return simplex_skeleton(n, n - 1)


def sphere(d) -> SimplicialComplex:
    """The boundary of the (d+1)-simplex: a simplicial d-sphere with
    d + 2 facets."""
    if d < 0:
        raise ValueError("sphere dimension must be nonnegative")
    return SimplicialComplex.from_facets(combinations(range(1, d + 3), d + 2 - 1))


def moore(m) -> SimplicialComplex:
    """The Moore space M(m), m >= 2: the mapping cone of a degree-m map
    onto the 3-cycle 1 2 3.  The ring 4 .. 3m + 3 winds m times around
    the cycle and is coned off from 3m + 4, so f = (1, 3m + 4, 12m + 3,
    9m), H~_1 = Z/m and H~_2 = 0."""
    if m < 2:
        raise ValueError("a Moore space needs m >= 2")
    n = 3 * m
    return SimplicialComplex.from_facets(
        f
        for k in range(n)
        for f in (
            (1 + k % 3, 1 + (k + 1) % 3, 4 + k),
            (1 + (k + 1) % 3, 4 + k, 4 + (k + 1) % n),
            (4 + k, 4 + (k + 1) % n, n + 4),
        )
    )


def from_spec(text) -> SimplicialComplex:
    """Parse a generator spec such as "bipyramid" or "cycle 5".

    Kinds: bipyramid | cycle N | complete N | simplex-skeleton N K |
    sphere D | moore M.
    """
    parts = text.split()
    if not parts:
        raise ValueError("empty generator spec")
    kind, args = parts[0], parts[1:]
    try:
        nums = [int(x) for x in args]
    except ValueError:
        raise ValueError(f"non-integer parameter in generator spec {text!r}") from None
    if kind == "bipyramid" and not nums:
        return bipyramid()
    if kind == "cycle" and len(nums) == 1:
        return cycle(nums[0])
    if kind == "complete" and len(nums) == 1:
        return complete_graph(nums[0])
    if kind == "simplex-skeleton" and len(nums) == 2:
        return simplex_skeleton(*nums)
    if kind == "sphere" and len(nums) == 1:
        return sphere(nums[0])
    if kind == "moore" and len(nums) == 1:
        return moore(nums[0])
    raise ValueError(f"unrecognized generator spec {text!r}")
