"""Simplicial complexes with oriented boundary matrices and reduced homology.

Conventions fixed once and used by every matrix in the library:

* A face is a tuple of strictly increasing positive integer vertex
  labels; the empty tuple is the empty face of dimension -1, which is
  always present, so the dimension-0 boundary map is the augmentation
  (the all-ones row).
* The orientation of a face is its increasing vertex order; the sign of
  dropping the j-th vertex is (-1)^j.
* Face lists are sorted lexicographically, and rows/columns of every
  matrix are indexed by these sorted lists.
"""

from __future__ import annotations

from itertools import combinations

from .intlinalg import AbelianGroup, IntMatrix, _integers, _sparse_invariant_factors, column_basis

Face = tuple


def make_face(vertices) -> Face:
    """Canonical face from an iterable of vertex labels."""
    vs = sorted(_integers(vertices))
    for a, b in zip(vs, vs[1:]):
        if a == b:
            raise ValueError(f"duplicate vertex {a} in face {vs}")
    if vs and vs[0] < 1:
        raise ValueError("vertex labels must be positive integers")
    return tuple(vs)


class SimplicialComplex:
    """A finite simplicial complex, immutable after construction."""

    __slots__ = ("dim", "_faces", "_index", "_key", "_memo")

    def __init__(self, faces_by_dim):
        # internal constructor: faces_by_dim maps i -> sorted tuple of faces,
        # already downward closed and including the empty face at -1
        self.dim = max(faces_by_dim)
        self._faces = faces_by_dim
        self._index = {
            i: {f: j for j, f in enumerate(faces)} for i, faces in faces_by_dim.items()
        }
        # the value that equality and hashing compare: every face list
        self._key = tuple(faces_by_dim[i] for i in range(-1, self.dim + 1))
        # derived matrices and groups, keyed by (name, dimension); values
        # are shared and must not be mutated
        self._memo = {}

    def _memoized(self, key, build):
        """build(), computed once per complex and key."""
        if key not in self._memo:
            self._memo[key] = build()
        return self._memo[key]

    @classmethod
    def from_facets(cls, facets) -> "SimplicialComplex":
        """Downward closure of a nonempty list of nonempty facets."""
        facets = [make_face(f) for f in facets]
        if not facets:
            raise ValueError("a complex needs at least one facet")
        if any(len(f) == 0 for f in facets):
            raise ValueError("facets must be nonempty")
        bydim = {-1: {()}}
        for f in facets:
            for k in range(1, len(f) + 1):
                level = bydim.setdefault(k - 1, set())
                level.update(combinations(f, k))
        return cls({i: tuple(sorted(s)) for i, s in bydim.items()})

    # -- face access -------------------------------------------------

    def faces(self, i) -> tuple:
        if i not in self._faces:
            raise ValueError(f"dimension {i} out of range [-1, {self.dim}]")
        return self._faces[i]

    def face_index(self, i, face) -> int:
        idx = self._index[i].get(tuple(face))
        if idx is None:
            raise ValueError(f"{tuple(face)} is not a {i}-face of the complex")
        return idx

    def f_vector(self) -> tuple:
        return tuple(len(self._faces[i]) for i in range(-1, self.dim + 1))

    def vertices(self) -> tuple:
        return tuple(f[0] for f in self._faces[0])

    def neighbors(self) -> dict:
        """Vertex -> sorted tuple of its neighbors in the 1-skeleton."""

        def build():
            nbrs = {v: [] for v in self.vertices()}
            for a, b in self._faces.get(1, ()):
                nbrs[a].append(b)
                nbrs[b].append(a)
            return {v: tuple(sorted(ws)) for v, ws in nbrs.items()}

        return self._memoized(("neighbors",), build)

    def facets(self) -> tuple:
        """Maximal faces, sorted by dimension then lexicographically."""
        out = list(self._faces[self.dim])
        for k in range(self.dim - 1, -1, -1):
            covered = set()
            for f in self._faces[k + 1]:
                for j in range(len(f)):
                    covered.add(f[:j] + f[j + 1:])
            out.extend(f for f in self._faces[k] if f not in covered)
        return tuple(sorted(out, key=lambda f: (len(f), f)))

    # -- boundary machinery -------------------------------------------

    def boundary_matrix(self, i) -> IntMatrix:
        """Matrix of the boundary map from i-chains to (i-1)-chains.

        For i = -1 this is the 0 x 1 zero map out of C_{-1}; for i = 0 it
        is the augmentation row (all ones).
        """
        if not -1 <= i <= self.dim:
            raise ValueError(f"dimension {i} out of range [-1, {self.dim}]")

        # there are no (-2)-faces: the map out of C_{-1} has no rows
        rows = len(self._faces.get(i - 1, ()))
        return self._memoized(
            ("boundary", i), lambda: IntMatrix.from_columns(rows, self._boundary_columns(i))
        )

    def _boundary_columns(self, i) -> tuple:
        """boundary_i as sparse columns, built once per complex: column c,
        for the c-th i-face, is a tuple of (row, sign) pairs, one per
        facet of the face, dropping its j-th vertex having sign (-1)^j.
        The one column out of C_{-1} is empty."""

        def build():
            if i == -1:
                return ((),)
            rows = self._index[i - 1]
            return tuple(
                tuple((rows[face[:j] + face[j + 1:]], -1 if j % 2 else 1) for j in range(len(face)))
                for face in self._faces[i]
            )

        return self._memoized(("boundary_columns", i), build)

    def _boundary_factors(self, i) -> tuple:
        """Invariant factors of boundary_i, one Smith form per complex:
        there are rank(boundary_i) of them, and those above 1 are the
        torsion of its cokernel.  They are those of its transpose, whose
        rows are the sparse columns, so no dense matrix is built."""
        return self._memoized(
            ("boundary_factors", i),
            lambda: _sparse_invariant_factors([dict(col) for col in self._boundary_columns(i)]),
        )

    def _cycle_rank(self, i) -> int:
        """f_i - rank(boundary_i), the dimension of ker boundary_i."""
        return len(self.faces(i)) - len(self._boundary_factors(i))

    def _first_basis(self, i, charge=None) -> tuple:
        """Indices of the first column basis of boundary_i, scanned in index
        order once per complex.  Its columns lie in ker boundary_{i-1}, whose
        dimension bounds rank(boundary_i), equal iff beta~_{i-1} = 0; the scan
        stops there or at the last column, with the same basis either way (no
        column is taken after the rank-th), and factors only boundary_{i-1}.
        ``charge`` gets each fresh column's reductions, or their stored total
        on a memo hit, and may raise; a scan that raises stores nothing."""
        key = ("first_basis", i)
        if key not in self._memo:
            cols = enumerate(dict(col) for col in self._boundary_columns(i))
            bound = self._cycle_rank(i - 1) if i >= 0 else 0
            basis, cost = [], 0
            for j, steps, taken in column_basis(cols):
                cost += steps
                if charge is not None:
                    charge(steps)
                if taken:
                    basis.append(j)
                    if len(basis) == bound:
                        break
            self._memo[key] = tuple(basis), cost
        elif charge is not None:
            charge(self._memo[key][1])
        return self._memo[key][0]

    # -- homology ------------------------------------------------------

    def reduced_homology(self, i) -> AbelianGroup:
        """Reduced integral homology in dimension i: the cokernel of
        boundary_{i+1}, minus the rank of boundary_i from its free part."""
        if not -1 <= i <= self.dim:
            raise ValueError(f"dimension {i} out of range [-1, {self.dim}]")

        def build():
            up = self._boundary_factors(i + 1) if i < self.dim else ()
            return AbelianGroup(self._cycle_rank(i) - len(up), tuple(f for f in up if f > 1))

        return self._memoized(("homology", i), build)

    def is_pure(self) -> bool:
        """True iff every maximal face has the top dimension."""
        return all(len(f) == self.dim + 1 for f in self.facets())

    def is_apc(self, k=None) -> bool:
        """Acyclic in positive codimension: rational homology vanishes below
        the top.  With k, the same for the k-skeleton: beta~_j = 0 for
        j < k, which depends only on faces of dimension <= k, so no
        skeleton is built."""
        k = self.dim if k is None else k
        return all(self.reduced_homology(j).betti == 0 for j in range(-1, k))

    def skeleton(self, k) -> "SimplicialComplex":
        """The subcomplex of all faces of dimension at most k: the face
        lists of dimensions -1..k, which are sorted and downward closed."""
        if not 0 <= k <= self.dim:
            raise ValueError(f"skeleton dimension {k} out of range [0, {self.dim}]")
        if k == self.dim:
            return self
        return SimplicialComplex({j: self._faces[j] for j in range(-1, k + 1)})

    # -- value semantics ----------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, SimplicialComplex):
            return NotImplemented
        return self is other or self._key == other._key

    def __hash__(self):
        return self._memoized("hash", lambda: hash(self._key))

    def __repr__(self):
        return f"SimplicialComplex(dim={self.dim}, f={self.f_vector()})"
