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

from .intlinalg import AbelianGroup, IntMatrix, cokernel, rank

Face = tuple


def make_face(vertices) -> Face:
    """Canonical face from an iterable of vertex labels."""
    vs = sorted(int(v) for v in vertices)
    for a, b in zip(vs, vs[1:]):
        if a == b:
            raise ValueError(f"duplicate vertex {a} in face {vs}")
    if vs and vs[0] < 1:
        raise ValueError("vertex labels must be positive integers")
    return tuple(vs)


class SimplicialComplex:
    """A finite simplicial complex, immutable after construction."""

    __slots__ = ("dim", "_faces", "_index", "_memo")

    def __init__(self, faces_by_dim):
        # internal constructor: faces_by_dim maps i -> sorted tuple of faces,
        # already downward closed and including the empty face at -1
        self.dim = max(faces_by_dim)
        self._faces = faces_by_dim
        self._index = {
            i: {f: j for j, f in enumerate(faces)} for i, faces in faces_by_dim.items()
        }
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

    def has_face(self, face) -> bool:
        face = tuple(face)
        return face in self._index.get(len(face) - 1, {})

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

        def build():
            if i == -1:
                return IntMatrix(0, 1)
            rows = self._index[i - 1]
            cols = self._faces[i]
            mat = IntMatrix(len(rows), len(cols))
            data = mat.data
            for c, face in enumerate(cols):
                for j in range(len(face)):
                    sub = face[:j] + face[j + 1:]
                    data[rows[sub]][c] = -1 if j % 2 else 1
            return mat

        return self._memoized(("boundary", i), build)

    def coboundary_matrix(self, i) -> IntMatrix:
        """Transpose of the boundary matrix (chains identified with cochains)."""
        return self.boundary_matrix(i).transpose()

    # -- homology ------------------------------------------------------

    def reduced_homology(self, i) -> AbelianGroup:
        """Reduced integral homology in dimension i: the cokernel of
        boundary_{i+1}, minus the rank of boundary_i from its free part."""
        if not -1 <= i <= self.dim:
            raise ValueError(f"dimension {i} out of range [-1, {self.dim}]")

        def build():
            if i < self.dim:
                g = cokernel(self.boundary_matrix(i + 1))
            else:
                g = AbelianGroup(len(self._faces[i]), ())
            return AbelianGroup(g.betti - rank(self.boundary_matrix(i)), g.torsion)

        return self._memoized(("homology", i), build)

    def is_pure(self) -> bool:
        """True iff every maximal face has the top dimension."""
        for k in range(self.dim):
            covered = set()
            for f in self._faces[k + 1]:
                for j in range(len(f)):
                    covered.add(f[:j] + f[j + 1:])
            if len(covered) != len(self._faces[k]):
                return False
        return True

    def is_apc(self) -> bool:
        """Acyclic in positive codimension: rational homology vanishes below the top."""
        return all(self.reduced_homology(i).betti == 0 for i in range(-1, self.dim))

    def skeleton(self, k) -> "SimplicialComplex":
        """The subcomplex of all faces of dimension at most k."""
        if not 0 <= k <= self.dim:
            raise ValueError(f"skeleton dimension {k} out of range [0, {self.dim}]")
        if k == self.dim:
            return self
        all_faces = [f for j in range(k + 1) for f in self._faces[j]]
        return SimplicialComplex.from_facets(all_faces)

    # -- value semantics ----------------------------------------------

    def _key(self):
        return tuple(self._faces[i] for i in range(-1, self.dim + 1))

    def __eq__(self, other):
        if not isinstance(other, SimplicialComplex):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        return f"SimplicialComplex(dim={self.dim}, f={self.f_vector()})"
