"""Simplicial complexes, relative pairs, and their chain complexes.

Complexes are given by facets and enumerate all faces eagerly, grouped by
dimension and sorted by ascending vertex tuple; that fixed order is the basis
order of every boundary matrix, and the sign of dropping the t-th smallest
vertex of a face is (-1)**t.  The empty face has dimension -1; a complex
distinguishes being void (no faces at all, facets=()) from being {emptyset}
(facets=(frozenset(),)).

A relative pair (X, Y) with Y a subcomplex of X has one basis element for
every face of X that is not a face of Y, and its boundary is the simplicial
boundary with the terms landing in Y deleted.  When Y is void this is the
reduced chain complex of X, so reduced and relative homology share one code
path.
"""

from __future__ import annotations

from dataclasses import dataclass

from .clutters import Clutter, VertexTable, _nested_pair, d_partite_complement, independent_sets, sorted_key
from .errors import DEFAULT_MAX_VERTICES, ConsistencyError
from .linalg import ChainComplex, Matrix

__all__ = [
    "SimplicialComplex",
    "SimplicialPair",
    "chain_complex",
    "relative_chain_complex",
    "strand_support_pair",
    "part_deficient_complex",
    "f_vector",
]


@dataclass(frozen=True)
class SimplicialComplex:
    vertices: VertexTable
    facets: tuple[frozenset[int], ...]

    def __post_init__(self):
        facets = tuple(frozenset(f) for f in self.facets)
        n = self.vertices.n
        for f in facets:
            if not all(0 <= v < n for v in f):
                raise ValueError("facet vertex out of range")
        if _nested_pair(facets):
            raise ValueError("facets must form an antichain")
        object.__setattr__(self, "facets", tuple(sorted(facets, key=sorted_key)))
        by_dim: dict[int, set[frozenset[int]]] = {}
        for f in self.facets:
            for mask in _subsets(f):
                by_dim.setdefault(len(mask) - 1, set()).add(mask)
        object.__setattr__(
            self,
            "_faces",
            {k: tuple(sorted(v, key=sorted_key)) for k, v in by_dim.items()},
        )

    @property
    def is_void(self) -> bool:
        return not self.facets

    @property
    def dim(self) -> int:
        """Dimension of the complex; -2 for the void complex by convention
        (so that dim < -1 signals the absence of any face)."""
        if self.is_void:
            return -2
        return max(len(f) for f in self.facets) - 1

    def faces(self, k: int) -> tuple[frozenset[int], ...]:
        return self._faces.get(k, ())

    def has_face(self, s: frozenset[int]) -> bool:
        return any(s <= f for f in self.facets)


def _subsets(s: frozenset[int]):
    order = sorted(s)
    m = len(order)
    for bits in range(1 << m):
        yield frozenset(order[i] for i in range(m) if bits >> i & 1)


@dataclass(frozen=True)
class SimplicialPair:
    """A complex together with a subcomplex; the faces of the pair are the
    faces of x that are not faces of y."""

    x: SimplicialComplex
    y: SimplicialComplex

    def __post_init__(self):
        if self.x.vertices != self.y.vertices:
            raise ValueError("pair must live on one vertex table")
        for f in self.y.facets:
            if not self.x.has_face(f):
                raise ValueError(f"facet {self.x.vertices.label(f)} of y is not a face of x")

    def faces(self, k: int) -> tuple[frozenset[int], ...]:
        excluded = set(self.y.faces(k))
        return tuple(s for s in self.x.faces(k) if s not in excluded)

    @property
    def dim(self) -> int:
        return self.x.dim


def _signed_drops(sources: tuple[frozenset[int], ...], targets: tuple[frozenset[int], ...]):
    """The signed-drop rule: for each source set (a column) and each vertex v
    of it whose removal lands on a target set (a row), yield
    (row, col, (-1)**t, v), v being the t-th smallest vertex of the source
    counting from 0.  Columns come in order, vertices ascending."""
    index = {t: i for i, t in enumerate(targets)}
    for col, f in enumerate(sources):
        for t, v in enumerate(sorted(f)):
            row = index.get(f - {v})
            if row is not None:
                yield row, col, -1 if t % 2 else 1, v


def _boundary_matrix(
    sources: tuple[frozenset[int], ...], targets: tuple[frozenset[int], ...]
) -> Matrix:
    entries = ((row, col, sign) for row, col, sign, _ in _signed_drops(sources, targets))
    return Matrix.from_entries(len(targets), len(sources), entries)


def chain_complex(x: SimplicialComplex, reduced: bool = False) -> ChainComplex:
    """The (augmented, if reduced) simplicial chain complex of x, as the pair
    x modulo the void complex (reduced) or modulo {emptyset} (not reduced).

    The void complex yields the empty chain complex; {emptyset} reduced yields
    one basis element in degree -1 and nothing else, so its reduced homology
    is rank 1 there.
    """
    if x.is_void:
        return ChainComplex({}, {})
    y = SimplicialComplex(x.vertices, () if reduced else (frozenset(),))
    return relative_chain_complex(SimplicialPair(x, y))


def relative_chain_complex(p: SimplicialPair) -> ChainComplex:
    """The chain complex of the pair: quotient bases, boundary terms into y
    dropped."""
    lo = -1 if p.y.is_void and not p.x.is_void else 0
    faces = {k: p.faces(k) for k in range(lo, p.x.dim + 1)}
    present = [k for k, fs in faces.items() if fs]
    if not present:
        return ChainComplex({}, {})
    dims = {k: len(faces[k]) for k in range(min(present), max(present) + 1)}
    boundaries = {
        k: _boundary_matrix(faces[k], faces[k - 1])
        for k in dims
        if k - 1 in dims
    }
    return ChainComplex(dims, boundaries)


def f_vector(p: SimplicialPair) -> tuple[int, ...]:
    """Counts of pair faces in dimensions 0..dim(x); the empty face, if it is
    a face of the pair, is not counted here."""
    return tuple(len(p.faces(k)) for k in range(0, p.x.dim + 1))


def part_deficient_complex(table: VertexTable) -> SimplicialComplex:
    """The subcomplex of the full simplex on a partitioned vertex table whose
    faces miss at least one part: facets are the complements of the parts.

    Its nerve is the boundary of a (d-1)-simplex, so it is homotopy
    equivalent to a (d-2)-sphere; for d = 1 it is {emptyset}, with reduced
    homology of rank 1 in degree -1.
    """
    if table.parts is None:
        raise ValueError("need a partitioned vertex table")
    everything = frozenset(range(table.n))
    facets = tuple(
        everything - frozenset(table.part_members(i)) for i in range(table.d)
    )
    return SimplicialComplex(table, tuple(sorted(set(facets), key=sorted_key)))


def strand_support_pair(c: Clutter, max_vertices: int = DEFAULT_MAX_VERTICES) -> SimplicialPair:
    """The relative pair carrying the first linear strand of the edge ideal
    of c: x is the independence complex of the d-partite complement of c,
    y the part-deficient subcomplex.  The faces of the pair are exactly the
    complement-independent sets meeting every part.

    y really is a subcomplex of x (a set missing a part contains no
    transversal, hence no edge of the complement); this is re-verified here
    rather than assumed.
    """
    if c.vertices.parts is None:
        raise ValueError("need a partitioned clutter")
    x = independent_sets(d_partite_complement(c), max_vertices=max_vertices)
    y = part_deficient_complex(c.vertices)
    for f in y.facets:
        if not x.has_face(f):
            raise ConsistencyError("part-deficient subcomplex escapes the independence complex")
    return SimplicialPair(x, y)
