"""Clutters on a fixed ordered vertex set.

A clutter is a hypergraph none of whose edges contains another.  Vertices are
numbered 0..n-1 once and for all and every vertex set the library hands out
or takes in is a frozenset of such numbers; the numbering is the single total
order that drives orientation signs downstream, so it lives in an explicit
VertexTable rather than being recomputed from names.  Inside the hot loops
(minimal covers, face enumeration, strand growth) a vertex set is an int
bitmask instead, bit v standing for vertex v; _mask and _members convert, and
sorting masks by _members gives the same order as key=sorted on frozensets.

A Clutter always sits on a table that partitions its vertices into d parts,
and is d-partite d-uniform by construction: every edge takes exactly one
vertex from each part.  A general antichain of vertex sets is a
SquarefreeIdeal (ideals), on a table with or without a partition.
"""

from __future__ import annotations

import functools
import itertools
import random
from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import DEFAULT_MAX_VERTICES, check_vertex_guard

__all__ = [
    "VertexTable",
    "Clutter",
    "minimal_vertex_covers",
    "independent_sets",
    "d_partite_complement",
    "restrict",
    "ranked_projection",
    "from_point_configuration",
    "complete_clutter",
    "ferrers_clutter",
    "random_clutter",
]

_LETTERS = "abcdefghijklmnopqrstuvwxyz"


def _part_letter(i: int) -> str:
    return _LETTERS[i] if i < len(_LETTERS) else f"p{i}_"


def _in_table(s: Iterable[int], n: int) -> bool:
    """Whether every member of s is a vertex of an n-vertex table, an int in
    0..n-1 (not a bool, which would pass for 0 or 1)."""
    return all(type(v) is int and 0 <= v < n for v in s)


def _mask(s: Iterable[int]) -> int:
    """The bitmask of a vertex set."""
    m = 0
    for v in s:
        m |= 1 << v
    return m


# _BYTES[i][b]: the vertices of the byte value b sitting at bits 8i..8i+7,
# filled on first use (a racing fill writes the same table)
_BYTES: dict[int, tuple[tuple[int, ...], ...]] = {}


def _members(m: int) -> tuple[int, ...]:
    """The vertices of a bitmask, ascending; the mask form of key=sorted."""
    out: tuple[int, ...] = ()
    i = 0
    while m:
        table = _BYTES.get(i)
        if table is None:
            table = _BYTES[i] = tuple(tuple(8 * i + v for v in range(8) if b >> v & 1) for b in range(256))
        out += table[m & 255]
        m >>= 8
        i += 1
    return out


def _frozen(masks: Iterable[int]) -> tuple[frozenset[int], ...]:
    """Masks as frozensets, in canonical order."""
    return tuple(frozenset(t) for t in sorted(map(_members, masks)))


def _nested_pair(sets: Iterable[frozenset[int]]) -> tuple[frozenset[int], frozenset[int]] | None:
    """Some pair (s, t) of members with s contained in t, a repeated member
    counting as (s, s); None for an antichain without repeats.  Containment
    is only tested across sizes: distinct sets of one size cannot contain
    each other."""
    by_size: dict[int, set[frozenset[int]]] = {}
    for s in sets:
        same = by_size.setdefault(len(s), set())
        if s in same:
            return s, s
        same.add(s)
    for k, l in itertools.combinations(sorted(by_size), 2):
        for s, t in itertools.product(by_size[k], by_size[l]):
            if s <= t:
                return s, t
    return None


def _canonical_family(
    sets: Iterable[Iterable[int]], table: VertexTable, member: str, allow_empty: bool = False
) -> tuple[frozenset[int], ...]:
    """The members of a family of vertex sets on the table, as frozensets in
    canonical order.  Raises ValueError on an empty member (unless allowed),
    on a vertex outside the table, and on a repeated member or one member
    inside another; member names the sets in the messages."""
    family = tuple(frozenset(s) for s in sets)
    if not allow_empty and not all(family):
        raise ValueError(f"{member}s must be nonempty")
    if not _in_table(itertools.chain.from_iterable(family), table.n):
        raise ValueError(f"{member} vertex out of range")
    if nested := _nested_pair(family):
        s, t = nested
        if s == t:
            raise ValueError(f"duplicate {member}")
        raise ValueError(f"not an antichain: {table.label(s)} and {table.label(t)}")
    return tuple(sorted(family, key=sorted))


@dataclass(frozen=True)
class VertexTable:
    """Ordered vertex names, optionally with a part label per vertex.

    Names must be distinct nonempty strings.  ``parts[v]`` is the part index
    of vertex v.  Part indices must be ints, exactly 0..d-1 with every part
    nonempty (a bool or a float raises ValueError); parts need not be
    contiguous blocks of the order (restriction can interleave them).
    """

    names: tuple[str, ...]
    parts: tuple[int, ...] | None = None

    def __post_init__(self):
        object.__setattr__(self, "names", tuple(self.names))
        if not all(isinstance(n, str) for n in self.names):
            raise ValueError("vertex names must be strings")
        if len(set(self.names)) != len(self.names):
            raise ValueError("vertex names must be distinct")
        if any(not n for n in self.names):
            raise ValueError("vertex names must be nonempty")
        if self.parts is not None:
            object.__setattr__(self, "parts", tuple(self.parts))
            if len(self.parts) != len(self.names):
                raise ValueError("one part index per vertex")
            if not self.names:
                raise ValueError("a partitioned table needs at least one vertex")
            if set(map(type, self.parts)) != {int}:
                raise ValueError("part indices must be ints")
            seen = set(self.parts)
            if seen != set(range(max(seen) + 1)):
                raise ValueError("part indices must be 0..d-1 with no gaps")
        object.__setattr__(self, "_by_name", {n: i for i, n in enumerate(self.names)})

    @property
    def n(self) -> int:
        return len(self.names)

    @property
    def d(self) -> int | None:
        """Number of parts, or None for an unpartitioned table."""
        if self.parts is None:
            return None
        return max(self.parts) + 1

    def part_members(self, i: int) -> tuple[int, ...]:
        if self.parts is None:
            raise ValueError("table has no partition")
        return tuple(v for v, p in enumerate(self.parts) if p == i)

    def index(self, name: str) -> int:
        try:
            return self._by_name[name]
        except (KeyError, TypeError):  # TypeError: an unhashable name
            raise ValueError(f"unknown vertex name {name!r}") from None

    def resolve(self, names: Iterable[str]) -> frozenset[int]:
        return frozenset(self.index(n) for n in names)

    def label(self, s: Iterable[int]) -> str:
        return "{" + ",".join(self.names[v] for v in sorted(s)) + "}"


@dataclass(frozen=True)
class Clutter:
    """A d-partite d-uniform clutter: edges on a partitioned vertex table,
    each taking exactly one vertex from each of the d parts."""

    vertices: VertexTable
    edges: tuple[frozenset[int], ...]

    def __post_init__(self):
        t = self.vertices
        if t.parts is None:
            raise ValueError("a clutter needs a partitioned vertex table")
        edges = _canonical_family(self.edges, t, "edge")
        d = t.d
        for e in edges:
            if len(e) != d or len({t.parts[v] for v in e}) != d:
                raise ValueError(f"edge {t.label(e)} is not a transversal of the parts")
        object.__setattr__(self, "edges", edges)

    @property
    def n(self) -> int:
        return self.vertices.n

    @property
    def d(self) -> int:
        return self.vertices.d

    def edge_set(self) -> frozenset[frozenset[int]]:
        return frozenset(self.edges)

    def part_sets(self) -> tuple[frozenset[int], ...]:
        return tuple(frozenset(self.vertices.part_members(i)) for i in range(self.d))

    def complete_edges(self) -> tuple[frozenset[int], ...]:
        """All transversals of the partition, in canonical order."""
        prod = itertools.product(*(self.vertices.part_members(i) for i in range(self.d)))
        return tuple(sorted((frozenset(t) for t in prod), key=sorted))


def minimal_vertex_covers(c: Clutter) -> tuple[frozenset[int], ...]:
    """All inclusion-minimal transversal sets of c, in canonical order.

    Iterated expansion edge by edge (Berge), on bitmasks: a minimal cover of
    the first k+1 edges is a minimal cover of the first k edges that already
    meets edge k+1, or one that misses it extended by a vertex v of edge
    k+1.  The covers that meet the edge stay minimal.  An extension cov | {v}
    can only contain an old cover h that meets the edge in v alone, with
    h - {v} inside cov, so each extension is tested against those covers
    only.  Two extensions never contain one another: cov1 | {v1} inside
    cov2 | {v2} forces cov1 inside cov2 (v2 is on the edge, which cov1
    misses), so cov1 = cov2 and v1 = v2; hence no extension needs testing
    against another, nor deduplicating.  For the empty clutter the answer is
    {emptyset}: the unit ideal, which is what makes the linkage identities
    below hold without special cases.
    """
    return _frozen(_minimal_cover_masks(c.edges))


def _minimal_cover_masks(edges: Iterable[frozenset[int]]) -> list[int]:
    """The minimal covers of minimal_vertex_covers, as masks, unordered."""
    covers = [0]
    for edge in edges:
        e = _mask(edge)
        hit = [cov for cov in covers if cov & e]
        miss = [cov for cov in covers if not cov & e]
        # the covers meeting e in the single vertex bit b, as h - {v}, by b
        rests: dict[int, list[int]] = {}
        for h in hit:
            b = h & e
            if not b & (b - 1):
                rests.setdefault(b, []).append(h ^ b)
        for v in _members(e):
            b = 1 << v
            blocking = rests.get(b, ())
            hit.extend(cov | b for cov in miss if not any(r & ~cov == 0 for r in blocking))
        covers = hit
    return covers


def independent_sets(c: Clutter, max_vertices: int = DEFAULT_MAX_VERTICES):
    """The independence complex of c: all vertex sets containing no edge.

    Returned as a simplicial complex whose facets are the complements of the
    minimal vertex covers.  Finding the covers is exponential in n, hence the
    guard; the faces themselves are listed only when asked for.
    """
    from .simplicial import SimplicialComplex

    check_vertex_guard(c.n, max_vertices)
    everything = (1 << c.n) - 1
    return SimplicialComplex(c.vertices, _frozen(everything ^ cov for cov in _minimal_cover_masks(c.edges)))


def d_partite_complement(c: Clutter) -> Clutter:
    """The clutter of all transversals of the partition that are not edges of c."""
    present = c.edge_set()
    edges = tuple(e for e in c.complete_edges() if e not in present)
    return Clutter(c.vertices, edges)


def restrict(c: Clutter, w: Iterable[int]) -> Clutter:
    """The subclutter of edges lying entirely inside w, on the vertex set w.

    Parts are renumbered over the parts that stay nonempty on w; if every part
    meets w the part indices are unchanged.  An empty w raises ValueError: a
    clutter's table has at least one vertex.
    """
    w = frozenset(w)
    if not _in_table(w, c.n):
        raise ValueError("restriction set out of range")
    return _on_subset(c.vertices, w, (e for e in c.edges if e <= w))


def ranked_projection(c: Clutter, parts: Iterable[int]) -> Clutter:
    """Project edges onto the union of the given parts, keeping each image once.

    For a d-partite d-uniform clutter every projected edge has exactly one
    vertex in each chosen part, so the projection is |parts|-partite uniform;
    duplicates collapse silently.
    """
    parts = tuple(parts)
    if not parts:
        raise ValueError("need at least one part")
    d = c.d
    # checked before deduplication, which would merge True into 1
    if not all(type(p) is int and 0 <= p < d for p in parts):
        raise ValueError("part index out of range")
    chosen = sorted(set(parts))
    w = frozenset(v for p in chosen for v in c.vertices.part_members(p))
    # every image has one vertex in each chosen part, so none contains another
    return _on_subset(c.vertices, w, {e & w for e in c.edges})


def _on_subset(t: VertexTable, w: Iterable[int], edges: Iterable[frozenset[int]]) -> Clutter:
    """The clutter of the given distinct subsets of w on the sub-table of t
    on w: the vertices v of w renumbered in order, keeping their names, and
    their parts renumbered compactly in their original order."""
    names, part_of = t.names, t.parts
    order = sorted(w)
    renum = {v: i for i, v in enumerate(order)}
    part_renum = {p: i for i, p in enumerate(sorted({part_of[v] for v in order}))}
    table = VertexTable(tuple(names[v] for v in order), tuple(part_renum[part_of[v]] for v in order))
    return Clutter(table, tuple(frozenset(renum[v] for v in e) for e in edges))


_LABELS = "point labels must be strings, numbers or lists of them"


def _freeze(x):
    """A point label as a hashable value, lists and tuples becoming tuples."""
    if isinstance(x, (list, tuple)):
        return tuple(_freeze(y) for y in x)
    if type(x) is float and x != x:
        raise ValueError(f"{_LABELS}: point label nan is not equal to itself")
    if type(x) in (str, int, float):
        return x
    if isinstance(x, bool):
        raise ValueError(f"{_LABELS}: point label {x!r} is a bool, which would pass for {int(x)}")
    raise ValueError(_LABELS)


def from_point_configuration(points: Sequence[Sequence[object]]) -> Clutter:
    """The d-partite d-uniform clutter of a configuration of d-tuples.

    Coordinate i of each point is a label; distinct labels seen in coordinate
    i, in order of first appearance, become the vertices of part i.  Each
    point becomes the edge of its labels; duplicate points collapse to one
    edge.  Points are a nonempty list or tuple of rows, each a list or tuple.
    Labels are strings, ints and floats, or lists or tuples of labels
    (compared structurally); anything else raises ValueError, a bool too,
    nested or not, since True == 1, and a NaN float, which equals nothing.
    """
    if not isinstance(points, (list, tuple)) or not points or not all(isinstance(p, (list, tuple)) for p in points):
        raise ValueError("points must be a nonempty list of rows, each a list of labels")
    rows = [tuple(_freeze(x) for x in p) for p in points]
    d = len(rows[0])
    if d == 0:
        raise ValueError("points must have at least one coordinate")
    if any(len(r) != d for r in rows):
        raise ValueError("ragged point configuration")
    labels: list[dict[object, int]] = [{} for _ in range(d)]
    for r in rows:
        for i, x in enumerate(r):
            if x not in labels[i]:
                labels[i][x] = len(labels[i])
    sizes = [len(part) for part in labels]
    table = _partitioned_table(sizes)
    offsets = list(itertools.accumulate(sizes, initial=0))
    edges: dict[frozenset[int], None] = {}
    for r in rows:
        edges[frozenset(offsets[i] + labels[i][x] for i, x in enumerate(r))] = None
    return Clutter(table, tuple(edges))


def _positive_ints(values: Iterable[int], what: str) -> tuple[int, ...]:
    """values as a nonempty tuple of positive ints; ValueError otherwise, for
    a bool or an integral float too (True == 1, 2.0 == 2)."""
    t = tuple(values)
    if not t or not all(type(x) is int and x > 0 for x in t):
        raise ValueError(f"{what} must be positive ints")
    return t


def _table_of_parts(parts: Sequence[Sequence[str]]) -> VertexTable:
    """The table whose part i holds the named vertices parts[i], numbered
    part by part in order; an empty part raises ValueError."""
    for i, p in enumerate(parts):
        if not p:
            raise ValueError(f"part {i} is empty")
    return VertexTable(tuple(itertools.chain(*parts)), tuple(i for i, p in enumerate(parts) for _ in p))


def _partitioned_table(part_sizes: Sequence[int]) -> VertexTable:
    """The table of parts of the given sizes, each a positive int, with
    vertices a1, a2, .., b1, .. named by part letter."""
    return _table_of_parts([[f"{_part_letter(i)}{j + 1}" for j in range(s)] for i, s in enumerate(part_sizes)])


# how many shapes complete_clutter keeps; a loop over more shapes than this
# in turn misses the cache on every call
_COMPLETE_CACHE_SHAPES = 16


def complete_clutter(part_sizes: Sequence[int]) -> Clutter:
    """All transversals of parts of the given sizes.

    One shared instance per shape: the last _COMPLETE_CACHE_SHAPES (16)
    shapes asked for are kept, and asking again for one of them returns the
    same object, edge frozensets and VertexTable included.  Clutters are
    immutable, so sharing is safe, and random_clutter hands these same
    frozensets out as its edges.  A cached instance is held until 16 newer
    shapes push it out, which in a process that asks for few shapes is the
    life of the process: complete_clutter([5] * 6), 15,625 edges, then keeps
    about 7 MiB after its caller has dropped it.  Each transversal is copied
    from a set, which sizes the frozenset's table for its members; built
    straight from a tuple, a frozenset of five or more members gets twice
    that table (728 bytes rather than 472 at five)."""
    # checked before the cache, where (True, 2) and (1, 2) are one key
    return _complete_clutter(_positive_ints(part_sizes, "part sizes"))


@functools.lru_cache(maxsize=_COMPLETE_CACHE_SHAPES)
def _complete_clutter(part_sizes: tuple[int, ...]) -> Clutter:
    table = _partitioned_table(part_sizes)
    prod = itertools.product(*(table.part_members(i) for i in range(len(part_sizes))))
    return Clutter(table, tuple(frozenset(set(t)) for t in prod))


def ferrers_clutter(row_lengths: Sequence[int]) -> Clutter:
    """The bipartite clutter of a Ferrers diagram: edge (a_i, b_j) iff j < row i.

    Row lengths must be positive ints, weakly decreasing.
    """
    lam = _positive_ints(row_lengths, "row lengths")
    if any(lam[i] < lam[i + 1] for i in range(len(lam) - 1)):
        raise ValueError("row lengths must be weakly decreasing")
    table = _partitioned_table([len(lam), lam[0]])
    rows = table.part_members(0)
    cols = table.part_members(1)
    edges = tuple(
        frozenset((rows[i], cols[j])) for i in range(len(lam)) for j in range(lam[i])
    )
    return Clutter(table, edges)


def random_clutter(part_sizes: Sequence[int], edge_probability: float, seed: int) -> Clutter:
    """Keep each transversal independently with the given probability.

    Deterministic per seed: transversals are visited in canonical order and
    consume one uniform draw each.  Draws of one shape share memory: the
    kept edges are the frozensets of the shared complete_clutter of that
    shape (cached for the last 16 shapes), on its VertexTable; the Clutter
    constructor still validates every draw, and keeps those objects.
    """
    if not 0.0 <= edge_probability <= 1.0:
        raise ValueError("edge probability must be in [0, 1]")
    complete = complete_clutter(part_sizes)
    rng = random.Random(seed)
    edges = tuple(e for e in complete.edges if rng.random() < edge_probability)
    return Clutter(complete.vertices, edges)
