"""The first linear strand of the edge ideal of a d-partite d-uniform
clutter, in closed form.

The level-i free summand has one basis element e_A for every independent set
A of the d-partite complement with |A| = i + d that meets every part; the
differential is

    e_A  |-->  sum over v in A, A minus v still meeting every part, of
               (-1)^(position of v in A) * x_v * e_{A minus v},

with positions counted from 0 in ascending vertex order.  (Removing a vertex
keeps independence for free, so the only condition on v is the part one.)
Level i corresponds to the (i+d-1)-dimensional faces of the relative pair of
the independence complex of the complement modulo the part-deficient
subcomplex, and the matrix of scalars above is exactly the relative boundary
matrix; verify_support checks that correspondence entry by entry, applying
the formula above to the pair's faces as frozensets, apart from the
signed-drop rule that both are built by.
A StrandComplex stores one sorted tuple of int bitmasks per level, as the
pair stores its faces; levels and differentials are made on first read, and
the pair's signed-drop rule and chain builder serve both (simplicial).
first_linear_strand checks its squares, and strand_homology_at ranks, on
the masks; no route here builds a matrix unless skeleton_complex is asked
for one.

The basis is grown from the edges: level 0 is the edges of c (a transversal
is independent in the complement exactly when it is an edge of c), and level
i + 1 is every level-i set plus one vertex v such that no complement edge
through v lands inside.  Every basis set is reached: one with more than d
vertices meets some part twice, and dropping one of those two vertices gives
a basis set one level down.  The growth runs on int bitmasks, each set
carrying the mask of the vertices it may not grow by (see
first_linear_strand), and the levels are kept as masks.

Evaluating x_v at a squarefree multidegree b (keep basis elements inside b,
scalars as they are) gives the complex whose homology controls whether the
strand is a resolution there; strand_homology_at computes it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

from .clutters import Clutter, VertexTable, _in_table, _mask, _members, d_partite_complement
from .errors import DEFAULT_MAX_VERTICES, check_vertex_guard
from .linalg import ChainComplex, Field, QQ
from .simplicial import (
    SimplicialPair,
    _graded_chain_complex,
    _mask_homology,
    _signed_drops,
    _squares_vanish,
)

__all__ = ["StrandEntry", "StrandComplex", "SupportReport", "first_linear_strand", "verify_support", "strand_homology_at"]


class StrandEntry(NamedTuple):
    """One monomial entry of a strand differential: the coefficient of
    e_{target} in the image of e_{source} is sign * x_vertex."""

    row: int
    col: int
    sign: int
    vertex: int


@dataclass(frozen=True)
class StrandComplex:
    """Levels of basis-set masks, each level in canonical order.  The
    frozenset levels and the differentials are derived from the masks when
    first read, so they cannot disagree with them.  The number of parts d is
    the table's."""

    vertices: VertexTable
    level_masks: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if self.vertices.parts is None:
            raise ValueError("a strand needs a partitioned vertex table")
        n = self.vertices.n
        if any(type(a) is not int or a < 0 or a >> n for level in self.level_masks for a in level):
            raise ValueError("basis-set mask is not a set of vertices of the table")

    @cached_property
    def levels(self) -> tuple[tuple[frozenset[int], ...], ...]:
        return tuple(tuple(frozenset(_members(a)) for a in level) for level in self.level_masks)

    @cached_property
    def differentials(self) -> tuple[tuple[StrandEntry, ...], ...]:
        """For each level i >= 1, the entries of the differential from level
        i to level i - 1, by column and then by ascending vertex.
        differentials[0] is empty by convention (nothing below level 0)."""
        m = self.level_masks
        return tuple(
            tuple(StrandEntry._make((r, c, s, (a[c] ^ b[r]).bit_length() - 1)) for r, c, s in _signed_drops(a, b))
            for a, b in zip(m, ((),) + m)
        )

    @property
    def n(self) -> int:
        return self.vertices.n

    @property
    def d(self) -> int:
        return self.vertices.d

    def ranks(self) -> tuple[int, ...]:
        return tuple(map(len, self.level_masks))

    def length(self) -> int:
        return len(self.level_masks)

    def skeleton_complex(self) -> ChainComplex:
        """All scalar matrices as a chain complex over the level index;
        construction re-checks that consecutive differentials compose to
        zero."""
        return _graded_chain_complex(dict(enumerate(self.level_masks)))


def first_linear_strand(c: Clutter, max_vertices: int = DEFAULT_MAX_VERTICES) -> StrandComplex:
    """Construct the first linear strand of the edge ideal of c.

    Level 0 is c.edges; level i + 1 is every a | {v} with a in level i, v not
    in a, and no complement edge through v inside a | {v}, up to the first
    empty level.  Every basis set is reached: one with more than d vertices
    meets a part twice, and dropping either of those two vertices leaves a
    basis set one level down.  Levels are in ascending vertex-tuple order.
    Validates its own differential on the level masks: every entry of
    d o d has exactly two paths, of opposite signs (simplicial._squares_vanish).

    On masks, each set a carries blocked(a): the vertices v outside a with
    some complement edge e through v and e - {v} inside a.  Then a | {v}
    is independent exactly when v is in neither a nor blocked(a), and
    blocked(a | {u}) is blocked(a) plus, for each complement edge e through u,
    the one vertex of e outside a | {u} when there is just one; complement
    edges missing u gain nothing from it.
    """
    check_vertex_guard(c.n, max_vertices)
    complement = [_mask(e) for e in d_partite_complement(c).edges]
    through = [[e for e in complement if e >> v & 1] for v in range(c.n)]
    everything = (1 << c.n) - 1
    level = {a: _blocked(a, complement) for a in map(_mask, c.edges)}  # basis set -> blocked(set)
    levels: list[tuple[int, ...]] = []
    while level:
        levels.append(tuple(sorted(level, key=_members)))
        grown: dict[int, int] = {}
        for a, blocked in level.items():
            free = everything & ~(a | blocked)
            while free:
                b = free & -free
                free ^= b
                s = a | b
                if s not in grown:
                    grown[s] = _blocked(s, through[b.bit_length() - 1], blocked)
        level = grown
    strand = StrandComplex(c.vertices, tuple(levels))
    _squares_vanish(dict(enumerate(strand.level_masks)))
    return strand


def _blocked(s: int, edges: list[int], blocked: int = 0) -> int:
    """blocked plus, for each edge mask with exactly one vertex outside s,
    that vertex."""
    for e in edges:
        if not (out := e & ~s) & (out - 1):
            blocked |= out
    return blocked


@dataclass(frozen=True)
class SupportReport:
    """Outcome of checking a strand against its relative pair."""

    ok: bool
    mismatches: tuple[str, ...] = ()

    def __bool__(self):
        return self.ok


def verify_support(s: StrandComplex, pair: SimplicialPair) -> SupportReport:
    """Check that the strand is the relative pair, shifted: the level-i basis
    must equal the (i+d-1)-dimensional pair faces in the same order, and each
    differential must equal the paper's formula on those faces entry by
    entry, e_A having the coefficient (-1)**t * x_v on e_{A-v}, v the t-th
    smallest vertex of A.  Collects every mismatch rather than stopping at
    the first."""
    problems: list[str] = []
    d = s.d
    top_level = max(s.length() - 1, pair.x.dim - d + 1)
    for i in range(0, top_level + 1):
        basis = s.level_masks[i] if i < s.length() else ()
        faces = pair._kept.get(i + d - 1, ())
        if basis != faces:
            problems.append(
                f"level {i}: strand basis has {len(basis)} sets, pair has {len(faces)} "
                f"faces of dimension {i + d - 1}"
                if len(basis) != len(faces)
                else f"level {i}: basis order or content differs from the pair faces"
            )
    for k in range(pair.x.dim + 1):
        if k < d - 1 and k in pair._kept:
            problems.append(f"pair has faces of dimension {k} below the strand range")
    for i in range(1, s.length()):
        if s.level_masks[i - 1 : i + 1] != (pair._kept.get(i + d - 2, ()), pair._kept.get(i + d - 1, ())):
            continue  # rows or columns index other sets, as reported above
        row_of = {a: r for r, a in enumerate(pair.faces(i + d - 2))}
        theirs = {}
        for col, a in enumerate(pair.faces(i + d - 1)):
            for t, v in enumerate(sorted(a)):
                if (row := row_of.get(a - {v})) is not None:
                    theirs[(row, col)] = ((-1) ** t, v)
        mine = {(e.row, e.col): (e.sign, e.vertex) for e in s.differentials[i]}
        for key in sorted(mine.keys() | theirs.keys()):
            if mine.get(key) != theirs.get(key):
                a, b = (f"{e[0]:+d}*x{e[1]}" if e else "0" for e in (mine.get(key), theirs.get(key)))
                problems.append(f"level {i}: entry {key} is {a} in the strand, {b} in the relative boundary")
    return SupportReport(not problems, tuple(problems))


def strand_homology_at(s: StrandComplex, b: frozenset[int], f: Field = QQ) -> dict[int, int]:
    """Homology of the strand evaluated at the squarefree multidegree b.

    In multidegree b the level-i summand keeps the basis sets contained in b,
    and every surviving entry's monomial evaluates to its sign (the dropped
    vertex lies in b whenever source and target do).  Returns {level: dim}
    for every level of s, zeros included.
    """
    b = frozenset(b)
    if not _in_table(b, s.n):
        raise ValueError("multidegree out of range")
    inside = _mask(b)
    kept = (tuple(a for a in level if a & ~inside == 0) for level in s.level_masks)
    return _mask_homology(dict(enumerate(kept)), f)
