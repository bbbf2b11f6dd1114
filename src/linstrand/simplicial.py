"""Simplicial complexes, relative pairs, and their chain complexes.

Complexes are given by facets, and a face is tested by finding a facet that
contains it.  A complex lists its faces, as int bitmasks (bit v for vertex
v) grouped by dimension, only when they are asked for, by a downward closure
from the facets (_downward_closure).  Faces are sorted by ascending vertex
tuple, and turned into frozensets, only when they are handed out; that order
is the basis order of every boundary matrix, and the sign of dropping the
t-th smallest vertex of a face is (-1)**t.  The empty face has dimension -1;
a complex distinguishes being void (no faces at all, facets=()) from being
{emptyset} (facets=(frozenset(),)).

A relative pair (X, Y) with Y a subcomplex of X has one basis element for
every face of X that is not a face of Y, and its boundary is the simplicial
boundary with the terms landing in Y deleted.  The pair walks down from the
facets of X once and stops at the first face inside a facet of Y: Y is
closed downward, so nothing below that face is a pair face, and neither
complex lists its own faces.  When Y is void this is the reduced chain
complex of X, so reduced and relative homology share one code path.

The strand and the pair are both signed-drop complexes on a family of sets,
one sorted mask tuple per degree, and those are checked and ranked on the
masks themselves: _squares_vanish proves the boundaries compose to zero by
the two paths each entry of the square has, and _mask_homology ranks a
discrete Morse reduction of the complex.  A sequential element matching
pairs off most cells, and the boundary of the Morse complex on the cells
left critical is summed along gradient flows; those entries, not the
signed drops of every cell, go to linalg's clearing loop.  Every incidence
sign, in a boundary matrix or a flow, comes from one rule, _drops.
Matrices and a ChainComplex, whose construction runs the generic product
check, are made only when one is asked for (chain_complex,
relative_chain_complex, StrandComplex.skeleton_complex).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .clutters import (
    Clutter,
    VertexTable,
    _canonical_family,
    _frozen,
    _in_table,
    _mask,
    _members,
    d_partite_complement,
    independent_sets,
)
from .errors import DEFAULT_MAX_VERTICES, ConsistencyError, check_vertex_guard
from .linalg import ChainComplex, Field, Matrix, _clearing_homology

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
        object.__setattr__(self, "facets", _canonical_family(self.facets, self.vertices, "facet", allow_empty=True))
        object.__setattr__(self, "_facet_masks", tuple(map(_mask, self.facets)))

    @cached_property
    def _faces(self) -> dict[int, set[int]]:
        return _downward_closure(self._facet_masks)

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
        return _frozen(self._faces.get(k, ()))

    def has_face(self, s: frozenset[int]) -> bool:
        """Whether s is a face; False for a set with a member that is not a
        vertex of the table."""
        return _in_table(s, self.vertices.n) and _inside(_mask(s), self._facet_masks)


def _inside(mask: int, facet_masks) -> bool:
    """Whether the face mask lies in one of the facet masks."""
    return any(mask | f == f for f in facet_masks)


def _downward_closure(facets, floor=()) -> dict[int, set[int]]:
    """Every face mask below the given facet masks, by dimension, except
    those inside a facet of floor.

    Each facet's subsets are walked as a tree, a child dropping one vertex
    above every vertex its parent dropped, so a facet reaches each of its
    subsets once.  A branch stops at a face found under an earlier facet,
    all its subsets having been found with it, and at a face inside floor,
    all its subsets being inside too; a face above one outside floor is
    outside as well, so the walk cuts off no face it keeps.  A child s ^ b
    is tested only against the floor facets that miss b: one that holds b
    and s ^ b holds s, which is in no floor facet.  The work is bounded by
    the faces kept and their sizes, however the facets overlap."""
    seen: set[int] = set()
    union = 0
    for f in facets:
        union |= f
    missing = {1 << v: tuple(g for g in floor if not g >> v & 1) for v in _members(union)}
    for f in facets:
        if f in seen or _inside(f, floor):
            continue
        stack = [(f, f)]  # a face and the vertices its children may drop
        while stack:
            s, droppable = stack.pop()
            seen.add(s)
            while droppable:
                b = droppable & -droppable
                droppable ^= b
                t = s ^ b
                if t not in seen:
                    for g in missing[b]:
                        if t | g == g:
                            break
                    else:
                        stack.append((t, droppable))
    faces: dict[int, set[int]] = {}
    for s in seen:
        faces.setdefault(s.bit_count() - 1, set()).add(s)
    return faces


@dataclass(frozen=True)
class SimplicialPair:
    """A complex together with a subcomplex; the faces of the pair are the
    faces of x that are not faces of y.  They are found once, on
    construction, and kept as masks by dimension in canonical order."""

    x: SimplicialComplex
    y: SimplicialComplex

    def __post_init__(self):
        if self.x.vertices != self.y.vertices:
            raise ValueError("pair must live on one vertex table")
        for f in self.y.facets:
            if not self.x.has_face(f):
                raise ValueError(f"facet {self.x.vertices.label(f)} of y is not a face of x")
        kept = _downward_closure(self.x._facet_masks, floor=self.y._facet_masks)
        object.__setattr__(self, "_kept", {k: tuple(sorted(fs, key=_members)) for k, fs in kept.items()})

    def faces(self, k: int) -> tuple[frozenset[int], ...]:
        return tuple(frozenset(_members(m)) for m in self._kept.get(k, ()))

    @property
    def dim(self) -> int:
        return self.x.dim


def _drops(a: int):
    """The signed-drop rule on one set mask: (a ^ b, (-1)**t) for each vertex
    bit b of a, ascending, b being the t-th smallest vertex of a (from 0);
    the sign flips at each set bit."""
    rest = a
    sign = 1
    while rest:
        b = rest & -rest
        rest ^= b
        yield a ^ b, sign
        sign = -sign


def _signed_drops(sources: tuple[int, ...], targets: tuple[int, ...]):
    """The signed-drop rule on masks: for each source set (a column) and each
    vertex of it whose removal lands on a target set (a row), yield the
    Matrix entry (row, col, sign) with the sign of _drops.  Columns come in
    order, vertices ascending."""
    index = {t: i for i, t in enumerate(targets)}
    for col, f in enumerate(sources):
        for t, sign in _drops(f):
            row = index.get(t)
            if row is not None:
                yield row, col, sign


def _boundary_matrix(sources: tuple[int, ...], targets: tuple[int, ...]) -> Matrix:
    return Matrix(len(targets), len(sources), tuple(_signed_drops(sources, targets)))


def chain_complex(x: SimplicialComplex, reduced: bool = False) -> ChainComplex:
    """The (augmented, if reduced) simplicial chain complex of x, as the pair
    x modulo the void complex (reduced) or modulo {emptyset} (not reduced).

    The void complex yields the empty chain complex; {emptyset} reduced yields
    one basis element in degree -1 and nothing else, so its reduced homology
    is rank 1 there.
    """
    y = SimplicialComplex(x.vertices, () if reduced or x.is_void else (frozenset(),))
    return relative_chain_complex(SimplicialPair(x, y))


def relative_chain_complex(p: SimplicialPair) -> ChainComplex:
    """The chain complex of the pair: quotient bases, boundary terms into y
    dropped."""
    return _graded_chain_complex(p._kept)


def _graded_chain_complex(bases: dict[int, tuple[int, ...]]) -> ChainComplex:
    """The chain complex with basis bases[k] (sorted masks) in each degree k
    from the lowest key to the highest, and signed-drop boundaries."""
    dims = _graded_dims(bases)
    boundaries = {k: _boundary_matrix(bases.get(k, ()), bases.get(k - 1, ())) for k in dims if k - 1 in dims}
    return ChainComplex(dims, boundaries)


def _graded_dims(bases: dict[int, tuple[int, ...]]) -> dict[int, int]:
    """The size of every degree from the lowest key of bases to the highest,
    gaps included as zeros."""
    return {k: len(bases.get(k, ())) for k in range(min(bases, default=0), max(bases, default=-1) + 1)}


def _squares_vanish(bases: dict[int, tuple[int, ...]]) -> None:
    """Raise ConsistencyError unless the signed-drop boundaries of the
    graded basis compose to zero, checked on the masks.

    An entry of boundary k-1 after boundary k joins a set A in degree k to
    A - v - w for two of its vertices v < w, at positions t_v < t_w in A,
    along exactly two paths: through A - v, with sign (-1)**(t_v + t_w - 1),
    and through A - w, with sign (-1)**(t_v + t_w).  The entry vanishes
    exactly when both middle sets are in degree k - 1 or neither is.  So,
    calling v kept when A - v is in degree k - 1 and missing otherwise, the
    squares vanish exactly when no A has a kept v and a missing w with
    A - v - w in degree k - 2.  The lowest failing degree is reported, as
    ChainComplex's product check reports it."""
    sets = {k: set(masks) for k, masks in bases.items()}
    for k in sorted(bases):
        below, middle = sets.get(k - 2), sets.get(k - 1, ())
        if not below:
            continue
        for a in bases[k]:
            kept = missing = 0
            rest = a
            while rest:
                b = rest & -rest
                rest ^= b
                if a ^ b in middle:
                    kept |= b
                else:
                    missing |= b
            while kept and missing:
                v = kept & -kept
                kept ^= v
                rest = missing
                while rest:
                    w = rest & -rest
                    rest ^= w
                    if a ^ v ^ w in below:
                        raise ConsistencyError(f"boundaries at degrees {k} and {k - 1} do not compose to zero")


def _mask_homology(bases: dict[int, tuple[int, ...]], f: Field) -> dict[int, int]:
    """homology_dims(_graded_chain_complex(bases), f), worked out on the
    masks, with no Matrix, after a discrete Morse reduction.

    _squares_vanish checks the squares first.  _element_matching then pairs
    off cells (k, a), and the Morse complex on the cells it leaves critical
    has the same homology (Forman, Adv. Math. 134 (1998), in its algebraic
    form for any based complex whose matched incidences are units, here
    +-1).  Its boundary takes a critical sigma to the sum, over the faces
    tau of sigma, of [sigma:tau] times the gradient flow of tau
    (_gradient_flow).  Those entries go to linalg's clearing loop, with the
    critical cells counted in every degree of _graded_dims(bases)."""
    _squares_vanish(bases)
    p = f.characteristic
    critical, up = _element_matching(bases)

    def entries(k: int, skip):
        rows = {a: i for i, a in enumerate(critical.get(k - 1, ()))}
        flow = _gradient_flow(up.get(k - 1, {}), rows, p)
        sources = critical.get(k, ())
        if skip:
            sources = tuple(a for col, a in enumerate(sources) if col not in skip)
        for col, a in enumerate(sources):
            acc: dict[int, int] = {}
            for t, sign in _drops(a):
                for row, v in flow(t).items():
                    acc[row] = acc.get(row, 0) + sign * v
            for row, v in acc.items():
                yield row, col, v

    return _clearing_homology({k: len(critical.get(k, ())) for k in _graded_dims(bases)}, entries, p)


def _element_matching(bases: dict[int, tuple[int, ...]]):
    """The sequential element matching on the cells (k, a), a in bases[k]:
    for each vertex, lowest first, (k, a) is paired with (k + 1, a + v) when
    v is not in a and both cells are still unmatched.  Returns the critical
    (unmatched) masks of each degree, in the order of bases, and for each
    degree the cells matched up, as mask -> partner mask one degree higher.

    A cell is keyed by its degree as well as its mask, since a family may
    hold one mask in two degrees, and only adjacent degrees pair.  Within a
    round a cell without v can only pair up and one with v only down, each
    with one candidate, so the order of the cells does not matter.

    The matching is acyclic.  On a closed gradient path, x_i matched up with
    a_i = x_i + u_i and x_{i+1} = a_i - w_i (w_i != u_i), let x_j be the
    cell matched first, in round u = u_j.  Every later x_i holds u.  Were
    w_i = u (so i != j), x_{i+1} and a_i would both be unmatched in round u:
    a_i is x_i's partner, matched later, and x_{i+1} is matched no earlier
    than x_j and not to a_i; so round u would have paired them.  Then the
    path never returns to x_j, which lacks u."""
    free = {k: set(masks) for k, masks in bases.items()}
    up: dict[int, dict[int, int]] = {}
    union = 0
    for masks in bases.values():
        for a in masks:
            union |= a
    for v in _members(union):
        b = 1 << v
        for k, here in free.items():
            above = free.get(k + 1)
            if above:
                lower = [a for a in here if not a & b and a | b in above]
                matched = up.setdefault(k, {})
                for a in lower:
                    here.discard(a)
                    above.discard(a | b)
                    matched[a] = a | b
    return {k: tuple(a for a in masks if a in free[k]) for k, masks in bases.items()}, up


def _gradient_flow(up: dict[int, int], rows: dict[int, int], p: int):
    """The gradient flow of the cells of one degree onto its critical cells,
    as a function of a mask: {row: coefficient}, over the integers, or mod p
    when p > 0.  rows numbers the critical cells, and up maps every cell
    matched up to its partner one degree higher.

    A critical cell flows to itself and a cell matched down, or a mask that
    is no cell of the degree, to nothing.  A cell x matched up with y flows
    to -[y:x] times the sum of [y:g] flow(g) over the faces g != x of y, the
    incidences being the signs of _drops ([y:x] is +-1, its own inverse).
    Each flow is worked out once, by a walk with an explicit stack.  The walk
    marks the cells it is working on; meeting one of them again means the
    matching has a cycle, and raises ConsistencyError instead of looping."""
    flows = {a: {i: 1} for a, i in rows.items()}
    working: set[int] = set()
    none: dict[int, int] = {}

    def flow(x: int) -> dict[int, int]:
        if x in flows or x not in up:
            return flows.get(x, none)
        stack = [x]
        while stack:
            c = stack[-1]
            if c in flows:
                stack.pop()
                continue
            if c not in working:
                working.add(c)
                depth = len(stack)
                for g, _ in _drops(up[c]):
                    if g != c and g in up and g not in flows:
                        if g in working:
                            raise ConsistencyError("the gradient walk met a cell it is working on: the matching has a cycle")
                        stack.append(g)
                if len(stack) > depth:
                    continue
            stack.pop()
            working.discard(c)
            acc: dict[int, int] = {}
            for g, sign in _drops(up[c]):
                if g == c:
                    own = sign
                else:
                    for row, v in flows.get(g, none).items():
                        acc[row] = acc.get(row, 0) + sign * v
            out = flows[c] = {}
            for row, v in acc.items():
                v = -own * v % p if p else -own * v
                if v:
                    out[row] = v
        return flows[x]

    return flow


def f_vector(p: SimplicialPair) -> tuple[int, ...]:
    """Counts of pair faces in dimensions 0..dim(x); the empty face, if it is
    a face of the pair, is not counted here."""
    return tuple(len(p._kept.get(k, ())) for k in range(0, p.x.dim + 1))


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
    return SimplicialComplex(table, tuple(everything - frozenset(table.part_members(i)) for i in range(table.d)))


def strand_support_pair(c: Clutter, max_vertices: int = DEFAULT_MAX_VERTICES) -> SimplicialPair:
    """The relative pair carrying the first linear strand of the edge ideal
    of c: x is the independence complex of the d-partite complement of c,
    y the part-deficient subcomplex.  The faces of the pair are exactly the
    complement-independent sets meeting every part.

    y really is a subcomplex of x (a set missing a part contains no
    transversal, hence no edge of the complement); the pair re-verifies this
    rather than assuming it.  The vertex guard fires before the complement is
    built, since listing every transversal is already exponential in d.
    """
    check_vertex_guard(c.n, max_vertices)
    x = independent_sets(d_partite_complement(c), max_vertices=max_vertices)
    y = part_deficient_complex(c.vertices)
    try:
        return SimplicialPair(x, y)
    except ValueError as e:
        raise ConsistencyError("part-deficient subcomplex escapes the independence complex") from e
