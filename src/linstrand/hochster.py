"""Multigraded Betti numbers of squarefree monomial ideals, by Hochster's
formula.

beta_{i,sigma}(I) is the dimension of the reduced homology in degree
|sigma| - i - 2 of the independence complex of the generator supports
restricted to sigma, over the coefficient field.  The sweeps run over the 2^n
squarefree multidegrees and are therefore exponential in n.  Only those sigma
that are the union of the generators they contain are worked on (Betti
numbers live on the lcm lattice): if some vertex v of sigma lies in none of
those generators, adding v to a face of the restricted complex never creates
a generator, so the complex is a cone with apex v, all its reduced homology
vanishes and beta_{i,sigma} = 0 for every i.

This module is the oracle the strand construction is validated against, so
it shares no code with the strand or the relative-pair route beyond exact
rank computation: it never reads the strand's basis, the part structure or
the relative pair, only the generators, and derives every number from
faces and boundary rows of its own.  Those rows go straight to the one
elimination kernel (linalg._eliminate), with no Matrix in between, so
Field, QQ and _eliminate are all it takes from linalg.  The lcm skip uses
nothing but the generators either, so it keeps that independence.

The homology is taken relative to a vertex star, which makes every matrix
smaller.  Let v be the lowest vertex of a nonempty sigma.  The star of v in
the restricted complex (the faces F with F | {v} a face) is a cone with apex
v, so it is acyclic, and the long exact sequence of the pair gives
H~_k(complex) = H_k(complex, star of v) over every field.  The relative
chains are the faces F inside sigma with F | {v} not a face; faces through v
all lie in the star, so none of them is a chain.  When {v} is itself a
generator the star is void, every face (the empty one included) is a
chain, and the relative homology is the reduced homology itself.
sigma = {} has no vertex and keeps its one face, the empty one.  The star
is read off the generator masks alone, like everything else here: the
oracle imports nothing from strand, simplicial or lyubeznik, so the
reduction keeps it independent of the routes it checks.

Faces are handled as bitmasks, grown once per ideal from the empty face.
One kernel, _betti_at, answers every entry point: given sigma and the
homological degrees wanted there, it filters to sigma only the chain
cardinalities those degrees read, and computes each boundary rank once.
It filters a pool, not every face: the faces of one cardinality whose
vertices all lie above the apex v and whose union with v is not a face.
Each (v, cardinality) pool is built the first time a sigma asks for it and
kept for the rest of the call, so every sigma with that lowest vertex
scans only faces that can be its chains.
The full table asks it for every degree, the linear strand and a single
query for one, so the latter cost two ranks per multidegree.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from .clutters import _in_table, _mask, _members
from .errors import DEFAULT_MAX_VERTICES, ConsistencyError, check_vertex_guard
from .ideals import SquarefreeIdeal
from .linalg import Field, QQ, _eliminate

__all__ = ["BettiTable", "betti_table", "multigraded_betti", "linear_strand_betti", "is_linear_by_betti"]


@dataclass(frozen=True)
class BettiTable:
    """Nonzero multigraded Betti numbers beta_{i,sigma}; graded aggregates
    beta_{i,j} = sum over |sigma| = j are derived at construction."""

    min_degree: int
    multigraded: dict[tuple[int, frozenset[int]], int]

    def __post_init__(self):
        graded: dict[tuple[int, int], int] = {}
        for (i, sigma), v in self.multigraded.items():
            key = (i, len(sigma))
            graded[key] = graded.get(key, 0) + v
        object.__setattr__(self, "graded", graded)

    def is_linear(self) -> bool:
        d = self.min_degree
        return all(j == i + d for (i, j) in self.graded)


def _independent_masks(n: int, gen_masks: list[int]) -> list[list[int]]:
    """Faces of the independence complex of the generator supports, as
    bitmasks grouped by cardinality (index 0 holds the empty face), each
    cardinality in ascending mask order.

    Grown from the empty face: a face of cardinality c + 1 is a face of
    cardinality c plus a vertex v above its highest one, and it is a face
    unless a generator through v lies inside it (any other generator would
    lie inside the smaller face already).  Taking v in ascending order
    outside, and the smaller faces below bit v in their ascending order
    inside, lists each cardinality in ascending mask order."""
    through = [[g for g in gen_masks if g >> v & 1] for v in range(n)]
    by_card: list[list[int]] = [[0]]
    for _ in range(n):
        level = []
        for v in range(n):
            bit = 1 << v
            for m in by_card[-1]:
                if m >= bit:
                    break
                grown = m | bit
                if not any(grown & g == g for g in through[v]):
                    level.append(grown)
        by_card.append(level)
    return by_card


def _mask_boundary(sources: list[int], targets: list[int], p: int) -> list[dict[int, int]]:
    """The signed boundary from the source faces (columns) to the target
    faces (rows), one col -> value dict per target, over the field of
    characteristic p: dropping the t-th smallest vertex of a face, counting
    from 0, has sign (-1)**t, and -1 is p - 1 when p > 0.  Only a face's set
    bits are walked, lowest first."""
    index = {m: i for i, m in enumerate(targets)}
    rows: list[dict[int, int]] = [{} for _ in targets]
    minus = p - 1 if p else -1
    for col, m in enumerate(sources):
        rest = m
        sign = 1
        while rest:
            bit = rest & -rest
            rest ^= bit
            row = index.get(m ^ bit)
            if row is not None:
                rows[row][col] = sign
            sign = minus if sign == 1 else 1
    return rows


def _lcm_closed(sigma: int, gen_masks: list[int]) -> bool:
    """Whether sigma is the union of the generator masks it contains.  Any
    other multidegree has a vertex outside all of them, a cone apex of the
    restricted complex, so every beta_{i,sigma} there is zero."""
    union = 0
    for g in gen_masks:
        if g & sigma == g:
            union |= g
    return union == sigma


class _Prepared(NamedTuple):
    """What every sigma of one oracle call shares: the vertex count, the
    generator masks, the independent faces by cardinality (by_card) and as a
    set (independent), and the chain pools _chain_pool fills as sigmas ask
    for them, keyed by (apex, cardinality)."""

    n: int
    gen_masks: list[int]
    by_card: list[list[int]]
    independent: set[int]
    pools: dict[tuple[int, int], list[int]]


def _chain_pool(prepared: _Prepared, apex: int, c: int) -> list[int]:
    """The faces of cardinality c that can be chains of a sigma whose lowest
    vertex is apex: all their vertices lie above the apex, and their union
    with the apex is not a face.  The first test only keeps the pool short,
    since the filter to sigma drops a face with a lower vertex anyway.
    Built the first time a sigma asks for it, in by_card's ascending mask
    order."""
    key = (apex, c)
    pool = prepared.pools.get(key)
    if pool is None:
        at_or_below = (apex << 1) - 1
        independent = prepared.independent
        pool = [m for m in prepared.by_card[c] if not m & at_or_below and m | apex not in independent]
        prepared.pools[key] = pool
    return pool


def _betti_at(prepared: _Prepared, sigma: int, f: Field, hom_degrees) -> list[int]:
    """beta_{i,sigma} for each i of hom_degrees, in that order: the reduced
    homology of the independence complex restricted to sigma in degree
    k = |sigma| - i - 2, taken relative to the star of the lowest vertex v
    of sigma.  The chains of cardinality c are the faces F inside sigma of
    that cardinality with F | {v} not a face, so the homology is the number
    of chains less the ranks of the boundaries leaving and entering them;
    _mask_boundary drops the faces of the star, which are zero in the
    quotient.  The chains are v's pool for c (_chain_pool) filtered to
    sigma, which keeps by_card's order; at sigma = {} there is no v and
    every face is a chain.  Each cardinality is filtered, and each rank
    computed, at most once."""
    p = f.characteristic
    size = sigma.bit_count()
    apex = sigma & -sigma
    outside = ~sigma
    faces: dict[int, list[int]] = {}
    ranks: dict[int, int] = {}

    def chains(c: int) -> list[int]:
        if c not in faces:
            if not 0 <= c <= size:
                faces[c] = []
            elif apex:
                faces[c] = [m for m in _chain_pool(prepared, apex, c) if not m & outside]
            else:
                faces[c] = [m for m in prepared.by_card[c] if not m & outside]
        return faces[c]

    def del_rank(c: int) -> int:
        # rank of the boundary from cardinality c to cardinality c - 1
        if c not in ranks:
            ranks[c] = _eliminate(_mask_boundary(chains(c), chains(c - 1), p), p) if chains(c) and chains(c - 1) else 0
        return ranks[c]

    out = []
    for i in hom_degrees:
        k = size - i - 2
        h = len(chains(k + 1)) - del_rank(k + 1) - del_rank(k + 2)
        if h < 0:
            raise ConsistencyError("negative reduced homology dimension")
        out.append(h)
    return out


def _prepare(i: SquarefreeIdeal, max_vertices: int) -> _Prepared:
    check_vertex_guard(i.vertices.n, max_vertices)
    if i.is_zero:
        raise ValueError("the zero ideal has no Betti table")
    n = i.vertices.n
    gen_masks = [_mask(g) for g in i.generators]
    by_card = _independent_masks(n, gen_masks)
    return _Prepared(n, gen_masks, by_card, {m for level in by_card for m in level}, {})


def _sweep(prepared: _Prepared, f: Field, hom_degrees) -> dict[tuple[int, frozenset[int]], int]:
    """The nonzero beta_{i,sigma} over every lcm-closed sigma, in ascending
    mask order, for the homological degrees hom_degrees(|sigma|) names."""
    gen_masks = prepared.gen_masks
    multigraded: dict[tuple[int, frozenset[int]], int] = {}
    for sigma in range(1 << prepared.n):
        degrees = hom_degrees(sigma.bit_count())
        if not degrees or not _lcm_closed(sigma, gen_masks):
            continue
        for hom_i, v in zip(degrees, _betti_at(prepared, sigma, f, degrees)):
            if v:
                multigraded[(hom_i, frozenset(_members(sigma)))] = v
    return multigraded


def _betti_degrees(
    i: SquarefreeIdeal, hom_degrees, sigma: frozenset[int], f: Field, max_vertices: int
) -> list[int]:
    """beta_{i,sigma} for each i of hom_degrees, in that order, preparing
    the oracle once.  A member of sigma that is not an int in 0..n-1 raises
    ValueError."""
    prepared = _prepare(i, max_vertices)
    if not _in_table(sigma, prepared.n):
        raise ValueError("multidegree out of range")
    smask = _mask(sigma)
    if not _lcm_closed(smask, prepared.gen_masks):
        return [0] * len(hom_degrees)
    return _betti_at(prepared, smask, f, hom_degrees)


def betti_table(
    i: SquarefreeIdeal,
    f: Field = QQ,
    degree_cap: int | None = None,
    max_vertices: int = DEFAULT_MAX_VERTICES,
) -> BettiTable:
    """All nonzero beta_{i,sigma} with |sigma| at most degree_cap (all of
    them when the cap is None), over the field f.  A cap that is not an int
    (a bool or a float included) or is negative raises ValueError."""
    if degree_cap is not None and type(degree_cap) is not int:
        raise ValueError(f"degree cap must be an int, got {degree_cap!r}")
    if degree_cap is not None and degree_cap < 0:
        raise ValueError(f"degree cap must be nonnegative, got {degree_cap}")
    prepared = _prepare(i, max_vertices)
    cap = prepared.n if degree_cap is None else degree_cap
    multigraded = _sweep(prepared, f, lambda size: range(size - 1, -1, -1) if size <= cap else ())
    return BettiTable(i.min_degree, multigraded)


def multigraded_betti(
    i: SquarefreeIdeal,
    hom_degree: int,
    sigma: frozenset[int],
    f: Field = QQ,
    max_vertices: int = DEFAULT_MAX_VERTICES,
) -> int:
    """A single beta_{i,sigma} without sweeping the whole table.

    At sigma = {} and i = -1 this is 1, the reduced homology of {emptyset}
    in degree -1, which Hochster's formula places there; betti_table records
    no i < 0, so this is the one cell where the two differ.  A sigma with a
    vertex outside the table, or a hom_degree that is not an int (a bool
    would pass for 0 or 1), raises ValueError."""
    if type(hom_degree) is not int:
        raise ValueError(f"homological degree must be an int, got {hom_degree!r}")
    return _betti_degrees(i, (hom_degree,), sigma, f, max_vertices)[0]


def linear_strand_betti(
    i: SquarefreeIdeal,
    f: Field = QQ,
    max_vertices: int = DEFAULT_MAX_VERTICES,
) -> tuple[dict[int, int], dict[tuple[int, frozenset[int]], int]]:
    """The diagonal j = i + d of the Betti table: graded and multigraded
    first-linear-strand Betti numbers.

    Per multidegree only beta_{|sigma|-d, sigma} is wanted, which is the
    reduced homology of the restricted complex in the single degree d - 2,
    so this costs two ranks per multidegree instead of a full homology run.
    """
    prepared = _prepare(i, max_vertices)
    d = i.min_degree
    multigraded = _sweep(prepared, f, lambda size: (size - d,) if size >= d else ())
    graded: dict[int, int] = {}
    for (hom_i, _), v in multigraded.items():
        graded[hom_i] = graded.get(hom_i, 0) + v
    return graded, multigraded


def is_linear_by_betti(
    i: SquarefreeIdeal,
    f: Field = QQ,
    max_vertices: int = DEFAULT_MAX_VERTICES,
) -> bool:
    """Linear resolution test by the oracle: one generator degree and no
    graded Betti number off the diagonal j = i + d."""
    if i.is_zero:
        raise ValueError("the zero ideal has no resolution to test")
    if any(len(g) != i.min_degree for g in i.generators):
        return False
    return betti_table(i, f, max_vertices=max_vertices).is_linear()
