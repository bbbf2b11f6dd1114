"""Squarefree monomial ideals as antichains of generator supports.

A squarefree monomial ideal is recorded by its unique minimal generating set
of squarefree monomials, each a subset of the vertex table; the polynomial
ring never appears.  The zero ideal is the empty antichain.  The two ideal
constructions the strand machinery needs are the Alexander dual (minimal
vertex covers of the generator supports) and the linkage ideal that the
sequence of part products links a cover ideal to.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable

from .clutters import (
    Clutter,
    VertexTable,
    _canonical_family,
    _frozen,
    _in_table,
    _mask,
    _minimal_cover_masks,
    d_partite_complement,
)
from .errors import DEFAULT_MAX_VERTICES, check_vertex_guard

__all__ = [
    "SquarefreeIdeal",
    "edge_ideal",
    "alexander_dual",
    "linkage_ideal",
    "squarefree_colon",
]


@dataclass(frozen=True)
class SquarefreeIdeal:
    """Minimal generators of a squarefree monomial ideal, as supports.

    The generators must form an antichain of nonempty sets; the empty tuple
    is the zero ideal.
    """

    vertices: VertexTable
    generators: tuple[frozenset[int], ...]

    def __post_init__(self):
        object.__setattr__(self, "generators", _canonical_family(self.generators, self.vertices, "generator"))

    @property
    def is_zero(self) -> bool:
        return not self.generators

    @property
    def min_degree(self) -> int:
        if self.is_zero:
            raise ValueError("the zero ideal has no generator degree")
        return min(len(g) for g in self.generators)


def edge_ideal(c: Clutter) -> SquarefreeIdeal:
    return SquarefreeIdeal(c.vertices, c.edges)


def alexander_dual(i: SquarefreeIdeal) -> SquarefreeIdeal:
    """The ideal generated by the minimal vertex covers of the generator
    supports.  An involution on nonzero squarefree ideals."""
    if i.is_zero:
        raise ValueError("the zero ideal has no Alexander dual")
    return SquarefreeIdeal(i.vertices, _frozen(_minimal_cover_masks(i.generators)))


def linkage_ideal(c: Clutter) -> SquarefreeIdeal:
    """The edge ideal of the d-partite complement of c.

    Its dual is what the sequence of part products links the cover ideal of
    c to: (parts product ideal : dual of I(C)) is generated by the minimal
    covers of the complement, and symmetrically with the two clutters
    swapped.  The brute-force squarefree_colon below is the independent
    route to those antichains.
    """
    return SquarefreeIdeal(c.vertices, d_partite_complement(c).edges)


def squarefree_colon(
    parts: Iterable[frozenset[int]],
    dual_generators: Iterable[frozenset[int]],
    n: int,
) -> tuple[frozenset[int], ...]:
    """Minimal squarefree multidegrees of the colon (a : K), where a is
    generated by the products of the parts and K by the dual generators.

    Membership by brute force over all 2^n supports, on int masks: the
    monomial of support S multiplies every generator of support D into a iff
    some part is contained in S union D, that is, iff S contains what the
    part has outside D.  Exponential in n; meant for checks and tests, so
    keep n small.  Membership only grows with S, so a member is minimal
    exactly when dropping any one of its vertices leaves the colon.  Above
    DEFAULT_MAX_VERTICES (24) it raises SizeGuardError before allocating.
    An n that is not an int, or too small for the vertices given, raises
    ValueError.
    """
    if type(n) is not int:
        raise ValueError(f"n must be an int, got {n!r}")
    check_vertex_guard(n, DEFAULT_MAX_VERTICES)
    parts, dual_generators = tuple(parts), tuple(dual_generators)
    if not _in_table(itertools.chain(*parts, *dual_generators), n):
        raise ValueError(f"a vertex of a part or dual generator is outside 0..{n - 1}")
    part_masks = tuple(_mask(p) for p in parts)
    # per dual generator D, each part less D
    needs = tuple(tuple(p & ~_mask(g) for p in part_masks) for g in dual_generators)
    member = bytearray(1 << n)
    for s in range(1 << n):
        for need in needs:
            for q in need:
                if q & s == q:
                    break
            else:
                break  # no part fits this generator
        else:
            member[s] = 1
    minimal = []
    for s in range(1 << n):
        if member[s]:
            rest = s
            while rest:
                b = rest & -rest
                rest ^= b
                if member[s ^ b]:
                    break
            else:
                minimal.append(s)
    return _frozen(minimal)
