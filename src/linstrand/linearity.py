"""Combinatorial linear-resolution test for edge ideals of d-partite
d-uniform clutters.

The edge ideal has a linear resolution (over every field) iff no "scattered
pair" shows up under restriction and projection: for every pair {e, e'} of
distinct transversals of the partition (edges or not), every 2 <= d' <= d,
and every d'-subset J of the parts, neither the restriction of the clutter to
e union e' projected onto J, nor the same projection of the complement of the
restriction, may consist of exactly two disjoint edges.  Restriction first
matters: both a clutter and its complement can have perfectly nice global
projections while a restricted projection degenerates.

Restriction and complement commute (the complement of a restriction to a
union of transversals is the restriction of the complement), which is why the
verdict is automatically the same for the clutter and its complement;
complement_linearity_agrees states that as a runtime check.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .clutters import Clutter, d_partite_complement, ranked_projection, restrict
from .errors import DEFAULT_MAX_VERTICES, check_vertex_guard

__all__ = ["ProjectionCertificate", "LinearityVerdict", "is_linear", "complement_linearity_agrees"]


@dataclass(frozen=True)
class ProjectionCertificate:
    """A witness against linearity, in the vertex numbering of the original
    clutter: restrict to the union of the two transversals, take the stated
    side (the restriction or its complement), project onto the stated parts,
    and exactly two disjoint edges remain."""

    first: frozenset[int]
    second: frozenset[int]
    parts: tuple[int, ...]
    side: str  # "clutter" or "complement"


@dataclass(frozen=True)
class LinearityVerdict:
    linear: bool
    certificate: ProjectionCertificate | None = None

    def __bool__(self):
        return self.linear


def _two_disjoint_edges(c: Clutter) -> bool:
    return len(c.edges) == 2 and not (c.edges[0] & c.edges[1])


def is_linear(c: Clutter, max_vertices: int = DEFAULT_MAX_VERTICES) -> LinearityVerdict:
    """Scan transversal pairs, part subsets, and both sides in a fixed order
    (pairs of transversals lexicographically, then |J| ascending, then J
    lexicographically, the restricted clutter before its complement) and
    report the first scattered pair found, if any.

    An edgeless clutter is linear by convention (there is no pair of edges to
    scatter, and no resolution to compare against).  The vertex guard fires
    first, on a one-part clutter too, before the transversals are listed.
    """
    check_vertex_guard(c.n, max_vertices)
    d = c.d
    if d == 1:
        return LinearityVerdict(True)
    transversals = c.complete_edges()
    for e, e2 in itertools.combinations(transversals, 2):
        w = e | e2
        induced = restrict(c, w)
        sides = (("clutter", induced), ("complement", d_partite_complement(induced)))
        for dd in range(2, d + 1):
            for js in itertools.combinations(range(d), dd):
                for name, side in sides:
                    if _two_disjoint_edges(ranked_projection(side, js)):
                        return LinearityVerdict(False, ProjectionCertificate(e, e2, js, name))
    return LinearityVerdict(True)


def complement_linearity_agrees(c: Clutter, max_vertices: int = DEFAULT_MAX_VERTICES) -> bool:
    """The verdicts of c and of its d-partite complement coincide (the scan
    is symmetric in the two sides up to swapping them)."""
    return is_linear(c, max_vertices).linear == is_linear(d_partite_complement(c), max_vertices).linear
