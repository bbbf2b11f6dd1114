"""Exact sparse linear algebra over the rationals and prime fields.

Matrices here are small (hundreds of rows at most) and very sparse, with
integer entries; everything the rest of the library needs is the rank and the
chain-complex bookkeeping around it.  Rank over the rationals is computed by
fraction-free integer elimination (rows are combined integrally and divided by
their gcd), rank over GF(p) by ordinary modular elimination.  Pivots are
chosen Markowitz-style: a shortest row, then its sparsest column.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

from .errors import ConsistencyError

__all__ = ["Field", "QQ", "GF2", "gf", "Matrix", "ChainComplex", "rank", "homology_dims"]


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    if p % 2 == 0:
        return p == 2
    f = 3
    while f * f <= p:
        if p % f == 0:
            return False
        f += 2
    return True


@dataclass(frozen=True)
class Field:
    """The rationals (characteristic 0) or a prime field GF(p), p < 2**31."""

    characteristic: int = 0

    def __post_init__(self):
        p = self.characteristic
        if p == 0:
            return
        if p >= 2 ** 31 or not _is_prime(p):
            raise ValueError(f"characteristic must be 0 or a prime below 2**31, got {p}")

    @property
    def is_rationals(self) -> bool:
        return self.characteristic == 0

    def __str__(self):
        return "QQ" if self.characteristic == 0 else f"GF({self.characteristic})"


QQ = Field(0)
GF2 = Field(2)


def gf(p: int) -> Field:
    return Field(p)


@dataclass(frozen=True)
class Matrix:
    """A sparse integer matrix: (row, col, value) triples, sorted, no zeros."""

    nrows: int
    ncols: int
    entries: tuple[tuple[int, int, int], ...]

    def __post_init__(self):
        if self.nrows < 0 or self.ncols < 0:
            raise ValueError("negative matrix dimensions")
        norm = []
        for r, c, v in self.entries:
            if v != int(v):
                raise ValueError(f"non-integer entry {v!r} at ({r},{c})")
            norm.append((int(r), int(c), int(v)))
        entries = tuple(sorted(norm))
        seen = set()
        for r, c, v in entries:
            if not (0 <= r < self.nrows and 0 <= c < self.ncols):
                raise ValueError(f"entry ({r},{c}) out of range")
            if v == 0:
                raise ValueError("zero entries must be omitted")
            if (r, c) in seen:
                raise ValueError(f"duplicate entry at ({r},{c})")
            seen.add((r, c))
        object.__setattr__(self, "entries", entries)

    @staticmethod
    def from_entries(nrows: int, ncols: int, items: Iterable[tuple[int, int, int]]) -> "Matrix":
        return Matrix(nrows, ncols, tuple((r, c, v) for r, c, v in items if v != 0))

    @staticmethod
    def zero(nrows: int, ncols: int) -> "Matrix":
        return Matrix(nrows, ncols, ())

    def transpose(self) -> "Matrix":
        return Matrix(self.ncols, self.nrows, tuple((c, r, v) for r, c, v in self.entries))

    def rows(self) -> list[dict[int, int]]:
        out: list[dict[int, int]] = [dict() for _ in range(self.nrows)]
        for r, c, v in self.entries:
            out[r][c] = v
        return out

    def compose(self, other: "Matrix") -> "Matrix":
        """self @ other, exactly, over the integers."""
        if self.ncols != other.nrows:
            raise ValueError("shape mismatch in composition")
        cols_of_self: dict[int, list[tuple[int, int]]] = {}
        for r, k, v in self.entries:
            cols_of_self.setdefault(k, []).append((r, v))
        acc: dict[tuple[int, int], int] = {}
        for k, c, v in other.entries:
            for r, w in cols_of_self.get(k, ()):
                acc[(r, c)] = acc.get((r, c), 0) + w * v
        return Matrix.from_entries(self.nrows, other.ncols, ((r, c, v) for (r, c), v in acc.items()))

    def is_zero(self) -> bool:
        return not self.entries


def _pivot(active: list[dict[int, int]]) -> tuple[dict[int, int], int]:
    row = min(active, key=len)
    counts: dict[int, int] = {}
    for r in active:
        for c in r:
            counts[c] = counts.get(c, 0) + 1
    col = min(row, key=lambda c: (counts[c], c))
    return row, col


def _rank_rationals(active: list[dict[int, int]]) -> int:
    rk = 0
    while active:
        piv, pc = _pivot(active)
        active.remove(piv)
        pv = piv[pc]
        rk += 1
        survivors = []
        for r in active:
            f = r.get(pc)
            if f is None:
                survivors.append(r)
                continue
            new: dict[int, int] = {}
            for c in r.keys() | piv.keys():
                nv = pv * r.get(c, 0) - f * piv.get(c, 0)
                if nv:
                    new[c] = nv
            if new:
                g = 0
                for v in new.values():
                    g = math.gcd(g, v)
                if g > 1:
                    new = {c: v // g for c, v in new.items()}
                survivors.append(new)
        active = survivors
    return rk


def _rank_mod_p(active: list[dict[int, int]], p: int) -> int:
    rk = 0
    while active:
        piv, pc = _pivot(active)
        active.remove(piv)
        inv = pow(piv[pc], p - 2, p)
        rk += 1
        survivors = []
        for r in active:
            f = r.get(pc)
            if f is None:
                survivors.append(r)
                continue
            f = (f * inv) % p
            new: dict[int, int] = {}
            for c in r.keys() | piv.keys():
                nv = (r.get(c, 0) - f * piv.get(c, 0)) % p
                if nv:
                    new[c] = nv
            if new:
                survivors.append(new)
        active = survivors
    return rk


def rank(m: Matrix, field: Field = QQ) -> int:
    """Rank of m over the field.  Exact in both characteristics."""
    p = field.characteristic
    if p == 0:
        active = [r for r in m.rows() if r]
        return _rank_rationals(active)
    active = []
    for r in m.rows():
        rr = {c: v % p for c, v in r.items() if v % p}
        if rr:
            active.append(rr)
    return _rank_mod_p(active, p)


class ChainComplex:
    """Finitely many free summands indexed by integer degrees, with integer
    boundary maps going degree k -> k-1.

    dims maps a degree to the number of basis elements in it; boundaries maps
    a degree k to the matrix of its boundary (shape dims[k-1] x dims[k]).
    Degrees absent from dims are zero, and a missing boundary is the zero map.
    Composition of consecutive boundaries is verified to vanish at
    construction time.
    """

    def __init__(self, dims: dict[int, int], boundaries: dict[int, Matrix]):
        self.dims = dict(dims)
        self.boundaries = dict(boundaries)
        for k, size in self.dims.items():
            if size < 0:
                raise ValueError("negative dimension")
        for k, m in self.boundaries.items():
            if m.ncols != self.dims.get(k, 0):
                raise ValueError(f"boundary at degree {k} has {m.ncols} columns, expected {self.dims.get(k, 0)}")
            if m.nrows != self.dims.get(k - 1, 0):
                raise ValueError(f"boundary at degree {k} has {m.nrows} rows, expected {self.dims.get(k - 1, 0)}")
        for k in sorted(self.boundaries):
            if k + 1 in self.boundaries:
                if not self.boundaries[k].compose(self.boundaries[k + 1]).is_zero():
                    raise ConsistencyError(f"boundaries at degrees {k + 1} and {k} do not compose to zero")

    def degrees(self) -> list[int]:
        return sorted(self.dims)

    def dim(self, k: int) -> int:
        return self.dims.get(k, 0)

    def boundary(self, k: int) -> Matrix:
        m = self.boundaries.get(k)
        if m is not None:
            return m
        return Matrix.zero(self.dims.get(k - 1, 0), self.dims.get(k, 0))

    def __eq__(self, other):
        return (
            isinstance(other, ChainComplex)
            and self.dims == other.dims
            and {k: m for k, m in self.boundaries.items() if m.entries}
            == {k: m for k, m in other.boundaries.items() if m.entries}
        )


def homology_dims(c: ChainComplex, field: Field = QQ) -> dict[int, int]:
    """dim H_k for every degree k present in c, over the field.

    Over a field the k-th homology dimension is
    dims[k] - rank(boundary k) - rank(boundary k+1); a negative value would
    mean the boundaries do not compose to zero and raises.
    """
    ranks = {k: rank(c.boundary(k), field) for k in c.dims if c.boundary(k).entries}
    out: dict[int, int] = {}
    for k in c.dims:
        h = c.dims[k] - ranks.get(k, 0) - ranks.get(k + 1, 0)
        if h < 0:
            raise ConsistencyError(f"negative homology dimension at degree {k}")
        out[k] = h
    return out
