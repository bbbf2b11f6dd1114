"""Exact sparse linear algebra over the rationals and prime fields.

Matrices here are small (hundreds of rows at most) and very sparse, with
integer entries; everything the rest of the library needs is the rank and the
chain-complex bookkeeping around it.  Rank over the rationals is computed by
fraction-free integer elimination (rows are combined integrally and divided by
their gcd), rank over GF(p) by ordinary modular elimination; one kernel,
`_eliminate`, does both, with no pivot search.  It takes the rows shortest
first and reduces each one against a basis of the rows kept so far, keyed by
their highest column, until its highest column is free or it vanishes; a row
that survives is kept.  The kept rows are independent and span the row
space, which is what clearing needs of its pivot rows.  Every matrix the
package ranks is a signed boundary with entries +-1, where a short row
reduced against short basis rows stays short; any other integer matrix is
ranked just as exactly, if with more fill-in.

Validating a matrix normalises its entries, rejecting a value or an index
that is a bool or not integral, sorts them (a linear pass when they come
sorted) and checks each against the one before it.  Matrix.compose and the
square-zero check of a chain complex share one row-by-row product, and the
check stops at the first row of the product that is not zero.  Homology
ranks a complex's boundaries from the top degree down and leaves out of each
boundary the columns the one above it pivoted on (clearing; see
homology_dims).  That loop is written once, in _clearing_homology: it takes
each boundary's (row, col, value) entries from a callback, homology_dims's
from a ChainComplex and simplicial's from the Morse complex it reduces a
checked mask complex to, and makes them rows with _field_rows, the one row
builder, which rank uses as well.
The Hochster oracle hands its own rows to _eliminate, so Matrix and
ChainComplex are built only for callers that ask for one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from types import MappingProxyType
from typing import Mapping

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
        if type(p) is not int:
            raise ValueError(f"characteristic must be an int, got {p!r}")
        if p == 0:
            return
        if p >= 2 ** 31 or not _is_prime(p):
            raise ValueError(f"characteristic must be 0 or a prime below 2**31, got {p}")

    def __str__(self):
        return "QQ" if self.characteristic == 0 else f"GF({self.characteristic})"


QQ = Field(0)
GF2 = Field(2)


def gf(p: int) -> Field:
    return Field(p)


def _integral(x) -> bool:
    """Whether x equals an int; False for an infinity or NaN, which int()
    refuses."""
    try:
        return x == int(x)
    except (OverflowError, ValueError):
        return False


@dataclass(frozen=True)
class Matrix:
    """A sparse integer matrix: (row, col, value) triples, sorted, no zeros."""

    nrows: int
    ncols: int
    entries: tuple[tuple[int, int, int], ...]

    def __post_init__(self):
        nrows, ncols = self.nrows, self.ncols
        if nrows < 0 or ncols < 0:
            raise ValueError("negative matrix dimensions")
        norm = []
        for e in self.entries:
            r, c, v = e
            if type(e) is not tuple or type(r) is not int or type(c) is not int or type(v) is not int:
                if bool in (type(r), type(c), type(v)):
                    raise ValueError(f"bool in entry ({r!r},{c!r},{v!r})")
                if not _integral(v):
                    raise ValueError(f"non-integer entry {v!r} at ({r},{c})")
                if not (_integral(r) and _integral(c)):
                    raise ValueError(f"non-integer index ({r!r},{c!r})")
                e = (int(r), int(c), int(v))
            norm.append(e)
        norm.sort()
        pr = pc = -1
        for r, c, v in norm:
            if not (0 <= r < nrows and 0 <= c < ncols):
                raise ValueError(f"entry ({r},{c}) out of range")
            if v == 0:
                raise ValueError("zero entries must be omitted")
            if r == pr and c == pc:
                raise ValueError(f"duplicate entry at ({r},{c})")
            pr, pc = r, c
        object.__setattr__(self, "entries", tuple(norm))

    def compose(self, other: "Matrix") -> "Matrix":
        """self @ other, exactly, over the integers."""
        if self.ncols != other.nrows:
            raise ValueError("shape mismatch in composition")
        entries = tuple((r, c, v) for r, acc in _product_rows(self, other) for c, v in sorted(acc.items()) if v)
        return Matrix(self.nrows, other.ncols, entries)


def _eliminate(rows: list[dict[int, int]], p: int, pivot_rows: set[int] | None = None) -> int:
    """Rank of the rows (col -> nonzero value, already reduced mod p when
    p > 0) by sparse elimination; the rows are consumed.  The index of every
    row kept in the basis goes into pivot_rows when it is given: those rows
    are linearly independent and span the row space, the rows that are not
    kept having been reduced to zero by them.

    The rows are taken shortest first, the lowest index first among equals.
    Each one is reduced against the basis, whose rows are keyed by their
    highest column, until its highest column has no basis row or it
    vanishes; a row that survives joins the basis under that column.  A
    reduction clears the row's highest column and writes only below it, so
    the loop ends, and the basis rows have distinct highest columns, so they
    are independent.  Each row taken is its original plus a combination of
    the basis rows before it, so the basis rows span what the original rows
    of pivot_rows span, and every row left out reduced to zero in it.

    Over GF(p) a basis row is scaled to a leading 1, and a row r with
    highest column c becomes r - r[c] * pivot modulo p.  When p = 0 rows
    are combined fraction-free, a*r - b*pivot with a > 0, and divided by the
    gcd of their entries.
    """
    basis: dict[int, dict[int, int]] = {}
    for i in sorted(range(len(rows)), key=lambda i: len(rows[i])):
        r = rows[i]
        while r:
            top = max(r)
            piv = basis.get(top)
            if piv is None:
                break
            f = r[top]
            if not p:
                g = math.gcd(piv[top], f)
                a, f = piv[top] // g, f // g
                if a < 0:
                    a, f = -a, -f
                if a != 1:
                    for c in r:
                        r[c] *= a
            for c, v in piv.items():
                nv = r.get(c, 0) - f * v
                if p:
                    nv %= p
                if nv:
                    r[c] = nv
                else:
                    del r[c]
            if r and not p:
                g = math.gcd(*r.values())
                if g > 1:
                    for c in r:
                        r[c] //= g
        if r:
            if p and r[top] != 1:
                inv = pow(r[top], -1, p)
                for c in r:
                    r[c] = r[c] * inv % p
            basis[top] = r
            if pivot_rows is not None:
                pivot_rows.add(i)
    return len(basis)


def rank(m: Matrix, field: Field = QQ) -> int:
    """Rank of m over the field.  Exact in both characteristics."""
    p = field.characteristic
    return _eliminate(_field_rows(m.nrows, m.entries, p), p)


def _field_rows(nrows: int, entries, p: int) -> list[dict[int, int]]:
    """The nrows rows, as col -> value over the field of characteristic p,
    of a matrix given by (row, col, value) entries, one per position:
    values reduced mod p when p > 0, zeros left out."""
    rows: list[dict[int, int]] = [{} for _ in range(nrows)]
    for r, c, v in entries:
        if p:
            v %= p
        if v:
            rows[r][c] = v
    return rows


class ChainComplex:
    """Finitely many free summands indexed by integer degrees, with integer
    boundary maps going degree k -> k-1.

    dims maps a degree to the number of basis elements in it; boundaries maps
    a degree k to the matrix of its boundary (shape dims[k-1] x dims[k]).
    Degrees absent from dims are zero, and a missing boundary is the zero map.
    Composition of consecutive boundaries is verified to vanish at
    construction time.  Both are read-only mappings, and neither can be
    rebound, so a complex keeps the square-zero property it was checked for.
    """

    def __init__(self, dims: dict[int, int], boundaries: dict[int, Matrix]):
        self._dims = MappingProxyType(dict(dims))
        self._boundaries = MappingProxyType(dict(boundaries))
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
                if not _composes_to_zero(self.boundaries[k], self.boundaries[k + 1]):
                    raise ConsistencyError(f"boundaries at degrees {k + 1} and {k} do not compose to zero")

    @property
    def dims(self) -> Mapping[int, int]:
        return self._dims

    @property
    def boundaries(self) -> Mapping[int, Matrix]:
        return self._boundaries


def _product_rows(a: Matrix, b: Matrix):
    """a @ b one row at a time (the shapes already match): (row, {col: value})
    for each row of a with entries, ascending, a value being zero where its
    terms cancel.  a's entries come sorted by row, so only b is regrouped."""
    rows_of_b: dict[int, list[tuple[int, int]]] = {}
    for k, c, v in b.entries:
        rows_of_b.setdefault(k, []).append((c, v))
    acc: dict[int, int] = {}
    row = -1
    for r, k, w in a.entries:
        if r != row:
            if acc:
                yield row, acc
            acc = {}
            row = r
        for c, v in rows_of_b.get(k, ()):
            acc[c] = acc.get(c, 0) + w * v
    if acc:
        yield row, acc


def _composes_to_zero(a: Matrix, b: Matrix) -> bool:
    """Whether a @ b is zero (the shapes already match); stops at the first
    row of the product that is not zero."""
    return not any(any(acc.values()) for _, acc in _product_rows(a, b))


def homology_dims(c: ChainComplex, field: Field = QQ) -> dict[int, int]:
    """dim H_k for every degree k present in c, over the field.

    Over a field the k-th homology dimension is
    dims[k] - rank(boundary k) - rank(boundary k+1).

    The boundaries are ranked from the highest degree down, with clearing
    (Chen & Kerber, "Persistent homology computation with a twist", 2011):
    the rows the elimination of boundary k+1 pivots on are basis elements of
    C_k, and their columns are left out of boundary k before it is ranked.
    That loses no rank over any field.  The pivot rows P are independent
    rows spanning the row space, so projecting onto the coordinates P maps
    im(boundary k+1) isomorphically onto them; each e_i with i in P is
    therefore some b in that image plus a combination of basis elements
    outside P, and since boundary k kills b (the complex was checked to
    square to zero when it was built, and cannot change since), the column
    of e_i is a combination of the columns kept.  The cleared sets are keyed
    by degree, so a missing boundary clears nothing below it.

    A negative value would mean the boundaries do not compose to zero and
    raises.  The guard stays, but it can no longer fire: every ChainComplex
    squares to zero, and that makes rank(boundary k+1) at most
    dims[k] - rank(boundary k).
    """

    def entries(k: int, skip):
        m = c.boundaries.get(k)
        return () if m is None else (e for e in m.entries if e[1] not in skip)

    return _clearing_homology(c.dims, entries, field.characteristic)


def _clearing_homology(dims: Mapping[int, int], entries, p: int) -> dict[int, int]:
    """dim H_k for every degree k in dims, in the order of dims, over the
    field of characteristic p; entries(k, skip) gives the integer entries
    of boundary k, with the columns in skip left out (those kept may be
    renumbered), and _field_rows makes them rows over the field.

    The boundaries are ranked from the highest degree down, and each one
    leaves out the columns the one above it pivoted on (clearing; see
    homology_dims, which holds the argument).  The caller vouches that the
    boundaries compose to zero: clearing is exact only then.
    """
    ranks: dict[int, int] = {}
    cleared: dict[int, set[int]] = {}
    for k in sorted(dims, reverse=True):
        pivots: set[int] = set()
        rows = _field_rows(dims.get(k - 1, 0), entries(k, cleared.get(k, ())), p)
        ranks[k] = _eliminate(rows, p, pivots)
        cleared[k - 1] = pivots
    out: dict[int, int] = {}
    for k, size in dims.items():
        h = size - ranks[k] - ranks.get(k + 1, 0)
        if h < 0:
            raise ConsistencyError(f"negative homology dimension at degree {k}")
        out[k] = h
    return out
