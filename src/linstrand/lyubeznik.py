"""The last column of the Lyubeznik table of the quotient by a cover ideal.

For the cover ideal dual to the edge ideal of a d-partite d-uniform clutter
on n vertices, the Lyubeznik table of the quotient ring has a single possibly
nontrivial column, the last one, and its entry in row p is

    lambda_{p, n-d}  =  dim H^{n-p-1} of the relative pair
                        (independence complex of the complement,
                         part-deficient subcomplex).

Over a field, cohomology and homology of the pair have equal dimensions
(rank of a matrix equals rank of its transpose), so the dimensions are read
off the relative chain complex directly, on the pair's face masks and
without building its matrices: simplicial._mask_homology ranks the Morse
complex left by a sequential element matching of the faces, which has the
pair's homology and, on complete clutters, one cell.  For p strictly
below n - d the same number equals the multigraded Betti number
beta_{p-1, full multidegree} of the edge ideal of the complement, which
cross_check_betti verifies against the Hochster oracle.
"""

from __future__ import annotations

from dataclasses import dataclass

from .clutters import Clutter
from .errors import DEFAULT_MAX_VERTICES
from .hochster import _betti_degrees
from .ideals import linkage_ideal
from .linalg import Field, QQ
from .simplicial import _mask_homology, strand_support_pair

__all__ = ["LyubeznikColumn", "CrossCheckReport", "lyubeznik_last_column", "cross_check_betti"]


@dataclass(frozen=True)
class LyubeznikColumn:
    """Entries lambda_{p, n-d} for p = 0..n-d, as values[p]; n and d are
    those of the clutter."""

    values: tuple[int, ...]

    def __post_init__(self):
        if any(v < 0 for v in self.values):
            raise ValueError("Lyubeznik numbers are nonnegative")

    def __getitem__(self, p: int) -> int:
        return self.values[p]

    def highest(self) -> int:
        """lambda_{n-d, n-d}, the corner entry."""
        return self.values[-1]


def lyubeznik_last_column(
    c: Clutter, f: Field = QQ, max_vertices: int = DEFAULT_MAX_VERTICES
) -> LyubeznikColumn:
    """The last Lyubeznik column of the quotient by the cover ideal of c."""
    pair = strand_support_pair(c, max_vertices=max_vertices)
    h = _mask_homology(pair._kept, f)
    n, d = c.n, c.d
    return LyubeznikColumn(tuple(h.get(n - p - 1, 0) for p in range(n - d + 1)))


@dataclass(frozen=True)
class CrossCheckReport:
    """Per-row comparison of the column against the oracle's multigraded
    Betti numbers of the complement's edge ideal: (p, lambda value, oracle
    value) for p = 0..n-d-1."""

    rows: tuple[tuple[int, int, int], ...]
    ok: bool


def cross_check_betti(
    c: Clutter, f: Field = QQ, max_vertices: int = DEFAULT_MAX_VERTICES
) -> CrossCheckReport:
    """Verify lambda_{p, n-d} = beta_{p-1, (1,..,1)}(edge ideal of the
    complement) for every p < n-d; beta_{-1} is zero, and a complete clutter
    (zero complement ideal) contributes zeros throughout."""
    col = lyubeznik_last_column(c, f, max_vertices=max_vertices)
    comp = linkage_ideal(c)
    betas = [0] * (c.n - c.vertices.d)
    if len(betas) > 1 and not comp.is_zero:
        # beta_{p-1} for p = 1..n-d-1, all at the full multidegree
        betas[1:] = _betti_degrees(comp, range(len(betas) - 1), frozenset(range(c.n)), f, max_vertices)
    rows = tuple((p, col[p], beta) for p, beta in enumerate(betas))
    return CrossCheckReport(rows, all(lam == beta for _, lam, beta in rows))
