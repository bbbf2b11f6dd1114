"""The identities the package rests on, as properties of random instances
within the oracle's reach (n <= 10), over QQ, GF(2) and GF(3): the strand
is the relative pair, the Lyubeznik column matches the Betti cross-check and
is the strand's homology at the full multidegree, shifted by d, and the
strand's ranks and multidegrees are the oracle's linear diagonal.
The last identity is also checked once on four parts at n = 14 (QQ and
GF(2)) and at n = 16 (GF(2))."""

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from linstrand import (
    GF2,
    QQ,
    cross_check_betti,
    edge_ideal,
    first_linear_strand,
    gf,
    linear_strand_betti,
    lyubeznik_last_column,
    random_clutter,
    strand_homology_at,
    strand_support_pair,
    verify_support,
)

FIELDS = (QQ, GF2, gf(3))


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.integers(1, 3), min_size=1, max_size=4).filter(lambda sizes: sum(sizes) <= 10),
    st.floats(0.0, 1.0),
    st.integers(0, 10**6),
)
def test_strand_pair_column_and_oracle_agree(sizes, p, seed):
    c = random_clutter(sizes, p, seed)
    assume(c.edges)
    n, d = c.n, c.d
    s = first_linear_strand(c)
    assert verify_support(s, strand_support_pair(c)).ok
    for f in FIELDS:
        assert cross_check_betti(c, f).ok, f
        graded, multigraded = linear_strand_betti(edge_ideal(c), f)
        assert graded == dict(enumerate(s.ranks())), f
        assert multigraded == {(i, a): 1 for i, level in enumerate(s.levels) for a in level}, f
        # row p of the column is the strand's homology at the full multidegree
        # in level n - p - d
        at_everything = strand_homology_at(s, frozenset(range(n)), f)
        want = tuple(at_everything.get(n - p - d, 0) for p in range(n - d + 1))
        assert lyubeznik_last_column(c, f).values == want, f


def _assert_strand_is_the_oracle_diagonal(c, fields):
    s = first_linear_strand(c)
    for f in fields:
        graded, multigraded = linear_strand_betti(edge_ideal(c), f)
        assert graded == dict(enumerate(s.ranks())), f
        assert multigraded == {(i, a): 1 for i, level in enumerate(s.levels) for a in level}, f


def test_strand_is_the_oracle_diagonal_on_four_parts_at_fourteen_vertices():
    c = random_clutter([3, 4, 4, 3], 0.5, 1)
    assert c.n == 14
    _assert_strand_is_the_oracle_diagonal(c, (QQ, GF2))


def test_strand_is_the_oracle_diagonal_on_four_parts_at_sixteen_vertices():
    c = random_clutter([4] * 4, 0.5, 1)
    assert c.n == 16
    _assert_strand_is_the_oracle_diagonal(c, (GF2,))
