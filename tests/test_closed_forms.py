"""Known closed forms as second routes to the strand and to linearity, at
n <= 12: the Betti numbers of Ferrers ideals (Corso & Nagel, Trans. AMS 361,
2009) and of complete clutters, and for d = 2 the Ferrers criterion, under
which a bipartite edge ideal is linear exactly when the neighbourhoods of
one part are totally ordered by inclusion."""

import itertools
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from linstrand import complete_clutter, ferrers_clutter, first_linear_strand, is_linear, random_clutter


def _trimmed(betas):
    betas = list(betas)
    while betas and betas[-1] == 0:
        betas.pop()
    return tuple(betas)


def ferrers_betti(lam):
    """beta_i = sum_{j=1}^{m} C(lam_j + j - 1, i + 1) - C(m, i + 2)."""
    m = len(lam)
    top = m + lam[0]
    return _trimmed(
        sum(comb(lam[j - 1] + j - 1, i + 1) for j in range(1, m + 1)) - comb(m, i + 2) for i in range(top)
    )


def complete_betti(sizes):
    """beta_i = sum over j_1 + ... + j_d = i of prod_k C(a_k, j_k + 1)."""
    top = sum(sizes)
    betas = [0] * top
    for js in itertools.product(*(range(a) for a in sizes)):
        term = 1
        for a, j in zip(sizes, js):
            term *= comb(a, j + 1)
        betas[sum(js)] += term
    return _trimmed(betas)


# weakly decreasing row lengths with m + lam_1 <= 12
FERRERS_SHAPES = (
    st.lists(st.integers(1, 6), min_size=1, max_size=6)
    .map(lambda rows: sorted(rows, reverse=True))
    .filter(lambda lam: len(lam) + lam[0] <= 12)
)


@settings(max_examples=60, deadline=None)
@given(FERRERS_SHAPES)
def test_ferrers_strand_ranks_are_the_closed_form(lam):
    assert first_linear_strand(ferrers_clutter(lam)).ranks() == ferrers_betti(lam)


COMPLETE_SHAPES = [
    sizes
    for d in range(1, 5)
    for sizes in itertools.combinations_with_replacement(range(1, 5), d)
    if sum(sizes) <= 12
]


@pytest.mark.parametrize("sizes", COMPLETE_SHAPES, ids=lambda s: "x".join(map(str, s)))
def test_complete_strand_ranks_are_the_closed_form(sizes):
    assert first_linear_strand(complete_clutter(list(sizes))).ranks() == complete_betti(sizes)


def _neighbourhoods_nested(c):
    """Whether the neighbourhoods of the vertices of part 0 form a chain."""
    rows = c.vertices.part_members(0)
    hoods = [frozenset(v for e in c.edges if u in e for v in e - {u}) for u in rows]
    return all(a <= b or b <= a for a, b in itertools.combinations(hoods, 2))


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 5), st.integers(1, 5), st.floats(0.0, 1.0), st.integers(0, 10**6))
def test_a_bipartite_clutter_is_linear_exactly_when_it_is_ferrers(a, b, p, seed):
    c = random_clutter([a, b], p, seed)
    assert is_linear(c).linear == _neighbourhoods_nested(c)
