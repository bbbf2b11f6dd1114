import pytest

from linstrand import (
    LyubeznikColumn,
    QQ,
    chain_complex,
    complete_clutter,
    cross_check_betti,
    gf,
    homology_dims,
    linkage_ideal,
    lyubeznik_last_column,
    multigraded_betti,
    random_clutter,
    relative_chain_complex,
    strand_support_pair,
)

from helpers import (
    BUNDLED_FIXTURES,
    corner_star_four_parts,
    fourteen_of_sixteen_transversals,
    nine_edge_bipartite,
    seeded_random_instance,
    six_of_eight_transversals,
)


def test_frozen_columns_of_the_four_fixtures():
    assert lyubeznik_last_column(six_of_eight_transversals(), QQ).values == (0, 0, 1, 1)
    assert lyubeznik_last_column(corner_star_four_parts(), QQ).values == (0, 0, 0, 1, 1)
    assert lyubeznik_last_column(nine_edge_bipartite(), QQ).values == (0, 0, 0, 0, 0, 2, 1)
    assert lyubeznik_last_column(fourteen_of_sixteen_transversals(), QQ).values == (0, 0, 0, 0, 1)


def test_corner_entry_is_one_for_connected_ambient_complex():
    for make in BUNDLED_FIXTURES:
        assert lyubeznik_last_column(make(), QQ).highest() == 1


def test_complete_clutter_has_trivial_column():
    for sizes in ([2, 2], [2, 2, 2], [3, 2]):
        c = complete_clutter(sizes)
        col = lyubeznik_last_column(c, QQ)
        assert col.values == (0,) * (c.n - c.d) + (1,)


def test_column_validation():
    with pytest.raises(ValueError):
        LyubeznikColumn((0, -1, 0, 1))


def test_cross_check_on_fixture():
    r = cross_check_betti(six_of_eight_transversals(), QQ)
    assert r.ok
    assert r.rows == ((0, 0, 0), (1, 0, 0), (2, 1, 1))


def test_cross_check_on_random_instances():
    for seed in range(15):
        c = seeded_random_instance(seed)
        if not c.edges:
            continue
        assert cross_check_betti(c, QQ).ok, f"seed {seed}"


@pytest.mark.parametrize("f", [QQ, gf(2), gf(3)], ids=str)
def test_cross_check_rows_are_the_single_queries(f):
    """One oracle preparation answers every row: each row p holds the
    column entry and beta_{p-1} at the full multidegree, row for row."""
    cases = [six_of_eight_transversals(), corner_star_four_parts(), nine_edge_bipartite()]
    cases += [random_clutter(sizes, 0.5, seed) for seed, sizes in enumerate(([3, 3], [2, 2, 3], [4, 4], [2, 2, 2, 2]))]
    for c in cases:
        col = lyubeznik_last_column(c, f)
        comp = linkage_ideal(c)
        full = frozenset(range(c.n))
        want = tuple(
            (p, col[p], 0 if p == 0 or comp.is_zero else multigraded_betti(comp, p - 1, full, f))
            for p in range(c.n - c.vertices.d)
        )
        assert cross_check_betti(c, f).rows == want


def test_column_agrees_across_characteristics_on_fixtures():
    for make in BUNDLED_FIXTURES:
        c = make()
        assert lyubeznik_last_column(c, QQ).values == lyubeznik_last_column(c, gf(32003)).values


def test_five_term_sequence_balances():
    # the part-deficient subcomplex has the homology of a (d-2)-sphere, so
    # relative and absolute homology agree away from degrees d-2, d-1 and the
    # five remaining terms are exact
    for seed in range(15):
        c = seeded_random_instance(seed)
        if not c.edges:
            continue
        d = c.vertices.d
        pair = strand_support_pair(c)
        hx = homology_dims(chain_complex(pair.x, reduced=True), QQ)
        hy = homology_dims(chain_complex(pair.y, reduced=True), QQ)
        hrel = homology_dims(relative_chain_complex(pair), QQ)
        assert hy.get(d - 2, 0) == 1, f"seed {seed}"
        assert all(v == 0 for k, v in hy.items() if k != d - 2), f"seed {seed}"
        degrees = set(hx) | set(hrel)
        for k in degrees:
            if k in (d - 2, d - 1):
                continue
            assert hx.get(k, 0) == hrel.get(k, 0), f"seed {seed} degree {k}"
        balance = (
            hx.get(d - 1, 0)
            - hrel.get(d - 1, 0)
            + 1
            - hx.get(d - 2, 0)
            + hrel.get(d - 2, 0)
        )
        assert balance == 0, f"seed {seed}"


def test_column_reads_off_relative_homology():
    c = six_of_eight_transversals()
    pair = strand_support_pair(c)
    h = homology_dims(relative_chain_complex(pair), QQ)
    col = lyubeznik_last_column(c, QQ)
    for p in range(c.n - c.vertices.d + 1):
        assert col[p] == h.get(c.n - p - 1, 0)
