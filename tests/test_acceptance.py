"""The acceptance suite: one test per shipped guarantee, each printing a
single pass/fail line with its elapsed time.  Run with -s to see the lines.
"""

import time
from itertools import combinations

from linstrand import (
    Clutter,
    GF2,
    QQ,
    betti_table,
    complement_linearity_agrees,
    complete_clutter,
    cross_check_betti,
    edge_ideal,
    first_linear_strand,
    is_linear,
    is_linear_by_betti,
    linear_strand_betti,
    lyubeznik_last_column,
    strand_homology_at,
    strand_support_pair,
    verify_support,
)

from helpers import (
    BUNDLED_FIXTURES,
    brute_independent_sets,
    corner_star_four_parts,
    fourteen_of_sixteen_transversals,
    nine_edge_bipartite,
    seeded_random_instance,
    six_of_eight_transversals,
)


def timed(number, budget, body):
    t0 = time.perf_counter()
    try:
        body()
    except BaseException:
        print(f"criterion {number}: FAIL ({time.perf_counter() - t0:.2f} s)")
        raise
    elapsed = time.perf_counter() - t0
    status = "PASS" if elapsed < budget else "FAIL"
    print(f"criterion {number}: {status} ({elapsed:.2f} s, budget {budget:.0f} s)")
    assert elapsed < budget, f"criterion {number} exceeded its {budget} s budget: {elapsed:.2f} s"


def every_subclutter(sizes):
    full = complete_clutter(sizes)
    edges = full.edges
    for bits in range(1 << len(edges)):
        subset = tuple(e for k, e in enumerate(edges) if bits >> k & 1)
        yield Clutter(full.vertices, subset)


def test_criterion_1_tripartite_column():
    def body():
        col = lyubeznik_last_column(six_of_eight_transversals(), QQ)
        assert col.values == (0, 0, 1, 1)

    timed(1, 1.0, body)


def test_criterion_2_four_part_column_and_cross_check():
    def body():
        c = corner_star_four_parts()
        assert lyubeznik_last_column(c, QQ).values == (0, 0, 0, 1, 1)
        r = cross_check_betti(c, QQ)
        assert r.ok
        assert r.rows[3] == (3, 1, 1)

    timed(2, 5.0, body)


def test_criterion_3_bipartite_column_and_cross_check():
    def body():
        c = nine_edge_bipartite()
        assert lyubeznik_last_column(c, QQ).values == (0, 0, 0, 0, 0, 2, 1)
        r = cross_check_betti(c, QQ)
        assert r.ok
        assert r.rows[5] == (5, 2, 2)

    timed(3, 5.0, body)


def test_criterion_4_fourteen_generator_fixture():
    def body():
        c = fourteen_of_sixteen_transversals()
        graded = betti_table(edge_ideal(c), QQ).graded
        assert graded == {(0, 4): 14, (1, 5): 24, (2, 6): 12, (3, 7): 1, (2, 7): 1, (3, 8): 1}
        assert lyubeznik_last_column(c, QQ).values == (0, 0, 0, 0, 1)
        s = first_linear_strand(c)
        assert s.ranks() == (14, 24, 12, 1)
        full = frozenset(range(8))
        h_full = strand_homology_at(s, full, QQ)
        assert h_full[0] != 0 and all(v == 0 for k, v in h_full.items() if k != 0)
        h_less = strand_homology_at(s, full - {c.vertices.index("a2")}, QQ)
        assert h_less[0] != 0 and h_less[1] != 0
        assert all(v == 0 for k, v in h_less.items() if k not in (0, 1))

    timed(4, 10.0, body)


def test_criterion_5_strand_ranks_equal_oracle_diagonal():
    def body():
        count = 0
        for c in every_subclutter([2, 2, 2]):
            if not c.edges:
                continue
            count += 1
            s = first_linear_strand(c)
            want_ranks = {i: r for i, r in enumerate(s.ranks())}
            want_multi = {(i, a): 1 for i, level in enumerate(s.levels) for a in level}
            for f in (QQ, GF2):
                graded, multigraded = linear_strand_betti(edge_ideal(c), f)
                assert graded == want_ranks, c.edges
                assert multigraded == want_multi, c.edges
        assert count == 255

    timed(5, 60.0, body)


def test_criterion_6_characterization_agrees_with_oracle():
    def body():
        for sizes, total in (([2, 2, 2], 256), ([2, 2], 16)):
            count = 0
            for c in every_subclutter(sizes):
                count += 1
                verdict = bool(is_linear(c))
                if c.edges:
                    assert verdict == is_linear_by_betti(edge_ideal(c), QQ), c.edges
                else:
                    assert verdict
                assert complement_linearity_agrees(c), c.edges
            assert count == total

    timed(6, 60.0, body)


def test_criterion_7_structural_invariants():
    def body():
        from linstrand import (
            chain_complex,
            d_partite_complement,
            homology_dims,
            minimal_vertex_covers,
            part_deficient_complex,
            squarefree_colon,
        )

        instances = [make() for make in BUNDLED_FIXTURES]
        instances += [seeded_random_instance(seed) for seed in range(100)]
        for c in instances:
            s = first_linear_strand(c)
            s.skeleton_complex()  # raises unless all squares vanish
            parts = c.part_sets()
            basis = [
                a
                for a in brute_independent_sets(c.n, d_partite_complement(c).edges)
                if all(a & p for p in parts)
            ]
            top = max(map(len, basis), default=c.vertices.d - 1)
            assert s.levels == tuple(
                tuple(sorted((a for a in basis if len(a) == size), key=lambda a: tuple(sorted(a))))
                for size in range(c.vertices.d, top + 1)
            )
            report = verify_support(s, strand_support_pair(c))
            assert report.ok, report.mismatches
            hy = homology_dims(chain_complex(part_deficient_complex(c.vertices), reduced=True), QQ)
            d = c.vertices.d
            assert hy.get(d - 2, 0) == 1
            assert all(v == 0 for k, v in hy.items() if k != d - 2)
            if c.n <= 10:
                covers = minimal_vertex_covers(c)
                comp_covers = minimal_vertex_covers(d_partite_complement(c))
                assert squarefree_colon(parts, covers, c.n) == comp_covers
                assert squarefree_colon(parts, comp_covers, c.n) == covers

    timed(7, 60.0, body)


def test_criterion_8_single_part_degenerates_to_koszul():
    def body():
        from math import comb

        for n in range(3, 7):
            c = complete_clutter([n])
            s = first_linear_strand(c)
            assert s.ranks() == tuple(comb(n, i + 1) for i in range(n))
            for bits in range(1, 1 << n):
                b = frozenset(v for v in range(n) if bits >> v & 1)
                h = strand_homology_at(s, b, QQ)
                assert all(v == 0 for k, v in h.items() if k != 0)

    timed(8, 1.0, body)
