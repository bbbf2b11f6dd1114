from itertools import combinations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from linstrand import (
    GF2,
    QQ,
    SizeGuardError,
    SquarefreeIdeal,
    VertexTable,
    alexander_dual,
    betti_table,
    edge_ideal,
    gf,
    is_linear_by_betti,
    linear_strand_betti,
    linkage_ideal,
    multigraded_betti,
    random_clutter,
)

from helpers import all_subsets, brute_independent_sets, dense_rank, seeded_random_instance, six_of_eight_transversals


def ideal(n, *gens):
    t = VertexTable(tuple(f"x{i + 1}" for i in range(n)), None)
    return SquarefreeIdeal(t, tuple(frozenset(g) for g in gens))


def test_koszul_complex_of_three_variables():
    i = ideal(3, {0}, {1}, {2})
    bt = betti_table(i, QQ)
    assert bt.graded == {(0, 1): 3, (1, 2): 3, (2, 3): 1}
    assert bt.is_linear()
    assert max(k for k, _ in bt.graded) == 2


def test_complete_intersection_of_two_quadrics():
    i = ideal(4, {0, 1}, {2, 3})
    bt = betti_table(i, QQ)
    assert bt.graded == {(0, 2): 2, (1, 4): 1}
    assert not bt.is_linear()


def test_path_on_three_vertices():
    i = ideal(3, {0, 1}, {1, 2})
    bt = betti_table(i, QQ)
    assert bt.graded == {(0, 2): 2, (1, 3): 1}
    assert bt.is_linear()
    assert {j - k for k, j in bt.graded} == {2}


def test_generators_appear_as_degree_zero_betti_numbers():
    for seed in range(12):
        c = seeded_random_instance(seed)
        if not c.edges:
            continue
        i = edge_ideal(c)
        bt = betti_table(i, QQ)
        zero_degrees = {sigma for (k, sigma) in bt.multigraded if k == 0}
        assert zero_degrees == set(i.generators), f"seed {seed}"
        for g in i.generators:
            assert bt.multigraded.get((0, g), 0) == 1


def test_multidegrees_are_large_enough():
    # beta_{k,sigma} can only be nonzero when |sigma| >= k + d
    for seed in range(12):
        c = seeded_random_instance(seed)
        if not c.edges:
            continue
        i = edge_ideal(c)
        bt = betti_table(i, QQ)
        for (k, sigma), v in bt.multigraded.items():
            assert v > 0
            assert len(sigma) >= k + i.min_degree


def test_characteristic_independence_on_fixture():
    i = edge_ideal(six_of_eight_transversals())
    assert betti_table(i, QQ).graded == betti_table(i, gf(32003)).graded


def projective_plane():
    """The ideal whose independence complex is the 6-vertex triangulation of
    the projective plane: generated by the ten complementary triples."""
    facets = [
        (0, 1, 3), (0, 1, 4), (0, 2, 3), (0, 2, 5), (0, 4, 5),
        (1, 2, 4), (1, 2, 5), (1, 3, 5), (2, 3, 4), (3, 4, 5),
    ]
    facet_set = {frozenset(f) for f in facets}
    gens = [frozenset(s) for s in combinations(range(6), 3) if frozenset(s) not in facet_set]
    assert len(gens) == 10
    return ideal(6, *gens)


def test_projective_plane_betti_depends_on_characteristic():
    i = projective_plane()
    full = frozenset(range(6))
    assert multigraded_betti(i, 3, full, GF2) == 1
    assert multigraded_betti(i, 3, full, QQ) == 0
    assert multigraded_betti(i, 2, full, GF2) == 1
    assert multigraded_betti(i, 2, full, QQ) == 0


def test_degree_cap_truncates_consistently():
    i = edge_ideal(six_of_eight_transversals())
    whole = betti_table(i, QQ)
    capped = betti_table(i, QQ, degree_cap=4)
    assert capped.multigraded == {
        (k, s): v for (k, s), v in whole.multigraded.items() if len(s) <= 4
    }


def test_linear_strand_is_the_diagonal_of_the_table():
    for seed in range(10):
        c = seeded_random_instance(seed)
        if not c.edges:
            continue
        i = edge_ideal(c)
        d = i.min_degree
        bt = betti_table(i, QQ)
        graded, multigraded = linear_strand_betti(i, QQ)
        assert graded == {k: v for (k, j), v in bt.graded.items() if j == k + d}
        assert multigraded == {
            (k, s): v for (k, s), v in bt.multigraded.items() if len(s) == k + d
        }


def test_multigraded_betti_single_query_agrees():
    i = edge_ideal(six_of_eight_transversals())
    bt = betti_table(i, QQ)
    for (k, sigma), v in bt.multigraded.items():
        assert multigraded_betti(i, k, sigma, QQ) == v
    assert multigraded_betti(i, 0, frozenset({0}), QQ) == 0


def small_ideals():
    """Fixtures and seeded random edge, linkage and cover ideals, n <= 6."""
    yield "path", ideal(3, {0, 1}, {1, 2})
    yield "mixed degrees", ideal(4, {0}, {1, 2, 3})
    yield "projective plane", projective_plane()
    yield "six of eight", edge_ideal(six_of_eight_transversals())
    shapes = ([2, 2], [2, 3], [3, 3], [2, 2, 2], [1, 2, 3])
    for seed in range(5):
        c = random_clutter(shapes[seed], 0.6, seed=seed)
        if c.edges:
            yield f"edge ideal, seed {seed}", edge_ideal(c)
            yield f"cover ideal, seed {seed}", alexander_dual(edge_ideal(c))
        if not linkage_ideal(c).is_zero:
            yield f"linkage ideal, seed {seed}", linkage_ideal(c)


@pytest.mark.parametrize("f", [QQ, GF2], ids=str)
def test_every_entry_point_reads_the_same_kernel(f):
    """Every single query, zeros included, and the linear strand agree with
    the full table.  The one cell the table leaves out is sigma = {} at
    i = -1, the reduced homology of {emptyset} in degree -1."""
    cases = list(small_ideals())
    assert len(cases) >= 12
    for label, i in cases:
        n = i.vertices.n
        assert n <= 6
        bt = betti_table(i, f)
        for sigma in all_subsets(n):
            for k in range(-1, n + 1):
                expected = 1 if (k, sigma) == (-1, frozenset()) else bt.multigraded.get((k, sigma), 0)
                assert multigraded_betti(i, k, sigma, f) == expected, f"{label}: beta_{k},{sorted(sigma)}"
        d = i.min_degree
        graded, multigraded = linear_strand_betti(i, f)
        assert graded == {k: v for (k, j), v in bt.graded.items() if j == k + d}, label
        assert multigraded == {(k, s): v for (k, s), v in bt.multigraded.items() if len(s) == k + d}, label


def test_is_linear_by_betti_requires_pure_degree():
    i = ideal(4, {0}, {1, 2, 3})
    assert not is_linear_by_betti(i, QQ)


def test_zero_ideal_is_rejected():
    z = SquarefreeIdeal(VertexTable(("x",), None), ())
    with pytest.raises(ValueError):
        betti_table(z, QQ)
    with pytest.raises(ValueError):
        is_linear_by_betti(z, QQ)


def test_vertex_guard_applies():
    i = ideal(26, {0, 1})
    with pytest.raises(SizeGuardError):
        betti_table(i, QQ)


def brute_betti(i, p):
    """Every nonzero beta_{k,sigma} by Hochster's formula over all 2^n
    multidegrees: faces from brute-force subset enumeration, reduced
    homology from dense ranks of the signed boundary matrices."""
    n = i.vertices.n
    faces = sorted((len(f), tuple(sorted(f)), f) for f in brute_independent_sets(n, i.generators))
    out = {}
    for sigma in all_subsets(n):
        by_size = {}
        for size, face, vertices in faces:
            if vertices <= sigma:
                by_size.setdefault(size, []).append(face)
        ranks = {}
        for c in sorted(by_size):
            if c == 0:
                ranks[c] = 0
                continue
            index = {t: r for r, t in enumerate(by_size[c - 1])}
            rows = [[0] * len(by_size[c]) for _ in index]
            for col, face in enumerate(by_size[c]):
                for pos in range(c):
                    rows[index[face[:pos] + face[pos + 1:]]][col] = (-1) ** pos
            ranks[c] = dense_rank(rows, p)
        for c, members in by_size.items():
            h = len(members) - ranks[c] - ranks.get(c + 1, 0)
            k = len(sigma) - (c - 1) - 2
            if h and k >= 0:
                out[(k, sigma)] = h
    return out


def brute_force_ideals():
    shapes = ([2, 2], [2, 3], [3, 3], [2, 2, 2], [2, 2, 3], [4, 4], [2, 3, 3], [2, 2, 2, 2])
    for seed in range(16):
        c = random_clutter(shapes[seed % len(shapes)], 0.55, seed=seed)
        if not c.edges:
            continue
        yield f"edge ideal, seed {seed}", edge_ideal(c)
        link = linkage_ideal(c)
        if not link.is_zero:
            yield f"linkage ideal, seed {seed}", link
        yield f"cover ideal, seed {seed}", alexander_dual(edge_ideal(c))


def test_oracle_matches_brute_force_and_vanishes_off_generator_unions():
    cases = list(brute_force_ideals())
    assert len(cases) >= 40
    assert any(len({len(g) for g in i.generators}) > 1 for _, i in cases)
    for label, i in cases:
        n = i.vertices.n
        assert n <= 8
        unions = {frozenset()}
        for g in i.generators:
            unions |= {u | g for u in unions}
        for p in (0, 2, 3):
            brute = brute_betti(i, p)
            assert all(sigma in unions for _, sigma in brute), f"{label}, p = {p}"
            assert betti_table(i, gf(p) if p else QQ).multigraded == brute, f"{label}, p = {p}"


@st.composite
def mixed_degree_ideals(draw):
    """Antichains on n <= 7 vertices, generators of mixed degrees, singletons
    frequent: the minimal members of a random family of nonempty sets."""
    n = draw(st.integers(1, 7))
    family = draw(st.lists(st.frozensets(st.integers(0, n - 1), min_size=1, max_size=4), min_size=1, max_size=8))
    return ideal(n, *(s for s in set(family) if not any(t < s for t in family)))


@settings(max_examples=60, deadline=None)
@given(mixed_degree_ideals())
@example(ideal(4, {0}, {1, 2, 3}))
@example(ideal(5, {2}, {0, 1}, {3, 4}, {0, 3}))
@example(ideal(3, {0}, {1}, {2}))
def test_table_and_strand_match_brute_force_on_mixed_antichains(i):
    """The star-relative kernel against plain reduced homology of every
    restriction, including a lowest vertex that is itself a generator."""
    d = i.min_degree
    for p in (0, 2, 3):
        f = gf(p) if p else QQ
        brute = brute_betti(i, p)
        assert betti_table(i, f).multigraded == brute, f
        graded, multigraded = linear_strand_betti(i, f)
        diagonal = {(k, s): v for (k, s), v in brute.items() if len(s) == k + d}
        assert multigraded == diagonal, f
        assert graded == {k: sum(v for (j, _), v in diagonal.items() if j == k) for k, _ in diagonal}, f


def test_negative_degree_cap_is_rejected():
    i = ideal(3, {0, 1}, {1, 2})
    with pytest.raises(ValueError, match="degree cap must be nonnegative, got -1"):
        betti_table(i, QQ, degree_cap=-1)
    assert betti_table(i, QQ, degree_cap=0).graded == {}


@pytest.mark.parametrize("cap", [True, 2.5, "2"], ids=["bool", "float", "str"])
def test_a_degree_cap_that_is_not_an_int_is_rejected(cap):
    # unchecked, True acts as a cap of 1 and 2.5 as a cap of 2
    with pytest.raises(ValueError, match="degree cap must be an int"):
        betti_table(ideal(3, {0, 1}, {1, 2}), QQ, degree_cap=cap)


@pytest.mark.parametrize("degree", [True, 1.5, "1"], ids=["bool", "float", "str"])
def test_a_homological_degree_that_is_not_an_int_is_rejected(degree):
    # unchecked, True acts as degree 1 and 1.5 fails inside the kernel
    with pytest.raises(ValueError, match="homological degree must be an int"):
        multigraded_betti(ideal(3, {0, 1}, {1, 2}), degree, frozenset({0, 1, 2}), QQ)


@pytest.mark.parametrize("sigma", [{0, 1, 3, 99}, {-1, 0}], ids=["above", "negative"])
def test_multidegree_outside_the_table_is_rejected(sigma):
    i = ideal(4, {0, 1}, {1, 3})
    with pytest.raises(ValueError, match="multidegree out of range"):
        multigraded_betti(i, 1, frozenset(sigma), QQ)
