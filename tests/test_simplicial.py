import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from linstrand import (
    Clutter,
    QQ,
    SimplicialComplex,
    SimplicialPair,
    SizeGuardError,
    VertexTable,
    chain_complex,
    complete_clutter,
    cross_check_betti,
    f_vector,
    homology_dims,
    independent_sets,
    lyubeznik_last_column,
    part_deficient_complex,
    relative_chain_complex,
    strand_support_pair,
)
from linstrand import simplicial

from helpers import all_subsets, six_of_eight_transversals


def table(n):
    return VertexTable(tuple(f"v{i}" for i in range(n)), None)


def test_faces_are_closed_downward_and_sorted():
    x = SimplicialComplex(table(3), (frozenset({0, 1}), frozenset({1, 2})))
    assert [tuple(sorted(f)) for f in x.faces(1)] == [(0, 1), (1, 2)]
    assert [tuple(sorted(f)) for f in x.faces(0)] == [(0,), (1,), (2,)]
    assert x.faces(-1) == (frozenset(),)
    assert x.dim == 1


def test_void_and_empty_complexes_are_distinct():
    void = SimplicialComplex(table(2), ())
    just_empty = SimplicialComplex(table(2), (frozenset(),))
    assert void.is_void and void.dim == -2
    assert not just_empty.is_void and just_empty.dim == -1
    assert just_empty.faces(-1) == (frozenset(),)
    assert void.faces(-1) == ()


def test_facets_must_form_antichain():
    with pytest.raises(ValueError):
        SimplicialComplex(table(3), (frozenset({0}), frozenset({0, 1})))


def test_reduced_homology_of_empty_face_complex():
    just_empty = SimplicialComplex(table(2), (frozenset(),))
    h = homology_dims(chain_complex(just_empty, reduced=True), QQ)
    assert h == {-1: 1}


def test_reduced_homology_of_triangle_boundary():
    x = SimplicialComplex(table(3), (frozenset({0, 1}), frozenset({1, 2}), frozenset({0, 2})))
    h = homology_dims(chain_complex(x, reduced=True), QQ)
    assert h.get(0, 0) == 0 and h[1] == 1


def test_unreduced_homology_counts_components():
    x = SimplicialComplex(table(4), (frozenset({0, 1}), frozenset({2, 3})))
    h = homology_dims(chain_complex(x, reduced=False), QQ)
    assert h[0] == 2


def test_pair_requires_subcomplex():
    x = SimplicialComplex(table(3), (frozenset({0, 1}),))
    y = SimplicialComplex(table(3), (frozenset({1, 2}),))
    with pytest.raises(ValueError):
        SimplicialPair(x, y)


def test_relative_homology_of_disc_modulo_boundary():
    x = SimplicialComplex(table(3), (frozenset({0, 1, 2}),))
    y = SimplicialComplex(table(3), (frozenset({0, 1}), frozenset({1, 2}), frozenset({0, 2})))
    p = SimplicialPair(x, y)
    assert f_vector(p) == (0, 0, 1)
    h = homology_dims(relative_chain_complex(p), QQ)
    assert h.get(0, 0) == 0 and h.get(1, 0) == 0 and h[2] == 1


def test_relative_over_empty_face_complex_is_unreduced():
    x = SimplicialComplex(table(3), (frozenset({0, 1}), frozenset({1, 2})))
    y = SimplicialComplex(table(3), (frozenset(),))
    p = SimplicialPair(x, y)
    assert f_vector(p) == (3, 2)
    h = homology_dims(relative_chain_complex(p), QQ)
    assert h[0] == 1


def test_relative_over_void_complex_is_reduced():
    x = SimplicialComplex(table(3), (frozenset({0, 1}), frozenset({1, 2})))
    p = SimplicialPair(x, SimplicialComplex(table(3), ()))
    h = homology_dims(relative_chain_complex(p), QQ)
    assert h.get(0, 0) == 0  # reduced: connected means nothing in degree 0


def test_part_deficient_complex_is_a_sphere():
    # complements of the d parts carry the homology of a (d-2)-sphere
    for sizes, sphere_deg in (([2], -1), ([2, 2], 0), ([3, 2], 0), ([2, 2, 2], 1), ([2, 3, 2], 1)):
        t = complete_clutter(sizes).vertices
        y = part_deficient_complex(t)
        h = homology_dims(chain_complex(y, reduced=True), QQ)
        assert h.get(sphere_deg, 0) == 1, sizes
        for k in h:
            if k != sphere_deg:
                assert h[k] == 0, (sizes, k)


def test_part_deficient_complex_single_part():
    t = complete_clutter([3]).vertices
    y = part_deficient_complex(t)
    assert not y.is_void
    assert y.dim == -1


def test_strand_support_pair_of_six_edge_fixture():
    c = six_of_eight_transversals()
    pair = strand_support_pair(c)
    assert f_vector(pair) == (0, 0, 6, 6)
    # the ambient complex has all 18 two-dimensional independent sets
    assert len(pair.x.faces(2)) == 18
    assert len(pair.y.faces(2)) == 12


def test_pair_face_counts_obey_inclusion_exclusion():
    c = six_of_eight_transversals()
    pair = strand_support_pair(c)
    for k in range(-1, pair.x.dim + 1):
        assert len(pair.faces(k)) == len(pair.x.faces(k)) - len(pair.y.faces(k))


def test_relative_chain_complex_boundaries_square_to_zero():
    # constructing the complex runs the d*d = 0 check; reaching here is the test
    c = six_of_eight_transversals()
    rel = relative_chain_complex(strand_support_pair(c))
    assert sorted(rel.dims)
    # Euler characteristic agrees with the alternating f-vector sum
    fv = f_vector(strand_support_pair(c))
    euler_faces = sum((-1) ** k * fv[k] for k in range(len(fv)))
    h = homology_dims(rel, QQ)
    euler_hom = sum((-1) ** k * h.get(k, 0) for k in sorted(rel.dims))
    assert euler_faces == euler_hom


def test_independence_complex_facets_are_maximal():
    c = six_of_eight_transversals()
    x = independent_sets(c)
    for f in x.facets:
        for v in range(c.n):
            if v not in f:
                assert x.has_face(f | {v}) is False


@st.composite
def facet_antichains(draw):
    """(n, facets): the maximal members of a random family of subsets of
    range(n); the void complex and {emptyset} included."""
    n = draw(st.integers(0, 7))
    family = draw(st.lists(st.frozensets(st.integers(0, max(n - 1, 0)), max_size=n), max_size=6))
    return n, tuple({s for s in family if not any(s < t for t in family)})


def brute_faces(n, facets):
    """Faces by dimension, each in ascending vertex-tuple order (the order
    all_subsets lists one size in)."""
    faces = {}
    for s in all_subsets(n):
        if any(s <= f for f in facets):
            faces.setdefault(len(s) - 1, []).append(s)
    return {k: tuple(v) for k, v in faces.items()}


@settings(max_examples=200, deadline=None)
@given(facet_antichains())
def test_faces_match_brute_force_closure(case):
    n, facets = case
    x = SimplicialComplex(table(n), facets)
    want = brute_faces(n, facets)
    for k in range(-2, n + 1):
        assert x.faces(k) == want.get(k, ()), k
    every = {s for faces in want.values() for s in faces}
    for s in all_subsets(n):
        assert x.has_face(s) == (s in every)
    assert not x.has_face(frozenset({n})) and not x.has_face(frozenset({-1}))


@st.composite
def complexes_with_subcomplex(draw):
    """(n, facets, y_facets): a random complex and the subcomplex generated
    by up to four of its faces."""
    n, facets = draw(facet_antichains())
    x_faces = sorted({s for faces in brute_faces(n, facets).values() for s in faces}, key=sorted)
    chosen = draw(st.lists(st.sampled_from(x_faces), max_size=4) if x_faces else st.just([]))
    return n, facets, tuple({s for s in chosen if not any(s < t for t in chosen)})


# a triangle plus an isolated vertex, modulo the triangle's boundary: pair
# faces in dimensions 0 and 2 only, so degree 1 has size zero
@example((4, (frozenset({0, 1, 2}), frozenset({3})), (frozenset({0, 1}), frozenset({1, 2}), frozenset({0, 2}))))
@settings(max_examples=200, deadline=None)
@given(complexes_with_subcomplex())
def test_pair_faces_are_x_faces_minus_y_faces(case):
    n, facets, y_facets = case
    pair = SimplicialPair(SimplicialComplex(table(n), facets), SimplicialComplex(table(n), y_facets))
    in_x, in_y = brute_faces(n, facets), brute_faces(n, y_facets)
    counts = {}
    for k in range(-1, n):
        gone = set(in_y.get(k, ()))
        kept = tuple(s for s in in_x.get(k, ()) if s not in gone)
        assert pair.faces(k) == kept, k
        if kept:
            counts[k] = len(kept)
    span = range(min(counts), max(counts) + 1) if counts else ()
    assert relative_chain_complex(pair).dims == {k: counts.get(k, 0) for k in span}


def test_pair_route_never_lists_the_faces_of_x_or_y():
    pair = strand_support_pair(six_of_eight_transversals())
    relative_chain_complex(pair)
    assert "_faces" not in vars(pair.x) and "_faces" not in vars(pair.y)


def test_pair_guard_fires_before_the_complement_is_built(monkeypatch):
    # 36 vertices in 18 parts of two, one edge: listing the 2**18 transversals
    # of the complement would take seconds before the guard could fire
    t = VertexTable(tuple(f"v{i}" for i in range(36)), tuple(i // 2 for i in range(36)))
    c = Clutter(t, (frozenset(range(0, 36, 2)),))

    def complement_too_early(c):
        raise AssertionError("the complement was built before the vertex guard fired")

    monkeypatch.setattr(simplicial, "d_partite_complement", complement_too_early)
    for call in (strand_support_pair, lyubeznik_last_column, cross_check_betti):
        with pytest.raises(SizeGuardError):
            call(c)


@st.composite
def closure_cases(draw):
    """(n, facets, floor) as masks on at most 10 vertices: a random floor, no
    floor, or the facets themselves as the floor."""
    n = draw(st.integers(0, 10))
    masks = st.integers(0, (1 << n) - 1)
    facets = draw(st.lists(masks, max_size=6))
    floor = draw(st.one_of(st.lists(masks, max_size=4), st.just([]), st.just(facets)))
    return n, tuple(facets), tuple(floor)


# the part-deficient floor of the parts {0, 1} and {2, 3}
@example((4, (0b1111, 0b0111), (0b1100, 0b0011)))
@settings(max_examples=200, deadline=None)
@given(closure_cases())
def test_closure_equals_a_brute_force_filter(case):
    n, facets, floor = case
    want = {}
    for s in range(1 << n):
        if any(s | f == f for f in facets) and not any(s | g == g for g in floor):
            want.setdefault(s.bit_count() - 1, set()).add(s)
    assert simplicial._downward_closure(facets, floor) == want
