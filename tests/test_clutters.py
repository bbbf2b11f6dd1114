import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from linstrand import (
    QQ,
    Clutter,
    SimplicialComplex,
    SizeGuardError,
    SquarefreeIdeal,
    VertexTable,
    alexander_dual,
    betti_table,
    complete_clutter,
    d_partite_complement,
    edge_ideal,
    ferrers_clutter,
    first_linear_strand,
    from_point_configuration,
    independent_sets,
    is_linear,
    linear_strand_betti,
    lyubeznik_last_column,
    minimal_vertex_covers,
    multigraded_betti,
    random_clutter,
    ranked_projection,
    restrict,
    strand_homology_at,
    strand_support_pair,
)

from helpers import (
    brute_independent_sets,
    brute_minimal_covers,
    seeded_random_instance,
    six_of_eight_transversals,
)


def test_vertex_table_rejects_duplicate_names():
    with pytest.raises(ValueError):
        VertexTable(("x", "x"), None)


def test_vertex_table_rejects_gappy_parts():
    with pytest.raises(ValueError):
        VertexTable(("x", "y"), (0, 2))


@pytest.mark.parametrize(
    "names, parts",
    [(("a",), (0.0,)), (("a", "b"), (0, 1.0)), (("a", "b"), (False, True)), (("a", "b", "c"), (1, True, 0))],
    ids=["float", "float-after-int", "bools", "bool-equal-to-an-int"],
)
def test_vertex_table_part_indices_must_be_ints(names, parts):
    with pytest.raises(ValueError, match="part indices must be ints"):
        VertexTable(names, parts)


@pytest.mark.parametrize(
    "names",
    [(1, 2), ("a", ["b"]), ("a", None)],
    ids=["ints", "unhashable", "null"],
)
def test_vertex_names_must_be_strings(names):
    with pytest.raises(ValueError, match="vertex names must be strings"):
        VertexTable(names, (0, 1))


@pytest.mark.parametrize("name", [["a1"], {"a1": 1}, 1, None], ids=repr)
def test_an_unknown_name_is_a_value_error(name):
    t = complete_clutter([2, 2]).vertices
    with pytest.raises(ValueError, match="unknown vertex name"):
        t.index(name)
    with pytest.raises(ValueError, match="unknown vertex name"):
        t.resolve(["a1", name])


SET_FAMILIES = [Clutter, SquarefreeIdeal, SimplicialComplex]
# a Clutter needs a partition; each family checks its members before any
# transversal check, so members that are not transversals still test that
PARTITIONED = VertexTable(("x", "y", "z"), (0, 1, 2))


@pytest.mark.parametrize("family_type", SET_FAMILIES, ids=lambda t: t.__name__)
@pytest.mark.parametrize(
    "members, message",
    [
        (({0, 3}, {1}), "out of range"),
        (({1}, {-1, 2}), "out of range"),
        (({0, 1}, {2}, {1, 0}), "duplicate"),
        (({2}, {0, 1}, {0}), "antichain"),
        (({0, 1}, {1, 2}, {0, 1, 2}), "antichain"),
    ],
    ids=["beyond-table", "negative", "repeated", "nested", "nested-across-sizes"],
)
def test_set_families_reject_bad_members(family_type, members, message):
    with pytest.raises(ValueError, match=message):
        family_type(PARTITIONED, tuple(frozenset(m) for m in members))


# each takes a vertex set s on the table of a partitioned clutter c
TAKES_A_VERTEX_SET = {
    "Clutter": lambda c, s: Clutter(c.vertices, (s,)),
    "SquarefreeIdeal": lambda c, s: SquarefreeIdeal(c.vertices, (s,)),
    "restrict": restrict,
    "multigraded_betti": lambda c, s: multigraded_betti(edge_ideal(c), 1, s, QQ),
    "strand_homology_at": lambda c, s: strand_homology_at(first_linear_strand(c), s, QQ),
    "has_face": lambda c, s: SimplicialComplex(c.vertices, c.edges).has_face(s),
}


@pytest.mark.parametrize("vertex", [1.5, 1.0, True, "1", None], ids=repr)
@pytest.mark.parametrize("entry", TAKES_A_VERTEX_SET)
def test_a_vertex_that_is_not_an_int_is_refused(entry, vertex):
    # has_face answers no, as it does for a vertex number outside the table;
    # every other entry point raises ValueError, never TypeError
    c = random_clutter([2, 2], 0.9, 1)
    s = frozenset({0, vertex})
    if entry == "has_face":
        assert TAKES_A_VERTEX_SET[entry](c, s) is False
    else:
        with pytest.raises(ValueError, match="out of range"):
            TAKES_A_VERTEX_SET[entry](c, s)


def test_has_face_does_not_take_a_bool_for_a_vertex():
    x = SimplicialComplex(VertexTable(("x", "y")), (frozenset({0, 1}),))
    assert x.has_face({1})
    assert not x.has_face({True})


@pytest.mark.parametrize("family_type", SET_FAMILIES, ids=lambda t: t.__name__)
def test_only_a_complex_takes_the_empty_set(family_type):
    if family_type is SimplicialComplex:
        assert family_type(PARTITIONED, (frozenset(),)).facets == (frozenset(),)
    else:
        with pytest.raises(ValueError, match="nonempty"):
            family_type(PARTITIONED, (frozenset(),))


def test_clutter_rejects_nontransversal_edge():
    t = complete_clutter([2, 2]).vertices
    with pytest.raises(ValueError):
        Clutter(t, (frozenset({0, 1}),))  # both endpoints in part a


def test_minimal_covers_of_three_edge_tripartite():
    # three generators x1*y1*z1, x1*y1*z2, x2*y2*z2 on parts {x1,x2},{y1,y2},{z1,z2}
    t = complete_clutter([2, 2, 2]).vertices
    edges = tuple(t.resolve(e) for e in (("a1", "b1", "c1"), ("a1", "b1", "c2"), ("a2", "b2", "c2")))
    c = Clutter(t, edges)
    got = [tuple(sorted(t.names[v] for v in s)) for s in minimal_vertex_covers(c)]
    assert got == [
        ("a1", "a2"),
        ("a1", "b2"),
        ("a1", "c2"),
        ("a2", "b1"),
        ("b1", "b2"),
        ("b1", "c2"),
        ("c1", "c2"),
    ]


def test_minimal_covers_match_brute_force():
    for seed in range(40):
        c = seeded_random_instance(seed)
        got = [frozenset(s) for s in minimal_vertex_covers(c)]
        want = [frozenset(s) for s in brute_minimal_covers(c.n, c.edge_set())]
        assert got == want, f"seed {seed}"


@st.composite
def any_family(draw):
    """An ideal of a general antichain (the minimal members of random
    nonempty sets, at least one) on an unpartitioned table, or a random
    clutter."""
    if draw(st.booleans()):
        n = draw(st.integers(1, 8))
        sets = draw(st.lists(st.frozensets(st.integers(0, n - 1), min_size=1, max_size=n), min_size=1, max_size=8))
        generators = tuple({s for s in sets if not any(t < s for t in sets)})
        return SquarefreeIdeal(VertexTable(tuple(f"v{i}" for i in range(n))), generators)
    sizes = draw(st.lists(st.integers(1, 3), min_size=1, max_size=4))
    return random_clutter(sizes, draw(st.sampled_from((0.0, 0.3, 0.6, 1.0))), draw(st.integers(0, 10**6)))


@settings(max_examples=200, deadline=None)
@given(any_family())
def test_minimal_covers_match_brute_force_on_any_clutter(family):
    # the covers of a general antichain are the generators of its Alexander dual
    if isinstance(family, SquarefreeIdeal):
        got = alexander_dual(family).generators
        edges = family.generators
    else:
        got = minimal_vertex_covers(family)
        edges = family.edges
    assert got == tuple(brute_minimal_covers(family.vertices.n, edges))


def test_covers_of_edgeless_clutter_is_empty_set_only():
    assert minimal_vertex_covers(Clutter(complete_clutter([1, 1]).vertices, ())) == (frozenset(),)


def test_independence_complex_matches_brute_force():
    for seed in range(25):
        c = seeded_random_instance(seed)
        x = independent_sets(c)
        want = brute_independent_sets(c.n, c.edge_set())
        got = set()
        for k in range(-1, x.dim + 1):
            got.update(frozenset(f) for f in x.faces(k))
        if x.is_void:
            got = set()
        else:
            got.add(frozenset())
        assert got == want, f"seed {seed}"


def test_complement_is_an_involution():
    for seed in range(30):
        c = seeded_random_instance(seed)
        assert d_partite_complement(d_partite_complement(c)) == c


def test_complement_partitions_transversals():
    c = six_of_eight_transversals()
    comp = d_partite_complement(c)
    assert len(c.edges) + len(comp.edges) == 8
    assert not set(c.edges) & set(comp.edges)


def test_restrict_keeps_induced_edges_only():
    c = six_of_eight_transversals()
    w = frozenset(range(4))  # a1,a2,b1,b2
    r = restrict(c, w)
    assert r.n == 4
    assert r.edges == ()  # no edge of a 3-partite clutter fits in two parts


def test_restrict_to_nothing_is_refused():
    # a clutter's table has at least one vertex
    with pytest.raises(ValueError, match="at least one vertex"):
        restrict(complete_clutter([2, 2]), frozenset())


def test_restrict_then_restrict_composes():
    c = complete_clutter([2, 2, 2])
    w1 = frozenset({0, 1, 2, 4, 5})
    w2_in_r1 = frozenset({0, 2, 3})
    r1 = restrict(c, w1)
    r2 = restrict(r1, w2_in_r1)
    # chase the same vertices through in one step
    order1 = sorted(w1)
    w_direct = frozenset(order1[v] for v in w2_in_r1)
    direct = restrict(c, w_direct)
    assert r2.edge_set() == direct.edge_set()
    assert r2.vertices.parts == direct.vertices.parts


def test_ranked_projection_drops_to_selected_parts():
    c = six_of_eight_transversals()
    p = ranked_projection(c, (0, 2))
    assert p.d == 2
    assert all(len(e) == 2 for e in p.edges)


@st.composite
def clutters_with_subsets(draw):
    """A random clutter on n <= 12 vertices whose table interleaves its parts
    (vertex i is vertex order[i] of a random clutter), a nonempty vertex set
    w and a nonempty list of part indices, repeats allowed."""
    sizes = draw(st.lists(st.integers(1, 4), min_size=1, max_size=4).filter(lambda s: sum(s) <= 12))
    drawn = random_clutter(sizes, draw(st.floats(0.0, 1.0)), draw(st.integers(0, 10**6)))
    t = drawn.vertices
    order = draw(st.permutations(range(drawn.n)))
    new = {v: i for i, v in enumerate(order)}
    table = VertexTable(tuple(t.names[v] for v in order), tuple(t.parts[v] for v in order))
    c = Clutter(table, tuple(frozenset(new[v] for v in e) for e in drawn.edges))
    w = draw(st.frozensets(st.integers(0, c.n - 1), min_size=1))
    js = draw(st.lists(st.integers(0, c.d - 1), min_size=1, max_size=4))
    return c, w, js


def _brute_on_subset(c, w, edges):
    """The names, part indices and edge set of the clutter of the given
    subsets of w: the vertices of w kept in order, the parts meeting w
    renumbered 0, 1, .. in their original order."""
    t = c.vertices
    order = sorted(w)
    kept_parts = sorted({t.parts[v] for v in w})
    return (
        tuple(t.names[v] for v in order),
        tuple(kept_parts.index(t.parts[v]) for v in order),
        frozenset(frozenset(order.index(v) for v in e) for e in edges),
    )


@settings(max_examples=80, deadline=None)
@given(clutters_with_subsets())
def test_restrict_and_projection_match_brute_force(case):
    c, w, js = case

    def seen(r):
        return r.vertices.names, r.vertices.parts, r.edge_set()

    assert seen(restrict(c, w)) == _brute_on_subset(c, w, [e for e in c.edges if e <= w])
    w_js = frozenset(v for v in range(c.n) if c.vertices.parts[v] in js)
    assert seen(ranked_projection(c, js)) == _brute_on_subset(c, w_js, [e & w_js for e in c.edges])


def test_ranked_projection_discards_nonminimal_images():
    t = complete_clutter([2, 2]).vertices
    # projecting onto part 0 sends both edges to {a1}; single edge survives
    c = Clutter(t, (t.resolve(("a1", "b1")), t.resolve(("a1", "b2"))))
    p = ranked_projection(c, (0,))
    assert len(p.edges) == 1


def test_point_configuration_example():
    pts = [
        [[1, 1], [1, 1], [1, 1]],
        [[1, 1], [1, 1], [2, 1]],
        [[2, 1], [2, 1], [2, 1]],
    ]
    c = from_point_configuration(pts)
    assert c.d == 3
    assert len(c.edges) == 3
    assert c.vertices.n == 6


def test_point_configuration_dedupes_repeated_points():
    pts = [[1, 2], [1, 2], [3, 4]]
    c = from_point_configuration(pts)
    assert len(c.edges) == 2


def test_point_configuration_rejects_ragged_input():
    with pytest.raises(ValueError):
        from_point_configuration([[1, 2], [1, 2, 3]])


@pytest.mark.parametrize(
    "points",
    [[[True, "x"], [1, "y"]], [[[1, [False]], "x"], [[1, [0]], "y"]]],
    ids=["top-level", "nested"],
)
def test_point_configuration_rejects_bool_labels(points):
    # True == 1 and False == 0, so a bool label would merge with an int one
    with pytest.raises(ValueError, match="is a bool"):
        from_point_configuration(points)


@pytest.mark.parametrize(
    "points, message",
    [
        (5, "nonempty list of rows"),
        ([], "nonempty list of rows"),
        ([5], "nonempty list of rows"),
        (["ab", "ac"], "nonempty list of rows"),
        ([[{}]], "point labels must be strings, numbers or lists of them"),
        ([[None, "x"]], "point labels must be strings, numbers or lists of them"),
        ([[[1, [None]], "x"]], "point labels must be strings, numbers or lists of them"),
        # two NaNs never compare equal, so one repeated point would make two vertices
        ([[float("nan"), "x"], [float("nan"), "x"]], "nan is not equal to itself"),
        ([[("y", [float("nan")]), "x"]], "nan is not equal to itself"),
    ],
    ids=["number", "empty", "number-row", "string-rows", "dict-label", "null-label", "nested-null-label", "nan-label", "nested-nan-label"],
)
def test_point_configuration_rejects_bad_shapes_and_labels(points, message):
    with pytest.raises(ValueError, match=message):
        from_point_configuration(points)


def test_point_configuration_takes_tuples_and_nested_labels():
    c = from_point_configuration(((1, ("x", 2.5)), [1, ["x", 2.5]], (2, ["y"])))
    assert c.vertices.names == ("a1", "a2", "b1", "b2")
    assert c.edges == (frozenset({0, 2}), frozenset({1, 3}))


@pytest.mark.parametrize("sizes", [[2.5], [2.0], [True, 2], [2, 0], []], ids=repr)
@pytest.mark.parametrize("build", [complete_clutter, ferrers_clutter], ids=lambda f: f.__name__)
def test_part_sizes_must_be_positive_ints(build, sizes):
    complete_clutter([1, 2])  # cached first: (True, 2) and (1, 2) are one cache key
    with pytest.raises(ValueError, match="must be positive ints"):
        build(sizes)


@pytest.mark.parametrize("parts", [[0, 1.0], [True, 2], [1, True], [3], [-1]], ids=repr)
def test_ranked_projection_takes_part_indices_only(parts):
    with pytest.raises(ValueError, match="part index out of range"):
        ranked_projection(complete_clutter([1, 2, 2]), parts)


def test_complete_clutter_has_all_transversals():
    c = complete_clutter([2, 3])
    assert len(c.edges) == 6


def test_ferrers_clutter_shape():
    c = ferrers_clutter([3, 2, 1])
    assert c.d == 2
    assert len(c.edges) == 6
    with pytest.raises(ValueError):
        ferrers_clutter([1, 2])


def test_random_clutter_is_deterministic_per_seed():
    a = random_clutter([2, 2, 2], 0.5, seed=11)
    b = random_clutter([2, 2, 2], 0.5, seed=11)
    assert a == b
    c = random_clutter([2, 2, 2], 0.5, seed=12)
    # not a guarantee in general, but these seeds do differ
    assert a != c


def test_draws_of_one_shape_share_their_edges():
    sizes = [3, 3, 2]
    transversals = [frozenset(t) for t in itertools.product(range(3), range(3, 6), range(6, 8))]
    complete = complete_clutter(sizes)
    assert complete_clutter(tuple(sizes)) is complete
    a = random_clutter(sizes, 0.5, seed=1)
    b = random_clutter(sizes, 0.5, seed=2)
    common = set(a.edges) & set(b.edges)
    assert common
    for e in common:
        assert a.edges[a.edges.index(e)] is b.edges[b.edges.index(e)]
    assert a.vertices is b.vertices is complete.vertices
    # the draws are valid clutters in canonical order, and the shared
    # instance is left as it was
    assert Clutter(a.vertices, a.edges) == a
    assert complete_clutter(sizes) is complete
    assert complete.edges == tuple(sorted(transversals, key=lambda e: sorted(e)))
    with pytest.raises(ValueError):
        complete_clutter([2, 0])
    with pytest.raises(ValueError, match="positive ints"):
        complete_clutter([2.0])


def test_vertex_guard_trips():
    with pytest.raises(SizeGuardError):
        independent_sets(complete_clutter([5, 5, 5, 5, 5, 5]))
    # and can be lifted explicitly
    independent_sets(complete_clutter([2, 2]), max_vertices=100)


GUARDED = {
    "independent_sets": lambda c, m: independent_sets(c, max_vertices=m),
    "first_linear_strand": lambda c, m: first_linear_strand(c, max_vertices=m),
    "strand_support_pair": lambda c, m: strand_support_pair(c, max_vertices=m),
    "lyubeznik_last_column": lambda c, m: lyubeznik_last_column(c, max_vertices=m),
    "is_linear": lambda c, m: is_linear(c, max_vertices=m),
    "betti_table": lambda c, m: betti_table(edge_ideal(c), max_vertices=m),
    "linear_strand_betti": lambda c, m: linear_strand_betti(edge_ideal(c), max_vertices=m),
}


@pytest.mark.parametrize("guard", [True, 2.5, None], ids=["bool", "float", "none"])
@pytest.mark.parametrize("entry", GUARDED.values(), ids=GUARDED.keys())
def test_a_guard_that_is_not_an_int_is_refused(entry, guard):
    # unchecked, True acts as a guard of 1 and 2.5 as one of 2
    with pytest.raises(ValueError, match="max_vertices must be an int"):
        entry(complete_clutter([1, 1]), guard)
