import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from linstrand import (
    GF2,
    QQ,
    SizeGuardError,
    Clutter,
    SquarefreeIdeal,
    VertexTable,
    alexander_dual,
    complete_clutter,
    d_partite_complement,
    edge_ideal,
    ferrers_clutter,
    first_linear_strand,
    gf,
    linear_strand_betti,
    linkage_ideal,
    minimal_vertex_covers,
    random_clutter,
    squarefree_colon,
)

from helpers import seeded_random_instance


def names(n):
    return VertexTable(tuple(f"x{i + 1}" for i in range(n)), None)


def test_ideal_rejects_nonminimal_generators():
    with pytest.raises(ValueError):
        SquarefreeIdeal(names(3), (frozenset({0}), frozenset({0, 1})))
    with pytest.raises(ValueError):
        SquarefreeIdeal(names(3), (frozenset(),))


def test_zero_ideal_has_no_degree():
    z = SquarefreeIdeal(names(2), ())
    assert z.is_zero
    with pytest.raises(ValueError):
        z.min_degree
    with pytest.raises(ValueError):
        alexander_dual(z)


def test_dual_generators_are_minimal_covers():
    t = complete_clutter([2, 2, 2]).vertices
    edges = tuple(t.resolve(e) for e in (("a1", "b1", "c1"), ("a1", "b1", "c2"), ("a2", "b2", "c2")))
    i = edge_ideal(Clutter(t, edges))
    dual = alexander_dual(i)
    got = [tuple(sorted(t.names[v] for v in s)) for s in dual.generators]
    assert got == [
        ("a1", "a2"),
        ("a1", "b2"),
        ("a1", "c2"),
        ("a2", "b1"),
        ("b1", "b2"),
        ("b1", "c2"),
        ("c1", "c2"),
    ]


def test_dual_is_an_involution():
    for seed in range(25):
        c = seeded_random_instance(seed)
        if not c.edges:
            continue
        i = edge_ideal(c)
        assert alexander_dual(alexander_dual(i)) == i


@st.composite
def ideals_over_a_clutter(draw):
    """A clutter c (n <= 10, some part of two vertices or more) and the
    ideal of its edges plus one to four extra generators of degree d + 1 or
    d + 2 that meet every part, contain no edge of c and form an antichain.

    Each extra is a transversal plus one or two vertices outside it, kept
    when it is not comparable with one kept before; c is a random clutter
    less the edges inside some extra."""
    shapes = st.lists(st.integers(1, 3), min_size=1, max_size=4).filter(lambda sizes: len(sizes) < sum(sizes) <= 10)
    sizes = draw(shapes)
    c = random_clutter(sizes, draw(st.floats(0.0, 1.0)), draw(st.integers(0, 10**6)))
    extras: list[frozenset[int]] = []
    for _ in range(draw(st.integers(1, 4))):
        t = frozenset(draw(st.sampled_from(sorted(p))) for p in c.part_sets())
        g = t | draw(st.frozensets(st.sampled_from(sorted(set(range(c.n)) - t)), min_size=1, max_size=2))
        if not any(g <= h or h <= g for h in extras):
            extras.append(g)
    edges = tuple(e for e in c.edges if not any(e <= g for g in extras))
    assume(edges)
    return Clutter(c.vertices, edges), SquarefreeIdeal(c.vertices, edges + tuple(extras))


@settings(max_examples=40, deadline=None)
@given(ideals_over_a_clutter(), st.sampled_from((QQ, GF2, gf(3))))
def test_generators_above_degree_d_leave_the_linear_strand_alone(case, f):
    """The oracle diagonal of the ideal, graded and multigraded, is the
    strand of the clutter of its degree-d generators."""
    c, i = case
    s = first_linear_strand(c)
    graded, multigraded = linear_strand_betti(i, f)
    assert graded == dict(enumerate(s.ranks()))
    assert multigraded == {(k, a): 1 for k, level in enumerate(s.levels) for a in level}


def test_linkage_ideal_is_the_complement_edge_ideal():
    c = ferrers_clutter([2, 1])
    link = linkage_ideal(c)
    comp = d_partite_complement(c)
    assert set(link.generators) == comp.edge_set()


def test_linkage_matches_brute_force_colon():
    # the part products link the cover ideal of C to the cover ideal of the
    # complement: coloning one out of the part-product ideal yields the other
    for c in (ferrers_clutter([2, 1]), complete_clutter([2, 2]), seeded_random_instance(3)):
        covers = minimal_vertex_covers(c)
        comp_covers = minimal_vertex_covers(d_partite_complement(c))
        parts = [frozenset(c.vertices.part_members(j)) for j in range(c.d)]
        assert squarefree_colon(parts, covers, c.n) == comp_covers, c
        assert squarefree_colon(parts, comp_covers, c.n) == covers, c


def test_colon_can_be_the_unit_ideal():
    # when every dual generator already contains a part, the colon is (1),
    # whose only minimal squarefree multidegree is the empty one
    got = squarefree_colon([frozenset({0})], (frozenset({0, 1}),), 3)
    assert got == (frozenset(),)


def test_colon_refuses_a_large_n_before_allocating():
    # n = 25 would take 32 MiB and 2^25 passes; the guard answers at once
    with pytest.raises(SizeGuardError):
        squarefree_colon([frozenset({0})], (frozenset({0}),), 25)


@pytest.mark.parametrize("n", [3, 5, True, 6.0, "6"])
def test_colon_refuses_an_n_that_does_not_hold_the_vertices(n):
    # a too-small n cuts vertices off the supports, so unchecked it gives a
    # wrong answer (n = 3: one of the six minimal multidegrees) with no error
    c = random_clutter([2, 2, 2], 0.5, 3)
    with pytest.raises(ValueError, match="n must be an int|outside 0..") as caught:
        squarefree_colon(c.part_sets(), minimal_vertex_covers(c), n)
    assert caught.type is ValueError


def test_colon_takes_a_larger_n():
    c = random_clutter([2, 2, 2], 0.5, 3)
    covers = minimal_vertex_covers(c)
    assert squarefree_colon(c.part_sets(), covers, 7) == squarefree_colon(c.part_sets(), covers, 6)
    assert squarefree_colon(c.part_sets(), covers, 6) == minimal_vertex_covers(d_partite_complement(c))


def test_colon_of_the_zero_sequence_is_zero():
    assert squarefree_colon([], (frozenset({0}),), 2) == ()

