import dataclasses

import pytest

from linstrand import (
    QQ,
    SizeGuardError,
    StrandComplex,
    StrandEntry,
    complete_clutter,
    first_linear_strand,
    gf,
    linear_strand_betti,
    edge_ideal,
    strand_homology_at,
    strand_support_pair,
    verify_support,
)

from helpers import (
    BUNDLED_FIXTURES,
    fourteen_of_sixteen_transversals,
    six_of_eight_transversals,
)


def test_two_by_two_strand_is_frozen():
    s = first_linear_strand(complete_clutter([2, 2]))
    assert s.ranks() == (4, 4, 1)
    assert [tuple(sorted(a)) for a in s.levels[0]] == [(0, 2), (0, 3), (1, 2), (1, 3)]
    assert [tuple(sorted(a)) for a in s.levels[1]] == [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)]
    # the differential on e_{012}: drop a1 with sign +, drop a2 with sign -,
    # dropping b1 would leave part b uncovered so no term
    assert s.differentials[1][0] == StrandEntry(row=2, col=0, sign=1, vertex=0)
    assert s.differentials[1][1] == StrandEntry(row=0, col=0, sign=-1, vertex=1)
    assert len(s.differentials[1]) == 8
    assert s.differentials[2] == (
        StrandEntry(3, 0, 1, 0),
        StrandEntry(2, 0, -1, 1),
        StrandEntry(1, 0, 1, 2),
        StrandEntry(0, 0, -1, 3),
    )


def test_strand_requires_partition():
    from linstrand import Clutter, VertexTable

    t = VertexTable(("x", "y"), None)
    with pytest.raises(ValueError):
        first_linear_strand(Clutter(t, (frozenset({0, 1}),)))


def test_strand_of_edgeless_clutter_is_empty():
    c = complete_clutter([2, 2])
    from linstrand import Clutter

    empty = Clutter(c.vertices, ())
    s = first_linear_strand(empty)
    assert s.ranks() == ()
    assert s.length() == 0


def test_skeletons_compose_to_zero_on_fixtures():
    for make in BUNDLED_FIXTURES:
        s = first_linear_strand(make())
        s.skeleton_complex()  # would raise on a bad square


def test_strand_matches_relative_pair_on_fixtures():
    for make in BUNDLED_FIXTURES:
        c = make()
        report = verify_support(first_linear_strand(c), strand_support_pair(c))
        assert report.ok, report.mismatches


def test_corrupted_sign_is_located():
    c = six_of_eight_transversals()
    s = first_linear_strand(c)
    entries = list(s.differentials[1])
    bad = entries[3]
    entries[3] = StrandEntry(bad.row, bad.col, -bad.sign, bad.vertex)
    corrupt = dataclasses.replace(s, differentials=(s.differentials[0], tuple(entries)))
    report = verify_support(corrupt, strand_support_pair(c))
    assert not report.ok
    assert any(f"({bad.row}, {bad.col})" in m for m in report.mismatches)


def test_missing_basis_set_is_reported():
    c = six_of_eight_transversals()
    s = first_linear_strand(c)
    trimmed = dataclasses.replace(
        s,
        levels=(s.levels[0][:-1], s.levels[1]),
        differentials=(
            (),
            tuple(e for e in s.differentials[1] if e.row < len(s.levels[0]) - 1),
        ),
    )
    report = verify_support(trimmed, strand_support_pair(c))
    assert not report.ok
    assert any("level 0" in m for m in report.mismatches)


def test_strand_ranks_match_betti_oracle_on_fixtures():
    for make in BUNDLED_FIXTURES:
        c = make()
        s = first_linear_strand(c)
        for f in (QQ, gf(2)):
            graded, multigraded = linear_strand_betti(edge_ideal(c), f)
            assert graded == {i: r for i, r in enumerate(s.ranks())}
            assert multigraded == {
                (i, a): 1 for i, level in enumerate(s.levels) for a in level
            }


def test_homology_probes_on_two_by_two():
    s = first_linear_strand(complete_clutter([2, 2]))
    full = frozenset(range(4))
    assert strand_homology_at(s, full, QQ) == {0: 1, 1: 0, 2: 0}
    assert strand_homology_at(s, frozenset({0, 2}), QQ) == {0: 1, 1: 0, 2: 0}
    # a multidegree with no edge inside kills everything
    assert strand_homology_at(s, frozenset({0, 1}), QQ) == {0: 0, 1: 0, 2: 0}
    with pytest.raises(ValueError):
        strand_homology_at(s, frozenset({9}), QQ)


def test_homology_probes_on_fourteen_transversals():
    c = fourteen_of_sixteen_transversals()
    s = first_linear_strand(c)
    full = frozenset(range(8))
    assert strand_homology_at(s, full, QQ) == {0: 1, 1: 0, 2: 0, 3: 0}
    # removing a2 (vertex 1) opens up level-1 homology: the strand of this
    # clutter is not a resolution in that multidegree
    assert strand_homology_at(s, full - {1}, QQ) == {0: 1, 1: 1, 2: 0, 3: 0}


def test_strand_complex_validation():
    s = first_linear_strand(complete_clutter([2, 2]))
    with pytest.raises(ValueError):
        dataclasses.replace(s, differentials=(s.differentials[0],))
    bad0 = ((StrandEntry(0, 0, 1, 0),),) + s.differentials[1:]
    with pytest.raises(ValueError):
        dataclasses.replace(s, differentials=bad0)
    e = s.differentials[1][0]
    with pytest.raises(ValueError):
        dataclasses.replace(
            s,
            differentials=(
                (),
                (StrandEntry(e.row, e.col, 2, e.vertex),) + s.differentials[1][1:],
                s.differentials[2],
            ),
        )
    # an entry whose target does not drop exactly the named vertex
    with pytest.raises(ValueError):
        dataclasses.replace(
            s,
            differentials=(
                (),
                (StrandEntry(e.row, e.col, e.sign, e.vertex + 1),) + s.differentials[1][1:],
                s.differentials[2],
            ),
        )


def test_vertex_guard_on_strand():
    with pytest.raises(SizeGuardError):
        first_linear_strand(complete_clutter([5, 5, 5, 5, 5, 5]))


def test_strand_complex_rejects_a_vertex_outside_the_source():
    t = complete_clutter([2, 2]).vertices
    a02, a012 = frozenset({0, 2}), frozenset({0, 1, 2})
    # the target is the source plus vertex 1, not the source minus it
    with pytest.raises(ValueError, match="does not drop a single vertex"):
        StrandComplex(2, t, ((a012,), (a02,)), ((), (StrandEntry(0, 0, 1, 1),)))
    with pytest.raises(ValueError, match="does not drop a single vertex"):
        StrandComplex(2, t, ((a02,), (a02,)), ((), (StrandEntry(0, 0, 1, 1),)))
    # vertex 0 is in the source, but dropping it does not give the target
    with pytest.raises(ValueError, match="does not drop a single vertex"):
        StrandComplex(2, t, ((frozenset({0, 1}),), (a012,)), ((), (StrandEntry(0, 0, 1, 0),)))
    # a vertex that is no vertex at all
    with pytest.raises(ValueError, match="does not drop a single vertex"):
        StrandComplex(2, t, ((a02,), (a012,)), ((), (StrandEntry(0, 0, 1, -1),)))
    ok = StrandComplex(2, t, ((a02,), (a012,)), ((), (StrandEntry(0, 0, -1, 1),)))
    assert ok.ranks() == (1, 1)
