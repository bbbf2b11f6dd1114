import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from linstrand import (
    QQ,
    SizeGuardError,
    StrandComplex,
    StrandEntry,
    VertexTable,
    complete_clutter,
    first_linear_strand,
    gf,
    linear_strand_betti,
    edge_ideal,
    random_clutter,
    strand_homology_at,
    strand_support_pair,
    verify_support,
)

from helpers import (
    BUNDLED_FIXTURES,
    brute_signed_drops,
    brute_strand_levels,
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


def test_a_clutter_needs_a_partitioned_table():
    from linstrand import Clutter

    with pytest.raises(ValueError, match="a clutter needs a partitioned vertex table"):
        Clutter(VertexTable(("x", "y")), ())


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


class _FlippedSign(StrandComplex):
    """A strand whose level-1 differential has the sign of its fourth entry
    flipped."""

    @property
    def differentials(self):
        diffs = list(super().differentials)
        entries = list(diffs[1])
        entries[3] = entries[3]._replace(sign=-entries[3].sign)
        diffs[1] = tuple(entries)
        return tuple(diffs)


def test_corrupted_sign_is_located():
    c = six_of_eight_transversals()
    s = first_linear_strand(c)
    r, cc, _, _ = s.differentials[1][3]
    report = verify_support(_FlippedSign(s.vertices, s.level_masks), strand_support_pair(c))
    assert not report.ok
    assert any(f"level 1: entry ({r}, {cc})" in m for m in report.mismatches)


class _WrongVertex(StrandComplex):
    """A strand whose level-1 differential names the wrong vertex, with the
    right sign, in its first entry."""

    @property
    def differentials(self):
        diffs = list(super().differentials)
        e = diffs[1][0]
        diffs[1] = (e._replace(vertex=(e.vertex + 1) % self.n),) + diffs[1][1:]
        return tuple(diffs)


def test_wrong_vertex_is_reported():
    c = six_of_eight_transversals()
    s = first_linear_strand(c)
    r, cc, _, _ = s.differentials[1][0]
    report = verify_support(_WrongVertex(s.vertices, s.level_masks), strand_support_pair(c))
    assert not report.ok
    assert [m for m in report.mismatches if m.startswith(f"level 1: entry ({r}, {cc})")] == list(report.mismatches)


def test_flipping_every_sign_of_the_shared_rule_is_caught(monkeypatch):
    """Negating every sign still squares to zero, so the product check
    passes; only the paper's formula tells the two rules apart.  The rule
    lives in simplicial._drops, which every boundary builder and the Morse
    reduction read, so flipping it there reaches them all."""
    from linstrand import simplicial

    original = simplicial._drops

    def flipped(a):
        for t, sign in original(a):
            yield t, -sign

    monkeypatch.setattr(simplicial, "_drops", flipped)
    c = complete_clutter([2, 2, 2])
    s = first_linear_strand(c)
    s.skeleton_complex()
    report = verify_support(s, strand_support_pair(c))
    assert not report.ok
    assert len(report.mismatches) == sum(map(len, s.differentials))


def test_missing_basis_set_is_reported():
    c = six_of_eight_transversals()
    s = first_linear_strand(c)
    trimmed = dataclasses.replace(s, level_masks=(s.level_masks[0][:-1], s.level_masks[1]))
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


def test_vertex_guard_on_strand():
    with pytest.raises(SizeGuardError):
        first_linear_strand(complete_clutter([5, 5, 5, 5, 5, 5]))


def test_strand_complex_rejects_a_basis_set_vertex_outside_the_table():
    t = complete_clutter([2, 2]).vertices
    a02 = 0b0101
    for bad in (1 << 4, 0b10001, -1, frozenset({0, 2}), 5.0, None):
        with pytest.raises(ValueError):
            StrandComplex(t, ((a02, bad),))
    with pytest.raises(ValueError, match="a strand needs a partitioned vertex table"):
        StrandComplex(VertexTable(t.names), ((a02,),))
    ok = StrandComplex(t, ((a02,), (0b0111,)))
    assert ok.d == 2
    assert ok.ranks() == (1, 1)
    assert ok.levels == ((frozenset({0, 2}),), (frozenset({0, 1, 2}),))
    assert ok.differentials == ((), (StrandEntry(0, 0, -1, 1),))


def test_strand_reads_never_make_the_frozenset_levels():
    c = six_of_eight_transversals()
    s = first_linear_strand(c)
    s.ranks()
    s.differentials
    s.skeleton_complex()
    strand_homology_at(s, frozenset(range(c.n)))
    assert verify_support(s, strand_support_pair(c)).ok
    assert "levels" not in vars(s)
    assert s.levels[0][0] == frozenset(min(map(sorted, c.edges)))
    assert "levels" in vars(s)


# random partitioned clutters with n <= 12, up to four parts
STRAND_CLUTTERS = st.builds(
    random_clutter,
    st.lists(st.integers(1, 4), min_size=1, max_size=4).filter(lambda sizes: sum(sizes) <= 12),
    st.floats(0.0, 1.0),
    st.integers(0, 10**6),
)


@settings(max_examples=40, deadline=None)
@given(STRAND_CLUTTERS)
def test_levels_and_differentials_match_brute_force(c):
    s = first_linear_strand(c)
    assert s.levels == brute_strand_levels(c)
    assert len(s.differentials) == s.length()
    if s.length():
        assert s.differentials[0] == ()
    for i in range(1, s.length()):
        sources, targets = s.levels[i], s.levels[i - 1]
        for row, col, sign, v in s.differentials[i]:
            a = sources[col]
            assert v in a
            assert a - {v} == targets[row]
            assert sign == (-1) ** sorted(a).index(v)
        # every drop that lands one level down has exactly one entry
        entries = [tuple(e) for e in s.differentials[i]]
        assert len(entries) == len(set(entries))
        assert set(entries) == brute_signed_drops(sources, targets)
