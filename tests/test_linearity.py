import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from linstrand import (
    GF2,
    QQ,
    SizeGuardError,
    complement_linearity_agrees,
    complete_clutter,
    d_partite_complement,
    edge_ideal,
    ferrers_clutter,
    gf,
    is_linear,
    is_linear_by_betti,
    random_clutter,
    ranked_projection,
    restrict,
)

from helpers import (
    fourteen_of_sixteen_transversals,
    scattered_three_edges,
    seeded_random_instance,
    six_of_eight_transversals,
)


def betti_graded_of(c):
    from linstrand import betti_table

    return betti_table(edge_ideal(c), QQ).graded


def test_complete_clutters_are_linear():
    for sizes in ([2, 2], [3, 2], [2, 2, 2]):
        c = complete_clutter(sizes)
        assert is_linear(c)
        assert is_linear_by_betti(edge_ideal(c), QQ)


def test_ferrers_clutters_are_linear():
    for shape in ([3, 2, 1], [2, 2], [4, 1, 1, 1]):
        c = ferrers_clutter(shape)
        assert is_linear(c)
        assert is_linear_by_betti(edge_ideal(c), QQ)


def test_two_disjoint_edges_are_not_linear():
    c = complete_clutter([2, 2])
    t = c.vertices
    from linstrand import Clutter

    two = Clutter(t, (t.resolve(("a1", "b1")), t.resolve(("a2", "b2"))))
    v = is_linear(two)
    assert not v
    assert v.certificate is not None
    assert not is_linear_by_betti(edge_ideal(two), QQ)


def test_fixture_with_obstruction_in_a_projection():
    c = scattered_three_edges()
    v = is_linear(c)
    assert not v.linear
    cert = v.certificate
    assert cert.parts == (0, 2)
    assert cert.side == "clutter"
    # the resolution really is nonlinear: off-diagonal graded Betti numbers
    assert betti_graded_of(c) == {(0, 3): 3, (1, 5): 3, (2, 6): 1}


def test_certificate_replays_to_a_genuine_violation():
    for make in (scattered_three_edges, fourteen_of_sixteen_transversals, six_of_eight_transversals):
        c = make()
        v = is_linear(c)
        assert not v.linear
        cert = v.certificate
        w = cert.first | cert.second
        induced = restrict(c, w)
        side = induced if cert.side == "clutter" else d_partite_complement(induced)
        p = ranked_projection(side, cert.parts)
        pairs = [
            (a, b)
            for i, a in enumerate(p.edges)
            for b in p.edges[i + 1 :]
            if not (a & b)
        ]
        assert pairs, "certificate does not reproduce two disjoint edges"


def test_single_part_clutters_are_linear():
    c = complete_clutter([4])
    assert is_linear(c)
    from linstrand import Clutter

    sub = Clutter(c.vertices, c.edges[:2])
    assert is_linear(sub)


def test_edgeless_clutter_is_linear_by_convention():
    from linstrand import Clutter

    c = complete_clutter([2, 2])
    assert is_linear(Clutter(c.vertices, ()))


def test_characterization_matches_oracle_on_random_instances():
    for seed in range(40):
        c = seeded_random_instance(seed)
        got = bool(is_linear(c))
        if not c.edges:
            assert got
            continue
        want = is_linear_by_betti(edge_ideal(c), QQ)
        assert got == want, f"seed {seed}"


def test_complement_agreement_on_random_instances():
    for seed in range(25):
        c = seeded_random_instance(seed)
        assert complement_linearity_agrees(c), f"seed {seed}"


# random partitioned clutters within the oracle's reach, as in test_identities
RANDOM_CLUTTERS = st.builds(
    random_clutter,
    st.lists(st.integers(1, 3), min_size=1, max_size=4).filter(lambda sizes: sum(sizes) <= 10),
    st.floats(0.0, 1.0),
    st.integers(0, 10**6),
)


@settings(max_examples=30, deadline=None)
@given(RANDOM_CLUTTERS)
def test_characterization_matches_oracle_property(c):
    assume(c.edges)
    got = is_linear(c).linear
    for f in (QQ, GF2, gf(3)):
        assert got == is_linear_by_betti(edge_ideal(c), f), f


@settings(max_examples=30, deadline=None)
@given(RANDOM_CLUTTERS)
def test_complement_agreement_property(c):
    assume(c.edges)
    assert complement_linearity_agrees(c)


def test_linearity_guard_fires_before_the_transversals_are_listed(monkeypatch):
    from linstrand import Clutter, SizeGuardError

    c = six_of_eight_transversals()

    def listed_too_early(self):
        raise AssertionError("the transversals were listed before the vertex guard fired")

    monkeypatch.setattr(Clutter, "complete_edges", listed_too_early)
    for call in (is_linear, complement_linearity_agrees):
        with pytest.raises(SizeGuardError, match=f"{c.n} vertices exceeds the guard of 5"):
            call(c, max_vertices=5)


@pytest.mark.parametrize("call", [is_linear, complement_linearity_agrees])
def test_a_one_part_clutter_meets_the_guard_too(call):
    # the d = 1 shortcut used to answer "linear" before the guard was read
    c = complete_clutter([30])
    with pytest.raises(SizeGuardError, match="30 vertices exceeds the guard of 24"):
        call(c)
    for guard in ("x", 1.5, True, None):
        with pytest.raises(ValueError, match="max_vertices must be an int") as caught:
            call(c, max_vertices=guard)
        assert caught.type is ValueError
