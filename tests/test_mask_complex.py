"""The strand and the relative pair are checked and ranked on their masks:
simplicial._squares_vanish must agree with ChainComplex's product check, and
the mask homology behind lyubeznik_last_column and strand_homology_at, which
ranks a discrete Morse reduction, with homology_dims of the public chain
complexes, which ranks every cell."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from linstrand import (
    GF2,
    QQ,
    Clutter,
    ConsistencyError,
    StrandComplex,
    complete_clutter,
    first_linear_strand,
    gf,
    homology_dims,
    lyubeznik_last_column,
    random_clutter,
    relative_chain_complex,
    strand_homology_at,
    strand_support_pair,
)
from linstrand import strand as strand_module
from linstrand.clutters import _members
from linstrand.simplicial import (
    _element_matching,
    _gradient_flow,
    _graded_chain_complex,
    _mask_homology,
    _squares_vanish,
)

FIELDS = (QQ, GF2, gf(3))

# random partitioned clutters with n <= 10, up to four parts
CLUTTERS = st.builds(
    random_clutter,
    st.lists(st.integers(1, 4), min_size=1, max_size=4).filter(lambda sizes: sum(sizes) <= 10),
    st.floats(0.0, 1.0),
    st.integers(0, 10**6),
)


def product_check(bases):
    """The message ChainComplex's product check raises on the graded
    signed-drop complex of bases, or None when it constructs."""
    try:
        _graded_chain_complex(bases)
    except ConsistencyError as e:
        return str(e)
    return None


def mask_check(bases):
    try:
        _squares_vanish(bases)
    except ConsistencyError as e:
        return str(e)
    return None


@st.composite
def mask_bases(draw):
    """Strand levels or pair faces of a random clutter, as degree -> sorted
    masks, left as they are, or with one set dropped from a degree (a middle
    one when there is one), or one set not in it added to a degree."""
    c = draw(CLUTTERS)
    if draw(st.booleans()):
        bases = dict(enumerate(first_linear_strand(c).level_masks))
    else:
        bases = dict(strand_support_pair(c)._kept)
    change = draw(st.sampled_from(("none", "drop", "add")))
    if change != "none" and bases:
        middle = [k for k in sorted(bases) if k - 1 in bases and k + 1 in bases]
        k = draw(st.sampled_from(middle if change == "drop" and middle else sorted(bases)))
        masks = list(bases[k])
        if change == "drop":
            del masks[draw(st.integers(0, len(masks) - 1))]
        else:
            extra = draw(st.integers(0, (1 << c.n) - 1))
            if extra not in masks:
                masks = sorted(masks + [extra], key=_members)
        bases[k] = tuple(masks)
    return bases


def three_part_pair_bases():
    return dict(strand_support_pair(random_clutter([3, 3, 3], 0.5, 7))._kept)


@example(three_part_pair_bases())
@settings(max_examples=300, deadline=None)
@given(mask_bases())
def test_mask_check_agrees_with_the_product_check(bases):
    failure = product_check(bases)
    assert mask_check(bases) == failure
    if failure is None:
        for f in FIELDS:
            assert _mask_homology(bases, f) == homology_dims(_graded_chain_complex(bases), f), str(f)
    else:
        with pytest.raises(ConsistencyError, match="do not compose to zero"):
            _mask_homology(bases, QQ)


def test_dropping_a_middle_pair_face_fails_both_checks():
    """Every face of a middle degree that has a coface above it and a face
    below it breaks the square when it is dropped, and both checks say so
    with the same message."""
    bases = three_part_pair_bases()
    degrees = sorted(bases)
    broken = 0
    for k in degrees[1:-1]:
        for i, a in enumerate(bases[k]):
            if any(a | b == b for b in bases[k + 1]) and any(b | a == a for b in bases[k - 1]):
                mutated = {**bases, k: bases[k][:i] + bases[k][i + 1:]}
                assert mask_check(mutated) == product_check(mutated) is not None
                broken += 1
    assert broken > 0


@example(Clutter(complete_clutter([2, 3]).vertices, ()))  # edgeless: the pair is empty
@example(random_clutter([4], 0.5, 0))  # d = 1
@settings(max_examples=60, deadline=None)
@given(CLUTTERS)
def test_column_and_probes_equal_the_public_chain_complexes(c):
    pair = strand_support_pair(c)
    s = first_linear_strand(c)
    n, d = c.n, c.vertices.d
    everything = frozenset(range(n))
    for f in FIELDS:
        h = homology_dims(relative_chain_complex(pair), f)
        assert lyubeznik_last_column(c, f).values == tuple(h.get(n - p - 1, 0) for p in range(n - d + 1))
        for b in (everything, everything - {0}, frozenset(range(0, n, 2))):
            inside = sum(1 << v for v in b)
            kept = {i: tuple(a for a in level if a & ~inside == 0) for i, level in enumerate(s.level_masks)}
            assert strand_homology_at(s, b, f) == homology_dims(_graded_chain_complex(kept), f)


def test_edgeless_clutter_has_an_empty_pair_and_a_zero_column():
    c = Clutter(complete_clutter([2, 3]).vertices, ())
    assert strand_support_pair(c)._kept == {}
    for f in FIELDS:
        assert lyubeznik_last_column(c, f).values == (0, 0, 0, 0)


def test_a_broken_level_family_fails_the_strands_own_check(monkeypatch):
    """Dropping a level-1 set that lies under a level-2 set leaves a level-2
    set with one of its two paths down to level 0 cut."""
    real = StrandComplex

    def dropping(vertices, level_masks):
        first, second = level_masks[1], level_masks[2]
        a = next(a for a in first if any(a | b == b for b in second))
        return real(vertices, (level_masks[0], tuple(m for m in first if m != a), *level_masks[2:]))

    monkeypatch.setattr(strand_module, "StrandComplex", dropping)
    with pytest.raises(ConsistencyError, match="boundaries at degrees 2 and 1 do not compose to zero"):
        first_linear_strand(complete_clutter([2, 2, 2]))


def clearing_homology(bases, f):
    return homology_dims(_graded_chain_complex(bases), f)


@settings(max_examples=80, deadline=None)
@given(CLUTTERS, st.integers(0, 2**10 - 1))
def test_morse_homology_of_the_strand_at_a_random_multidegree(c, bits):
    s = first_linear_strand(c)
    b = frozenset(v for v in range(c.n) if bits >> v & 1)
    kept = {i: tuple(a for a in level if a & ~bits == 0) for i, level in enumerate(s.level_masks)}
    for f in FIELDS:
        assert strand_homology_at(s, b, f) == clearing_homology(kept, f), str(f)


@st.composite
def shifted_sums(draw):
    """(bases, summand, shift): strand levels or pair faces of a random
    clutter plus a copy of them shifted up by 1 to 3 degrees, so that masks
    sit in two degrees (adjacent ones at shift 1).  The sum is a complex,
    since no set of one copy drops onto a set of the other."""
    c = draw(CLUTTERS)
    if draw(st.booleans()):
        summand = dict(enumerate(first_linear_strand(c).level_masks))
    else:
        summand = dict(strand_support_pair(c)._kept)
    shift = draw(st.integers(1, 3))
    bases = {}
    for k, masks in summand.items():
        bases.setdefault(k, []).extend(masks)
        bases.setdefault(k + shift, []).extend(masks)
    return {k: tuple(sorted(masks, key=_members)) for k, masks in bases.items()}, summand, shift


@example(({0: (1, 2), 1: (1, 3, 2), 2: (3,)}, {0: (1, 2), 1: (3,)}, 1))
@settings(max_examples=150, deadline=None)
@given(shifted_sums())
def test_morse_homology_with_a_mask_in_two_degrees(case):
    bases, summand, shift = case
    for f in FIELDS:
        h = clearing_homology(summand, f)
        morse = _mask_homology(bases, f)
        assert morse == clearing_homology(bases, f), str(f)
        assert all(v == h.get(k, 0) + h.get(k - shift, 0) for k, v in morse.items()), str(f)


@pytest.mark.parametrize("f", FIELDS, ids=str)
def test_only_adjacent_degrees_pair(f):
    # 1 = 0 + vertex 0, but in the same degree, or two degrees apart
    assert _element_matching({0: (0, 1)})[0] == {0: (0, 1)}
    assert _mask_homology({0: (0, 1)}, f) == {0: 2}
    assert _mask_homology({0: (0,), 2: (1,)}, f) == {0: 1, 1: 0, 2: 1}


@pytest.mark.parametrize("sizes", [[2, 2, 2], [3] * 3, [2, 3, 4], [3] * 4], ids=str)
def test_a_complete_clutter_reduces_to_one_critical_cell(sizes):
    """The pair of a complete clutter has the homology of a point shifted to
    degree d - 1, and the matching leaves exactly that one cell."""
    pair = strand_support_pair(complete_clutter(sizes))
    critical, _ = _element_matching(pair._kept)
    assert {k: len(cells) for k, cells in critical.items() if cells} == {len(sizes) - 1: 1}
    assert sum(map(len, pair._kept.values())) > 1


def test_the_gradient_walk_refuses_a_cyclic_matching():
    """The boundary of a triangle with each vertex matched to the next edge
    round: 0 up to 01, 1 up to 12, 2 up to 02.  The flow of 0 needs that of
    1, which needs that of 2, which needs that of 0 again."""
    flow = _gradient_flow({0b001: 0b011, 0b010: 0b110, 0b100: 0b101}, {}, 0)
    with pytest.raises(ConsistencyError, match="cycle"):
        flow(0b001)
