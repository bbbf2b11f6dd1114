import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from linstrand import (
    GF2,
    QQ,
    ChainComplex,
    ConsistencyError,
    Field,
    Matrix,
    SimplicialComplex,
    VertexTable,
    chain_complex,
    first_linear_strand,
    gf,
    homology_dims,
    random_clutter,
    rank,
    relative_chain_complex,
    strand_homology_at,
    strand_support_pair,
)

from linstrand.linalg import _eliminate

from helpers import dense_rank


def test_field_validation():
    assert QQ.characteristic == 0
    assert gf(32003).characteristic == 32003
    with pytest.raises(ValueError):
        Field(4)
    with pytest.raises(ValueError):
        Field(-3)
    # a characteristic that is not an int, even one equal to a prime or to 0
    for p in (3.0, 2.0, 0.0, Fraction(3), True, False, "3", None):
        with pytest.raises(ValueError):
            Field(p)


def test_matrix_validation():
    with pytest.raises(ValueError):
        Matrix(2, 2, ((0, 5, 1),))
    with pytest.raises(ValueError):
        Matrix(2, 2, ((0, 0, 0),))  # stored zero
    with pytest.raises(ValueError):
        Matrix(2, 2, ((0, 0, 1), (0, 0, 2)))  # duplicate slot


def test_rank_small_examples():
    m = Matrix(2, 3, [(0, 0, 1), (0, 1, 2), (1, 0, 2), (1, 1, 4), (1, 2, 1)])
    assert rank(m, QQ) == 2
    assert rank(Matrix(4, 7, ()), QQ) == 0
    ident = Matrix(3, 3, [(i, i, 1) for i in range(3)])
    assert rank(ident, QQ) == 3


def test_rank_depends_on_characteristic():
    m = Matrix(1, 1, [(0, 0, 2)])
    assert rank(m, QQ) == 1
    assert rank(m, GF2) == 0
    assert rank(m, gf(3)) == 1


def test_rank_equals_rank_of_transpose():
    import random

    rng = random.Random(5)
    for _ in range(20):
        nr, nc = rng.randint(1, 6), rng.randint(1, 6)
        entries = [
            (r, c, rng.randint(-3, 3))
            for r in range(nr)
            for c in range(nc)
            if rng.random() < 0.5
        ]
        m = Matrix(nr, nc, tuple(e for e in entries if e[2]))
        transpose = Matrix(nc, nr, tuple((c, r, v) for r, c, v in m.entries))
        for f in (QQ, GF2, gf(32003)):
            assert rank(m, f) == rank(transpose, f)


def test_fraction_free_elimination_stays_exact():
    # a matrix whose naive floating-point elimination would drift
    entries = [(i, j, (i + 1) ** j) for i in range(5) for j in range(5)]
    m = Matrix(5, 5, entries)
    assert rank(m, QQ) == 5  # Vandermonde on 1..5


def test_compose_is_matrix_product():
    a = Matrix(2, 3, [(0, 0, 1), (0, 2, 2), (1, 1, -1)])
    b = Matrix(3, 2, [(0, 0, 3), (2, 1, 4), (1, 0, 5)])
    ab = a.compose(b)
    assert ab.nrows == 2 and ab.ncols == 2
    dense = [[0, 0], [0, 0]]
    for r, c, v in ab.entries:
        dense[r][c] = v
    assert dense == [[3, 8], [-5, 0]]


def test_chain_complex_rejects_nonsquaring_boundary():
    d2 = Matrix(1, 1, [(0, 0, 1)])
    d1 = Matrix(1, 1, [(0, 0, 1)])
    with pytest.raises(ConsistencyError):
        ChainComplex({0: 1, 1: 1, 2: 1}, {1: d1, 2: d2})


def test_chain_complex_rejects_shape_mismatch():
    # malformed shapes are a caller error, unlike a nonvanishing square
    with pytest.raises(ValueError):
        ChainComplex({0: 2, 1: 1}, {1: Matrix(3, 1, ())})


def test_homology_of_a_circle():
    # triangle boundary: three vertices, three edges
    d1 = Matrix(
        3,
        3,
        [
            (0, 0, -1), (1, 0, 1),
            (1, 1, -1), (2, 1, 1),
            (0, 2, -1), (2, 2, 1),
        ],
    )
    c = ChainComplex({0: 3, 1: 3}, {1: d1})
    h = homology_dims(c, QQ)
    assert h[0] == 1 and h[1] == 1


def test_homology_of_transposed_complex_matches():
    # cohomology over a field has the same dimensions; build the flipped complex
    d1 = Matrix(3, 3, [(0, 0, -1), (1, 0, 1), (1, 1, -1), (2, 1, 1), (0, 2, -1), (2, 2, 1)])
    c = ChainComplex({0: 3, 1: 3}, {1: d1})
    flipped = ChainComplex({0: 3, -1: 3}, {0: Matrix(3, 3, tuple((c, r, v) for r, c, v in d1.entries))})
    h = homology_dims(c, QQ)
    hc = homology_dims(flipped, QQ)
    assert h[0] == hc[0] and h[1] == hc[-1]


def test_homology_of_exact_complex_vanishes():
    d = Matrix(2, 2, [(0, 0, 1), (1, 1, 1)])
    c = ChainComplex({0: 2, 1: 2}, {1: d})
    h = homology_dims(c, QQ)
    assert h[0] == 0 and h[1] == 0


def test_matrix_entries_are_integers_only():
    with pytest.raises(ValueError):
        Matrix(1, 1, [(0, 0, Fraction(1, 2))])
    # integral fractions are fine, they normalize to int
    m = Matrix(1, 1, [(0, 0, Fraction(4, 2))])
    assert m.entries == ((0, 0, 2),)


@st.composite
def small_integer_matrices(draw):
    """Up to 12 x 12, entries in -6..6 (about half of them zero), with some
    rows and columns zeroed outright."""
    nr, nc = draw(st.integers(0, 12)), draw(st.integers(0, 12))
    entry = st.one_of(st.just(0), st.integers(-6, 6))
    dense = draw(st.lists(st.lists(entry, min_size=nc, max_size=nc), min_size=nr, max_size=nr))
    zero_rows = draw(st.sets(st.integers(0, 11), max_size=3))
    zero_cols = draw(st.sets(st.integers(0, 11), max_size=3))
    return [[0 if r in zero_rows or c in zero_cols else v for c, v in enumerate(row)] for r, row in enumerate(dense)]


@st.composite
def sparse_shuffled_matrices(draw):
    """8 x 8 up to 30 x 30, one to four nonzero entries per row, in -6..6, as
    (dense, entries) with the entries in shuffled order: a row's reductions
    against the basis fill it in below its highest column and shorten it
    again many times, and many rows reduce to zero."""
    nr, nc = draw(st.integers(8, 30)), draw(st.integers(8, 30))
    rng = random.Random(draw(st.integers(0, 2**32)))
    dense = [[0] * nc for _ in range(nr)]
    for row in dense:
        for c in rng.sample(range(nc), rng.randint(1, 4)):
            row[c] = rng.choice((-6, -3, -2, -1, 1, 1, 1, 2, 5))
    entries = [(r, c, v) for r, row in enumerate(dense) for c, v in enumerate(row) if v]
    rng.shuffle(entries)
    return dense, entries


@settings(max_examples=200, deadline=None)
@given(small_integer_matrices())
def test_rank_matches_dense_elimination(dense):
    nc = len(dense[0]) if dense else 0
    m = Matrix(len(dense), nc, tuple((r, c, v) for r, row in enumerate(dense) for c, v in enumerate(row) if v))
    for p in (0, 2, 3, 32003):
        assert rank(m, gf(p) if p else QQ) == dense_rank(dense, p), f"p = {p}"


@settings(max_examples=200, deadline=None)
@given(sparse_shuffled_matrices())
def test_rank_matches_dense_elimination_on_sparse_shuffled_input(case):
    dense, entries = case
    m = Matrix(len(dense), len(dense[0]), entries)
    for p in (0, 2, 3, 7):
        assert rank(m, gf(p) if p else QQ) == dense_rank(dense, p), f"p = {p}"


VALID = ((0, 1, 2), (0, 2, -1), (1, 0, 3), (2, 2, 1))


@pytest.mark.parametrize("shuffled", [False, True], ids=["sorted", "shuffled"])
@pytest.mark.parametrize(
    "bad, message",
    [
        ((1, 0, 5), "duplicate"),
        ((-1, 1, 1), "out of range"),
        ((1, -1, 1), "out of range"),
        ((3, 0, 1), "out of range"),
        ((1, 3, 1), "out of range"),
        ((1, 1, 0), "zero"),
        ((1, 1, Fraction(3, 2)), "non-integer"),
        ((1, 1, 2.5), "non-integer"),
        ((0.5, 1, 1), "non-integer"),
        ((1, 2.9, 1), "non-integer"),
        ((1, 1, float("inf")), "non-integer"),
        ((float("inf"), 1, 1), "non-integer"),
        ((1, 1, float("nan")), "non-integer"),
        ((1, 1, True), "bool"),
        ((True, 1, 1), "bool"),
    ],
    ids=[
        "duplicate", "negative-row", "negative-col", "row-range", "col-range", "zero", "fraction", "float",
        "float-row", "float-col", "inf", "inf-row", "nan", "bool", "bool-row",
    ],
)
def test_matrix_rejects_each_bad_entry(bad, message, shuffled):
    entries = sorted(VALID + (bad,), key=lambda e: (e[0], e[1]))
    if shuffled:
        entries = entries[1::2] + entries[::2]
    with pytest.raises(ValueError, match=message):
        Matrix(3, 3, tuple(entries))


def test_shuffled_valid_input_comes_back_sorted():
    for entries in (VALID[::-1], (VALID[2], VALID[0], VALID[3], VALID[1])):
        m = Matrix(3, 3, entries)
        assert m.entries == VALID
    m = Matrix(3, 3, [[2, 2, 1.0], (1, 0, Fraction(6, 2)), (0, 2, -1), (0, 1, 2)])
    assert m.entries == VALID
    assert all(type(x) is int for e in m.entries for x in e)


def test_chain_complex_finds_a_nonzero_product_in_any_corner():
    # a = 2x2 identity, so a @ b = b: one nonzero product entry placed in the
    # last column (and last row) or the first column (and first row)
    a = Matrix(2, 2, [(0, 0, 1), (1, 1, 1)])
    for r, c in ((1, 2), (0, 0), (0, 2), (1, 0)):
        b = Matrix(2, 3, [(r, c, 1)])
        with pytest.raises(ConsistencyError):
            ChainComplex({0: 2, 1: 2, 2: 3}, {1: a, 2: b})


def test_chain_complex_accepts_cancelling_products():
    # every product entry is a sum of two terms that cancel
    a = Matrix(2, 2, [(0, 0, 1), (0, 1, 1), (1, 0, 2), (1, 1, 2)])
    b = Matrix(2, 3, [(0, 0, 1), (1, 0, -1), (0, 2, 3), (1, 2, -3)])
    assert a.compose(b).entries == ()
    c = ChainComplex({0: 2, 1: 2, 2: 3}, {1: a, 2: b})
    assert homology_dims(c, QQ) == {0: 1, 1: 0, 2: 2}


def test_chain_complex_mappings_are_read_only():
    d = Matrix(1, 2, [(0, 0, 1), (0, 1, -1)])
    c = ChainComplex({0: 1, 1: 2}, {1: d})
    with pytest.raises(TypeError):
        c.dims[1] = 3
    with pytest.raises(TypeError):
        c.boundaries[1] = Matrix(1, 2, ())
    with pytest.raises(TypeError):
        del c.boundaries[1]
    with pytest.raises(AttributeError):
        c.boundaries = {}
    assert c.dims == {0: 1, 1: 2} and c.boundaries == {1: d}


FIELDS = (QQ, GF2, gf(3))


def plain_homology(c: ChainComplex, f: Field) -> dict[int, int]:
    """dims[k] - rank(boundary k) - rank(boundary k+1), each boundary ranked
    in full by rank, with no clearing."""
    ranks = {k: rank(m, f) for k, m in c.boundaries.items()}
    return {k: size - ranks.get(k, 0) - ranks.get(k + 1, 0) for k, size in c.dims.items()}


@settings(max_examples=150, deadline=None)
@given(
    st.integers(1, 7).flatmap(
        lambda n: st.tuples(st.just(n), st.lists(st.frozensets(st.integers(0, n - 1)), max_size=6))
    ),
    st.booleans(),
    st.sampled_from(FIELDS),
)
def test_cleared_homology_equals_plain_ranks_on_random_complexes(case, reduced, f):
    n, sets = case
    facets = tuple({s for s in sets if not any(s < t for t in sets)})
    x = SimplicialComplex(VertexTable(tuple(f"v{i}" for i in range(n))), facets)
    c = chain_complex(x, reduced=reduced)
    assert homology_dims(c, f) == plain_homology(c, f)


CLUTTERS = st.tuples(
    st.lists(st.integers(1, 3), min_size=1, max_size=4).filter(lambda sizes: sum(sizes) <= 10),
    st.floats(0.0, 1.0),
    st.integers(0, 10**6),
)


@settings(max_examples=60, deadline=None)
@given(CLUTTERS, st.sampled_from(FIELDS))
def test_cleared_homology_equals_plain_ranks_on_strand_support_pairs(case, f):
    c = relative_chain_complex(strand_support_pair(random_clutter(*case)))
    assert homology_dims(c, f) == plain_homology(c, f)


def strand_complex_at(s, b: frozenset[int]) -> ChainComplex:
    """The strand at the multidegree b, cut out of its skeletons: the rows
    and columns of the basis sets inside b, renumbered in order."""
    keep = [[j for j, a in enumerate(level) if a <= b] for level in s.levels]
    skeletons = s.skeleton_complex().boundaries
    boundaries = {}
    for i in range(1, s.length()):
        rows = {j: r for r, j in enumerate(keep[i - 1])}
        cols = {j: col for col, j in enumerate(keep[i])}
        entries = [(rows[r], cols[col], v) for r, col, v in skeletons[i].entries if r in rows and col in cols]
        boundaries[i] = Matrix(len(rows), len(cols), entries)
    return ChainComplex({i: len(k) for i, k in enumerate(keep)}, boundaries)


@settings(max_examples=60, deadline=None)
@given(CLUTTERS, st.integers(0, 2**10 - 1), st.sampled_from(FIELDS))
def test_cleared_homology_equals_plain_ranks_on_the_strand_at_a_multidegree(case, bits, f):
    c = random_clutter(*case)
    s = first_linear_strand(c)
    b = frozenset(v for v in range(c.n) if bits >> v & 1)
    assert strand_homology_at(s, b, f) == plain_homology(strand_complex_at(s, b), f)


@pytest.mark.parametrize("f", FIELDS, ids=str)
def test_clearing_skips_a_gap_in_the_degrees(f):
    # degree 2 is missing, so boundary 3 is the zero map: boundary 4 pivots
    # on row 0 of C_3, and that must not clear column 0 of boundary 1
    d1 = Matrix(1, 2, [(0, 0, 1)])
    d4 = Matrix(2, 1, [(0, 0, 1)])
    c = ChainComplex({0: 1, 1: 2, 3: 2, 4: 1}, {1: d1, 4: d4})
    assert homology_dims(c, f) == plain_homology(c, f) == {0: 0, 1: 1, 3: 1, 4: 0}


def pair_boundaries(case) -> list[list[list[int]]]:
    """Every boundary of the relative complex of the strand's support pair of
    random_clutter(*case), as a dense matrix."""
    out = []
    for m in relative_chain_complex(strand_support_pair(random_clutter(*case))).boundaries.values():
        dense = [[0] * m.ncols for _ in range(m.nrows)]
        for r, c, v in m.entries:
            dense[r][c] = v
        out.append(dense)
    return out


@settings(max_examples=100, deadline=None)
@given(
    st.one_of(small_integer_matrices().map(lambda dense: [dense]), CLUTTERS.map(pair_boundaries)),
    st.sampled_from((0, 2, 3, 7)),
)
def test_pivot_rows_are_a_basis_of_the_row_space(matrices, p):
    # clearing rests on this: the kept rows are independent and span the rows
    for dense in matrices:
        reduced = [[v % p if p else v for v in row] for row in dense]
        rows = [{c: v for c, v in enumerate(row) if v} for row in reduced]
        pivots: set[int] = set()
        rk = _eliminate(rows, p, pivots)
        assert rk == dense_rank(dense, p)
        assert len(pivots) == rk
        assert dense_rank([dense[i] for i in sorted(pivots)], p) == rk
