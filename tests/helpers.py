"""Shared fixtures and independent brute-force oracles for the tests.

The oracles here deliberately reimplement things by subset enumeration so the
library is checked against a second route, not against itself.
"""

from fractions import Fraction
from itertools import combinations

from linstrand import Clutter, VertexTable, complete_clutter, d_partite_complement, random_clutter


def all_subsets(n):
    for k in range(n + 1):
        yield from (frozenset(s) for s in combinations(range(n), k))


def brute_minimal_covers(n, edges):
    hitting = [s for s in all_subsets(n) if all(s & e for e in edges)]
    minimal = [s for s in hitting if not any(t < s for t in hitting)]
    return sorted(minimal, key=lambda s: tuple(sorted(s)))


def brute_independent_sets(n, edges):
    return {s for s in all_subsets(n) if not any(e <= s for e in edges)}


def brute_strand_levels(c):
    """The strand's basis by enumeration: level i is every vertex set with
    i + d vertices that meets every part and contains no edge of the
    d-partite complement, in ascending vertex-tuple order, up to the last
    nonempty level."""
    d = c.vertices.d
    parts = c.part_sets()
    basis = [
        s for s in brute_independent_sets(c.n, d_partite_complement(c).edges) if all(s & part for part in parts)
    ]
    levels = [sorted((s for s in basis if len(s) == i + d), key=sorted) for i in range(c.n - d + 1)]
    while levels and not levels[-1]:
        levels.pop()
    return tuple(tuple(level) for level in levels)


def brute_signed_drops(sources, targets):
    """Every (row, col, sign, v) with v in the source set at col, the source
    minus v the target set at row, and sign (-1)**(the number of vertices of
    the source below v), found by trying every vertex of every source."""
    return {
        (targets.index(a - {v}), col, (-1) ** sum(u < v for u in a), v)
        for col, a in enumerate(sources)
        for v in a
        if a - {v} in targets
    }


def dense_rank(rows, p):
    """Rank of a dense integer matrix by plain Gaussian elimination, over
    Fractions when p = 0 (entries stay ints while the pivots are units) and
    modulo p otherwise."""
    rows = [[v % p if p else v for v in r] for r in rows]
    rk = 0
    for c in range(len(rows[0]) if rows else 0):
        k = next((k for k, r in enumerate(rows) if r[c]), None)
        if k is None:
            continue
        piv = rows.pop(k)
        rk += 1
        if p:
            inv = pow(piv[c], -1, p)
        else:
            inv = piv[c] if abs(piv[c]) == 1 else Fraction(1, piv[c])
        for r in rows:
            if r[c]:
                f = r[c] * inv
                for j in range(c, len(r)):
                    if piv[j]:
                        r[j] = r[j] - f * piv[j] if p == 0 else (r[j] - f * piv[j]) % p
    return rk


def six_of_eight_transversals():
    """Three parts of size 2; the complement of two disjoint transversals."""
    comp = complete_clutter([2, 2, 2])
    t = comp.vertices
    two = Clutter(t, (t.resolve(("a1", "b1", "c1")), t.resolve(("a2", "b2", "c2"))))
    return d_partite_complement(two)


def corner_star_four_parts():
    """Four parts of size 2; six edges, all through a1."""
    t = complete_clutter([2, 2, 2, 2]).vertices
    edges = (
        ("a1", "b1", "c1", "d1"),
        ("a1", "b2", "c1", "d1"),
        ("a1", "b1", "c2", "d1"),
        ("a1", "b2", "c1", "d2"),
        ("a1", "b1", "c2", "d2"),
        ("a1", "b2", "c2", "d2"),
    )
    return Clutter(t, tuple(t.resolve(e) for e in edges))


def nine_edge_bipartite():
    t = complete_clutter([4, 4]).vertices
    edges = (
        ("a1", "b1"), ("a2", "b1"), ("a2", "b2"), ("a3", "b2"), ("a2", "b3"),
        ("a4", "b3"), ("a1", "b4"), ("a3", "b4"), ("a4", "b4"),
    )
    return Clutter(t, tuple(t.resolve(e) for e in edges))


def fourteen_of_sixteen_transversals():
    """Four parts of size 2; all transversals except two sharing a1."""
    comp = complete_clutter([2, 2, 2, 2])
    t = comp.vertices
    two = Clutter(t, (t.resolve(("a1", "b1", "c1", "d1")), t.resolve(("a1", "b2", "c2", "d2"))))
    return d_partite_complement(two)


def scattered_three_edges():
    """Three parts of size 2, three edges; not linear, with the certificate
    living in the rank-2 projection onto the outer parts."""
    t = complete_clutter([2, 2, 2]).vertices
    edges = (("a1", "b1", "c2"), ("a2", "b2", "c2"), ("a2", "b1", "c1"))
    return Clutter(t, tuple(t.resolve(e) for e in edges))


BUNDLED_FIXTURES = (
    six_of_eight_transversals,
    corner_star_four_parts,
    nine_edge_bipartite,
    fourteen_of_sixteen_transversals,
)


def seeded_random_instance(seed):
    """Deterministic small random partitioned clutter: d <= 3, parts of size <= 3."""
    import random

    rng = random.Random(seed)
    d = rng.randint(1, 3)
    sizes = [rng.randint(1, 3) for _ in range(d)]
    p = rng.uniform(0.2, 0.9)
    return random_clutter(sizes, p, seed=seed)
