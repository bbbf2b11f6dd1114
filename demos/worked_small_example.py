"""A complete walk through the pipeline on one small tripartite clutter.

The clutter lives on three parts of size two and has six edges: every
transversal except a1b1c1 and a2b2c2.  We compute its minimal vertex covers,
the Alexander dual, the first linear strand of its edge ideal with explicit
differentials, the relative pair the strand lives on, and the last column of
the Lyubeznik table of its cover ideal.
"""

from linstrand import (
    QQ,
    alexander_dual,
    complete_clutter,
    Clutter,
    d_partite_complement,
    edge_ideal,
    f_vector,
    first_linear_strand,
    lyubeznik_last_column,
    minimal_vertex_covers,
    strand_support_pair,
    verify_support,
)


def show(title):
    print()
    print(title)
    print("-" * len(title))


full = complete_clutter([2, 2, 2])
t = full.vertices
removed = (t.resolve(("a1", "b1", "c1")), t.resolve(("a2", "b2", "c2")))
c = d_partite_complement(Clutter(t, removed))

show("the clutter")
print(f"{c.n} vertices in {c.vertices.d} parts, {len(c.edges)} edges:")
for e in c.edges:
    print("  " + t.label(e))

show("minimal vertex covers (= generators of the Alexander dual)")
for s in minimal_vertex_covers(c):
    print("  " + t.label(s))
assert alexander_dual(edge_ideal(c)).generators == minimal_vertex_covers(c)

show("the first linear strand of the edge ideal")
s = first_linear_strand(c)
print(f"ranks: {s.ranks()}")
for i, level in enumerate(s.levels):
    print(f"level {i}: " + " ".join(t.label(a) for a in level))
print("differential from level 1 to level 0:")
for e in s.differentials[1]:
    sign = "+" if e.sign > 0 else "-"
    print(f"  e_{t.label(s.levels[1][e.col])} -> {sign}{t.names[e.vertex]} e_{t.label(s.levels[0][e.row])}")

show("the relative pair underneath it")
pair = strand_support_pair(c)
print(f"pair f-vector by dimension: {f_vector(pair)}")
report = verify_support(s, pair)
print(f"strand matches the relative boundary entry by entry: {report.ok}")

show("last column of the Lyubeznik table of the cover ideal")
col = lyubeznik_last_column(c, QQ)
print(f"lambda_(p, {c.n - c.d}) for p = 0..{c.n - c.d}: {col.values}")
print("(the nonzero entry below the corner witnesses a nontrivial table)")
