"""Spans around the calls into each linstrand layer, recorded from outside.

`install` wraps public names in every `linstrand.*` namespace that bound them
at import (so `hochster.rank` and `linalg.rank` both reach the wrapper), and
the validating constructors of the core types on their classes.  Each
wrapped call records a span (name, start, end, parent) in memory; self time
is a span's duration minus its children's.  Hooks add counts taken from a
call's arguments and result, after its span has closed.  Nothing under
`src/` changes, and with `enabled` false a wrapper only forwards the call.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array
from collections import Counter
from pathlib import Path

from workloads import candidates_tested, distinct_unions

# (module, function) pairs wrapped wherever a linstrand namespace bound them
FUNCTIONS = (
    ("strand", "first_linear_strand"),
    ("strand", "verify_support"),
    ("simplicial", "strand_support_pair"),
    ("simplicial", "part_deficient_complex"),
    ("simplicial", "relative_chain_complex"),
    ("linalg", "rank"),
    ("linalg", "homology_dims"),
    ("hochster", "linear_strand_betti"),
    ("hochster", "betti_table"),
    ("hochster", "multigraded_betti"),
    ("clutters", "d_partite_complement"),
    ("clutters", "minimal_vertex_covers"),
    ("clutters", "independent_sets"),
    ("clutters", "restrict"),
    ("clutters", "ranked_projection"),
    ("linearity", "is_linear"),
    ("lyubeznik", "lyubeznik_last_column"),
    ("lyubeznik", "cross_check_betti"),
    ("ideals", "alexander_dual"),
    ("ideals", "squarefree_colon"),
    ("ideals", "linkage_ideal"),
    ("cli", "load_instance"),
    ("cli", "run_verification"),
    ("cli", "main"),
)
# (module, class, method, span name): validation and composition on the class
METHODS = (
    ("strand", "StrandComplex", "__post_init__", "strand.StrandComplex"),
    ("simplicial", "SimplicialComplex", "__post_init__", "simplicial.SimplicialComplex"),
    ("linalg", "Matrix", "__post_init__", "linalg.Matrix"),
    ("linalg", "Matrix", "compose", "linalg.Matrix.compose"),
    ("linalg", "ChainComplex", "__init__", "linalg.ChainComplex"),
    ("clutters", "Clutter", "__post_init__", "clutters.Clutter"),
    ("ideals", "SquarefreeIdeal", "__post_init__", "ideals.SquarefreeIdeal"),
)
LAYERS = ("strand", "simplicial", "linalg", "hochster", "clutters", "linearity", "lyubeznik", "ideals", "cli")


def _strand_counts(t, args, result):
    c = args[0]
    t.count("strand.basis_sets", sum(len(level) for level in result.levels))
    t.count("strand.entries", sum(len(diff) for diff in result.differentials))
    t.count("strand.candidates_tested", candidates_tested(c.n, c.vertices.d, len(result.levels)))


def _rank_counts(t, args, result):
    m = args[0]
    t.count("linalg.rank.nnz_in", len(m.entries))
    t.count("linalg.rank.pivots", result)
    t.counters["linalg.rank.max_rows"] = max(t.counters["linalg.rank.max_rows"], m.nrows)


def _sweep_counts(t, args, result):
    multi = result[1] if isinstance(result, tuple) else result.multigraded
    t.count("hochster.sigma_visited", 1 << args[0].vertices.n)
    t.count("hochster.nonzero_multidegrees", len({sigma for _, sigma in multi}))


def _single_counts(t, args, result):
    t.count("hochster.sigma_visited", 1)
    t.count("hochster.nonzero_multidegrees", 1 if result else 0)


HOOKS = {
    "strand.first_linear_strand": _strand_counts,
    "simplicial.relative_chain_complex": lambda t, a, r: t.count(
        "simplicial.relative_chain_complex.nnz", sum(len(m.entries) for m in r.boundaries.values())),
    "simplicial.SimplicialComplex": lambda t, a, r: t.count(
        "simplicial.faces", sum(len(faces) for faces in a[0]._faces.values())),
    "linalg.rank": _rank_counts,
    "hochster.linear_strand_betti": _sweep_counts,
    "hochster.betti_table": _sweep_counts,
    "hochster.multigraded_betti": _single_counts,
    "clutters.minimal_vertex_covers": lambda t, a, r: t.count("clutters.minimal_vertex_covers.covers", len(r)),
    "linearity.is_linear": lambda t, a, r: t.scans.append((a[0], r)),
}


class Tracer:
    def __init__(self):
        self.enabled = False
        self.names: list[str] = []
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.stack: list[list] = []  # [span index, name id, child seconds]
        self.calls = Counter()
        self.total = Counter()
        self.self_time = Counter()
        self.under = Counter()  # (parent name, child name) -> calls
        self.counters = Counter()
        self.scans = []  # (clutter, verdict) per is_linear call
        self.root_seconds = 0.0

    def count(self, name: str, value) -> None:
        self.counters[name] += value

    def wrap(self, name: str, fn):
        nid = len(self.names)
        self.names.append(name)
        hook = HOOKS.get(name)
        tracer = self
        stack = self.stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            index = len(tracer.span_start)
            parent = stack[-1][0] if stack else -1
            frame = [index, nid, 0.0]
            stack.append(frame)
            tracer.span_name.append(nid)
            tracer.span_parent.append(parent)
            start = clock()
            tracer.span_start.append(start)
            tracer.span_end.append(0.0)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                tracer.span_end[index] = end
                tracer.close(nid, end - start, frame[2])
            if hook is not None:
                hook(tracer, args, result)
            return result

        return functools.update_wrapper(traced, fn)

    def close(self, nid: int, seconds: float, child_seconds: float) -> None:
        name = self.names[nid]
        self.calls[name] += 1
        self.total[name] += seconds
        self.self_time[name] += seconds - child_seconds
        if self.stack:
            parent = self.stack[-1]
            parent[2] += seconds
            self.under[(self.names[parent[1]], name)] += 1
        else:
            self.root_seconds += seconds

    def install(self) -> None:
        """Wrap every target in every loaded linstrand namespace."""
        namespaces = [m for k, m in sys.modules.items() if k == "linstrand" or k.startswith("linstrand.")]
        for module, func in FUNCTIONS:
            original = getattr(sys.modules[f"linstrand.{module}"], func)
            wrapped = self.wrap(f"{module}.{func}", original)
            for ns in namespaces:
                if vars(ns).get(func) is original:
                    setattr(ns, func, wrapped)
        for module, cls_name, method, name in METHODS:
            cls = getattr(sys.modules[f"linstrand.{module}"], cls_name)
            setattr(cls, method, self.wrap(name, vars(cls)[method]))

    # ------------------------------------------------------------ report

    def metrics(self, traced_wall: float, untraced_wall: float) -> dict[str, tuple[float, str]]:
        """Every per-layer metric as name -> (value, unit)."""
        calls, self_s, under, k = self.calls, self.self_time, self.under, self.counters
        out: dict[str, tuple[float, str]] = {}

        def put(name, value, unit):
            out[name] = (value, unit)

        def ratio(a, b):
            return a / b if b else 0.0

        def self_of(*names):
            for name in names:
                put(f"{name}.self_s", self_s[name], "s")

        self_of("strand.first_linear_strand", "strand.StrandComplex", "strand.verify_support")
        for name in ("strand.basis_sets", "strand.entries", "strand.candidates_tested"):
            put(name, k[name], "count")
        put("strand.enum_yield", ratio(k["strand.basis_sets"], k["strand.candidates_tested"]), "ratio")

        self_of("simplicial.SimplicialComplex")
        put("simplicial.faces", k["simplicial.faces"], "count")
        self_of("simplicial.strand_support_pair", "simplicial.part_deficient_complex", "simplicial.relative_chain_complex")
        put("simplicial.relative_chain_complex.nnz", k["simplicial.relative_chain_complex.nnz"], "count")

        put("linalg.rank.calls", calls["linalg.rank"], "count")
        self_of("linalg.rank")
        put("linalg.rank.mean_us", 1e6 * ratio(self.total["linalg.rank"], calls["linalg.rank"]), "us")
        for name in ("linalg.rank.nnz_in", "linalg.rank.pivots", "linalg.rank.max_rows"):
            put(name, k[name], "count")
        self_of("linalg.homology_dims")
        put("linalg.ChainComplex.calls", calls["linalg.ChainComplex"], "count")
        self_of("linalg.ChainComplex", "linalg.Matrix.compose")
        put("linalg.Matrix.constructed", calls["linalg.Matrix"], "count")
        self_of("linalg.Matrix")

        put("hochster.calls", sum(v for n, v in calls.items() if n.startswith("hochster.")), "count")
        self_of("hochster.linear_strand_betti", "hochster.betti_table", "hochster.multigraded_betti")
        put("hochster.sigma_visited", k["hochster.sigma_visited"], "count")
        put("hochster.nonzero_multidegrees", k["hochster.nonzero_multidegrees"], "count")
        put("hochster.yield", ratio(k["hochster.nonzero_multidegrees"], k["hochster.sigma_visited"]), "ratio")
        put("hochster.rank_calls", sum(v for (p, c), v in under.items() if c == "linalg.rank" and p.startswith("hochster.")), "count")

        put("clutters.d_partite_complement.calls", calls["clutters.d_partite_complement"], "count")
        self_of("clutters.d_partite_complement", "clutters.minimal_vertex_covers")
        put("clutters.minimal_vertex_covers.covers", k["clutters.minimal_vertex_covers.covers"], "count")
        self_of("clutters.independent_sets")
        for name in ("clutters.restrict", "clutters.ranked_projection"):
            put(f"{name}.calls", calls[name], "count")
            self_of(name)
        put("clutters.Clutter.constructed", calls["clutters.Clutter"], "count")
        self_of("clutters.Clutter")

        pairs = under[("linearity.is_linear", "clutters.restrict")]
        unions = sum(distinct_unions(c, verdict) for c, verdict in self.scans)
        put("linearity.is_linear.calls", calls["linearity.is_linear"], "count")
        self_of("linearity.is_linear")
        put("linearity.pairs_scanned", pairs, "count")
        put("linearity.distinct_unions", unions, "count")
        put("linearity.union_reuse", ratio(pairs, unions), "ratio")
        put("linearity.projections_per_pair", ratio(under[("linearity.is_linear", "clutters.ranked_projection")], pairs), "ratio")

        self_of("lyubeznik.lyubeznik_last_column", "lyubeznik.cross_check_betti")
        self_of("ideals.alexander_dual", "ideals.squarefree_colon", "ideals.linkage_ideal", "ideals.SquarefreeIdeal")
        self_of("cli.load_instance", "cli.run_verification", "cli.main")

        put("trace.overhead_ratio", ratio(traced_wall, untraced_wall), "ratio")
        put("trace.coverage", ratio(self.root_seconds, traced_wall), "ratio")
        return out

    def idle_layers(self) -> list[str]:
        """Layers none of whose wrapped names was called."""
        return [layer for layer in LAYERS if not any(n.startswith(layer + ".") for n in self.calls)]

    def write_spans(self, path: Path) -> dict:
        """Spans as raw arrays (int32 name, int32 parent, float64 start,
        float64 end, each `count` long) in `path`; returns the header that
        describes them."""
        with open(path, "wb") as fh:
            for arr in (self.span_name, self.span_parent, self.span_start, self.span_end):
                arr.tofile(fh)
        return {"file": path.name, "count": len(self.span_start), "names": self.names,
                "layout": ["name:int32", "parent:int32", "start_s:float64", "end_s:float64"]}
