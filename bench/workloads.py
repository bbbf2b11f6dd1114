"""The four benchmark workloads: seeded instances, the calls made on them,
and the correctness gate each group of calls must pass.

A workload is built one *pass* at a time.  A pass is a fixed list of groups,
one per rung (an instance shape); a group is one instance and the
entry-point calls made on it.  Every pass of a workload has the same rungs
and calls, only the instances change, so a run that completes k passes has
the same mix of calls whatever k is.  Instances come from the workload seed
alone: (seed, workload, rung, pass, attempt) is hashed into the seed that
`random_clutter` (or the benchmark's own down-set and Ferrers-shape draws)
receives.  A draw is skipped, deterministically, when it is edgeless (the
oracle raises on the zero ideal) or when the same instance was already drawn
in the run, so no (instance, entry point, field) repeats within one run.

Each group carries a `verify` function: the identities between independent
routes that its outputs must satisfy, for any seed.  It runs after the timed
calls, never inside them.
"""

from __future__ import annotations

import hashlib
import io
import itertools
import json
import math
import random
import sys
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

DEFAULT_SEED = 1
OUT_DIR = Path("bench") / "out"
MAX_ATTEMPTS = 1000


def mix(*parts) -> int:
    """A 64-bit seed from any tuple of values, stable across processes."""
    digest = hashlib.sha256(":".join(map(str, parts)).encode()).digest()
    return int.from_bytes(digest[:8], "big")


@dataclass
class Call:
    """One entry-point call: `linstrand.<module>.<func>(*args)`, resolved at
    call time so that a traced run reaches the wrapped names."""

    name: str
    module: str
    func: str
    args: tuple

    def invoke(self):
        """The call's output; for the CLI, (exit code, captured stdout)."""
        fn = getattr(sys.modules[f"linstrand.{self.module}"], self.func)
        if self.module != "cli":
            return fn(*self.args)
        out = io.StringIO()
        with redirect_stdout(out), redirect_stderr(io.StringIO()):
            rc = fn(*self.args)
        return rc, out.getvalue()


@dataclass
class Group:
    """One instance and the calls made on it.  `verify(results)` returns
    (call name, problem) pairs; `results` maps call name to output and omits
    calls that raised."""

    label: str
    calls: list[Call]
    verify: Callable[[dict], list[tuple[str, str]]]


class Generator:
    """Seeded instances for one run of one workload."""

    def __init__(self, ls, seed: int, workload: str, root: Path):
        self.ls = ls
        self.seed = seed
        self.workload = workload
        self.root = root
        self.seen: set = set()

    def _take(self, c) -> bool:
        """Claim an instance for this run unless it is edgeless or taken."""
        key = (c.vertices.parts, c.edges)
        if not c.edges or key in self.seen:
            return False
        self.seen.add(key)
        return True

    def _fresh(self, rung: str, pass_index: int, draw: Callable[[int], object]):
        for attempt in range(MAX_ATTEMPTS):
            c = draw(mix(self.seed, self.workload, rung, pass_index, attempt))
            if self._take(c):
                return c
        raise RuntimeError(f"no fresh instance for rung {rung} after {MAX_ATTEMPTS} draws")

    def random(self, rung: str, pass_index: int, sizes, p: float):
        return self._fresh(rung, pass_index, lambda s: self.ls.random_clutter(sizes, p, s))

    def downset(self, rung: str, pass_index: int, sizes):
        """The d-partite clutter of a random down-set of the index box
        holding half its points: the edges are the transversals whose part
        indices form the down-set.  These are polarized strongly stable
        ideals, so they have linear resolutions and `is_linear` scans every
        transversal pair; the fixed size keeps the scan's cost steady.  The
        first pass takes the whole box, the complete clutter, where it is
        not taken yet."""
        complete = self.ls.complete_clutter(sizes)
        if pass_index == 0 and self._take(complete):
            return complete
        table = complete.vertices
        members = [table.part_members(i) for i in range(len(sizes))]
        size = math.prod(sizes) // 2

        def draw(s):
            # grow the down-set one random minimal outside point at a time
            rng = random.Random(s)
            chosen: set[tuple[int, ...]] = set()
            frontier = {(0,) * len(sizes)}
            while len(chosen) < size:
                point = rng.choice(sorted(frontier))
                frontier.remove(point)
                chosen.add(point)
                for i, k in enumerate(sizes):
                    up = point[:i] + (point[i] + 1,) + point[i + 1:]
                    below = (up[:j] + (up[j] - 1,) + up[j + 1:] for j in range(len(sizes)) if up[j])
                    if up[i] < k and all(q in chosen for q in below):
                        frontier.add(up)
            edges = tuple(frozenset(members[i][x] for i, x in enumerate(point)) for point in chosen)
            return self.ls.Clutter(table, edges)

        return self._fresh(rung, pass_index, draw)

    def ferrers(self, rung: str, pass_index: int, n: int):
        """A bipartite Ferrers clutter on n vertices with a random shape
        (rows + columns = n); Ferrers graphs have linear resolutions."""

        def draw(s):
            rng = random.Random(s)
            rows = rng.randint(n // 2 - 1, n // 2 + 1)
            lam = [n - rows]
            while len(lam) < rows:
                lam.append(rng.randint(1, lam[-1]))
            return self.ls.ferrers_clutter(lam)

        return self._fresh(rung, pass_index, draw)


# ---------------------------------------------------------------- identities


def euler_of_strand(ranks, d: int) -> int:
    return sum((-1) ** (i + d - 1) * r for i, r in enumerate(ranks))


def euler_of_column(values, n: int) -> int:
    return sum((-1) ** (n - p - 1) * v for p, v in enumerate(values))


def strand_diagonal(strand):
    """The Betti diagonal the strand predicts: graded ranks and one
    multidegree per basis set."""
    graded = {i: len(level) for i, level in enumerate(strand.levels) if level}
    multi = {(i, a): 1 for i, level in enumerate(strand.levels) for a in level}
    return graded, multi


def replay_certificate(ls, c, cert) -> bool:
    """Restrict to the certificate's union, take its side, project onto its
    parts, and require exactly two disjoint edges."""
    induced = ls.restrict(c, cert.first | cert.second)
    side = induced if cert.side == "clutter" else ls.d_partite_complement(induced)
    proj = ls.ranked_projection(side, cert.parts)
    return len(proj.edges) == 2 and not (proj.edges[0] & proj.edges[1])


# ---------------------------------------------------------------- strand-pair

STRAND_RUNGS = (
    ("3x4-p0.5", [3] * 4, 0.5),
    ("3x5-p0.6", [3] * 5, 0.6),
    ("4x4-p0.6", [4] * 4, 0.6),
    ("6x3-p0.5", [6] * 3, 0.5),
)


def strand_pair_pass(gen: Generator, k: int) -> list[Group]:
    ls = gen.ls
    groups = []
    for label, sizes, p in STRAND_RUNGS:
        c = gen.random(label, k, sizes, p)
        calls = [
            Call("first_linear_strand", "strand", "first_linear_strand", (c,)),
            Call("lyubeznik_last_column@QQ", "lyubeznik", "lyubeznik_last_column", (c, ls.QQ)),
            Call("lyubeznik_last_column@GF(2)", "lyubeznik", "lyubeznik_last_column", (c, ls.GF2)),
        ]

        def verify(res, c=c):
            problems = []
            strand = res.get("first_linear_strand")
            for name in ("lyubeznik_last_column@QQ", "lyubeznik_last_column@GF(2)"):
                col = res.get(name)
                if strand is None or col is None:
                    continue
                if euler_of_strand(strand.ranks(), strand.d) != euler_of_column(col.values, c.n):
                    problems.append((name, "Euler characteristic differs from the strand's"))
                    problems.append(("first_linear_strand", f"Euler characteristic differs from {name}"))
            return problems

        groups.append(Group(label, calls, verify))
    return groups


# ---------------------------------------------------------------- oracle

ORACLE_RUNGS = (
    ("2x4-p0.5", [2] * 4, 0.5),
    ("3x3-p0.5-a", [3] * 3, 0.5),
    ("3x3-p0.5-b", [3] * 3, 0.5),
    ("5x2-p0.5-a", [5, 5], 0.5),
    ("5x2-p0.5-b", [5, 5], 0.5),
    ("2x5-p0.5", [2] * 5, 0.5),
    ("3-4-4-p0.4-a", [3, 4, 4], 0.4),
    ("3-4-4-p0.4-b", [3, 4, 4], 0.4),
)
BETTI_TABLE_MAX_N = 10


def oracle_pass(gen: Generator, k: int) -> list[Group]:
    ls = gen.ls
    gf3 = ls.gf(3)
    groups = []
    for label, sizes, p in ORACLE_RUNGS:
        c = gen.random(label, k, sizes, p)
        ideal = ls.edge_ideal(c)
        calls = [
            Call("linear_strand_betti@QQ", "hochster", "linear_strand_betti", (ideal, ls.QQ)),
            Call("linear_strand_betti@GF(3)", "hochster", "linear_strand_betti", (ideal, gf3)),
        ]
        if c.n <= BETTI_TABLE_MAX_N:
            calls.append(Call("betti_table@QQ", "hochster", "betti_table", (ideal, ls.QQ)))
        calls.append(Call("cross_check_betti@GF(3)", "lyubeznik", "cross_check_betti", (c, gf3)))

        def verify(res, c=c):
            problems = []
            predicted = strand_diagonal(ls.first_linear_strand(c))
            for name in ("linear_strand_betti@QQ", "linear_strand_betti@GF(3)"):
                if name in res and tuple(res[name]) != predicted:
                    problems.append((name, "diagonal differs from the strand's ranks and multidegrees"))
            table, lsb = res.get("betti_table@QQ"), res.get("linear_strand_betti@QQ")
            if table is not None and lsb is not None:
                d = c.vertices.d
                diagonal = {key: v for key, v in table.multigraded.items() if len(key[1]) == key[0] + d}
                if diagonal != lsb[1]:
                    problems.append(("betti_table@QQ", "diagonal differs from linear_strand_betti"))
            report = res.get("cross_check_betti@GF(3)")
            if report is not None and not report.ok:
                problems.append(("cross_check_betti@GF(3)", f"rows disagree: {report.rows}"))
            return problems

        groups.append(Group(label, calls, verify))
    return groups


# ---------------------------------------------------------------- linearity

FULL_SCAN_BOXES = (("3x3", [3] * 3), ("4x3-a", [4] * 3), ("4x3-b", [4] * 3), ("2x5", [2] * 5), ("3x4", [3] * 4))
FERRERS_SIZES = (12, 16)
EARLY_EXIT_BOXES = (("3x3", [3] * 3), ("2x5", [2] * 5), ("3-3-4", [3, 3, 4]), ("2-2-3-3", [2, 2, 3, 3]), ("4x2", [4, 4]))
EARLY_EXIT_DRAWS = 16
EARLY_EXIT_P = 0.5
# instances that also get complement_linearity_agrees (two scans each)
AGREEMENT_LABELS = ("full-3x3", "ferrers-12", "early-3x3-0", "early-2x5-0")


def linearity_pass(gen: Generator, k: int) -> list[Group]:
    ls = gen.ls
    instances = []  # (label, clutter, known linear by theorem)
    for box, sizes in FULL_SCAN_BOXES:
        label = f"full-{box}"
        instances.append((label, gen.downset(label, k, sizes), True))
    for n in FERRERS_SIZES:
        label = f"ferrers-{n}"
        instances.append((label, gen.ferrers(label, k, n), True))
    for box, sizes in EARLY_EXIT_BOXES:
        for j in range(EARLY_EXIT_DRAWS):
            label = f"early-{box}-{j}"
            instances.append((label, gen.random(label, k, sizes, EARLY_EXIT_P), False))
    groups = []
    for label, c, known_linear in instances:
        calls = [Call("is_linear", "linearity", "is_linear", (c,))]
        if label in AGREEMENT_LABELS:
            calls.append(Call("complement_linearity_agrees", "linearity", "complement_linearity_agrees", (c,)))

        def verify(res, c=c, known_linear=known_linear):
            problems = []
            verdict = res.get("is_linear")
            if verdict is not None:
                if verdict.certificate is not None:
                    if verdict.linear or not replay_certificate(ls, c, verdict.certificate):
                        problems.append(("is_linear", "certificate does not replay to two disjoint edges"))
                elif not verdict.linear:
                    problems.append(("is_linear", "nonlinear verdict without a certificate"))
                elif not known_linear and not ls.is_linear_by_betti(ls.edge_ideal(c)):
                    problems.append(("is_linear", "linear verdict, but the Betti oracle finds a nonlinear syzygy"))
                if known_linear and not verdict.linear:
                    problems.append(("is_linear", "a Ferrers or down-set clutter judged nonlinear"))
            if res.get("complement_linearity_agrees", True) is not True:
                problems.append(("complement_linearity_agrees", "verdicts of the clutter and its complement differ"))
            return problems

        groups.append(Group(label, calls, verify))
    return groups


# ---------------------------------------------------------------- cli-small

CLI_RUNGS = (
    ("2x3-p0.6", [2] * 3, 0.6),
    ("3x3-p0.5", [3] * 3, 0.5),
    ("2x5-p0.5", [2] * 5, 0.5),
    ("3-3-4-p0.5", [3, 3, 4], 0.5),
    ("4x3-p0.5", [4] * 3, 0.5),
    ("3x4-p0.5", [3] * 4, 0.5),
)
CLI_COMMANDS = (("covers",), ("dual",), ("complement",), ("strand", "--matrices"), ("lyubeznik",), ("linear",))
# verify at n = 12 costs seconds of oracle time that `oracle` already measures
VERIFY_MAX_N = 10
DEMO_DIR = Path("demos") / "instances"


def cli_pass(gen: Generator, k: int) -> list[Group]:
    ls = gen.ls
    cli = sys.modules["linstrand.cli"]
    instances = []  # (label, path)
    if k == 0:
        for path in sorted((gen.root / DEMO_DIR).glob("*.json")):
            instances.append((f"demo-{path.stem}", path))
    inst_dir = gen.root / OUT_DIR / "instances" / f"seed{gen.seed}"
    inst_dir.mkdir(parents=True, exist_ok=True)
    for label, sizes, p in CLI_RUNGS:
        c = gen.random(label, k, sizes, p)
        path = inst_dir / f"p{k}-{label}.json"
        path.write_text(json.dumps(cli.dump_instance(c)))
        instances.append((label, path))
    groups = []
    for label, path in instances:
        c = cli.load_instance(str(path))
        commands = CLI_COMMANDS + ((("verify",),) if c.n <= VERIFY_MAX_N else ())
        calls = [Call(cmd[0], "cli", "main", ([*cmd, str(path), "--format", "json"],)) for cmd in commands]

        def verify(res, c=c):
            problems = []
            payloads = {}
            for name, out in res.items():
                rc, text = out
                try:
                    payloads[name] = json.loads(text)
                except json.JSONDecodeError:
                    problems.append((name, "output is not JSON"))
                    continue
                if rc != 0:
                    problems.append((name, f"exit code {rc}"))
            problems += [(name, msg) for name, msg in cli_identities(ls, cli, c, payloads)]
            return problems

        groups.append(Group(label, calls, verify))
    return groups


def cli_identities(ls, cli, c, payloads: dict):
    """Each payload against the library route on the same instance, plus the
    identities between subcommands."""
    names = c.vertices.names

    def name_sets(sets):
        return [[names[v] for v in sorted(s)] for s in sets]

    covers = name_sets(ls.minimal_vertex_covers(c))
    if "covers" in payloads and payloads["covers"] != {"covers": covers}:
        yield "covers", "covers differ from minimal_vertex_covers"
    if "dual" in payloads and sorted(payloads["dual"]["generators"]) != sorted(covers):
        yield "dual", "Alexander dual generators differ from the minimal vertex covers"
    if "complement" in payloads:
        comp = cli.instance_from_dict(payloads["complement"])
        if name_sets(ls.d_partite_complement(comp).edges) != name_sets(c.edges):
            yield "complement", "complement of the complement is not the instance"
    strand = ls.first_linear_strand(c)
    if "strand" in payloads:
        want = {
            "ranks": list(strand.ranks()),
            "levels": [name_sets(level) for level in strand.levels],
            "differentials": [[[e.row, e.col, e.sign, names[e.vertex]] for e in diff] for diff in strand.differentials],
        }
        if payloads["strand"] != want:
            yield "strand", "strand payload differs from first_linear_strand"
    if "lyubeznik" in payloads:
        values = payloads["lyubeznik"]["lyubeznik_column"]
        if values != list(ls.lyubeznik_last_column(c).values):
            yield "lyubeznik", "column differs from lyubeznik_last_column"
        if euler_of_column(values, c.n) != euler_of_strand(strand.ranks(), strand.d):
            yield "lyubeznik", "Euler characteristic differs from the strand's"
    if "linear" in payloads:
        verdict = ls.is_linear(c)
        got = payloads["linear"]
        if got["verdict"] != verdict.linear:
            yield "linear", "verdict differs from is_linear"
        elif verdict.certificate is not None:
            cert = verdict.certificate
            want = {"first": sorted(names[v] for v in cert.first), "second": sorted(names[v] for v in cert.second),
                    "parts": list(cert.parts), "side": cert.side}
            if got["certificate"] != want or not replay_certificate(ls, c, cert):
                yield "linear", "certificate differs from is_linear or does not replay"
    if "verify" in payloads:
        checks = payloads["verify"]["checks"]
        if not payloads["verify"]["ok"] or not all(ch["ok"] for ch in checks):
            yield "verify", "a verification check failed"
        if any(ch["detail"].startswith("skipped") for ch in checks):
            yield "verify", "a verification check was skipped"


# ---------------------------------------------------------------- registry

WORKLOADS = {
    "strand-pair": strand_pair_pass,
    "oracle": oracle_pass,
    "linearity": linearity_pass,
    "cli-small": cli_pass,
}


# ---------------------------------------------------------------- digests


def canonical(result):
    """A JSON-able canonical form of any entry point's output."""
    kind = type(result).__name__
    if kind == "StrandComplex":
        return {
            "levels": [[sorted(a) for a in level] for level in result.levels],
            "differentials": [[list(e) for e in diff] for diff in result.differentials],
        }
    if kind == "LyubeznikColumn":
        return list(result.values)
    if kind == "BettiTable":
        return sorted([i, sorted(s), v] for (i, s), v in result.multigraded.items())
    if kind == "CrossCheckReport":
        return {"rows": [list(r) for r in result.rows], "ok": result.ok}
    if kind == "LinearityVerdict":
        cert = result.certificate
        return {"linear": result.linear, "certificate": None if cert is None else
                [sorted(cert.first), sorted(cert.second), list(cert.parts), cert.side]}
    if kind == "tuple" and len(result) == 2 and isinstance(result[0], int):  # cli: (exit code, stdout)
        return {"rc": result[0], "payload": json.loads(result[1])}
    if kind == "tuple":  # linear_strand_betti: (graded, multigraded)
        graded, multi = result
        return {"graded": sorted(graded.items()), "multi": sorted([i, sorted(s), v] for (i, s), v in multi.items())}
    if kind == "bool":
        return result
    raise TypeError(f"no canonical form for {kind}")


def digest(result) -> str:
    text = json.dumps(canonical(result), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def candidates_tested(n: int, d: int, levels: int) -> int:
    """Sets `first_linear_strand` enumerates: all C(n, k) for each size it
    scans, from d through the first empty size (or n)."""
    return sum(math.comb(n, k) for k in range(d, min(n, d + levels) + 1))


def distinct_unions(c, verdict) -> int:
    """Distinct unions e | e' over the transversal pairs `is_linear` visits,
    up to and including the pair of its certificate."""
    stop = verdict.certificate
    seen = set()
    for e, e2 in itertools.combinations(c.complete_edges(), 2):
        seen.add(e | e2)
        if stop is not None and (e, e2) == (stop.first, stop.second):
            break
    return len(seen)
