"""linstrand benchmark: one workload, one process, one closed-loop client.

    python3 bench/run.py --workload strand-pair --seed 1 --seconds 25 --trace 0

Run from the repository root; the package is imported from `src/`.  Set-up
(a fresh import of linstrand plus building the first pass of instances,
including writing any JSON instances) is repeated SETUP_REPEATS times and its
median reported.  The measured loop then runs whole passes (see
workloads.py) until `--seconds` have been spent inside them, one call at a
time.  After each pass, outside the timed region, every output goes through
the correctness gate: the identities between routes for any seed, and at the
default seed an exact digest match against `expected.json`.

`--trace 0` prints the end-to-end metrics.  `--trace 1` runs half the time
untraced, installs the tracer, replays the same calls traced, and prints the
per-layer metrics, with the ratio of the two walls as the tracing overhead.
The last line of standard output is one JSON object: correct, attempted,
failed, metrics.  Full results, stamped with the environment, go to
bench/out/.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

from workloads import DEFAULT_SEED, OUT_DIR, WORKLOADS, Generator, digest

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 15
TAIL_BEYOND = 10
ELAPSED_CAP = 3


def fresh_import():
    """Import linstrand from src/ as if for the first time."""
    for name in [m for m in sys.modules if m == "linstrand" or m.startswith("linstrand.")]:
        del sys.modules[name]
    ls = importlib.import_module("linstrand")
    importlib.import_module("linstrand.cli")
    if not Path(ls.__file__).resolve().is_relative_to(ROOT / "src"):
        raise ImportError(f"linstrand was imported from {ls.__file__}, not from {ROOT / 'src'}")
    return ls


def setup(workload: str, seed: int):
    """One set-up: import, a fresh generator, and the first pass."""
    ls = fresh_import()
    gen = Generator(ls, seed, workload, ROOT)
    return gen, WORKLOADS[workload](gen, 0)


def run_pass(groups) -> tuple[float, list]:
    """Run every call of one pass; returns the wall spent in the calls and
    (group, call, outcome, seconds) per call, outcome an exception if the
    call raised."""
    records = []
    clock = time.perf_counter
    wall = 0.0
    for group in groups:
        for call in group.calls:
            start = clock()
            try:
                outcome = call.invoke()
            except (Exception, SystemExit) as exc:  # a failed call, counted as such
                outcome = exc
            seconds = clock() - start
            wall += seconds
            records.append((group, call, outcome, seconds))
    return wall, records


def gate(k: int, records, expected: dict | None) -> tuple[int, list[str]]:
    """Check one pass's outputs: (calls that failed, messages)."""
    failed: set[tuple[str, str]] = set()
    messages = []

    def fail(label, name, why):
        failed.add((label, name))
        messages.append(f"pass {k} {label} {name}: {why}")

    by_group: dict[int, tuple] = {}
    for group, call, outcome, _ in records:
        by_group.setdefault(id(group), (group, {}))[1][call.name] = outcome
    for group, outcomes in by_group.values():
        results = {}
        for name, outcome in outcomes.items():
            if isinstance(outcome, BaseException):
                fail(group.label, name, f"raised {outcome!r}")
                continue
            results[name] = outcome
            want = expected.get(f"{k}/{group.label}/{name}") if expected is not None else None
            if want is not None:
                try:
                    got = digest(outcome)
                except ValueError as exc:  # unparsable CLI output
                    got = repr(exc)
                if got != want:
                    fail(group.label, name, "output differs from the recorded expectation")
        try:
            problems = group.verify(results)
        except Exception as exc:  # malformed output the checks cannot read
            problems = [(name, f"check raised {exc!r}") for name in results]
        for name, why in problems:
            fail(group.label, name, why)
    return len(failed), messages


class Loop:
    """Totals of a measured loop."""

    def __init__(self):
        self.wall = 0.0
        self.calls: list[tuple[str, float]] = []  # (pass/group/call, seconds)
        self.failed = 0
        self.failures: list[str] = []
        self.passes: list[tuple[int, list]] = []

    def run(self, k: int, groups, expected: dict | None, tracer=None) -> None:
        """One pass, timed (and traced, given a tracer), then gated."""
        gc.collect()
        if tracer is not None:
            tracer.enabled = True
        pass_wall, records = run_pass(groups)
        if tracer is not None:
            tracer.enabled = False
        self.wall += pass_wall
        self.calls += [(f"{k}/{g.label}/{c.name}", seconds) for g, c, _, seconds in records]
        failed, messages = gate(k, records, expected)
        self.failed += failed
        self.failures += messages
        self.passes.append((k, groups))


def measure(workload: str, gen, first, budget: float, expected: dict | None) -> Loop:
    """Whole passes until `budget` seconds have gone into calls, or until
    ELAPSED_CAP times the budget has passed in all (generation and gate
    included), so that a run still ends in time when the calls become
    nearly free and the checks dominate."""
    loop, groups, k = Loop(), first, 0
    deadline = time.perf_counter() + ELAPSED_CAP * budget
    while True:
        loop.run(k, groups, expected)
        if loop.wall >= budget or time.perf_counter() >= deadline:
            return loop
        k += 1
        groups = WORKLOADS[workload](gen, k)


def tail(latencies: list[float]) -> tuple[float, float]:
    """The highest percentile with at least TAIL_BEYOND samples above it:
    (value, percentile).  With too few samples, the maximum."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    rank = n - TAIL_BEYOND  # 1-based rank of the sample with TAIL_BEYOND above it
    return ordered[rank - 1], 100.0 * rank / n


def environment() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"python": platform.python_version(), "nproc": os.cpu_count(), "cpu": cpu, "commit": git_commit()}


def git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def load_expected(workload: str, seed: int) -> dict | None:
    if seed != DEFAULT_SEED:
        return None
    data = json.loads((Path(__file__).parent / "expected.json").read_text())
    return data["workloads"][workload]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    try:
        setups = []
        for _ in range(SETUP_REPEATS):
            gc.collect()
            start = time.perf_counter()
            gen, first = setup(args.workload, args.seed)
            setups.append(time.perf_counter() - start)
    except ImportError as exc:
        print(f"error: cannot import linstrand from src/: {exc}", file=sys.stderr)
        return 2
    expected = load_expected(args.workload, args.seed)
    out_dir = ROOT / OUT_DIR
    out_dir.mkdir(parents=True, exist_ok=True)
    result = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
              "environment": environment(), "setup_s_samples": setups}

    if not args.trace:
        loop = measure(args.workload, gen, first, args.seconds, expected)
        latencies = [seconds for _, seconds in loop.calls]
        tail_value, tail_pct = tail(latencies)
        metrics = {
            "throughput_calls_per_s": (len(latencies) / loop.wall, "1/s"),
            "latency_p50_ms": (1e3 * statistics.median(latencies), "ms"),
            "latency_tail_ms": (1e3 * tail_value, "ms"),
            "setup_s": (statistics.median(setups), "s"),
            "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
        }
        result.update(passes=len(loop.passes), wall_s=loop.wall, tail_percentile=tail_pct,
                      tail_samples=len(latencies), tail_beyond=TAIL_BEYOND, call_seconds=loop.calls)
        attempted, failed, failures = len(latencies), loop.failed, loop.failures
    else:
        from tracer import Tracer

        loop = measure(args.workload, gen, first, args.seconds / 2, expected)
        tracer = Tracer()
        tracer.install()
        traced = Loop()
        for k, groups in loop.passes:
            traced.run(k, groups, expected, tracer)
        metrics = tracer.metrics(traced.wall, loop.wall)
        result.update(passes=len(loop.passes), untraced_wall_s=loop.wall, traced_wall_s=traced.wall,
                      idle_layers=tracer.idle_layers(),
                      spans=tracer.write_spans(out_dir / f"spans-{args.workload}-seed{args.seed}.bin"))
        attempted = len(loop.calls) + len(traced.calls)
        failed, failures = loop.failed + traced.failed, loop.failures + traced.failures

    result.update(attempted=attempted, failed=failed, error_rate=failed / attempted, failures=failures[:50],
                  metrics={k: {"value": v, "unit": u} for k, (v, u) in metrics.items()})
    out = out_dir / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(result, indent=1))

    for message in failures[:20]:
        print(f"FAIL {message}", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"{name:48s} {value:14.6g} {unit}")
    if args.trace:
        print(f"layers idle on {args.workload}: {', '.join(result['idle_layers']) or 'none'}")
    else:
        print(f"tail is p{result['tail_percentile']:.1f} of {result['tail_samples']} calls; "
              f"{result['passes']} passes; error_rate {result['error_rate']:.4g}")
    print(f"environment: {json.dumps(result['environment'])}; results in {out.relative_to(ROOT)}")
    print(json.dumps({"correct": not failures, "attempted": attempted, "failed": failed,
                      "metrics": result["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
