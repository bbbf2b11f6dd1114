"""Regenerate the baseline rows the workloads cover, on their fixed inputs.

    python3 bench/baseline.py

Times each row REPEATS times in this process and writes
bench/baseline.json with every sample, the median, the output's size, and
the environment stamp.  Two rows of the baseline table are left out, with
the reason recorded in the file: they cost more than a benchmark run may.
"""

from __future__ import annotations

import json
import statistics
import sys
import time
from pathlib import Path

from run import ROOT, environment, fresh_import

REPEATS = 3
LEFT_OUT = {
    "is_linear(complete_clutter([4]*4))": "one call takes about 36 s; the scan has no guard yet",
    "complete_clutter([5]*6) guard path": "building the 15,625-edge clutter takes 10-20 s before the guard can fire",
}


def rows(ls):
    """(name, thunk, size of the result) per row."""
    n20 = ls.random_clutter([5] * 4, 0.6, seed=1)
    n12 = ls.random_clutter([3] * 4, 0.5, seed=1)
    complete = ls.complete_clutter([3] * 4)
    return [
        ("first_linear_strand(random_clutter([5]*4, 0.6, seed=1))",
         lambda: ls.first_linear_strand(n20), lambda s: {"ranks": list(s.ranks())}),
        ("lyubeznik_last_column(random_clutter([5]*4, 0.6, seed=1), GF(2))",
         lambda: ls.lyubeznik_last_column(n20, ls.GF2), lambda col: {"column": list(col.values)}),
        ("linear_strand_betti(edge_ideal(random_clutter([3]*4, 0.5, seed=1)), QQ)",
         lambda: ls.linear_strand_betti(ls.edge_ideal(n12), ls.QQ), lambda r: {"graded": sorted(r[0].items())}),
        ("is_linear(complete_clutter([3]*4))",
         lambda: ls.is_linear(complete), lambda v: {"linear": v.linear}),
    ]


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    ls = fresh_import()
    out = {"environment": environment(), "repeats": REPEATS, "rows": [], "left_out": LEFT_OUT}
    for name, thunk, size in rows(ls):
        samples = []
        for _ in range(REPEATS):
            start = time.perf_counter()
            result = thunk()
            samples.append(time.perf_counter() - start)
        row = {"row": name, "median_s": statistics.median(samples), "samples_s": samples, "result": size(result)}
        out["rows"].append(row)
        print(f"{row['median_s']:8.3f} s  {name}")
    (Path(__file__).parent / "baseline.json").write_text(json.dumps(out, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
