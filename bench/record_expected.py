"""Record the exact outputs of the default-seed passes into expected.json.

    python3 bench/record_expected.py

Run it only on a commit whose outputs are trusted: the benchmark's gate then
requires every later commit to reproduce these digests bit for bit.  Every
recorded pass must also pass the identity checks, or nothing is written.
RECORDED_PASSES covers more passes than a run completes today, so a faster
commit is still checked exactly on most of its calls; calls beyond them are
checked by the identities alone.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from run import ROOT, gate, run_pass, setup
from workloads import DEFAULT_SEED, WORKLOADS, digest

RECORDED_PASSES = {"strand-pair": 9, "oracle": 6, "linearity": 6, "cli-small": 15}


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    data = {"seed": DEFAULT_SEED, "passes": RECORDED_PASSES, "workloads": {}}
    for workload, count in RECORDED_PASSES.items():
        gen, groups = setup(workload, DEFAULT_SEED)
        table = {}
        for k in range(count):
            if k:
                groups = WORKLOADS[workload](gen, k)
            _, records = run_pass(groups)
            failed, messages = gate(k, records, None)
            if failed:
                print("\n".join(messages), file=sys.stderr)
                return 1
            for group, call, outcome, _ in records:
                table[f"{k}/{group.label}/{call.name}"] = digest(outcome)
        data["workloads"][workload] = table
        print(f"{workload}: {len(table)} outputs over {count} passes")
    (Path(__file__).parent / "expected.json").write_text(json.dumps(data, indent=0, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
