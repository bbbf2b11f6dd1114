"""Last Lyubeznik columns of every shipped instance, with the Betti
cross-check that validates each entry below the corner against the
complement's multigraded Betti numbers.
"""

from pathlib import Path

from linstrand import QQ, cross_check_betti, lyubeznik_last_column
from linstrand.cli import load_instance

instances = sorted((Path(__file__).parent / "instances").glob("*.json"))

for path in instances:
    c = load_instance(str(path))
    col = lyubeznik_last_column(c, QQ)
    print(f"{path.stem}  (n = {c.n}, d = {c.vertices.d}, {len(c.edges)} edges)")
    print(f"  column: {' '.join(str(v) for v in col.values)}")
    r = cross_check_betti(c, QQ)
    for p, ours, oracle in r.rows:
        marker = "ok" if ours == oracle else "MISMATCH"
        print(f"  p = {p}: lambda = {ours}, oracle Betti = {oracle}  [{marker}]")
    print(f"  corner lambda_({c.n - c.d},{c.n - c.d}) = {col.highest()}")
    trivial = all(v == 0 for v in col.values[:-1]) and col.highest() == 1
    print(f"  trivial column: {'yes' if trivial else 'no'}")
    print()
