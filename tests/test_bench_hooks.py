"""The benchmark's tracer wraps library names it lists in bench/tracer.py;
every listed name must still exist, or a traced run crashes on install.
The lists are read from the source, so nothing under bench/ is imported.
Its hooks also read public attributes of what the wrapped calls return, so
one short traced run is made in a child process as well, on a copy of the
tree."""

import ast
import importlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TRACER = ROOT / "bench" / "tracer.py"


def _listed(name):
    tree = ast.parse(TRACER.read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == name for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"{name} is not assigned in {TRACER}")


def test_every_wrapped_function_resolves():
    functions = _listed("FUNCTIONS")
    assert functions
    for module, func in functions:
        assert callable(getattr(importlib.import_module(f"linstrand.{module}"), func, None)), f"{module}.{func}"


def test_every_wrapped_method_is_defined_on_its_class():
    methods = _listed("METHODS")
    assert methods
    for module, cls_name, method, _ in methods:
        cls = getattr(importlib.import_module(f"linstrand.{module}"), cls_name)
        assert method in vars(cls), f"{module}.{cls_name}.{method}"


def _bench_out():
    """Every file under the checkout's bench/out, with its mtime."""
    out = ROOT / "bench" / "out"
    return {str(p.relative_to(out)): p.stat().st_mtime_ns for p in out.rglob("*")} if out.exists() else {}


def _short_run(tmp_path, *argv):
    """The last record of a 1 s seed-1 bench/run.py run, which also checks the
    seed-1 digests in bench/expected.json.  run.py writes its records under
    its own root, so it runs from a copy of bench/ and src/ in tmp_path, and
    the checkout's bench/out (a benchmark operator's records) is left as it
    was."""
    before = _bench_out()
    for tree in ("bench", "src"):
        shutil.copytree(ROOT / tree, tmp_path / tree, ignore=shutil.ignore_patterns("out", "__pycache__"))
    argv = ["bench/run.py", *argv, "--seed", "1", "--seconds", "1"]
    done = subprocess.run([sys.executable, *argv], cwd=tmp_path, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr[-2000:]
    assert _bench_out() == before
    return json.loads(done.stdout.splitlines()[-1])


def test_a_short_traced_strand_pair_run_is_correct(tmp_path):
    # about 3.5 s
    last = _short_run(tmp_path, "--workload", "strand-pair", "--trace", "1")
    assert last["correct"] is True
    assert last["failed"] == 0


def test_a_short_oracle_run_is_correct(tmp_path):
    # about 2.3 s; the oracle ranks with the same kernel as the strand routes
    last = _short_run(tmp_path, "--workload", "oracle")
    assert last["correct"] is True
    assert last["failed"] == 0


def test_a_short_cli_small_run_is_correct(tmp_path):
    # about 2 s; its verify and linear calls reach the ideals module and the
    # sub-table builder behind restrict and ranked_projection
    last = _short_run(tmp_path, "--workload", "cli-small")
    assert last["correct"] is True
    assert last["failed"] == 0
