"""README's examples run as written: the library quick start prints what its
comments say, and every command-line example exits 0.  Its module table
lists the package's modules."""

import contextlib
import io
import re
from pathlib import Path

from linstrand.cli import main

REPO = Path(__file__).resolve().parent.parent
README = (REPO / "README.md").read_text()


def _section(heading: str) -> str:
    """The text under a ## heading, up to the next one."""
    return README.split(f"## {heading}\n", 1)[1].split("\n## ", 1)[0]


def test_library_quick_start_prints_its_commented_outputs():
    code = re.search(r"```python\n(.*?)```", _section("Library quick start"), re.S).group(1)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(code, {})
    printed = out.getvalue().splitlines()
    assert printed == ["(6, 6)", "(0, 0, 1, 1)", "False"]
    comments = [line.split("#", 1)[1].strip() for line in code.splitlines() if line.startswith("print(")]
    for comment, line in zip(comments, printed):
        assert comment.startswith(line), comment


def test_every_command_line_example_exits_zero(capsys, monkeypatch):
    monkeypatch.chdir(REPO)
    commands = [line.split()[1:] for line in _section("Command line").splitlines() if line.startswith("linstrand ")]
    assert len(commands) == 8
    for argv in commands:
        assert main(argv) == 0, argv
        capsys.readouterr()


def test_module_table_lists_every_module():
    rows = re.findall(r"^\| `(\w+)` \|", _section("Modules"), re.M)
    modules = {p.stem for p in (REPO / "src" / "linstrand").glob("*.py")} - {"__init__"}
    assert sorted(rows) == sorted(modules)
