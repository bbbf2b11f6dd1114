import importlib
import io
import json
import os
import shutil
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import linstrand
from linstrand import Clutter, VertexTable, from_point_configuration
from linstrand.cli import InstanceFormatError, dump_instance, instance_from_dict, load_instance, main

REPO = Path(__file__).resolve().parent.parent
INSTANCES = REPO / "demos" / "instances"


def path_of(name):
    p = INSTANCES / name
    assert p.exists(), f"missing shipped instance {name}"
    return str(p)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_instance_round_trip(tmp_path):
    c = load_instance(path_of("six_of_eight_transversals.json"))
    data = dump_instance(c)
    again = instance_from_dict(json.loads(json.dumps(data)))
    assert again == c


def test_covers_payload_is_frozen(capsys, tmp_path):
    inst = {
        "parts": [["a1", "a2"], ["b1", "b2"], ["c1", "c2"]],
        "edges": [["a1", "b1", "c1"], ["a1", "b1", "c2"], ["a2", "b2", "c2"]],
    }
    p = tmp_path / "inst.json"
    p.write_text(json.dumps(inst))
    code, out, _ = run(capsys, "covers", str(p), "--format", "json")
    assert code == 0
    assert json.loads(out)["covers"] == [
        ["a1", "a2"],
        ["a1", "b2"],
        ["a1", "c2"],
        ["a2", "b1"],
        ["b1", "b2"],
        ["b1", "c2"],
        ["c1", "c2"],
    ]


def test_lyubeznik_json_matches_library(capsys):
    code, out, _ = run(
        capsys, "lyubeznik", path_of("six_of_eight_transversals.json"), "--format", "json"
    )
    assert code == 0
    assert json.loads(out)["lyubeznik_column"] == [0, 0, 1, 1]


SUBCOMMANDS = ("dual", "complement", "covers", "betti", "strand", "lyubeznik", "linear", "verify")


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("command", SUBCOMMANDS)
def test_every_subcommand_runs_in_both_formats(capsys, command, fmt):
    code, out, err = run(capsys, command, path_of("six_of_eight_transversals.json"), "--format", fmt)
    assert code == 0, err
    assert err == ""
    if fmt == "json":
        assert isinstance(json.loads(out), dict)
    else:
        assert out.strip()


COVERS_TEXT = """\
5 minimal vertex covers:
  {a1,a2}
  {a1,b1,c1}
  {a2,b2,c2}
  {b1,b2}
  {c1,c2}
"""


@pytest.mark.parametrize(
    "command, expected",
    [
        ("covers", COVERS_TEXT),
        ("dual", COVERS_TEXT.replace("minimal vertex covers", "generators of the Alexander dual")),
        ("complement", "2 complement edges:\n  {a1,b1,c1}\n  {a2,b2,c2}\n"),
        (
            "betti",
            "graded Betti numbers beta_{i,j}:\n"
            "  i=0 j=3: 6\n  i=1 j=4: 6\n  i=2 j=6: 1\n"
            "linear: no\n",
        ),
        ("lyubeznik", "last Lyubeznik column (p = 0..3): 0 0 1 1\n"),
    ],
)
def test_text_output_is_pinned(capsys, command, expected):
    code, out, _ = run(capsys, command, path_of("six_of_eight_transversals.json"))
    assert code == 0
    assert out == expected


def test_strand_text_and_matrices(capsys):
    code, out, _ = run(capsys, "strand", path_of("six_of_eight_transversals.json"), "--matrices")
    assert code == 0
    assert "strand ranks: 6 6" in out
    assert "differential 1:" in out


def test_linear_certificate_text(capsys):
    code, out, _ = run(capsys, "linear", path_of("six_of_eight_transversals.json"))
    assert code == 0
    assert "linear: no" in out
    assert "certificate:" in out


def test_betti_lists_the_diagonal(capsys):
    code, out, _ = run(capsys, "betti", path_of("nine_edge_bipartite.json"), "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["min_degree"] == 2
    assert [0, 2, 9] in payload["betti"]


def test_betti_under_a_degree_cap_claims_no_linearity(capsys):
    # the full table of this n = 6 instance has beta_{2,6}, off the diagonal
    six = path_of("six_of_eight_transversals.json")
    assert run(capsys, "betti", six)[1].endswith("linear: no\n")
    for cap in (2, 3, 4, 5):
        code, out, _ = run(capsys, "betti", six, "--degree-cap", str(cap))
        assert code == 0
        assert out.endswith(f"linear: unknown (degree cap {cap} is below the 6 vertices)\n")
        assert ("i=" in out) is (cap > 2)  # cap 2 lists no Betti number at all
    assert run(capsys, "betti", six, "--degree-cap", "6")[1].endswith("linear: no\n")


def test_betti_under_a_degree_cap_reports_an_entry_off_the_diagonal(capsys, tmp_path):
    # two disjoint edges and a seventh vertex in no edge: beta_{1,6} is off
    # the diagonal and inside a cap of 6 < n = 7
    inst = {
        "parts": [["a1", "a2", "a3"], ["b1", "b2"], ["c1", "c2"]],
        "edges": [["a1", "b1", "c1"], ["a2", "b2", "c2"]],
    }
    p = tmp_path / "inst.json"
    p.write_text(json.dumps(inst))
    code, out, _ = run(capsys, "betti", str(p), "--degree-cap", "6")
    assert code == 0
    assert "i=1 j=6: 1" in out
    assert out.endswith("linear: no\n")
    _, capped, _ = run(capsys, "betti", str(p), "--degree-cap", "6", "--format", "json")
    assert set(json.loads(capped)) == {"betti", "min_degree"}


def test_verify_passes_on_all_shipped_instances(capsys):
    for p in sorted(INSTANCES.glob("*.json")):
        code, out, _ = run(capsys, "verify", str(p))
        assert code == 0, f"{p.name}:\n{out}"
        assert "all checks passed" in out


def test_verify_reports_a_skipped_check_as_skipped(capsys, tmp_path):
    c = linstrand.random_clutter([7, 6], 0.5, 1)
    assert c.n == 13  # linkage-matches-colon only runs up to n = 12
    path = tmp_path / "thirteen.json"
    path.write_text(json.dumps(dump_instance(c)))
    code, out, _ = run(capsys, "verify", str(path), "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["ok"] is True
    skipped = [ch for ch in payload["checks"] if ch["ok"] is None]
    assert [ch["name"] for ch in skipped] == ["linkage-matches-colon"]
    assert all(ch["ok"] is True for ch in payload["checks"] if ch not in skipped)
    code, out, _ = run(capsys, "verify", str(path))
    assert code == 0
    lines = out.splitlines()
    assert "skip linkage-matches-colon (n = 13 > 12)" in lines
    assert lines[-1] == "no check failed, 1 skipped"
    assert "all checks passed" not in out


def test_verify_skips_the_oracle_check_on_an_edgeless_instance(capsys, tmp_path):
    path = tmp_path / "edgeless.json"
    path.write_text(json.dumps({"parts": [["a1", "a2"], ["b1", "b2"]], "edges": []}))
    code, out, _ = run(capsys, "verify", str(path), "--format", "json")
    assert code == 0
    skipped = [ch for ch in json.loads(out)["checks"] if ch["ok"] is None]
    assert skipped == [{"name": "strand-ranks-match-oracle", "ok": None, "detail": "no edges, nothing to compare"}]
    code, out, _ = run(capsys, "verify", str(path))
    assert code == 0
    assert out.splitlines()[-1] == "no check failed, 1 skipped"


def test_verify_skips_the_strand_checks_when_the_strand_fails(capsys, monkeypatch):
    from linstrand import ConsistencyError, StrandComplex

    def failing(self):
        raise ConsistencyError("boundaries at degrees 2 and 1 do not compose to zero")

    monkeypatch.setattr(StrandComplex, "skeleton_complex", failing)
    code, out, _ = run(capsys, "verify", path_of("six_of_eight_transversals.json"), "--format", "json")
    assert code == 1
    by_name = {ch["name"]: ch for ch in json.loads(out)["checks"]}
    assert by_name["differentials-compose-to-zero"]["ok"] is False
    for name in ("strand-matches-relative-pair", "strand-ranks-match-oracle"):
        assert by_name[name]["ok"] is None
        assert by_name[name]["detail"]


def test_verify_exits_1_when_a_check_fails(capsys, monkeypatch):
    from linstrand import cli

    checks = [cli.Check("holds", True), cli.Check("breaks", False, "detail"), cli.Check("skipped", None, "why")]
    monkeypatch.setattr(cli, "run_verification", lambda c, f, max_vertices: checks)
    inst = path_of("six_of_eight_transversals.json")
    code, out, _ = run(capsys, "verify", inst)
    assert code == 1
    assert out.splitlines() == ["ok   holds", "FAIL breaks (detail)", "skip skipped (why)", "some checks FAILED"]
    code, out, _ = run(capsys, "verify", inst, "--format", "json")
    assert code == 1
    assert json.loads(out)["ok"] is False


def test_a_pair_whose_y_escapes_x_exits_1(capsys, monkeypatch):
    from linstrand import SimplicialComplex, simplicial

    # a void x cannot hold the part-deficient y
    monkeypatch.setattr(simplicial, "independent_sets", lambda c, max_vertices: SimplicialComplex(c.vertices, ()))
    code, _, err = run(capsys, "verify", path_of("six_of_eight_transversals.json"))
    assert code == 1
    assert "part-deficient subcomplex escapes the independence complex" in err


def test_complement_output_is_reloadable(capsys, tmp_path):
    code, out, _ = run(
        capsys, "complement", path_of("fourteen_of_sixteen_transversals.json"), "--format", "json"
    )
    assert code == 0
    comp = instance_from_dict(json.loads(out))
    assert len(comp.edges) == 2


def test_points_instance_loads(capsys):
    code, out, _ = run(capsys, "covers", path_of("three_point_configuration.json"), "--format", "json")
    assert code == 0
    assert json.loads(out)["covers"]


def test_missing_file_is_a_parse_error(capsys):
    code, _, err = run(capsys, "covers", "no-such-file.json")
    assert code == 2
    assert "error" in err


def test_malformed_json_is_a_parse_error(capsys, tmp_path):
    p = tmp_path / "broken.json"
    p.write_text("{not json")
    code, _, err = run(capsys, "covers", str(p))
    assert code == 2


def test_unknown_edge_name_is_a_parse_error(capsys, tmp_path):
    p = tmp_path / "bad.json"
    p.write_text(json.dumps({"parts": [["a"], ["b"]], "edges": [["a", "z"]]}))
    code, _, err = run(capsys, "covers", str(p))
    assert code == 2


@pytest.mark.parametrize(
    "instance",
    [
        {"parts": [["a"], ["b"]], "edges": [[["a"], "b"]]},
        {"parts": [["a"], ["b"]], "edges": [[{"a": 1}, "b"]]},
        {"points": [[[1], [2]], 5]},
        {"points": [[{"a": 1}]]},
        {"points": [{"a": 1}]},
    ],
)
def test_malformed_instance_shape_is_a_parse_error(capsys, tmp_path, instance):
    p = tmp_path / "shape.json"
    p.write_text(json.dumps(instance))
    code, _, err = run(capsys, "covers", str(p))
    assert code == 2
    assert len(err.splitlines()) == 1 and err.startswith("error: ")


@pytest.mark.parametrize("depth", [900, 100_000])
def test_deeply_nested_labels_are_a_parse_error(capsys, tmp_path, depth):
    # json.dumps cannot build the deeper one, so the text is written directly
    p = tmp_path / "deep.json"
    p.write_text('{"points": [[' + "[" * depth + "1" + "]" * depth + ', "x"]]}')
    code, out, err = run(capsys, "covers", str(p))
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ")


@pytest.mark.parametrize(
    "points",
    [
        [[False, "x"], [0, "y"]],
        [[True, "x"]],
        [[None, "x"]],
        [[[1, [None]], "x"]],
        # json.dumps writes NaN, which Python's json reads back
        [[float("nan"), "x"], [float("nan"), "x"]],
        [[[1, float("nan")], "x"]],
    ],
    ids=["false", "true", "null", "nested-null", "nan", "nested-nan"],
)
def test_json_literals_are_not_point_labels(capsys, tmp_path, points):
    with pytest.raises(InstanceFormatError, match="point labels must be strings, numbers or lists of them"):
        instance_from_dict({"points": points})
    p = tmp_path / "literal.json"
    p.write_text(json.dumps({"points": points}))
    code, _, err = run(capsys, "covers", str(p))
    assert code == 2
    assert len(err.splitlines()) == 1 and err.startswith("error: ")


def test_points_and_parts_together_rejected(capsys, tmp_path):
    p = tmp_path / "both.json"
    p.write_text(json.dumps({"parts": [["a"]], "edges": [], "points": [[1]]}))
    code, _, err = run(capsys, "covers", str(p))
    assert code == 2


def test_guard_exit_code(capsys, tmp_path):
    parts = [[f"p{i}v{j}" for j in range(13)] for i in range(2)]
    p = tmp_path / "big.json"
    p.write_text(json.dumps({"parts": parts, "edges": []}))
    code, _, err = run(capsys, "strand", str(p))
    assert code == 3
    # raising the guard makes it pass
    code2, _, _ = run(capsys, "strand", str(p), "--max-vertices", "30")
    assert code2 == 0


def test_field_argument_validation(capsys):
    inst = path_of("six_of_eight_transversals.json")
    code, out, _ = run(capsys, "betti", inst, "--field", "fp:7", "--format", "json")
    assert code == 0
    for bad in ("fp:4", "fp:0"):
        with pytest.raises(SystemExit) as exc:
            main(["betti", inst, "--field", bad])
        assert exc.value.code == 2, bad
    capsys.readouterr()


def test_console_script_is_installed(tmp_path):
    """The declared ``linstrand`` console script runs ``lyubeznik`` end to end.

    An installer writes the ``linstrand`` executable from the
    ``[project.scripts]`` entry in ``pyproject.toml``; a checkout that is only
    on ``PYTHONPATH`` has none, so requiring it on PATH tested the machine, not
    the program. The test therefore always resolves the declared
    ``module:attr`` to a callable and runs it in a separate process the way an
    installer's launcher does, from outside the repository. Wherever a
    ``linstrand`` executable is on PATH it runs that too, under the same
    assertions.
    """
    if sys.version_info >= (3, 11):
        import tomllib
    else:
        tomllib = pytest.importorskip("tomli")
    with open(REPO / "pyproject.toml", "rb") as f:
        scripts = tomllib.load(f)["project"].get("scripts", {})
    assert "linstrand" in scripts, "pyproject.toml declares no linstrand console script"
    module_name, _, attr = scripts["linstrand"].partition(":")
    assert callable(getattr(importlib.import_module(module_name), attr))

    env = dict(os.environ)
    package_root = str(Path(linstrand.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    launcher = (
        f"import sys; sys.argv[0] = 'linstrand'; "
        f"from {module_name} import {attr}; sys.exit({attr}())"
    )
    instance = path_of("corner_star_four_parts.json")
    commands = [[sys.executable, "-c", launcher, "lyubeznik", instance]]
    if installed := shutil.which("linstrand"):
        commands.append([installed, "lyubeznik", instance])

    for cmd in commands:
        r = subprocess.run(cmd, capture_output=True, text=True, cwd=tmp_path, env=env)
        assert r.returncode == 0, f"{cmd[0]} exited {r.returncode}:\n{r.stderr}"
        assert "0 0 0 1 1" in r.stdout, f"{cmd[0]} printed:\n{r.stdout}\n{r.stderr}"


NAMES = st.sampled_from(["a", "b", "c", "d"])
JSON_LEAVES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 3),
    st.floats(allow_nan=False, allow_infinity=False),
    NAMES,
    st.text(max_size=2),
)
JSON_VALUES = st.recursive(
    JSON_LEAVES,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.dictionaries(st.one_of(st.sampled_from(["parts", "edges", "points"]), st.text(max_size=2)), inner, max_size=3),
    ),
    max_leaves=16,
)
NAME_LISTS = st.lists(st.lists(NAMES, max_size=3), max_size=4)
JSON_INSTANCES = st.one_of(
    JSON_VALUES,
    st.fixed_dictionaries({}, optional={"parts": JSON_VALUES, "edges": JSON_VALUES, "points": JSON_VALUES}),
    st.fixed_dictionaries({"parts": NAME_LISTS, "edges": NAME_LISTS}),
    st.fixed_dictionaries({"points": st.lists(st.lists(st.one_of(NAMES, st.integers(0, 2)), max_size=3), max_size=4)}),
)


@settings(max_examples=150, deadline=None)
@given(JSON_INSTANCES)
def test_any_json_value_loads_or_is_a_parse_error(data):
    try:
        c = instance_from_dict(data)
    except InstanceFormatError:
        pass
    else:
        assert isinstance(c, Clutter)
    with tempfile.TemporaryDirectory() as d:
        p = os.path.join(d, "fuzz.json")
        with open(p, "w") as fh:
            json.dump(data, fh)
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main(["covers", p])
    assert code in (0, 2), err.getvalue()
    if code == 2:
        assert len(err.getvalue().splitlines()) == 1 and err.getvalue().startswith("error: ")


@pytest.mark.parametrize("command", ["covers", "dual", "complement", "betti", "strand", "lyubeznik", "linear", "verify"])
def test_every_subcommand_honours_the_vertex_guard(capsys, command):
    code, out, err = run(capsys, command, path_of("nine_edge_bipartite.json"), "--max-vertices", "3")
    assert code == 3
    assert out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith("error: 8 vertices exceeds the guard of 3")


@settings(max_examples=150, deadline=None)
@given(JSON_VALUES, st.lists(JSON_VALUES, max_size=4))
def test_the_library_refuses_any_json_value_with_a_value_error(value, names):
    table = VertexTable(("a", "b", "c"), (0, 0, 1))
    for call in (
        lambda: from_point_configuration(value),
        lambda: from_point_configuration([value]),
        lambda: VertexTable(tuple(names)),
        lambda: table.resolve(names),
        lambda: table.resolve([value]),
    ):
        try:
            call()
        except ValueError:
            pass


def test_betti_rejects_a_negative_degree_cap(capsys):
    code, out, err = run(capsys, "betti", path_of("nine_edge_bipartite.json"), "--degree-cap", "-1")
    assert code == 2
    assert out == ""
    assert err == "error: degree cap must be nonnegative, got -1\n"


def test_verify_runs_the_generic_product_check(capsys, monkeypatch):
    from linstrand import ConsistencyError, StrandComplex

    seen = []

    def failing(self):
        seen.append(self)
        raise ConsistencyError("boundaries at degrees 2 and 1 do not compose to zero")

    monkeypatch.setattr(StrandComplex, "skeleton_complex", failing)
    code, out, _ = run(capsys, "verify", path_of("six_of_eight_transversals.json"))
    assert code == 1
    assert len(seen) == 1
    assert "FAIL differentials-compose-to-zero (boundaries at degrees 2 and 1 do not compose to zero)" in out.splitlines()
