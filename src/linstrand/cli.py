"""Command-line front end.

Instances are JSON files of either form:

    {"parts": [["a1","a2"],["b1","b2"]], "edges": [["a1","b1"], ...]}
    {"points": [[[1,1],[1,1],[1,1]], [[1,1],[1,1],[2,1]], ...]}

Exit codes: 0 ok, 1 internal consistency failure (a verify check failed or an
invariant broke), 2 unparsable input, 3 size guard violation.

Each subcommand is declared once, in _COMMANDS, with its help, its extra
options and a handler that returns the JSON payload and the text lines; main
loads the instance, runs the handler, and prints one or the other.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass

from .clutters import Clutter, _table_of_parts, d_partite_complement, from_point_configuration, minimal_vertex_covers
from .errors import DEFAULT_MAX_VERTICES, ConsistencyError, SizeGuardError, check_vertex_guard
from .hochster import betti_table, linear_strand_betti
from .ideals import alexander_dual, edge_ideal, squarefree_colon
from .linalg import Field, QQ, homology_dims
from .linearity import complement_linearity_agrees, is_linear
from .lyubeznik import lyubeznik_last_column
from .simplicial import chain_complex, strand_support_pair
from .strand import first_linear_strand, verify_support

__all__ = ["InstanceFormatError", "load_instance", "dump_instance", "run_verification", "main"]


class InstanceFormatError(ValueError):
    pass


def load_instance(path: str) -> Clutter:
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as e:
        raise InstanceFormatError(f"cannot read {path}: {e}") from None
    except json.JSONDecodeError as e:
        raise InstanceFormatError(f"{path} is not valid JSON: {e}") from None
    except RecursionError:
        raise InstanceFormatError(f"{path} nests too deeply") from None
    return instance_from_dict(data)


def instance_from_dict(data: object) -> Clutter:
    """The clutter of a decoded JSON instance.  Only the JSON shape is
    checked here; the library checks the values, and its ValueError comes
    back as InstanceFormatError."""
    if not isinstance(data, dict):
        raise InstanceFormatError("instance must be a JSON object")
    has_parts = "parts" in data or "edges" in data
    has_points = "points" in data
    if has_parts and has_points:
        raise InstanceFormatError("give either parts+edges or points, not both")
    if has_points:
        try:
            return from_point_configuration(data["points"])
        except RecursionError:
            raise InstanceFormatError("point labels nest too deeply") from None
        except ValueError as e:
            raise InstanceFormatError(str(e)) from None
    if not ("parts" in data and "edges" in data):
        raise InstanceFormatError("instance needs both parts and edges (or points)")
    parts, edges = data["parts"], data["edges"]
    if not isinstance(parts, list) or not all(isinstance(p, list) for p in parts):
        raise InstanceFormatError("parts must be a list of lists of names")
    if not isinstance(edges, list) or not all(isinstance(e, list) for e in edges):
        raise InstanceFormatError("edges must be a list of lists of names")
    try:
        table = _table_of_parts(parts)
        return Clutter(table, tuple(table.resolve(e) for e in edges))
    except ValueError as e:
        raise InstanceFormatError(str(e)) from None


def dump_instance(c: Clutter) -> dict:
    t = c.vertices
    return {
        "parts": [[t.names[v] for v in t.part_members(i)] for i in range(t.d)],
        "edges": _name_sets(c, c.edges),
    }


def _name_sets(c: Clutter, sets) -> list[list[str]]:
    return [[c.vertices.names[v] for v in sorted(s)] for s in sets]


@dataclass(frozen=True)
class Check:
    """One verify check; ok is None when the check was skipped."""

    name: str
    ok: bool | None
    detail: str = ""


def run_verification(c: Clutter, f: Field = QQ, max_vertices: int = DEFAULT_MAX_VERTICES) -> list[Check]:
    """The instance-level cross-check suite: squares vanish, the strand sits
    on its relative pair, ranks match the Betti oracle, the part-deficient
    subcomplex is a sphere, linkage matches the brute-force colon, and the
    linearity verdict agrees with the complement's."""
    checks: list[Check] = []
    pair = strand_support_pair(c, max_vertices=max_vertices)
    strand = None
    try:
        strand = first_linear_strand(c, max_vertices=max_vertices)
        strand.skeleton_complex()  # the generic product check, beside the strand's own
        checks.append(Check("differentials-compose-to-zero", True))
    except ConsistencyError as e:
        strand = None
        checks.append(Check("differentials-compose-to-zero", False, str(e)))

    if strand is None:
        checks.append(Check("strand-matches-relative-pair", None, "no strand to compare"))
        checks.append(Check("strand-ranks-match-oracle", None, "no strand to compare"))
    else:
        report = verify_support(strand, pair)
        checks.append(
            Check("strand-matches-relative-pair", report.ok, "; ".join(report.mismatches[:3]))
        )

        if c.edges:
            graded, multigraded = linear_strand_betti(edge_ideal(c), f, max_vertices=max_vertices)
            ranks = {i: r for i, r in enumerate(strand.ranks())}
            expected_multi = {
                (i, a): 1 for i, level in enumerate(strand.levels) for a in level
            }
            ok = graded == {i: r for i, r in ranks.items() if r} and multigraded == expected_multi
            detail = "" if ok else f"oracle {graded}, strand {ranks}"
            checks.append(Check("strand-ranks-match-oracle", ok, detail))
        else:
            checks.append(Check("strand-ranks-match-oracle", None, "no edges, nothing to compare"))

    hy = homology_dims(chain_complex(pair.y, reduced=True), f)
    d = c.vertices.d
    sphere_degree = d - 2
    ok = all(v == (1 if k == sphere_degree else 0) for k, v in hy.items())
    checks.append(
        Check(
            "part-deficient-subcomplex-is-sphere",
            ok,
            f"reduced homology {hy}" if not ok else f"rank 1 in degree {sphere_degree}",
        )
    )

    if c.n <= 12:
        parts = c.part_sets()
        covers_c = minimal_vertex_covers(c)
        covers_comp = minimal_vertex_covers(d_partite_complement(c))
        first = squarefree_colon(parts, covers_c, c.n) == covers_comp
        second = squarefree_colon(parts, covers_comp, c.n) == covers_c
        checks.append(
            Check(
                "linkage-matches-colon",
                first and second,
                "" if first and second else "colon of the cover ideal differs from the complement's covers",
            )
        )
    else:
        checks.append(Check("linkage-matches-colon", None, f"n = {c.n} > 12"))

    checks.append(Check("complement-linearity-agreement", complement_linearity_agrees(c, max_vertices)))
    return checks


def _field_arg(text: str) -> Field:
    if text == "q":
        return QQ
    if text.startswith("fp:"):
        try:
            f = Field(int(text[3:]))
        except ValueError as e:
            raise argparse.ArgumentTypeError(str(e)) from None
        if f.characteristic:  # QQ is spelled q
            return f
    raise argparse.ArgumentTypeError("field must be q or fp:<prime>")


def _listed(name_sets: list[list[str]]) -> list[str]:
    return ["  {" + ",".join(s) + "}" for s in name_sets]


def _covers(c: Clutter, args) -> tuple[dict, list[str]]:
    covers = _name_sets(c, minimal_vertex_covers(c))
    return {"covers": covers}, [f"{len(covers)} minimal vertex covers:", *_listed(covers)]


def _dual(c: Clutter, args) -> tuple[dict, list[str]]:
    gens = _name_sets(c, alexander_dual(edge_ideal(c)).generators)
    return {"generators": gens}, [f"{len(gens)} generators of the Alexander dual:", *_listed(gens)]


def _complement(c: Clutter, args) -> tuple[dict, list[str]]:
    payload = dump_instance(d_partite_complement(c))
    return payload, [f"{len(payload['edges'])} complement edges:", *_listed(payload["edges"])]


def _betti(c: Clutter, args) -> tuple[dict, list[str]]:
    table = betti_table(edge_ideal(c), args.field, degree_cap=args.degree_cap, max_vertices=args.max_vertices)
    triples = sorted((i, j, v) for (i, j), v in table.graded.items())
    lines = ["graded Betti numbers beta_{i,j}:"]
    lines += [f"  i={i} j={j}: {v}" for i, j, v in triples]
    linear = "yes" if table.is_linear() else "no"
    if linear == "yes" and args.degree_cap is not None and args.degree_cap < c.n:
        linear = f"unknown (degree cap {args.degree_cap} is below the {c.n} vertices)"
    lines.append(f"linear: {linear}")
    return {"betti": [list(t) for t in triples], "min_degree": table.min_degree}, lines


def _strand(c: Clutter, args) -> tuple[dict, list[str]]:
    s = first_linear_strand(c, max_vertices=args.max_vertices)
    payload: dict = {"ranks": list(s.ranks())}
    lines = ["strand ranks: " + (" ".join(str(r) for r in s.ranks()) if s.ranks() else "(empty)")]
    if args.matrices:
        payload["levels"] = [_name_sets(c, level) for level in s.levels]
        payload["differentials"] = [
            [[e.row, e.col, e.sign, c.vertices.names[e.vertex]] for e in diff]
            for diff in s.differentials
        ]
        for i, level in enumerate(s.levels):
            lines.append(f"level {i}: " + " ".join(c.vertices.label(a) for a in level))
        for i in range(1, s.length()):
            lines.append(f"differential {i}:")
            lines += [
                f"  e[{e.col}] -> {'+' if e.sign > 0 else '-'}{c.vertices.names[e.vertex]} e[{e.row}]"
                for e in s.differentials[i]
            ]
    return payload, lines


def _lyubeznik(c: Clutter, args) -> tuple[dict, list[str]]:
    col = lyubeznik_last_column(c, args.field, max_vertices=args.max_vertices)
    payload = {"lyubeznik_column": list(col.values), "n": c.n, "d": c.d}
    return payload, [f"last Lyubeznik column (p = 0..{c.n - c.d}): " + " ".join(str(v) for v in col.values)]


def _linear(c: Clutter, args) -> tuple[dict, list[str]]:
    verdict = is_linear(c, max_vertices=args.max_vertices)
    cert = None
    lines = [f"linear: {'yes' if verdict.linear else 'no'}"]
    if verdict.certificate is not None:
        w = verdict.certificate
        cert = {
            "first": sorted(c.vertices.names[v] for v in w.first),
            "second": sorted(c.vertices.names[v] for v in w.second),
            "parts": list(w.parts),
            "side": w.side,
        }
        lines.append(
            f"certificate: restrict to {c.vertices.label(w.first)} u {c.vertices.label(w.second)}, "
            f"take the {w.side}, project onto parts {list(w.parts)}"
        )
    return {"verdict": verdict.linear, "certificate": cert}, lines


def _verify(c: Clutter, args) -> tuple[dict, list[str]]:
    checks = run_verification(c, args.field, max_vertices=args.max_vertices)
    skipped = sum(ch.ok is None for ch in checks)
    payload = {
        "ok": all(ch.ok is not False for ch in checks),
        "checks": [{"name": ch.name, "ok": ch.ok, "detail": ch.detail} for ch in checks],
    }
    lines = [
        f"{'skip' if ch.ok is None else 'ok  ' if ch.ok else 'FAIL'} {ch.name}"
        + (f" ({ch.detail})" if ch.detail else "")
        for ch in checks
    ]
    if not payload["ok"]:
        lines.append("some checks FAILED")
    else:
        lines.append(f"no check failed, {skipped} skipped" if skipped else "all checks passed")
    return payload, lines


# (name, help, handler, extra options as (flag, add_argument keywords)); each
# handler returns the JSON payload and the text lines of its subcommand
_COMMANDS = (
    ("dual", "generators of the Alexander dual (cover ideal)", _dual, ()),
    ("complement", "the d-partite complement, as an instance", _complement, ()),
    ("covers", "minimal vertex covers", _covers, ()),
    (
        "betti",
        "graded Betti numbers of the edge ideal",
        _betti,
        (("--degree-cap", dict(type=int, default=None, help="only multidegrees up to this size")),),
    ),
    (
        "strand",
        "first linear strand of the edge ideal",
        _strand,
        (("--matrices", dict(action="store_true", help="also print bases and differential entries")),),
    ),
    ("lyubeznik", "last Lyubeznik column of the cover ideal's quotient", _lyubeznik, ()),
    ("linear", "linear-resolution verdict with certificate", _linear, ()),
    ("verify", "run the instance cross-check suite", _verify, ()),
)


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("instance", help="path to a JSON instance file")
    common.add_argument("--field", type=_field_arg, default=QQ, help="q (default) or fp:<prime>")
    common.add_argument("--format", choices=("text", "json"), default="text")
    common.add_argument("--max-vertices", type=int, default=DEFAULT_MAX_VERTICES)
    p = argparse.ArgumentParser(prog="linstrand", description=__doc__.splitlines()[0])
    sub = p.add_subparsers(dest="command", required=True)
    for name, help_text, handler, options in _COMMANDS:
        command = sub.add_parser(name, parents=[common], help=help_text)
        for flag, keywords in options:
            command.add_argument(flag, **keywords)
        command.set_defaults(handler=handler)
    return p


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        c = load_instance(args.instance)
        # handlers still pass max_vertices on, so a raised limit reaches the library
        check_vertex_guard(c.n, args.max_vertices)
        payload, lines = args.handler(c, args)
    except SizeGuardError as e:
        print(f"error: {e}", file=sys.stderr)
        return 3
    except ConsistencyError as e:
        print(f"internal consistency failure: {e}", file=sys.stderr)
        return 1
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    if args.format == "json":
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for line in lines:
            print(line)
    # only verify's payload carries a verdict; a failed check exits 1
    return 1 if payload.get("ok") is False else 0
