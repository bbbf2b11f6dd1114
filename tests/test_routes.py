"""Internal routes build no Matrix, and the Hochster oracle stays apart from
the routes it checks.

Matrix and ChainComplex are made only for callers that ask for one; the
oracle, the relative pair and verify_support work on rows and sets of their
own.  The oracle's imports are read from its source, so the one duplication
the package keeps on purpose (the oracle shares nothing with the strand and
pair route but exact rank) cannot erode unnoticed."""

import ast
from pathlib import Path

import pytest

from linstrand import (
    QQ,
    betti_table,
    cross_check_betti,
    edge_ideal,
    first_linear_strand,
    gf,
    linalg,
    linear_strand_betti,
    multigraded_betti,
    strand_support_pair,
    verify_support,
)

from helpers import six_of_eight_transversals

HOCHSTER = Path(__file__).resolve().parent.parent / "src" / "linstrand" / "hochster.py"


ROUTES = {
    "linear_strand_betti": lambda c, f: linear_strand_betti(edge_ideal(c), f),
    "betti_table": lambda c, f: betti_table(edge_ideal(c), f),
    "multigraded_betti": lambda c, f: multigraded_betti(edge_ideal(c), 1, frozenset(range(c.n)), f),
    "cross_check_betti": lambda c, f: cross_check_betti(c, f).ok,
    "verify_support": lambda c, f: verify_support(first_linear_strand(c), strand_support_pair(c)).ok,
}


@pytest.mark.parametrize("f", [QQ, gf(3)], ids=str)
@pytest.mark.parametrize("route", ROUTES)
def test_internal_routes_build_no_matrix(monkeypatch, route, f):
    def refuse(self):
        raise AssertionError("a Matrix was built")

    monkeypatch.setattr(linalg.Matrix, "__post_init__", refuse)
    assert ROUTES[route](six_of_eight_transversals(), f) is not False


def _imports(path):
    """(module, names) for every import statement; names is None for a
    plain `import module`."""
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom):
            yield "." * node.level + (node.module or ""), {a.name for a in node.names}
        elif isinstance(node, ast.Import):
            for a in node.names:
                yield a.name, None


@pytest.mark.parametrize("route", ["strand", "simplicial", "lyubeznik"])
def test_oracle_imports_nothing_from_the_routes_it_checks(route):
    for module, _ in _imports(HOCHSTER):
        assert module.rsplit(".", 1)[-1] != route, module


def test_oracle_takes_only_exact_rank_from_linalg():
    taken = [names for module, names in _imports(HOCHSTER) if module.rsplit(".", 1)[-1] == "linalg"]
    assert taken == [{"Field", "QQ", "_eliminate"}]
