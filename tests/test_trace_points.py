"""The names the benchmark's tracer and cache warm-up look up in srsub.

`perfbench/tracer.py` wraps functions at the module attributes their callers
resolve, and `perfbench/workloads.py` fills the enumeration caches through
module attributes.  A rename inside srsub would break a traced benchmark run
without failing any other test, so the names are checked here.
"""

import ast
import importlib
import inspect
from pathlib import Path

import pytest

from srsub.grammar import GrammarBudget

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _trace_points() -> tuple:
    tree = ast.parse(TRACER.read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "TRACE_POINTS" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no TRACE_POINTS in {TRACER}")


@pytest.mark.parametrize("module, attr, span", _trace_points())
def test_trace_point_resolves(module, attr, span):
    assert callable(getattr(importlib.import_module(f"srsub.{module}"), attr))


def test_cache_fill_names_resolve():
    from srsub import regress, substitution

    assert callable(substitution.input_candidate_dags)
    assert callable(substitution.outinput_candidate_dags)
    inspect.signature(regress._skeletons).bind(2, GrammarBudget(), 10)
    spec = regress.RegressorSpec(kind="dagsearch")
    assert spec.kind == "dagsearch"
    assert isinstance(spec.max_intermediary_nodes, int)
    assert isinstance(spec.max_skeletons, int)
