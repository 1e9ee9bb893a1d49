"""The benchmark's query sets, built small, get their reference verdicts.

The claimed workloads' families then fail here, in the test suite, and
not only when the benchmark is next run.  perfbench/workloads.py is
loaded from its file; nothing there changes.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

from mttkit import ENGINES, NO, YES, parse_term, parse_transducer

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _workloads():
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", PERFBENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up while they are made
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name, engines", [
    pytest.param(name, engines, id=name) for name, engines in [
        ("small_batch", {"io", "det", "oi-fc", "io-tac", "mr-io"}),
        ("nondet_io", {"io", "mr-io"}),
        ("copy_oi", {"oi-fc"}),
        ("large_input", {"io", "det", "io-tac"}),
    ]
])
def test_workload_verdicts_match_their_references(name, engines):
    w = getattr(_workloads(), name)(7, 0.1)
    models = {key: parse_transducer(text) for key, text in w.transducers.items()}
    wrong = []
    for q in w.queries:
        got = ENGINES[q.engine].decide(models[q.m], parse_term(q.s),
                                       parse_term(q.t), c=q.c)
        if got != (YES if q.want else NO):
            wrong.append((q.family, q.n, q.engine, q.want))
    assert {q.engine for q in w.queries} == engines
    assert len(w.queries) > 20 and wrong == []
