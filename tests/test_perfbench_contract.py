"""The benchmark's uses of mttkit still resolve.

perfbench/ imports names from the package and builds models by
position; a simplification that drops or renames one, or reorders a
model's fields, would break the benchmark only when it is next run.
These tests read the benchmark's sources and change nothing there.
"""

import ast
import inspect
from pathlib import Path

import mttkit

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _mttkit_imports() -> set[str]:
    names = set()
    for path in sorted(PERFBENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ImportFrom) and node.module == "mttkit":
                names.update(alias.name for alias in node.names)
    return names


def test_perfbench_imports_resolve_on_mttkit():
    names = _mttkit_imports()
    assert "member_io" in names  # the scan found the benchmark's imports
    assert sorted(n for n in names if not hasattr(mttkit, n)) == []


MODELS = ("Mtt", "TacMtt", "MrMtt")


def test_perfbench_model_calls_match_init_parameters():
    path = PERFBENCH / "workloads.py"
    calls = [node for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
             and node.func.id in MODELS]
    assert {call.func.id for call in calls} == set(MODELS)
    for call in calls:
        where = f"{path.name}:{call.lineno}"
        assert not any(isinstance(a, ast.Starred) for a in call.args), where
        assert all(k.arg is not None for k in call.keywords), where
        sig = inspect.signature(getattr(mttkit, call.func.id))
        # binds exactly when the call's positions and keywords fit
        sig.bind(*call.args, **{k.arg: k.value for k in call.keywords})


def test_perfbench_engine_calls_match_engine_parameters():
    # worker.py's engine table calls each engine with positions and
    # keywords of its own; each call must bind to the engine's signature
    path = PERFBENCH / "worker.py"
    tree = ast.parse(path.read_text(), str(path))
    (table,) = [node.value for node in ast.walk(tree)
                if isinstance(node, ast.Assign)
                and [getattr(t, "id", None) for t in node.targets] == ["engines"]]
    assert isinstance(table, ast.Dict)
    calls = [node for value in table.values for node in ast.walk(value)
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
             and node.func.id.startswith("member_")]
    assert len(calls) == len(table.values) == 5
    for call in calls:
        where = f"{path.name}:{call.lineno}"
        assert not any(isinstance(a, ast.Starred) for a in call.args), where
        assert all(k.arg is not None for k in call.keywords), where
        sig = inspect.signature(getattr(mttkit, call.func.id))
        sig.bind(*call.args, **{k.arg: k.value for k in call.keywords})
