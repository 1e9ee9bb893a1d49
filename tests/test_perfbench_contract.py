"""The benchmark's imports from mttkit still resolve.

perfbench/ imports names from the package; a simplification that drops
or renames one would break the benchmark only when it is next run.
This test reads the benchmark's sources and changes nothing there.
"""

import ast
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
