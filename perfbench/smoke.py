"""Self-check of the benchmark harness at tiny sizes; takes seconds.

    python3 perfbench/smoke.py

For every workload and both trace modes it runs run.py on a tiny query
set and checks that the last line is the result object with every
metric BENCHMARK.json names, in its unit, and that no verdict failed.
It then feeds the worker a query whose reference verdict is flipped, to
show that every verdict is checked, and runs the benchmark in a
directory that holds only BENCHMARK.json and perfbench/, where it must
fail without printing a result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args],
                          cwd=cwd, capture_output=True, text=True, timeout=120)


def check_runs(spec: dict) -> None:
    for trace, group in ((0, "end_to_end"), (1, "per_layer")):
        want = {m["name"]: m["unit"] for m in spec[group]}
        for wl in spec["workloads"]:
            p = run(ROOT, "--workload", wl["name"], "--seed", "7", "--seconds",
                    "0.5", "--trace", str(trace), "--scale", "0.1")
            assert p.returncode == 0, p.stderr
            res = json.loads(p.stdout.strip().splitlines()[-1])
            assert set(res) == {"correct", "attempted", "failed", "metrics"}, res
            assert res["correct"] and res["failed"] == 0, p.stdout
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            assert got == want, (wl["name"], trace, got)
            assert all(isinstance(v["value"], (int, float))
                       for v in res["metrics"].values())
            n_queries = int(p.stdout.split(" queries")[0].rsplit(" ", 1)[1])
            assert res["attempted"] >= n_queries, (res["attempted"], n_queries)
            print(f"ok  {wl['name']:<12} trace {trace}: {res['attempted']} "
                  f"verdicts checked")


def check_wrong_reference_is_caught() -> None:
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    from run import SRC, spawn_worker
    from workloads import nondet_io

    wl = nondet_io(7, 0.1)
    queries = [q.to_json() for q in wl.queries]
    queries[0]["want"] = not queries[0]["want"]
    _, res = spawn_worker({"src": str(SRC), "transducers": wl.transducers,
                           "queries": queries, "parse_in_verdict": False,
                           "seconds": 0.5, "trace": False}, 60)
    passes = len(res["walls"])
    assert len(res["failures"]) == passes, (res["failures"], passes)
    assert {f["query"] for f in res["failures"]} == {0}
    print(f"ok  a flipped reference fails once in each of {passes} passes")


def check_bare_directory() -> None:
    bare = HERE / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        p = run(bare, "--workload", "small-batch", "--seed", "1",
                "--seconds", "1", "--trace", "0")
    finally:
        shutil.rmtree(bare)
    assert p.returncode != 0 and '"metrics"' not in p.stdout, p.stdout
    print(f"ok  without the source tree: exit {p.returncode}, no result")


def main() -> int:
    start = time.perf_counter()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    check_runs(spec)
    check_wrong_reference_is_caught()
    check_bare_directory()
    print(f"smoke passed in {time.perf_counter() - start:.1f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
