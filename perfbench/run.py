"""Membership benchmark for mttkit.

    python3 perfbench/run.py --workload small-batch --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout: mttkit is imported from ./src.
The harness generates the workload's queries from the seed, with
reference verdicts that do not come from the engine under test (see
workloads.py), then measures them in a fresh worker process: one caller
in a closed loop, each verdict starting when the previous one returned,
repeating passes over the fixed query set for --seconds.  Every verdict
is checked.

With --trace 0 the last line of output is a JSON object holding the
end-to-end metrics (setup_s, wall_s, verdict_p50_ms, verdict_p90_ms,
peak_rss_mb); with --trace 1 it holds the per-layer metrics of a traced
run, whose spans are written to perfbench/out/.  The lines before it are
a readable report, including failed_ratio, the per-layer table and the
fitted size exponent of each swept family.

Times are scaled by a calibration loop timed around the work (see
worker.Speed), so that the drifting speed of a shared host cancels out;
the report also prints the unscaled wall_s.  io_membership.core_ms
covers both engines of that module, member_io and member_det.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import subprocess
import sys
import threading
import time
from pathlib import Path
from statistics import median, quantiles

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_SECONDS = 3.0    # fresh processes are started until this much time is spent
SETUP_PROBES = (5, 30)  # but at least 5 and at most 30 of them
WORKER_GRACE_S = 120   # a worker may overrun --seconds by its last pass

# per-layer metrics present on every workload, reported in the JSON line
PER_LAYER = {
    "dsl.parse_transducer_ms": "ms",
    "trees.parse_term_ms": "ms",
    "trees.parse_term_nodes": "count",
    "trees.build_dag_ms": "ms",
    "trees.tree_nodes": "count",
    "trees.dag_nodes": "count",
    "trees.dag_sharing": "ratio",
    "mtt.validate_ms": "ms",
    "mtt.validate_calls": "count",
    "oracle.check_input_tree_ms": "ms",
    "engines.core_ms": "ms",
    "engines.entries": "count",
    "trace.overhead": "ratio",
}

# engine layers, printed in the readable table where the workload uses them
ENGINE_LAYERS = (
    "tac.run_tac_ms", "tac.member_io_tac_ms", "tac.core_ms", "tac.entries",
    "io_membership.member_io_ms", "io_membership.core_ms",
    "io_membership.entries", "io_membership.member_det_ms",
    "oi_fc.member_oi_fc_ms", "oi_fc.core_ms", "oi_fc.entries",
    "multi_return.member_mr_io_ms", "multi_return.core_ms",
    "multi_return.entries", "multi_return.max_envs",
)


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("small-batch", "nondet-io", "copy-oi", "large-input"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", type=float, default=1.0,
                    help="shrink the query set (below 1: tiny sizes, for smoke.py)")
    return ap.parse_args(argv)


def spawn_worker(job: dict, timeout: float):
    """Run worker.py on the job; returns (seconds until `ready`, result line)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(HERE / "worker.py")],
                            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                            env=env, text=True)
    watchdog = threading.Timer(timeout, proc.kill)
    watchdog.start()
    try:
        proc.stdin.write(json.dumps(job))
        proc.stdin.close()
        ready = proc.stdout.readline()
        ready_s = time.perf_counter() - start
        rest = proc.stdout.read()
    except BaseException:
        proc.kill()
        raise
    finally:
        watchdog.cancel()
        proc.wait()
        proc.stdout.close()
    if proc.returncode != 0 or ready.strip() != "ready":
        raise RuntimeError(f"worker failed with exit code {proc.returncode}")
    return ready_s, (json.loads(rest.strip().splitlines()[-1]) if rest.strip() else None)


def loglog_slope(points):
    """Least-squares slope of log(y) against log(x), in closed form."""
    xs = [math.log(x) for x, _ in points]
    ys = [math.log(max(y, 1e-9)) for _, y in points]
    mx, my = sum(xs) / len(xs), sum(ys) / len(ys)
    sxx = sum((x - mx) ** 2 for x in xs)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sxx


def size_exponents(queries, times):
    """Per swept family: [(n values), slope of median verdict time vs n]."""
    by_family: dict[str, dict[int, list[float]]] = {}
    for q, ts in zip(queries, times):
        if q["n"] > 0 and ts:
            by_family.setdefault(q["family"], {}).setdefault(q["n"], []).append(median(ts))
    out = {}
    for fam, rows in by_family.items():
        if len(rows) >= 2:
            pts = sorted((n, median(v)) for n, v in rows.items())
            out[fam] = (pts[0][0], pts[-1][0], loglog_slope(pts))
    return out


def metric(value, unit):
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "mttkit" / "__init__.py").is_file():
        print(f"error: no mttkit source under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from worker import Speed
    from workloads import GENERATORS

    wl = GENERATORS[args.workload](args.seed, args.scale)
    queries = [q.to_json() for q in wl.queries]
    n_yes = sum(q["want"] for q in queries)
    print(f"workload {wl.name}, seed {args.seed}: {len(queries)} queries "
          f"({n_yes} yes, {len(queries) - n_yes} no), {len(wl.transducers)} "
          f"transducers, {wl.dropped} pairs dropped over the oracle budget; "
          f"closed loop, 1 caller")

    job = {"src": str(SRC), "transducers": wl.transducers}
    setups = []
    if not args.trace:
        speed = Speed()
        begin = time.perf_counter()
        while len(setups) < SETUP_PROBES[1] and (
                len(setups) < SETUP_PROBES[0]
                or time.perf_counter() - begin < SETUP_SECONDS):
            mark = speed.mark()
            speed.sample()
            ready_s, _ = spawn_worker(dict(job, setup_only=True), WORKER_GRACE_S)
            speed.sample()
            setups.append(ready_s * speed.factor(mark))

    trace_path = HERE / "out" / f"trace-{wl.name}-seed{args.seed}.json"
    job.update(queries=queries, parse_in_verdict=wl.parse_in_verdict,
               seconds=args.seconds, trace=bool(args.trace),
               trace_path=str(trace_path))
    _, res = spawn_worker(job, args.seconds + WORKER_GRACE_S)

    attempted = res["attempted"]
    failed = len(res["failures"])
    for f in res["failures"][:10]:
        q = queries[f["query"]]
        print(f"FAILED query {f['query']} ({q['engine']} on {q['m']}): "
              f"want {f['want']}, got {f['got']}")
    walls = [w * f for w, f in zip(res["walls"], res["factors"])]
    times = [[x * f for x, f in zip(ts, res["factors"])] for ts in res["times"]]
    all_times = [x for ts in times for x in ts]
    print(f"{len(walls)} untraced passes, {attempted} verdicts, {failed} failed: "
          f"failed_ratio {failed / attempted:.6g}; times scaled by a median "
          f"calibration factor of {median(res['factors']):.4g} (raw wall_s "
          f"{median(res['walls']):.6g} s)")

    if args.trace:
        metrics = per_layer_report(res, walls)
    else:
        p90 = quantiles(all_times, n=10)[-1]
        metrics = {
            "setup_s": metric(median(setups), "s"),
            "wall_s": metric(median(walls), "s"),
            "verdict_p50_ms": metric(median(all_times), "ms"),
            "verdict_p90_ms": metric(p90, "ms"),
            "peak_rss_mb": metric(res["peak_rss_mb"], "MB"),
        }
        beyond = sum(1 for x in all_times if x > p90)
        notes = {
            "setup_s": f"median of {len(setups)} fresh processes",
            "wall_s": f"median of {len(walls)} passes",
            "verdict_p50_ms": f"{len(all_times)} samples",
            "verdict_p90_ms": f"{len(all_times)} samples, {beyond} beyond",
            "peak_rss_mb": "worker process",
        }
        for name, m in metrics.items():
            print(f"  {name:<16} {m['value']:>12.6g} {m['unit']:<3}  ({notes[name]})")
        print(f"  {'failed_ratio':<16} {failed / attempted:>12.6g}      "
              f"({failed} of {attempted})")
        for fam, (lo, hi, slope) in sorted(size_exponents(queries, times).items()):
            print(f"  size exponent {fam:<16} {slope:6.2f}  (n {lo}..{hi}, informational)")

    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def per_layer_report(res, walls) -> dict:
    """Print the per-layer table; return the PER_LAYER metrics."""
    layers, counts = res["layers"], res["counts"]
    values = {name + "_ms": ms for name, ms in layers.items()}
    for layer, n in counts["entries"].items():
        values[layer + ".entries"] = n
    if "multi_return.member_mr_io_ms" in values:
        values["multi_return.max_envs"] = counts["max_envs"]
    values.update({
        "trees.parse_term_nodes": counts["parse_nodes"],
        "trees.tree_nodes": counts["tree_nodes"],
        "trees.dag_nodes": counts["dag_nodes"],
        "trees.dag_sharing": counts["dag_nodes"] / counts["tree_nodes"],
        "mtt.validate_calls": counts["validate_calls"],
        "engines.core_ms": sum(ms for k, ms in values.items() if k.endswith(".core_ms")),
        "engines.entries": sum(counts["entries"].values()),
        "trace.overhead": median(w * f for w, f in zip(res["traced_walls"],
                                                        res["traced_factors"]))
                          / median(walls),
    })
    print(f"per-layer, per pass over the query set (median of "
          f"{len(res['traced_walls'])} traced passes):")
    for name in list(PER_LAYER) + list(ENGINE_LAYERS):
        shown = f"{values[name]:>12.6g}" if name in values else f"{'-':>12}"
        print(f"  {name:<30} {shown}")
    print(f"tracing overhead: traced / untraced wall_s = "
          f"{values['trace.overhead']:.4g}")
    return {name: metric(values[name], unit) for name, unit in PER_LAYER.items()}


if __name__ == "__main__":
    sys.exit(main())
