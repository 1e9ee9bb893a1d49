"""Measurement process of the membership benchmark.

Reads one job (JSON) from stdin, imports mttkit, loads the job's
transducers from DSL text, prints `ready`, and with `setup_only` stops
there.  Otherwise it runs passes over the job's query set, one verdict
at a time (a closed loop with a single caller), until the job's seconds
are used up, checks every verdict against the reference, and prints one
JSON line with the timings.

With `trace` set, untraced and traced passes alternate.  A traced pass
records spans (name, start, end, parent, query id) around each public
call and, after the engine call, times a separate call of each layer the
engine runs inside itself (validation, the input-alphabet check, DAG
construction of s and t, the look-ahead run) on the same inputs.  An
engine's core time is its span minus those separate calls.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path
from statistics import median

# the engine each query names, and the span its call is recorded under
ENGINE_SPANS = {
    "io": "io_membership.member_io",
    "det": "io_membership.member_det",
    "oi-fc": "oi_fc.member_oi_fc",
    "io-tac": "tac.member_io_tac",
    "mr-io": "multi_return.member_mr_io",
}
# layers timed by separate calls, subtracted from the engine span for core time
INNER_LAYERS = ("mtt.validate", "oracle.check_input_tree", "trees.build_dag",
                "tac.run_tac")

# The speed of a shared host drifts by a quarter or more within seconds.
# A fixed loop is therefore timed every SAMPLE_EVERY_S between verdicts,
# and the times of a pass are scaled by CAL_REF_S / (median loop time
# during the pass): they read as seconds on a machine where the loop
# takes CAL_REF_S.
CAL_REF_S = 0.004
SAMPLE_EVERY_S = 0.1


def _calibration_loop() -> int:
    # dict, tuple and set work, as in the engines' memo tables
    table: dict = {}
    seen = set()
    for i in range(5_000):
        key = (i & 255, i >> 8, "q")
        table[key] = table.get(key, 0) + 1
        seen.add(key[:2])
    return len(table) + len(seen)


class Speed:
    """Timings of the calibration loop, taken between units of work."""

    def __init__(self):
        self.samples: list[float] = []
        self._last = -float("inf")

    def sample(self) -> None:
        start = time.perf_counter()
        _calibration_loop()
        self._last = time.perf_counter()
        self.samples.append(self._last - start)

    def tick(self) -> None:
        """Sample if SAMPLE_EVERY_S has passed since the last sample."""
        if time.perf_counter() - self._last >= SAMPLE_EVERY_S:
            self.sample()

    def mark(self) -> int:
        """Start a window: take a sample and return its index."""
        self.sample()
        return len(self.samples) - 1

    def factor(self, mark: int) -> float:
        """Scale for work done since `mark`; closes the window with a sample."""
        self.sample()
        return CAL_REF_S / median(self.samples[mark:])


class Tracer:
    """Spans kept in memory: (name, start, end, parent index, query id, pass)."""

    def __init__(self):
        self.spans: list = []
        self._open: list[int] = []
        self.pass_no = -1

    def call(self, name: str, qid: int, fn, *args):
        i = len(self.spans)
        parent = self._open[-1] if self._open else -1
        self.spans.append(None)
        self._open.append(i)
        start = time.perf_counter()
        try:
            return fn(*args)
        finally:
            self.spans[i] = (name, start, time.perf_counter(), parent, qid,
                             self.pass_no)
            self._open.pop()

    def write(self, path: Path) -> None:
        names = sorted({s[0] for s in self.spans})
        index = {n: k for k, n in enumerate(names)}
        t0 = min((s[1] for s in self.spans), default=0.0)
        rows = [[index[n], round((a - t0) * 1e6, 1), round((b - t0) * 1e6, 1),
                 p, q, k] for n, a, b, p, q, k in self.spans]
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as f:
            json.dump({"columns": ["name", "start_us", "end_us", "parent",
                                   "query", "pass"],
                       "names": names, "spans": rows}, f, separators=(",", ":"))


def main() -> int:
    job = json.load(sys.stdin)
    import mttkit
    src = Path(job["src"]).resolve()
    if src not in Path(mttkit.__file__).resolve().parents:
        print(f"error: mttkit imported from {mttkit.__file__}, not {src}",
              file=sys.stderr)
        return 2
    from mttkit import (build_dag, check_input_tree, member_det, member_io,
                        member_io_tac, member_mr_io, member_oi_fc,
                        parse_term, parse_transducer, run_tac, validate,
                        validate_mr, validate_tac_mtt)

    tracer = Tracer() if job.get("trace") else None
    models = {}
    for key, text in job["transducers"].items():
        models[key] = (tracer.call("dsl.parse_transducer", -1, parse_transducer, text)
                       if tracer else parse_transducer(text))
    print("ready", flush=True)
    if job.get("setup_only"):
        return 0

    engines = {
        "io": lambda m, c, s, t, st: member_io(m, s, t, stats=st),
        "det": lambda m, c, s, t, st: member_det([m], "io", s, t),
        "oi-fc": lambda m, c, s, t, st: member_oi_fc(m, c, s, t, stats=st),
        "io-tac": lambda m, c, s, t, st: member_io_tac(m, s, t, stats=st),
        "mr-io": lambda m, c, s, t, st: member_mr_io(m, s, t, stats=st),
    }
    validators = {"io": validate, "det": validate, "oi-fc": validate,
                  "io-tac": validate_tac_mtt, "mr-io": validate_mr}
    queries = job["queries"]
    in_verdict = job["parse_in_verdict"]
    speed = Speed()
    parse_nodes = 0

    def parse(text, qid):
        nonlocal parse_nodes
        tr = (tracer.call("trees.parse_term", qid, parse_term, text)
              if tracer else parse_term(text))
        parse_nodes += tr.size
        return tr

    once_mark = speed.mark()
    plan = []
    for qid, q in enumerate(queries):
        s, t = ((q["s"], q["t"]) if in_verdict else
                (parse(q["s"], qid), parse(q["t"], qid)))
        plan.append((engines[q["engine"]], models[q["m"]], q["c"], s, t,
                     q["want"]))
    once_factor = speed.factor(once_mark)

    times = [[] for _ in queries]
    failures: list = []
    attempted = 0

    def verdict(qid, fn, m, c, s, t, want, stats):
        nonlocal attempted
        attempted += 1
        try:
            got = fn(m, c, s, t, stats)
        except Exception as e:  # a raised error is a failed verdict, not a crash
            got = f"{type(e).__name__}: {e}"
        if got is not want:
            failures.append({"query": qid, "want": want, "got": repr(got)[:200]})
        return got

    def untraced_pass() -> float:
        total = 0.0
        for qid, (fn, m, c, s, t, want) in enumerate(plan):
            start = time.perf_counter()
            if in_verdict:
                s, t = parse_term(s), parse_term(t)
            verdict(qid, fn, m, c, s, t, want, None)
            took = time.perf_counter() - start
            times[qid].append(took * 1e3)
            total += took
            speed.tick()
        return total

    counts = {"entries": {}, "max_envs": 0, "tree_nodes": 0, "dag_nodes": 0,
              "validate_calls": 0, "parse_nodes": parse_nodes}

    def traced_query(qid, fn, m, c, s, t, want, first):
        if in_verdict:
            s, t = parse(s, qid), parse(t, qid)
        engine = queries[qid]["engine"]
        stats = {}
        tracer.call(ENGINE_SPANS[engine], qid, verdict, qid, fn, m, c, s, t,
                    want, stats)
        tracer.call("mtt.validate", qid, validators[engine], m)
        tracer.call("oracle.check_input_tree", qid, check_input_tree, m, s)
        built = [tracer.call("trees.build_dag", qid, build_dag, x)
                 for x in ((s,) if engine == "det" else (s, t))]
        if engine == "io-tac":
            tracer.call("tac.run_tac", qid, run_tac, m.tac, *built[0])
        if first:
            layer = ENGINE_SPANS[engine].split(".")[0]
            counts["entries"][layer] = (counts["entries"].get(layer, 0)
                                        + stats.get("entries", 0))
            counts["max_envs"] = max(counts["max_envs"], stats.get("max_envs", 0))
            counts["validate_calls"] += 1
            for x, (dag, _) in zip((s, t), built):
                counts["tree_nodes"] += x.size
                counts["dag_nodes"] += dag.node_count()

    def traced_pass(first: bool) -> float:
        before = parse_nodes
        total = 0.0
        for qid, step in enumerate(plan):
            start = time.perf_counter()
            tracer.call("query", qid, traced_query, qid, *step, first)
            total += time.perf_counter() - start
            speed.tick()
        if first and in_verdict:
            counts["parse_nodes"] = parse_nodes - before
        return total

    # wall and calibration factor of each pass, untraced and traced
    walls: list[float] = []
    factors: list[float] = []
    traced_walls: list[float] = []
    traced_factors: list[float] = []
    begin = time.perf_counter()
    while True:
        traced = tracer is not None and len(traced_walls) < len(walls)
        start = time.perf_counter()
        mark = speed.mark()
        if traced:
            tracer.pass_no = len(traced_walls)
            traced_walls.append(traced_pass(not traced_walls))
            traced_factors.append(speed.factor(mark))
        else:
            walls.append(untraced_pass())
            factors.append(speed.factor(mark))
        last = time.perf_counter() - start
        if tracer and not traced_walls:
            continue
        if time.perf_counter() - begin + last > job["seconds"]:
            break

    out = {
        "walls": walls,
        "factors": factors,
        "times": times,
        "attempted": attempted,
        "failures": failures,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer:
        out["traced_walls"] = traced_walls
        out["traced_factors"] = traced_factors
        out["layers"] = layer_summary(tracer.spans, traced_factors, once_factor)
        out["counts"] = counts
        tracer.write(Path(job["trace_path"]))
    print(json.dumps(out))
    return 0


def layer_summary(spans, factors, once_factor) -> dict:
    """Milliseconds per layer per pass over the query set (median over the
    traced passes), plus each engine module's core time, each pass scaled
    by its calibration factor.

    Spans outside the passes (transducer loading, and parsing when it is
    not part of a verdict) happen once and are reported as they are.
    """
    once: dict[str, float] = {}
    per_pass = [dict() for _ in factors]
    inner: dict[tuple[int, int], float] = {}
    engine_of = {}
    for name, a, b, _, qid, p in spans:
        ms = (b - a) * 1e3
        bucket = once if p < 0 else per_pass[p]
        bucket[name] = bucket.get(name, 0.0) + ms
        if p >= 0 and name in INNER_LAYERS:
            inner[(p, qid)] = inner.get((p, qid), 0.0) + ms
        if p >= 0 and name in ENGINE_SPANS.values():
            engine_of[(p, qid)] = (name, ms)
    for (p, qid), (name, ms) in engine_of.items():
        core = name.split(".")[0] + ".core"
        per_pass[p][core] = per_pass[p].get(core, 0.0) + ms - inner.get((p, qid), 0.0)
    names = set(once)
    for d in per_pass:
        names.update(d)
    names.discard("query")
    return {name: once.get(name, 0.0) * once_factor
            + median(d.get(name, 0.0) * f for d, f in zip(per_pass, factors))
            for name in sorted(names)}


if __name__ == "__main__":
    sys.exit(main())
