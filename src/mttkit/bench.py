"""Timing for the call-by-value membership engine on the copyfree and
fan families, whose input and output sizes grow with one parameter n."""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

from .families import copyfree_instance, copyfree_mtt, fan_instance, fan_mtt
from .io_membership import member_io
from .mtt import Mtt
from .trees import Tree

# family -> (transducer, instance of size n)
_FAMILIES = {
    "copyfree": (copyfree_mtt, copyfree_instance),
    "fan": (fan_mtt, fan_instance),
}
FAMILIES = tuple(_FAMILIES)


@dataclass
class BenchRow:
    n: int
    s_size: int
    t_size: int
    seconds: float
    entries: int | None = None  # the untimed query's memo entries


def time_member_io(m: Mtt, s: Tree, t: Tree, repeats: int = 3,
                   stats: dict | None = None) -> float:
    """Best-of-N wall time of one membership query, in seconds.  One
    untimed query runs first, so that generating m's functions and its
    copy analysis is not timed; it fills stats, if given."""
    member_io(m, s, t, stats)
    best = math.inf
    for _ in range(max(1, repeats)):
        t0 = time.perf_counter()
        member_io(m, s, t)
        best = min(best, time.perf_counter() - t0)
    return best


def bench_family(family: str, ns, repeats: int = 3) -> list[BenchRow]:
    """One row per n: the sizes of family's instance of size n, the
    best of repeats timed verdicts, and the untimed verdict's entries."""
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}, choose from {FAMILIES}")
    make_mtt, instance = _FAMILIES[family]
    m = make_mtt()
    rows: list[BenchRow] = []
    for n in ns:
        s, t = instance(n)
        stats: dict = {}
        seconds = time_member_io(m, s, t, repeats, stats)
        rows.append(BenchRow(n, s.size, t.size, seconds,
                             entries=stats["entries"]))
    return rows


def fit_power_law(rows) -> float | None:
    """Least-squares slope of log(time) against log(n) over the rows,
    in closed form; None when they have fewer than two distinct sizes."""
    pts = [(r.n, r.seconds) for r in rows]
    if len({n for n, _ in pts}) < 2:
        return None
    xs = [math.log(n) for n, _ in pts]
    ys = [math.log(max(sec, 1e-9)) for _, sec in pts]
    mx, my = sum(xs) / len(xs), sum(ys) / len(ys)
    return (sum((x - mx) * (y - my) for x, y in zip(xs, ys))
            / sum((x - mx) ** 2 for x in xs))
