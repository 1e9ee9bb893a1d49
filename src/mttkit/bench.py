"""Timing for the call-by-value membership engine on instance families
whose input and output sizes are controlled by one parameter."""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

from .families import (copyfree_instance, copyfree_mtt, double_instance,
                       double_mtt, fan_instance, fan_mtt)
from .io_membership import member_io
from .mtt import Mtt
from .trees import Tree

# family -> (transducer, instance of size n)
_FAMILIES = {
    "double": (double_mtt, double_instance),
    "copyfree": (copyfree_mtt, copyfree_instance),
    "fan": (fan_mtt, fan_instance),
}
FAMILIES = tuple(_FAMILIES)


@dataclass
class BenchRow:
    n: int
    s_size: int | None
    t_size: int | None
    seconds: float | None
    note: str = ""


def time_member_io(m: Mtt, s: Tree, t: Tree, repeats: int = 3) -> float:
    """Best-of-N wall time of one membership query, in seconds.  One
    untimed query runs first, so that generating m's functions and its
    copy analysis is not timed."""
    member_io(m, s, t)
    best = math.inf
    for _ in range(max(1, repeats)):
        t0 = time.perf_counter()
        member_io(m, s, t)
        best = min(best, time.perf_counter() - t0)
    return best


def bench_family(family: str, ns, repeats: int = 3) -> list[BenchRow]:
    """One row per n; rows whose instances would be astronomically large
    are skipped with a note instead of timed."""
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}, choose from {FAMILIES}")
    make_mtt, instance = _FAMILIES[family]
    m = make_mtt()
    rows: list[BenchRow] = []
    for n in ns:
        if family == "double" and n >= 3:
            rows.append(BenchRow(
                n, None, None, None,
                note=f"skipped: output size is 2^(2^{n})-scale"))
            continue
        s, t = instance(n)
        rows.append(BenchRow(n, s.size, t.size,
                             time_member_io(m, s, t, repeats)))
    return rows


def fit_power_law(rows) -> float | None:
    """Least-squares slope of log(time) against log(n) over timed rows,
    in closed form; None when fewer than two distinct sizes were timed."""
    pts = [(r.n, r.seconds) for r in rows if r.seconds]
    if len({n for n, _ in pts}) < 2:
        return None
    xs = [math.log(n) for n, _ in pts]
    ys = [math.log(max(sec, 1e-9)) for _, sec in pts]
    mx, my = sum(xs) / len(xs), sum(ys) / len(ys)
    return (sum((x - mx) * (y - my) for x, y in zip(xs, ys))
            / sum((x - mx) ** 2 for x in xs))
