"""Timing harness: rows, skip notes, power-law fit."""

import pytest

from mttkit.bench import (BenchRow, FAMILIES, bench_family, fit_power_law,
                          time_member_io)
from mttkit import App, Budget, bench, member_io, oracle_eval
from mttkit.families import (copyfree_instance, copyfree_mtt, fan_instance,
                             fan_mtt)


def test_family_list():
    assert FAMILIES == ("double", "copyfree", "fan")
    with pytest.raises(ValueError):
        bench_family("nope", [1])


def test_double_rows_skip_huge_instances():
    rows = bench_family("double", [1, 2, 3, 4], repeats=1)
    assert [r.n for r in rows] == [1, 2, 3, 4]
    assert rows[0].seconds > 0 and rows[1].seconds > 0
    for r in rows[2:]:
        assert r.seconds is None and "skipped" in r.note


def test_copyfree_rows():
    rows = bench_family("copyfree", [2, 4, 8], repeats=1)
    for r in rows:
        assert r.seconds > 0
        s, t = copyfree_instance(r.n)
        assert (r.s_size, r.t_size) == (s.size, t.size)
    assert rows[0].s_size < rows[-1].s_size


def test_fan_rows():
    rows = bench_family("fan", [3, 6], repeats=1)
    for r in rows:
        assert r.seconds > 0
        s, t = fan_instance(r.n)
        assert (r.s_size, r.t_size) == (s.size, t.size) == (r.n + 1, 2 * r.n + 2)
    # the untimed first query's memo entries
    assert [r.entries for r in rows] == [18, 98]


def test_fan_instance_is_a_member_from_three_on():
    for n in range(1, 7):
        s, t = fan_instance(n)
        out = oracle_eval(fan_mtt(), "io", App("q0", s), Budget())
        assert (t in out) is (n >= 3) is member_io(fan_mtt(), s, t)


def test_time_member_io_positive():
    m = copyfree_mtt()
    s, t = copyfree_instance(3)
    assert time_member_io(m, s, t, repeats=2) > 0


def test_time_member_io_times_prepared_verdicts_only(monkeypatch):
    # one untimed verdict first, then one per repeat
    calls = []
    monkeypatch.setattr(bench, "member_io", lambda *args: calls.append(args))
    m = copyfree_mtt()
    s, t = copyfree_instance(3)
    for repeats in (1, 3):
        calls.clear()
        time_member_io(m, s, t, repeats=repeats)
        assert calls == [(m, s, t)] * (repeats + 1)


def test_fit_power_law():
    rows = [BenchRow(n, n, n, float(n) ** 2) for n in (10, 20, 40, 80)]
    slope = fit_power_law(rows)
    assert abs(slope - 2.0) < 1e-6
    # skipped rows are ignored, and one point is not a fit
    rows[1:] = [BenchRow(999, None, None, None, note="skipped")]
    assert fit_power_law(rows) is None
    assert fit_power_law([]) is None
