"""The engine table: its rows are `mttkit member`'s engines, each
answers a verdict, and each bound reaches the engines that read it."""

import argparse

import pytest

from mttkit import ENGINES, NO, UNKNOWN, YES, Budget, MrMtt, Mtt, TacMtt, parse_term
from mttkit.cli import build_parser

from helpers import mirror_engines

S = parse_term("p(p(e,e),e)")
T = parse_term("f(f(e,e),e)")


def test_the_rows_are_the_member_engines():
    (sub,) = [a for a in build_parser()._actions
              if isinstance(a, argparse._SubParsersAction)]
    (engine,) = [a for a in sub.choices["member"]._actions
                 if a.dest == "engine"]
    assert list(engine.choices) == list(ENGINES)
    assert list(ENGINES) == ["io", "oi-fc", "io-tac", "mr-io", "det", "oracle"]
    assert {e.kind for e in ENGINES.values()} == {Mtt, TacMtt, MrMtt}


@pytest.mark.parametrize("name", ENGINES)
def test_each_row_answers_yes_or_no(name):
    run = mirror_engines(oracle=True)[name]
    stats = {}
    assert run(S, T, stats) == YES
    assert stats["s_size"] == 5 and stats["t_size"] == 5
    assert run(S, parse_term("f(e,f(e,e))")) == NO


# a value each bound's readers refuse, and the rows that read it
@pytest.mark.parametrize("bound, value, readers", [
    ("c", True, {"oi-fc"}),
    ("env_cap", 0, {"mr-io"}),
    ("mode", "xx", {"det", "oracle"}),
], ids=lambda v: v if isinstance(v, str) else None)
def test_a_bound_reaches_the_rows_that_read_it(bound, value, readers):
    for name, run in mirror_engines(oracle=True).items():
        if name in readers:
            with pytest.raises(ValueError):
                run(S, T, **{bound: value})
        else:
            assert run(S, T, **{bound: value}) == YES, name


def test_the_budget_reaches_the_oracle_alone():
    for name, run in mirror_engines(oracle=True).items():
        want = UNKNOWN if name == "oracle" else YES
        assert run(S, T, budget=Budget(max_steps=1)) == want, name


@pytest.mark.parametrize("name", ENGINES)
def test_a_misspelled_bound_is_refused(name):
    run = mirror_engines(oracle=True)[name]
    for typo in ("copy_bound", "env_caps", "budgets"):
        with pytest.raises(TypeError, match=typo):
            run(S, T, **{typo: 1})


def test_stats_keys_do_not_depend_on_the_candidates_alphabet():
    # a candidate outside the output alphabet is a "no" found before the
    # demand, and its stats carry the same keys, sizes first
    for name, run in mirror_engines().items():
        keys = []
        for text, want in (("f(f(e,e),e)", YES), ("f(e,f(e,e))", NO),
                           ("f(f(e,z),e)", NO), ("f(f(e,g(e)),e)", NO)):
            stats = {}
            assert run(S, parse_term(text), stats) == want, name
            keys.append(list(stats))
        assert keys[0] == keys[1] == keys[2] == keys[3], name
        assert stats["t_size"] == 6 and stats["t_dag_nodes"] == 4, name
        assert stats["entries"] == stats["images"] == 0, name


def test_the_oracle_counts_its_steps_on_every_candidate():
    # a candidate outside the output alphabet is a "no" before any step,
    # and its stats still carry the step count
    run = mirror_engines(oracle=True)["oracle"]
    keys = []
    for text, want in (("f(f(e,e),e)", YES), ("f(e,f(e,e))", NO),
                       ("f(f(e,z),e)", NO), ("f(f(e,g(e)),e)", NO)):
        stats = {}
        assert run(S, parse_term(text), stats) == want
        keys.append(list(stats))
    assert keys[0] == keys[1] == keys[2] == keys[3] == ["s_size", "t_size",
                                                        "steps"]
    assert stats["steps"] == 0
