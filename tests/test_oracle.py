"""Reference enumeration semantics: substitution, evaluation, membership."""

import random

import pytest

from mttkit import (
    App,
    ArityMismatch,
    Budget,
    BudgetExceeded,
    Con,
    Evaluator,
    NO,
    TreeSet,
    UNKNOWN,
    YES,
    format_term,
    io_subst,
    oi_subst,
    oracle_eval,
    oracle_member,
    parse_term,
)
from mttkit.errors import AlphabetMismatch
from mttkit.families import (copyfree_instance, copyfree_mtt, double_mtt,
                             doubling_mtt)

from helpers import all_inputs, random_mtt

L = [parse_term(x, None) for x in ("f(y1,y1)", "g(y1,y1)")]


def _texts(ts):
    return [format_term(t) for t in ts]


def test_io_substitution_of_l_into_l_lists_four_trees():
    got = io_subst(L, [set(L)])
    assert _texts(got) == [
        "f(f(y1,y1),f(y1,y1))",
        "f(g(y1,y1),g(y1,y1))",
        "g(f(y1,y1),f(y1,y1))",
        "g(g(y1,y1),g(y1,y1))",
    ]


def test_oi_substitution_of_l_into_l_lists_eight_trees():
    got = oi_subst(L, [set(L)])
    assert len(got) == 8
    # the four uniform trees plus every mixed-children combination
    assert set(got.items) > set(io_subst(L, [set(L)]).items)
    assert parse_term("f(f(y1,y1),g(y1,y1))", None) in got
    assert parse_term("g(g(y1,y1),f(y1,y1))", None) in got


def test_substitution_without_parameters_is_identity():
    t = parse_term("f(e,e)", None)
    assert io_subst(t, []) == {t}
    assert oi_subst(t, []) == {t}


def test_io_substitution_is_strict_oi_is_not():
    t = parse_term("c")
    # y1 never occurs in t, yet call-by-value demands a value for it
    assert len(io_subst(t, [set()])) == 0
    assert oi_subst(t, [set()]) == {t}
    dead = parse_term("f(c,y1)", None)
    assert len(oi_subst(dead, [set()])) == 0


def test_substitution_rejects_out_of_range_parameters():
    with pytest.raises(ArityMismatch):
        io_subst(parse_term("y2", None), [{parse_term("c")}])
    with pytest.raises(ArityMismatch):
        oi_subst(parse_term("y2", None), [{parse_term("c")}])


def test_double_family_output_counts():
    m = double_mtt()
    s1 = parse_term("a(e)")
    assert len(oracle_eval(m, "io", App("start", s1))) == 4
    assert len(oracle_eval(m, "oi", App("start", s1))) == 8
    s2 = parse_term("a(a(e))")
    assert len(oracle_eval(m, "io", App("start", s2))) == 16


def test_parameter_leaf_denotes_itself():
    m = double_mtt()
    y1 = parse_term("y1", None)
    assert oracle_eval(m, "io", y1) == {y1}
    assert oracle_eval(m, "oi", y1) == {y1}


def test_eval_handles_constructor_terms():
    m = double_mtt()
    e = parse_term("e")
    got = oracle_eval(m, "io", Con("f", (e, App("double", e, (e,)))))
    assert got == {parse_term("f(e,f(e,e))"), parse_term("f(e,g(e,e))")}


def test_oracle_member_verdicts_on_double():
    m = double_mtt()
    s = parse_term("a(e)")
    assert oracle_member(m, "io", s, parse_term("f(f(e,e),f(e,e))")) == YES
    mixed = parse_term("f(f(e,e),g(e,e))")
    assert oracle_member(m, "io", s, mixed) == NO
    assert oracle_member(m, "oi", s, mixed) == YES
    # no start rule reads e, so the output set of e is empty
    assert oracle_member(m, "io", parse_term("e"), parse_term("e")) == NO


def test_oracle_member_rejects_bad_trees():
    m = double_mtt()
    with pytest.raises(AlphabetMismatch):
        oracle_member(m, "io", parse_term("zz"), parse_term("e"))
    assert oracle_member(m, "io", parse_term("a(e)"), parse_term("a(e)")) == NO


def test_oracle_member_unknown_on_tiny_budget():
    m = double_mtt()
    s = parse_term("a(a(a(e)))")
    t = parse_term("f(f(e,e),f(e,e))")
    verdict = oracle_member(m, "io", s, t, Budget(max_steps=5))
    assert verdict == UNKNOWN


def test_oracle_member_unknown_past_the_recursion_limit():
    # enumeration recurses per input level, and 1000 levels exhaust the
    # recursion limit: no verdict, as for an exhausted budget
    assert oracle_member(copyfree_mtt(), "io", *copyfree_instance(1000)) == UNKNOWN


def test_oracle_member_stats():
    stats = {}
    oracle_member(double_mtt(), "io", parse_term("a(e)"),
                  parse_term("f(f(e,e),f(e,e))"), stats=stats)
    assert stats["s_size"] == 2
    assert stats["t_size"] == 7
    assert stats["steps"] > 0


def test_pruning_never_changes_a_verdict():
    m = double_mtt()
    s = parse_term("a(e)")
    for t_text in ("f(f(e,e),f(e,e))", "f(f(e,e),g(e,e))", "e"):
        t = parse_term(t_text)
        pruned = oracle_member(m, "io", s, t)
        full = YES if t in oracle_eval(m, "io", App("start", s)) else NO
        assert pruned == full


def test_det_total_outputs_are_singletons():
    m = doubling_mtt()
    for s in all_inputs(5, m.input_alphabet):
        assert len(oracle_eval(m, "io", App("q0", s))) == 1


def test_io_outputs_are_oi_outputs_on_random_transducers():
    rng = random.Random(20260814)
    inputs = all_inputs(4)
    checked = 0
    for i in range(40):
        m = random_mtt(rng, name=f"rand{i}")
        ev_io = Evaluator(m, "io")
        ev_oi = Evaluator(m, "oi")
        for s in inputs:
            try:
                io_set = ev_io.state_set("q0", s)
                oi_set = ev_oi.state_set("q0", s)
            except BudgetExceeded:
                continue
            assert io_set <= oi_set
            checked += 1
    assert checked > 100


def test_evaluator_memoization_matches_fresh_runs():
    m = double_mtt()
    ev = Evaluator(m, "io")
    inputs = [parse_term(x) for x in ("e", "a(e)", "a(a(e))")]
    twice = [ev.state_set("start", s) for s in inputs + inputs]
    fresh = [oracle_eval(m, "io", App("start", s)) for s in inputs]
    assert [TreeSet(x) for x in twice[:3]] == fresh
    assert twice[:3] == twice[3:]


def test_treeset_lists_in_canonical_order():
    ts = TreeSet(parse_term(x, None) for x in ("g(e)", "e", "c", "f(e,e)"))
    assert _texts(ts) == ["c", "e", "g(e)", "f(e,e)"]
    assert ts == {parse_term(x, None) for x in ("c", "e", "g(e)", "f(e,e)")}
    assert parse_term("g(e)", None) in ts


def test_budget_rejects_nonpositive_bounds():
    with pytest.raises(ValueError):
        Budget(max_set_size=0)
    with pytest.raises(ValueError):
        Budget(max_steps=-1)
    with pytest.raises(ValueError):
        Budget(max_tree_size=0)
    # a bool or a float is no bound, nor is a string
    for bad in (True, 2.5, "5"):
        for name in ("max_set_size", "max_tree_size", "max_steps"):
            with pytest.raises(ValueError):
                Budget(**{name: bad})
