"""Tuple-returning transducers: let semantics, oracle, and membership."""

import gc
import random

import pytest

from mttkit import (
    ArityMismatch,
    BadInitialRank,
    Budget,
    BudgetExceeded,
    Call,
    EnvLimitExceeded,
    MrLet,
    MrMtt,
    MrRhs,
    Out,
    RankedAlphabet,
    Tree,
    ZVar,
    eval_mr_io,
    eval_mr_state,
    member_mr_io,
    parse_term,
    validate_mr,
)
from mttkit.families import reverse_pair_instance, reverse_pair_mrtt
from mttkit.multi_return import _kept_after

from helpers import (HARNESS_BUDGET, all_inputs, as_mr, io_output_set,
                     mutations, random_mrtt, random_mtt)

CHAIN = RankedAlphabet({"s": 1, "z": 0})


def _schain(k: int) -> Tree:
    return parse_term("s(" * k + "z" + ")" * k)


def test_reverse_pair_worked_example():
    m = reverse_pair_mrtt()
    s, t = reverse_pair_instance("aab")
    assert s == _schain(3)
    assert t == parse_term("r(a(a(b(e))),B(A(A(E))))")
    assert member_mr_io(m, s, t)
    assert t in eval_mr_io(m, s)


def test_reverse_pair_rejects_non_reverse():
    m = reverse_pair_mrtt()
    s = _schain(3)
    assert not member_mr_io(m, s, parse_term("r(a(a(b(e))),A(A(B(E))))"))


def test_base_rule_output():
    m = reverse_pair_mrtt()
    assert member_mr_io(m, parse_term("z"), parse_term("r(e,E)"))
    assert eval_mr_io(m, parse_term("z")) == {parse_term("r(e,E)")}


def test_single_step_state_pairs():
    m = reverse_pair_mrtt()
    got = eval_mr_state(m, "q1", _schain(1), (parse_term("E"),))
    want = {
        (parse_term("a(e)"), parse_term("A(E)")),
        (parse_term("b(e)"), parse_term("B(E)")),
    }
    assert got == want


def test_reverse_pair_output_set_is_exactly_the_word_pairs():
    m = reverse_pair_mrtt()
    for k in range(5):
        words = [
            "".join(w)
            for w in __import__("itertools").product("ab", repeat=k)
        ]
        expect = {reverse_pair_instance(w)[1] for w in words}
        got = eval_mr_io(m, _schain(k))
        assert set(got.items) == expect
        assert len(got) == 2 ** k


def test_membership_accepts_all_pairs_rejects_mutations():
    m = reverse_pair_mrtt()
    for k in range(4):
        valid = set(eval_mr_io(m, _schain(k)).items)
        for t in valid:
            assert member_mr_io(m, _schain(k), t)
        for t in list(valid)[:2]:
            for bad in mutations(t, m.output_alphabet):
                assert member_mr_io(m, _schain(k), bad) == (bad in valid)


def test_discarded_binding_still_needs_a_witness():
    m = MrMtt(
        name="strict",
        input_alphabet=CHAIN,
        output_alphabet=RankedAlphabet({"c": 0}),
        ranks={"q0": 0, "dead": 0},
        dims={"q0": 1, "dead": 1},
        initial="q0",
        rules={
            ("q0", "s"): (
                MrRhs((MrLet((1,), "dead", 1, ()),), (Out("c"),)),
            ),
            ("q0", "z"): (MrRhs((), (Out("c"),)),),
            # dead has no rules at all
        },
    )
    validate_mr(m)
    assert member_mr_io(m, parse_term("z"), parse_term("c"))
    assert not member_mr_io(m, _schain(1), parse_term("c"))
    assert len(eval_mr_io(m, _schain(1))) == 0


def test_validation_errors():
    alpha = RankedAlphabet({"c": 0})
    base = dict(
        name="bad",
        input_alphabet=CHAIN,
        output_alphabet=alpha,
        initial="q0",
    )
    with pytest.raises(BadInitialRank):
        validate_mr(MrMtt(ranks={"q0": 1}, dims={"q0": 1}, rules={}, **base))
    with pytest.raises(BadInitialRank):
        validate_mr(MrMtt(ranks={"q0": 0}, dims={"q0": 2}, rules={}, **base))
    with pytest.raises(ArityMismatch):
        validate_mr(MrMtt(ranks={"q0": 0}, dims={"q0": 1}, rules={
            ("q0", "z"): (MrRhs((), (ZVar(1),)),),
        }, **base))
    with pytest.raises(ArityMismatch):
        # calls cannot be nested inside argument or result terms
        validate_mr(MrMtt(ranks={"q0": 0, "p": 0}, dims={"q0": 1, "p": 1},
                          rules={
            ("q0", "s"): (MrRhs((), (Call("p", 1, ()),)),),
        }, **base))
    with pytest.raises(ArityMismatch):
        # let targets must be the next consecutive z-variables
        validate_mr(MrMtt(ranks={"q0": 0, "p": 0}, dims={"q0": 1, "p": 1},
                          rules={
            ("q0", "s"): (MrRhs((MrLet((2,), "p", 1, ()),), (Out("c"),)),),
        }, **base))
    with pytest.raises(ArityMismatch):
        # result width must match the state's dimension
        validate_mr(MrMtt(ranks={"q0": 0}, dims={"q0": 1}, rules={
            ("q0", "z"): (MrRhs((), (Out("c"), Out("c"))),),
        }, **base))


def test_env_cap_is_a_hard_error():
    m = reverse_pair_mrtt()
    s, t = reverse_pair_instance("ab")
    with pytest.raises(EnvLimitExceeded):
        member_mr_io(m, s, t, env_cap=1)
    assert member_mr_io(m, s, t, env_cap=4)


@pytest.mark.parametrize("cap", [0, -3, None, True, 2.0, "4"])
def test_env_cap_must_be_a_positive_int(cap):
    # a cap below 1 would answer "unknown" on every query with a let,
    # and a bool or a float is no count
    m = reverse_pair_mrtt()
    s, t = reverse_pair_instance("ab")
    with pytest.raises(ValueError, match="env cap"):
        member_mr_io(m, s, t, env_cap=cap)


def test_member_mr_io_leaves_no_cyclic_garbage():
    # the environments and the memo go by reference counting when
    # member_mr_io returns, not at the next full garbage collection
    m = reverse_pair_mrtt()
    s, t = reverse_pair_instance("abababababab")
    gc.collect()
    gc.disable()
    try:
        assert member_mr_io(m, s, t)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_stats_reports_environment_pressure():
    m = reverse_pair_mrtt()
    s, t = reverse_pair_instance("aba")
    stats = {}
    assert member_mr_io(m, s, t, stats=stats)
    assert stats["max_envs"] >= 2
    assert stats["s_size"] == 4 and stats["t_size"] == 9
    assert stats["entries"] > 0


def test_dimension_one_embedding_matches_plain_engine():
    # the embedding evaluates to the plain output sets; its membership is
    # the differential gate's mr-io-808 row
    rng = random.Random(808)
    for i in range(12):
        m = random_mtt(rng, name=f"r{i}")
        em = as_mr(m)
        validate_mr(em)
        for s in all_inputs(4):
            out = io_output_set(m, s)
            if out is None:
                continue
            try:
                mr_set = eval_mr_io(em, s, HARNESS_BUDGET)
            except BudgetExceeded:
                continue
            assert mr_set == out


def test_argument_evaluation_is_deterministic():
    # one environment and parameter vector always yield one node per
    # argument: results never fork except through let bindings
    m = reverse_pair_mrtt()
    s, t = reverse_pair_instance("ab")
    stats = {}
    member_mr_io(m, s, t, stats=stats)
    # q1 returns pairs; with two live continuations per step the
    # environment count is exactly the number of open choices
    assert stats["max_envs"] == 2


def _drops_a_z_between_lets(rhs) -> bool:
    """Some environment before rhs's last let leaves out a z-variable
    bound by then."""
    bound: set = set()
    for let, kept in zip(rhs.lets[:-1], _kept_after(rhs)):
        bound.update(let.targets)
        if bound - set(kept):
            return True
    return False


def test_random_rank_two_mrtts_drop_z_variables_beside_two_parameters():
    # the differential gate's mr-io-2024-lets3-rank2 row draws these
    # models; in some of them an environment holds a rank-2 state's two
    # parameters while a bound z-variable is no longer live
    rng = random.Random(2024)
    models = [random_mrtt(rng, max_lets=3, max_rank=2) for _ in range(30)]
    assert any(m.ranks[q] == 2 and _drops_a_z_between_lets(rhs)
               for m in models for (q, _), alts in m.rules.items()
               for rhs in alts)


def test_reverse_pair_demands_linearly_many_entries():
    # a table fill over every parameter node is quadratic here; demand
    # reaches four entries per input node
    k = 10_000
    word = "".join(random.Random(5).choice("ab") for _ in range(k))
    m = reverse_pair_mrtt()
    s, t = reverse_pair_instance(word)
    stats = {}
    assert member_mr_io(m, s, t, stats=stats)
    assert stats["entries"] <= 4 * k

    flipped = word[: k // 2] + ("b" if word[k // 2] == "a" else "a") + word[k // 2 + 1:]
    lower = reverse_pair_instance(flipped)[1].children[0]
    assert not member_mr_io(m, s, Tree("r", (lower, t.children[1])), stats=stats)
    assert stats["entries"] <= 5 * k


def test_argument_substitution_counts_against_the_evaluators_budget():
    # on s^4(z) the evaluator takes 61 steps of its own and 60 argument
    # substitutions, each one step of the same budget
    m = reverse_pair_mrtt()
    s, t = reverse_pair_instance("abab")
    assert t in eval_mr_io(m, s, Budget(max_steps=121))
    for steps in (100, 120):
        with pytest.raises(BudgetExceeded):
            eval_mr_io(m, s, Budget(max_steps=steps))
