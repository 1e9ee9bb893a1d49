"""Transducer model: rule well-formedness and classification."""

import random
import time
from dataclasses import FrozenInstanceError, replace

import pytest

import mttkit
from mttkit import (
    ArityMismatch,
    BadInitialRank,
    Call,
    MrLet,
    MrMtt,
    MrRhs,
    Mtt,
    Out,
    Param,
    RankedAlphabet,
    RhsTooDeep,
    Tac,
    TacMtt,
    TacRule,
    UnknownState,
    UnknownSymbol,
    build_dag,
    eval_mr_io,
    member_det,
    member_io,
    member_io_tac,
    member_mr_io,
    member_oi_fc,
    oracle_member,
    parse_term,
    run_tac,
    validate,
    validate_mr,
    validate_tac_mtt,
    walk_rhs,
)
from mttkit.families import (copyfree_instance, copyfree_mtt, double_instance,
                             double_mtt, doubling_mtt, equal_pair_tacmtt,
                             fan_instance, fan_mtt, reverse_pair_instance,
                             reverse_pair_mrtt)
from mttkit.mtt import MAX_NESTING, copy_counts

from helpers import (CHAIN_ALPHA, estimate_copy_bound, leaf_double_mtt,
                     mixed_double_mtt, random_mtt)

IN1 = RankedAlphabet({"a": 1, "e": 0})
OUT1 = RankedAlphabet({"f": 2, "e": 0})


def _mtt(rules, states=None):
    return Mtt(
        name="m",
        input_alphabet=IN1,
        output_alphabet=OUT1,
        states=states if states is not None else {"q0": 0, "q": 1},
        initial="q0",
        rules=rules,
    )


def test_classification_of_reference_families():
    cls = validate(double_mtt())
    assert not cls.deterministic
    assert not cls.total
    assert not cls.linear_input
    assert not cls.linear_params
    assert cls.max_state_rank == 1

    cls = validate(doubling_mtt())
    assert cls.deterministic
    assert cls.total
    assert cls.linear_input
    assert not cls.linear_params

    cls = validate(copyfree_mtt())
    assert cls.deterministic
    assert cls.total
    assert cls.linear_input
    assert cls.linear_params
    assert cls.max_state_rank == 1


def _each_kind(keys, states=None):
    """Builders of an Mtt, a TacMtt and an MrMtt with the same header and
    rule keys (every right-hand side the leaf e); each kind checks itself
    when built."""
    states = states if states is not None else {"q0": 0, "q": 1}
    head = dict(name="m", input_alphabet=IN1, output_alphabet=OUT1,
                initial="q0")
    return (
        lambda: Mtt(states=states, rules={k: (Out("e"),) for k in keys},
                    **head),
        lambda: TacMtt(
            states=states, rules={k: (TacRule(Out("e")),) for k in keys},
            tac=Tac(IN1, ()), **head),
        lambda: MrMtt(
            ranks=states, dims={q: 1 for q in states},
            rules={k: (MrRhs((), (Out("e"),)),) for k in keys}, **head),
    )


def test_initial_state_must_have_rank_zero():
    # the header checks are shared: every kind raises the same class
    for build in _each_kind((), states={"q0": 1}):
        with pytest.raises(BadInitialRank):
            build()
    for build in _each_kind((), states={"other": 0}):
        with pytest.raises(UnknownState):
            build()
    for build in _each_kind((), states={"q0": 0, "q": -1}):
        with pytest.raises(ArityMismatch):
            build()


def test_rule_key_errors():
    for build in _each_kind((("nope", "e"),)):
        with pytest.raises(UnknownState):
            build()
    for build in _each_kind((("q0", "zz"),)):
        with pytest.raises(UnknownSymbol):
            build()


def test_checkers_accept_each_kind_built():
    # the public checkers still run on a built model, and agree with it
    m, tm, mr = (build() for build in _each_kind((("q0", "e"),)))
    assert validate(m) == m.mtt_class
    assert validate_tac_mtt(tm) == tm.mtt_class
    assert validate_mr(mr) is None


def _nested(levels):
    """g(g(...e...)), the given number of levels deep."""
    rhs = Out("e")
    for _ in range(levels - 1):
        rhs = Out("g", (rhs,))
    return rhs


_HEAD = dict(name="m", input_alphabet=IN1,
             output_alphabet=RankedAlphabet({"g": 1, "e": 0}), initial="q0")
_MR = dict(ranks={"q0": 0}, dims={"q0": 1})


@pytest.mark.parametrize("build", [
    lambda rhs: Mtt(states={"q0": 0}, rules={("q0", "a"): (rhs,)}, **_HEAD),
    lambda rhs: TacMtt(states={"q0": 0}, rules={("q0", "a"): (TacRule(rhs),)},
                       tac=Tac(IN1, ()), **_HEAD),
    lambda rhs: MrMtt(rules={("q0", "a"): (MrRhs((), (rhs,)),)}, **_MR, **_HEAD),
    lambda rhs: MrMtt(rules={("q0", "a"): (MrRhs(
        (MrLet((1,), "q", 1, (rhs,)),), (Out("e"),)),)},
        ranks={"q0": 0, "q": 1}, dims={"q0": 1, "q": 1}, **_HEAD),
], ids=["mtt", "tac", "mr-result", "mr-let"])
def test_deep_rhs_is_a_toolkit_error(build):
    # a rhs built in code deeper than the DSL allows would overflow the
    # interpreter stack when compared; the model rejects it before that
    assert build(_nested(MAX_NESTING)).rules  # the DSL's bound is the model's
    with pytest.raises(RhsTooDeep,
                       match=r"rule q0/a: right-hand side nests 600 levels"):
        build(_nested(600))


def test_deep_rhs_check_visits_shared_subterms_once():
    # f(r, r) nested 600 levels: 2^599 paths through 600 distinct subterms
    rhs = Out("e")
    for _ in range(599):
        rhs = Out("f", (rhs, rhs))
    with pytest.raises(RhsTooDeep, match="nests 600 levels"):
        _mtt({("q0", "a"): (rhs,)})


def test_shared_rhs_builds_in_its_distinct_subterms():
    # f(r, r) nested 20 levels: 2^19 paths through 20 distinct subterms;
    # checking, classifying and deduplicating once walked every path
    rhs = Out("e")
    for _ in range(19):
        rhs = Out("f", (rhs, rhs))
    start = time.perf_counter()
    m = _mtt({("q0", "a"): (rhs, Out("f", (rhs, rhs))), ("q0", "e"): (rhs,)})
    assert time.perf_counter() - start < 0.25
    assert m.mtt_class.linear_input and m.mtt_class.linear_params
    assert len(m.alternatives("q0", "a")) == 2


def test_shared_subterms_count_once_per_path_for_linearity():
    y1 = Param(1)
    for shared, linear in [(Out("f", (y1, Out("e"))), False),
                           (Out("f", (Out("e"), Out("e"))), True)]:
        m = _mtt({("q", "e"): (Out("f", (shared, shared)),)})
        assert m.mtt_class.linear_params is linear
        assert m.mtt_class.linear_input
    call = Call("q", 1, (Out("e"),))
    m = _mtt({("q0", "a"): (Out("f", (call, call)),)})
    assert not m.mtt_class.linear_input and m.mtt_class.linear_params
    m = _mtt({("q0", "a"): (Out("f", (call, Out("e"))),)})
    assert m.mtt_class.linear_input


def test_copy_counts_of_reference_families():
    fan = fan_mtt()
    # validate does not run the analysis; member_io's first verdict does
    assert "copy_counts" not in fan._prepared
    assert member_io(fan, *fan_instance(3))
    assert fan._prepared["copy_counts"] is copy_counts(fan)
    assert copy_counts(fan) == {"q0": (), "r": (), "p": (1, 1)}
    assert copy_counts(copyfree_mtt())["acc"] == (1,)
    for m, q in ((doubling_mtt(), "q"), (double_mtt(), "double"),
                 (leaf_double_mtt(), "q"), (mixed_double_mtt(), "q")):
        assert copy_counts(m)[q] == (2,), m.name


def test_copy_counts_see_a_parameter_shared_by_two_parents():
    # right-hand sides built in code: one Param object under two parents,
    # or one subterm holding it under one parent twice
    y1, e = Param(1), Out("e")
    shared = Out("f", (y1, e))
    for rhs, count in ((Out("f", (Out("f", (y1, e)), Out("f", (e, y1)))), 2),
                       (Out("f", (shared, shared)), 2),
                       (Out("f", (shared, e)), 1)):
        m = _mtt({("q0", "a"): (Call("q", 1, (e,)),), ("q", "e"): (rhs,)})
        assert copy_counts(m)["q"] == (count,)
        # a caller passing its own parameter inherits the count
        m = _mtt({("q", "a"): (Call("q", 1, (y1,)),), ("q", "e"): (rhs,)})
        assert copy_counts(m)["q"] == (count,)


def test_never_copied_parameters_are_never_copied():
    # sound where it says "never copied": the enumerated count of every
    # such (state, parameter) stays at most 1
    rng = random.Random(17)
    never = copied = 0
    for i in range(150):
        m = random_mtt(rng, f"chain{i}", CHAIN_ALPHA)
        counts = copy_counts(m)
        flags = {(q, j): n < 2 for q, c in counts.items()
                 for j, n in enumerate(c, 1)}
        ones = {key for key, ok in flags.items() if ok}
        assert estimate_copy_bound(m, 4, params=ones) in (0, 1), m
        never += len(ones)
        copied += len(flags) - len(ones)
    assert never > 100 and copied > 20


def test_rhs_well_formedness_errors():
    with pytest.raises(ArityMismatch):
        validate(_mtt({("q0", "e"): (Param(1),)}))  # rank-0 state uses y1
    with pytest.raises(ArityMismatch):
        validate(_mtt({("q", "e"): (Param(2),)}))
    with pytest.raises(UnknownSymbol):
        validate(_mtt({("q0", "e"): (Out("zz"),)}))
    with pytest.raises(ArityMismatch):
        validate(_mtt({("q0", "e"): (Out("f", (Out("e"),)),)}))
    with pytest.raises(UnknownState):
        validate(_mtt({("q0", "a"): (Call("qq", 1, ()),)}))
    with pytest.raises(ArityMismatch):
        validate(_mtt({("q0", "a"): (Call("q", 2, (Out("e"),)),)}))  # x2 on rank 1
    with pytest.raises(ArityMismatch):
        validate(_mtt({("q0", "a"): (Call("q", 1, ()),)}))  # q wants one arg


def test_alternatives_deduplicate_structurally():
    m = _mtt({("q0", "e"): [Out("e"), Out("e")]})
    assert m.rules == {("q0", "e"): (Out("e"),)}  # stored once, as a tuple
    assert m.alternatives("q0", "e") == (Out("e"),)
    assert replace(m, rules={("q0", "e"): (Out("e"),) * 3}).rules == m.rules
    assert validate(m).deterministic  # duplicates do not break determinism
    m2 = _mtt({("q0", "e"): (Out("e"), Out("f", (Out("e"), Out("e"))))})
    assert len(m2.alternatives("q0", "e")) == 2
    assert not validate(m2).deterministic


def test_rhs_size_and_walk():
    rhs = Call("q", 1, (Out("f", (Param(1), Out("e"))),))
    kinds = [type(n).__name__ for n in walk_rhs(rhs)]
    assert kinds == ["Call", "Out", "Param", "Out"]


def test_models_are_read_only():
    m, tm, mr = (build() for build in _each_kind((("q0", "e"),)))
    for model in (m, tm, mr):
        with pytest.raises(FrozenInstanceError):
            model.name = "other"
        with pytest.raises(FrozenInstanceError):
            model.rules = {}
        with pytest.raises(TypeError):
            model.rules[("q", "e")] = model.rules[("q0", "e")]
    for table in (m.states, tm.states, mr.ranks, mr.dims, IN1.symbols):
        with pytest.raises(TypeError):
            table["q9"] = 0
    with pytest.raises(AttributeError):
        IN1.symbols = {}
    with pytest.raises(FrozenInstanceError):
        tm.tac.transitions = ()
    assert validate(m) == m.mtt_class  # the failed writes changed nothing


def test_models_copy_the_callers_tables():
    # a model that keeps the caller's dict would change with it after
    # its check, and then break in an engine
    states = {"q0": 0, "q": 1}
    ranks, dims = dict(states), {"q0": 1, "q": 1}
    head = dict(name="m", input_alphabet=IN1, output_alphabet=OUT1,
                initial="q0")
    m = Mtt(states=states, rules={("q0", "e"): (Out("e"),)}, **head)
    tm = TacMtt(states=states, rules={("q0", "e"): (TacRule(Out("e")),)},
                tac=Tac(IN1, ()), **head)
    mr = MrMtt(ranks=ranks, dims=dims,
               rules={("q0", "e"): (MrRhs((), (Out("e"),)),)}, **head)
    states["q0"] = ranks["q0"] = 1
    dims["q0"] = 2
    assert m.states == tm.states == mr.ranks == {"q0": 0, "q": 1}
    assert mr.dims == {"q0": 1, "q": 1}
    e = parse_term("e")
    assert member_io(m, e, e)
    assert member_mr_io(mr, e, e)


def test_replace_checks_again():
    m = _mtt({("q0", "e"): (Out("e"),)})
    with pytest.raises(UnknownSymbol):
        replace(m, rules={("q0", "e"): (Out("zz"),)})
    with pytest.raises(BadInitialRank):
        replace(m, states={"q0": 1})
    assert replace(m, name="again").mtt_class == m.mtt_class


def _count_checks(monkeypatch) -> list:
    """Record every call of the structural checkers, in each module that
    calls them, and of Tac.check."""
    calls = []

    def counted(fn):
        def wrapper(*args, **kwargs):
            calls.append(fn.__name__)
            return fn(*args, **kwargs)
        return wrapper

    for module in (mttkit.mtt, mttkit.tac, mttkit.multi_return):
        for name in ("check_rhs", "check_header"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counted(getattr(module, name)))
    monkeypatch.setattr(Tac, "check", counted(Tac.check))
    return calls


def test_verdicts_do_not_check_the_model_again(monkeypatch):
    m, cf = double_mtt(), copyfree_mtt()
    tm, mr = equal_pair_tacmtt(), reverse_pair_mrtt()
    calls = _count_checks(monkeypatch)
    s, t = double_instance(2)
    assert member_io(m, s, t)
    assert member_oi_fc(m, 2, s, t)
    assert oracle_member(m, "io", s, t) == "yes"
    s, t = copyfree_instance(3)
    assert member_det([cf], "io", s, t)
    pair = parse_term("pi(a(e), a(e))")
    assert member_io_tac(tm, pair, parse_term("e"))
    assert run_tac(tm.tac, *build_dag(pair)) == "p"
    s, t = reverse_pair_instance("ab")
    assert member_mr_io(mr, s, t)
    assert t in eval_mr_io(mr, s)
    assert calls == []
    double_mtt(), equal_pair_tacmtt(), reverse_pair_mrtt()
    assert {"check_rhs", "check_header", "check"} <= set(calls)  # counted


# each entry point, with the kind of transducer it takes
_ENTRY_POINTS = {
    "member_io": (Mtt, lambda m, s, t: member_io(m, s, t)),
    "member_det": (Mtt, lambda m, s, t: member_det([m], "io", s, t)),
    "member_oi_fc": (Mtt, lambda m, s, t: member_oi_fc(m, 1, s, t)),
    "oracle_member": (Mtt, lambda m, s, t: oracle_member(m, "io", s, t)),
    "member_io_tac": (TacMtt, lambda m, s, t: member_io_tac(m, s, t)),
    "member_mr_io": (MrMtt, lambda m, s, t: member_mr_io(m, s, t)),
    "eval_mr_io": (MrMtt, lambda m, s, t: eval_mr_io(m, s)),
}
# a model of each kind, and the engine its refusal names
_KINDS = {Mtt: (double_mtt, "member_io"),
          TacMtt: (equal_pair_tacmtt, "member_io_tac"),
          MrMtt: (reverse_pair_mrtt, "member_mr_io")}


@pytest.mark.parametrize("entry, kind", [
    (entry, kind) for entry, (takes, _) in _ENTRY_POINTS.items()
    for kind in _KINDS if kind is not takes
], ids=lambda x: x if isinstance(x, str) else x.__name__)
def test_entry_points_refuse_other_kinds(entry, kind):
    # refused before the input is read, so e, outside two of the three
    # input alphabets, does not matter
    make, engine = _KINDS[kind]
    with pytest.raises(TypeError, match=f"not {kind.__name__}; use {engine}$"):
        _ENTRY_POINTS[entry][1](make(), parse_term("e"), parse_term("e"))
