"""Transducer model: rule well-formedness and classification."""

from dataclasses import replace

import pytest

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
    rhs_size,
    validate,
    validate_mr,
    validate_tac_mtt,
    walk_rhs,
)
from mttkit.families import copyfree_mtt, double_mtt, doubling_mtt
from mttkit.mtt import MAX_NESTING

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
    """An Mtt, a TacMtt and an MrMtt with the same header and rule keys
    (every right-hand side the leaf e), each with its validator."""
    states = states if states is not None else {"q0": 0, "q": 1}
    head = dict(name="m", input_alphabet=IN1, output_alphabet=OUT1,
                initial="q0")
    return (
        (validate, Mtt(states=states, rules={k: (Out("e"),) for k in keys},
                       **head)),
        (validate_tac_mtt, TacMtt(
            states=states, rules={k: (TacRule(Out("e")),) for k in keys},
            tac=Tac(IN1, ()), **head)),
        (validate_mr, MrMtt(
            ranks=states, dims={q: 1 for q in states},
            rules={k: (MrRhs((), (Out("e"),)),) for k in keys}, **head)),
    )


def test_initial_state_must_have_rank_zero():
    # the header checks are shared: every kind raises the same class
    for check, m in _each_kind((), states={"q0": 1}):
        with pytest.raises(BadInitialRank):
            check(m)
    for check, m in _each_kind((), states={"other": 0}):
        with pytest.raises(UnknownState):
            check(m)
    for check, m in _each_kind((), states={"q0": 0, "q": -1}):
        with pytest.raises(ArityMismatch):
            check(m)


def test_rule_key_errors():
    for check, m in _each_kind((("nope", "e"),)):
        with pytest.raises(UnknownState):
            check(m)
    for check, m in _each_kind((("q0", "zz"),)):
        with pytest.raises(UnknownSymbol):
            check(m)


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
        (MrLet((1,), "q0", 1, (rhs,)),), (Out("e"),)),)}, **_MR, **_HEAD),
], ids=["mtt", "tac", "mr-result", "mr-let"])
def test_deep_rhs_is_a_toolkit_error(build):
    # a rhs built in code deeper than the DSL allows would overflow the
    # interpreter stack when hashed; the model rejects it before that
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
    assert rhs_size(rhs) == 4
    kinds = [type(n).__name__ for n in walk_rhs(rhs)]
    assert kinds == ["Call", "Out", "Param", "Out"]


def test_mtt_size_counts_all_alternatives():
    m = _mtt({("q0", "e"): (Out("e"), Out("f", (Out("e"), Out("e"))))})
    assert m.size() == 1 + 3
