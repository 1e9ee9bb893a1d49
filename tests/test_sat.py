"""Satisfiability reduction: encoding shape, verdicts, DIMACS parsing."""

import random
from itertools import product

import pytest

from mttkit.errors import EmptyFormula, ParseError
from mttkit.io_membership import member_oi_fc
from mttkit.oracle import IO, NO, OI, YES, Budget, Evaluator, oracle_member
from mttkit.sat import (DEFAULT_SAT_BUDGET, SAT, UNSAT, Cnf3, build_sat_mtt,
                        encode, literal_tree, parse_dimacs, sat_check_small,
                        solve_truth_table)
from mttkit.mtt import validate
from mttkit.trees import format_term

WORKED = Cnf3(3, (
    ((0, False), (1, True), (2, False)),
    ((0, True), (1, False), (2, False)),
))


def all_formulas(n: int, m: int):
    lits = [(i, neg) for i in range(n) for neg in (False, True)]
    clauses = list(product(lits, repeat=3))
    for chosen in product(clauses, repeat=m):
        yield Cnf3(n, chosen)


def test_generator_shape():
    m = build_sat_mtt()
    cls = validate(m)
    assert cls.linear_input
    assert not cls.deterministic
    assert m.states == {"q0": 0, "qc": 2, "q": 3}
    assert m.initial == "q0"
    assert len(m.rules) == 5
    assert sum(len(alts) for alts in m.rules.values()) == 20
    assert max(m.states.values()) == 3


def test_literal_trees():
    assert format_term(literal_tree((0, False))) == "e"
    assert format_term(literal_tree((2, False))) == "v(v(e))"
    assert format_term(literal_tree((1, True))) == "not(v(e))"


def test_encode_worked_formula():
    inst = encode(WORKED)
    assert format_term(inst.s) == "a(b(b(b(c(d),d,d),d,d),d,d))"
    assert format_term(inst.t) == \
        "and(or(e,not(v(e)),v(v(e))),or(not(e),v(e),v(v(e))))"
    assert inst.s.size == 3 * 3 + 2 + 1


def test_encode_input_size():
    for n, m in product(range(1, 5), range(1, 5)):
        f = Cnf3(n, (((0, False),) * 3,) * m)
        assert encode(f).s.size == 3 * n + m + 1


def test_encode_preserves_literal_order():
    a = encode(Cnf3(3, (((1, True), (0, False), (2, False)),)))
    b = encode(Cnf3(3, (((0, False), (1, True), (2, False)),)))
    assert format_term(a.t) == "or(not(v(e)),e,v(v(e)))"
    assert a.t != b.t


def test_encode_injective_over_small_formulas():
    seen: dict = {}
    for f in all_formulas(1, 1):
        key = (format_term(encode(f).s), format_term(encode(f).t))
        assert key not in seen
        seen[key] = f
    # clause order matters too
    c1 = ((0, False), (0, False), (0, True))
    c2 = ((0, True), (0, True), (0, False))
    assert encode(Cnf3(1, (c1, c2))).t != encode(Cnf3(1, (c2, c1))).t


def test_single_clause_verdicts():
    assert sat_check_small(Cnf3(1, (((0, False),) * 3,))) == SAT
    assert sat_check_small(Cnf3(1, (((0, True),) * 3,))) == SAT


def test_contradiction_unsat():
    f = Cnf3(1, (((0, False),) * 3, ((0, True),) * 3))
    assert not solve_truth_table(f)
    assert sat_check_small(f) == UNSAT


def test_worked_formula_sat():
    # full n=3 membership run, takes on the order of ten seconds
    assert solve_truth_table(WORKED)
    assert sat_check_small(WORKED) == SAT


def test_call_by_value_misses_satisfiable_formula():
    # both clauses force all three disjunct slots to one literal, but the
    # two clauses need different literals; a single shared tree per
    # parameter cannot supply both, while per-occurrence choice can
    f = Cnf3(2, (((0, False),) * 3, ((1, False),) * 3))
    assert solve_truth_table(f)
    inst = encode(f)
    m = build_sat_mtt()
    assert oracle_member(m, OI, inst.s, inst.t, DEFAULT_SAT_BUDGET) == YES
    assert oracle_member(m, IO, inst.s, inst.t, DEFAULT_SAT_BUDGET) == NO


def _random_cnf(rng, n: int, m: int) -> Cnf3:
    return Cnf3(n, tuple(tuple((rng.randrange(n), rng.random() < 0.5)
                               for _ in range(3)) for _ in range(m)))


def test_call_by_name_core_decides_the_sat_ladder():
    # the generator copies its parameters without bound, yet below the
    # memo's limit member_oi_fc binds every argument set whole, which is
    # exact call-by-name whatever c: c = 1 agrees with the truth table
    m = build_sat_mtt()
    rng = random.Random(5)
    for _ in range(200):
        f = _random_cnf(rng, rng.randint(1, 4), rng.randint(1, 8))
        inst = encode(f)
        assert member_oi_fc(m, 1, inst.s, inst.t) == solve_truth_table(f), f
    # a satisfiable formula with eight variables, far past the oracle
    f = _random_cnf(rng, 8, 8)
    while not solve_truth_table(f):
        f = _random_cnf(rng, 8, 8)
    inst = encode(f)
    assert member_oi_fc(m, 1, inst.s, inst.t)


def test_exhaustive_one_variable():
    # one call-by-name output set per ladder shape
    for m in (1, 2):
        ev = Evaluator(build_sat_mtt(), OI, DEFAULT_SAT_BUDGET)
        for f in all_formulas(1, m):
            inst = encode(f)
            assert (inst.t in ev.state_set(ev.m.initial, inst.s)
                    ) is solve_truth_table(f)


def test_tiny_budget_reports_unknown():
    f = Cnf3(1, (((0, False),) * 3,))
    assert sat_check_small(f, Budget(max_set_size=2, max_steps=10)) == "unknown"


def test_truth_table():
    assert solve_truth_table(Cnf3(2, (((0, False), (1, False), (0, False)),)))
    assert not solve_truth_table(
        Cnf3(1, (((0, False),) * 3, ((0, True),) * 3)))
    with pytest.raises(ValueError):
        solve_truth_table(Cnf3(21, (((0, False),) * 3,)))


def test_formula_validation():
    with pytest.raises(EmptyFormula):
        Cnf3(0, (((0, False),) * 3,))
    with pytest.raises(EmptyFormula):
        Cnf3(1, ())
    with pytest.raises(ValueError):
        Cnf3(1, (((0, False), (0, False)),))
    with pytest.raises(ValueError):
        Cnf3(1, (((1, False),) * 3,))
    with pytest.raises(ValueError):
        Cnf3(1, (((0, 1),) * 3,))


def test_parse_dimacs_roundtrip():
    text = """c worked example
p cnf 3 2

1 -2 3 0
-1 2 3 0
"""
    assert parse_dimacs(text) == WORKED


def test_parse_dimacs_errors():
    with pytest.raises(ParseError) as e:
        parse_dimacs("p dnf 1 1\n1 1 1 0\n")
    assert e.value.line == 1
    with pytest.raises(ParseError):
        parse_dimacs("p cnf one 1\n")
    with pytest.raises(EmptyFormula):
        parse_dimacs("p cnf 0 1\n")
    with pytest.raises(ParseError) as e:
        parse_dimacs("1 1 1 0\np cnf 1 1\n")
    assert e.value.line == 1
    with pytest.raises(ParseError):
        parse_dimacs("p cnf 1 1\n1 x 1 0\n")
    with pytest.raises(ParseError):
        parse_dimacs("p cnf 1 1\n1 1 0\n")
    with pytest.raises(ParseError) as e:
        parse_dimacs("p cnf 1 1\n1 2 1 0\n")
    assert e.value.line == 2
    with pytest.raises(ParseError):
        parse_dimacs("c nothing here\n")
    with pytest.raises(ParseError):
        parse_dimacs("p cnf 1 2\n1 1 1 0\n")
    # one problem line only, and a clause count that misses it is
    # reported on its line
    with pytest.raises(ParseError, match="second problem line") as e:
        parse_dimacs("p cnf 3 1\n1 2 3 0\np cnf 5 1\n")
    assert e.value.line == 3
    with pytest.raises(ParseError, match="promised 2 clauses, found 1") as e:
        parse_dimacs("c hi\np cnf 3 2\n1 2 3 0\n")
    assert e.value.line == 2


def test_generated_set_on_smallest_ladder():
    # the one-rung ladder assigns signs to p0 (at the top node) and p1
    # (at the rung), so it generates exactly the single-clause formulas
    # over those two variables; every 3-literal clause is satisfiable
    ev = Evaluator(build_sat_mtt(), OI, DEFAULT_SAT_BUDGET)
    s = encode(Cnf3(1, (((0, False),) * 3,))).s
    out = ev.state_set("q0", s)
    want = {format_term(encode(f).t) for f in all_formulas(2, 1)}
    assert {format_term(t) for t in out} == want
