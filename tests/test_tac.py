"""Look-ahead automata with equality constraints, and guarded membership."""

import itertools
from dataclasses import replace

import pytest

from mttkit import (
    Call,
    NotDeterministic,
    NotTotal,
    Out,
    Param,
    RankedAlphabet,
    Tac,
    TacMtt,
    TacRule,
    TacTransition,
    Tree,
    enumerate_trees,
    member_det,
    member_io,
    member_io_tac,
    member_oi_fc,
    oracle_member,
    format_term,
    parse_term,
    run_tac,
    validate,
    validate_tac_mtt,
)
from mttkit.errors import ArityMismatch, MttError
from mttkit.families import double_mtt, equal_pair_tacmtt, fan_mtt
from mttkit.tac import _Shapes, _run_nodes
from mttkit.trees import build_dag

from helpers import (_TAC, IN_ALPHA, OUT_ALPHA, all_inputs, binds_whole,
                     candidates, chain, count_trees, leaf_double_mtt,
                     mixed_double_mtt, parity_guarded, tac_outputs)

PI = RankedAlphabet({"pi": 2, "a": 1, "e": 0})


def _pair_tac() -> Tac:
    return Tac(
        input_alphabet=PI,
        transitions=(
            TacTransition("e", (), target="p"),
            TacTransition("a", ("p",), target="p"),
            TacTransition("pi", ("p", "p"), eq=((1, 2),), target="p_eq"),
            TacTransition("pi", ("p", "p"), neq=((1, 2),), target="p_neq"),
        ),
    )


def test_run_tac_distinguishes_equal_and_unequal_children():
    tac = _pair_tac()
    dag, root = build_dag(parse_term("pi(a(e),a(e))"))
    assert run_tac(tac, dag, root) == "p_eq"
    dag, root = build_dag(parse_term("pi(a(e),e)"))
    assert run_tac(tac, dag, root) == "p_neq"
    dag, root = build_dag(parse_term("a(e)"))
    assert run_tac(tac, dag, root) == "p"


def test_run_tac_constraint_equals_structural_equality():
    tac = _pair_tac()
    trees = all_inputs(4, RankedAlphabet({"a": 1, "e": 0}))
    for l, r in itertools.product(trees, repeat=2):
        from mttkit import Tree

        dag, root = build_dag(Tree("pi", (l, r)))
        want = "p_eq" if l == r else "p_neq"
        assert run_tac(tac, dag, root) == want


def test_run_tac_without_constraints_is_an_ordinary_automaton():
    # parity of a-chain length, tracked without any constraints
    tac = Tac(
        input_alphabet=RankedAlphabet({"a": 1, "e": 0}),
        transitions=(
            TacTransition("e", (), target="even"),
            TacTransition("a", ("even",), target="odd"),
            TacTransition("a", ("odd",), target="even"),
        ),
    )
    for n in range(6):
        s = parse_term("a(" * n + "e" + ")" * n)
        dag, root = build_dag(s)
        want = "even" if n % 2 == 0 else "odd"
        assert run_tac(tac, dag, root) == want


def test_run_tac_rejects_overlap_and_gap():
    overlapping = Tac(
        input_alphabet=PI,
        transitions=(
            TacTransition("e", (), target="p"),
            TacTransition("pi", ("p", "p"), eq=((1, 2),), target="x"),
            TacTransition("pi", ("p", "p"), target="y"),
        ),
    )
    dag, root = build_dag(parse_term("pi(e,e)"))
    with pytest.raises(NotDeterministic):
        run_tac(overlapping, dag, root)

    partial = Tac(input_alphabet=PI,
                  transitions=(TacTransition("e", (), target="p"),))
    dag, root = build_dag(parse_term("a(e)"))
    with pytest.raises(NotTotal):
        run_tac(partial, dag, root)


def test_overlapping_unconstrained_transitions_are_not_deterministic():
    # a counter up the a-chain gives each node a key of its own, so only
    # the root meets the overlapping transitions
    chain_ab = RankedAlphabet({"a": 1, "e": 0})
    counter = (TacTransition("e", (), target="s0"),
               *(TacTransition("a", (f"s{i}",), target=f"s{i + 1}")
                 for i in range(999)))
    top = TacTransition("a", ("s999",), target="x")
    dag, root = build_dag(parse_term("a(" * 1000 + "e" + ")" * 1000))
    assert run_tac(Tac(chain_ab, (*counter, top)), dag, root) == "x"
    shown = ("a(" * 29)[:57] + "..."
    for extra in (replace(top, target="y"), top):
        tac = Tac(chain_ab, (*counter, top, extra))
        with pytest.raises(NotDeterministic) as exc:
            run_tac(tac, dag, root)
        assert str(exc.value) == f"two look-ahead transitions apply at subtree {shown}"


def test_tac_errors_render_deep_subtrees_from_the_dag(monkeypatch):
    arm = "a(" * 10 ** 5 + "e" + ")" * 10 ** 5
    partial = Tac(input_alphabet=PI, transitions=(
        TacTransition("e", (), target="p"), TacTransition("a", ("p",), target="p")))
    overlapping = Tac(input_alphabet=PI, transitions=(
        *partial.transitions,
        TacTransition("pi", ("p", "p"), eq=((1, 2),), target="x"),
        TacTransition("pi", ("p", "p"), target="y")))
    cases = []
    for tac, error, text in [
            (partial, NotTotal, "pi(a(e),e)"),
            (partial, NotTotal, f"pi({arm},a({arm}))"),
            (overlapping, NotDeterministic, f"pi({arm},{arm})")]:
        dag, root = build_dag(parse_term(text))
        # as the messages read when they expanded the subtree
        shown = format_term(dag.expand(root))
        shown = shown if len(shown) <= 60 else shown[:57] + "..."
        cases.append((tac, error, dag, root, shown))
    assert cases[0][-1] == "pi(a(e),e)"
    built = count_trees(monkeypatch)
    for tac, error, dag, root, shown in cases:
        with pytest.raises(error) as exc:
            run_tac(tac, dag, root)
        assert str(exc.value).endswith(f" at subtree {shown}")
    assert built[0] == 0


def test_tac_check_rejects_bad_transitions():
    with pytest.raises(ArityMismatch):
        Tac(PI, (TacTransition("pi", ("p",), target="p"),)).check()
    with pytest.raises(ArityMismatch):
        Tac(PI, (TacTransition("pi", ("p", "p"), eq=((0, 2),), target="p"),)).check()


def test_equal_pair_family_decides_input_equality():
    tm = equal_pair_tacmtt()
    e = parse_term("e")
    trees = all_inputs(8, RankedAlphabet({"a": 1, "e": 0}))
    assert len(trees) == 8
    from mttkit import Tree

    for l in trees:
        for r in trees:
            s = Tree("pi", (l, r))
            assert member_io_tac(tm, s, e) == (l == r)


def test_equal_pair_rejects_other_outputs():
    tm = equal_pair_tacmtt()
    s = parse_term("pi(a(e),a(e))")
    assert member_io_tac(tm, s, parse_term("e"))
    assert not member_io_tac(tm, s, parse_term("pi(e,e)"))
    # no rule fires at a bare chain: the domain is pairs only
    assert not member_io_tac(tm, parse_term("a(e)"), parse_term("e"))


def test_equal_pair_shapes_only_the_input_nodes_its_demand_reads(monkeypatch):
    # on pi(a^10^4(e), a^10^4(e)) the demand makes one entry, at the
    # root, so of the 10 002 input nodes only a handful get a shaped key,
    # and only their children's look-ahead states are read
    shaped, state_reads = [], []
    getitem = _Shapes.__getitem__

    def counted(self, node):
        shaped.append(node)
        return getitem(self, node)

    class Read(list):
        def __getitem__(self, v):
            state_reads.append(v)
            return list.__getitem__(self, v)

    monkeypatch.setattr(_Shapes, "__getitem__", counted)
    monkeypatch.setattr("mttkit.tac._run_nodes",
                        lambda *args: Read(_run_nodes(*args)))
    arm = chain(10 ** 4)
    stats = {}
    assert member_io_tac(equal_pair_tacmtt(), Tree("pi", (arm, arm)),
                         parse_term("e"), stats)
    assert (stats["s_dag_nodes"], stats["entries"]) == (10 ** 4 + 2, 1)
    assert 1 <= len(shaped) <= 5
    assert len(state_reads) <= 10


def test_simultaneously_satisfied_variants_pool_their_rules():
    # guards distinguish nothing here: both rules stay live, so the
    # verdict is the union over both right-hand sides
    tm = TacMtt(
        name="union",
        input_alphabet=PI,
        output_alphabet=RankedAlphabet({"f": 1, "g": 1, "e": 0}),
        states={"q0": 0},
        initial="q0",
        rules={
            ("q0", "pi"): (
                TacRule(Out("f", (Out("e"),)), lookahead=("p", "p"), eq=((1, 2),)),
                TacRule(Out("g", (Out("e"),)), lookahead=("p", "p"),
                        eq=((1, 1), (2, 2))),
            ),
        },
        tac=Tac(
            input_alphabet=PI,
            transitions=(
                TacTransition("e", (), target="p"),
                TacTransition("a", ("p",), target="p"),
                TacTransition("pi", ("p", "p"), target="p"),
            ),
        ),
    )
    # a literal repeat is stored once; alternatives() drops the guards
    f_any = TacRule(Out("f", (Out("e"),)))
    again = replace(tm, rules={
        ("q0", "pi"): tm.rules[("q0", "pi")] * 2 + (f_any,)})
    assert again.rules[("q0", "pi")] == tm.rules[("q0", "pi")] + (f_any,)
    assert again.alternatives("q0", "pi") == (f_any.rhs, Out("g", (Out("e"),)))
    s = parse_term("pi(e,e)")
    assert member_io_tac(tm, s, parse_term("f(e)"))
    assert member_io_tac(tm, s, parse_term("g(e)"))
    # unequal children satisfy only the reflexive-constraint variant
    s2 = parse_term("pi(a(e),e)")
    assert not member_io_tac(tm, s2, parse_term("f(e)"))
    assert member_io_tac(tm, s2, parse_term("g(e)"))


def test_unsatisfiable_guard_is_legal_and_silent():
    tm = TacMtt(
        name="contradiction",
        input_alphabet=PI,
        output_alphabet=RankedAlphabet({"e": 0}),
        states={"q0": 0},
        initial="q0",
        rules={
            ("q0", "pi"): (
                TacRule(Out("e"), eq=((1, 2),), neq=((1, 2),)),
            ),
        },
        tac=Tac(
            input_alphabet=PI,
            transitions=(
                TacTransition("e", (), target="p"),
                TacTransition("a", ("p",), target="p"),
                TacTransition("pi", ("p", "p"), target="p"),
            ),
        ),
    )
    validate_tac_mtt(tm)
    assert not member_io_tac(tm, parse_term("pi(e,e)"), parse_term("e"))
    assert not member_io_tac(tm, parse_term("pi(a(e),e)"), parse_term("e"))


def _agrees_with_reference(tm, s, extra=()) -> int:
    """member_io_tac against tac_outputs on s: on its outputs, their
    one-label mutations and the trees extra; the checks made.  Random
    guarded transducers are the differential gate's io-tac-2021 row."""
    outs = tac_outputs(tm, s)
    if outs is None:
        return 0
    cands = [*extra, *candidates(outs.items, tm.output_alphabet)]
    for u in cands:
        assert member_io_tac(tm, s, u) == (u in outs), (tm.name, s, u)
    return len(cands)


def test_guarded_copies_are_bound_per_reference():
    # d copies y1, so its argument r, g(c) or u(c), is bound one tree at
    # a time: f(g(c), u(c)) is no output, although d never sees a guard
    y1, c = Param(1), Out("c")
    tm = TacMtt("copy", IN_ALPHA, OUT_ALPHA, {"q0": 0, "r": 0, "d": 1}, "q0", {
        ("q0", "b"): (TacRule(Call("d", 1, (Call("r", 1),)), lookahead=("p0",)),),
        ("r", "e"): (TacRule(Out("g", (c,))), TacRule(Out("u", (c,)))),
        ("d", "e"): (TacRule(Out("f", (y1, y1))),),
    }, _TAC)
    s = parse_term("b(e)")
    assert member_io_tac(tm, s, parse_term("f(g(c),g(c))"))
    assert not member_io_tac(tm, s, parse_term("f(g(c),u(c))"))
    assert _agrees_with_reference(tm, s)
    assert not binds_whole(tm, "io-tac")


@pytest.mark.parametrize("make, sizes, whole", [
    (fan_mtt, range(1, 6), True),
    (double_mtt, range(1, 3), False),
    (leaf_double_mtt, range(1, 5), False),
    (mixed_double_mtt, range(1, 5), False),
], ids=["fan", "double", "leafdouble", "mixeddouble"])
def test_guarded_families_bind_only_never_copied_parameters_whole(make, sizes,
                                                                  whole):
    # the guard-free copy counts decide: fan's p copies neither
    # parameter, the doubling families copy theirs.  Their outputs have
    # few one-label mutations, so every small tree is checked too
    tm = parity_guarded(make())
    small = enumerate_trees(tm.output_alphabet, max_size=7)
    for n in sizes:
        assert _agrees_with_reference(tm, chain(n), extra=small)
    assert binds_whole(tm, "io-tac") is whole


@pytest.mark.parametrize("engine", [
    lambda tm, s, t: member_io(tm, s, t),
    lambda tm, s, t: member_oi_fc(tm, 1, s, t),
    lambda tm, s, t: oracle_member(tm, "io", s, t),
    lambda tm, s, t: member_det([tm], "io", s, t),
], ids=["member_io", "member_oi_fc", "oracle_member", "member_det"])
def test_plain_engines_refuse_lookahead_transducers(engine):
    # read without its guards, equal_pair would accept pi(a(e), e) -> e
    tm = equal_pair_tacmtt()
    s, t = parse_term("pi(a(e),e)"), parse_term("e")
    assert not member_io_tac(tm, s, t)
    with pytest.raises(TypeError, match="member_io_tac"):
        engine(tm, s, t)
    # the classifier still reads a guarded transducer guard-free
    assert validate(tm).deterministic


def test_a_built_guarded_transducer_cannot_change():
    # a rule written into the table after the check would be read through
    # the stale index by the check and crash the engine
    tm = equal_pair_tacmtt()
    bad = TacRule(Out("zz", (Param(7),)), lookahead=("p", "p"), eq=((1, 2),))
    with pytest.raises(TypeError):
        tm.rules[("q0", "pi")] = (bad,)
    assert member_io_tac(tm, parse_term("pi(e,e)"), parse_term("e"))
    # built anew, the same table is refused
    with pytest.raises(MttError):
        replace(tm, rules={("q0", "pi"): (bad,)})
