"""Call-by-value membership: the subtree automaton and its fast paths."""

import gc
import os
import random
import re
import subprocess
import sys
import time
import tracemalloc
from dataclasses import replace
from itertools import product
from pathlib import Path

import pytest

import mttkit
from mttkit import (
    ENGINES,
    NO,
    YES,
    App,
    BudgetExceeded,
    Call,
    MrLet,
    MrMtt,
    MrRhs,
    Mtt,
    NotDeterministic,
    NotTotal,
    Out,
    Param,
    RankedAlphabet,
    Tree,
    ZVar,
    eval_mr_io,
    member_det,
    member_io,
    member_io_tac,
    member_mr_io,
    member_oi_fc,
    oracle_eval,
    parse_term,
    parse_transducer,
    walk_rhs,
)
from mttkit.errors import AlphabetMismatch
from mttkit.families import (
    choose_instance,
    choose_mtt,
    copyfree_instance,
    copyfree_mtt,
    double_instance,
    double_mtt,
    doubling_mtt,
    equal_pair_tacmtt,
    fan_instance,
    fan_mtt,
    reverse_pair_instance,
    reverse_pair_mrtt,
)
from mttkit.io_membership import (_SCOPE, _Table, _compiled, _image,
                                  _out_refs, compile_rhs, demand)
from mttkit.trees import BOTTOM, TreeDag, build_dag

from helpers import (
    HARNESS_BUDGET,
    OUT_ALPHA,
    all_inputs,
    call_under,
    chain,
    differential,
    io_output_set,
    leaf_double_mtt,
    linear_param_mtt,
    mirror_engines,
    mixed_double_mtt,
    mutations,
    random_det_total_mtt,
    relabel,
    unguarded,
)

# input node 0's key: its label 0, then child j, which stands for input
# node j, so entries name calls by child
KIDS = tuple(range(10))


def _demanded(root, dag=None, entries=None, asked=None, c=None, limit=1):
    """root(ask) as the root question's function of a demand on
    candidate DAG dag, at input node 0 whose key is KIDS, under semantics c and the memo's whole-set limit: its
    result, as demand stores it.  Each question to a child is answered
    from a dict of (child, state, parameter bindings) -> result refs, and
    asked, if given, collects it (the memo answers a repeated one)."""
    entries = entries or {}

    def alternative(q, label):
        if label == 0:
            return lambda vbar, kids, ask, dag: root(ask)

        def alt(vbar, kids, ask, dag):
            if asked is not None:
                asked.append((label, q, vbar))
            return entries.get((label, q, vbar), ())
        return alt

    table = _Table()
    table.prepare = alternative
    # node j's key (j,) starts with label j, as node 0's key KIDS does
    nodes = [KIDS, *[(j,) for j in KIDS[1:]]]
    return demand(nodes, dag, table, 0, "root", c, limit)[0]


def _eval_on(rhs, vbar, dag, entries=None, asked=None):
    """The compiled rhs under call-by-value, with state calls answered
    as _demanded answers them."""
    alt = compile_rhs((rhs,))
    return set(_demanded(lambda ask: alt(vbar, KIDS, ask, dag), dag, entries,
                         asked))


def _io_rules(m):
    """member_io's table on m."""
    return _compiled(m, "io")


def _root_entry(m, s, t_dag):
    """The initial state's demanded entry at the root of s."""
    s_dag, s_root = build_dag(s)
    return demand(s_dag.nodes, t_dag, _io_rules(m), s_root, m.initial)[0]


def test_eval_f_parameter_returns_its_ref():
    dag, root = build_dag(parse_term("f(e,e)", None))
    v = dag.intern[("e",)]
    assert _eval_on(Param(1), (v,), dag) == {v}


def test_eval_f_leaf_symbol_matches_its_own_node():
    dag, _ = build_dag(parse_term("f(e,e)", None))
    v_e = dag.intern[("e",)]
    assert _eval_on(Out("e"), (), dag) == {v_e}


def test_eval_f_constructor_hit_and_miss():
    rhs = Out("f", (Param(1), Param(1)))
    dag, root = build_dag(parse_term("f(e,e)", None))
    v_e = dag.intern[("e",)]
    assert _eval_on(rhs, (v_e,), dag) == {root}

    dag2, _ = build_dag(parse_term("f(e,g(e))", None))
    v_e2 = dag2.intern[("e",)]
    assert _eval_on(rhs, (v_e2,), dag2) == {BOTTOM}


def test_eval_f_state_call_joins_child_entries():
    dag, root = build_dag(parse_term("f(e,e)", None))
    v_e = dag.intern[("e",)]
    child = {(1, "q", (v_e,)): {root}}
    got = _eval_on(Call("q", 1, (Out("e"),)), (), dag, child)
    assert got == {root}


def test_eval_f_is_monotone_in_child_entries():
    dag, root = build_dag(parse_term("f(e,g(e))", None))
    v_e = dag.intern[("e",)]
    v_g = dag.intern["g", v_e]
    rhs = Out("f", (Call("q", 1, ()), Call("q", 1, ())))
    small = {(1, "q", ()): {v_e}}
    big = {(1, "q", ()): {v_e, v_g}}
    assert _eval_on(rhs, (), dag, small) <= _eval_on(rhs, (), dag, big)


def test_eval_f_bottom_parameter_reaches_calls_and_outputs():
    dag, _ = build_dag(parse_term("f(e,g(e))", None))
    v_e = dag.intern[("e",)]
    # g(y1) with y1 bound to BOTTOM is no node of t, whatever t holds
    assert _eval_on(Out("g", (Param(1),)), (BOTTOM,), dag) == {BOTTOM}
    asked = []
    child = {(1, "q", (BOTTOM, v_e)): {v_e}}
    rhs = Call("q", 1, (Out("g", (Param(1),)), Param(2)))
    assert _eval_on(rhs, (BOTTOM, v_e), dag, child, asked) == {v_e}
    assert asked == [(1, "q", (BOTTOM, v_e))]


def test_eval_f_symbol_without_a_node_in_t_is_bottom():
    dag, _ = build_dag(parse_term("f(e,e)", None))
    v_e = dag.intern[("e",)]
    assert _eval_on(Out("h", (Param(1),)), (v_e,), dag) == {BOTTOM}
    # over a call's set: the pigeonhole branch, no h-node to scan
    child = {(1, "q", ()): {v_e, BOTTOM}}
    assert _eval_on(Out("h", (Call("q", 1),)), (), dag, child) == {BOTTOM}
    # an empty child set still yields nothing
    assert _eval_on(Out("h", (Call("q", 2),)), (), dag, child) == set()


def test_eval_f_call_with_scalar_and_set_arguments():
    dag, root = build_dag(parse_term("f(e,g(e))", None))
    v_e = dag.intern[("e",)]
    v_g = dag.intern["g", v_e]
    child = {(2, "q", ()): {v_e, v_g}, (1, "p", (v_g, v_e)): {root},
             (1, "p", (v_g, v_g)): {v_e}}
    asked = []
    rhs = Call("p", 1, (Out("g", (Param(1),)), Call("q", 2)))
    assert _eval_on(rhs, (v_e,), dag, child, asked) == {root, v_e}
    assert sorted(asked) == sorted([(2, "q", ()), (1, "p", (v_g, v_e)),
                                    (1, "p", (v_g, v_g))])
    # an empty argument set asks nothing of the callee
    asked.clear()
    rhs = Call("p", 1, (Param(1), Call("q", 3)))
    assert _eval_on(rhs, (v_e,), dag, child, asked) == set()
    assert asked == [(3, "q", ())]


# call-by-name: demand's set-call ask.all drops BOTTOM from each
# argument set and binds what is left whole, or past the memo's limit
# per reference or to its c-subsets

def _questions(kid_sets, c, whole=(), limit=1):
    """The questions ask.all asks of input child 1, state p, as a set,
    with room for whole sets unless limit is 0."""
    asked = []
    _demanded(lambda ask: ask.all(1, "p", [set(ks) for ks in kid_sets], whole),
              asked=asked, c=c, limit=limit)
    return set(asked)


def test_ask_all_n_binds_an_emptied_set_to_bottom():
    # call-by-name is not strict: a set with no node of t binds BOTTOM,
    # and the call is still asked, where call-by-value asks nothing
    a = 0
    for empty in (set(), {BOTTOM}):
        assert _questions([empty, {a}], c=1) == {(1, "p", (BOTTOM, a))}
        assert _questions([empty, {a}], c=None) == (
            set() if not empty else {(1, "p", (BOTTOM, a))})


def test_ask_all_n_drops_bottom_from_argument_sets():
    a, b = 0, 1
    assert _questions([{a, BOTTOM}], c=2) == {(1, "p", (a,))}
    assert _questions([{a, b, BOTTOM}], c=2) == {
        (1, ("p", 1), (frozenset({a, b}),))}
    # call-by-value keeps BOTTOM, per reference for a copied parameter
    assert _questions([{a, BOTTOM}], c=None) == {(1, "p", (a,)),
                                                 (1, "p", (BOTTOM,))}
    # an output node whose selection is no node of t yields BOTTOM, as
    # under call-by-value, and a caller drops it: here the function of a
    # masked key, where each occurrence of the parameter picks its own
    # node of the set, and f(e,e) is the one node of t
    dag, root = build_dag(parse_term("f(e,e)", None))
    v_e = dag.intern[("e",)]
    rhs = Out("f", (Param(1), Param(1)))
    both = frozenset({v_e, root})
    alt = compile_rhs((rhs,), mask=1)
    assert _demanded(lambda ask: alt((both,), KIDS, ask, dag), dag, c=2) == {
        root, BOTTOM}


def test_ask_all_n_binds_each_c_subset_of_a_copied_parameter():
    a, b, c = 0, 1, 2
    # below the limit a copied parameter binds its set whole, whatever c
    for bound in (1, 2):
        assert _questions([{a, b, c}], c=bound) == {
            (1, ("p", 1), (frozenset({a, b, c}),))}
    # past it, to each c-subset
    assert _questions([{a, b, c}], c=2, limit=0) == {
        (1, ("p", 1), (frozenset(pair),)) for pair in ((a, b), (a, c), (b, c))}
    # a set of at most c nodes is bound whole
    assert _questions([{b, c}], c=2, limit=0) == {
        (1, ("p", 1), (frozenset({b, c}),))}
    # under c = 1, per reference, beside a second position bound whole
    # while there is room
    assert _questions([{a, b}, {a, c}], c=1, limit=0) == {
        (1, "p", (u, w)) for u in (a, b) for w in (a, c)}
    assert _questions([{a, b}, {a, c}], c=1) == {
        (1, ("p", 3), (frozenset({a, b}), frozenset({a, c})))}


def test_ask_all_binds_never_copied_parameters_whole_while_the_budget_lasts():
    a, b, c = 0, 1, 2
    sets = [{a, b, c}, {a, b}]
    for sem in (None, 1, 2):
        assert _questions(sets, c=sem, whole=(0, 1)) == {
            (1, ("p", 3), (frozenset({a, b, c}), frozenset({a, b})))}
    # spent: per reference under either semantics, but for a set of at
    # most c nodes, which call-by-name binds whole
    for sem in (None, 1):
        assert _questions(sets, c=sem, whole=(0, 1), limit=0) == {
            (1, "p", (u, w)) for u in (a, b, c) for w in (a, b)}
    assert _questions(sets, c=2, whole=(0, 1), limit=0) == {
        (1, ("p", 2), (u, frozenset({a, b}))) for u in (a, b, c)}


# the image of an output node over sets, kept per candidate DAG

def _image_by_definition(sym, kid_sets, dag):
    """The sym-nodes whose children lie in kid_sets, and BOTTOM when
    some selection of children is no node of dag."""
    out = {v for v in dag.by_label.get(sym, ())
           if all(u in ks for u, ks in zip(dag.nodes[v][1:], kid_sets))}
    if any((sym, *ubar) not in dag.intern for ubar in product(*kid_sets)):
        out.add(BOTTOM)
    return out


# t holds two unary symbols, g and k, and the binary f: each path of
# _out_refs, the unary parent index, the intern product and the
# pigeonhole scan, is taken over sets with BOTTOM or with a child that
# has no parent
IMAGE_T = "h(g(e), f(e, g(e)), k(f(g(e), e)))"


def _image_cases(dag):
    e = dag.intern[("e",)]
    g = dag.intern["g", e]
    fe = dag.intern["f", e, g]
    fg = dag.intern["f", g, e]
    return [
        ("g", [{e, g}]), ("k", [{e, g}]),  # equal sets, two symbols
        ("g", [{e, fe, BOTTOM}]), ("k", [{fg, fe}]),
        ("f", [{e, g}, {e, g}]),  # four selections, two f-nodes
        ("f", [{e}, {e, g}]), ("f", [{e, BOTTOM}, {g, e}]),
        ("f", [{BOTTOM}, {e, g}]), ("f", [{g, fe}, {e, BOTTOM}]),
        ("h", [{g}, {fe, fg}, {fe}]),
    ]


def test_out_refs_computes_each_image_once_per_candidate_dag():
    dag, _ = build_dag(parse_term(IMAGE_T))
    cases = _image_cases(dag)
    first = [_out_refs(sym, list(map(frozenset, sets)), dag)
             for sym, sets in cases]
    assert len(dag.images) == len(cases)
    for (sym, sets), got in zip(cases, first):
        assert got == _image_by_definition(sym, sets, dag), sym
        # equal sets, other objects: the image kept, not a new one
        again = _out_refs(sym, [frozenset(list(ks)) for ks in sets], dag)
        assert again is got
    assert len(dag.images) == len(cases)
    # the same image in a fresh DAG of the same text
    fresh, _ = build_dag(parse_term(IMAGE_T))
    assert [_out_refs(sym, list(map(frozenset, sets)), fresh)
            for sym, sets in cases] == first


def test_out_refs_images_cached_and_uncached_agree():
    dag, _ = build_dag(parse_term(IMAGE_T))
    for sym, sets in _image_cases(dag):
        sets = list(map(frozenset, sets))
        computed = _image(sym, sets, dag)
        assert computed == _image_by_definition(sym, sets, dag), sym
        assert _out_refs(sym, sets, dag) == computed
        assert _out_refs(sym, sets, dag) == computed
    # sets of one reference each, frozen or a tuple, are looked up in
    # the intern table and kept nowhere; an empty set yields nothing
    e = dag.intern[("e",)]
    g = dag.intern["g", e]
    kept = len(dag.images)
    assert _out_refs("f", [frozenset({e}), (g,)], dag) == {dag.intern["f", e, g]}
    assert _out_refs("f", [(g,), (g,)], dag) == {BOTTOM}
    assert _out_refs("f", [(BOTTOM,), frozenset({e})], dag) == {BOTTOM}
    assert _out_refs("g", [(BOTTOM,)], dag) == {BOTTOM}
    assert _out_refs("f", [frozenset(), frozenset({e, g})], dag) == frozenset()
    assert len(dag.images) == kept


def test_demand_counts_entries_under_whole_keys_against_the_budget():
    # fan makes 41 entries under (q, mask) keys on this query; a set
    # binds whole only while the memo holds fewer entries than the limit,
    # so a smaller limit makes fewer of them, and none at a limit the
    # memo has passed before the first call over a set
    m = fan_mtt()
    s_dag, s_root = build_dag(chain(6))
    t_dag, _ = build_dag(_fan_tree(5, 6))
    for limit, made in ((10 ** 6, 41), (13, 10), (1, 0), (0, 0)):
        memo = demand(s_dag.nodes, t_dag, _io_rules(m), s_root,
                      m.initial, None, limit)[1]
        assert sum(not isinstance(q, str) for _, q, _ in memo) == made


def test_call_by_name_past_the_limit_binds_never_copied_parameters_per_reference():
    # fan's parameters are never copied: past the limit call-by-name
    # binds them per reference, as call-by-value does; their 2-subsets
    # would make 2 842 keys on this query
    m = fan_mtt()
    s_dag, s_root = build_dag(chain(6))
    t_dag, _ = build_dag(_fan_tree(5, 6))
    for limit, keys in ((0, 327), (10 ** 6, 48)):
        for c in (None, 2):
            memo = demand(s_dag.nodes, t_dag, _io_rules(m), s_root,
                          m.initial, c, limit)[1]
            assert len(memo) == keys


def test_equal_right_hand_sides_of_a_model_share_one_function():
    shared = Out("f", (Call("q", 1, (Param(1),)), Param(1)))
    m = Mtt(
        name="shared",
        input_alphabet=RankedAlphabet({"a": 1, "b": 1, "e": 0}),
        output_alphabet=RankedAlphabet({"f": 2, "e": 0}),
        states={"q0": 0, "q": 1},
        initial="q0",
        rules={
            ("q0", "a"): (Call("q", 1, (Out("e"),)),),
            # equal to the rule above, but built as a second object
            ("q0", "b"): (Call("q", 1, (Out("e"),)),),
            ("q", "a"): (shared,),
            ("q", "b"): (Param(1), shared),
            ("q", "e"): (Param(1),),
        },
    )
    compiled = _io_rules(m)
    # one code object per equal tuple of right-hand sides
    assert compiled["q0", "b"].__code__ is compiled["q0", "a"].__code__
    assert len({compiled[q, sym].__code__ for q, sym in m.rules}) == 4
    # the same object on a second lookup, also through another query's
    # alternatives: the table is the model's
    assert compiled["q", "a"] is compiled["q", "a"]
    assert _io_rules(m)["q", "a"] is compiled["q", "a"]
    assert m._prepared["io"] is compiled
    # None where a state has no rule
    assert compiled["q0", "e"] is None
    s = parse_term("a(a(e))")
    assert member_io(m, s, parse_term("f(e,e)"))
    assert not member_io(m, s, parse_term("e"))
    assert not member_io(m, s, parse_term("f(f(e,e),e)"))
    # call-by-name runs on the same table, under every copy bound
    functions = {pair: compiled[pair] for pair in m.rules}
    for c in (1, 2):
        for s in (parse_term("a(a(e))"), parse_term("b(b(e))")):
            assert member_oi_fc(m, c, s, parse_term("f(e,e)"))
    assert set(m._prepared) == {"io", "copy_counts"}
    assert m._prepared["io"] is compiled
    assert all(compiled[pair] is f for pair, f in functions.items())


def _shared_tower(n):
    """f(r, r) nested n levels over e with r shared, as a right-hand-side
    term and as the tree it builds: n + 1 distinct subterms, 2^n leaves."""
    r, t = Out("e"), Tree("e")
    for _ in range(n):
        r, t = Out("f", (r, r)), Tree("f", (t, t))
    return r, t


def test_shared_subterms_are_evaluated_once():
    # each distinct subterm of a right-hand side, a let argument or a
    # result term runs once per entry, not once per path (2^24 here)
    n = 24
    r, t = _shared_tower(n)
    ins = RankedAlphabet({"a": 1, "e": 0})
    outs = RankedAlphabet({"f": 2, "e": 0})
    m = Mtt(name="tower", input_alphabet=ins, output_alphabet=outs,
            states={"q0": 0}, initial="q0", rules={("q0", "a"): (r,)})
    result = MrMtt(name="result", input_alphabet=ins, output_alphabet=outs,
                   ranks={"q0": 0}, dims={"q0": 1}, initial="q0",
                   rules={("q0", "a"): (MrRhs((), (r,)),)})
    argument = MrMtt(
        name="argument", input_alphabet=ins, output_alphabet=outs,
        ranks={"q0": 0, "p": 1}, dims={"q0": 1, "p": 1}, initial="q0",
        rules={("q0", "a"): (MrRhs((MrLet((1,), "p", 1, (r,)),), (ZVar(1),)),),
               ("p", "e"): (MrRhs((), (Param(1),)),)})
    s = Tree("a", (Tree("e"),))
    pruned = Tree("f", (t.children[0], Tree("e")))
    def oi_fc(model, s, t, stats=None):
        return member_oi_fc(model, 1, s, t, stats)

    for run, model, entries in ((member_io, m, 1), (member_mr_io, result, 1),
                                (member_mr_io, argument, 2), (oi_fc, m, 1)):
        stats = {}
        t0 = time.perf_counter()
        assert run(model, s, t, stats=stats)
        assert not run(model, s, pruned)
        assert time.perf_counter() - t0 < 0.25, model.name
        assert stats["entries"] == entries, model.name


# symbols and states named as Python keywords and constants, and as the
# names generated functions use; G1, G2 and EQ mark the guards of the
# look-ahead variant
NAMES_HEAD = """
  input { def: 2, v: 1, kids: 0 }
  output { ask: 2, K0: 1, None: 0, I: 0 }
  state I: 0 init
  state kids: 2
  state def: 1
"""
NAMES_RULES = """
  rule I(def(x1, x2)) G2 -> ask(kids[x1](None, I), def[x2](K0(None)))
  rule I(v(x1)) G1 -> kids[x1](def[x1](None), K0(I))
  rule I(kids) -> K0(None)
  rule kids(def(x1, x2))(y1, y2) G2 -> kids[x2](y2, ask(y1, y1))
  rule kids(def(x1, x2))(y1, y2) G2 -> ask(y1, def[x1](y2))
  rule kids(def(x1, x2))(y1, y2) EQ -> ask(y1, def[x1](y2))
  rule kids(v(x1))(y1, y2) G1 -> K0(kids[x1](y2, y1))
  rule kids(v(x1))(y1, y2) G1 -> y1
  rule kids(kids)(y1, y2) -> ask(y1, y2)
  rule kids(kids)(y1, y2) -> y2
  rule def(def(x1, x2))(y1) G2 -> def[x1](K0(y1))
  rule def(def(x1, x2))(y1) G2 -> def[x2](y1)
  rule def(v(x1))(y1) G1 -> ask(y1, def[x1](y1))
  rule def(kids)(y1) -> y1
  rule def(kids)(y1) -> None
"""
NAMES_MR = """mrtt names {
  input { def: 2, v: 1, kids: 0 }
  output { ask: 2, K0: 1, None: 0, I: 0 }
  state I: 0/1 init
  state kids: 1/2
  rule I(def(x1, x2)) -> let (z1, z2) = kids[x1](None) in
    let (z3, z4) = kids[x2](ask(z1, z2)) in (ask(z3, K0(z4)))
  rule I(v(x1)) -> let (z1, z2) = kids[x1](I) in (K0(z2))
  rule I(kids) -> (None)
  rule kids(def(x1, x2))(y1) -> let (z1, z2) = kids[x1](K0(y1)) in (ask(z1, y1), z2)
  rule kids(def(x1, x2))(y1) -> (y1, y1)
  rule kids(v(x1))(y1) -> let (z1, z2) = kids[x1](y1) in (z2, ask(z1, z1))
  rule kids(kids)(y1) -> (y1, K0(y1))
  rule kids(kids)(y1) -> (I, y1)
}"""


def test_user_names_never_enter_generated_code():
    plain = NAMES_RULES
    for mark in (" G2", " G1", " EQ"):
        plain = plain.replace(mark, "")
    m = parse_transducer("mtt names {" + NAMES_HEAD + plain + "}")
    # every guard holds, so the look-ahead variant translates as m does
    tm = parse_transducer("mtt names {" + NAMES_HEAD + """
      tac { trans kids -> K0 trans v(K0) -> K0 trans def(K0, K0) -> K0 }
    """ + NAMES_RULES.replace("G2", "when (K0, K0)").replace(
        "G1", "when (K0)").replace("EQ", "when (K0, K0; eq 1 2)") + "}")
    mr = parse_transducer(NAMES_MR)
    checked = yes = 0
    for s in all_inputs(7, m.input_alphabet):
        out = io_output_set(m, s)
        runs = [("mr-io", mr, _mr_output_set(mr, s)), ("io", m, out),
                ("io-tac", tm, out)]
        for engine, model, out in runs:
            if out is None:
                continue
            pool = list(out.items[:6])
            for t in out.items[:2]:
                pool.extend(mutations(t, model.output_alphabet)[:4])
            for t in pool:
                assert (ENGINES[engine].decide(model, s, t)
                        == (YES if t in out else NO))
                checked += 1
                yes += t in out
    assert checked > 1000 and 0 < yes < checked
    # call-by-name runs on the same functions: no table of its own
    for s in all_inputs(5, m.input_alphabet):
        member_oi_fc(m, 2, s, Tree("ask", (Tree("None"), Tree("I"))))
    assert set(m._prepared) == {"io", "copy_counts"}
    # what the generated functions name: their parameters, locals and
    # constants, and the globals they share
    made = [list(_generated(model)) for model in (m, tm, mr)]
    assert all(made)
    for f in sum(made, []):
        assert f.__globals__ is _SCOPE
        code = f.__code__
        for name in code.co_varnames + code.co_names:
            assert (name in ("v", "kids", "ask", "all", "dag", "I", "get",
                             "intern")
                    or name in _SCOPE or re.fullmatch(r"[tK]\d+", name)), name


def _generated(m):
    """The functions generated for m: those in each engine's table, and
    for multi-return the let-argument and result functions of each
    alternative's plans (its first default)."""
    for key, table in m._prepared.items():
        if key == "copy_counts":
            continue
        for f in filter(None, table.values()):
            if f.__globals__ is _SCOPE:
                yield f
                continue
            for lets, results in f.__defaults__[0]:
                yield results
                yield from (args for _, _, args, _ in lets)


def _mr_output_set(m, s):
    try:
        return eval_mr_io(m, s, HARNESS_BUDGET)
    except BudgetExceeded:
        return None


def test_run_io_start_entry_tracks_membership():
    m = double_mtt()
    s = parse_term("a(e)")
    t_dag, t_root = build_dag(parse_term("f(f(e,e),f(e,e))"))
    assert t_root in _root_entry(m, s, t_dag)

    bad_dag, bad_root = build_dag(parse_term("f(f(e,e),g(e,e))"))
    assert bad_root not in _root_entry(m, s, bad_dag)


def test_run_io_no_initial_rule_means_no_entry():
    m = double_mtt()
    t_dag, _ = build_dag(parse_term("f(e,e)"))
    assert _root_entry(m, parse_term("e"), t_dag) == frozenset()


def test_run_io_depends_only_on_subtree_structure():
    m = double_mtt()
    t_dag, _ = build_dag(parse_term("f(f(e,e),f(e,e))"))
    assert _root_entry(m, parse_term("a(e)"), t_dag) == _root_entry(
        m, parse_term("a(e)"), t_dag
    )
    # two occurrences of a(e) inside a bigger s share one entry:
    # the engine runs over s's own DAG, so equal subtrees cannot diverge
    assert _root_entry(m, parse_term("a(a(e))"), t_dag) == _root_entry(
        m, parse_term("a(a(e))"), t_dag
    )


def test_member_io_double_examples():
    m = double_mtt()
    s1 = parse_term("a(e)")
    assert member_io(m, s1, parse_term("g(g(e,e),g(e,e))"))
    assert not member_io(m, s1, parse_term("e"))
    assert not member_io(m, s1, parse_term("f(f(e,e),g(e,e))"))
    s2 = parse_term("a(a(e))")
    some_output = oracle_eval(m, "io", App("start", s2)).items[0]
    assert member_io(m, s2, some_output)


def test_member_io_input_checked_output_forgiven():
    m = double_mtt()
    with pytest.raises(AlphabetMismatch):
        member_io(m, parse_term("zz"), parse_term("e"))
    # a candidate outside the output alphabet is simply not producible
    assert member_io(m, parse_term("a(e)"), parse_term("a(e)")) is False
    assert member_io(m, parse_term("a(e)"), parse_term("zz", None)) is False


def test_member_io_stats_and_entry_bound():
    m = double_mtt()
    stats = {}
    assert member_io(m, parse_term("a(e)"), parse_term("f(f(e,e),f(e,e))"),
                     stats=stats)
    assert stats["s_size"] == 2 and stats["t_size"] == 7
    assert stats["t_dag_nodes"] == 3
    # demanded entries can never exceed the full automaton state space
    n = stats["t_dag_nodes"] + 1  # refs plus bottom
    bound = sum(n ** (m.states[q] + 1) for q in m.states) * stats["s_dag_nodes"]
    assert stats["entries"] <= bound


def test_a_rank_declared_by_a_state_with_no_rule_costs_no_memory():
    # p heads no rule, so neither the copy counts nor the memo's limit
    # may grow with its rank
    m = parse_transducer("""mtt id {
      input { a: 1, e: 0 }
      output { a: 1, e: 0 }
      state q: 0 init
      state p: 1000000
      rule q(a(x1)) -> a(q[x1])
      rule q(e) -> e
    }""")
    s = parse_term("a(a(e))")
    tracemalloc.start()
    try:
        assert member_io(m, s, s) and member_oi_fc(m, 1, s, s)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


def test_member_io_wrong_symbol_mid_chain_is_fast():
    # copyfree's output with one f halfway down turned into a g: every
    # entry below the flip has child set {BOTTOM}, which must not make
    # each output node scan all f-nodes of t (quadratic: tens of seconds)
    n = 10_000
    s, t = copyfree_instance(n)
    flipped = Tree("g", (Tree("e"),))
    for level in range(n - 3, -1, -1):
        flipped = Tree("g" if level == n // 2 else "f", (flipped,))
    assert flipped.size == t.size
    t0 = time.perf_counter()
    assert not member_io(copyfree_mtt(), s, flipped)
    assert time.perf_counter() - t0 < 10


def test_demand_engine_agrees_with_full_run():
    m = double_mtt()
    for s in all_inputs(5, m.input_alphabet):
        full_set = io_output_set(m, s)
        if full_set is None:
            continue
        pool = list(full_set.items[:4])
        pool += [mut for t in pool[:2] for mut in mutations(t, m.output_alphabet)[:3]]
        for t in pool:
            t_dag, t_root = build_dag(t)
            demanded = t_root in _root_entry(m, s, t_dag)
            assert demanded == (t in full_set) == member_io(m, s, t)


def _lin_over_sets() -> Mtt:
    """linear_param_mtt with the arguments of its start state drawn from
    r, which yields g^k(e) for every k up to the number of a's below, so
    that p and q are called with sets."""
    m = linear_param_mtt()
    r = Call("r", 1)
    return replace(m, name="linsets", states={**m.states, "r": 0}, rules={
        **m.rules,
        ("q0", "a"): (Call("p", 1, (r, Out("g", (r,)))), Call("q", 1, (r,))),
        ("q0", "b"): (Call("q", 1, (Out("g", (r,)),)),),
        ("r", "a"): (Out("g", (r,)), r),
        ("r", "b"): (r,),
        ("r", "e"): (Out("e"),),
    })


def test_whole_set_binding_agrees_with_the_oracle():
    # fan and linsets bind sets whole; where a parameter is copied, each
    # of its bindings stays one reference.  Random models are the
    # differential gate's io-7 row
    for m, size, whole in ((fan_mtt(), 7, 1), (_lin_over_sets(), 6, 1),
                           (double_mtt(), 5, 0), (leaf_double_mtt(), 5, 0),
                           (mixed_double_mtt(), 5, 0)):
        got = differential([m], size, {"io": {}}, io_output_set, (40, 40, 40))
        assert got.bad is None, got.bad
        assert got.checks > (100 if whole else 0), m.name
        assert got.whole == whole, m.name


def test_whole_set_binding_stays_within_the_per_reference_key_bound():
    # choose's argument sets for y1 take exponentially many distinct
    # values; bound whole without limit, io and io-tac made 1 867 758
    # entries at d = 16
    m = choose_mtt()
    models = {"io": m, "oi-fc": m, "io-tac": unguarded(m)}
    checks = 0
    for d in range(1, 8):
        s, t = choose_instance(d)
        out = io_output_set(m, s)
        assert out == oracle_eval(m, "oi", App(m.initial, s), HARNESS_BUDGET)
        pool = [t, *out.items[:16]]
        for w in out.items[:4]:
            pool.extend(mutations(w, m.output_alphabet)[:8])
        for w in pool:
            for name, model in models.items():
                assert (ENGINES[name].decide(model, s, w)
                        == (YES if w in out else NO)), (d, w)
                checks += 1
    assert checks > 500
    s, t = choose_instance(16)
    for name, model in models.items():
        stats = {}
        assert ENGINES[name].decide(model, s, t, stats) == NO
        assert stats["entries"] <= 2 * 10 ** 5, (name, stats["entries"])


def test_member_det_identity_and_mismatch():
    m = copyfree_mtt()
    from mttkit.families import copyfree_instance

    s, t = copyfree_instance(6)
    assert member_det([m], "io", s, t)
    assert member_det([m], "oi", s, t)
    s2, t2 = copyfree_instance(7)
    assert not member_det([m], "io", s, t2)


def test_member_det_rejects_wrong_transducers():
    with pytest.raises(NotDeterministic):
        member_det([double_mtt()], "io", parse_term("a(e)"), parse_term("e"))
    partial = copyfree_mtt()
    broken = Mtt(
        name="partial",
        input_alphabet=partial.input_alphabet,
        output_alphabet=partial.output_alphabet,
        states=partial.states,
        initial=partial.initial,
        rules={k: v for k, v in partial.rules.items() if k != ("acc", "e")},
    )
    with pytest.raises(NotTotal):
        member_det([broken], "io", parse_term("a(e)"), parse_term("e"))
    with pytest.raises(ValueError):
        member_det([], "io", parse_term("a(e)"), parse_term("e"))
    with pytest.raises(ValueError):
        member_det([copyfree_mtt()], "nope", parse_term("a(e)"), parse_term("e"))


def test_member_det_abort_on_exponential_stage():
    m = doubling_mtt()
    s = parse_term("a(" * 20 + "e" + ")" * 20)
    t = parse_term("f(e,e)")
    # output would have ~2^20 nodes; the core rejects it on the DAGs of
    # s and t, without building that output
    assert member_det([m], "io", s, t) is False
    # and t's DAG is built on this path too, so t gives up its intern table
    assert t._dag is None


def test_member_det_agrees_with_member_io_on_doubling():
    m = doubling_mtt()
    for n in range(4):
        s = parse_term("a(" * n + "e" + ")" * n)
        (t,) = oracle_eval(m, "io", App("q0", s)).items
        assert member_det([m], "io", s, t)
        assert member_io(m, s, t)


CONST = """mtt const {
  input { f: 2, e: 0 }
  output { f: 2, e: 0 }
  state q: 0 init
  rule q(f(x1, x2)) -> e
  rule q(e) -> e
}
"""


def test_member_det_composition_with_a_deleting_stage():
    # const maps doubling's 2^n - 1 nodes to e: a later stage may delete
    # its input, so no intermediate output is bounded by t's size
    m, const = doubling_mtt(), parse_transducer(CONST)
    for n in (3, 20):
        s = chain(n)
        assert member_det([m, const], "io", s, Tree("e"))
        assert not member_det([m, const], "io", s, parse_term("f(e,e)"))
    # stage by stage on the oracle at n = 3
    (mid,) = oracle_eval(m, "io", App("q0", chain(3))).items
    assert mid.size == 7 and member_io(const, mid, Tree("e"))


DROPS_G = """mtt dropsg {
  input { a: 1, e: 0 }
  output { g: 1, h: 1, e: 0 }
  state q: 0 init
  state p: 1
  rule q(a(x1)) -> p[x1](g(e))
  rule q(e) -> e
  rule p(a(x1))(y1) -> h(p[x1](y1))
  rule p(e)(y1) -> e
}
"""


def test_member_det_hands_over_only_the_stage_output():
    # p's leaf rule drops its parameter, so g(e) is built under
    # call-by-value but is no part of the stage output h^(n-1)(e); the
    # next stage, which has no g, must not see it
    stages = [parse_transducer(DROPS_G), relabel("h", "k")]
    assert "g" not in stages[1].input_alphabet
    for n in (1, 2, 5):
        stats = {}
        assert member_det(stages, "io", chain(n), chain(n - 1, "k"), stats)
        assert (stats["s_size"], stats["s_dag_nodes"]) == (n, n)
        assert not member_det(stages, "io", chain(n), chain(n, "k"))


def test_shared_candidates_cost_distinct_nodes():
    # doubling's output on a^40(e), built with both halves shared: 2^40
    # paths through 40 distinct nodes, so the alphabet check and the
    # core must walk distinct nodes, not paths
    n = 40
    s = Tree("e")
    for _ in range(n):
        s = Tree("a", (s,))
    full = [Tree("e")]
    for _ in range(n - 1):
        full.append(Tree("f", (full[-1], full[-1])))
    # the same with its lowest rightmost f(e, e) pruned to e
    pruned = Tree("e")
    for h in range(1, n - 1):
        pruned = Tree("f", (full[h], pruned))
    m = doubling_mtt()
    t0 = time.perf_counter()
    for t, want in ((full[-1], True), (pruned, False)):
        assert member_io(m, s, t) is want
        assert member_det([m], "io", s, t) is want
    assert time.perf_counter() - t0 < 10


def test_shared_inputs_cost_distinct_nodes():
    # p(x, x) nested 40 times: 41 distinct nodes, 2^41 - 1 paths.  The
    # recursion budget follows the input's DAG, so no engine asks for a
    # recursion limit the size of the path count.
    m = Mtt(
        name="mirror",
        input_alphabet=RankedAlphabet({"p": 2, "e": 0}),
        output_alphabet=RankedAlphabet({"f": 2, "e": 0, "g": 0}),
        states={"q0": 0},
        initial="q0",
        rules={
            ("q0", "p"): (Out("f", (Call("q0", 1), Call("q0", 2))),),
            ("q0", "e"): (Out("e"),),
        },
    )

    def full(label, leaf, n=40):
        t = Tree(leaf)
        for _ in range(n):
            t = Tree(label, (t, t))
        return t

    s = full("p", "e")
    t0 = time.perf_counter()
    for t, want in ((full("f", "e"), True), (full("f", "g"), False)):
        assert member_io(m, s, t) is want
        assert member_oi_fc(m, 1, s, t) is want
        assert member_det([m], "io", s, t) is want
    assert time.perf_counter() - t0 < 10


def test_engines_check_inputs_on_their_dags(monkeypatch):
    # no engine walks a Tree to check it: each checks exactly the DAGs it
    # builds, s and t; det's one stage is decided on the core, as io is
    def walked(self, t):
        raise AssertionError("check_tree called")

    built, checked = [], []
    init, check_dag = TreeDag.__init__, RankedAlphabet.check_dag

    def counted_init(self, *args):
        built.append(self)
        init(self, *args)

    def counted_check(self, dag):
        checked.append(dag)
        check_dag(self, dag)

    monkeypatch.setattr(RankedAlphabet, "check_tree", walked)
    monkeypatch.setattr(RankedAlphabet, "check_dag", counted_check)
    monkeypatch.setattr(TreeDag, "__init__", counted_init)
    for engine, run in mirror_engines().items():
        for text, want in (("f(f(e,e),e)", YES), ("f(e,f(e,e))", NO),
                           ("f(f(e,z),e)", NO)):
            built.clear()
            checked.clear()
            assert run(parse_term("p(p(e,e),e)"), parse_term(text)) == want
            assert len(built) == 2 and checked == built, engine
        built.clear()
        checked.clear()
        with pytest.raises(AlphabetMismatch, match="'p' has rank 2 but 1"):
            run(parse_term("p(p(e),e)"), parse_term("e"))
        assert len(built) == 1 and checked == built, engine


def test_shared_bad_node_is_checked_once():
    # one bad node under 2^40 paths: every engine rejects the input and
    # answers no on the candidate in the time of the distinct nodes
    def full(label, leaf, n=40):
        t = leaf
        for _ in range(n):
            t = Tree(label, (t, t))
        return t

    s, t = full("p", Tree("e")), full("f", Tree("e"))
    bad_s = full("p", Tree("z"))
    bad_t = full("f", Tree("g", (Tree("e"),)))
    for engine, run in mirror_engines().items():
        t0 = time.perf_counter()
        with pytest.raises(AlphabetMismatch, match="'z' is not declared"):
            run(bad_s, t)
        assert time.perf_counter() - t0 < 1, engine
        t0 = time.perf_counter()
        assert run(s, bad_t) == NO
        assert time.perf_counter() - t0 < 1, engine
        assert run(s, t) == YES


def test_deep_inputs():
    # one depth per engine family: det at 10^6 levels, io at 10^5
    s, t = copyfree_instance(10 ** 6)
    assert member_det([copyfree_mtt()], "io", s, t)
    s, t = copyfree_instance(10 ** 5)
    assert member_io(copyfree_mtt(), s, t)
    # the same candidate with the f halfway up changed to g
    off = Tree("g", (Tree("e"),))
    for k in range(10 ** 5 - 2):
        off = Tree("g" if k == 10 ** 5 // 2 else "f", (off,))
    assert off.size == t.size
    assert not member_io(copyfree_mtt(), s, off)


@pytest.mark.parametrize("engine", ["io", "oi-fc"])
def test_deep_inputs_with_calls_under_outputs(engine):
    # a call 8 output symbols deep takes no more frames per input level
    # than a call at the root: the recursion room per DAG node is fixed
    n, k = 2 * 10 ** 4, 8
    decide = ENGINES[engine].decide
    m, s = call_under(k), chain(n)
    assert decide(m, s, chain(n * k, "g")) == YES
    assert decide(m, s, chain(n * k - 1, "g")) == NO


DEEP_DET = """
from helpers import call_under, chain, relabel
from mttkit import member_det

for n, k in ((10 ** 5, 1), (2 * 10 ** 4, 8)):
    m, s = call_under(k), chain(n)
    print(member_det([m], "io", s, chain(n * k, "g")),
          member_det([m], "io", s, chain(n * k - 1, "g")))
# two stages: the second one's input is 8 times deeper than s, so its
# recursion room must come from its own input DAG
n, k = 5 * 10 ** 3, 8
stages, s = [call_under(k), relabel("g", "h")], chain(n)
print(member_det(stages, "io", s, chain(n * k, "h")),
      member_det(stages, "io", s, chain(n * k - 1, "h")))
"""


def test_member_det_deep_inputs_with_calls_under_outputs():
    # with a call under an output symbol, member_det once built each
    # level through a generator, which nests on the C stack and crashed
    # the interpreter; a child process keeps such a crash to this test
    env = dict(os.environ)
    paths = (Path(mttkit.__file__).resolve().parent.parent,
             Path(__file__).resolve().parent)
    env["PYTHONPATH"] = os.pathsep.join(
        [*map(str, paths), *filter(None, [env.get("PYTHONPATH")])])
    done = subprocess.run([sys.executable, "-c", DEEP_DET], env=env,
                          capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stderr[-2000:]
    assert done.stdout.split() == ["True", "False"] * 3


def test_member_det_leaves_no_cyclic_garbage():
    # the memo of each stage and the output DAG an earlier stage grows,
    # which hold the whole stage output, go when member_det returns, not
    # at the next full garbage collection
    s, t = copyfree_instance(50)
    stages = [call_under(2), relabel("g", "h")]
    gc.collect()
    gc.disable()
    try:
        assert member_det([copyfree_mtt()], "io", s, t)
        assert gc.collect() == 0
        assert member_det(stages, "io", chain(50), chain(100, "h"))
        assert gc.collect() == 0
        assert set(stages[0]._prepared) == {"det"} and stages[0]._prepared["det"]
        del stages
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_growing_functions_take_no_sets():
    # a stage before the last interns its outputs into the DAG it grows
    # and unpacks each one-node entry, so no set helper is generated
    stages = [call_under(2), relabel("g", "h")]
    assert member_det(stages, "io", chain(3), chain(6, "h"))
    made = list(filter(None, stages[0]._prepared["det"].values()))
    assert any("setdefault" in f.__code__.co_names for f in made)
    for f in made:
        assert not {"_out_refs", "all", "get"} & set(f.__code__.co_names)


def test_member_io_leaves_no_cyclic_garbage():
    # the demand memo goes by reference counting when a verdict returns,
    # not at the next full garbage collection, on each engine whose
    # alternatives ask the core for entries
    dbl, cf, eq = double_mtt(), copyfree_mtt(), equal_pair_tacmtt()
    rev = reverse_pair_mrtt()
    s, t = double_instance(2)
    s2, t2 = copyfree_instance(50)
    pair = Tree("pi", (s2, s2))
    verdicts = (
        lambda: member_io(dbl, s, t),
        lambda: member_io(cf, s2, t2),
        lambda: member_io_tac(eq, pair, Tree("e")),
        lambda: member_oi_fc(dbl, 2, s, t),
        lambda: member_mr_io(rev, *reverse_pair_instance("abba")),
    )
    gc.collect()
    gc.disable()
    try:
        for verdict in verdicts:
            assert verdict()
            assert gc.collect() == 0
        # nor do the alternatives a model keeps in its _prepared table
        # make it a cycle
        # an engine's key holds its table of alternatives per (state,
        # label); "copy_counts" the copy analysis of member_io
        def engines(m):
            return set(m._prepared) - {"copy_counts"}

        assert engines(dbl) == {"io"}
        assert engines(cf) == {"io"}
        assert engines(eq) == {"io-tac"}
        assert engines(rev) == {"mr-io"}
        assert all(any(m._prepared[key].values()) for m in (dbl, cf, eq, rev)
                   for key in engines(m))
        del verdicts, dbl, cf, eq, rev
        assert gc.collect() == 0
    finally:
        gc.enable()


# the second p rule binds z1, z2, reads z2 in its second let and drops it
# there, so its environments (y1, y2, then the live z's) change shape
# between the lets
KEEP = """mrtt keep {
  input { s: 1, e: 0 }
  output { f: 2, g: 1, h: 1, e: 0 }
  state q0: 0/1 init
  state p: 2/2
  rule q0(s(x1)) -> let (z1, z2) = p[x1](e, g(e)) in (f(z1, z2))
  rule p(s(x1))(y1, y2) -> let (z1, z2) = p[x1](y2, g(y1)) in (z1, f(z2, y1))
  rule p(s(x1))(y1, y2) -> let (z1, z2) = p[x1](g(y2), y1) in
    let (z3, z4) = p[x1](z2, y2) in (z3, h(z1))
  rule p(e)(y1, y2) -> (y1, y2)
}
"""


def _fan_tree(i, j):
    return Tree("f", (chain(i, "g"), chain(j, "g")))


# entries demanded on fixed queries: a change to the work the core does
# shows here even when the verdicts agree
@pytest.mark.parametrize("engine, m, s, t, want, entries", [
    ("io", "fan", chain(8), _fan_tree(0, 15), False, 129),
    ("io", "fan", chain(8), _fan_tree(7, 8), True, 213),
    ("io", "fan", chain(8), _fan_tree(6, 9), True, 202),
    ("io", "fan", chain(8), _fan_tree(5, 10), True, 186),
    ("io", "fan", chain(8), _fan_tree(3, 12), True, 147),
    ("io", "copyfree", *copyfree_instance(50), True, 50),
    ("io", "copyfree", copyfree_instance(50)[0],
     Tree("f", (copyfree_instance(50)[1],)), False, 50),
    ("io-tac", "eqpair", Tree("pi", (chain(20), chain(20))), Tree("e"), True, 1),
    ("io-tac", "eqpair", Tree("pi", (chain(20), chain(17))), Tree("e"), False, 0),
    ("oi-fc", "fan", chain(6), _fan_tree(0, 11), False, 63),
    ("oi-fc", "fan", chain(6), _fan_tree(5, 6), True, 98),
    ("mr-io", "revpair", *reverse_pair_instance("abbaabab"), True, 32),
    ("mr-io", "keep", chain(4, "s"),
     parse_term("f(h(g(f(f(g(e),e),g(g(e))))),h(g(g(g(e)))))"), True, 65),
    ("mr-io", "keep", chain(4, "s"),
     parse_term("f(f(g(g(g(e))),g(g(e))),h(f(g(g(e)),g(e))))"), True, 55),
    ("mr-io", "keep", chain(4, "s"),
     parse_term("f(h(g(f(f(g(e),e),g(g(e))))),h(g(g(e))))"), False, 73),
    ("mr-io", "keep", chain(4, "s"),
     parse_term("f(f(g(g(g(e))),g(g(e))),h(f(g(e),g(g(e)))))"), False, 46),
], ids=lambda v: v if isinstance(v, str) else None)
def test_entries_are_pinned(engine, m, s, t, want, entries):
    m = {"fan": fan_mtt, "copyfree": copyfree_mtt,
         "eqpair": equal_pair_tacmtt, "revpair": reverse_pair_mrtt,
         "keep": lambda: parse_transducer(KEEP)}[m]()
    stats = {}
    run = {"io": member_io, "io-tac": member_io_tac, "mr-io": member_mr_io,
           "oi-fc": lambda m, s, t, stats: member_oi_fc(m, 2, s, t, stats)}[engine]
    assert run(m, s, t, stats=stats) is want
    assert stats["entries"] == entries


@pytest.mark.parametrize("n, entries, images", [(8, 213, 42), (16, 1513, 150)])
def test_images_are_pinned(n, entries, images):
    # images: the output-node images over sets a query computes, each
    # once per candidate DAG
    stats = {}
    assert member_io(fan_mtt(), *fan_instance(n), stats)
    assert (stats["entries"], stats["images"]) == (entries, images)


def _drops_a_parameter(m: Mtt) -> bool:
    """Some right-hand side of a state with parameters omits one."""
    return any(
        len({p.index for p in walk_rhs(rhs) if isinstance(p, Param)})
        < m.states[q]
        for (q, _), alts in m.rules.items() for rhs in alts)


def test_member_det_compositions_match_stage_by_stage_outputs():
    # the only cover of the stages before the last: each candidate is
    # checked against the oracle's output sets, stage after stage, on
    # two- and three-stage chains; the third stages come from a generator
    # of their own, so the two-stage chains stay as they were
    rng, rng3 = random.Random(1414), random.Random(1515)
    checks = yes = shrunk = dropping = checks3 = yes3 = 0
    for i in range(16):
        first = random_det_total_mtt(rng, name=f"first{i}")
        second = random_det_total_mtt(rng, name=f"second{i}",
                                      input_alphabet=OUT_ALPHA)
        third = random_det_total_mtt(rng3, name=f"third{i}",
                                     input_alphabet=OUT_ALPHA)
        dropping += _drops_a_parameter(second)
        for s in all_inputs(6):
            mid = io_output_set(first, s)
            out = None if mid is None else io_output_set(second, *mid.items)
            if out is None:
                continue
            (t,) = out.items
            # intermediates above 2^2 * |t|, which a size bound on stages
            # would reject, though the composition yields t
            shrunk += mid.items[0].size > 4 * t.size
            for cand in [t, *mutations(t, OUT_ALPHA)]:
                want = cand in out
                assert member_det([first, second], "io", s, cand) is want
                checks += 1
                yes += want
            out3 = io_output_set(third, t)
            if out3 is None:
                continue
            (t3,) = out3.items
            for cand in [t3, *mutations(t3, OUT_ALPHA)]:
                want = cand in out3
                assert member_det([first, second, third], "io", s, cand) is want
                checks3 += 1
                yes3 += want
        # a stage output feeds a stage over another input alphabet
        for stages in ([first, first], [first, first, second]):
            with pytest.raises(AlphabetMismatch, match="is not declared"):
                member_det(stages, "io", chain(2, "b"), Tree("c"))
    assert dropping >= 4 and shrunk >= 20 and yes > 500 and checks > 2500
    assert yes3 > 300 and checks3 > 1500
