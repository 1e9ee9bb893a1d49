"""Call-by-name membership for transducers with a finite parameter
copy bound."""

import time

import pytest

from mttkit import (
    App,
    RankedAlphabet,
    YES,
    enumerate_trees,
    member_oi_fc,
    oracle_eval,
    oracle_member,
    parse_term,
)
from mttkit.errors import AlphabetMismatch
from mttkit.families import copyfree_mtt, copyfree_instance, double_mtt
from mttkit.io_membership import _compiled, demand
from mttkit.trees import build_dag

from helpers import (NON_CONFORMING, candidates, estimate_copy_bound,
                     leaf_double_mtt as _leaf_double_mtt,
                     linear_param_mtt as _linear_mtt,
                     mixed_double_mtt as _mixed_double_mtt)

CHAIN = RankedAlphabet({"a": 1, "e": 0})


def _chain(n: int):
    return parse_term("a(" * n + "e" + ")" * n)


def _candidates(m, s):
    """Oracle outputs, their single-label mutations, and small well-ranked
    trees; a mixed positive/negative pool."""
    out = oracle_eval(m, "oi", App(m.initial, s))
    return out, (candidates(out.items, m.output_alphabet, 8, 2, 5)
                 + enumerate_trees(m.output_alphabet, max_size=4))


def test_copy_bound_must_be_positive():
    m = copyfree_mtt()
    s, t = copyfree_instance(3)
    with pytest.raises(ValueError):
        member_oi_fc(m, 0, s, t)
    with pytest.raises(ValueError):
        member_oi_fc(m, "2", s, t)
    # a bool is no copy bound, though True == 1
    with pytest.raises(ValueError):
        member_oi_fc(m, True, s, t)
    with pytest.raises(AlphabetMismatch):
        member_oi_fc(m, 1, parse_term("zz"), t)
    assert member_oi_fc(m, 1, s, parse_term("zz", None)) is False


def test_copyfree_family_matches_oracle():
    m = copyfree_mtt()
    for n in range(2, 7):
        s, t = copyfree_instance(n)
        assert member_oi_fc(m, 1, s, t)
        assert not member_oi_fc(m, 1, s, parse_term("e"))


def test_linear_mtt_matches_oracle_exhaustively():
    m = _linear_mtt()
    inputs = [s for s in enumerate_trees(m.input_alphabet, max_size=6)]
    assert len(inputs) == 63
    checked = 0
    for s in inputs:
        out, pool = _candidates(m, s)
        for t in pool:
            want = t in out
            assert member_oi_fc(m, 1, s, t) == want
            assert (oracle_member(m, "oi", s, t) == YES) == want
            checked += 1
    assert checked > 500


def test_copyfree_scales_linearly():
    m = copyfree_mtt()
    n = 100_000
    s, t = copyfree_instance(n)
    stats = {}
    t0 = time.perf_counter()
    assert member_oi_fc(m, 1, s, t, stats=stats)
    assert time.perf_counter() - t0 < 120
    # one entry (acc, {accumulated f-chain node}) per input node
    assert stats["entries"] <= 2 * n


def test_leaf_doubling_mtt_with_declared_bound_two():
    m = _leaf_double_mtt()
    assert estimate_copy_bound(m, 4) == 2
    for n in range(7):
        s = _chain(n)
        out, pool = _candidates(m, s)
        for t in pool:
            assert member_oi_fc(m, 2, s, t) == (t in out)


def test_mixed_double_mtt_needs_bound_two():
    m = _mixed_double_mtt()
    assert estimate_copy_bound(m, 4) == 2
    s = _chain(1)
    mixed = parse_term("f(e,g(e))")
    assert oracle_member(m, "oi", s, mixed) == YES
    assert member_oi_fc(m, 2, s, mixed)
    # below the memo's limit the two-tree set binds whole whatever c, so
    # an understated bound still answers yes
    assert member_oi_fc(m, 1, s, mixed)
    # past the limit it binds per reference at c = 1, and one occurrence
    # cannot take two different trees: the wrong "no" an understated
    # bound risks on a query that fills the memo
    s_dag, s_root = build_dag(s)
    t_dag, t_root = build_dag(mixed)
    for limit, want in ((10 ** 6, True), (0, False)):
        entry = demand(s_dag.nodes, t_dag, _compiled(m, "io"), s_root,
                       m.initial, 1, limit)[0]
        assert (t_root in entry) == want
    for n in range(7):
        s = _chain(n)
        out, pool = _candidates(m, s)
        for t in pool:
            assert member_oi_fc(m, 2, s, t) == (t in out)


def test_estimate_copy_bound_values():
    assert estimate_copy_bound(copyfree_mtt(), 4) == 1
    assert estimate_copy_bound(double_mtt(), 2) == 4
    assert estimate_copy_bound(double_mtt(), 3) is NON_CONFORMING
    assert estimate_copy_bound(double_mtt(), 3, limit=100) == 16


def test_entry_count_within_state_space_bound():
    m = _linear_mtt()
    s = parse_term("a(b(a(e)))")
    stats = {}
    out, pool = _candidates(m, s)
    member_oi_fc(m, 1, s, pool[0], stats=stats)
    # a parameter is bound to one reference, BOTTOM among them, or to a
    # whole set while the memo holds fewer entries than per-reference
    # binding can make keys; each entry holds at most n references
    n = stats["t_dag_nodes"] + 1
    per_node = sum(n ** m.states[q] for q in m.states)
    budget = len(m.states) * n ** max(m.states.values())
    assert stats["entries"] <= (per_node + budget) * n * stats["s_dag_nodes"]
