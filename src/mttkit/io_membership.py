"""Polynomial-time translation membership for call-by-value semantics.

The decision procedure evaluates the transducer inversely over the DAGs
of the input and the candidate output: for each input DAG node, each
transducer state q and each vector of candidate-output DAG nodes bound
to q's parameters, it finds which DAG nodes q can produce.  One extra
reference, BOTTOM, abstracts every tree that is not a subtree of the
candidate output; anything built on top of such a tree is again not a
subtree, so one abstract value suffices.

DemandEngine computes these entries on demand from the root question,
so only the entries the verdict depends on are visited.  _member is the
one driver of every engine built on it: member_io here, member_io_tac,
member_oi_fc and member_mr_io each pass their rule selector and their
right-hand-side evaluator, which is handed the candidate output's DAG
and reads its intern table and label index.
"""

from __future__ import annotations

from itertools import product

from .errors import NotDeterministic, NotTotal
from .mtt import Mtt, Out, Param, _refuse_guards
from .oracle import IO, OI, check_input_tree
from .trees import BOTTOM, Tree, TreeDag, build_dag, recursion_room


def _out_refs(sym: str, kid_sets, dag: TreeDag) -> set:
    """References an output-symbol node can take, given child result sets.

    A real node v matches iff it carries sym and child i of v lies in the
    i-th set.  BOTTOM is produced iff all sets are nonempty and some
    selection of children cannot be a node of the candidate output:
    either a child is BOTTOM itself, or more selections exist than there
    are sym-nodes, or an explicit selection misses the intern table.
    """
    out: set = set()
    for ks in kid_sets:
        if not ks:
            return out
    real = [ks if BOTTOM not in ks else ks - {BOTTOM} for ks in kid_sets]
    count = 1
    for r in real:
        count *= len(r)
    if count == 0:
        # some child set is exactly {BOTTOM}, and no node has a BOTTOM child
        return {BOTTOM}
    cands = dag.by_label.get(sym, ())
    if count <= len(cands):
        intern = dag.intern
        missed = False
        for ubar in product(*real):
            ref = intern.get((sym, ubar))
            if ref is None:
                missed = True
            else:
                out.add(ref)
        if missed or any(BOTTOM in ks for ks in kid_sets):
            out.add(BOTTOM)
    else:
        # pigeonhole: some selection is not a node, so BOTTOM holds, and
        # matching nodes are found by scanning sym-nodes instead.
        kids_of = dag.kids
        for v in cands:
            ks = kids_of[v]
            if all(u in kid_sets[i] for i, u in enumerate(ks)):
                out.add(v)
        out.add(BOTTOM)
    return out


def _eval(rhs, vbar: tuple, lookup, dag: TreeDag) -> set:
    """Result references of one right-hand side under parameter refs vbar,
    over the candidate-output DAG.

    lookup(j, state, ubar) resolves a state call on input child j.
    """
    if isinstance(rhs, Param):
        return {vbar[rhs.index - 1]}
    if isinstance(rhs, Out):
        return _out_refs(rhs.sym, [_eval(a, vbar, lookup, dag) for a in rhs.args], dag)
    kid_sets = [_eval(a, vbar, lookup, dag) for a in rhs.args]
    out: set = set()
    for ks in kid_sets:
        if not ks:
            return out
    for ubar in product(*kid_sets):
        out |= lookup(rhs.child, rhs.state, ubar)
    return out


class DemandEngine:
    """The inverse evaluation, computed on demand.

    Entries are computed only when a parent call asks for them, memoized
    per (input DAG node, state, parameter bindings).  alts_for(node, q)
    yields the applicable right-hand sides; plugging in a guard-aware
    selector gives the look-ahead variant of the engine.
    evaluate(rhs, vbar, lookup, t_dag) gives the results of one
    right-hand side under bindings vbar, as nodes of the candidate-output
    DAG t_dag it is handed: _eval binds each parameter to one reference
    (call-by-value), oi_fc binds it to a set (call-by-name), and
    multi_return returns tuples of references.
    """

    def __init__(self, s_dag: TreeDag, t_dag: TreeDag, alts_for, evaluate):
        self.s_dag = s_dag
        self.t_dag = t_dag
        self.alts_for = alts_for
        self.evaluate = evaluate
        self.memo: dict[tuple, frozenset] = {}

    def demand(self, node: int, q: str, vbar: tuple) -> frozenset:
        key = (node, q, vbar)
        got = self.memo.get(key)
        if got is not None:
            return got
        kids = self.s_dag.kids[node]

        def lookup(j, qq, ubar):
            return self.demand(kids[j - 1], qq, ubar)

        acc: set = set()
        for rhs in self.alts_for(node, q):
            acc |= self.evaluate(rhs, vbar, lookup, self.t_dag)
        got = frozenset(acc)
        self.memo[key] = got
        return got

    def entry_count(self) -> int:
        return sum(len(v) for v in self.memo.values())


def _member(m, s: Tree, t: Tree, select, evaluate, stats: dict | None,
            tuples: bool = False) -> bool:
    """Demand the initial state's entry at the root of s and look for t's
    root in it.

    m checked itself when it was built.  select(s_dag) returns the
    DemandEngine rule selector alts_for(node, q), and evaluate is its
    right-hand-side evaluator.  With tuples, entries hold tuples of
    references (multi-return), and t's root is looked for as a 1-tuple.
    """
    check_input_tree(m, s)
    if not m.output_alphabet.is_well_ranked(t):
        return False
    t_dag, t_root = build_dag(t)
    s_dag, s_root = build_dag(s)
    engine = DemandEngine(s_dag, t_dag, select(s_dag), evaluate)
    with recursion_room(8 * s_dag.node_count()):
        root_entry = engine.demand(s_root, m.initial, ())
    if stats is not None:
        stats.update(
            s_size=s.size, t_size=t.size,
            s_dag_nodes=s_dag.node_count(), t_dag_nodes=t_dag.node_count(),
            entries=engine.entry_count(),
        )
    return ((t_root,) if tuples else t_root) in root_entry


def _plain_rules(m: Mtt):
    """Rule selector for a plain transducer: every alternative of (q, sym)."""
    _refuse_guards(m)

    def select(s_dag):
        labels = s_dag.labels
        return lambda node, q: m.alternatives(q, labels[node])

    return select


def member_io(m: Mtt, s: Tree, t: Tree, stats: dict | None = None) -> bool:
    """Is t an output of m on s under call-by-value semantics?

    Input trees outside the input alphabet raise AlphabetMismatch; a
    candidate t that is not well formed over the output alphabet cannot
    be produced and yields False.
    """
    return _member(m, s, t, _plain_rules(m), _eval, stats)


class _StageTooBig(Exception):
    pass


def _det_output(m: Mtt, s: Tree, bound: int) -> Tree:
    """The unique output of a deterministic total transducer on s.

    Trees are built with full structural sharing, so sizes may be huge
    while construction stays cheap.  Raises _StageTooBig as soon as the
    final output exceeds the bound.
    """
    s_dag, s_root = build_dag(s)
    memo: dict = {}

    def go(q: str, node: int, args: tuple) -> Tree:
        key = (q, node, args)
        got = memo.get(key)
        if got is None:
            rhs = m.alternatives(q, s_dag.labels[node])[0]
            memo[key] = got = build(rhs, node, args)
        return got

    def build(rhs, node, args) -> Tree:
        if isinstance(rhs, Param):
            return args[rhs.index - 1]
        if isinstance(rhs, Out):
            return Tree(rhs.sym, tuple(build(a, node, args) for a in rhs.args))
        vals = tuple(build(a, node, args) for a in rhs.args)
        return go(rhs.state, s_dag.kids[node][rhs.child - 1], vals)

    try:
        with recursion_room(8 * s_dag.node_count()):
            out = go(m.initial, s_root, ())
    finally:
        # go and build reach each other through closure cells, a cycle
        # that would keep memo alive until a full garbage collection
        del go, build
    if out.size > bound:
        raise _StageTooBig()
    return out


def member_det(mtts, mode: str, s: Tree, t: Tree) -> bool:
    """Membership for a composition of deterministic total transducers.

    Call-by-value and call-by-name coincide here, so mode is interface
    only.  Stages are evaluated in order; as soon as a stage output
    exceeds 2^n * |t| nodes (n = number of stages) the answer is False,
    because compositions reaching t keep every intermediate that small.
    """
    if mode not in (IO, OI):
        raise ValueError(f"mode must be {IO!r} or {OI!r}")
    mtts = list(mtts)
    if not mtts:
        raise ValueError("need at least one transducer")
    for m in mtts:
        _refuse_guards(m)
        if not m.mtt_class.deterministic:
            raise NotDeterministic(f"{m.name}: more than one alternative for some pair")
        if not m.mtt_class.total:
            raise NotTotal(f"{m.name}: missing alternative for some pair")
    bound = (2 ** len(mtts)) * t.size
    cur = s
    for m in mtts:
        check_input_tree(m, cur)
        try:
            cur = _det_output(m, cur, bound)
        except _StageTooBig:
            return False
    return cur == t
