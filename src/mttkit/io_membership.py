"""Polynomial-time translation membership for call-by-value semantics.

The decision procedure runs an automaton over the input tree whose states
say, for each transducer state q and each vector of candidate-output DAG
nodes bound to q's parameters, which DAG nodes q can produce.  One extra
reference, BOTTOM, abstracts every tree that is not a subtree of the
candidate output; anything built on top of such a tree is again not a
subtree, so one abstract value suffices.

run_io materializes the automaton state for every distinct input subtree
bottom-up.  member_io computes the same relation on demand from the root
question, which visits only the entries the verdict depends on.
"""

from __future__ import annotations

from itertools import product

from .errors import NotDeterministic, NotTotal
from .mtt import Mtt, Out, Param, validate
from .oracle import IO, OI, check_input_tree
from .trees import BOTTOM, Tree, TreeDag, build_dag, recursion_room

_EMPTY: frozenset = frozenset()


class RunState:
    """One automaton state: maps (q, parameter refs) to producible refs."""

    __slots__ = ("table",)

    def __init__(self, table: dict):
        self.table = {k: frozenset(v) for k, v in table.items() if v}

    def get(self, q: str, vbar: tuple) -> frozenset:
        return self.table.get((q, vbar), _EMPTY)

    def entries(self):
        """Yield (state, parameter refs, result ref) triples."""
        for (q, vbar), vs in self.table.items():
            for v in vs:
                yield (q, vbar, v)

    def entry_count(self) -> int:
        return sum(len(vs) for vs in self.table.values())

    def __contains__(self, triple) -> bool:
        q, vbar, v = triple
        return v in self.table.get((q, vbar), _EMPTY)

    def __eq__(self, other):
        if not isinstance(other, RunState):
            return NotImplemented
        return self.table == other.table

    def __repr__(self):
        return f"RunState({self.entry_count()} entries)"


class _Targets:
    """Candidate-output DAG plus the indexes the clauses below need."""

    __slots__ = ("dag", "vees", "by_label")

    def __init__(self, dag: TreeDag):
        self.dag = dag
        self.vees = tuple(range(dag.node_count())) + (BOTTOM,)
        self.by_label = dag.nodes_by_label()


def _out_refs(sym: str, kid_sets, tg: _Targets) -> set:
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
    cands = tg.by_label.get(sym, ())
    if count <= len(cands):
        intern = tg.dag.intern
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
        kids_of = tg.dag.kids
        for v in cands:
            ks = kids_of[v]
            if all(u in kid_sets[i] for i, u in enumerate(ks)):
                out.add(v)
        out.add(BOTTOM)
    return out


def _eval(rhs, vbar: tuple, lookup, tg: _Targets) -> set:
    """Result references of one right-hand side under parameter refs vbar.

    lookup(j, state, ubar) resolves a state call on input child j.
    """
    if isinstance(rhs, Param):
        return {vbar[rhs.index - 1]}
    if isinstance(rhs, Out):
        return _out_refs(rhs.sym, [_eval(a, vbar, lookup, tg) for a in rhs.args], tg)
    kid_sets = [_eval(a, vbar, lookup, tg) for a in rhs.args]
    out: set = set()
    for ks in kid_sets:
        if not ks:
            return out
    for ubar in product(*kid_sets):
        out |= lookup(rhs.child, rhs.state, ubar)
    return out


def eval_f(rhs, vbar: tuple, child_states, t_dag: TreeDag) -> set:
    """References rhs can produce given the child automaton states.

    child_states is one RunState per input child, aligned with x1, x2, ...
    """
    tg = _Targets(t_dag)

    def lookup(j, q, ubar):
        return child_states[j - 1].get(q, ubar)

    return _eval(rhs, vbar, lookup, tg)


def _transition(sym_rank_states, alts_for, kid_tables, tg: _Targets) -> dict:
    table: dict = {}
    def lookup(j, q, ubar):
        return kid_tables[j - 1].get((q, ubar), _EMPTY)
    for q, rank in sym_rank_states:
        alts = alts_for(q)
        if not alts:
            continue
        for vbar in product(tg.vees, repeat=rank):
            acc: set = set()
            for rhs in alts:
                acc |= _eval(rhs, vbar, lookup, tg)
            if acc:
                table[(q, vbar)] = frozenset(acc)
    return table


def run_io(m: Mtt, s: Tree, t_dag: TreeDag) -> RunState:
    """The automaton state reached on s, built bottom-up over s's DAG.

    One transition is computed per distinct subtree of s; equal subtrees
    share their state by construction.
    """
    validate(m)
    tg = _Targets(t_dag)
    s_dag, s_root = build_dag(s)
    states = list(m.states.items())
    tables: list[dict] = []
    for v in range(s_dag.node_count()):
        sym = s_dag.labels[v]
        kid_tables = [tables[c] for c in s_dag.kids[v]]
        tables.append(
            _transition(states, lambda q, sym=sym: m.alternatives(q, sym),
                        kid_tables, tg)
        )
    return RunState(tables[s_root])


class DemandEngine:
    """Demand-driven form of the same automaton.

    Entries are computed only when a parent call asks for them, memoized
    per (input DAG node, state, parameter bindings).  alts_for(node, q)
    yields the applicable right-hand sides; plugging in a guard-aware
    selector gives the look-ahead variant of the engine.
    evaluate(rhs, vbar, lookup, tg) gives the result references of one
    right-hand side under bindings vbar: _eval binds each parameter to one
    reference (call-by-value), oi_fc binds it to a set (call-by-name).
    """

    def __init__(self, s_dag: TreeDag, t_dag: TreeDag, alts_for, evaluate):
        self.s_dag = s_dag
        self.tg = _Targets(t_dag)
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
            acc |= self.evaluate(rhs, vbar, lookup, self.tg)
        got = frozenset(acc)
        self.memo[key] = got
        return got

    def entry_count(self) -> int:
        return sum(len(v) for v in self.memo.values())


def _member(m: Mtt, s: Tree, t: Tree, evaluate, stats: dict | None) -> bool:
    """Demand the initial state's entry at the root of s and look for t's
    root in it; evaluate is the DemandEngine right-hand-side evaluator."""
    validate(m)
    check_input_tree(m, s)
    if not m.output_alphabet.is_well_ranked(t):
        return False
    t_dag, t_root = build_dag(t)
    s_dag, s_root = build_dag(s)

    def alts_for(node, q):
        return m.alternatives(q, s_dag.labels[node])

    engine = DemandEngine(s_dag, t_dag, alts_for, evaluate)
    with recursion_room(8 * s.size):
        verdict = t_root in engine.demand(s_root, m.initial, ())
    if stats is not None:
        stats.update(
            s_size=s.size, t_size=t.size,
            s_dag_nodes=s_dag.node_count(), t_dag_nodes=t_dag.node_count(),
            entries=engine.entry_count(),
        )
    return verdict


def member_io(m: Mtt, s: Tree, t: Tree, stats: dict | None = None) -> bool:
    """Is t an output of m on s under call-by-value semantics?

    Input trees outside the input alphabet raise AlphabetMismatch; a
    candidate t that is not well formed over the output alphabet cannot
    be produced and yields False.
    """
    return _member(m, s, t, _eval, stats)


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

    with recursion_room(8 * s.size):
        out = go(m.initial, s_root, ())
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
        cls = validate(m)
        if not cls.deterministic:
            raise NotDeterministic(f"{m.name}: more than one alternative for some pair")
        if not cls.total:
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
