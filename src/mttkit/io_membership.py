"""Polynomial-time translation membership for call-by-value semantics.

The decision procedure evaluates the transducer inversely over the DAGs
of the input and the candidate output: for each input DAG node, each
transducer state q and each vector of candidate-output DAG nodes bound
to q's parameters, it finds which DAG nodes q can produce.  One extra
reference, BOTTOM, abstracts every tree that is not a subtree of the
candidate output; anything built on top of such a tree is again not a
subtree, so one abstract value suffices.

demand computes these entries on demand from the root question, so
only the entries the verdict depends on are visited.  _member drives
every engine built on demand (member_io here, member_io_tac,
member_oi_fc, member_mr_io), each giving it alternatives(q, label),
which each model keeps (_bind_once).  Right-hand sides and multi-return
terms compile into functions (compile_rhs, _compile) that read the
candidate output's intern table and label index.
"""

from __future__ import annotations

from functools import cache
from itertools import product

from .errors import ArityMismatch, NotDeterministic, NotTotal, UnknownSymbol
from .mtt import Mtt, Out, Param, _refuse_guards
from .oracle import IO, OI, check_input_dag
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


def compile_rhs(term, shared: dict):
    """A right-hand side, or a subterm of one, as a function
    alt(vbar, kids, ask, t_dag): the set of references of the
    candidate-output DAG t_dag that term yields under parameter
    references vbar, at an input node whose children are kids, where
    ask(node, state, ubar) answers a state call.

    shared holds the terms a model compiled before (see _compile), so
    equal terms of one model share one function.
    """
    one, sets = _compile(term, shared)
    if sets is None:
        sets = _singleton(one)
        shared[term] = one, sets
    return sets


def _compile(term, shared: dict) -> tuple:
    """term's compiled forms (one, sets).  For a term that calls no state,
    one(vbar, t_dag) is its one reference, BOTTOM when that is no node of
    the candidate output, and sets is None until compile_rhs needs it.
    For any other term one is None and sets is its compile_rhs form.
    shared maps every other term compiled before to its forms; those of
    parameters and output leaves are shared by all models.
    """
    if isinstance(term, Param):
        return _param(term.index - 1)
    if isinstance(term, Out) and not term.args:
        return _leaf(term.sym)
    got = shared.get(term)
    if got is None:
        got = shared[term] = _compile_new(term, shared)
    return got


def _compile_new(term, shared: dict) -> tuple:
    parts = [_compile(a, shared)[0] for a in term.args]
    if None not in parts:
        if isinstance(term, Out):
            return _scalar_out(term.sym, parts), None
        return None, _scalar_call(term.state, term.child - 1, parts)
    fs = [compile_rhs(a, shared) for a in term.args]
    if isinstance(term, Out):
        return None, lambda vbar, kids, ask, dag, sym=term.sym, fs=fs: _out_refs(
            sym, [f(vbar, kids, ask, dag) for f in fs], dag)
    return None, _set_call(term.state, term.child - 1, fs)


# Compiled functions take what they were compiled from as defaults,
# which no caller passes: read as locals, and no cell object per name.

def _singleton(f):
    return lambda vbar, kids, ask, dag, f=f: {f(vbar, dag)}


# the forms of parameters and output leaves depend on nothing else, so
# every model shares them
@cache
def _param(i: int) -> tuple:
    def one(vbar, dag):
        return vbar[i]
    return one, _singleton(one)


@cache
def _leaf(sym: str) -> tuple:
    key = (sym, ())

    def one(vbar, dag):
        return dag.intern.get(key, BOTTOM)
    return one, _singleton(one)


def _scalar_out(sym: str, fs):
    """An output node over children with one reference each: one intern
    lookup.  Intern keys hold node references only, never BOTTOM, so a
    lookup with a BOTTOM child misses and yields BOTTOM by itself."""
    if len(fs) == 1:
        (f,) = fs
        return lambda vbar, dag, sym=sym, f=f: dag.intern.get(
            (sym, (f(vbar, dag),)), BOTTOM)
    if len(fs) == 2:
        f, g = fs
        return lambda vbar, dag, sym=sym, f=f, g=g: dag.intern.get(
            (sym, (f(vbar, dag), g(vbar, dag))), BOTTOM)
    return lambda vbar, dag, sym=sym, fs=fs: dag.intern.get(
        (sym, tuple([f(vbar, dag) for f in fs])), BOTTOM)


def _scalar_call(q: str, j: int, fs):
    """A call whose arguments have one reference each: one question to
    input child j, no product."""
    if not fs:
        return lambda vbar, kids, ask, dag, q=q, j=j: ask(kids[j], q, ())
    if len(fs) == 1:
        (f,) = fs
        return lambda vbar, kids, ask, dag, q=q, j=j, f=f: ask(
            kids[j], q, (f(vbar, dag),))
    if len(fs) == 2:
        f, g = fs
        return lambda vbar, kids, ask, dag, q=q, j=j, f=f, g=g: ask(
            kids[j], q, (f(vbar, dag), g(vbar, dag)))
    return lambda vbar, kids, ask, dag, q=q, j=j, fs=fs: ask(
        kids[j], q, tuple([f(vbar, dag) for f in fs]))


def _set_call(q: str, j: int, fs):
    """A call with a set of references for some argument: one question
    per combination."""
    def call(vbar, kids, ask, dag, q=q, j=j, fs=fs):
        kid_sets = [f(vbar, kids, ask, dag) for f in fs]
        out: set = set()
        for ks in kid_sets:
            if not ks:
                return out
        child = kids[j]
        for ubar in product(*kid_sets):
            out |= ask(child, q, ubar)
        return out

    return call


def demand(s_dag: TreeDag, t_dag, labels, alternatives, node: int, q: str):
    """The inverse evaluation, computed on demand: the entry of state q at
    input node with no parameters, and the memo of every entry it
    depended on.

    An entry, per (input DAG node, state, parameter bindings), is
    computed only when a parent call asks for it, from
    alternatives(q, labels[node]), each called as
    alt(vbar, kids, ask, t_dag) with the node's children kids: compiled
    right-hand sides bind each parameter to one reference
    (call-by-value), oi_fc binds it to a set (call-by-name), and
    multi_return returns tuples of references (given its meter as
    t_dag, see _member).
    """
    memo: dict[tuple, frozenset] = {}
    kids_of = s_dag.kids

    def ask(node, q, vbar):
        key = (node, q, vbar)
        got = memo.get(key)
        if got is None:
            kids = kids_of[node]
            acc: set = set()
            for alt in alternatives(q, labels[node]):
                acc |= alt(vbar, kids, ask, t_dag)
            got = memo[key] = frozenset(acc)
        return got

    try:
        return ask(node, q, ()), memo
    finally:
        # ask reaches itself through its closure cell; without this the
        # memo would live until the next full garbage collection
        del ask


def _frames(m, s_dag: TreeDag) -> int:
    """Recursion room for s_dag: along a path of at most one input level
    per DAG node, each level takes the core's ask plus a compiled term
    and the list it builds per level of m's deepest right-hand side."""
    return (2 * m.nesting + 6) * s_dag.node_count()


def _member(m, s: Tree, t: Tree, alternatives, stats: dict | None,
            labels=None, meter=None) -> bool:
    """Demand the initial state's entry at the root of s and look for t's
    root in it.  m checked itself when it was built; s and t are checked
    on their DAGs: an s outside the input alphabet raises
    AlphabetMismatch, and a t outside the output alphabet is no output.

    The label alternatives(q, label) reads is a node's symbol, or
    labels(s_dag)[node] when labels is given.  With meter (multi-return),
    entries hold tuples, and the alternatives get meter, holding t's
    intern table, in place of t's DAG.
    """
    s_dag, s_root = build_dag(s)
    check_input_dag(m, s_dag)
    t_dag, t_root = build_dag(t)
    try:
        m.output_alphabet.check_dag(t_dag)
    except (UnknownSymbol, ArityMismatch):
        return False
    out = t_dag
    if meter is not None:
        meter.intern = t_dag.intern
        out, t_root = meter, (t_root,)
    with recursion_room(_frames(m, s_dag)):
        root_entry, memo = demand(
            s_dag, out, s_dag.labels if labels is None else labels(s_dag),
            alternatives, s_root, m.initial)
    if stats is not None:
        stats.update(
            s_size=s.size, t_size=t.size,
            s_dag_nodes=s_dag.node_count(), t_dag_nodes=t_dag.node_count(),
            entries=sum(map(len, memo.values())),
        )
    return t_root in root_entry


def _bind_once(m, key, prepare):
    """alternatives(q, label) of engine key on m: prepare(q, label,
    prepared) gives them once, kept in prepared = m._prepared under
    (key, q, label).  prepare may compile terms into prepared, but must
    not reach m, or the model would become a cycle."""
    prepared = m._prepared

    def alternatives(q, label):
        got = prepared.get((key, q, label))
        if got is None:
            got = prepared[key, q, label] = prepare(q, label, prepared)
        return got

    return alternatives


def _io_rules(m: Mtt):
    """member_io's alternatives: the rules of m, compiled."""
    rules = m.rules
    return _bind_once(m, "io", lambda q, sym, terms: tuple(
        compile_rhs(rhs, terms) for rhs in rules.get((q, sym), ())))


def member_io(m: Mtt, s: Tree, t: Tree, stats: dict | None = None) -> bool:
    """Is t an output of m on s under call-by-value semantics?

    Input trees outside the input alphabet raise AlphabetMismatch; a
    candidate t that is not well formed over the output alphabet cannot
    be produced and yields False.
    """
    _refuse_guards(m)
    return _member(m, s, t, _io_rules(m), stats)


class _StageTooBig(Exception):
    pass


def _det_output(m: Mtt, s: Tree, bound: int) -> Tree:
    """The unique output of a deterministic total transducer on s.

    Trees are built with full structural sharing, so sizes may be huge
    while construction stays cheap.  Raises AlphabetMismatch unless s is
    over m's input alphabet, and _StageTooBig as soon as the final output
    exceeds the bound.
    """
    s_dag, s_root = build_dag(s)
    check_input_dag(m, s_dag)
    memo: dict = {}

    def go(q: str, node: int, args: tuple) -> Tree:
        key = (q, node, args)
        got = memo.get(key)
        if got is None:
            rhs = m.alternatives(q, s_dag.labels[node])[0]
            memo[key] = got = build(rhs, node, args)
        return got

    # list comprehensions, not generators: tuple() resuming a generator
    # nests on the C stack, which deep inputs overflow
    def build(rhs, node, args) -> Tree:
        if isinstance(rhs, Param):
            return args[rhs.index - 1]
        if isinstance(rhs, Out):
            return Tree(rhs.sym, [build(a, node, args) for a in rhs.args])
        vals = tuple([build(a, node, args) for a in rhs.args])
        return go(rhs.state, s_dag.kids[node][rhs.child - 1], vals)

    try:
        with recursion_room(_frames(m, s_dag)):
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
        try:
            cur = _det_output(m, cur, bound)
        except _StageTooBig:
            return False
    return cur == t
