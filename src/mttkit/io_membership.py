"""Polynomial-time translation membership for call-by-value semantics,
and for call-by-name under a copy bound.

The decision procedure evaluates the transducer inversely over the DAGs
of the input and the candidate output: for each input DAG node, each
transducer state q and each vector of candidate-output DAG nodes bound
to q's parameters, it finds which DAG nodes q can produce.  One extra
reference, BOTTOM, abstracts every tree that is not a subtree of the
candidate output; anything built on top of such a tree is again not a
subtree, so one abstract value suffices.

demand computes these entries on demand from the root question, so
only the entries the verdict depends on are visited.  _member drives
every engine built on demand (member_io, the last stage of member_det
and member_oi_fc here, member_io_tac, member_mr_io), each giving it
the engine's one table on the model (_table):
alternatives[q, label] is the pair's function or None, generated the
first time the pair is read and kept.
The right-hand sides of a pair are generated into one straight-line
Python function (compile_rhs), and multi-return let arguments and
results into tuple-valued ones (compile_terms): each distinct subterm
is evaluated once, children first, against the candidate output's
intern table and label index.  Functions of equal source share one
code object (_code), and every table of them comes from one builder
(_compiled).
The two semantics differ only in how a call binds its argument sets,
so member_oi_fc runs on member_io's table, and demand's set-call alone
binds a set, by the query's semantics and the memo's size: per
reference, whole, or to its subsets of at most c nodes (call-by-name,
copy bound c).  An output node over sets has an image, the set of
candidate-output nodes it can be, computed once per candidate DAG
(_out_refs).
member_det's stages before its last run on that table too, over an
output DAG whose intern lookups add the nodes they miss (_det_output).
"""

from __future__ import annotations

from itertools import combinations, product
from math import prod
from operator import contains
from types import CodeType, FunctionType
from weakref import WeakValueDictionary

from .errors import ArityMismatch, NotDeterministic, NotTotal, UnknownSymbol
from .mtt import Call, Mtt, Out, Param, ZVar, check_kind, copy_counts
from .oracle import IO, OI, check_input_dag
from .trees import BOTTOM, Tree, TreeDag, build_dag, recursion_room

_EMPTY: frozenset = frozenset()
_BOTTOM: frozenset = frozenset((BOTTOM,))


def _out_refs(sym: str, kid_sets, dag: TreeDag) -> frozenset:
    """The image of an output-symbol node over child result sets: the
    references it can take.

    A real node v matches iff it carries sym and child i of v lies in the
    i-th set.  BOTTOM is produced iff all sets are nonempty and some
    selection of children cannot be a node of the candidate output:
    either a child is BOTTOM itself, or more selections exist than there
    are sym-nodes, or an explicit selection misses the intern table.

    Each set is a frozenset, or a tuple of one reference.  The image over
    sets of one reference each is one intern lookup.  Any other is
    computed once per candidate DAG (_image) and kept in dag.images
    under (sym, *kid_sets): it depends on sym, the sets and the DAG
    alone, and no DAG that grows (_det_output's) meets a set of two.
    """
    wide = False
    for ks in kid_sets:
        if not ks:
            return _EMPTY
        if len(ks) > 1:
            wide = True
    if not wide:
        # intern keys hold node references only, so a BOTTOM child misses
        return frozenset((dag.intern.get((sym, *[u for u, in kid_sets]),
                                         BOTTOM),))
    key = (sym, *kid_sets)
    got = dag.images.get(key)
    if got is None:
        got = dag.images[key] = _image(sym, kid_sets, dag)
    return got


def _image(sym: str, kid_sets, dag: TreeDag) -> frozenset:
    """_out_refs's image over nonempty sets, computed, at any rank: by
    one intern lookup per selection of children when there are no more
    selections than sym-nodes, else by a scan of the sym-nodes."""
    cands = dag.by_label.get(sym, ())
    if prod(map(len, kid_sets)) <= len(cands):
        # None for a selection that misses the intern table, as every
        # selection with a BOTTOM child does
        out = frozenset(map(dag.intern.get, product((sym,), *kid_sets)))
        return out - {None} | _BOTTOM if None in out else out
    # pigeonhole: distinct nodes have distinct keys, so some selection is
    # not a node and BOTTOM holds; matching nodes are found by scanning
    # sym-nodes instead
    nodes = dag.nodes
    return frozenset([v for v in cands
                      if all(map(contains, kid_sets, nodes[v][1:]))] + [BOTTOM])


# The globals of every generated function.  Generated source names only
# these, the builtin len, its parameters v, kids, ask and dag, the intern
# table I, locals t<k>, constants K<k>, and ask's set-call all with its
# keyword whole: symbols, states and intern keys come in as defaults, so
# no user name enters source text.  The functions are not stored here,
# so none of them is part of a cycle.
_SCOPE = {"BOTTOM": BOTTOM, "_out_refs": _out_refs}


class _Program:
    """Straight-line source over the distinct subterms of some terms,
    children first.  Each subterm but a parameter y_i or a z-variable z_j,
    which reads v[i - 1] or v[slots[j]] in place, is evaluated once into
    a local t<k>, holding one reference (an output node over
    one-reference children: one intern lookup) or a set of them (a call,
    or an output node over a set).

    A call over sets goes to demand's set-call ask.all, and an output
    node over sets to _out_refs, each taking a one-reference argument as
    a tuple of one.  With counts, the model's copy_counts,
    a call over sets passes the positions of the callee's parameters
    that are never copied, and v[i] is a frozenset for each bit i of
    mask: the function of state key (q, mask)."""

    def __init__(self, counts=None, mask=0, slots=None):
        self.counts = counts
        self.mask = mask
        self.slots = slots
        self.lines: list[str] = []
        self.consts: dict = {}
        self.values: dict = {}  # term -> (expression, is a set)
        self.intern = False

    def const(self, value) -> str:
        return f"K{self.consts.setdefault(value, len(self.consts))}"

    def value(self, term) -> tuple[str, bool]:
        if isinstance(term, Param):
            i = term.index - 1
            return f"v[{i}]", bool(self.mask >> i & 1)
        if isinstance(term, ZVar):
            return f"v[{self.slots[term.index]}]", False
        got = self.values.get(term)
        if got is None:
            got = self.values[term] = self._local(term)
        return got

    def _local(self, term) -> tuple[str, bool]:
        args = [self.value(a) for a in term.args]
        name = f"t{len(self.values)}"
        over_sets = any(is_set for _, is_set in args)
        if over_sets:
            sets = ", ".join(e if is_set else f"({e},)" for e, is_set in args)
            if isinstance(term, Out):
                expr = f"_out_refs({self.const(term.sym)}, [{sets}], dag)"
            else:
                # a callee with no rule counts 0 at every position
                whole = () if self.counts is None else tuple(
                    j for j, n in enumerate(self.counts.get(
                        term.state, (0,) * len(term.args))) if n < 2)
                whole = f", whole={self.const(whole)}" if whole else ""
                expr = (f"ask.all(kids[{term.child}], "
                        f"{self.const(term.state)}, [{sets}]{whole})")
        else:
            refs = [e for e, _ in args]
            if isinstance(term, Call):
                expr = (f"ask(kids[{term.child}], {self.const(term.state)}, "
                        f"{_tuple(refs)})")
            else:
                self.intern = True
                # intern keys hold node references only, never BOTTOM, so
                # a lookup with a BOTTOM child misses and yields BOTTOM
                key = (_tuple([self.const(term.sym), *refs]) if args
                       else self.const((term.sym,)))
                expr = f"I.get({key}, BOTTOM)"
        self.lines.append(f"    {name} = {expr}\n")
        return name, over_sets or isinstance(term, Call)

    def function(self, params: str, result: str):
        """The function of the source, with the constants as defaults."""
        intern = "    I = dag.intern\n" if self.intern else ""
        ks = "".join(f", K{k}" for k in range(len(self.consts)))
        source = (f"def _({params}{ks}):\n{intern}{''.join(self.lines)}"
                  f"    return {result}\n")
        return FunctionType(_code(source), _SCOPE, "_", tuple(self.consts))


def _tuple(exprs: list) -> str:
    """Source of the tuple of exprs."""
    return f"({', '.join(exprs)}{',' if len(exprs) == 1 else ''})"


# Generated source depends only on the shape of the terms, so many
# functions share one text; they share its code object too, kept here
# while some function uses it.
_CODES: WeakValueDictionary = WeakValueDictionary()


def _code(source: str) -> CodeType:
    """The code of the one function source defines."""
    code = _CODES.get(source)
    if code is None:
        (code,) = [c for c in compile(source, "<rhs>", "exec").co_consts
                   if isinstance(c, CodeType)]
        _CODES[source] = code
    return code


def compile_rhs(rhss: tuple, counts: dict | None = None, mask: int = 0):
    """The right-hand sides rhss of one (state, label) as one function
    alt(v, kids, ask, t_dag): the references of the candidate-output
    DAG t_dag they yield under parameter references v, at the input node
    kids, child i at kids[i] (see TreeDag), where ask(node, state, ubar) answers a
    state call; None when rhss is empty.  With the model's copy counts,
    calls bind sets as demand's set-call ask.all decides by the query's
    semantics, and v[i] is a set for each bit i of mask.

    The function is straight-line code over the distinct subterms of
    rhss (_Program), each evaluated once per entry, that returns the
    union of the alternatives.  Nothing is kept here: an engine's table
    (_table) keeps the function of each pair.
    """
    if not rhss:
        return None
    prog = _Program(counts, mask)
    roots = [prog.value(rhs) for rhs in rhss]
    one = ", ".join(e for e, is_set in roots if not is_set)
    result = " | ".join([e for e, is_set in roots if is_set]
                        + ([f"{{{one}}}"] if one else []))
    return prog.function("v, kids, ask, dag", result)


def compile_terms(terms: tuple, slots: dict):
    """Terms that call no state, such as multi-return let arguments and
    results, as one function f(v, t_dag): the tuple of their
    references, BOTTOM for one that is no node of the candidate
    output.  v is an environment: y_i reads v[i - 1] and z_j reads
    v[slots[j]].  Generated as compile_rhs's functions are."""
    prog = _Program(slots=slots)
    return prog.function("v, dag", _tuple([prog.value(term)[0] for term in terms]))


def demand(nodes, t_dag, alternatives, node: int, q: str,
           c: int | None = None, limit: int = 0):
    """The inverse evaluation, computed on demand: the entry of state q at
    input node with no parameters, and the memo of every entry it
    depended on.

    nodes[v] is input node v's key (see TreeDag): the label its
    alternatives are looked up by, then its child references.  An entry,
    per (input DAG node, state, parameter bindings), is computed only
    when a parent call asks for it, by one call of
    alt = alternatives[q, kids[0]], alt(vbar, kids, ask, t_dag) with
    kids = nodes[node], or is empty when alt is None; nodes is read once
    per entry computed.  The generated functions of compile_rhs ask
    ask(node, q, vbar) for a call with one reference per parameter, and
    ask.all for a call with a set of references K for some parameter,
    which binds each set by the semantics c and the memo's size against
    limit (see below).  Those of multi_return return tuples of
    references (given its meter as t_dag, see _member).

    ask.all(child, q, kid_sets, whole) asks input node child one question
    per combination of bindings, under state key (q, mask) when a
    parameter j is bound to a frozenset, mask having bit j set, and
    returns the union of the answers.  whole holds the positions of q's
    parameters that no output of q copies (mtt.copy_counts, under either
    semantics).
    Call-by-value (c None) binds K whole for a never-copied parameter
    when |K| >= 2 and the memo holds fewer than limit entries, its entry
    being the union of its references' entries; else per reference, and
    an empty K asks nothing.
    Call-by-name (copy bound c) drops BOTTOM from K, each occurrence
    picking its own tree of K: an emptied K binds BOTTOM and a singleton
    its reference.  A larger K binds whole when |K| <= c or the memo has
    room; past the limit, per reference for a never-copied parameter or
    when c is 1, else to each c-subset (entries are monotone in their
    bindings), exact when no output copies it more than c times.
    """
    memo: dict[tuple, frozenset] = {}

    def ask(node, q, vbar):
        key = (node, q, vbar)
        got = memo.get(key)
        if got is None:
            kids = nodes[node]
            alt = alternatives[q, kids[0]]
            got = memo[key] = (_EMPTY if alt is None else
                               frozenset(alt(vbar, kids, ask, t_dag)))
        return got

    def ask_all(node, q, kid_sets, whole=()):
        mask = 0
        if c is None:
            for j in whole:
                ks = kid_sets[j]
                if len(ks) > 1 and len(memo) < limit:
                    kid_sets[j] = (frozenset(ks),)
                    mask |= 1 << j
        else:
            for j, ks in enumerate(kid_sets):
                if BOTTOM in ks:
                    ks = frozenset(ks) - _BOTTOM
                if len(ks) < 2:
                    kid_sets[j] = ks or (BOTTOM,)
                elif len(ks) <= c or len(memo) < limit:
                    kid_sets[j] = (frozenset(ks),)
                    mask |= 1 << j
                elif c == 1 or j in whole:
                    kid_sets[j] = ks
                else:
                    kid_sets[j] = map(frozenset, combinations(ks, c))
                    mask |= 1 << j
        if mask:
            q = (q, mask)
        # ask's work inlined, one frame less per level: the pair's
        # function is looked up at the first miss
        got = []
        kids = None
        for vbar in product(*kid_sets):
            key = (node, q, vbar)
            entry = memo.get(key)
            if entry is None:
                if kids is None:
                    kids = nodes[node]
                    alt = alternatives[q, kids[0]]
                entry = memo[key] = (_EMPTY if alt is None else
                                     frozenset(alt(vbar, kids, ask, t_dag)))
            got.append(entry)
        # one union, built once: |= over frozensets would copy each time
        return got[0] if len(got) == 1 else _EMPTY.union(*got)

    ask.all = ask_all
    try:
        return ask(node, q, ()), memo
    finally:
        # ask reaches itself through its closure cell, and through
        # ask.all; without this the memo would live until the next full
        # garbage collection
        del ask


def _frames(s_dag: TreeDag) -> int:
    """Recursion room for s_dag: along a path of at most one input level
    per DAG node, each level takes two frames, a generated function and
    the core's ask or its set-call, whatever the model; three per level
    leave room."""
    return 3 * s_dag.node_count()


def _member(m, s_dag: TreeDag, t: Tree, alternatives, stats: dict | None,
            nodes=None, meter=None, c=None) -> bool:
    """Demand the initial state's entry at the root of the input DAG
    s_dag and look for t's root in it.  m checked itself when it was
    built; s_dag and t's DAG are checked: an input outside the input
    alphabet raises AlphabetMismatch, and a t outside the output
    alphabet is no output.

    demand reads s_dag's node keys, or the keys nodes(s_dag) when nodes
    is given, and c is the semantics.  The memo's whole-set limit (see
    demand) is per-reference binding's key bound,
    |s_dag| |Q| (|t_dag| + 1)^r, r the largest state rank (capped at
    64, where the bound is already past any memo), or 0 with
    meter (multi-return): entries hold tuples, and the alternatives get
    meter, holding t's intern table, in place of t's DAG.

    stats gets the sizes and DAG node counts of s and t before the
    demand, so also when a bound stops it, and the memo's entries and
    t's images after it: both 0 for a t outside the output alphabet.
    """
    check_input_dag(m, s_dag)
    t_dag, t_root = build_dag(t)
    if stats is not None:
        stats.update(
            s_size=s_dag.tree_size(), t_size=t.size,
            s_dag_nodes=s_dag.node_count(), t_dag_nodes=t_dag.node_count())
    try:
        m.output_alphabet.check_dag(t_dag)
    except (UnknownSymbol, ArityMismatch):
        if stats is not None:
            stats.update(entries=0, images=0)
        return False
    out, limit = t_dag, 0
    if meter is not None:
        meter.intern = t_dag.intern
        out, t_root = meter, (t_root,)
    else:
        limit = (s_dag.node_count() * len(m.states) * (t_dag.node_count() + 1)
                 ** min(m.mtt_class.max_state_rank, 64))
    with recursion_room(_frames(s_dag)):
        root_entry, memo = demand(
            s_dag.nodes if nodes is None else nodes(s_dag), out,
            alternatives, s_dag.root, m.initial, c, limit)
    if stats is not None:
        stats.update(entries=sum(map(len, memo.values())),
                     images=len(t_dag.images))
    return t_root in root_entry


class _Table(dict):
    """One engine's alternatives on one model (_table): table[q, label]
    is the pair's function or None, made by prepare(q, label) the first
    time the pair is read, and kept."""

    __slots__ = ("prepare",)

    def __missing__(self, key):
        got = self[key] = self.prepare(*key)
        return got


def _table(m, key, prepare) -> _Table:
    """The table of engine key on m, kept in m._prepared under key and
    given prepare when made.  prepare must not reach m, or the model
    would become a cycle."""
    got = m._prepared.get(key)
    if got is None:
        got = m._prepared[key] = _Table()
        got.prepare = prepare
    return got


def _compiled(m, key, lookup=None) -> _Table:
    """The table of engine key on m: pair (q, label) holds
    compile_rhs(lookup(q, label), counts, mask), lookup giving m's
    rules at symbol label by default, counts m's copy_counts, and mask
    0 but for a state key (q, mask) (see demand).  lookup must not reach
    m (see _table)."""
    if lookup is None:
        rules = m.rules
        lookup = lambda q, sym: rules.get((q, sym), ())
    counts = copy_counts(m)

    def prepare(q, label):
        q, mask = (q, 0) if isinstance(q, str) else q
        return compile_rhs(lookup(q, label), counts, mask)

    return _table(m, key, prepare)


def member_io(m: Mtt, s: Tree, t: Tree, stats: dict | None = None) -> bool:
    """Is t an output of m on s under call-by-value semantics?

    Input trees outside the input alphabet raise AlphabetMismatch; a
    candidate t that is not well formed over the output alphabet cannot
    be produced and yields False.
    """
    check_kind(m, Mtt)
    return _member(m, build_dag(s)[0], t, _compiled(m, "io"), stats)


def member_oi_fc(m: Mtt, c: int, s: Tree, t: Tree, stats: dict | None = None) -> bool:
    """Is t an output of m on s under call-by-name, with copy bound c?

    It runs on member_io's table, binding sets as demand's set-call
    does: whole, which is exact, while the memo is below _member's
    limit.  Past it a copied parameter binds to its c-subsets, exact
    only if c is at least the most copies of one parameter m can
    produce; c is not checked, and with a smaller c such a query's "no"
    can be wrong.
    """
    if type(c) is not int or c < 1:
        raise ValueError(f"copy bound must be a positive int, got {c!r}")
    check_kind(m, Mtt)
    return _member(m, build_dag(s)[0], t, _compiled(m, "io"), stats, c=c)


class _Growing(dict):
    """An intern table whose lookups add the nodes they miss."""

    __slots__ = ()

    def get(self, key, default=None):
        return self.setdefault(key, len(self))


def _det_output(m: Mtt, s_dag: TreeDag) -> TreeDag:
    """The minimal DAG of the unique output of a deterministic total
    transducer on the tree of s_dag: the root's entry, demanded on m's
    io table over an output DAG that its intern lookups grow, so sizes
    may be huge while construction stays cheap.  Every entry is one
    reference and no binding is BOTTOM, so no set is widened or bound
    whole.  Only the nodes under the output's root are kept: the grown
    DAG also holds the outputs of arguments a rule drops, whose symbols
    the next stage need not know.
    Raises AlphabetMismatch unless s_dag is over m's input alphabet.
    """
    check_input_dag(m, s_dag)
    out = TreeDag(_Growing())
    with recursion_room(_frames(s_dag)):
        (root,), _ = demand(s_dag.nodes, out, _compiled(m, "io"),
                            s_dag.root, m.initial)
    return TreeDag(out.intern).below(root)


def member_det(mtts, mode: str, s: Tree, t: Tree,
               stats: dict | None = None) -> bool:
    """Membership for a composition of deterministic total transducers.

    Call-by-value and call-by-name coincide here, so mode is interface
    only.  Each stage but the last is evaluated to the minimal DAG of its
    unique output tree (_det_output), the next stage's input DAG, and no
    stage output is built as a tree; the last stage is then decided by
    the core, as member_io decides it, so stats describe the last stage.
    An s, or a stage output, outside the input alphabet of the stage it
    feeds raises AlphabetMismatch, and a t outside the last stage's
    output alphabet is no output.
    """
    if mode not in (IO, OI):
        raise ValueError(f"mode must be {IO!r} or {OI!r}")
    mtts = list(mtts)
    if not mtts:
        raise ValueError("need at least one transducer")
    for m in mtts:
        check_kind(m, Mtt)
        if not m.mtt_class.deterministic:
            raise NotDeterministic(f"{m.name}: more than one alternative for some pair")
        if not m.mtt_class.total:
            raise NotTotal(f"{m.name}: missing alternative for some pair")
    *stages, last = mtts
    s_dag = build_dag(s)[0]
    for m in stages:
        s_dag = _det_output(m, s_dag)
    return _member(last, s_dag, t, _compiled(last, "io"), stats)
