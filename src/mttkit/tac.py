"""Bottom-up look-ahead automata with equality and disequality constraints.

A transition (sym, child states, eq, neq, target) applies at a node when
the children reached the listed states and every constrained child pair
is equal (eq) respectively different (neq) as subtrees.  Subtree
comparisons are reference comparisons on the input's own minimal DAG, so
each check is constant time.

The automaton must behave total-deterministically on the given input:
exactly one transition per node.  This is enforced while running, not
statically, since constraint satisfiability is input-dependent.  The
transitions are indexed by symbol and child states, so a run looks each
node up once and tests constraints only where constrained or overlapping
transitions share a key.

member_io_tac binds parameters as member_io does, by the guard-free
copy counts: guards only remove alternatives, so these over-approximate.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import MappingProxyType

from .errors import (
    ArityMismatch,
    NotDeterministic,
    NotTotal,
    UnknownState,
    UnknownSymbol,
)
from .io_membership import _compiled, _member
from .mtt import MttClass, Rhs, check_kind, distinct_rules, freeze, validate
from .trees import RankedAlphabet, Tree, TreeDag, build_dag


@dataclass(frozen=True, slots=True)
class TacTransition:
    sym: str
    states: tuple[str, ...]
    eq: tuple[tuple[int, int], ...] = ()
    neq: tuple[tuple[int, int], ...] = ()
    target: str = ""


@dataclass(frozen=True)
class Tac:
    """A look-ahead automaton; its state set is whatever transitions mention.

    Checked and indexed when built, read-only after: _index maps a
    symbol followed by child states, one flat tuple as a DAG node is, to
    the target of the one transition on them when it has no constraints,
    and else to all the transitions on them.
    """

    input_alphabet: RankedAlphabet
    transitions: tuple[TacTransition, ...]

    def __post_init__(self):
        transitions = tuple(self.transitions)
        index: dict[tuple[str, ...], list[TacTransition]] = {}
        for tr in transitions:
            index.setdefault((tr.sym, *tr.states), []).append(tr)
        freeze(self, transitions=transitions, _index={
            key: trs[0].target if len(trs) == 1 and not (trs[0].eq or trs[0].neq)
            else tuple(trs) for key, trs in index.items()})
        self.check()

    def states(self) -> set[str]:
        out = set()
        for tr in self.transitions:
            out.add(tr.target)
            out.update(tr.states)
        return out

    def check(self) -> None:
        for tr in self.transitions:
            if tr.sym not in self.input_alphabet:
                raise UnknownSymbol(f"look-ahead transition on undeclared symbol {tr.sym!r}")
            r = self.input_alphabet.rank(tr.sym)
            if r != len(tr.states):
                raise ArityMismatch(
                    f"look-ahead transition on {tr.sym!r} lists {len(tr.states)} "
                    f"child states, symbol has rank {r}"
                )
            _check_constraints(tr, r, f"look-ahead transition on {tr.sym!r}")


def _check_constraints(guard, r: int, where: str) -> None:
    """Every eq/neq pair of a transition or rule names children 1..r."""
    for i, j in (*guard.eq, *guard.neq):
        if not (1 <= i <= r and 1 <= j <= r):
            raise ArityMismatch(f"{where}: constraint ({i},{j}) out of range for rank {r}")


def _constraints_ok(tr: TacTransition, kid_refs) -> bool:
    for i, j in tr.eq:
        if kid_refs[i - 1] != kid_refs[j - 1]:
            return False
    for i, j in tr.neq:
        if kid_refs[i - 1] == kid_refs[j - 1]:
            return False
    return True


def _run_nodes(a: Tac, dag: TreeDag, nodes) -> list:
    """Look-ahead states for the given DAG nodes, children first, as a
    list indexed by node."""
    index, keys = a._index, dag.nodes
    states = [None] * len(keys)
    state_of = states.__getitem__
    for v in nodes:
        key = keys[v]
        state = index.get((key[0], *map(state_of, key[1:])), ())
        if type(state) is tuple:
            state = _choose(state, dag, v)
        states[v] = state
    return states


def _choose(transitions, dag: TreeDag, v: int) -> str:
    """The target of the one transition whose constraints hold at node v."""
    kid_refs = dag.nodes[v][1:]
    chosen = None
    for tr in transitions:
        if not _constraints_ok(tr, kid_refs):
            continue
        if chosen is not None:
            raise NotDeterministic(
                f"two look-ahead transitions apply at subtree "
                f"{_describe(dag, v)}"
            )
        chosen = tr
    if chosen is None:
        raise NotTotal(f"no look-ahead transition applies at subtree {_describe(dag, v)}")
    return chosen.target


def _describe(dag: TreeDag, v: int) -> str:
    text = dag.format_prefix(v, 61)
    return text if len(text) <= 60 else text[:57] + "..."


def run_tac(a: Tac, dag: TreeDag, v: int) -> str:
    """The look-ahead state of the subtree at node v."""
    dag._check(v)
    reach = set()
    stack = [v]
    while stack:
        u = stack.pop()
        if u not in reach:
            reach.add(u)
            stack.extend(dag.nodes[u][1:])
    return _run_nodes(a, dag, sorted(reach))[v]


@dataclass(frozen=True, slots=True)
class TacRule:
    """A guarded rule alternative.

    lookahead None matches any child states; eq/neq constrain input
    children by subtree (dis)equality.
    """

    rhs: Rhs
    lookahead: tuple[str, ...] | None = None
    eq: tuple[tuple[int, int], ...] = ()
    neq: tuple[tuple[int, int], ...] = ()


@dataclass(frozen=True)
class TacMtt:
    """A transducer whose rules are guarded by a look-ahead automaton;
    like an Mtt, checked once when built and read-only after, with
    _prepared as for an Mtt; member_io_tac's table is per state and node
    shape (_Shapes)."""

    name: str
    input_alphabet: RankedAlphabet
    output_alphabet: RankedAlphabet
    states: dict[str, int]
    initial: str
    rules: dict[tuple[str, str], tuple[TacRule, ...]]
    tac: Tac

    def __post_init__(self):
        rules = distinct_rules(self.rules, lambda rule: (rule.rhs,))
        freeze(self, states=MappingProxyType(dict(self.states)),
               rules=rules, _prepared={},
               _unguarded={key: tuple(dict.fromkeys(rule.rhs for rule in alts))
                           for key, alts in rules.items()})
        freeze(self, mtt_class=validate_tac_mtt(self))

    def alternatives(self, state: str, sym: str) -> tuple[Rhs, ...]:
        """The distinct right-hand sides for (state, sym), guards dropped."""
        return self._unguarded.get((state, sym), ())


def validate_tac_mtt(tm: TacMtt) -> MttClass:
    """Structural checks for rules, guards, and the look-ahead automaton.

    The returned classification describes the guard-free rule table;
    guardedness itself is enforced dynamically per input.  The automaton
    checked itself when it was built.
    """
    cls = validate(tm)
    known = tm.tac.states()
    for (q, sym), alts in tm.rules.items():
        r = tm.input_alphabet.rank(sym)
        for rule in alts:
            if rule.lookahead is not None:
                if len(rule.lookahead) != r:
                    raise ArityMismatch(
                        f"rule {q}/{sym}: guard lists {len(rule.lookahead)} "
                        f"look-ahead states, symbol has rank {r}"
                    )
                for p in rule.lookahead:
                    if p not in known:
                        raise UnknownState(
                            f"rule {q}/{sym}: look-ahead state {p!r} not in the automaton"
                        )
            _check_constraints(rule, r, f"rule {q}/{sym}")
    return cls


class _Shapes:
    """The label member_io_tac looks alternatives up by, per input node:
    its symbol, its children's look-ahead states, and which children are
    equal.  The look-ahead automaton runs over every DAG node when the
    shapes are made, since a NotTotal or NotDeterministic anywhere in the
    input is an error; only a node's shape tuple is put together when the
    demand reads it."""

    __slots__ = ("nodes", "states")

    def __init__(self, a: Tac, dag: TreeDag):
        self.nodes = dag.nodes
        self.states = _run_nodes(a, dag, range(dag.node_count()))

    def __getitem__(self, node: int) -> tuple:
        key = self.nodes[node]
        ks = key[1:]
        # equal children are one DAG node, so ks.index names each child's
        # equality class by its first member
        return (key[0], tuple(map(self.states.__getitem__, ks)),
                tuple(map(ks.index, ks)))


def member_io_tac(tm: TacMtt, s: Tree, t: Tree, stats: dict | None = None) -> bool:
    """Membership for a look-ahead transducer under call-by-value semantics.

    The look-ahead automaton runs first over the input's minimal DAG.
    The rule alternatives whose guards hold at a node are then looked up
    by the node's shape (_Shapes), and the same demand-driven automaton
    as member_io decides the verdict.
    Equality guards compare input subtrees, so they use the input's DAG;
    output reasoning uses the candidate output's DAG.  The two stores are
    independent.
    """
    check_kind(tm, TacMtt)
    rules, tac = tm.rules, tm.tac

    def guarded(q, shape):
        sym, kid_states, same = shape
        return tuple(dict.fromkeys(
            rule.rhs for rule in rules.get((q, sym), ())
            if rule.lookahead in (None, kid_states)
            and _constraints_ok(rule, same)))

    alternatives = _compiled(tm, "io-tac", guarded)
    return _member(tm, build_dag(s)[0], t, alternatives, stats,
                   labels=lambda s_dag: _Shapes(tac, s_dag))
