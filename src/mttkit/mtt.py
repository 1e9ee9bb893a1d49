"""Macro tree transducer model: rule right-hand sides, validation, classes,
and the static count of how often a state's outputs copy each parameter.

A transducer has states with ranks (accumulating parameter counts), an
initial state of rank 0, and rules indexed by (state, input symbol).
A right-hand side is a tree over output symbols, parameters y_i, and
state calls q[x_j](args); multi-return terms read let-bound variables
z_j instead of calling states.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import MappingProxyType

from .errors import (
    ArityMismatch,
    BadInitialRank,
    RhsTooDeep,
    UnknownState,
    UnknownSymbol,
)
from .trees import RankedAlphabet

# right-hand sides are compared, printed and evaluated recursively, so
# deeper terms would overflow the interpreter stack; the DSL reports the
# same bound
MAX_NESTING = 256


@dataclass(frozen=True, slots=True)
class Out:
    """An output-symbol node in a right-hand side."""

    sym: str
    args: tuple = ()
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        # hashed once, from the arguments' kept hashes: a term sharing
        # subterms hashes in its distinct subterms, not its paths
        object.__setattr__(self, "_hash", hash((self.sym, self.args)))

    def __hash__(self):
        return self._hash


@dataclass(frozen=True, slots=True)
class Param:
    """An accumulating parameter y_index (1-based)."""

    index: int


@dataclass(frozen=True, slots=True)
class Call:
    """A state call q[x_child](args); child is a 1-based input variable."""

    state: str
    child: int
    args: tuple = ()
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        # hashed once, as Out is
        object.__setattr__(self, "_hash", hash((self.state, self.child, self.args)))

    def __hash__(self):
        return self._hash


@dataclass(frozen=True, slots=True)
class ZVar:
    """Reference to a let-bound tuple component of a multi-return rule,
    1-based."""

    index: int

    def __post_init__(self):
        if self.index < 1:
            raise ValueError(f"z-variable index must be >= 1, got {self.index}")


Rhs = Out | Param | Call


def walk_rhs(r: Rhs):
    """Yield each distinct subterm object of a right-hand side once,
    parent before children, so shared subterms cost one visit."""
    stack, seen = [r], set()
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        yield node
        if isinstance(node, (Out, Call)):
            stack.extend(reversed(node.args))


def _nesting(terms) -> int:
    """Levels of the deepest of the terms, a leaf (Param, ZVar) counting
    one.  A level holds each subterm object once, so terms built in code
    that share subterms cannot make a level grow by doubling."""
    depth, level = 0, terms
    while level:
        depth += 1
        level = {id(a): a for u in level
                 for a in getattr(u, "args", ())}.values()
    return depth


def distinct_rules(rules: dict, terms) -> MappingProxyType:
    """The rule table, read-only, with each alternative list as a tuple,
    structural duplicates dropped and written order kept.

    terms(alt) gives the terms of one alternative.  A term nested deeper
    than MAX_NESTING (see _nesting) raises RhsTooDeep here, before
    comparing would overflow the interpreter stack.
    """
    for (q, sym), alts in rules.items():
        for alt in alts:
            depth = _nesting(terms(alt))
            if depth > MAX_NESTING:
                raise RhsTooDeep(
                    f"rule {q}/{sym}: right-hand side nests {depth} levels "
                    f"deep, more than {MAX_NESTING}"
                )
    return MappingProxyType({key: tuple(dict.fromkeys(alts))
                             for key, alts in rules.items()})


def freeze(model, **attrs) -> None:
    """Set attributes of a frozen model, from its __post_init__ only.
    Attributes that are not fields are no init parameters and not part
    of ==, so the indexes a model builds live there."""
    for name, value in attrs.items():
        object.__setattr__(model, name, value)


@dataclass(frozen=True)
class Mtt:
    """A macro tree transducer, checked when built and read-only after.

    rules maps (state, input symbol) to the alternatives for that pair;
    alternatives are kept in written order but mean a set, so structural
    duplicates are dropped when the transducer is built.  validate then
    runs once, and the attribute mtt_class keeps what it returned.
    _prepared holds one table per engine, filled with a function per
    (state, symbol) pair as the engine meets the pair, and member_io's
    copy analysis under "copy_counts".
    """

    name: str
    input_alphabet: RankedAlphabet
    output_alphabet: RankedAlphabet
    states: dict[str, int]
    initial: str
    rules: dict[tuple[str, str], tuple[Rhs, ...]]

    def __post_init__(self):
        freeze(self, states=MappingProxyType(dict(self.states)),
               rules=distinct_rules(self.rules, lambda rhs: (rhs,)),
               _prepared={})
        freeze(self, mtt_class=validate(self))

    def alternatives(self, state: str, sym: str) -> tuple[Rhs, ...]:
        """Rule alternatives for (state, sym)."""
        return self.rules.get((state, sym), ())


@dataclass(frozen=True, slots=True)
class MttClass:
    """Classification flags computed by validate."""

    deterministic: bool
    total: bool
    linear_input: bool
    linear_params: bool
    max_state_rank: int


def check_rhs(m, rhs: Rhs, state_rank: int, input_rank: int, where: str,
              zs: int | None = None) -> None:
    """Structural well-formedness of one right-hand side.

    zs is None for an mtt right-hand side.  For a term of a multi-return
    rule it is the number of z-variables bound where the term stands:
    the term may read z1..z{zs} and may call no state.
    """
    for node in walk_rhs(rhs):
        if isinstance(node, Param):
            if not 1 <= node.index <= state_rank:
                raise ArityMismatch(
                    f"{where}: parameter y{node.index} out of range for rank {state_rank}"
                )
        elif isinstance(node, Out):
            if node.sym not in m.output_alphabet:
                raise UnknownSymbol(f"{where}: output symbol {node.sym!r} not declared")
            r = m.output_alphabet.rank(node.sym)
            if r != len(node.args):
                raise ArityMismatch(
                    f"{where}: output symbol {node.sym!r} has rank {r}, got {len(node.args)} args"
                )
        elif isinstance(node, ZVar):
            if zs is None or not 1 <= node.index <= zs:
                raise ArityMismatch(f"{where}: z{node.index} is not bound at this point")
        elif zs is not None:
            raise ArityMismatch(f"{where}: calls may not appear inside terms: {node!r}")
        else:
            if node.state not in m.states:
                raise UnknownState(f"{where}: state {node.state!r} not declared")
            if not 1 <= node.child <= input_rank:
                raise ArityMismatch(
                    f"{where}: input variable x{node.child} out of range for rank {input_rank}"
                )
            r = m.states[node.state]
            if r != len(node.args):
                raise ArityMismatch(
                    f"{where}: state {node.state!r} takes {r} parameters, got {len(node.args)}"
                )


def _children_first(r: Rhs):
    """Yield each distinct subterm object of a right-hand side once,
    every child before its parents."""
    done: set[int] = set()
    stack = [r]
    while stack:
        node = stack[-1]
        if id(node) in done:
            stack.pop()
            continue
        todo = [a for a in getattr(node, "args", ()) if id(a) not in done]
        if todo:
            stack.extend(todo)
            continue
        stack.pop()
        done.add(id(node))
        yield node


def _linear(rhs: Rhs, kind) -> bool:
    """No input variable (kind "input") or parameter (kind "param") is
    used on two paths of rhs.  Each distinct subterm object is visited
    once and keeps the indices its paths use, so a subterm shared by two
    parents counts as used twice."""
    uses: dict[int, set] = {}  # id(subterm) -> indices it uses
    for node in _children_first(rhs):
        if kind == "input":
            own = {node.child} if isinstance(node, Call) else set()
        else:
            own = {node.index} if isinstance(node, Param) else set()
        count = len(own)
        for a in getattr(node, "args", ()):
            own |= uses[id(a)]
            count += len(uses[id(a)])
        if len(own) < count:
            return False
        uses[id(node)] = own
    return True


def copy_counts(m) -> dict[str, tuple[int, ...]]:
    """For each state of m that heads a rule, one count per parameter:
    0 or 1 when no output of the state, on any input, holds the
    parameter more than that often, and 2 when some output may hold it
    twice or more.  A state with no rule has no output, so it counts 0
    at every position; it is left out, so that its declared rank costs
    nothing.
    A TacMtt's rules are read without their guards (m.alternatives),
    which only remove alternatives, so its counts over-approximate.

    A least fixpoint over the rules, with counts capped at 2: a Param
    counts 1, an Out the sum of its children, and a Call, summed over
    the callee's parameters j, the callee's count for j times the count
    of argument j.  Each distinct subterm object is counted once and
    each of its parents adds that count, so a subterm shared by two
    parents counts in both.  The callee's count is its largest over all
    inputs and rules, so a 2 may be spurious; a 0 or 1 is sound.
    Computed on first use and kept in m._prepared.
    """
    got = m._prepared.get("copy_counts")
    if got is not None:
        return got
    counts = {q: [0] * m.states[q] for q, _ in m.rules}
    changed = True
    while changed:
        changed = False
        for q, sym in m.rules:
            best, zero = counts[q], [0] * len(counts[q])
            for rhs in m.alternatives(q, sym):
                vec: dict[int, list[int]] = {}  # id(subterm) -> its counts
                for node in _children_first(rhs):
                    v = zero[:]
                    if isinstance(node, Param):
                        v[node.index - 1] = 1
                    else:
                        callee = (counts.get(node.state, ())
                                  if isinstance(node, Call)
                                  else [1] * len(node.args))
                        for times, a in zip(callee, node.args):
                            if times:
                                for j, n in enumerate(vec[id(a)]):
                                    v[j] = min(2, v[j] + times * n)
                    vec[id(node)] = v
                for j, n in enumerate(vec[id(rhs)]):
                    if n > best[j]:
                        best[j] = n
                        changed = True
    got = m._prepared["copy_counts"] = {q: tuple(c) for q, c in counts.items()}
    return got


def check_header(m, ranks: dict[str, int]) -> None:
    """Checks shared by every transducer kind: the initial state, the
    state ranks, and the (state, symbol) keys of the rule table."""
    if m.initial not in ranks:
        raise UnknownState(f"initial state {m.initial!r} is not declared")
    if ranks[m.initial] != 0:
        raise BadInitialRank(
            f"initial state {m.initial!r} has rank {ranks[m.initial]}, expected 0"
        )
    for q, r in ranks.items():
        if r < 0:
            raise ArityMismatch(f"state {q!r} has negative rank {r}")
    for q, sym in m.rules:
        if q not in ranks:
            raise UnknownState(f"rule for undeclared state {q!r}")
        if sym not in m.input_alphabet:
            raise UnknownSymbol(f"rule on undeclared input symbol {sym!r}")


# the engine that takes each transducer kind, by class name: two kinds
# live in modules that import this one
_ENGINE_OF = {"Mtt": "member_io", "TacMtt": "member_io_tac", "MrMtt": "member_mr_io"}


def check_kind(m, kind: type) -> None:
    """Raise TypeError unless m is of kind, the transducer class an
    engine reads: it would misread another kind's rules, such as a
    TacMtt's without their guards.  The message names the engine that
    takes m's kind."""
    if not isinstance(m, kind):
        given = type(m).__name__
        use = _ENGINE_OF.get(given)
        raise TypeError(f"this engine takes {kind.__name__}, not {given}"
                        + (f"; use {use}" if use else ""))


def validate(m) -> MttClass:
    """Check structural well-formedness and classify an Mtt, or a TacMtt
    with its guards dropped (both are read through alternatives()).
    Each runs it once, when built, and keeps the result as mtt_class.

    deterministic: at most one alternative per (state, symbol).  total:
    at least one alternative for every (state, symbol) pair.  Linearity
    is per right-hand side.  All are read in one pass over the rule
    table, whose pairs check_header has placed in states x symbols.
    """
    check_header(m, m.states)
    deterministic = linear_input = linear_params = True
    covered = 0
    for q, sym in m.rules:
        alts, where = m.alternatives(q, sym), f"rule {q}/{sym}"
        deterministic &= len(alts) < 2
        covered += bool(alts)
        for rhs in alts:
            check_rhs(m, rhs, m.states[q], m.input_alphabet.rank(sym), where)
            linear_input = linear_input and _linear(rhs, "input")
            linear_params = linear_params and _linear(rhs, "param")
    return MttClass(
        deterministic=deterministic,
        total=covered == len(m.states) * len(m.input_alphabet.symbols),
        linear_input=linear_input,
        linear_params=linear_params,
        max_state_rank=max(m.states.values(), default=0),
    )
