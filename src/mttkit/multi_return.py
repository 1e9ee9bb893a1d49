"""Multi-return transducers: states return tuples of trees.

A state of dimension D maps an input subtree and parameter values to a
set of D-tuples of output trees.  Right-hand sides are a sequence of
let-bindings, each calling a state on an input child and naming the
components of one returned tuple, followed by a result tuple built from
output symbols, parameters y_i, and let-bound variables z_j.  Calls
never nest inside terms, which is what keeps membership tractable here
even though the call-by-value translation can relate one input to
exponentially many outputs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import MappingProxyType, SimpleNamespace

from .errors import ArityMismatch, BadInitialRank, EnvLimitExceeded, UnknownState
from .io_membership import _member, _table, compile_terms
from .mtt import (Param, ZVar, check_header, check_kind, check_rhs,
                  distinct_rules, freeze, walk_rhs)
from .oracle import Budget, TreeSet, _Meter, y_leaf
from .trees import RankedAlphabet, Tree, build_dag, substitute

# the most environments one rule of member_mr_io may hold after a let
# when no cap is given
ENV_CAP = 100_000


@dataclass(frozen=True, slots=True)
class MrLet:
    """let (z_i, .., z_{i+D-1}) = state[x_child](args)"""

    targets: tuple[int, ...]
    state: str
    child: int
    args: tuple = ()


@dataclass(frozen=True, slots=True)
class MrRhs:
    lets: tuple[MrLet, ...]
    result: tuple  # terms over Out / Param / ZVar


@dataclass(frozen=True)
class MrMtt:
    """A multi-return transducer, checked once when built (validate_mr)
    and read-only after; _prepared as for an Mtt."""

    name: str
    input_alphabet: RankedAlphabet
    output_alphabet: RankedAlphabet
    ranks: dict[str, int]
    dims: dict[str, int]
    initial: str
    rules: dict = field(default_factory=dict)  # (state, sym) -> tuple[MrRhs, ...]

    def __post_init__(self):
        rules = distinct_rules(self.rules, lambda rhs: (
            *(a for let in rhs.lets for a in let.args), *rhs.result))
        freeze(self, ranks=MappingProxyType(dict(self.ranks)),
               dims=MappingProxyType(dict(self.dims)),
               rules=rules, _prepared={})
        validate_mr(self)

    def rank(self, state: str) -> int:
        if state not in self.ranks:
            raise UnknownState(f"unknown state {state!r}")
        return self.ranks[state]

    def alternatives(self, state: str, sym: str) -> tuple[MrRhs, ...]:
        return self.rules.get((state, sym), ())


def validate_mr(m: MrMtt) -> None:
    """Structural checks; raises on the first violation found."""
    if set(m.ranks) != set(m.dims):
        raise UnknownState("ranks and dims must cover the same states")
    check_header(m, m.ranks)
    for q, d in m.dims.items():
        if d < 1:
            raise ArityMismatch(f"state {q!r} has dimension {d}, must be >= 1")
    if m.dims[m.initial] != 1:
        raise BadInitialRank(
            f"initial state {m.initial!r} has dimension "
            f"{m.dims[m.initial]}, expected 1")
    for (q, sym), alts in m.rules.items():
        k = m.input_alphabet.rank(sym)
        rank = m.ranks[q]
        dim = m.dims[q]
        where = f"rule {q}/{sym}"
        for rhs in alts:
            n_z = 0
            for let in rhs.lets:
                if let.state not in m.ranks:
                    raise UnknownState(f"{where}: call to unknown state {let.state!r}")
                if not 1 <= let.child <= k:
                    raise ArityMismatch(
                        f"{where}: child x{let.child} out of range for {sym!r}/{k}")
                if let.targets != tuple(range(n_z + 1, n_z + 1 + m.dims[let.state])):
                    raise ArityMismatch(
                        f"{where}: let targets {let.targets} must be the next "
                        f"{m.dims[let.state]} consecutive z-variables after z{n_z}")
                if len(let.args) != m.ranks[let.state]:
                    raise ArityMismatch(
                        f"{where}: {let.state!r} expects {m.ranks[let.state]} "
                        f"arguments, got {len(let.args)}")
                for a in let.args:
                    check_rhs(m, a, rank, k, where, n_z)
                n_z += m.dims[let.state]
            if len(rhs.result) != dim:
                raise ArityMismatch(
                    f"{where}: result tuple has {len(rhs.result)} components, "
                    f"state dimension is {dim}")
            for term in rhs.result:
                check_rhs(m, term, rank, k, where, n_z)


def _term_tree(term, ys: tuple, zs: tuple) -> Tree:
    if isinstance(term, Param):
        return ys[term.index - 1]
    if isinstance(term, ZVar):
        return zs[term.index - 1]
    return Tree(term.sym, tuple(_term_tree(a, ys, zs) for a in term.args))


class MrEvaluator:
    """Call-by-value tuple semantics, memoized per (state, input subtree).

    Denotations carry formal parameters as y-leaves; eval_mr_state
    substitutes actual arguments afterwards, so one memo entry serves
    every argument vector.
    """

    def __init__(self, m: MrMtt, budget: Budget | None = None):
        check_kind(m, MrMtt)
        self.m = m
        self.budget = budget or Budget()
        self._meter = _Meter(self.budget, prune_size=None)
        self._memo: dict = {}

    def state_tuples(self, state: str, s: Tree) -> frozenset:
        """All tuples of parameterized trees the state yields on s."""
        key = (state, s)
        got = self._memo.get(key)
        if got is not None:
            return got
        m = self.m
        formals = tuple(y_leaf(i) for i in range(1, m.rank(state) + 1))
        acc: set = set()
        for rhs in m.alternatives(state, s.label):
            acc |= self._rhs_tuples(rhs, s, formals)
            self._meter.check_set(acc)
        result = frozenset(acc)
        self._memo[key] = result
        return result

    def _rhs_tuples(self, rhs: MrRhs, s: Tree, formals: tuple) -> set:
        envs: set = {()}
        for let in rhs.lets:
            callee = self.state_tuples(let.state, s.children[let.child - 1])
            new_envs: set = set()
            for zs in envs:
                actuals = tuple(_term_tree(a, formals, zs) for a in let.args)
                for tup in callee:
                    self._meter.tick()
                    bound = tuple(self._apply_args(comp, actuals) for comp in tup)
                    new_envs.add(zs + bound)
            envs = new_envs
            self._meter.check_set(envs)
        out: set = set()
        for zs in envs:
            self._meter.tick()
            out.add(tuple(_term_tree(term, formals, zs) for term in rhs.result))
        return out

    def _apply_args(self, comp: Tree, ys: tuple) -> Tree:
        # components are parameterized in the *callee's* y's; lets in this
        # rhs use terms over the caller's scope, already ground here; one
        # step of this evaluator's budget, under its tree-size bound
        if not ys:
            return comp
        self._meter.tick()
        out = substitute(comp, {f"y{i}": y for i, y in enumerate(ys, 1)})
        self._meter.admits(out.size)
        return out


def eval_mr_state(m: MrMtt, state: str, s: Tree, args: tuple[Tree, ...],
                  budget: Budget | None = None) -> frozenset:
    """Tuples produced by one state on s with ground argument trees."""
    ev = MrEvaluator(m, budget)
    if len(args) != m.rank(state):
        raise ArityMismatch(
            f"state {state!r} expects {m.rank(state)} arguments, got {len(args)}")
    return frozenset(tuple(ev._apply_args(comp, args) for comp in tup)
                     for tup in ev.state_tuples(state, s))


def eval_mr_io(m: MrMtt, s: Tree, budget: Budget | None = None) -> TreeSet:
    """The translation's output set on s (initial state, dimension 1)."""
    tuples = eval_mr_state(m, m.initial, s, (), budget)
    return TreeSet(tup[0] for tup in tuples)


def _kept_after(rhs: MrRhs) -> tuple[tuple[int, ...], ...]:
    """kept[i] = the z-indices an environment holds after let i: those
    bound by lets 0..i and read by a later let or the result tuple, in
    ascending order."""
    reads = _zreads(rhs.result)
    kept: list[tuple[int, ...]] = [()] * len(rhs.lets)
    bound = sum(len(let.targets) for let in rhs.lets)
    for i in range(len(rhs.lets) - 1, -1, -1):
        kept[i] = tuple(sorted(j for j in reads if j <= bound))
        bound -= len(rhs.lets[i].targets)
        reads |= _zreads(rhs.lets[i].args)
    return tuple(kept)


def _zreads(terms) -> set[int]:
    """The z-indices the terms read."""
    return {u.index for term in terms for u in walk_rhs(term) if isinstance(u, ZVar)}


def _plan(rhs: MrRhs, rank: int) -> tuple:
    """rhs as (lets, results) over environments.  A let keeps its callee,
    child i, read as kids[i] of the input node's key (see TreeDag), the
    function of its arguments over the environment before it
    and where in that environment and the returned tuple the next one's
    slots are; results is the function of the result tuple."""
    def terms(ts, live):
        # an environment holds the rank parameters, then the live
        # z-variables in ascending order
        return compile_terms(ts, {j: rank + k for k, j in enumerate(live)})

    lets, live = [], ()
    for let, kept in zip(rhs.lets, _kept_after(rhs)):
        pool = live + let.targets
        keep = tuple(range(rank)) + tuple(rank + pool.index(j) for j in kept)
        lets.append((let.state, let.child, terms(let.args, live), keep))
        live = kept
    return tuple(lets), terms(rhs.result, live)


def _mr_alternatives(rhss: tuple, rank: int, where: str):
    """The alternatives rhss of rule where as one function on the demand
    core, alt(ybar, kids, ask, meter): their result tuples of references;
    None when rhss is empty."""
    if not rhss:
        return None
    plans = tuple([_plan(rhs, rank) for rhs in rhss])

    # plans and where as defaults, as the generated functions take theirs
    def alt(ybar, kids, ask, meter, plans=plans, where=where):
        out: set = set()
        for lets, results in plans:
            envs: set = {ybar}
            for i, (q, j, args, keep) in enumerate(lets):
                child = kids[j]
                new_envs: set = set()
                for env in envs:
                    for tup in ask(child, q, args(env, meter)):
                        full = env + tup
                        new_envs.add(tuple([full[p] for p in keep]))
                envs = new_envs
                meter.max_envs = max(meter.max_envs, len(envs))
                if len(envs) > meter.env_cap:
                    raise EnvLimitExceeded(
                        f"rule {where}: {len(envs)} environments "
                        f"after let {i + 1}, cap is {meter.env_cap}")
            # tuples may carry BOTTOM components: a returned tree that is
            # no subtree of t is legal as long as the caller never uses
            # that component in the final output
            out.update([results(env, meter) for env in envs])
        return out

    return alt


def member_mr_io(m: MrMtt, s: Tree, t: Tree, env_cap: int = ENV_CAP,
                 stats: dict | None = None) -> bool:
    """Is t an output of m on s under call-by-value?

    Demand-driven on the same demand core as member_io: an entry holds,
    for one input DAG node, state, and vector of candidate nodes (or
    BOTTOM) for the parameters, the tuples of candidate nodes the state
    can return; only the entries the verdict depends on are computed.
    Let-bindings are processed left to right over environment sets
    projected to live variables; a rule whose environment set exceeds
    env_cap (ENV_CAP unless given) raises EnvLimitExceeded rather than
    silently degrading.  env_cap must be a positive int.  stats gets
    _member's keys and max_envs, the largest environment set; when the
    cap runs out, the sizes, DAG node counts and max_envs.
    """
    if type(env_cap) is not int or env_cap < 1:
        raise ValueError(f"env cap must be a positive int, got {env_cap!r}")
    check_kind(m, MrMtt)
    rules, ranks = m.rules, m.ranks
    alternatives = _table(m, "mr-io", lambda q, sym: _mr_alternatives(
        rules.get((q, sym), ()), ranks[q], f"{q}/{sym}"))
    # this query's cap and largest environment set, read by the
    # alternatives in place of t's DAG, with its intern table
    meter = SimpleNamespace(env_cap=env_cap, max_envs=0)
    try:
        return _member(m, build_dag(s)[0], t, alternatives, stats, meter=meter)
    finally:
        # also when the cap runs out
        if stats is not None:
            stats["max_envs"] = meter.max_envs
