"""Reference semantics by explicit set enumeration.

Every construct denotes a finite set of output trees, possibly containing
parameter leaves y1, y2, ...  Substitution into parameters comes in two
flavours: call-by-value (IO) binds each parameter to one tree and uses it
at every occurrence; call-by-name (OI) chooses independently per
occurrence.  These evaluators are deliberately naive; they exist as the
ground truth the polynomial engines are tested against, and they refuse
oversized instances via Budget rather than ever guessing.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from itertools import product

from .errors import AlphabetMismatch, ArityMismatch, BudgetExceeded, UnknownSymbol
from .mtt import Mtt, Out, Param, check_kind
from .trees import Tree, TreeDag, build_dag, substitute, term_sort_key

IO = "io"
OI = "oi"

YES = "yes"
NO = "no"
UNKNOWN = "unknown"

_PARAM_RE = re.compile(r"y([1-9][0-9]*)\Z")


def y_leaf(i: int) -> Tree:
    return Tree(f"y{i}")


def param_index(t: Tree) -> int | None:
    """The parameter number of a y-leaf, or None for ordinary nodes."""
    if t.children:
        return None
    m = _PARAM_RE.fullmatch(t.label)
    return int(m.group(1)) if m else None


@dataclass
class Budget:
    """Resource bounds for enumeration.

    Each bound is a positive int; max_tree_size None means unbounded.
    Exceeding any bound raises BudgetExceeded; it never silently drops
    trees.
    """

    max_set_size: int = 100_000
    max_tree_size: int | None = None
    max_steps: int = 10_000_000

    def __post_init__(self):
        bounds = [self.max_set_size, self.max_steps]
        if self.max_tree_size is not None:
            bounds.append(self.max_tree_size)
        for bound in bounds:
            if type(bound) is not int or bound < 1:
                raise ValueError(
                    f"budget bounds must be positive ints, got {bound!r}")


class TreeSet:
    """A finite set of trees listed in a canonical order (size, then text)."""

    __slots__ = ("_set", "_items")

    def __init__(self, trees=()):
        self._set = frozenset(trees)
        self._items = tuple(sorted(self._set, key=term_sort_key))

    def __len__(self):
        return len(self._set)

    def __iter__(self):
        return iter(self._items)

    @property
    def items(self) -> tuple:
        return self._items

    def __contains__(self, t):
        return t in self._set

    def __eq__(self, other):
        if isinstance(other, TreeSet):
            return self._set == other._set
        if isinstance(other, (set, frozenset)):
            return self._set == other
        return NotImplemented

    def __hash__(self):
        return hash(self._set)

    def __repr__(self):
        return f"TreeSet({len(self._set)} trees)"


@dataclass(frozen=True)
class App:
    """A state applied to a ground input tree, with term arguments."""

    state: str
    input: Tree
    args: tuple = ()


class _Meter:
    """Mutable budget accounting shared across one evaluator."""

    __slots__ = ("steps", "max_steps", "max_set", "max_tree", "prune")

    def __init__(self, budget: Budget, prune_size: int | None):
        self.steps = 0
        self.max_steps = budget.max_steps
        self.max_set = budget.max_set_size
        self.max_tree = budget.max_tree_size
        self.prune = prune_size

    def tick(self, n: int = 1):
        self.steps += n
        if self.steps > self.max_steps:
            raise BudgetExceeded(f"step budget {self.max_steps} exhausted")

    def admits(self, size: int) -> bool:
        """Whether a tree of this size may enter a result set."""
        if self.prune is not None and size > self.prune:
            return False
        if self.max_tree is not None and size > self.max_tree:
            raise BudgetExceeded(f"tree size budget {self.max_tree} exceeded ({size})")
        return True

    def check_set(self, s):
        if len(s) > self.max_set:
            raise BudgetExceeded(f"set size budget {self.max_set} exceeded")


def _products(label: str, kid_sets, meter: _Meter) -> set[Tree]:
    out = set()
    for combo in product(*kid_sets):
        size = 1
        for k in combo:
            size += k.size
        meter.tick()
        if not meter.admits(size):
            continue
        out.add(Tree(label, combo))
    meter.check_set(out)
    return out


def _io_subst_tree(t: Tree, sets, meter: _Meter) -> set[Tree]:
    # one choice per parameter, used at every occurrence
    occurring = sorted({i for node in t.subtrees() if (i := param_index(node))})
    if not occurring:
        meter.tick()
        return {t} if meter.admits(t.size) else set()
    out = set()
    for choice in product(*(sets[i - 1] for i in occurring)):
        bindings = {f"y{i}": c for i, c in zip(occurring, choice)}
        new = substitute(t, bindings)
        meter.tick()
        if meter.admits(new.size):
            out.add(new)
    meter.check_set(out)
    return out


def _oi_subst_tree(t: Tree, sets, meter: _Meter) -> set[Tree]:
    i = param_index(t)
    if i is not None:
        if i > len(sets):
            raise ArityMismatch(f"parameter y{i} but only {len(sets)} argument sets")
        return set(sets[i - 1])
    if not t.children:
        meter.tick()
        return {t} if meter.admits(t.size) else set()
    kid_sets = [_oi_subst_tree(c, sets, meter) for c in t.children]
    if any(not ks for ks in kid_sets):
        return set()
    return _products(t.label, kid_sets, meter)


def io_subst(trees, arg_sets, budget: Budget | None = None) -> TreeSet:
    """Call-by-value substitution of argument sets into trees.

    trees may be a single Tree or an iterable.  If any argument set is
    empty the result is empty, even for parameters that never occur.
    """
    if isinstance(trees, Tree):
        trees = (trees,)
    meter = _Meter(budget or Budget(), None)
    sets = [list(s) for s in arg_sets]
    if any(not s for s in sets):
        return TreeSet()
    out = set()
    for t in trees:
        _check_param_range(t, len(sets))
        out |= _io_subst_tree(t, sets, meter)
        meter.check_set(out)
    return TreeSet(out)


def oi_subst(trees, arg_sets, budget: Budget | None = None) -> TreeSet:
    """Call-by-name substitution: each occurrence chooses independently."""
    if isinstance(trees, Tree):
        trees = (trees,)
    meter = _Meter(budget or Budget(), None)
    sets = [list(s) for s in arg_sets]
    out = set()
    for t in trees:
        _check_param_range(t, len(sets))
        out |= _oi_subst_tree(t, sets, meter)
        meter.check_set(out)
    return TreeSet(out)


def _check_param_range(t: Tree, n: int):
    for node in t.subtrees():
        i = param_index(node)
        if i is not None and i > n:
            raise ArityMismatch(f"tree uses y{i} but only {n} argument sets given")


class Evaluator:
    """Enumerates denotations for one transducer under one mode.

    Sets for (state, input subtree) pairs are memoized, so one evaluator
    can serve many queries over related inputs cheaply.  prune_size, when
    set, silently discards trees larger than the bound; this is sound for
    membership because substitution never shrinks a tree.
    """

    def __init__(self, m: Mtt, mode: str, budget: Budget | None = None,
                 prune_size: int | None = None):
        if mode not in (IO, OI):
            raise ValueError(f"mode must be {IO!r} or {OI!r}")
        check_kind(m, Mtt)
        self.m = m
        self.mode = mode
        self.meter = _Meter(budget or Budget(), prune_size)
        self._sets: dict[tuple[str, Tree], frozenset[Tree]] = {}

    def state_set(self, q: str, s: Tree) -> frozenset[Tree]:
        """The denotation of state q on input s, over formal y-leaves."""
        key = (q, s)
        got = self._sets.get(key)
        if got is not None:
            return got
        self.meter.tick()
        acc: set[Tree] = set()
        for rhs in self.m.alternatives(q, s.label):
            acc |= self._rhs(rhs, s.children)
            self.meter.check_set(acc)
        got = frozenset(acc)
        self._sets[key] = got
        return got

    def _rhs(self, rhs, kids) -> set[Tree]:
        if isinstance(rhs, Param):
            return {y_leaf(rhs.index)}
        if isinstance(rhs, Out):
            kid_sets = [self._rhs(a, kids) for a in rhs.args]
            if any(not ks for ks in kid_sets):
                return set()
            return _products(rhs.sym, kid_sets, self.meter)
        arg_sets = [self._rhs(a, kids) for a in rhs.args]
        base = self.state_set(rhs.state, kids[rhs.child - 1])
        return self._subst(base, arg_sets)

    def _subst(self, base, arg_sets) -> set[Tree]:
        out: set[Tree] = set()
        if self.mode == IO:
            if any(not s for s in arg_sets):
                return out  # strict: an empty argument kills the call
            lists = [sorted(s, key=term_sort_key) for s in arg_sets]
            for t in base:
                out |= _io_subst_tree(t, lists, self.meter)
                self.meter.check_set(out)
        else:
            for t in base:
                out |= _oi_subst_tree(t, arg_sets, self.meter)
                self.meter.check_set(out)
        return out

    def eval_term(self, u) -> set[Tree]:
        """Denotation of a term: a Tree denotes itself, and an App the
        state's set on its input with its argument terms substituted."""
        if isinstance(u, Tree):
            return {u}
        if isinstance(u, App):
            arg_sets = [self.eval_term(a) for a in u.args]
            base = self.state_set(u.state, u.input)
            return self._subst(base, arg_sets)
        raise TypeError(f"not a semantic term: {u!r}")


def eval(m: Mtt, mode: str, u, budget: Budget | None = None) -> TreeSet:
    """Enumerate the denotation of a semantic term under the given mode.

    u is a Tree (denoting itself) or an App of a state to a ground input
    tree, with argument terms of either kind.
    """
    return TreeSet(Evaluator(m, mode, budget).eval_term(u))


def check_input_tree(m, s: Tree) -> None:
    """Raise AlphabetMismatch unless s is well formed over m's input alphabet."""
    check_input_dag(m, build_dag(s)[0])


def check_input_dag(m, dag: TreeDag) -> None:
    """check_input_tree on the DAG of the input tree."""
    try:
        m.input_alphabet.check_dag(dag)
    except (UnknownSymbol, ArityMismatch) as e:
        raise AlphabetMismatch(f"input tree is not over the input alphabet: {e}") from None


def oracle_member(m: Mtt, mode: str, s: Tree, t: Tree,
                  budget: Budget | None = None,
                  stats: dict | None = None) -> str:
    """Decide (s, t) membership by enumeration: 'yes', 'no', or 'unknown'.

    Trees larger than |t| are pruned during enumeration; that can only
    discard outputs different from t.  'unknown' reports budget
    exhaustion, or an enumeration that exhausts the recursion limit on a
    deep input, never an engine guess.
    """
    ev = Evaluator(m, mode, budget or Budget(), prune_size=t.size)
    check_input_tree(m, s)
    if stats is not None:
        stats.update(s_size=s.size, t_size=t.size)
    try:
        m.output_alphabet.check_dag(build_dag(t)[0])
    except (UnknownSymbol, ArityMismatch):
        verdict = NO  # t is no tree over the output alphabet
    else:
        try:
            verdict = YES if t in ev.state_set(m.initial, s) else NO
        except (BudgetExceeded, RecursionError):
            verdict = UNKNOWN
    if stats is not None:
        stats.update(steps=ev.meter.steps)
    return verdict
