"""Seeded query sets for the membership benchmark, with reference verdicts.

A query is a transducer (named by key, given as DSL text), an input s, a
candidate output t (both as term text), an engine and the expected
verdict.  Reference verdicts never come from the engine under test: they
come from the enumeration oracle (`oracle_eval`, io or oi mode), from
`eval_mr_io`, or from a construction whose output set the harness
cross-checks against the oracle at small sizes on every run.

All generation happens in the harness process before any timing starts.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import product

from mttkit import (App, Budget, BudgetExceeded, Call, MrLet, MrMtt, MrRhs,
                    Mtt, Out, Param, RankedAlphabet, Tac, TacMtt, TacRule,
                    TacTransition, Tree, ZVar, enumerate_trees, eval_mr_io,
                    families, format_term, format_transducer, oracle_eval,
                    parse_transducer, term_sort_key, tree)

FAN = """mtt fan {
  input { a: 1, e: 0 }
  output { f: 2, g: 1, e: 0 }
  state q0: 0 init
  state r: 0
  state p: 2
  rule q0(a(x1)) -> p[x1](r[x1], r[x1])
  rule r(a(x1)) -> g(r[x1])
  rule r(a(x1)) -> r[x1]
  rule r(e) -> e
  rule p(a(x1))(y1, y2) -> p[x1](g(y1), y2)
  rule p(a(x1))(y1, y2) -> p[x1](y2, y1)
  rule p(e)(y1, y2) -> f(y1, y2)
}
"""

# one occurrence of each parameter per right-hand side: copy bound 1
LINEAR_PARAM = """mtt lin {
  input { a: 1, b: 1, e: 0 }
  output { f: 2, g: 1, e: 0 }
  state q0: 0 init
  state q: 1
  state p: 2
  rule q0(a(x1)) -> p[x1](e, g(e))
  rule q0(a(x1)) -> q[x1](e)
  rule q0(b(x1)) -> q[x1](g(e))
  rule q0(e) -> e
  rule q(a(x1))(y1) -> q[x1](g(y1))
  rule q(b(x1))(y1) -> g(q[x1](y1))
  rule q(e)(y1) -> y1
  rule q(e)(y1) -> g(y1)
  rule p(a(x1))(y1, y2) -> p[x1](y2, y1)
  rule p(b(x1))(y1, y2) -> p[x1](g(y1), y2)
  rule p(e)(y1, y2) -> f(y1, y2)
  rule p(e)(y1, y2) -> f(y2, y1)
}
"""

# copies its parameter twice, at the leaf rule only: copy bound 2
LEAF_DOUBLE = """mtt leafdouble {
  input { a: 1, e: 0 }
  output { f: 2, g: 1, e: 0 }
  state q0: 0 init
  state q: 1
  rule q0(a(x1)) -> q[x1](e)
  rule q0(e) -> e
  rule q(a(x1))(y1) -> q[x1](g(y1))
  rule q(e)(y1) -> f(y1, y1)
  rule q(e)(y1) -> y1
}
"""

# the doubled parameter draws from {e, g(e)}: copy bound 2
MIXED_DOUBLE = """mtt mixeddouble {
  input { a: 1, e: 0 }
  output { f: 2, g: 1, e: 0 }
  state q0: 0 init
  state r: 0
  state q: 1
  rule q0(a(x1)) -> q[x1](r[x1])
  rule q0(e) -> e
  rule r(a(x1)) -> r[x1]
  rule r(e) -> e
  rule r(e) -> g(e)
  rule q(a(x1))(y1) -> q[x1](y1)
  rule q(e)(y1) -> f(y1, y1)
}
"""

IN_ALPHA = RankedAlphabet({"a": 2, "b": 1, "e": 0})
# two symbols per rank so single-label mutations always exist
OUT_ALPHA = RankedAlphabet({"f": 2, "h": 2, "g": 1, "u": 1, "c": 0, "d": 0})
# candidate outputs in small-batch: engine work grows as |t|^rank
T_MAX = 12
# keeps the oracle's output sets small for |s| <= 8; larger sets are dropped
SMALL_BUDGET = Budget(max_set_size=2_000, max_tree_size=40, max_steps=200_000)


@dataclass
class Query:
    family: str
    n: int          # sweep size of the family (0 when the family is not swept)
    engine: str
    m: str          # key into Workload.transducers
    s: str
    t: str
    want: bool
    c: int = 0      # copy bound, oi-fc only

    def to_json(self) -> dict:
        return self.__dict__.copy()


@dataclass
class Workload:
    name: str
    transducers: dict   # key -> DSL text
    queries: list
    parse_in_verdict: bool
    dropped: int        # pairs skipped because the oracle ran out of budget


class _QuerySet:
    """Collects transducers and queries for one workload."""

    def __init__(self, name: str, parse_in_verdict: bool = False):
        self.name = name
        self.parse_in_verdict = parse_in_verdict
        self.texts: dict[str, str] = {}
        self.queries: list[Query] = []
        self.dropped = 0

    def load(self, key: str, text: str):
        """Register DSL text; return the parsed transducer the worker will see."""
        self.texts[key] = text
        return parse_transducer(text)

    def add(self, family, n, engine, key, s: Tree, t: Tree, want, c=0):
        self.queries.append(Query(family, n, engine, key, format_term(s),
                                  format_term(t), bool(want), c))

    def done(self) -> Workload:
        return Workload(self.name, self.texts, self.queries,
                        self.parse_in_verdict, self.dropped)


def dsl_round_trip(m):
    """DSL text of a transducer object, and the transducer parsed from it."""
    text = format_transducer(m)
    # format_transducer prints a guard with constraints but no look-ahead
    # states as `when (eq 1 2)`, which parse_transducer rejects; the parser
    # reads the same guard as `when (; eq 1 2)`
    text = text.replace("when (eq ", "when (; eq ").replace("when (neq ", "when (; neq ")
    return text, parse_transducer(text)


# ---------------------------------------------------------------- trees

def chain(n: int, sym: str = "a", leaf: str = "e") -> Tree:
    t = tree(leaf)
    for _ in range(n):
        t = Tree(sym, (t,))
    return t


def word_tree(word: str, leaf: str = "e") -> Tree:
    """word[0](word[1](...(leaf)))"""
    t = tree(leaf)
    for ch in reversed(word):
        t = Tree(ch, (t,))
    return t


def mutate(rng: random.Random, t: Tree, alphabet: RankedAlphabet) -> Tree:
    """t with one node changed: relabelled to another symbol of the same
    rank, cut down to a leaf, or wrapped in a new parent."""
    nodes = list(t.subtrees())
    k = rng.randrange(len(nodes))
    node = nodes[k]
    syms = list(alphabet)
    leaves = [x for x in syms if alphabet.rank(x) == 0]
    edits = [Tree(x, node.children) for x in syms
             if alphabet.rank(x) == len(node.children) and x != node.label]
    if node.children:
        edits.append(Tree(rng.choice(leaves), ()))
    for x in syms:
        if alphabet.rank(x) > 0:
            edits.append(Tree(x, (node,) + tuple(
                Tree(rng.choice(leaves)) for _ in range(alphabet.rank(x) - 1))))
    return _replace(t, k, rng.choice(edits))


def _replace(t: Tree, index: int, repl: Tree) -> Tree:
    # rebuild along the preorder index; trees here are small
    counter = [0]

    def go(node):
        if counter[0] == index:
            counter[0] += node.size
            return repl
        counter[0] += 1
        kids = []
        for c in node.children:
            kids.append(go(c))
        return Tree(node.label, tuple(kids))

    return go(t)


def pick_candidates(rng, outputs, alphabet, n_yes, n_no, max_size=None):
    """(t, want) pairs: members of a known output set and mutations of
    members that are not in it, all of at most max_size nodes."""
    items = [t for t in sorted(outputs, key=term_sort_key)
             if max_size is None or t.size <= max_size]
    out = []
    if items:
        for t in rng.sample(items, min(n_yes, len(items))):
            out.append((t, True))
        n_no = min(n_no, len(out))     # keep yes and no about even
        tries = 0
        while sum(1 for _, w in out if not w) < n_no and tries < 20 * n_no:
            tries += 1
            t = mutate(rng, rng.choice(items), alphabet)
            if t not in outputs and (max_size is None or t.size <= max_size):
                out.append((t, False))
    else:
        # nothing produced (within max_size): any small tree is a no
        t = rng.choice(enumerate_trees(alphabet, max_size=3))
        if t not in outputs:
            out.append((t, False))
    return out


# ------------------------------------------------------ random transducers

def _random_rhs(rng, states, my_rank, input_rank, depth, linear=None):
    # linear: the parameters still unused in this right-hand side, or None
    roll = rng.random()
    if depth <= 0 or roll < 0.30:
        free = range(1, my_rank + 1) if linear is None else sorted(linear)
        if free and rng.random() < 0.5:
            i = rng.choice(list(free))
            if linear is not None:
                linear.discard(i)
            return Param(i)
        return Out(rng.choice(("c", "d")))
    if roll < 0.60 and input_rank > 0:
        q = rng.choice(list(states))
        args = tuple(_random_rhs(rng, states, my_rank, input_rank, depth - 1,
                                 linear) for _ in range(states[q]))
        return Call(q, rng.randint(1, input_rank), args)
    sym = rng.choice(("f", "h", "g", "u"))
    kids = tuple(_random_rhs(rng, states, my_rank, input_rank, depth - 1, linear)
                 for _ in range(OUT_ALPHA.rank(sym)))
    return Out(sym, kids)


def _random_states(rng, max_rank):
    states = {"q0": 0}
    for i in range(1, rng.randint(1, 3)):
        states[f"q{i}"] = rng.randint(0, max_rank)
    return states


def random_mtt(rng, name, *, det_total=False, linear=False) -> Mtt:
    """A small transducer over IN_ALPHA/OUT_ALPHA: <= 3 states of rank
    <= 2.  det_total gives exactly one alternative per pair; linear uses
    each parameter at most once per right-hand side (copy bound 1) and
    keeps ranks <= 1, since oi-fc enumerates (|t|+1)^rank bindings."""
    states = _random_states(rng, 1 if linear else 2)
    rules = {}
    for q, rank in states.items():
        for sym in IN_ALPHA:
            n_alts = 1 if det_total else rng.choices((0, 1, 2), (15, 55, 30))[0]
            alts = tuple(
                _random_rhs(rng, states, rank, IN_ALPHA.rank(sym), 2,
                            set(range(1, rank + 1)) if linear else None)
                for _ in range(n_alts))
            if alts:
                rules[(q, sym)] = alts
    return Mtt(name, IN_ALPHA, OUT_ALPHA, states, "q0", rules)


# look-ahead: e -> p0, b flips p0/p1, a says whether its children are equal
_TAC = Tac(IN_ALPHA, (
    TacTransition("e", (), target="p0"),
    TacTransition("b", ("p0",), target="p1"),
    TacTransition("b", ("p1",), target="p0"),
    *(TacTransition("a", (x, y), eq=((1, 2),), target="p0")
      for x in ("p0", "p1") for y in ("p0", "p1")),
    *(TacTransition("a", (x, y), neq=((1, 2),), target="p1")
      for x in ("p0", "p1") for y in ("p0", "p1")),
))


def random_tac_mtt(rng, name) -> TacMtt:
    """A random_mtt whose alternatives carry random look-ahead and
    (dis)equality guards over the fixed automaton above."""
    plain = random_mtt(rng, name)
    rules = {}
    for (q, sym), alts in plain.rules.items():
        k = IN_ALPHA.rank(sym)
        guarded = []
        for rhs in alts:
            la = (None if k == 0 or rng.random() < 0.5 else
                  tuple(rng.choice(("p0", "p1")) for _ in range(k)))
            eq = neq = ()
            if k == 2:
                eq, neq = rng.choice((((), ()), (((1, 2),), ()), ((), ((1, 2),))))
            guarded.append(TacRule(rhs, lookahead=la, eq=eq, neq=neq))
        rules[(q, sym)] = tuple(guarded)
    return TacMtt(name, IN_ALPHA, OUT_ALPHA, plain.states, "q0", rules, _TAC)


def random_mrtt(rng, name) -> MrMtt:
    """q0 (rank 0, dim 1) and q1 (rank <= 1, dim <= 2); right-hand sides
    bind one let per chosen input child, then build the result tuple."""
    ranks = {"q0": 0, "q1": rng.randint(0, 1)}
    dims = {"q0": 1, "q1": rng.randint(1, 2)}

    def term(rank, n_z, depth):
        roll = rng.random()
        if depth <= 0 or roll < 0.45:
            leaves = ([Param(i) for i in range(1, rank + 1)]
                      + [ZVar(i) for i in range(1, n_z + 1)])
            if leaves and rng.random() < 0.7:
                return rng.choice(leaves)
            return Out(rng.choice(("c", "d")))
        sym = rng.choice(("f", "h", "g", "u"))
        return Out(sym, tuple(term(rank, n_z, depth - 1)
                              for _ in range(OUT_ALPHA.rank(sym))))

    rules = {}
    for q in ranks:
        for sym in IN_ALPHA:
            k = IN_ALPHA.rank(sym)
            alts = []
            for _ in range(rng.choices((0, 1, 2), (10, 60, 30))[0]):
                lets, n_z = [], 0
                for child in range(1, k + 1):
                    if rng.random() < 0.8:
                        callee = rng.choice(list(ranks))
                        args = tuple(term(ranks[q], n_z, 1)
                                     for _ in range(ranks[callee]))
                        targets = tuple(range(n_z + 1, n_z + 1 + dims[callee]))
                        lets.append(MrLet(targets, callee, child, args))
                        n_z += dims[callee]
                result = tuple(term(ranks[q], n_z, 2) for _ in range(dims[q]))
                alts.append(MrRhs(tuple(lets), result))
            if alts:
                rules[(q, sym)] = tuple(alts)
    return MrMtt(name, IN_ALPHA, OUT_ALPHA, ranks, dims, "q0", rules)


# -------------------------------------------------- independent references

def oracle_outputs(m, mode, s, budget=SMALL_BUDGET):
    """The oracle's full output set of m on s, or None over budget."""
    try:
        return oracle_eval(m, mode, App(m.initial, s), budget)
    except BudgetExceeded:
        return None


def _tac_states(a: Tac, s: Tree) -> dict:
    """Look-ahead state of every node of s, by plain recursion on trees
    with structural equality (no DAG, no engine code)."""
    out: dict[int, str] = {}

    def go(node):
        kid_states = tuple(go(c) for c in node.children)
        hits = [tr.target for tr in a.transitions
                if tr.sym == node.label and tr.states == kid_states
                and all(node.children[i - 1] == node.children[j - 1] for i, j in tr.eq)
                and all(node.children[i - 1] != node.children[j - 1] for i, j in tr.neq)]
        if len(hits) != 1:
            raise AssertionError(f"look-ahead not deterministic-total at {node!r}")
        out[id(node)] = hits[0]
        return hits[0]

    go(s)
    return out


def tac_outputs(tm: TacMtt, s: Tree, budget=SMALL_BUDGET):
    """Call-by-value outputs of a guarded transducer on s.

    Each node of s gets its own input symbol, and a plain transducer is
    built whose rules at that symbol are the alternatives whose guards
    hold there; the oracle then enumerates its outputs.
    """
    la = _tac_states(tm.tac, s)
    ranks: dict[str, int] = {}
    rules = {}

    # per position, not per node object: equal subtrees may be one object
    def relabel(node):
        kids = node.children
        new_kids = tuple(relabel(c) for c in kids)
        sym = f"n{len(ranks)}"
        ranks[sym] = len(kids)
        kid_states = tuple(la[id(c)] for c in kids)
        for q in tm.states:
            alts = tuple(
                rule.rhs for rule in tm.rules.get((q, node.label), ())
                if (rule.lookahead is None or rule.lookahead == kid_states)
                and all(kids[i - 1] == kids[j - 1] for i, j in rule.eq)
                and all(kids[i - 1] != kids[j - 1] for i, j in rule.neq))
            if alts:
                rules[(q, sym)] = alts
        return Tree(sym, new_kids)

    s2 = relabel(s)
    m = Mtt(tm.name, RankedAlphabet(ranks), tm.output_alphabet,
            dict(tm.states), tm.initial, rules)
    return oracle_outputs(m, "io", s2, budget)


def mr_outputs(m: MrMtt, s: Tree, budget=SMALL_BUDGET):
    try:
        return eval_mr_io(m, s, budget)
    except BudgetExceeded:
        return None


def fan_outputs(n: int) -> set[tuple[int, int]]:
    """(i, j) with f(g^i(e), g^j(e)) an output of fan on a^n(e), n >= 1.

    r yields g^k(e) for any k < n, independently for both calls; then
    each of the n-1 steps of p either adds one g to y1 or swaps y1, y2.
    """
    pairs = {(i, j) for i in range(n) for j in range(n)}
    for _ in range(n - 1):
        pairs = {(i + 1, j) for i, j in pairs} | {(j, i) for i, j in pairs}
    return pairs


def _fan_tree(i: int, j: int) -> Tree:
    return Tree("f", (chain(i, "g"), chain(j, "g")))


def _revpair_tree(w: str, hi: str) -> Tree:
    return Tree("r", (word_tree(w, "e"), word_tree(hi.upper(), "E")))


def leaf_double_outputs(n: int) -> set[Tree]:
    g = chain(n - 1, "g")
    return {g, Tree("f", (g, g))}


def mixed_double_outputs() -> set[Tree]:
    ys = (tree("e"), Tree("g", (tree("e"),)))
    return {Tree("f", (a, b)) for a in ys for b in ys}


def copyfree_output(n: int) -> Tree:
    return families.copyfree_instance(n)[1]


def doubling_output(n: int) -> Tree:
    """Output of doubling on a^n(e): the full f-tree with 2^(n-1) leaves."""
    t = tree("e")
    for _ in range(n - 1):
        t = Tree("f", (t, t))
    return t


def cross_check(m, mode, s, claimed: set) -> None:
    """A construction must agree with the oracle where the oracle can run."""
    got = oracle_outputs(m, mode, s, Budget())
    if got is None or set(got) != set(claimed):
        raise AssertionError(
            f"reference construction for {m.name} disagrees with the oracle "
            f"on {format_term(s)}")


# ---------------------------------------------------------------- workloads

def small_batch(seed: int, scale: float = 1.0) -> Workload:
    """About 1300 queries with |s| <= 8 across all five engines."""
    b = _QuerySet("small-batch")
    rng = random.Random(f"small-batch/{seed}")
    inputs = enumerate_trees(IN_ALPHA, max_size=8)

    def count(k):
        return max(1, round(k * scale))

    def fill(engine, prefix, target, make, outputs, c=0):
        # target/2 fresh transducers, each with one input, one yes and one
        # no candidate: many independent draws, and the same number of
        # transducers and queries for every seed
        while sum(q.engine == engine for q in b.queries) < target:
            key = f"{prefix}{len(b.texts)}"
            text, m = dsl_round_trip(make(key))
            s = rng.choice(inputs)
            outs = outputs(m, s)
            if outs is None:
                b.dropped += 1
                continue
            picked = pick_candidates(rng, outs, OUT_ALPHA, 1, 1, T_MAX)
            if len(picked) == 2:
                b.texts[key] = text
                for t, want in picked:
                    b.add("random", 0, engine, key, s, t, want, c=c)

    fill("io", "io", count(500), lambda k: random_mtt(rng, k),
         lambda m, s: oracle_outputs(m, "io", s))
    fill("det", "det", count(150), lambda k: random_mtt(rng, k, det_total=True),
         lambda m, s: oracle_outputs(m, "io", s))
    fill("oi-fc", "oi", count(200), lambda k: random_mtt(rng, k, linear=True),
         lambda m, s: oracle_outputs(m, "oi", s), c=1)
    fill("io-tac", "tac", count(150), lambda k: random_tac_mtt(rng, k),
         tac_outputs)
    fill("mr-io", "mr", count(200), lambda k: random_mrtt(rng, k), mr_outputs)

    # the mttkit.families transducers at fixed small sizes
    cf = b.load("copyfree", format_transducer(families.copyfree_mtt()))
    for n in range(2, 2 + count(6)):
        s, t = families.copyfree_instance(n)
        cross_check(cf, "io", s, {t})
        for engine in ("io", "det", "oi-fc"):
            c = 1 if engine == "oi-fc" else 0
            b.add("copyfree", 0, engine, "copyfree", s, t, True, c=c)
            b.add("copyfree", 0, engine, "copyfree", s, Tree("f", (t,)), False, c=c)
    db = b.load("doubling", format_transducer(families.doubling_mtt()))
    for n in range(1, 1 + count(5)):
        t = doubling_output(n)
        cross_check(db, "io", chain(n), {t})
        for engine in ("io", "det"):
            b.add("doubling", 0, engine, "doubling", chain(n), t, True)
            b.add("doubling", 0, engine, "doubling", chain(n), Tree("f", (t, t)), False)
    dbl = b.load("double", format_transducer(families.double_mtt()))
    for n in (1, 2):
        s = families.double_instance(n)[0]
        outs = oracle_outputs(dbl, "io", s, Budget())
        for t, want in pick_candidates(rng, outs, dbl.output_alphabet, 4, 4):
            b.add("double", 0, "io", "double", s, t, want)
    b.load("eqpair", format_transducer(families.equal_pair_tacmtt()))
    for _ in range(count(20)):
        k1, k2 = rng.randint(0, 3), rng.randint(0, 3)
        s = Tree("pi", (chain(k1), chain(k2)))
        b.add("eqpair", 0, "io-tac", "eqpair", s, tree("e"), k1 == k2)
    m = b.load("revpair", format_transducer(families.reverse_pair_mrtt()))
    for i in range(count(20)):
        s = chain(1 + i % 5, "s", "z")
        for t, want in pick_candidates(rng, mr_outputs(m, s), m.output_alphabet, 1, 1):
            b.add("revpair", 0, "mr-io", "revpair", s, t, want)
    return b.done()


def nondet_io(seed: int, scale: float = 1.0) -> Workload:
    """Size sweeps on nondeterministic, parameter-swapping transducers."""
    b = _QuerySet("nondet-io")
    rng = random.Random(f"nondet-io/{seed}")
    fan = b.load("fan", FAN)
    for n in (2, 3, 4):
        cross_check(fan, "io", chain(n), {_fan_tree(i, j) for i, j in fan_outputs(n)})
    top = 16 if scale >= 1 else 6
    for n in range(4, top + 1):
        # candidates f(g^i(e), g^j(e)) with i + j = 2n - 1, where both
        # verdicts occur; the most balanced ones, whose DAGs are alike
        reach = fan_outputs(n)
        pairs = sorted(((i, 2 * n - 1 - i) for i in range(2 * n)),
                       key=lambda p: abs(p[0] - p[1]))
        for want in (True, False):
            near = [p for p in pairs if (p in reach) == want][:3]
            for i, j in rng.sample(near, 2):
                b.add("fan", n, "io", "fan", chain(n), _fan_tree(i, j), want)

    rp = b.load("revpair", format_transducer(families.reverse_pair_mrtt()))
    for k in (1, 2, 3):
        words = {"".join(w) for w in product("ab", repeat=k)}
        cross_check_mr(rp, chain(k, "s", "z"),
                       {_revpair_tree(w, w[::-1]) for w in words})
    top = 32 if scale >= 1 else 8
    for k in range(4, top + 1, 4):
        for _ in range(3):
            w = "".join(rng.choice("ab") for _ in range(k))
            hi = list(w[::-1])
            flip = rng.randrange(k)
            hi[flip] = "a" if hi[flip] == "b" else "b"
            b.add("revpair", k, "mr-io", "revpair", chain(k, "s", "z"),
                  _revpair_tree(w, w[::-1]), True)
            b.add("revpair", k, "mr-io", "revpair", chain(k, "s", "z"),
                  _revpair_tree(w, "".join(hi)), False)
    return b.done()


def cross_check_mr(m, s, claimed: set) -> None:
    got = mr_outputs(m, s, Budget())
    if got is None or set(got) != set(claimed):
        raise AssertionError(
            f"reference construction for {m.name} disagrees with eval_mr_io "
            f"on {format_term(s)}")


def copy_oi(seed: int, scale: float = 1.0) -> Workload:
    """Size sweeps of member_oi_fc under copy bounds known to hold."""
    b = _QuerySet("copy-oi")
    rng = random.Random(f"copy-oi/{seed}")
    small = scale < 1

    def sweep(key, n, s, outs, c):
        # two members of the output set, and the same two grown by one g:
        # one size of t per family and n, so every seed costs about the same
        yes = rng.sample(sorted(outs, key=term_sort_key), 2)
        no = [_grow(t, outs) for t in yes]
        for t, want in [(t, True) for t in yes] + [(t, False) for t in no]:
            b.add(key, n, "oi-fc", key, s, t, want, c=c)

    lin = b.load("lin", LINEAR_PARAM)
    for n in ((4, 8) if small else range(4, 23, 2)):
        s = word_tree(("ab" * n)[:n])
        sweep("lin", n, s, oracle_outputs(lin, "oi", s, Budget()), 1)

    ld = b.load("leafdouble", LEAF_DOUBLE)
    for n in (1, 2, 3, 4):
        cross_check(ld, "oi", chain(n), leaf_double_outputs(n))
    for n in ((3, 5) if small else range(3, 13)):
        sweep("leafdouble", n, chain(n), leaf_double_outputs(n), 2)

    md = b.load("mixeddouble", MIXED_DOUBLE)
    for n in (1, 2, 3):
        cross_check(md, "oi", chain(n), mixed_double_outputs())
    for n in ((10, 20) if small else range(10, 81, 10)):
        sweep("mixeddouble", n, chain(n), mixed_double_outputs(), 2)

    cf = b.load("copyfree", format_transducer(families.copyfree_mtt()))
    for n in (2, 3, 5, 8):
        cross_check(cf, "oi", families.copyfree_instance(n)[0], {copyfree_output(n)})
    for n in ((10, 20) if small else range(10, 56, 5)):
        s, t = families.copyfree_instance(n)
        b.add("copyfree", n, "oi-fc", "copyfree", s, t, True, c=1)
        b.add("copyfree", n, "oi-fc", "copyfree", s, _grow(t, {t}), False, c=1)
    return b.done()


def _grow(t: Tree, outputs) -> Tree:
    """The first tree outside `outputs` that wraps one node of t, in
    preorder, in g (or else in g(g(...)))."""
    for wrap in (1, 2):
        for k, node in enumerate(t.subtrees()):
            grown = _replace(t, k, _wrap(node, wrap))
            if grown not in outputs:
                return grown
    raise AssertionError(f"no g-wrapping of {format_term(t)} leaves the output set")


def _wrap(node: Tree, times: int) -> Tree:
    for _ in range(times):
        node = Tree("g", (node,))
    return node


def large_input(seed: int, scale: float = 1.0) -> Workload:
    """10^4-node queries given as term text, parsed inside each verdict."""
    b = _QuerySet("large-input", parse_in_verdict=True)
    rng = random.Random(f"large-input/{seed}")
    full = scale >= 1

    cf = b.load("copyfree", format_transducer(families.copyfree_mtt()))
    for n in (2, 3, 6):
        cross_check(cf, "io", families.copyfree_instance(n)[0], {copyfree_output(n)})
    for n in ((1400, 2000, 2800, 4000) if full else (50, 100, 200)):
        s, t = families.copyfree_instance(n)
        for engine in ("io", "det"):
            b.add("copyfree-" + engine, n, engine, "copyfree", s, t, True)
            b.add("copyfree-" + engine, n, engine, "copyfree", s,
                  Tree("f", (t,)), False)
    # A g in the middle of the chain makes member_io build f over BOTTOM for
    # n/2 levels, and each such level scans every f-node of t: quadratic
    # (n = 10^4 takes about 100x the yes query).  Kept at sizes a run can
    # afford, so its size exponent shows the defect.
    for n in ((300, 450, 600) if full else (10, 20, 30)):
        s, t = families.copyfree_instance(n)
        b.add("copyfree-io-mid", n, "io", "copyfree", s, t, True)
        b.add("copyfree-io-mid", n, "io", "copyfree", s, _flip_chain(n, n // 2), False)

    b.load("eqpair", format_transducer(families.equal_pair_tacmtt()))
    for k in ((2500, 3500, 5000, 7000, 10000) if full else (50, 100, 200)):
        d = rng.randint(1, 5)
        b.add("eqpair", k, "io-tac", "eqpair",
              Tree("pi", (chain(k), chain(k))), tree("e"), True)
        b.add("eqpair", k, "io-tac", "eqpair",
              Tree("pi", (chain(k), chain(k - d))), tree("e"), False)

    db = b.load("doubling", format_transducer(families.doubling_mtt()))
    for n in (1, 2, 3, 4):
        cross_check(db, "io", chain(n), {doubling_output(n)})
    for n in ((12, 13, 14) if full else (4, 5, 6)):
        t = doubling_output(n)
        bad = _prune_leaf(rng, n)
        for engine in ("io", "det"):
            b.add("doubling-" + engine, t.size, engine, "doubling", chain(n), t, True)
            b.add("doubling-" + engine, t.size, engine, "doubling", chain(n), bad, False)
    return b.done()


def _flip_chain(n: int, depth: int) -> Tree:
    """copyfree's output on a^(n-1)(e), f^(n-2)(g(e)), with the f at
    `depth` from the top turned into a g."""
    t = Tree("g", (tree("e"),))
    for level in range(n - 3, -1, -1):
        t = Tree("g" if level == depth else "f", (t,))
    return t


def _prune_leaf(rng, n: int) -> Tree:
    """doubling's output on a^n(e) with one lowest f(e, e) replaced by e."""
    path = [rng.randrange(2) for _ in range(n - 2)]
    full = [tree("e")]
    for _ in range(n - 1):
        full.append(Tree("f", (full[-1], full[-1])))
    t = tree("e")              # the pruned node, at height 1
    for h, side in zip(range(1, n - 1), reversed(path)):
        sib = full[h]
        t = Tree("f", (t, sib) if side == 0 else (sib, t))
    return t


GENERATORS = {
    "small-batch": small_batch,
    "nondet-io": nondet_io,
    "copy-oi": copy_oi,
    "large-input": large_input,
}
