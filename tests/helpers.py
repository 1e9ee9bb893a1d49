"""Builders for randomized transducers, exhaustive inputs, and output
mutations, the enumerated copy count that declared copy bounds are
checked against, the reference outputs of guarded transducers, a plain
transducer as one of each other kind, one small model per transducer
kind under every engine, and the differential check that runs engines
against a reference; shared by the module tests, the differential gate
and the acceptance suite."""

from __future__ import annotations

import random
import re
from functools import partial
from itertools import islice
from typing import Callable, NamedTuple

from mttkit import (
    ENGINES,
    NO,
    OI,
    YES,
    App,
    Budget,
    BudgetExceeded,
    Call,
    Evaluator,
    MrLet,
    MrMtt,
    MrRhs,
    Mtt,
    Out,
    Param,
    ParseError,
    RankedAlphabet,
    Tac,
    TacMtt,
    TacRule,
    TacTransition,
    Tree,
    ZVar,
    enumerate_trees,
    format_term,
    format_transducer,
    oracle_eval,
    parse_transducer,
)
from mttkit.oracle import param_index

IN_ALPHA = RankedAlphabet({"a": 2, "b": 1, "e": 0})
# two symbols per rank so single-node label swaps always exist
OUT_ALPHA = RankedAlphabet({"f": 2, "h": 2, "g": 1, "u": 1, "c": 0, "d": 0})

# keeps enumerated output sets small enough for the oracle at |s| <= 8
HARNESS_BUDGET = Budget(max_set_size=20_000, max_tree_size=60,
                        max_steps=2_000_000)


def _random_rhs(rng: random.Random, states: dict[str, int], my_rank: int,
                input_rank: int, depth: int):
    roll = rng.random()
    if depth <= 0 or roll < 0.30:
        if my_rank > 0 and rng.random() < 0.5:
            return Param(rng.randint(1, my_rank))
        return Out(rng.choice(("c", "d")))
    if roll < 0.60 and input_rank > 0:
        q = rng.choice(list(states))
        args = tuple(
            _random_rhs(rng, states, my_rank, input_rank, depth - 1)
            for _ in range(states[q])
        )
        return Call(q, rng.randint(1, input_rank), args)
    sym = rng.choice(("f", "h", "g", "u"))
    kids = tuple(
        _random_rhs(rng, states, my_rank, input_rank, depth - 1)
        for _ in range(OUT_ALPHA.rank(sym))
    )
    return Out(sym, kids)


def random_mtt(rng: random.Random, name: str = "rand",
               input_alphabet: RankedAlphabet = IN_ALPHA) -> Mtt:
    """A small transducer: <= 3 states, ranks <= 2, <= 2 alternatives
    per (state, symbol) pair, possibly partial."""
    n_states = rng.randint(1, 3)
    states = {"q0": 0}
    for i in range(1, n_states):
        states[f"q{i}"] = rng.randint(0, 2)
    rules = {}
    for q, rank in states.items():
        for sym in input_alphabet:
            n_alts = rng.choices((0, 1, 2), weights=(15, 55, 30))[0]
            alts = tuple(
                _random_rhs(rng, states, rank, input_alphabet.rank(sym), depth=2)
                for _ in range(n_alts)
            )
            if alts:
                rules[(q, sym)] = alts
    return Mtt(
        name=name,
        input_alphabet=input_alphabet,
        output_alphabet=OUT_ALPHA,
        states=states,
        initial="q0",
        rules=rules,
    )


def random_det_total_mtt(rng: random.Random, name: str = "det",
                         input_alphabet: RankedAlphabet = IN_ALPHA) -> Mtt:
    """Exactly one alternative for every (state, symbol) pair; the input
    alphabet may be OUT_ALPHA, so that it reads another one's output."""
    n_states = rng.randint(1, 3)
    states = {"q0": 0}
    for i in range(1, n_states):
        states[f"q{i}"] = rng.randint(0, 2)
    rules = {
        (q, sym): (_random_rhs(rng, states, rank, input_alphabet.rank(sym), depth=2),)
        for q, rank in states.items()
        for sym in input_alphabet
    }
    return Mtt(
        name=name,
        input_alphabet=input_alphabet,
        output_alphabet=OUT_ALPHA,
        states=states,
        initial="q0",
        rules=rules,
    )


def _random_mr_term(rng: random.Random, my_rank: int, n_z: int, depth: int):
    """A term over output symbols, y1..y{my_rank} and z1..z{n_z}."""
    if depth <= 0 or rng.random() < 0.45:
        roll = rng.random()
        if n_z and roll < 0.55:
            return ZVar(rng.randint(1, n_z))
        if my_rank and roll < 0.8:
            return Param(rng.randint(1, my_rank))
        return Out(rng.choice(("c", "d")))
    sym = rng.choice(("f", "h", "g", "u"))
    return Out(sym, tuple(_random_mr_term(rng, my_rank, n_z, depth - 1)
                          for _ in range(OUT_ALPHA.rank(sym))))


def random_mrtt(rng: random.Random, name: str = "mrand", max_lets: int = 2,
                max_rank: int = 1) -> MrMtt:
    """A small multi-return transducer: <= 3 states, dimensions <= 2,
    ranks <= max_rank, <= 2 alternatives per (state, symbol) pair, each
    with <= max_lets lets; possibly partial."""
    ranks, dims = {"q0": 0}, {"q0": 1}
    for i in range(1, rng.randint(1, 3)):
        ranks[f"q{i}"] = rng.randint(0, max_rank)
        dims[f"q{i}"] = rng.randint(1, 2)
    rules = {}
    for q in ranks:
        for sym in IN_ALPHA:
            k = IN_ALPHA.rank(sym)
            alts = []
            for _ in range(rng.choices((0, 1, 2), weights=(15, 55, 30))[0]):
                lets, n_z = [], 0
                for _ in range(rng.randint(0, max_lets) if k else 0):
                    p = rng.choice(list(ranks))
                    args = tuple(_random_mr_term(rng, ranks[q], n_z, 1)
                                 for _ in range(ranks[p]))
                    targets = tuple(range(n_z + 1, n_z + 1 + dims[p]))
                    lets.append(MrLet(targets, p, rng.randint(1, k), args))
                    n_z += dims[p]
                result = tuple(_random_mr_term(rng, ranks[q], n_z, 2)
                               for _ in range(dims[q]))
                alts.append(MrRhs(tuple(lets), result))
            if alts:
                rules[(q, sym)] = tuple(alts)
    return MrMtt(
        name=name,
        input_alphabet=IN_ALPHA,
        output_alphabet=OUT_ALPHA,
        ranks=ranks,
        dims=dims,
        initial="q0",
        rules=rules,
    )


def chain(n: int, sym: str = "a") -> Tree:
    """sym applied n times to e."""
    t = Tree("e")
    for _ in range(n):
        t = Tree(sym, (t,))
    return t


_TERM_TOKEN_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*|[(),]")
_BAD_CHAR_RE = re.compile(r"[^A-Za-z0-9_(),\s]|(?<![A-Za-z0-9_])[0-9]")
_NAME_PUNCT = str.maketrans("", "", "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz_(),")


def reference_parse(text: str):
    """The labels, child refs and size parse_term gives text, read one
    token at a time, or the ParseError it raises: a reference for the
    bulk scan."""

    def fail(msg, at):
        raise ParseError.at(msg, text, at)

    def fail_at(msg, k):
        fail(msg, next(islice(_TERM_TOKEN_RE.finditer(text), k, None)).start())

    if text.translate(_NAME_PUNCT).strip():
        bad = _BAD_CHAR_RE.search(text)
        if bad:
            fail(f"unexpected character {bad.group()!r}", bad.start())
    tokens = text.replace("(", " ( ").replace(")", " ) ").replace(",", " , ").split()
    tokens.append("")
    labels, dag_kids = [], []
    leaves, inner = {}, {}
    opened, starts, kids = [], [], []
    pos = 0
    while True:
        name = tokens[pos]
        if not name:
            fail("unexpected end of input", len(text))
        if name in "(),":
            fail_at(f"expected a symbol name, got {name!r}", pos)
        if tokens[pos + 1] == "(" and tokens[pos + 2] != ")":
            opened.append(pos)
            starts.append(len(kids))
            pos += 2
            continue
        ref = leaves.get(name)
        if ref is None:
            ref = leaves[name] = len(labels)
            labels.append(name)
            dag_kids.append(())
        pos += 3 if tokens[pos + 1] == "(" else 1
        while opened:
            sep = tokens[pos]
            pos += 1
            if sep == ",":
                kids.append(ref)
                break
            if sep != ")":
                if not sep:
                    fail("unexpected end of input", len(text))
                fail_at(f"expected ',' or ')', got {sep!r}", pos - 1)
            start = starts.pop()
            kids.append(ref)
            child_refs = tuple(kids[start:])
            del kids[start:]
            k = opened.pop()
            key = (tokens[k], child_refs)
            ref = inner.get(key)
            if ref is None:
                ref = inner[key] = len(labels)
                labels.append(tokens[k])
                dag_kids.append(child_refs)
        else:
            break
    if tokens[pos]:
        fail_at(f"trailing input {tokens[pos]!r}", pos)
    return labels, dag_kids, len(tokens) - 1 - sum(map(text.count, "(),"))


def count_trees(monkeypatch) -> list[int]:
    """Count the Trees built from now to the end of the test, in the one
    item of the returned list.  A parsed root is no Tree built: it has an
    __init__ of its own."""
    built = [0]
    init = Tree.__init__

    def counted(self, *args):
        built[0] += 1
        init(self, *args)

    monkeypatch.setattr(Tree, "__init__", counted)
    return built


def unguarded(m: Mtt) -> TacMtt:
    """m as a TacMtt whose rules hold everywhere, under a one-state
    automaton over its input alphabet."""
    alpha = m.input_alphabet
    tac = Tac(alpha, tuple(
        TacTransition(sym, ("p",) * alpha.rank(sym), target="p")
        for sym in alpha))
    rules = {key: tuple(map(TacRule, alts)) for key, alts in m.rules.items()}
    return TacMtt(m.name, alpha, m.output_alphabet, m.states, m.initial,
                  rules, tac)


def as_mr(m: Mtt) -> MrMtt:
    """m as a dimension-1 tuple transducer: nested calls become
    consecutive single-target lets, evaluated in argument order."""

    def conv(rhs, lets):
        if isinstance(rhs, Param):
            return rhs
        args = tuple(conv(a, lets) for a in rhs.args)
        if isinstance(rhs, Out):
            return Out(rhs.sym, args)
        lets.append(MrLet((len(lets) + 1,), rhs.state, rhs.child, args))
        return ZVar(len(lets))

    rules = {}
    for key, alts in m.rules.items():
        out = []
        for rhs in alts:
            lets: list = []
            term = conv(rhs, lets)
            out.append(MrRhs(tuple(lets), (term,)))
        rules[key] = tuple(out)
    return MrMtt(m.name, m.input_alphabet, m.output_alphabet, dict(m.states),
                 {q: 1 for q in m.states}, m.initial, rules)


def mirror(m: Mtt, kind: type):
    """m as a transducer of kind, for an engine that takes that kind: m
    itself, unguarded(m) or as_mr(m)."""
    return m if type(m) is kind else {TacMtt: unguarded, MrMtt: as_mr}[kind](m)


def mirror_engines(oracle: bool = False) -> dict:
    """A verdict function per engine, the oracle only if asked, on one
    model over input {p: 2, e: 0}, q0(p(x1, x2)) -> f(q0[x1], q0[x2]) and
    q0(e) -> e, as the engine's kind (mirror)."""
    m = parse_transducer("""mtt mirror {
      input { p: 2, e: 0 }
      output { f: 2, e: 0, g: 0 }
      state q0: 0 init
      rule q0(p(x1, x2)) -> f(q0[x1], q0[x2])
      rule q0(e) -> e
    }""")
    return {name: partial(engine.decide, mirror(m, engine.kind))
            for name, engine in ENGINES.items() if oracle or name != "oracle"}


def call_under(k: int) -> Mtt:
    """q(a(x1)) -> g(...g(q[x1])...) with k g's, q(e) -> e: a call k
    output symbols deep, whose output chain is k times its input's."""
    rhs = Call("q", 1)
    for _ in range(k):
        rhs = Out("g", (rhs,))
    return Mtt(
        name=f"under{k}",
        input_alphabet=RankedAlphabet({"a": 1, "e": 0}),
        output_alphabet=RankedAlphabet({"g": 1, "e": 0}),
        states={"q": 0},
        initial="q",
        rules={("q", "a"): (rhs,), ("q", "e"): (Out("e"),)},
    )


def relabel(src: str, dst: str) -> Mtt:
    """q(src(x1)) -> dst(q[x1]), q(e) -> e: a deterministic total stage
    that relabels a chain."""
    return Mtt(
        name=f"{src}to{dst}",
        input_alphabet=RankedAlphabet({src: 1, "e": 0}),
        output_alphabet=RankedAlphabet({dst: 1, "e": 0}),
        states={"q": 0},
        initial="q",
        rules={("q", src): (Out(dst, (Call("q", 1),)),), ("q", "e"): (Out("e"),)},
    )


def first_rule_twice(text: str) -> str:
    """Transducer text with its first rule line written a second time."""
    lines = text.splitlines(keepends=True)
    i = next(i for i, line in enumerate(lines)
             if line.lstrip().startswith("rule "))
    return "".join(lines[:i + 1] + lines[i:])


def all_inputs(max_size: int, alphabet: RankedAlphabet = IN_ALPHA) -> list[Tree]:
    return enumerate_trees(alphabet, max_size=max_size)


def _replace_at(t: Tree, path: tuple[int, ...], repl: Tree) -> Tree:
    if not path:
        return repl
    kids = list(t.children)
    kids[path[0]] = _replace_at(kids[path[0]], path[1:], repl)
    return Tree(t.label, tuple(kids))


def mutations(t: Tree, alphabet: RankedAlphabet) -> list[Tree]:
    """Every tree obtained from t by rewriting exactly one node label to
    a different label of the same rank."""
    by_rank: dict[int, list[str]] = {}
    for name in alphabet:
        by_rank.setdefault(alphabet.rank(name), []).append(name)
    out = []

    def walk(node: Tree, path: tuple[int, ...]):
        for other in by_rank[alphabet.rank(node.label)]:
            if other != node.label:
                out.append(_replace_at(t, path, Tree(other, node.children)))
        for i, kid in enumerate(node.children):
            walk(kid, path + (i,))

    walk(t, ())
    return out


def candidates(outputs, alphabet: RankedAlphabet, first: int | None = None,
               mutated: int | None = None, per: int | None = None) -> list[Tree]:
    """The first `first` of outputs, then the first `per` mutations of
    each of the first `mutated` of them; None takes all."""
    pool = list(outputs[:first])
    for t in outputs[:mutated]:
        pool += mutations(t, alphabet)[:per]
    return pool


def io_output_set(m: Mtt, s: Tree, budget: Budget = HARNESS_BUDGET):
    """The full call-by-value output set for s, or None when enumeration
    blows the harness budget (the caller skips such pairs)."""
    try:
        return oracle_eval(m, "io", App(m.initial, s), budget)
    except BudgetExceeded:
        return None


CHAIN_ALPHA = RankedAlphabet({"a": 1, "e": 0})


def linear_param_mtt() -> Mtt:
    """Nondeterministic, one occurrence of each parameter per side."""
    g = lambda x: Out("g", (x,))
    return Mtt(
        name="lin",
        input_alphabet=RankedAlphabet({"a": 1, "b": 1, "e": 0}),
        output_alphabet=RankedAlphabet({"f": 2, "g": 1, "e": 0}),
        states={"q0": 0, "q": 1, "p": 2},
        initial="q0",
        rules={
            ("q0", "a"): (Call("p", 1, (Out("e"), g(Out("e")))),
                          Call("q", 1, (Out("e"),))),
            ("q0", "b"): (Call("q", 1, (g(Out("e")),)),),
            ("q0", "e"): (Out("e"),),
            ("q", "a"): (Call("q", 1, (g(Param(1)),)),),
            ("q", "b"): (g(Call("q", 1, (Param(1),))),),
            ("q", "e"): (Param(1), g(Param(1))),
            ("p", "a"): (Call("p", 1, (Param(2), Param(1))),),
            ("p", "b"): (Call("p", 1, (g(Param(1)), Param(2))),),
            ("p", "e"): (Out("f", (Param(1), Param(2))),
                         Out("f", (Param(2), Param(1)))),
        },
    )


def leaf_double_mtt() -> Mtt:
    """Copies its parameter exactly twice, at leaf rules only."""
    return Mtt(
        name="leafdouble",
        input_alphabet=CHAIN_ALPHA,
        output_alphabet=RankedAlphabet({"f": 2, "g": 1, "e": 0}),
        states={"q0": 0, "q": 1},
        initial="q0",
        rules={
            ("q0", "a"): (Call("q", 1, (Out("e"),)),),
            ("q0", "e"): (Out("e"),),
            ("q", "a"): (Call("q", 1, (Out("g", (Param(1),)),)),),
            ("q", "e"): (Out("f", (Param(1), Param(1))), Param(1)),
        },
    )


def mixed_double_mtt() -> Mtt:
    """Needs copy bound 2: the doubled parameter draws from a two-element
    set, and call-by-name lets the two occurrences pick different trees."""
    return Mtt(
        name="mixeddouble",
        input_alphabet=CHAIN_ALPHA,
        output_alphabet=RankedAlphabet({"f": 2, "g": 1, "e": 0}),
        states={"q0": 0, "r": 0, "q": 1},
        initial="q0",
        rules={
            ("q0", "a"): (Call("q", 1, (Call("r", 1, ()),)),),
            ("q0", "e"): (Out("e"),),
            ("r", "a"): (Call("r", 1, ()),),
            ("r", "e"): (Out("e"), Out("g", (Out("e"),))),
            ("q", "a"): (Call("q", 1, (Param(1),)),),
            ("q", "e"): (Out("f", (Param(1), Param(1))),),
        },
    )


class NonConforming:
    """Sentinel type: the sweep saw more parameter copies than its limit."""

    def __repr__(self):
        return "NON_CONFORMING"


NON_CONFORMING = NonConforming()


def estimate_copy_bound(m: Mtt, depth: int, limit: int = 8, params=None):
    """The most copies of one parameter in any tree a state of m produces
    under call-by-name on an input at most depth deep, or NON_CONFORMING
    once that passes limit.  With params, a set of (state, parameter
    number) pairs, only those parameters are counted.

    Enumerates the inputs and evaluates every state with the oracle, so
    it is the reference the copy bounds declared for member_oi_fc are
    checked against.  A count that keeps growing with depth means no
    finite bound exists.  Inputs are enumerated by size, which equals
    depth because every input symbol has rank at most 1.
    """
    alphabet = m.input_alphabet
    if any(alphabet.rank(sym) > 1 for sym in alphabet):
        raise ValueError(f"{m.name}: an input symbol has rank above 1")
    ev = Evaluator(m, OI, Budget())
    best = 0
    for s in enumerate_trees(alphabet, max_size=depth):
        for q in m.states:
            for out in ev.state_set(q, s):
                counts: dict[int, int] = {}
                for node in out.subtrees():
                    i = param_index(node)
                    if i is not None and (params is None or (q, i) in params):
                        counts[i] = counts.get(i, 0) + 1
                if counts:
                    best = max(best, max(counts.values()))
                if best > limit:
                    return NON_CONFORMING
    return best


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


def random_tac_mtt(rng: random.Random, name: str = "tac") -> TacMtt:
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


def parity_guarded(m: Mtt) -> TacMtt:
    """m over a chain alphabet, guarded by the parity of the child's
    depth: at a unary symbol the first alternative of a pair is written
    once per parity, so it holds everywhere, and each further one holds
    only above a child of even depth."""
    (sym,) = [a for a in m.input_alphabet if m.input_alphabet.rank(a) == 1]
    (leaf,) = [a for a in m.input_alphabet if m.input_alphabet.rank(a) == 0]
    tac = Tac(m.input_alphabet, (TacTransition(leaf, (), target="p0"),
                                 TacTransition(sym, ("p0",), target="p1"),
                                 TacTransition(sym, ("p1",), target="p0")))
    rules = {}
    for (q, a), (first, *more) in m.rules.items():
        if a == leaf:
            rules[q, a] = tuple(TacRule(rhs) for rhs in (first, *more))
        else:
            rules[q, a] = (TacRule(first, ("p0",)), TacRule(first, ("p1",)),
                           *(TacRule(rhs, ("p0",)) for rhs in more))
    return TacMtt(m.name, m.input_alphabet, m.output_alphabet, m.states,
                  m.initial, rules, tac)


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


def tac_outputs(tm: TacMtt, s: Tree, budget: Budget = HARNESS_BUDGET):
    """Call-by-value outputs of a guarded transducer on s, or None over
    budget.

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
    return io_output_set(m, s2, budget)


def binds_whole(m, table: str = "io") -> bool:
    """Whether a demand through m's engine table bound a parameter to a
    whole argument set: the table then holds a state key (q, mask) (see
    io_membership.demand)."""
    return any(not isinstance(q, str) for q, _ in m._prepared.get(table, ()))


class Tally(NamedTuple):
    """What differential saw: the candidates checked, each by every
    engine; how many of them the reference holds; the inputs skipped
    because the reference ran over its budget; the models whose io
    table bound a whole set (binds_whole); and the first mismatch, as
    (model text, s, t, engine, verdict, reference verdict), or None."""
    checks: int
    yes: int
    skipped: int
    whole: int
    bad: tuple | None


def differential(models, size: int, engines: dict, reference: Callable,
                 pool, source: Callable | None = None) -> Tally:
    """Run each engine of engines, an ENGINES name mapped to its bound
    keywords, on mirror(m, its kind) for each m of models, against
    reference(m, s): the output set of m on s, or None when it runs over
    budget.  The inputs s are all trees of at most size nodes over m's
    input alphabet; the candidates are candidates(outputs, m's output
    alphabet, *pool), pool a triple or a function of s giving one, and
    outputs the reference's output set, or source(m, s)'s when source is
    given; an input on which either runs over budget is skipped."""
    checks = yes = skipped = whole = 0
    bad = alpha = inputs = None
    for m in models:
        if m.input_alphabet != alpha:
            alpha = m.input_alphabet
            inputs = all_inputs(size, alpha)
        runs = {name: partial(ENGINES[name].decide,
                              mirror(m, ENGINES[name].kind), **bounds)
                for name, bounds in engines.items()}
        for s in inputs:
            out = reference(m, s)
            drawn = out if source is None else source(m, s)
            if out is None or drawn is None:
                skipped += 1
                continue
            triple = pool(s) if callable(pool) else pool
            for t in candidates(drawn.items, m.output_alphabet, *triple):
                want = YES if t in out else NO
                for name, run in runs.items():
                    got = run(s, t)
                    if got != want and bad is None:
                        bad = (format_transducer(m), format_term(s),
                               format_term(t), name, got, want)
                checks += 1
                yes += want == YES
        whole += binds_whole(m)
    return Tally(checks, yes, skipped, whole, bad)
