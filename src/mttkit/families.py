"""Small reference transducers and instance builders used by tests,
benchmarks, and the command line examples."""

from __future__ import annotations

from .mtt import Call, Mtt, Out, Param
from .multi_return import MrLet, MrMtt, MrRhs, ZVar
from .tac import Tac, TacMtt, TacRule, TacTransition
from .trees import RankedAlphabet, Tree, tree


def _word(syms, leaf: str = "e") -> Tree:
    """syms[0](syms[1](...(leaf))), each symbol unary."""
    t = tree(leaf)
    for sym in reversed(syms):
        t = Tree(sym, (t,))
    return t


def double_mtt() -> Mtt:
    """Nondeterministic doubler: on a^n(e) the call-by-value output set
    has 2^(2^n) trees and the call-by-name set far more; the workhorse
    example for the gap between the two semantics.  Not total: no rule
    reads e in the start state."""
    e = Out("e")
    fy = Out("f", (Param(1), Param(1)))
    gy = Out("g", (Param(1), Param(1)))
    return Mtt(
        name="double",
        input_alphabet=RankedAlphabet({"a": 1, "e": 0}),
        output_alphabet=RankedAlphabet({"f": 2, "g": 2, "e": 0}),
        states={"start": 0, "double": 1},
        initial="start",
        rules={
            ("start", "a"): (Call("double", 1, (Call("double", 1, (e,)),)),),
            ("double", "a"): (Call("double", 1, (Call("double", 1, (Param(1),)),)),),
            ("double", "e"): (fy, gy),
        },
    )


def doubling_mtt() -> Mtt:
    """Deterministic total variant: output on a^n(e) is the full binary
    f-tree of size 2^n - 1, exponential in the input size.  Exercises
    member_det, as a last stage and as a stage feeding another."""
    return Mtt(
        name="doubling",
        input_alphabet=RankedAlphabet({"a": 1, "e": 0}),
        output_alphabet=RankedAlphabet({"f": 2, "e": 0}),
        states={"q0": 0, "q": 1},
        initial="q0",
        rules={
            ("q0", "a"): (Call("q", 1, (Out("e"),)),),
            ("q0", "e"): (Out("e"),),
            ("q", "a"): (Call("q", 1, (Out("f", (Param(1), Param(1))),)),),
            ("q", "e"): (Param(1),),
        },
    )


def double_instance(n: int) -> tuple[Tree, Tree]:
    """(a^n(e), the all-f output): output size 2^(2^n + 1) - 1; keep n <= 2."""
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    t = tree("e")
    for _ in range(2 ** n):
        t = Tree("f", (t, t))
    return _word("a" * n), t


def copyfree_mtt() -> Mtt:
    """Deterministic, total, copy-free accumulator: a^k(e) maps to
    f^(k-1)(g(e)), so input and output sizes match.  Used for timing
    because membership work grows smoothly with instance size."""
    return Mtt(
        name="copyfree",
        input_alphabet=RankedAlphabet({"a": 1, "e": 0}),
        output_alphabet=RankedAlphabet({"f": 1, "g": 1, "e": 0}),
        states={"start": 0, "acc": 1},
        initial="start",
        rules={
            ("start", "a"): (Call("acc", 1, (Out("g", (Out("e"),)),)),),
            ("start", "e"): (Out("e"),),
            ("acc", "a"): (Call("acc", 1, (Out("f", (Param(1),)),)),),
            ("acc", "e"): (Param(1),),
        },
    )


def copyfree_instance(n: int) -> tuple[Tree, Tree]:
    """Matching (s, t) with |s| = |t| = n, n >= 2."""
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    return _word("a" * (n - 1)), _word("f" * (n - 2) + "g")


def fan_mtt() -> Mtt:
    """Nondeterministic parameter swapper: on a^n(e), r yields g^k(e) for
    each k < n, chosen apart for each of its two calls, and each of p's
    n - 1 steps adds one g to y1 or swaps y1 and y2.  No output copies a
    parameter of p, so member_io binds each to its whole argument set.
    Not total: no rule reads e in the start state."""
    r, y1, y2 = Call("r", 1), Param(1), Param(2)
    return Mtt(
        name="fan",
        input_alphabet=RankedAlphabet({"a": 1, "e": 0}),
        output_alphabet=RankedAlphabet({"f": 2, "g": 1, "e": 0}),
        states={"q0": 0, "r": 0, "p": 2},
        initial="q0",
        rules={
            ("q0", "a"): (Call("p", 1, (r, r)),),
            ("r", "a"): (Out("g", (r,)), r),
            ("r", "e"): (Out("e"),),
            ("p", "a"): (Call("p", 1, (Out("g", (y1,)), y2)),
                         Call("p", 1, (y2, y1))),
            ("p", "e"): (Out("f", (y1, y2)),),
        },
    )


def fan_instance(n: int) -> tuple[Tree, Tree]:
    """(a^n(e), f(g^(n-1)(e), g^n(e))), a member of fan_mtt's translation
    for n >= 3 and not below: |s| = n + 1 and |t| = 2n + 2."""
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    low = _word("g" * (n - 1))
    return _word("a" * n), Tree("f", (low, Tree("g", (low,))))


def choose_mtt() -> Mtt:
    """Copy-free chooser: on a^(d+1)(e) the outputs are the 2^d words of
    length d over {g, h} on e.  Each level of q wraps y1 in g, or has s
    wrap it in g or h, so the sets bound whole to y1 take exponentially
    many values."""
    y1 = Param(1)
    gh = (Out("g", (y1,)), Out("h", (y1,)))
    return Mtt(
        name="choose",
        input_alphabet=RankedAlphabet({"a": 1, "e": 0}),
        output_alphabet=RankedAlphabet({"f": 2, "g": 1, "h": 1, "e": 0}),
        states={"q0": 0, "q": 1, "s": 1},
        initial="q0",
        rules={("q0", "a"): (Call("q", 1, (Out("e"),)),),
               ("q", "a"): (Call("q", 1, gh[:1]),
                            Call("q", 1, (Call("s", 1, (y1,)),))),
               ("q", "e"): (y1,), ("s", "a"): gh, ("s", "e"): gh},
    )


def choose_instance(d: int) -> tuple[Tree, Tree]:
    """(a^(d+1)(e), the right-nested f of the d words of length d with
    one h), a member of choose_mtt's translation for d = 1 only."""
    if d < 1:
        raise ValueError(f"need d >= 1, got {d}")
    t = _word("g" * (d - 1) + "h")
    for i in reversed(range(d - 1)):
        t = Tree("f", (_word("g" * i + "h" + "g" * (d - 1 - i)), t))
    return _word("a" * (d + 1)), t


def reverse_pair_mrtt() -> MrMtt:
    """Two-component state whose returned pairs are always mutual
    reverses: on s^k(z) the outputs are r(w(e), reverse(w)(E)) for every
    word w over {a, b} of length k.  A single-return transducer cannot
    couple two nondeterministic calls this way."""
    A_E = Out("A", (Out("E"),))
    B_E = Out("B", (Out("E"),))

    def let_q1(arg):
        return MrLet((1, 2), "q1", 1, (arg,))

    return MrMtt(
        name="revpair",
        input_alphabet=RankedAlphabet({"s": 1, "z": 0}),
        output_alphabet=RankedAlphabet(
            {"r": 2, "a": 1, "b": 1, "A": 1, "B": 1, "e": 0, "E": 0}),
        ranks={"q0": 0, "q1": 1},
        dims={"q0": 1, "q1": 2},
        initial="q0",
        rules={
            ("q0", "s"): (
                MrRhs((let_q1(A_E),),
                      (Out("r", (Out("a", (ZVar(1),)), ZVar(2))),)),
                MrRhs((let_q1(B_E),),
                      (Out("r", (Out("b", (ZVar(1),)), ZVar(2))),)),
            ),
            ("q0", "z"): (MrRhs((), (Out("r", (Out("e"), Out("E"))),)),),
            ("q1", "s"): (
                MrRhs((let_q1(Out("A", (Param(1),))),),
                      (Out("a", (ZVar(1),)), ZVar(2))),
                MrRhs((let_q1(Out("B", (Param(1),))),),
                      (Out("b", (ZVar(1),)), ZVar(2))),
            ),
            ("q1", "z"): (MrRhs((), (Out("e"), Param(1))),),
        },
    )


def reverse_pair_instance(word: str) -> tuple[Tree, Tree]:
    """(s^k(z), r(word(e), reversed-uppercase(E))) for a word over {a, b}."""
    if any(ch not in "ab" for ch in word):
        raise ValueError(f"word must be over letters a and b, got {word!r}")
    return (_word("s" * len(word), "z"),
            Tree("r", (_word(word), _word(word[::-1].upper(), "E"))))


def equal_pair_tacmtt() -> TacMtt:
    """Accepts (pi(s1, s2), e) exactly when s1 equals s2: the equality
    guard compares the two children as shared-DAG nodes, a domain no
    plain regular look-ahead can express."""
    alphabet = RankedAlphabet({"pi": 2, "a": 1, "e": 0})
    aut = Tac(alphabet, (
        TacTransition("e", (), target="p"),
        TacTransition("a", ("p",), target="p"),
        TacTransition("pi", ("p", "p"), target="p"),
    ))
    return TacMtt(
        name="eqpair",
        input_alphabet=alphabet,
        output_alphabet=RankedAlphabet({"e": 0}),
        states={"q0": 0},
        initial="q0",
        rules={
            ("q0", "pi"): (
                TacRule(Out("e"), lookahead=("p", "p"), eq=((1, 2),)),
            ),
        },
        tac=aut,
    )
