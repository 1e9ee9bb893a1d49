"""3-CNF satisfiability via translation membership.

A fixed linear transducer generates, under call-by-name, exactly the
encodings of all satisfiable 3-CNF formulas with n variables and m
clauses when run on a ladder input determined by (n, m).  Deciding
membership of an encoded formula therefore decides its satisfiability,
which is why call-by-name membership is intractable in general.

Formula encoding: variable p_i is v^i(e), negation wraps in not(),
clauses are or() of three literals in written order, and the formula is
the right-nested and() of its clauses, first clause outermost.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product as iproduct

from .errors import EmptyFormula, ParseError
from .mtt import Call, Mtt, Out, Param
from .oracle import NO, OI, UNKNOWN, YES, Budget, oracle_member
from .trees import RankedAlphabet, Tree, tree

Literal = tuple[int, bool]  # (variable index, negated)

SAT = "sat"
UNSAT = "unsat"


@dataclass(frozen=True)
class Cnf3:
    """3-CNF with variables p_0 .. p_{n-1}, exactly three literals per clause."""

    n: int
    clauses: tuple[tuple[Literal, Literal, Literal], ...]

    def __post_init__(self):
        if self.n < 1 or not self.clauses:
            raise EmptyFormula(
                f"need at least one variable and one clause, "
                f"got n={self.n}, m={len(self.clauses)}")
        for cl in self.clauses:
            if len(cl) != 3:
                raise ValueError(f"clause {cl} does not have exactly 3 literals")
            for idx, neg in cl:
                if not 0 <= idx < self.n:
                    raise ValueError(
                        f"literal index {idx} out of range for n={self.n}")
                if not isinstance(neg, bool):
                    raise ValueError(f"negation flag must be bool, got {neg!r}")

    @property
    def m(self) -> int:
        return len(self.clauses)


@dataclass(frozen=True)
class SatInstance:
    """The (input, candidate output) pair encoding one formula."""

    s: Tree
    t: Tree


SAT_INPUT_ALPHABET = RankedAlphabet({"a": 1, "b": 3, "c": 1, "d": 0})
SAT_OUTPUT_ALPHABET = RankedAlphabet(
    {"and": 2, "or": 3, "not": 1, "v": 1, "e": 0})

# slot patterns for one generated clause: every way to draw each of the
# three disjuncts from the true set y2 or the false set y3, except all
# three false (such a clause could be unsatisfied)
_TF_COMBOS = (
    (2, 2, 2), (2, 2, 3), (2, 3, 2), (3, 2, 2), (2, 3, 3), (3, 3, 2), (3, 2, 3),
)


def build_sat_mtt() -> Mtt:
    """The fixed formula generator: 3 states, 20 rules, linear in the input."""
    e = Out("e")
    not_e = Out("not", (e,))
    v_y1 = Out("v", (Param(1),))
    not_y1 = Out("not", (Param(1),))

    rules: dict = {}
    rules[("q0", "a")] = (
        Call("q", 1, (Out("v", (e,)), e, not_e)),
        Call("q", 1, (Out("v", (e,)), not_e, e)),
    )
    rules[("q", "b")] = (
        Call("q", 1, (v_y1,
                      Call("qc", 2, (Param(2), Param(1))),
                      Call("qc", 3, (Param(3), not_y1)))),
        Call("q", 1, (v_y1,
                      Call("qc", 2, (Param(2), not_y1)),
                      Call("qc", 3, (Param(3), Param(1))))),
    )
    rules[("qc", "d")] = (Param(1), Param(2))
    clause = [Out("or", tuple(Param(i) for i in combo)) for combo in _TF_COMBOS]
    rules[("q", "c")] = tuple(
        Out("and", (cl, Call("q", 1, (Param(1), Param(2), Param(3)))))
        for cl in clause)
    rules[("q", "d")] = tuple(clause)

    return Mtt(
        name="sat3",
        input_alphabet=SAT_INPUT_ALPHABET,
        output_alphabet=SAT_OUTPUT_ALPHABET,
        states={"q0": 0, "qc": 2, "q": 3},
        initial="q0",
        rules=rules,
    )


def literal_tree(lit: Literal) -> Tree:
    idx, neg = lit
    t = tree("e")
    for _ in range(idx):
        t = Tree("v", (t,))
    return Tree("not", (t,)) if neg else t


def encode(f: Cnf3) -> SatInstance:
    """Build the membership instance whose answer is f's satisfiability.

    The input ladder carries n b-nodes and a chain of m-1 c-nodes ending
    in d: each c-node emits one and()-conjunct and the final d emits the
    last clause, so m clauses need m-1 c's (input size 3n + m + 1).
    """
    s = tree("d")
    for _ in range(f.m - 1):
        s = Tree("c", (s,))
    d = tree("d")
    for _ in range(f.n):
        s = Tree("b", (s, d, d))
    s = Tree("a", (s,))

    clauses = [Tree("or", tuple(literal_tree(l) for l in cl))
               for cl in f.clauses]
    t = clauses[-1]
    for cl in reversed(clauses[:-1]):
        t = Tree("and", (cl, t))
    return SatInstance(s=s, t=t)


DEFAULT_SAT_BUDGET = Budget(max_set_size=2_000_000, max_steps=200_000_000)


def sat_check_small(f: Cnf3, budget: Budget | None = None) -> str:
    """Decide a tiny formula by translation membership under the
    enumeration oracle; returns sat, unsat, or unknown (budget ran out).
    The default budget handles n <= 3, m <= 3 in seconds to minutes;
    anything bigger wants a real solver, not this reduction.
    """
    inst = encode(f)
    verdict = oracle_member(build_sat_mtt(), OI, inst.s, inst.t,
                            budget or DEFAULT_SAT_BUDGET)
    return {YES: SAT, NO: UNSAT, UNKNOWN: UNKNOWN}[verdict]


def solve_truth_table(f: Cnf3) -> bool:
    """Independent brute-force check over all 2^n assignments (n <= 20)."""
    if f.n > 20:
        raise ValueError(f"truth table limited to 20 variables, got {f.n}")
    for bits in iproduct((False, True), repeat=f.n):
        if all(any(bits[i] != neg for i, neg in cl) for cl in f.clauses):
            return True
    return False


def parse_dimacs(text: str) -> Cnf3:
    """DIMACS-style CNF: `p cnf n m` then m clause lines of three nonzero
    integers terminated by 0; `c` lines are comments.  1-based DIMACS
    variable k is p_{k-1}; a negative integer negates.  There is one
    problem line, and a clause count that does not match its m is
    reported at it."""
    n = None
    m = None
    header = 1
    clauses: list = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        if line.startswith("p"):
            if n is not None:
                raise ParseError(f"second problem line, the first is line {header}",
                                 line=lineno, column=1)
            header = lineno
            parts = line.split()
            if len(parts) != 4 or parts[1] != "cnf":
                raise ParseError("malformed problem line, want `p cnf n m`",
                                 line=lineno, column=1)
            try:
                n, m = int(parts[2]), int(parts[3])
            except ValueError:
                raise ParseError("problem line counts must be integers",
                                 line=lineno, column=1) from None
            if n < 1 or m < 1:
                raise EmptyFormula(f"need n >= 1 and m >= 1, got n={n}, m={m}")
            continue
        if n is None:
            raise ParseError("clause before `p cnf` line", line=lineno, column=1)
        try:
            nums = [int(w) for w in line.split()]
        except ValueError:
            raise ParseError("clause lines must contain integers",
                             line=lineno, column=1) from None
        if len(nums) != 4 or nums[3] != 0:
            raise ParseError("each clause needs three nonzero literals then 0",
                             line=lineno, column=1)
        lits = []
        for x in nums[:3]:
            if x == 0 or abs(x) > n:
                raise ParseError(f"literal {x} out of range for {n} variables",
                                 line=lineno, column=1)
            lits.append((abs(x) - 1, x < 0))
        clauses.append(tuple(lits))
    if n is None:
        raise ParseError("missing `p cnf` line", line=1, column=1)
    if len(clauses) != m:
        raise ParseError(f"header promised {m} clauses, found {len(clauses)}",
                         line=header, column=1)
    return Cnf3(n=n, clauses=tuple(clauses))
