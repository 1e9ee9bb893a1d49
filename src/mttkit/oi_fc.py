"""Call-by-name membership for transducers with bounded parameter copying.

Under call-by-name, different occurrences of one parameter may expand to
different trees, so the automaton binds each parameter to a *set* of
candidate-output DAG nodes instead of a single node.  When at most c
copies of any parameter can ever occur, sets of size at most c suffice
and the automaton stays polynomial for fixed c.  The empty set plays the
role BOTTOM plays for call-by-value: a parameter that need not produce
any subtree of the candidate output.

The automaton is evaluated on demand from the root question by the same
demand core as member_io, with a set-binding right-hand-side evaluator;
only the entries the verdict depends on are computed.

The copy bound c is declared by the caller and trusted, not checked.  A
bound below the transducer's true one can only under-approximate: it can
answer a wrong "no", never a wrong "yes".
"""

from __future__ import annotations

from itertools import combinations, product

from .io_membership import _bind_once, _member, _out_refs
from .mtt import Mtt, Out, Param, _refuse_guards
from .trees import BOTTOM, Tree


def _eval_sets(rhs, betabar: tuple, kids, ask, dag, c: int) -> set:
    """Result nodes of rhs when parameter i may expand to any node of
    betabar[i], an ascending tuple of at most c candidate-output nodes.

    kids are the input node's children, and ask(node, state, gammabar)
    answers a state call on one of them.
    """
    if isinstance(rhs, Param):
        return set(betabar[rhs.index - 1])
    kid_sets = [_eval_sets(a, betabar, kids, ask, dag, c) for a in rhs.args]
    if isinstance(rhs, Out):
        # bindings never hold BOTTOM; the empty set plays its role
        out = _out_refs(rhs.sym, kid_sets, dag)
        out.discard(BOTTOM)
        return out
    # Every entry is monotone in its bindings: a larger set for a parameter
    # lets each of its occurrences pick from more nodes.  So the union over
    # all bindings gamma_i <= K_i with |gamma_i| <= c is reached by the
    # subsets of K_i of size min(c, |K_i|) alone, which cover the smaller ones.
    out: set = set()
    child = kids[rhs.child - 1]
    choices = [combinations(sorted(ks), min(c, len(ks))) for ks in kid_sets]
    for gammabar in product(*choices):
        out |= ask(child, rhs.state, gammabar)
    return out


def member_oi_fc(m: Mtt, c: int, s: Tree, t: Tree, stats: dict | None = None) -> bool:
    """Is t an output of m on s under call-by-name, trusting copy bound c?

    c must be at least the largest number of copies of one parameter that
    m can produce; it is not checked.  With a smaller c, a "no" can be
    wrong: t may be an output that only more copies reach.
    """
    if not isinstance(c, int) or c < 1:
        raise ValueError(f"copy bound must be a positive int, got {c!r}")
    _refuse_guards(m)
    # a plain function, not functools.partial: a call through partial
    # nests on the C stack, which deep inputs overflow; rhss and c are
    # defaults, as io_membership's generated functions take their
    # constants
    def bind(rhss):
        if not rhss:
            return None

        def alt(betabar, kids, ask, dag, rhss=rhss, c=c):
            out: set = set()
            for rhs in rhss:
                out |= _eval_sets(rhs, betabar, kids, ask, dag, c)
            return out
        return alt

    rules = m.rules
    alternatives = _bind_once(m, ("oi", c), lambda q, sym, _: bind(
        rules.get((q, sym), ())))
    return _member(m, s, t, alternatives, stats)

