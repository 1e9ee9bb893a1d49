"""Call-by-name membership for transducers with bounded parameter copying.

Under call-by-name, different occurrences of one parameter may expand to
different trees, so the automaton binds each parameter to a *set* of
candidate-output DAG nodes instead of a single node.  When at most c
copies of any parameter can ever occur, sets of size at most c suffice
and the automaton stays polynomial for fixed c.  The empty set plays the
role BOTTOM plays for call-by-value: a parameter that need not produce
any subtree of the candidate output.

The automaton is evaluated on demand from the root question by the same
demand core as member_io, and its alternatives are generated by the same
compile_rhs, under set bindings with copy bound c; only the entries the
verdict depends on are computed.

The copy bound c is declared by the caller and trusted, not checked.  A
bound below the transducer's true one can only under-approximate: it can
answer a wrong "no", never a wrong "yes".
"""

from __future__ import annotations

from .io_membership import _member, _table, compile_rhs
from .mtt import Mtt, _refuse_guards
from .trees import Tree, build_dag


def member_oi_fc(m: Mtt, c: int, s: Tree, t: Tree, stats: dict | None = None) -> bool:
    """Is t an output of m on s under call-by-name, trusting copy bound c?

    c must be at least the largest number of copies of one parameter that
    m can produce; it is not checked.  With a smaller c, a "no" can be
    wrong: t may be an output that only more copies reach.
    """
    if not isinstance(c, int) or c < 1:
        raise ValueError(f"copy bound must be a positive int, got {c!r}")
    _refuse_guards(m)
    rules = m.rules
    alternatives = _table(m, ("oi", c), lambda q, sym: compile_rhs(
        rules.get((q, sym), ()), c))
    return _member(m, build_dag(s)[0], t, alternatives, stats)
