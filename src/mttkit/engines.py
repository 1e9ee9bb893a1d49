"""The membership engines of `mttkit member`, in one table.

ENGINES maps each engine's name to Engine(kind, needs, decide): the
transducer class it takes, what a mismatch error says it needs, and
decide(m, s, t, stats=None, *, c, env_cap, mode, budget), which calls
the engine's own function with the bounds that engine reads and answers
YES, NO or UNKNOWN.  oi-fc reads c, mr-io env_cap, det mode, and the
oracle mode and budget; the others read none.  A keyword that is no
bound raises TypeError.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

from .io_membership import member_det, member_io, member_oi_fc
from .mtt import Mtt
from .multi_return import ENV_CAP, MrMtt, member_mr_io
from .oracle import IO, NO, YES, Budget, oracle_member
from .tac import TacMtt, member_io_tac

# the copy bound of oi-fc when none is given
COPY_BOUND = 1


class Engine(NamedTuple):
    kind: type
    needs: str
    decide: Callable


def _engine(kind: type, needs: str, call) -> Engine:
    """The row of an engine that call(m, s, t, stats, c=, env_cap=,
    mode=, budget=) runs, answering a bool or a verdict."""
    def decide(m, s, t, stats: dict | None = None, *, c: int = COPY_BOUND,
               env_cap: int = ENV_CAP, mode: str = IO,
               budget: Budget | None = None) -> str:
        got = call(m, s, t, stats, c=c, env_cap=env_cap, mode=mode,
                   budget=budget)
        return got if isinstance(got, str) else YES if got else NO

    return Engine(kind, needs, decide)


_PLAIN = (Mtt, "a plain mtt file")

ENGINES = {
    "io": _engine(*_PLAIN, lambda m, s, t, st, **_: member_io(m, s, t, st)),
    "oi-fc": _engine(*_PLAIN, lambda m, s, t, st, c, **_:
                     member_oi_fc(m, c, s, t, st)),
    "io-tac": _engine(TacMtt, "an mtt file with a tac block",
                      lambda m, s, t, st, **_: member_io_tac(m, s, t, st)),
    "mr-io": _engine(MrMtt, "an mrtt file", lambda m, s, t, st, env_cap, **_:
                     member_mr_io(m, s, t, env_cap, st)),
    "det": _engine(*_PLAIN, lambda m, s, t, st, mode, **_:
                   member_det([m], mode, s, t, st)),
    "oracle": _engine(*_PLAIN, lambda m, s, t, st, mode, budget, **_:
                      oracle_member(m, mode, s, t, budget, st)),
}
