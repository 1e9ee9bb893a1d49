"""Command line front end.

Subcommands: validate, member, sat, bench, sat-mtt.  Membership exit
codes are 0 = yes/sat, 1 = no/unsat, 2 = unknown (a budget or mr-io's
--env-cap ran out), 3 = any diagnosed error (bad usage, parse failure,
engine/model mismatch).  Budgets for the enumeration paths come from
flags, falling back to the MTTKIT_MAX_SET and MTTKIT_MAX_STEPS
environment variables, then to built-in defaults.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

from .bench import FAMILIES, bench_family, fit_power_law
from .errors import EnvLimitExceeded, MttError
from .dsl import format_transducer, parse_transducer
from .io_membership import member_det, member_io, member_oi_fc
from .mtt import Mtt, copy_counts
from .multi_return import MrMtt, member_mr_io
from .oracle import IO, NO, OI, UNKNOWN, YES, Budget, oracle_member
from .sat import (DEFAULT_SAT_BUDGET, SAT, UNSAT, build_sat_mtt, encode,
                  parse_dimacs, sat_check_small)
from .tac import TacMtt, member_io_tac
from .trees import format_term, parse_term

_PLAIN = (Mtt, "a plain mtt file")

# engine -> (model kind, what a mismatch error says the engine needs,
# verdict call (args, budget, m, s, t, stats): True, False or a verdict)
ENGINES = {
    "io": (*_PLAIN, lambda args, budget, m, s, t, stats:
           member_io(m, s, t, stats=stats)),
    "oi-fc": (*_PLAIN, lambda args, budget, m, s, t, stats:
              member_oi_fc(m, args.copy_bound, s, t, stats=stats)),
    "io-tac": (TacMtt, "an mtt file with a tac block",
               lambda args, budget, m, s, t, stats:
               member_io_tac(m, s, t, stats=stats)),
    "mr-io": (MrMtt, "an mrtt file", lambda args, budget, m, s, t, stats:
              member_mr_io(m, s, t, env_cap=args.env_cap, stats=stats)),
    "det": (*_PLAIN, lambda args, budget, m, s, t, stats:
            member_det([m], args.mode, s, t, stats=stats)),
    "oracle": (*_PLAIN, lambda args, budget, m, s, t, stats:
               oracle_member(m, args.mode, s, t, budget, stats=stats)),
}

_EXIT = {YES: 0, NO: 1, UNKNOWN: 2, SAT: 0, UNSAT: 1}


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors, which collides with "unknown"
    def error(self, message):
        self.exit(3, f"{self.prog}: error: {message}\n")


def _budget(args, defaults: Budget) -> Budget:
    # each bound not set by flag or environment keeps the caller's default
    def pick(flag, env, default):
        if flag is not None:
            return flag
        raw = os.environ.get(env, "").strip()
        if not raw:
            return default
        try:
            return int(raw)
        except ValueError:
            raise MttError(f"{env} must be an integer, got {raw!r}") from None

    try:
        return Budget(
            max_set_size=pick(args.max_set, "MTTKIT_MAX_SET",
                              defaults.max_set_size),
            max_tree_size=args.max_tree,
            max_steps=pick(args.max_steps, "MTTKIT_MAX_STEPS", defaults.max_steps),
        )
    except ValueError as exc:
        raise MttError(str(exc)) from None


def _read_text(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise MttError(f"{path}: not UTF-8 text ({exc.reason})") from None


def _load_transducer(path: str):
    return parse_transducer(_read_text(path))


def _load_term(path: str):
    return parse_term(_read_text(path))


def _emit(record: dict, as_json: bool) -> None:
    if as_json:
        print(json.dumps(record))
        return
    for key, value in record.items():
        if key == "stats":
            for sk in sorted(value):
                print(f"{sk}: {value[sk]}")
        else:
            print(f"{key}: {value}")


def _bool(x: bool) -> str:
    return "true" if x else "false"


def cmd_validate(args) -> int:
    try:
        m = _load_transducer(args.file)
        record: dict = {"name": m.name}
        if isinstance(m, TacMtt):
            record["kind"] = "mtt+tac"
            record["lookahead_states"] = len(m.tac.states())
            record["transitions"] = len(m.tac.transitions)
        elif isinstance(m, MrMtt):
            record["kind"] = "mrtt"
            record["states"] = len(m.ranks)
            record["m"] = max(m.ranks.values())
            record["max_dimension"] = max(m.dims.values())
            record["rules"] = sum(len(v) for v in m.rules.values())
            _emit(record, args.json)
            return 0
        else:
            record["kind"] = "mtt"
        counts = copy_counts(m)
        record["copied_params"] = ", ".join(
            f"{q}.{j}" for q in m.states
            for j, n in enumerate(counts[q], 1) if n > 1) or "none"
        cls = m.mtt_class
        record["deterministic"] = _bool(cls.deterministic)
        record["total"] = _bool(cls.total)
        record["linear_input"] = _bool(cls.linear_input)
        record["linear_params"] = _bool(cls.linear_params)
        record["m"] = cls.max_state_rank
        record["states"] = len(m.states)
        record["rules"] = sum(len(v) for v in m.rules.values())
        _emit(record, args.json)
        return 0
    except (MttError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


def _run_member(args, budget, m, s, t) -> tuple[str, dict]:
    kind, needs, run = ENGINES[args.engine]
    if not isinstance(m, kind):
        raise MttError(f"engine {args.engine} needs {needs}")
    stats: dict = {}
    try:
        verdict = run(args, budget, m, s, t, stats)
    except EnvLimitExceeded as exc:
        # a spent --env-cap leaves the verdict open
        print(f"unknown: {exc}", file=sys.stderr)
        return UNKNOWN, stats
    if isinstance(verdict, bool):
        verdict = YES if verdict else NO
    return verdict, stats


def cmd_member(args) -> int:
    try:
        # every flag is checked, whichever engine reads it
        budget = _budget(args, Budget())
        for flag, value in (("--copy-bound", args.copy_bound),
                            ("--env-cap", args.env_cap)):
            if value < 1:
                raise MttError(f"{flag} must be positive, got {value}")
        m = _load_transducer(args.mtt)
        t0 = time.perf_counter()
        s = _load_term(args.s)
        t = _load_term(args.t)
        t1 = time.perf_counter()
        verdict, stats = _run_member(args, budget, m, s, t)
        elapsed = time.perf_counter() - t1
    except (MttError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    record = {
        "result": verdict,
        "engine": args.engine,
        "parse_ms": round((t1 - t0) * 1000, 3),
        "elapsed_ms": round(elapsed * 1000, 3),
        "stats": stats,
    }
    _emit(record, args.json)
    return _EXIT[verdict]


def cmd_sat(args) -> int:
    try:
        # the budget is checked before anything is written
        budget = _budget(args, DEFAULT_SAT_BUDGET)
        f = parse_dimacs(_read_text(args.cnf))
        inst = encode(f)
        out_dir = Path(args.out_dir) if args.out_dir else Path(args.cnf).parent
        out_dir.mkdir(parents=True, exist_ok=True)
        stem = Path(args.cnf).stem
        s_file = out_dir / f"{stem}.s.term"
        t_file = out_dir / f"{stem}.t.term"
        s_file.write_text(format_term(inst.s) + "\n")
        t_file.write_text(format_term(inst.t) + "\n")
        t0 = time.perf_counter()
        verdict = sat_check_small(f, budget)
        elapsed = time.perf_counter() - t0
    except (MttError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    record = {
        "result": verdict,
        "engine": "oracle-oi",
        "elapsed_ms": round(elapsed * 1000, 3),
        "stats": {"n": f.n, "m": f.m, "s_size": inst.s.size,
                  "t_size": inst.t.size},
        "s_file": str(s_file),
        "t_file": str(t_file),
    }
    _emit(record, args.json)
    return _EXIT[verdict]


def _parse_ns(spec: str) -> list[int]:
    spec = spec.strip()
    if not spec:
        return []
    if ".." in spec:
        lo, hi = spec.split("..", 1)
        return list(range(int(lo), int(hi) + 1))
    return [int(part) for part in spec.split(",") if part.strip()]


def cmd_bench(args) -> int:
    try:
        if args.repeats < 1:
            raise MttError(f"--repeats must be positive, got {args.repeats}")
        ns = _parse_ns(args.ns)
        if not ns:
            raise MttError(f"--ns {args.ns!r} names no size")
        rows = bench_family(args.family, ns, repeats=args.repeats)
    except (MttError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    exponent = fit_power_law(rows)
    if args.json:
        print(json.dumps({
            "family": args.family,
            "rows": [vars(r) for r in rows],
            "exponent": exponent,
        }))
        return 0
    print(f"family: {args.family}")
    for r in rows:
        if r.seconds is None:
            print(f"n: {r.n}  {r.note}")
        else:
            print(f"n: {r.n}  s_size: {r.s_size}  t_size: {r.t_size}  "
                  f"entries: {r.entries}  seconds: {r.seconds:.6f}")
    if exponent is not None:
        print(f"exponent: {exponent:.3f}")
    return 0


def cmd_sat_mtt(args) -> int:
    # convenience: dump the fixed formula generator in DSL form
    sys.stdout.write(format_transducer(build_sat_mtt()))
    return 0


def build_parser() -> _Parser:
    p = _Parser(prog="mttkit",
                description="translation membership for macro tree transducers")
    sub = p.add_subparsers(dest="command", required=True)

    v = sub.add_parser("validate", help="parse a transducer file and "
                       "report its class", add_help=True)
    v.add_argument("file")
    v.add_argument("--json", action="store_true")
    v.set_defaults(fn=cmd_validate)

    mem = sub.add_parser("member", help="decide whether (s, t) is in the "
                         "transducer's translation")
    mem.add_argument("--engine", choices=ENGINES, required=True)
    mem.add_argument("--mode", choices=(IO, OI), default=IO,
                     help="semantics for the oracle engine; det takes it "
                     "and ignores it, since both coincide on a "
                     "deterministic total transducer")
    mem.add_argument("--copy-bound", type=int, default=1,
                     help="oi-fc's copy bound, not checked: past the memo's "
                     "limit, one below the transducer's true bound can give "
                     "a wrong 'no'")
    mem.add_argument("--env-cap", type=int, default=100_000,
                     help="environment-set cap for mr-io")
    mem.add_argument("--max-set", type=int, default=None)
    mem.add_argument("--max-steps", type=int, default=None)
    mem.add_argument("--max-tree", type=int, default=None)
    mem.add_argument("--json", action="store_true")
    mem.add_argument("mtt")
    mem.add_argument("s")
    mem.add_argument("t")
    mem.set_defaults(fn=cmd_member)

    sat = sub.add_parser("sat", help="decide a tiny DIMACS 3-CNF by "
                         "translation membership")
    sat.add_argument("cnf")
    sat.add_argument("--out-dir", default=None,
                     help="where to write the encoded .term files")
    sat.add_argument("--max-set", type=int, default=None)
    sat.add_argument("--max-steps", type=int, default=None)
    sat.add_argument("--json", action="store_true")
    sat.set_defaults(fn=cmd_sat, max_tree=None)

    b = sub.add_parser("bench", help="time the io engine on an instance family")
    b.add_argument("family", choices=FAMILIES)
    b.add_argument("--ns", required=True,
                   help="sizes: comma list '50,100,200' or range '4..12'")
    b.add_argument("--repeats", type=int, default=3)
    b.add_argument("--json", action="store_true")
    b.set_defaults(fn=cmd_bench)

    g = sub.add_parser("sat-mtt", help="print the fixed 3-CNF generator "
                       "transducer")
    g.set_defaults(fn=cmd_sat_mtt)

    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
