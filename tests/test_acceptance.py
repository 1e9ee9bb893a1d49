"""Acceptance suite: one test per advertised guarantee.

Each test prints a single pass/fail line with its headline numbers, so
a plain pytest run doubles as an acceptance report.  The module tests
cover fine-grained behavior; these are the end-to-end checks.
"""

import random
import time
from functools import partial
from itertools import product

from mttkit import (App, Budget, Evaluator, IO, OI, Tree, enumerate_trees,
                    oracle_eval)
from mttkit.bench import bench_family, fit_power_law
from mttkit.families import (double_mtt, doubling_mtt, equal_pair_tacmtt,
                             reverse_pair_instance, reverse_pair_mrtt)
from mttkit.io_membership import member_det, member_oi_fc
from mttkit.multi_return import eval_mr_io, member_mr_io
from mttkit.oracle import io_subst, oi_subst
from mttkit.sat import (DEFAULT_SAT_BUDGET, SAT, UNSAT, Cnf3, build_sat_mtt,
                        encode, solve_truth_table)
from mttkit.tac import member_io_tac
from mttkit.trees import format_term, parse_term

from helpers import (all_inputs, candidates, differential,
                     estimate_copy_bound, io_output_set, leaf_double_mtt,
                     linear_param_mtt, mixed_double_mtt, random_det_total_mtt,
                     random_mtt)


def _report(capsys, num: int, ok: bool, detail: str) -> None:
    with capsys.disabled():
        print(f"\ncriterion {num}: {'PASS' if ok else 'FAIL'} ({detail})",
              flush=True)
    assert ok, f"criterion {num}: {detail}"


def test_criterion_1_io_engine_agrees_with_oracle(capsys):
    t0 = time.perf_counter()
    rng = random.Random(101)
    budget = Budget(max_set_size=2_000, max_tree_size=50, max_steps=300_000)
    n_mtts = 200
    # every output and every one-label mutation of each
    got = differential((random_mtt(rng, f"r{i}") for i in range(n_mtts)), 6,
                       {"io": {}}, partial(io_output_set, budget=budget),
                       (None, None, None))
    secs = time.perf_counter() - t0
    ok = got.bad is None and got.checks >= 10_000 and secs <= 300
    detail = (f"{n_mtts} transducers, all |s| <= 6, {got.checks} membership "
              f"checks, {got.skipped} pairs skipped, {secs:.1f}s")
    if got.bad is not None:
        detail += f", first mismatch {got.bad}"
    _report(capsys, 1, ok, detail)


def test_criterion_2_double_family_counts(capsys):
    t0 = time.perf_counter()
    m = double_mtt()
    s1 = parse_term("a(e)")
    s2 = parse_term("a(a(e))")
    io1 = oracle_eval(m, IO, App(m.initial, s1))
    io2 = oracle_eval(m, IO, App(m.initial, s2))
    oi1 = oracle_eval(m, OI, App(m.initial, s1))
    counts = (len(io1), len(io2), len(oi1))

    L = [parse_term(x) for x in ("f(y1,y1)", "g(y1,y1)")]
    io_listing = [format_term(t) for t in io_subst(L, [set(L)])]
    oi_listing = [format_term(t) for t in oi_subst(L, [set(L)])]
    listings_ok = io_listing == [
        "f(f(y1,y1),f(y1,y1))",
        "f(g(y1,y1),g(y1,y1))",
        "g(f(y1,y1),f(y1,y1))",
        "g(g(y1,y1),g(y1,y1))",
    ] and oi_listing == [
        "f(f(y1,y1),f(y1,y1))",
        "f(f(y1,y1),g(y1,y1))",
        "f(g(y1,y1),f(y1,y1))",
        "f(g(y1,y1),g(y1,y1))",
        "g(f(y1,y1),f(y1,y1))",
        "g(f(y1,y1),g(y1,y1))",
        "g(g(y1,y1),f(y1,y1))",
        "g(g(y1,y1),g(y1,y1))",
    ]
    secs = time.perf_counter() - t0
    ok = counts == (4, 16, 8) and listings_ok and secs < 1.0
    _report(capsys, 2, ok,
            f"counts {counts} want (4, 16, 8), listings "
            f"{'verbatim' if listings_ok else 'WRONG'}, {secs:.2f}s")


def test_criterion_3_sat_reduction_matches_truth_tables(capsys):
    t0 = time.perf_counter()
    worked = Cnf3(3, (((0, False), (1, True), (2, False)),
                      ((0, True), (1, False), (2, False))))
    inst = encode(worked)
    enc_ok = (
        format_term(inst.s) == "a(b(b(b(c(d),d,d),d,d),d,d))"
        and format_term(inst.t)
        == "and(or(e,not(v(e)),v(v(e))),or(not(e),v(e),v(v(e))))")

    count = 0
    bad = None
    for n in (1, 2):
        lits = [(i, neg) for i in range(n) for neg in (False, True)]
        clauses = list(product(lits, repeat=3))
        for m_cl in (1, 2):
            # one shared output-set computation per ladder shape
            ev = Evaluator(build_sat_mtt(), OI, DEFAULT_SAT_BUDGET)
            for chosen in product(clauses, repeat=m_cl):
                f = Cnf3(n, chosen)
                want = SAT if solve_truth_table(f) else UNSAT
                inst = encode(f)
                got = (SAT if inst.t in ev.state_set(ev.m.initial, inst.s)
                       else UNSAT)
                count += 1
                if got != want and bad is None:
                    bad = (f, got, want)
    secs = time.perf_counter() - t0
    ok = enc_ok and bad is None and count == 4232 and secs <= 120
    detail = (f"encoding {'byte-exact' if enc_ok else 'WRONG'}, "
              f"{count} formulas with n <= 2, m <= 2, {secs:.1f}s")
    if bad is not None:
        detail += f", first mismatch {bad}"
    _report(capsys, 3, ok, detail)


def test_criterion_4_equality_lookahead_domain(capsys):
    t0 = time.perf_counter()
    tm = equal_pair_tacmtt()
    chains = [parse_term("a(" * i + "e" + ")" * i) for i in range(8)]
    out = parse_term("e")
    count = 0
    bad = None
    for l in chains:
        for r in chains:
            got = member_io_tac(tm, Tree("pi", (l, r)), out)
            want = l == r
            count += 1
            if got != want and bad is None:
                bad = (format_term(l), format_term(r), got)
    secs = time.perf_counter() - t0
    ok = bad is None and count == 64
    detail = f"all {count} chain pairs with |s| <= 8, {secs:.2f}s"
    if bad is not None:
        detail += f", first mismatch {bad}"
    _report(capsys, 4, ok, detail)


def test_criterion_5_reverse_pair_family(capsys):
    t0 = time.perf_counter()
    m = reverse_pair_mrtt()
    s3, t3 = reverse_pair_instance("aab")
    worked_ok = (format_term(s3) == "s(s(s(z)))"
                 and format_term(t3) == "r(a(a(b(e))),B(A(A(E))))"
                 and member_mr_io(m, s3, t3))

    checks = 0
    bad = None
    for k in range(7):
        words = ["".join(w) for w in product("ab", repeat=k)]
        expected = {reverse_pair_instance(w)[1] for w in words}
        s = reverse_pair_instance("a" * k)[0]
        produced = set(eval_mr_io(m, s).items)
        if produced != expected and bad is None:
            bad = f"k={k}: engine set has {len(produced)}, want 2^{k}"
        for t in candidates(sorted(expected, key=format_term),
                            m.output_alphabet):
            got = member_mr_io(m, s, t)
            want = t in expected
            checks += 1
            if got != want and bad is None:
                bad = (k, format_term(t), got, want)
    secs = time.perf_counter() - t0
    ok = worked_ok and bad is None
    detail = (f"worked pair {'ok' if worked_ok else 'WRONG'}, exact output "
              f"sets for k <= 6, {checks} membership checks, {secs:.1f}s")
    if bad is not None:
        detail += f", first mismatch {bad}"
    _report(capsys, 5, ok, detail)


def test_criterion_6_deterministic_fast_path(capsys):
    t0 = time.perf_counter()
    rng = random.Random(7)
    budget = Budget(max_set_size=50, max_tree_size=60, max_steps=200_000)
    n_mtts = 50
    # the one output, and its one-label mutations on inputs up to size 5
    got = differential(
        (random_det_total_mtt(rng, f"d{i}") for i in range(n_mtts)), 8,
        {"det": {}, "io": {}}, partial(io_output_set, budget=budget),
        lambda s: (1, 1 if s.size <= 5 else 0, None))

    s20 = parse_term("a(" * 19 + "e" + ")" * 19)
    reject_start = time.perf_counter()
    reject_ok = member_det([doubling_mtt()], IO, s20,
                           parse_term("f(e,e)")) is False
    reject_secs = time.perf_counter() - reject_start
    secs = time.perf_counter() - t0
    ok = (got.bad is None and reject_ok and got.checks >= 5_000
          and reject_secs < 10)
    detail = (f"{n_mtts} deterministic total transducers, all |s| <= 8, "
              f"{got.checks} checks, {got.skipped} pairs skipped, doubling "
              f"rejects f(e,e) at |s|=20 in {reject_secs:.2f}s, {secs:.1f}s")
    if got.bad is not None:
        detail += f", first mismatch {got.bad}"
    _report(capsys, 6, ok, detail)


def test_criterion_7_finite_copying_call_by_name(capsys):
    t0 = time.perf_counter()
    cases = ((linear_param_mtt(), 1), (leaf_double_mtt(), 2),
             (mixed_double_mtt(), 2))
    checks = 0
    bad = None
    for m, c in cases:
        # the declared bound is the enumerated copy count, not an assumption
        counted = estimate_copy_bound(m, 4)
        if counted != c and bad is None:
            bad = (m.name, f"declared copy bound {c}, counted {counted!r}")
        small = list(enumerate_trees(m.output_alphabet, max_size=7))
        for s in all_inputs(6, m.input_alphabet):
            oi_set = set(
                oracle_eval(m, OI, App(m.initial, s)).items)
            pool = candidates(sorted(oi_set, key=format_term),
                              m.output_alphabet)
            pool += [t for t in small if t not in set(pool)]
            for t in pool:
                got = member_oi_fc(m, c, s, t)
                want = t in oi_set
                checks += 1
                if got != want and bad is None:
                    bad = (m.name, format_term(s), format_term(t), got, want)
    secs = time.perf_counter() - t0
    ok = bad is None and checks >= 1_000
    detail = (f"copy bounds 1 and 2, each equal to the count at depth 4, "
              f"all |s| <= 6, {checks} membership checks, {secs:.1f}s")
    if bad is not None:
        detail += f", first mismatch {bad}"
    _report(capsys, 7, ok, detail)


def test_criterion_8_polynomial_runtime_shape(capsys):
    t0 = time.perf_counter()
    ns = (50, 100, 200, 400)
    rows = bench_family("copyfree", ns, repeats=3)
    exponent = fit_power_law(rows)
    secs = time.perf_counter() - t0
    sizes_ok = all(r.s_size == r.n and r.t_size == r.n for r in rows)
    ok = (sizes_ok and exponent is not None and exponent <= 5.0
          and secs <= 120)
    _report(capsys, 8, ok,
            f"fitted exponent {exponent:.2f} <= 5 over |s| = |t| in "
            f"{ns}, {secs:.1f}s")
