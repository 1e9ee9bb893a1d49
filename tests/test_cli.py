"""Command line behavior: subcommands, exit codes, output shapes."""

import json
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from mttkit import ENGINES, MrMtt, Mtt, TacMtt, cli
from mttkit.cli import main
from mttkit.dsl import format_transducer, parse_transducer
from mttkit.families import (copyfree_instance, copyfree_mtt, double_instance,
                             double_mtt, doubling_mtt, equal_pair_tacmtt,
                             fan_instance, fan_mtt, reverse_pair_instance,
                             reverse_pair_mrtt)
from mttkit.oracle import Budget
from mttkit.sat import DEFAULT_SAT_BUDGET, build_sat_mtt, encode, parse_dimacs
from mttkit.trees import Tree, format_term, parse_term

from helpers import first_rule_twice, parity_guarded


@pytest.fixture
def files(tmp_path):
    def write(name: str, text: str) -> str:
        p = tmp_path / name
        p.write_text(text)
        return str(p)
    return write


def term_file(write, name, t):
    return write(name, format_term(t) + "\n")


def test_validate_plain(files, capsys):
    path = files("double.mtt", format_transducer(double_mtt()))
    assert main(["validate", path]) == 0
    out = capsys.readouterr().out
    assert "kind: mtt" in out
    assert "deterministic: false" in out
    assert "total: false" in out

    text = format_transducer(double_mtt())
    for path in (files("double.mtt", text),
                 files("twice.mtt", first_rule_twice(text))):
        assert main(["validate", "--json", path]) == 0
        rec = json.loads(capsys.readouterr().out)
        assert rec["name"] == "double"
        assert rec["m"] == 1
        assert rec["rules"] == 4  # a repeated rule counts once


def test_validate_reports_copied_parameters(files, capsys):
    # with a tac block too, counted with the guards dropped
    for make, copied in ((fan_mtt, "none"), (doubling_mtt, "q.1"),
                         (equal_pair_tacmtt, "none"),
                         (lambda: parity_guarded(doubling_mtt()), "q.1")):
        path = files("m.mtt", format_transducer(make()))
        assert main(["validate", path]) == 0
        assert f"copied_params: {copied}\n" in capsys.readouterr().out
        assert main(["validate", "--json", path]) == 0
        assert json.loads(capsys.readouterr().out)["copied_params"] == copied


def test_validate_tac_and_mr(files, capsys):
    text = format_transducer(equal_pair_tacmtt())
    for tac in (files("eqpair.mtt", text),
                files("twice.mtt", first_rule_twice(text))):
        assert main(["validate", "--json", tac]) == 0
        rec = json.loads(capsys.readouterr().out)
        assert rec["kind"] == "mtt+tac"
        assert rec["lookahead_states"] == 1
        assert rec["transitions"] == 3
        assert rec["rules"] == 1

    text = format_transducer(reverse_pair_mrtt())
    for mr in (files("revpair.mrtt", text),
               files("twice.mrtt", first_rule_twice(text))):
        assert main(["validate", "--json", mr]) == 0
        rec = json.loads(capsys.readouterr().out)
        assert rec["kind"] == "mrtt"
        assert rec["max_dimension"] == 2
        assert rec["rules"] == sum(
            len(alts) for alts in reverse_pair_mrtt().rules.values())


def test_validate_sat_generator(files, capsys):
    path = files("sat3.mtt", format_transducer(build_sat_mtt()))
    assert main(["validate", "--json", path]) == 0
    rec = json.loads(capsys.readouterr().out)
    assert rec["m"] == 3
    assert rec["rules"] == 20


def deep_mtt_text(depth: int) -> str:
    """double_mtt with one right-hand side nested depth levels deep."""
    return format_transducer(double_mtt()).replace(
        "-> f(y1, y1)", "-> " + "f(e, " * depth + "y1" + ")" * depth)


def test_validate_errors(files, capsys):
    assert main(["validate", "/no/such/file.mtt"]) == 3
    assert "error:" in capsys.readouterr().err
    bad = files("bad.mtt", "mtt m { input { } }")
    assert main(["validate", bad]) == 3
    assert "empty input alphabet" in capsys.readouterr().err
    with open(bad, "wb") as f:
        f.write(b"mtt \xff {}\n")
    assert main(["validate", bad]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    deep = files("deep.mtt", deep_mtt_text(3000))
    assert main(["validate", deep]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert "nests deeper than" in err


def test_member_io_verdicts(files, capsys):
    m = files("double.mtt", format_transducer(double_mtt()))
    s, t = double_instance(1)
    sf = term_file(files, "s.term", s)
    tf = term_file(files, "t.term", t)
    assert main(["member", "--engine", "io", m, sf, tf]) == 0
    assert "result: yes" in capsys.readouterr().out

    bad = term_file(files, "bad.term", parse_term("f(f(e,e),g(e,e))"))
    assert main(["member", "--engine", "io", m, sf, bad]) == 1
    assert "result: no" in capsys.readouterr().out


def test_member_json_record(files, capsys):
    m = files("cf.mtt", format_transducer(copyfree_mtt()))
    s, t = copyfree_instance(5)
    sf = term_file(files, "s.term", s)
    tf = term_file(files, "t.term", t)
    assert main(["member", "--engine", "io", "--json", m, sf, tf]) == 0
    rec = json.loads(capsys.readouterr().out)
    assert rec["result"] == "yes"
    assert rec["engine"] == "io"
    assert rec["elapsed_ms"] >= 0
    assert rec["parse_ms"] >= 0
    assert rec["stats"]["s_size"] == s.size
    # the work counters, as test_io_membership pins them on fan
    m = files("fan.mtt", format_transducer(fan_mtt()))
    s, t = fan_instance(8)
    sf = term_file(files, "s.term", s)
    tf = term_file(files, "t.term", t)
    assert main(["member", "--engine", "io", "--json", m, sf, tf]) == 0
    stats = json.loads(capsys.readouterr().out)["stats"]
    assert (stats["entries"], stats["images"]) == (213, 42)


def test_member_det_json_stats_match_io(files, capsys):
    # det decides on the same core as io, so it reports the same stats
    m = files("cf.mtt", format_transducer(copyfree_mtt()))
    s, t = copyfree_instance(5)
    sf = term_file(files, "s.term", s)
    for cand, code in ((t, 0), (Tree("f", (t,)), 1)):
        tf = term_file(files, "t.term", cand)
        stats = {}
        for engine in ("io", "det"):
            argv = ["member", "--engine", engine, "--json", m, sf, tf]
            assert main(argv) == code
            stats[engine] = json.loads(capsys.readouterr().out)["stats"]
        assert stats["det"] == stats["io"]
        assert stats["io"].keys() == {"s_size", "t_size", "s_dag_nodes",
                                      "t_dag_nodes", "entries", "images"}


def test_member_other_engines(files, capsys):
    cf = files("cf.mtt", format_transducer(copyfree_mtt()))
    s, t = copyfree_instance(4)
    sf = term_file(files, "s.term", s)
    tf = term_file(files, "t.term", t)
    for engine in ("oi-fc", "det", "oracle"):
        assert main(["member", "--engine", engine, cf, sf, tf]) == 0, engine
        capsys.readouterr()

    tac = files("eqpair.mtt", format_transducer(equal_pair_tacmtt()))
    pair = parse_term("pi(a(e),a(e))")
    sf2 = term_file(files, "pair.term", pair)
    tf2 = term_file(files, "out.term", parse_term("e"))
    assert main(["member", "--engine", "io-tac", tac, sf2, tf2]) == 0
    capsys.readouterr()

    mr = files("revpair.mrtt", format_transducer(reverse_pair_mrtt()))
    ms, mt = reverse_pair_instance("ab")
    msf = term_file(files, "ms.term", ms)
    mtf = term_file(files, "mt.term", mt)
    assert main(["member", "--engine", "mr-io", mr, msf, mtf]) == 0
    capsys.readouterr()
    # lo spells "ab" but hi is not its reversal
    mismatched = parse_term("r(a(b(e)),A(B(E)))")
    otherf = term_file(files, "other.term", mismatched)
    assert main(["member", "--engine", "mr-io", mr, msf, otherf]) == 1


def test_member_engine_model_mismatch(files, capsys):
    plain = files("double.mtt", format_transducer(double_mtt()))
    models = {Mtt: plain,
              TacMtt: files("eqpair.mtt", format_transducer(equal_pair_tacmtt())),
              MrMtt: files("revpair.mrtt", format_transducer(reverse_pair_mrtt()))}
    s, t = double_instance(1)
    sf = term_file(files, "s.term", s)
    tf = term_file(files, "t.term", t)
    pairs = [(name, engine.needs, path) for name, engine in ENGINES.items()
             for kind, path in models.items() if kind is not engine.kind]
    assert len(pairs) == 12
    for name, needs, path in pairs:
        assert main(["member", "--engine", name, path, sf, tf]) == 3
        err = capsys.readouterr().err
        assert err == f"error: engine {name} needs {needs}\n", (name, path)
    # det needs a deterministic transducer
    assert main(["member", "--engine", "det", plain, sf, tf]) == 3
    assert "error:" in capsys.readouterr().err


def test_member_bad_copy_bound(files, capsys):
    cf = files("cf.mtt", format_transducer(copyfree_mtt()))
    s, t = copyfree_instance(4)
    sf = term_file(files, "s.term", s)
    tf = term_file(files, "t.term", t)
    for bound in ("0", "-2"):
        code = main(["member", "--engine", "oi-fc", "--copy-bound", bound,
                     cf, sf, tf])
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1


def test_member_oracle_unknown(files, capsys):
    m = files("double.mtt", format_transducer(double_mtt()))
    s, t = double_instance(2)
    sf = term_file(files, "s.term", s)
    tf = term_file(files, "t.term", t)
    code = main(["member", "--engine", "oracle", "--max-steps", "5", m, sf, tf])
    assert code == 2
    assert "result: unknown" in capsys.readouterr().out


def test_member_spent_env_cap_is_unknown(files, capsys):
    # two environments after the first let, against a cap of one
    mr = files("revpair.mrtt", format_transducer(reverse_pair_mrtt()))
    s, t = reverse_pair_instance("aab")
    assert format_term(s) == "s(s(s(z)))"
    sf = term_file(files, "s.term", s)
    tf = term_file(files, "t.term", t)
    assert main(["member", "--json", "--engine", "mr-io", "--env-cap", "1",
                 mr, sf, tf]) == 2
    out, err = capsys.readouterr()
    record = json.loads(out)
    # the set that broke the cap, beside the sizes the demand started on
    assert record["result"] == "unknown" and record["stats"] == {
        "s_size": 4, "t_size": 9, "s_dag_nodes": 4, "t_dag_nodes": 9,
        "max_envs": 2}
    assert err == "unknown: rule q1/s: 2 environments after let 1, cap is 1\n"
    assert main(["member", "--engine", "mr-io", "--env-cap", "2", mr, sf, tf]) == 0
    capsys.readouterr()
    assert main(["member", "--engine", "mr-io", "--env-cap", "0", mr, sf, tf]) == 3
    assert capsys.readouterr().err.startswith("error:")


def test_member_oracle_unknown_on_deep_input(files, capsys):
    # enumeration recurses per input level and runs out of recursion
    # depth here: that is unknown, exit 2, not a traceback and exit 1
    m = files("cf.mtt", format_transducer(copyfree_mtt()))
    s, t = copyfree_instance(1000)
    sf = term_file(files, "s.term", s)
    tf = term_file(files, "t.term", t)
    assert main(["member", "--engine", "oracle", m, sf, tf]) == 2
    assert "result: unknown" in capsys.readouterr().out
    assert main(["member", "--engine", "io", m, sf, tf]) == 0


def test_member_oracle_mode_flag(files, capsys):
    m = files("double.mtt", format_transducer(double_mtt()))
    s, _ = double_instance(1)
    mixed = parse_term("f(f(e,e),g(e,e))")
    sf = term_file(files, "s.term", s)
    tf = term_file(files, "mixed.term", mixed)
    assert main(["member", "--engine", "oracle", m, sf, tf]) == 1
    capsys.readouterr()
    assert main(["member", "--engine", "oracle", "--mode", "oi", m, sf, tf]) == 0


def test_env_var_budget(files, capsys, monkeypatch):
    # budgets come from flags only: the environment changes no verdict
    m = files("double.mtt", format_transducer(double_mtt()))
    s, t = double_instance(2)
    sf = term_file(files, "s.term", s)
    tf = term_file(files, "t.term", t)
    assert main(["member", "--engine", "oracle", "--max-steps", "5",
                 m, sf, tf]) == 2
    capsys.readouterr()
    monkeypatch.setenv("MTTKIT_MAX_STEPS", "5")
    assert main(["member", "--engine", "oracle", m, sf, tf]) == 0


def test_bad_budgets_and_text_are_diagnosed(files, capsys):
    m = files("double.mtt", format_transducer(double_mtt()))
    s, t = double_instance(1)
    sf = term_file(files, "s.term", s)
    tf = term_file(files, "t.term", t)
    cnf = files("one.cnf", "p cnf 1 1\n1 1 1 0\n")
    bad = files("bad.term", "")
    with open(bad, "wb") as f:
        f.write(b"a(\xff)\n")

    def diagnosed(argv):
        assert main(argv) == 3
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1

    def sat_diagnosed(argv):
        # a bad budget is found before the encoded terms are written
        diagnosed(["sat", *argv, cnf])
        assert not list(Path(cnf).parent.glob("one.*.term"))

    oracle = ["member", "--engine", "oracle"]
    diagnosed(oracle + ["--max-set", "0", m, sf, tf])
    diagnosed(oracle + ["--max-steps", "-5", m, sf, tf])
    # every flag is checked, whichever engine reads it
    for engine in ("io", "oi-fc", "det"):
        member = ["member", "--engine", engine]
        diagnosed(member + ["--max-set", "0", "--max-steps", "-5", m, sf, tf])
        diagnosed(member + ["--env-cap", "0", m, sf, tf])
        diagnosed(member + ["--copy-bound", "0", m, sf, tf])
    deep = files("deep.mtt", deep_mtt_text(3000))
    diagnosed(["member", "--engine", "io", deep, sf, tf])
    sat_diagnosed(["--max-set", "0"])
    sat_diagnosed(["--max-steps", "0"])
    diagnosed(["member", "--engine", "io", m, bad, tf])
    diagnosed(["member", "--engine", "io", m, sf, bad])
    # --max-tree is no flag: a usage error
    with pytest.raises(SystemExit) as e:
        main(oracle + ["--max-tree", "5", m, sf, tf])
    assert e.value.code == 3
    assert "unrecognized arguments: --max-tree" in capsys.readouterr().err


_TERMS = [format_term(t) for t in copyfree_instance(4)] + ["f(g(e),e)", "e()"]
_TERM_WORDS = ["a", "e", "f", "g", "z", "(", ")", ",", " ", "\n", "x1", "1"]


@st.composite
def _spliced_term(draw):
    """A valid term with a short stretch replaced by arbitrary text."""
    text = draw(st.sampled_from(_TERMS))
    i = draw(st.integers(0, len(text)))
    j = draw(st.integers(i, min(len(text), i + 6)))
    return text[:i] + draw(st.text(max_size=4)) + text[j:]


_TERM_TEXT = st.one_of(
    st.sampled_from(_TERMS),
    # chains like copyfree's inputs and outputs, so verdicts come out too
    st.builds(lambda node, n, leaf: node * n + leaf + ")" * n,
              st.sampled_from(["a(", "f(", "g("]), st.integers(0, 6),
              st.sampled_from(["e", "g(e)", "a(e)"])),
    st.text(max_size=30),
    st.lists(st.sampled_from(_TERM_WORDS), max_size=20).map("".join),
    _spliced_term())


@given(engine=st.sampled_from(["io", "det", "oi-fc"]), s=_TERM_TEXT, t=_TERM_TEXT)
@settings(max_examples=300, deadline=None)
def test_member_exit_codes_on_any_term_text(tmp_path_factory, engine, s, t):
    # the exit-code contract holds whatever the term files hold
    d = tmp_path_factory.mktemp("member")
    m = d / "cf.mtt"
    m.write_text(format_transducer(copyfree_mtt()))
    (d / "s.term").write_text(s, encoding="utf-8")
    (d / "t.term").write_text(t, encoding="utf-8")
    out, err = StringIO(), StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(["member", "--engine", engine, str(m), str(d / "s.term"),
                     str(d / "t.term")])
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err.getvalue()
    if code == 3:
        assert err.getvalue().startswith("error:")
        assert err.getvalue().count("\n") == 1


def test_a_closed_stdout_keeps_the_verdicts_exit_code(files):
    # the reader is gone before the command writes, with stdout buffered
    # or not: the yes stays exit 0, with nothing on stderr about it
    m = files("id.mtt", "mtt id {\n  input { a: 1, e: 0 }\n"
              "  output { a: 1, e: 0 }\n  state q: 0 init\n"
              "  rule q(a(x1)) -> a(q[x1])\n  rule q(e) -> e\n}\n")
    small = files("small.term", "a(a(e))\n")
    src = str(Path(cli.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    for unbuffered in ("", "1"):
        r, w = os.pipe()
        os.close(r)
        try:
            done = subprocess.run(
                [sys.executable, "-m", "mttkit.cli", "member", "--engine",
                 "io", m, small, small],
                stdout=w, stderr=subprocess.PIPE, text=True, timeout=60,
                env={**os.environ, "PYTHONPATH": path,
                     "PYTHONUNBUFFERED": unbuffered})
        finally:
            os.close(w)
        assert done.returncode == 0, done.stderr
        assert "Traceback" not in done.stderr
        assert "Exception ignored" not in done.stderr


def test_sat_subcommand(files, tmp_path, capsys):
    cnf = files("one.cnf", "p cnf 1 1\n1 1 1 0\n")
    assert main(["sat", cnf]) == 0
    out = capsys.readouterr().out
    assert "result: sat" in out

    f = parse_dimacs("p cnf 1 1\n1 1 1 0\n")
    inst = encode(f)
    assert parse_term((tmp_path / "one.s.term").read_text()) == inst.s
    assert parse_term((tmp_path / "one.t.term").read_text()) == inst.t

    unsat = files("contra.cnf", "p cnf 1 2\n1 1 1 0\n-1 -1 -1 0\n")
    assert main(["sat", unsat]) == 1
    assert "result: unsat" in capsys.readouterr().out

    assert main(["sat", "--max-steps", "10", cnf]) == 2
    capsys.readouterr()

    bad = files("bad.cnf", "p cnf 1 1\n1 1 0\n")
    assert main(["sat", bad]) == 3
    assert "error:" in capsys.readouterr().err


def test_sat_budget_keeps_the_sat_default_for_each_bound_not_set(
        files, capsys, monkeypatch):
    cnf = files("one.cnf", "p cnf 1 1\n1 1 1 0\n")
    seen = []
    monkeypatch.setattr(cli, "sat_check_small",
                        lambda f, budget: seen.append(budget) or "sat")
    default = DEFAULT_SAT_BUDGET
    assert main(["sat", cnf]) == 0
    assert main(["sat", "--max-set", "3000000", cnf]) == 0
    assert main(["sat", "--max-steps", "7", cnf]) == 0
    assert main(["sat", "--max-set", "5", "--max-steps", "9", cnf]) == 0
    capsys.readouterr()
    assert seen == [default,
                    Budget(3_000_000, None, default.max_steps),
                    Budget(default.max_set_size, None, 7),
                    Budget(5, None, 9)]


def test_sat_out_dir_and_json(files, tmp_path, capsys):
    cnf = files("one.cnf", "p cnf 1 1\n-1 1 -1 0\n")
    dest = tmp_path / "made" / "here"
    assert main(["sat", "--json", "--out-dir", str(dest), cnf]) == 0
    rec = json.loads(capsys.readouterr().out)
    assert rec["result"] == "sat"
    assert rec["stats"]["n"] == 1 and rec["stats"]["m"] == 1
    assert rec["stats"]["s_size"] == 3 * 1 + 1 + 1
    assert (dest / "one.s.term").exists()
    assert rec["t_file"] == str(dest / "one.t.term")


def test_bench_subcommand(files, capsys):
    assert main(["bench", "copyfree", "--ns", "2,4", "--repeats", "1"]) == 0
    out = capsys.readouterr().out
    assert "family: copyfree" in out
    assert out.count("seconds:") == 2
    # memo entries of each size's query, whatever the machine
    assert "n: 2  s_size: 2  t_size: 2  entries: 2  seconds:" in out
    assert "exponent:" in out

    assert main(["bench", "fan", "--ns", "3..6", "--repeats", "1",
                 "--json"]) == 0
    rec = json.loads(capsys.readouterr().out)
    assert [r["n"] for r in rec["rows"]] == [3, 4, 5, 6]
    assert [r["entries"] for r in rec["rows"]] == [18, 35, 61, 98]
    assert all(r["seconds"] > 0 for r in rec["rows"])
    assert isinstance(rec["exponent"], float)

    # double is no bench family
    with pytest.raises(SystemExit) as e:
        main(["bench", "double", "--ns", "1,2"])
    assert e.value.code == 3
    capsys.readouterr()

    # one size is no fit
    assert main(["bench", "fan", "--ns", "4", "--repeats", "1"]) == 0
    out = capsys.readouterr().out
    assert "family: fan" in out and "s_size: 5  t_size: 10" in out
    assert "exponent" not in out


def test_bench_usage_errors(files, capsys):
    with pytest.raises(SystemExit) as e:
        main(["bench", "nope", "--ns", "1"])
    assert e.value.code == 3
    capsys.readouterr()
    assert main(["bench", "copyfree", "--ns", "x..y"]) == 3
    assert "error:" in capsys.readouterr().err
    # no timing and no table where a flag leaves nothing to time
    for flags, message in (
            (["--ns", "2", "--repeats", "0"], "--repeats must be positive, got 0"),
            (["--ns", "2", "--repeats", "-1"], "--repeats must be positive, got -1"),
            (["--ns", "5..2"], "--ns '5..2' names no size"),
            (["--ns", ","], "--ns ',' names no size"),
            (["--ns", ""], "--ns '' names no size")):
        assert main(["bench", "copyfree", *flags]) == 3
        out = capsys.readouterr()
        assert out.out == "" and message in out.err


def test_usage_error_exit_code(capsys):
    with pytest.raises(SystemExit) as e:
        main(["member", "--engine", "warp", "a", "b", "c"])
    assert e.value.code == 3
    with pytest.raises(SystemExit) as e:
        main([])
    assert e.value.code == 3


def test_sat_mtt_dump(capsys):
    assert main(["sat-mtt"]) == 0
    text = capsys.readouterr().out
    assert parse_transducer(text) == build_sat_mtt()
