"""Transducer text format: round-trips, leniency, error positions."""

from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from mttkit.dsl import MAX_NESTING, format_transducer, parse_transducer
from mttkit.errors import ArityMismatch, MttError, ParseError
from mttkit.families import (copyfree_mtt, double_mtt, doubling_mtt,
                             equal_pair_tacmtt, reverse_pair_mrtt)
from mttkit.mtt import Call, Mtt, Out, Param, validate, walk_rhs
from mttkit.multi_return import MrMtt
from mttkit.sat import build_sat_mtt, parse_dimacs
from mttkit.tac import TacMtt, TacRule
from mttkit.trees import parse_term

from helpers import first_rule_twice


def equal_pair_eq_only_tacmtt():
    """equal_pair with a guard that has a constraint but no look-ahead
    states."""
    m = equal_pair_tacmtt()
    rule = replace(m.rules[("q0", "pi")][0], lookahead=None)
    return replace(m, rules={("q0", "pi"): (rule,)})


def equal_pair_leaf_tacmtt():
    """equal_pair plus a rule on the rank-0 symbol whose look-ahead is
    the empty list of child states."""
    m = equal_pair_tacmtt()
    rules = dict(m.rules)
    rules[("q0", "e")] = (TacRule(Out("e"), lookahead=()),)
    return replace(m, rules=rules)


FAMILIES = (double_mtt, doubling_mtt, copyfree_mtt, equal_pair_tacmtt,
            equal_pair_eq_only_tacmtt, equal_pair_leaf_tacmtt,
            reverse_pair_mrtt, build_sat_mtt)


@pytest.mark.parametrize("make", FAMILIES, ids=lambda f: f.__name__)
def test_round_trip(make):
    m = make()
    text = format_transducer(m)
    again = parse_transducer(text)
    assert again == m
    assert format_transducer(again) == text


def test_parse_returns_matching_model_kind():
    assert isinstance(parse_transducer(format_transducer(double_mtt())), Mtt)
    assert isinstance(
        parse_transducer(format_transducer(equal_pair_tacmtt())), TacMtt)
    assert isinstance(
        parse_transducer(format_transducer(reverse_pair_mrtt())), MrMtt)


DOC_EXAMPLE = """
mtt double {
  input { a: 1, e: 0 }
  output { f: 2, e: 0 }
  state q0: 0 init
  state q: 1

  rule q0(a(x1)) -> q[x1](e)
  rule q(a(x1))(y1) -> q[x1](f(y1, y1))
  rule q(e)(y1) -> f(y1, y1)
}
"""


def test_parse_shares_equal_terms_and_names():
    m = parse_transducer(DOC_EXAMPLE.replace("q0", "start"))
    (call,), (leaf,) = m.rules[("q", "a")], m.rules[("q", "e")]
    assert call.args[0] is leaf  # f(y1, y1) in two rules is one object
    assert leaf.args[0] is leaf.args[1]
    # every occurrence of a name is one string object
    names = [*m.states, *m.input_alphabet, *m.output_alphabet,
             *(part for key in m.rules for part in key),
             *(node.state if isinstance(node, Call) else node.sym
               for alts in m.rules.values() for rhs in alts
               for node in walk_rhs(rhs) if not isinstance(node, Param))]
    assert len({id(n) for n in names}) == len(set(names))
    # equal alphabets are one object, across files too; unequal ones,
    # or the same symbols in another order, are not
    again = parse_transducer(DOC_EXAMPLE.replace("mtt double", "mtt twice"))
    assert again.input_alphabet is m.input_alphabet
    assert again.output_alphabet is m.output_alphabet
    other = parse_transducer(DOC_EXAMPLE.replace("{ f: 2, e: 0 }", "{ e: 0, f: 2 }"))
    assert other.output_alphabet == m.output_alphabet
    assert other.output_alphabet is not m.output_alphabet


def test_parse_basic_example():
    m = parse_transducer(DOC_EXAMPLE)
    assert m.name == "double"
    assert m.states == {"q0": 0, "q": 1}
    assert m.initial == "q0"
    assert set(m.rules) == {("q0", "a"), ("q", "a"), ("q", "e")}
    assert validate(m).deterministic


def test_comments_and_layout_do_not_matter():
    squeezed = DOC_EXAMPLE.replace("\n  ", "\n").replace("(y1)", "( y1 )")
    commented = squeezed.replace("state q: 1", "state q: 1 # helper state")
    assert parse_transducer(commented) == parse_transducer(DOC_EXAMPLE)


def test_alternatives_accumulate_in_source_order():
    text = DOC_EXAMPLE.replace(
        "rule q(e)(y1) -> f(y1, y1)",
        "rule q(e)(y1) -> f(y1, y1)\n  rule q(e)(y1) -> e")
    m = parse_transducer(text)
    alts = m.rules[("q", "e")]
    assert len(alts) == 2
    assert alts[0].sym == "f" and alts[1].sym == "e"
    assert not validate(m).deterministic


def _expect_error(text: str, fragment: str, line: int | None = None):
    with pytest.raises(ParseError) as e:
        parse_transducer(text)
    assert fragment in str(e.value)
    if line is not None:
        assert e.value.line == line
    return e.value


def test_header_errors():
    _expect_error("widget w {}", "must start with", 1)
    _expect_error("mtt rule {}", "reserved word", 1)
    _expect_error("mtt m { input { a: 1 } input { a: 1 } }",
                  "duplicate input section")
    _expect_error("mtt m { input { } }", "empty input alphabet")
    _expect_error("mtt m { input { a: 1, a: 0 } }", "duplicate symbol")
    _expect_error("mtt m @", "unexpected character", 1)


def test_missing_section_errors():
    _expect_error("mtt m { output { e: 0 } state q0: 0 init }",
                  "missing input section")
    _expect_error("mtt m { input { e: 0 } state q0: 0 init }",
                  "missing output section")
    _expect_error("mtt m { input { e: 0 } output { e: 0 } state q0: 0 }",
                  "no state marked init")


def test_state_and_rule_errors():
    base = "mtt m {{ input {{ a: 1, e: 0 }} output {{ e: 0 }} {0} }}"
    _expect_error(base.format("state q0: 0 init state q0: 1"),
                  "duplicate state")
    _expect_error(base.format("state q0: 0 init state q1: 0 init"),
                  "more than one state marked init")
    _expect_error(base.format("state q0: 0 init rule q1(e) -> e"),
                  "undeclared state")
    _expect_error("mtt m { rule q0(e) -> e }",
                  "rules must follow alphabet and state sections")
    _expect_error(base.format("state q0: 0 init rule q0(zz) -> e"),
                  "not an input symbol")
    _expect_error(base.format("state q0: 0 init rule q0(a) -> e"),
                  "rank 1, pattern names 0")
    _expect_error(base.format("state q0: 0 init rule q0(a(x2)) -> e"),
                  "must be x1..x1 in order")
    _expect_error(base.format("state q0: 0 init rule q0(e)(y1) -> y1"),
                  "rank 0, rule lists 1 parameters")
    _expect_error(base.format("state q0: 1 init rule q0(e)(y2) -> e"),
                  "parameters must be y1..ym in order")


def test_error_positions_point_at_the_offender():
    err = _expect_error("mtt m {\n  input { a: 1, e: 0 }\n"
                        "  output { e: 0 }\n  state q0: 0 init\n"
                        "  rule q0(b(x1)) -> e\n}",
                        "not an input symbol", line=5)
    assert err.column == 11
    # nesting is bounded, and the error points at the first term too deep
    def deep(n):
        return ("mtt m { input { e: 0 } output { g: 1, e: 0 } state q0: 0 "
                "init\n  rule q0(e) -> " + "g(" * n + "e" + ")" * n + " }")

    parse_transducer(deep(MAX_NESTING - 1))
    err = _expect_error(deep(MAX_NESTING), "nests deeper than "
                        f"{MAX_NESTING} levels", line=2)
    assert err.column == len("  rule q0(e) -> ") + 2 * MAX_NESTING + 1


def test_trailing_junk_rejected():
    _expect_error(DOC_EXAMPLE + "mtt extra {}", "expected 'eof'")


def test_guard_errors():
    _expect_error(
        "mtt m { input { a: 1, e: 0 } output { e: 0 } state q0: 0 init\n"
        "  rule q0(a(x1)) when (p) -> e }",
        "when-guards need a tac block", line=2)
    _expect_error(
        "mtt m { input { pi: 2, e: 0 } output { e: 0 } state q0: 0 init\n"
        "  rule q0(pi(x1, x2)) when (p; eq 1 2) -> e\n"
        "  tac { trans e -> p trans pi(p, p) -> p } }",
        "lists 1 child states, need 2")
    _expect_error(
        "mtt m { input { e: 0 } output { e: 0 } state q0: 0 init\n"
        "  rule q0(e) when (; foo) -> e\n  tac { trans e -> p } }",
        "expected 'eq' or 'neq'")
    _expect_error(
        "mtt m { input { e: 0 } output { e: 0 } state q0: 0 init\n"
        "  rule q0(e) -> e\n  tac { trans e -> p }\n"
        "  tac { trans e -> p } }",
        "duplicate tac block", line=4)
    _expect_error(
        "mtt m { input { a: 1, e: 0 } output { e: 0 } state q0: 0 init\n"
        "  rule q0(e) -> e\n  tac { trans a -> p } }",
        "rank 1, transition lists 0")
    _expect_error(
        "mtt m { tac { trans e -> p } }",
        "tac block must follow the input section")


def test_validation_runs_on_load():
    bad_arity = DOC_EXAMPLE.replace("f(y1, y1)", "f(y1)")
    with pytest.raises(ArityMismatch):
        parse_transducer(bad_arity)


MR_EXAMPLE = """
mrtt rot {
  input { s: 1, z: 0 }
  output { a: 1, b: 0, pair: 2 }
  state q0: 0/1 init
  state q: 0/2

  rule q0(s(x1)) -> let (z1, z2) = q[x1] in (pair(z1, a(z2)))
  rule q0(z) -> pair(b, b)
  rule q(z) -> (b, b)
  rule q(s(x1)) -> let (z1, z2) = q[x1] in (a(z1), z2)
}
"""


def test_parse_mr_features():
    m = parse_transducer(MR_EXAMPLE)
    assert isinstance(m, MrMtt)
    assert m.ranks == {"q0": 0, "q": 0}
    assert m.dims == {"q0": 1, "q": 2}
    r = m.rules[("q0", "s")][0]
    assert r.lets[0].targets == (1, 2)
    assert len(r.result) == 1
    # single-target lets may omit the parens
    single = MR_EXAMPLE.replace("let (z1, z2) = q[x1] in (a(z1), z2)",
                                "let z1 = q0[x1] in (a(z1), b)")
    assert isinstance(parse_transducer(single), MrMtt)


def test_mr_errors():
    _expect_error(MR_EXAMPLE.replace("state q0: 0/1 init",
                                     "state q0: 0 init"),
                  "expected '/'")
    _expect_error(MR_EXAMPLE.replace("rule q0(z) -> pair(b, b)",
                                     "rule q0(z) when (p) -> pair(b, b)"),
                  "when-guards are not supported on mrtt")
    _expect_error(MR_EXAMPLE.replace("rule q0(z) -> pair(b, b)",
                                     "rule q0(z) -> q[x1]"),
                  "state calls may only appear in let-bindings")
    _expect_error(MR_EXAMPLE + "\ntac { trans z -> p }",
                  "expected 'eof'")
    unbound = MR_EXAMPLE.replace("rule q0(z) -> pair(b, b)",
                                 "rule q0(z) -> pair(z1, b)")
    with pytest.raises(ArityMismatch):
        parse_transducer(unbound)


_LIST_MTT = ("mtt m {\n  input { a: 2, e: 0 }\n  output { f: 2, e: 0 }\n"
             "  state q0: 0 init\n  state q: 2\n"
             "  rule q0(a(x1, x2)) -> q[x1](e, e)\n  rule q0(e) -> f(e, e)\n"
             "  rule q(e)(y1, y2) -> f(y1, y2)\n}\n")
# each comma list the format has: a text with `@@` where its items go
_COMMA_LISTS = {
    "alphabet": (_LIST_MTT.replace("a: 2, e: 0", "@@"), ["a: 2", "e: 0"]),
    "pattern": (_LIST_MTT.replace("a(x1, x2)", "a(@@)"), ["x1", "x2"]),
    "parameters": (_LIST_MTT.replace("(y1, y2) ->", "(@@) ->"), ["y1", "y2"]),
    "arguments": (_LIST_MTT.replace("-> f(e, e)", "-> f(@@)"), ["e", "e"]),
    "let targets": (MR_EXAMPLE.replace("let (z1, z2) = q[x1] in (a",
                                       "let (@@) = q[x1] in (a"), ["z1", "z2"]),
    "result": (MR_EXAMPLE.replace("q(z) -> (b, b)", "q(z) -> (@@)"), ["b", "b"]),
}


def _error_at(text: str, offset: int, fragment: str):
    err = _expect_error(text, fragment, line=text.count("\n", 0, offset) + 1)
    assert err.column == offset - text.rfind("\n", 0, offset)


@pytest.mark.parametrize("form", _COMMA_LISTS)
def test_comma_lists_reject_missing_and_trailing_commas(form):
    text, items = _COMMA_LISTS[form]
    at = text.index("@@")
    close = text[at + 2:].lstrip()[0]
    parse_transducer(text.replace("@@", ", ".join(items)))
    # the item after the missing comma, and the bracket after the
    # trailing one, are the offending tokens
    _error_at(text.replace("@@", " ".join(items)), at + len(items[0]) + 1,
              f"expected ',' or {close!r}, found {items[1].split(':')[0]!r}")
    trailing = text.replace("@@", ", ".join(items) + ",")
    _error_at(trailing, trailing.index(close, at), f"found {close!r}")


@pytest.mark.parametrize("br", ["\n", "\r", "\r\n", "\x85", "\u2028"],
                         ids=["LF", "CR", "CRLF", "NEL", "LS"])
def test_parsers_count_lines_as_splitlines_does(br):
    def position(parse, text):
        with pytest.raises(ParseError) as e:
            parse(text)
        return e.value.line, e.value.column

    assert position(parse_term, f"f(e,{br}g(e),{br}  $)") == (3, 3)
    assert position(parse_transducer,
                    f"mtt m {{{br}  input {{ e: 0 }}{br}  $ }}") == (3, 3)
    # a comment ends with its line
    assert position(parse_transducer, f"mtt m {{ # note{br}  $ }}") == (2, 3)
    assert position(parse_dimacs, f"c note{br}p cnf 3 1{br}1 2 x 0")[0] == 3


def test_mrtt_rejects_tac_block():
    text = MR_EXAMPLE.replace(
        "rule q0(z) -> pair(b, b)",
        "rule q0(z) -> pair(b, b)\n  tac { trans z -> p }")
    _expect_error(text, "mrtt files cannot declare a tac block")


def test_formatted_text_is_plain_ascii():
    for make in FAMILIES:
        text = format_transducer(make())
        assert text.isascii()
        assert text.endswith("}\n")


@pytest.mark.parametrize("text", [DOC_EXAMPLE, MR_EXAMPLE,
                                  format_transducer(equal_pair_tacmtt())],
                         ids=["mtt", "mrtt", "tac"])
def test_literal_duplicates_are_kept_once(text):
    once = parse_transducer(text)
    twice = parse_transducer(first_rule_twice(text))
    assert twice == once
    assert format_transducer(twice) == format_transducer(once)


_SAMPLES = ([format_transducer(make()) for make in FAMILIES]
            + [DOC_EXAMPLE, MR_EXAMPLE, "f(g(e), e)",
               "c comment\np cnf 3 2\n1 -2 3 0\n-1 2 3 0\n"])
_WORDS = sorted(set(" ".join(_SAMPLES).replace("(", " ( ").replace(")", " ) ")
                    .replace(",", " , ").split()))


@st.composite
def _spliced(draw):
    """A valid sample with a short stretch replaced by arbitrary text."""
    text = draw(st.sampled_from(_SAMPLES))
    i = draw(st.integers(0, len(text)))
    j = draw(st.integers(i, min(len(text), i + 12)))
    return text[:i] + draw(st.text(max_size=8)) + text[j:]


@pytest.mark.parametrize("parse", [parse_term, parse_transducer, parse_dimacs])
@given(text=st.one_of(
    st.text(max_size=80),
    st.lists(st.sampled_from(_WORDS), max_size=40).map(" ".join),
    _spliced()))
@settings(max_examples=300, deadline=None)
def test_parsers_raise_only_toolkit_errors(parse, text):
    try:
        parse(text)
    except MttError:
        pass
