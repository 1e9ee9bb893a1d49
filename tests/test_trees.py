"""Ranked alphabets, terms, the interned DAG, and enumeration."""

import gc
import random
import re

import pytest
from hypothesis import given, settings, strategies as st

from mttkit import (
    ArityMismatch,
    BottomAccess,
    ParseError,
    RankedAlphabet,
    RankViolation,
    Tree,
    UnknownSymbol,
    enumerate_trees,
    format_term,
    member_det,
    member_io,
    member_io_tac,
    parse_term,
    tree,
)
from mttkit.families import copyfree_instance, copyfree_mtt, equal_pair_tacmtt
from mttkit import io_membership, trees
from mttkit.trees import BOTTOM, build_dag, substitute, term_sort_key

from helpers import chain, count_trees, reference_parse

ABE = RankedAlphabet({"a": 2, "b": 1, "e": 0})


def _tree_strategy(alphabet):
    nullary = [n for n in alphabet if alphabet.rank(n) == 0]
    rest = [n for n in alphabet if alphabet.rank(n) > 0]
    leaves = st.sampled_from(nullary).map(Tree)

    def extend(kids):
        return st.sampled_from(rest).flatmap(
            lambda n: st.tuples(*[kids] * alphabet.rank(n)).map(
                lambda cs: Tree(n, cs)
            )
        )

    return st.recursive(leaves, extend, max_leaves=12)


def test_alphabet_rejects_bad_declarations():
    with pytest.raises(RankViolation):
        RankedAlphabet({"a": -1})
    with pytest.raises(UnknownSymbol):
        RankedAlphabet({"y1": 0})
    with pytest.raises(UnknownSymbol):
        RankedAlphabet({"x2": 1})
    with pytest.raises(UnknownSymbol):
        ABE.rank("nope")


def test_tree_size_and_equality():
    t = tree("a", tree("b", tree("e")), tree("e"))
    assert t.size == 4
    assert t == parse_term("a(b(e),e)")
    assert t != parse_term("a(e,b(e))")
    assert [n.label for n in t.subtrees()] == ["a", "b", "e", "e"]


def test_check_tree_catches_arity_and_symbol_errors():
    assert ABE.is_well_ranked(parse_term("a(e,e)"))
    assert not ABE.is_well_ranked(parse_term("a(e)"))
    assert not ABE.is_well_ranked(parse_term("z"))
    with pytest.raises(ArityMismatch):
        ABE.check_tree(parse_term("b(e,e)"))
    with pytest.raises(UnknownSymbol):
        ABE.check_tree(parse_term("q(e)"))


def test_parse_term_positions_and_alphabet():
    with pytest.raises(ParseError) as exc:
        parse_term("f(e", None)
    assert "column" in str(exc.value)
    with pytest.raises(ParseError):
        parse_term("f(e,e) extra")
    with pytest.raises(ParseError):
        parse_term("")
    # alphabet-checked parses report position of the offending symbol
    with pytest.raises(ParseError) as exc:
        parse_term("a(e,q)", ABE)
    assert "q" in str(exc.value)


@pytest.mark.parametrize("text, message, line, column", [
    # a bad character is reported before any syntax error
    ("f(,) $", "unexpected character '$'", 1, 6),
    ("f(1a)", "unexpected character '1'", 1, 3),
    ("f(e)\n  é", "unexpected character 'é'", 2, 3),
    ("f(e,\n ,e)", "expected a symbol name, got ','", 2, 2),
    ("f(e e)", "expected ',' or ')', got 'e'", 1, 5),
    ("f(e,g(e)", "unexpected end of input", 1, 9),
    ("f(e)\n)", "trailing input ')'", 2, 1),
], ids=["bad-char-first", "digit-starts-token", "non-ascii", "missing-name",
        "missing-separator", "unexpected-end", "trailing"])
def test_parse_term_error_positions(text, message, line, column):
    with pytest.raises(ParseError) as exc:
        parse_term(text)
    assert str(exc.value) == f"{message} (line {line}, column {column})"
    assert (exc.value.line, exc.value.column) == (line, column)


def test_parse_term_alphabet_errors_point_at_the_symbol():
    with pytest.raises(ParseError) as exc:
        parse_term("a(b(q),\nb(q))", ABE)  # the first q is checked
    assert (exc.value.line, exc.value.column) == (1, 5)
    with pytest.raises(ParseError, match="expects 2 children, got 1"):
        parse_term("b(a(e))", ABE)


def test_parse_term_skips_unicode_whitespace():
    assert parse_term("\u00a0a(\u2028e ,\u3000b(e))\u00a0") == parse_term("a(e,b(e))")


# whitespace that str.split and the regular expressions' \s both skip
_SPACES = ["", "", " ", "\t", "\n", "\x1c", "\x85", "\u2028", "\u00a0"]
# symbols of ranks 0-3, names with digits and underscores among them
_RANKS = {"e": 0, "c_1": 0, "b": 1, "g2": 1, "a": 2, "_f": 3}


def _random_tree(rng, depth):
    if depth == 0 or rng.random() < 0.3:
        return Tree(rng.choice(["e", "c_1"]))
    name = rng.choice(["b", "g2", "a", "_f"])
    return Tree(name, [_random_tree(rng, depth - 1) for _ in range(_RANKS[name])])


def _spaced_text(rng, t):
    """t in term syntax, with random whitespace between its tokens and
    some leaves written with empty parentheses."""
    tokens, work = [], [t]
    while work:
        item = work.pop()
        if isinstance(item, str):
            tokens.append(item)
            continue
        tokens.append(item.label)
        if item.children or rng.random() < 0.3:
            tokens.append("(")
            work.append(")")
            for j, c in enumerate(reversed(item.children)):
                work += [c] if j == 0 else [",", c]
    return "".join(rng.choice(_SPACES) + tok for tok in tokens) + rng.choice(_SPACES)


def test_parse_of_spaced_text_matches_the_walked_dag():
    rng = random.Random(17)
    alphabet = RankedAlphabet(_RANKS)
    for _ in range(400):
        t = _random_tree(rng, rng.randint(0, 5))
        text = _spaced_text(rng, t)
        for parsed in (parse_term(text), parse_term(text, alphabet)):
            assert (parsed.label, parsed.size) == (t.label, t.size), text
            # the same intern table as the text without whitespace or e()
            # leaves
            assert parsed._dag == parse_term(format_term(t))._dag, text
            _same_dag(build_dag(parsed)[0], build_dag(t)[0], t)


def test_bad_characters_are_reported_where_they_stand():
    rng = random.Random(23)
    for _ in range(400):
        text = _spaced_text(rng, _random_tree(rng, rng.randint(0, 4)))
        at = rng.randint(0, len(text))
        # a digit that continues a name is part of it, so a digit-led
        # name goes only where no name character precedes it
        bad = rng.choice(["$", "é", "-", "\x00", "·"] if at and (
            text[at - 1].isalnum() or text[at - 1] == "_") else ["$", "é", "7x", "0"])
        with pytest.raises(ParseError) as exc:
            parse_term(text[:at] + bad + text[at:])
        # lines end where str.splitlines ends them, as an editor shows them
        before = (text[:at] + bad).splitlines()
        line, column = len(before), len(before[-1]) - len(bad) + 1
        assert str(exc.value) == (f"unexpected character {bad[0]!r} "
                                  f"(line {line}, column {column})")


class _NoRegex:
    def __getattr__(self, name):
        raise AssertionError(f"a regular expression was used: {name}")


def test_valid_digit_free_text_is_parsed_without_regular_expressions(monkeypatch):
    rng = random.Random(29)
    texts = [_spaced_text(rng, _random_tree(rng, 4)).replace("c_1", "c")
             .replace("g2", "g") for _ in range(50)]
    texts += ["b(" * 300 + "e" + ")" * 300, " g(\n" * 300 + "e( )" + ") " * 300,
              "a(b(c()),_f(e(),g(c),e))"]
    alphabet = RankedAlphabet({"e": 0, "c": 0, "b": 1, "g": 1, "a": 2, "_f": 3})
    want = [parse_term(text)._dag for text in texts]
    patterns = [name for name, value in vars(trees).items()
                if isinstance(value, re.Pattern)]
    assert {"_BAD_CHAR_RE", "_TERM_TOKEN_RE", "NAME_RE"} <= set(patterns)
    for name in patterns:
        monkeypatch.setattr(trees, name, _NoRegex())
    for text, dag in zip(texts, want):
        assert parse_term(text)._dag == parse_term(text, alphabet)._dag == dag


def test_digits_that_continue_names_need_no_regular_expression(monkeypatch):
    # a digit after a letter, a digit or an underscore continues a name,
    # so valid ASCII text with such names is never searched
    rng = random.Random(31)
    texts = ["q0(x12)", " q0 (\tx12 ,\n y_3 ( z9 ) )\r\n",
             "f(g2(c_1()), a10(b0))", "x1", "x1(" * 200 + "y2" + ")" * 200]
    # names c_1 and g2, and ASCII whitespace in place of the rest
    texts += [_spaced_text(rng, _random_tree(rng, 4)).translate(
        {0x85: " ", 0x2028: "\n", 0xa0: "\t"}) for _ in range(50)]
    assert all(map(str.isascii, texts))
    assert sum("c_1" in t or "g2" in t for t in texts) > 30
    want = [parse_term(text)._dag for text in texts]
    for name, value in vars(trees).items():
        if isinstance(value, re.Pattern):
            monkeypatch.setattr(trees, name, _NoRegex())
    assert [parse_term(text)._dag for text in texts] == want


@pytest.mark.parametrize("text, bad, line, column", [
    ("q0(x12,\n 3y)", "3", 2, 2),
    ("q0(x1,9)", "9", 1, 7),
    ("7q(x1)", "7", 1, 1),
    ("q0(x1)\r\n\t0", "0", 2, 2),
    ("q0(x1,\x1c 5)", "5", 2, 2),
    ("q0(x1, 8 )", "8", 1, 8),
    ("f(a_1(b2),3)", "3", 1, 11),
    ("q0(x1$)", "$", 1, 6),
    ("q0(x12,\n y1\u00e9)", "\u00e9", 2, 4),
    ("q0(x1,\u2028 4)", "4", 2, 2),
])
def test_leading_digits_and_bad_characters_beside_digit_names(text, bad, line,
                                                               column):
    # the digit check that spares valid text the search still sends
    # these to it, which places them
    with pytest.raises(ParseError) as exc:
        parse_term(text)
    assert str(exc.value) == (f"unexpected character {bad!r} "
                              f"(line {line}, column {column})")


# what random texts are made of: names with digits and underscores,
# every punctuation token, whitespace str.split skips, a lone digit and a
# character no term holds
_WORDS = ["e", "c_1", "g2", "_f", "a", "b", "(", ")", ",", "()", " ", "\t",
          "\u2028", "\u00a0", "\x85", "7", "$"]


def _outcome(parse, text, alphabet):
    """What parse makes of text: the DAG's nodes, size and root label,
    or the error's message, line and column."""
    try:
        got = parse(text, alphabet)
    except ParseError as exc:
        return str(exc), exc.line, exc.column
    if isinstance(got, tuple):
        labels, kids, size = got
        return [(label, *ks) for label, ks in zip(labels, kids)], size, labels[-1]
    return list(got._dag), got.size, got.label


def _full_text(k: int, leaf: str = "e") -> str:
    """The full f-tree with 2^k leaves, as text."""
    text = leaf
    for _ in range(k):
        text = f"f({text},{text})"
    return text


def _large_shapes():
    """large-input's shapes and others the collapse of repeated subterms
    meets, each also with spaces and e() leaves, and cut short by one
    character."""
    k = 10 ** 4
    chain, short = ("a(" * n + "e" + ")" * n for n in (k, k - 3))
    rng = random.Random(37)
    pruned = [_pruned_text(12, [rng.randrange(2) for _ in range(11)]),
              _pruned_text(12, [0] * 11)]  # the pruned leaf comes first
    for text in (chain, f"pi({chain},{chain})", _full_text(12), *pruned,
                 f"pi({chain},{short})",
                 "a(" * (k // 2) + "b(" + "a(" * (k // 2 - 1) + "e" + ")" * k,
                 # a finished sibling, a chain that collapses at once, and
                 # a leaf with no number yet stand before a subterm
                 # repeated often enough to collapse
                 f"pi({'a(' * 100}e{')' * 100},pi(d,pi({_full_text(5)},{_full_text(5)})))"):
        spaced = (text.replace("e", "e( )").replace("(", "(\u3000")
                  .replace(",", " ,\n"))
        yield from (text, spaced, text[:-1], spaced[:-1])


def _pruned_text(k: int, path) -> str:
    """The full f-tree with 2^k leaves with one lowest f(e,e) replaced by
    e, as doubling's "no" candidates are: path picks, from the top, the
    side the pruned leaf lies on below each f but the lowest."""
    text = "e"
    for h, side in zip(range(1, k), reversed(path)):
        sib = _full_text(h)
        text = f"f({text},{sib})" if side == 0 else f"f({sib},{text})"
    return text


def _edited(rng, text):
    """text with one character dropped or one word put in."""
    at = rng.randint(0, len(text))
    if text and rng.random() < 0.5:
        return text[:at] + text[at + 1:]
    return text[:at] + rng.choice(_WORDS) + text[at:]


def test_parse_matches_the_token_by_token_reference():
    rng = random.Random(31)
    alphabet = RankedAlphabet(_RANKS)
    texts = ["".join(rng.choices(_WORDS, k=rng.randint(0, 12)))
             for _ in range(10_000)]
    texts += [_edited(rng, _spaced_text(rng, _random_tree(rng, rng.randint(0, 3))))
              for _ in range(10_000)]
    for text in texts:
        for given_alphabet in (None, alphabet):
            assert (_outcome(parse_term, text, given_alphabet)
                    == _outcome(reference_parse, text, given_alphabet)), text
    # a collapse that replaced more than whole subterms, or turned a
    # token into a label, would accept these or misnumber their DAG
    for text in ("f(a(e),ba(e))", "a(e)(e)", "a(e)b(e)", "b(e),b(e)", "b(b(e)))"):
        for given_alphabet in (None, alphabet):
            assert (_outcome(parse_term, text, given_alphabet)
                    == _outcome(reference_parse, text, given_alphabet)), text
    shapes_alphabet = RankedAlphabet({"a": 1, "b": 1, "e": 0, "c": 0, "d": 0,
                                      "pi": 2, "f": 2})
    for text in _large_shapes():
        for given_alphabet in (None, shapes_alphabet, alphabet):
            assert (_outcome(parse_term, text, given_alphabet)
                    == _outcome(reference_parse, text, given_alphabet)), text[:40]


def test_repeated_subterms_collapse_before_the_scan(monkeypatch):
    # each of these texts collapses to one token, so the per-piece scan
    # never runs: a full tree costs its levels, not its leaves
    def scan(*args):
        raise AssertionError("the scan ran")

    monkeypatch.setattr(trees, "_scan", scan)
    twins = []
    full = Tree("e")
    for k in range(1, 19):
        full = Tree("f", (full, full))
        twins.append((_full_text(k), full))
    n = 10 ** 4
    twins.append((f"pi({'a(' * n}e{')' * n},{'a(' * n}e{')' * n})",
                  Tree("pi", (chain(n), chain(n)))))
    twins.append(("a(" * 10 ** 5 + "e" + ")" * 10 ** 5, chain(10 ** 5)))
    for text, twin in twins:
        parsed = parse_term(text)
        dag = build_dag(twin)[0]
        assert list(parsed._dag) == dag.nodes, text[:40]
        assert parsed.size == twin.size
        assert hash(parsed) == hash(twin)


def _distinct_nodes(t):
    seen, stack = set(), [t]
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            stack.extend(node.children)
    return len(seen)


def test_parse_shares_equal_subtrees():
    for t in enumerate_trees(ABE, max_size=7):
        parsed = parse_term(format_term(t))
        assert parsed == t
        assert _distinct_nodes(parsed) == build_dag(t)[0].node_count()
    # the full binary tree with 2^15 leaves: 16 distinct subtrees
    full = Tree("e")
    for _ in range(15):
        full = Tree("f", (full, full))
    parsed = parse_term(format_term(full))
    assert _distinct_nodes(parsed) == 16
    assert parsed.size == full.size == 2 ** 16 - 1


def test_shared_trees_are_walked_once():
    # 2^40 paths through 40 distinct nodes: equality and the alphabet
    # check must cost the distinct nodes (or pairs), not the paths
    def full(depth):
        t = Tree("e")
        for _ in range(depth - 1):
            t = Tree("f", (t, t))
        return t

    def bottom_right(depth, leaf):
        """full(depth) with its rightmost leaf renamed."""
        t = Tree(leaf)
        for h in range(1, depth):
            t = Tree("f", (full(h), t))
        return t

    fe = RankedAlphabet({"f": 2, "e": 0})
    assert full(40) == full(40)
    assert full(40) != bottom_right(40, "c")
    assert bottom_right(40, "e") == full(40)
    assert fe.is_well_ranked(full(40))
    assert not fe.is_well_ranked(bottom_right(40, "c"))
    with pytest.raises(UnknownSymbol, match="'c'"):
        fe.check_tree(bottom_right(40, "c"))


def test_parse_format_round_trip_examples():
    for text in ("e", "b(e)", "a(b(e),a(e,e))"):
        assert format_term(parse_term(text)) == text
    assert parse_term(" a( e , e ) ") == parse_term("a(e,e)")


@given(_tree_strategy(ABE))
@settings(max_examples=200, deadline=None)
def test_parse_format_round_trip_property(t):
    assert parse_term(format_term(t)) == t


def test_substitute_replaces_leaves():
    t = parse_term("f(y1,g(y2))", None)
    out = substitute(t, {"y1": parse_term("e"), "y2": parse_term("c")})
    assert out == parse_term("f(e,g(c))", None)
    # untouched names stay
    assert substitute(t, {"y1": parse_term("e")}) == parse_term("f(e,g(y2))", None)


def test_dag_shares_equal_subtrees():
    t = parse_term("f(g(e),g(e))", None)
    dag, root = build_dag(t)
    assert dag.node_count() == 3
    assert t.size == 5
    assert dag.nodes[root] == ("f", dag.nodes[root][1], dag.nodes[root][1])
    assert dag.expand(root) == t


def _ref(dag, t):
    """t's node in dag, found by intern lookups, or BOTTOM if t is no
    subtree of dag's tree."""
    refs = tuple(_ref(dag, c) for c in t.children)
    return BOTTOM if BOTTOM in refs else dag.intern.get((t.label, *refs), BOTTOM)


def test_dag_intern_is_injective_on_trees():
    dag, _ = build_dag(parse_term("f(g(e),g(e))", None))
    r1 = _ref(dag, parse_term("g(e)", None))
    r2 = _ref(dag, parse_term("g(e)", None))
    r3 = _ref(dag, parse_term("e"))
    assert r1 == r2
    assert r1 != r3
    assert dag.expand(r1) == parse_term("g(e)", None)


def test_dag_lookup_misses_give_bottom():
    dag, _ = build_dag(parse_term("f(g(e),g(e))", None))
    e_ref = dag.intern[("e",)]
    assert dag.intern.get(("g", e_ref), BOTTOM) >= 0
    assert dag.intern.get(("f", e_ref, e_ref), BOTTOM) == BOTTOM
    assert dag.intern.get(("zzz",), BOTTOM) == BOTTOM
    assert _ref(dag, parse_term("f(e,e)", None)) == BOTTOM
    # looking under bottom is a bug, not a miss
    with pytest.raises(BottomAccess):
        dag.expand(BOTTOM)
    with pytest.raises(BottomAccess):
        dag.expand(dag.node_count())


def test_dag_nodes_by_label():
    dag, root = build_dag(parse_term("f(g(e),g(e))", None))
    by = dag.by_label
    assert set(by) == {"e", "f", "g"}
    assert by["f"] == [root]
    assert len(by["g"]) == 1
    # the index grows as nodes are interned, each node under its label once
    dag2, root2 = build_dag(parse_term("f(g(e),f(e,g(g(e))))", None))
    assert sorted(v for vs in dag2.by_label.values() for v in vs) \
        == list(range(dag2.node_count()))
    assert all(dag2.labels[v] == label
               for label, vs in dag2.by_label.items() for v in vs)
    assert dag2.by_label["f"] == sorted(dag2.by_label["f"])
    assert dag2.by_label["f"][-1] == root2


@given(_tree_strategy(ABE))
@settings(max_examples=200, deadline=None)
def test_dag_expand_inverts_intern(t):
    dag, root = build_dag(t)
    assert dag.expand(root) == t
    text = format_term(t)
    assert [dag.format_prefix(root, k) for k in (1, 5, 61)] == [text[:1], text[:5], text[:61]]
    assert dag.node_count() <= t.size
    assert _ref(dag, t) == root
    assert dag.tree_size() == t.size
    for u in t.subtrees():
        _same_dag(dag.below(_ref(dag, u)), build_dag(u)[0], u)


def _same_dag(handed, walked, t):
    """handed and walked are minimal DAGs of t: they count the same nodes,
    both expand to t, and one renaming of references carries handed's
    nodes, intern and by_label entries onto walked's."""
    assert handed.node_count() == walked.node_count()
    assert handed.expand(handed.root) == t
    assert walked.expand(walked.root) == t
    to = []  # handed ref -> walked ref; children come first in both
    for label, *kids in handed.nodes:
        to.append(walked.intern[(label, *[to[k] for k in kids])])
    assert sorted(to) == list(range(walked.node_count()))
    assert to[handed.root] == walked.root
    assert {(label, *[to[k] for k in kids]): to[ref]
            for (label, *kids), ref in handed.intern.items()} == walked.intern
    assert {label: sorted(to[v] for v in vs)
            for label, vs in handed.by_label.items()} == walked.by_label
    for dag in (handed, walked):
        assert dag.nodes == list(dag.intern)
        assert dag.labels == [node[0] for node in dag.nodes]
        assert all(vs == sorted(vs) for vs in dag.by_label.values())


def _full(depth):
    t = Tree("e")
    for _ in range(depth - 1):
        t = Tree("a", (t, t))
    return t


def test_parsed_dag_matches_walked_dag():
    chain = Tree("e")
    for k in range(3000):
        chain = Tree("b", (chain,)) if k % 3 else Tree("a", (Tree("e"), chain))
    comb = Tree("e")  # each level hangs a full tree beside the spine
    for depth in range(1, 12):
        comb = Tree("a", (_full(depth), comb))
    for t in [*enumerate_trees(ABE, max_size=7), chain, _full(16), comb]:
        _same_dag(build_dag(parse_term(format_term(t)))[0], build_dag(t)[0], t)


def test_parse_hands_its_dag_to_the_first_build_only():
    # the parse numbers in left-to-right post-order, and so does a walk
    t = parse_term("f(a,b)", None)
    dag, root = build_dag(t)
    assert (dag.nodes, root) == ([("a",), ("b",), ("f", 0, 1)], 2)
    assert dag.intern == {("a",): 0, ("b",): 1, ("f", 0, 1): 2}
    assert dag.labels == ["a", "b", "f"]
    assert dag.by_label == {"a": [0], "b": [1], "f": [2]}
    again, again_root = build_dag(t)
    assert again is not dag and again.intern is not dag.intern
    _same_dag(dag, again, t)
    shared = parse_term("f(g(e),g(e))", None)
    first, second = build_dag(shared)[0], build_dag(shared)[0]
    assert first.intern is not second.intern
    _same_dag(first, second, shared)


def test_the_first_build_takes_the_parse_intern_table_itself():
    for text in ["e", "f(a,b)", "f(g(e),g(e))", _full_text(6),
                 "a(" * 500 + "e" + ")" * 500]:
        t = parse_term(text)
        table = t._dag
        dag, root = build_dag(t)
        assert dag.intern is table, text[:40]
        assert dag.nodes == list(dag.intern)
        assert root == len(dag.nodes) - 1
        walked = build_dag(t)[0]
        assert walked.intern is not table
        assert walked.nodes == list(walked.intern) == dag.nodes


@given(_tree_strategy(ABE))
@settings(max_examples=200, deadline=None)
def test_parsed_and_walked_dags_have_equal_nodes(t):
    walked = build_dag(t)[0]
    assert build_dag(parse_term(format_term(t)))[0].nodes == walked.nodes
    assert walked.nodes == list(walked.intern)


def test_parsed_and_walked_dags_of_large_shapes_have_equal_nodes():
    shapes = 0
    for text in _large_shapes():
        try:
            t = parse_term(text)
        except ParseError:
            continue
        handed = build_dag(t)[0]
        # the second build walks the root's children, built from the DAG
        assert build_dag(t)[0].nodes == handed.nodes, text[:40]
        shapes += 1
    assert shapes == 16


def test_a_one_reference_query_on_parsed_text_builds_no_label_index_or_kids_list(
        monkeypatch):
    # copyfree binds one reference per parameter, so no output node is
    # looked up over a set: neither DAG needs its label index, and no
    # list of each node's children is kept beside its key
    def no_index(labels):
        raise AssertionError("a label index was built")

    monkeypatch.setattr(trees, "_label_index", no_index)
    demand, kid_lists = io_membership.demand, []

    def watched(s_dag, t_dag, *args):
        for dag in (s_dag, t_dag):
            kids = [node[1:] for node in dag.nodes]
            kid_lists.extend(o for o in gc.get_objects()
                             if type(o) is list and o is not kids and o == kids)
        return demand(s_dag, t_dag, *args)

    monkeypatch.setattr(io_membership, "demand", watched)
    s, t = copyfree_instance(300)
    s_text, t_text = format_term(s), format_term(t)
    assert member_io(copyfree_mtt(), parse_term(s_text), parse_term(t_text))
    assert not member_io(copyfree_mtt(), parse_term(s_text),
                         parse_term(f"f({t_text})"))
    assert kid_lists == []


def _holding_a_dag():
    """id -> tree for every live tree that carries a parsed DAG; holding
    them keeps their ids from being reused."""
    return {id(o): o for o in gc.get_objects()
            if isinstance(o, Tree) and getattr(o, "_dag", None) is not None}


def test_failed_parse_attaches_nothing():
    before = _holding_a_dag()
    # the last two fail after the whole DAG is built; while the error
    # lives, its traceback keeps the parse's intern table alive
    for text, alphabet in [("a(e,q)", ABE), ("f(e", None),
                           ("f(a,b) extra", None), ("f(a,b))", None)]:
        with pytest.raises(ParseError) as exc:
            parse_term(text, alphabet)
        assert _holding_a_dag().keys() <= before.keys(), exc.value
    kept = parse_term("f(a,b)", None)
    assert _holding_a_dag().keys() - before.keys() == {id(kept)}
    build_dag(kept)
    assert _holding_a_dag().keys() <= before.keys()


# each way to read a parsed root that builds its children
_FIRST_READS = {
    "children": lambda t: t.children,
    "hash": hash,
    "==": lambda t: t == Tree("e"),
    "format_term": format_term,
    "subtrees": lambda t: list(t.subtrees()),
}


def test_parsed_root_builds_its_children_on_first_read(monkeypatch):
    deep = chain(10 ** 5, "b")
    twins = [*enumerate_trees(ABE, max_size=7), _full(16), deep]
    cases = [(t, format_term(t), build_dag(t)[0]) for t in twins]
    built = count_trees(monkeypatch)
    for k, (name, read) in enumerate(_FIRST_READS.items()):
        for handed in (False, True):
            # the chain, slow to build, is read before the hand-off or
            # after it, in turn
            for twin, text, walked in cases[:-1] if handed == k % 2 else cases:
                parsed = parse_term(text)
                built[0] = 0
                assert (parsed.label, parsed.size) == (twin.label, twin.size)
                if handed:
                    build_dag(parsed)
                assert built[0] == 0, name
                read(parsed)
                assert parsed == twin and hash(parsed) == hash(twin), name
                assert _distinct_nodes(parsed) == walked.node_count()
                if not handed:  # the intern table is still handed over
                    handed_dag = build_dag(parsed)[0]
                    assert parsed._dag is None
                    if twin is not deep:
                        _same_dag(handed_dag, walked, twin)


def test_verdicts_on_parsed_text_build_no_input_or_candidate_tree(monkeypatch):
    s, t = copyfree_instance(300)
    s_text, t_text = format_term(s), format_term(t)
    arm = format_term(chain(300))
    cf, eq = copyfree_mtt(), equal_pair_tacmtt()
    built = count_trees(monkeypatch)
    assert member_io(cf, parse_term(s_text), parse_term(t_text))
    assert not member_io(cf, parse_term(s_text), parse_term(f"f({t_text})"))
    assert member_io_tac(eq, parse_term(f"pi({arm},{arm})"), parse_term("e"))
    assert not member_io_tac(eq, parse_term(f"pi({arm},a({arm}))"), parse_term("e"))
    assert built[0] == 0
    # a one-stage member_det has no stage output to build: its one stage
    # is decided by the core, as member_io is
    assert member_det([cf], "io", parse_term(s_text), parse_term(t_text))
    from_text, built[0] = built[0], 0
    assert member_det([cf], "io", s, t)
    assert from_text == built[0] == 0


def test_member_io_on_deep_parsed_text():
    n = 10 ** 5
    s, t = copyfree_instance(n)
    off = Tree("g", (Tree("e"),))  # t with the f halfway up changed to g
    for k in range(n - 2):
        off = Tree("g" if k == n // 2 else "f", (off,))
    s_text, t_text, off_text = map(format_term, (s, t, off))
    assert member_io(copyfree_mtt(), parse_term(s_text), parse_term(t_text))
    assert not member_io(copyfree_mtt(), parse_term(s_text), parse_term(off_text))


def test_enumerate_trees_by_size_counts():
    counts = [len(enumerate_trees(ABE, max_size=n)) for n in range(1, 7)]
    assert counts == [1, 2, 4, 8, 17, 38]
    out = enumerate_trees(ABE, max_size=4)
    assert len(set(out)) == len(out)
    assert all(t.size <= 4 for t in out)
    # deterministic order across calls
    assert out == enumerate_trees(ABE, max_size=4)


def test_term_sort_key_orders_by_size_then_text():
    ts = [parse_term(x, None) for x in ("g(e)", "e", "f(e,e)", "c")]
    ordered = sorted(ts, key=term_sort_key)
    assert [format_term(t) for t in ordered] == ["c", "e", "g(e)", "f(e,e)"]
