"""Text format for transducers.

    mtt double {
      input { a: 1, e: 0 }
      output { f: 2, e: 0 }
      state q0: 0 init
      state q: 1

      rule q0(a(x1)) -> q[x1](e)
      rule q(a(x1))(y1) -> q[x1](f(y1, y1))
      rule q(e)(y1) -> f(y1, y1)
    }

Patterns name input children x1..xk in order, parameters y1..ym in
order.  State calls in right-hand sides select the child in brackets:
q[x1](args).  Look-ahead-guarded rules add `when (s1, s2; eq 1 2)`
between the parameter list and the arrow, with the automaton declared in
a `tac { trans sym(s1, s2; eq 1 2) -> s ... }` block.  Multi-return
transducers start with `mrtt`, declare `state q: rank/dim`, and write
right-hand sides as let-bindings over z-variables ending in a result
tuple: `let (z1, z2) = q[x1](e) in (z2, a(z1))`.  `#` starts a comment
that runs to the end of its line.

Every bracketed list is comma-separated with no trailing comma:
alphabets, pattern children, parameters, arguments, let targets and
result tuples.  An error names its line and column, with lines ending
where str.splitlines ends them (ParseError.at), as in parse_term and
parse_dimacs.

The parser resolves names and shapes; the model it builds checks
itself, so rank and range violations raise on load as well.  A rule
written twice is one alternative: the models drop structural duplicates
when built, and format_transducer prints each alternative once.  Terms
may nest at most MAX_NESTING levels deep.  Names are interned, equal
terms of one file come back as one object, and equal alphabets, of one
file or of many, as one object.
"""

from __future__ import annotations

import re
import sys
from weakref import WeakValueDictionary

from .errors import ParseError
from .mtt import MAX_NESTING, Call, Mtt, Out, Param
from .multi_return import MrLet, MrMtt, MrRhs, ZVar
from .tac import Tac, TacMtt, TacRule, TacTransition
from .trees import RankedAlphabet

KEYWORDS = frozenset(
    "mtt mrtt input output state rule init when eq neq tac trans let in".split())

_TOKEN_RE = re.compile(
    r"(?P<ws>\s+)"
    # a comment ends where str.splitlines ends a line
    r"|(?P<comment>#[^\n\r\v\f\x1c-\x1e\x85\u2028\u2029]*)"
    r"|(?P<name>[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<int>[0-9]+)"
    r"|(?P<arrow>->)"
    r"|(?P<punct>[{}()\[\],:;/=])"
    r"|(?P<bad>.)", re.S)

_XVAR_RE = re.compile(r"x([1-9][0-9]*)\Z")
_YVAR_RE = re.compile(r"y([1-9][0-9]*)\Z")
_ZVAR_RE = re.compile(r"z([1-9][0-9]*)\Z")


class _Tok:
    __slots__ = ("kind", "text", "at")

    def __init__(self, kind, text, at):
        self.kind = kind
        self.text = text
        self.at = at  # offset in the parsed text


def _tokenize(text: str) -> list[_Tok]:
    toks = []
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup
        chunk = m.group()
        if kind == "name":
            toks.append(_Tok(kind, sys.intern(chunk), m.start()))
        elif kind == "bad":
            raise ParseError.at(f"unexpected character {chunk!r}", text, m.start())
        elif kind not in ("ws", "comment"):
            toks.append(_Tok(kind if kind == "int" else chunk, chunk, m.start()))
    toks.append(_Tok("eof", "", len(text)))
    return toks


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.toks = _tokenize(text)
        self.pos = 0
        # (class, fields with child terms by id) -> the one such term
        self.terms: dict[tuple, object] = {}

    def term(self, cls, *fields):
        """The parse's one term cls(*fields); a tuple field holds child
        terms that are already shared, so their ids identify them."""
        key = (cls, *(tuple(map(id, f)) if type(f) is tuple else f
                      for f in fields))
        got = self.terms.get(key)
        if got is None:
            got = self.terms[key] = cls(*fields)
        return got

    def peek(self) -> _Tok:
        return self.toks[self.pos]

    def next(self) -> _Tok:
        t = self.toks[self.pos]
        self.pos += 1
        return t

    def at(self, kind: str) -> bool:
        return self.toks[self.pos].kind == kind

    def at_word(self, word: str) -> bool:
        t = self.toks[self.pos]
        return t.kind == "name" and t.text == word

    def error(self, msg: str, tok: _Tok | None = None):
        raise ParseError.at(msg, self.text, (tok or self.peek()).at)

    def more(self, close: str, n: int) -> bool:
        """The loop condition of a comma list with n items read: False
        at the closing bracket, which it takes; else True, after taking
        the ',' that every item but the first follows."""
        if self.at(close):
            self.pos += 1
            return False
        if n:
            t = self.next()
            if t.kind != ",":
                self.error(f"expected ',' or {close!r}, found {t.text!r}", t)
        return True

    def expect(self, kind: str) -> _Tok:
        if not self.at(kind):
            self.error(f"expected {kind!r}, found {self.peek().text!r}")
        return self.next()

    def expect_word(self, word: str) -> _Tok:
        if not self.at_word(word):
            self.error(f"expected {word!r}, found {self.peek().text!r}")
        return self.next()

    def name(self, what: str) -> str:
        t = self.peek()
        if t.kind != "name":
            self.error(f"expected {what}, found {t.text!r}")
        if t.text in KEYWORDS:
            self.error(f"{t.text!r} is a reserved word, cannot be a {what}")
        return self.next().text

    def integer(self, what: str) -> int:
        t = self.peek()
        if t.kind != "int":
            self.error(f"expected {what}, found {t.text!r}")
        return int(self.next().text)

    # indexed variable like x3 / y2 / z1
    def ivar(self, regex, letter: str) -> int:
        t = self.peek()
        m = regex.match(t.text) if t.kind == "name" else None
        if m is None:
            self.error(f"expected a {letter}-variable, found {t.text!r}")
        self.next()
        return int(m.group(1))


# alphabets are read-only, so equal declarations, in one file or in
# many, parse to one object, kept while some transducer holds it
_ALPHABETS: WeakValueDictionary = WeakValueDictionary()


def _parse_alphabet(p: _Parser, what: str) -> RankedAlphabet:
    p.expect("{")
    symbols: dict[str, int] = {}
    while p.more("}", len(symbols)):
        tok = p.peek()
        sym = p.name(f"{what} symbol")
        if sym in symbols:
            p.error(f"duplicate symbol {sym!r}", tok)
        p.expect(":")
        symbols[sym] = p.integer("rank")
    if not symbols:
        p.error(f"empty {what} alphabet")
    key = tuple(symbols.items())
    got = _ALPHABETS.get(key)
    if got is None:
        got = _ALPHABETS[key] = RankedAlphabet(symbols)
    return got


def _parse_guard_body(p: _Parser, k: int, what: str):
    """states? (';' (eq|neq) i j)* inside parens; k = expected arity."""
    states: list[str] = []
    eq: list[tuple[int, int]] = []
    neq: list[tuple[int, int]] = []
    if p.at("name") and not (p.at_word("eq") or p.at_word("neq")):
        states.append(p.name(f"{what} state"))
        while p.at(","):
            p.next()
            states.append(p.name(f"{what} state"))
        if len(states) != k:
            p.error(f"{what} lists {len(states)} child states, need {k}")
    while p.at(";"):
        p.next()
        if p.at_word("eq"):
            p.next()
            eq.append((p.integer("child index"), p.integer("child index")))
        elif p.at_word("neq"):
            p.next()
            neq.append((p.integer("child index"), p.integer("child index")))
        else:
            p.error("expected 'eq' or 'neq' after ';'")
    # a rank-0 symbol's child states are the empty list; elsewhere an
    # empty list leaves the look-ahead open
    la = tuple(states) if states or k == 0 else None
    return la, tuple(eq), tuple(neq)


def _parse_pattern(p: _Parser, input_alphabet: RankedAlphabet):
    """sym or sym(x1, .., xk); children must be x1..xk in order."""
    tok = p.peek()
    sym = p.name("input symbol")
    if sym not in input_alphabet:
        p.error(f"{sym!r} is not an input symbol", tok)
    k = input_alphabet.rank(sym)
    seen = _parse_vars(p, _XVAR_RE, "x",
                       f"pattern children must be x1..x{k} in order")
    if seen != k:
        p.error(f"{sym!r} has rank {k}, pattern names {seen} children", tok)
    return sym, k


def _parse_vars(p: _Parser, regex, letter: str, disorder: str) -> int:
    """Optional (v1, .., vn) for the letter v; returns n."""
    n = 0
    if p.at("("):
        p.next()
        while p.more(")", n):
            tok = p.peek()
            n += 1
            if p.ivar(regex, letter) != n:
                p.error(disorder, tok)
    return n


def _parse_term(p: _Parser, *, calls: bool, zvars: bool, depth: int = 1):
    t = p.peek()
    if depth > MAX_NESTING:
        p.error(f"term nests deeper than {MAX_NESTING} levels")
    if t.kind == "name" and _YVAR_RE.match(t.text):
        p.next()
        return p.term(Param, int(t.text[1:]))
    if zvars and t.kind == "name" and _ZVAR_RE.match(t.text):
        p.next()
        return p.term(ZVar, int(t.text[1:]))
    sym = p.name("term")
    if p.at("["):
        if not calls:
            p.error("state calls may only appear in let-bindings here", t)
        p.next()
        child = p.ivar(_XVAR_RE, "x")
        p.expect("]")
        args = _parse_args(p, calls=calls, zvars=zvars, depth=depth)
        return p.term(Call, sym, child, args)
    args = _parse_args(p, calls=calls, zvars=zvars, depth=depth)
    return p.term(Out, sym, args)


def _parse_args(p: _Parser, *, calls: bool, zvars: bool,
                depth: int = 0) -> tuple:
    if not p.at("("):
        return ()
    p.next()
    args = []
    while p.more(")", len(args)):
        args.append(_parse_term(p, calls=calls, zvars=zvars, depth=depth + 1))
    return tuple(args)


def _parse_mr_body(p: _Parser) -> MrRhs:
    lets = []
    while p.at_word("let"):
        p.next()
        targets = []
        if p.at("("):
            p.next()
            while p.more(")", len(targets)):
                targets.append(p.ivar(_ZVAR_RE, "z"))
        else:
            targets.append(p.ivar(_ZVAR_RE, "z"))
        p.expect("=")
        state = p.name("state")
        p.expect("[")
        child = p.ivar(_XVAR_RE, "x")
        p.expect("]")
        args = _parse_args(p, calls=False, zvars=True)
        p.expect_word("in")
        lets.append(MrLet(tuple(targets), state, child, args))
    if p.at("("):
        p.next()
        result = []
        while p.more(")", len(result)):
            result.append(_parse_term(p, calls=False, zvars=True))
    else:
        result = [_parse_term(p, calls=False, zvars=True)]
    return MrRhs(tuple(lets), tuple(result))


def parse_transducer(text: str):
    """Parse one transducer block; returns Mtt, TacMtt, or MrMtt.

    The model checks itself when built, so rank and range violations
    raise even though the grammar itself does not track them.
    """
    p = _Parser(text)
    if p.at_word("mtt"):
        kind = "mtt"
    elif p.at_word("mrtt"):
        kind = "mrtt"
    else:
        p.error("file must start with 'mtt' or 'mrtt'")
    p.next()
    name = p.name("transducer name")
    p.expect("{")

    alphabets: dict[str, RankedAlphabet] = {}  # section word -> alphabet
    states: dict[str, int] = {}
    dims: dict[str, int] = {}
    initial = None
    rules: dict = {}
    guarded: dict = {}
    any_when = False
    first_when: _Tok | None = None
    tac_transitions = None

    while not p.at("}"):
        if p.at_word("input") or p.at_word("output"):
            tok = p.next()
            if tok.text in alphabets:
                p.error(f"duplicate {tok.text} section", tok)
            alphabets[tok.text] = _parse_alphabet(p, tok.text)
        elif p.at_word("state"):
            p.next()
            tok = p.peek()
            q = p.name("state name")
            if q in states:
                p.error(f"duplicate state {q!r}", tok)
            p.expect(":")
            states[q] = p.integer("rank")
            if kind == "mrtt":
                p.expect("/")
                dims[q] = p.integer("dimension")
            if p.at_word("init"):
                tok = p.next()
                if initial is not None:
                    p.error("more than one state marked init", tok)
                initial = q
        elif p.at_word("rule"):
            tok = p.next()
            if len(alphabets) < 2 or not states:
                p.error("rules must follow alphabet and state sections", tok)
            q = p.name("state")
            if q not in states:
                p.error(f"rule for undeclared state {q!r}", tok)
            p.expect("(")
            sym, k = _parse_pattern(p, alphabets["input"])
            p.expect(")")
            m_params = _parse_vars(p, _YVAR_RE, "y",
                                   "parameters must be y1..ym in order")
            if m_params != states[q]:
                p.error(f"state {q!r} has rank {states[q]}, "
                        f"rule lists {m_params} parameters", tok)
            la, eq, neq = None, (), ()
            if p.at_word("when"):
                wtok = p.next()
                if kind == "mrtt":
                    p.error("when-guards are not supported on mrtt rules", wtok)
                any_when = True
                first_when = first_when or wtok
                p.expect("(")
                la, eq, neq = _parse_guard_body(p, k, "when-guard")
                p.expect(")")
            p.expect("->")
            if kind == "mrtt":
                rhs = _parse_mr_body(p)
                rules.setdefault((q, sym), []).append(rhs)
            else:
                rhs = _parse_term(p, calls=True, zvars=False)
                rules.setdefault((q, sym), []).append(rhs)
                guarded.setdefault((q, sym), []).append(
                    TacRule(rhs, lookahead=la, eq=eq, neq=neq))
        elif p.at_word("tac"):
            tok = p.next()
            if kind == "mrtt":
                p.error("mrtt files cannot declare a tac block", tok)
            if tac_transitions is not None:
                p.error("duplicate tac block", tok)
            if "input" not in alphabets:
                p.error("tac block must follow the input section", tok)
            p.expect("{")
            tac_transitions = []
            while not p.at("}"):
                p.expect_word("trans")
                stok = p.peek()
                sym = p.name("input symbol")
                if sym not in alphabets["input"]:
                    p.error(f"{sym!r} is not an input symbol", stok)
                k = alphabets["input"].rank(sym)
                la, eq, neq = (), (), ()
                if p.at("("):
                    p.next()
                    la, eq, neq = _parse_guard_body(p, k, "transition")
                    p.expect(")")
                    la = la or ()
                if len(la) != k:
                    p.error(f"{sym!r} has rank {k}, transition lists "
                            f"{len(la)} child states", stok)
                p.expect("->")
                target = p.name("look-ahead state")
                tac_transitions.append(
                    TacTransition(sym, la, eq=eq, neq=neq, target=target))
            p.expect("}")
        else:
            p.error(f"unexpected {p.peek().text!r} in transducer body")
    p.expect("}")
    p.expect("eof")

    for section in ("input", "output"):
        if section not in alphabets:
            raise ParseError.at(f"missing {section} section", text, 0)
    if initial is None:
        raise ParseError.at("no state marked init", text, 0)
    if any_when and tac_transitions is None:
        p.error("when-guards need a tac block declaring the automaton",
                first_when)

    input_alphabet, output_alphabet = alphabets["input"], alphabets["output"]
    if kind == "mrtt":
        return MrMtt(name=name, input_alphabet=input_alphabet,
                     output_alphabet=output_alphabet, ranks=states, dims=dims,
                     initial=initial, rules=rules)
    if tac_transitions is not None:
        return TacMtt(name=name, input_alphabet=input_alphabet,
                      output_alphabet=output_alphabet, states=states,
                      initial=initial, rules=guarded,
                      tac=Tac(input_alphabet, tuple(tac_transitions)))
    return Mtt(name=name, input_alphabet=input_alphabet,
               output_alphabet=output_alphabet, states=states, initial=initial,
               rules=rules)


def _fmt_term(t, parts: list[str]) -> None:
    if isinstance(t, Param):
        parts.append(f"y{t.index}")
    elif isinstance(t, ZVar):
        parts.append(f"z{t.index}")
    elif isinstance(t, Call):
        parts.append(f"{t.state}[x{t.child}]")
        _fmt_args(t.args, parts)
    else:
        parts.append(t.sym)
        _fmt_args(t.args, parts)


def _fmt_args(args, parts: list[str]) -> None:
    if not args:
        return
    parts.append("(")
    for i, a in enumerate(args):
        if i:
            parts.append(", ")
        _fmt_term(a, parts)
    parts.append(")")


def _fmt_alphabet(a: RankedAlphabet) -> str:
    inner = ", ".join(f"{sym}: {a.rank(sym)}" for sym in sorted(a))
    return "{ " + inner + " }"


def _fmt_rule_head(q: str, sym: str, k: int, rank: int) -> str:
    head = f"rule {q}({sym}"
    if k:
        head += "(" + ", ".join(f"x{i}" for i in range(1, k + 1)) + ")"
    head += ")"
    if rank:
        head += "(" + ", ".join(f"y{i}" for i in range(1, rank + 1)) + ")"
    return head


def _fmt_guard(la, eq, neq) -> str:
    """What a when-guard or a transition holds inside its parentheses."""
    return (", ".join(la or ()) + "".join(f"; eq {i} {j}" for i, j in eq)
            + "".join(f"; neq {i} {j}" for i, j in neq))


def format_transducer(m) -> str:
    """Canonical text for an Mtt, TacMtt, or MrMtt; parses back equal."""
    is_mr = isinstance(m, MrMtt)
    is_tac = isinstance(m, TacMtt)
    lines = [f"{'mrtt' if is_mr else 'mtt'} {m.name} {{"]
    lines.append(f"  input {_fmt_alphabet(m.input_alphabet)}")
    lines.append(f"  output {_fmt_alphabet(m.output_alphabet)}")
    ranks = m.ranks if is_mr else m.states
    for q, rank in ranks.items():
        d = f"/{m.dims[q]}" if is_mr else ""
        mark = " init" if q == m.initial else ""
        lines.append(f"  state {q}: {rank}{d}{mark}")
    lines.append("")
    for (q, sym), alts in m.rules.items():
        k = m.input_alphabet.rank(sym)
        head = _fmt_rule_head(q, sym, k, ranks[q])
        for alt in alts:
            parts = [f"  {head}"]
            if is_tac:
                if alt.lookahead is not None or alt.eq or alt.neq:
                    parts.append(
                        f" when ({_fmt_guard(alt.lookahead, alt.eq, alt.neq)})")
                alt = alt.rhs
            parts.append(" -> ")
            if is_mr:
                for let in alt.lets:
                    tg = (f"z{let.targets[0]}" if len(let.targets) == 1 else
                          "(" + ", ".join(f"z{i}" for i in let.targets) + ")")
                    parts.append(f"let {tg} = {let.state}[x{let.child}]")
                    _fmt_args(let.args, parts)
                    parts.append(" in ")
                if len(alt.result) == 1:
                    _fmt_term(alt.result[0], parts)
                else:
                    _fmt_args(alt.result, parts)
            else:
                _fmt_term(alt, parts)
            lines.append("".join(parts))
    if is_tac:
        lines.append("")
        lines.append("  tac {")
        for tr in m.tac.transitions:
            inner = _fmt_guard(tr.states, tr.eq, tr.neq)
            inner = f"({inner})" if inner else ""
            lines.append(f"    trans {tr.sym}{inner} -> {tr.target}")
        lines.append("  }")
    lines.append("}")
    return "\n".join(lines) + "\n"
