"""Ranked alphabets, ground trees, and maximally shared tree DAGs.

A tree is an immutable node: a string label plus a tuple of child trees.
The DAG store interns every distinct subtree exactly once, so two nodes
are the same subtree iff they carry the same integer reference.  The
reference BOTTOM stands for "not a subtree of the stored tree".
"""

from __future__ import annotations

import re
import sys
from contextlib import contextmanager
from itertools import islice, product
from operator import itemgetter
from types import MappingProxyType

from .errors import (
    ArityMismatch,
    BottomAccess,
    ParseError,
    RankViolation,
    UnknownSymbol,
)

NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
# x1, y1, z1, ... are reserved for rule variables and may not name symbols.
RESERVED_RE = re.compile(r"[xyz][1-9][0-9]*\Z")

NodeRef = int
BOTTOM: NodeRef = -1


class RankedAlphabet:
    """A finite set of symbol names, each with a fixed arity; read-only."""

    __slots__ = ("symbols", "__weakref__")

    def __init__(self, symbols):
        symbols = dict(symbols)
        for name, rank in symbols.items():
            if not isinstance(name, str) or not NAME_RE.fullmatch(name):
                raise UnknownSymbol(f"bad symbol name {name!r}")
            if RESERVED_RE.fullmatch(name):
                raise UnknownSymbol(
                    f"symbol {name!r} collides with the reserved variable namespace"
                )
            if not isinstance(rank, int) or rank < 0:
                raise RankViolation(f"symbol {name!r} has bad rank {rank!r}")
        object.__setattr__(self, "symbols", MappingProxyType(symbols))

    def __setattr__(self, name, value):
        raise AttributeError(f"RankedAlphabet is read-only, cannot set {name!r}")

    def rank(self, name: str) -> int:
        try:
            return self.symbols[name]
        except KeyError:
            raise UnknownSymbol(f"symbol {name!r} is not declared") from None

    def __contains__(self, name) -> bool:
        return name in self.symbols

    def __iter__(self):
        return iter(self.symbols)

    def __eq__(self, other):
        if not isinstance(other, RankedAlphabet):
            return NotImplemented
        return self.symbols == other.symbols

    def __repr__(self):
        inner = ", ".join(f"{n}:{r}" for n, r in self.symbols.items())
        return f"RankedAlphabet({{{inner}}})"

    def check_dag(self, dag: "TreeDag") -> None:
        """Raise UnknownSymbol/ArityMismatch unless every node of dag is
        well formed here.  Reads only the nodes, one step per distinct
        subtree."""
        ranks = self.symbols
        for node in dag.nodes:
            if ranks.get(node[0]) != len(node) - 1:
                r = self.rank(node[0])
                raise ArityMismatch(
                    f"symbol {node[0]!r} has rank {r} but {len(node) - 1} children"
                )


class Tree:
    """An immutable ranked tree.  Size and hash are computed once, bottom-up."""

    __slots__ = ("label", "children", "size", "_hash")

    def __init__(self, label: str, children=()):
        self.label = label
        self.children = tuple(children)
        n = 1
        for c in self.children:
            n += c.size
        self.size = n
        self._hash = hash((label, self.children))

    def __hash__(self):
        return self._hash

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, Tree):
            return NotImplemented
        # iterative compare: bench trees are deep, recursion is not safe.
        # Each (id(a), id(b)) pair of inner nodes is compared once, so trees
        # built with shared subtrees cost their distinct pairs, not their
        # paths; the pair set starts at the first branching node, since a
        # walk that has met none cannot come back to a pair.
        stack = [(self, other)]
        seen = None
        while stack:
            a, b = stack.pop()
            if a is b:
                continue
            kids = a.children
            if (
                a._hash != b._hash
                or a.size != b.size
                or a.label != b.label
                or len(kids) != len(b.children)
            ):
                return False
            if not kids:
                continue
            if seen is None:
                if len(kids) == 1:
                    stack.append((kids[0], b.children[0]))
                    continue
                seen = set()
            pair = (id(a), id(b))
            if pair in seen:
                continue
            seen.add(pair)
            stack.extend(zip(kids, b.children))
        return True

    def __repr__(self):
        return f"Tree({format_term(self)!r})"

    def subtrees(self):
        """Yield every node of the tree, parent before child."""
        stack = [self]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(reversed(node.children))


class _ParsedTree(Tree):
    """A root parse_term returned.  _dag holds the intern table of its
    minimal DAG until the first build_dag of it takes it; a subclass, so
    other trees carry no such slots."""

    __slots__ = ("_dag", "_unbuilt")


class _UnbuiltTree(_ParsedTree):
    """A parsed root with label and size set, whose children and _hash
    are built from the DAG's intern table in _unbuilt when either is
    first read.  It then becomes a plain _ParsedTree: a class with
    __getattr__ reads every attribute more slowly, and walks read the
    root like any node."""

    __slots__ = ()

    def __init__(self, intern: dict, size: int):
        self.label = next(reversed(intern))[0]
        self.size = size
        self._dag = self._unbuilt = intern

    def __getattr__(self, name):
        # reached only while children and _hash are unset
        if name not in ("children", "_hash"):
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        nodes = list(self._unbuilt)
        # the root is the last node, and every other node lies under it
        built = _build_trees(nodes, range(len(nodes) - 1))
        self.children = tuple(map(built.__getitem__, nodes[-1][1:]))
        self._hash = hash((self.label, self.children))
        del self._unbuilt
        self.__class__ = _ParsedTree
        return getattr(self, name)


def tree(label: str, *children: Tree) -> Tree:
    """Shorthand constructor: tree('f', tree('e'), tree('e'))."""
    return Tree(label, children)


def parse_term(text: str) -> Tree:
    """Parse `name` / `name(term,...,term)` text into a Tree.

    Rank-0 parentheses are optional: `e` and `e()` denote the same tree.
    The parse builds the intern table of the tree's minimal DAG (see
    TreeDag), numbered in left-to-right post-order, and no Tree node but
    the root, whose label and size are set at once.  The table rides on
    the root until the first build_dag of it takes it as is.  The root's
    children are built from the table when children or the hash is first
    read, equal subtrees as one object, so a caller that reads only size
    and the DAG builds no other node.  Symbols are not checked here: the
    engines check them on the DAG (RankedAlphabet.check_dag).

    The text is cut in bulk by str methods.  With whitespace and the `()`
    of leaves taken out, repeated subterms are first collapsed into one
    token each (_collapse), so a text whose DAG is much smaller than its
    tree costs about its DAG nodes; the scan (_scan) reads what is left.
    Text either rejects is read again token by token (_parse_error),
    which reports the first error with its line and column.  Regular
    expressions only locate an error or a digit that starts a name, and
    run only where one is present.
    """
    rest = text.translate(_NAME_PUNCT)  # digits, whitespace, bad characters
    w = text
    if rest:
        # a bad character, or a digit that starts a name: the search
        # finds the first such character
        spaces = rest.translate(_NO_DIGITS)  # whitespace, bad characters
        if spaces.strip() or (len(spaces) < len(rest)
                              and _digit_starts_name(text)):
            bad = _BAD_CHAR_RE.search(text)
            if bad:
                raise ParseError.at(f"unexpected character {bad.group()!r}",
                                    text, bad.start())
        words = text.split()
        # whitespace may stand between two tokens, but two names in a row
        # are an error
        if any(a[-1] not in "()," and b[0] not in "(),"
               for a, b in zip(words, words[1:])):
            _parse_error(text)
        w = "".join(words)
    if "()" in w:
        # a leaf `name()` is `name`: a name must come before `()`, and a
        # comma, a close or the end after it
        parts = w.split("()")
        if any(not a or a[-1] in "()," or b[:1] not in ",)"
               for a, b in zip(parts, parts[1:])):
            _parse_error(text)
        w = "".join(parts)
    size = w.count(",") + w.count(")") + 1
    nodes: dict[tuple, NodeRef] = {}
    known: dict[str, NodeRef] = {}
    w = _collapse(w, nodes, known)
    if w not in known and not _scan(w, nodes, known):
        _parse_error(text)
    # an empty label stands where a name is missing, a ")" in one where a
    # close is followed by a name or an open, a token where a collapsed
    # term is
    found = set(map(itemgetter(0), nodes))
    joined = "".join(found)
    if "" in found or ")" in joined or _TOKEN in joined:
        _parse_error(text)
    return _UnbuiltTree(nodes, size)


def _digit_starts_name(text: str) -> bool:
    """Does some digit of text follow no letter, digit or underscore?
    text holds no bad character.  Read in bulk for ASCII text; other
    text, whose whitespace may lie outside ASCII, answers True, for
    _BAD_CHAR_RE to decide."""
    if not text.isascii():
        return True
    marks = text.encode().translate(_DIGIT_MARKS)
    return marks[:1] == b"0" or b"(0" in marks


def _collapse(w: str, nodes: dict, known: dict) -> str:
    """w with its repeated subterms replaced by tokens, one step at a time;
    w is free of whitespace and of the `()` of leaves.

    A step takes the innermost term that ends at w's first `)`, with the
    unary parents that the `)`s right after it close.  It numbers the
    term's new nodes in post-order into nodes, and puts one token for the
    term's ref where the term starts a subterm: at the start of w or
    after a `(` or `,`.  A token is _TOKEN and a number, which no text
    holds.  known maps each token, and each leaf name a step read, to its
    ref.  The loop stops at the first step that would remove less than
    1/8 of w, so its str work is linear in the text, or that would number
    its term before a leaf that stands before it and has no number yet,
    so the DAG stays in left-to-right post-order.  Text that is no term
    leaves a label the caller rejects, or a w the scan rejects.
    """
    checked = 0  # every leaf in w[:checked] has a number
    while True:
        end = w.find(")")
        bra = w.rfind("(", 0, end)
        if end < 0 or bra < 0:
            return w
        start = max(w.rfind("(", 0, bra), w.rfind(",", 0, bra)) + 1
        # the `)`s right after the term close its unary parents: in a
        # term, only `)`s stand between it and the next comma
        after = w.find(",", end)
        up = (len(w) if after < 0 else after) - end - 1
        parents = []
        top = start
        if up:
            outer = w.rfind(",", 0, start) + 1
            up = min(up, w.count("(", outer, start))
            if w.count(")", end + 1, end + 1 + up) < up:
                return w
            parents = w[outer:start].rsplit("(", up + 1)[-1 - up:-1]
            top -= sum(map(len, parents)) + up
        term = w[top:end + 1 + up]
        token = f"{_TOKEN}{len(known)}"
        saved = 8 * (len(term) - len(token))
        # the step must remove 1/8 of w; w.count(term) bounds the
        # occurrences that start a subterm, and a text the collapse cannot
        # shorten pays for that pass alone
        if saved * w.count(term) < len(w) or saved * (
                w.count("(" + term) + w.count("," + term) + w.startswith(term)) < len(w):
            return w
        # a leaf before the term comes before it in post-order
        for piece in w[checked:top].split(",")[:-1]:
            if piece.rpartition("(")[2] not in known:
                return w
        kids = []
        for name in w[bra + 1:end].split(","):
            ref = known.get(name)
            if ref is None:
                ref = known[name] = nodes.setdefault((name,), len(nodes))
            kids.append(ref)
        ref = nodes.setdefault((w[start:bra], *kids), len(nodes))
        for label in reversed(parents):
            ref = nodes.setdefault((label, ref), len(nodes))
        known[token] = ref
        if w.startswith(term):
            w = token + w[len(term):]
        w = w.replace("(" + term, "(" + token).replace("," + term, "," + token)
        checked = top


def _scan(w: str, nodes: dict, known: dict) -> bool:
    """Add to nodes the minimal DAG of the tree whose text w is, free of
    whitespace and of the `()` of leaves, and say whether w is a term.
    nodes maps each node, its label followed by its child refs, to its
    ref, in insertion order; a node is one flat tuple, which the garbage
    collector stops tracking at its first pass.  A leaf that known holds,
    a token _collapse left or a leaf it read, is its ref there.

    w is cut in bulk: every `)` becomes `,)` and the text is split at
    commas, so each piece is a close or a run of opens ending in a leaf.
    """
    names = []   # the labels of the open nodes, innermost last
    starts = []  # where the children of each open node begin in `kids`
    kids = []    # the finished children of the open nodes
    if known:
        def leaf(key, ref):
            got = known.get(key[0])
            return nodes.setdefault(key, ref) if got is None else got
    else:
        leaf = nodes.setdefault
    pieces = w.replace(")", ",)").split(",")
    try:
        parts = pieces[0].split("(")
        ref = leaf((parts.pop(),), len(nodes))
        starts += [0] * len(parts)
        names += parts
        for piece in islice(pieces, 1, None):
            if piece == ")":
                # the node closed: the finished ref is its last child
                start = starts.pop()
                if start == len(kids):
                    ref = nodes.setdefault((names.pop(), ref), len(nodes))
                elif start == len(kids) - 1:
                    ref = nodes.setdefault((names.pop(), kids.pop(), ref), len(nodes))
                else:
                    kids.append(ref)
                    ref = nodes.setdefault((names.pop(), *kids[start:]), len(nodes))
                    del kids[start:]
                continue
            # a comma: the finished ref is a child, and a new one begins
            kids.append(ref)
            if "(" in piece:
                parts = piece.split("(")
                piece = parts.pop()
                starts += [len(kids)] * len(parts)
                names += parts
            ref = leaf((piece,), len(nodes))
    except IndexError:  # a close with no open node
        return False
    # every node closed, and no comma outside them
    return not (names or kids)


def _parse_error(text: str):
    """Raise the ParseError of text, which the scan rejected: the first
    error a token-by-token read meets."""

    def fail(msg, at):
        raise ParseError.at(msg, text, at)

    def fail_at(msg, k):
        # offsets are only needed here: token k is the k-th match
        fail(msg, next(islice(_TERM_TOKEN_RE.finditer(text), k, None)).start())

    tokens = text.replace("(", " ( ").replace(")", " ) ").replace(",", " , ").split()
    tokens.append("")  # end marker; no token is empty
    depth = 0  # the open nodes
    pos = 0
    while True:
        name = tokens[pos]
        if not name:
            fail("unexpected end of input", len(text))
        if name in _PUNCT:
            fail_at(f"expected a symbol name, got {name!r}", pos)
        if tokens[pos + 1] == "(" and tokens[pos + 2] != ")":
            depth += 1
            pos += 2
            continue
        pos += 3 if tokens[pos + 1] == "(" else 1
        # close the finished node's parents as far as possible
        while depth:
            sep = tokens[pos]
            pos += 1
            if sep == ",":
                break
            if sep != ")":
                if not sep:
                    fail("unexpected end of input", len(text))
                fail_at(f"expected ',' or ')', got {sep!r}", pos - 1)
            depth -= 1
        else:
            break
    if tokens[pos]:
        fail_at(f"trailing input {tokens[pos]!r}", pos)
    raise AssertionError(f"the scan rejected the term {text!r}")


_TERM_TOKEN_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*|[(),]")
# the first character no token can start or continue: one outside names,
# parentheses, commas and whitespace, or a digit that follows no name
_BAD_CHAR_RE = re.compile(r"[^A-Za-z0-9_(),\s]|(?<![A-Za-z0-9_])[0-9]")
_PUNCT = frozenset("(),")
# starts each token _collapse puts in a text: _BAD_CHAR_RE rejects it in input
_TOKEN = "\x00"
_NAME_PUNCT = str.maketrans("", "", "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz_(),")
_NO_DIGITS = str.maketrans("", "", "0123456789")
# each digit as 0, and each character other than a name's as (, in
# ASCII text of names, punctuation and whitespace: a digit that starts
# a name stands first or after a (
_ASCII_SPACE = "".join(c for c in map(chr, range(128)) if c.isspace())
_DIGIT_MARKS = bytes.maketrans(f"0123456789),{_ASCII_SPACE}".encode(),
                               b"0" * 10 + b"(" * (2 + len(_ASCII_SPACE)))


def format_term(t: Tree) -> str:
    """Render a tree in term syntax; rank-0 symbols print without parens."""
    out = []
    work = [t]
    while work:
        item = work.pop()
        if isinstance(item, str):
            out.append(item)
            continue
        out.append(item.label)
        if item.children:
            out.append("(")
            work.append(")")
            last = len(item.children) - 1
            for j, c in enumerate(reversed(item.children)):
                work.append(c)
                if j != last:
                    work.append(",")
    return "".join(out)


def term_sort_key(t: Tree):
    """A total structural order: by size, then by rendered text."""
    return (t.size, format_term(t))


def substitute(t: Tree, bindings: dict[str, Tree]) -> Tree:
    """Replace every leaf whose label is bound, simultaneously.

    Substituted trees are inserted verbatim and never rescanned, so
    bindings like y1 -> g(y1) terminate.  A bound name occurring with
    children is a rank violation.
    """
    if not bindings:
        return t

    def go(node):
        if node.label in bindings:
            if node.children:
                raise RankViolation(
                    f"cannot substitute for {node.label!r}: it has children here"
                )
            return bindings[node.label]
        if not node.children:
            return node
        new = tuple(go(c) for c in node.children)
        if all(a is b for a, b in zip(new, node.children)):
            return node
        return Tree(node.label, new)

    return go(t)


class TreeDag:
    """Minimal DAG of one tree: every distinct subtree is one node.

    Node references are ints issued in creation order, so children always
    precede parents and the root comes last.  A node is one flat tuple,
    its label followed by its child references: nodes[v] is node v, and
    the intern table maps each node to its reference, in reference
    order, so nodes is list(intern).  A parsed tree's intern table is the
    one its parse filled.  by_label maps each label to its nodes in
    ascending order, built when first read.  images maps (label, *child
    reference sets) to the frozenset of nodes an output node over those
    sets can be, kept by the membership engines (io_membership._out_refs)
    for sets of two or more references.
    """

    __slots__ = ("nodes", "intern", "root", "images", "_by_label")

    def __init__(self, intern: dict | None = None):
        self.intern: dict[tuple, NodeRef] = {} if intern is None else intern
        self.nodes: list[tuple] = list(self.intern)
        self.root: NodeRef = len(self.nodes) - 1 if self.nodes else BOTTOM
        self.images: dict[tuple, frozenset] = {}
        self._by_label = None

    @property
    def by_label(self) -> dict[str, list[NodeRef]]:
        if self._by_label is None:
            self._by_label = _label_index(map(itemgetter(0), self.nodes))
        return self._by_label

    def node_count(self) -> int:
        return len(self.nodes)

    def _check(self, v: NodeRef):
        if v == BOTTOM:
            raise BottomAccess("bottom has no label or children")
        if not 0 <= v < len(self.nodes):
            raise BottomAccess(f"node reference {v} is not in this DAG")

    def under(self, v: NodeRef) -> list[NodeRef]:
        """The nodes of the tree rooted at a node, v among them, in
        ascending order, so children come first."""
        self._check(v)
        nodes = self.nodes
        seen = {v}
        stack = [v]
        while stack:
            for c in nodes[stack.pop()][1:]:
                if c not in seen:
                    seen.add(c)
                    stack.append(c)
        return sorted(seen)

    def below(self, v: NodeRef) -> "TreeDag":
        """The minimal DAG of the tree rooted at a node: the nodes under
        it, renumbered children first, so v becomes the root."""
        nodes = self.nodes
        order = self.under(v)
        new = dict(zip(order, range(len(order))))
        return TreeDag({(node[0], *map(new.__getitem__, node[1:])): ref
                        for ref, node in enumerate(map(nodes.__getitem__, order))})

    def expand(self, v: NodeRef) -> Tree:
        """Rebuild the tree rooted at a node, equal subtrees as one object."""
        sub = self.below(v)
        return _build_trees(sub.nodes, range(len(sub.nodes)))[sub.root]

    def tree_size(self) -> int:
        """The number of nodes of the tree at the root."""
        sizes: list[int] = []
        for node in self.nodes:
            sizes.append(sum(map(sizes.__getitem__, node[1:]), 1))
        return sizes[-1]

    def format_prefix(self, v: NodeRef, limit: int) -> str:
        """The first limit characters of format_term(self.expand(v)).
        Builds no Tree and visits only the nodes those characters show."""
        self._check(v)
        out = []
        n = 0
        work = [v]
        while work and n < limit:
            item = work.pop()
            if isinstance(item, int):
                node = self.nodes[item]
                if len(node) > 1:
                    work.append(")")
                    for c in reversed(node[2:]):
                        work += (c, ",")
                    work.append(node[1])
                item = node[0] + ("(" if len(node) > 1 else "")
            out.append(item)
            n += len(item)
        return "".join(out)[:limit]


def _build_trees(nodes, refs) -> dict[NodeRef, Tree]:
    """The Tree of each node in refs, by one forward pass.  refs must
    ascend and hold every node below each of its nodes; since children
    precede parents, each child is built before its parent reads it."""
    built: dict[NodeRef, Tree] = {}
    for ref in refs:
        node = nodes[ref]
        built[ref] = Tree(node[0], map(built.__getitem__, node[1:]))
    return built


def _label_index(labels) -> dict[str, list[NodeRef]]:
    by_label: dict[str, list[NodeRef]] = {}
    for ref, label in enumerate(labels):
        by_label.setdefault(label, []).append(ref)
    return by_label


def build_dag(t: Tree) -> tuple[TreeDag, NodeRef]:
    """The minimal DAG of a tree; returns (dag, root reference).

    The first call on a root that parse_term returned takes the intern
    table the parse filled, without a walk, and builds no Tree.  Any
    other tree is walked and each node interned under its key, in
    left-to-right post-order as a parse numbers them; a parsed root
    builds its children for that walk, if they were not yet read.
    """
    if isinstance(t, _ParsedTree) and t._dag is not None:
        dag = TreeDag(t._dag)
        t._dag = None
        return dag, dag.root
    intern: dict[tuple, NodeRef] = {}
    done: dict[int, NodeRef] = {}
    stack = [(t, False)]
    while stack:
        node, expanded = stack.pop()
        if id(node) in done:
            continue
        if not expanded:
            stack.append((node, True))
            stack.extend((c, False) for c in reversed(node.children))
            continue
        key = (node.label, *map(done.__getitem__, map(id, node.children)))
        done[id(node)] = intern.setdefault(key, len(intern))
    dag = TreeDag(intern)
    return dag, dag.root


def enumerate_trees(alphabet: RankedAlphabet, *, max_size: int) -> list[Tree]:
    """All trees over the alphabet with at most max_size nodes.

    The result order is deterministic: ascending size, then declaration
    order of symbols.
    """
    names = list(alphabet.symbols)
    by_size: dict[int, list[Tree]] = {}
    for size in range(1, max_size + 1):
        acc = []
        for name in names:
            r = alphabet.rank(name)
            if r == 0:
                if size == 1:
                    acc.append(Tree(name))
                continue
            budget = size - 1
            if budget < r:
                continue
            for split in _compositions(budget, r):
                for kids in product(*(by_size[s] for s in split)):
                    acc.append(Tree(name, kids))
        by_size[size] = acc
    return [t for size in range(1, max_size + 1) for t in by_size[size]]


def _compositions(total: int, parts: int):
    """All tuples of `parts` positive ints summing to `total`."""
    if parts == 1:
        yield (total,)
        return
    for first in range(1, total - parts + 2):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


@contextmanager
def recursion_room(extra: int):
    """Temporarily widen the recursion limit for work on deep trees."""
    old = sys.getrecursionlimit()
    need = 1000 + extra
    if need > old:
        sys.setrecursionlimit(need)
    try:
        yield
    finally:
        sys.setrecursionlimit(old)
