"""Exception types shared across the toolkit.

Every error raised by the library derives from MttError so callers can
catch toolkit failures without catching programming mistakes.
"""


class MttError(Exception):
    """Base class for all toolkit errors."""


class ParseError(MttError):
    """Raised on malformed term, transducer, or formula text."""

    def __init__(self, message, line=None, column=None):
        if line is not None:
            message = f"{message} (line {line}, column {column})"
        super().__init__(message)
        self.line = line
        self.column = column

    @classmethod
    def at(cls, message, text, offset):
        """The error at text[offset].  Lines end where str.splitlines
        ends them: at \\r, \\r\\n, \\x85 and \\u2028 as well as \\n.
        Lines and columns count from 1."""
        # a character that ends no line stands in for text[offset]
        lines = (text[:offset] + ".").splitlines()
        return cls(message, len(lines), len(lines[-1]))


class UnknownSymbol(MttError):
    """A symbol is used that the relevant alphabet does not declare."""


class ArityMismatch(MttError):
    """A symbol, state, or variable is used with the wrong number of arguments."""


class RhsTooDeep(MttError):
    """A rule's right-hand side nests deeper than MAX_NESTING levels."""


class RankViolation(MttError):
    """A rank constraint is broken, e.g. substituting for a non-nullary symbol."""


class BottomAccess(MttError):
    """A DAG node was asked for by the bottom reference, or by one the
    DAG does not hold (TreeDag.expand, run_tac)."""


class UnknownState(MttError):
    """A rule or look-ahead guard references an undeclared state."""


class BadInitialRank(MttError):
    """The initial state does not satisfy its rank/dimension requirements."""


class AlphabetMismatch(MttError):
    """An input tree uses symbols outside the transducer's input alphabet."""


class NotDeterministic(MttError):
    """More than one alternative applies where exactly one is required."""


class NotTotal(MttError):
    """No alternative applies where exactly one is required."""


class BudgetExceeded(MttError):
    """The enumeration oracle hit a configured resource bound.

    This signals that the instance is too large for explicit enumeration;
    it never stands in for a wrong answer.
    """


class EnvLimitExceeded(MttError):
    """The multi-return engine exceeded its environment-set cap."""


class EmptyFormula(MttError):
    """A formula with no variables or no clauses was passed to the reduction."""
