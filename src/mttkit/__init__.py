"""Translation membership for macro tree transducers.

Given a transducer M, an input tree s, and a candidate output tree t,
decide whether (s, t) lies in M's translation.  Enumeration oracles
define the call-by-value (IO) and call-by-name (OI) semantics directly;
the membership engines answer the same question in polynomial time for
the tractable classes (call-by-value, bounded-copying call-by-name,
equality-constrained look-ahead, multi-return, deterministic stages).
"""

from .errors import (AlphabetMismatch, ArityMismatch, BadInitialRank,
                     BottomAccess, BudgetExceeded, EmptyFormula,
                     EnvLimitExceeded, MttError, NotDeterministic, NotTotal,
                     ParseError, RankViolation, RhsTooDeep, UnknownState,
                     UnknownSymbol)
from .trees import (BOTTOM, RankedAlphabet, Tree, TreeDag, build_dag,
                    enumerate_trees, format_term, parse_term, substitute,
                    term_sort_key, tree)
from .mtt import Call, Mtt, MttClass, Out, Param, validate, walk_rhs
from .oracle import (IO, NO, OI, UNKNOWN, YES, App, Budget, Con, TreeSet,
                     Evaluator, check_input_tree, eval as oracle_eval,
                     io_subst, oi_subst, oracle_member, y_leaf)
from .io_membership import member_det, member_io, member_oi_fc
from .tac import (Tac, TacMtt, TacRule, TacTransition, member_io_tac,
                  run_tac, validate_tac_mtt)
from .multi_return import (MrLet, MrMtt, MrRhs, ZVar, eval_mr_io,
                           eval_mr_state, member_mr_io, validate_mr)
from .sat import (Cnf3, SatInstance, build_sat_mtt, encode, parse_dimacs,
                  sat_check_small, solve_truth_table)
from .dsl import format_transducer, parse_transducer
from .engines import ENGINES
from . import families

__version__ = "0.1.0"

__all__ = [
    "AlphabetMismatch", "ArityMismatch", "BadInitialRank", "BottomAccess",
    "BudgetExceeded", "EmptyFormula", "EnvLimitExceeded", "MttError",
    "NotDeterministic", "NotTotal", "ParseError", "RankViolation",
    "RhsTooDeep", "UnknownState", "UnknownSymbol",
    "BOTTOM", "RankedAlphabet", "Tree", "TreeDag", "build_dag",
    "enumerate_trees", "format_term", "parse_term", "substitute",
    "term_sort_key", "tree",
    "Call", "Mtt", "MttClass", "Out", "Param", "validate", "walk_rhs",
    "IO", "NO", "OI", "UNKNOWN", "YES", "App", "Budget", "Con", "TreeSet",
    "Evaluator", "check_input_tree", "oracle_eval", "io_subst", "oi_subst",
    "oracle_member", "y_leaf",
    "member_det", "member_io", "member_oi_fc",
    "Tac", "TacMtt", "TacRule", "TacTransition", "member_io_tac", "run_tac",
    "validate_tac_mtt",
    "MrLet", "MrMtt", "MrRhs", "ZVar", "eval_mr_io", "eval_mr_state",
    "member_mr_io", "validate_mr",
    "Cnf3", "SatInstance", "build_sat_mtt", "encode", "parse_dimacs",
    "sat_check_small", "solve_truth_table",
    "format_transducer", "parse_transducer",
    "ENGINES", "families",
    "__version__",
]
