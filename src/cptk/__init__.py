"""Desk-scale toolkit for classification problems over word languages.

Subpackages cover length-lexicographic word order, a symbolic language
algebra with an exact automaton backend, enumerated language families
with closure operators, bounded solvability search with certificates,
cohesion checks with refutation witnesses, and a trace-verified
diagonalization loop for building hard cores.
"""

from .words import Alphabet, compare, lex, ord_, succ
from .langs import (Complement, DfaAtom, FiniteSet, Inter, LangExpr, LeftMark,
                    LeftQuotient, Predicate, Union, EMPTY, FULL, member,
                    regular_view,
                    is_finite, subset_of, equivalent, expr_to_json,
                    expr_from_json)
from .dfa import Dfa
from .families import (FamilyEnum, FamilyFlags, DcMember, close_b, close_cc,
                       close_co, close_s, close_u, check_law,
                       regular_family, finite_family, length_family,
                       list_family, canonical_index)
from .classify import (ClassificationProblem, ConditionalProblem,
                       PartitionCertificate, SolveNotFound, load_problem,
                       load_conditional, set_of, refines, is_partition, solve,
                       solve_conditional, pad_partition, combine_pairwise,
                       ProblemPrecondition)
from .cohesion import (CohesionVerdict, check_cohesive, check_ccohesive,
                       check_core, check_ccore)
from .hardcore import (DiagonalizationState, TraceEntry, hardcore_run, hardcore_jsonl,
                       verify_trace, is_proper_hardcore, trace_to_jsonl,
                       trace_from_jsonl)
from .constructions import MarkedComponent, ziegler_problem, example_26

__version__ = "0.1.0"
