"""Model-checking workbench for graded Kleene algebras with tests.

Finite algebras are explicit operation tables; procedural algebras are
operation functions checked by seeded sampling.  On top of either sit the
law suites (graded, idempotent, Boolean-test), Hoare-triple encodings and
proof-rule schemas, guard-commutation conditions, loop denesting, and the
derived set/relation/language/matrix algebras.
"""

from .algebra import (
    Algebra,
    AlgebraError,
    ClosureError,
    DivergenceError,
    DomainError,
    FiniteAlgebra,
    NameEncodingError,
    ProceduralAlgebra,
    SizeError,
    SortError,
    star_lfp,
)
from .algfile import AlgFileError, dump_algebra, load_algebra, loads_algebra
from .constructions import (
    flang_algebra,
    frel_algebra,
    fset_algebra,
    mat_algebra,
)
from .hoare import (
    ANNIHILATION_BRIDGE,
    RULES,
    CommutationReport,
    DenestReport,
    PreconditionError,
    RuleSchema,
    check_demorgan,
    check_rule,
    commutation_conditions,
    denesting_equivalence,
    rule_schema,
    triple_forms_equivalent,
)
from .instances import STANDARD_FINITE, make_builtin
from .laws import (
    SUITES,
    Classification,
    Law,
    LawReport,
    check_law,
    classify,
    run_law_suite,
)
from .semantics import (
    Auto,
    Equation,
    Exhaustive,
    Sampled,
    Verdict,
    check_equation,
    check_quasi_equation,
    eval_term,
)
from .terms import (
    ParseError,
    Sort,
    Term,
    Var,
    free_vars,
    parse_program,
    parse_term,
    pretty,
)

__version__ = "0.1.0"

__all__ = [
    "Algebra",
    "AlgebraError",
    "AlgFileError",
    "ANNIHILATION_BRIDGE",
    "Auto",
    "Classification",
    "ClosureError",
    "CommutationReport",
    "DenestReport",
    "DivergenceError",
    "DomainError",
    "Equation",
    "Exhaustive",
    "FiniteAlgebra",
    "Law",
    "LawReport",
    "NameEncodingError",
    "ParseError",
    "PreconditionError",
    "ProceduralAlgebra",
    "RULES",
    "RuleSchema",
    "Sampled",
    "SizeError",
    "Sort",
    "SortError",
    "STANDARD_FINITE",
    "SUITES",
    "Term",
    "Var",
    "Verdict",
    "check_demorgan",
    "check_equation",
    "check_law",
    "check_quasi_equation",
    "check_rule",
    "classify",
    "commutation_conditions",
    "denesting_equivalence",
    "dump_algebra",
    "eval_term",
    "flang_algebra",
    "free_vars",
    "frel_algebra",
    "fset_algebra",
    "load_algebra",
    "loads_algebra",
    "make_builtin",
    "mat_algebra",
    "parse_program",
    "parse_term",
    "pretty",
    "rule_schema",
    "run_law_suite",
    "star_lfp",
    "triple_forms_equivalent",
]
