"""Hoare triples, proof-rule schemas, commutation conditions, denesting.

A partial-correctness triple {b} p {c} is encoded as an order statement
``b;p <= b;p;c`` or, equivalently in these algebras, as the equation
``b;p = b;p;c`` (``triple_forms_equivalent`` checks the equivalence holds
pointwise in a given algebra).  The classic proof rules are then plain
quasi-equations between such encodings, and model-checking a rule means
enumerating valuations of its schema variables.

Rule names: Composition, Conditional, WeakenStrengthen, WhileGKAT and
WhileIGKAT (one formula, listed under both names because its soundness
depends on test idempotence and it genuinely fails in graded algebras —
see the ex9 builtin), and the equational variants KAT-Composition,
KAT-Conditional, KAT-While, KAT-Weaken.

Also here: the three guard-commutation conditions and their six pairwise
implications (the lemma4/lemma6 builtins separate them), the De Morgan
side condition, and the while-loop denesting transformation together with
the sliding and star-denesting identities, guarded by their side
conditions (test idempotence plus De Morgan).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Optional, Sequence

from .algebra import Algebra, AlgebraError
from .laws import DEMORGAN_LAW, LawReport, run_law_suite
from .semantics import (
    Equation,
    Exhaustive,
    Strategy,
    Verdict,
    check_quasi_equation,
    describe_strategy,
)
from .terms import (
    Arrow,
    Atom,
    If,
    IfThen,
    Plus,
    Seq,
    SeqProg,
    Sort,
    Star,
    Term,
    Var,
    While,
    Zero,
    desugar,
    mk_not,
    pretty,
)


@dataclass(frozen=True)
class HoareTriple:
    """Partial-correctness triple: precondition, program, postcondition."""

    pre: Term
    prog: Term
    post: Term

    def render(self) -> str:
        return f"{{{pretty(self.pre)}}} {pretty(self.prog)} {{{pretty(self.post)}}}"


def triple_to_equation(triple: HoareTriple, form: str = "leq") -> Equation:
    """Encode a triple as ``pre;prog <= pre;prog;post`` (or with ``=``)."""
    if form not in ("leq", "eq"):
        raise ValueError(f"form must be 'leq' or 'eq', got {form!r}")
    run = Seq(triple.pre, triple.prog)
    return Equation(run, Seq(run, triple.post), form)


# --- rule schemas ---------------------------------------------------------


@dataclass(frozen=True)
class RuleSchema:
    name: str
    cli_name: str
    display: str  # the rule in triple notation
    hypotheses: tuple[Equation, ...]
    conclusion: Equation

    def render(self) -> str:
        return (
            " & ".join(h.render() for h in self.hypotheses)
            + "  =>  "
            + self.conclusion.render()
        )


def _t(name: str) -> Var:
    return Var(name, Sort.TEST)


def _p(name: str) -> Var:
    return Var(name, Sort.PROGRAM)


_a, _b, _c, _d = _t("a"), _t("b"), _t("c"), _t("d")
_pp, _q = _p("p"), _p("q")


def _rules() -> dict[str, RuleSchema]:
    t = HoareTriple
    enc = triple_to_equation
    if_term = Plus(Seq(_b, _pp), Seq(mk_not(_b), _q))
    while_term = Seq(Star(Seq(_b, _pp)), mk_not(_b))
    not_b_and_c = Seq(mk_not(_b), _c)
    leq = lambda l, r: Equation(l, r, "leq")  # noqa: E731

    specs = [
        RuleSchema(
            "Composition",
            "composition",
            "{b} p {c} & {c} q {d} |- {b} p;q {d}",
            (enc(t(_b, _pp, _c)), enc(t(_c, _q, _d))),
            enc(t(_b, Seq(_pp, _q), _d), form="eq"),
        ),
        RuleSchema(
            "Conditional",
            "conditional",
            "{b;c} p {d} & {!b;c} q {d} |- {c} b;p + !b;q {d}",
            (enc(t(Seq(_b, _c), _pp, _d)), enc(t(Seq(mk_not(_b), _c), _q, _d))),
            enc(t(_c, if_term, _d)),
        ),
        RuleSchema(
            "WeakenStrengthen",
            "weaken-strengthen",
            "a <= b & {b} p {c} & c <= d |- {a} p {d}",
            (leq(_a, _b), enc(t(_b, _pp, _c)), leq(_c, _d)),
            enc(t(_a, _pp, _d)),
        ),
        RuleSchema(
            "WhileGKAT",
            "while-gkat",
            "{b;c} p {c} |- {c} (b;p)*;!b {!b;c}",
            (enc(t(Seq(_b, _c), _pp, _c)),),
            enc(t(_c, while_term, not_b_and_c)),
        ),
        RuleSchema(
            "WhileIGKAT",
            "while-igkat",
            "{b;c} p {c} |- {c} (b;p)*;!b {!b;c}",
            (enc(t(Seq(_b, _c), _pp, _c)),),
            enc(t(_c, while_term, not_b_and_c)),
        ),
        RuleSchema(
            "KAT-Composition",
            "kat-composition",
            "{b} p {c} & {c} q {d} |- {b} p;q {d}",
            (enc(t(_b, _pp, _c), "eq"), enc(t(_c, _q, _d), "eq")),
            enc(t(_b, Seq(_pp, _q), _d), "eq"),
        ),
        RuleSchema(
            "KAT-Conditional",
            "kat-conditional",
            "{b;c} p {d} & {!b;c} q {d} |- {c} b;p + !b;q {d}",
            (
                enc(t(Seq(_b, _c), _pp, _d), "eq"),
                enc(t(Seq(mk_not(_b), _c), _q, _d), "eq"),
            ),
            enc(t(_c, if_term, _d), "eq"),
        ),
        RuleSchema(
            "KAT-While",
            "kat-while",
            "{b;c} p {c} |- {c} (b;p)*;!b {!b;c}",
            (enc(t(Seq(_b, _c), _pp, _c), "eq"),),
            enc(t(_c, while_term, not_b_and_c), "eq"),
        ),
        RuleSchema(
            "KAT-Weaken",
            "kat-weaken",
            "a <= b & {b} p {c} & c <= d |- {a} p {d}",
            (leq(_a, _b), enc(t(_b, _pp, _c), "eq"), leq(_c, _d)),
            enc(t(_a, _pp, _d), "eq"),
        ),
    ]
    return {r.name: r for r in specs}


RULES: dict[str, RuleSchema] = _rules()

#: Consequence of the triple encoding used by the denesting proof: an
#: established postcondition annihilates its own negation.
ANNIHILATION_BRIDGE = RuleSchema(
    "PostconditionAnnihilation",
    "postcondition-annihilation",
    "{b} p {c} |- b;p;!c = 0",
    (triple_to_equation(HoareTriple(_b, _pp, _c), "eq"),),
    Equation(Seq(Seq(_b, _pp), mk_not(_c)), Zero(), "eq"),
)


#: Every schema ``rule_schema`` finds and ``gkat rule --list`` prints.
ALL_RULES: tuple[RuleSchema, ...] = (*RULES.values(), ANNIHILATION_BRIDGE)


def rule_schema(name: str) -> RuleSchema:
    """Look up a rule by display name or CLI name (case-insensitive)."""
    for rule in ALL_RULES:
        if name == rule.name or name.lower() == rule.cli_name:
            return rule
    known = ", ".join(r.cli_name for r in ALL_RULES)
    raise KeyError(f"unknown rule {name!r}; known rules: {known}")


def check_rule(
    alg: Algebra,
    rule: RuleSchema,
    strategy: Strategy = Exhaustive(),
) -> Verdict:
    return check_quasi_equation(alg, rule.hypotheses, rule.conclusion, strategy)


def triple_forms_equivalent(
    alg: Algebra, strategy: Strategy = Exhaustive()
) -> tuple[Verdict, Verdict]:
    """Check that the two triple encodings agree pointwise.

    Returns verdicts for the two implications (order form implies equation
    form, and back); both valid means the forms pick out the same triples.
    """
    generic = HoareTriple(_b, _pp, _c)
    as_leq = triple_to_equation(generic, "leq")
    as_eq = triple_to_equation(generic, "eq")
    fwd = check_quasi_equation(alg, (as_leq,), as_eq, strategy)
    bwd = check_quasi_equation(alg, (as_eq,), as_leq, strategy)
    return fwd, bwd


# --- commutation conditions -----------------------------------------------

COMMUTATION_NAMES = ("test-commutes", "negation-commutes", "crossings-vanish")


def _commutation_equations(b: Term, not_b: Term, p: Term) -> dict[str, Equation]:
    return {
        "test-commutes": Equation(Seq(b, p), Seq(p, b), "eq"),
        "negation-commutes": Equation(Seq(not_b, p), Seq(p, not_b), "eq"),
        "crossings-vanish": Equation(
            Plus(Seq(Seq(b, p), not_b), Seq(Seq(not_b, p), b)), Zero(), "eq"
        ),
    }


#: The six directed implications, strongest separations first.
COMMUTATION_PAIRS = (
    ("test-commutes", "negation-commutes"),
    ("negation-commutes", "test-commutes"),
    ("test-commutes", "crossings-vanish"),
    ("crossings-vanish", "test-commutes"),
    ("negation-commutes", "crossings-vanish"),
    ("crossings-vanish", "negation-commutes"),
)


@dataclass(frozen=True)
class CommutationReport:
    algebra_name: str
    fingerprint: str
    b_over: str
    strategy: dict
    entries: tuple[tuple[str, str, Verdict], ...]
    elapsed_ms: int

    def verdict(self, source: str, target: str) -> Verdict:
        for s, t, v in self.entries:
            if (s, t) == (source, target):
                return v
        raise KeyError(f"no implication {source} => {target}")

    def to_dict(self) -> dict:
        return {
            "algebra": self.algebra_name,
            "fingerprint": self.fingerprint,
            "b_over": self.b_over,
            "strategy": self.strategy,
            "implications": [
                {"from": s, "to": t, **v.to_dict()} for s, t, v in self.entries
            ],
            "elapsed_ms": self.elapsed_ms,
        }


def commutation_conditions(
    alg: Algebra,
    strategy: Strategy = Exhaustive(),
    b_over: str = "tests",
) -> CommutationReport:
    """Check all six implications between the guard-commutation conditions.

    ``b_over`` picks the range of the guard variable: ``"tests"`` (the
    declared test sort) or ``"carrier"``, which lets b run over every
    element and reads the residual straight off the stored table — the
    mode that reproduces printed witnesses whose b is not a test.  Carrier
    mode needs a finite algebra.
    """
    if b_over not in ("tests", "carrier"):
        raise ValueError(f"b_over must be 'tests' or 'carrier', got {b_over!r}")
    unchecked = b_over == "carrier"
    if unchecked and not alg.finite:
        raise AlgebraError("carrier-mode commutation checking needs a finite algebra")
    b = Var("b", Sort.PROGRAM if unchecked else Sort.TEST)
    # In carrier mode the negation arrow is built directly, bypassing the
    # sort guard the mode exists to lift.
    not_b = Arrow(b, Zero()) if unchecked else mk_not(b)
    conds = _commutation_equations(b, not_b, _pp)
    variables = (b, _pp)
    start = time.perf_counter()
    entries = tuple(
        (
            src,
            dst,
            check_quasi_equation(
                alg,
                (conds[src],),
                conds[dst],
                strategy,
                variables=variables,
                unchecked_arrow=unchecked,
            ),
        )
        for src, dst in COMMUTATION_PAIRS
    )
    elapsed = int((time.perf_counter() - start) * 1000)
    return CommutationReport(
        alg.name, alg.fingerprint(), b_over, describe_strategy(strategy), entries, elapsed
    )


# --- De Morgan and denesting ----------------------------------------------


def check_demorgan(alg: Algebra, strategy: Strategy = Exhaustive()) -> Verdict:
    """Check !(a+b) = !a;!b over the tests."""
    return check_quasi_equation(
        alg, (), DEMORGAN_LAW.conclusion, strategy, variables=DEMORGAN_LAW.variables
    )


class PreconditionError(AlgebraError):
    """A transformation's side conditions fail in the given algebra."""


class StaleReportError(AlgebraError):
    """A supplied side-condition report does not match the algebra."""


def _denesting_checks() -> tuple[tuple[str, tuple[Var, ...], Equation], ...]:
    b, c, p, q = _b, _c, _pp, _q
    ap, aq = Atom("p"), Atom("q")
    # while b do { p; while c do { q } }
    lhs_prog = While(b, SeqProg(ap, While(c, aq)))
    # if b then { p; while b+c do { if c then { q } else { p } } }
    rhs_prog = IfThen(b, SeqProg(ap, While(Plus(b, c), If(c, aq, ap))))
    loop = Equation(desugar(lhs_prog), desugar(rhs_prog), "eq")
    sliding = Equation(Seq(p, Star(Seq(q, p))), Seq(Star(Seq(p, q)), p), "eq")
    star_denest = Equation(Seq(Star(p), Star(Seq(q, Star(p)))), Star(Plus(p, q)), "eq")
    return (
        ("loop-denesting", (b, c, p, q), loop),
        ("sliding", (p, q), sliding),
        ("star-denesting", (p, q), star_denest),
    )


@dataclass(frozen=True)
class DenestReport:
    algebra_name: str
    fingerprint: str
    strategy: dict
    side_reports: tuple[LawReport, ...]
    entries: tuple[tuple[str, Equation, Verdict], ...]
    elapsed_ms: int

    @property
    def ok(self) -> bool:
        return all(v.ok for _, _, v in self.entries)

    def to_dict(self) -> dict:
        return {
            "algebra": self.algebra_name,
            "fingerprint": self.fingerprint,
            "strategy": self.strategy,
            "side_conditions": [r.to_dict() for r in self.side_reports],
            "checks": [
                {"name": name, "statement": eqn.render(), **v.to_dict()}
                for name, eqn, v in self.entries
            ],
            "ok": self.ok,
            "elapsed_ms": self.elapsed_ms,
        }


def denesting_equivalence(
    alg: Algebra,
    strategy: Strategy = Exhaustive(),
    side_reports: Optional[Sequence[LawReport]] = None,
) -> DenestReport:
    """Check the loop-denesting transformation and its star identities.

    The transformation is only claimed under test idempotence and the
    De Morgan law, so those side conditions are verified first (or taken
    from ``side_reports``, which must carry this algebra's fingerprint and
    cover the idempotent suite plus De Morgan).  Failing side conditions
    raise ``PreconditionError``; mismatched reports raise
    ``StaleReportError``.
    """
    fp = alg.fingerprint()
    if side_reports is None:
        sides = (
            run_law_suite(alg, "igkat", strategy),
            run_law_suite(alg, "demorgan", strategy),
        )
    else:
        sides = tuple(side_reports)
        for rep in sides:
            if rep.fingerprint != fp:
                raise StaleReportError(
                    f"side-condition report for {rep.algebra_name!r} "
                    f"({rep.fingerprint}) does not match algebra {alg.name!r} ({fp})"
                )
        have = {rep.suite for rep in sides}
        if not {"igkat", "demorgan"} <= have:
            raise ValueError(
                "side reports must cover the 'igkat' and 'demorgan' suites, got "
                + (", ".join(sorted(have)) or "none")
            )
    failing = [
        (rep.suite, law.name) for rep in sides for law, v in rep.entries if not v.ok
    ]
    if failing:
        detail = ", ".join(f"{suite}:{law}" for suite, law in failing)
        raise PreconditionError(
            f"denesting side conditions fail in {alg.name!r}: {detail}"
        )
    start = time.perf_counter()
    entries = tuple(
        (name, eqn, check_quasi_equation(alg, (), eqn, strategy, variables=variables))
        for name, variables, eqn in _denesting_checks()
    )
    elapsed = int((time.perf_counter() - start) * 1000)
    return DenestReport(alg.name, fp, describe_strategy(strategy), sides, entries, elapsed)
