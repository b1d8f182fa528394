"""Hoare triples, proof-rule schemas, commutation conditions, denesting.

A partial-correctness triple {b} p {c} is encoded, after Kozen, as the
order statement ``b;p <= b;p;c`` or, equivalently in these algebras, as
the equation ``b;p = b;p;c`` (``triple_forms_equivalent`` checks the
equivalence holds pointwise in a given algebra).  The classic proof rules
are then plain quasi-equations between such encodings, written here in the
law syntax of laws.py, so a rule is a ``Law`` and model-checking it means
enumerating valuations of its schema variables, in first-occurrence order.

Rule names: Composition, Conditional, WeakenStrengthen, WhileGKAT and
WhileIGKAT (one formula, listed under both names because its soundness
depends on test idempotence and it genuinely fails in graded algebras —
see the ex9 builtin), and the equational variants KAT-Composition,
KAT-Conditional, KAT-While, KAT-Weaken.

Also here, each a ``Law`` checked by ``check_law``: the two triple-form
implications, the three guard-commutation conditions and their six
pairwise implications (the lemma4/lemma6 builtins separate them), the De
Morgan side condition, and the while-loop denesting transformation, whose
two sides are while-programs, together with the sliding and star-denesting
identities, guarded by their side conditions (test idempotence plus De
Morgan).  Commutation over the whole carrier checks the same laws over the
all-tests view of the algebra.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .algebra import Algebra, AlgebraError
from .laws import (
    _SORTS,
    DEMORGAN_LAW,
    Law,
    LawReport,
    _law,
    _suite_report,
    check_law,
    check_laws,
    parse_equation,
)
from .semantics import Equation, Exhaustive, Strategy, Verdict, describe_strategy
from .terms import Var, free_vars, parse_program

# --- rule schemas ---------------------------------------------------------


@dataclass(frozen=True)
class RuleSchema(Law):
    """A proof rule: a law with the name ``gkat rule --name`` accepts."""

    cli_name: str


def _rule(name: str, cli_name: str, conclusion: str, *hypotheses: str) -> RuleSchema:
    """A rule over its variables in first-occurrence order, hypotheses first."""
    hyps = tuple(parse_equation(h, _SORTS) for h in hypotheses)
    concl = parse_equation(conclusion, _SORTS)
    variables = free_vars(*(t for e in (*hyps, concl) for t in (e.lhs, e.rhs)))
    return RuleSchema(name, variables, hyps, concl, cli_name)


# {b} p {c} reads b;p <= b;p;c, and b;p = b;p;c in the KAT- variants.
# b;p+!b;q and (b;p)*;!b are the terms parse_program gives for
# "if b then { p } else { q }" and "while b do { p }".
RULES: dict[str, RuleSchema] = {r.name: r for r in (
    _rule("Composition", "composition",
          "b;(p;q) = b;(p;q);d", "b;p <= b;p;c", "c;q <= c;q;d"),
    _rule("Conditional", "conditional",
          "c;(b;p+!b;q) <= c;(b;p+!b;q);d", "b;c;p <= b;c;p;d", "!b;c;q <= !b;c;q;d"),
    _rule("WeakenStrengthen", "weaken-strengthen",
          "a;p <= a;p;d", "a <= b", "b;p <= b;p;c", "c <= d"),
    _rule("WhileGKAT", "while-gkat",
          "c;((b;p)*;!b) <= c;((b;p)*;!b);(!b;c)", "b;c;p <= b;c;p;c"),
    _rule("WhileIGKAT", "while-igkat",
          "c;((b;p)*;!b) <= c;((b;p)*;!b);(!b;c)", "b;c;p <= b;c;p;c"),
    _rule("KAT-Composition", "kat-composition",
          "b;(p;q) = b;(p;q);d", "b;p = b;p;c", "c;q = c;q;d"),
    _rule("KAT-Conditional", "kat-conditional",
          "c;(b;p+!b;q) = c;(b;p+!b;q);d", "b;c;p = b;c;p;d", "!b;c;q = !b;c;q;d"),
    _rule("KAT-While", "kat-while",
          "c;((b;p)*;!b) = c;((b;p)*;!b);(!b;c)", "b;c;p = b;c;p;c"),
    _rule("KAT-Weaken", "kat-weaken",
          "a;p = a;p;d", "a <= b", "b;p = b;p;c", "c <= d"),
)}

#: Consequence of the triple encoding used by the denesting proof: an
#: established postcondition annihilates its own negation.
ANNIHILATION_BRIDGE = _rule(
    "PostconditionAnnihilation", "postcondition-annihilation", "b;p;!c = 0", "b;p = b;p;c"
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
    return check_law(alg, rule, strategy)


_TRIPLE_FORM_LAWS = (
    _law("leq-implies-eq", "b p c", "b;p = b;p;c", "b;p <= b;p;c"),
    _law("eq-implies-leq", "b p c", "b;p <= b;p;c", "b;p = b;p;c"),
)


def triple_forms_equivalent(
    alg: Algebra, strategy: Strategy = Exhaustive()
) -> tuple[Verdict, Verdict]:
    """Check that the two triple encodings agree pointwise.

    Returns verdicts for the two implications (order form implies equation
    form, and back); both valid means the forms pick out the same triples.
    """
    fwd, bwd = (check_law(alg, law, strategy) for law in _TRIPLE_FORM_LAWS)
    return fwd, bwd


# --- commutation conditions -----------------------------------------------

_COMMUTATION_CONDITIONS = {
    "test-commutes": "b;p = p;b",
    "negation-commutes": "!b;p = p;!b",
    "crossings-vanish": "b;p;!b+!b;p;b = 0",
}

COMMUTATION_NAMES = tuple(_COMMUTATION_CONDITIONS)

#: The six directed implications, strongest separations first.
COMMUTATION_PAIRS = (
    ("test-commutes", "negation-commutes"),
    ("negation-commutes", "test-commutes"),
    ("test-commutes", "crossings-vanish"),
    ("crossings-vanish", "test-commutes"),
    ("negation-commutes", "crossings-vanish"),
    ("crossings-vanish", "negation-commutes"),
)

#: One law per entry of ``COMMUTATION_PAIRS``, in the same order.
_COMMUTATION_LAWS = tuple(
    _law(f"{src} => {dst}", "b p", _COMMUTATION_CONDITIONS[dst], _COMMUTATION_CONDITIONS[src])
    for src, dst in COMMUTATION_PAIRS
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


B_OVER = ("tests", "carrier")


def commutation_conditions(
    alg: Algebra,
    strategy: Strategy = Exhaustive(),
    b_over: str = "tests",
) -> CommutationReport:
    """Check all six implications between the guard-commutation conditions.

    ``b_over`` picks the range of the guard variable: ``"tests"`` (the
    declared test sort) or ``"carrier"``, which checks the same laws over
    the view of ``alg`` in which every element is a test, so that b runs
    over every element and !b reads the stored arrow table — the mode that
    reproduces printed witnesses whose b is not a test.  Carrier mode needs
    a finite algebra; its report carries ``alg``'s own fingerprint.
    """
    if b_over not in B_OVER:
        raise ValueError(f"b_over must be {' or '.join(map(repr, B_OVER))}, got {b_over!r}")
    if b_over == "carrier" and not alg.finite:
        raise AlgebraError("carrier-mode commutation checking needs a finite algebra")
    fingerprint = alg.fingerprint()
    view = alg.all_tests_view() if b_over == "carrier" else alg
    verdicts, elapsed = check_laws(view, _COMMUTATION_LAWS, strategy)
    entries = tuple((src, dst, v) for (src, dst), v in zip(COMMUTATION_PAIRS, verdicts))
    return CommutationReport(
        alg.name, fingerprint, b_over, describe_strategy(strategy), entries, elapsed
    )


# --- De Morgan and denesting ----------------------------------------------


def check_demorgan(alg: Algebra, strategy: Strategy = Exhaustive()) -> Verdict:
    """Check !(a+b) = !a;!b over the tests."""
    return check_law(alg, DEMORGAN_LAW, strategy)


class PreconditionError(AlgebraError):
    """A transformation's side conditions fail in the given algebra."""


_DENESTING_LAWS = (
    Law(
        "loop-denesting",
        tuple(Var(v, _SORTS[v]) for v in "bcpq"),
        (),
        Equation(
            parse_program("while b do { p; while c do { q } }", _SORTS),
            parse_program("if b then { p; while b+c do { if c then { q } else { p } } }", _SORTS),
            "eq",
        ),
    ),
    _law("sliding", "p q", "p;(q;p)* = (p;q)*;p"),
    _law("star-denesting", "p q", "p*;(q;p*)* = (p+q)*"),
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


def denesting_equivalence(alg: Algebra, strategy: Strategy = Exhaustive()) -> DenestReport:
    """Check the loop-denesting transformation and its star identities.

    The transformation is only claimed under test idempotence and the
    De Morgan law, so those side conditions (the ``igkat`` and ``demorgan``
    suites) are verified first; failing ones raise ``PreconditionError``.
    The fingerprint is computed only for a report, since a refusal has none.
    """
    sides = tuple(_suite_report(alg, "", suite, strategy) for suite in ("igkat", "demorgan"))
    failing = [
        (rep.suite, law.name) for rep in sides for law, v in rep.entries if not v.ok
    ]
    if failing:
        detail = ", ".join(f"{suite}:{law}" for suite, law in failing)
        raise PreconditionError(
            f"denesting side conditions fail in {alg.name!r}: {detail}"
        )
    verdicts, elapsed = check_laws(alg, _DENESTING_LAWS, strategy)
    entries = tuple(
        (law.name, law.conclusion, v) for law, v in zip(_DENESTING_LAWS, verdicts)
    )
    fp = alg.fingerprint()
    sides = tuple(replace(rep, fingerprint=fp) for rep in sides)
    return DenestReport(alg.name, fp, describe_strategy(strategy), sides, entries, elapsed)
