"""Hoare triples, proof-rule schemas, commutation conditions, denesting.

A partial-correctness triple {b} p {c} is encoded as an order statement
``b;p <= b;p;c`` or, equivalently in these algebras, as the equation
``b;p = b;p;c`` (``triple_forms_equivalent`` checks the equivalence holds
pointwise in a given algebra).  The classic proof rules are then plain
quasi-equations between such encodings, so a rule is a ``Law`` (see
laws.py) and model-checking it means enumerating valuations of its schema
variables, in first-occurrence order.

Rule names: Composition, Conditional, WeakenStrengthen, WhileGKAT and
WhileIGKAT (one formula, listed under both names because its soundness
depends on test idempotence and it genuinely fails in graded algebras —
see the ex9 builtin), and the equational variants KAT-Composition,
KAT-Conditional, KAT-While, KAT-Weaken.

Also here, each a ``Law`` checked by ``check_law``: the two triple-form
implications, the three guard-commutation conditions and their six
pairwise implications (the lemma4/lemma6 builtins separate them), the De
Morgan side condition, and the while-loop denesting transformation
together with the sliding and star-denesting identities, guarded by their
side conditions (test idempotence plus De Morgan).  Commutation over the
whole carrier checks the same laws over the all-tests view of the algebra.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .algebra import Algebra, AlgebraError
from .laws import DEMORGAN_LAW, Law, LawReport, _suite_report, check_law, check_laws
from .semantics import (
    Equation,
    Exhaustive,
    Strategy,
    Verdict,
    collect_variables,
    describe_strategy,
)
from .terms import (
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
class RuleSchema(Law):
    """A proof rule: a law with the name ``gkat rule --name`` accepts."""

    cli_name: str


def _rule(
    name: str, cli_name: str, hypotheses: tuple[Equation, ...], conclusion: Equation
) -> RuleSchema:
    variables = collect_variables((*hypotheses, conclusion))
    return RuleSchema(name, variables, hypotheses, conclusion, cli_name)


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
        _rule(
            "Composition",
            "composition",
            (enc(t(_b, _pp, _c)), enc(t(_c, _q, _d))),
            enc(t(_b, Seq(_pp, _q), _d), form="eq"),
        ),
        _rule(
            "Conditional",
            "conditional",
            (enc(t(Seq(_b, _c), _pp, _d)), enc(t(Seq(mk_not(_b), _c), _q, _d))),
            enc(t(_c, if_term, _d)),
        ),
        _rule(
            "WeakenStrengthen",
            "weaken-strengthen",
            (leq(_a, _b), enc(t(_b, _pp, _c)), leq(_c, _d)),
            enc(t(_a, _pp, _d)),
        ),
        _rule(
            "WhileGKAT",
            "while-gkat",
            (enc(t(Seq(_b, _c), _pp, _c)),),
            enc(t(_c, while_term, not_b_and_c)),
        ),
        _rule(
            "WhileIGKAT",
            "while-igkat",
            (enc(t(Seq(_b, _c), _pp, _c)),),
            enc(t(_c, while_term, not_b_and_c)),
        ),
        _rule(
            "KAT-Composition",
            "kat-composition",
            (enc(t(_b, _pp, _c), "eq"), enc(t(_c, _q, _d), "eq")),
            enc(t(_b, Seq(_pp, _q), _d), "eq"),
        ),
        _rule(
            "KAT-Conditional",
            "kat-conditional",
            (
                enc(t(Seq(_b, _c), _pp, _d), "eq"),
                enc(t(Seq(mk_not(_b), _c), _q, _d), "eq"),
            ),
            enc(t(_c, if_term, _d), "eq"),
        ),
        _rule(
            "KAT-While",
            "kat-while",
            (enc(t(Seq(_b, _c), _pp, _c), "eq"),),
            enc(t(_c, while_term, not_b_and_c), "eq"),
        ),
        _rule(
            "KAT-Weaken",
            "kat-weaken",
            (leq(_a, _b), enc(t(_b, _pp, _c), "eq"), leq(_c, _d)),
            enc(t(_a, _pp, _d), "eq"),
        ),
    ]
    return {r.name: r for r in specs}


RULES: dict[str, RuleSchema] = _rules()

#: Consequence of the triple encoding used by the denesting proof: an
#: established postcondition annihilates its own negation.
ANNIHILATION_BRIDGE = _rule(
    "PostconditionAnnihilation",
    "postcondition-annihilation",
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
    return check_law(alg, rule, strategy)


_AS_LEQ = triple_to_equation(HoareTriple(_b, _pp, _c), "leq")
_AS_EQ = triple_to_equation(HoareTriple(_b, _pp, _c), "eq")
_TRIPLE_FORM_LAWS = (
    Law("leq-implies-eq", (_b, _pp, _c), (_AS_LEQ,), _AS_EQ),
    Law("eq-implies-leq", (_b, _pp, _c), (_AS_EQ,), _AS_LEQ),
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

COMMUTATION_NAMES = ("test-commutes", "negation-commutes", "crossings-vanish")

#: The six directed implications, strongest separations first.
COMMUTATION_PAIRS = (
    ("test-commutes", "negation-commutes"),
    ("negation-commutes", "test-commutes"),
    ("test-commutes", "crossings-vanish"),
    ("crossings-vanish", "test-commutes"),
    ("negation-commutes", "crossings-vanish"),
    ("crossings-vanish", "negation-commutes"),
)


def _commutation_laws() -> tuple[Law, ...]:
    """One law per entry of ``COMMUTATION_PAIRS``, in the same order."""
    b, not_b, p = _b, mk_not(_b), _pp
    conds = {
        "test-commutes": Equation(Seq(b, p), Seq(p, b), "eq"),
        "negation-commutes": Equation(Seq(not_b, p), Seq(p, not_b), "eq"),
        "crossings-vanish": Equation(
            Plus(Seq(Seq(b, p), not_b), Seq(Seq(not_b, p), b)), Zero(), "eq"
        ),
    }
    return tuple(
        Law(f"{src} => {dst}", (b, p), (conds[src],), conds[dst])
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
    if b_over not in ("tests", "carrier"):
        raise ValueError(f"b_over must be 'tests' or 'carrier', got {b_over!r}")
    if b_over == "carrier" and not alg.finite:
        raise AlgebraError("carrier-mode commutation checking needs a finite algebra")
    fingerprint = alg.fingerprint()
    view = replace(alg, test_indices=tuple(alg.elements())) if b_over == "carrier" else alg
    verdicts, elapsed = check_laws(view, _commutation_laws(), strategy)
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


def _denesting_laws() -> tuple[Law, ...]:
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
        Law("loop-denesting", (b, c, p, q), (), loop),
        Law("sliding", (p, q), (), sliding),
        Law("star-denesting", (p, q), (), star_denest),
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
    """
    fp = alg.fingerprint()
    sides = tuple(_suite_report(alg, fp, suite, strategy) for suite in ("igkat", "demorgan"))
    failing = [
        (rep.suite, law.name) for rep in sides for law, v in rep.entries if not v.ok
    ]
    if failing:
        detail = ", ".join(f"{suite}:{law}" for suite, law in failing)
        raise PreconditionError(
            f"denesting side conditions fail in {alg.name!r}: {detail}"
        )
    laws = _denesting_laws()
    verdicts, elapsed = check_laws(alg, laws, strategy)
    entries = tuple((law.name, law.conclusion, v) for law, v in zip(laws, verdicts))
    return DenestReport(alg.name, fp, describe_strategy(strategy), sides, entries, elapsed)
