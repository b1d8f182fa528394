"""Law catalogue, suite runner, and algebra classification.

The suites form a chain: ``kleene`` (idempotent-semiring plus iteration
laws) is contained in ``gkat`` (adds the test laws: residuation of ; by ->
on tests, boundedness, commutation), which is contained in ``igkat``
(adds test idempotence a;a = a), which is contained in ``kat`` (adds the
excluded-middle law a + !a = 1).  ``derived`` collects consequences that
any algebra passing ``gkat`` must also satisfy, and ``demorgan`` is the
negation-of-join law used as a side condition by loop denesting.

Nothing is ever assumed: every law is model-checked over the given
algebra.  ``classify`` checks the ``gkat`` laws, then test idempotence,
then excluded middle, and stops at the first law that fails: the algebra
lies in the class just below that law's suite, and the failing verdict is
the discriminating counterexample.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Mapping, Optional, Sequence, Union

from .algebra import Algebra
from .semantics import (
    Auto,
    Equation,
    Exhaustive,
    Strategy,
    Verdict,
    check_quasi_equation,
    describe_strategy,
)
from .terms import Sort, Term, Var, parse_term

_SORTS = {
    "p": Sort.PROGRAM,
    "q": Sort.PROGRAM,
    "r": Sort.PROGRAM,
    "s": Sort.PROGRAM,
    "a": Sort.TEST,
    "b": Sort.TEST,
    "c": Sort.TEST,
    "d": Sort.TEST,
}


def parse_equation(text: str, sorts: Mapping[str, Sort]) -> Equation:
    """Parse "lhs = rhs" or "lhs <= rhs" over variables of the given sorts."""
    if "<=" in text:
        lhs, rhs = text.split("<=", 1)
        rel = "leq"
    elif "=" in text:
        lhs, rhs = text.split("=", 1)
        rel = "eq"
    else:
        raise ValueError(f"equation needs '=' or '<=': {text!r}")
    return Equation(parse_term(lhs, sorts), parse_term(rhs, sorts), rel)


@dataclass(frozen=True)
class Law:
    """A named (quasi-)equation with a fixed variable order."""

    name: str
    variables: tuple[Var, ...]
    hypotheses: tuple[Equation, ...]
    conclusion: Equation

    def render(self) -> str:
        concl = self.conclusion.render()
        if not self.hypotheses:
            return concl
        return " & ".join(h.render() for h in self.hypotheses) + "  =>  " + concl


def _law(name: str, var_names: str, conclusion: str, *hypotheses: str) -> Law:
    variables = tuple(Var(v, _SORTS[v]) for v in var_names.split())
    hyps = tuple(parse_equation(h, _SORTS) for h in hypotheses)
    return Law(name, variables, hyps, parse_equation(conclusion, _SORTS))


KLEENE_LAWS: tuple[Law, ...] = (
    _law("plus-assoc", "p q r", "p+(q+r) = (p+q)+r"),
    _law("plus-comm", "p q", "p+q = q+p"),
    _law("seq-assoc", "p q r", "p;(q;r) = (p;q);r"),
    _law("seq-unit-right", "p", "p;1 = p"),
    _law("seq-unit-left", "p", "1;p = p"),
    _law("left-distrib", "p q r", "p;(q+r) = p;q+p;r"),
    _law("right-distrib", "p q r", "(p+q);r = p;r+q;r"),
    _law("seq-zero-right", "p", "p;0 = 0"),
    _law("seq-zero-left", "p", "0;p = 0"),
    _law("star-unfold", "p", "1+p;p* = p*"),
    _law("star-ind-left", "p q r", "p*;q <= r", "q+p;r <= r"),
    _law("star-ind-right", "p q r", "q;p* <= r", "q+r;p <= r"),
)

TEST_LAWS: tuple[Law, ...] = (
    _law("residuation-fwd", "a b c", "b <= a->c", "a;b <= c"),
    _law("residuation-bwd", "a b c", "a;b <= c", "b <= a->c"),
    _law("test-bound", "a", "a <= 1"),
    _law("test-comm", "a b", "a;b = b;a"),
)

TEST_IDEM_LAW = _law("test-idem", "a", "a;a = a")
EXCLUDED_MIDDLE_LAW = _law("excluded-middle", "a", "a+!a = 1")

DERIVED_LAWS: tuple[Law, ...] = (
    _law("plus-idem", "p", "p+p = p"),
    _law("plus-zero", "p", "p+0 = p"),
    _law("star-unfold-right", "p", "1+p*;p = p*"),
    _law("plus-monotone", "p q r s", "p+r <= q+s", "p <= q", "r <= s"),
    _law("test-contradiction", "a", "a;!a = 0"),
)

DEMORGAN_LAW = _law("de-morgan", "a b", "!(a+b) = !a;!b")

SUITES: dict[str, tuple[Law, ...]] = {
    "kleene": KLEENE_LAWS,
    "gkat": KLEENE_LAWS + TEST_LAWS,
    "igkat": KLEENE_LAWS + TEST_LAWS + (TEST_IDEM_LAW,),
    "kat": KLEENE_LAWS + TEST_LAWS + (TEST_IDEM_LAW, EXCLUDED_MIDDLE_LAW),
    "derived": DERIVED_LAWS,
    "demorgan": (DEMORGAN_LAW,),
}

LAW_STATUS = {"valid": "holds", "refuted": "fails", "sampled-valid": "sampled-holds"}


@dataclass(frozen=True)
class LawReport:
    algebra_name: str
    fingerprint: str
    suite: str
    strategy: dict
    entries: tuple[tuple[Law, Verdict], ...]
    elapsed_ms: int

    @property
    def ok(self) -> bool:
        return all(v.ok for _, v in self.entries)

    def failing(self) -> tuple[tuple[Law, Verdict], ...]:
        return tuple((law, v) for law, v in self.entries if not v.ok)

    def to_dict(self) -> dict:
        return {
            "algebra": self.algebra_name,
            "fingerprint": self.fingerprint,
            "suite": self.suite,
            "strategy": self.strategy,
            "laws": [
                {
                    "name": law.name,
                    "statement": law.render(),
                    "status": LAW_STATUS[v.status],
                    **{k: val for k, val in v.to_dict().items() if k != "status"},
                }
                for law, v in self.entries
            ],
            "ok": self.ok,
            "elapsed_ms": self.elapsed_ms,
        }


def check_law(alg: Algebra, law: Law, strategy: Strategy = Exhaustive()) -> Verdict:
    return check_quasi_equation(
        alg, law.hypotheses, law.conclusion, strategy, variables=law.variables
    )


def check_laws(
    alg: Algebra, laws: Sequence[Law], strategy: Strategy = Exhaustive()
) -> tuple[tuple[Verdict, ...], int]:
    """Check each law in turn; the verdicts and the ``elapsed_ms`` they took."""
    start = time.perf_counter()
    verdicts = tuple(check_law(alg, law, strategy) for law in laws)
    return verdicts, int((time.perf_counter() - start) * 1000)


def run_law_suite(
    alg: Algebra,
    suite: Union[str, Sequence[Law]],
    strategy: Strategy = Exhaustive(),
) -> LawReport:
    """Check every law of a suite against ``alg`` and report per-law verdicts."""
    return _suite_report(alg, alg.fingerprint(), suite, strategy)


def _suite_report(
    alg: Algebra, fingerprint: str, suite: Union[str, Sequence[Law]], strategy: Strategy
) -> LawReport:
    """``run_law_suite`` for a caller that already holds ``alg``'s fingerprint."""
    if isinstance(suite, str):
        try:
            laws: Sequence[Law] = SUITES[suite]
        except KeyError:
            raise ValueError(
                f"unknown suite {suite!r}; expected one of {', '.join(sorted(SUITES))}"
            ) from None
        suite_name = suite
    else:
        laws = tuple(suite)
        suite_name = "custom"
    verdicts, elapsed = check_laws(alg, laws, strategy)
    return LawReport(
        alg.name, fingerprint, suite_name, describe_strategy(strategy),
        tuple(zip(laws, verdicts)), elapsed,
    )


@dataclass(frozen=True)
class Classification:
    algebra_name: str
    class_name: str
    witness_law: Optional[str]
    witness: Optional[Verdict]

    def to_dict(self) -> dict:
        out: dict = {
            "algebra": self.algebra_name,
            "class": self.class_name,
        }
        if self.witness_law is not None and self.witness is not None:
            out["witness"] = {"law": self.witness_law, **self.witness.to_dict()}
        return out


def classify(alg: Algebra, strategy: Strategy = Auto()) -> Classification:
    """Place ``alg`` in the strongest class whose laws all pass.

    The suites are nested, so the gkat laws, test idempotence and excluded
    middle are checked in that order up to the first that fails, the
    witness: for example the test-idempotence counterexample of an algebra
    that is graded but not idempotent.
    """
    for class_name, law in (*(("NotGKAT", gkat_law) for gkat_law in SUITES["gkat"]),
                            ("GKAT-not-IGKAT", TEST_IDEM_LAW),
                            ("IGKAT-not-KAT", EXCLUDED_MIDDLE_LAW)):
        verdict = check_law(alg, law, strategy)
        if not verdict.ok:
            return Classification(alg.name, class_name, law.name, verdict)
    return Classification(alg.name, "KAT", None, None)
