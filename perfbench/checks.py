"""Output checks: every verdict the program returns is held against the oracle.

A verdict arrives as a *claim*, a dict with the keys of ``Verdict.to_dict``
(status, mode, checked, space and, for refutations, counterexample,
lhs_value and rhs_value).  An ``Expect`` says what the oracle knows about
the check: its equations, its variable order, the strategy, and the status
the theory predicts.  ``claim_problems`` returns what is wrong with a claim:

* an exhaustive pass has ``checked == space``, with ``space`` the product of
  the domain sizes counted by the oracle;
* a refutation refutes, and no earlier valuation does: the oracle scans the
  same order up to ``checked`` and must stop at the same counterexample with
  the same lhs and rhs values;
* a sampled pass has ``checked == samples``; a sampled refutation is
  re-evaluated with the oracle's own operations;
* the status agrees with the theory wherever the theory speaks, except
  that a sampled check may miss a refutation;
* with ``deep`` set, a valid exhaustive verdict is recomputed in full.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import oracle

# Law statuses as check-laws prints them, mapped back to verdict statuses.
LAW_WORDS = {"holds": "valid", "fails": "refuted", "sampled-holds": "sampled-valid"}


@dataclass
class Expect:
    view: object  # oracle.Tables for a finite algebra, else a value-level ops object
    hyps: tuple
    concl: tuple
    variables: tuple  # (name, is_test) in enumeration order
    strategy: tuple  # ("exhaustive",), ("sampled", n) or ("auto", cap, n)
    status: Optional[bool] = None  # theory: True holds, False fails, None silent
    carrier: tuple = field(default=())  # test-sorted names ranging over the carrier

    @property
    def finite(self) -> bool:
        return isinstance(self.view, oracle.Tables)

    def space(self) -> Optional[int]:
        if not self.finite:
            return None
        return oracle.space_of(self.view, self.variables, self.carrier)

    def mode(self) -> str:
        kind = self.strategy[0]
        if kind == "auto":
            return "exhaustive" if self.finite and self.space() <= self.strategy[1] else "sampled"
        return kind

    def samples(self) -> int:
        return self.strategy[-1]


def claim_problems(claim: dict, exp: Expect, deep: bool = False) -> list[str]:
    status = LAW_WORDS.get(claim.get("status"), claim.get("status"))
    mode = exp.mode()
    problems = []
    if claim.get("mode") != mode:
        return [f"mode {claim.get('mode')!r}, expected {mode!r}"]
    if claim.get("space") != exp.space():
        problems.append(f"space {claim.get('space')}, oracle counts {exp.space()}")
    # A sampled pass proves nothing, so a law the theory refutes may pass a
    # sampled check; every other disagreement with the theory is a fault.
    enforce = exp.status is not None and (mode == "exhaustive" or exp.status)
    if enforce and (status != "refuted") != exp.status:
        problems.append(f"status {status!r}, theory says it {'holds' if exp.status else 'fails'}")
    checked = claim.get("checked")
    if mode == "exhaustive":
        if status == "valid":
            if checked != exp.space():
                problems.append(f"valid with checked {checked} of space {exp.space()}")
            elif deep:
                got = oracle.check(exp.view, exp.hyps, exp.concl, exp.variables, exp.carrier)
                if got[0] != "valid":
                    problems.append(f"oracle refutes at {got[3]} after {got[1]}")
        elif status == "refuted":
            got = oracle.check(
                exp.view, exp.hyps, exp.concl, exp.variables, exp.carrier, limit=checked
            )
            want = ("refuted", checked, claim.get("counterexample"),
                    claim.get("lhs_value"), claim.get("rhs_value"))
            if (got[0], got[1], got[3], got[4], got[5]) != want:
                problems.append(f"refutation {want[1:]} but the oracle finds {got[:2] + got[3:]}")
        else:
            problems.append(f"status {status!r} from an exhaustive check")
    else:
        if status == "sampled-valid":
            if checked != exp.samples():
                problems.append(f"sampled pass with checked {checked} of {exp.samples()} samples")
        elif status == "refuted":
            if not (isinstance(checked, int) and 1 <= checked <= exp.samples()):
                problems.append(f"sampled refutation at {checked} of {exp.samples()}")
            problems += oracle.confirm_refutation(
                exp.view, exp.hyps, exp.concl, exp.variables,
                claim.get("counterexample") or {}, claim.get("lhs_value"), claim.get("rhs_value"),
            )
        else:
            problems.append(f"status {status!r} from a sampled check")
    return problems


def oracle_cost(exp: Expect) -> int:
    """Valuations a deep recomputation of a valid exhaustive claim scans."""
    return exp.space() if exp.mode() == "exhaustive" else 0


# -- expectations for the program's catalogues -------------------------------------


def law_expect(view, facts_spec: str, law, strategy) -> Expect:
    variables = tuple((v.name, v.sort.value == "test") for v in law.variables)
    return Expect(
        view,
        tuple(oracle.program_equation(h) for h in law.hypotheses),
        oracle.program_equation(law.conclusion),
        variables,
        strategy,
        oracle.law_status(facts_spec, law.name),
    )


def rule_expect(view, facts_spec: str, rule, strategy) -> Expect:
    hyps = tuple(oracle.program_equation(h) for h in rule.hypotheses)
    concl = oracle.program_equation(rule.conclusion)
    return Expect(
        view, hyps, concl, oracle.variables_in_order([*hyps, concl]), strategy,
        oracle.rule_status(facts_spec, rule.name),
    )


def commutation_expect(view, spec: str, src: str, dst: str, carrier: bool, strategy) -> Expect:
    hyp = oracle.equation(oracle.COMMUTATION[src], tests="b", progs="p")
    concl = oracle.equation(oracle.COMMUTATION[dst], tests="b", progs="p")
    status = None
    if not carrier and (src, dst) in oracle.COMMUTATION_ALWAYS:
        status = True
    if (spec, src, dst) in (
        ("lemma4", "negation-commutes", "test-commutes"),
        ("lemma6", "crossings-vanish", "test-commutes"),
    ):
        status = False  # the separating algebras
    return Expect(
        view, (hyp,), concl, (("b", True), ("p", False)), strategy, status,
        carrier=("b",) if carrier else (),
    )


def triple_expects(view, strategy) -> tuple[Expect, Expect]:
    """The two implications between the order and equation triple forms."""
    as_leq = oracle.equation("b;p <= b;p;c", tests="b c", progs="p")
    as_eq = oracle.equation("b;p = b;p;c", tests="b c", progs="p")
    order = (("b", True), ("p", False), ("c", True))
    return (
        Expect(view, (as_leq,), as_eq, order, strategy, True),
        Expect(view, (as_eq,), as_leq, order, strategy, True),
    )


def denesting_expects(view, strategy) -> dict[str, Expect]:
    out = {}
    for name, order, text in oracle.DENESTING:
        variables = tuple((v, v in ("b", "c")) for v in order.split())
        concl = oracle.equation(text, tests="b c", progs="p q")
        out[name] = Expect(view, (), concl, variables, strategy, True)
    return out


def side_conditions_hold(facts_spec: str) -> bool:
    """Denesting is claimed under test idempotence and De Morgan."""
    idem, _, de_morgan = oracle.facts(facts_spec)
    return idem and de_morgan


def fingerprint_problems(alg, claimed: str) -> list[str]:
    want = oracle.fingerprint(oracle.Tables(alg))
    return [] if claimed == want else [f"{alg.name}: fingerprint {claimed}, oracle {want}"]
