"""Tests for triples, rule schemas, commutation, De Morgan, and denesting."""

from __future__ import annotations

import hashlib
from dataclasses import replace

import pytest

from gkat_workbench import hoare
from gkat_workbench.algebra import AlgebraError
from gkat_workbench.hoare import (
    ALL_RULES,
    ANNIHILATION_BRIDGE,
    COMMUTATION_NAMES,
    RULES,
    CommutationReport,
    PreconditionError,
    check_demorgan,
    check_rule,
    commutation_conditions,
    denesting_equivalence,
    rule_schema,
    triple_forms_equivalent,
)
from gkat_workbench.instances import STANDARD_FINITE, make_builtin
from gkat_workbench.laws import SUITES, Law
from gkat_workbench.semantics import Equation, check_quasi_equation
from gkat_workbench.terms import Seq, Sort, Var


# ---------------------------------------------------------------------------
# Triples and their encodings
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("spec", STANDARD_FINITE)
def test_triple_forms_agree_pointwise(spec: str) -> None:
    fwd, bwd = triple_forms_equivalent(make_builtin(spec))
    assert fwd.ok and bwd.ok


def test_one_sided_encoding_is_not_equivalent() -> None:
    # Requiring only b;p <= p;c does not pin down the triple: in ex9 take
    # b = c = m and p = 1; then m;1 = m <= 1;m holds but m;1;m = 0 != m.
    b, c = Var("b", Sort.TEST), Var("c", Sort.TEST)
    p = Var("p", Sort.PROGRAM)
    hyp = Equation(Seq(b, p), Seq(p, c), "leq")
    concl = Equation(Seq(b, p), Seq(Seq(b, p), c), "eq")
    v = check_quasi_equation(make_builtin("ex9"), (hyp,), concl)
    assert v.status == "refuted"
    assert v.counterexample == {"b": "m", "p": "1", "c": "m"}
    assert (v.lhs_value, v.rhs_value) == ("m", "0")
    assert (v.checked, v.space) == (23, 36)


# ---------------------------------------------------------------------------
# Rule schemas
# ---------------------------------------------------------------------------


def test_rule_lookup_by_either_name() -> None:
    assert rule_schema("WhileGKAT") is RULES["WhileGKAT"]
    assert rule_schema("while-gkat") is RULES["WhileGKAT"]
    assert rule_schema("While-GKAT") is RULES["WhileGKAT"]
    assert rule_schema("postcondition-annihilation") is ANNIHILATION_BRIDGE
    with pytest.raises(KeyError, match="known rules:.*kat-weaken"):
        rule_schema("nonesuch")


def test_the_annihilation_bridge_is_not_a_listed_rule() -> None:
    assert ANNIHILATION_BRIDGE.name not in RULES
    assert ANNIHILATION_BRIDGE.render() == "b;p = b;p;c  =>  b;p;!c = 0"


@pytest.mark.parametrize("spec", ["ex9", "lemma4"])
def test_a_rule_is_a_law_checked_as_its_quasi_equation(spec: str) -> None:
    # The rule binds its variables in the order the bare check would.
    alg = make_builtin(spec)
    for rule in ALL_RULES:
        assert isinstance(rule, Law)
        assert check_rule(alg, rule) == check_quasi_equation(
            alg, rule.hypotheses, rule.conclusion
        )


def test_catalogue_trees_are_pinned() -> None:
    # Every catalogue law is written as text; this pins the trees, names and
    # variable orders the text parses to, which the verdicts alone need not.
    catalogue = (
        *ALL_RULES,
        *hoare._TRIPLE_FORM_LAWS,
        *hoare._COMMUTATION_LAWS,
        *hoare._DENESTING_LAWS,
        *(law for suite in sorted(SUITES) for law in SUITES[suite]),
    )
    assert len(catalogue) == 90
    digest = hashlib.sha256("\n".join(map(repr, catalogue)).encode()).hexdigest()
    assert digest == "009a24b7e170ae83b82095911d22d20a3bd4936d6bf634973f4be9445e7bac45"


def test_while_rules_share_one_formula() -> None:
    assert RULES["WhileGKAT"].render() == RULES["WhileIGKAT"].render()


@pytest.mark.parametrize("spec", STANDARD_FINITE)
@pytest.mark.parametrize("name", ["composition", "conditional", "weaken-strengthen"])
def test_core_rules_hold_everywhere(spec: str, name: str) -> None:
    v = check_rule(make_builtin(spec), rule_schema(name))
    assert v.status == "valid"


def test_while_rule_fails_in_ex9() -> None:
    v = check_rule(make_builtin("ex9"), rule_schema("while-gkat"))
    assert v.status == "refuted"
    assert v.counterexample == {"b": "0", "c": "m", "p": "0"}
    assert (v.lhs_value, v.rhs_value) == ("m", "0")
    assert (v.checked, v.space) == (5, 36)


def test_while_rule_holds_under_test_idempotence() -> None:
    v = check_rule(make_builtin("chain3"), rule_schema("while-igkat"))
    assert v.status == "valid"
    assert (v.checked, v.space) == (27, 27)


@pytest.mark.parametrize("spec", ["bool2", "powerset:xy"])
@pytest.mark.parametrize(
    "name", ["kat-composition", "kat-conditional", "kat-while", "kat-weaken"]
)
def test_equational_rules_hold_in_boolean_algebras(spec: str, name: str) -> None:
    assert check_rule(make_builtin(spec), rule_schema(name)).status == "valid"


@pytest.mark.parametrize("spec", STANDARD_FINITE)
def test_annihilation_bridge_holds_everywhere(spec: str) -> None:
    assert check_rule(make_builtin(spec), ANNIHILATION_BRIDGE).status == "valid"


# ---------------------------------------------------------------------------
# Commutation conditions
# ---------------------------------------------------------------------------


def _by_pair(rep: CommutationReport) -> dict[tuple[str, str], object]:
    return {(src, dst): v for src, dst, v in rep.entries}


def test_commutation_separations_with_a_left_absorbing_pair() -> None:
    rep = commutation_conditions(make_builtin("lemma4"))
    got = _by_pair(rep)
    assert len(got) == 6
    refuted = {pair for pair, v in got.items() if v.status == "refuted"}
    assert refuted == {
        ("negation-commutes", "test-commutes"),
        ("crossings-vanish", "test-commutes"),
    }
    v = got[("negation-commutes", "test-commutes")]
    assert v.counterexample == {"b": "m", "p": "n"}
    assert (v.lhs_value, v.rhs_value) == ("n", "0")
    assert (v.checked, v.space) == (6, 12)


def test_commutation_separations_with_a_right_absorbing_pair() -> None:
    rep = commutation_conditions(make_builtin("lemma6"))
    got = _by_pair(rep)
    refuted = {pair for pair, v in got.items() if v.status == "refuted"}
    assert refuted == {
        ("crossings-vanish", "test-commutes"),
        ("crossings-vanish", "negation-commutes"),
    }
    v = got[("crossings-vanish", "negation-commutes")]
    assert v.counterexample == {"b": "n", "p": "m"}
    assert (v.lhs_value, v.rhs_value) == ("n", "0")
    assert (v.checked, v.space) == (7, 12)


def test_commutation_over_the_whole_carrier() -> None:
    # With b ranging over all of lemma4 (not just its tests) the negated
    # guard is the raw residual into 0 and the witnesses move.
    rep = commutation_conditions(make_builtin("lemma4"), b_over="carrier")
    got = _by_pair(rep)
    v = got[("negation-commutes", "test-commutes")]
    assert v.status == "refuted"
    assert v.counterexample == {"b": "n", "p": "m"}
    assert (v.lhs_value, v.rhs_value) == ("0", "n")
    assert (v.checked, v.space) == (7, 16)


def test_carrier_mode_builds_the_all_tests_view_once(monkeypatch) -> None:
    from gkat_workbench import algebra

    built = []
    monkeypatch.setattr(algebra, "replace", lambda *a, **kw: built.append(a) or replace(*a, **kw))
    alg = make_builtin("lemma4")
    first = commutation_conditions(alg, b_over="carrier")
    second = commutation_conditions(alg, b_over="carrier")
    assert len(built) == 1
    assert replace(first, elapsed_ms=0) == replace(second, elapsed_ms=0)


def test_carrier_mode_reports_the_input_algebras_fingerprint() -> None:
    alg = make_builtin("lemma4")
    assert commutation_conditions(alg, b_over="carrier").fingerprint == alg.fingerprint()


def test_commutation_report_shape() -> None:
    rep = commutation_conditions(make_builtin("bool2"))
    assert all(v.ok for _, _, v in rep.entries)
    assert rep.verdict("test-commutes", "negation-commutes").status == "valid"
    with pytest.raises(KeyError, match="no implication"):
        rep.verdict("test-commutes", "test-commutes")
    d = rep.to_dict()
    assert {imp["from"] for imp in d["implications"]} <= set(COMMUTATION_NAMES)
    assert len(d["implications"]) == 6
    assert d["b_over"] == "tests"


def test_commutation_argument_validation() -> None:
    with pytest.raises(ValueError, match="b_over"):
        commutation_conditions(make_builtin("bool2"), b_over="programs")
    with pytest.raises(AlgebraError, match="needs a finite algebra"):
        commutation_conditions(make_builtin("product"), b_over="carrier")


# ---------------------------------------------------------------------------
# De Morgan
# ---------------------------------------------------------------------------


def test_demorgan_holds_in_bool2_but_not_ex9() -> None:
    assert check_demorgan(make_builtin("bool2")).status == "valid"
    v = check_demorgan(make_builtin("ex9"))
    assert v.status == "refuted"
    assert v.counterexample == {"a": "m", "b": "m"}
    assert (v.lhs_value, v.rhs_value) == ("m", "0")
    assert (v.checked, v.space) == (5, 9)


# ---------------------------------------------------------------------------
# Loop denesting
# ---------------------------------------------------------------------------


def test_denesting_passes_where_side_conditions_hold() -> None:
    rep = denesting_equivalence(make_builtin("chain3"))
    assert rep.ok
    assert tuple(name for name, _, _ in rep.entries) == (
        "loop-denesting",
        "sliding",
        "star-denesting",
    )
    assert all(v.status == "valid" for _, _, v in rep.entries)
    d = rep.to_dict()
    assert set(d) == {
        "algebra",
        "fingerprint",
        "strategy",
        "side_conditions",
        "checks",
        "ok",
        "elapsed_ms",
    }
    assert [c["name"] for c in d["checks"]] == [
        "loop-denesting",
        "sliding",
        "star-denesting",
    ]


def test_denesting_refuses_ex9() -> None:
    with pytest.raises(
        PreconditionError,
        match="denesting side conditions fail in 'ex9': igkat:test-idem, demorgan:de-morgan",
    ):
        denesting_equivalence(make_builtin("ex9"))
