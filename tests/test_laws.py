"""Law suites and the classification of the shipped algebras."""

from __future__ import annotations

import json

import pytest

from gkat_workbench import (
    Auto,
    Exhaustive,
    FiniteAlgebra,
    classify,
    fset_algebra,
    make_builtin,
    run_law_suite,
    star_lfp,
)
from gkat_workbench import laws
from gkat_workbench.instances import STANDARD_FINITE
from gkat_workbench.laws import SUITES, check_law, parse_equation
from gkat_workbench.terms import Sort


def _names(suite: str) -> list[str]:
    return [law.name for law in SUITES[suite]]


def test_suite_layering():
    kleene, gkat, igkat, kat = (_names(s) for s in ("kleene", "gkat", "igkat", "kat"))
    assert set(kleene) < set(gkat) < set(igkat) < set(kat)
    assert "residuation-fwd" in gkat and "residuation-fwd" not in kleene
    assert "test-idem" in igkat and "test-idem" not in gkat
    assert "excluded-middle" in kat and "excluded-middle" not in igkat


def test_unknown_suite_is_rejected():
    with pytest.raises(ValueError, match="unknown suite"):
        run_law_suite(make_builtin("bool2"), "boolean")


@pytest.mark.parametrize("spec", STANDARD_FINITE)
def test_every_shipped_algebra_is_graded(spec):
    rep = run_law_suite(make_builtin(spec), "gkat", Exhaustive())
    assert rep.ok, [law.name for law, _ in rep.failing()]


@pytest.mark.parametrize("spec", STANDARD_FINITE)
def test_derived_laws_follow_on_every_shipped_algebra(spec):
    assert run_law_suite(make_builtin(spec), "derived", Exhaustive()).ok


# Strongest true class and its discriminating witness, per algebra.
CLASSIFICATION = {
    "bool2": ("KAT", None, None),
    "chain3": ("IGKAT-not-KAT", "excluded-middle", {"a": "u"}),
    "powerset:xy": ("KAT", None, None),
    "luka:5": ("GKAT-not-IGKAT", "test-idem", {"a": "1/5"}),
    "godel:5": ("IGKAT-not-KAT", "excluded-middle", {"a": "1/5"}),
    "wajsberg:4": ("GKAT-not-IGKAT", "test-idem", {"a": "a^1"}),
    "ex9": ("GKAT-not-IGKAT", "test-idem", {"a": "m"}),
    "lemma4": ("IGKAT-not-KAT", "excluded-middle", {"a": "m"}),
    "lemma6": ("GKAT-not-IGKAT", "test-idem", {"a": "n"}),
}


@pytest.mark.parametrize("spec", sorted(CLASSIFICATION))
def test_classification_with_witness(spec):
    want_class, want_law, want_vals = CLASSIFICATION[spec]
    cls = classify(make_builtin(spec), Exhaustive())
    assert cls.class_name == want_class
    assert cls.witness_law == want_law
    if want_vals is None:
        assert cls.witness is None
    else:
        assert cls.witness.counterexample == want_vals


def test_classification_of_non_graded_tables():
    # A two-element carrier whose composition forgets its unit entirely.
    alg = FiniteAlgebra(
        name="unitless",
        element_names=("0", "1"),
        test_indices=(0, 1),
        zero=0,
        one=1,
        plus_table=((0, 1), (1, 1)),
        seq_table=((0, 0), (0, 0)),
        arrow_table=((1, 1), (0, 1)),
        star_table=(1, 1),
    )
    cls = classify(alg, Exhaustive())
    assert cls.class_name == "NotGKAT"
    assert cls.witness_law == "seq-unit-right"
    assert cls.witness.counterexample == {"p": "1"}


def test_classify_stops_at_the_first_failing_law(monkeypatch):
    # Both elements are tests, and plus is the left projection: associative,
    # but not commutative.  No law after plus-comm is checked.
    alg = FiniteAlgebra(
        name="left-projection",
        element_names=("0", "1"),
        test_indices=(0, 1),
        zero=0,
        one=1,
        plus_table=((0, 0), (1, 1)),
        seq_table=((0, 0), (0, 1)),
        arrow_table=((1, 1), (0, 1)),
        star_table=(1, 1),
    )
    checked = []
    check_law = laws.check_law

    def counting(alg, law, strategy):
        checked.append(law.name)
        return check_law(alg, law, strategy)

    monkeypatch.setattr(laws, "check_law", counting)
    cls = classify(alg, Exhaustive())
    assert (cls.class_name, cls.witness_law) == ("NotGKAT", "plus-comm")
    assert checked == ["plus-assoc", "plus-comm"]


def test_specific_witness_values():
    ex9 = classify(make_builtin("ex9"), Exhaustive())
    assert (ex9.witness.lhs_value, ex9.witness.rhs_value) == ("0", "m")
    chain3 = classify(make_builtin("chain3"), Exhaustive())
    assert (chain3.witness.lhs_value, chain3.witness.rhs_value) == ("u", "1")


def test_igkat_report_carries_both_extra_laws():
    rep = run_law_suite(make_builtin("godel:5"), "igkat", Exhaustive())
    names = [law.name for law, _ in rep.entries]
    assert names.index("test-idem") > names.index("test-comm")
    assert rep.ok


def test_demorgan_suite_results():
    assert run_law_suite(make_builtin("bool2"), "demorgan", Exhaustive()).ok
    assert run_law_suite(make_builtin("godel:4"), "demorgan", Exhaustive()).ok
    rep = run_law_suite(make_builtin("ex9"), "demorgan", Exhaustive())
    assert not rep.ok
    _, verdict = rep.failing()[0]
    assert verdict.counterexample == {"a": "m", "b": "m"}


def test_report_dict_is_json_serialisable():
    rep = run_law_suite(make_builtin("bool2"), "gkat", Exhaustive())
    blob = json.loads(json.dumps(rep.to_dict()))
    assert blob["algebra"] == "bool2"
    assert blob["fingerprint"].startswith("sha256:")
    assert blob["ok"] is True
    assert {law["status"] for law in blob["laws"]} == {"holds"}
    assert blob["strategy"] == {"mode": "exhaustive", "cap": 10**8}


def test_custom_law_list_runs():
    from gkat_workbench.laws import TEST_IDEM_LAW

    rep = run_law_suite(make_builtin("luka:5"), (TEST_IDEM_LAW,), Exhaustive())
    assert rep.suite == "custom"
    assert not rep.ok


def test_parse_equation_reads_both_relations_and_rejects_neither():
    sorts = {"p": Sort.PROGRAM, "a": Sort.TEST}
    assert parse_equation("p;a <= p", sorts).rel == "leq"
    assert parse_equation("a;a = a", sorts).rel == "eq"
    with pytest.raises(ValueError, match="equation needs '=' or '<='"):
        parse_equation("p;a", sorts)


def _test_subalgebra(base: FiniteAlgebra) -> FiniteAlgebra:
    """The tests of ``base`` as an algebra, starred as ``fset_algebra`` stars them."""
    tests = base.tests()
    pos = {t: i for i, t in enumerate(tests)}

    def restrict(table):
        return tuple(tuple(pos[table[a][b]] for b in tests) for a in tests)

    return FiniteAlgebra(
        name=f"tests:{base.name}",
        element_names=tuple(map(base.el_name, tests)),
        test_indices=tuple(range(len(tests))),
        zero=pos[base.zero],
        one=pos[base.one],
        plus_table=restrict(base.plus_table),
        seq_table=restrict(base.seq_table),
        arrow_table=restrict(base.arrow_table),
        star_table=tuple(pos[star_lfp(base, t)] for t in tests),
    )


@pytest.mark.parametrize(
    "spec", ["bool2", "chain3", "godel:3", "luka:2", "luka:3", "wajsberg:3", "ex9", "lemma4",
             "powerset:xy"]
)
def test_products_and_subalgebras_preserve_quasi_identities(spec):
    # The theorem (Burris and Sankappanavar, "A Course in Universal
    # Algebra", 1981): a quasi-identity true in every factor is true in
    # their direct product, and one true in an algebra is true in each of
    # its subalgebras.  fset:T:n is the n-th power of T's test subalgebra,
    # which embeds in it along the diagonal, so each law holds in the power
    # exactly when it holds in the factor.  A power past the cap is
    # sampled, which could only miss a counterexample.
    base = make_builtin(spec)
    factor = _test_subalgebra(base)
    laws_ = {law.name: law for suite in SUITES.values() for law in suite}
    holds = {name: check_law(factor, law).ok for name, law in laws_.items()}
    for points in (2, 3):
        power = fset_algebra(base, points)
        got = {name: check_law(power, law, Auto(samples=1000)).ok for name, law in laws_.items()}
        assert got == holds, points
