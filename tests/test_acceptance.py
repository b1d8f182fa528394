"""Acceptance suite: ten end-to-end checks, one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as
they print.  Each check recomputes everything it needs from scratch; the
rest of the test suite covers the same machinery in finer grain.

One check is known to fail: the classification table below places chain3
with the boolean algebras, but chain3's middle element u satisfies
u + (u -> 0) = u < 1, so excluded middle genuinely fails there and the
workbench files it with the idempotent non-boolean algebras.  The FAIL
line is kept honest rather than papering over the table.
"""

from __future__ import annotations

import random
import time

from gkat_workbench.constructions import (
    flang_algebra,
    frel_algebra,
    fset_algebra,
    mat_algebra,
)
from gkat_workbench.hoare import (
    check_rule,
    commutation_conditions,
    denesting_equivalence,
    rule_schema,
    triple_forms_equivalent,
)
from gkat_workbench.instances import STANDARD_FINITE, make_builtin
from gkat_workbench.laws import classify, run_law_suite
from gkat_workbench.semantics import Auto, Exhaustive, Sampled
from oracles import mat_element, mat_star_iter


def _report(num: int, desc: str, ok: bool) -> None:
    print(f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'}: {desc}")


def test_criterion_01_gkat_suite_on_every_standard_algebra() -> None:
    start = time.perf_counter()
    failures = []
    for spec in STANDARD_FINITE:
        rep = run_law_suite(make_builtin(spec), "gkat", Exhaustive())
        if not rep.ok:
            failures.append((spec, [law.name for law, _ in rep.failing()]))
    elapsed = time.perf_counter() - start
    ok = not failures and elapsed < 10.0
    _report(1, f"graded-law suite exhaustive on all nine builtins ({elapsed:.2f}s)", ok)
    assert not failures, failures
    assert elapsed < 10.0


def test_criterion_02_classification_table() -> None:
    expected = {
        "bool2": "KAT",
        "chain3": "KAT",
        "powerset:xy": "KAT",
        "godel:3": "IGKAT-not-KAT",
        "godel:5": "IGKAT-not-KAT",
        "luka:2": "GKAT-not-IGKAT",
        "luka:5": "GKAT-not-IGKAT",
        "wajsberg:3": "GKAT-not-IGKAT",
        "wajsberg:4": "GKAT-not-IGKAT",
        "ex9": "GKAT-not-IGKAT",
    }
    mismatches = []
    lines = []
    for spec, want in expected.items():
        c = classify(make_builtin(spec))
        line = f"  {spec}: {c.class_name}"
        if c.witness is not None:
            binds = ", ".join(f"{k}={v}" for k, v in c.witness.counterexample.items())
            line += f"  (witness {c.witness_law}: {binds})"
        lines.append(line)
        if c.class_name != want:
            mismatches.append(f"{spec}: expected {want}, classified {c.class_name}")
    ok = not mismatches
    _report(2, "classification of the builtin families matches the table", ok)
    for line in lines:
        print(line)
    assert not mismatches, "; ".join(mismatches)


def test_criterion_03_while_rule_counterexample() -> None:
    alg = make_builtin("ex9")
    m, zero, one = alg.resolve("m"), alg.resolve("0"), alg.resolve("1")
    negated = alg.arrow(m, zero)
    excluded_middle_fails = alg.plus(m, negated) == m and alg.plus(m, negated) != one
    v = check_rule(alg, rule_schema("while-gkat"))
    witness_ok = (
        v.status == "refuted"
        and v.counterexample == {"b": "0", "c": "m", "p": "0"}
        and (v.lhs_value, v.rhs_value) == ("m", "0")
        and (v.checked, v.space) == (5, 36)
    )
    ok = excluded_middle_fails and witness_ok
    _report(3, "ex9 refutes the while rule at the first valuation b=0, c=m, p=0", ok)
    assert ok, (excluded_middle_fails, v)


def test_criterion_04_core_rules_hold_everywhere() -> None:
    start = time.perf_counter()
    bad = []
    for spec in STANDARD_FINITE:
        alg = make_builtin(spec)
        for name in ("composition", "conditional", "weaken-strengthen"):
            v = check_rule(alg, rule_schema(name))
            if v.status != "valid":
                bad.append((spec, name, v.status))
    elapsed = time.perf_counter() - start
    ok = not bad and elapsed < 60.0
    _report(4, f"composition/conditional/weakening valid on all nine ({elapsed:.2f}s)", ok)
    assert not bad, bad
    assert elapsed < 60.0


def test_criterion_05_while_rule_under_idempotence() -> None:
    sizes = {"bool2": 8, "chain3": 27, "powerset:xy": 64, "godel:5": 216}
    bad = []
    for spec, space in sizes.items():
        v = check_rule(make_builtin(spec), rule_schema("while-igkat"))
        if v.status != "valid" or (v.checked, v.space) != (space, space):
            bad.append((spec, v.status, v.checked, v.space))
    ok = not bad
    _report(5, "idempotent while rule valid on the four idempotent builtins", ok)
    assert not bad, bad


def test_criterion_06_commutation_implications() -> None:
    bad = []
    for spec in STANDARD_FINITE:
        rep = commutation_conditions(make_builtin(spec))
        for src in ("test-commutes", "negation-commutes"):
            if rep.verdict(src, "crossings-vanish").status != "valid":
                bad.append((spec, src, "crossings-vanish"))
    l4 = commutation_conditions(make_builtin("lemma4")).verdict(
        "negation-commutes", "test-commutes"
    )
    if not (
        l4.status == "refuted"
        and l4.counterexample == {"b": "m", "p": "n"}
        and (l4.lhs_value, l4.rhs_value) == ("n", "0")
    ):
        bad.append(("lemma4", "negation-commutes", l4))
    l6 = commutation_conditions(make_builtin("lemma6")).verdict(
        "crossings-vanish", "test-commutes"
    )
    if not (
        l6.status == "refuted"
        and l6.counterexample == {"b": "n", "p": "m"}
        and (l6.lhs_value, l6.rhs_value) == ("n", "0")
    ):
        bad.append(("lemma6", "crossings-vanish", l6))
    ok = not bad
    _report(6, "commutation implications hold, with lemma4/lemma6 separations", ok)
    assert not bad, bad


def test_criterion_07_loop_denesting() -> None:
    bad = []
    for spec in ("bool2", "chain3", "powerset:xy", "godel:4"):
        rep = denesting_equivalence(make_builtin(spec))
        names = tuple(name for name, _, _ in rep.entries)
        if not rep.ok or names != ("loop-denesting", "sliding", "star-denesting"):
            bad.append((spec, names, rep.ok))
    ok = not bad
    _report(7, "denesting and the star identities hold where side conditions do", ok)
    assert not bad, bad


def test_criterion_08_derived_algebras() -> None:
    auto = Auto(cap=100_000, samples=100_000, seed=0)
    checks = (
        (fset_algebra(make_builtin("chain3"), 2), "gkat", Exhaustive()),
        (frel_algebra(make_builtin("chain3"), make_builtin("chain3"), 2), "gkat", auto),
        (mat_algebra(make_builtin("ex9"), 2), "gkat", auto),
        (
            flang_algebra(make_builtin("chain3"), make_builtin("chain3"), "ab", 4),
            "igkat",
            Sampled(400, seed=0),
        ),
    )
    bad = []
    for alg, suite, strategy in checks:
        rep = run_law_suite(alg, suite, strategy)
        if not rep.ok:
            bad.append((alg.name, [law.name for law, _ in rep.failing()]))
    ok = not bad
    _report(8, "function, relation, matrix, and language algebras stay lawful", ok)
    assert not bad, bad


def test_criterion_09_matrix_star_agreement() -> None:
    base = make_builtin("luka:4")
    rng = random.Random(0)
    start = time.perf_counter()
    carriers = {n: mat_algebra(base, n, sampled=True) for n in (2, 3)}
    bad = 0
    for _ in range(200):
        n = rng.choice((2, 3))
        m = tuple(
            tuple(rng.randrange(base.size) for _ in range(n)) for _ in range(n)
        )
        alg = carriers[n]
        if alg.star(mat_element(alg, base.size, m)) != mat_element(
            alg, base.size, mat_star_iter(base, m)
        ):
            bad += 1
    elapsed = time.perf_counter() - start
    ok = bad == 0 and elapsed < 10.0
    _report(9, f"block and iterated matrix stars agree on 200 draws ({elapsed:.2f}s)", ok)
    assert bad == 0
    assert elapsed < 10.0


def test_criterion_10_triple_encodings_agree() -> None:
    bad = []
    for spec in STANDARD_FINITE:
        fwd, bwd = triple_forms_equivalent(make_builtin(spec))
        if fwd.status != "valid" or bwd.status != "valid":
            bad.append((spec, fwd.status, bwd.status))
    ok = not bad
    _report(10, "order and equation triple encodings agree on all nine builtins", ok)
    assert not bad, bad
