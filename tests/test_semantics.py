"""Checking engine: evaluation, enumeration, sampling, compiled vs reference."""

from __future__ import annotations

import contextlib
import functools
import json
import os
import pickle
import random
import re
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from gkat_workbench import (
    AlgebraError,
    Auto,
    DivergenceError,
    Equation,
    Exhaustive,
    ProceduralAlgebra,
    Sampled,
    SizeError,
    SortError,
    check_equation,
    check_quasi_equation,
    eval_term,
    flang_algebra,
    frel_algebra,
    fset_algebra,
    make_builtin,
    mat_algebra,
)
import gkat_workbench
from gkat_workbench import semantics
from gkat_workbench.cli import build_construct
from gkat_workbench.laws import SUITES, check_law, check_laws
from gkat_workbench.semantics import Verdict, _compile, _sample_pools, describe_strategy
from gkat_workbench.terms import (
    Arrow, One, Plus, Seq, Sort, Star, Term, Var, Zero, free_vars, parse_term,
)

SORTS = {name: Sort.TEST for name in "abcd"} | {name: Sort.PROGRAM for name in "pqrs"}


def _eqn(text: str) -> Equation:
    lhs, rhs = text.split("=")
    rel = "eq"
    if lhs.endswith("<"):
        lhs, rel = lhs[:-1], "leq"
    return Equation(parse_term(lhs, SORTS), parse_term(rhs, SORTS), rel)


# -- evaluation --------------------------------------------------------------


def test_eval_term_basics():
    c3 = make_builtin("chain3")
    u = c3.resolve("u")
    t = parse_term("a;a + !a", SORTS)
    assert eval_term(c3, t, {"a": u}) == u  # meet is idempotent, !u = 0
    assert eval_term(c3, parse_term("a*", SORTS), {"a": u}) == c3.one


def test_eval_term_missing_binding():
    c3 = make_builtin("chain3")
    with pytest.raises(AlgebraError, match="no binding for variable 'a'"):
        eval_term(c3, parse_term("a", SORTS), {})


def _all_tests(alg):
    """The view of a finite algebra in which every element is a test."""
    return replace(alg, test_indices=tuple(alg.elements()))


def test_eval_term_guards_test_sort():
    ex9 = make_builtin("ex9")
    n = ex9.resolve("n")  # not a test
    t = parse_term("!a", SORTS)
    with pytest.raises(SortError, match="test-sorted"):
        eval_term(ex9, t, {"a": n})
    # The all-tests view reads the stored arrow row instead.
    assert eval_term(_all_tests(ex9), t, {"a": n}) == ex9.zero


# -- exhaustive checking -----------------------------------------------------


def test_valid_equation_reports_full_space():
    v = check_equation(make_builtin("chain3"), _eqn("p+q = q+p"))
    assert (v.status, v.mode, v.checked, v.space) == ("valid", "exhaustive", 9, 9)
    assert v.ok and v.counterexample is None


def test_refuted_equation_stops_at_first_rank():
    # Element order fixes the valuation order, so the reported witness is
    # the first failing valuation and `checked` counts through it.
    luka = make_builtin("luka:5")
    v = check_equation(luka, _eqn("a;a = a"))
    assert v.status == "refuted"
    assert v.counterexample == {"a": "1/5"}
    assert (v.lhs_value, v.rhs_value) == ("0", "1/5")
    assert v.checked == 2 and v.space == 6


def test_leq_uses_the_derived_order():
    c3 = make_builtin("chain3")
    assert check_equation(c3, _eqn("p;q <= p")).ok  # meet is below both args
    assert not check_equation(c3, _eqn("p <= p;q")).ok


def test_exhaustive_cap_is_enforced():
    text = "valuation space of size 216 exceeds the exhaustive cap 100; use a sampled strategy"
    with pytest.raises(SizeError, match=f"^{re.escape(text)}$"):
        check_equation(make_builtin("godel:5"), _eqn("p;(q;r) = (p;q);r"), Exhaustive(cap=100))


def test_exhaustive_checking_refuses_a_procedural_carrier():
    with pytest.raises(AlgebraError, match="requires a finite algebra, and 'product' is procedural"):
        check_equation(make_builtin("product"), _eqn("p+q = q+p"), Exhaustive())


def test_a_non_strategy_is_refused():
    with pytest.raises(TypeError, match="not a strategy: 'exhaustive'"):
        check_equation(make_builtin("chain3"), _eqn("p+q = q+p"), "exhaustive")


def test_quasi_equation_filters_by_hypotheses():
    # Conclusion is false outright but vacuous under an unsatisfiable hypothesis.
    c3 = make_builtin("chain3")
    bad = _eqn("p = q")
    assert not check_quasi_equation(c3, (), bad).ok
    assert check_quasi_equation(c3, (_eqn("1 = 0"),), bad).ok


def test_variables_override_orders_the_report():
    # Explicit variable order changes enumeration order, hence the witness.
    l4 = make_builtin("lemma4")
    eqn = _eqn("p;q = q;p")
    default = check_equation(l4, eqn)
    flipped = check_quasi_equation(
        l4, (), eqn, variables=(Var("q", Sort.PROGRAM), Var("p", Sort.PROGRAM))
    )
    assert default.counterexample == {"p": "n", "q": "m"}
    assert (default.lhs_value, default.rhs_value) == ("0", "n")
    assert default.checked == 7
    assert flipped.counterexample == {"q": "n", "p": "m"}
    assert (flipped.lhs_value, flipped.rhs_value) == ("n", "0")


@pytest.mark.parametrize("names, checked, space", [("p a q", 15, 48), ("a p b q", 15, 144)])
def test_a_variable_no_term_mentions_reports_its_first_element(names, checked, space):
    variables = tuple(Var(name, SORTS[name]) for name in names.split())
    v = check_quasi_equation(make_builtin("lemma4"), (), _eqn("p;q = q;p"), variables=variables)
    assert (v.checked, v.space) == (checked, space)
    expected = {"a": "0", "b": "0", "p": "n", "q": "m"}
    assert v.counterexample == {name: expected[name] for name in names.split()}


_A_TEST, _A_PROG = Var("a", Sort.TEST), Var("a", Sort.PROGRAM)
_P, _Q = Var("p", Sort.PROGRAM), Var("q", Sort.PROGRAM)

# Declared variables that disagree with the terms, each with its error.
_BAD_DECLARATIONS = {
    "a name declared twice": (
        "ex9", (), _eqn("p;q = q;p"), (_P, _P, _Q),
        AlgebraError, "variable 'p' is declared twice",
    ),
    "a declared sort that disagrees with the terms": (
        "lemma4", (), _eqn("a;a = a"), (_A_PROG,),
        SortError, "variable 'a' is declared program-sorted but the terms use it test-sorted",
    ),
    "one name at two sorts across sides": (
        "lemma4", (_eqn("a = a"),), Equation(Seq(_A_PROG, _A_PROG), _A_PROG), (_A_PROG,),
        SortError, "variable 'a' is used at two different sorts",
    ),
    "an undeclared name": (
        "ex9", (), _eqn("p;q = q;p"), (_P,),
        AlgebraError, "no binding for variable 'q'",
    ),
}


@pytest.mark.parametrize("strategy", [Exhaustive(), Sampled(50, 1)])
@pytest.mark.parametrize("case", _BAD_DECLARATIONS)
def test_declared_variables_must_match_the_terms(case, strategy):
    spec, hyps, concl, variables, error, message = _BAD_DECLARATIONS[case]
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        check_quasi_equation(make_builtin(spec), hyps, concl, strategy, variables)


# -- sampling and auto mode --------------------------------------------------


def test_sampled_is_deterministic_per_seed():
    prod = make_builtin("product")
    eqn = _eqn("p;(q+r) = p;q+p;r")
    a = check_quasi_equation(prod, (), eqn, Sampled(samples=500, seed=7))
    b = check_quasi_equation(prod, (), eqn, Sampled(samples=500, seed=7))
    assert a == b
    assert a.status == "sampled-valid" and a.checked == 500


def test_sampled_finds_counterexamples_on_finite_tables():
    v = check_equation(make_builtin("lemma4"), _eqn("p;q = q;p"), Sampled(samples=300, seed=0))
    assert v.status == "refuted" and v.counterexample is not None


def test_a_sampled_check_draws_as_it_checks():
    # 100,000 valuations held at once would take about 7 MB; drawn one at a
    # time the check stays far below that, with the same verdict.
    trop = make_builtin("tropical")
    law = next(law for suite in SUITES.values() for law in suite if law.name == "seq-assoc")
    check_law(trop, law, Sampled(10))  # compile outside the trace
    tracemalloc.start()
    try:
        v = check_law(trop, law, Sampled(100_000))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert v == Verdict(status="sampled-valid", mode="sampled", checked=100_000, space=None)
    assert peak < 1_000_000, peak


def test_the_tables_of_a_sampled_check_do_not_grow_with_the_sample_count():
    # The program pool of seed 0 holds 41 languages.  At 100,000 samples the
    # three calls of two variables, 1,681 joint positions each, are
    # tabulated under the cap of 4,096 slots; p;(q+r), of three, is not.
    # Uncapped, its table of 68,921 slots and the values in them would take
    # about 45 MB.
    chain3 = make_builtin("chain3")
    lang = flang_algebra(chain3, chain3, "ab", 3)
    law = next(law for suite in SUITES.values() for law in suite if law.name == "left-distrib")
    check_law(lang, law, Sampled(10))  # compile outside the trace
    tracemalloc.start()
    try:
        v = check_law(lang, law, Sampled(100_000))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert v == Verdict(status="sampled-valid", mode="sampled", checked=100_000, space=None)
    assert peak < 4_000_000, peak


def test_fifty_nested_tabulated_calls_compile_and_check():
    # Every call of ((p+p);q+p);q... is tabulated; each reads its slot at
    # the loop's own indentation, so fifty nested calls nest no blocks.
    t = "p"
    for _ in range(50):
        t = f"({t}+p);q"
    v = check_equation(make_builtin("product"), _eqn(f"{t};1 = {t}"), Sampled(4000))
    assert v == Verdict(status="sampled-valid", mode="sampled", checked=4000, space=None)


def test_the_checks_of_a_suite_draw_the_pools_once():
    product = make_builtin("product")
    draws = []

    def counted(name: str) -> ProceduralAlgebra:
        return replace(product, name=name, draw=lambda rng: draws.append(1) or product.draw(rng))

    laws, alg = SUITES["gkat"], counted("product-counted")
    want = check_laws(product, laws, Sampled(50, 1))[0]
    assert check_laws(alg, laws, Sampled(50, 1))[0] == want
    assert len(draws) == 48
    check_laws(alg, laws, Sampled(50, 2))  # another seed draws again
    assert len(draws) == 96
    # So does another carrier, even one with the same name, samples and fingerprint.
    twin = counted("product-counted")
    assert twin.fingerprint() == alg.fingerprint()
    check_laws(twin, laws, Sampled(50, 2))
    assert len(draws) == 144


def _compiled_draws(pools, samples: int, seed: int) -> list[tuple]:
    """The valuations a compiled sampled check over ``pools`` draws from ``seed``.

    The check compares p0 + ... + pk with a zero that nothing equals, so it
    fails at its first valuation: each call with N = 1 draws one valuation
    and returns it.
    """
    variables = tuple(Var(f"p{j}", Sort.PROGRAM) for j in range(len(pools)))
    concl = Equation(functools.reduce(Plus, variables), Zero())
    check = _compile(False, False, True, (), concl, variables)
    ops = dict.fromkeys(semantics._OPS) | {"zero": object(), "plus": lambda a, b: a}
    domains = {f"D{j}": pool for j, pool in enumerate(pools)}
    gb = random.Random(seed).getrandbits
    return [check(**ops, N=1, gb=gb, **domains) for _ in range(samples)]


_POWERS_OF_TWO = [c for k in range(9) for c in (2**k - 1, 2**k, 2**k + 1) if 1 <= c <= 300]


@pytest.mark.parametrize("seed", [0, 1, 29])
def test_a_sampled_check_draws_what_random_choice_draws(seed):
    # A pool of 2^k or 2^k + 1 elements takes k + 1 bits a draw and rejects
    # about half of them; one of 2^k - 1 takes k bits and rejects one in 2^k.
    for c in sorted({*range(1, 301, 7), *_POWERS_OF_TWO}):
        pools = [tuple(f"e{i}" for i in range(size)) for size in (c, 301 - c, c)]
        rng = random.Random(seed)
        want = [(0, tuple(map(rng.choice, pools))) for _ in range(30)]
        assert _compiled_draws(pools, 30, seed) == want, c


@pytest.mark.parametrize("spec, hyps, concl, seed", [
    ("product", ("q = p;p",), "p* = p", 3),
    ("lemma6", ("p;q = q;p", "a = b"), "p;a = a;p", 2),
])
def test_a_variable_no_term_mentions_is_drawn_all_the_same(spec, hyps, concl, seed):
    # r and s are drawn in every valuation, between and after the used
    # variables: skipping them would draw other valuations from the stream.
    variables = tuple(Var(name, SORTS[name]) for name in "paqrbs")
    problem = (tuple(map(_eqn, hyps)), _eqn(concl), variables)
    v = check_quasi_equation(make_builtin(spec), *problem[:2], Sampled(2000, seed), variables)
    assert v.status == "refuted" and v.checked > 200
    _assert_agrees(make_builtin(spec), problem, Sampled(2000, seed))


@pytest.mark.parametrize("spec", ["chain3", "tropical"])
def test_a_closed_sampled_equation_checks_every_sample(spec):
    v = check_equation(make_builtin(spec), _eqn("1* = 1"), Sampled(samples=500, seed=3))
    assert (v.status, v.checked) == ("sampled-valid", 500)
    v = check_equation(make_builtin(spec), _eqn("1 = 0"), Sampled(samples=500, seed=3))
    assert (v.status, v.checked, v.counterexample) == ("refuted", 1, {})


def test_auto_splits_on_space_size():
    c3 = make_builtin("chain3")
    small = check_equation(c3, _eqn("a;a = a"), Auto(cap=8))
    large = check_equation(c3, _eqn("p+q = q+p"), Auto(cap=8, samples=200, seed=0))
    assert small.mode == "exhaustive"
    assert (large.mode, large.checked, large.space) == ("sampled", 200, 9)


@pytest.mark.parametrize("spec, strategy, space", [
    ("chain3", Sampled(50, 1), 9),
    ("product", Sampled(50, 1), None),
    ("product", Auto(cap=8, samples=50, seed=1), None),
])
def test_a_sampled_verdict_reports_the_finite_space_or_none(spec, strategy, space):
    v = check_equation(make_builtin(spec), _eqn("p+q = q+p"), strategy)
    assert (v.mode, v.checked, v.space) == ("sampled", 50, space)


def test_describe_strategy_shapes():
    assert describe_strategy(Exhaustive()) == {"mode": "exhaustive", "cap": 10**8}
    assert describe_strategy(Sampled(10, 3)) == {"mode": "sample", "samples": 10, "seed": 3}
    assert describe_strategy(Auto()) == {
        "mode": "auto",
        "cap": 100_000,
        "samples": 100_000,
        "seed": 0,
    }


@pytest.mark.parametrize("make", [lambda: Sampled(samples=0), lambda: Auto(samples=-5)])
def test_sample_counts_below_one_are_rejected(make):
    with pytest.raises(ValueError, match="at least 1"):
        make()


class _Unknown(Term):
    """A term class the compiler has no case for."""

    __slots__ = ()


@pytest.mark.parametrize("make, error, message", [
    (lambda: Exhaustive(cap=-1), ValueError, "valuation cap must be at least 0, got -1"),
    (lambda: Auto(cap=-1), ValueError, "valuation cap must be at least 0, got -1"),
    (lambda: Equation(_P, _Q, rel="lt"), ValueError, "unknown relation 'lt'"),
    (lambda: describe_strategy(3), TypeError, "not a strategy: 3"),
    (lambda: check_equation(make_builtin("ex9"), Equation(_Unknown(), One()), variables=()),
     TypeError, "not a term: _Unknown()"),
])
def test_each_refusal_names_its_cause(make, error, message):
    with pytest.raises(error) as info:
        make()
    assert str(info.value) == message


# p;!p = p, hand-built: the parser refuses !p for a program p.
_ILL_SORTED = Equation(Seq(_P, Arrow(_P, Zero())), _P)


@pytest.mark.parametrize("spec, strategy", [
    pytest.param(spec, strategy, id=f"{spec}-{strategy.mode}")
    for spec in ("ex9", "luka:5", "product")
    for strategy in (Exhaustive(), Sampled(50, 1), Auto(samples=50, seed=1))
    if spec != "product" or not isinstance(strategy, Exhaustive)
])
@pytest.mark.parametrize("hyps, concl", [
    ((), _ILL_SORTED),
    ((_ILL_SORTED,), _eqn("p = p")),
    ((_eqn("1 = 0"),), _ILL_SORTED),  # no valuation reaches the conclusion
], ids=["in the conclusion", "in a hypothesis", "behind a hypothesis 1 = 0"])
def test_an_ill_sorted_arrow_is_refused_with_the_parsers_error(spec, strategy, hyps, concl):
    # Every element of luka:5 is a test, so !p has a value at every p; the
    # check refuses the term all the same, before checking any valuation.
    with pytest.raises(SortError) as parsed:
        parse_term("p;!p", SORTS)
    with pytest.raises(SortError, match=f"^{re.escape(str(parsed.value))}$"):
        check_quasi_equation(make_builtin(spec), hyps, concl, strategy)


# -- compiled checks against the reference evaluator --------------------------

_TEST_VARS = {name: Var(name, Sort.TEST) for name in "ab"}
_PROG_VARS = {name: Var(name, Sort.PROGRAM) for name in "pq"}
_FINITE = ("bool2", "chain3", "ex9", "lemma4", "lemma6", "luka:3", "godel:3", "powerset:xy")

# Derived carriers too large for tables: their value-level kernels are what
# the sampled checks evaluate.
_SAMPLED_DERIVED = {
    "mat:chain3:3": lambda: mat_algebra(make_builtin("chain3"), 3, sampled=True),
    "mat:ex9:3": lambda: mat_algebra(make_builtin("ex9"), 3, sampled=True),
    "frel:chain3:bool2:3": lambda: frel_algebra(
        make_builtin("chain3"), make_builtin("bool2"), 3, sampled=True
    ),
    "fset:luka:5:6": lambda: fset_algebra(make_builtin("luka:5"), 6, sampled=True),
    "flang:chain3:chain3:ab:2": lambda: flang_algebra(
        make_builtin("chain3"), make_builtin("chain3"), "ab", 2
    ),
}


# Derived tables of 81 to 256 elements, with the variables a check on each
# may use and how many: few enough valuations for the reference evaluator.
_WIDE = {
    "frel:chain3:2": ("abpq", 2),  # 81 elements, 9 of them tests
    "fset:godel:4:3": ("ap", 1),  # 125 elements, every one a test
    "mat:lemma4:2": ("abp", 2),  # 256 elements, 9 of them tests
}


@functools.cache
def _wide_table(spec: str):
    return build_construct(spec)


@st.composite
def _quasi_equations(draw, names: str = "abpq", most: int = 3):
    """0-2 hypotheses and a conclusion over at most ``most`` of the variables ``names``.

    Arrows take test-sorted operands.
    """
    names = draw(st.lists(st.sampled_from(names), min_size=1, max_size=most, unique=True))
    tests = [_TEST_VARS[n] for n in names if n in _TEST_VARS]
    progs = [_PROG_VARS[n] for n in names if n in _PROG_VARS]
    test_leaves = st.sampled_from([*tests, Zero(), One()])
    test_terms = st.recursive(
        test_leaves,
        lambda t: st.one_of(st.builds(Plus, t, t), st.builds(Seq, t, t), st.builds(Arrow, t, t)),
        max_leaves=5,
    )
    prog_leaves = st.one_of(test_terms, st.sampled_from(progs)) if progs else test_terms

    def prog_ops(t):
        return st.one_of(st.builds(Plus, t, t), st.builds(Seq, t, t), st.builds(Star, t))

    terms = st.recursive(prog_leaves, prog_ops, max_leaves=6)
    eqns = st.builds(Equation, terms, terms, st.sampled_from(("eq", "leq")))
    hyps = draw(st.lists(eqns, max_size=2))
    variables = tuple(_TEST_VARS.get(n) or _PROG_VARS[n] for n in names)
    return tuple(hyps), draw(eqns), variables


@contextlib.contextmanager
def _vectors_always():
    """Let every eligible exhaustive check compute a vector, whatever its size."""
    default = semantics._VECTOR_SPACE
    semantics._VECTOR_SPACE = 0
    try:
        yield
    finally:
        semantics._VECTOR_SPACE = default


@st.composite
def _reordered(draw, problems):
    """A problem with its variables in a drawn order.

    An exhaustive check on a table of at most 256 elements computes one
    variable as a vector, preferring the last program-sorted one; in a
    drawn order it is often not the last variable.
    """
    hyps, concl, variables = draw(problems)
    return hyps, concl, tuple(draw(st.permutations(variables)))


def _reference(alg, hyps, concl, variables, valuations, mode, space):
    """The first failing valuation, found by evaluating each one in turn."""
    names = [v.name for v in variables]

    def holds(eqn, val):
        lhs = eval_term(alg, eqn.lhs, val)
        rhs = eval_term(alg, eqn.rhs, val)
        return lhs == rhs if eqn.rel == "eq" else alg.plus(lhs, rhs) == rhs

    count = 0
    for vals in valuations:
        val = dict(zip(names, vals))
        if all(holds(h, val) for h in hyps) and not holds(concl, val):
            return Verdict(
                "refuted", mode, count + 1, space,
                {n: alg.el_name(e) for n, e in val.items()},
                alg.el_name(eval_term(alg, concl.lhs, val)),
                alg.el_name(eval_term(alg, concl.rhs, val)),
            )
        count += 1
    return Verdict("valid" if mode == "exhaustive" else "sampled-valid", mode, count, space)


def _domains(alg, variables, progs, tests):
    return [tests if v.sort is Sort.TEST else progs for v in variables]


def _assert_agrees(alg, problem, strategy, both_plans: bool = False):
    """The compiled check gives the reference verdict, or raises its error.

    ``both_plans``: hold the check to the reference with the default
    vector threshold and with every eligible check vectorised.
    """
    hyps, concl, variables = problem
    plans = (contextlib.nullcontext, _vectors_always) if both_plans else (contextlib.nullcontext,)
    if isinstance(strategy, Exhaustive):
        doms = _domains(alg, variables, alg.elements(), alg.tests())
        valuations, mode = product(*doms), "exhaustive"
    else:
        rng = random.Random(strategy.seed)
        doms = _domains(alg, variables, *_sample_pools(alg, rng))
        valuations = [tuple(rng.choice(d) for d in doms) for _ in range(strategy.samples)]
        mode = "sampled"
    space = None
    if alg.finite:
        space = 1
        for d in _domains(alg, variables, alg.elements(), alg.tests()):
            space *= len(d)
    try:
        want = _reference(alg, hyps, concl, variables, valuations, mode, space)
    except Exception as exc:  # the compiled check must raise the same error
        for plan in plans:
            with plan(), pytest.raises(type(exc), match=re.escape(str(exc))):
                check_quasi_equation(alg, hyps, concl, strategy, variables)
        return
    for plan in plans:
        with plan():
            assert check_quasi_equation(alg, hyps, concl, strategy, variables) == want


def test_checks_with_more_variables_than_nested_loops():
    # Twelve variables: the innermost loop binds the last three together.
    ps = [Var(f"p{i}", Sort.PROGRAM) for i in range(12)]
    total = ps[0]
    for p in ps[1:]:
        total = Plus(total, p)
    tail = Seq(ps[11], ps[10])
    concl = Equation(Plus(total, tail), Plus(tail, total))
    _assert_agrees(make_builtin("bool2"), ((), concl, tuple(ps)), Exhaustive())
    _assert_agrees(make_builtin("bool2"), ((), Equation(total, tail), tuple(ps)), Exhaustive())


def test_sixteen_variables_keep_the_grouped_scalar_plan():
    # 2^16 valuations on bool2 are enough to vectorise, but past _MAX_LOOPS
    # used variables no vector is chosen, and p9 ... p15 share one loop.
    # The first failure, p8 = p9 = 1, is rank 2^7 + 2^6 = 192.
    ps = tuple(Var(f"p{i}", Sort.PROGRAM) for i in range(16))

    def conclusion(n):
        return Equation(Seq(functools.reduce(Plus, ps[:n]), Seq(ps[8], ps[9])), Zero())

    assert semantics._normal_form((), conclusion(10), ps[:10])[2] == 7  # ten would vectorise
    concl = conclusion(16)
    assert semantics._normal_form((), concl, ps)[2] is None
    _assert_agrees(make_builtin("bool2"), ((), concl, ps), Exhaustive())
    assert check_quasi_equation(make_builtin("bool2"), (), concl, Exhaustive(), ps).checked == 193


# -- the vector variable -------------------------------------------------------


def _vector_of(hyps, concl, variables):
    j = semantics._normal_form(tuple(hyps), concl, variables)[2]
    return None if j is None else variables[j].name


@pytest.mark.parametrize("hyps, concl, names, want", [
    ((), "p;(q;r) = (p;q);r", "pqr", "r"),  # the later of the program variables
    ((), "a;p = p", "pa", "p"),  # a program variable before a test variable
    ((), "a;b = b;a", "ab", "b"),
    ((), "p;p = p", "p", None),  # p is free in both operands of p;p
    ((), "p + q <= q", "pq", "p"),  # compared as p + q + q with q
    (("q + p;r <= r",), "p*;q <= r", "pqr", "q"),  # star-ind-left: r is on both sides
])
def test_the_vector_variable(hyps, concl, names, want):
    hyps = tuple(_eqn(h) for h in hyps)
    variables = tuple(Var(n, SORTS[n]) for n in names)
    assert _vector_of(hyps, _eqn(concl), variables) == want


def test_a_smaller_failing_index_in_a_later_inner_loop_wins(monkeypatch):
    # p is the vector variable and the first variable; the loop over a runs
    # inside it.  At a = 1/3 the vector first fails at p = 1, and only the
    # later a = 2/3 fails at the smaller p = 2/3, which is the first failing
    # valuation in variable order.
    monkeypatch.setattr(semantics, "_VECTOR_SPACE", 0)
    luka3 = make_builtin("luka:3")
    p, a = Var("p", Sort.PROGRAM), Var("a", Sort.TEST)
    concl = _eqn("a;p;a = p;a")
    assert _vector_of((), concl, (p, a)) == "p"
    fails = {(luka3.el_name(x), luka3.el_name(y)) for x in luka3.elements() for y in luka3.tests()
             if eval_term(luka3, concl.lhs, {"p": x, "a": y})
             != eval_term(luka3, concl.rhs, {"p": x, "a": y})}
    assert {("1", "1/3"), ("2/3", "2/3")} <= fails
    assert not {(x, "1/3") for x in ("0", "1/3", "2/3")} & fails
    v = check_quasi_equation(luka3, (), concl, Exhaustive(), (p, a))
    assert luka3.byte_views()[2]  # the vector plan read rows of seq
    assert (v.counterexample, v.checked) == ({"p": "2/3", "a": "2/3"}, 11)
    _assert_agrees(luka3, ((), concl, (p, a)), Exhaustive())


def test_a_carrier_above_256_elements_takes_the_scalar_plan(monkeypatch):
    monkeypatch.setattr(semantics, "_VECTOR_SPACE", 0)
    alg = build_construct("fset:chain3:6")  # 729 elements
    for text in ("p;p = p", "p;q = p"):
        concl = _eqn(text)
        _assert_agrees(alg, ((), concl, free_vars(concl.lhs, concl.rhs)), Exhaustive())
    assert "_byte_views" not in alg.__dict__


def test_the_compile_key_separates_byte_carriers_from_wider_ones(monkeypatch):
    monkeypatch.setattr(semantics, "_VECTOR_SPACE", 0)
    _compile.cache_clear()
    concl = _eqn("p;1 = p")
    for spec in ("fset:chain3:5", "fset:chain3:6"):  # 243 and 729 elements
        _assert_agrees(build_construct(spec), ((), concl, free_vars(concl.rhs)), Exhaustive())
    assert _compile.cache_info().currsize == 2


def test_a_check_reads_only_the_rows_it_needs(monkeypatch):
    monkeypatch.setattr(semantics, "_VECTOR_SPACE", 0)
    alg = mat_algebra(make_builtin("lemma4"), 2)  # 256 elements, 9 of them tests
    assert alg.size == 256
    concl = _eqn("a;p = p;a")
    _assert_agrees(alg, ((), concl, free_vars(concl.lhs, concl.rhs)), Exhaustive())
    seq_rows, seq_columns = alg.byte_views()[2:4]
    assert 0 < len(seq_rows) <= len(alg.tests()) < alg.size
    assert 0 < len(seq_columns) <= len(alg.tests())


def test_only_a_check_of_two_to_the_16_valuations_computes_a_vector():
    concl = _eqn("p;(q;r) = (p;q);r")
    small, large = make_builtin("luka:8"), make_builtin("luka:40")  # 729 and 68,921 valuations
    want = {}
    for alg in (small, large):
        want[alg.name] = check_equation(alg, concl, Exhaustive())
        assert ("_byte_views" in alg.__dict__) == (alg is large)
    with _vectors_always():
        again = {a.name: check_equation(a, concl, Exhaustive()) for a in (make_builtin("luka:8"),
                                                                          make_builtin("luka:40"))}
    assert again == want


def test_an_equation_hashes_by_its_terms_and_pickles_to_the_same_terms():
    e = _eqn("p;(q;r) = (p;q);r")
    copy = _eqn("p;(q;r) = (p;q);r")
    assert hash(e) == hash(copy) and e == copy
    back = pickle.loads(pickle.dumps(e))
    assert back == e and hash(back) == hash(e)
    assert back.lhs is e.lhs and back.rhs is e.rhs


_DEEP_CHAIN = """
import json, sys
import gkat_workbench as G
from gkat_workbench.terms import One, Seq
sys.setrecursionlimit(200)  # a walk that recurses once per level fails
text = ";".join("p" * 10_000)
p = G.Var("p", G.Sort.PROGRAM)
t = G.parse_term(text, {"p": G.Sort.PROGRAM})
assert G.pretty(t) == text and G.free_vars(t) == (p,)
ex9, tropical = G.make_builtin("ex9"), G.make_builtin("tropical")
out = {"eval": ex9.el_name(G.eval_term(ex9, t, {"p": ex9.resolve("n")}))}
for strategy in (G.Exhaustive(), G.Sampled(100)):
    out[strategy.mode] = G.check_equation(ex9, G.Equation(t, p), strategy).to_dict()
out["tropical"] = G.check_equation(tropical, G.Equation(Seq(t, One()), t), G.Sampled(20)).to_dict()
print(json.dumps(out))
"""


def test_a_chain_ten_thousand_deep_is_parsed_printed_and_checked_without_recursion():
    src = os.path.dirname(os.path.dirname(gkat_workbench.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run([sys.executable, "-c", _DEEP_CHAIN], capture_output=True, text=True,
                          env=env, timeout=120)
    assert done.returncode == 0, done.stderr[-2000:]
    out = json.loads(done.stdout)
    assert out["eval"] == "0"  # n;n = 0 in ex9
    assert out["exhaustive"] == {"status": "refuted", "mode": "exhaustive", "checked": 2,
                                 "space": 4, "counterexample": {"p": "n"},
                                 "lhs_value": "0", "rhs_value": "n"}
    assert out["sample"]["status"] == "refuted" and out["sample"]["lhs_value"] == "0"
    assert out["tropical"] == {"status": "sampled-valid", "mode": "sampled", "checked": 20,
                               "space": None}


@pytest.mark.parametrize("strategy", [Auto(), Auto(cap=8, samples=50)])
def test_auto_builds_the_finite_domains_once(monkeypatch, strategy):
    calls = []
    real = semantics._finite_domains
    monkeypatch.setattr(semantics, "_finite_domains",
                        lambda alg, variables: calls.append(alg) or real(alg, variables))
    check_equation(make_builtin("ex9"), _eqn("p;q = q;p"), strategy)
    assert len(calls) == 1


# -- the compile cache ----------------------------------------------------------


def _cache_sweep(clear: bool) -> list[dict]:
    """Every suite law's verdict on a fixed set of carriers and strategies."""
    finite = [make_builtin(spec) for spec in ("luka:5", "godel:5", "ex9")]
    sampled = [*finite, _all_tests(finite[2]), make_builtin("product"), make_builtin("tropical")]
    runs = [(alg, Sampled(300, 1)) for alg in sampled] + [(alg, Exhaustive()) for alg in finite]
    out = []
    for alg, strategy in runs:
        for laws in SUITES.values():
            for law in laws:
                if clear:
                    _compile.cache_clear()
                out.append(check_law(alg, law, strategy).to_dict())
    return out


def test_a_warm_compile_cache_gives_the_cold_verdicts():
    cold = _cache_sweep(clear=True)
    assert _cache_sweep(clear=False) == cold


def test_one_shape_on_two_tables_compiles_once():
    law = next(law for laws in SUITES.values() for law in laws if law.name == "plus-assoc")
    _compile.cache_clear()
    check_law(make_builtin("luka:5"), law)
    check_law(make_builtin("godel:5"), law)
    info = _compile.cache_info()
    assert (info.misses, info.hits) == (1, 1)


def test_a_check_with_a_warm_cache_plans_nothing(monkeypatch):
    law = next(law for laws in SUITES.values() for law in laws if law.name == "plus-assoc")
    check_law(make_builtin("luka:5"), law)
    calls = []
    monkeypatch.setattr(semantics, "free_vars", lambda *ts: calls.append(ts) or free_vars(*ts))
    check_law(make_builtin("ex9"), law)
    check_law(make_builtin("godel:5"), law)
    assert calls == []


def _sum_of(n: int) -> tuple:
    ps = tuple(Var(f"p{i}", Sort.PROGRAM) for i in range(n))
    total = ps[0]
    for p in ps[1:]:
        total = Plus(total, p)
    return (), Equation(total, Seq(total, total)), ps


# Pairs of checks that differ in one thing the generated source depends on.
_SHAPE_PAIRS = {
    "finite vs procedural": (
        ("luka:5", ((), _eqn("p;q = q;p"), None), Sampled(50, 0)),
        ("product", ((), _eqn("p;q = q;p"), None), Sampled(50, 0)),
    ),
    "= vs <=": (
        ("ex9", ((), _eqn("p;q = q;p"), None), Exhaustive()),
        ("ex9", ((), _eqn("p;q <= q;p"), None), Exhaustive()),
    ),
    "exhaustive vs sampled": (
        ("ex9", ((), _eqn("p;q = q;p"), None), Exhaustive()),
        ("ex9", ((), _eqn("p;q = q;p"), None), Sampled(50, 0)),
    ),
    "grouped vs nested loops": (
        ("bool2", _sum_of(11), Exhaustive()),
        ("bool2", _sum_of(10), Exhaustive()),
    ),
}


@pytest.mark.parametrize("pair", _SHAPE_PAIRS)
def test_the_compile_key_separates_what_changes_the_source(pair):
    _compile.cache_clear()
    for spec, (hyps, concl, variables), strategy in _SHAPE_PAIRS[pair]:
        if variables is None:
            variables = free_vars(concl.lhs, concl.rhs)
        _assert_agrees(make_builtin(spec), (hyps, concl, variables), strategy)
    assert _compile.cache_info().currsize == 2


def _goedel_chain_with_a_diverging_star(bad: int) -> ProceduralAlgebra:
    """The Gödel chain 0 < 1 < … < 4, except that the star of ``bad`` raises."""

    def star(x: int) -> int:
        if x == bad:
            raise DivergenceError(f"star of {x} diverges")
        return 4

    return ProceduralAlgebra(
        name=f"goedel5-star-raises-at-{bad}",
        zero=0,
        one=4,
        plus=max,
        seq=min,
        star=star,
        arrow_fn=lambda x, y: 4 if x <= y else y,
        is_test=lambda v: True,
        samples=(0, 4),
        draw=lambda rng: rng.randrange(5),
        el_name=str,
        member_pred=lambda v: v in range(5),
    )


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 4), _quasi_equations(), st.integers(0, 3))
def test_a_star_that_raises_raises_where_the_reference_does(bad, problem, seed):
    # The reference evaluates each valuation in turn with no memo: a
    # refutation found before the first raising star wins, and otherwise
    # the compiled check raises that star's error.
    _assert_agrees(_goedel_chain_with_a_diverging_star(bad), problem, Sampled(40, seed))


class TestCompiledAgainstReference:
    """The compiled checks give the verdict that evaluating each valuation gives."""

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from(_FINITE), _reordered(_quasi_equations()))
    def test_exhaustive_on_finite_tables(self, spec, problem):
        _assert_agrees(make_builtin(spec), problem, Exhaustive(), both_plans=True)

    @settings(max_examples=30, deadline=None)
    @given(st.data())
    def test_exhaustive_on_wide_derived_tables(self, data):
        spec = data.draw(st.sampled_from(tuple(_WIDE)))
        names, most = _WIDE[spec]
        problem = data.draw(_reordered(_quasi_equations(names=names, most=most)))
        _assert_agrees(_wide_table(spec), problem, Exhaustive(), both_plans=True)

    # A procedural check tabulates the calls with at most min(samples,
    # _TABLE_SLOTS) joint pool positions: at 40 samples the closed ones and
    # some of one variable, at 2,000 also most of two.
    @settings(max_examples=50, deadline=None)
    @given(st.sampled_from(("product", "tropical", *_FINITE)), _quasi_equations(),
           st.integers(0, 3), st.sampled_from((40, 2000)))
    def test_sampled(self, spec, problem, seed, samples):
        _assert_agrees(make_builtin(spec), problem, Sampled(samples=samples, seed=seed))

    @settings(max_examples=50, deadline=None)
    @given(st.sampled_from(tuple(_SAMPLED_DERIVED)), _quasi_equations(), st.integers(0, 3),
           st.sampled_from((40, 2000)))
    def test_sampled_derived(self, spec, problem, seed, samples):
        alg = _SAMPLED_DERIVED[spec]()
        assert not alg.finite
        _assert_agrees(alg, problem, Sampled(samples=samples, seed=seed))

    @settings(max_examples=30, deadline=None)
    @given(st.sampled_from(("luka:1", "luka:3", "luka:7", "luka:15", "luka:31")),
           _quasi_equations(), st.integers(0, 3))
    def test_sampled_on_chains_of_two_to_the_k(self, spec, problem, seed):
        # A pool of 2^k elements takes k + 1 bits a draw, and rejects about
        # half of them.
        _assert_agrees(make_builtin(spec), problem, Sampled(samples=40, seed=seed))

    @settings(max_examples=50, deadline=None)
    @given(st.sampled_from(_FINITE), _quasi_equations())
    def test_carrier_mode(self, spec, problem):
        _assert_agrees(_all_tests(make_builtin(spec)), problem, Exhaustive())


class TestEngineAgreement:
    """Exhaustive and heavily-sampled runs agree on these small algebras."""

    @settings(max_examples=25, deadline=None)
    @given(
        st.sampled_from(("bool2", "chain3", "ex9")),
        st.sampled_from(("p;q = q;p", "p+q = q+p", "a;a = a", "p;1 = p", "a+!a = 1")),
        st.integers(0, 5),
    )
    def test_sampling_never_contradicts_enumeration(self, spec, text, seed):
        alg = make_builtin(spec)
        eqn = _eqn(text)
        full = check_equation(alg, eqn)
        sampled = check_equation(alg, eqn, Sampled(samples=400, seed=seed))
        if full.ok:
            assert sampled.ok
        # a refuted sampled verdict must carry a genuine witness
        if not sampled.ok:
            vals = {n: alg.resolve(e) for n, e in sampled.counterexample.items()}
            assert eval_term(alg, eqn.lhs, vals) != eval_term(alg, eqn.rhs, vals)
