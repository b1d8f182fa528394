"""Tests for the function-space, relational, matrix, and language builders."""

from __future__ import annotations

import ast
import dataclasses
import functools
import hashlib
import itertools
import pathlib
import random
import re
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gkat_workbench import constructions
from gkat_workbench.algebra import (
    DivergenceError,
    DomainError,
    FiniteAlgebra,
    NameEncodingError,
    SizeError,
    randbelow,
    star_lfp,
)
from gkat_workbench.algfile import dump_algebra
from gkat_workbench.constructions import (
    DEFAULT_CAP,
    _product_kernel,
    flang_algebra,
    flang_concat,
    flang_star,
    flang_union,
    frel_algebra,
    fset_algebra,
    mat_algebra,
)
from gkat_workbench.instances import make_builtin
from gkat_workbench.laws import run_law_suite
from gkat_workbench.semantics import Auto, Exhaustive, Sampled, _sample_pools
from oracles import (
    choice_flang_draw,
    choice_fset_draw,
    choice_matrix_draw,
    every_verdict,
    mat_add,
    mat_element,
    mat_identity,
    mat_is_test,
    mat_mul,
    mat_star,
    mat_star_iter,
    mat_zero,
    shortlex_concat,
    shortlex_flang,
    shortlex_norm,
    shortlex_star,
    shortlex_union,
)


# ---------------------------------------------------------------------------
# fset: pointwise test functions
# ---------------------------------------------------------------------------


def test_fset_carrier_is_tests_to_the_points() -> None:
    alg = fset_algebra(make_builtin("chain3"), 2)
    assert alg.name == "fset:chain3:2"
    assert alg.size == 9
    assert len(list(alg.tests())) == 9  # every tuple of tests is a test
    assert alg.el_name(alg.zero) == "(0,0)"
    assert alg.el_name(alg.one) == "(1,1)"


def test_fset_operations_act_pointwise() -> None:
    alg = fset_algebra(make_builtin("chain3"), 2)
    r = alg.resolve
    assert alg.el_name(alg.plus(r("(0,u)"), r("(u,1)"))) == "(u,1)"
    assert alg.el_name(alg.seq(r("(0,u)"), r("(u,1)"))) == "(0,u)"
    assert alg.el_name(alg.arrow(r("(0,u)"), r("(u,0)"))) == "(1,0)"
    assert alg.el_name(alg.star(r("(0,u)"))) == "(1,1)"


def test_fset_rejects_procedural_bases_and_zero_points() -> None:
    with pytest.raises(ValueError, match="finite base"):
        fset_algebra(make_builtin("product"), 2)
    with pytest.raises(ValueError, match="at least one point"):
        fset_algebra(make_builtin("chain3"), 0)


def test_fset_over_cap_raises_unless_sampled() -> None:
    # 6^6 = 46656 test tuples, well past the default cap.
    with pytest.raises(SizeError, match=r"carrier size 46656 exceeds cap 4096"):
        fset_algebra(make_builtin("luka:5"), 6)
    alg = fset_algebra(make_builtin("luka:5"), 6, sampled=True)
    assert not alg.finite
    assert alg.member_pred is not None
    assert alg.member_pred(alg.one)
    assert not alg.member_pred((0, 0, 0))  # wrong arity


def test_fset_passes_the_gkat_suite() -> None:
    rep = run_law_suite(fset_algebra(make_builtin("bool2"), 2), "gkat", Exhaustive())
    assert rep.ok


# ---------------------------------------------------------------------------
# Matrix kernels on hand values
# ---------------------------------------------------------------------------


def _carrier(spec: str, n: int):
    """The base, the n×n matrix carrier over it, and the map from tuple matrices."""
    kalg, _, alg = _coded(spec, None, n)
    return kalg, alg, functools.partial(mat_element, alg, kalg.size)


def test_mat_add_and_mul_hand_values() -> None:
    _, alg, el = _carrier("chain3", 2)
    a = ((1, 2), (0, 1))  # ((u,1),(0,u))
    b = ((2, 0), (1, 1))  # ((1,0),(u,u))
    assert alg.plus(el(a), el(b)) == el(((2, 2), (1, 1)))
    # e.g. entry (0,0) of the product is u;1 + 1;u = u + u = u
    assert alg.seq(el(a), el(b)) == el(((1, 1), (1, 1)))


def test_mat_identity_and_zero_are_units() -> None:
    ex9, alg, el = _carrier("ex9", 2)
    i2 = el(mat_identity(ex9, 2))
    z2 = el(mat_zero(ex9, 2))
    m = el(((2, 1), (0, 3)))
    assert alg.seq(i2, m) == m
    assert alg.seq(m, i2) == m
    assert alg.plus(z2, m) == m
    assert alg.seq(z2, m) == z2


def test_mat_star_hand_value_on_a_nilpotent_matrix() -> None:
    ex9, alg, el = _carrier("ex9", 2)
    m = ((0, 1), (0, 0))  # strictly upper triangular: 0 n / 0 0
    expected = ((3, 1), (0, 3))  # 1 n / 0 1
    assert alg.star(el(m)) == el(expected)
    assert mat_star(ex9, m) == expected
    assert mat_star_iter(ex9, m) == expected


def test_mat_star_fixes_identity_and_zero() -> None:
    ex9, alg, el = _carrier("ex9", 2)
    i2 = el(mat_identity(ex9, 2))
    assert alg.star(i2) == i2
    assert alg.star(el(mat_zero(ex9, 2))) == i2


# ---------------------------------------------------------------------------
# frel: relations weighted over K with tests drawn from T
# ---------------------------------------------------------------------------


def test_mat_mul_is_the_relational_product() -> None:
    _, alg, el = _carrier("chain3", 2)
    mu = ((2, 1), (0, 0))  # x->x weight 1, x->y weight u
    nu = ((0, 1), (0, 2))  # x->y weight u, y->y weight 1
    # Only route from x to y: through x with weight 1;u, or via y with u;1.
    assert alg.seq(el(mu), el(nu)) == el(((0, 1), (0, 0)))


@pytest.mark.parametrize(
    ("spec", "n"), [("bool2", 2), ("chain3", 2), ("luka:2", 2), ("ex9", 1), ("lemma6", 1)]
)
def test_frel_over_its_own_test_sort_is_mat(spec, n) -> None:
    # With T = K a relation on n points is an n×n matrix: same elements,
    # tests, constants and tables; only the name differs.
    base = make_builtin(spec)
    fr, mat = frel_algebra(base, None, n), mat_algebra(base, n)
    assert fr.canonical_text().replace(f"frel:{spec}:{spec}:{n}", f"mat:{spec}:{n}", 1) == (
        mat.canonical_text()
    )


def test_frel_tests_are_diagonals_from_the_test_sort() -> None:
    fr = frel_algebra(make_builtin("chain3"), make_builtin("chain3"), 2)
    assert fr.name == "frel:chain3:chain3:2"
    assert fr.size == 81
    assert len(list(fr.tests())) == 9
    for t in fr.tests():
        name = fr.el_name(t)
        # diagonal entries only: off-diagonal weight is 0
        assert name.split(",")[1].startswith("0;") or ",0;" in name


def test_frel_arrow_lifts_the_test_sort_pointwise() -> None:
    fr = frel_algebra(make_builtin("chain3"), make_builtin("chain3"), 2)
    r = fr.resolve
    got = fr.arrow(r("[u,0;0,1]"), r("[0,0;0,0]"))
    assert fr.el_name(got) == "[0,0;0,0]"  # (u->0, 1->0) = (0, 0)
    got = fr.arrow(r("[0,0;0,u]"), r("[u,0;0,0]"))
    assert fr.el_name(got) == "[1,0;0,0]"  # 0->u = 1, u->0 = 0


def test_frel_star_of_a_nilpotent_relation() -> None:
    fr = frel_algebra(make_builtin("chain3"), make_builtin("chain3"), 2)
    r = fr.resolve
    assert fr.el_name(fr.star(r("[0,u;0,0]"))) == "[1,u;0,1]"


def test_frel_separate_test_sort_maps_by_element_name() -> None:
    # bool2's elements 0 and 1 both name elements of ex9, so the test sort
    # embeds; the relational algebra then has 2^2 diagonal tests.
    fr = frel_algebra(make_builtin("ex9"), make_builtin("bool2"), 2)
    assert fr.size == 256
    assert len(list(fr.tests())) == 4


@pytest.mark.parametrize(
    ("k", "t", "missing"),
    [("bool2", "ex9", "n"), ("luka:2", "powerset:x", "{}")],
)
def test_frel_rejects_a_test_sort_with_foreign_names(k, t, missing) -> None:
    # An element of T that names nothing in K stops the embedding.
    with pytest.raises(ValueError, match=f"element '{re.escape(missing)}' with no namesake"):
        frel_algebra(make_builtin(k), make_builtin(t), 1)


def test_frel_needs_at_least_one_point() -> None:
    with pytest.raises(ValueError, match="at least one point"):
        frel_algebra(make_builtin("chain3"), points=0)


# ---------------------------------------------------------------------------
# mat: full matrix algebras
# ---------------------------------------------------------------------------


def test_mat_algebra_shape_and_tests() -> None:
    m2 = mat_algebra(make_builtin("ex9"), 2)
    assert m2.name == "mat:ex9:2"
    assert m2.size == 256
    # diagonal pairs of ex9 tests: 3 * 3
    assert len(list(m2.tests())) == 9
    assert m2.el_name(m2.one) == "[1,0;0,1]"
    assert m2.el_name(m2.zero) == "[0,0;0,0]"


def test_mat_algebra_over_cap_raises_unless_sampled() -> None:
    with pytest.raises(SizeError, match=r"mat:ex9:3: carrier size 262144 exceeds cap 4096"):
        mat_algebra(make_builtin("ex9"), 3)
    with pytest.raises(TypeError):  # no positional cap or sampled flag
        mat_algebra(make_builtin("ex9"), 3, 4096)
    alg = mat_algebra(make_builtin("ex9"), 3, sampled=True)
    assert not alg.finite
    assert alg.member_pred is not None and alg.member_pred(alg.one)


def test_mat_algebra_rejects_n_below_one() -> None:
    with pytest.raises(ValueError, match="n >= 1"):
        mat_algebra(make_builtin("ex9"), 0)


def test_mat_algebra_star_agrees_with_the_block_helper() -> None:
    ex9 = make_builtin("ex9")
    m2 = mat_algebra(ex9, 2)
    r = m2.resolve
    got = m2.star(r("[0,n;0,0]"))
    assert m2.el_name(got) == "[1,n;0,1]"


def test_mat_algebra_passes_the_gkat_suite_sampled() -> None:
    rep = run_law_suite(mat_algebra(make_builtin("chain3"), 2), "gkat", Sampled(200, seed=0))
    assert rep.ok


@pytest.mark.parametrize(
    "build, value",
    [
        (lambda: mat_algebra(make_builtin("chain3"), 3, sampled=True), 5),
        (lambda: fset_algebra(make_builtin("luka:5"), 6, sampled=True), 5),
        (lambda: mat_algebra(make_builtin("chain3"), 3, sampled=True), ((99, 0, 0),) * 3),
        (lambda: mat_algebra(make_builtin("chain3"), 3, sampled=True), (0, 0)),
        (lambda: mat_algebra(make_builtin("chain3"), 3, sampled=True), (0, 0, 0, 0)),
        (lambda: mat_algebra(make_builtin("chain3"), 3, sampled=True), (0, 27, 0)),
        (lambda: mat_algebra(make_builtin("chain3"), 3, sampled=True), (0, -1, 0)),
        (lambda: mat_algebra(make_builtin("chain3"), 3, sampled=True), (0, True, 0)),
        (lambda: fset_algebra(make_builtin("luka:5"), 6, sampled=True), (True,) * 6),
        (lambda: flang_algebra(make_builtin("chain3"), None, "ab", 2), (("a", True),)),
        (lambda: flang_algebra(make_builtin("chain3"), None, "ab", 2), (1,)),
        (lambda: flang_algebra(make_builtin("chain3"), None, "ab", 2), (("a",),)),
        (lambda: flang_algebra(make_builtin("chain3"), None, "ab", 2), (("a", 1, 2),)),
        (lambda: flang_algebra(make_builtin("chain3"), None, "ab", 2), (["a", 1],)),
    ],
    ids=["mat-int", "fset-int", "mat-cell-99", "mat-short-code", "mat-long-code",
         "mat-row-27", "mat-row-negative", "mat-row-bool", "fset-cell-bool",
         "flang-weight-bool", "flang-item-int", "flang-item-short", "flang-item-long",
         "flang-item-list"],
)
def test_sampled_carriers_name_a_rejected_value_by_its_repr(build, value) -> None:
    alg = build()
    with pytest.raises(DomainError) as exc:
        alg.check_member(value)
    assert str(exc.value) == f"{value!r} is not an element of algebra {alg.name!r}"


# ---------------------------------------------------------------------------
# flang: weighted languages up to a length bound
# ---------------------------------------------------------------------------


def test_flang_union_joins_weights_wordwise() -> None:
    c3 = make_builtin("chain3")
    u, one = c3.resolve("u"), c3.resolve("1")
    assert flang_union(c3, (("a", u),), (("a", one),)) == (("a", one),)
    assert flang_union(c3, (("a", u),), (("b", u),)) == (("a", u), ("b", u))


def test_flang_concat_multiplies_along_splits() -> None:
    c3 = make_builtin("chain3")
    u, one = c3.resolve("u"), c3.resolve("1")
    assert flang_concat(c3, (("a", u),), (("b", one),), 4) == (("ab", u),)
    # words past the length bound are dropped
    assert flang_concat(c3, (("aaa", one),), (("bb", one),), 4) == ()


def test_flang_star_hand_value() -> None:
    c3 = make_builtin("chain3")
    u, one = c3.resolve("u"), c3.resolve("1")
    got = flang_star(c3, (("a", u),), 3)
    assert got == (("", one), ("a", u), ("aa", u), ("aaa", u))


def test_flang_algebra_basics() -> None:
    fl = flang_algebra(make_builtin("chain3"), make_builtin("chain3"), alphabet="ab", maxlen=4)
    assert fl.name == "flang:chain3:chain3:ab:4"
    assert not fl.finite
    assert fl.zero == ()
    assert fl.one == (("", make_builtin("chain3").resolve("1")),)
    assert len(fl.samples) >= 2


def test_flang_tests_live_on_the_empty_word() -> None:
    c3 = make_builtin("chain3")
    fl = flang_algebra(c3, c3, alphabet="ab", maxlen=4)
    u = c3.resolve("u")
    assert fl.is_test(fl.one)
    assert fl.is_test((("", u),))
    assert fl.is_test(fl.zero)
    assert not fl.is_test((("ab", u),))


def test_flang_membership_rejects_foreign_weights() -> None:
    fl = flang_algebra(make_builtin("chain3"), make_builtin("chain3"))
    assert fl.member_pred is not None
    assert fl.member_pred(fl.samples[0])
    assert not fl.member_pred((("a", 99),))


def test_flang_members_are_in_string_order_within_the_window() -> None:
    c3 = make_builtin("chain3")
    fl = flang_algebra(c3, None, "ab", 2)
    u, one = c3.resolve("u"), c3.resolve("1")
    assert fl.member_pred((("", one), ("aa", u), ("b", one), ("ba", u)))
    assert not fl.member_pred((("aab", one),))  # a word past the window
    assert not fl.member_pred((("a", c3.zero),))  # a zero weight
    assert not fl.member_pred((("a", one), ("a", u)))  # a repeated word
    assert not fl.member_pred((("b", one), ("aa", one)))  # shortlex, not string order
    assert fl.el_name((("aa", u), ("b", one))) == "{b:1,aa:u}"


def test_flang_validates_alphabet_and_maxlen() -> None:
    c3 = make_builtin("chain3")
    with pytest.raises(ValueError, match="distinct characters"):
        flang_algebra(c3, alphabet="aa")
    with pytest.raises(ValueError, match="maxlen >= 1"):
        flang_algebra(c3, maxlen=0)
    # Its name, which the fingerprint hashes, holds the alphabet.
    with pytest.raises(NameEncodingError, match=r"flang alphabet 'a\\udcff' cannot be encoded"):
        flang_algebra(c3, alphabet="a\udcff")
    with pytest.raises(NameEncodingError, match=r"algebra name 'x\\ud800' cannot be encoded"):
        dataclasses.replace(flang_algebra(c3), name="x\ud800")


def _swapped_bool2() -> FiniteAlgebra:
    """The two-element Boolean tables with the names of zero and one swapped."""
    b = make_builtin("bool2")
    return dataclasses.replace(b, name="swapped", element_names=b.element_names[::-1])


@pytest.mark.parametrize("make, error, message", [
    (lambda: frel_algebra(make_builtin("chain3"), _swapped_bool2(), 1), ValueError,
     "test algebra 'swapped' must share zero/one names with 'chain3'"),
    (lambda: flang_algebra(make_builtin("bool2"), alphabet="a", maxlen=2**16), SizeError,
     "flang:bool2:bool2:a:65536: 65537 star steps exceed bound 65536"),
    # A language prints as {word:weight,...} and the empty word as eps, so
    # no two languages of a carrier may print alike.
    *((lambda alphabet=alphabet: flang_algebra(make_builtin("bool2"), alphabet=alphabet,
                                               maxlen=2), ValueError,
       f"flang alphabet {alphabet!r} holds ',', ':', '{{', '}}' or whitespace,"
       " which language names use") for alphabet in ("a,b", "a:", "{", "b}", "a b", "\t")),
    (lambda: flang_algebra(make_builtin("bool2"), alphabet="spea", maxlen=3), ValueError,
     "flang alphabet 'spea' holds e, p and s, so at maxlen 3 the word 'eps' would print"
     " as the empty word"),
])
def test_each_refusal_names_its_cause(make, error, message) -> None:
    with pytest.raises(error) as info:
        make()
    assert str(info.value) == message


def test_an_eps_alphabet_is_accepted_below_maxlen_3() -> None:
    bool2 = make_builtin("bool2")
    fl = flang_algebra(bool2, alphabet="eps", maxlen=2)
    one = bool2.one
    assert fl.el_name(fl.one) == "{eps:1}"
    assert fl.el_name((("ep", one), ("s", one))) == "{s:1,ep:1}"


def test_fset_over_a_one_element_base_has_one_element_at_any_point_count() -> None:
    # A base of one test: the power is 1 whatever the exponent, so no cap applies.
    trivial = FiniteAlgebra("trivial", ("0",), (0,), 0, 0, ((0,),), ((0,),), ((0,),), (0,))
    alg = fset_algebra(trivial, 100)
    assert alg.finite and alg.size == 1
    assert alg.el_name(0) == "(" + ",".join(["0"] * 100) + ")"


def test_flang_sampled_suite_is_clean() -> None:
    fl = flang_algebra(make_builtin("chain3"), make_builtin("chain3"), alphabet="ab", maxlen=4)
    rep = run_law_suite(fl, "igkat", Sampled(50, seed=0))
    assert rep.ok


def _left_projection():
    """chain3 with a + b = a: a base whose sum is not commutative."""
    c3 = make_builtin("chain3")
    return dataclasses.replace(
        c3, name="leftproj", plus_table=tuple((a,) * c3.size for a in range(c3.size))
    )


def _right_projection():
    """chain3 with a + b = b: a base on which each order of a fold shows."""
    c3 = make_builtin("chain3")
    return dataclasses.replace(
        c3, name="rightproj", plus_table=(tuple(range(c3.size)),) * c3.size
    )


class TestShortlexReference:
    """``flang`` against the same carrier on shortlex-ordered languages.

    A canonical form is canonical in either order, and ε and the prefixes
    of a word come in the same order in both, so every name and verdict
    must read the same.  The left projection makes the order in which a
    concatenation folds a word's splits show.
    """

    # (K, T or None for K, maxlen), over the alphabet "ab"
    CARRIERS = [("chain3", None, 3), ("ex9", None, 2), ("chain3", "bool2", 2),
                ("leftproj", None, 2)]
    IDS = ["chain3:3", "ex9:2", "chain3:bool2:2", "leftproj:2"]

    @staticmethod
    def _base(kspec):
        return _left_projection() if kspec == "leftproj" else make_builtin(kspec)

    @classmethod
    def _pair(cls, kspec, tspec, maxlen):
        base = cls._base(kspec)
        alg = flang_algebra(base, tspec and make_builtin(tspec), "ab", maxlen)
        return alg, shortlex_flang(alg, base, maxlen)

    @pytest.mark.parametrize("carrier", CARRIERS, ids=IDS)
    @pytest.mark.parametrize("seed", [0, 1, 7])
    def test_every_pool_pair_names_the_reference_result(self, carrier, seed) -> None:
        alg, ref = self._pair(*carrier)
        pool = _sample_pools(alg, random.Random(seed))[0]
        ref_pool = _sample_pools(ref, random.Random(seed))[0]
        assert [alg.el_name(x) for x in pool] == [ref.el_name(x) for x in ref_pool]
        for x, rx in zip(pool, ref_pool):
            assert alg.el_name(alg.star(x)) == ref.el_name(ref.star(rx))
            for y, ry in zip(pool, ref_pool):
                for op in ("plus", "seq"):
                    assert alg.el_name(getattr(alg, op)(x, y)) == ref.el_name(
                        getattr(ref, op)(rx, ry))

    @pytest.mark.parametrize("carrier", CARRIERS, ids=IDS)
    @pytest.mark.parametrize(("samples", "seed"), [(300, 0), (300, 1), (2_000, 0), (2_000, 1)])
    def test_every_verdict_matches_the_reference(self, carrier, samples, seed) -> None:
        alg, ref = self._pair(*carrier)
        strategy = Sampled(samples, seed)
        assert every_verdict(alg, strategy) == every_verdict(ref, strategy)

    @staticmethod
    def _edge_languages(base, maxlen: int) -> list[dict]:
        """Languages that hold ε, words of length ``maxlen``, or both, as word-weight maps."""
        weights = [e for e in base.elements() if e != base.zero]
        longest = ["".join(w) for w in itertools.product("ab", repeat=maxlen)]
        shorter = ["".join(w) for k in range(1, maxlen) for w in itertools.product("ab", repeat=k)]
        window = ["", *shorter, *longest]
        langs = [{"": weights[0]}, {"": weights[-1]}, {longest[0]: weights[-1]},
                 {"": weights[0], longest[-1]: weights[-1]},
                 {w: weights[i % len(weights)] for i, w in enumerate(longest)},
                 {w: weights[i % len(weights)] for i, w in enumerate(window)}]
        if shorter:
            langs.append({"": weights[-1], shorter[0]: weights[0], longest[1]: weights[0]})
        return langs

    @pytest.mark.parametrize("kspec", ["chain3", "leftproj"])
    @pytest.mark.parametrize("maxlen", [1, 2, 3])
    def test_languages_at_the_window_edges_name_the_reference_result(self, kspec,
                                                                     maxlen) -> None:
        # A concatenation skips a right word longer than the room its left
        # word leaves, so ε and words of length maxlen on either side, and
        # their sums at the edge, must still give the reference's values.
        alg, ref = self._pair(kspec, None, maxlen)
        base = self._base(kspec)
        langs = self._edge_languages(base, maxlen)
        values = [tuple(sorted(lang.items())) for lang in langs]
        ref_values = [shortlex_norm(base, lang, maxlen) for lang in langs]
        for x, rx in zip(values, ref_values):
            alg.check_member(x)
            assert alg.el_name(x) == ref.el_name(rx)
            assert alg.el_name(alg.star(x)) == ref.el_name(ref.star(rx))
            for y, ry in zip(values, ref_values):
                for op in ("plus", "seq"):
                    assert alg.el_name(getattr(alg, op)(x, y)) == ref.el_name(
                        getattr(ref, op)(rx, ry))


def _odd_sum_base() -> FiniteAlgebra:
    """Four elements, all tests, whose sum is neither commutative nor idempotent.

    0 is the unit of the sum; 1 + 2 = 0 although neither is 0, 2 + 1 = 3,
    1 + 1 = 2 and 3 + 3 = 1.
    """
    plus = ((0, 1, 2, 3), (1, 2, 0, 3), (2, 3, 1, 0), (3, 0, 2, 1))
    seq = ((0, 0, 0, 0), (0, 1, 2, 3), (0, 2, 3, 1), (0, 3, 1, 2))
    return FiniteAlgebra(name="oddsum", element_names=("0", "1", "a", "b"),
                         test_indices=(0, 1, 2, 3), zero=0, one=1, plus_table=plus,
                         seq_table=seq, arrow_table=((1,) * 4,) * 4, star_table=(1,) * 4)


class TestLanguageKernels:
    """The merging union, and the other kernels, against the shortlex references.

    On a base where a sum of two nonzero weights can be zero, and where the
    order of a sum's operands shows, over every pair of a pool and of the
    results of its unions.
    """

    @pytest.mark.parametrize("maxlen", [1, 2])
    def test_every_pool_pair_matches_the_reference(self, maxlen) -> None:
        base = _odd_sum_base()
        alg = flang_algebra(base, None, "ab", maxlen)
        pool = _sample_pools(alg, random.Random(maxlen))[0]
        pool += [flang_union(base, x, y) for x, y in zip(pool, reversed(pool))]

        def shortlex(lang):
            return shortlex_norm(base, dict(lang), maxlen)

        def normal(lang):
            alg.check_member(lang)  # string order, no zero weight, in the window
            return shortlex(lang)

        dropped = 0
        for x in pool:
            try:
                got = normal(flang_star(base, x, maxlen))
            except DivergenceError:
                got = DivergenceError
            try:
                want = shortlex_star(base, shortlex(x), maxlen)
            except DivergenceError:
                want = DivergenceError
            assert got == want, x
            assert flang_union(base, x, ()) is x and flang_union(base, (), x) is x
            assert flang_concat(base, x, (), maxlen) == flang_concat(base, (), x, maxlen) == ()
            for y in pool:
                union = flang_union(base, x, y)
                dropped += len(union) < len({w for w, _ in x + y})
                assert normal(union) == shortlex_union(base, shortlex(x), shortlex(y), maxlen)
                assert normal(flang_concat(base, x, y, maxlen)) == shortlex_concat(
                    base, shortlex(x), shortlex(y), maxlen)
        assert dropped  # some union summed two nonzero weights to zero


class TestDrawsFromBits:
    """Draws by ``randbelow`` against the ``random.Random`` methods they replaced."""

    def test_randbelow_consumes_the_stream_as_the_random_methods(self) -> None:
        for n in range(1, 301):
            ours, theirs = random.Random(n), random.Random(n)
            gb = ours.getrandbits
            for _ in range(3):
                assert randbelow(gb, n) == theirs.randrange(n)
                assert 3 + randbelow(gb, n) == theirs.randint(3, n + 2)
                assert randbelow(gb, n) == theirs.choice(range(n))
            assert ours.getstate() == theirs.getstate()
        for n in (0, -1):
            with pytest.raises(ValueError):
                randbelow(random.Random(0).getrandbits, n)

    # (kind, K, T or None for K, maxlen, points or n); languages over "ab"
    CARRIERS = [("flang", "chain3", None, 3), ("flang", "ex9", None, 2),
                ("flang", "chain3", "bool2", 2), ("mat", "ex9", None, 3),
                ("frel", "chain3", "bool2", 3), ("fset", "chain3", None, 9)]
    IDS = ["flang:chain3:ab:3", "flang:ex9:ab:2", "flang:chain3:bool2:ab:2", "mat:ex9:3",
           "frel:chain3:bool2:3", "fset:chain3:9"]

    @staticmethod
    def _with_choice_draws(kind: str, k: str, t, size: int):
        """The sampled carrier, and it drawing by ``random.Random``'s methods."""
        kalg = make_builtin(k)
        talg = kalg if t is None else make_builtin(t)
        if kind == "flang":
            alg = flang_algebra(kalg, talg, "ab", size)
            draw = choice_flang_draw(kalg, "ab", size)
        elif kind == "fset":
            alg = fset_algebra(kalg, size, sampled=True)
            draw = choice_fset_draw(kalg, size)
        else:
            alg = (mat_algebra(kalg, size, sampled=True) if kind == "mat"
                   else frel_algebra(kalg, talg, size, sampled=True))
            draw = choice_matrix_draw(alg, kalg, _test_sort(kalg, talg)[0], size)
        return alg, dataclasses.replace(alg, draw=draw)

    @pytest.mark.parametrize("carrier", CARRIERS, ids=IDS)
    def test_pools_and_the_generator_after_them_match(self, carrier) -> None:
        alg, ref = self._with_choice_draws(*carrier)
        assert not alg.finite
        for seed in range(20):
            rng, ref_rng = random.Random(seed), random.Random(seed)
            assert _sample_pools(alg, rng) == _sample_pools(ref, ref_rng)
            assert rng.getstate() == ref_rng.getstate()


def test_flang_over_a_one_element_base() -> None:
    # 0 = 1: every language is zero, so one is () and a draw is ().
    base = FiniteAlgebra(name="trivial", element_names=("0",), test_indices=(0,), zero=0,
                         one=0, plus_table=((0,),), seq_table=((0,),), arrow_table=((0,),),
                         star_table=(0,))
    alg = flang_algebra(base, None, "ab", 2)
    assert alg.one == alg.zero == ()
    alg.check_member(alg.one)
    assert alg.draw(random.Random(0)) == ()
    assert run_law_suite(alg, "gkat", Sampled(50, seed=0)).ok


_GKAT_BASES = ("bool2", "chain3", "powerset:xy", "luka:3", "godel:3", "wajsberg:3", "ex9",
               "lemma4", "lemma6")
_IGKAT_BASES = ("bool2", "chain3", "powerset:xy", "godel:3", "lemma4")


@pytest.mark.parametrize(
    ("suite", "spec"),
    [("gkat", b) for b in _GKAT_BASES] + [("igkat", b) for b in _IGKAT_BASES],
)
def test_the_constructions_over_a_gkat_are_gkats(suite, spec) -> None:
    # The paper's abstract: FSET(T), FREL(K,T) and FLANG(K,T) over complete
    # residuated lattices, and M(n,A) over a GKAT or I-GKAT A, give GKAT
    # and I-GKAT a semantics.  So each construction over a base that passes
    # a suite passes it too.  A check whose space passes Auto's cap, and
    # every flang check, is sampled, which could only miss a counterexample.
    # All 56 suites take about 1.5 s on a 2-core machine.
    base = make_builtin(spec)
    assert run_law_suite(base, suite, Exhaustive()).ok
    for alg in (fset_algebra(base, 2), frel_algebra(base, None, 2), mat_algebra(base, 2),
                flang_algebra(base, None, "ab", 2)):
        rep = run_law_suite(alg, suite, Auto(samples=500))
        assert rep.ok, (alg.name, [law.name for law, _ in rep.failing()])


# ---------------------------------------------------------------------------
# Property checks against independent oracles
# ---------------------------------------------------------------------------


def _matrices(base_size: int, n: int):
    entry = st.integers(min_value=0, max_value=base_size - 1)
    row = st.tuples(*([entry] * n))
    return st.tuples(*([row] * n))


class TestMatrixProperties:
    @settings(max_examples=60, deadline=None)
    @given(
        st.sampled_from(["chain3", "godel:3", "bool2", "godel:2", "ex9", "lemma4"]),
        st.integers(2, 3),
        st.data(),
    )
    def test_block_star_matches_iteration(self, spec: str, n: int, data: st.DataObject) -> None:
        base, alg, el = _carrier(spec, n)
        m = data.draw(_matrices(base.size, n))
        assert alg.star(el(m)) == el(mat_star_iter(base, m))

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_mul_distributes_over_add(self, data: st.DataObject) -> None:
        base, alg, el = _carrier("chain3", 2)
        mats = _matrices(base.size, 2)
        a, b, c = el(data.draw(mats)), el(data.draw(mats)), el(data.draw(mats))
        left = alg.seq(a, alg.plus(b, c))
        right = alg.plus(alg.seq(a, b), alg.seq(a, c))
        assert left == right

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_star_unfolds(self, data: st.DataObject) -> None:
        base, alg, el = _carrier("chain3", 2)
        m = el(data.draw(_matrices(base.size, 2)))
        s = alg.star(m)
        unfold = alg.plus(el(mat_identity(base, 2)), alg.seq(m, s))
        assert s == unfold


# (K, T or None, n) of matrix carriers built with ``sampled=True``: n = 1..4
# over four bases, wajsberg:3 among them (its zero is index 2), and over
# chain3 with bool2 tests, plus rows past ``_ROW_TABLE_ROWS`` row numbers,
# which split into a high and a low part: chain3 at n = 6 (3^6 = 729, split
# 3 + 3), ex9 at n = 5 (an odd split, 2 + 3) and n = 9 (split twice), and
# godel:255 at n = 3 (|K| = 256, so only one-cell rows have tables).  Those
# within the cap (n = 1, 2) come out finite and are checked by index.
_CODED = [
    *((k, t, n) for k, t in (("chain3", None), ("ex9", None), ("lemma4", None),
                             ("wajsberg:3", None), ("chain3", "bool2")) for n in range(1, 5)),
    ("chain3", None, 6),
    ("ex9", None, 5),
    ("ex9", None, 9),
    ("godel:255", None, 3),
]


@functools.lru_cache(maxsize=None)
def _coded(k: str, t, n: int):
    kalg = make_builtin(k)
    if t is None:
        return kalg, kalg, mat_algebra(kalg, n, sampled=True)
    talg = make_builtin(t)
    return kalg, talg, frel_algebra(kalg, talg, n, sampled=True)


def _test_sort(kalg, talg):
    """T's tests as K indices and T's residual carried to K, by element name."""

    def to_k(t: int) -> int:
        return kalg.resolve(talg.el_name(t))

    def t_arrow(a: int, b: int) -> int:
        return to_k(talg.arrow(talg.resolve(kalg.el_name(a)), talg.resolve(kalg.el_name(b))))

    return [to_k(t) for t in talg.tests()], t_arrow


def _diagonal_arrow(kalg, t_arrow, s, e):
    n = len(s)
    return tuple(
        tuple(t_arrow(s[i][i], e[i][i]) if i == j else kalg.zero for j in range(n))
        for i in range(n)
    )


def _matrix_name(kalg, m) -> str:
    return "[" + ";".join(",".join(map(kalg.el_name, row)) for row in m) + "]"


def _test_matrices(zero: int, t_tests, n: int):
    diagonal = st.lists(st.sampled_from(t_tests), min_size=n, max_size=n)
    return diagonal.map(
        lambda d: tuple(tuple(d[i] if i == j else zero for j in range(n)) for i in range(n))
    )


class TestRowCodedMatrices:
    """Matrix carriers, finite or sampled, compute what the oracle's tuple kernels compute."""

    @settings(max_examples=150, deadline=None)
    @given(st.sampled_from(_CODED), st.data())
    def test_coded_kernels_match_the_tuple_kernels(self, spec, data: st.DataObject) -> None:
        kalg, talg, alg = _coded(*spec)
        n = spec[2]
        t_tests, t_arrow = _test_sort(kalg, talg)
        el = functools.partial(mat_element, alg, kalg.size)
        a, b = data.draw(_matrices(kalg.size, n)), data.draw(_matrices(kalg.size, n))
        s, e = (data.draw(_test_matrices(kalg.zero, t_tests, n)) for _ in range(2))
        alg.check_member(el(a))
        assert alg.plus(el(a), el(b)) == el(mat_add(kalg, a, b))
        assert alg.seq(el(a), el(b)) == el(mat_mul(kalg, a, b))
        assert alg.star(el(a)) == el(mat_star(kalg, a))
        assert alg.el_name(el(a)) == _matrix_name(kalg, a)
        assert alg.is_test(el(a)) == mat_is_test(kalg, t_tests, a)
        assert alg.is_test(el(s)) and alg.is_test(el(e))
        assert alg.arrow(el(s), el(e)) == el(_diagonal_arrow(kalg, t_arrow, s, e))

    @pytest.mark.parametrize("n", [1, 2, 3, 6, 40])
    def test_a_product_row_is_the_left_fold_from_zero(self, n) -> None:
        # Every shipped base has a commutative and associative sum, under
        # which no order of a fold shows.  Under a + b = b, a fold is its
        # last term, so any other order or grouping gives another matrix;
        # under chain3's join, a term left out shows.  Rows of 6 cells over
        # three elements are split rows; a row of 40 cells is folded in more
        # than one nested expression.
        for kalg in (_right_projection(), make_builtin("chain3")):
            alg = mat_algebra(kalg, n, sampled=True)
            el = functools.partial(mat_element, alg, kalg.size)
            rng = random.Random(n)
            for _ in range(10):
                a, b = (tuple(tuple(rng.randrange(kalg.size) for _ in range(n))
                              for _ in range(n)) for _ in range(2))
                assert alg.seq(el(a), el(b)) == el(mat_mul(kalg, a, b))
        if n == 2:
            kalg = _right_projection()
            values = list(itertools.product(itertools.product(range(3), repeat=2), repeat=2))
            index = {m: i for i, m in enumerate(values)}
            assert mat_algebra(kalg, 2).seq_table == tuple(
                tuple(index[mat_mul(kalg, a, b)] for b in values) for a in values)

    def test_constants_and_draws_are_coded_members(self) -> None:
        kalg, _, alg = _coded("ex9", None, 3)
        assert alg.zero == mat_element(alg, kalg.size, mat_zero(kalg, 3))
        assert alg.one == mat_element(alg, kalg.size, mat_identity(kalg, 3))
        rng = random.Random(3)
        draws = [alg.draw(rng) for _ in range(100)]
        for m in draws:
            alg.check_member(m)
        assert any(alg.is_test(m) for m in draws) and not all(alg.is_test(m) for m in draws)


def test_each_row_width_compiles_one_product_kernel_per_process(monkeypatch) -> None:
    # A product kernel's source is made and compiled once per row width, and
    # each carrier binds it to its own tables: building matrix carriers over
    # other bases, or again, compiles nothing more.
    compiled = []

    def counting_exec(source, namespace):
        compiled.append(source)
        exec(source, namespace)

    monkeypatch.setattr(constructions, "exec", counting_exec, raising=False)
    _product_kernel.cache_clear()
    for _ in range(2):
        for spec in ("bool2", "chain3", "ex9", "lemma4"):
            mat_algebra(make_builtin(spec), 2)
        frel_algebra(make_builtin("chain3"), make_builtin("bool2"), 2)
        mat_algebra(make_builtin("bool2"), 3)
        for alg in (mat_algebra(make_builtin("chain3"), 3, sampled=True),
                    frel_algebra(make_builtin("ex9"), None, 3, sampled=True)):
            m = alg.draw(random.Random(1))
            alg.seq(alg.star(m), m)
    # widths 1, 2 and 3: the products of 2x2 and 3x3 matrices and of their blocks
    assert len(compiled) == len(set(compiled)) == 3
    assert _product_kernel.cache_info().currsize == 3


@pytest.mark.parametrize(("spec", "n"), [("ex9", 6), ("godel:255", 3)])
def test_split_rows_build_no_table_past_the_largest(spec, n) -> None:
    # Row tables of 256 row numbers take about 0.55 MB; one of 4^6 = 4096
    # (ex9) or 256^2 (godel:255) row numbers would take hundreds of MB.
    base = make_builtin(spec)
    tracemalloc.start()
    try:
        rep = run_law_suite(mat_algebra(base, n, sampled=True), "gkat", Sampled(30, seed=0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.ok
    assert peak < 3_000_000, peak


def test_the_oracles_share_no_code_with_the_constructions() -> None:
    source = pathlib.Path(__file__).with_name("oracles.py").read_text()
    imported = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            imported.add(node.module)
        elif isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
    assert imported and not any(m and m.startswith("gkat_workbench.constructions")
                                for m in imported), imported


# ---------------------------------------------------------------------------
# Pinned fingerprints: every cell of every table the benchmark builds
# ---------------------------------------------------------------------------

# (kind, K, T or None, points, fingerprint); the derived-construct specs of
# perfbench/workloads.py (full and tiny) and mat:bool2:3.  The fingerprints
# were computed with the per-cell enumeration that the index arithmetic
# replaced.
PINNED = [
    ("fset", "chain3", None, 2,
     "74c7888da23c0930702ba4d41210e7a416dd65a16da16a32a3797fb873f421e5"),
    ("fset", "powerset:xy", None, 3,
     "6b764c836599ea2e345df78bf6cc20c12255187318b78a6662868f2503b2027c"),
    ("fset", "luka:3", None, 3,
     "cf65de481aeeb8acd010938097d3b3833121335b53dbe1b84900228d34b06f5e"),
    ("fset", "godel:4", None, 3,
     "72bb8fb4585887569d0f6309946bd82206ee4602282fae96730d5465abd45c77"),
    ("fset", "chain3", None, 5,
     "ae9d0a9debc25ee6833a91b96fec508db79aed99d17ca351d084203dae7f50e2"),
    ("fset", "luka:2", None, 5,
     "c7a0a9157f6d37c496407572133f639df41d596eba71947e8daa34ca2aef31da"),
    ("fset", "wajsberg:4", None, 4,
     "671c54f433c7ed2f9ad2117e899880c25eb3ed889bcfb7a8e753810e01ed534c"),
    ("frel", "bool2", None, 2,
     "c42e8e90eab79ea6d08f5231d9256dee84eb871201b896fcbb7fdf711cd2c4b4"),
    ("frel", "chain3", None, 2,
     "07244361a90aaf24c111c2753bdbe0f1e30e27d386548b3091c16cd273efd120"),
    ("frel", "chain3", "bool2", 2,
     "d334a4d78e6a1edb2dfbcb1bedc38e6d1f49b5ef999305a42edde542e2fc8061"),
    ("frel", "godel:2", "bool2", 2,
     "61457e00eba2abdc0a9527fff51486ee50c4c0ab9e323076a004ba7a325baa8e"),
    ("frel", "ex9", "bool2", 2,
     "6846c3949a88842d433efc8a2c62f6e869ee155636579426e33a0fc88d2cbbcd"),
    ("mat", "bool2", None, 2,
     "39771a3b5214e70e8e2f9f89d8ea31551594ec0e649829228a739faad2940f45"),
    ("mat", "chain3", None, 2,
     "86916af8909481a45d59eae4eecf5673169e44b01d44c38e16173fd5a8fda951"),
    ("mat", "luka:2", None, 2,
     "cbd1de4a716a6dacd4317205b17ae48baab0053414d730eef49b65e9f5ae27ce"),
    ("mat", "ex9", None, 2,
     "f45f0273a5ffa7557695847d147a097b904842a470efc1407f9912b52f632809"),
    ("mat", "lemma4", None, 2,
     "5976ba652344b78f93c561415cd2d73e3ad3fa2621845ac626601cf9d330c317"),
    ("frel", "chain3", "bool2", 1,
     "edf8b6c0e6605b1a0e7e618f7eaa0453b54c52eb5c0f27281a10986adb9e1313"),
    ("mat", "bool2", None, 3,
     "1a3a2d234e3f228c5ea42a0acd9bace59970479ac6264a23f6cac57059cd0d73"),
]


def _build(kind: str, k: str, t, points: int):
    if kind == "fset":
        return fset_algebra(make_builtin(k), points)
    if kind == "frel":
        return frel_algebra(make_builtin(k), None if t is None else make_builtin(t), points)
    return mat_algebra(make_builtin(k), points)


@pytest.mark.parametrize(
    ("kind", "k", "t", "points", "digest"),
    PINNED,
    ids=[f"{kind}:{k}:{t + ':' if t else ''}{p}" for kind, k, t, p, _ in PINNED],
)
def test_derived_table_fingerprints_are_pinned(kind, k, t, points, digest, tmp_path) -> None:
    assert _build(kind, k, t, points).fingerprint() == "sha256:" + digest
    # The written file's bytes hash to the same digest, on a fresh object
    # whose fingerprint is recorded by the write.
    alg = _build(kind, k, t, points)
    path = tmp_path / "table.alg"
    dump_algebra(alg, path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest
    assert alg.fingerprint() == "sha256:" + digest


# ---------------------------------------------------------------------------
# The index-arithmetic tables against the value-level kernels
# ---------------------------------------------------------------------------

ORACLE_CARRIERS = [
    ("fset", "chain3", None, 2),
    ("fset", "luka:2", None, 3),
    ("fset", "powerset:xy", None, 2),
    ("frel", "chain3", "bool2", 2),
    ("frel", "ex9", "bool2", 1),
    ("mat", "bool2", None, 3),
    ("mat", "ex9", None, 2),
    ("mat", "lemma4", None, 1),
    ("mat", "wajsberg:3", None, 2),
]
# Tables of at most this many elements have every cell checked; larger
# ones every cell of a fixed seeded sample of rows.
FULL_CELL_CHECK = 81
SAMPLED_ROWS = 12


def _kernels(kind: str, k: str, t, points: int):
    """Carrier values in ``itertools.product`` order, their names, and value ops."""
    kalg = make_builtin(k)
    if kind == "fset":
        values = list(itertools.product(kalg.tests(), repeat=points))

        def pointwise(op):
            return lambda v, w: tuple(op(a, b) for a, b in zip(v, w))

        def star(v):
            return tuple(star_lfp(kalg, a) for a in v)

        names = ["(" + ",".join(map(kalg.el_name, v)) + ")" for v in values]
        plus, seq, arrow = (pointwise(op) for op in (kalg.plus, kalg.seq, kalg.arrow))
        return values, names, list(range(len(values))), plus, seq, star, arrow
    t_tests, t_arrow = _test_sort(kalg, kalg if t is None else make_builtin(t))
    rows = list(itertools.product(kalg.elements(), repeat=points))
    values = list(itertools.product(rows, repeat=points))
    names = [_matrix_name(kalg, m) for m in values]
    tests = [n for n, m in enumerate(values) if mat_is_test(kalg, t_tests, m)]
    return (values, names, tests, lambda a, b: mat_add(kalg, a, b),
            lambda a, b: mat_mul(kalg, a, b), lambda m: mat_star(kalg, m),
            lambda a, b: _diagonal_arrow(kalg, t_arrow, a, b))


@pytest.mark.parametrize(
    ("kind", "k", "t", "points"),
    ORACLE_CARRIERS,
    ids=[f"{kind}:{k}:{t + ':' if t else ''}{p}" for kind, k, t, p in ORACLE_CARRIERS],
)
def test_radix_tables_match_the_value_level_kernels(kind, k, t, points) -> None:
    alg = _build(kind, k, t, points)
    values, names, tests, plus, seq, star, arrow = _kernels(kind, k, t, points)
    assert alg.element_names == tuple(names)
    assert alg.tests() == tuple(tests)
    index = {v: i for i, v in enumerate(values)}
    rows = range(alg.size)
    if alg.size > FULL_CELL_CHECK:
        rows = sorted(random.Random(0).sample(rows, SAMPLED_ROWS))
    for i in rows:
        for j, w in enumerate(values):
            assert alg.plus_table[i][j] == index[plus(values[i], w)], (i, j)
            assert alg.seq_table[i][j] == index[seq(values[i], w)], (i, j)
    for i, v in enumerate(values):
        assert alg.star_table[i] == index[star(v)], i
    for i in tests:
        for j in tests:
            assert alg.arrow_table[i][j] == index[arrow(values[i], values[j])], (i, j)
