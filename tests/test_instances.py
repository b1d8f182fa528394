"""Shipped algebra instances: table contents, spec parsing, sampled carriers."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from gkat_workbench import make_builtin
from gkat_workbench.algebra import DomainError
from gkat_workbench.instances import INF, STANDARD_FINITE
from gkat_workbench.semantics import Sampled, _sample_pools
from oracles import derived_leq, every_verdict, fraction_product, fraction_tropical


def _op(alg, op, *names):
    return alg.el_name(getattr(alg, op)(*(alg.resolve(n) for n in names)))


def test_standard_finite_lineup():
    assert STANDARD_FINITE == (
        "bool2",
        "chain3",
        "powerset:xy",
        "luka:5",
        "godel:5",
        "wajsberg:4",
        "ex9",
        "lemma4",
        "lemma6",
    )
    for spec in STANDARD_FINITE:
        alg = make_builtin(spec)
        assert alg.finite and alg.size <= 8


def test_chain3_tables():
    c3 = make_builtin("chain3")
    assert c3.element_names == ("0", "u", "1")
    assert c3.tests() == (0, 1, 2)
    assert _op(c3, "plus", "u", "1") == "1"
    assert _op(c3, "seq", "u", "1") == "u"
    assert _op(c3, "arrow", "u", "0") == "0"
    assert _op(c3, "arrow", "0", "u") == "1"


def test_bounded_sum_chain_tables():
    luka = make_builtin("luka:5")
    assert luka.element_names == ("0", "1/5", "2/5", "3/5", "4/5", "1")
    assert luka.tests() == tuple(range(6))
    assert _op(luka, "seq", "2/5", "4/5") == "1/5"  # max(0, 2/5 + 4/5 - 1)
    assert _op(luka, "seq", "1/5", "1/5") == "0"
    assert _op(luka, "arrow", "2/5", "0") == "3/5"  # min(1, 1 - 2/5 + 0)
    assert _op(luka, "plus", "2/5", "4/5") == "4/5"
    assert _op(luka, "star", "4/5") == "1"


def test_min_residuated_chain_tables():
    g5 = make_builtin("godel:5")
    assert _op(g5, "seq", "2/5", "4/5") == "2/5"  # min
    assert _op(g5, "arrow", "2/5", "1/5") == "1/5"  # strictly above target
    assert _op(g5, "arrow", "1/5", "2/5") == "1"  # already below
    assert _op(g5, "arrow", "1/5", "0") == "0"


def test_generator_power_tables():
    w4 = make_builtin("wajsberg:4")
    assert w4.element_names == ("a^0", "a^1", "a^2", "a^3")
    assert (w4.el_name(w4.one), w4.el_name(w4.zero)) == ("a^0", "a^3")
    assert _op(w4, "seq", "a^1", "a^2") == "a^3"  # exponents add, truncated
    assert _op(w4, "plus", "a^1", "a^2") == "a^1"  # larger exponents sit lower
    assert _op(w4, "arrow", "a^2", "a^1") == "a^0"
    assert _op(w4, "arrow", "a^1", "a^3") == "a^2"
    assert _op(w4, "star", "a^3") == "a^0"


def test_powerset_tables():
    ps = make_builtin("powerset:xy")
    assert ps.element_names == ("{}", "{x}", "{y}", "{x,y}")
    assert ps.tests() == (0, 1, 2, 3)
    assert _op(ps, "plus", "{x}", "{y}") == "{x,y}"
    assert _op(ps, "seq", "{x}", "{x,y}") == "{x}"
    assert _op(ps, "arrow", "{x}", "{}") == "{y}"  # complement
    assert _op(ps, "arrow", "{x}", "{y}") == "{y}"


def test_four_element_counterexample_tables():
    ex9 = make_builtin("ex9")
    assert ex9.element_names == ("0", "n", "m", "1")
    assert ex9.tests() == (0, 2, 3)
    assert _op(ex9, "seq", "m", "m") == "0"
    assert _op(ex9, "arrow", "m", "0") == "m"  # negation fixes m
    assert _op(ex9, "plus", "m", "m") == "m"

    l4 = make_builtin("lemma4")
    assert _op(l4, "seq", "m", "n") == "n"
    assert _op(l4, "seq", "n", "m") == "0"

    l6 = make_builtin("lemma6")
    assert l6.tests() == (0, 1, 3)
    assert _op(l6, "seq", "n", "m") == "n"
    assert _op(l6, "seq", "m", "n") == "0"


@pytest.mark.parametrize(
    "bad",
    ["", "luka", "luka:x", "mystery", "bool2:3", "tropical:9"],
)
def test_malformed_specs_fail_at_parse(bad):
    with pytest.raises(ValueError):
        make_builtin(bad)


@pytest.mark.parametrize(
    "bad",
    ["luka:0", "godel:-1", "luka:256", "godel:256", "wajsberg:1", "wajsberg:65",
     "powerset:", "powerset:xx", "powerset:abcdefghi"],
)
def test_out_of_range_parameters_fail_at_build(bad):
    with pytest.raises(ValueError):
        make_builtin(bad)


def test_spec_error_lists_the_forms():
    with pytest.raises(ValueError, match="luka:<n>"):
        make_builtin("noexist")


def test_a_bare_form_accepts_padding_and_an_empty_argument():
    fp = make_builtin("ex9").fingerprint()
    assert make_builtin(" ex9 ").fingerprint() == fp
    assert make_builtin("ex9:").fingerprint() == fp


@pytest.mark.parametrize(
    "spec, fingerprint",
    [
        ("luka:0", "luka chain needs 1 <= n <= 255"),
        ("luka:1", "sha256:200e3e1519e5616b64dd68af2cc69e85a4ee50345555a7588863f69dd5ae07c7"),
        ("luka:255", "sha256:e79a925c376bc6f252bdb49e7abf0905b0a369f4b93756d77f87b06776ae712a"),
        ("luka:256", "luka chain needs 1 <= n <= 255"),
        ("godel:0", "godel chain needs 1 <= n <= 255"),
        ("godel:1", "sha256:e2890e63220b1543330506a9caa961dd00783f016b666820b97e84f9757484e0"),
        ("godel:255", "sha256:2d72a0eb14f8ed5bc03af71453b080f92fcf35b064a6e0157d283e13633f3897"),
        ("godel:256", "godel chain needs 1 <= n <= 255"),
    ],
)
def test_fraction_chains_at_their_bounds(spec, fingerprint):
    if fingerprint.startswith("sha256:"):
        assert make_builtin(spec).fingerprint() == fingerprint
    else:
        with pytest.raises(ValueError) as exc:
            make_builtin(spec)
        assert str(exc.value) == fingerprint


def test_unit_chains_collapse_gracefully():
    # n=1 leaves just {0, 1} in both chain families.
    for spec in ("luka:1", "godel:1"):
        alg = make_builtin(spec)
        assert alg.element_names == ("0", "1")


def _member(alg, name):
    """The pool member of the procedural carrier ``alg`` named ``name``."""
    return next(v for v in alg.samples if alg.el_name(v) == name)


def test_product_carrier_operations():
    prod = make_builtin("product")
    half, third = _member(prod, "1/2"), _member(prod, "1/3")
    assert prod.el_name(prod.seq(half, third)) == "1/6"
    assert prod.plus(half, third) == half
    assert prod.arrow(third, half) == prod.one
    assert prod.arrow(half, third) == _member(prod, "2/3")
    assert prod.star(half) == prod.one
    assert prod.is_test(half)
    assert prod.zero in prod.samples and prod.one in prod.samples


def test_cost_carrier_operations():
    trop = make_builtin("tropical")
    two, five = _member(trop, "2"), _member(trop, "5")
    assert trop.plus(two, five) == two  # cheaper branch wins
    assert trop.el_name(trop.seq(two, five)) == "7"
    assert trop.seq(two, INF) == INF
    assert trop.el_name(trop.arrow(two, five)) == "3"
    assert trop.arrow(five, two) == trop.one
    assert trop.arrow(INF, two) == trop.one
    assert trop.el_name(INF) == "inf"
    # The derived order is cheapest-first: 2 + 5 picks 2, so 5 <= 2.
    assert derived_leq(trop, five, two)


@pytest.mark.parametrize(
    ("spec", "value"),
    [
        ("product", Fraction(1, 2)),  # the old coding
        ("product", (2, 4)),  # not reduced
        ("product", (3, 2)),  # above one
        ("product", (-1, 2)),
        ("product", (0, 0)),
        ("product", (True, True)),
        ("product", (1.0, 2)),
        ("product", [1, 2]),
        ("product", (1, 2, 1)),
        ("tropical", Fraction(2)),  # the old coding
        ("tropical", -1),
        ("tropical", True),
        ("tropical", 2.0),
        ("tropical", float("-inf")),
        ("tropical", float("nan")),
        ("tropical", "inf"),
    ],
)
def test_procedural_membership_rejects_other_forms(spec, value):
    with pytest.raises(DomainError):
        make_builtin(spec).check_member(value)


def test_sampled_draws_are_members():
    for spec in ("product", "tropical"):
        alg = make_builtin(spec)
        rng = random.Random(11)
        for _ in range(200):
            alg.check_member(alg.draw(rng))


class TestResiduation:
    """seq and arrow form an adjoint pair on the residuated chains."""

    @given(
        st.sampled_from(("luka:4", "luka:7", "godel:4", "godel:7", "wajsberg:5")),
        st.data(),
    )
    def test_galois_connection(self, spec, data):
        alg = make_builtin(spec)
        els = st.integers(0, alg.size - 1)
        a, b, c = (data.draw(els) for _ in range(3))
        lhs = derived_leq(alg, alg.seq(a, b), c)
        rhs = derived_leq(alg, b, alg.arrow(a, c))
        assert lhs == rhs


class TestIntegerCodings:
    """The integer codings of product and tropical against ``Fraction`` arithmetic.

    Both sides draw the same pools from the same seed, so a pool position
    names one value on each side; every operation, and every verdict, must
    read the same.
    """

    CODINGS = (("product", fraction_product), ("tropical", fraction_tropical))

    @pytest.mark.parametrize(("spec", "reference"), CODINGS)
    @pytest.mark.parametrize("seed", [0, 1, 7])
    def test_every_pool_pair_names_the_reference_result(self, spec, reference, seed):
        alg, ref = make_builtin(spec), reference()
        rng, ref_rng = random.Random(seed), random.Random(seed)
        pool = _sample_pools(alg, rng)[0]
        ref_pool = _sample_pools(ref, ref_rng)[0]
        assert [alg.el_name(x) for x in pool] == [str(x) for x in ref_pool]
        assert rng.getstate() == ref_rng.getstate()  # the draws consume the stream alike
        for x, rx in zip(pool, ref_pool):
            assert alg.el_name(alg.star(x)) == str(ref.star(rx))
            for y, ry in zip(pool, ref_pool):
                for op in ("plus", "seq", "arrow"):
                    assert alg.el_name(getattr(alg, op)(x, y)) == str(getattr(ref, op)(rx, ry))

    @pytest.mark.parametrize(("spec", "reference"), CODINGS)
    @pytest.mark.parametrize(("samples", "seed"), [(300, 0), (300, 5), (2_000, 1), (2_000, 9)])
    def test_every_verdict_matches_the_reference(self, spec, reference, samples, seed):
        strategy = Sampled(samples, seed)
        assert every_verdict(make_builtin(spec), strategy) == every_verdict(reference(), strategy)
