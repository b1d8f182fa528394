"""Surface syntax: parsing terms and while-programs, precedence, pretty-printing."""

from __future__ import annotations

import copy
import pickle
import time

import pytest
from hypothesis import given, strategies as st

from gkat_workbench.terms import (
    Arrow,
    One,
    ParseError,
    Plus,
    Seq,
    Sort,
    SortError,
    Star,
    Var,
    Zero,
    free_vars,
    mk_arrow,
    mk_not,
    parse_program,
    parse_term,
    pretty,
    sort_of,
)

SORTS = {name: Sort.TEST for name in "abcd"} | {name: Sort.PROGRAM for name in "pqrs"}

_a, _b = Var("a", Sort.TEST), Var("b", Sort.TEST)
_p, _q = Var("p", Sort.PROGRAM), Var("q", Sort.PROGRAM)


def test_plus_binds_loosest():
    assert parse_term("a+b;p", SORTS) == Plus(_a, Seq(_b, _p))


def test_star_and_not_bind_tightest():
    assert parse_term("!a;p", SORTS) == Seq(mk_not(_a), _p)
    assert parse_term("p;q*", SORTS) == Seq(_p, Star(_q))
    assert parse_term("(p+q)*", SORTS) == Star(Plus(_p, _q))


def test_binary_operators_associate_left():
    assert parse_term("p;q;r", SORTS) == Seq(Seq(_p, _q), Var("r", Sort.PROGRAM))
    assert parse_term("p+q+r", SORTS) == Plus(Plus(_p, _q), Var("r", Sort.PROGRAM))


def test_arrow_associates_right():
    assert parse_term("a->b->a", SORTS) == Arrow(_a, Arrow(_b, _a))


def test_bang_is_arrow_into_zero():
    assert parse_term("!a", SORTS) == Arrow(_a, Zero())
    assert parse_term("a -> 0", SORTS) == mk_not(_a)
    assert pretty(Arrow(_a, Zero())) == "!a"


def test_constants_parse():
    assert parse_term("0+1", SORTS) == Plus(Zero(), One())


@pytest.mark.parametrize("bad", ["a +", "(a", "p *;", "if", "a & b", "p q"])
def test_malformed_input_raises(bad):
    with pytest.raises(ParseError):
        parse_term(bad, SORTS)


def test_unknown_identifier_lists_known_names():
    with pytest.raises(ParseError, match="unknown identifier 'z'"):
        parse_term("z", SORTS)


def test_arrow_rejects_program_operands():
    with pytest.raises(SortError, match="must be test-sorted"):
        parse_term("p->a", SORTS)
    with pytest.raises(SortError):
        mk_arrow(_p, _a)


def test_sorts_of_compound_terms():
    assert sort_of(Plus(_a, _b)) is Sort.TEST
    assert sort_of(Seq(_a, _p)) is Sort.PROGRAM
    assert sort_of(Star(_a)) is Sort.PROGRAM
    assert sort_of(Arrow(_a, _b)) is Sort.TEST


def test_equal_terms_are_one_object():
    t = parse_term("(a;p + !a;q)*;!a", SORTS)
    assert parse_term("(a;p + !a;q)*;!a", SORTS) is t
    assert Seq(Star(Plus(Seq(_a, _p), Seq(mk_not(_a), _q))), Arrow(_a, Zero())) is t
    assert Var("a", Sort.TEST) is _a and Var("a", Sort.PROGRAM) is not _a
    assert Plus(_p, _q) is not Seq(_p, _q) and Plus(_p, _q) is not Plus(_q, _p)


def test_pickle_and_copy_return_the_interned_term():
    t = parse_term("(a;p + !a;q)*;!a", SORTS)
    assert pickle.loads(pickle.dumps(t)) is t
    assert copy.deepcopy(t) is t and copy.copy(t) is t


def test_a_term_prints_as_a_dataclass_does():
    t = parse_term("(p;q)* + a;!b", SORTS)
    p, q = "sort=<Sort.PROGRAM: 'program'>", "sort=<Sort.TEST: 'test'>"
    assert repr(t) == (
        f"Plus(left=Star(inner=Seq(left=Var(name='p', {p}), right=Var(name='q', {p}))),"
        f" right=Seq(left=Var(name='a', {q}),"
        f" right=Arrow(left=Var(name='b', {q}), right=Zero())))"
    )
    assert repr(Seq(One(), One())) == "Seq(left=One(), right=One())"


def test_the_repr_of_a_deep_chain_takes_linear_time():
    # A repr that keeps each subterm's text and copies it into its parent's
    # takes quadratic time and memory: seconds at 8,000 levels.  One pass
    # takes under 0.1 s at 20,000 levels on a 2-core machine.
    t = _p
    for _ in range(20_000):
        t = Seq(t, _q)
    start = time.perf_counter()
    text = repr(t)
    assert time.perf_counter() - start < 2.0
    leaf = "Var(name='q', sort=<Sort.PROGRAM: 'program'>)"
    assert text.startswith("Seq(left=" * 20_000) and text.endswith(f", right={leaf})")
    assert len(text) == 20_000 * len(f"Seq(left=, right={leaf})") + len(repr(_p))


def test_a_dead_term_leaves_no_entry():
    live = len(Plus._live)
    t = Plus(Var("dead", Sort.PROGRAM), _p)
    assert len(Plus._live) == live + 1
    del t
    assert len(Plus._live) == live


def test_free_vars_in_first_occurrence_order():
    t = parse_term("q;(a+p)+q", SORTS)
    assert free_vars(t) == (_q, _a, _p)
    assert free_vars(parse_term("p;b", SORTS), t) == (_p, _b, _q, _a)


def test_free_vars_rejects_sort_conflicts():
    clash = Plus(Var("x", Sort.TEST), Var("x", Sort.PROGRAM))
    with pytest.raises(SortError, match="two different sorts"):
        free_vars(clash)
    with pytest.raises(SortError, match="two different sorts"):
        free_vars(Var("x", Sort.TEST), Var("x", Sort.PROGRAM))


# -- while-programs ----------------------------------------------------------


def test_program_surface_forms():
    prog = parse_program("while a do { p }; q", SORTS)
    assert prog == Seq(Seq(Star(Seq(_a, _p)), mk_not(_a)), _q)


def test_desugar_shapes():
    assert parse_program("skip", SORTS) == One()
    assert parse_program("halt", SORTS) == Zero()
    assert parse_program("(p)", SORTS) == _p
    assert parse_program("while a do { p }", SORTS) == Seq(Star(Seq(_a, _p)), mk_not(_a))
    assert parse_program("if a then { p } else { q }", SORTS) == Plus(
        Seq(_a, _p), Seq(mk_not(_a), _q)
    )
    assert parse_program("if a then { p }", SORTS) == Plus(Seq(_a, _p), mk_not(_a))


def test_program_guard_must_be_test():
    with pytest.raises(SortError, match="must be test-sorted"):
        parse_program("while p do { q }", SORTS)


def test_if_without_else_parses():
    prog = parse_program("if a+b then { p }", SORTS)
    assert prog == Plus(Seq(Plus(_a, _b), _p), mk_not(Plus(_a, _b)))


def test_program_errors_name_the_position():
    with pytest.raises(ParseError, match="unknown identifier 'zz' at position 13; declared"):
        parse_program("while a do { zz }", SORTS)
    with pytest.raises(ParseError, match="unexpected token '1' at position 12 in program"):
        parse_program("if a then { 1 }", SORTS)


def test_reserved_words_stay_reserved():
    with pytest.raises(ParseError, match="reserved word"):
        parse_term("while", SORTS)


# -- generated round-trips ---------------------------------------------------

_test_leaves = st.one_of(
    st.builds(Zero),
    st.builds(One),
    st.sampled_from("abcd").map(lambda n: Var(n, Sort.TEST)),
)

test_terms = st.recursive(
    _test_leaves,
    lambda inner: st.one_of(
        st.builds(Plus, inner, inner),
        st.builds(Seq, inner, inner),
        st.builds(Arrow, inner, inner),
    ),
    max_leaves=12,
)

program_terms = st.recursive(
    st.one_of(_test_leaves, st.sampled_from("pqrs").map(lambda n: Var(n, Sort.PROGRAM))),
    lambda inner: st.one_of(
        st.builds(Plus, inner, inner),
        st.builds(Seq, inner, inner),
        st.builds(Star, inner),
        st.builds(Arrow, inner.filter(lambda t: sort_of(t) is Sort.TEST),
                  inner.filter(lambda t: sort_of(t) is Sort.TEST)),
    ),
    max_leaves=12,
)


class TestRoundTrips:
    @given(program_terms)
    def test_pretty_then_parse_is_identity(self, t):
        assert parse_term(pretty(t), SORTS) == t

    @given(test_terms)
    def test_test_terms_stay_test_sorted(self, t):
        assert sort_of(t) is Sort.TEST
        assert parse_term(pretty(t), SORTS) == t

    @given(program_terms)
    def test_free_vars_are_exactly_the_named_leaves(self, t):
        names = {v.name for v in free_vars(t)}
        assert names == {tok for tok in pretty(t).replace("(", " ") if tok.isalpha()}
