"""Carrier-level behaviour: table validation, sorts, and the derived order."""

from __future__ import annotations

import hashlib
import json
import re
from dataclasses import replace

import pytest
from hypothesis import given, strategies as st

from gkat_workbench import (
    ClosureError,
    DomainError,
    FiniteAlgebra,
    NameEncodingError,
    ProceduralAlgebra,
    SortError,
    make_builtin,
    star_lfp,
)
from gkat_workbench.algfile import dump_algebra
from gkat_workbench.cli import build_construct, main
from gkat_workbench.instances import STANDARD_FINITE
from oracles import derived_leq


def _bool_kwargs(**over):
    """Valid two-element Boolean tables, with overrides for breakage tests."""
    kwargs = dict(
        name="tiny",
        element_names=("0", "1"),
        test_indices=(0, 1),
        zero=0,
        one=1,
        plus_table=((0, 1), (1, 1)),
        seq_table=((0, 0), (0, 1)),
        arrow_table=((1, 1), (0, 1)),
        star_table=(1, 1),
    )
    kwargs.update(over)
    return kwargs


def test_valid_tables_construct():
    alg = FiniteAlgebra(**_bool_kwargs())
    assert alg.size == 2
    assert list(alg.elements()) == [0, 1]
    assert alg.tests() == (0, 1)


def test_duplicate_element_names_rejected():
    with pytest.raises(ClosureError, match="duplicate element names"):
        FiniteAlgebra(**_bool_kwargs(element_names=("0", "0")))


@pytest.mark.parametrize(
    ("over", "message"),
    [
        ({"name": "t\ud800"}, r"algebra name 't\\ud800' cannot be encoded as UTF-8"),
        ({"element_names": ("0", "\udcff")},
         r"algebra 'tiny': element name '\\udcff' cannot be encoded as UTF-8"),
    ],
)
def test_a_name_utf8_cannot_encode_is_refused_where_the_table_is_made(over, message):
    # Tables are written and fingerprinted as UTF-8, so such a name would
    # otherwise fail later, in fingerprint() or dump_algebra.
    with pytest.raises(NameEncodingError, match=message):
        FiniteAlgebra(**_bool_kwargs(**over))


def test_constants_must_be_tests():
    with pytest.raises(ClosureError, match="is not a test"):
        FiniteAlgebra(**_bool_kwargs(test_indices=(0,)))


@pytest.mark.parametrize(
    "over,message",
    [
        (dict(test_indices=(0, 1.0)), "test index 1.0 is not an int in 'tiny'"),
        (dict(test_indices=(0, 2)), "test index 2 out of range in 'tiny'"),
        (dict(one=1.0), "one index 1.0 is not an int in 'tiny'"),
        (dict(zero=False), "zero index False is not an int in 'tiny'"),
        (dict(one=5), "one index 5 out of range in 'tiny'"),
    ],
)
def test_test_indices_and_constants_are_int_indices(over, message):
    with pytest.raises(ClosureError, match=re.escape(message) + r"\Z"):
        FiniteAlgebra(**_bool_kwargs(**over))


def test_test_indices_must_be_ascending():
    with pytest.raises(ClosureError, match="ascending"):
        FiniteAlgebra(**_bool_kwargs(test_indices=(1, 0)))


def test_ragged_row_rejected():
    with pytest.raises(ClosureError, match="row '0': 3 entries, expected 2"):
        FiniteAlgebra(**_bool_kwargs(seq_table=((0, 0, 0), (0, 1))))


def test_out_of_range_cell_names_row_and_column():
    with pytest.raises(ClosureError, match="row '1', column '0': index 7"):
        FiniteAlgebra(**_bool_kwargs(plus_table=((0, 1), (7, 1))))


@pytest.mark.parametrize(
    "over,message",
    [
        (
            dict(plus_table=((0, 9), (7, 1))),
            "table plus of 'tiny', row '0', column '1': index 9 out of range",
        ),
        (
            dict(plus_table=((0, 1), (7, -1))),
            "table plus of 'tiny', row '1', column '0': index 7 out of range",
        ),
        (
            dict(seq_table=((0, 0), (0, 2)), arrow_table=((5, 1), (0, 1))),
            "table seq of 'tiny', row '1', column '1': index 2 out of range",
        ),
        (dict(star_table=(5, -2)), "table star of 'tiny', column '0': index 5 out of range"),
    ],
)
def test_two_out_of_range_cells_report_the_first(over, message):
    with pytest.raises(ClosureError, match=re.escape(message) + r"\Z"):
        FiniteAlgebra(**_bool_kwargs(**over))


def test_test_region_closure_checked():
    # plus(1,1) escaping the test set is reported with the offending cell.
    broken = _bool_kwargs(
        element_names=("0", "1", "p"),
        test_indices=(0, 1),
        plus_table=((0, 1, 2), (1, 2, 2), (2, 2, 2)),
        seq_table=((0, 0, 0), (0, 1, 2), (0, 2, 2)),
        arrow_table=((1, 1, 0), (0, 1, 0), (0, 0, 0)),
        star_table=(1, 1, 1),
    )
    with pytest.raises(ClosureError, match="result 'p' is not a test"):
        FiniteAlgebra(**broken)


def _four_kwargs(**over):
    """Tests 0 and 1 closed under every table, p and q outside them."""
    kwargs = dict(
        name="tiny",
        element_names=("0", "1", "p", "q"),
        test_indices=(0, 1),
        zero=0,
        one=1,
        plus_table=((0, 1, 2, 3), (1, 1, 2, 3), (2, 2, 2, 3), (3, 3, 3, 3)),
        seq_table=((0, 0, 0, 0), (0, 1, 2, 3), (0, 2, 2, 3), (0, 3, 3, 3)),
        arrow_table=((1, 1, 0, 0), (0, 1, 0, 0), (0, 0, 0, 0), (0, 0, 0, 0)),
        star_table=(1, 1, 1, 1),
    )
    kwargs.update(over)
    return kwargs


@pytest.mark.parametrize(
    "over,message",
    [
        (
            dict(plus_table=((0, 1, 2, 3), (2, 3, 2, 3), (2, 2, 2, 3), (3, 3, 3, 3))),
            "table plus of 'tiny', row '1', column '0': result 'p' is not a test",
        ),
        (
            dict(seq_table=((3, 2, 0, 0), (0, 1, 2, 3), (0, 2, 2, 3), (0, 3, 3, 3))),
            "table seq of 'tiny', row '0', column '0': result 'q' is not a test",
        ),
        (
            dict(arrow_table=((1, 2, 0, 0), (3, 1, 0, 0), (0, 0, 0, 0), (0, 0, 0, 0))),
            "table arrow of 'tiny', row '0', column '1': result 'p' is not a test",
        ),
    ],
)
def test_two_closure_escapes_report_the_first(over, message):
    FiniteAlgebra(**_four_kwargs())  # the unbroken tables are valid
    with pytest.raises(ClosureError, match=re.escape(message) + r"\Z"):
        FiniteAlgebra(**_four_kwargs(**over))


@pytest.mark.parametrize(
    "over,message",
    [
        (
            dict(plus_table=((0, 1, 2, 3), (1, 1, 2, 3), (2, 2, 2, 1.5), (3, 3, 3, 3))),
            "table plus of 'tiny', row 'p', column 'q': index 1.5 is not an int",
        ),
        (
            dict(seq_table=((0, 0, 0, 0), (0, 1, 2, 3), (0, 2, 2, 3), (0, 3, 1.0, 3))),
            "table seq of 'tiny', row 'q', column 'p': index 1.0 is not an int",
        ),
        (
            dict(plus_table=((0, 1, 2, 3), (1, 1, 2, 3), (2, 2, 2, 3), (3, True, 3, 9))),
            "table plus of 'tiny', row 'q', column '1': index True is not an int",
        ),
        (
            dict(arrow_table=((1, 0.5, 0, 0), (0, 1, 0, 0), (0, 0, 0, 0), (0, 0, 0, 0))),
            "table arrow of 'tiny', row '0', column '1': index 0.5 is not an int",
        ),
        (
            dict(star_table=(1, 1, 1.0, 1)),
            "table star of 'tiny', column 'p': index 1.0 is not an int",
        ),
    ],
)
def test_non_int_cells_name_row_and_column(over, message):
    # 1.0 and True equal 1, so a set comparison alone would let them through.
    with pytest.raises(ClosureError, match=re.escape(message) + r"\Z"):
        FiniteAlgebra(**_four_kwargs(**over))


def test_resolve_and_el_name_roundtrip():
    ex9 = make_builtin("ex9")
    for i in ex9.elements():
        assert ex9.resolve(ex9.el_name(i)) == i
    with pytest.raises(DomainError, match="no element named 'q'"):
        ex9.resolve("q")


def test_check_member_wants_plain_indices():
    alg = make_builtin("bool2")
    with pytest.raises(DomainError):
        alg.check_member(True)  # bools are not element indices
    with pytest.raises(DomainError):
        alg.check_member(2)


def test_arrow_is_test_sorted():
    ex9 = make_builtin("ex9")
    n = ex9.resolve("n")
    with pytest.raises(SortError, match="'n' is not a test"):
        ex9.arrow(n, ex9.zero)
    # The stored table is readable through the view where every element is a test.
    view = replace(ex9, test_indices=tuple(ex9.elements()))
    assert view.arrow(n, ex9.zero) == ex9.zero


def test_derived_order_on_chain():
    c3 = make_builtin("chain3")
    z, u, o = (c3.resolve(n) for n in ("0", "u", "1"))
    assert derived_leq(c3, z, u) and derived_leq(c3, u, o)
    assert not derived_leq(c3, o, u)


@pytest.mark.parametrize("spec", [*STANDARD_FINITE, "mat:chain3:2", "frel:chain3:bool2:2"])
def test_star_lfp_agrees_with_star_tables(spec):
    alg = build_construct(spec) if spec.startswith(("mat:", "frel:")) else make_builtin(spec)
    for a in alg.elements():
        assert star_lfp(alg, a) == alg.star(a)


def test_procedural_samples_must_hold_constants():
    with pytest.raises(ClosureError, match="must contain both constants"):
        ProceduralAlgebra(
            name="broken",
            zero=0,
            one=1,
            plus=max,
            seq=min,
            star=lambda x: 1,
            arrow_fn=lambda x, y: 1,
            is_test=lambda v: True,
            samples=(0,),
            draw=lambda rng: rng.randint(0, 1),
            el_name=str,
            member_pred=lambda v: v in (0, 1),
        )


def test_fingerprint_tracks_tables():
    a = FiniteAlgebra(**_bool_kwargs())
    b = FiniteAlgebra(**_bool_kwargs(star_table=(1, 0)))
    assert a.fingerprint().startswith("sha256:")
    assert a.fingerprint() != b.fingerprint()
    assert a.fingerprint() == FiniteAlgebra(**_bool_kwargs()).fingerprint()


def test_fingerprint_hashes_the_canonical_text_once_per_object(monkeypatch, tmp_path, capsys):
    alg = make_builtin("ex9")
    want = "sha256:" + hashlib.sha256(alg.canonical_text().encode()).hexdigest()
    renders = []
    real = FiniteAlgebra.canonical_text
    monkeypatch.setattr(FiniteAlgebra, "canonical_text", lambda self: renders.append(1) or real(self))
    assert alg.fingerprint() == want
    assert alg.fingerprint() == want
    assert len(renders) == 1
    # The all-tests view is a new object, with its own tables' fingerprint.
    assert replace(alg, test_indices=tuple(alg.elements())).fingerprint() != want
    assert len(renders) == 2
    # Writing a table records the fingerprint of the written bytes.
    fresh = make_builtin("ex9")
    dump_algebra(fresh, tmp_path / "ex9.alg")
    assert len(renders) == 3
    assert fresh.fingerprint() == want
    assert len(renders) == 3
    # A table written by `construct --out` is rendered once, for the file
    # and the reported fingerprint both.
    out = tmp_path / "mat.alg"
    assert main(["construct", "mat:bool2:2", "--out", str(out), "--json"]) == 0
    assert len(renders) == 4
    reported = json.loads(capsys.readouterr().out)["fingerprint"]
    assert reported == "sha256:" + hashlib.sha256(out.read_bytes()).hexdigest()


class TestOrderProperties:
    """The derived order is a partial order on every shipped finite algebra."""

    @given(st.sampled_from(STANDARD_FINITE), st.data())
    def test_reflexive_antisymmetric_transitive(self, spec, data):
        alg = make_builtin(spec)
        els = st.integers(0, alg.size - 1)
        a, b, c = (data.draw(els) for _ in range(3))
        assert derived_leq(alg, a, a)
        if derived_leq(alg, a, b) and derived_leq(alg, b, a):
            assert a == b
        if derived_leq(alg, a, b) and derived_leq(alg, b, c):
            assert derived_leq(alg, a, c)

    @given(st.sampled_from(STANDARD_FINITE), st.data())
    def test_plus_is_join(self, spec, data):
        alg = make_builtin(spec)
        els = st.integers(0, alg.size - 1)
        a, b = data.draw(els), data.draw(els)
        j = alg.plus(a, b)
        assert derived_leq(alg, a, j) and derived_leq(alg, b, j)
