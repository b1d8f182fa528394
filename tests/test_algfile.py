"""Tests for the plain-text algebra table format."""

from __future__ import annotations

import hashlib
from importlib import resources

import pytest

from gkat_workbench.algebra import FiniteAlgebra
from gkat_workbench.algfile import AlgFileError, dump_algebra, load_algebra, loads_algebra
from gkat_workbench.instances import STANDARD_FINITE, make_builtin

GOLDEN_FILES = {
    "bool2": "bool2.alg",
    "chain3": "chain3.alg",
    "powerset:xy": "powerset2.alg",
    "luka:5": "luka5.alg",
    "godel:5": "godel5.alg",
    "wajsberg:4": "wajsberg4.alg",
    "ex9": "ex9.alg",
    "lemma4": "lemma4.alg",
    "lemma6": "lemma6.alg",
}

GOOD = """\
algebra tiny  # trailing comment
# a full-line comment
elements 0 1

tests 0 1
zero 0
one 1
table plus
0 1
1 1
table seq
0 0
0 1
table arrow
1 1
0 1
table star
1 1
"""


def test_goldens_cover_the_standard_lineup() -> None:
    assert set(GOLDEN_FILES) == set(STANDARD_FINITE)


@pytest.mark.parametrize("spec", sorted(GOLDEN_FILES))
def test_golden_files_match_the_builtins(spec: str) -> None:
    data = resources.files("gkat_workbench") / "data" / GOLDEN_FILES[spec]
    loaded = loads_algebra(data.read_text(encoding="utf-8"), source=GOLDEN_FILES[spec])
    built = make_builtin(spec)
    assert loaded.name == built.name
    assert loaded.fingerprint() == built.fingerprint()


def test_comments_and_blank_lines_are_ignored() -> None:
    alg = loads_algebra(GOOD, source="tiny.alg")
    assert alg.name == "tiny"
    assert alg.size == 2
    assert alg.plus(alg.resolve("0"), alg.resolve("1")) == alg.resolve("1")
    # same tables as bool2, so only the stored name separates the fingerprints
    assert alg.canonical_text().replace("tiny", "bool2") == make_builtin(
        "bool2"
    ).canonical_text()


@pytest.mark.parametrize("spec", STANDARD_FINITE)
def test_dump_then_load_is_identity(spec: str, tmp_path) -> None:
    alg = make_builtin(spec)
    path = tmp_path / "out.alg"
    dump_algebra(alg, path)
    again = load_algebra(path)
    assert again.fingerprint() == alg.fingerprint()
    # and the canonical rendering is bit-stable
    dump_algebra(again, tmp_path / "twice.alg")
    assert (tmp_path / "twice.alg").read_text() == path.read_text()


def test_load_reports_the_path_in_errors(tmp_path) -> None:
    path = tmp_path / "broken.alg"
    path.write_text("algebra broken\n")
    with pytest.raises(AlgFileError, match=r"broken\.alg:1: file ends before elements"):
        load_algebra(path)


def _swap(needle: str, replacement: str) -> str:
    assert needle in GOOD
    return GOOD.replace(needle, replacement, 1)


@pytest.mark.parametrize(
    "text,message",
    [
        (_swap("algebra tiny", "algebr tiny"), r"1: expected 'algebra', found 'algebr'"),
        (_swap("elements 0 1", "elements 0 0"), r"3: duplicate element name '0'"),
        (_swap("tests 0 1", "tests 0 0"), r"5: duplicate test '0'"),
        (_swap("tests 0 1", "tests q"), r"5: tests: unknown element name 'q'"),
        (_swap("zero 0", "zero 0 1"), r"6: expected exactly one element name after 'zero'"),
        (_swap("one 1", "one q"), r"7: one: unknown element name 'q'"),
        (_swap("0 1\n1 1", "0 1 1\n1 1"), r"9: table plus row for '0' has 3 entries, expected 2"),
        (
            _swap("0 0\n0 1", "0 q\n0 1"),
            r"12: table seq, row '0', column 2: unknown element name 'q'",
        ),
        (
            _swap("0 0\n0 1", "x q\n0 1"),
            r"12: table seq, row '0', column 1: unknown element name 'x'",
        ),
        (
            _swap("1 1\n0 1\ntable star", "1 y\n0 z\ntable star"),
            r"15: table arrow, row '0', column 2: unknown element name 'y'",
        ),
        (
            _swap("table star\n1 1\n", "table star\nw v\n"),
            r"18: table star, column 1: unknown element name 'w'",
        ),
        (_swap("table arrow", "table arro"), r"14: expected 'table arrow', found 'table arro'"),
        (_swap("table star\n1 1\n", "table star\n1\n"), r"18: star row has 1 entries, expected 2"),
        (GOOD + "leftover\n", r"19: unexpected trailing content 'leftover'"),
        ("", r"0: file ends before algebra"),
    ],
)
def test_malformed_files_get_cell_precise_diagnostics(text: str, message: str) -> None:
    with pytest.raises(AlgFileError, match=message):
        loads_algebra(text, source="tiny.alg")


def test_section_order_is_fixed() -> None:
    # 'tests' before 'elements' trips the keyword check at the elements slot
    reordered = GOOD.replace(
        "elements 0 1\n\ntests 0 1", "tests 0 1\nelements 0 1"
    )
    with pytest.raises(AlgFileError, match=r"expected 'elements', found 'tests'"):
        loads_algebra(reordered, source="tiny.alg")


def test_loaded_tables_still_pass_constructor_validation() -> None:
    # parsing succeeds structurally, but the constructor still enforces
    # its invariants — here zero is left outside the declared test sort
    bad = _swap("tests 0 1", "tests 1")
    with pytest.raises(Exception, match="is not a test"):
        loads_algebra(bad, source="tiny.alg")


def test_a_one_element_table_round_trips(tmp_path) -> None:
    # One index through itemgetter gives the bare name, not a tuple; a row
    # must still read "unit", not "u n i t".
    alg = FiniteAlgebra(
        name="trivial", element_names=("unit",), test_indices=(0,), zero=0, one=0,
        plus_table=((0,),), seq_table=((0,),), arrow_table=((0,),), star_table=(0,),
    )
    text = alg.canonical_text()
    assert text.splitlines()[5:] == ["table plus", "unit", "table seq", "unit",
                                     "table arrow", "unit", "table star", "unit"]
    want = "sha256:" + hashlib.sha256(text.encode()).hexdigest()
    path = tmp_path / "trivial.alg"
    dump_algebra(alg, path)
    assert "sha256:" + hashlib.sha256(path.read_bytes()).hexdigest() == want
    assert load_algebra(path).fingerprint() == want


@pytest.mark.parametrize(
    ("over", "message"),
    [
        ({"name": "my alg"}, r"algebra name 'my alg' is empty or contains whitespace"),
        ({"name": ""}, r"algebra name '' is empty or contains whitespace"),
        ({"name": "a#b"}, r"algebra name 'a#b' contains '#'"),
        ({"element_names": ("0", "x#")}, r"element name 'x#' contains '#'"),
        ({"element_names": ("0", "")}, r"element name '' is empty or contains whitespace"),
        ({"element_names": ("0", "one two")}, r"element name 'one two' is empty or"),
        ({"element_names": ("\tz", "1")}, r"element name '\\tz' is empty or"),
        # A line separator is whitespace to str.split, and ends a line too.
        ({"element_names": ("0", "one\u2028two")}, r"element name 'one\\u2028two' is empty or"),
    ],
)
def test_a_name_that_would_not_read_back_is_refused_before_writing(over, message, tmp_path) -> None:
    kwargs = dict(
        name="tiny", element_names=("0", "1"), test_indices=(0, 1), zero=0, one=1,
        plus_table=((0, 1), (1, 1)), seq_table=((0, 0), (0, 1)),
        arrow_table=((1, 1), (0, 1)), star_table=(1, 1),
    )
    alg = FiniteAlgebra(**{**kwargs, **over})
    path = tmp_path / "kept.alg"
    path.write_bytes(b"previous contents\n")
    with pytest.raises(AlgFileError, match=message):
        dump_algebra(alg, path)
    assert path.read_bytes() == b"previous contents\n"
    # The refused name does not read back: the text is refused or read as another table.
    text = alg.canonical_text()
    try:
        back = loads_algebra(text)
    except AlgFileError:
        return
    assert back.canonical_text() != text
