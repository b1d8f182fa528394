"""End-to-end tests for the ``gkat`` command line."""

from __future__ import annotations

import argparse
import json
import re
import time
from typing import get_args

import pytest

from gkat_workbench.algebra import FiniteAlgebra
from gkat_workbench.algfile import load_algebra
from gkat_workbench.cli import _build_parser, _strategy, main
from gkat_workbench.constructions import fset_algebra, mat_algebra
from gkat_workbench.instances import make_builtin
from gkat_workbench.semantics import Auto, Exhaustive, Sampled, Strategy, describe_strategy


def run(capsys, *argv: str):
    code = main(list(argv))
    cap = capsys.readouterr()
    return code, cap.out, cap.err


# ---------------------------------------------------------------------------
# The three headline invocations
# ---------------------------------------------------------------------------


def test_rule_while_gkat_on_ex9(capsys) -> None:
    code, out, err = run(capsys, "rule", "--builtin", "ex9", "--name", "while-gkat")
    assert code == 1
    assert "Refuted  [exhaustive, checked 5 of 36]" in out
    assert "counterexample: b=0, c=m, p=0" in out
    assert "lhs = m" in out and "rhs = 0" in out


def test_eval_negation_product_on_ex9(capsys) -> None:
    code, out, err = run(capsys, "eval", "--builtin", "ex9", "--expr", "m;(m->0)")
    assert code == 0
    assert out == "0\n"


def test_denest_on_godel3(capsys) -> None:
    code, out, err = run(capsys, "denest", "--builtin", "godel:3")
    assert code == 0
    assert "side conditions hold" in out
    for name in ("loop-denesting", "sliding", "star-denesting"):
        assert name in out
    assert "Refuted" not in out


# ---------------------------------------------------------------------------
# check-laws and classify
# ---------------------------------------------------------------------------


def test_check_laws_human_output_and_exit(capsys) -> None:
    code, out, _ = run(capsys, "check-laws", "--builtin", "chain3", "--suite", "gkat")
    assert code == 0
    assert "plus-comm" in out and "residuation-fwd" in out


def test_check_laws_failure_exit(capsys) -> None:
    code, out, _ = run(capsys, "check-laws", "--builtin", "ex9", "--suite", "igkat")
    assert code == 1
    assert "test-idem" in out


def test_check_laws_json_payload(capsys) -> None:
    code, out, _ = run(
        capsys, "check-laws", "--builtin", "chain3", "--suite", "gkat", "--json"
    )
    assert code == 0
    d = json.loads(out)
    assert set(d) == {
        "command",
        "algebra",
        "fingerprint",
        "suite",
        "strategy",
        "laws",
        "ok",
        "elapsed_ms",
    }
    assert d["algebra"] == "chain3" and d["suite"] == "gkat" and d["ok"] is True
    assert d["fingerprint"] == make_builtin("chain3").fingerprint()
    assert {law["status"] for law in d["laws"]} == {"holds"}


def test_classify_human_and_json(capsys) -> None:
    code, out, _ = run(capsys, "classify", "--builtin", "chain3")
    assert code == 0
    assert "chain3: IGKAT-not-KAT" in out
    assert "witness law: excluded-middle" in out
    assert "counterexample: a=u" in out

    code, out, _ = run(capsys, "classify", "--builtin", "ex9", "--json")
    assert code == 0
    d = json.loads(out)
    assert d["class"] == "GKAT-not-IGKAT"
    assert d["witness"]["law"] == "test-idem"
    assert d["witness"]["counterexample"] == {"a": "m"}


# ---------------------------------------------------------------------------
# eval and prove
# ---------------------------------------------------------------------------


def test_eval_let_bridges_non_identifier_element_names(capsys) -> None:
    code, out, _ = run(
        capsys,
        "eval",
        "--builtin",
        "luka:5",
        "--expr",
        "p -> q",
        "--let",
        "p=2/5",
        "--let",
        "q=1/5",
    )
    assert code == 0
    assert out == "4/5\n"


def test_eval_runs_program_syntax(capsys) -> None:
    code, out, _ = run(
        capsys,
        "eval",
        "--builtin",
        "bool2",
        "--prog",
        "while b do { p }",
        "--let",
        "b=1",
        "--let",
        "p=1",
    )
    assert code == 0
    assert out == "0\n"


def test_eval_json_payload(capsys) -> None:
    code, out, _ = run(
        capsys, "eval", "--builtin", "ex9", "--expr", "m;(m->0)", "--json"
    )
    assert code == 0
    d = json.loads(out)
    assert d["value"] == "0"
    assert d["bindings"] == {"m": "m"}
    assert d["input"] == "m;(m->0)"
    assert d["command"].startswith("gkat eval")


def test_eval_rejects_unbound_identifiers(capsys) -> None:
    code, out, err = run(capsys, "eval", "--builtin", "ex9", "--expr", "q;m")
    assert (code, out) == (2, "")
    assert err == "error: 'q' is neither bound by --let nor an element of 'ex9'\n"


def test_eval_let_shadows_an_element_name(capsys) -> None:
    assert run(capsys, "eval", "--builtin", "ex9", "--expr", "m", "--let", "m=n") == (
        0, "n\n", "")
    code, out, _ = run(
        capsys, "eval", "--builtin", "ex9", "--expr", "m;q", "--let", "q=0", "--let", "z=1",
        "--json",
    )
    d = json.loads(out)
    # Only the names the term uses are bound, in the order the term uses them.
    assert (code, d["bindings"], d["value"]) == (0, {"m": "m", "q": "0"}, "0")


@pytest.mark.parametrize(
    "spec, argv",
    [("product", ("--expr", "p", "--let", "p=1/2")), ("tropical", ("--expr", "inf"))],
)
def test_eval_refuses_procedural_algebras(capsys, spec, argv) -> None:
    code, out, err = run(capsys, "eval", "--builtin", spec, *argv)
    assert (code, out) == (2, "")
    assert err == f"error: eval needs a finite algebra, and {spec!r} is procedural\n"


def test_prove_valid_quasi_equation(capsys) -> None:
    code, out, _ = run(
        capsys,
        "prove",
        "--builtin",
        "ex9",
        "--tests",
        "b",
        "--progs",
        "p",
        "--hyp",
        "b;p = p;b",
        "--concl",
        "p;b = b;p",
    )
    assert code == 0
    assert "Valid  [exhaustive, checked 12 of 12]" in out
    # the statement is joined as rule and law statements are
    assert "b;p = p;b  =>  p;b = b;p   on ex9" in out
    assert "⊢" not in out


def test_prove_refuted_with_witness(capsys) -> None:
    code, out, _ = run(
        capsys,
        "prove",
        "--builtin",
        "lemma4",
        "--progs",
        "p,q",
        "--concl",
        "p;q = q;p",
    )
    assert code == 1
    assert "counterexample: p=n, q=m" in out
    assert "lhs = 0" in out and "rhs = n" in out


def test_prove_requires_declared_variables(capsys) -> None:
    code, _, err = run(
        capsys,
        "prove",
        "--builtin",
        "ex9",
        "--tests",
        "b",
        "--progs",
        "p",
        "--concl",
        "p;q = q;p",
    )
    assert code == 2
    assert "unknown identifier 'q'" in err
    assert "declared names: b, p" in err


# ---------------------------------------------------------------------------
# rule, lemmas, demorgan
# ---------------------------------------------------------------------------


def test_rule_list_names_every_schema(capsys) -> None:
    code, out, _ = run(capsys, "rule", "--list")
    assert code == 0
    for cli_name in (
        "composition",
        "conditional",
        "weaken-strengthen",
        "while-gkat",
        "while-igkat",
        "kat-composition",
        "kat-conditional",
        "kat-while",
        "kat-weaken",
        "postcondition-annihilation",
    ):
        assert cli_name in out


def test_rule_unknown_name_errors(capsys) -> None:
    code, _, err = run(capsys, "rule", "--builtin", "ex9", "--name", "nonesuch")
    assert code == 2
    assert "known rules" in err


def test_lemmas_exit_codes_track_separations(capsys) -> None:
    code, out, _ = run(capsys, "lemmas", "--builtin", "bool2")
    assert code == 0
    code, out, _ = run(capsys, "lemmas", "--builtin", "lemma4")
    assert code == 1
    assert "negation-commutes => test-commutes:" in out
    assert "counterexample: b=m, p=n" in out


def test_demorgan_exit_codes(capsys) -> None:
    assert run(capsys, "demorgan", "--builtin", "bool2")[0] == 0
    code, out, _ = run(capsys, "demorgan", "--builtin", "ex9")
    assert code == 1
    assert "counterexample: a=m, b=m" in out


def test_denest_reports_failed_side_conditions(capsys) -> None:
    code, out, err = run(capsys, "denest", "--builtin", "ex9")
    assert code == 1
    assert "igkat:test-idem" in (out + err)


# ---------------------------------------------------------------------------
# construct and file I/O
# ---------------------------------------------------------------------------


def test_construct_summarizes_and_checks(capsys) -> None:
    code, out, _ = run(capsys, "construct", "fset:chain3:2", "--suite", "gkat")
    assert code == 0
    assert "fset:chain3:2: 9 elements, 9 tests" in out
    assert "plus-comm" in out


def test_construct_out_writes_a_loadable_table(capsys, tmp_path) -> None:
    path = tmp_path / "fset.alg"
    code, _, _ = run(capsys, "construct", "fset:bool2:2", "--out", str(path))
    assert code == 0
    loaded = load_algebra(path)
    assert loaded.fingerprint() == fset_algebra(make_builtin("bool2"), 2).fingerprint()


def test_construct_out_refuses_procedural_carriers(capsys, tmp_path) -> None:
    code, _, err = run(
        capsys, "construct", "flang:chain3:ab:4", "--out", str(tmp_path / "x.alg")
    )
    assert code == 2
    assert "procedural; only finite tables are written" in err


def test_algebra_file_source_round_trips_through_check(capsys, tmp_path) -> None:
    from gkat_workbench.algfile import dump_algebra

    path = tmp_path / "c3.alg"
    dump_algebra(make_builtin("chain3"), path)
    code, out, _ = run(
        capsys, "check-laws", "--algebra", str(path), "--suite", "igkat", "--json"
    )
    assert code == 0
    assert json.loads(out)["fingerprint"] == make_builtin("chain3").fingerprint()


# ---------------------------------------------------------------------------
# error handling
# ---------------------------------------------------------------------------


def test_unknown_builtin_is_a_clean_error(capsys) -> None:
    code, _, err = run(capsys, "classify", "--builtin", "heyting:8")
    assert code == 2
    assert err.startswith("error:")
    assert "unknown builtin spec" in err


def test_a_name_utf8_cannot_encode_is_a_clean_error(capsys) -> None:
    # An undecodable byte on the command line (0xff) reaches the program as
    # the lone surrogate U+DCFF, which no table or fingerprint can encode.
    code, out, err = run(capsys, "check-laws", "--construct", "flang:chain3:a\udcff:2",
                         "--json")
    assert code == 2 and out == ""
    assert err == "error: flang alphabet 'a\\udcff' cannot be encoded as UTF-8\n"


def test_missing_and_conflicting_algebra_sources(capsys) -> None:
    code, _, err = run(capsys, "classify")
    assert code == 2
    assert "pick exactly one" in err
    code, _, err = run(
        capsys, "classify", "--builtin", "ex9", "--construct", "fset:chain3:2"
    )
    assert code == 2
    assert "pick exactly one" in err


def test_unreadable_algebra_file_is_a_clean_error(capsys, tmp_path) -> None:
    code, _, err = run(capsys, "classify", "--algebra", str(tmp_path / "no.alg"))
    assert code == 2
    assert err.startswith("error:")


@pytest.mark.parametrize(
    "argv",
    [
        ("prove", "--builtin", "ex9", "--progs", "p", "--concl", "p;p = p",
         "--mode", "sample", "--samples", "0"),
        ("check-laws", "--builtin", "tropical", "--mode", "sample", "--samples", "-5"),
    ],
)
def test_sample_counts_below_one_are_rejected(capsys, argv) -> None:
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert "argument --samples: must be at least 1" in err


def test_mode_choices_are_the_strategy_modes() -> None:
    parser = _build_parser()
    (commands,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    modes = [a for sub in commands.choices.values() for a in sub._actions if a.dest == "mode"]
    assert len(modes) == 8  # every command but eval
    for action in modes:
        assert action.choices == ("exhaustive", "sample", "auto")
        assert action.choices == tuple(cls.mode for cls in get_args(Strategy))
        assert action.default == "auto" == Auto.mode


@pytest.mark.parametrize("cap", [None, 7])
@pytest.mark.parametrize("mode", ["exhaustive", "sample", "auto"])
def test_each_mode_builds_its_strategy(mode, cap) -> None:
    argv = ["prove", "--builtin", "ex9", "--concl", "1 = 1", "--mode", mode,
            "--samples", "9", "--seed", "4", *(["--cap", str(cap)] if cap else [])]
    strategy = _strategy(_build_parser().parse_args(argv))
    # A missing --cap keeps the class default; sampling takes no cap.
    assert strategy == {
        "exhaustive": Exhaustive() if cap is None else Exhaustive(cap),
        "sample": Sampled(9, 4),
        "auto": Auto(samples=9, seed=4) if cap is None else Auto(cap, 9, 4),
    }[mode]
    assert describe_strategy(strategy)["mode"] == mode


def test_input_nested_too_deeply_exits_2(capsys) -> None:
    # The parser recurses once per parenthesis; nothing else recurses on a term.
    argv = ("eval", "--builtin", "ex9", "--expr", "(" * 10000 + "m" + ")" * 10000)
    assert run(capsys, *argv) == (2, "", "error: a term or program is nested too deeply\n")


def test_a_long_chain_gets_a_verdict(capsys) -> None:
    argv = ("prove", "--builtin", "ex9", "--progs", "p", "--concl", ";".join("p" * 5000) + " = p")
    code, out, err = run(capsys, *argv)
    assert (code, err) == (1, "") and "Refuted  [exhaustive, checked 2 of 4]" in out
    code, out, err = run(capsys, *argv, "--json")
    report = json.loads(out)
    assert (code, err, report["status"], report["counterexample"]) == (1, "", "refuted", {"p": "n"})


def test_fifty_nested_tabulated_calls_compile(capsys) -> None:
    # Each tabulated call reads its slot at the loop's own indentation, so
    # nesting calls does not nest blocks (CPython allows 100 levels).
    t = "p"
    for _ in range(50):
        t = f"({t}+p);q"
    code, out, err = run(capsys, "prove", "--builtin", "product", "--progs", "p,q",
                         "--concl", f"{t} = p")
    assert (code, err) == (1, "") and "Refuted  [sampled, checked 1]" in out


def test_a_refutation_past_the_int_digit_limit_is_printed(capsys) -> None:
    # p = 2/7 refutes it; the left side, 2^7000/7^7000, has a denominator of
    # 5,916 digits, past the 4,300 that str(int) converts by default.
    chain = ";".join(["p"] * 7_000)
    code, out, err = run(capsys, "prove", "--builtin", "product", "--progs", "p",
                         "--concl", f"{chain} = p")
    assert (code, err) == (1, "") and "counterexample: p=2/7" in out
    lhs, rhs = re.search(r"lhs = (\S+)\s+rhs = (\S+)", out).groups()
    num, den = lhs.split("/")
    assert rhs == "2/7" and (len(num), len(den)) == (2_108, 5_916)
    assert int(num) == 2**7_000 and int(den[:4_000]) * 10**1_916 + int(den[4_000:]) == 7**7_000


def test_samples_default_comes_from_sampled() -> None:
    args = _build_parser().parse_args(["check-laws", "--builtin", "bool2"])
    assert args.samples == Sampled().samples


def test_oversized_construct_names_the_spec_and_the_cap(capsys) -> None:
    code, out, err = run(capsys, "construct", "mat:ex9:85")
    assert code == 2 and out == ""
    assert "mat:ex9:85: carrier size 4^7225 exceeds cap 4096" in err


@pytest.mark.parametrize(
    ("spec", "count"),
    [("flang:chain3:ab:16", "131071 observed words x 17 star steps = 2228207"),
     ("flang:chain3:a:1024", "1025 observed words x 1025 star steps = 1050625")],
    ids=["ab:16", "a:1024"],
)
def test_oversized_flang_window_fails_fast(capsys, spec, count) -> None:
    start = time.perf_counter()
    code, out, err = run(capsys, "construct", spec)
    assert time.perf_counter() - start < 1.0
    assert code == 2 and out == ""
    assert f"{count} exceeds bound 65536" in err


def test_exhaustive_mode_respects_the_cap(capsys) -> None:
    code, _, err = run(
        capsys,
        "check-laws",
        "--builtin",
        "godel:5",
        "--mode",
        "exhaustive",
        "--cap",
        "100",
    )
    assert code == 2
    assert "exceeds the exhaustive cap 100" in err


def _count_fingerprints(monkeypatch) -> list[str]:
    """Record the algebra name of every ``FiniteAlgebra.fingerprint`` call."""
    calls: list[str] = []
    real = FiniteAlgebra.fingerprint

    def counted(self):
        calls.append(self.name)
        return real(self)

    monkeypatch.setattr(FiniteAlgebra, "fingerprint", counted)
    return calls


@pytest.mark.parametrize(
    "argv",
    [
        ("check-laws", "--construct", "mat:bool2:1", "--json"),
        ("construct", "mat:bool2:1", "--json"),
        ("denest", "--construct", "mat:bool2:1", "--json"),
        ("construct", "mat:bool2:1", "--suite", "kleene", "--json"),
        ("prove", "--construct", "mat:bool2:1", "--progs", "p", "--concl", "p+p = p", "--json"),
        ("rule", "--construct", "mat:bool2:1", "--name", "composition", "--json"),
        ("demorgan", "--construct", "mat:bool2:1", "--json"),
    ],
)
def test_a_command_fingerprints_its_algebra_once(capsys, monkeypatch, argv) -> None:
    real = FiniteAlgebra.fingerprint
    calls = _count_fingerprints(monkeypatch)
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert calls == ["mat:bool2:1"]
    assert json.loads(out)["fingerprint"] == real(mat_algebra(make_builtin("bool2"), 1))


def test_classify_prints_no_fingerprint_and_computes_none(capsys, monkeypatch) -> None:
    calls = _count_fingerprints(monkeypatch)
    code, out, _ = run(capsys, "classify", "--construct", "mat:bool2:1", "--json")
    assert code == 0
    assert "fingerprint" not in json.loads(out)
    assert calls == []


def test_a_refused_denest_computes_no_fingerprint(capsys, monkeypatch) -> None:
    calls = _count_fingerprints(monkeypatch)
    code, out, _ = run(capsys, "denest", "--builtin", "ex9", "--json")
    assert code == 1
    assert "fingerprint" not in json.loads(out)
    assert calls == []
