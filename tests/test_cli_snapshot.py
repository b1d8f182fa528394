"""Every request of a fixed ``gkat`` sweep prints what the committed snapshot says.

The sweep runs each subcommand in its human and ``--json`` form on a finite
builtin, a procedural builtin and a derived algebra, with valid and refuted
verdicts, and a set of requests that must fail with exit 2.  A record is
the exit code, stdout with every ``"elapsed_ms": N`` masked, and stderr;
the snapshot file holds, one line per request, its command line and the
sha256 of its record.  Argparse wraps its usage text to ``COLUMNS``, so the
sweep pins that to 80.

A refactoring must leave this file unchanged.  Regenerate it only for an
output change the change itself justifies, and say why in CHANGES.md:

    PYTHONPATH=src python tests/test_cli_snapshot.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import re
import shlex
from pathlib import Path
from typing import Iterator
from unittest import mock

from gkat_workbench.cli import main

SNAPSHOT = Path(__file__).with_name("cli_snapshot.txt")

_S = ("--samples", "200")

#: Requests run in both forms, human and ``--json``.
REQUESTS: tuple[tuple[str, ...], ...] = (
    # check-laws
    ("check-laws", "--builtin", "chain3", "--suite", "gkat"),
    ("check-laws", "--builtin", "ex9", "--suite", "kat"),
    ("check-laws", "--builtin", "luka:3", "--mode", "sample", *_S, "--seed", "3"),
    ("check-laws", "--builtin", "product", "--suite", "gkat", *_S),
    ("check-laws", "--builtin", "tropical", "--suite", "derived", *_S),
    ("check-laws", "--construct", "mat:bool2:2", "--suite", "igkat", *_S),
    ("check-laws", "--builtin", "tropical", "--suite", "kat", *_S),
    ("check-laws", "--construct", "mat:ex9:1", "--suite", "kat", *_S),
    ("check-laws", "--construct", "flang:bool2:ab:2", "--suite", "kleene", *_S),
    # classify
    ("classify", "--builtin", "chain3", *_S),
    ("classify", "--builtin", "ex9", *_S),
    ("classify", "--builtin", "lemma4", *_S),
    ("classify", "--builtin", "lemma6", *_S),
    ("classify", "--builtin", "product", *_S),
    ("classify", "--builtin", "tropical", *_S),
    ("classify", "--construct", "mat:bool2:1", *_S),
    ("classify", "--construct", "fset:chain3:2", *_S),
    # eval
    ("eval", "--builtin", "ex9", "--expr", "m;(m->0)"),
    ("eval", "--builtin", "luka:5", "--prog", "while a do { p }; q",
     "--let", "a=1/5", "--let", "p=2/5", "--let", "q=1"),
    ("eval", "--construct", "mat:bool2:1", "--expr", "p*;q", "--let", "p=[1]", "--let", "q=[0]"),
    # prove
    ("prove", "--builtin", "chain3", "--tests", "a,b", "--concl", "a;b = b;a", *_S),
    ("prove", "--builtin", "ex9", "--progs", "p,q", "--concl", "p;q <= q;p", *_S),
    ("prove", "--builtin", "product", "--progs", "p", "--hyp", "p <= 1",
     "--concl", "p;p <= p", *_S),
    ("prove", "--builtin", "tropical", "--tests", "a", "--concl", "a+!a = 1", *_S),
    ("prove", "--construct", "mat:bool2:2", "--tests", "a", "--concl", "a;a = a", *_S),
    ("prove", "--construct", "flang:bool2:ab:2", "--progs", "p,q", "--concl", "p;q = q;p", *_S),
    # rule
    ("rule", "--list"),
    ("rule", "--builtin", "ex9", "--name", "while-gkat", *_S),
    ("rule", "--builtin", "godel:3", "--name", "while-gkat", *_S),
    ("rule", "--builtin", "product", "--name", "kat-while", *_S),
    ("rule", "--construct", "mat:bool2:1", "--name", "composition", *_S),
    ("rule", "--construct", "fset:chain3:2", "--name", "postcondition-annihilation", *_S),
    # lemmas
    ("lemmas", "--builtin", "ex9", *_S),
    ("lemmas", "--builtin", "ex9", "--b-over", "carrier", *_S),
    ("lemmas", "--builtin", "lemma4", *_S),
    ("lemmas", "--builtin", "tropical", *_S),
    ("lemmas", "--construct", "fset:chain3:2", *_S),
    # demorgan
    ("demorgan", "--builtin", "chain3", *_S),
    ("demorgan", "--builtin", "ex9", *_S),
    ("demorgan", "--builtin", "product", *_S),
    ("demorgan", "--construct", "mat:bool2:2", *_S),
    # denest
    ("denest", "--builtin", "godel:3", *_S),
    ("denest", "--builtin", "ex9", *_S),
    ("denest", "--builtin", "product", *_S),
    ("denest", "--construct", "mat:bool2:1", *_S),
    # construct
    ("construct", "mat:bool2:2"),
    ("construct", "fset:chain3:2", "--suite", "kleene", *_S),
    ("construct", "flang:bool2:ab:2"),
    ("construct", "flang:bool2:ab:2", "--suite", "demorgan", *_S),
    # exit 2
    ("check-laws", "--builtin", "ex9", "--samples", "0"),
    ("check-laws", "--builtin", "nope", *_S),
    ("check-laws", *_S),
    ("check-laws", "--builtin", "ex9", "--construct", "mat:bool2:1", *_S),
    ("check-laws", "--builtin", "godel:5", "--mode", "exhaustive", "--cap", "100"),
    ("eval", "--builtin", "product", "--expr", "p", "--let", "p=1/2"),
    ("eval", "--builtin", "ex9", "--expr", "zz"),
    ("eval", "--builtin", "ex9", "--expr", "m;(m->"),
    ("prove", "--builtin", "ex9", "--progs", "p", "--concl", "p + q", *_S),
    ("rule", "--builtin", "ex9", "--name", "nope", *_S),
    ("rule", "--builtin", "ex9", *_S),
    ("construct", "flang:bool2:ab:2", "--out", "never-written.alg"),
    ("construct", "mat:ex9:85"),
    ("construct", "nope:1"),
)

_ELAPSED = re.compile(r'"elapsed_ms": \d+')


def _record(argv: list[str]) -> str:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    masked = _ELAPSED.sub('"elapsed_ms": _', out.getvalue())
    return f"exit {code}\n--- stdout\n{masked}--- stderr\n{err.getvalue()}"


def records() -> Iterator[tuple[str, str]]:
    """(command line, record) for every request of the sweep, human then JSON."""
    with mock.patch.dict(os.environ, COLUMNS="80"):
        for request in REQUESTS:
            for argv in (list(request), [*request, "--json"]):
                yield shlex.join(argv), _record(argv)


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def test_cli_output_matches_the_snapshot() -> None:
    want = dict(line.split("\t") for line in SNAPSHOT.read_text().splitlines())
    got = dict(records())
    assert list(got) == list(want), "the sweep's requests changed"
    changed = [f"{key}\n{text}" for key, text in got.items() if _digest(text) != want[key]]
    assert not changed, "CLI output differs from the snapshot:\n" + "\n".join(changed)


if __name__ == "__main__":
    SNAPSHOT.write_text("".join(f"{key}\t{_digest(text)}\n" for key, text in records()))
