"""Every verdict of a fixed sweep matches the committed snapshot.

The sweep runs each ``STANDARD_FINITE`` builtin under ``Exhaustive()`` and
``product`` and ``tropical`` under ``Sampled(200, 0)``.  On each it checks
every law suite, every rule of ``ALL_RULES``, the commutation lemmas in
every mode the algebra allows, De Morgan, the two triple-form implications,
and denesting (or the text of its ``PreconditionError``).  A record is the
report's JSON with every ``elapsed_ms`` removed; the snapshot file holds,
one line per record, its key and the sha256 of its sorted-key JSON.

A refactoring must leave this file unchanged.  Regenerate it only for a
verdict change the change itself justifies, and say why in CHANGES.md:

    PYTHONPATH=src python tests/test_verdict_snapshot.py
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Iterator

from gkat_workbench.hoare import (
    ALL_RULES,
    PreconditionError,
    check_demorgan,
    check_rule,
    commutation_conditions,
    denesting_equivalence,
    triple_forms_equivalent,
)
from gkat_workbench.instances import STANDARD_FINITE, make_builtin
from gkat_workbench.laws import SUITES, run_law_suite
from gkat_workbench.semantics import Exhaustive, Sampled

SNAPSHOT = Path(__file__).with_name("verdict_snapshot.txt")


def _untimed(value):
    if isinstance(value, dict):
        return {k: _untimed(v) for k, v in value.items() if k != "elapsed_ms"}
    if isinstance(value, list):
        return [_untimed(v) for v in value]
    return value


def _records_of(spec: str, strategy) -> Iterator[tuple[str, object]]:
    alg = make_builtin(spec)
    for suite in SUITES:
        yield f"suite {suite}", run_law_suite(alg, suite, strategy).to_dict()
    for rule in ALL_RULES:
        yield f"rule {rule.cli_name}", check_rule(alg, rule, strategy).to_dict()
    for b_over in ("tests", "carrier") if alg.finite else ("tests",):
        yield f"lemmas {b_over}", commutation_conditions(alg, strategy, b_over).to_dict()
    yield "demorgan", check_demorgan(alg, strategy).to_dict()
    yield "triple-forms", [v.to_dict() for v in triple_forms_equivalent(alg, strategy)]
    try:
        denest = denesting_equivalence(alg, strategy).to_dict()
    except PreconditionError as exc:
        denest = {"error": str(exc)}
    yield "denest", denest


def records() -> Iterator[tuple[str, str]]:
    """(key, sorted-key JSON without elapsed_ms) for every record of the sweep."""
    runs = [(spec, Exhaustive()) for spec in STANDARD_FINITE]
    runs += [(spec, Sampled(200, 0)) for spec in ("product", "tropical")]
    for spec, strategy in runs:
        for what, record in _records_of(spec, strategy):
            yield f"{spec} {what}", json.dumps(_untimed(record), sort_keys=True)


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def test_verdicts_match_the_snapshot() -> None:
    want = dict(line.split("\t") for line in SNAPSHOT.read_text().splitlines())
    got = dict(records())
    assert list(got) == list(want), "the sweep's record keys changed"
    changed = [f"{key}\n{text}" for key, text in got.items() if _digest(text) != want[key]]
    assert not changed, "verdicts differ from the snapshot:\n" + "\n".join(changed)


if __name__ == "__main__":
    SNAPSHOT.write_text("".join(f"{key}\t{_digest(text)}\n" for key, text in records()))
