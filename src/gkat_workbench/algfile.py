"""Reading and writing the plain-text algebra table format.

A file describes one finite algebra, sections in fixed order; ``#``
starts a comment and blank lines are skipped:

    algebra <name>
    elements <name> <name> ...
    tests <name> ...
    zero <name>
    one <name>
    table plus
    <one row of element names per element, row order = element order>
    table seq
    ...
    table arrow
    ...
    table star
    <single row: star of each element in element order>

Element names are whitespace-delimited and may not contain whitespace or
``#``.  Diagnostics carry the source name, line number, and for table
entries the row element and column position.  ``dump_algebra`` writes the
canonical rendering, which this module parses back bit-identically.
"""

from __future__ import annotations

import os
from typing import Optional, Union

from .algebra import AlgebraError, FiniteAlgebra


class AlgFileError(AlgebraError):
    """Malformed algebra file; message pinpoints source line (and cell)."""


def _body(raw: str) -> str:
    """A line without its comment and surrounding whitespace."""
    return raw.split("#", 1)[0].strip()


class _Lines:
    """Comment/blank-stripped lines with positions, tokenised as they are read."""

    def __init__(self, text: str, source: str):
        self.source = source
        self.raw = text.splitlines()
        self.pos = 0  # index into ``raw`` of the next line to look at
        self.last_line = next(
            (lineno for lineno in range(len(self.raw), 0, -1) if _body(self.raw[lineno - 1])), 0
        )

    def fail(self, lineno: int, message: str) -> "AlgFileError":
        return AlgFileError(f"{self.source}:{lineno}: {message}")

    def _advance(self) -> Optional[tuple[int, list[str]]]:
        while self.pos < len(self.raw):
            self.pos += 1
            body = _body(self.raw[self.pos - 1])
            if body:
                return self.pos, body.split()
        return None

    def next(self, context: str) -> tuple[int, list[str]]:
        row = self._advance()
        if row is None:
            raise AlgFileError(
                f"{self.source}:{self.last_line}: file ends before {context}"
            )
        return row

    def keyword(self, *want: str) -> tuple[int, list[str]]:
        lineno, toks = self.next(" ".join(want))
        head = toks[: len(want)]
        if head != list(want):
            raise self.fail(
                lineno, f"expected {' '.join(want)!r}, found {' '.join(head)!r}"
            )
        return lineno, toks[len(want) :]

    def done(self) -> None:
        row = self._advance()
        if row is not None:
            lineno, toks = row
            raise self.fail(lineno, f"unexpected trailing content {' '.join(toks)!r}")


def loads_algebra(text: str, source: str = "<string>") -> FiniteAlgebra:
    """Parse the table format from a string."""
    lines = _Lines(text, source)

    lineno, rest = lines.keyword("algebra")
    if len(rest) != 1:
        raise lines.fail(lineno, "expected exactly one algebra name")
    name = rest[0]

    lineno, names = lines.keyword("elements")
    if not names:
        raise lines.fail(lineno, "expected at least one element name")
    index: dict[str, int] = {}
    for n in names:
        if n in index:
            raise lines.fail(lineno, f"duplicate element name {n!r}")
        index[n] = len(index)
    size = len(names)

    def resolve(lineno: int, token: str, context: str) -> int:
        try:
            return index[token]
        except KeyError:
            raise lines.fail(lineno, f"{context}: unknown element name {token!r}") from None

    lineno, test_names = lines.keyword("tests")
    test_indices = []
    for n in test_names:
        i = resolve(lineno, n, "tests")
        if i in test_indices:
            raise lines.fail(lineno, f"duplicate test {n!r}")
        test_indices.append(i)
    test_indices.sort()

    def constant(word: str) -> int:
        lineno, rest = lines.keyword(word)
        if len(rest) != 1:
            raise lines.fail(lineno, f"expected exactly one element name after {word!r}")
        return resolve(lineno, rest[0], word)

    zero = constant("zero")
    one = constant("one")

    def resolve_row(lineno: int, toks: list[str], context: str) -> tuple[int, ...]:
        try:
            return tuple(map(index.__getitem__, toks))
        except KeyError:
            # Word the error by the first unknown name in the row.
            return tuple(
                resolve(lineno, tok, f"{context}, column {j + 1}") for j, tok in enumerate(toks)
            )

    def read_table(tname: str) -> tuple[tuple[int, ...], ...]:
        lineno, rest = lines.keyword("table", tname)
        if rest:
            raise lines.fail(lineno, f"unexpected tokens after 'table {tname}'")
        rows = []
        for i in range(size):
            lineno, toks = lines.next(f"row {i + 1} of table {tname}")
            if len(toks) != size:
                raise lines.fail(
                    lineno,
                    f"table {tname} row for {names[i]!r} has {len(toks)} entries,"
                    f" expected {size}",
                )
            rows.append(resolve_row(lineno, toks, f"table {tname}, row {names[i]!r}"))
        return tuple(rows)

    plus_table = read_table("plus")
    seq_table = read_table("seq")
    arrow_table = read_table("arrow")

    lineno, rest = lines.keyword("table", "star")
    if rest:
        raise lines.fail(lineno, "unexpected tokens after 'table star'")
    lineno, toks = lines.next("the star row")
    if len(toks) != size:
        raise lines.fail(lineno, f"star row has {len(toks)} entries, expected {size}")
    star_table = resolve_row(lineno, toks, "table star")
    lines.done()

    return FiniteAlgebra(
        name=name,
        element_names=tuple(names),
        test_indices=tuple(test_indices),
        zero=zero,
        one=one,
        plus_table=plus_table,
        seq_table=seq_table,
        arrow_table=arrow_table,
        star_table=star_table,
    )


def load_algebra(path: Union[str, os.PathLike]) -> FiniteAlgebra:
    """Load one algebra from a table-format file."""
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    return loads_algebra(text, source=os.fspath(path))


def dump_algebra(alg: FiniteAlgebra, path: Union[str, os.PathLike]) -> None:
    """Write the canonical rendering of ``alg`` to ``path``."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(alg.canonical_text())
