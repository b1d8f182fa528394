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

Names are whitespace-delimited.  Diagnostics carry the source name, line
number, and for table entries the row element and column position.

``dump_algebra`` writes the canonical rendering (``canonical_text``) as
UTF-8 bytes with ``\\n`` line ends on every platform, which this module
parses back bit-identically; the sha256 of the written file is the
algebra's fingerprint.  It refuses, with ``AlgFileError`` and before
opening the file, an algebra or element name that is empty or contains
whitespace (as ``str.split`` sees it) or ``#``, since such a name would
not read back.
"""

from __future__ import annotations

import os
from typing import Optional, Union

from .algebra import AlgebraError, FiniteAlgebra


class AlgFileError(AlgebraError):
    """A malformed algebra file, or an algebra with a name the format cannot hold.

    For a file the message pinpoints the source line (and cell).
    """


def loads_algebra(text: str, source: str = "<string>") -> FiniteAlgebra:
    """Parse the table format from a string."""

    def read_rows():
        """Each line's number and tokens, without comments and blank lines."""
        for lineno, raw in enumerate(text.splitlines(), 1):
            toks = raw.split("#", 1)[0].split()
            if toks:
                yield lineno, toks

    rows = read_rows()
    last = 0  # the line of the last row read

    def fail(lineno: int, message: str) -> AlgFileError:
        return AlgFileError(f"{source}:{lineno}: {message}")

    def next_row(context: str) -> tuple[int, list[str]]:
        nonlocal last
        row = next(rows, None)
        if row is None:
            raise fail(last, f"file ends before {context}")
        last = row[0]
        return row

    def keyword(*want: str) -> tuple[int, list[str]]:
        lineno, toks = next_row(" ".join(want))
        head = toks[: len(want)]
        if head != list(want):
            raise fail(lineno, f"expected {' '.join(want)!r}, found {' '.join(head)!r}")
        return lineno, toks[len(want) :]

    lineno, rest = keyword("algebra")
    if len(rest) != 1:
        raise fail(lineno, "expected exactly one algebra name")
    name = rest[0]

    lineno, names = keyword("elements")
    if not names:
        raise fail(lineno, "expected at least one element name")
    index: dict[str, int] = {}
    for n in names:
        if n in index:
            raise fail(lineno, f"duplicate element name {n!r}")
        index[n] = len(index)
    size = len(names)

    def resolve(lineno: int, token: str, context: str) -> int:
        try:
            return index[token]
        except KeyError:
            raise fail(lineno, f"{context}: unknown element name {token!r}") from None

    lineno, test_names = keyword("tests")
    test_indices = []
    for n in test_names:
        i = resolve(lineno, n, "tests")
        if i in test_indices:
            raise fail(lineno, f"duplicate test {n!r}")
        test_indices.append(i)
    test_indices.sort()

    def constant(word: str) -> int:
        lineno, rest = keyword(word)
        if len(rest) != 1:
            raise fail(lineno, f"expected exactly one element name after {word!r}")
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
        lineno, rest = keyword("table", tname)
        if rest:
            raise fail(lineno, f"unexpected tokens after 'table {tname}'")
        table = []
        for i in range(size):
            lineno, toks = next_row(f"row {i + 1} of table {tname}")
            if len(toks) != size:
                raise fail(
                    lineno,
                    f"table {tname} row for {names[i]!r} has {len(toks)} entries,"
                    f" expected {size}",
                )
            table.append(resolve_row(lineno, toks, f"table {tname}, row {names[i]!r}"))
        return tuple(table)

    plus_table = read_table("plus")
    seq_table = read_table("seq")
    arrow_table = read_table("arrow")

    lineno, rest = keyword("table", "star")
    if rest:
        raise fail(lineno, "unexpected tokens after 'table star'")
    lineno, toks = next_row("the star row")
    if len(toks) != size:
        raise fail(lineno, f"star row has {len(toks)} entries, expected {size}")
    star_table = resolve_row(lineno, toks, "table star")
    for lineno, toks in rows:
        raise fail(lineno, f"unexpected trailing content {' '.join(toks)!r}")

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


def _unwritable(name: str) -> Optional[str]:
    """Why ``name`` would not read back as one token, if it would not."""
    if name.split() != [name]:
        return "is empty or contains whitespace"
    if "#" in name:
        return "contains '#', which starts a comment"
    return None


def dump_algebra(alg: FiniteAlgebra, path: Union[str, os.PathLike]) -> None:
    """Write the canonical rendering of ``alg`` to ``path``, as UTF-8 bytes.

    Raises ``AlgFileError`` before opening ``path`` if a name could not be
    read back.  The fingerprint of the written bytes is recorded on ``alg``.
    """
    for kind, name in (("algebra", alg.name), *(("element", n) for n in alg.element_names)):
        if fault := _unwritable(name):
            raise AlgFileError(f"cannot write {alg.name!r}: {kind} name {name!r} {fault}")
    data = alg.canonical_bytes()
    with open(path, "wb") as fh:
        fh.write(data)
