"""Carriers for graded algebras of programs and tests.

An algebra here is a two-sorted structure: a carrier K of programs with
+ (choice), ; (composition), * (iteration), and the constants 0 and 1,
together with a sub-carrier T of tests that is closed under +, ; and the
residual arrow ->.  Nothing in this module assumes any equational laws
beyond well-formedness; which laws actually hold is established by running
law suites (see laws.py), never assumed.

Two realisations are provided:

* ``FiniteAlgebra`` -- explicit operation tables over an indexed carrier.
  Elements are plain integer indices into the declared element list.
  The arrow table is stored full-size (|K| x |K|) so printed tables can be
  transcribed verbatim, but only the tests x tests region is validated and
  reachable through ``arrow``; the rest is read through the view that
  declares every element a test (``FiniteAlgebra.all_tests_view``).

* ``ProceduralAlgebra`` -- operations given as functions over arbitrary
  hashable values, with a declared sample list (always containing 0 and 1)
  and a seeded generator for drawing further elements.  The fields
  ``plus``, ``seq``, ``star``, ``is_test`` and ``el_name`` are those
  functions, called directly; only ``arrow`` (over ``arrow_fn``, between
  tests only) and ``check_member`` (over ``member_pred``) have a body.
  These support sampled checking only.

Every procedural carrier draws its pool positions with ``randbelow``,
straight from the generator's ``getrandbits``: the same calls, and the
same stream, as ``random.Random``'s ``randint``, ``randrange`` and
``choice``, without their layers of argument checks.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, replace
from operator import itemgetter
from typing import Any, Callable, Hashable, Optional, Sequence, Union

Element = Hashable


class AlgebraError(Exception):
    """Base class for errors raised by algebra construction or use."""


class DomainError(AlgebraError):
    """An element does not belong to the algebra it was used with."""


class SortError(AlgebraError):
    """An operation or binding was applied outside its sort.

    The main offender is the arrow, which is defined only between tests.
    """


class ClosureError(AlgebraError):
    """A table is malformed or the test region is not closed."""


class DivergenceError(AlgebraError):
    """An iteration did not stabilise within its step bound."""


class SizeError(AlgebraError):
    """A valuation space exceeds the configured exhaustive cap."""


class NameEncodingError(AlgebraError):
    """A name cannot be encoded as UTF-8, in which tables are written and hashed."""


def require_utf8(names: Sequence[str], what: str) -> None:
    """Raise ``NameEncodingError``, naming the first of ``names`` UTF-8 cannot encode.

    A lone surrogate, as ``surrogateescape`` makes of an undecodable byte
    on the command line, is the only such character.  ``what`` says what
    the names are, for the message.
    """
    try:
        "".join(names).encode()
    except UnicodeEncodeError:
        for name in names:
            try:
                name.encode()
            except UnicodeEncodeError:
                raise NameEncodingError(f"{what} {name!r} cannot be encoded as UTF-8") from None


def randbelow(getrandbits: Callable[[int], int], n: int) -> int:
    """A draw position below ``n``, by the calls ``random.Random._randbelow`` makes.

    It draws ``n.bit_length()`` bits from ``getrandbits`` (a generator's
    bound method), and again while the result is at least ``n``, so it
    consumes the stream as ``randrange(n)`` and ``choice`` of ``n`` items
    do; ``randint(a, b)`` is ``a + randbelow(getrandbits, b - a + 1)``.
    Raises ``ValueError`` unless n > 0, where the loop would never end.
    """
    if n <= 0:
        raise ValueError(f"no draw position below {n}")
    k = n.bit_length()
    r = getrandbits(k)
    while r >= n:
        r = getrandbits(k)
    return r


def _cell_fault(v: object, n: int) -> Optional[str]:
    """Why ``v`` is not an element index of an ``n``-element algebra, if it is not."""
    if type(v) is not int:
        return f"index {v!r} is not an int"
    if not 0 <= v < n:
        return f"index {v} out of range"
    return None


@dataclass(frozen=True)
class FiniteAlgebra:
    """A finite algebra given by explicit operation tables.

    ``element_names`` fixes the element order; all tables are indexed by
    position in that list (row = left operand, column = right operand).
    ``test_indices`` must be ascending and must contain ``zero`` and
    ``one``.  Construction validates shape and test-region closure and
    raises ``ClosureError`` with a cell-precise message otherwise.
    """

    name: str
    element_names: tuple[str, ...]
    test_indices: tuple[int, ...]
    zero: int
    one: int
    plus_table: tuple[tuple[int, ...], ...]
    seq_table: tuple[tuple[int, ...], ...]
    arrow_table: tuple[tuple[int, ...], ...]
    star_table: tuple[int, ...]

    finite = True

    def __post_init__(self) -> None:
        require_utf8((self.name,), "algebra name")
        require_utf8(self.element_names, f"algebra {self.name!r}: element name")
        n = len(self.element_names)
        if n == 0:
            raise ClosureError(f"algebra {self.name!r} has no elements")
        if len(set(self.element_names)) != n:
            raise ClosureError(f"algebra {self.name!r} has duplicate element names")
        for i in self.test_indices:
            if fault := _cell_fault(i, n):
                raise ClosureError(f"test {fault} in {self.name!r}")
        if tuple(sorted(set(self.test_indices))) != self.test_indices:
            raise ClosureError(f"test indices of {self.name!r} must be ascending and distinct")
        test_set = set(self.test_indices)
        for label, idx in (("zero", self.zero), ("one", self.one)):
            if fault := _cell_fault(idx, n):
                raise ClosureError(f"{label} {fault} in {self.name!r}")
            if idx not in test_set:
                raise ClosureError(
                    f"{label} element {self.element_names[idx]!r} of {self.name!r} is not a test"
                )
        # A row is checked by one set comparison of its cells and one list
        # comparison of their types (1.0 and True equal 1 in a set); only a
        # failing row is walked cell by cell, to name its first bad cell.
        indices = frozenset(range(n))
        int_row = [int] * n
        for tname, table in (
            ("plus", self.plus_table),
            ("seq", self.seq_table),
            ("arrow", self.arrow_table),
        ):
            if len(table) != n:
                raise ClosureError(f"table {tname} of {self.name!r} has {len(table)} rows, expected {n}")
            for i, row in enumerate(table):
                if len(row) != n:
                    raise ClosureError(
                        f"table {tname} of {self.name!r}, row {self.element_names[i]!r}:"
                        f" {len(row)} entries, expected {n}"
                    )
                if indices.issuperset(row) and list(map(type, row)) == int_row:
                    continue
                for j, v in enumerate(row):
                    if fault := _cell_fault(v, n):
                        raise ClosureError(
                            f"table {tname} of {self.name!r}, row {self.element_names[i]!r},"
                            f" column {self.element_names[j]!r}: {fault}"
                        )
        if len(self.star_table) != n:
            raise ClosureError(f"table star of {self.name!r} has {len(self.star_table)} entries, expected {n}")
        star = self.star_table
        if not (indices.issuperset(star) and list(map(type, star)) == int_row):
            for i, v in enumerate(star):
                if fault := _cell_fault(v, n):
                    raise ClosureError(
                        f"table star of {self.name!r}, column {self.element_names[i]!r}: {fault}"
                    )
        # The test region must be a sub-carrier: closed under plus, seq and arrow.
        # When every element is a test, the range check above has shown it.
        closure_tables = (
            (("plus", self.plus_table), ("seq", self.seq_table), ("arrow", self.arrow_table))
            if len(test_set) < n
            else ()
        )
        for tname, table in closure_tables:
            for i in self.test_indices:
                row = table[i]
                if test_set.issuperset([row[j] for j in self.test_indices]):
                    continue
                for j in self.test_indices:
                    v = row[j]
                    if v not in test_set:
                        raise ClosureError(
                            f"table {tname} of {self.name!r}, row {self.element_names[i]!r},"
                            f" column {self.element_names[j]!r}: result"
                            f" {self.element_names[v]!r} is not a test"
                        )
        object.__setattr__(self, "_index", {nm: i for i, nm in enumerate(self.element_names)})
        object.__setattr__(self, "_test_set", frozenset(self.test_indices))

    # -- basic queries ------------------------------------------------------

    @property
    def size(self) -> int:
        return len(self.element_names)

    def elements(self) -> range:
        return range(self.size)

    def tests(self) -> tuple[int, ...]:
        return self.test_indices

    def is_test(self, a: int) -> bool:
        self.check_member(a)
        return a in self._test_set  # type: ignore[attr-defined]

    def el_name(self, a: int) -> str:
        self.check_member(a)
        return self.element_names[a]

    def resolve(self, name: str) -> int:
        try:
            return self._index[name]  # type: ignore[attr-defined]
        except KeyError:
            raise DomainError(f"algebra {self.name!r} has no element named {name!r}") from None

    def check_member(self, a: Element) -> None:
        if type(a) is not int or not 0 <= a < self.size:
            raise DomainError(f"{a!r} is not an element of algebra {self.name!r}")

    # -- operations ---------------------------------------------------------

    def plus(self, a: int, b: int) -> int:
        return self.plus_table[a][b]

    def seq(self, a: int, b: int) -> int:
        return self.seq_table[a][b]

    def star(self, a: int) -> int:
        return self.star_table[a]

    def arrow(self, a: int, b: int) -> int:
        if a not in self._test_set or b not in self._test_set:  # type: ignore[attr-defined]
            self.check_member(a)
            self.check_member(b)
            bad = a if a not in self._test_set else b  # type: ignore[attr-defined]
            raise SortError(
                f"arrow is defined only between tests; {self.element_names[bad]!r}"
                f" is not a test of {self.name!r}"
            )
        return self.arrow_table[a][b]

    # -- serialisation ------------------------------------------------------

    def canonical_text(self) -> str:
        """Render the algebra in the text table format (see algfile.py)."""
        names = self.element_names
        # A row's names are gathered by one itemgetter call.  Given a single
        # index it returns the bare name, not a tuple, so one element is
        # rendered apart: each table is one row of that name.
        if len(names) == 1:
            plus = seq = arrow = star = list(names)
        else:
            plus, seq, arrow, star = (
                [" ".join(itemgetter(*row)(names)) for row in table]
                for table in (self.plus_table, self.seq_table, self.arrow_table, (self.star_table,))
            )
        return "\n".join([
            f"algebra {self.name}",
            "elements " + " ".join(names),
            "tests " + " ".join(names[i] for i in self.test_indices),
            f"zero {names[self.zero]}",
            f"one {names[self.one]}",
            "table plus", *plus,
            "table seq", *seq,
            "table arrow", *arrow,
            "table star", *star,
            "",  # the text ends with a newline
        ])

    def canonical_bytes(self) -> bytes:
        """``canonical_text`` encoded as UTF-8, which is what ``dump_algebra`` writes.

        Records the fingerprint of these bytes unless this object has one,
        so ``fingerprint`` renders nothing after it.
        """
        data = self.canonical_text().encode()
        if "_fingerprint" not in self.__dict__:
            object.__setattr__(self, "_fingerprint", "sha256:" + hashlib.sha256(data).hexdigest())
        return data

    def fingerprint(self) -> str:
        """sha256 of ``canonical_text`` encoded as UTF-8, computed once per object."""
        fp = self.__dict__.get("_fingerprint")
        if fp is None:
            self.canonical_bytes()
            fp = self.__dict__["_fingerprint"]
        return fp

    def all_tests_view(self) -> FiniteAlgebra:
        """The view of this algebra in which every element is a test, made once per object.

        Its arrow reads every stored cell; carrier-mode commutation checks
        run on it (see ``hoare.commutation_conditions``).
        """
        view = self.__dict__.get("_all_tests_view")
        if view is None:
            view = replace(self, test_indices=tuple(self.elements()))
            object.__setattr__(self, "_all_tests_view", view)
        return view

    def byte_views(self) -> tuple:
        """The tables as ``bytes.translate`` tables, for carriers of at most 256 elements.

        Returns the rows and the columns of plus, seq and arrow, then star:
        ``(plus rows, plus columns, seq rows, seq columns, arrow rows, arrow
        columns, star)``.  Each row or column is a 256-byte string, zero
        padded, built the first time it is read; the tuple is made once per
        object.
        """
        views = self.__dict__.get("_byte_views")
        if views is None:
            views = []
            for table in (self.plus_table, self.seq_table, self.arrow_table):
                views.append(LazyBytes(lambda i, t=table: bytes(t[i]).ljust(256, b"\0")))
                views.append(LazyBytes(
                    lambda j, t=table: bytes(map(itemgetter(j), t)).ljust(256, b"\0")))
            views.append(bytes(self.star_table).ljust(256, b"\0"))
            views = tuple(views)
            object.__setattr__(self, "_byte_views", views)
        return views


class LazyBytes(dict):
    """Byte strings by key, each made by ``make`` the first time it is read."""

    __slots__ = ("make",)

    def __init__(self, make: Callable[[int], bytes]) -> None:
        super().__init__()
        self.make = make

    def __missing__(self, key: int) -> bytes:
        value = self[key] = self.make(key)
        return value


@dataclass(frozen=True)
class ProceduralAlgebra:
    """An algebra given by operation functions over hashable values.

    The fields ``plus``, ``seq`` and ``star`` are the operations themselves,
    ``is_test`` decides test membership, ``el_name`` names an element and
    ``member_pred`` decides membership.  ``samples`` is the declared
    candidate pool for sampled checking and must contain ``zero`` and
    ``one``; ``draw`` generates further elements from a seeded
    ``random.Random``.  Only two methods wrap a field: ``arrow`` applies
    ``arrow_fn`` between tests only, and ``check_member`` raises on what
    ``member_pred`` rejects.

    The operations and ``draw`` must be pure functions of their arguments
    (``draw`` of the generator's state): a sampled check tabulates the
    results of operations by the positions of their operands in the pools,
    and the checks that share a carrier object and a seed share one draw of
    the pools.
    """

    name: str
    zero: Element
    one: Element
    plus: Callable[[Element, Element], Element]
    seq: Callable[[Element, Element], Element]
    star: Callable[[Element], Element]
    arrow_fn: Callable[[Element, Element], Element]
    is_test: Callable[[Element], bool]
    samples: tuple[Element, ...]
    draw: Callable[[Any], Element]
    el_name: Callable[[Element], str]
    member_pred: Callable[[Element], bool]

    finite = False

    def __post_init__(self) -> None:
        require_utf8((self.name,), "algebra name")
        if self.zero not in self.samples or self.one not in self.samples:
            raise ClosureError(f"sample list of {self.name!r} must contain both constants")
        if not any(self.is_test(s) for s in self.samples):
            raise ClosureError(f"sample list of {self.name!r} contains no tests")

    def check_member(self, a: Element) -> None:
        if not self.member_pred(a):
            raise DomainError(f"{a!r} is not an element of algebra {self.name!r}")

    def arrow(self, a: Element, b: Element) -> Element:
        if not self.is_test(a) or not self.is_test(b):
            bad = a if not self.is_test(a) else b
            raise SortError(
                f"arrow is defined only between tests; {self.el_name(bad)!r}"
                f" is not a test of {self.name!r}"
            )
        return self.arrow_fn(a, b)

    def fingerprint(self) -> str:
        ident = self.name + "|" + "|".join(self.el_name(s) for s in self.samples)
        return "sha256:" + hashlib.sha256(ident.encode()).hexdigest()


Algebra = Union[FiniteAlgebra, ProceduralAlgebra]


def star_lfp(alg: FiniteAlgebra, a: int) -> int:
    """Least-fixpoint iterate of iteration: s0 = 1, s_{k+1} = 1 + a;s_k.

    Reads ``alg``'s plus and seq tables and returns the first stabilised
    iterate.  Raises ``DivergenceError`` if the iteration has not stabilised
    within |K| + 1 steps.
    """
    alg.check_member(a)
    plus, seq, one = alg.plus_table, alg.seq_table, alg.one
    steps = alg.size + 1
    s = one
    for _ in range(steps):
        nxt = plus[one][seq[a][s]]
        if nxt == s:
            return s
        s = nxt
    raise DivergenceError(
        f"iteration of {alg.el_name(a)!r} in {alg.name!r} did not stabilise"
        f" within {steps} steps"
    )
