"""Derived algebras: graded sets, matrices (graded relations), graded languages.

Each construction is given by a small kernel of value-level operations over
a finite base algebra; the kernels read the base's operation tables.  When
the derived carrier has at most ``DEFAULT_CAP`` elements it becomes an
ordinary ``FiniteAlgebra`` with full tables, so every law can be checked
exhaustively; otherwise the kernel is wrapped as a ``ProceduralAlgebra``
with seeded random draws (opt in via ``sampled=True`` — without it an
oversized carrier raises ``SizeError``).

Finite tables come from index arithmetic, not from one kernel call per
cell.  ``itertools.product`` numbers each carrier in mixed radix: a graded
set over T is a numeral of ``points`` digits in base |T| (each digit the
position of a coordinate among the base tests), and its tables are the
base tables applied digit by digit.  Star and element names are computed
per element from the kernel.

Carriers and operations:

* graded sets over points X: vectors in T^X, everything pointwise, star
  taken pointwise as the least fixpoint of s = 1 + t;s in the base;
* n×n matrices over K with diagonal T-valued tests: ring-style
  addition/multiplication, the residual acting on the diagonal, star by
  two-by-two block recursion (Kozen's matrices over a Kleene algebra;
  the tests hold an independent iterative fixpoint as its oracle).
  Graded relations over n points (``frel:K:T:n``) and matrices
  (``mat:K:n``, where T = K) are this one carrier: the relational product
  is the matrix product and the relational star, the least fixpoint of
  S = Id ∪ (M ∘ S), is the matrix star;
* graded languages over an alphabet: finitely-supported maps from words
  to K, concatenation summing over every factorisation of a word
  (including the empty prefix and suffix); observation is cut off at
  words of length ``maxlen``; always procedural.  A language is stored as
  its nonzero (word, weight) pairs in string order of the words; only
  ``el_name`` knows shortlex, and lists them shorter words first.  The
  module-level ``flang_union``, ``flang_concat`` and ``flang_star`` are
  the one implementation of the language operations; each carrier binds
  them, with its base and window, in closures.  They take operands in
  that normal form and keep it: a union merges its two sorted operands in
  one pass, and ε's weight, which a test holds, is the first pair's.

A sampled carrier draws every pool position with ``algebra.randbelow``,
by the ``getrandbits`` calls the ``random.Random`` methods would make.

Every matrix carrier is built on row codes: an n×n matrix is the tuple of
its n row numbers, a row's number being the numeral of its cells in base
|K|.  Sum, product, star, element names and the finite tables all run on
codes, at every size.  For rows of w cells, ``_row_tables`` gives, over
their R = |K|^w numbers, the sum of two rows and a row scaled on the left
by one cell, so a sum is a lookup per row and row i of a product A·B is
Σ_z scale[A_iz][B_z], folded over the v cells of A's row by a kernel with
the fold written out for v cells, whose source ``_product_kernel(v)`` makes
once per width per process.  Those tables are built on first use, and only
while R ≤ ``_ROW_TABLE_ROWS``; a longer row splits, by ``divmod``, into its
high ⌊w/2⌋ cells and low ⌈w/2⌉ cells, each computed the same way and
joined again.  The star is the block recursion on the same split.  A
finite carrier numbers each code in base |K|ⁿ, which is the row-major
numbering of its cells, and tabulates the code kernels.
"""

from __future__ import annotations

import itertools
import operator
import random
from functools import cache
from typing import Callable, Optional

from .algebra import (
    Algebra,
    DivergenceError,
    DomainError,
    FiniteAlgebra,
    ProceduralAlgebra,
    SizeError,
    randbelow,
    require_utf8,
    star_lfp,
)

DEFAULT_CAP = 4096


# --- test-sort resolution -------------------------------------------------


def _resolve_test_sort(
    kalg: FiniteAlgebra, talg: FiniteAlgebra
) -> tuple[tuple[int, ...], Callable[[int, int], int]]:
    """Embed ``talg``'s tests into ``kalg`` by element name.

    Returns the K-indices of the embedded tests and the residual computed
    in T but expressed on K-indices.  The two algebras coincide in the
    common case (one algebra playing both roles); distinct algebras must
    agree on element names for zero and one.
    """
    if talg is kalg:
        return kalg.test_indices, kalg.arrow
    t_to_k = []
    for name in talg.element_names:
        try:
            t_to_k.append(kalg.resolve(name))
        except DomainError:
            raise ValueError(
                f"test algebra {talg.name!r} has element {name!r} "
                f"with no namesake in {kalg.name!r}"
            ) from None
    if t_to_k[talg.zero] != kalg.zero or t_to_k[talg.one] != kalg.one:
        raise ValueError(
            f"test algebra {talg.name!r} must share zero/one names with {kalg.name!r}"
        )
    k_to_t = {k: t for t, k in enumerate(t_to_k)}
    t_tests = tuple(t_to_k[t] for t in talg.tests())

    def arrow(a: int, b: int) -> int:
        return t_to_k[talg.arrow(k_to_t[a], k_to_t[b])]

    return t_tests, arrow


# --- finite tables by index arithmetic ------------------------------------

Table = tuple[tuple[int, ...], ...]


def _numeral(digits, radix: int) -> int:
    """The number written by ``digits`` in base ``radix``, leading digit first."""
    i = 0
    for d in digits:
        i = i * radix + d
    return i


def _digitwise_table(op: Table, width: int) -> Table:
    """The table of ``op`` applied to each digit of two ``width``-digit numerals.

    By radix recursion: with M = len(op) ** w, the table on w + 1 digits is
    T[u0·M + ur][v0·M + vr] = op[u0][v0]·M + T_w[ur][vr].
    """
    table = op
    for _ in range(width - 1):
        m = len(table)
        # shifted[ur][h]: row ur of T_w under the leading digit h
        shifted = [[tuple([h * m + x for x in row]) for h in range(len(op))] for row in table]
        table = tuple(
            sum(map(by_digit.__getitem__, op_row), ()) for op_row in op for by_digit in shifted
        )
    return table


def _fits_cap(name: str, base: int, exp: int, sampled: bool) -> bool:
    """Whether a carrier of ``base ** exp`` elements fits under ``DEFAULT_CAP``.

    The power is built only when its exponent is below the cap's bit length
    (otherwise it is at least ``2 ** exp > DEFAULT_CAP``), so an oversized request
    fails at once.  An oversized carrier raises ``SizeError`` unless
    ``sampled``.
    """
    if base <= 1:
        return True
    if exp < DEFAULT_CAP.bit_length():
        size = base**exp
        if size <= DEFAULT_CAP:
            return True
        shown = str(size)
    else:
        shown = f"{base}^{exp}"
    if not sampled:
        raise SizeError(f"{name}: carrier size {shown} exceeds cap {DEFAULT_CAP}")
    return False


def _require_finite(base: Algebra, what: str) -> FiniteAlgebra:
    if not isinstance(base, FiniteAlgebra):
        raise ValueError(f"{what} needs a finite base algebra, got {base.name!r}")
    return base


# --- graded sets ----------------------------------------------------------


def fset_algebra(base: Algebra, points: int, *, sampled: bool = False) -> Algebra:
    """Vectors of base tests over ``points`` coordinates, pointwise."""
    base = _require_finite(base, "fset")
    if points < 1:
        raise ValueError("fset needs at least one point")
    tests = base.tests()
    name = f"fset:{base.name}:{points}"
    finite = _fits_cap(name, len(tests), points, sampled)
    zero = (base.zero,) * points
    one = (base.one,) * points

    def star(v):
        return tuple(star_lfp(base, a) for a in v)

    def el_name(v):
        return "(" + ",".join(base.el_name(a) for a in v) + ")"

    if finite:
        pos = {t: d for d, t in enumerate(tests)}

        def digit_table(table: Table) -> Table:
            return tuple(tuple(pos[table[a][b]] for b in tests) for a in tests)

        def index(v) -> int:
            return _numeral(map(pos.__getitem__, v), len(tests))

        values = list(itertools.product(tests, repeat=points))
        return FiniteAlgebra(
            name=name,
            element_names=tuple(map(el_name, values)),
            test_indices=tuple(range(len(values))),
            zero=index(zero),
            one=index(one),
            plus_table=_digitwise_table(digit_table(base.plus_table), points),
            seq_table=_digitwise_table(digit_table(base.seq_table), points),
            arrow_table=_digitwise_table(digit_table(base.arrow_table), points),
            star_table=tuple(index(star(v)) for v in values),
        )

    def pointwise(table: Table) -> Callable:
        return lambda v, w: tuple([table[a][b] for a, b in zip(v, w)])

    def draw(rng: random.Random):
        gb = rng.getrandbits
        return tuple([tests[randbelow(gb, len(tests))] for _ in range(points)])

    return ProceduralAlgebra(
        name=name,
        zero=zero,
        one=one,
        plus=pointwise(base.plus_table),
        seq=pointwise(base.seq_table),
        star=star,
        arrow_fn=pointwise(base.arrow_table),
        is_test=lambda v: True,
        samples=(zero, one),
        draw=draw,
        el_name=el_name,
        member_pred=lambda v: isinstance(v, tuple)
        and len(v) == points
        and all(type(a) is int and a in tests for a in v),
    )


# --- graded languages -----------------------------------------------------

Language = tuple[tuple[str, int], ...]


def _lang_norm(base: FiniteAlgebra, items: dict) -> Language:
    """The nonzero (word, weight) pairs of ``items``, in string order of the words.

    The normal form of a language; a draw and membership make it from a map.
    """
    return tuple(sorted([wv for wv in items.items() if wv[1] != base.zero]))


def flang_union(base: FiniteAlgebra, l1: Language, l2: Language) -> Language:
    """(l1 + l2)(w) = l1(w) + l2(w), the left weight first; operands in normal form.

    One pass merges the two word-sorted operands.  Only a word in both can
    get a zero weight, and is then dropped; an empty operand returns the
    other operand itself.
    """
    if not l1:
        return l2
    if not l2:
        return l1
    plus, zero = base.plus_table, base.zero
    out = []
    j, n2 = 0, len(l2)
    for item in l1:
        w = item[0]
        while j < n2 and l2[j][0] < w:
            out.append(l2[j])
            j += 1
        if j < n2 and l2[j][0] == w:
            v = plus[item[1]][l2[j][1]]
            if v != zero:
                out.append((w, v))
            j += 1
        else:
            out.append(item)
    out += l2[j:]
    return tuple(out)


def flang_concat(base: FiniteAlgebra, l1: Language, l2: Language, maxlen: int) -> Language:
    """(l1·l2)(w) sums l1(u);l2(v) over every split w = uv, ε splits included.

    Operands in normal form; the result is in it too.
    """
    if not l1 or not l2:
        return ()
    plus, seq, zero = base.plus_table, base.seq_table, base.zero
    acc: dict = {}
    for u, a in l1:
        by, room = seq[a], maxlen - len(u)
        for v, b in l2:
            if len(v) > room:
                continue
            w = u + v
            piece = by[b]
            acc[w] = plus[acc[w]][piece] if w in acc else piece
    return tuple(sorted([wv for wv in acc.items() if wv[1] != zero]))


def flang_star(base: FiniteAlgebra, lang: Language, maxlen: int) -> Language:
    """Least fixpoint of S = ε ∪ l·S, observed up to ``maxlen``; ``lang`` in normal form."""
    letters = len({c for w, _ in lang for c in w})
    steps = sum(letters**k for k in range(maxlen + 1)) * base.size + 2
    eps: Language = ((("", base.one),) if base.one != base.zero else ())
    cur = eps
    for _ in range(steps):
        nxt = flang_union(base, eps, flang_concat(base, lang, cur, maxlen))
        if nxt == cur:
            return cur
        cur = nxt
    raise DivergenceError(f"language star did not stabilise within {steps} steps")


# A language star iterates up to maxlen + 1 times over every observed word;
# flang refuses windows where the product of the two exceeds this.  At the
# bound, ``gkat denest --construct flang:chain3:a:255 --samples 50`` takes
# 0.61-0.63 s (CPython 3.11.7, 2 cores).
_FLANG_WORK = 2**16


def _check_window(name: str, letters: int, maxlen: int) -> None:
    """Raise ``SizeError`` unless the observed words times maxlen + 1 fit ``_FLANG_WORK``."""
    steps = maxlen + 1
    if steps > _FLANG_WORK:  # words ≥ steps, so the product is past the bound too
        raise SizeError(f"{name}: {steps} star steps exceed bound {_FLANG_WORK}")
    words = steps if letters == 1 else (letters**steps - 1) // (letters - 1)
    if words * steps > _FLANG_WORK:
        raise SizeError(
            f"{name}: {words} observed words x {steps} star steps = {words * steps}"
            f" exceeds bound {_FLANG_WORK}"
        )


def flang_algebra(
    kalg: Algebra,
    talg: Optional[Algebra] = None,
    alphabet: str = "ab",
    maxlen: int = 4,
) -> ProceduralAlgebra:
    """Finitely-supported word-weighted languages, observed up to ``maxlen``.

    Always procedural: equality means agreement on every word of length at
    most ``maxlen``, which the canonical support representation makes a
    plain tuple comparison.  Twelve seeded random languages join the
    declared sample pool.
    """
    kalg = _require_finite(kalg, "flang")
    talg = kalg if talg is None else _require_finite(talg, "flang")
    if not alphabet or len(set(alphabet)) != len(alphabet):
        raise ValueError(f"flang alphabet must be nonempty distinct characters: {alphabet!r}")
    require_utf8((alphabet,), "flang alphabet")
    # A language prints as {word:weight,...}, the empty word as eps.
    if any(c in ",:{}" or c.isspace() for c in alphabet):
        raise ValueError(f"flang alphabet {alphabet!r} holds ',', ':', '{{', '}}' or whitespace,"
                         " which language names use")
    if maxlen < 1:
        raise ValueError("flang needs maxlen >= 1")
    if maxlen >= 3 and set("eps") <= set(alphabet):
        raise ValueError(f"flang alphabet {alphabet!r} holds e, p and s, so at maxlen {maxlen}"
                         " the word 'eps' would print as the empty word")
    t_tests, t_arrow = _resolve_test_sort(kalg, talg)
    t_test_set = frozenset(t_tests)
    name = f"flang:{kalg.name}:{talg.name}:{alphabet}:{maxlen}"
    _check_window(name, len(alphabet), maxlen)
    zero: Language = ()
    one: Language = (("", kalg.one),) if kalg.one != kalg.zero else ()

    def is_test(lang: Language) -> bool:
        return all(w == "" and v in t_test_set for w, v in lang)

    def eps_weight(lang: Language) -> int:
        # ε sorts first, so its pair, if any, is the first.
        return lang[0][1] if lang and not lang[0][0] else kalg.zero

    def arrow(l1: Language, l2: Language) -> Language:
        r = t_arrow(eps_weight(l1), eps_weight(l2))
        return (("", r),) if r != kalg.zero else ()

    def el_name(lang: Language) -> str:
        items = sorted(lang, key=lambda wv: (len(wv[0]), wv[0]))  # shortlex
        return "{" + ",".join(f"{w or 'eps'}:{kalg.el_name(v)}" for w, v in items) + "}"

    nonzero = [e for e in kalg.elements() if e != kalg.zero]

    def draw(rng: random.Random) -> Language:
        if not nonzero:  # a one-element base: every language is zero
            return ()
        gb = rng.getrandbits
        items: dict = {}
        for _ in range(randbelow(gb, 5)):
            length = randbelow(gb, maxlen + 1)
            word = "".join([alphabet[randbelow(gb, len(alphabet))] for _ in range(length)])
            items[word] = nonzero[randbelow(gb, len(nonzero))]
        return _lang_norm(kalg, items)

    samples: list[Language] = [zero, one]
    if one:
        samples += [((c, kalg.one),) for c in alphabet]
    samples += [(("", t),) for t in t_tests if t not in (kalg.zero, kalg.one)]
    rng = random.Random(0xF1A)
    while len(samples) < 2 + len(alphabet) + len(t_tests) + 12:
        samples.append(draw(rng))

    def member(lang) -> bool:
        # Each item is a (word, weight) pair in the window; the whole is in normal form.
        return (
            isinstance(lang, tuple)
            and all(
                isinstance(item, tuple)
                and len(item) == 2
                and isinstance(item[0], str)
                and len(item[0]) <= maxlen
                and all(c in alphabet for c in item[0])
                and type(item[1]) is int
                and 0 <= item[1] < kalg.size
                for item in lang
            )
            and lang == _lang_norm(kalg, dict(lang))
        )

    # Closures, not keyword partials, which build a kwargs dict per call; each
    # looks its function up by name, so a wrapper of the module's name sees it.
    def plus(l1: Language, l2: Language) -> Language:
        return flang_union(kalg, l1, l2)

    def seq(l1: Language, l2: Language) -> Language:
        return flang_concat(kalg, l1, l2, maxlen)

    def star(lang: Language) -> Language:
        return flang_star(kalg, lang, maxlen)

    return ProceduralAlgebra(
        name=name,
        zero=zero,
        one=one,
        plus=plus,
        seq=seq,
        star=star,
        arrow_fn=arrow,
        is_test=is_test,
        samples=tuple(dict.fromkeys(samples)),
        draw=draw,
        el_name=el_name,
        member_pred=member,
    )


# --- matrices and relations -----------------------------------------------


# A product kernel folds at most this many cells in one nested expression;
# a longer row continues the fold in a further comprehension clause, which
# keeps the generated source far below the parser's nesting limits.
_FOLD_CELLS = 32


@cache
def _product_kernel(v: int) -> Callable:
    """A factory of the product kernel for matrices with rows of v cells.

    ``factory(P, S, PZ, cells)`` returns the product of a matrix with rows
    of v cells, as row numbers, and one of v rows, where ``P`` and ``S`` are
    the row sum and scaling tables of ``_row_tables``, ``PZ`` is the sum
    table's row of the zero row and ``cells`` gives a row number's v cells.
    Row i of the product is the left fold from the zero row, in ascending
    z, of P[acc][S[a_iz][b_z]], written out for v cells: no associativity
    or commutativity of + is assumed, so this is the fold of each cell from
    the base's zero with the base's tables.  The source is made and
    compiled once per width per process; it holds only generated names and
    integers.
    """
    folds = []
    for start in range(0, v, _FOLD_CELLS):
        fold = f"{'PZ' if start == 0 else 'P[r]'}[S[x{start}][b{start}]]"
        for z in range(start + 1, min(start + _FOLD_CELLS, v)):
            fold = f"P[{fold}][S[x{z}][b{z}]]"
        folds.append(fold)
    # ``for r in [e]`` in a comprehension assigns e to r.
    carried = "".join(f" for r in [{fold}]" for fold in folds[:-1])
    bs, xs = ("".join(f"{c}{z}, " for z in range(v)) for c in "bx")
    source = (
        "def factory(P, S, PZ, cells):\n"
        "    def product(a, b):\n"
        f"        {bs}= b\n"
        f"        return tuple([{folds[-1]} for {xs}in map(cells, a){carried}])\n"
        "    return product\n"
    )
    namespace: dict = {}
    exec(source, namespace)
    return namespace.pop("factory")


def _row_tables(base: FiniteAlgebra, n: int) -> tuple[Table, Table]:
    """The sum and scaling tables on the |K|ⁿ numbers of n-cell rows.

    ``plus[x][y]`` is the number of row x plus row y, cell by cell, and
    ``scale[a][y]`` that of row y with every cell c replaced by a;c, so
    row i of A·B is Σ_z scale[A_iz][B_z].
    """
    k = base.size
    scale = tuple(
        tuple(_numeral(row, k) for row in itertools.product(seq_row, repeat=n))
        for seq_row in base.seq_table
    )
    return _digitwise_table(base.plus_table, n), scale


# The largest row table, in row numbers.  The tables for rows of w cells hold
# R² + |K|·R numbers, R = |K|^w: 0.55 MB at R = 256, 8.1 MB at 729 and 15 MB
# at 1024 (tracemalloc), hundreds of MB by R = 4096.  Rows with more row
# numbers than this (and more than one cell) are split into two shorter rows.
_ROW_TABLE_ROWS = 256

RowCode = tuple[int, ...]


def _join(high, low, s: int) -> RowCode:
    """The rows whose high parts are ``high`` and low parts, of radix s, ``low``."""
    return tuple([x * s + y for x, y in zip(high, low)])


def _matrix_algebra(
    name: str, kalg: FiniteAlgebra, talg: FiniteAlgebra, n: int, sampled: bool
) -> Algebra:
    """n×n matrices over ``kalg`` whose tests are diagonals of ``talg`` tests.

    The kernels take row codes; a finite carrier tabulates them, numbering
    each code in base R = |K|ⁿ.  ``adder(w)`` and ``multiplier(v, w)`` make,
    once per width, the sum and product of matrices with rows of w cells,
    bound to that width's tables; a product on tables binds the kernel that
    ``_product_kernel(v)`` compiled once per process for rows of v cells.
    ``block_star`` takes the width it computes, so the kernels serve the
    blocks of the star as well as whole matrices.
    """
    t_tests, t_arrow = _resolve_test_sort(kalg, talg)
    finite = _fits_cap(name, kalg.size, n * n, sampled)
    k, zero = kalg.size, kalg.zero

    def halves(w: int) -> tuple[int, int]:
        """The cells of a split row's high part, and the radix s of its low part."""
        return w // 2, k ** (w - w // 2)

    @cache
    def tables(w: int):
        """The tables for rows of w cells, or None past ``_ROW_TABLE_ROWS`` row numbers.

        They are the row sum and scaling tables, the zero row, and the cells
        of each row number.
        """
        if w > 1 and k**w > _ROW_TABLE_ROWS:
            return None
        cells = list(itertools.product(range(k), repeat=w)).__getitem__
        return (*_row_tables(kalg, w), _numeral((zero,) * w, k), cells)

    @cache
    def digits(w: int) -> Callable[[int], tuple[int, ...]]:
        """The cells of a row of w cells, by its number."""
        t = tables(w)
        if t is not None:
            return t[3]
        h, s = halves(w)
        high, low = digits(h), digits(w - h)
        return lambda r: high(r // s) + low(r % s)

    @cache
    def adder(w: int) -> Callable[[RowCode, RowCode], RowCode]:
        """The sum of two matrices with rows of w cells."""
        t = tables(w)
        if t is not None:
            row_plus = t[0]
            return lambda a, b: tuple([row_plus[x][y] for x, y in zip(a, b)])
        h, s = halves(w)
        high, low = adder(h), adder(w - h)
        return lambda a, b: _join(high([x // s for x in a], [y // s for y in b]),
                                  low([x % s for x in a], [y % s for y in b]), s)

    @cache
    def multiplier(v: int, w: int) -> Callable[[RowCode, RowCode], RowCode]:
        """The product of a matrix with rows of v cells and one with v rows of w cells."""
        t = tables(w)
        if t is not None:
            row_plus, scale, zero_row, _ = t
            return _product_kernel(v)(row_plus, scale, row_plus[zero_row], digits(v))
        h, s = halves(w)
        high, low = multiplier(v, h), multiplier(v, w - h)
        return lambda a, b: _join(high(a, [y // s for y in b]), low(a, [y % s for y in b]), s)

    def block_star(m, w: int = n) -> RowCode:
        """Star of a w×w matrix by two-by-two block recursion.

        For M = [[A, B], [C, D]] with F = (A + B·D*·C)*:
        M* = [[F, F·B·D*], [D*·C·F, D* + D*·C·F·B·D*]], where A is
        ⌊w/2⌋ × ⌊w/2⌋, so row r splits into r // s and r % s as in ``halves``.
        """
        if w == 1:
            return (kalg.star_table[m[0]],)
        h, s = halves(w)
        g = w - h
        top, bottom = m[:h], m[h:]
        a, b = [r // s for r in top], [r % s for r in top]
        c, d = [r // s for r in bottom], [r % s for r in bottom]
        ds = block_star(d, g)
        bds = multiplier(g, g)(b, ds)
        f = block_star(adder(h)(a, multiplier(g, h)(bds, c)), h)
        tr = multiplier(h, g)(f, bds)
        dscf = multiplier(h, h)(multiplier(g, h)(ds, c), f)
        br = adder(g)(ds, multiplier(h, g)(dscf, bds))
        return _join(f, tr, s) + _join(dscf, br, s)

    cells = digits(n)

    def el_name(m: RowCode) -> str:
        return "[" + ";".join(",".join(map(kalg.el_name, cells(r))) for r in m) + "]"

    def unit_row(i: int, a: int) -> int:
        """The number of the row with cell a at i and zero elsewhere."""
        return _numeral([a if j == i else zero for j in range(n)], k)

    # test_rows[i]: the numbers of row i of the tests
    test_rows = [frozenset(unit_row(i, t) for t in t_tests) for i in range(n)]

    def is_test(m: RowCode) -> bool:
        return all(map(operator.contains, test_rows, m))

    def arrow(s: RowCode, e: RowCode) -> RowCode:
        """The residual of two tests, diagonal cell by diagonal cell."""
        return tuple([unit_row(i, t_arrow(cells(x)[i], cells(y)[i]))
                      for i, (x, y) in enumerate(zip(s, e))])

    n_rows = k**n
    zero_code = (_numeral((zero,) * n, k),) * n
    one_code = tuple(unit_row(i, kalg.one) for i in range(n))
    if finite:
        codes = list(itertools.product(range(n_rows), repeat=n))

        def index(code: RowCode) -> int:
            return _numeral(code, n_rows)

        # The residual is only meaningful between tests; remaining cells hold
        # the zero index and are never reachable through the checked API.
        tests = tuple(i for i, c in enumerate(codes) if is_test(c))
        zeros = (index(zero_code),) * len(codes)
        arrow_table = [zeros] * len(codes)
        for i in tests:
            row = list(zeros)
            for j in tests:
                row[j] = index(arrow(codes[i], codes[j]))
            arrow_table[i] = tuple(row)
        # by_row[r][b]: row number r times matrix b, so the product of the
        # matrix with rows r_0 … r_{n-1} and b is Σ_i by_row[r_i][b]·R^(n-1-i),
        # built here row prefix by row prefix.  Column b is the product of
        # the R×n matrix of every row number and b.
        mul = multiplier(n, n)
        by_row = list(zip(*[mul(range(n_rows), b) for b in codes]))
        seq_table = by_row
        for _ in range(n - 1):
            seq_table = [[x * n_rows + y for x, y in zip(p, v)] for p in seq_table for v in by_row]
        return FiniteAlgebra(
            name=name,
            element_names=tuple(map(el_name, codes)),
            test_indices=tests,
            zero=index(zero_code),
            one=index(one_code),
            plus_table=_digitwise_table(tables(n)[0], n),
            seq_table=tuple(map(tuple, seq_table)),
            arrow_table=tuple(arrow_table),
            star_table=tuple(index(block_star(c)) for c in codes),
        )

    def draw(rng: random.Random) -> RowCode:
        gb = rng.getrandbits
        if rng.random() < 0.25:  # keep tests in the pool
            return tuple([unit_row(i, t_tests[randbelow(gb, len(t_tests))]) for i in range(n)])
        return tuple([_numeral([randbelow(gb, k) for _ in range(n)], k) for _ in range(n)])

    return ProceduralAlgebra(
        name=name,
        zero=zero_code,
        one=one_code,
        plus=adder(n),
        seq=multiplier(n, n),
        star=block_star,
        arrow_fn=arrow,
        is_test=is_test,
        samples=(zero_code, one_code),
        draw=draw,
        el_name=el_name,
        member_pred=lambda m: isinstance(m, tuple)
        and len(m) == n
        and all(type(r) is int and 0 <= r < n_rows for r in m),
    )


def frel_algebra(
    kalg: Algebra,
    talg: Optional[Algebra] = None,
    points: int = 2,
    *,
    sampled: bool = False,
) -> Algebra:
    """Relations X×X → K with diagonal T-valued tests (T defaults to K)."""
    kalg = _require_finite(kalg, "frel")
    talg = kalg if talg is None else _require_finite(talg, "frel")
    if points < 1:
        raise ValueError("frel needs at least one point")
    name = f"frel:{kalg.name}:{talg.name}:{points}"
    return _matrix_algebra(name, kalg, talg, points, sampled)


def mat_algebra(base: Algebra, n: int, *, sampled: bool = False) -> Algebra:
    """n×n matrices over the base, star by block recursion."""
    base = _require_finite(base, "mat")
    if n < 1:
        raise ValueError("mat needs n >= 1")
    return _matrix_algebra(f"mat:{base.name}:{n}", base, base, n, sampled)
