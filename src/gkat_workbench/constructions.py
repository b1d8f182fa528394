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
  words of length ``maxlen``; always procedural.

Every matrix carrier is built on row codes: an n×n matrix is the tuple of
its n row numbers, a row's number being the numeral of its cells in base
|K|.  ``_row_tables`` gives, over the R = |K|ⁿ row numbers, the sum of two
rows and a row scaled on the left by one cell, so a sum of codes is a
lookup per row and row i of a product is Σ_z scale[A_iz][B_z], folded by
the same ``_dot`` that ``mat_mul`` folds over cells.  A finite carrier
numbers each code in base R, which is the row-major numbering of its
cells, and tabulates the code kernels; a sampled one computes on codes,
with row tables up to ``_ROW_TABLE_ROWS`` row numbers and by decoding to
the tuple kernels (``mat_add``, ``mat_mul``, which take a matrix as a
tuple of row tuples) above.  Star and element names always decode, to
``mat_star`` and the base's names.
"""

from __future__ import annotations

import itertools
import operator
import random
from functools import cache, partial
from typing import Callable, Optional

from .algebra import (
    Algebra,
    DivergenceError,
    DomainError,
    FiniteAlgebra,
    ProceduralAlgebra,
    SizeError,
    star_lfp,
)

DEFAULT_CAP = 4096

Matrix = tuple[tuple[int, ...], ...]


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
        return tuple(rng.choice(tests) for _ in range(points))

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


# --- matrix arithmetic ---------------------------------------------------


def _dot(plus: Table, seq: Table, acc: int, row, col) -> int:
    """acc + Σ row[z];col[z] by the tables ``plus`` and ``seq``, in ascending z.

    No associativity or commutativity of + is assumed, so every matrix
    product goes through this one fold: ``mat_mul`` folds cells from the
    base's zero with the base's tables, and a row-coded product folds row
    numbers from the zero row with ``_row_tables``, which is the same fold
    cell by cell.
    """
    for x, y in zip(row, col):
        acc = plus[acc][seq[x][y]]
    return acc


def mat_add(base: FiniteAlgebra, a: Matrix, b: Matrix) -> Matrix:
    plus = base.plus_table
    return tuple(tuple([plus[x][y] for x, y in zip(ra, rb)]) for ra, rb in zip(a, b))


def mat_mul(base: FiniteAlgebra, a: Matrix, b: Matrix) -> Matrix:
    plus, seq, zero = base.plus_table, base.seq_table, base.zero
    cols = tuple(zip(*b))
    return tuple(tuple([_dot(plus, seq, zero, row, col) for col in cols]) for row in a)


def _mat_name(base: FiniteAlgebra, m: Matrix) -> str:
    return "[" + ";".join(",".join(base.el_name(x) for x in row) for row in m) + "]"


def _block(m: Matrix, r0: int, r1: int, c0: int, c1: int) -> Matrix:
    return tuple(row[c0:c1] for row in m[r0:r1])


def _assemble(tl: Matrix, tr: Matrix, bl: Matrix, br: Matrix) -> Matrix:
    top = tuple(a + b for a, b in zip(tl, tr))
    bottom = tuple(a + b for a, b in zip(bl, br))
    return top + bottom


def mat_star(base: FiniteAlgebra, m: Matrix) -> Matrix:
    """Star by two-by-two block recursion.

    For M = [[A, B], [C, D]] with F = (A + B·D*·C)*:
    M* = [[F, F·B·D*], [D*·C·F, D* + D*·C·F·B·D*]].
    """
    n = len(m)
    if n == 0:
        return ()
    if n == 1:
        return ((base.star_table[m[0][0]],),)
    k = n // 2
    a = _block(m, 0, k, 0, k)
    b = _block(m, 0, k, k, n)
    c = _block(m, k, n, 0, k)
    d = _block(m, k, n, k, n)
    ds = mat_star(base, d)
    bds = mat_mul(base, b, ds)
    f = mat_star(base, mat_add(base, a, mat_mul(base, bds, c)))
    tr = mat_mul(base, f, bds)
    dscf = mat_mul(base, mat_mul(base, ds, c), f)
    br = mat_add(base, ds, mat_mul(base, dscf, bds))
    return _assemble(f, tr, dscf, br)


# --- graded languages -----------------------------------------------------

Language = tuple[tuple[str, int], ...]


def _lang_norm(base: FiniteAlgebra, items: dict, maxlen: int) -> Language:
    return tuple(
        sorted(
            ((w, v) for w, v in items.items() if v != base.zero and len(w) <= maxlen),
            key=lambda wv: (len(wv[0]), wv[0]),
        )
    )


def flang_union(base: FiniteAlgebra, l1: Language, l2: Language, maxlen: int) -> Language:
    plus = base.plus_table
    acc = dict(l1)
    for w, v in l2:
        acc[w] = plus[acc[w]][v] if w in acc else v
    return _lang_norm(base, acc, maxlen)


def flang_concat(base: FiniteAlgebra, l1: Language, l2: Language, maxlen: int) -> Language:
    """(l1·l2)(w) sums l1(u);l2(v) over every split w = uv, ε splits included."""
    plus, seq = base.plus_table, base.seq_table
    acc: dict = {}
    for u, a in l1:
        for v, b in l2:
            w = u + v
            if len(w) > maxlen:
                continue
            piece = seq[a][b]
            acc[w] = plus[acc[w]][piece] if w in acc else piece
    return _lang_norm(base, acc, maxlen)


def flang_star(base: FiniteAlgebra, lang: Language, maxlen: int) -> Language:
    """Least fixpoint of S = ε ∪ l·S, observed up to ``maxlen``."""
    letters = len({c for w, _ in lang for c in w})
    steps = sum(letters**k for k in range(maxlen + 1)) * base.size + 2
    eps: Language = ((("", base.one),) if base.one != base.zero else ())
    cur = eps
    for _ in range(steps):
        nxt = flang_union(base, eps, flang_concat(base, lang, cur, maxlen), maxlen)
        if nxt == cur:
            return cur
        cur = nxt
    raise DivergenceError(f"language star did not stabilise within {steps} steps")


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
    if maxlen < 1:
        raise ValueError("flang needs maxlen >= 1")
    t_tests, t_arrow = _resolve_test_sort(kalg, talg)
    t_test_set = frozenset(t_tests)
    name = f"flang:{kalg.name}:{talg.name}:{alphabet}:{maxlen}"
    zero: Language = ()
    one: Language = (("", kalg.one),)

    def is_test(lang: Language) -> bool:
        return all(w == "" and v in t_test_set for w, v in lang)

    def arrow(l1: Language, l2: Language) -> Language:
        a = dict(l1).get("", kalg.zero)
        b = dict(l2).get("", kalg.zero)
        r = t_arrow(a, b)
        return ((("", r),) if r != kalg.zero else ())

    def el_name(lang: Language) -> str:
        return "{" + ",".join(f"{w or 'eps'}:{kalg.el_name(v)}" for w, v in lang) + "}"

    nonzero = [e for e in kalg.elements() if e != kalg.zero]
    samples: list[Language] = [zero, one]
    samples += [((c, kalg.one),) for c in alphabet]
    samples += [(("", t),) for t in t_tests if t not in (kalg.zero, kalg.one)]
    rng = random.Random(0xF1A)
    while len(samples) < 2 + len(alphabet) + len(t_tests) + 12:
        samples.append(_draw_lang(rng, kalg, alphabet, maxlen, nonzero))

    def draw(r: random.Random) -> Language:
        return _draw_lang(r, kalg, alphabet, maxlen, nonzero)

    def member(lang) -> bool:
        if not isinstance(lang, tuple):
            return False
        seen = dict.fromkeys((w for w, _ in lang))
        ok = all(
            isinstance(w, str)
            and len(w) <= maxlen
            and all(c in alphabet for c in w)
            and type(v) is int
            and 0 <= v < kalg.size
            and v != kalg.zero
            for w, v in lang
        )
        return ok and len(seen) == len(lang) and lang == tuple(
            sorted(lang, key=lambda wv: (len(wv[0]), wv[0]))
        )

    return ProceduralAlgebra(
        name=name,
        zero=zero,
        one=one,
        plus=partial(flang_union, kalg, maxlen=maxlen),
        seq=partial(flang_concat, kalg, maxlen=maxlen),
        star=partial(flang_star, kalg, maxlen=maxlen),
        arrow_fn=arrow,
        is_test=is_test,
        samples=tuple(dict.fromkeys(samples)),
        draw=draw,
        el_name=el_name,
        member_pred=member,
    )


def _draw_lang(
    rng: random.Random, base: FiniteAlgebra, alphabet: str, maxlen: int, nonzero: list
) -> Language:
    items: dict = {}
    for _ in range(rng.randint(0, 4)):
        length = rng.randint(0, maxlen)
        word = "".join(rng.choice(alphabet) for _ in range(length))
        items[word] = rng.choice(nonzero)
    return _lang_norm(base, items, maxlen)


# --- matrices and relations -----------------------------------------------


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


# Sampled carriers build row tables only up to this many row numbers.  The
# tables hold R² + |K|·R numbers: 0.55 MB at R = 256, 8.1 MB at 729 and
# 15 MB at 1024 (tracemalloc; built in 2, 36 and 47 ms), and they grow to
# hundreds of MB by R = 4096.  Larger carriers decode each operand to
# ``mat_add``/``mat_mul`` instead, which made a 100-sample gkat suite at
# R = 729 and 1024 take 0.12-0.17 s against 0.04-0.08 s with tables.
_ROW_TABLE_ROWS = 256

RowCode = tuple[int, ...]


def _digits(r: int, radix: int, width: int) -> tuple[int, ...]:
    """The ``width`` digits of ``r`` in base ``radix``; inverse of ``_numeral``."""
    out = [0] * width
    for j in range(width - 1, -1, -1):
        r, out[j] = divmod(r, radix)
    return tuple(out)


def _matrix_algebra(
    name: str, kalg: FiniteAlgebra, talg: FiniteAlgebra, n: int, sampled: bool
) -> Algebra:
    """n×n matrices over ``kalg`` whose tests are diagonals of ``talg`` tests.

    The kernels take row codes; a finite carrier tabulates them, numbering
    each code in base R = |K|ⁿ.
    """
    t_tests, t_arrow = _resolve_test_sort(kalg, talg)
    finite = _fits_cap(name, kalg.size, n * n, sampled)
    k, zero = kalg.size, kalg.zero
    n_rows = k**n
    zero_row = _numeral((zero,) * n, k)

    def encode(m: Matrix) -> RowCode:
        return tuple([_numeral(row, k) for row in m])

    def decode(code: RowCode) -> Matrix:
        return tuple(map(cells, code))

    if finite or n_rows <= _ROW_TABLE_ROWS:
        row_plus, scale = _row_tables(kalg, n)
        cells = list(itertools.product(range(k), repeat=n)).__getitem__

        def plus(a: RowCode, b: RowCode) -> RowCode:
            return tuple([row_plus[x][y] for x, y in zip(a, b)])

        def times(r: int, b: RowCode) -> int:
            """Row number r times the matrix coded b, as a row number."""
            return _dot(row_plus, scale, zero_row, cells(r), b)

        def seq(a: RowCode, b: RowCode) -> RowCode:
            return tuple([times(r, b) for r in a])

    else:
        # cells(r): the digits of row number r, at most R of them kept
        cells = cache(partial(_digits, radix=k, width=n))

        def plus(a: RowCode, b: RowCode) -> RowCode:
            return encode(mat_add(kalg, decode(a), decode(b)))

        def seq(a: RowCode, b: RowCode) -> RowCode:
            return encode(mat_mul(kalg, decode(a), decode(b)))

    def star(m: RowCode) -> RowCode:
        return encode(mat_star(kalg, decode(m)))

    def el_name(m: RowCode) -> str:
        return _mat_name(kalg, decode(m))

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

    zero_code = (zero_row,) * n
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
        # built here row prefix by row prefix
        by_row = [[times(r, b) for b in codes] for r in range(n_rows)]
        seq_table = by_row
        for _ in range(n - 1):
            seq_table = [[x * n_rows + y for x, y in zip(p, v)] for p in seq_table for v in by_row]
        return FiniteAlgebra(
            name=name,
            element_names=tuple(map(el_name, codes)),
            test_indices=tests,
            zero=index(zero_code),
            one=index(one_code),
            plus_table=_digitwise_table(row_plus, n),
            seq_table=tuple(map(tuple, seq_table)),
            arrow_table=tuple(arrow_table),
            star_table=tuple(index(star(c)) for c in codes),
        )

    def draw(rng: random.Random) -> RowCode:
        if rng.random() < 0.25:  # keep tests in the pool
            return tuple(unit_row(i, rng.choice(t_tests)) for i in range(n))
        return encode([[rng.randrange(k) for _ in range(n)] for _ in range(n)])

    return ProceduralAlgebra(
        name=name,
        zero=zero_code,
        one=one_code,
        plus=plus,
        seq=seq,
        star=star,
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
