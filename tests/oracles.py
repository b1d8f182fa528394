"""Independent reference implementations that the tests hold the package to.

Matrices here are tuples of row tuples of base indices, computed cell by
cell from the base's tables; nothing is shared with the row-coded kernels
of ``gkat_workbench.constructions``.  The product and tropical carriers
here compute on ``fractions.Fraction``, the plain rational arithmetic that
the integer codings of ``gkat_workbench.instances`` must reproduce: the
same draws, the same pools and the same names.  Graded languages here keep
their pairs in shortlex order, which ``flang`` values must name alike
although they are stored in string order.  The draws here call
``random.Random``'s ``randint``, ``randrange`` and ``choice``, whose
streams the carriers' bit-level draws must consume alike.
``every_verdict`` lists what a carrier and its reference must agree on.
"""

from __future__ import annotations

import random
from dataclasses import replace
from fractions import Fraction
from functools import partial

from gkat_workbench.algebra import (
    Algebra,
    DivergenceError,
    Element,
    FiniteAlgebra,
    ProceduralAlgebra,
)
from gkat_workbench.hoare import (
    ALL_RULES,
    PreconditionError,
    check_rule,
    commutation_conditions,
    denesting_equivalence,
)
from gkat_workbench.laws import SUITES, check_law

Matrix = tuple[tuple[int, ...], ...]


def derived_leq(alg: Algebra, a: Element, b: Element) -> bool:
    """The natural order: a <= b iff a + b = b."""
    alg.check_member(a)
    alg.check_member(b)
    return alg.plus(a, b) == b


def mat_zero(base: FiniteAlgebra, n: int) -> Matrix:
    return tuple((base.zero,) * n for _ in range(n))


def mat_identity(base: FiniteAlgebra, n: int) -> Matrix:
    return tuple(
        tuple(base.one if i == j else base.zero for j in range(n)) for i in range(n)
    )


def mat_add(base: FiniteAlgebra, a: Matrix, b: Matrix) -> Matrix:
    plus = base.plus_table
    return tuple(tuple(plus[x][y] for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def mat_mul(base: FiniteAlgebra, a: Matrix, b: Matrix) -> Matrix:
    """Cell (i, j) is ((0 + a[i][0];b[0][j]) + a[i][1];b[1][j]) + …, left to right."""
    plus, seq = base.plus_table, base.seq_table

    def dot(row, col) -> int:
        acc = base.zero
        for x, y in zip(row, col):
            acc = plus[acc][seq[x][y]]
        return acc

    cols = tuple(zip(*b))
    return tuple(tuple(dot(row, col) for col in cols) for row in a)


def mat_star(base: FiniteAlgebra, m: Matrix) -> Matrix:
    """Star by two-by-two block recursion (Kozen).

    For M = [[A, B], [C, D]] with F = (A + B·D*·C)*:
    M* = [[F, F·B·D*], [D*·C·F, D* + D*·C·F·B·D*]], A being ⌊n/2⌋ square.
    """
    n = len(m)
    if n == 1:
        return ((base.star_table[m[0][0]],),)
    k = n // 2
    a = tuple(row[:k] for row in m[:k])
    b = tuple(row[k:] for row in m[:k])
    c = tuple(row[:k] for row in m[k:])
    d = tuple(row[k:] for row in m[k:])
    ds = mat_star(base, d)
    bds = mat_mul(base, b, ds)
    f = mat_star(base, mat_add(base, a, mat_mul(base, bds, c)))
    tr = mat_mul(base, f, bds)
    dscf = mat_mul(base, mat_mul(base, ds, c), f)
    br = mat_add(base, ds, mat_mul(base, dscf, bds))
    return tuple(x + y for x, y in zip(f, tr)) + tuple(x + y for x, y in zip(dscf, br))


def mat_star_iter(base: FiniteAlgebra, m: Matrix) -> Matrix:
    """Matrix star as the stabilised partial-sum iteration S = I + M·S.

    Independent of the block recursion of ``mat_star``.
    """
    n = len(m)
    steps = n * n * base.size + 2
    ident = mat_identity(base, n)
    cur = ident
    for _ in range(steps):
        nxt = mat_add(base, ident, mat_mul(base, m, cur))
        if nxt == cur:
            return cur
        cur = nxt
    raise DivergenceError(f"matrix star did not stabilise within {steps} steps over {base.name}")


def mat_is_test(base: FiniteAlgebra, t_tests, m: Matrix) -> bool:
    """Whether ``m`` is diagonal with cells of ``t_tests`` on it and zero off it."""
    return all(
        (x in t_tests) if i == j else (x == base.zero)
        for i, row in enumerate(m)
        for j, x in enumerate(row)
    )


def mat_element(alg: Algebra, base_size: int, m: Matrix) -> Element:
    """The element of the matrix carrier ``alg`` that stands for ``m``.

    On a sampled carrier, the tuple of its row numbers, each the numeral of
    the row's cells in base |K|; on a finite one, the row-major numeral of
    its cells.
    """
    n = len(m)
    code = tuple(sum(x * base_size ** (n - 1 - j) for j, x in enumerate(row)) for row in m)
    if not alg.finite:
        return code
    return sum(r * base_size ** (n * (n - 1 - i)) for i, r in enumerate(code))


# -- the procedural carriers on Fraction ----------------------------------

INF = float("inf")


def fraction_product() -> ProceduralAlgebra:
    """[0, 1] under max and multiplication, with the Goguen residual."""
    one, zero = Fraction(1), Fraction(0)

    def draw(rng: random.Random) -> Fraction:
        d = rng.randint(1, 30)
        return Fraction(rng.randint(0, d), d)

    return ProceduralAlgebra(
        name="product",
        zero=zero,
        one=one,
        plus=max,
        seq=lambda x, y: x * y,
        star=lambda x: one,
        arrow_fn=lambda x, y: one if x <= y else y / x,
        is_test=lambda v: True,
        samples=tuple(Fraction(n, d) for n, d in (
            (0, 1), (1, 1), (1, 2), (1, 3), (2, 3), (1, 4), (3, 4), (2, 5), (5, 7), (9, 10))),
        draw=draw,
        el_name=str,
        member_pred=lambda v: isinstance(v, Fraction) and zero <= v <= one,
    )


def fraction_tropical() -> ProceduralAlgebra:
    """Nonnegative rational costs and infinity under min and plus."""
    one = Fraction(0)

    def seq(x, y):
        return INF if x == INF or y == INF else x + y

    def arrow(x, y):
        if x == INF:
            return one
        if y == INF:
            return INF
        return max(y - x, one)

    def draw(rng: random.Random):
        if rng.random() < 0.125:
            return INF
        d = rng.randint(1, 12)
        return Fraction(rng.randint(0, 100 * d), d)

    return ProceduralAlgebra(
        name="tropical",
        zero=INF,
        one=one,
        plus=min,
        seq=seq,
        star=lambda x: one,
        arrow_fn=arrow,
        is_test=lambda v: True,
        samples=(INF, *map(Fraction, (0, 1, "1/2", 2, 5, "7/3"))),
        draw=draw,
        el_name=lambda v: "inf" if v == INF else str(v),
        member_pred=lambda v: v == INF or (isinstance(v, Fraction) and v >= 0),
    )


# -- graded languages in shortlex order -----------------------------------

Language = tuple[tuple[str, int], ...]


def shortlex_norm(base: FiniteAlgebra, items: dict, maxlen: int) -> Language:
    """The nonzero pairs of ``items`` within ``maxlen``, shorter words first."""
    return tuple(
        sorted(
            ((w, v) for w, v in items.items() if v != base.zero and len(w) <= maxlen),
            key=lambda wv: (len(wv[0]), wv[0]),
        )
    )


def shortlex_union(base: FiniteAlgebra, l1: Language, l2: Language, maxlen: int) -> Language:
    plus = base.plus_table
    acc = dict(l1)
    for w, v in l2:
        acc[w] = plus[acc[w]][v] if w in acc else v
    return shortlex_norm(base, acc, maxlen)


def shortlex_concat(base: FiniteAlgebra, l1: Language, l2: Language, maxlen: int) -> Language:
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
    return shortlex_norm(base, acc, maxlen)


def shortlex_star(base: FiniteAlgebra, lang: Language, maxlen: int) -> Language:
    """Least fixpoint of S = ε ∪ l·S, observed up to ``maxlen``."""
    letters = len({c for w, _ in lang for c in w})
    steps = sum(letters**k for k in range(maxlen + 1)) * base.size + 2
    eps: Language = ((("", base.one),) if base.one != base.zero else ())
    cur = eps
    for _ in range(steps):
        nxt = shortlex_union(base, eps, shortlex_concat(base, lang, cur, maxlen), maxlen)
        if nxt == cur:
            return cur
        cur = nxt
    raise DivergenceError(f"language star did not stabilise within {steps} steps")


def shortlex_flang(alg: ProceduralAlgebra, base: FiniteAlgebra, maxlen: int) -> ProceduralAlgebra:
    """The ``flang`` carrier ``alg`` over ``base`` on shortlex languages.

    Its samples and draws are those of ``alg`` put in shortlex order, its
    operations the ones above, and its names list the pairs as stored; its
    members are ``alg``'s in shortlex order.  Test membership and the
    residual read only the empty word, so they are ``alg``'s own.
    """

    def norm(lang: Language) -> Language:
        return shortlex_norm(base, dict(lang), maxlen)

    def el_name(lang: Language) -> str:
        return "{" + ",".join(f"{w or 'eps'}:{base.el_name(v)}" for w, v in lang) + "}"

    def member(lang) -> bool:
        try:
            return alg.member_pred(tuple(sorted(lang))) and lang == norm(lang)
        except TypeError:  # not a collection of mutually comparable items
            return False

    return replace(
        alg,
        plus=partial(shortlex_union, base, maxlen=maxlen),
        seq=partial(shortlex_concat, base, maxlen=maxlen),
        star=partial(shortlex_star, base, maxlen=maxlen),
        samples=tuple(map(norm, alg.samples)),
        draw=lambda rng: norm(alg.draw(rng)),
        el_name=el_name,
        member_pred=member,
    )


# -- draws by random.Random's methods -------------------------------------
#
# The carriers draw pool positions straight from the generator's bits; these
# are the draws they replaced, by ``randint``, ``randrange`` and ``choice``,
# which must give the same values and leave the generator in the same state.
# (``fraction_product`` and ``fraction_tropical`` above draw so too.)


def choice_fset_draw(base: FiniteAlgebra, points: int):
    tests = base.tests()
    return lambda rng: tuple(rng.choice(tests) for _ in range(points))


def choice_matrix_draw(alg: Algebra, base: FiniteAlgebra, t_tests, n: int):
    """Draws of ``alg``, the n×n matrices over ``base`` with tests on ``t_tests``."""

    def draw(rng: random.Random) -> Element:
        if rng.random() < 0.25:
            diagonal = [rng.choice(t_tests) for _ in range(n)]
            m = tuple(tuple(diagonal[i] if i == j else base.zero for j in range(n))
                      for i in range(n))
        else:
            m = tuple(tuple(rng.randrange(base.size) for _ in range(n)) for _ in range(n))
        return mat_element(alg, base.size, m)

    return draw


def choice_flang_draw(base: FiniteAlgebra, alphabet: str, maxlen: int):
    """Draws of languages over ``base``, in string order of the words."""
    nonzero = [e for e in base.elements() if e != base.zero]

    def draw(rng: random.Random) -> Language:
        items: dict = {}
        for _ in range(rng.randint(0, 4)):
            length = rng.randint(0, maxlen)
            word = "".join(rng.choice(alphabet) for _ in range(length))
            items[word] = rng.choice(nonzero)
        return tuple(sorted(items.items()))

    return draw


def every_verdict(alg: Algebra, strategy) -> list:
    """The fingerprint, and every law, rule, lemma and denesting verdict on ``alg``."""
    out: list = [alg.fingerprint()]
    out += [check_law(alg, law, strategy).to_dict()
            for suite in SUITES.values() for law in suite]
    out += [check_rule(alg, rule, strategy).to_dict() for rule in ALL_RULES]
    out += [v.to_dict() for _, _, v in commutation_conditions(alg, strategy).entries]
    try:
        report = denesting_equivalence(alg, strategy)
    except PreconditionError as exc:
        out.append(str(exc))
    else:
        out += [v.to_dict() for rep in report.side_reports for _, v in rep.entries]
        out += [v.to_dict() for _, _, v in report.entries]
    return out
