"""Built-in algebra instances, one builder per spec form.

``make_builtin`` reads a spec string such as ``bool2``, ``powerset:xy``,
``luka:5``, ``wajsberg:4`` or ``tropical`` and calls the builder its form
names in ``_BUILDERS``.  Three kinds of builder sit behind the forms:

* the five hand-made finite tables (``bool2``, ``chain3``, ``ex9``,
  ``lemma4``, ``lemma6``) are read from their shipped ``data/*.alg`` file
  on each call, so that file is their only copy;
* the generated finite families (powersets, the Łukasiewicz and Gödel
  subchains {0, 1/n, …, 1}, the Wajsberg chains) are computed from their
  parameter; their shipped files are golden comparisons, not sources;
* the product ([0,1] under max/multiplication) and tropical (min/plus over
  nonnegative rationals with infinity) algebras have carriers that are not
  finitely closed under the residual, so they are procedural: operations
  as functions, checked by sampling from a fixed pool plus seeded draws.

The two procedural carriers compute on machine integers, and exactly:

* a ``product`` value is a reduced pair ``(n, d)`` of ints standing for
  n/d, with 0 <= n <= d.  ``plus`` compares by cross-multiplying and
  keeps its first operand on a tie, as ``max`` does; ``seq`` and ``arrow``
  reduce by ``math.gcd``.  A reduced pair is the only pair for its
  rational, so tuple equality is equality of rationals;
* a finite ``tropical`` cost is an int standing for itself divided by
  ``_D`` = 27,720 = lcm(1, …, 12), and infinity is ``INF``, a float.
  Every pooled and drawn cost has a denominator of at most 12, so it is a
  whole multiple of 1/_D, and min, + and the truncated difference y - x
  keep it one; an int is its only coding.

Either way a value compares, hashes and deduplicates as the rational it
stands for would, and ``el_name`` renders the text ``str(Fraction)``
gives for that rational, at any length.  Both draw with
``algebra.randbelow``, which consumes the generator's stream as
``randint`` does.
"""

from __future__ import annotations

import operator
import random
from decimal import Decimal
from fractions import Fraction
from functools import partial
from math import gcd
from pathlib import Path
from typing import Callable

from .algebra import Algebra, FiniteAlgebra, ProceduralAlgebra, randbelow
from .algfile import load_algebra

INF = float("inf")

_DATA = Path(__file__).parent / "data"


def _chain(
    name: str,
    names: list[str],
    plus: Callable[[int, int], int],
    seq: Callable[[int, int], int],
    arrow: Callable[[int, int], int],
    star_to: int,
    zero: int,
    one: int,
) -> FiniteAlgebra:
    """Build a totally-test finite algebra from index-level operation maps."""
    n = len(names)
    rng = range(n)
    return FiniteAlgebra(
        name=name,
        element_names=tuple(names),
        test_indices=tuple(rng),
        zero=zero,
        one=one,
        plus_table=tuple(tuple([plus(i, j) for j in rng]) for i in rng),
        seq_table=tuple(tuple([seq(i, j) for j in rng]) for i in rng),
        arrow_table=tuple(tuple([arrow(i, j) for j in rng]) for i in rng),
        star_table=tuple(star_to for _ in rng),
    )


# --- finite tables --------------------------------------------------------


def _shipped(name: str) -> FiniteAlgebra:
    """Read a hand-made table from its file under ``data/``."""
    return load_algebra(_DATA / f"{name}.alg")


def _powerset(ground: str) -> FiniteAlgebra:
    if not ground:
        raise ValueError("powerset ground set must be nonempty")
    if len(set(ground)) != len(ground):
        raise ValueError(f"powerset ground set has repeated characters: {ground!r}")
    if len(ground) > 8:
        raise ValueError("powerset ground set capped at 8 characters")
    full = (1 << len(ground)) - 1

    def name(mask: int) -> str:
        return "{" + ",".join(c for j, c in enumerate(ground) if mask >> j & 1) + "}"

    return _chain(
        f"powerset:{ground}",
        [name(m) for m in range(full + 1)],
        plus=operator.or_,
        seq=operator.and_,
        arrow=lambda i, j: (full & ~i) | j,
        star_to=full,
        zero=0,
        one=full,
    )


def _fraction_chain(kind: str, n: int, seq, arrow) -> FiniteAlgebra:
    """The subchain {0, 1/n, …, 1} under max, with ``seq`` and ``arrow`` on numerators."""
    if not 1 <= n <= 255:
        raise ValueError(f"{kind} chain needs 1 <= n <= 255")
    names = [str(Fraction(i, n)) for i in range(n + 1)]
    return _chain(
        f"{kind}:{n}", names, plus=max, seq=seq, arrow=arrow, star_to=n, zero=0, one=n
    )


def _luka(n: int) -> FiniteAlgebra:
    return _fraction_chain(
        "luka", n, seq=lambda i, j: max(0, i + j - n), arrow=lambda i, j: min(n, n - i + j)
    )


def _godel(n: int) -> FiniteAlgebra:
    return _fraction_chain("godel", n, seq=min, arrow=lambda i, j: n if i <= j else j)


def _wajsberg(k: int) -> FiniteAlgebra:
    if not 2 <= k <= 64:
        raise ValueError("wajsberg chain needs 2 <= k <= 64")
    names = [f"a^{i}" for i in range(k)]
    return _chain(
        f"wajsberg:{k}",
        names,
        plus=min,  # a^i + a^j = a^min(i,j): larger exponents sit lower
        seq=lambda i, j: min(i + j, k - 1),
        arrow=lambda i, j: max(j - i, 0),
        star_to=0,
        zero=k - 1,
        one=0,
    )


# --- procedural instances -------------------------------------------------

_D = 27_720


def _reduced(n: int, d: int) -> tuple[int, int]:
    g = gcd(n, d)
    return n // g, d // g


def _ratio_name(n: int, d: int) -> str:
    """The text of ``str(Fraction(n, d))``, exact at any length.

    ``str(int)`` refuses more than 4,300 digits by default; an int made a
    ``Decimal`` converts exactly and has no such limit.
    """
    n, d = _reduced(n, d)
    return str(Decimal(n)) if d == 1 else f"{Decimal(n)}/{Decimal(d)}"


_PRODUCT_POOL = ((0, 1), (1, 1), (1, 2), (1, 3), (2, 3), (1, 4), (3, 4), (2, 5), (5, 7), (9, 10))

_TROPICAL_POOL = (INF, 0, _D, _D // 2, 2 * _D, 5 * _D, 7 * (_D // 3))


def _product_algebra() -> ProceduralAlgebra:
    zero, one = (0, 1), (1, 1)

    def plus(x, y):
        # max; the first operand on a tie, as max returns it
        return y if x[0] * y[1] < y[0] * x[1] else x

    def seq(x, y):
        return _reduced(x[0] * y[0], x[1] * y[1])

    def arrow(x, y):
        n, d = y[0] * x[1], y[1] * x[0]
        return one if x[0] * y[1] <= n else _reduced(n, d)

    def draw(rng: random.Random):
        gb = rng.getrandbits
        d = 1 + randbelow(gb, 30)  # randint(1, 30)
        return _reduced(randbelow(gb, d + 1), d)

    def member(v) -> bool:
        return (
            type(v) is tuple and len(v) == 2 and all(type(x) is int for x in v)  # not bool
            and 0 <= v[0] <= v[1] and gcd(*v) == 1
        )

    return ProceduralAlgebra(
        name="product",
        zero=zero,
        one=one,
        plus=plus,
        seq=seq,
        star=lambda x: one,
        arrow_fn=arrow,
        is_test=lambda v: True,
        samples=_PRODUCT_POOL,
        draw=draw,
        el_name=lambda v: _ratio_name(*v),
        member_pred=member,
    )


def _tropical_algebra() -> ProceduralAlgebra:
    one = 0

    def seq(x, y):
        # explicit: an int past a float's range plus inf raises OverflowError
        if x == INF or y == INF:
            return INF
        return x + y

    def arrow(x, y):
        # Largest z (in the min-order, i.e. numerically smallest cost) with
        # x + z below y; infinite x residuates to the unit.
        if x == INF:
            return one
        if y == INF:
            return INF
        return y - x if y > x else one

    def draw(rng: random.Random):
        # Infinity one time in eight, otherwise a finite cost up to 100.
        if rng.random() < 0.125:
            return INF
        gb = rng.getrandbits
        d = 1 + randbelow(gb, 12)  # randint(1, 12)
        return randbelow(gb, 100 * d + 1) * (_D // d)

    return ProceduralAlgebra(
        name="tropical",
        zero=INF,
        one=one,
        plus=min,
        seq=seq,
        star=lambda x: one,
        arrow_fn=arrow,
        is_test=lambda v: True,
        samples=_TROPICAL_POOL,
        draw=draw,
        el_name=lambda v: "inf" if v == INF else _ratio_name(v, _D),
        member_pred=lambda v: (type(v) is float and v == INF) or (type(v) is int and v >= 0),
    )


# --- the registry ---------------------------------------------------------

#: Every spec form and the builder it resolves to.  The placeholder after
#: a form's colon says what the builder takes: ``<chars>`` the text itself
#: (``xy`` when the colon is missing), ``<n>`` and ``<k>`` an integer.  A
#: form without a colon takes no argument.
_BUILDERS: dict[str, Callable[..., Algebra]] = {
    "bool2": partial(_shipped, "bool2"),
    "chain3": partial(_shipped, "chain3"),
    "powerset:<chars>": _powerset,
    "luka:<n>": _luka,
    "godel:<n>": _godel,
    "wajsberg:<k>": _wajsberg,
    "product": _product_algebra,
    "tropical": _tropical_algebra,
    "ex9": partial(_shipped, "ex9"),
    "lemma4": partial(_shipped, "lemma4"),
    "lemma6": partial(_shipped, "lemma6"),
}

BUILTIN_FORMS = tuple(_BUILDERS)

#: The finite builtins exercised by the default acceptance runs.
STANDARD_FINITE = (
    "bool2",
    "chain3",
    "powerset:xy",
    "luka:5",
    "godel:5",
    "wajsberg:4",
    "ex9",
    "lemma4",
    "lemma6",
)


_BY_HEAD = {form.partition(":")[0]: form for form in BUILTIN_FORMS}


def make_builtin(text: str) -> Algebra:
    """Resolve a builtin spec string such as "luka:5" to a ready algebra."""
    head, sep, arg = text.strip().partition(":")
    form = _BY_HEAD.get(head)
    if form is not None:
        build = _BUILDERS[form]
        placeholder = form.partition(":")[2]
        if not placeholder and not arg:  # "ex9:" reads as "ex9"
            return build()
        if placeholder == "<chars>":
            return build(arg if sep else "xy")
        if placeholder and arg:
            try:
                n = int(arg)
            except ValueError:
                raise ValueError(f"bad numeric parameter in builtin spec {text!r}") from None
            return build(n)
    raise ValueError(
        f"unknown builtin spec {text!r}; expected one of: " + ", ".join(BUILTIN_FORMS)
    )
