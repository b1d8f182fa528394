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
"""

from __future__ import annotations

import operator
import random
from fractions import Fraction
from functools import partial
from pathlib import Path
from typing import Callable

from .algebra import Algebra, FiniteAlgebra, ProceduralAlgebra
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

_PRODUCT_POOL = (
    Fraction(0),
    Fraction(1),
    Fraction(1, 2),
    Fraction(1, 3),
    Fraction(2, 3),
    Fraction(1, 4),
    Fraction(3, 4),
    Fraction(2, 5),
    Fraction(5, 7),
    Fraction(9, 10),
)

_TROPICAL_POOL = (
    INF,
    Fraction(0),
    Fraction(1),
    Fraction(1, 2),
    Fraction(2),
    Fraction(5),
    Fraction(7, 3),
)


def _product_algebra() -> ProceduralAlgebra:
    one = Fraction(1)
    zero = Fraction(0)

    def arrow(x: Fraction, y: Fraction) -> Fraction:
        return one if x <= y else y / x

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
        arrow_fn=arrow,
        is_test=lambda v: True,
        samples=_PRODUCT_POOL,
        draw=draw,
        el_name=str,
        member_pred=lambda v: isinstance(v, Fraction) and zero <= v <= one,
    )


def _tropical_algebra() -> ProceduralAlgebra:
    one = Fraction(0)

    def seq(x, y):
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
        return max(y - x, one)

    def draw(rng: random.Random):
        # Infinity one time in eight, otherwise a finite cost up to 100.
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
        samples=_TROPICAL_POOL,
        draw=draw,
        el_name=lambda v: "inf" if v == INF else str(v),
        member_pred=lambda v: v == INF or (isinstance(v, Fraction) and v >= 0),
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
