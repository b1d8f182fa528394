"""Independent reference implementations that the tests hold the package to."""

from __future__ import annotations

from gkat_workbench.algebra import Algebra, DivergenceError, Element, FiniteAlgebra
from gkat_workbench.constructions import Matrix, mat_add, mat_mul


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
