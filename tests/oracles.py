"""Independent reference implementations that the tests hold the package to."""

from __future__ import annotations

from gkat_workbench.algebra import Algebra, DivergenceError, Element, FiniteAlgebra
from gkat_workbench.constructions import Matrix, mat_add, mat_identity, mat_mul


def derived_leq(alg: Algebra, a: Element, b: Element) -> bool:
    """The natural order: a <= b iff a + b = b."""
    alg.check_member(a)
    alg.check_member(b)
    return alg.plus(a, b) == b


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
