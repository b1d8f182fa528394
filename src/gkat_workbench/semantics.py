"""Evaluation of terms in an algebra and (quasi-)equation checking.

Checking enumerates valuations of the free variables -- tests range over
the test carrier, programs over the whole carrier -- and reports the first
failing valuation in lexicographic order (variable order, then element
index).  Three strategies exist:

* ``Exhaustive`` -- every valuation, finite algebras only, guarded by an
  evaluation cap.
* ``Sampled(samples, seed)`` -- a fixed number of seeded draws.  The
  candidate pool always contains 0, 1 and every declared sample element;
  procedural algebras may extend it with generated elements.
* ``Auto(cap, samples, seed)`` -- per check: exhaustive when the valuation
  space fits under ``cap``, sampled otherwise.

Each check is compiled into one Python function (see ``_Compiler``):

* An exhaustive check becomes nested loops, one per variable the check
  uses, in variable order.  Each structurally distinct subterm is computed
  at the outermost loop that binds all of its free variables, by indexing
  the algebra's operation tables; a table row is taken as soon as its left
  operand is known.  A hypothesis is tested at the first loop where it is
  decided, and skips the inner loops when it fails.  The rank of a failure
  follows from the loop indices.
* A sampled check runs the same body in one loop over valuation tuples
  drawn up front from the seed.  On procedural carriers the body calls
  ``alg.plus`` / ``seq`` / ``star`` / ``arrow`` instead of indexing tables;
  ``star`` is passed through a ``functools.cache`` made fresh for each
  run, so the check stars each distinct value once (a star that raises is
  not stored, and raises again at the same valuation).

The function is generated and compiled once per process for each check
(``_compile``, an LRU cache of 512 checks).  The key is the check: whether
the carrier is finite, whether it is sampled, the hypotheses, the
conclusion and the variables.  ``_compile`` makes the loop plan from the
key alone, and the function reads every domain, table and operation through
its parameters, so the key holds no algebra, element or seed.

Evaluation order: only pure table lookups are hoisted.  Whatever can
raise -- every procedural operation, and the guarded arrow on an operand
that is not test-sorted -- runs in the innermost loop, left to right: a
hypothesis's terms are computed just before that hypothesis is tested, and
the conclusion's terms only once every hypothesis holds.  A check therefore
raises exactly where evaluating each valuation in turn would.

``eval_term`` and the values reported with a counterexample use a plain
recursive evaluator, which is also the reference the tests hold the
compiled checks to.

Carrier mode is a view: a test-sorted variable ranges over a finite
algebra's whole carrier in the all-tests view ``replace(alg,
test_indices=tuple(alg.elements()))``, where the arrow reads every stored
cell (see ``hoare.commutation_conditions``).
"""

from __future__ import annotations

import functools
import random
from dataclasses import dataclass
from itertools import product as iproduct
from typing import Mapping, Optional, Sequence, Union

from .algebra import Algebra, AlgebraError, Element, SizeError, SortError
from .terms import Arrow, One, Plus, Seq, Sort, Star, Term, Var, Zero, free_vars, pretty

REL_SYMBOL = {"eq": "=", "leq": "<="}


@dataclass(frozen=True)
class Equation:
    """A term pair related by ``=`` or ``<=`` (rel: "eq" | "leq")."""

    lhs: Term
    rhs: Term
    rel: str = "eq"

    def __post_init__(self) -> None:
        if self.rel not in REL_SYMBOL:
            raise ValueError(f"unknown relation {self.rel!r}")

    def render(self) -> str:
        return f"{pretty(self.lhs)} {REL_SYMBOL[self.rel]} {pretty(self.rhs)}"


def _require_samples(samples: int) -> None:
    if samples < 1:
        raise ValueError(f"sample count must be at least 1, got {samples}")


@dataclass(frozen=True)
class Exhaustive:
    cap: int = 10**8


@dataclass(frozen=True)
class Sampled:
    samples: int = 100_000
    seed: int = 0

    def __post_init__(self) -> None:
        _require_samples(self.samples)


@dataclass(frozen=True)
class Auto:
    cap: int = 100_000
    samples: int = 100_000
    seed: int = 0

    def __post_init__(self) -> None:
        _require_samples(self.samples)


Strategy = Union[Exhaustive, Sampled, Auto]


def describe_strategy(strategy: Strategy) -> dict:
    match strategy:
        case Exhaustive(cap):
            return {"mode": "exhaustive", "cap": cap}
        case Sampled(samples, seed):
            return {"mode": "sample", "samples": samples, "seed": seed}
        case Auto(cap, samples, seed):
            return {"mode": "auto", "cap": cap, "samples": samples, "seed": seed}
    raise TypeError(f"not a strategy: {strategy!r}")


@dataclass(frozen=True)
class Verdict:
    """Outcome of one check.

    ``checked`` counts valuations examined up to and including the
    counterexample (its rank in enumeration or draw order, plus one); on a
    pass it equals the number of valuations visited.  ``space`` is the full
    valuation-space size when enumerable, else None.
    """

    status: str  # "valid" | "refuted" | "sampled-valid"
    mode: str  # "exhaustive" | "sampled"
    checked: int
    space: Optional[int]
    counterexample: Optional[dict[str, str]] = None
    lhs_value: Optional[str] = None
    rhs_value: Optional[str] = None

    @property
    def ok(self) -> bool:
        return self.status != "refuted"

    def to_dict(self) -> dict:
        out: dict = {
            "status": self.status,
            "mode": self.mode,
            "checked": self.checked,
            "space": self.space,
        }
        if self.counterexample is not None:
            out["counterexample"] = dict(self.counterexample)
            out["lhs_value"] = self.lhs_value
            out["rhs_value"] = self.rhs_value
        return out


def _evaluate(alg: Algebra, t: Term, val: Mapping[str, Element]) -> Element:
    """Plain structural recursion, left operand first."""

    def ev(u: Term) -> Element:
        match u:
            case Var(name, _):
                return val[name]
            case Zero():
                return alg.zero
            case One():
                return alg.one
            case Plus(l, r):
                return alg.plus(ev(l), ev(r))
            case Seq(l, r):
                return alg.seq(ev(l), ev(r))
            case Star(inner):
                return alg.star(ev(inner))
            case Arrow(l, r):
                return alg.arrow(ev(l), ev(r))
        raise TypeError(f"not a term: {u!r}")

    return ev(t)


def eval_term(alg: Algebra, t: Term, valuation: Mapping[str, Element]) -> Element:
    """Evaluate ``t`` under ``valuation`` (variable name -> element)."""
    for v in free_vars(t):
        if v.name not in valuation:
            raise AlgebraError(f"no binding for variable {v.name!r}")
        el = valuation[v.name]
        alg.check_member(el)
        if v.sort is Sort.TEST and not alg.is_test(el):
            raise SortError(
                f"variable {v.name!r} is test-sorted but {alg.el_name(el)!r}"
                f" is not a test of {alg.name!r}"
            )
    return _evaluate(alg, t, valuation)


# -- compilation -------------------------------------------------------------

# Most loops a compiled exhaustive check nests; further variables are bound
# together by one loop over their product (CPython allows 20 nested blocks).
_MAX_LOOPS = 10


class _Compiler:
    """Writes one check as the source of a function ``check``.

    A node is a structurally distinct subterm, or a table row hoisted out of
    a lookup.  Node ``i`` is named ``x<j>`` (the j-th variable), ``zero``,
    ``one`` or ``t<i>``, and is computed at loop ``level[i]`` (-1: before
    the first loop).  A pure node -- a table lookup -- sits at the deepest
    loop of its operands; any other node sits in the innermost loop.  The
    source holds only these generated names, the parameter names and
    integers, never a variable or element name.
    """

    def __init__(self, finite: bool, variables, var_level, inner: int):
        self.finite = finite
        self.var_pos = {v.name: (j, v.sort) for j, v in enumerate(variables)}
        self.var_level = var_level
        self.inner = inner
        self.ids: dict[tuple, int] = {}
        self.name: list[str] = []
        self.expr: list[Optional[str]] = []  # None for variables and constants
        self.kids: list[tuple[int, ...]] = []
        self.level: list[int] = []
        self.pure: list[bool] = []  # no node of the subterm can raise
        self.is_test: list[bool] = []  # value is a test whenever it is computed

    def _add(self, key, expr, kids, pure, is_test, name=None, level=None) -> int:
        i = self.ids.get(key)
        if i is None:
            i = self.ids[key] = len(self.name)
            pure = pure and all(self.pure[k] for k in kids)
            if level is None:
                level = max((self.level[k] for k in kids), default=-1) if pure else self.inner
            self.name.append(name or f"t{i}")
            self.expr.append(expr)
            self.kids.append(kids)
            self.level.append(level)
            self.pure.append(pure)
            self.is_test.append(is_test)
        return i

    def _lookup(self, table: str, a: int, b: int, is_test: bool) -> int:
        if self.level[a] < self.level[b]:
            row = self._add(("row", table, a), f"{table}[{self.name[a]}]", (a,), True, False)
            expr, kids = f"{self.name[row]}[{self.name[b]}]", (row, b)
        else:
            expr, kids = f"{table}[{self.name[a]}][{self.name[b]}]", (a, b)
        return self._add((table, a, b), expr, kids, True, is_test)

    def _call(self, fn: str, *kids: int) -> int:
        args = ", ".join(self.name[k] for k in kids)
        return self._add((fn, *kids), f"{fn}({args})", kids, False, False)

    def _binary(self, fn: str, table: str, a: int, b: int) -> int:
        if self.finite:
            return self._lookup(table, a, b, self.is_test[a] and self.is_test[b])
        return self._call(fn, a, b)

    def node(self, t: Term) -> int:
        match t:
            case Var(name, _):
                if name not in self.var_pos:
                    raise AlgebraError(f"no binding for variable {name!r}")
                j, sort = self.var_pos[name]
                return self._add(("var", j), None, (), True, sort is Sort.TEST, f"x{j}",
                                 self.var_level[j])
            case Zero():
                return self._add(("zero",), None, (), True, True, "zero")
            case One():
                return self._add(("one",), None, (), True, True, "one")
            case Plus(l, r):
                return self._binary("plus", "P", self.node(l), self.node(r))
            case Seq(l, r):
                return self._binary("seq", "S", self.node(l), self.node(r))
            case Star(inner):
                a = self.node(inner)
                if self.finite:
                    return self._add(("T", a), f"T[{self.name[a]}]", (a,), True, False)
                return self._call("star", a)
            case Arrow(l, r):
                a, b = self.node(l), self.node(r)
                tests = self.is_test[a] and self.is_test[b]
                # The guarded arrow cannot raise between operands that are tests.
                if self.finite and tests:
                    return self._lookup("A", a, b, tests)
                return self._call("arrow", a, b)
        raise TypeError(f"not a term: {t!r}")

    def equation(self, eqn: Equation) -> tuple[int, int]:
        """The two nodes the equation compares; ``a <= b`` compares a + b with b."""
        a, b = self.node(eqn.lhs), self.node(eqn.rhs)
        if eqn.rel == "leq":
            a = self._binary("plus", "P", a, b)
        return a, b

    def _emit(self, i: int, level: int, done: list[bool], lines: list[str], pad: str) -> None:
        """Append, in post-order, the statements of ``i``'s nodes placed at ``level``."""
        if done[i]:
            return
        for k in self.kids[i]:
            self._emit(k, level, done, lines, pad)
        if self.level[i] == level:
            lines.append(f"{pad}{self.name[i]} = {self.expr[i]}")
            done[i] = True

    def source(self, hypotheses, conclusion, headers: Sequence[str], fail: str, params) -> str:
        """The function's source; ``headers[k]`` opens loop k, ``fail`` reports a failure."""
        items = [self.equation(h) for h in hypotheses] + [self.equation(conclusion)]
        # A hypothesis moves out to the loop where it is decided only when it
        # and every hypothesis before it are pure, so that no evaluation that
        # might raise is skipped.
        test_at = []
        hoist = True
        for k, (a, b) in enumerate(items):
            hoist = hoist and k < len(hypotheses) and self.pure[a] and self.pure[b]
            test_at.append(max(self.level[a], self.level[b]) if hoist else self.inner)
        done = [e is None for e in self.expr]
        lines = [f"def check({', '.join(params)}):"]
        for level in range(-1, self.inner + 1):
            pad = "    " * (level + 2)
            if level >= 0:
                lines.append(pad[4:] + headers[level])
            for k, (a, b) in enumerate(items):
                if test_at[k] == level:
                    self._emit(a, level, done, lines, pad)
                    self._emit(b, level, done, lines, pad)
                    if k == len(hypotheses):
                        leave = fail
                    else:
                        leave = "continue" if level >= 0 else "return None"
                    lines.append(f"{pad}if not {self.name[a]} == {self.name[b]}:")
                    lines.append(f"{pad}    {leave}")
            for a, b in items:  # what the inner loops need from this one
                self._emit(a, level, done, lines, pad)
                self._emit(b, level, done, lines, pad)
        lines.append("    return None")
        return "\n".join(lines) + "\n"


# Parameters of every generated function, in the order _Check._run_compiled passes
# them, before the domains D0 ... Dn-1 (or V when sampled); tables are None if procedural.
_OPS = ("zero", "one", "product", "P", "S", "A", "T", "star", "plus", "seq", "arrow")


@functools.lru_cache(maxsize=512)
def _compile(finite: bool, sampled: bool, hypotheses: tuple[Equation, ...],
             conclusion: Equation, variables: tuple[Var, ...]):
    """The compiled ``check`` function of one check, with its loop plan.

    A sampled check loops once over ``V`` and returns the failing rank.  An
    exhaustive one nests a loop per variable a term mentions and returns the
    failing valuation, with the first element of its domain for any other.
    """
    js = range(len(variables))
    if sampled:
        targets = "".join(f"x{j}, " for j in js)
        headers = [f"for n, ({targets}) in enumerate(V):" if targets else "for n, _ in enumerate(V):"]
        var_level = dict.fromkeys(js, 0)
        fail, data = "return n", ("V",)
    else:
        names = {v.name for e in (*hypotheses, conclusion)
                 for t in (e.lhs, e.rhs) for v in free_vars(t)}
        used = [j for j in js if variables[j].name in names]
        loops = [[j] for j in used]
        if len(loops) > _MAX_LOOPS:
            loops[_MAX_LOOPS - 1:] = [used[_MAX_LOOPS - 1:]]
        headers = [
            f"for x{g[0]} in D{g[0]}:" if len(g) == 1 else
            f"for {', '.join(f'x{j}' for j in g)} in product({', '.join(f'D{j}' for j in g)}):"
            for g in loops
        ]
        var_level = {j: k for k, g in enumerate(loops) for j in g}
        fail = "return (" + "".join(f"x{j}, " if j in used else f"D{j}[0], " for j in js) + ")"
        data = tuple(f"D{j}" for j in js)
    compiler = _Compiler(finite, variables, var_level, len(headers) - 1)
    source = compiler.source(hypotheses, conclusion, headers, fail, _OPS + data)
    namespace: dict = {}
    exec(source, namespace)
    # Popped, so that the function and its globals form no reference cycle.
    return namespace.pop("check")


# -- valuation enumeration --------------------------------------------------


def _finite_domains(alg: Algebra, variables: Sequence[Var]) -> list[Sequence[Element]]:
    return [
        alg.tests() if v.sort is Sort.TEST else alg.elements()  # type: ignore[union-attr]
        for v in variables
    ]


def _sample_pools(alg: Algebra, rng: random.Random):
    if alg.finite:
        progs: Sequence[Element] = list(alg.elements())
        tests: Sequence[Element] = list(alg.tests())
        return progs, tests
    pool = [*alg.samples, *(alg.draw(rng) for _ in range(48))]
    uniq: list[Element] = []
    seen = set()
    for el in pool:
        if el not in seen:
            seen.add(el)
            uniq.append(el)
    tests = [el for el in uniq if alg.is_test(el)]
    return uniq, tests


def _space_size(domains: Sequence[Sequence[Element]]) -> int:
    size = 1
    for dom in domains:
        size *= len(dom)
    return size


@dataclass
class _Check:
    """One (quasi-)equation check bound to an algebra and strategy."""

    alg: Algebra
    hypotheses: tuple[Equation, ...]
    conclusion: Equation
    variables: tuple[Var, ...]

    def _run_compiled(self, sampled: bool, *data):
        """Run the compiled check over ``data``: the domains, or the valuations when sampled."""
        alg = self.alg
        if alg.finite:
            ops = (alg.plus_table, alg.seq_table, alg.arrow_table, alg.star_table, alg.star)
        else:
            ops = (None, None, None, None, functools.cache(alg.star))
        check = _compile(alg.finite, sampled, self.hypotheses, self.conclusion, self.variables)
        return check(alg.zero, alg.one, iproduct, *ops, alg.plus, alg.seq, alg.arrow, *data)

    def _verdict_for_failure(self, rank: int, vals: tuple, mode: str, space) -> Verdict:
        alg = self.alg
        val = {v.name: el for v, el in zip(self.variables, vals)}
        lhs_val = _evaluate(alg, self.conclusion.lhs, val)
        rhs_val = _evaluate(alg, self.conclusion.rhs, val)
        return Verdict(
            status="refuted",
            mode=mode,
            checked=rank + 1,
            space=space,
            counterexample={name: alg.el_name(el) for name, el in val.items()},
            lhs_value=alg.el_name(lhs_val),
            rhs_value=alg.el_name(rhs_val),
        )

    def run_exhaustive(self, cap: int) -> Verdict:
        alg = self.alg
        if not alg.finite:
            raise AlgebraError(
                f"exhaustive checking requires a finite algebra, and {alg.name!r} is procedural"
            )
        domains = _finite_domains(alg, self.variables)
        space = _space_size(domains)
        if space > cap:
            raise SizeError(
                f"valuation space of size {space} exceeds the exhaustive cap {cap};"
                " use a sampled strategy"
            )
        hit = self._run_compiled(False, *domains)
        if hit is None:
            return Verdict(status="valid", mode="exhaustive", checked=space, space=space)
        rank = 0
        for dom, el in zip(domains, hit):
            rank = rank * len(dom) + dom.index(el)
        return self._verdict_for_failure(rank, hit, "exhaustive", space)

    def run_sampled(self, samples: int, seed: int) -> Verdict:
        alg = self.alg
        rng = random.Random(seed)
        prog_pool, test_pool = _sample_pools(alg, rng)
        if not test_pool:
            raise AlgebraError(f"algebra {alg.name!r} offers no test samples")
        domains = [test_pool if v.sort is Sort.TEST else prog_pool for v in self.variables]
        space = _space_size(_finite_domains(alg, self.variables)) if alg.finite else None
        valuations = [tuple(rng.choice(dom) for dom in domains) for _ in range(samples)]
        rank = self._run_compiled(True, valuations)
        if rank is None:
            return Verdict(status="sampled-valid", mode="sampled", checked=samples, space=space)
        return self._verdict_for_failure(rank, valuations[rank], "sampled", space)

    def run(self, strategy: Strategy) -> Verdict:
        match strategy:
            case Exhaustive(cap):
                return self.run_exhaustive(cap)
            case Sampled(samples, seed):
                return self.run_sampled(samples, seed)
            case Auto(cap, samples, seed):
                if self.alg.finite:
                    domains = _finite_domains(self.alg, self.variables)
                    if _space_size(domains) <= cap:
                        return self.run_exhaustive(cap)
                return self.run_sampled(samples, seed)
        raise TypeError(f"not a strategy: {strategy!r}")


def check_equation(
    alg: Algebra,
    equation: Equation,
    strategy: Strategy = Exhaustive(),
    variables: Optional[Sequence[Var]] = None,
) -> Verdict:
    """Check one equation (or inequation) over all/sampled valuations."""
    return check_quasi_equation(alg, (), equation, strategy, variables)


def check_quasi_equation(
    alg: Algebra,
    hypotheses: Sequence[Equation],
    conclusion: Equation,
    strategy: Strategy = Exhaustive(),
    variables: Optional[Sequence[Var]] = None,
) -> Verdict:
    """Check hypotheses => conclusion; vacuous valuations count as passes."""
    hyps = tuple(hypotheses)
    if variables is None:
        variables = free_vars(*(t for e in (*hyps, conclusion) for t in (e.lhs, e.rhs)))
    chk = _Check(alg, hyps, conclusion, tuple(variables))
    return chk.run(strategy)
