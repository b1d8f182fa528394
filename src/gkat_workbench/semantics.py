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
* On a finite carrier of at most 256 elements, an exhaustive check of at
  least 2^16 valuations (``_VECTOR_SPACE``; a smaller one does not repay
  the longer plan) computes one variable, the vector variable, a whole
  domain at a time, after the column-at-a-time execution of MonetDB/X100
  (Boncz, Zukowski and Nes, CIDR 2005).  No loop binds it; every node that
  mentions it is the ``bytes`` of its values along its domain, computed by
  one ``bytes.translate`` through a row or a column of a table
  (``FiniteAlgebra.byte_views``) at the outermost loop that binds the
  node's other variables.  The vector variable is a used variable that no
  node has free in both operands, counting ``a <= b`` as the node
  ``a + b`` compared with ``b``; a program-sorted one is preferred, then
  the later one.  An equation compares two vectors, or a vector with a
  fill of a scalar.  A hypothesis that mentions the vector variable is a
  mask, read only where the conclusion's two sides differ: the XOR of two
  vectors, as ints, has a zero byte where they agree.  A failure reports
  its first failing index; when loops over later variables remain, they
  run on for the current values of the earlier ones and the least index
  wins, so the counterexample is still the first in variable order.  A
  check keeps the scalar loops when no variable is eligible, when it uses
  more than ``_MAX_LOOPS`` variables, or on a larger carrier.
* A sampled check runs the same body in one loop, which draws each
  valuation from the seeded generator just before checking it, one
  variable at a time in variable order, by the same ``getrandbits`` calls
  ``random.Random.choice`` makes (``len(D).bit_length()`` bits, drawn
  again while at least ``len(D)``).  It draws the valuations ``choice``
  would, consumes the stream no further than the valuation it stops at,
  and holds only the current one.  On procedural carriers the body calls
  ``alg.plus`` / ``seq`` / ``star`` / ``arrow`` instead of indexing tables,
  and tabulates small calls by draw position, after Michie's memo
  functions ("'Memo' functions and machine learning", Nature 1968): a
  call whose free variables have at most L = min(samples,
  ``_TABLE_SLOTS``) joint positions in their pools has a list of that
  many slots, indexed by the positions ``r<j>`` its variables were drawn
  at.  The first draw of those positions computes the call and fills its
  slot; later ones read it, after the slots of the call's operands, whose
  variables are among its own.  No value is hashed, and the tables of a check never hold more than L
  slots each, whatever the sample count.  ``star`` is also passed through
  a ``functools.cache`` made fresh for each run, so the check stars each
  distinct value once.  A call that raises fills no slot, and raises again
  at the same valuation.  The pools of a procedural carrier depend only
  on the carrier and the seed, so the checks that share both draw them
  once (``_seeded_pools``).

The function is generated and compiled once per process for each check
(``_compile``, an LRU cache of 512 checks).  The key is the check: whether
the carrier is finite, whether a vector variable may be chosen (see
``_VECTOR_SPACE``), whether it is sampled, the
hypotheses, the conclusion, the variables and the masks of the calls a
sampled check tabulates.  ``_compile`` makes the loop plan from the key
alone, and the function reads every domain, table and operation through
its parameters, so the key holds no algebra, element or seed.

The terms of a check obey two rules, both enforced by ``_compile`` before
any valuation is checked: each variable is declared once, at the sort the
terms use it at, and each arrow's operands are test-sorted, as the parser
requires (``terms.mk_arrow``; a hand-built ill-sorted ``Arrow`` raises its
``SortError``).  A test-sorted term's value is then always a test, so on a
finite carrier every node is a table lookup, which cannot raise.

Evaluation order on a procedural carrier: every operation may raise, so
each runs in the sampled loop, left to right: a hypothesis's terms are
computed just before that hypothesis is tested, and the conclusion's terms
only once every hypothesis holds.  A check therefore raises exactly where
evaluating each valuation in turn would.

``eval_term`` and the values reported with a counterexample use a plain
evaluator over ``terms.postorder``, which is also the reference the tests
hold the compiled checks to.

Carrier mode is a view: a test-sorted variable ranges over a finite
algebra's whole carrier in the all-tests view
(``FiniteAlgebra.all_tests_view``), where the arrow reads every stored
cell (see ``hoare.commutation_conditions``).
"""

from __future__ import annotations

import functools
import math
import random
from dataclasses import dataclass
from itertools import product as iproduct
from typing import ClassVar, Mapping, Optional, Sequence, Union

from .algebra import Algebra, AlgebraError, Element, LazyBytes, SizeError, SortError
from .terms import (Arrow, One, Plus, Seq, Sort, Star, Term, Var, Zero, free_vars, mk_arrow,
                    postorder, pretty)

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
    mode: ClassVar[str] = "exhaustive"
    cap: int = 10**8


@dataclass(frozen=True)
class Sampled:
    mode: ClassVar[str] = "sample"
    samples: int = 100_000
    seed: int = 0

    def __post_init__(self) -> None:
        _require_samples(self.samples)


@dataclass(frozen=True)
class Auto:
    mode: ClassVar[str] = "auto"
    cap: int = 100_000
    samples: int = 100_000
    seed: int = 0

    def __post_init__(self) -> None:
        _require_samples(self.samples)


Strategy = Union[Exhaustive, Sampled, Auto]


def describe_strategy(strategy: Strategy) -> dict:
    """The strategy's mode, then its fields in field order.

    A dataclass's ``__init__`` sets the fields in that order, and they are
    all that ``vars`` holds; ``asdict`` would deep-copy them, ten times slower.
    """
    if not isinstance(strategy, Strategy):
        raise TypeError(f"not a strategy: {strategy!r}")
    return {"mode": strategy.mode, **vars(strategy)}


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
    """Each distinct subterm once, after its operands, left operand first."""
    ops = {Plus: alg.plus, Seq: alg.seq, Star: alg.star, Arrow: alg.arrow}
    value: dict[Term, Element] = {Zero(): alg.zero, One(): alg.one}
    for u in postorder((t,), set(value)):
        value[u] = val[u.name] if type(u) is Var else ops[type(u)](*map(value.get, u.operands))
    return value[t]


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

# Most slots a sampled check's table of one call's results may hold (see
# ``_compile``); with fewer samples, at most one per sample.
_TABLE_SLOTS = 4096

# Carriers whose elements fit in a byte: an exhaustive check on one may
# compute a variable as a vector of bytes (see ``_vector_variable``).
_BYTE_CARRIER = 256

# Fewest valuations an exhaustive check needs to compute a vector.  A
# vector plan takes about 0.2 ms longer to plan and compile than the scalar
# loops and saves some 10-90 ns a valuation, so a smaller check seldom
# repays it, least of all when its shape is also compiled as scalar loops
# for smaller tables (measured in CHANGES.md).
_VECTOR_SPACE = 1 << 16

# ``bytes.translate`` table that marks a zero byte 0xff and any other byte 0.
_HOLDS = b"\xff" + bytes(255)


def _first_byte(r: int, width: int) -> int:
    """The index of the first nonzero byte of ``r``, read as ``width`` big-endian bytes."""
    return width - 1 - ((r.bit_length() - 1) >> 3)


@functools.lru_cache(maxsize=None)
def _fills(width: int) -> LazyBytes:
    """Vectors of ``width`` copies of one byte, by that byte, each made on first use.

    A width is a domain size of at most ``_BYTE_CARRIER``, so the cache
    holds at most 256 x 256 fills.
    """
    return LazyBytes(lambda b: bytes((b,)) * width)


def _operand_masks(equations: Sequence[Equation], variables) -> list[tuple[int, int]]:
    """The free variables of each operation's two operands, as masks (bit j: variable j).

    One pair per distinct plus, seq, arrow and star (whose second operand
    is empty), and one per ``a <= b``, read as the node ``a + b``.  A name
    that ``variables`` does not declare has no bit.
    """
    bit = {v.name: 1 << j for j, v in enumerate(variables)}
    mask: dict[Term, int] = {}
    pairs = []
    for u in postorder(t for e in equations for t in (e.lhs, e.rhs)):
        mask[u] = bit.get(u.name, 0) if type(u) is Var else 0
        if u.operands:
            pair = mask[u.operands[0]], mask[u.operands[1]] if len(u.operands) == 2 else 0
            pairs.append(pair)
            mask[u] = pair[0] | pair[1]
    pairs.extend((mask[e.lhs], mask[e.rhs]) for e in equations if e.rel == "leq")
    return pairs


def _vector_variable(equations: Sequence[Equation], variables,
                     used: Sequence[int]) -> Optional[int]:
    """The variable an exhaustive check on a byte carrier computes as one vector, if any.

    It is a used variable that no node has free in both operands, counting
    ``a <= b`` as the node ``a + b`` compared with ``b``: every node then
    reads at most one vector, so one ``bytes.translate`` computes it.  A
    program-sorted variable is preferred (a test domain is never wider),
    then the later one.  There is none when the check uses more than
    ``_MAX_LOOPS`` variables.
    """
    if len(used) > _MAX_LOOPS:
        return None
    shared = 0  # bit j: variable j is free in both operands of some node
    for lv, rv in _operand_masks(equations, variables):
        shared |= lv & rv
    eligible = [j for j in used if not shared >> j & 1]
    if not eligible:
        return None
    return max(eligible, key=lambda j: (variables[j].sort is Sort.PROGRAM, j))


class _Compiler:
    """Writes one check as the source of a function ``check``.

    A node is a structurally distinct subterm, or a table row hoisted out of
    a lookup.  Node ``i`` is named ``x<j>`` (the j-th variable), ``zero``,
    ``one`` or ``t<i>``, and is computed at loop ``level[i]`` (-1: before
    the first loop).  A table lookup sits at the deepest loop of its
    operands; a call, on a procedural carrier, in the innermost loop.  A
    call whose free-variable mask is in ``tabulated`` has a ``slot`` in a
    list made before the loop, at its key, the mixed-radix numeral of its
    variables' draw positions ``r<j>`` (sizes ``c<j>``): both are operands.

    With a vector variable (``vector``, see ``_vector_variable``) no loop
    binds that variable: ``x<vector>`` is the bytes of its domain, and a
    node that mentions it is the ``bytes`` of its values along that domain,
    computed by one ``translate`` through a row or column of a table view
    (``PR``/``PC``, ``SR``/``SC``, ``AR``/``AC``, star ``TB``).  A scalar
    compared with a vector is compared as a fill of ``W`` copies.  ``split``
    is the first loop over a variable after the vector one, if any.

    The source holds only these generated names, the parameter names, the
    helpers of ``_compile``'s namespace, ``'big'`` and integers, never a
    variable or element name.
    """

    def __init__(self, finite: bool, variables, var_level, inner: int,
                 vector: Optional[int] = None, split: Optional[int] = None, tabulated=()):
        self.finite = finite
        self.tabulated = frozenset(tabulated)
        self.var_pos = {v.name: j for j, v in enumerate(variables)}
        self.var_level = var_level
        self.inner = inner
        self.vector = vector
        self.split = split
        self.ids: dict[tuple, int] = {}
        self.nodes: dict[Term, int] = {}  # each subterm's node
        self.name: list[str] = []
        self.expr: list[Optional[str]] = []  # None for loop variables and constants
        self.kids: list[tuple[int, ...]] = []
        self.level: list[int] = []
        self.vec: list[bool] = []  # value is a vector along the vector variable
        self.mask: list[int] = []  # bit j: variable j is free in the node
        self.slot: list[Optional[str]] = []  # a tabulated call's cell, ``table[key]``
        self.has_fills = False  # some scalar is compared with a vector

    def _add(self, key, expr, kids, name=None, level=None, vec=False, mask=0) -> int:
        i = self.ids.get(key)
        if i is None:
            i = self.ids[key] = len(self.name)
            vec = vec or any(self.vec[k] for k in kids)
            if level is None:
                level = max([self.level[k] for k in kids], default=-1)
            for k in kids:
                mask |= self.mask[k]
            self.name.append(name or f"t{i}")
            self.expr.append(expr)
            self.kids.append(kids)
            self.level.append(level)
            self.vec.append(vec)
            self.mask.append(mask)
            self.slot.append(None)
        return i

    def _lookup(self, table: str, a: int, b: int) -> int:
        if self.vec[a] or self.vec[b]:  # a row along b's vector, or a column along a's
            vec, other, view = (b, a, "R") if self.vec[b] else (a, b, "C")
            line = f"{table}{view}[{self.name[other]}]"
            kids = (other, vec)
            if self.level[other] < self.level[vec]:
                line_node = self._add((table + view, other), line, (other,))
                line, kids = self.name[line_node], (line_node, vec)
            expr = f"{self.name[vec]}.translate({line})"
        elif self.level[a] < self.level[b]:
            row = self._add(("row", table, a), f"{table}[{self.name[a]}]", (a,))
            expr, kids = f"{self.name[row]}[{self.name[b]}]", (row, b)
        else:
            expr, kids = f"{table}[{self.name[a]}][{self.name[b]}]", (a, b)
        return self._add((table, a, b), expr, kids)

    def _call(self, fn: str, *kids: int) -> int:
        args = ", ".join(self.name[k] for k in kids)
        i = self._add((fn, *kids), f"{fn}({args})", kids, level=self.inner)
        mask = self.mask[i]
        if mask in self.tabulated and self.slot[i] is None:
            sizes = " * ".join(f"len(D{j})" for j in range(mask.bit_length()) if mask >> j & 1)
            table = self._add(("table", i), f"[None] * ({sizes or 1})", (), level=-1)
            key = self._key(mask)
            self.slot[i] = f"{self.name[table]}[{self.name[key]}]"
            self.kids[i] += (table, key)
        return i

    def _key(self, mask: int) -> int:
        """The node of the draw positions of ``mask``'s variables, as one number.

        It is the mixed-radix numeral of the positions ``r<j>``, in
        variable order; with no variable, the constant 0.
        """
        if not mask:
            return self._add(("key", 0), None, (), "0", -1)
        j = mask.bit_length() - 1
        if mask == 1 << j:
            return self._add(("key", mask), None, (), f"r{j}", self.inner)
        rest = self._key(mask ^ 1 << j)
        return self._add(("key", mask), f"{self.name[rest]} * c{j} + r{j}", (rest,))

    def _binary(self, fn: str, table: str, a: int, b: int) -> int:
        if self.finite:
            return self._lookup(table, a, b)
        return self._call(fn, a, b)

    def node(self, t: Term) -> int:
        """The node of ``t``, after adding those of its subterms not yet added."""
        for u in postorder((t,), set(self.nodes)):
            self.nodes[u] = self._node(u)
        return self.nodes[t]

    def _node(self, t: Term) -> int:
        match t:
            case Var(name, _):
                j = self.var_pos[name]
                if j == self.vector:
                    return self._add(("var", j), f"bytes(D{j})", (), f"x{j}", -1, vec=True)
                return self._add(("var", j), None, (), f"x{j}", self.var_level[j], mask=1 << j)
            case Zero():
                return self._add(("zero",), None, (), "zero")
            case One():
                return self._add(("one",), None, (), "one")
            case Plus(l, r):
                return self._binary("plus", "P", self.nodes[l], self.nodes[r])
            case Seq(l, r):
                return self._binary("seq", "S", self.nodes[l], self.nodes[r])
            case Star(inner):
                a = self.nodes[inner]
                if self.vec[a]:
                    return self._add(("T", a), f"{self.name[a]}.translate(TB)", (a,))
                if self.finite:
                    return self._add(("T", a), f"T[{self.name[a]}]", (a,))
                return self._call("star", a)
            case Arrow(l, r):
                mk_arrow(l, r)  # the parser's sort rule: SortError on a program operand
                return self._binary("arrow", "A", self.nodes[l], self.nodes[r])
        raise TypeError(f"not a term: {t!r}")

    def _fill(self, a: int) -> int:
        self.has_fills = True
        return self._add(("fill", a), f"F[{self.name[a]}]", (a,), vec=True)

    def _int(self, a: int) -> int:
        return self._add(("int", a), f"fb({self.name[a]}, 'big')", (a,))

    def equation(self, eqn: Equation) -> tuple[int, int]:
        """The two nodes the equation compares; ``a <= b`` compares a + b with b."""
        a, b = self.node(eqn.lhs), self.node(eqn.rhs)
        if eqn.rel == "leq":
            a = self._binary("plus", "P", a, b)
        if self.vec[a] != self.vec[b]:
            a, b = (a, self._fill(b)) if self.vec[a] else (self._fill(a), b)
        return a, b

    def _emit(self, roots, level: int, seen: set[int], lines: list[str], pad: str) -> None:
        """Append, in post-order, the statements of the nodes below ``roots`` placed at ``level``.

        ``seen``: the nodes that need no walk, placed in an outer loop (with
        all below them), never computed, or walked at this level.  A
        tabulated call reads its slot and fills it when empty, after its
        operands, which are tabulated too: their masks are subsets of its.
        """
        for i in postorder(roots, seen, self.kids.__getitem__):
            if self.level[i] == level:
                name, cell = self.name[i], self.slot[i]
                if cell is None:
                    lines.append(f"{pad}{name} = {self.expr[i]}")
                else:
                    lines += [f"{pad}{name} = {cell}", f"{pad}if {name} is None:",
                              f"{pad}    {name} = {cell} = {self.expr[i]}"]

    def _vector_failure(self, conclusion, masked, level, seen, lines, pad, fail: str) -> None:
        """The statements that find the first failing index ``k`` along the vector.

        They run where the conclusion's two sides differ.  The bytes of the
        XOR of two vectors, read as big-endian ints, are zero where the
        vectors agree; ``HOLDS`` marks such a byte 0xff, so that the bytes
        of ``r`` are nonzero exactly where every hypothesis holds and the
        conclusion fails.  The int of a vector from an outer loop is
        computed in that loop.
        """

        def as_int(u: int) -> str:
            if masked and self.level[u] < level:
                return self.name[self._int(u)]
            return f"fb({self.name[u]}, 'big')"

        a, b = conclusion
        terms = [f"{as_int(a)} ^ {as_int(b)}"] if self.vec[a] else []
        if masked:
            self._emit([u for pair in masked for u in pair], level, seen, lines, pad)
            fails = " | ".join(f"{as_int(ha)} ^ {as_int(hb)}" for ha, hb in masked)
            terms.append(f"fb(({fails}).to_bytes(W, 'big').translate(HOLDS), 'big')")
        r = terms[0] if len(terms) == 1 else f"({terms[0]}) & {terms[1]}"
        lines.append(f"{pad}r = {r}")
        if masked:  # without a mask, the two sides differ somewhere
            lines.append(f"{pad}if r:")
            pad += "    "
        index = "first_byte(r, W)"
        if self.split is None:  # the valuation reads the vector's element at index k
            lines.append(f"{pad}{fail.replace('[k]', f'[{index}]')}")
        else:  # a later iteration of the loops after the vector may fail at a smaller k
            lines.append(f"{pad}k = {index}")
            lines.append(f"{pad}if k < first:")
            lines.append(f"{pad}    {fail}")

    def source(self, hypotheses, conclusion, headers: Sequence[str], fail: str, params) -> str:
        """The function's source; ``headers[k]``, one or more lines, opens loop k.

        ``fail`` reports a failure.
        """
        items = [self.equation(h) for h in hypotheses] + [self.equation(conclusion)]
        # A hypothesis that mentions the vector variable is a mask, read only
        # where the conclusion fails; the ints of its vectors and of the
        # conclusion's are computed where the vectors are.
        masked = [(a, b) for a, b in items[:-1] if self.vec[a]]
        ints = [self._int(u) for pair in (masked and items) for u in pair
                if self.vec[u] and self.level[u] < self.inner]
        # On a finite carrier a hypothesis is tested at the loop where it is
        # decided; on a procedural one, whose operations may raise, every
        # equation is tested in the loop, in order.
        test_at: list[Optional[int]] = []
        for k, (a, b) in enumerate(items):
            hypothesis = k < len(hypotheses)
            at = max(self.level[a], self.level[b]) if hypothesis and self.finite else self.inner
            test_at.append(None if hypothesis and self.vec[a] else at)
        lines = [f"def check({', '.join(params)}):"]
        if self.vector is not None:
            lines.append("    PR, PC, SR, SC, AR, AC, TB = views()")
            lines.append(f"    W = len(D{self.vector})")
            if self.has_fills:
                lines.append("    F = fills(W)")
            if self.split is not None:
                lines.append("    first = W")
        for level in range(-1, self.inner + 1):
            pad = "    " * (level + 2)
            seen = {i for i, e in enumerate(self.expr) if e is None or self.level[i] < level}
            if level >= 0:
                lines.extend(pad[4:] + line for line in headers[level].split("\n"))
            for k, (a, b) in enumerate(items):
                if test_at[k] == level:
                    self._emit((a, b), level, seen, lines, pad)
                    lines.append(f"{pad}if not {self.name[a]} == {self.name[b]}:")
                    if k < len(hypotheses):
                        lines.append(f"{pad}    {'continue' if level >= 0 else 'return None'}")
                    elif self.vector is None:
                        lines.append(f"{pad}    {fail}")
                    else:
                        self._vector_failure((a, b), masked, level, seen, lines, pad + "    ", fail)
            needed = (*(u for pair in items for u in pair), *ints)  # what the inner loops need
            self._emit(needed, level, seen, lines, pad)
        if self.split is not None:  # the loops after the vector variable are done
            lines.append(f"{'    ' * (self.split + 1)}if first < W:")
            lines.append(f"{'    ' * (self.split + 2)}return found")
        lines.append("    return None")
        return "\n".join(lines) + "\n"


# Parameters of every generated function, in the order _run_compiled passes them,
# before the domains D0 ... Dn-1 (and, when sampled, before the sample count N and
# the generator's getrandbits gb); tables are None if procedural, star if finite.
# ``views`` returns the byte views of a table carrier (``FiniteAlgebra.byte_views``).
# A sampled check makes its own tables of call results, so none is a parameter.
_OPS = ("zero", "one", "product", "P", "S", "A", "T", "views", "star", "plus", "seq", "arrow")


@functools.lru_cache(maxsize=512)
def _compile(finite: bool, bytewise: bool, sampled: bool, hypotheses: tuple[Equation, ...],
             conclusion: Equation, variables: tuple[Var, ...], tabulated: tuple[int, ...] = ()):
    """The compiled ``check`` function of one check, with its loop plan.

    A sampled check loops ``N`` times, draws one valuation per iteration
    from ``gb`` as ``random.Random.choice`` would from each domain, and
    returns the failing rank and valuation.  ``tabulated``: the free-variable
    masks (bit j: variable j) of the calls it tabulates, each in a list
    with a slot per joint draw position of the mask's variables, made when
    the check starts.  An exhaustive one nests a loop per variable a term
    mentions and returns the failing valuation, with the first element of
    its domain for any other.
    ``bytewise``: the check is exhaustive, on a finite carrier of at most
    ``_BYTE_CARRIER`` elements, over at least ``_VECTOR_SPACE`` valuations,
    so one variable may be computed as a vector.

    Each variable of the terms must be declared, once, at the terms' sort,
    and each arrow must take test-sorted operands (checked as the terms
    are compiled, with ``terms.mk_arrow``'s ``SortError``).
    """
    equations = (*hypotheses, conclusion)
    mentioned = free_vars(*(t for e in equations for t in (e.lhs, e.rhs)))
    declared: dict[str, Sort] = {}
    for v in variables:
        if v.name in declared:
            raise AlgebraError(f"variable {v.name!r} is declared twice")
        declared[v.name] = v.sort
    for v in mentioned:
        if v.name not in declared:
            raise AlgebraError(f"no binding for variable {v.name!r}")
        if declared[v.name] is not v.sort:
            raise SortError(f"variable {v.name!r} is declared {declared[v.name].value}-sorted"
                            f" but the terms use it {v.sort.value}-sorted")
    js = range(len(variables))
    vector = split = None
    if sampled:
        # random.Random.choice(D), for a nonempty D, is D[r] for the first
        # r = getrandbits(len(D).bit_length()) below len(D).  Every variable
        # is drawn so, in variable order, a used one or not, which gives the
        # valuations choice over each domain in turn gives.  No domain is
        # empty (check_quasi_equation refuses an empty test pool, and every
        # test is in the program pool); on one, the loop would never end.
        sizes = "".join(f"c{j} = len(D{j}); b{j} = c{j}.bit_length()\n" for j in js)
        draws = "".join(f"\n    r{j} = gb(b{j})\n    while r{j} >= c{j}:\n        r{j} = gb(b{j})"
                        f"\n    x{j} = D{j}[r{j}]" for j in js)
        headers = [f"{sizes}for n in range(N):{draws}"]
        var_level = dict.fromkeys(js, 0)
        fail = "return n, (" + "".join(f"x{j}, " for j in js) + ")"
        data = ("N", "gb", *(f"D{j}" for j in js))
    else:
        used = [j for j in js if variables[j] in mentioned]
        if bytewise:
            vector = _vector_variable(equations, variables, used)
        loops = [[j] for j in used if j != vector]
        if len(loops) > _MAX_LOOPS:
            loops[_MAX_LOOPS - 1:] = [used[_MAX_LOOPS - 1:]]
        headers = [
            f"for x{g[0]} in D{g[0]}:" if len(g) == 1 else
            f"for {', '.join(f'x{j}' for j in g)} in product({', '.join(f'D{j}' for j in g)}):"
            for g in loops
        ]
        var_level = {j: k for k, g in enumerate(loops) for j in g}
        if vector is not None:
            after = [k for k, g in enumerate(loops) if g[0] > vector]
            split = after[0] if after else None
        valuation = "(" + "".join(
            f"D{j}[k], " if j == vector else f"x{j}, " if j in used else f"D{j}[0], " for j in js
        ) + ")"
        fail = f"return {valuation}" if split is None else f"first, found = k, {valuation}"
        data = tuple(f"D{j}" for j in js)
    compiler = _Compiler(finite, variables, var_level, len(headers) - 1, vector, split, tabulated)
    source = compiler.source(hypotheses, conclusion, headers, fail, _OPS + data)
    namespace: dict = {"HOLDS": _HOLDS, "fills": _fills, "fb": int.from_bytes,
                       "first_byte": _first_byte}
    exec(source, namespace)
    # Popped, so that the function and its globals form no reference cycle.
    return namespace.pop("check")


@functools.lru_cache(maxsize=512)
def _call_masks(hypotheses: tuple[Equation, ...], conclusion: Equation,
                variables: tuple[Var, ...]) -> tuple[int, ...]:
    """The distinct free-variable masks of a procedural check's calls (see ``_operand_masks``)."""
    pairs = _operand_masks((*hypotheses, conclusion), variables)
    return tuple(sorted({lv | rv for lv, rv in pairs}))


# -- valuation enumeration --------------------------------------------------


def _finite_domains(alg: Algebra, variables: Sequence[Var]) -> list[Sequence[Element]]:
    return [
        alg.tests() if v.sort is Sort.TEST else alg.elements()  # type: ignore[union-attr]
        for v in variables
    ]


def _sample_pools(alg: Algebra, rng: random.Random):
    if alg.finite:
        return alg.elements(), alg.tests()
    pool = list(dict.fromkeys([*alg.samples, *(alg.draw(rng) for _ in range(48))]))
    return pool, [el for el in pool if alg.is_test(el)]


# The last procedural carrier and seed, its pools, and the generator's state
# after drawing them (see ``_seeded_pools``).
_last_pools: tuple = (None,) * 5


def _seeded_pools(alg: Algebra, seed):
    """``_sample_pools(alg, random.Random(seed))``, and that generator after it.

    The pools of the last procedural carrier and seed are kept with the
    generator's state after their draws, so the checks of a suite, rule or
    denest that share a seed draw them once.  The carrier is the object
    itself: two carriers may share a name and samples but not ``draw``.
    A seed of None seeds each generator afresh, so it keeps nothing.
    """
    global _last_pools
    last, last_seed, progs, tests, state = _last_pools
    if last is alg and last_seed == seed:
        rng = random.Random.__new__(random.Random)  # setstate sets the whole state
        rng.setstate(state)
        return progs, tests, rng
    rng = random.Random(seed)
    progs, tests = _sample_pools(alg, rng)
    if not alg.finite and seed is not None:
        _last_pools = alg, seed, progs, tests, rng.getstate()
    return progs, tests, rng


def _run_compiled(alg: Algebra, hypotheses: tuple[Equation, ...], conclusion: Equation,
                  variables: tuple[Var, ...], sampled: bool, bytewise: bool, *data,
                  tabulated: tuple[int, ...] = ()):
    """Run the compiled check over ``data``.

    ``data``: the domains, after the sample count and the seeded
    generator's ``getrandbits`` when sampled.  ``bytewise``: the check may
    compute a vector; ``tabulated``: the masks of the calls it tabulates
    (see ``_compile``).
    """
    if alg.finite:  # no finite plan calls star
        ops = (alg.plus_table, alg.seq_table, alg.arrow_table, alg.star_table,
               alg.byte_views, None)
    else:
        ops = (None, None, None, None, None, functools.cache(alg.star))
    check = _compile(alg.finite, bytewise, sampled, hypotheses, conclusion, variables, tabulated)
    return check(alg.zero, alg.one, iproduct, *ops, alg.plus, alg.seq, alg.arrow, *data)


def _refutation(alg: Algebra, conclusion: Equation, variables: tuple[Var, ...],
                rank: int, vals: tuple, mode: str, space: Optional[int]) -> Verdict:
    val = {v.name: el for v, el in zip(variables, vals)}
    return Verdict(
        status="refuted",
        mode=mode,
        checked=rank + 1,
        space=space,
        counterexample={name: alg.el_name(el) for name, el in val.items()},
        lhs_value=alg.el_name(_evaluate(alg, conclusion.lhs, val)),
        rhs_value=alg.el_name(_evaluate(alg, conclusion.rhs, val)),
    )


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
    """Check hypotheses => conclusion; vacuous valuations count as passes.

    ``variables`` (default: the terms' own, in first-occurrence order) fixes
    the enumeration order; it must declare the terms' variables at their sorts.
    """
    hyps = tuple(hypotheses)
    if variables is None:
        variables = free_vars(*(t for e in (*hyps, conclusion) for t in (e.lhs, e.rhs)))
    variables = tuple(variables)
    domains = space = None
    if alg.finite:
        domains = _finite_domains(alg, variables)
        space = math.prod(map(len, domains))
    match strategy:
        case Exhaustive() if domains is None:
            raise AlgebraError(
                f"exhaustive checking requires a finite algebra, and {alg.name!r} is procedural"
            )
        case Exhaustive(cap) if space > cap:
            raise SizeError(
                f"valuation space of size {space} exceeds the exhaustive cap {cap};"
                " use a sampled strategy"
            )
        case Exhaustive(cap) | Auto(cap) if domains is not None and space <= cap:
            bytewise = alg.size <= _BYTE_CARRIER and space >= _VECTOR_SPACE
            hit = _run_compiled(alg, hyps, conclusion, variables, False, bytewise, *domains)
            if hit is None:
                return Verdict(status="valid", mode="exhaustive", checked=space, space=space)
            rank = 0
            for dom, el in zip(domains, hit):
                rank = rank * len(dom) + dom.index(el)
            return _refutation(alg, conclusion, variables, rank, hit, "exhaustive", space)
        case Sampled(samples, seed) | Auto(_, samples, seed):
            prog_pool, test_pool, rng = _seeded_pools(alg, seed)
            if not test_pool:
                raise AlgebraError(f"algebra {alg.name!r} offers no test samples")
            pools = [test_pool if v.sort is Sort.TEST else prog_pool for v in variables]
            tabulated = ()
            if not alg.finite:  # tabulate each call with at most ``slots`` joint positions
                slots = min(samples, _TABLE_SLOTS)
                sizes = [len(pool) for pool in pools]
                tabulated = tuple(
                    mask for mask in _call_masks(hyps, conclusion, variables)
                    if math.prod(n for j, n in enumerate(sizes) if mask >> j & 1) <= slots
                )
            hit = _run_compiled(alg, hyps, conclusion, variables, True, False,
                                samples, rng.getrandbits, *pools, tabulated=tabulated)
            if hit is None:
                return Verdict(status="sampled-valid", mode="sampled", checked=samples, space=space)
            return _refutation(alg, conclusion, variables, *hit, "sampled", space)
    raise TypeError(f"not a strategy: {strategy!r}")
