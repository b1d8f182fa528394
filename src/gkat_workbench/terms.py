"""Terms, sorts and surface syntax, for terms and for while-programs.

Term surface syntax (ASCII), loosest to tightest binding:

    term   := arrow
    arrow  := sum ("->" arrow)?          right-associative
    sum    := seq ("+" seq)*
    seq    := star (";" star)*
    star   := "!"* atom "*"*             "!" binds tighter: !a* is (!a)*
    atom   := ident | "0" | "1" | "(" term ")"

``!a`` is surface sugar for ``a -> 0``; the AST stores the arrow form, and
the pretty-printer prefers the sugar when it prints one back.  Terms are
two-sorted: tests are closed under ``+``, ``;`` and ``->`` and contain the
constants; ``*`` always produces a program, and ``->`` demands test-sorted
operands on both sides.

While-programs are surface syntax only: ``parse_program`` reads one
straight to the term it stands for.

    program := unit (";" unit)*
    unit    := "skip" | "halt" | ident
             | "if" term "then" "{" program "}" ("else" "{" program "}")?
             | "while" term "do" "{" program "}"
             | "(" program ")"

``skip`` is ``1``, ``halt`` is ``0`` and ``;`` is sequencing;
``if b then { p } else { q }`` is ``b;p + !b;q``, an ``if`` without
``else`` takes a skip branch (``b;p + !b``), and ``while b do { p }`` is
``(b;p)*;!b``.

Terms are hash-consed, after Filliâtre and Conchon ("Type-safe modular
hash-consing", ML Workshop 2006), so a term is a DAG of shared subterms.
Every walk of a term -- its free variables and text here, its value and
its check's plan in ``semantics`` -- visits each distinct subterm once, in
``postorder``, which keeps its own stack: only the parser recurses, once
per parenthesis or brace.
"""

from __future__ import annotations

import enum
import re
import weakref
from operator import attrgetter
from typing import Callable, ClassVar, Iterable, Mapping, Optional

from .algebra import SortError


class Sort(enum.Enum):
    TEST = "test"
    PROGRAM = "program"


class ParseError(Exception):
    """Raised on malformed surface syntax, with position information."""


# -- term AST ---------------------------------------------------------------


class Term:
    """A hash-consed term: building one equal to a live term returns that term.

    So terms compare and hash by identity, and are shared: never assign a
    field.  Each constructor class keeps its live terms weakly in ``_live``,
    by the fields ``__match_args__`` names and ``_build`` sets, with the
    ``sort`` and the ``operands``.  Terms pickle and copy to the interned
    term, and print as dataclasses do.
    """

    __slots__ = ("operands", "sort", "_text", "__weakref__")
    __match_args__: ClassVar[tuple[str, ...]] = ()

    def __init_subclass__(cls) -> None:
        cls._live = weakref.WeakValueDictionary()

    def __new__(cls, *fields):
        t = cls._live.get(fields)
        if t is None:
            t = object.__new__(cls)
            t._build(*fields)
            cls._live[fields] = t
        return t

    def _build(self) -> None:
        self.operands, self.sort = (), Sort.TEST

    def __reduce__(self):
        return type(self), tuple(getattr(self, f) for f in self.__match_args__)

    def __repr__(self) -> str:
        pieces, todo = [], [self]  # a pending term stands for its whole text
        while todo:
            t = todo.pop()
            if isinstance(t, str):
                pieces.append(t)
                continue
            todo.append(")")
            for i, f in reversed(list(enumerate(t.__match_args__))):
                v = getattr(t, f)
                todo += [v if isinstance(v, Term) else repr(v), ", " * (i > 0) + f"{f}="]
            todo.append(f"{type(t).__name__}(")
        return "".join(pieces)


class Var(Term):
    __slots__ = ("name",)
    __match_args__ = ("name", "sort")

    def _build(self, name: str, sort: Sort) -> None:
        self.name, self.sort, self.operands = name, sort, ()


class Zero(Term):
    __slots__ = ()


class One(Term):
    __slots__ = ()


class _Binary(Term):
    __slots__ = __match_args__ = ("left", "right")

    def _build(self, left: Term, right: Term) -> None:
        self.operands = self.left, self.right = left, right
        test = type(self) is Arrow or left.sort is right.sort is Sort.TEST
        self.sort = Sort.TEST if test else Sort.PROGRAM


class Plus(_Binary):
    __slots__ = ()


class Seq(_Binary):
    __slots__ = ()


class Arrow(_Binary):
    __slots__ = ()


class Star(Term):
    __slots__ = __match_args__ = ("inner",)

    def _build(self, inner: Term) -> None:
        self.operands, self.inner, self.sort = (inner,), inner, Sort.PROGRAM


def postorder(roots: Iterable, seen: Optional[set] = None,
              operands: Callable = attrgetter("operands")) -> list:
    """Every node reachable from ``roots`` once, after its operands, left to right.

    A node in ``seen`` is skipped with all below it, and each node reached
    joins ``seen``.  A graph other than a term passes its own ``operands``.
    """
    seen = set() if seen is None else seen
    order = []
    stack = [(None, iter(roots))]
    while stack:
        node, todo = stack[-1]
        for u in todo:
            if u not in seen:
                seen.add(u)
                stack.append((u, iter(operands(u))))
                break
        else:
            stack.pop()
            order.append(node)
    return order[:-1]  # without the roots' own frame


def sort_of(t: Term) -> Sort:
    return t.sort


def mk_arrow(left: Term, right: Term) -> Arrow:
    """Build an arrow, enforcing test-sorted operands."""
    for side, operand in (("left", left), ("right", right)):
        if operand.sort is not Sort.TEST:
            raise SortError(
                f"arrow {side} operand must be test-sorted, got program term '{pretty(operand)}'"
            )
    return Arrow(left, right)


def mk_not(t: Term) -> Arrow:
    return mk_arrow(t, Zero())


def free_vars(*terms: Term) -> tuple[Var, ...]:
    """The terms' variables in first-occurrence order, as checks bind them.

    Rejects a name used at two sorts.
    """
    seen: dict[str, Var] = {}
    for u in postorder(terms):
        if type(u) is Var:
            prev = seen.setdefault(u.name, u)
            if prev.sort is not u.sort:
                raise SortError(f"variable {u.name!r} is used at two different sorts")
    return tuple(seen.values())


# -- tokenizer --------------------------------------------------------------

KEYWORDS = frozenset({"if", "then", "else", "while", "do", "skip", "halt"})

#: An identifier: a variable here, and every name the command line reads as one.
IDENT = re.compile(r"[A-Za-z][A-Za-z0-9_]*")
_TOKEN = re.compile(rf"->|<=|=|{IDENT.pattern}|[01();*+!{{}}]")
_SPACE = re.compile(r"\s*")


def tokenize(text: str) -> list[tuple[str, int]]:
    """Split ``text`` into (token, position) pairs."""
    out = []
    pos = 0
    n = len(text)
    while pos < n:
        pos = _SPACE.match(text, pos).end()
        if pos >= n:
            break
        m = _TOKEN.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r} at position {pos}")
        out.append((m.group(), pos))
        pos = m.end()
    return out


class _Parser:
    def __init__(self, text: str, sorts: Mapping[str, Sort]):
        self.text = text
        self.tokens = tokenize(text)
        self.pos = 0
        self.sorts = sorts

    def peek(self) -> Optional[str]:
        if self.pos < len(self.tokens):
            return self.tokens[self.pos][0]
        return None

    def next(self) -> tuple[str, int]:
        if self.pos >= len(self.tokens):
            raise ParseError(f"unexpected end of input in {self.text!r}")
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, want: str) -> None:
        tok, at = self.next()
        if tok != want:
            raise ParseError(f"expected {want!r} but found {tok!r} at position {at}")

    def at_end(self) -> bool:
        return self.pos >= len(self.tokens)

    # term grammar

    def term(self) -> Term:
        operands = [self.sum()]
        while self.peek() == "->":
            self.next()
            operands.append(self.sum())
        t = operands.pop()
        while operands:  # right-associative: the last arrow is built first
            t = mk_arrow(operands.pop(), t)
        return t

    def sum(self) -> Term:
        t = self.seq()
        while self.peek() == "+":
            self.next()
            t = Plus(t, self.seq())
        return t

    def seq(self) -> Term:
        t = self.starred()
        while self.peek() == ";":
            self.next()
            t = Seq(t, self.starred())
        return t

    def starred(self) -> Term:
        bangs = 0
        while self.peek() == "!":
            self.next()
            bangs += 1
        t = self.atom()
        for _ in range(bangs):
            t = mk_not(t)
        while self.peek() == "*":
            self.next()
            t = Star(t)
        return t

    def atom(self) -> Term:
        tok, at = self.next()
        if tok == "0":
            return Zero()
        if tok == "1":
            return One()
        if tok == "(":
            t = self.term()
            self.expect(")")
            return t
        if IDENT.fullmatch(tok):
            if tok in KEYWORDS:
                raise ParseError(f"{tok!r} is a reserved word (position {at})")
            sort = self.sorts.get(tok)
            if sort is None:
                known = ", ".join(sorted(self.sorts)) or "none"
                raise ParseError(
                    f"unknown identifier {tok!r} at position {at}; declared names: {known}"
                )
            return Var(tok, sort)
        raise ParseError(f"unexpected token {tok!r} at position {at}")

    # program grammar

    def program(self) -> Term:
        p = self.unit()
        while self.peek() == ";":
            self.next()
            p = Seq(p, self.unit())
        return p

    def unit(self) -> Term:
        tok = self.peek()
        if tok is None:
            raise ParseError(f"unexpected end of input in {self.text!r}")
        if tok == "skip":
            self.next()
            return One()
        if tok == "halt":
            self.next()
            return Zero()
        if tok == "if":
            self.next()
            test = self.guard("then")
            self.expect("then")
            then_branch = Seq(test, self.block())
            if self.peek() == "else":
                self.next()
                return Plus(then_branch, Seq(mk_not(test), self.block()))
            return Plus(then_branch, mk_not(test))
        if tok == "while":
            self.next()
            test = self.guard("do")
            self.expect("do")
            return Seq(Star(Seq(test, self.block())), mk_not(test))
        if tok == "(":
            self.next()
            p = self.program()
            self.expect(")")
            return p
        if IDENT.fullmatch(tok) and tok not in KEYWORDS:
            return self.atom()
        raise ParseError(
            f"unexpected token {tok!r} at position {self.tokens[self.pos][1]} in program"
        )

    def block(self) -> Term:
        self.expect("{")
        p = self.program()
        self.expect("}")
        return p

    def guard(self, stop: str) -> Term:
        t = self.term()
        if t.sort is not Sort.TEST:
            raise SortError(
                f"guard before {stop!r} must be test-sorted, got program term '{pretty(t)}'"
            )
        return t


def _parse(text: str, sorts: Mapping[str, Sort], rule: Callable[[_Parser], Term]) -> Term:
    p = _Parser(text, sorts)
    t = rule(p)
    if not p.at_end():
        tok, at = p.tokens[p.pos]
        raise ParseError(f"trailing input starting at {tok!r} (position {at})")
    return t


def parse_term(text: str, sorts: Mapping[str, Sort]) -> Term:
    """Parse a term; every identifier must appear in ``sorts``."""
    return _parse(text, sorts, _Parser.term)


def parse_program(text: str, sorts: Mapping[str, Sort]) -> Term:
    """Parse a while-program to the term it stands for."""
    return _parse(text, sorts, _Parser.program)


# -- pretty-printing --------------------------------------------------------

_LVL_ARROW, _LVL_PLUS, _LVL_SEQ, _LVL_ATOM = 0, 1, 2, 3


def pretty(t: Term) -> str:
    """Render with minimal parentheses, preferring ``!a`` over ``a->0``.

    Chains of the same binary operator print without parentheses only in
    the left-folded grouping the parser produces, so parsing the output
    always reconstructs the exact tree.  A term keeps its text once printed.
    """
    if hasattr(t, "_text"):
        return t._text
    text: dict[Term, tuple[str, int]] = {}  # each subterm's text and binding level

    def at(u: Term, level: int) -> str:
        s, own = text[u]
        return f"({s})" if level > own else s

    for u in postorder((t,)):
        match u:
            case Var(name, _):
                text[u] = name, _LVL_ATOM
            case Zero() | One():
                text[u] = "0" if type(u) is Zero else "1", _LVL_ATOM
            case Arrow(l, Zero()):
                text[u] = "!" + at(l, _LVL_ATOM), _LVL_ATOM
            case Arrow(l, r):
                text[u] = at(l, _LVL_ARROW + 1) + "->" + at(r, _LVL_ARROW), _LVL_ARROW
            case Plus(l, r):
                text[u] = at(l, _LVL_PLUS) + "+" + at(r, _LVL_PLUS + 1), _LVL_PLUS
            case Seq(l, r):
                text[u] = at(l, _LVL_SEQ) + ";" + at(r, _LVL_SEQ + 1), _LVL_SEQ
            case Star(inner):
                text[u] = at(inner, _LVL_ATOM) + "*", _LVL_ATOM
    t._text = text[t][0]
    return t._text
