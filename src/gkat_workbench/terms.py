"""Terms, sorts and surface syntax, for terms and for while-programs.

Term surface syntax (ASCII), loosest to tightest binding:

    term   := arrow
    arrow  := sum ("->" arrow)?          right-associative
    sum    := seq ("+" seq)*
    seq    := star (";" star)*
    star   := atom "*"*                  postfix
    atom   := ident | "0" | "1" | "!" atom | "(" term ")"

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
"""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass
from typing import Callable, Mapping, Optional, Union

from .algebra import SortError


class Sort(enum.Enum):
    TEST = "test"
    PROGRAM = "program"

    # Members are singletons, so hashing by identity agrees with equality;
    # it spares every term hash a call of the Python-level ``Enum.__hash__``.
    __hash__ = object.__hash__


class ParseError(Exception):
    """Raised on malformed surface syntax, with position information."""


# -- term AST ---------------------------------------------------------------


@dataclass(frozen=True)
class Var:
    name: str
    sort: Sort


@dataclass(frozen=True)
class Zero:
    pass


@dataclass(frozen=True)
class One:
    pass


@dataclass(frozen=True)
class Plus:
    left: "Term"
    right: "Term"


@dataclass(frozen=True)
class Seq:
    left: "Term"
    right: "Term"


@dataclass(frozen=True)
class Star:
    inner: "Term"


@dataclass(frozen=True)
class Arrow:
    left: "Term"
    right: "Term"


Term = Union[Var, Zero, One, Plus, Seq, Star, Arrow]


def sort_of(t: Term) -> Sort:
    match t:
        case Var(_, sort):
            return sort
        case Zero() | One() | Arrow(_, _):
            return Sort.TEST
        case Plus(l, r) | Seq(l, r):
            if sort_of(l) is Sort.TEST and sort_of(r) is Sort.TEST:
                return Sort.TEST
            return Sort.PROGRAM
        case Star(_):
            return Sort.PROGRAM
    raise TypeError(f"not a term: {t!r}")


def mk_arrow(left: Term, right: Term) -> Arrow:
    """Build an arrow, enforcing test-sorted operands."""
    for side, operand in (("left", left), ("right", right)):
        if sort_of(operand) is not Sort.TEST:
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

    def walk(u: Term) -> None:
        match u:
            case Var(name, _):
                prev = seen.get(name)
                if prev is None:
                    seen[name] = u
                elif prev.sort is not u.sort:
                    raise SortError(f"variable {name!r} is used at two different sorts")
            case Plus(l, r) | Seq(l, r) | Arrow(l, r):
                walk(l)
                walk(r)
            case Star(inner):
                walk(inner)
            case _:
                pass

    for t in terms:
        walk(t)
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
        left = self.sum()
        if self.peek() == "->":
            self.next()
            right = self.term()
            return mk_arrow(left, right)
        return left

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
        t = self.atom()
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
        if tok == "!":
            inner = self.atom()
            return mk_not(inner)
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
        if sort_of(t) is not Sort.TEST:
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
    always reconstructs the exact tree.
    """
    return _render(t, 0)


def _render(t: Term, level: int) -> str:
    match t:
        case Var(name, _):
            return name
        case Zero():
            return "0"
        case One():
            return "1"
        case Arrow(l, Zero()):
            return "!" + _render(l, _LVL_ATOM)
        case Arrow(l, r):
            s = _render(l, _LVL_ARROW + 1) + "->" + _render(r, _LVL_ARROW)
            return f"({s})" if level > _LVL_ARROW else s
        case Plus(l, r):
            s = _render(l, _LVL_PLUS) + "+" + _render(r, _LVL_PLUS + 1)
            return f"({s})" if level > _LVL_PLUS else s
        case Seq(l, r):
            s = _render(l, _LVL_SEQ) + ";" + _render(r, _LVL_SEQ + 1)
            return f"({s})" if level > _LVL_SEQ else s
        case Star(inner):
            return _render(inner, _LVL_ATOM) + "*"
    raise TypeError(f"not a term: {t!r}")
