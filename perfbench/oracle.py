"""Reference oracle for the benchmark, written apart from the program.

Everything here recomputes what the workbench claims from first principles:

* a small term parser and a memo-free evaluator that compiles a term into
  closures over table lookups (finite algebras) or over value-level
  operations (procedural carriers);
* brute-force enumeration of valuations in a given variable order, which
  yields the status, ``checked``, the first counterexample and the lhs/rhs
  values of a check;
* value-level implementations of the product, tropical, matrix and
  bounded-language operations, used to confirm sampled refutations;
* an independent rendering of the table format and its fingerprint;
* statuses written by hand from the theory.

The oracle reads only public data of the program: the tables of a
``FiniteAlgebra`` and the term trees of the law and rule catalogues.
"""

from __future__ import annotations

import hashlib
import re
from fractions import Fraction
from itertools import product as iproduct

INF = float("inf")

# -- terms ---------------------------------------------------------------------
#
# A term is a tuple: ("v", name, is_test), ("0",), ("1",), ("+", l, r),
# (";", l, r), ("*", x) or ("->", l, r).

_TOK = re.compile(r"\s*(->|<=|=|[A-Za-z][A-Za-z0-9_]*|[01();*+!])")


def parse(text: str, tests: str = "", progs: str = ""):
    """Parse a term over the named test and program variables."""
    sorts = {n: True for n in tests.split()} | {n: False for n in progs.split()}
    toks, pos = [], 0
    text = text.strip()
    while pos < len(text):
        m = _TOK.match(text, pos)
        if m is None:
            raise ValueError(f"oracle cannot read {text!r} at {pos}")
        toks.append(m.group(1))
        pos = m.end()
    at = [0]

    def peek():
        return toks[at[0]] if at[0] < len(toks) else None

    def take():
        at[0] += 1
        return toks[at[0] - 1]

    def term():
        left = total()
        if peek() == "->":
            take()
            return ("->", left, term())
        return left

    def total():
        t = seq()
        while peek() == "+":
            take()
            t = ("+", t, seq())
        return t

    def seq():
        t = starred()
        while peek() == ";":
            take()
            t = (";", t, starred())
        return t

    def starred():
        t = atom()
        while peek() == "*":
            take()
            t = ("*", t)
        return t

    def atom():
        tok = take()
        if tok in ("0", "1"):
            return (tok,)
        if tok == "!":
            return ("->", atom(), ("0",))
        if tok == "(":
            t = term()
            if take() != ")":
                raise ValueError(f"oracle: unbalanced parentheses in {text!r}")
            return t
        return ("v", tok, sorts[tok])

    out = term()
    if peek() is not None:
        raise ValueError(f"oracle: trailing input in {text!r}")
    return out


def equation(text: str, tests: str = "", progs: str = ""):
    """Parse ``lhs = rhs`` or ``lhs <= rhs`` into (lhs, rhs, rel)."""
    rel = "leq" if "<=" in text else "eq"
    lhs, rhs = text.split("<=" if rel == "leq" else "=", 1)
    return parse(lhs, tests, progs), parse(rhs, tests, progs), rel


def from_program(t):
    """Convert a program term tree (terms.Var, Plus, ...) to an oracle term."""
    kind = type(t).__name__
    if kind == "Var":
        return ("v", t.name, t.sort.value == "test")
    if kind == "Zero":
        return ("0",)
    if kind == "One":
        return ("1",)
    if kind == "Star":
        return ("*", from_program(t.inner))
    op = {"Plus": "+", "Seq": ";", "Arrow": "->"}[kind]
    return (op, from_program(t.left), from_program(t.right))


def program_equation(eqn):
    return from_program(eqn.lhs), from_program(eqn.rhs), eqn.rel


def variables_in_order(eqns):
    """(name, is_test) pairs by first occurrence, hypotheses then conclusion."""
    seen: dict = {}

    def walk(t):
        if t[0] == "v":
            seen.setdefault(t[1], t[2])
        for sub in t[1:]:
            if isinstance(sub, tuple):
                walk(sub)

    for lhs, rhs, _ in eqns:
        walk(lhs)
        walk(rhs)
    return tuple(seen.items())


# -- finite tables ---------------------------------------------------------------


class Tables:
    """The public tables of a finite algebra, read once."""

    def __init__(self, alg):
        self.name = alg.name
        self.names = tuple(alg.element_names)
        self.tests = tuple(alg.test_indices)
        self.zero, self.one = alg.zero, alg.one
        self.P, self.S, self.A = alg.plus_table, alg.seq_table, alg.arrow_table
        self.star = tuple(alg.star_table)
        self.index = {n: i for i, n in enumerate(self.names)}
        self.size = len(self.names)

    def parse(self, name: str) -> int:
        return self.index[name]

    def fmt(self, a: int) -> str:
        return self.names[a]

    def plus(self, a, b):
        return self.P[a][b]

    def seq(self, a, b):
        return self.S[a][b]

    def arrow(self, a, b):
        return self.A[a][b]

    def star_of(self, a):
        return self.star[a]

    def domain(self, is_test: bool):
        return self.tests if is_test else range(self.size)


def compile_finite(t, slots, tab: Tables):
    """Closure evaluating ``t`` on an environment tuple by table lookups."""
    kind = t[0]
    if kind == "v":
        i = slots[t[1]]
        return lambda e: e[i]
    if kind == "0":
        z = tab.zero
        return lambda e: z
    if kind == "1":
        o = tab.one
        return lambda e: o
    if kind == "*":
        inner, st = compile_finite(t[1], slots, tab), tab.star
        return lambda e: st[inner(e)]
    left = compile_finite(t[1], slots, tab)
    right = compile_finite(t[2], slots, tab)
    table = {"+": tab.P, ";": tab.S, "->": tab.A}[kind]
    return lambda e: table[left(e)][right(e)]


def compile_values(t, slots, ops):
    """Closure evaluating ``t`` with value-level operations."""
    kind = t[0]
    if kind == "v":
        i = slots[t[1]]
        return lambda e: e[i]
    if kind == "0":
        z = ops.zero
        return lambda e: z
    if kind == "1":
        o = ops.one
        return lambda e: o
    if kind == "*":
        inner = compile_values(t[1], slots, ops)
        return lambda e: ops.star_of(inner(e))
    left = compile_values(t[1], slots, ops)
    right = compile_values(t[2], slots, ops)
    fn = {"+": ops.plus, ";": ops.seq, "->": ops.arrow}[kind]
    return lambda e: fn(left(e), right(e))


def _compile_all(ops, compile_fn, variables, eqns):
    slots = {name: i for i, (name, _) in enumerate(variables)}
    return [(compile_fn(l, slots, ops), compile_fn(r, slots, ops), rel) for l, r, rel in eqns]


def _relation_holds(plus, l, r, rel) -> bool:
    return l == r if rel == "eq" else plus(l, r) == r


def check(tab: Tables, hyps, concl, variables, carrier=(), limit=None):
    """Brute-force a check; returns (status, checked, space, cex, lhs, rhs).

    ``variables`` is the enumeration order as (name, is_test) pairs.  Names
    listed in ``carrier`` range over the whole carrier even if test-sorted.
    With ``limit`` the scan stops after that many valuations and reports
    "valid" for the prefix it saw.
    """
    domains = [
        tab.domain(is_test and name not in carrier) for name, is_test in variables
    ]
    space = 1
    for d in domains:
        space *= len(d)
    *hyp_fns, (cl, cr, crel) = _compile_all(tab, compile_finite, variables, [*hyps, concl])
    plus = tab.plus
    count = 0
    for env in iproduct(*domains):
        if count == limit:
            break
        count += 1
        if all(_relation_holds(plus, l(env), r(env), rel) for l, r, rel in hyp_fns):
            lv, rv = cl(env), cr(env)
            if not _relation_holds(plus, lv, rv, crel):
                cex = {name: tab.fmt(x) for (name, _), x in zip(variables, env)}
                return "refuted", count, space, cex, tab.fmt(lv), tab.fmt(rv)
    return "valid", count, space, None, None, None


def space_of(tab: Tables, variables, carrier=()) -> int:
    space = 1
    for name, is_test in variables:
        space *= len(tab.tests) if is_test and name not in carrier else tab.size
    return space


def confirm_refutation(ops, hyps, concl, variables, cex, lhs_value, rhs_value):
    """Re-evaluate a reported counterexample; return a list of problems."""
    problems = []
    if tuple(cex) != tuple(name for name, _ in variables):
        problems.append(f"counterexample binds {tuple(cex)}, expected {variables}")
        return problems
    env = tuple(ops.parse(cex[name]) for name, _ in variables)
    *hyp_fns, (cl, cr, rel) = _compile_all(ops, compile_values, variables, [*hyps, concl])
    plus = ops.plus
    for l, r, hrel in hyp_fns:
        if not _relation_holds(plus, l(env), r(env), hrel):
            problems.append(f"a hypothesis fails at the counterexample {cex}")
    lv, rv = cl(env), cr(env)
    if _relation_holds(plus, lv, rv, rel):
        problems.append(f"the conclusion holds at the counterexample {cex}")
    if (ops.fmt(lv), ops.fmt(rv)) != (lhs_value, rhs_value):
        problems.append(
            f"lhs/rhs {lhs_value!r}/{rhs_value!r} at {cex}, oracle gives"
            f" {ops.fmt(lv)!r}/{ops.fmt(rv)!r}"
        )
    return problems


# -- procedural carriers ---------------------------------------------------------


class ProductOps:
    """[0, 1] with max, multiplication and the Goguen residual."""

    zero, one = Fraction(0), Fraction(1)

    def plus(self, a, b):
        return a if a >= b else b

    def seq(self, a, b):
        return a * b

    def arrow(self, a, b):
        return self.one if a <= b else b / a

    def star_of(self, a):
        return self.one

    def parse(self, s):
        return Fraction(s)

    def fmt(self, a):
        return str(a)


class TropicalOps:
    """Nonnegative rationals with infinity under min and +."""

    zero, one = INF, Fraction(0)

    def plus(self, a, b):
        return b if b < a else a

    def seq(self, a, b):
        return INF if INF in (a, b) else a + b

    def arrow(self, a, b):
        if a == INF:
            return self.one
        if b == INF:
            return INF
        d = b - a
        return d if d > 0 else self.one

    def star_of(self, a):
        return self.one

    def parse(self, s):
        return INF if s == "inf" else Fraction(s)

    def fmt(self, a):
        return "inf" if a == INF else str(a)


class VectorOps:
    """Vectors of base tests over a number of points, all operations pointwise."""

    def __init__(self, base: Tables, points: int):
        self.b = base
        self.zero = (base.zero,) * points
        self.one = (base.one,) * points

    def plus(self, a, b):
        return tuple(self.b.P[x][y] for x, y in zip(a, b))

    def seq(self, a, b):
        return tuple(self.b.S[x][y] for x, y in zip(a, b))

    def arrow(self, a, b):
        return tuple(self.b.A[x][y] for x, y in zip(a, b))

    def star_of(self, a):
        return tuple(base_star(self.b, x) for x in a)

    def parse(self, s):
        return tuple(self.b.parse(x) for x in split_top(s[1:-1], ","))

    def fmt(self, v):
        return "(" + ",".join(self.b.fmt(x) for x in v) + ")"


def split_top(s: str, sep: str) -> list[str]:
    """Split at ``sep`` outside braces, as in ``({x},{x,y})``."""
    parts, depth, cur = [], 0, []
    for ch in s:
        depth += (ch in "{[(") - (ch in "}])")
        if ch == sep and depth == 0:
            parts.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    parts.append("".join(cur))
    return parts


def base_star(base: Tables, a: int) -> int:
    """Least fixpoint of s = 1 + a;s in a finite base, iterated from 1."""
    s = base.one
    for _ in range(base.size + 1):
        nxt = base.P[base.one][base.S[a][s]]
        if nxt == s:
            return s
        s = nxt
    raise ValueError("oracle: base star did not stabilise")


class MatrixOps:
    """n x n matrices over a finite base; tests are diagonal test matrices.

    ``test_arrow`` is the residual of the test algebra on base indices (the
    base's own arrow unless a distinct test algebra is given).
    """

    def __init__(self, base: Tables, n: int, test_arrow=None):
        self.b, self.n = base, n
        self.test_arrow = test_arrow or base.arrow
        z, o = base.zero, base.one
        self.zero = tuple((z,) * n for _ in range(n))
        self.one = tuple(tuple(o if i == j else z for j in range(n)) for i in range(n))

    def plus(self, a, b):
        P = self.b.P
        return tuple(tuple(P[x][y] for x, y in zip(ra, rb)) for ra, rb in zip(a, b))

    def seq(self, a, b):
        P, S, n = self.b.P, self.b.S, self.n
        out = []
        for i in range(n):
            row = []
            for j in range(n):
                acc = self.b.zero
                for k in range(n):
                    acc = P[acc][S[a[i][k]][b[k][j]]]
                row.append(acc)
            out.append(tuple(row))
        return tuple(out)

    def star_of(self, a):
        # Least fixpoint of S = 1 + a;S from S = 1, iterated to stability.
        cur = self.one
        for _ in range(self.n * self.n * self.b.size + 2):
            nxt = self.plus(self.one, self.seq(a, cur))
            if nxt == cur:
                return cur
            cur = nxt
        raise ValueError("oracle: matrix star did not stabilise")

    def arrow(self, a, b):
        z, n = self.b.zero, self.n
        return tuple(
            tuple(self.test_arrow(a[i][i], b[i][i]) if i == j else z for j in range(n))
            for i in range(n)
        )

    def parse(self, s):
        rows = split_top(s[1:-1], ";")
        return tuple(tuple(self.b.parse(x) for x in split_top(row, ",")) for row in rows)

    def fmt(self, m):
        return "[" + ";".join(",".join(self.b.fmt(x) for x in row) for row in m) + "]"


class LanguageOps:
    """Word-weighted languages over a finite base, observed up to ``maxlen``.

    A language is a dict from words to nonzero base indices; the canonical
    form is the tuple of (word, index) pairs sorted by length, then word.
    """

    def __init__(self, base: Tables, maxlen: int, test_arrow=None):
        self.b, self.maxlen = base, maxlen
        self.test_arrow = test_arrow or base.arrow
        self.zero = ()
        self.one = (("", base.one),)

    def _norm(self, d):
        z = self.b.zero
        items = [(w, v) for w, v in d.items() if v != z and len(w) <= self.maxlen]
        return tuple(sorted(items, key=lambda wv: (len(wv[0]), wv[0])))

    def plus(self, a, b):
        P = self.b.P
        acc = dict(a)
        for w, v in b:
            acc[w] = P[acc[w]][v] if w in acc else v
        return self._norm(acc)

    def seq(self, a, b):
        P, S = self.b.P, self.b.S
        acc: dict = {}
        for u, x in a:
            for v, y in b:
                w = u + v
                if len(w) <= self.maxlen:
                    piece = S[x][y]
                    acc[w] = P[acc[w]][piece] if w in acc else piece
        return self._norm(acc)

    def star_of(self, a):
        cur = self.one
        for _ in range(10_000):
            nxt = self.plus(self.one, self.seq(a, cur))
            if nxt == cur:
                return cur
            cur = nxt
        raise ValueError("oracle: language star did not stabilise")

    def arrow(self, a, b):
        z = self.b.zero
        r = self.test_arrow(dict(a).get("", z), dict(b).get("", z))
        return (("", r),) if r != z else ()

    def parse(self, s):
        body = s[1:-1]
        d = {}
        for item in filter(None, body.split(",")):
            w, _, v = item.partition(":")
            d["" if w == "eps" else w] = self.b.parse(v)
        return self._norm(d)

    def fmt(self, lang):
        return "{" + ",".join(f"{w or 'eps'}:{self.b.fmt(v)}" for w, v in lang) + "}"


def named_test_arrow(kbase: Tables, tbase: Tables):
    """The residual of a distinct test algebra, moved to K indices by name."""

    def arrow(a, b):
        r = tbase.A[tbase.parse(kbase.fmt(a))][tbase.parse(kbase.fmt(b))]
        return kbase.parse(tbase.fmt(r))

    return arrow


# -- table format and fingerprint --------------------------------------------------


def canonical_text(tab: Tables) -> str:
    names = tab.names
    out = [
        f"algebra {tab.name}",
        "elements " + " ".join(names),
        "tests " + " ".join(names[i] for i in tab.tests),
        f"zero {names[tab.zero]}",
        f"one {names[tab.one]}",
    ]
    for label, table in (("plus", tab.P), ("seq", tab.S), ("arrow", tab.A)):
        out.append(f"table {label}")
        out.extend(" ".join(names[v] for v in row) for row in table)
    out.append("table star")
    out.append(" ".join(names[v] for v in tab.star))
    return "\n".join(out) + "\n"


def fingerprint(tab: Tables) -> str:
    return "sha256:" + hashlib.sha256(canonical_text(tab).encode()).hexdigest()


def table_problems(tab: Tables, ops, values, rows) -> list[str]:
    """Compare the rows ``rows`` of a constructed table with value-level operations.

    ``values`` maps each element index to its value.  In each given row the
    plus and seq cells are recomputed for every column, the arrow cells for
    every test column when the row is a test, and the star entry must be the
    oracle's least fixpoint; every star entry must satisfy s = 1 + a;s in
    the table itself.
    """
    problems = []
    index = {v: i for i, v in enumerate(values)}
    if len(index) != tab.size:
        return [f"{tab.name}: {tab.size} elements but {len(index)} distinct values"]
    if any(ops.fmt(v) != tab.names[i] for i, v in enumerate(values)):
        problems.append(f"{tab.name}: element names are not canonical")
    tests = set(tab.tests)
    cells = (
        ("plus", ops.plus, tab.P, rows, range(tab.size)),
        ("seq", ops.seq, tab.S, rows, range(tab.size)),
        ("arrow", ops.arrow, tab.A, [i for i in rows if i in tests], tab.tests),
    )
    for label, fn, table, dom_i, dom_j in cells:
        bad = next(
            ((i, j) for i in dom_i for j in dom_j if index.get(fn(values[i], values[j])) != table[i][j]),
            None,
        )
        if bad is not None:
            i, j = bad
            problems.append(f"{tab.name}: {label} cell ({tab.names[i]}, {tab.names[j]}) is wrong")
    bad = next((a for a in rows if index.get(ops.star_of(values[a])) != tab.star[a]), None)
    if bad is not None:
        problems.append(f"{tab.name}: star of {tab.names[bad]} is not the least fixpoint")
    P, S, one = tab.P, tab.S, tab.one
    bad = next((a for a, s in enumerate(tab.star) if P[one][S[a][s]] != s), None)
    if bad is not None:
        problems.append(f"{tab.name}: star of {tab.names[bad]} is not a fixpoint of s = 1 + a;s")
    return problems


# -- statuses from the theory ------------------------------------------------------
#
# Each algebra is described by three facts: whether tests are idempotent
# (a;a = a), whether they are Boolean (a + !a = 1), and whether De Morgan's
# !(a+b) = !a;!b holds.  Every algebra the benchmark uses is a GKAT, so the
# Kleene laws, the test laws and the derived laws hold on all of them.
#
# Boolean algebras (bool2, powerset) have all three.  Heyting chains
# (chain3, godel:N) and lemma4 have idempotent tests and De Morgan but no
# excluded middle: chain3 is IGKAT-not-KAT, since u + !u = u < 1.  MV chains
# (luka:N, wajsberg:K), ex9 and lemma6 have non-idempotent tests and fail
# De Morgan.  Product and tropical have non-idempotent tests but satisfy
# De Morgan, since !x is 0 or 1 there.  fset, frel, mat and flang act on
# tests coordinate-wise (diagonals, the empty word), so they inherit the
# three facts from the algebra their tests come from; callers pass the
# spec of that algebra.

BOOLEAN = (True, True, True)
HEYTING = (True, False, True)
MV = (False, False, False)
PRODUCT_LIKE = (False, False, True)

_BASE_FACTS = {
    "bool2": BOOLEAN,
    "powerset": BOOLEAN,
    "chain3": HEYTING,
    "godel": HEYTING,
    "lemma4": HEYTING,
    "luka": MV,
    "wajsberg": MV,
    "ex9": MV,
    "lemma6": MV,
    "product": PRODUCT_LIKE,
    "tropical": PRODUCT_LIKE,
}


def facts(spec: str):
    """(idempotent, boolean, de_morgan) for a builtin spec such as ``luka:5``."""
    head, _, arg = spec.partition(":")
    if (head, arg) in (("luka", "1"), ("godel", "1"), ("wajsberg", "2")):
        return BOOLEAN  # the two-element chains
    return _BASE_FACTS[head]


def law_status(spec: str, law: str):
    """Expected status of a catalogue law: True holds, False fails."""
    idem, boolean, de_morgan = facts(spec)
    if law == "test-idem":
        return idem
    if law == "excluded-middle":
        return boolean
    if law == "de-morgan":
        return de_morgan
    return True


def class_name(spec: str) -> str:
    idem, boolean, _ = facts(spec)
    if not idem:
        return "GKAT-not-IGKAT"
    return "KAT" if boolean else "IGKAT-not-KAT"


def rule_status(spec: str, rule: str):
    """Expected status of a rule schema, or None where the theory is silent.

    The while rules need idempotent tests (ex9 refutes them); composition,
    conditional and weakening hold in every GKAT, in both encodings.
    """
    idem = facts(spec)[0]
    if rule in ("WhileGKAT", "WhileIGKAT", "KAT-While"):
        return idem
    if rule in ("Composition", "Conditional", "WeakenStrengthen",
                "KAT-Composition", "KAT-Conditional", "KAT-Weaken"):
        return True
    return None


# Commutation implications that hold in every GKAT when b ranges over tests.
COMMUTATION_ALWAYS = {
    ("test-commutes", "crossings-vanish"),
    ("negation-commutes", "crossings-vanish"),
}

# The three commutation conditions over a guard b and a program p.
COMMUTATION = {
    "test-commutes": "b;p = p;b",
    "negation-commutes": "!b;p = p;!b",
    "crossings-vanish": "b;p;!b + !b;p;b = 0",
}

# Loop denesting and the star identities, with their enumeration orders.
DENESTING = (
    (
        "loop-denesting",
        "b c p q",
        "(b;(p;((c;q)*;!c)))*;!b"
        " = b;(p;((b+c);(c;q+!c;p))*;!(b+c)) + !b",
    ),
    ("sliding", "p q", "p;(q;p)* = (p;q)*;p"),
    ("star-denesting", "p q", "p*;(q;p*)* = (p+q)*"),
)
