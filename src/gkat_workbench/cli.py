"""Batch command-line surface.

One executable, ``gkat``, with a subcommand per kind of check:

* ``check-laws``  -- run an axiom suite over an algebra
* ``classify``    -- place an algebra in the KAT / idempotent / graded hierarchy
* ``eval``        -- evaluate a term or while-program at concrete elements
* ``prove``       -- check a quasi-equation over all (or sampled) valuations
* ``rule``        -- check one Hoare rule schema
* ``lemmas``      -- commutation conditions and the implications between them
* ``demorgan``    -- the De Morgan side condition on its own
* ``denest``      -- loop-denesting equivalence with its side conditions
* ``construct``   -- build a derived algebra (fuzzy sets/relations/languages,
  matrices), optionally writing it out or running a suite over it

Algebras come from ``--builtin SPEC`` (see ``instances``), ``--algebra FILE``
(the textual table format documented in ``algfile``), or ``--construct SPEC``.
Exit status: 0 when every requested check passed, 1 when something was refuted
(the counterexample is printed), 2 for usage or load errors, and for input
nested too deeply to read.
"""

from __future__ import annotations

import argparse
import functools
import json
import shlex
import sys
from dataclasses import fields
from typing import Optional, Sequence, get_args

from .algebra import Algebra, AlgebraError, FiniteAlgebra
from .algfile import dump_algebra, load_algebra
from .constructions import flang_algebra, frel_algebra, fset_algebra, mat_algebra
from .hoare import (
    ALL_RULES,
    B_OVER,
    PreconditionError,
    check_demorgan,
    check_rule,
    commutation_conditions,
    denesting_equivalence,
    rule_schema,
)
from .instances import BUILTIN_FORMS, make_builtin
from .laws import (
    DEMORGAN_LAW,
    SUITES,
    Law,
    LawReport,
    _suite_report,
    classify,
    parse_equation,
    run_law_suite,
)
from .semantics import (
    Auto,
    Sampled,
    Strategy,
    Verdict,
    check_quasi_equation,
    eval_term,
)
from .terms import (
    IDENT,
    KEYWORDS,
    ParseError,
    Sort,
    Var,
    free_vars,
    parse_program,
    parse_term,
    tokenize,
)

CONSTRUCT_FORMS = (
    "fset:<base>:<points>",
    "frel:<K>[:<T>]:<points>",
    "flang:<K>[:<T>]:<alphabet>:<maxlen>",
    "mat:<base>:<n>",
)


# -- algebra sources --------------------------------------------------------


def _two_base_specs(parts: list[str]) -> tuple[Algebra, Algebra]:
    """Read one or two builtin specs out of colon-joined ``parts``.

    Builtin specs may themselves contain colons (``luka:5``), so try the
    whole run as a single spec first (carrier and test algebra coincide),
    then every split point left to right.
    """
    whole = ":".join(parts)
    try:
        alg = make_builtin(whole)
        return alg, alg
    except ValueError:
        pass
    for i in range(1, len(parts)):
        try:
            k = make_builtin(":".join(parts[:i]))
            t = make_builtin(":".join(parts[i:]))
            return k, t
        except ValueError:
            continue
    raise ValueError(f"cannot read {whole!r} as one or two builtin specs")


def build_construct(spec: str) -> Algebra:
    """Build a derived algebra from a colon-separated construction spec."""
    head, _, rest = spec.partition(":")
    parts = rest.split(":") if rest else []

    def tail_int(what: str) -> int:
        if not parts or not parts[-1].lstrip("-").isdigit():
            raise ValueError(f"{head} spec needs a trailing {what}: {spec!r}")
        return int(parts[-1])

    match head:
        case "fset":
            points = tail_int("point count")
            return fset_algebra(make_builtin(":".join(parts[:-1])), points)
        case "mat":
            n = tail_int("dimension")
            return mat_algebra(make_builtin(":".join(parts[:-1])), n)
        case "frel":
            points = tail_int("point count")
            kalg, talg = _two_base_specs(parts[:-1])
            return frel_algebra(kalg, talg, points)
        case "flang":
            maxlen = tail_int("maxlen")
            if len(parts) < 3:
                raise ValueError(f"flang spec needs base, alphabet, maxlen: {spec!r}")
            alphabet = parts[-2]
            kalg, talg = _two_base_specs(parts[:-2])
            return flang_algebra(kalg, talg, alphabet, maxlen)
    raise ValueError(
        f"unknown construction {spec!r}; expected one of: " + ", ".join(CONSTRUCT_FORMS)
    )


def _algebra_from(args: argparse.Namespace) -> Algebra:
    picked = [
        s for s in ("builtin", "algebra", "construct") if getattr(args, s, None) is not None
    ]
    if len(picked) != 1:
        raise ValueError("pick exactly one of --builtin, --algebra, --construct")
    match picked[0]:
        case "builtin":
            return make_builtin(args.builtin)
        case "algebra":
            return load_algebra(args.algebra)
        case _:
            return build_construct(args.construct)


# -- shared flags -----------------------------------------------------------


def _add_algebra_opts(ap: argparse.ArgumentParser) -> None:
    g = ap.add_argument_group("algebra source (pick one)")
    g.add_argument("--builtin", metavar="SPEC", help="builtin spec, e.g. ex9 or luka:5")
    g.add_argument("--algebra", metavar="FILE", help="algebra table file")
    g.add_argument(
        "--construct",
        metavar="SPEC",
        help="derived algebra, e.g. fset:chain3:2 or mat:ex9:2",
    )


def positive_int(text: str) -> int:
    """Argument type: an integer of at least 1."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def non_negative_int(text: str) -> int:
    """Argument type: an integer of at least 0."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be at least 0, got {value}")
    return value


_STRATEGIES = {cls.mode: cls for cls in get_args(Strategy)}


def _add_strategy_opts(ap: argparse.ArgumentParser) -> None:
    g = ap.add_argument_group("checking strategy")
    g.add_argument(
        "--mode",
        choices=tuple(_STRATEGIES),
        default=Auto.mode,
        help="exhaustive enumeration, random sampling, or per-check choice (default)",
    )
    g.add_argument(
        "--samples",
        type=positive_int,
        default=Sampled.samples,
        help=f"sample count (default {Sampled.samples})",
    )
    g.add_argument("--seed", type=int, default=0, help="sampling seed (default 0)")
    g.add_argument(
        "--cap",
        type=non_negative_int,
        default=None,
        help="largest valuation space enumerated (auto falls back to sampling above it)",
    )


def _add_output_opts(ap: argparse.ArgumentParser) -> None:
    ap.add_argument("--json", action="store_true", help="machine-readable report on stdout")


def _strategy(args: argparse.Namespace) -> Strategy:
    """The ``--mode`` class, built from the fields the command line gives."""
    cls = _STRATEGIES[args.mode]
    return cls(**{f.name: v for f in fields(cls) if (v := getattr(args, f.name)) is not None})


# -- rendering --------------------------------------------------------------

_STATUS_WORD = {"valid": "Valid", "refuted": "Refuted", "sampled-valid": "Valid (sampled)"}


def _verdict_lines(v: Verdict, indent: str = "  ") -> list[str]:
    of = f" of {v.space}" if v.space is not None else ""
    out = [f"{indent}{_STATUS_WORD[v.status]}  [{v.mode}, checked {v.checked}{of}]"]
    if v.counterexample is not None:
        binds = ", ".join(f"{name}={el}" for name, el in v.counterexample.items())
        out.append(f"{indent}counterexample: {binds}")
        out.append(f"{indent}  lhs = {v.lhs_value}   rhs = {v.rhs_value}")
    return out


def _law_lines(rep: LawReport) -> list[str]:
    """One line per law of the report, plus the counterexample of each failure."""
    out = []
    for law, v in rep.entries:
        of = f"/{v.space}" if v.space is not None else ""
        out.append(f"  {law.name:<18} {_STATUS_WORD[v.status]:<16} {v.mode} {v.checked}{of}")
        if v.counterexample is not None:
            binds = ", ".join(f"{n}={e}" for n, e in v.counterexample.items())
            out.append(f"      at {binds}: lhs = {v.lhs_value}, rhs = {v.rhs_value}")
    return out


def _emit(args: argparse.Namespace, payload: dict, human: list[str]) -> None:
    if args.json:
        # Every payload is a fresh tree, so there is no cycle to look for.
        print(json.dumps({"command": args.command_echo, **payload}, indent=2,
                         check_circular=False))
    else:
        print("\n".join(human))


def _emit_verdict(
    args: argparse.Namespace, alg: Algebra, v: Verdict, head: list[str], **fields
) -> int:
    """Report one verdict under ``head``, with ``fields`` ahead of it in the payload."""
    payload = {"algebra": alg.name, "fingerprint": alg.fingerprint(), **fields, **v.to_dict()}
    _emit(args, payload, [*head, *_verdict_lines(v)])
    return 0 if v.ok else 1


# -- subcommands ------------------------------------------------------------


def _cmd_check_laws(args: argparse.Namespace) -> int:
    alg = _algebra_from(args)
    rep = run_law_suite(alg, args.suite, _strategy(args))
    human = [f"{args.suite} suite on {alg.name}  [{rep.fingerprint[:19]}]", *_law_lines(rep)]
    bad = rep.failing()
    human.append(
        "all laws hold" if rep.ok else f"{len(bad)} law(s) fail: "
        + ", ".join(law.name for law, _ in bad)
    )
    _emit(args, rep.to_dict(), human)
    return 0 if rep.ok else 1


def _cmd_classify(args: argparse.Namespace) -> int:
    alg = _algebra_from(args)
    cls = classify(alg, _strategy(args))
    human = [f"{alg.name}: {cls.class_name}"]
    if cls.witness is not None:
        human.append(f"  witness law: {cls.witness_law}")
        human.extend(_verdict_lines(cls.witness))
    _emit(args, cls.to_dict(), human)
    return 1 if cls.class_name == "NotGKAT" else 0


def _eval_bindings(alg: Algebra, text: str, lets: dict[str, int]) -> dict[str, int]:
    """Bind every identifier in ``text``: by ``--let`` first, then as an element name."""
    bound = dict(lets)
    for tok, _ in tokenize(text):
        if IDENT.fullmatch(tok) and tok not in KEYWORDS and tok not in bound:
            try:
                bound[tok] = alg.resolve(tok)
            except AlgebraError:
                raise ValueError(
                    f"{tok!r} is neither bound by --let nor an element of {alg.name!r}"
                ) from None
    return bound


def _cmd_eval(args: argparse.Namespace) -> int:
    alg = _algebra_from(args)
    if not alg.finite:
        raise ValueError(f"eval needs a finite algebra, and {alg.name!r} is procedural")
    text = args.expr if args.expr is not None else args.prog
    if text is None or (args.expr is not None and args.prog is not None):
        raise ValueError("pick exactly one of --expr, --prog")
    lets: dict[str, int] = {}
    for item in args.let or ():
        name, sep, elname = item.partition("=")
        if not sep or not IDENT.fullmatch(name):
            raise ValueError(f"--let wants NAME=ELEMENT, got {item!r}")
        if name in lets:
            raise ValueError(f"variable {name!r} bound twice by --let")
        lets[name] = alg.resolve(elname)
    bound = _eval_bindings(alg, text, lets)
    sorts = {n: Sort.TEST if alg.is_test(e) else Sort.PROGRAM for n, e in bound.items()}
    if args.expr is not None:
        term = parse_term(text, sorts)
    else:
        term = parse_program(text, sorts)
    valuation = {v.name: bound[v.name] for v in free_vars(term)}
    result = eval_term(alg, term, valuation)
    name = alg.el_name(result)
    payload = {
        "algebra": alg.name,
        "fingerprint": alg.fingerprint(),
        "input": text,
        "bindings": {n: alg.el_name(e) for n, e in valuation.items()},
        "value": name,
    }
    _emit(args, payload, [name])
    return 0


def _cmd_prove(args: argparse.Namespace) -> int:
    alg = _algebra_from(args)
    sorts: dict[str, Sort] = {}
    for csv, sort in ((args.tests, Sort.TEST), (args.progs, Sort.PROGRAM)):
        for name in filter(None, (csv or "").split(",")):
            name = name.strip()
            if not IDENT.fullmatch(name):
                raise ValueError(f"bad variable name {name!r}")
            if name in sorts:
                raise ValueError(f"variable {name!r} declared twice")
            sorts[name] = sort
    hyps = tuple(parse_equation(h, sorts) for h in args.hyp or ())
    concl = parse_equation(args.concl, sorts)
    v = check_quasi_equation(alg, hyps, concl, _strategy(args))
    law = Law("prove", tuple(Var(n, s) for n, s in sorts.items()), hyps, concl)
    head = [f"{law.render()}   on {alg.name}"]
    hypotheses = [h.render() for h in hyps]
    return _emit_verdict(args, alg, v, head, hypotheses=hypotheses, conclusion=concl.render())


def _cmd_rule(args: argparse.Namespace) -> int:
    if args.list:
        for rule in ALL_RULES:
            print(f"{rule.cli_name:<28} {rule.render()}")
        return 0
    if args.name is None:
        raise ValueError("--name is required (or use --list)")
    try:
        rule = rule_schema(args.name)
    except KeyError as exc:
        raise ValueError(exc.args[0]) from None
    alg = _algebra_from(args)
    v = check_rule(alg, rule, _strategy(args))
    head = [f"{rule.name}: {rule.render()}", f"on {alg.name}:"]
    return _emit_verdict(args, alg, v, head, rule=rule.cli_name, statement=rule.render())


def _cmd_lemmas(args: argparse.Namespace) -> int:
    alg = _algebra_from(args)
    rep = commutation_conditions(alg, _strategy(args), b_over=args.b_over)
    human = [f"commutation conditions on {alg.name} (b over {args.b_over})"]
    ok = True
    for src, dst, v in rep.entries:
        ok = ok and v.ok
        human.append(f"  {src} => {dst}:")
        human.extend(_verdict_lines(v, indent="    "))
    _emit(args, rep.to_dict(), human)
    return 0 if ok else 1


def _cmd_demorgan(args: argparse.Namespace) -> int:
    alg = _algebra_from(args)
    v = check_demorgan(alg, _strategy(args))
    return _emit_verdict(args, alg, v, [f"{DEMORGAN_LAW.render()}   on {alg.name}"])


def _cmd_denest(args: argparse.Namespace) -> int:
    alg = _algebra_from(args)
    try:
        rep = denesting_equivalence(alg, _strategy(args))
    except PreconditionError as exc:
        _emit(args, {"algebra": alg.name, "error": str(exc)}, [str(exc)])
        return 1
    human = [f"denesting on {alg.name} (side conditions hold)"]
    for name, eqn, v in rep.entries:
        human.append(f"  {name}: {eqn.render()}")
        human.extend(_verdict_lines(v, indent="    "))
    _emit(args, rep.to_dict(), human)
    return 0 if rep.ok else 1


def _cmd_construct(args: argparse.Namespace) -> int:
    alg = build_construct(args.spec)
    human = [f"{alg.name}: " + (f"{alg.size} elements" if alg.finite else "procedural")]
    if args.out is not None:
        if not isinstance(alg, FiniteAlgebra):
            raise ValueError(f"{alg.name!r} is procedural; only finite tables are written")
        # Writing records the fingerprint of the written bytes: one render.
        dump_algebra(alg, args.out)
    fingerprint = alg.fingerprint()
    payload: dict = {
        "algebra": alg.name,
        "fingerprint": fingerprint,
        "finite": alg.finite,
    }
    if alg.finite:
        payload["size"] = alg.size
        payload["tests"] = len(alg.tests())
        human[0] += f", {payload['tests']} tests"
    human.append(f"  fingerprint {fingerprint}")
    if args.out is not None:
        human.append(f"  wrote {args.out}")
        payload["out"] = args.out
    code = 0
    if args.suite is not None:
        rep = _suite_report(alg, fingerprint, args.suite, _strategy(args))
        payload["report"] = rep.to_dict()
        human.extend(_law_lines(rep))
        human.append("suite ok" if rep.ok else "suite FAILED")
        code = 0 if rep.ok else 1
    _emit(args, payload, human)
    return code


# -- parser -----------------------------------------------------------------


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gkat",
        description="Check axiom suites, Hoare rules, and program equivalences "
        "over finite or sampled algebras of graded tests.",
        epilog="builtin specs: " + ", ".join(BUILTIN_FORMS),
    )
    sub = parser.add_subparsers(dest="cmd", required=True)

    def add(name: str, fn, help_: str, *, algebra: bool = True, strategy: bool = True):
        ap = sub.add_parser(name, help=help_)
        if algebra:
            _add_algebra_opts(ap)
        if strategy:
            _add_strategy_opts(ap)
        _add_output_opts(ap)
        ap.set_defaults(func=fn)
        return ap

    ap = add("check-laws", _cmd_check_laws, "run an axiom suite")
    ap.add_argument(
        "--suite", choices=tuple(SUITES), default="gkat", help="law suite (default gkat)"
    )

    add("classify", _cmd_classify, "place an algebra in the class hierarchy")

    ap = add("eval", _cmd_eval, "evaluate a term or program at elements", strategy=False)
    ap.add_argument("--expr", metavar="TERM", help="term over element names, e.g. 'm;(m->0)'")
    ap.add_argument(
        "--prog",
        metavar="PROGRAM",
        help="while-program, e.g. 'while b do { p }; q'",
    )
    ap.add_argument(
        "--let",
        metavar="NAME=ELEMENT",
        action="append",
        help="bind a variable to an element (repeatable); covers element names "
        "that are not identifiers, e.g. --let p=1/5",
    )

    ap = add("prove", _cmd_prove, "check a quasi-equation over all valuations")
    ap.add_argument("--hyp", metavar="EQN", action="append", help="hypothesis (repeatable)")
    ap.add_argument("--concl", metavar="EQN", required=True, help="conclusion, e.g. 'p;q <= r'")
    ap.add_argument("--tests", metavar="NAMES", help="comma-separated test variables")
    ap.add_argument("--progs", metavar="NAMES", help="comma-separated program variables")

    ap = add("rule", _cmd_rule, "check a Hoare rule schema")
    ap.add_argument("--name", help="rule name, e.g. while-gkat (see --list)")
    ap.add_argument("--list", action="store_true", help="list rule schemas and exit")

    ap = add("lemmas", _cmd_lemmas, "commutation conditions and their implications")
    ap.add_argument(
        "--b-over",
        choices=B_OVER,
        default=B_OVER[0],
        help="quantify b over the test subset (default) or the whole carrier",
    )

    add("demorgan", _cmd_demorgan, "check the De Morgan side condition")
    add("denest", _cmd_denest, "check loop denesting after its side conditions")

    ap = add("construct", _cmd_construct, "build a derived algebra", algebra=False)
    ap.add_argument("spec", help="construction spec: " + ", ".join(CONSTRUCT_FORMS))
    ap.add_argument("--out", metavar="FILE", help="write the tables (finite only)")
    ap.add_argument("--suite", choices=tuple(SUITES), help="also run this law suite")

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    args.command_echo = shlex.join(["gkat", *argv])
    try:
        return args.func(args)
    except (AlgebraError, ParseError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RecursionError:
        print("error: a term or program is nested too deeply", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
