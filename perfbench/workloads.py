"""The four benchmark workloads.

Each workload is a fixed list of operations built by ``setup``; the seed
only orders the list and seeds the sampled strategies.  An operation runs
one call into the program's public API and is then checked by the oracle
(see checks.py).  Every operation looks the program's functions up through
their modules at call time, so the traced run sees the calls.

* ``cli-catalogue`` -- in-process ``cli.main`` over a fixed catalogue of
  requests; the fixed cost of each request dominates.
* ``finite-exhaustive`` -- exhaustive verdicts on mid-size finite tables;
  the time per valuation in ``semantics`` dominates.
* ``derived-construct`` -- build a derived table, write it, read it back,
  compare fingerprints, check the one-variable Kleene laws; table
  enumeration in ``constructions`` dominates.
* ``procedural-sampled`` -- sampled verdicts on procedural carriers and on
  a finite table beyond exhaustive reach; operation functions over values
  dominate.

``tiny`` selects a few small algebras so that the self-test can run every
workload through all of its checks in seconds.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import re
import shlex
import statistics
from pathlib import Path
from types import SimpleNamespace

import checks
import oracle
from checks import Expect

# Share of valid exhaustive verdicts recomputed in full, and the most
# valuations such recomputations may scan in one round.
DEEP_SHARE = 0.25
DEEP_BUDGET = 60_000


class Op:
    """One operation: ``run`` calls the program, ``verify`` checks the result.

    ``verify(result, ctx)`` returns (problems, valuations checked).  A
    ``known_fault`` operation exposes a fault the program has today; its
    problems count it as failed rather than as a wrong output.  ``after``
    names the operation whose result ``verify`` reads from ``ctx.results``;
    such an operation is checked when the round's operations have all run.
    """

    __slots__ = ("name", "run", "verify", "known_fault", "after")

    def __init__(self, name, run, verify, known_fault=False, after=None):
        self.name, self.run, self.verify = name, run, verify
        self.known_fault, self.after = known_fault, after


class Ctx:
    """State shared by the checks of one round.

    ``results`` holds the results that other operations' checks read (see
    ``Op.after``), by operation name.
    """

    def __init__(self, rng: random.Random, results: dict):
        self.rng, self.results, self.budget = rng, results, DEEP_BUDGET
        self.seen = []  # (status, checked, space, carrier size or None) per claim

    def deep(self, exp: Expect) -> bool:
        cost = checks.oracle_cost(exp)
        if 0 < cost <= self.budget and self.rng.random() < DEEP_SHARE:
            self.budget -= cost
            return True
        return False

    def claims(self, pairs, label: str = ""):
        """Check (claim, Expect) pairs; return (problems, checked sum)."""
        problems, total = [], 0
        for claim, exp in pairs:
            deep = claim.get("status") in ("valid", "holds") and self.deep(exp)
            problems += [f"{label}: {p}" for p in checks.claim_problems(claim, exp, deep)]
            total += claim.get("checked") or 0
            status = checks.LAW_WORDS.get(claim.get("status"), claim.get("status"))
            size = exp.view.size if exp.finite else None
            self.seen.append((status, claim.get("checked"), claim.get("space"), size))
        return problems, total

    def makeup(self) -> dict:
        """What the round's verdicts were made of."""
        seen = self.seen
        refuted = [c for s, c, _, _ in seen if s == "refuted"]
        spaces = [sp for _, _, sp, _ in seen if sp is not None]
        sizes = sorted({n for *_, n in seen if n is not None})
        return {
            "verdicts": len(seen),
            "refuted_share": round(len(refuted) / len(seen), 3) if seen else 0,
            "refuted_median_checked": statistics.median(refuted) if refuted else None,
            "finite_share": round(sum(n is not None for *_, n in seen) / len(seen), 3) if seen else 0,
            "space_range": [min(spaces), max(spaces)] if spaces else None,
            "carrier_sizes": sizes,
        }


def import_program():
    """Import the package and its modules; returns them as a namespace."""
    import gkat_workbench
    from gkat_workbench import (
        algebra, algfile, cli, constructions, hoare, instances, laws, semantics, terms,
    )

    return SimpleNamespace(
        pkg=gkat_workbench, algebra=algebra, algfile=algfile, cli=cli,
        constructions=constructions, hoare=hoare, instances=instances, laws=laws,
        semantics=semantics, terms=terms,
    )


def all_laws(m):
    """Every catalogue law once: the kat suite, the derived laws, De Morgan."""
    seen = {}
    for suite in ("kat", "derived", "demorgan"):
        for law in m.laws.SUITES[suite]:
            seen.setdefault(law.name, law)
    return tuple(seen.values())


def all_rules(m):
    return (*m.hoare.RULES.values(), m.hoare.ANNIHILATION_BRIDGE)


def single(label, call, exp: Expect) -> Op:
    """An operation whose result is one ``Verdict``."""
    return Op(label, call, lambda r, ctx: ctx.claims([(r.to_dict(), exp)], label))


def expected_exception(result, kind, wanted: bool, label: str):
    """Problems when ``result`` is (or is not) the expected exception."""
    got = isinstance(result, kind)
    if got == wanted:
        return []
    if wanted:
        return [f"{label}: expected {kind.__name__}, got {type(result).__name__}: {result!r}"[:300]]
    return [f"{label}: unexpected {type(result).__name__}: {result}"[:300]]


# -- finite-exhaustive ---------------------------------------------------------------

# Builtins and derived tables (kind, base spec, points) per group of checks.
FINITE = {
    "laws": ("luka:8", "godel:8", "wajsberg:8", "powerset:xyz", ("fset", "godel:3", 2)),
    "rules": ("bool2", "luka:5", "godel:5", "wajsberg:4", "ex9", "lemma4", "lemma6"),
    "commutation": ("ex9", "lemma4", "lemma6", ("fset", "godel:4", 2), ("mat", "chain3", 2)),
    "demorgan": ("chain3", "ex9", "luka:8", ("fset", "godel:4", 3), ("mat", "chain3", 2)),
    "triples": ("luka:8", "godel:8", ("fset", "godel:4", 2), ("mat", "chain3", 2)),
    "denest": ("powerset:xy", "luka:5", ("fset", "chain3", 2)),
}
# Single passing laws whose full scans climb a ladder of space sizes: 10^3
# valuations (the three-variable laws on 10-element chains), about 10^4, and
# 20^4 = 160,000 and 48^3 = 110,592.  A scan of 10^6 valuations takes
# 10-20 s here, longer than a round may last (see README.md).  The 10^3
# rung also keeps the workload's median latency away from a gap in the
# spread of operation latencies, where it would jump from run to run.
SCANS = (
    *((law, chain) for chain in ("luka:9", "godel:9") for law in (
        "plus-assoc", "seq-assoc", "left-distrib", "right-distrib",
        "star-ind-left", "star-ind-right")),
    ("seq-assoc", "luka:20"), ("left-distrib", "godel:21"),
    ("plus-monotone", "luka:19"), ("residuation-fwd", "wajsberg:48"),
)
FINITE_TINY = {
    "laws": ("luka:3", ("fset", "bool2", 2)),
    "rules": ("ex9", "godel:2"),
    "commutation": ("lemma4", ("mat", "bool2", 1)),
    "demorgan": ("ex9",),
    "triples": ("chain3",),
    "denest": ("chain3", "ex9"),
}
SCANS_TINY = (("plus-monotone", "luka:3"),)


def derived_name(key) -> str:
    return key if isinstance(key, str) else f"{key[0]}:{key[1]}:{key[2]}"


def build_derived(m, key):
    """A builtin or a derived table from the library constructors."""
    if isinstance(key, str):
        return m.instances.make_builtin(key)
    kind, base, points = key
    b = m.instances.make_builtin(base)
    if kind == "fset":
        return m.constructions.fset_algebra(b, points)
    return m.constructions.mat_algebra(b, points)


def facts_spec(key) -> str:
    """The builtin that decides a table's test facts (see oracle.facts)."""
    return key if isinstance(key, str) else key[1]


def setup_finite_exhaustive(m, seed, round_no, tiny, tmpdir):
    groups = FINITE_TINY if tiny else FINITE
    scans = SCANS_TINY if tiny else SCANS
    keys = {k for group in groups.values() for k in group} | {k for _, k in scans}
    algs = {k: build_derived(m, k) for k in keys}
    tabs = {k: oracle.Tables(a) for k, a in algs.items()}
    ex = m.semantics.Exhaustive()
    strat = ("exhaustive",)
    ops = []
    for k in groups["laws"]:
        for law in all_laws(m):
            exp = checks.law_expect(tabs[k], facts_spec(k), law, strat)
            ops.append(single(f"law {law.name} on {derived_name(k)}",
                           lambda a=algs[k], law=law: m.laws.check_law(a, law, ex), exp))
    laws = {law.name: law for law in all_laws(m)}
    for name, k in scans:
        exp = checks.law_expect(tabs[k], facts_spec(k), laws[name], strat)
        ops.append(single(f"scan {name} on {k}",
                          lambda a=algs[k], law=laws[name]: m.laws.check_law(a, law, ex), exp))
    for k in groups["rules"]:
        for rule in all_rules(m):
            exp = checks.rule_expect(tabs[k], facts_spec(k), rule, strat)
            ops.append(single(f"rule {rule.cli_name} on {k}",
                           lambda a=algs[k], rule=rule: m.hoare.check_rule(a, rule, ex), exp))
    for k in groups["commutation"]:
        for mode in ("tests", "carrier"):
            label = f"lemmas b over {mode} on {derived_name(k)}"

            def verify(rep, ctx, k=k, mode=mode, label=label):
                pairs = [
                    (v.to_dict(), checks.commutation_expect(
                        tabs[k], derived_name(k), s, d, mode == "carrier", strat))
                    for s, d, v in rep.entries
                ]
                problems, total = ctx.claims(pairs, label)
                if len(pairs) != 6:
                    problems.append(f"{label}: {len(pairs)} implications, expected 6")
                return problems, total

            ops.append(Op(label, lambda a=algs[k], mode=mode: m.hoare.commutation_conditions(
                a, ex, b_over=mode), verify))
    law_dm = next(law for law in all_laws(m) if law.name == "de-morgan")
    for k in groups["demorgan"]:
        exp = checks.law_expect(tabs[k], facts_spec(k), law_dm, strat)
        ops.append(single(f"demorgan on {derived_name(k)}",
                       lambda a=algs[k]: m.hoare.check_demorgan(a, ex), exp))
    for k in groups["triples"]:
        label = f"triple forms on {derived_name(k)}"

        def verify(pair, ctx, k=k, label=label):
            exps = checks.triple_expects(tabs[k], strat)
            return ctx.claims([(v.to_dict(), e) for v, e in zip(pair, exps)], label)

        ops.append(Op(label, lambda a=algs[k]: m.hoare.triple_forms_equivalent(a, ex), verify))
    for k in groups["denest"]:
        label = f"denest on {derived_name(k)}"

        def verify(rep, ctx, k=k, label=label):
            return denest_problems(m, rep, tabs[k], facts_spec(k), strat, ctx, label)

        ops.append(Op(label, lambda a=algs[k]: m.hoare.denesting_equivalence(a, ex), verify))
    return ops


def denest_problems(m, rep, view, fspec, strat, ctx, label):
    """Check a denesting report, or the precondition failure the theory predicts.

    A sampled check may miss a failing side condition, so with a sampled
    strategy a report is also accepted where the theory predicts the failure.
    """
    holds = checks.side_conditions_hold(fspec)
    refused = isinstance(rep, m.hoare.PreconditionError)
    if refused and not holds:
        return [], 0
    if refused or holds or strat[0] == "exhaustive" or isinstance(rep, BaseException):
        problems = expected_exception(rep, m.hoare.PreconditionError, not holds, label)
        if problems:
            return problems, 0
    problems, pairs = [], []
    for side in rep.side_reports:
        for law, v in side.entries:
            pairs.append((v.to_dict(), checks.law_expect(view, fspec, law, strat)))
    exps = checks.denesting_expects(view, strat)
    names = tuple(name for name, _, _ in rep.entries)
    if names != tuple(exps):
        problems.append(f"{label}: checks {names}")
    pairs += [(v.to_dict(), exps[name]) for name, _, v in rep.entries if name in exps]
    more, total = ctx.claims(pairs, label)
    return problems + more, total


# -- procedural-sampled --------------------------------------------------------------

SAMPLES = 300


def procedural_carriers(m, tiny):
    """(label, algebra, oracle view, facts spec) for each sampled carrier."""
    B = m.instances.make_builtin
    C = m.constructions
    chain3, ex9 = B("chain3"), B("ex9")
    out = [
        ("product", B("product"), oracle.ProductOps(), "product"),
        ("tropical", B("tropical"), oracle.TropicalOps(), "tropical"),
    ]
    if tiny:
        return out
    frel = C.frel_algebra(chain3, None, 2)
    return out + [
        ("flang:chain3:ab:3", C.flang_algebra(chain3, chain3, "ab", 3),
         oracle.LanguageOps(oracle.Tables(chain3), 3), "chain3"),
        ("flang:ex9:ab:2", C.flang_algebra(ex9, None, "ab", 2),
         oracle.LanguageOps(oracle.Tables(ex9), 2), "ex9"),
        ("mat:ex9:3", C.mat_algebra(ex9, 3, sampled=True),
         oracle.MatrixOps(oracle.Tables(ex9), 3), "ex9"),
        ("mat:chain3:3", C.mat_algebra(chain3, 3, sampled=True),
         oracle.MatrixOps(oracle.Tables(chain3), 3), "chain3"),
        ("frel:chain3:2", frel, oracle.Tables(frel), "chain3"),
    ]


def setup_procedural_sampled(m, seed, round_no, tiny, tmpdir):
    rng = random.Random(f"procedural-sampled:{seed}:{round_no}")
    key = ("sampled", SAMPLES)
    ops = []
    for label, alg, view, fspec in procedural_carriers(m, tiny):
        for law in all_laws(m):
            strat = m.semantics.Sampled(SAMPLES, rng.randrange(2**31))
            ops.append(single(f"law {law.name} on {label}",
                              lambda a=alg, law=law, s=strat: m.laws.check_law(a, law, s),
                              checks.law_expect(view, fspec, law, key)))
        for rule in all_rules(m):
            strat = m.semantics.Sampled(SAMPLES, rng.randrange(2**31))
            ops.append(single(f"rule {rule.cli_name} on {label}",
                              lambda a=alg, rule=rule, s=strat: m.hoare.check_rule(a, rule, s),
                              checks.rule_expect(view, fspec, rule, key)))
        strat = m.semantics.Sampled(SAMPLES, rng.randrange(2**31))
        name = f"denest on {label}"
        ops.append(Op(name, lambda a=alg, s=strat: m.hoare.denesting_equivalence(a, s),
                      lambda r, ctx, view=view, fspec=fspec, name=name: denest_problems(
                          m, r, view, fspec, key, ctx, name)))
    return ops


# -- derived-construct ---------------------------------------------------------------

# (kind, K, T or None, points); each spec is built once per round process.
DERIVED = (
    ("fset", "chain3", None, 2),
    ("fset", "powerset:xy", None, 3),
    ("fset", "luka:3", None, 3),
    ("fset", "godel:4", None, 3),
    ("fset", "chain3", None, 5),
    ("fset", "luka:2", None, 5),
    ("fset", "wajsberg:4", None, 4),
    ("frel", "bool2", None, 2),
    ("frel", "chain3", None, 2),
    ("frel", "chain3", "bool2", 2),
    ("frel", "godel:2", "bool2", 2),
    ("frel", "ex9", "bool2", 2),
    ("mat", "bool2", None, 2),
    ("mat", "chain3", None, 2),
    ("mat", "luka:2", None, 2),
    ("mat", "ex9", None, 2),
    ("mat", "lemma4", None, 2),
)
DERIVED_TINY = (
    ("fset", "chain3", None, 2),
    ("frel", "chain3", "bool2", 1),
    ("mat", "bool2", None, 2),
)
# Tables of at most this many elements have every cell recomputed by the
# oracle; larger ones a seeded sample of rows.
FULL_CELL_CHECK = 81
SAMPLED_ROWS = 24


def construct(m, kind, k, t, points, tmpdir):
    """Build, write, read back and check one derived table."""
    B = m.instances.make_builtin
    C = m.constructions
    base = B(k)
    if kind == "fset":
        alg = C.fset_algebra(base, points)
    elif kind == "frel":
        alg = C.frel_algebra(base, None if t is None else B(t), points)
    else:
        alg = C.mat_algebra(base, points)
    path = os.path.join(tmpdir, alg.name.replace(":", "_") + ".alg")
    m.algfile.dump_algebra(alg, path)
    back = m.algfile.load_algebra(path)
    same = alg.fingerprint() == back.fingerprint()
    laws = [law for law in m.laws.KLEENE_LAWS if len(law.variables) == 1]
    report = m.laws.run_law_suite(back, laws, m.semantics.Exhaustive())
    return SimpleNamespace(alg=alg, back=back, same=same, report=report, path=path)


def carrier_values(kind, ktab, ttab, points):
    """The carrier the oracle expects, its test predicate and value ops."""
    import itertools

    if kind == "fset":
        ops = oracle.VectorOps(ktab, points)
        values = list(itertools.product(ktab.tests, repeat=points))
        return ops, values, lambda v: True
    arrow = oracle.named_test_arrow(ktab, ttab) if ttab is not None else None
    ops = oracle.MatrixOps(ktab, points, arrow)
    test_names = {ttab.fmt(x) for x in ttab.tests} if ttab is not None else None
    rows = list(itertools.product(range(ktab.size), repeat=points))
    values = [tuple(v) for v in itertools.product(rows, repeat=points)]

    def is_test(mx):
        for i in range(points):
            for j in range(points):
                x = mx[i][j]
                if i != j and x != ktab.zero:
                    return False
                if i == j:
                    ok = ktab.fmt(x) in test_names if test_names is not None else x in ktab.tests
                    if not ok:
                        return False
        return True

    return ops, values, is_test


def construct_problems(m, res, spec, ctx, label):
    kind, k, t, points = spec
    problems = []
    if not res.same:
        problems.append(f"{label}: fingerprint changed across dump/load")
    tab = oracle.Tables(res.alg)
    with open(res.path, "rb") as fh:
        text = fh.read()
    fp = "sha256:" + hashlib.sha256(text).hexdigest()
    if fp != oracle.fingerprint(tab) or res.back.fingerprint() != fp:
        problems.append(f"{label}: written file does not match the oracle's rendering")
    if oracle.Tables(res.back).__dict__ != tab.__dict__:
        problems.append(f"{label}: tables differ after the round trip")
    ktab = oracle.Tables(m.instances.make_builtin(k))
    ttab = oracle.Tables(m.instances.make_builtin(t)) if t is not None else None
    ops, values, is_test = carrier_values(kind, ktab, ttab, points)
    try:
        decoded = [ops.parse(name) for name in tab.names]
    except (KeyError, ValueError, IndexError) as exc:
        return problems + [f"{label}: element names do not parse: {exc!r}"], 0
    if sorted(decoded) != sorted(values):
        problems.append(f"{label}: carrier differs from the {len(values)} expected values")
        return problems, 0
    tests = tuple(i for i, v in enumerate(decoded) if is_test(v))
    if tests != tab.tests:
        problems.append(f"{label}: tests differ from the oracle's")
    if (decoded[tab.zero], decoded[tab.one]) != (ops.zero, ops.one):
        problems.append(f"{label}: zero or one misplaced")
    rows = list(range(tab.size))
    if tab.size > FULL_CELL_CHECK:
        rows = sorted(ctx.rng.sample(range(tab.size), SAMPLED_ROWS))
    problems += [f"{label}: {p}" for p in oracle.table_problems(tab, ops, decoded, rows)]
    pairs = [
        (v.to_dict(), checks.law_expect(oracle.Tables(res.back), k, law, ("exhaustive",)))
        for law, v in res.report.entries
    ]
    more, total = ctx.claims(pairs, label)
    return problems + more, total


def setup_derived_construct(m, seed, round_no, tiny, tmpdir):
    ops = []
    for spec in DERIVED_TINY if tiny else DERIVED:
        kind, k, t, points = spec
        label = f"construct {kind}:{k}:{t + ':' if t else ''}{points}"
        ops.append(Op(
            label,
            lambda spec=spec: construct(m, *spec, tmpdir),
            lambda r, ctx, spec=spec, label=label: construct_problems(m, r, spec, ctx, label),
        ))
    return ops


# -- cli-catalogue -------------------------------------------------------------------


def run_cli(m, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = m.cli.main(argv)
    return SimpleNamespace(code=code, out=out.getvalue(), err=err.getvalue())


class Source:
    """An algebra source on the command line and the oracle's view of it."""

    def __init__(self, args, alg, fspec, view=None):
        self.args, self.alg, self.fspec = list(args), alg, fspec
        self.view = view if view is not None else oracle.Tables(alg)
        self.finite = isinstance(self.view, oracle.Tables)


def setup_cli_catalogue(m, seed, round_no, tiny, tmpdir):
    """The request catalogue, one operation per request."""
    rng = random.Random(f"cli-catalogue:{seed}:{round_no}")
    B = m.instances.make_builtin
    data = Path(m.pkg.__file__).parent / "data"
    builtins = m.instances.STANDARD_FINITE[:2] if tiny else m.instances.STANDARD_FINITE
    src = {spec: Source(["--builtin", spec], B(spec), spec) for spec in builtins}
    files = sorted(data.glob("*.alg"))[: 2 if tiny else None]
    file_src = []
    for path in files:
        alg = m.algfile.load_algebra(path)
        file_src.append(Source(["--algebra", str(path)], alg, alg.name))
    # Small derived tables; every suite on them stays exhaustive and cheap.
    constructs = {
        "fset:chain3:2": (lambda: m.constructions.fset_algebra(B("chain3"), 2), "chain3"),
        "fset:luka:2:2": (lambda: m.constructions.fset_algebra(B("luka:2"), 2), "luka:2"),
        "frel:bool2:1": (lambda: m.constructions.frel_algebra(B("bool2"), None, 1), "bool2"),
        "mat:ex9:1": (lambda: m.constructions.mat_algebra(B("ex9"), 1), "ex9"),
    }
    csrc = {
        spec: Source(["--construct", spec], build(), fspec)
        for spec, (build, fspec) in constructs.items()
    }
    procedural = {
        "product": Source(["--builtin", "product"], B("product"), "product", oracle.ProductOps()),
        "tropical": Source(["--builtin", "tropical"], B("tropical"), "tropical",
                           oracle.TropicalOps()),
    }
    reqs = []

    def request(argv, verify, known_fault=False, after=None):
        reqs.append(Op(shlex.join(argv), lambda: run_cli(m, argv), verify, known_fault, after))

    def sampled(n=100):
        s = rng.randrange(2**31)
        return ["--mode", "sample", "--samples", str(n), "--seed", str(s)], ("sampled", n)

    def add(argv, verify, human=False):
        request(argv + ["--json"], verify)
        if human:
            twin = shlex.join(argv + ["--json"])
            request(argv, human_verify(twin), after=twin)

    auto = ("auto", 100_000, 100_000)
    for i, (spec, s) in enumerate(src.items()):
        for suite in ("gkat", "kat", "derived", "demorgan"):
            add(["check-laws", *s.args, "--suite", suite],
                check_laws_verify(m, s, suite, auto), human=suite == "kat")
        add(["classify", *s.args], classify_verify(m, s, auto), human=i % 2 == 0)
        for rule in ("while-gkat", "composition", "postcondition-annihilation"):
            add(["rule", *s.args, "--name", rule], rule_verify(m, s, rule, auto),
                human=rule == "while-gkat")
        add(["lemmas", *s.args], lemmas_verify(m, s, "tests", auto), human=i % 3 == 0)
        add(["demorgan", *s.args], demorgan_verify(m, s, auto))
        add(["denest", *s.args], denest_verify(m, s, auto), human=i % 3 == 1 and i < 4)
    for spec in ("ex9", "lemma4", "lemma6")[: 1 if tiny else None]:
        s = src.get(spec) or Source(["--builtin", spec], B(spec), spec)
        add(["lemmas", *s.args, "--b-over", "carrier"], lemmas_verify(m, s, "carrier", auto))
    for s in file_src:
        add(["check-laws", *s.args, "--suite", "kat"], check_laws_verify(m, s, "kat", auto))
        add(["classify", *s.args], classify_verify(m, s, auto))
    for spec, s in csrc.items():
        add(["check-laws", *s.args, "--suite", "gkat"], check_laws_verify(m, s, "gkat", auto))
        add(["construct", spec, "--suite", "igkat"], construct_verify(m, s, "igkat", None, auto),
            human=True)
    frel = Source(["--construct", "frel:chain3:bool2:1"],
                  m.constructions.frel_algebra(B("chain3"), B("bool2"), 1), "bool2")
    for spec, s in (("fset:chain3:2", csrc["fset:chain3:2"]), ("frel:chain3:bool2:1", frel)):
        out = os.path.join(tmpdir, "cli-" + spec.replace(":", "_") + ".alg")
        add(["construct", spec, "--out", out], construct_verify(m, s, None, out, auto))
    add(["lemmas", *frel.args], lemmas_verify(m, frel, "tests", auto))
    add(["lemmas", *csrc["mat:ex9:1"].args], lemmas_verify(m, csrc["mat:ex9:1"], "tests", auto))
    add(["demorgan", *csrc["fset:luka:2:2"].args], demorgan_verify(m, csrc["fset:luka:2:2"], auto))
    add(["construct", "flang:chain3:ab:2"], flang_construct_verify())
    for name, s in procedural.items():
        for suite in ("gkat", "kat"):
            opts, key = sampled()
            add(["check-laws", *s.args, "--suite", suite, *opts],
                check_laws_verify(m, s, suite, key), human=name == "tropical" and suite == "kat")
        opts, key = sampled()
        add(["rule", *s.args, "--name", "while-gkat", *opts], rule_verify(m, s, "while-gkat", key))
        opts, key = sampled()
        add(["demorgan", *s.args, *opts], demorgan_verify(m, s, key))
    for argv, text, tests, progs, holds in PROVE[: 2 if tiny else None]:
        s = src.get(argv[1]) or procedural.get(argv[1]) or Source(
            ["--builtin", argv[1]], B(argv[1]), argv[1])
        key = auto
        extra = []
        if not s.finite:
            extra, key = sampled()
        add(["prove", *s.args, *argv[2:], *extra],
            prove_verify(s, text, tests, progs, key, holds), human=True)
    for spec, argv, expr in EVAL[: 2 if tiny else None]:
        s = src.get(spec) or Source(["--builtin", spec], B(spec), spec)
        add(["eval", *s.args, *argv], eval_verify(s, expr), human=True)
    request(["rule", "--list"], rule_list_verify(m))
    for argv, needle in INVALID:
        request(argv, usage_verify(needle))
    # Faults the program has today; each must exit 2 with a precise message.
    request(["check-laws", "--builtin", "tropical", "--mode", "sample", "--samples", "-5"],
            usage_verify("samples"), known_fault=True)
    request(["construct", "mat:ex9:85"], usage_verify("mat:ex9:85", "4096"), known_fault=True)
    return reqs


# prove requests: argv, the oracle's statement (hypotheses & conclusion),
# test and program variables, and whether the theory says it holds.
PROVE = (
    (["prove", "ex9", "--progs", "p", "--concl", "p;p = p"], "p;p = p", "", "p", False),
    (["prove", "godel:5", "--tests", "a,b", "--concl", "a;b = b;a"], "a;b = b;a", "a b", "", True),
    (["prove", "luka:5", "--tests", "a,b,c", "--hyp", "a;b <= c", "--concl", "b <= a->c"],
     "a;b <= c & b <= a->c", "a b c", "", True),
    (["prove", "chain3", "--tests", "a", "--concl", "a+!a = 1"], "a+!a = 1", "a", "", False),
    (["prove", "lemma4", "--tests", "b", "--progs", "p", "--hyp", "!b;p = p;!b",
      "--concl", "b;p = p;b"], "!b;p = p;!b & b;p = p;b", "b", "p", False),
    (["prove", "powerset:xy", "--progs", "p,q,r", "--concl", "p;(q+r) = p;q+p;r"],
     "p;(q+r) = p;q+p;r", "", "p q r", True),
    (["prove", "product", "--tests", "a", "--concl", "a;a = a"], "a;a = a", "a", "", False),
    (["prove", "tropical", "--progs", "p,q", "--concl", "p+q = q+p"], "p+q = q+p", "", "p q", True),
)

# eval requests: builtin, argv, and the oracle's term over element names.
EVAL = (
    ("ex9", ["--expr", "m;m"], "m;m"),
    ("ex9", ["--expr", "m;(m->0)"], "m;(m->0)"),
    ("lemma4", ["--prog", "while m do { n }"], "(m;n)*;!m"),
    ("chain3", ["--expr", "u+!u"], "u+!u"),
    ("lemma6", ["--prog", "if n then { m } else { n }"], "n;m+!n;n"),
    ("luka:5", ["--let", "p=2/5", "--let", "q=4/5", "--expr", "p;q -> p"], "p;q->p"),
)

# Requests that must exit 2; the stderr must contain the given text.
INVALID = (
    (["check-laws", "--builtin", "nosuch"], "unknown builtin spec"),
    (["prove", "--builtin", "ex9", "--progs", "p", "--concl", "p;;p = p"], "unexpected token"),
    (["eval", "--builtin", "ex9", "--expr", "m;x"], "neither bound by --let"),
    (["rule", "--builtin", "ex9", "--name", "nosuch"], "unknown rule"),
    (["check-laws", "--algebra", "perfbench-missing.alg"], "perfbench-missing.alg"),
    (["construct", "fset:nosuch:2"], "unknown builtin spec"),
    (["check-laws", "--builtin", "ex9", "--suite", "nosuch"], "invalid choice"),
    (["lemmas", "--builtin", "product", "--b-over", "carrier", "--mode", "sample"],
     "needs a finite algebra"),
)


def _payload(res):
    return json.loads(res.out)


def check_laws_verify(m, s: Source, suite, key):
    def verify(res, ctx):
        p = _payload(res)
        laws = {law.name: law for law in m.laws.SUITES[suite]}
        names = [e["name"] for e in p["laws"]]
        problems = []
        if names != list(laws):
            problems.append(f"laws {names}")
        pairs = [(e, checks.law_expect(s.view, s.fspec, laws[e["name"]], key))
                 for e in p["laws"] if e["name"] in laws]
        more, total = ctx.claims(pairs, shlex.join(s.args))
        ok = all(e["status"] != "fails" for e in p["laws"])
        problems += common_problems(res, p, s, ok)
        if p["ok"] != ok or p["suite"] != suite:
            problems.append(f"ok/suite {p['ok']}/{p['suite']}")
        return problems + more, total

    return verify


def common_problems(res, payload, s: Source, ok: bool):
    problems = []
    if res.code != (0 if ok else 1):
        problems.append(f"exit {res.code} with ok={ok}")
    if s.finite and payload.get("fingerprint") is not None:
        problems += checks.fingerprint_problems(s.alg, payload["fingerprint"])
    return problems


def classify_verify(m, s: Source, key):
    def verify(res, ctx):
        p = _payload(res)
        want = oracle.class_name(s.fspec)
        problems = [] if p["class"] == want else [f"class {p['class']}, theory says {want}"]
        total = 0
        if "witness" in p:
            law = next(law for law in all_laws(m) if law.name == p["witness"]["law"])
            more, total = ctx.claims([(p["witness"], checks.law_expect(s.view, s.fspec, law, key))],
                                     "classify")
            problems += more
        if res.code != 0:
            problems.append(f"exit {res.code}")
        return problems, total

    return verify


def rule_verify(m, s: Source, cli_name, key):
    def verify(res, ctx):
        p = _payload(res)
        rule = next(r for r in all_rules(m) if r.cli_name == cli_name)
        problems, total = ctx.claims([(p, checks.rule_expect(s.view, s.fspec, rule, key))],
                                     f"rule {cli_name}")
        return problems + common_problems(res, p, s, p["status"] != "refuted"), total

    return verify


def lemmas_verify(m, s: Source, mode, key):
    def verify(res, ctx):
        p = _payload(res)
        carrier = mode == "carrier"
        pairs = [(e, checks.commutation_expect(s.view, s.fspec, e["from"], e["to"], carrier, key))
                 for e in p["implications"]]
        problems, total = ctx.claims(pairs, f"lemmas {mode}")
        if len(pairs) != 6 or p["b_over"] != mode:
            problems.append(f"{len(pairs)} implications over {p['b_over']}")
        ok = all(e["status"] != "refuted" for e in p["implications"])
        return problems + common_problems(res, p, s, ok), total

    return verify


def demorgan_verify(m, s: Source, key):
    def verify(res, ctx):
        p = _payload(res)
        law = next(law for law in all_laws(m) if law.name == "de-morgan")
        problems, total = ctx.claims([(p, checks.law_expect(s.view, s.fspec, law, key))],
                                     "demorgan")
        return problems + common_problems(res, p, s, p["status"] != "refuted"), total

    return verify


def denest_verify(m, s: Source, key):
    def verify(res, ctx):
        p = _payload(res)
        holds = checks.side_conditions_hold(s.fspec)
        if not holds:
            ok = res.code == 1 and "side conditions fail" in p.get("error", "")
            return ([] if ok else [f"denest exit {res.code} {p}"[:300]]), 0
        pairs = []
        suites = {"igkat": m.laws.SUITES["igkat"], "demorgan": m.laws.SUITES["demorgan"]}
        for side in p["side_conditions"]:
            laws = {law.name: law for law in suites[side["suite"]]}
            pairs += [(e, checks.law_expect(s.view, s.fspec, laws[e["name"]], key))
                      for e in side["laws"]]
        exps = checks.denesting_expects(s.view, key)
        pairs += [(e, exps[e["name"]]) for e in p["checks"]]
        problems, total = ctx.claims(pairs, "denest")
        if [e["name"] for e in p["checks"]] != list(exps):
            problems.append("denesting checks differ")
        return problems + common_problems(res, p, s, p["ok"]), total

    return verify


def construct_verify(m, s: Source, suite, out, key):
    def verify(res, ctx):
        p = _payload(res)
        problems = checks.fingerprint_problems(s.alg, p["fingerprint"])
        if (p["finite"], p["size"], p["tests"]) != (True, s.view.size, len(s.view.tests)):
            problems.append(f"size/tests {p.get('size')}/{p.get('tests')}")
        total, ok = 0, True
        if out is not None:
            with open(out, "rb") as fh:
                text = fh.read()
            if "sha256:" + hashlib.sha256(text).hexdigest() != p["fingerprint"]:
                problems.append("written table does not match the fingerprint")
            if m.algfile.load_algebra(out).fingerprint() != p["fingerprint"]:
                problems.append("table read back has another fingerprint")
        if suite is not None:
            laws = {law.name: law for law in m.laws.SUITES[suite]}
            pairs = [(e, checks.law_expect(s.view, s.fspec, laws[e["name"]], key))
                     for e in p["report"]["laws"]]
            more, total = ctx.claims(pairs, "construct")
            problems += more
            ok = p["report"]["ok"]
        if res.code != (0 if ok else 1):
            problems.append(f"exit {res.code}")
        return problems, total

    return verify


def flang_construct_verify():
    def verify(res, ctx):
        p = _payload(res)
        ok = res.code == 0 and p["finite"] is False and p["algebra"] == "flang:chain3:chain3:ab:2"
        return ([] if ok else [f"flang construct: {p}"[:300]]), 0

    return verify


def prove_verify(s: Source, text, tests, progs, key, holds):
    *hyp_texts, concl_text = text.split(" & ")
    hyps = tuple(oracle.equation(h, tests, progs) for h in hyp_texts)
    concl = oracle.equation(concl_text, tests, progs)
    variables = oracle.variables_in_order([*hyps, concl])

    def verify(res, ctx):
        p = _payload(res)
        exp = Expect(s.view, hyps, concl, variables, key, holds)
        problems, total = ctx.claims([(p, exp)], "prove")
        return problems + common_problems(res, p, s, p["status"] != "refuted"), total

    return verify


def eval_verify(s: Source, expr):
    names = set(re.findall(r"[A-Za-z][A-Za-z0-9_]*", expr))
    term = oracle.parse(expr, progs=" ".join(names))
    slots = {n: i for i, n in enumerate(sorted(names))}

    def verify(res, ctx):
        p = _payload(res)
        tab = s.view
        env = tuple(tab.parse(p["bindings"][n]) for n in sorted(names))
        want = tab.fmt(oracle.compile_finite(term, slots, tab)(env))
        problems = [] if p["value"] == want else [f"eval {expr}: {p['value']}, oracle {want}"]
        return problems + common_problems(res, p, s, True), 0

    return verify


def rule_list_verify(m):
    def verify(res, ctx):
        listed = [line.split()[0] for line in res.out.splitlines() if line.strip()]
        want = [r.cli_name for r in all_rules(m)]
        ok = res.code == 0 and listed == want
        return ([] if ok else [f"rule --list printed {listed}"]), 0

    return verify


def usage_verify(*needles):
    def verify(res, ctx):
        ok = res.code == 2 and not res.out and all(n in res.err for n in needles)
        return ([] if ok else [f"exit {res.code}, stderr {res.err.strip()[-200:]!r}"]), 0

    return verify


def human_verify(twin_name):
    """A human-output request agrees with its --json twin of the same round."""

    def verify(res, ctx):
        twin = ctx.results.get(twin_name)
        if twin is None or isinstance(twin, BaseException):
            return ["the --json twin did not run"], 0
        p = json.loads(twin.out)
        claims = claims_in(p)
        problems = [] if res.code == twin.code else [f"exit {res.code}, twin {twin.code}"]
        # Human output shows the checked counts of top-level verdicts only;
        # construct shows law names and statuses.
        shown = p.get("checks", []) if "side_conditions" in p else claims
        for c in shown if not twin_name.startswith("construct ") else ():
            if not re.search(rf"\b{c['checked']}\b", res.out):
                problems.append(f"checked {c['checked']} missing from the human output")
        for c in shown:
            if "name" in c and c["name"] not in res.out:
                problems.append(f"{c['name']} missing from the human output")
        if "class" in p and f": {p['class']}" not in res.out:
            problems.append(f"class {p['class']} missing from the human output")
        if "value" in p and res.out.strip() != p["value"]:
            problems.append(f"value {res.out.strip()!r}, twin {p['value']!r}")
        return problems, sum(c["checked"] for c in claims)

    return verify


def claims_in(payload) -> list:
    """Every verdict-shaped dict inside a JSON payload."""
    found = []

    def walk(x):
        if isinstance(x, dict):
            if "checked" in x and "mode" in x:
                found.append(x)
            for v in x.values():
                walk(v)
        elif isinstance(x, list):
            for v in x:
                walk(v)

    walk(payload)
    return found


WORKLOADS = {
    "cli-catalogue": setup_cli_catalogue,
    "finite-exhaustive": setup_finite_exhaustive,
    "derived-construct": setup_derived_construct,
    "procedural-sampled": setup_procedural_sampled,
}
