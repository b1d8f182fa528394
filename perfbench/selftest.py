"""Self-test of the benchmark: its checks pass on the program and fail on corruptions.

Run from the root of a checkout::

    python3 perfbench/selftest.py

Every workload runs one tiny round through all of its output checks, once
untraced and once traced.  Then verdicts and tables are corrupted -- a
flipped status, a counterexample moved to a later valuation, an altered lhs
value, a changed table cell -- and each corruption must be reported.
"""

from __future__ import annotations

import dataclasses
import itertools
import random
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

m = workloads.import_program()
EX = ("exhaustive",)

# The requests of cli-catalogue that expose faults the program has today.
KNOWN_FAULTS = {"cli-catalogue": 2}


class WorkloadRounds(unittest.TestCase):
    def test_every_workload_passes_its_checks(self):
        for name in workloads.WORKLOADS:
            for traced in (False, True):
                with self.subTest(workload=name, traced=traced):
                    out = run.run_round(name, 1, 0, traced, tiny=True)
                    self.assertEqual(out["problems"], [])
                    self.assertTrue(out["correct"])
                    self.assertEqual(out["failed"], KNOWN_FAULTS.get(name, 0))
                    self.assertGreater(out["valuations"], 0)
                    if traced:
                        self.assert_layers_add_up(out["layers"])

    def assert_layers_add_up(self, layers):
        self_total = sum(v for k, v in layers.items() if k.endswith(".self_s"))
        self.assertGreater(self_total, 0)
        self.assertLessEqual(self_total, layers["wall_s"])

    def test_known_faults_are_the_only_failures(self):
        ops = workloads.setup_cli_catalogue(m, 1, 0, True, str(run.OUT / "tmp"))
        faulty = [op.name for op in ops if op.known_fault]
        self.assertEqual(len(faulty), 2)
        self.assertIn("--samples -5", faulty[0])
        self.assertIn("mat:ex9:85", faulty[1])


def refuted(alg, law_name):
    law = next(law for law in workloads.all_laws(m) if law.name == law_name)
    v = m.laws.check_law(alg, law, m.semantics.Exhaustive())
    exp = checks.law_expect(oracle.Tables(alg), alg.name, law, EX)
    return v.to_dict(), exp


class Corruptions(unittest.TestCase):
    def setUp(self):
        self.ex9 = m.instances.make_builtin("ex9")

    def test_real_verdicts_pass(self):
        for law in ("test-idem", "de-morgan", "excluded-middle", "plus-assoc"):
            claim, exp = refuted(self.ex9, law)
            self.assertEqual(checks.claim_problems(claim, exp, deep=True), [])

    def test_flipped_status(self):
        claim, exp = refuted(self.ex9, "test-idem")
        flipped = dict(claim, status="valid")
        self.assertTrue(checks.claim_problems(flipped, exp))
        claim, exp = refuted(self.ex9, "plus-assoc")
        self.assertEqual(claim["status"], "valid")
        self.assertTrue(checks.claim_problems(dict(claim, status="refuted"), exp))
        self.assertTrue(checks.claim_problems(dict(claim, status="sampled-valid"), exp))

    def test_counterexample_moved_later(self):
        claim, exp = refuted(m.instances.make_builtin("luka:5"), "de-morgan")
        tab = exp.view
        slots = {name: i for i, (name, _) in enumerate(exp.variables)}
        lhs = oracle.compile_finite(exp.concl[0], slots, tab)
        rhs = oracle.compile_finite(exp.concl[1], slots, tab)
        domains = [tab.domain(t) for _, t in exp.variables]
        failing = [
            (n, env) for n, env in enumerate(itertools.product(*domains), 1)
            if lhs(env) != rhs(env)
        ]
        self.assertEqual(failing[0][0], claim["checked"])
        # The second failing valuation is a real counterexample, but not the first.
        n, env = failing[1]
        moved = dict(
            claim, checked=n,
            counterexample={name: tab.fmt(x) for (name, _), x in zip(exp.variables, env)},
            lhs_value=tab.fmt(lhs(env)), rhs_value=tab.fmt(rhs(env)),
        )
        self.assertTrue(checks.claim_problems(moved, exp))

    def test_altered_lhs_value(self):
        claim, exp = refuted(self.ex9, "test-idem")
        other = next(n for n in exp.view.names if n != claim["lhs_value"])
        self.assertTrue(checks.claim_problems(dict(claim, lhs_value=other), exp))

    def test_altered_sampled_refutation(self):
        product = m.instances.make_builtin("product")
        law = next(law for law in workloads.all_laws(m) if law.name == "test-idem")
        v = m.laws.check_law(product, law, m.semantics.Sampled(100, 3)).to_dict()
        exp = checks.law_expect(oracle.ProductOps(), "product", law, ("sampled", 100))
        self.assertEqual(v["status"], "refuted")
        self.assertEqual(checks.claim_problems(v, exp), [])
        self.assertTrue(checks.claim_problems(dict(v, lhs_value="1/7"), exp))
        self.assertTrue(checks.claim_problems(dict(v, status="sampled-valid"), exp))

    def test_changed_table_cell(self):
        chain3 = m.instances.make_builtin("chain3")
        alg = m.constructions.mat_algebra(chain3, 2)
        ktab = oracle.Tables(chain3)
        ops, _, _ = workloads.carrier_values("mat", ktab, None, 2)
        tab = oracle.Tables(alg)
        values = [ops.parse(n) for n in tab.names]
        rows = list(range(tab.size))
        self.assertEqual(oracle.table_problems(tab, ops, values, rows), [])
        seq = [list(r) for r in alg.seq_table]
        seq[5][7] = (seq[5][7] + 1) % alg.size
        bad = dataclasses.replace(alg, seq_table=tuple(tuple(r) for r in seq))
        found = oracle.table_problems(oracle.Tables(bad), ops, values, rows)
        self.assertTrue(any("seq cell" in p for p in found), found)

    def test_changed_star_entry(self):
        alg = m.constructions.fset_algebra(m.instances.make_builtin("luka:3"), 2)
        ops, _, _ = workloads.carrier_values("fset", oracle.Tables(m.instances.make_builtin("luka:3")),
                                             None, 2)
        star = list(alg.star_table)
        star[3] = alg.zero
        bad = oracle.Tables(dataclasses.replace(alg, star_table=tuple(star)))
        values = [ops.parse(n) for n in bad.names]
        found = oracle.table_problems(bad, ops, values, list(range(bad.size)))
        self.assertTrue(any("star" in p for p in found), found)

    def test_construct_round_trip_checks(self):
        spec = ("frel", "chain3", "bool2", 1)
        tmp = run.OUT / "tmp"
        tmp.mkdir(parents=True, exist_ok=True)
        res = workloads.construct(m, *spec, str(tmp))
        ctx = workloads.Ctx(random.Random(0), {})
        self.assertEqual(workloads.construct_problems(m, res, spec, ctx, "t")[0], [])
        with open(res.path, "a", encoding="utf-8") as fh:
            fh.write("# appended\n")
        self.assertTrue(workloads.construct_problems(m, res, spec, ctx, "t")[0])


if __name__ == "__main__":
    unittest.main()
