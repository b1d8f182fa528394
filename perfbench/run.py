"""Benchmark of the gkat workbench: four workloads, end-to-end and per layer.

Run from the root of a checkout::

    python3 perfbench/run.py --workload finite-exhaustive --seed 1 --trace 0
    python3 perfbench/run.py --workload all --seed 1

A run repeats whole rounds of its workload's fixed list of operations until
``--seconds`` have passed (by default ``run_seconds`` of BENCHMARK.json),
and at least MIN_ROUNDS rounds.  Every round runs in a fresh process, one
operation at a time: it imports the package from ``src/``, sets up its
inputs, runs and times the operations, checks every output against the
oracle, and reports back.  The last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  A traced run alternates untraced and traced rounds; a traced
round records spans from after the import to the end of its operations, and
the difference between that window in traced and untraced rounds, in
reference seconds, is the tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import random
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

import workloads  # noqa: E402  (the benchmark's own module, beside this file)

MIN_ROUNDS = 3
ROUND_TIMEOUT_S = 120
# The machine's speed drifts by up to 2x over minutes, as other tenants load
# it, and that drift swamped the run-to-run spread of raw times.  So each
# end-to-end time is reported in reference seconds: the measured time scaled
# by CAL_REF_S over the time of a fixed calibration kernel (``calibrate``)
# measured around it, at most CAL_EVERY_S of operations apart.  Raw times
# are printed beside them; per-layer times stay raw.
CAL_REF_S = 0.015
CAL_EVERY_S = 0.25
TAIL_LADDER = (0.5, 0.75, 0.9, 0.95, 0.99, 0.999)

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "ops_per_s": "1/s",
    "valuations_per_s": "1/s",
    "latency_ms.p50": "ms",
    "latency_ms.tail": "ms",
    "peak_rss_mb": "MB",
}
PER_LAYER_UNITS = {
    "terms.self_s": "s",
    "instances.self_s": "s",
    "algfile.self_s": "s",
    "algfile.mb_per_s": "MB/s",
    "algebra.self_s": "s",
    "algebra.validate_s": "s",
    "algebra.fingerprint_s": "s",
    "algebra.fingerprints_per_op": "count",
    "constructions.self_s": "s",
    "constructions.mat_mul_calls": "count",
    "constructions.cells_per_s": "1/s",
    "semantics.self_s": "s",
    "semantics.ns_per_valuation": "ns",
    "semantics.us_per_check": "us",
    "laws.self_s": "s",
    "hoare.self_s": "s",
    "cli.self_s": "s",
    "trace.wall_s": "s",
    "trace.unattributed_s": "s",
    "trace.overhead_s": "s",
}


class RunError(Exception):
    """A round could not run; the benchmark prints no result."""


# -- one round, in its own process -------------------------------------------------------


def calibrate() -> float:
    """Time one pass of a fixed pure-Python kernel: the machine's momentary speed."""
    start = perf_counter()
    table = {i: (i * 7) % 13 for i in range(64)}
    keys = tuple(range(64))
    acc = 0
    for k in range(5000):
        row = tuple(table[keys[(k + j) & 63]] for j in range(4))
        acc += len(",".join(map(str, row))) + max(row)
    return perf_counter() - start


def run_round(workload: str, seed: int, round_no: int, traced: bool, tiny: bool) -> dict:
    sys.path.insert(0, str(ROOT / "src"))
    cal_prev = calibrate()
    start = perf_counter()
    m = workloads.import_program()
    if Path(m.pkg.__file__).resolve().parent.parent != (ROOT / "src").resolve():
        raise RunError(f"gkat_workbench was imported from {m.pkg.__file__}, not from src/")
    tmpdir = OUT / "tmp"
    tmpdir.mkdir(parents=True, exist_ok=True)
    # The traced window covers set-up and operations; it starts after the
    # import, which the tracer needs to have happened.
    imported = perf_counter()
    tracer = None
    if traced:
        from spans import Tracer

        tracer = Tracer(m)
        tracer.install()
    ops = workloads.WORKLOADS[workload](m, seed, round_no, tiny, str(tmpdir))
    ready = perf_counter()
    if len({op.name for op in ops}) != len(ops):
        raise RunError(f"{workload}: operation names are not unique")

    # The calibration kernel runs before the import, after set-up and every
    # CAL_EVERY_S between operations; each stretch of measured time is
    # scaled by CAL_REF_S over the mean of the two kernel times around it.
    # The kernel calls nothing of the program, so a traced round records no
    # span for it.
    calibrations = [cal_prev, calibrate()]
    to_ref = CAL_REF_S * 2 / (calibrations[0] + calibrations[-1])
    setup = (ready - start, (ready - start) * to_ref)

    # An untraced round checks each result as soon as it is timed, outside
    # the timed region, and keeps only the results that other checks read,
    # so that its peak memory is the program's, not the sum of every
    # operation's output.  A traced round checks its results after the
    # tracer is removed, so that no check is traced.
    order = list(range(len(ops)))
    random.Random(f"order:{workload}:{seed}:{round_no}").shuffle(order)
    read_later = {op.after for op in ops if op.after is not None}
    results, pending, findings = {}, [], []
    latencies, scaled, stretch = [], [], []
    ctx = workloads.Ctx(random.Random(f"verify:{workload}:{seed}:{round_no}"), results)
    mark = perf_counter()

    def close_stretch():
        cal = calibrate()
        factor = CAL_REF_S * 2 / (calibrations[-1] + cal)
        scaled.extend(latencies[k] * factor for k in stretch)
        calibrations.append(cal)
        stretch.clear()

    def check(op, result):
        try:
            found, total = op.verify(result, ctx)
        except Exception as exc:
            found, total = [f"{op.name}: check raised {type(exc).__name__}: {exc}"[:300]], 0
        findings.append((op, isinstance(result, BaseException), found, total))

    for i in order:
        op = ops[i]
        if tracer is not None:
            tracer.op = i
        if stretch and perf_counter() - mark >= CAL_EVERY_S:
            close_stretch()
            mark = perf_counter()
        t0 = perf_counter()
        try:
            result = op.run()
        except Exception as exc:  # recorded and checked like any other result
            result = exc
        latencies.append(perf_counter() - t0)
        stretch.append(len(latencies) - 1)
        if op.name in read_later:
            results[op.name] = result
        if tracer is None and op.after is None:
            check(op, result)
        else:
            pending.append((op, result))
        del result
    close_stretch()
    if tracer is not None:
        tracer.uninstall()
    window_s = ready - imported + sum(latencies)
    window_ref_s = (ready - imported) * to_ref + sum(scaled)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    for op, result in pending:
        check(op, result)

    problems, failed, valuations = [], 0, 0
    for op, raised, found, total in findings:
        valuations += total
        if op.known_fault:
            failed += bool(found)
            continue
        if raised and found:
            failed += 1
        problems += found
    out = {
        "setup_s": setup[1],
        "setup_raw_s": setup[0],
        "wall_s": sum(scaled),
        "wall_raw_s": sum(latencies),
        "window_s": window_s,
        "window_ref_s": window_ref_s,
        "latencies": scaled,
        "calibration_s": statistics.median(calibrations),
        "attempted": len(ops),
        "failed": failed,
        "valuations": valuations,
        "rss_mb": rss_mb,
        "problems": problems[:20],
        "correct": not problems,
        "makeup": ctx.makeup(),
    }
    if tracer is not None:
        out["layers"] = tracer.summary(window_s, len(ops))
        tracer.write(str(OUT / f"trace-{workload}-seed{seed}-round{round_no}.json.gz"))
    return out


# -- a run: rounds in fresh processes, then the metrics ----------------------------------


def spawn_round(workload, seed, round_no, traced) -> dict:
    argv = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
            "--seed", str(seed), "--trace", str(int(traced)), "--round", str(round_no)]
    try:
        proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True,
                              timeout=ROUND_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise RunError(f"{workload} round {round_no} did not end within {ROUND_TIMEOUT_S} s")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RunError(f"{workload} round {round_no} exited {proc.returncode}:\n"
                       + proc.stderr.strip()[-2000:])
    return json.loads(lines[-1])


def tail_quantile(ops_per_round: int) -> float:
    """The highest ladder percentile with at least 10 operations beyond it.

    It is fixed per workload from the smallest run (MIN_ROUNDS rounds), so
    every run reports the same percentile whatever its length.  A run repeats
    each operation once per round, so a percentile q of m operations per
    round falls among the repeats of one operation when m*q is not a whole
    number; the workloads are sized so (see README.md).
    """
    n = ops_per_round * MIN_ROUNDS
    return max((q for q in TAIL_LADDER if n * (1 - q) >= 10), default=0.5)


def quantile(values, q: float) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=1000, method="inclusive")[round(q * 1000) - 1]


def end_to_end(rounds: list[dict]) -> tuple[dict, list[str]]:
    """The end-to-end metrics; times and rates are medians over rounds."""
    lat = [x * 1000 for r in rounds for x in r["latencies"]]
    q = tail_quantile(rounds[0]["attempted"])
    values = {
        "setup_s": statistics.median(r["setup_s"] for r in rounds),
        "wall_s": statistics.median(r["wall_s"] for r in rounds),
        "ops_per_s": statistics.median((r["attempted"] - r["failed"]) / r["wall_s"]
                                       for r in rounds),
        "valuations_per_s": statistics.median(r["valuations"] / r["wall_s"] for r in rounds),
        "latency_ms.p50": statistics.median(lat),
        "latency_ms.tail": quantile(lat, q),
        "peak_rss_mb": max(r["rss_mb"] for r in rounds),
    }
    notes = [
        f"latency_ms.tail is p{q * 100:g} of {len(lat)} operations",
        "times in reference seconds; measured: setup_s %.4g s, wall_s %.4g s;"
        " calibration kernel %.2f ms against %.2f ms" % (
            statistics.median(r["setup_raw_s"] for r in rounds),
            statistics.median(r["wall_raw_s"] for r in rounds),
            statistics.median(r["calibration_s"] for r in rounds) * 1000, CAL_REF_S * 1000),
    ]
    return values, notes


def per_layer(traced: list[dict], plain: list[dict]) -> dict:
    n = len(traced)
    total = {}
    for r in traced:
        for key, value in r["layers"].items():
            total[key] = total.get(key, 0) + value
    mean = {key: value / n for key, value in total.items()}
    self_keys = [k for k in PER_LAYER_UNITS if k.endswith(".self_s")]
    values = {k: mean[k] for k in self_keys}
    values.update({
        "algfile.mb_per_s": _ratio(total["bytes"] / 1e6, total["algfile.self_s"]),
        "algebra.validate_s": mean["algebra.validate_s"],
        "algebra.fingerprint_s": mean["algebra.fingerprint_s"],
        "algebra.fingerprints_per_op": total["fingerprints"] / total["ops"],
        "constructions.mat_mul_calls": mean["mat_mul_calls"],
        "constructions.cells_per_s": _ratio(total["cells"], total["constructions.self_s"]),
        "semantics.ns_per_valuation": _ratio(total["semantics.self_s"] * 1e9, total["valuations"]),
        "semantics.us_per_check": _ratio(total["semantics.self_s"] * 1e6, total["checks"]),
        "trace.wall_s": mean["wall_s"],
        "trace.unattributed_s": mean["wall_s"] - sum(values[k] for k in self_keys),
        "trace.overhead_s": statistics.median(r["window_ref_s"] for r in traced)
        - statistics.median(r["window_ref_s"] for r in plain),
    })
    return values


def _ratio(a, b):
    return a / b if b else 0.0


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    rounds = []
    start = perf_counter()
    while (perf_counter() - start < seconds or len(rounds) < MIN_ROUNDS):
        traced = trace and len(rounds) % 2 == 1
        rounds.append(spawn_round(workload, seed, len(rounds), traced))
    plain = [r for r in rounds if "layers" not in r]
    traced = [r for r in rounds if "layers" in r]
    problems = [p for r in rounds for p in r["problems"]]
    for p in problems[:20]:
        print(f"CHECK FAILED: {p}", file=sys.stderr)
    if trace:
        values, units, notes = per_layer(traced, plain), PER_LAYER_UNITS, []
    else:
        values, notes = end_to_end(plain)
        units = END_TO_END_UNITS
    result = {
        "correct": all(r["correct"] for r in rounds),
        "attempted": sum(r["attempted"] for r in rounds),
        "failed": sum(r["failed"] for r in rounds),
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
    }
    print(f"{workload}: seed {seed}, {len(rounds)} rounds"
          f" ({len(traced)} traced), {result['attempted']} operations attempted,"
          f" {result['failed']} failed, correct={result['correct']}")
    print(f"  make-up: {json.dumps(rounds[0]['makeup'])}")
    for key, metric in result["metrics"].items():
        print(f"  {key} = {metric['value']:.6g} {metric['unit']}")
    for note in notes:
        print(f"  ({note})")
    return result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=(*workloads.WORKLOADS, "all"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, help="run length; run_seconds of BENCHMARK.json")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--round", type=int, help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    try:
        if args.round is not None:
            out = run_round(args.workload, args.seed, args.round, bool(args.trace), tiny=False)
            print(json.dumps(out))
            return 0
        seconds = args.seconds
        if seconds is None:
            seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
        names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
        results = {w: run_workload(w, args.seed, seconds, bool(args.trace)) for w in names}
    except (RunError, ImportError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    if len(names) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}/{k}": v for w, r in results.items() for k, v in r["metrics"].items()},
        }
    OUT.mkdir(parents=True, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"result-{tag}.json").write_text(json.dumps(final, indent=1) + "\n")
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
