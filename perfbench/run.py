"""End-to-end benchmark of insep.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The inputs of the workload are made from the
seed and written under perfbench/out/.  A round runs every task of the workload
once in a fresh interpreter (perfbench/child.py) through ``cli.run_job`` or
``cli.run_catalog``; a fresh process per round keeps the module-level caches of
``multipoly``, ``frobenius`` and ``ratfunc`` from turning repeats into cache
hits.  Rounds repeat until S seconds have passed; every metric is the median
over the rounds.  After each round SETUP_REPEATS more interpreters only set up
and stop, so that setup_s, the shortest and noisiest metric, is the median of
more samples.  The answers of the first round are checked against
computations made apart from insep (checks.py), and every later round must
give the same report.

The last line of standard output is one JSON object: correct, attempted,
failed and the metrics, the end-to-end ones with --trace 0 and the per-layer
ones with --trace 1.  The line before it is a summary.  Beside the quartiles it
reports the drift probe, a fixed pure-Python loop timed before and after the
rounds, and the share of the machine's CPU time the hypervisor took (steal)
during the rounds, so that a change in the machine's speed can be told apart
from a change in the program.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

# Fixed so that set and dict iteration inside insep, and with it the order of
# work, is the same in every round.
PYTHONHASHSEED = "0"
# a run that is not done by then is stopped, so that it ends within 180 s
RUN_LIMIT_S = 150
MIXED_WORKERS = 2
SETUP_REPEATS = 2

END_TO_END = {"setup_s": "s", "wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}

# per-layer metric -> (layer name in layertrace totals, field)
PER_LAYER = {
    "multipoly.gcd_calls": ("multipoly.gcd", "calls"),
    "multipoly.gcd_s": ("multipoly.gcd", "self_s"),
    "multipoly.mul_calls": ("multipoly.mul", "calls"),
    "ratfunc.new_calls": ("ratfunc.new", "calls"),
    "matrix.K.calls": ("matrix.K.echelon", "calls"),
    "matrix.K.cells": ("matrix.K.echelon", "cells"),
    "matrix.K.echelon_s": ("matrix.K.echelon", "self_s"),
    "matrix.Fp.calls": ("matrix.Fp.echelon", "calls"),
    "matrix.Fp.cells": ("matrix.Fp.echelon", "cells"),
    "matrix.Fp.echelon_s": ("matrix.Fp.echelon", "self_s"),
    "extension.mul_calls": ("extension.mul", "calls"),
    "extension.mul_s": ("extension.mul", "self_s"),
    "parser.parse_calls": ("parser.parse", "calls"),
    "parser.parse_s": ("parser.parse", "self_s"),
    "frobenius.decompose_calls": ("frobenius.decompose", "calls"),
    "frobenius.decompose_s": ("frobenius.decompose", "self_s"),
    "frobenius.pspan_calls": ("frobenius.pspan", "calls"),
    "frobenius.pspan_s": ("frobenius.pspan", "self_s"),
    "frobenius.pdegree_s": ("frobenius.pdegree", "self_s"),
    "fermat.classify_s": ("fermat.classify", "self_s"),
    "fermat.rational_point_s": ("fermat.rational_point", "self_s"),
    "groebner.buchberger_calls": ("groebner.buchberger", "calls"),
    "groebner.buchberger_s": ("groebner.buchberger", "self_s"),
    "groebner.spoly_calls": ("groebner.spoly", "calls"),
    "groebner.normal_form_calls": ("groebner.normal_form", "calls"),
    "curves.normalization_s": ("curves.normalization", "self_s"),
    "curves.singular_point_s": ("curves.singular_point", "self_s"),
    "curves.conductor_s": ("curves.conductor", "self_s"),
    "curves.cohomology_s": ("curves.cohomology", "self_s"),
    "artin.construct_calls": ("artin.construct", "calls"),
    "artin.construct_s": ("artin.construct", "self_s"),
    "artin.mul_vec_calls": ("artin.mul_vec", "calls"),
    "artin.edim_s": ("artin.edim", "self_s"),
    "cli.validate_s": ("cli.validate", "self_s"),
    "cli.task_s": ("cli.task", "self_s"),
}
# traced wall_s, and traced minus untraced wall_s, both at one worker
TRACE_METRICS = {"trace.wall_s": "s", "trace.overhead_s": "s"}


def monotonic():
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def steal_ticks():
    """(steal, total) CPU ticks of the machine so far, from /proc/stat."""
    with open("/proc/stat") as fh:
        ticks = [int(x) for x in fh.readline().split()[1:]]
    return ticks[7], sum(ticks)


def drift_probe():
    """Seconds for a fixed pure-Python loop that does not touch insep."""
    start = time.perf_counter()
    acc = 0
    for i in range(2_000_000):
        acc = (acc * 31 + i) % 1_000_003
    return time.perf_counter() - start


def prepare(workload, seed, out):
    """Write the workload's inputs under out; returns (plan, inputs for the checks).

    The inputs for the checks are the catalog entries for ``catalog``, and
    otherwise (jobs, {catalog path: entries}) for the verify-all task of ``mixed``.
    """
    shipped_path = ROOT / "src" / "insep" / "data" / "catalog.json"
    with open(shipped_path) as fh:
        shipped = json.load(fh)
    if workload == "catalog":
        entries = workloads.catalog_entries(shipped, seed)
        path = out / "catalog.json"
        workloads.write_json(path, entries)
        return {"mode": "catalog", "inputs": [str(path)], "workers": 1}, entries
    if workload == "mixed":
        cat_path = out / "mixed-catalog.json"
        job, entries = workloads.mixed_job(seed, shipped, str(cat_path))
        workloads.write_json(cat_path, entries)
        jobs = [job]
        workers = MIXED_WORKERS
        extra = {str(cat_path): entries}
    else:
        jobs = workloads.pspan_jobs(seed) if workload == "pspan" else workloads.artin_jobs(seed)
        workers = 1
        extra = {}
    paths = []
    for i, job in enumerate(jobs):
        path = out / ("job-%d.json" % i)
        workloads.write_json(path, job)
        paths.append(str(path))
    return {"mode": "jobs", "inputs": paths, "workers": workers}, (jobs, extra)


def run_round(plan_path, result_path, spans_path=None, deadline=None):
    """Run child.py once; returns its result with the measured times added."""
    env = dict(os.environ, PYTHONHASHSEED=PYTHONHASHSEED, PYTHONPATH=str(ROOT / "src"))
    cmd = [sys.executable, str(HERE / "child.py"), str(plan_path), str(result_path)]
    if spans_path:
        cmd.append(str(spans_path))
    result_path.unlink(missing_ok=True)
    log_path = result_path.with_suffix(".log")
    with open(log_path, "w") as log:
        spawned = monotonic()
        proc = subprocess.Popen(cmd, cwd=str(ROOT), env=env, stdin=subprocess.DEVNULL,
                                stdout=log, stderr=log)
        status, usage = _wait(proc, deadline or spawned + RUN_LIMIT_S)
    if status != 0:
        lines = log_path.read_text().strip().splitlines() or ["(no output)"]
        raise RoundFailed("round exited with %d: %s" % (status, lines[-1]))
    with open(result_path) as fh:
        result = json.load(fh)
    insep_dir = Path(result["insep_file"]).resolve().parent
    if insep_dir != (ROOT / "src" / "insep").resolve():
        raise RoundFailed("round imported insep from %s, not from this checkout" % insep_dir)
    result["setup_s"] = result["t0"] - spawned
    if "t1" in result:
        result["wall_s"] = result["t1"] - result["t0"]
        # wait4 usage covers the child and every descendant it waited for (pool workers)
        result["cpu_s"] = usage.ru_utime + usage.ru_stime
        result["peak_rss_mb"] = result["peak_rss_kb"] / 1024.0
    return result


class RoundFailed(RuntimeError):
    pass


def _wait(proc, deadline):
    """Reap proc with wait4 (for its resource usage), killing it at the deadline."""
    while True:
        pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
        if pid:
            proc.returncode = os.waitstatus_to_exitcode(status)
            return proc.returncode, usage
        if monotonic() > deadline:
            proc.kill()
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
            raise RoundFailed("the run did not finish within %d s" % RUN_LIMIT_S)
        time.sleep(0.01)


def strip_timing(obj):
    if isinstance(obj, dict):
        return {k: strip_timing(v) for k, v in obj.items()
                if k not in ("seconds", "total_seconds")}
    if isinstance(obj, list):
        return [strip_timing(v) for v in obj]
    return obj


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "insep" / "cli.py").is_file():
        print("error: no insep sources under %s" % (ROOT / "src"), file=sys.stderr)
        return 2

    out = OUT / ("%s-%d" % (args.workload, args.seed))
    out.mkdir(parents=True, exist_ok=True)
    plan, inputs = prepare(args.workload, args.seed, out)
    if args.trace:
        plan["workers"] = 1
    plan_path, setup_plan_path = out / "plan.json", out / "plan-setup.json"
    workloads.write_json(plan_path, dict(plan, setup_only=False))
    workloads.write_json(setup_plan_path, dict(plan, setup_only=True))

    probe_before = drift_probe()
    steal_before = steal_ticks()
    rounds, traced, setups = [], [], []
    start = monotonic()
    deadline = start + RUN_LIMIT_S
    try:
        while True:
            # a traced run alternates plain and traced rounds, for the overhead
            if args.trace and len(rounds) > len(traced):
                traced.append(run_round(plan_path, out / "result-traced.json",
                                        out / "spans.json", deadline))
            else:
                rounds.append(run_round(plan_path, out / "result.json", deadline=deadline))
                if not args.trace:
                    setups += [run_round(setup_plan_path, out / "result-setup.json",
                                         deadline=deadline) for _ in range(SETUP_REPEATS)]
            done = monotonic() - start >= args.seconds
            if done and (not args.trace or traced):
                break
    except RoundFailed as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    steal_after = steal_ticks()
    probe_after = drift_probe()
    steal_share = ((steal_after[0] - steal_before[0])
                   / max(1, steal_after[1] - steal_before[1]))

    # sympy is imported only now: a large parent would make every fork slower
    import checks

    first = rounds[0]["reports"]
    attempted_per_round, failed_per_round, problems = checks.check_workload(
        args.workload, inputs, first)
    reference = strip_timing(first)
    for r in rounds[1:] + traced:
        if strip_timing(r["reports"]) != reference:
            problems.append("a later round's report differs from the first round's")
            break
    for problem in problems[:20]:
        print("check failed: %s" % problem, file=sys.stderr)
    n_rounds = len(rounds) + len(traced)

    summary = {}
    if args.trace:
        metrics = per_layer_metrics(rounds, traced, summary)
    else:
        metrics = {}
        for name, unit in END_TO_END.items():
            values = [r[name] for r in (rounds + setups if name == "setup_s" else rounds)]
            q1, med, q3 = quartiles(values)
            metrics[name] = {"value": med, "unit": unit}
            summary[name] = [round(q1, 6), round(med, 6), round(q3, 6)]
        summary["rounds"] = {name: [round(r[name], 4) for r in rounds] for name in END_TO_END}
    print(json.dumps({"workload": args.workload, "seed": args.seed, "rounds": n_rounds,
                      "summary": summary,
                      "drift_probe_s": {"before": probe_before, "after": probe_after},
                      "steal_share": round(steal_share, 4)},
                     sort_keys=True))
    print(json.dumps({"correct": not problems,
                      "attempted": attempted_per_round * n_rounds,
                      "failed": failed_per_round * n_rounds,
                      "metrics": metrics}))
    return 0


def per_layer_metrics(untraced, traced, summary):
    metrics = {}
    for name, (layer, field) in PER_LAYER.items():
        values = [r["layers"][layer][field] for r in traced]
        unit = "s" if field == "self_s" else "count"
        metrics[name] = {"value": statistics.median(values), "unit": unit}
    traced_wall = statistics.median(r["wall_s"] for r in traced)
    plain_wall = statistics.median(r["wall_s"] for r in untraced)
    metrics["trace.wall_s"] = {"value": traced_wall, "unit": "s"}
    metrics["trace.overhead_s"] = {"value": traced_wall - plain_wall, "unit": "s"}
    # share of the last traced round's wall time per layer (self time)
    last = traced[-1]
    summary["self_share"] = {
        layer: round(v["self_s"] / last["wall_s"], 4)
        for layer, v in sorted(last["layers"].items()) if "self_s" in v}
    return metrics


if __name__ == "__main__":
    sys.exit(main())
