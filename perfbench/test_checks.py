"""Tests of the benchmark itself: every answer check accepts insep's answer and
rejects a corrupted one, the layer trace reports every layer, and the benchmark
refuses to run without the program.

    python3 -m pytest perfbench/test_checks.py
"""

import copy
import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from insep import cli  # noqa: E402

SHIPPED = json.loads((ROOT / "src" / "insep" / "data" / "catalog.json").read_text())


def answer(field, task):
    report = cli.run_job({"field": field, "tasks": [task]})
    record = report["tasks"][0]
    assert record["ok"], record
    return record


def assert_rejects(field, task, record, corrupt):
    assert checks.check_task(field, task, record, {}) == []
    bad = copy.deepcopy(record)
    corrupt(bad["result"])
    assert checks.check_task(field, task, bad, {}) != []


def bump(key):
    def corrupt(result):
        result[key] = result[key] + 1
    return corrupt


def test_jacobian_rank_of_the_f7_pdegree_case():
    F = checks.Field(7, ["s", "t"])
    elems = F.elements(["(6*s*t+5*t)/s", "(4*t+2)/(s*t)", "s/(s+3*t)"])
    assert F.jacobian_rank(elems) == 2
    assert F.jacobian_rank(F.elements(["s^7", "t^7*s^14"])) == 0


def test_p_independence():
    F = checks.Field(3, ["s", "t"])
    assert F.p_independent(F.elements(["s", "t", "1"]))
    assert not F.p_independent(F.elements(["s", "s*(t+1)^3", "1"]))
    assert not F.p_independent(F.elements(["s/(t+1)", "t", "s*(t+1)^2+t*s^3"]))


ST3 = {"p": 3, "vars": ["s", "t"]}


def test_pdegree_check():
    task = {"kind": "pdegree", "exprs": ["s*t+1", "(t+2)/s", "s^3*t"]}
    assert_rejects(ST3, task, answer(ST3, task), bump("d"))


def test_classify_check_rejects_wrong_d_verdict_and_point():
    task = {"kind": "classify", "lambda": ["s+t", "(s+t)*(t+1)^3", "1"]}
    record = answer(ST3, task)
    assert record["result"]["rational_point"] is not None
    assert_rejects(ST3, task, record, bump("d"))

    def other_verdict(result):
        result["verdict"] = "Regular"
    assert_rejects(ST3, task, record, other_verdict)

    def perturb_point(result):
        result["rational_point"][0] = "(%s)+1" % result["rational_point"][0]
    assert_rejects(ST3, task, record, perturb_point)


def test_rational_point_check():
    dependent = {"kind": "rational-point", "lambda": ["s+1", "t", "(s+1)*(s+2)^3+t*(t+1)^3"]}
    record = answer(ST3, dependent)

    def perturb_point(result):
        result["point"][1] = "(%s)*s" % result["point"][1]
    assert_rejects(ST3, dependent, record, perturb_point)

    def drop_point(result):
        result["point"] = None
    assert_rejects(ST3, dependent, record, drop_point)

    independent = {"kind": "rational-point", "lambda": ["s+1", "t^2+s", "t"]}
    record = answer(ST3, independent)
    assert record["result"]["point"] is None

    def invent_point(result):
        result["point"] = ["1", "1", "1"]
        result["p_linear_independent"] = False
    assert_rejects(ST3, independent, record, invent_point)


def test_verify_codim_check():
    task = {"kind": "verify-codim", "lambda": ["s+1", "t", "1"]}
    assert_rejects(ST3, task, answer(ST3, task), bump("predicted_d"))


def test_curve_checks():
    rng = random.Random(5)
    for shape, (kind, corrupt) in enumerate([("curve-normalize", lambda r: r.__setitem__("Q", r["Q"] + "+s")),
                          ("curve-singular", bump("residue_degree")),
                          ("curve-conductor", lambda r: r.__setitem__("case", "P2")),
                          ("curve-cohomology", bump("h1"))]):
        task = {"kind": kind, "lambda": workloads.curve_triple(rng, 3, shape)}
        assert_rejects(ST3, task, answer(ST3, task), corrupt)


def test_artin_checks():
    rng = random.Random(3)
    field = {"p": 2, "vars": ["s"]}
    for algebra in [workloads.adjoin_root_algebra(rng, 3, [2, 3], 1, True),
                    workloads.tensor_self_algebra(rng, *workloads.ARTIN_TENSOR[0])]:
        task = {"kind": "artin-edim", "algebra": algebra}
        record = answer(field, task)
        assert_rejects(field, task, record, bump("edim"))
        assert_rejects(field, task, record, bump("dim"))


def test_catalog_check():
    entries = workloads.catalog_entries(SHIPPED, 4)[:5]
    report = cli.run_catalog(entries)
    assert checks.check_catalog_report(entries, report) == []
    bad = copy.deepcopy(report)
    bad["entries"][2]["d"] += 1
    assert checks.check_catalog_report(entries, bad) != []
    bad = copy.deepcopy(report)
    bad["entries"][0]["verdict"] = "NonreducedEverywhere" if bad["entries"][0]["d"] else "Regular"
    assert checks.check_catalog_report(entries, bad) != []


def test_inputs_depend_only_on_the_seed():
    assert workloads.pspan_jobs(7) == workloads.pspan_jobs(7)
    assert workloads.pspan_jobs(7) != workloads.pspan_jobs(8)
    assert workloads.artin_jobs(7) == workloads.artin_jobs(7)
    assert workloads.mixed_job(7, SHIPPED, "c.json") == workloads.mixed_job(7, SHIPPED, "c.json")


def test_mixed_report_is_the_same_at_one_and_two_workers(tmp_path):
    path = str(tmp_path / "catalog.json")
    job, entries = workloads.mixed_job(2, SHIPPED, path)
    workloads.write_json(path, entries)
    kinds = {t["kind"] for t in job["tasks"]}
    assert kinds == set(cli.TASK_KINDS)
    one = cli.run_job(job, jobs=1)
    two = cli.run_job(job, jobs=2)
    assert one["ok"]
    assert run.strip_timing(one) == run.strip_timing(two)


def test_benchmark_json_names_every_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    layer_units = {name: "s" if field == "self_s" else "count"
                   for name, (_, field) in run.PER_LAYER.items()}
    layer_units.update(run.TRACE_METRICS)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == layer_units


def test_traced_round_reports_every_layer(tmp_path):
    job = {"field": ST3, "tasks": [
        {"kind": "classify", "lambda": ["s+t", "(t+1)/s", "1"]},
        {"kind": "artin-edim", "algebra": workloads.adjoin_root_algebra(
            random.Random(1), 2, [2, 2], 1, False)}]}
    workloads.write_json(tmp_path / "job.json", job)
    plan = {"mode": "jobs", "inputs": [str(tmp_path / "job.json")], "workers": 1,
            "setup_only": False}
    workloads.write_json(tmp_path / "plan.json", plan)
    result = run.run_round(tmp_path / "plan.json", tmp_path / "result.json",
                           tmp_path / "spans.json")
    layers = result["layers"]
    for layer, field in run.PER_LAYER.values():
        assert field in layers[layer]
    assert layers["cli.task"]["calls"] == 2
    assert layers["multipoly.gcd"]["calls"] > 0 and layers["artin.construct"]["calls"] == 2
    spans = json.loads((tmp_path / "spans.json").read_text())["spans"]
    assert {s[0] for s in spans} == {-1, 0, 1}  # set-up, then one key per task


def test_missing_trace_target_names_itself(monkeypatch):
    import layertrace

    monkeypatch.setattr(layertrace, "SPANS", [("x.gone", "insep.frobenius", "no_such_function")])
    with pytest.raises(layertrace.MissingTarget, match="insep.frobenius.no_such_function"):
        layertrace.install()


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "pspan",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
