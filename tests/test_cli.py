import errno
import io
import json
import os
import select
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import insep
from insep.catalog import check_catalog_entry, load_default_catalog
from insep import catalog, cli
from insep.cli import JobValidationError, _worker_count, main, run_catalog, run_job, strip_timing
from insep.fieldarith import FunctionField, parse_expr


def canonical(report):
    return json.dumps(strip_timing(report), sort_keys=True)


def test_run_job_classify():
    job = {"field": {"p": 2, "vars": ["x", "y"]},
           "tasks": [{"kind": "classify", "lambda": ["x", "y", "1"]}]}
    report = run_job(job)
    assert report["ok"]
    result = report["tasks"][0]["result"]
    assert result["d"] == 2
    assert result["verdict"] == "Regular"
    assert result["rational_point"] is None


def test_empty_task_list():
    report = run_job({"field": {"p": 2, "vars": ["t"]}, "tasks": []})
    assert report["ok"]
    assert report["tasks"] == []


def test_malformed_expression_fails_validation():
    job = {"field": {"p": 2, "vars": ["t"]},
           "tasks": [{"kind": "classify", "lambda": ["t", "s+", "1"]}]}
    with pytest.raises(JobValidationError):
        run_job(job)


def test_unknown_task_kind_rejected():
    job = {"field": {"p": 2, "vars": ["t"]}, "tasks": [{"kind": "frobnicate"}]}
    with pytest.raises(JobValidationError):
        run_job(job)


def test_task_failure_is_isolated():
    job = {"field": {"p": 2, "vars": ["s", "t"]},
           "tasks": [
               {"kind": "curve-normalize", "lambda": ["s^2", "t^2", "1"]},  # d = 0
               {"kind": "pdegree", "exprs": ["s", "t"]},
           ]}
    report = run_job(job)
    assert not report["ok"]
    assert not report["tasks"][0]["ok"]
    assert report["tasks"][0]["error"]["type"] == "WrongInvariantError"
    assert report["tasks"][1]["ok"]
    assert report["tasks"][1]["result"]["d"] == 2


def test_fail_fast_stops():
    job = {"field": {"p": 2, "vars": ["s", "t"]},
           "tasks": [
               {"kind": "curve-normalize", "lambda": ["s^2", "t^2", "1"]},
               {"kind": "pdegree", "exprs": ["s", "t"]},
           ]}
    report = run_job(job, fail_fast=True)
    assert len(report["tasks"]) == 1


def test_reports_deterministic_across_runs_and_jobs():
    job = {"field": {"p": 3, "vars": ["s", "t"]},
           "tasks": [
               {"kind": "classify", "lambda": ["t", "s^3*t", "1"]},
               {"kind": "curve-conductor", "lambda": ["t", "s^3*t", "1"]},
               {"kind": "pdegree", "exprs": ["s", "t", "s*t"]},
               {"kind": "verify-codim", "lambda": ["t", "t^2", "1"]},
           ]}
    a = canonical(run_job(job, jobs=1))
    b = canonical(run_job(job, jobs=1))
    c = canonical(run_job(job, jobs=4))
    assert a == b == c


def test_worker_count_is_clamped():
    # the CPUs this process may run on, which an affinity mask can make fewer
    if hasattr(os, "sched_getaffinity"):
        mask = sorted(os.sched_getaffinity(0))
        cpus = len(mask)
    else:
        mask, cpus = None, os.cpu_count() or 1
    assert _worker_count(10**9, 3) == (min(3, cpus), mask)
    assert _worker_count(10**9, 10**9) == (cpus, mask)
    assert _worker_count(4, 0) == (1, mask)
    assert _worker_count(0, 5) == (1, mask)


def test_worker_count_follows_affinity_and_needs_fork(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 3, 5}, raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    assert _worker_count(10**9, 10**9) == (3, [0, 3, 5])
    # without an affinity mask, the CPUs of the machine
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    assert _worker_count(10**9, 10**9) == (8, None)
    assert _worker_count(5, 10**9) == (5, None)
    monkeypatch.delattr(os, "fork", raising=False)
    assert _worker_count(10**9, 10**9) == (1, None)


@pytest.fixture
def allow_cpus(monkeypatch, tmp_path):
    """allow_cpus(cpus) fakes cpus as the affinity mask, so _worker_count starts up to
    len(cpus) workers whatever the CPUs of this machine.  The fake os.sched_setaffinity
    takes a non-empty subset of cpus, and with refuse=True raises EINVAL on every call.
    It returns pins(): the [pid, sorted CPUs] of every call so far, from any process."""
    log = tmp_path / "sched_setaffinity.log"

    def allow(cpus, refuse=False):
        allowed = frozenset(cpus)
        current = set(allowed)  # each forked process has its own copy, as with a real mask

        def getaffinity(pid):
            return set(current)

        def setaffinity(pid, mask):
            mask = set(mask)
            with open(log, "a") as f:
                f.write(json.dumps([os.getpid(), sorted(mask)]) + "\n")
            if refuse or not mask or not mask <= allowed:
                raise OSError(errno.EINVAL, os.strerror(errno.EINVAL))
            current.clear()
            current.update(mask)

        log.write_text("")
        monkeypatch.setattr(os, "sched_getaffinity", getaffinity, raising=False)
        monkeypatch.setattr(os, "sched_setaffinity", setaffinity, raising=False)
        return lambda: [json.loads(line) for line in log.read_text().splitlines()]

    return allow


def test_records_are_the_same_at_one_two_and_three_workers(tmp_path, allow_cpus):
    allow_cpus(range(3))
    path = tmp_path / "catalog.json"
    path.write_text(json.dumps(load_default_catalog()[:2]))
    job = {"field": {"p": 3, "vars": ["s", "t"]},
           "tasks": [{"kind": "pdegree", "exprs": ["s", "t", "s*t"]},
                     {"kind": "curve-normalize", "lambda": ["s^3", "t^3", "1"]},  # d = 0
                     {"kind": "verify-all", "catalog": str(path)},
                     {"kind": "classify", "lambda": ["t", "s^3*t", "1"]},
                     {"kind": "rational-point", "lambda": ["t", "t", "1"]},
                     {"kind": "verify-codim", "lambda": ["t", "t^2", "1"]}]}
    reports = [strip_timing(run_job(job, jobs=jobs)) for jobs in (1, 2, 3)]
    assert reports[0]["tasks"][1]["error"]["type"] == "WrongInvariantError"
    assert reports[0]["tasks"][2]["result"]["ok"]
    assert [t["kind"] for t in reports[0]["tasks"]] == [t["kind"] for t in job["tasks"]]
    # the records that come back from a helper as JSON equal those made here
    assert reports[0] == reports[1] == reports[2]
    assert len({json.dumps(r, sort_keys=True) for r in reports}) == 1


def test_fail_fast_cuts_the_report_at_two_workers(allow_cpus):
    allow_cpus(range(2))
    tasks = [{"kind": "pdegree", "exprs": ["s"]}] * 5
    tasks[3] = {"kind": "curve-normalize", "lambda": ["s^2", "t^2", "1"]}  # d = 0
    job = {"field": {"p": 2, "vars": ["s", "t"]}, "tasks": tasks}
    full = strip_timing(run_job(job, jobs=1))
    report = run_job(job, jobs=2, fail_fast=True)
    assert not report["ok"]
    assert strip_timing(report)["tasks"] == full["tasks"][:4]


def test_a_job_of_more_than_1024_tasks_keeps_its_order(allow_cpus):
    # one write of tokens holds 1024; past that a token stands for a run of tasks
    allow_cpus(range(2))
    exprs = [["s"], ["s", "t"], ["s^2"], ["t", "s*t"]]
    job = {"field": {"p": 2, "vars": ["s", "t"]},
           "tasks": [{"kind": "pdegree", "exprs": exprs[i % 4]} for i in range(1500)]}
    report = run_job(job, jobs=2)
    assert report["ok"]
    assert [t["result"]["d"] for t in report["tasks"]] == [(1, 2, 0, 2)[i % 4]
                                                           for i in range(1500)]
    assert strip_timing(report) == strip_timing(run_job(job, jobs=1))


def test_a_killed_helper_gives_failed_records(tmp_path, capsys, monkeypatch, allow_cpus):
    allow_cpus(range(2))
    caller = os.getpid()
    took, tell = os.pipe()
    pdegree = cli.TASK_HANDLERS["pdegree"]

    def handler(field, task):
        if os.getpid() != caller:
            os.write(tell, b"x")
            os.kill(os.getpid(), signal.SIGKILL)
        # the caller's tasks wait until the helper has taken one
        select.select([took], [], [], 30)
        return pdegree(field, task)

    monkeypatch.setitem(cli.TASK_HANDLERS, "pdegree", handler)
    path = tmp_path / "job.json"
    path.write_text(json.dumps({"field": {"p": 2, "vars": ["s", "t"]},
                                "tasks": [{"kind": "pdegree", "exprs": ["s"]}] * 3}))
    try:
        assert main(["run", str(path), "--jobs", "2"]) == 1
    finally:
        os.close(took)
        os.close(tell)
    out, err = capsys.readouterr()
    assert err == ""
    tasks = json.loads(out)["tasks"]
    lost = [t for t in tasks if not t["ok"]]
    assert len(tasks) == 3 and len(lost) == 1
    assert lost[0] == {"kind": "pdegree", "ok": False, "error": {
        "type": "WorkerExited",
        "message": "the worker process that took this item ended before reporting it"}}


def test_a_raise_in_the_callers_share_kills_and_reaps_the_helpers(allow_cpus):
    allow_cpus(range(3))
    caller = os.getpid()

    class Stop(BaseException):
        pass

    def worker(item):
        if os.getpid() == caller:
            raise Stop
        time.sleep(5)  # a helper that was not killed would hold the run for seconds
        return {"ok": True}

    start = time.perf_counter()
    with pytest.raises(Stop):
        cli._run_records(worker, None, list(range(6)), 3, False)
    assert time.perf_counter() - start < 3
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_each_worker_pins_to_its_own_cpu_and_the_caller_gets_its_mask_back(allow_cpus):
    caller = os.getpid()
    job = {"field": {"p": 2, "vars": ["s", "t"]},
           "tasks": [{"kind": "pdegree", "exprs": ["s"]},
                     {"kind": "curve-normalize", "lambda": ["s^2", "t^2", "1"]},  # d = 0
                     {"kind": "classify", "lambda": ["s", "t", "1"]}] * 2}
    serial = strip_timing(run_job(job, jobs=1))

    pins = allow_cpus({0, 3, 5})
    report = run_job(job, jobs=3)
    calls = pins()
    # the caller runs on the first CPU, then gets the whole mask back
    assert [cpus for pid, cpus in calls if pid == caller] == [[0], [0, 3, 5]]
    helpers = [(pid, cpus) for pid, cpus in calls if pid != caller]
    assert len({pid for pid, _ in helpers}) == len(helpers) == 2
    assert sorted(cpus for _, cpus in helpers) == [[3], [5]]
    assert os.sched_getaffinity(0) == {0, 3, 5}
    assert strip_timing(report) == serial

    class Stop(BaseException):
        pass

    def worker(item):
        if os.getpid() == caller:
            raise Stop
        time.sleep(5)
        return {"ok": True}

    pins = allow_cpus({0, 3, 5})
    with pytest.raises(Stop):
        cli._run_records(worker, None, list(range(6)), 3, False)
    assert [cpus for pid, cpus in pins() if pid == caller] == [[0], [0, 3, 5]]
    assert os.sched_getaffinity(0) == {0, 3, 5}

    # a CPU gone offline since the mask was read: every process stays where it is
    pins = allow_cpus({0, 3, 5}, refuse=True)
    assert strip_timing(run_job(job, jobs=3)) == serial
    assert len({pid for pid, _ in pins()}) == 3
    assert os.sched_getaffinity(0) == {0, 3, 5}


@pytest.mark.skipif(not hasattr(os, "sched_getaffinity") or len(os.sched_getaffinity(0)) < 2,
                    reason="needs an affinity mask of at least two CPUs")
def test_two_workers_run_on_two_cpus_of_the_real_mask(monkeypatch):
    mask = os.sched_getaffinity(0)
    caller = os.getpid()
    took, tell = os.pipe()

    def handler(field, task):
        cpus = sorted(os.sched_getaffinity(0))
        if os.getpid() != caller:
            os.write(tell, json.dumps(cpus).encode() + b"\n")
        else:
            # the caller's tasks wait until the helper has taken one
            select.select([took], [], [], 30)
        return {"cpus": cpus}

    monkeypatch.setitem(cli.TASK_HANDLERS, "pdegree", handler)
    job = {"field": {"p": 2, "vars": ["s"]}, "tasks": [{"kind": "pdegree", "exprs": ["s"]}] * 3}
    try:
        report = run_job(job, jobs=2)
        os.close(tell)
        tell = None
        sent = os.read(took, 4096).decode().split()
    finally:
        os.close(took)
        if tell is not None:
            os.close(tell)
    assert report["ok"]
    seen = {tuple(t["result"]["cpus"]) for t in report["tasks"]}
    assert len(seen) == 2 and all(len(cpus) == 1 and set(cpus) <= mask for cpus in seen)
    assert {tuple(json.loads(line)) for line in sent} < seen
    assert os.sched_getaffinity(0) == mask


def test_jobs_below_one_are_rejected(tmp_path, capsys):
    job = tmp_path / "job.json"
    job.write_text(json.dumps({"field": {"p": 2, "vars": ["t"]},
                               "tasks": [{"kind": "pdegree", "exprs": ["t"]}]}))
    for argv in (["run", str(job)], ["verify-all"]):
        for n in ("0", "-3"):
            with pytest.raises(SystemExit) as exit:
                main(argv + ["--jobs", n])
            assert exit.value.code == 2
            out, err = capsys.readouterr()
            assert out == ""
            assert "error: argument --jobs: must be at least 1, not %s\n" % n in err


def test_report_expressions_reparse():
    job = {"field": {"p": 3, "vars": ["s", "t"]},
           "tasks": [{"kind": "classify", "lambda": ["t", "s^3*t", "1"]},
                     {"kind": "pdegree", "exprs": ["s^2/(s+t)", "t"]}]}
    report = run_job(job)
    K = FunctionField(3, ["s", "t"])
    point = report["tasks"][0]["result"]["rational_point"]
    value = K.zero()
    for lam, xs in zip(["t", "s^3*t", "1"], point):
        value = value + parse_expr(lam, K) * (parse_expr(xs, K) ** 3)
    assert value.is_zero()
    for expr in report["tasks"][1]["result"]["selected"]:
        parse_expr(expr, K)


def test_verify_all_catalog_passes():
    entries = load_default_catalog()
    report = run_catalog(entries)
    assert report["ok"]
    assert report["count"] >= 12


def test_verify_all_negative_control():
    entries = load_default_catalog()
    entries[0] = dict(entries[0])
    entries[0]["expect"] = dict(entries[0]["expect"], d=1)
    report = run_catalog(entries)
    assert not report["ok"]
    assert not report["entries"][0]["ok"]
    assert report["entries"][0]["name"] == entries[0]["name"]


def test_cli_exit_codes(tmp_path, capsys, monkeypatch):
    good = tmp_path / "good.json"
    good.write_text(json.dumps({"field": {"p": 2, "vars": ["t"]},
                                "tasks": [{"kind": "pdegree", "exprs": ["t"]}]}))
    assert main(["run", str(good)]) == 0
    capsys.readouterr()

    bad_expr = tmp_path / "bad.json"
    bad_expr.write_text(json.dumps({"field": {"p": 2, "vars": ["t"]},
                                    "tasks": [{"kind": "pdegree", "exprs": ["t+*1"]}]}))
    assert main(["run", str(bad_expr)]) == 2
    err = capsys.readouterr().err
    assert "position" in err

    # a division by zero and a power too large to expand are parse errors, the
    # power one refused before any expansion, of a sum or of a single term
    for p, kind, key, exprs in ((2, "classify", "lambda", ["1/0", "s"]),
                                (2, "classify", "lambda", ["s/(s-s)", "s"]),
                                (2, "pdegree", "exprs", ["(s+t+1)^3000", "s"]),
                                (3, "classify", "lambda", ["t^10000001+1", "s", "1"]),
                                (3, "pdegree", "exprs", ["1/(t^30000001+s)", "s/(t^30000001+1)"])):
        bad_expr.write_text(json.dumps({"field": {"p": p, "vars": ["s", "t"]},
                                        "tasks": [{"kind": kind, key: exprs}]}))
        start = time.perf_counter()
        assert main(["run", str(bad_expr)]) == 2
        assert time.perf_counter() - start < 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and "position" in err

    tensor = {"construction": "tensor-self", "field": {"p": 2, "vars": ["s", "t"]},
              "pth_powers": ["s", "t"]}
    adjoin = {"construction": "adjoin-root", "p": 2, "base_exponents": [2], "f": [0, 1], "r": 1}
    for algebra in (tensor, adjoin):
        well_typed = tmp_path / "well_typed.json"
        well_typed.write_text(json.dumps({"field": {"p": 2, "vars": ["s", "t"]},
                                          "tasks": [{"kind": "artin-edim", "algebra": algebra}]}))
        assert main(["run", str(well_typed)]) == 0
        capsys.readouterr()

    mistyped = [
        ([["x"]], "task 0: must be a JSON object"),
        ([{"kind": "classify", "lambda": [1, "s", "1"]}], "task 0: lambda must be a list of strings"),
        ([{"kind": "classify", "lambda": "st"}], "task 0: lambda must be a list of strings"),
        ([{"kind": "artin-edim", "algebra": "x"}], "task 0: algebra must be a JSON object"),
        ([{"kind": "verify-all", "catalog": 0}], "task 0: catalog must be a string"),
        ([{"kind": "artin-edim", "algebra": {"construction": "x"}}],
         "task 0: algebra.construction must be 'tensor-self' or 'adjoin-root'"),
        ([{"kind": "artin-edim", "algebra": dict(tensor, field={"p": 4, "vars": ["s"]})}],
         "task 0: algebra.field: bad field descriptor"),
        ([{"kind": "artin-edim", "algebra": dict(tensor, field={"p": 2, "vars": "st"})}],
         "task 0: algebra.field: bad field descriptor: vars must be a list of strings"),
        ([{"kind": "artin-edim", "algebra": dict(tensor, field={"p": "2", "vars": ["s", "t"]})}],
         "task 0: algebra.field: bad field descriptor: p must be an integer"),
        ([{"kind": "artin-edim", "algebra": dict(tensor, pth_powers="st")}],
         "task 0: algebra.pth_powers must be a list of strings"),
        ([{"kind": "artin-edim", "algebra": dict(tensor, pth_powers=["s", "u"])}],
         "task 0: algebra.pth_powers: bad expression 'u'"),
        ([{"kind": "artin-edim", "algebra": dict(adjoin, p="2")}],
         "task 0: algebra.p must be an integer"),
        ([{"kind": "artin-edim", "algebra": dict(adjoin, p=2.7)}],
         "task 0: algebra.p must be an integer"),
        ([{"kind": "artin-edim", "algebra": dict(adjoin, r=True)}],
         "task 0: algebra.r must be an integer"),
        ([{"kind": "artin-edim", "algebra": dict(adjoin, base_exponents="2")}],
         "task 0: algebra.base_exponents must be a list of integers"),
        ([{"kind": "artin-edim", "algebra": {k: v for k, v in adjoin.items() if k != "f"}}],
         "task 0: algebra.f must be a list of integers"),
        ([{"kind": "classify", "lambda": ["s"]}],
         "task 0: lambda needs at least two coefficients"),
        ([{"kind": "classify", "lambda": ["0", "0"]}],
         "task 0: lambda: the coefficients must not all vanish"),
        ([{"kind": "curve-conductor", "lambda": ["0", "s-s", "0*t"]}],
         "task 0: lambda: the coefficients must not all vanish"),
        ([{"kind": "curve-normalize", "lambda": ["s", "t", "1", "1"]}],
         "task 0: lambda of a curve-normalize task needs exactly three coefficients"),
        ([{"kind": "classify"}], "task 0: classify task needs key 'lambda'"),
        ([{"kind": "pdegree"}], "task 0: pdegree task needs key 'exprs'"),
        ([{"kind": "artin-edim"}], "task 0: artin-edim task needs key 'algebra'"),
        ([{"kind": "artin-edim", "algebra": dict(adjoin, base_exponents=[0], f=[])}],
         "task 0: algebra.base_exponents must be at least 1"),
        ([{"kind": "artin-edim", "algebra": dict(adjoin, base_exponents=[-1], f=[1])}],
         "task 0: algebra.base_exponents must be at least 1"),
        ([{"kind": "artin-edim", "algebra": dict(adjoin, p=4)}],
         "task 0: algebra.p must be one of 2, 3, 5, 7"),
        ([{"kind": "artin-edim", "algebra": dict(adjoin, base_exponents=[2, 2])}],
         "task 0: algebra.f needs 4 coefficients"),
        ([{"kind": "artin-edim", "algebra": dict(adjoin, r=0)}],
         "task 0: algebra.r must be at least 1"),
        ([{"kind": "artin-edim", "algebra": dict(adjoin, p=7, r=10000)}],
         "task 0: algebra.p^algebra.r * prod(algebra.base_exponents) exceeds the "
         "dimension cap 512"),
        # the cap is checked before the length of f, whose message would format the product
        ([{"kind": "artin-edim", "algebra": dict(adjoin, base_exponents=[10 ** 4000] * 2)}],
         "task 0: algebra.p^algebra.r * prod(algebra.base_exponents) exceeds the "
         "dimension cap 512"),
    ]
    pdegree = [{"kind": "pdegree", "exprs": ["s", "t"]}]
    mistyped_fields = [
        ({"p": 2, "vars": "st"}, "bad field descriptor: vars must be a list of strings"),
        ({"p": 2, "vars": ["s", "s"]}, "bad field descriptor: duplicate variable names"),
        ({"p": "2", "vars": ["s", "t"]}, "bad field descriptor: p must be an integer"),
        ({"p": True, "vars": ["s", "t"]}, "bad field descriptor: p must be an integer"),
        ({"p": 2.0, "vars": ["s", "t"]}, "bad field descriptor: p must be an integer"),
    ]
    st = {"p": 2, "vars": ["s", "t"]}
    cases = ([(st, tasks, message) for tasks, message in mistyped]
             + [(field, pdegree, message) for field, message in mistyped_fields])
    for field, tasks, message in cases:
        bad_type = tmp_path / "bad_type.json"
        bad_type.write_text(json.dumps({"field": field, "tasks": tasks}))
        assert main(["run", str(bad_type)]) == 2
        assert message in capsys.readouterr().err

    failing = tmp_path / "fail.json"
    failing.write_text(json.dumps({"field": {"p": 2, "vars": ["s", "t"]},
                                   "tasks": [{"kind": "curve-normalize",
                                              "lambda": ["s^2", "t^2", "1"]}]}))
    assert main(["run", str(failing)]) == 1
    capsys.readouterr()

    st_entry = {"name": "e", "field": st, "lambda": ["s", "t", "1"]}
    bad_catalogs = [
        ({"a": 1}, "a catalog must be a JSON array of objects"),
        ([st_entry, 3], "a catalog must be a JSON array of objects"),
        ([{**st_entry, "lambda": "st"}],
         "catalog entry 0 (e): lambda must be a list of at least two strings"),
        ([{**st_entry, "lambda": ["s"]}],
         "catalog entry 0 (e): lambda must be a list of at least two strings"),
        ([st_entry, {**st_entry, "lambda": ["s", "u"]}],
         "catalog entry 1 (e): lambda: bad expression 'u'"),
        ([st_entry, {**st_entry, "lambda": ["0", "t-t", "0"]}],
         "catalog entry 1 (e): lambda: the coefficients must not all vanish"),
        ([{**st_entry, "field": {"p": 2, "vars": "st"}}],
         "catalog entry 0 (e): field: bad field descriptor: vars must be a list of strings"),
    ]
    for value, message in bad_catalogs:
        bad_catalog = tmp_path / "bad_catalog.json"
        bad_catalog.write_text(json.dumps(value))
        assert main(["verify-all", "--catalog", str(bad_catalog)]) == 2
        assert message in capsys.readouterr().err

    binary = tmp_path / "binary"
    binary.write_bytes(b"\x7fELF\x02\x01\x01\x00\xff\xfe\x00")
    not_json = tmp_path / "not_json.json"
    not_json.write_text("{not json")
    for command in (["run"], ["verify-all", "--catalog"]):
        for unreadable in (tmp_path, binary, not_json):
            assert main(command + [str(unreadable)]) == 2
            err = capsys.readouterr().err
            assert err.startswith("error: ") and err.count("\n") == 1
            assert str(unreadable) in err
    # standard input: binary under a strict UTF-8 decoder (as a strict locale gives it),
    # not JSON, and empty
    for command in (["run"], ["verify-all", "--catalog"]):
        for stdin in (io.TextIOWrapper(io.BytesIO(binary.read_bytes()), encoding="utf-8"),
                      io.StringIO("{not json"), io.StringIO("")):
            monkeypatch.setattr(sys, "stdin", stdin)
            assert main(command + ["-"]) == 2
            err = capsys.readouterr().err
            assert err.startswith("error: <stdin>: ") and err.count("\n") == 1
    # a --field argument goes through the same decoder as a file: not JSON, or
    # nested past the decoder's depth
    for field in ("{not json", "[" * 100_000):
        for command in (["pdegree", "--field", field, "t"],
                        ["classify", "--field", field, "--lambda", "t", "1"]):
            assert main(command) == 2
            err = capsys.readouterr().err
            assert err.startswith("error: --field: ") and err.count("\n") == 1


def test_oversized_tensor_self_fails_validation(tmp_path, capsys):
    # four p-th powers over F_7(s,t,u,v) give dim 7^4 = 2401; the task would fail
    # with DimensionOverflowError (exit 1) if validation let it through
    algebra = {"construction": "tensor-self", "field": {"p": 7, "vars": ["s", "t", "u", "v"]},
               "pth_powers": ["s", "t", "u", "v"]}
    job = tmp_path / "oversized.json"
    job.write_text(json.dumps({"field": {"p": 7, "vars": ["s"]},
                               "tasks": [{"kind": "artin-edim", "algebra": algebra}]}))
    assert main(["run", str(job)]) == 2
    err = capsys.readouterr().err
    assert err == ("error: task 0: algebra.field.p^len(algebra.pth_powers) exceeds the "
                   "dimension cap 512\n")


def test_adjoin_root_reads_unreduced_coefficients_mod_p():
    def job(f):
        return {"field": {"p": 3, "vars": ["s"]},
                "tasks": [{"kind": "artin-edim", "algebra": {
                    "construction": "adjoin-root", "p": 3, "base_exponents": [2, 3],
                    "f": f, "r": 2}}]}

    reduced = [1, 2, 0, 1, 1, 2]
    unreduced = [3 + 1, -1, 3, 1 - 6, 3 * 7 + 1, 2]
    assert [c % 3 for c in unreduced] == reduced
    report = run_job(job(reduced), jobs=1)
    assert report["ok"]
    assert canonical(run_job(job(unreduced), jobs=1)) == canonical(report)


def _child_env():
    """The environment of a child that finds the same insep package as this process."""
    src = os.path.dirname(os.path.dirname(insep.__file__))
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))


def test_import_loads_no_pool_argparse_or_dataclasses():
    # a serial run uses none of these; each costs milliseconds of every start
    deferred = ("concurrent.futures", "multiprocessing", "argparse", "dataclasses")
    code = ("import sys, insep, insep.cli, insep.catalog; "
            "print(' '.join(m for m in %r if m in sys.modules))" % (deferred,))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=_child_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == []


def test_help_and_a_pool_run_load_what_they_defer(tmp_path):
    proc = subprocess.run([sys.executable, "-m", "insep", "--help"], capture_output=True,
                          text=True, env=_child_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("usage: insep")
    job = tmp_path / "job.json"
    job.write_text(json.dumps({"field": {"p": 2, "vars": ["s", "t"]},
                               "tasks": [{"kind": "pdegree", "exprs": ["s", "t"]},
                                         {"kind": "classify", "lambda": ["s", "t", "1"]}]}))
    reports = []
    for jobs in ("1", "2"):
        proc = subprocess.run([sys.executable, "-m", "insep", "run", str(job), "--jobs", jobs],
                              capture_output=True, text=True, env=_child_env())
        assert proc.returncode == 0, proc.stderr
        reports.append(canonical(json.loads(proc.stdout)))
    assert reports[0] == reports[1]
    # two workers fork; neither executor stack is imported, before the run or in it
    pools = ("concurrent.futures", "multiprocessing")
    code = ("import sys; from insep.cli import main; code = main(['run', %r, '--jobs', '2']); "
            "print(' '.join(m for m in %r if m in sys.modules), file=sys.stderr); "
            "sys.exit(code)" % (str(job), pools))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=_child_env())
    assert proc.returncode == 0, proc.stderr
    assert canonical(json.loads(proc.stdout)) == reports[0]
    assert proc.stderr.split() == []


def test_unknown_keys_are_rejected(tmp_path, capsys):
    # a misspelt key is named, never ignored: a verify-all task with "catlog" ran the
    # shipped catalog and reported ok
    st = {"p": 2, "vars": ["s", "t"]}
    tensor = {"construction": "tensor-self", "field": st, "pth_powers": ["s", "t"]}
    adjoin = {"construction": "adjoin-root", "p": 2, "base_exponents": [2], "f": [0, 1], "r": 1}
    cases = [
        ({"field": st, "tasks": [], "task": []},
         "job: unknown key 'task'; expected 'field', 'tasks'"),
        ({"field": st, "tasks": [{"kind": "verify-all", "catlog": "/nonexistent.json"}]},
         "task 0: unknown key 'catlog'; expected 'catalog', 'kind'"),
        ({"field": st, "tasks": [{"kind": "pdegree", "exprs": ["s"]},
                                 {"kind": "classify", "lamda": ["s", "t", "1"]}]},
         "task 1: unknown key 'lamda'; expected 'kind', 'lambda'"),
        ({"field": st, "tasks": [{"kind": "pdegree", "exprs": ["s"], "lambda": ["s", "t"]}]},
         "task 0: unknown key 'lambda'; expected 'exprs', 'kind'"),
        ({"field": st, "tasks": [{"kind": "curve-singular", "lambda": ["s", "t", "1"],
                                  "algebra": adjoin, "catalog": "x"}]},
         "task 0: unknown key 'algebra', 'catalog'; expected 'kind', 'lambda'"),
        ({"field": st, "tasks": [{"kind": "artin-edim", "algebra": dict(tensor, r=1)}]},
         "task 0: algebra: unknown key 'r'; expected 'construction', 'field', 'pth_powers'"),
        ({"field": st, "tasks": [{"kind": "artin-edim",
                                  "algebra": dict(adjoin, base_exponent=[2])}]},
         "task 0: algebra: unknown key 'base_exponent'; expected 'base_exponents', "
         "'construction', 'f', 'p', 'r'"),
    ]
    path = tmp_path / "job.json"
    for job, message in cases:
        with pytest.raises(JobValidationError, match="unknown key"):
            run_job(job)
        path.write_text(json.dumps(job))
        assert main(["run", str(path)]) == 2
        err = capsys.readouterr().err
        assert err == "error: %s\n" % message


def test_unknown_catalog_and_field_keys_are_rejected(tmp_path, capsys):
    # a misspelt expect key skipped its check: this entry reported ok
    shipped = {e["name"]: e for e in load_default_catalog()}["f3st-residueK-curve"]
    expect = {k: v for k, v in shipped["expect"].items()
              if k not in ("conductor_case", "rational_point")}
    misspelt = dict(shipped, expect=dict(expect, conductr_case="P2", rational_pont=False))
    st = {"p": 2, "vars": ["s", "t"]}
    entry = {"name": "e", "field": st, "lambda": ["s", "t", "1"]}
    cases = [
        ([misspelt], "catalog entry 0 (f3st-residueK-curve): expect: unknown key "
                     "'conductr_case', 'rational_pont'; expected 'codim', 'conductor_case', "
                     "'d', 'rational_point', 'residue_degree', 'verdict'"),
        ([entry, {"name": "f", "field": st, "lamda": ["s", "t", "1"]}],
         "catalog entry 1 (f): unknown key 'lamda'; expected 'expect', 'field', 'lambda', "
         "'name'"),
        ([dict(entry, expect=[1])], "catalog entry 0 (e): expect must be a JSON object"),
        ([dict(entry, field={"p": 2, "vars": ["s", "t"], "p ": 3})],
         "catalog entry 0 (e): field: bad field descriptor: unknown key 'p '; "
         "expected 'p', 'vars'"),
    ]
    path = tmp_path / "catalog.json"
    for entries, message in cases:
        path.write_text(json.dumps(entries))
        assert main(["verify-all", "--catalog", str(path)]) == 2
        assert capsys.readouterr().err == "error: %s\n" % message
    # with the keys spelt right, both expectations are checked and fail
    path.write_text(json.dumps([dict(shipped, expect=dict(expect, conductor_case="P2",
                                                          rational_point=False))]))
    assert main(["verify-all", "--catalog", str(path)]) == 1
    assert json.loads(capsys.readouterr().out)["entries"][0]["checks"]["rational_point"] is False

    with pytest.raises(ValueError, match="unknown key 'p '; expected 'p', 'vars'"):
        FunctionField.from_descriptor({"p": 2, "vars": ["s"], "p ": 3})
    path = tmp_path / "job.json"
    path.write_text(json.dumps({"field": {"p": 2, "vars": ["s"], "p ": 3},
                                "tasks": [{"kind": "pdegree", "exprs": ["s"]}]}))
    assert main(["run", str(path)]) == 2
    assert capsys.readouterr().err == ("error: field: bad field descriptor: unknown key 'p '; "
                                       "expected 'p', 'vars'\n")


def test_malformed_field_descriptors_say_what_is_wrong(tmp_path, capsys):
    # each used to print Python's text: "'float' object is not subscriptable", "'vars'",
    # "list indices must be integers or slices, not str"
    not_an_object = "must be a JSON object with keys 'p' and 'vars'"
    descriptors = [(2.0, not_an_object), ({"p": 2}, "missing key 'vars'"),
                   ([1], not_an_object), ({"vars": ["s"]}, "missing key 'p'")]
    pdegree = [{"kind": "pdegree", "exprs": ["1"]}]
    path = tmp_path / "input.json"
    for desc, message in descriptors:
        algebra = {"construction": "tensor-self", "field": desc, "pth_powers": ["1"]}
        runs = [
            (["run", str(path)], {"field": desc, "tasks": pdegree}, "field"),
            (["run", str(path)], {"field": {"p": 2, "vars": ["s"]},
                                  "tasks": [{"kind": "artin-edim", "algebra": algebra}]},
             "task 0: algebra.field"),
            (["verify-all", "--catalog", str(path)],
             [{"name": "e", "field": desc, "lambda": ["1", "1"]}], "catalog entry 0 (e): field"),
            (["pdegree", "--field", json.dumps(desc), "1"], None, "field"),
        ]
        for command, content, where in runs:
            path.write_text(json.dumps(content))
            assert main(command) == 2
            assert capsys.readouterr().err == "error: %s: bad field descriptor: %s\n" % (
                where, message)


def test_cli_stdin_and_subprocess():
    job = json.dumps({"field": {"p": 2, "vars": ["s", "t"]},
                      "tasks": [{"kind": "rational-point", "lambda": ["t", "t", "1"]}]})
    proc = subprocess.run([sys.executable, "-m", "insep.cli", "run", "-"],
                          input=job, capture_output=True, text=True, env=_child_env())
    assert proc.returncode == 0
    report = json.loads(proc.stdout)
    assert report["tasks"][0]["result"]["point"] == ["1", "1", "0"]


def test_python_m_insep_runs_the_readme_sample_job(tmp_path):
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    start = readme.index("### Job files")
    start = readme.index("```json\n", start) + len("```json\n")
    job = tmp_path / "sample.json"
    job.write_text(readme[start:readme.index("```", start)])
    proc = subprocess.run([sys.executable, "-m", "insep", "run", str(job)],
                          capture_output=True, text=True, env=_child_env())
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report["ok"] and len(report["tasks"]) == 11


def test_cli_reader_closes_pipe_early(tmp_path):
    # the report of 2000 tasks is larger than a pipe buffer, so writing it blocks
    # until the reader has gone and then fails
    job = tmp_path / "big.json"
    job.write_text(json.dumps({"field": {"p": 2, "vars": ["t"]},
                               "tasks": [{"kind": "pdegree", "exprs": ["t"]}] * 2000}))
    with subprocess.Popen([sys.executable, "-m", "insep.cli", "run", str(job)],
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                          env=_child_env()) as proc:
        assert proc.stdout.readline() == "{\n"
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=60) == 1
    assert "Traceback" not in err
    assert err.startswith("error: ")


def test_cli_classify_command(capsys):
    code = main(["classify", "--field", '{"p":2,"vars":["x","y"]}',
                 "--lambda", "x", "y", "1"])
    assert code == 0
    out = json.loads(capsys.readouterr().out)
    assert out["tasks"][0]["result"]["d"] == 2


def test_cli_pdegree_command(capsys):
    code = main(["pdegree", "--field", '{"p":2,"vars":["s","t"]}', "t", "s^2*t"])
    assert code == 0
    out = json.loads(capsys.readouterr().out)
    assert out["tasks"][0]["result"]["d"] == 1


def test_remaining_task_kinds():
    job = {"field": {"p": 3, "vars": ["t"]},
           "tasks": [
               {"kind": "curve-singular", "lambda": ["t", "t^2", "1"]},
               {"kind": "curve-cohomology", "lambda": ["t", "t^2", "1"]},
               {"kind": "verify-all"},
           ]}
    report = run_job(job)
    assert report["ok"]
    singular = report["tasks"][0]["result"]
    assert singular["residue_degree"] == 3
    assert singular["point_on_line"][0] == {"coeffs": ["0", "1", "0"]}
    cohomology = report["tasks"][1]["result"]
    assert cohomology == {"h0": 1, "h1": 1, "admissible": True,
                          "operations": ["conductor_profile", "glueing_cohomology"]}
    assert report["tasks"][2]["result"]["ok"]


def test_verify_all_task_reports_each_entry(tmp_path, monkeypatch):
    good = load_default_catalog()[0]
    # a well-formed entry whose check raises: every input error is caught by
    # load_catalog, so the raise is put into the check
    raising = {"name": "raising", "field": {"p": 2, "vars": ["t"]}, "lambda": ["t", "1"]}
    check = catalog.check_catalog_entry

    def check_or_raise(entry):
        if entry["name"] == "raising":
            raise ValueError("the check of this entry fails")
        return check(entry)

    monkeypatch.setattr(catalog, "check_catalog_entry", check_or_raise)
    two = tmp_path / "two.json"
    two.write_text(json.dumps([good, raising]))
    malformed = tmp_path / "malformed.json"
    malformed.write_text(json.dumps({"a": 1}))
    report = run_job({"field": {"p": 2, "vars": ["t"]},
                      "tasks": [{"kind": "verify-all", "catalog": str(two)},
                                {"kind": "verify-all", "catalog": str(malformed)}]})
    entries = report["tasks"][0]["result"]["entries"]
    assert [e["name"] for e in entries] == [good["name"], "raising"]
    assert entries[0]["ok"]
    assert not entries[1]["ok"]
    assert entries[1]["error"] == {"type": "ValueError",
                                   "message": "the check of this entry fails"}
    assert not report["tasks"][0]["result"]["ok"]
    assert not report["tasks"][0]["ok"]
    assert not report["ok"]
    assert not report["tasks"][1]["ok"]
    assert report["tasks"][1]["error"]["type"] == "JobValidationError"
    job = tmp_path / "job.json"
    job.write_text(json.dumps({"field": {"p": 2, "vars": ["t"]},
                               "tasks": [{"kind": "verify-all", "catalog": str(two)},
                                         {"kind": "pdegree", "exprs": ["t"]}]}))
    assert main(["run", str(job)]) == 1
    assert main(["run", "--fail-fast", str(job)]) == 1
    assert len(run_job(json.loads(job.read_text()), fail_fast=True)["tasks"]) == 1


def test_verify_all_cli_exit_codes(tmp_path, capsys):
    assert main(["verify-all"]) == 0
    capsys.readouterr()
    broken = list(load_default_catalog())
    broken[3] = dict(broken[3])
    broken[3]["expect"] = dict(broken[3]["expect"], codim=7)
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(broken))
    assert main(["verify-all", "--catalog", str(path)]) == 1
    err = capsys.readouterr().err
    assert broken[3]["name"] in err


def test_catalog_entry_of_a_point_has_no_imperfection_bound():
    """X = V(t U_0^2 + U_1^2) in P^1 is the point Spec K(t^(1/2)), a field in which
    K is not algebraically closed, so the paper's bound edim < [K:K^p] does not
    apply; the entry passes."""
    record = check_catalog_entry({"field": {"p": 2, "vars": ["t"]}, "lambda": ["t", "1"],
                                  "expect": {"d": 1, "verdict": "Regular"}})
    assert record["ok"], record
