"""The report contract: strip_timing of the shipped catalog's report and of a job with
every task kind, byte for byte as committed under tests/data; and of three curve
jobs at p = 5 and p = 3 that pin the conductor subalgebra's dimension and chart.

A change that alters a report on purpose regenerates the file it changes and says
in its description which keys moved; any other diff fails here.  The golden job
reads its verify-all catalog, empty_catalog.json, relative to tests/data.
"""

import json
from pathlib import Path

from insep.catalog import load_default_catalog, read_json
from insep.cli import TASK_KINDS, run_catalog, run_job, strip_timing

DATA = Path(__file__).resolve().parent / "data"


def _as_emitted(report):
    """strip_timing(report) as the command line writes it."""
    return json.dumps(strip_timing(report), sort_keys=True, indent=2) + "\n"


def test_shipped_catalog_report_is_the_golden_one():
    report = run_catalog(load_default_catalog())
    assert _as_emitted(report) == (DATA / "golden_catalog_report.json").read_text()


def test_job_of_every_task_kind_reports_the_golden_report(monkeypatch):
    monkeypatch.chdir(DATA)
    job = read_json("golden_job.json")
    assert {task["kind"] for task in job["tasks"]} == set(TASK_KINDS)
    assert _as_emitted(run_job(job)) == (DATA / "golden_job_report.json").read_text()


def test_curve_jobs_at_p5_and_p3_report_the_golden_reports():
    """curve-conductor and curve-cohomology in chart 0 over F_5(t) and F_5(s,t), and
    in chart 1 over F_3(t); one job per field, one report per job."""
    jobs = read_json(DATA / "golden_curves_job.json")
    emitted = json.dumps([strip_timing(run_job(job)) for job in jobs], sort_keys=True,
                         indent=2) + "\n"
    assert emitted == (DATA / "golden_curves_job_report.json").read_text()
