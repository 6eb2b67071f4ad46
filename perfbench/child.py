"""One round of a workload, in a fresh interpreter.

    python3 perfbench/child.py PLAN RESULT [SPANS]

PLAN is a JSON file written by run.py: {"mode": "jobs" | "catalog", "inputs":
[paths], "workers": n, "setup_only": bool}.  The round reads and validates its
inputs (set-up), marks the clock, runs them through ``cli.run_job`` /
``cli.run_catalog``, marks the clock again and writes the reports to RESULT.
With setup_only it stops at the first mark.  With SPANS, the layer wrappers of
layertrace.py are installed first and every span is written to SPANS.

Times are CLOCK_MONOTONIC, which is shared by all processes, so run.py can
subtract the instant it started this process.
"""

import json
import resource
import sys
import time


def now():
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def peak_rss_kb():
    """Largest resident set of this process and of the pool workers it reaped.

    VmHWM counts only since exec; the resource usage of this process would also
    count the pages of run.py that the fork copied before exec.
    """
    with open("/proc/self/status") as fh:
        own = next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:"))
    return max(own, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)


def main(argv):
    plan_path, result_path = argv[0], argv[1]
    spans_path = argv[2] if len(argv) > 2 else None

    import insep
    from insep import catalog, cli

    tracer = None
    if spans_path:
        import layertrace

        tracer = layertrace.install()

    with open(plan_path) as fh:
        plan = json.load(fh)
    workers = plan["workers"]
    if plan["mode"] == "catalog":
        inputs = catalog.load_catalog(plan["inputs"][0])
    else:
        inputs = []
        for path in plan["inputs"]:
            with open(path) as fh:
                job = json.load(fh)
            cli.validate_job(job)
            inputs.append(job)
    t0 = now()
    result = {"t0": t0, "insep_file": insep.__file__}
    if not plan["setup_only"]:
        if plan["mode"] == "catalog":
            reports = [cli.run_catalog(inputs, jobs=workers)]
        else:
            reports = [cli.run_job(job, jobs=workers) for job in inputs]
        result.update(t1=now(), reports=reports, peak_rss_kb=peak_rss_kb())
    if tracer:
        result["layers"] = tracer.totals()
        tracer.write(spans_path)
    with open(result_path, "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main(sys.argv[1:])
