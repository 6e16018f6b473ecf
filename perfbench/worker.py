"""Child process of the benchmark driver for the in-process workloads.

    worker.py setup --workload W           import, build handles, enumerate
    worker.py run --workload W --seed N --seconds T --job-limit L [--trace-out F]
    worker.py probe --seed N               element-op probe ladder
    worker.py check-eval                   expected `isl eval` lines (stdin)

Each command prints one JSON document on stdout.  Run it from the root of
a checkout with PYTHONPATH=src; perfbench/run.py does both.
"""

import argparse
import json
import random
import resource
import signal
import statistics
import sys
import time

import calib
from tracing import Tracer

workloads = None  # imported by main() once the sampler runs

PROBE_PAIRS = 200
PROBE_REPEATS = 5
PROBE_MIN_S = 0.05  # each repeat loops over the pairs for at least this long


class JobTimeout(BaseException):
    """Raised by the per-job alarm; a BaseException so that no handler in
    the package can swallow it."""


def _alarm(signum, frame):
    raise JobTimeout()


def _run_job(handles, hname, call, limit):
    """(start, end, output, error) of one job; the handle is built on first
    use inside the timed region."""
    out = error = None
    signal.setitimer(signal.ITIMER_REAL, limit)
    t0 = time.perf_counter()
    try:
        h = handles.get(hname)
        if h is None:
            h = handles[hname] = workloads.HANDLES[hname]()
        out = call(h)
    except JobTimeout:
        error = f"exceeded the {limit} s job limit"
    except Exception as e:  # a failing job is counted; the pass goes on
        error = f"{type(e).__name__}: {e}"
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        t1 = time.perf_counter()
    return t0, t1, out, error


def run_pass(jobs, limit, tracer=None):
    """Run every job once; return the pass record and the raw outputs."""
    handles = {}
    records = []
    outputs = []
    for job_id, hname, call, subsets in jobs:
        if tracer is not None:
            tracer.job = job_id
        t0, t1, out, error = _run_job(handles, hname, call, limit)
        records.append({"id": job_id, "t0": t0, "t1": t1, "error": error,
                        "seeded": subsets is not None})
        outputs.append(out)
    return records, outputs, handles


def finish_pass(jobs, records, outputs, handles, first, sampler):
    """Digest every output; re-check witnesses on the first pass, and later
    passes against the first; then time every job, raw and corrected."""
    for (job_id, hname, _, subsets), rec, out in zip(jobs, records, outputs):
        if rec["error"] is not None:
            continue
        h = handles[hname]
        rec["digest"] = workloads.digest(workloads.render(h, out))
        if first is None:
            err = workloads.check(h, out, subsets)
        elif rec["digest"] != first[job_id]:
            err = "output differs from the first pass"
        else:
            err = None
        rec["error"] = err
    for rec in records:
        t0, t1 = rec.pop("t0"), rec.pop("t1")
        rec["raw_s"] = t1 - t0
        rec["s"] = calib.correct(sampler.samples, t0, t1)
    return sum(r["s"] for r in records), sum(r["raw_s"] for r in records)


def cmd_run(args, sampler):
    signal.signal(signal.SIGALRM, _alarm)
    jobs = workloads.jobs_for(args.workload, args.seed)
    passes = []
    first = None
    t_start = time.perf_counter()
    trace = None
    while True:
        tracer = None
        if args.trace_out and passes:
            tracer = Tracer()
            tracer.install()
        records, outputs, handles = run_pass(jobs, args.job_limit, tracer)
        if tracer is not None:
            trace = tracer.snapshot()
            tracer.dump(args.trace_out)
        wall, raw = finish_pass(jobs, records, outputs, handles, first,
                                sampler)
        if first is None:
            first = {r["id"]: r.get("digest") for r in records}
        passes.append({"wall_s": wall, "raw_wall_s": raw, "jobs": records})
        if args.trace_out:
            if trace is not None:
                break
            continue
        used = time.perf_counter() - t_start
        if used + statistics.median(p["raw_wall_s"] for p in passes) \
                > args.seconds:
            break
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {"passes": passes, "peak_rss_mb": peak, "trace": trace}


def cmd_setup(args, sampler):
    names = dict.fromkeys(n for _, n, _, _ in
                          workloads.jobs_for(args.workload, 0))
    for name in names:
        workloads.HANDLES[name]().elements()
    return {"handles": list(names), "samples": sampler.samples}


def cmd_probe(args, sampler):
    out = {}
    for name, make, op in workloads.PROBES:
        elems = make().elements()
        f = op()
        rng = random.Random(f"probe:{name}:{args.seed}")
        pairs = [(rng.choice(elems), rng.choice(elems))
                 for _ in range(PROBE_PAIRS)]
        per_op = []
        for _ in range(PROBE_REPEATS):
            ops = 0
            t0 = time.perf_counter()
            while True:
                for x, y in pairs:
                    f(x, y)
                ops += PROBE_PAIRS
                t1 = time.perf_counter()
                if t1 - t0 >= PROBE_MIN_S:
                    break
            per_op.append((t0, t1, ops))
        # correct once the samples after the last repeat are in
        out[name] = statistics.median(
            calib.correct(sampler.samples, t0, t1) / ops
            for t0, t1, ops in per_op) * 1e6
    return out


def cmd_check_eval(args, sampler):
    from intervalsemirings.cli import load_spec_file
    from intervalsemirings.expressions import eval_expression

    handles = {}
    expected = {}
    for job in json.load(sys.stdin):
        h = handles.get(job["spec"])
        if h is None:
            h = handles[job["spec"]] = load_spec_file(job["spec"])
        x = eval_expression(h, job["lhs"])
        y = eval_expression(h, job["rhs"])
        text = h.render(h.mul(x, y) if job["op"] == "mul" else h.add(x, y))
        expected[job["id"]] = (json.dumps({"result": text}) if job["json"]
                               else text)
    return expected


def main():
    global workloads
    sampler = calib.Sampler()
    sampler.start()
    import workloads  # after the sampler starts, so set-up samples cover it

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    p = sub.add_parser("setup")
    p.add_argument("--workload", choices=sorted(workloads.WORKLOADS),
                   required=True)
    p = sub.add_parser("run")
    p.add_argument("--workload", choices=sorted(workloads.WORKLOADS),
                   required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--job-limit", type=float, required=True, dest="job_limit")
    p.add_argument("--trace-out", default=None, dest="trace_out",
                   help="run one plain and one traced pass; write spans here")
    p = sub.add_parser("probe")
    p.add_argument("--seed", type=int, required=True)
    sub.add_parser("check-eval")
    args = parser.parse_args()
    commands = {"setup": cmd_setup, "run": cmd_run, "probe": cmd_probe,
                "check-eval": cmd_check_eval}
    result = commands[args.command](args, sampler)
    sampler.stop()
    json.dump(result, sys.stdout)
    sys.stdout.write("\n")


if __name__ == "__main__":
    main()
