"""Benchmark of the interval-semiring analysis engine.

    python3 perfbench/run.py --workload W --seed N --seconds T --trace 0|1
    python3 perfbench/run.py --write-reference

Run from the root of a checkout.  The package is not installed: children
run with PYTHONPATH=src, and the CLI as `python -m intervalsemirings.cli`.
Workloads (see perfbench/README.md):

    fs-scan         exhaustive queries on formal-sum handles (one child)
    subset-closure  closures and subset law checks (one child)
    isl-batch       about 40 `isl` processes in a closed loop, one client

The driver starts at most one child process at a time.  With --trace 0 it
measures the end-to-end metrics with tracing off; with --trace 1 it runs one
plain and one traced pass and reports the per-layer metrics.  In-process job
times are corrected for host contention (see calib.py) and printed next to
their raw values; process times are raw.  The last line of stdout is the
JSON result; each run is also appended to perfbench/out/runs.jsonl for
perfbench/compare.py.
"""

import argparse
import ctypes
import hashlib
import importlib.metadata
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calib
import isljobs
import tracing

ROOT = Path.cwd()
BENCH = Path(__file__).resolve().parent
OUT = BENCH / "out"
REFERENCE = BENCH / "reference.json"
SAMPLES = OUT / "isl-process-samples.json"

IN_PROCESS = ("fs-scan", "subset-closure")
WORKLOADS = IN_PROCESS + ("isl-batch",)
DEFAULT_SEED = 1
SETUP_RUNS = 15
JOB_LIMIT_S = 60.0   # one in-process job
ISL_LIMIT_S = 30.0   # one isl process
RUN_LIMIT_S = 170.0  # the whole run, set-up included

END_TO_END = [
    ("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"),
    ("job_p50_ms", "ms"), ("job_p75_ms", "ms"),
]

# queries returning a report with a pairs_scanned budget block
SCAN_QUERIES = ("zero_divisors", "units", "idempotents", "nilpotents",
                "s_zero_divisors", "s_idempotents", "s_units", "smarandache",
                "theorem_sweep")
# queries returning a verdict without a pair count
CHECK_QUERIES = ("classify", "verify_axioms", "check_substructure",
                 "semifield_within")
CALLS = ("domains.dom_add", "domains.dom_mul", "formalsums.fs_mul",
         "formalsums.fs_add", "formalsums.FormalSum", "matrices.mat_mul",
         "matrices.mat_add", "analysis.semifield_within")
PROBES = ("domains.dom_mul.us.zn30", "domains.dom_mul.us.chain4",
          "domains.dom_mul.us.neutro_mixed_zn5",
          "matrices.mat_mul.us.square2_zn2", "matrices.mat_mul.us.row5_zn2",
          "formalsums.fs_mul.us.chain2_L5_3", "formalsums.fs_mul.us.zn3_C5",
          "formalsums.fs_mul.us.zn3_C6")


def per_layer_names():
    """(metric, unit) of every per-layer metric, in report order."""
    out = [(f"{c}.calls", "count") for c in CALLS]
    out += [(f"{m}.self_s", "s") for m in tracing.MODULES]
    out.append(("analysis.elements_s", "s"))
    for q in SCAN_QUERIES:
        out += [(f"analysis.{q}.s", "s"),
                (f"analysis.{q}.pairs_scanned", "count"),
                (f"analysis.{q}.muls_per_pair", "muls/pair")]
    for q in CHECK_QUERIES:
        out += [(f"analysis.{q}.s", "s"), (f"analysis.{q}.muls", "count")]
    out += [("analysis.smarandache.hit_ratio", "ratio"),
            ("cli.import_s", "s"), ("cli.main_s", "s"), ("cli.process_s", "s"),
            ("trace_overhead_frac", "frac"), ("failed_frac", "frac")]
    out += [(p, "us") for p in PROBES]
    return out


class BenchError(Exception):
    """The benchmark itself cannot run; no result is printed."""


ADDR_NO_RANDOMIZE = 0x0040000


def fixed_layout():
    """Turn off address-space randomization for this process's children;
    True when that worked.

    On Python 3.11 hash(None) follows the address of None, and the hashes
    of domain specs include a None field, so set order, and with it the
    work a closure does, would change from process to process.  The
    personality flag is per process and inherited by children.  Without it
    the benchmark still runs, but call counts may vary between runs.
    """
    libc = ctypes.CDLL(None, use_errno=True)
    libc.personality.argtypes = [ctypes.c_ulong]
    libc.personality.restype = ctypes.c_int
    current = libc.personality(0xFFFFFFFF)
    return current != -1 and \
        libc.personality(current | ADDR_NO_RANDOMIZE) != -1


class Run:
    """One benchmark run: its deadline, child environment and job tally."""

    def __init__(self, args):
        self.args = args
        self.deadline = time.perf_counter() + RUN_LIMIT_S
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"),
                        PYTHONHASHSEED="0")
        self.env.pop("ISL_THREADS", None)
        self.attempted = 0
        self.failures = []
        self.reference = None
        if not args.write_reference:
            with open(REFERENCE, encoding="utf-8") as fh:
                self.reference = json.load(fh)
        self.digests = {}
        OUT.mkdir(exist_ok=True)

    def remaining(self):
        return self.deadline - time.perf_counter()

    def child(self, argv, timeout, stdin=None):
        """Run one child to completion: (start, end, exit code, stdout,
        stderr); the exit code is None when the child hit its time limit."""
        timeout = min(timeout, self.remaining())
        t0 = time.perf_counter()
        if timeout <= 0:
            return t0, t0, None, b"", b""
        try:
            p = subprocess.run(argv, cwd=ROOT, env=self.env, input=stdin,
                               capture_output=True, timeout=timeout)
        except subprocess.TimeoutExpired:
            return t0, time.perf_counter(), None, b"", b""
        return t0, time.perf_counter(), p.returncode, p.stdout, p.stderr

    def isl(self, argv, trace_out="-"):
        """One `isl` process through islproc.py: (corrected seconds, raw
        seconds, exit code, stdout, stderr)."""
        SAMPLES.unlink(missing_ok=True)
        t0, t1, code, out, err = self.child(
            [sys.executable, str(BENCH / "islproc.py"), str(SAMPLES),
             str(trace_out), *argv], ISL_LIMIT_S)
        corrected = None
        if SAMPLES.exists():
            with open(SAMPLES, encoding="utf-8") as fh:
                corrected = calib.correct(json.load(fh), t0, t1)
        raw = t1 - t0
        return (raw if corrected is None else corrected), raw, code, out, err

    def worker(self, *argv, stdin=None):
        _, _, code, out, err = self.child(
            [sys.executable, str(BENCH / "worker.py"), *argv],
            self.remaining(), stdin)
        if code != 0:
            tail = err.decode(errors="replace").strip().splitlines()[-3:]
            raise BenchError(f"worker {argv[0]} failed (exit {code}): "
                             + " | ".join(tail))
        return json.loads(out)

    def tally(self, workload, job_id, seeded, digest, error):
        """Count one job; a wrong, failed or timed-out job is a failure."""
        self.attempted += 1
        if error is None and digest is not None:
            self.digests.setdefault(job_id, digest)
            error = self._reference_error(workload, job_id, seeded, digest)
        if error is not None:
            self.failures.append(f"{job_id}: {error}")

    def _reference_error(self, workload, job_id, seeded, digest):
        if self.reference is None:
            return None
        if seeded and self.args.seed != self.reference["seed"]:
            return None
        ref = self.reference["digests"][workload].get(job_id)
        if ref is None:
            return "no reference digest"
        return None if ref == digest else "output differs from the reference"

    def setup_time(self, workload):
        """Median corrected and raw seconds of SETUP_RUNS fresh set-up
        processes, after one untimed warm-up that fills the bytecode cache:
        a worker that builds the handles, or a no-op `isl --help`."""
        times, raw = [], []
        for i in range(SETUP_RUNS + 1):
            if workload in IN_PROCESS:
                t0, t1, code, out, err = self.child(
                    [sys.executable, str(BENCH / "worker.py"), "setup",
                     "--workload", workload], ISL_LIMIT_S)
                dt = t1 - t0
                t = calib.correct(json.loads(out)["samples"], t0, t1) \
                    if code == 0 else None
            else:
                t, dt, code, out, err = self.isl(["--help"])
            if code != 0 or t is None:
                raise BenchError(f"set-up process failed (exit {code}): "
                                 + err.decode(errors="replace")[-300:])
            if i:
                times.append(t)
                raw.append(dt)
        return statistics.median(times), statistics.median(raw)


def _enough_passes(raw_walls, t_start, seconds):
    """True when another pass of median length would overrun seconds."""
    used = time.perf_counter() - t_start
    return used + statistics.median(raw_walls) > seconds


def timing_metrics(walls, pass_jobs, setup_s, peak_mb):
    """End-to-end metrics from the pass walls and each pass's per-job
    seconds.  A job's latency is its median over the passes, so the
    percentiles mean the same whatever the pass count."""
    ms = [statistics.median(ts) * 1e3 for ts in zip(*pass_jobs)]
    q = statistics.quantiles(ms, n=4, method="inclusive")
    return {"wall_s": statistics.median(walls), "setup_s": setup_s,
            "peak_rss_mb": peak_mb, "job_p50_ms": statistics.median(ms),
            "job_p75_ms": q[2]}


# ---------------------------------------------------------------------------
# in-process workloads


def run_in_process(run):
    a = run.args
    w = a.workload
    if a.trace:
        probes = run.worker("probe", "--seed", str(a.seed))
        trace_out = OUT / f"trace-{w}-seed{a.seed}.json"
        res = run.worker("run", "--workload", w, "--seed", str(a.seed),
                         "--seconds", "0", "--job-limit", str(JOB_LIMIT_S),
                         "--trace-out", str(trace_out))
    else:
        setup = run.setup_time(w)
        res = run.worker("run", "--workload", w, "--seed", str(a.seed),
                         "--seconds", str(a.seconds),
                         "--job-limit", str(JOB_LIMIT_S))
    passes = res["passes"]
    for p in passes:
        for j in p["jobs"]:
            run.tally(w, j["id"], j["seeded"], j.get("digest"), j["error"])
    if a.trace:
        walls = [p["wall_s"] for p in passes]
        return layer_metrics(res["trace"], probes, walls, run, {}), None, None
    metrics = timing_metrics([p["wall_s"] for p in passes],
                             [[j["s"] for j in p["jobs"]] for p in passes],
                             setup[0], res["peak_rss_mb"])
    raw = timing_metrics([p["raw_wall_s"] for p in passes],
                         [[j["raw_s"] for j in p["jobs"]] for p in passes],
                         setup[1], res["peak_rss_mb"])
    return metrics, raw, (len(passes[0]["jobs"]), len(passes))


# ---------------------------------------------------------------------------
# isl-batch


def _isl_digest(code, stdout):
    return hashlib.sha256(stdout + f"\nexit={code}".encode()).hexdigest()


def isl_pass(run, jobs, eval_outputs, trace_out="-"):
    """One closed-loop pass over the job list: corrected and raw seconds per
    process, plus the per-process trace documents when tracing."""
    times, raw = [], []
    traces = []
    for job_id, argv, ev in jobs:
        t, dt, code, out, err = run.isl(argv, trace_out)
        times.append(t)
        raw.append(dt)
        if code is None:
            run.tally("isl-batch", job_id, ev is not None, None,
                      f"exceeded the {ISL_LIMIT_S} s process limit")
            continue
        error = None if code == 0 else \
            f"exit {code}: {err.decode(errors='replace').strip()[-200:]}"
        run.tally("isl-batch", job_id, ev is not None,
                  _isl_digest(code, out), error)
        if ev is not None:
            lines = out.decode(errors="replace").splitlines()
            eval_outputs.append((job_id, lines[-1] if lines else ""))
        if trace_out != "-" and code == 0:
            with open(trace_out, encoding="utf-8") as fh:
                doc = json.load(fh)
            doc["process_s"] = dt
            doc["job"] = job_id
            traces.append(doc)
    return times, raw, traces


def run_isl(run):
    a = run.args
    jobs = isljobs.jobs_for(a.seed)
    evals = [ev for _, _, ev in jobs if ev is not None]
    eval_outputs = []
    if a.trace:
        probes = run.worker("probe", "--seed", str(a.seed))
        plain, _, _ = isl_pass(run, jobs, eval_outputs)
        traced, _, traces = isl_pass(run, jobs, eval_outputs,
                                     OUT / "isl-process-trace.json")
    else:
        setup = run.setup_time(a.workload)
        t_start = time.perf_counter()
        pass_jobs, raw_pass_jobs = [], []
        while not raw_pass_jobs or not _enough_passes(
                [sum(r) for r in raw_pass_jobs], t_start, a.seconds):
            times, raw, _ = isl_pass(run, jobs, eval_outputs)
            pass_jobs.append(times)
            raw_pass_jobs.append(raw)
        peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    expected = run.worker("check-eval", stdin=json.dumps(evals).encode())
    for job_id, line in eval_outputs:
        if line != expected[job_id]:
            run.failures.append(f"{job_id}: result differs from the API "
                                f"re-evaluation: {line!r}")
    if a.trace:
        snap = tracing.empty_snapshot()
        for doc in traces:
            tracing.merge(snap, doc)
        spans = [dict(s, job=doc["job"], process=i)
                 for i, doc in enumerate(traces) for s in doc["spans"]]
        with open(OUT / f"trace-isl-batch-seed{a.seed}.json", "w",
                  encoding="utf-8") as fh:
            json.dump({"spans": spans}, fh)
        cli = {
            "cli.import_s": statistics.median(d["import_s"] for d in traces),
            "cli.main_s": statistics.median(d["main_s"] for d in traces),
            "cli.process_s": statistics.median(
                d["process_s"] - d["import_s"] - d["main_s"] for d in traces),
        }
        walls = [sum(plain), sum(traced)]
        return layer_metrics(snap, probes, walls, run, cli), None, None
    peak_mb = peak_kb / 1024.0
    metrics = timing_metrics([sum(t) for t in pass_jobs], pass_jobs,
                             setup[0], peak_mb)
    raw = timing_metrics([sum(t) for t in raw_pass_jobs], raw_pass_jobs,
                         setup[1], peak_mb)
    return metrics, raw, (len(jobs), len(pass_jobs))


# ---------------------------------------------------------------------------
# per-layer metrics


def layer_metrics(snap, probes, walls, run, cli):
    """Per-layer metrics from a trace snapshot.  walls holds the plain and
    the traced pass; unused layers read 0."""
    calls, self_s, queries = snap["calls"], snap["self_s"], snap["queries"]
    zero = [0.0, 0, 0, 0, 0]
    m = {f"{c}.calls": calls.get(c, 0) for c in CALLS}
    m.update({f"{mod}.self_s": self_s.get(mod, 0.0)
              for mod in tracing.MODULES})
    m["analysis.elements_s"] = queries.get("elements", zero)[0]
    for q in SCAN_QUERIES:
        s, pairs, muls = queries.get(q, zero)[:3]
        m[f"analysis.{q}.s"] = s
        m[f"analysis.{q}.pairs_scanned"] = pairs
        m[f"analysis.{q}.muls_per_pair"] = muls / pairs if pairs else 0.0
    for q in CHECK_QUERIES:
        s, _, muls = queries.get(q, zero)[:3]
        m[f"analysis.{q}.s"] = s
        m[f"analysis.{q}.muls"] = muls
    sm = queries.get("smarandache", zero)
    m["analysis.smarandache.hit_ratio"] = sm[3] / sm[1] if sm[1] else 0.0
    for name in ("cli.import_s", "cli.main_s", "cli.process_s"):
        m[name] = cli.get(name, 0.0)
    m["trace_overhead_frac"] = walls[1] / walls[0] - 1.0
    m["failed_frac"] = len(run.failures) / max(run.attempted, 1)
    m.update(probes)
    return m


# ---------------------------------------------------------------------------
# run record, reference digests, entry point


def run_record(args, layout_fixed):
    sha = dirty = None
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                 capture_output=True, text=True,
                                 timeout=30).stdout.strip() or None
            dirty = bool(subprocess.run(
                ["git", "status", "--porcelain", "--untracked-files=no"],
                cwd=ROOT, capture_output=True, text=True,
                timeout=30).stdout.strip())
        except (OSError, subprocess.TimeoutExpired):
            pass
    try:
        numpy = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy = None
    return {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "git_sha": sha, "git_dirty": dirty,
        "python": platform.python_version(), "numpy": numpy,
        "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
        "job_limit_s": JOB_LIMIT_S, "isl_limit_s": ISL_LIMIT_S,
        "pythonhashseed": 0, "fixed_layout": layout_fixed,
    }


def measure(args):
    """(run, result, raw end-to-end metrics or None, (jobs, passes) or None)
    of one benchmark run."""
    run = Run(args)
    if args.workload in IN_PROCESS:
        metrics, raw, samples = run_in_process(run)
    else:
        metrics, raw, samples = run_isl(run)
    units = dict(per_layer_names() if args.trace else END_TO_END)
    result = {
        "correct": not run.failures,
        "attempted": run.attempted,
        "failed": len(run.failures),
        "metrics": {k: {"value": metrics[k], "unit": u}
                    for k, u in units.items()},
    }
    return run, result, raw, samples


def write_reference():
    digests = {}
    for w in WORKLOADS:
        args = argparse.Namespace(workload=w, seed=DEFAULT_SEED, seconds=0,
                                  trace=0, write_reference=True)
        run, _, _, _ = measure(args)
        if run.failures:
            raise BenchError(f"{w}: jobs failed, no reference written: "
                             + "; ".join(run.failures[:5]))
        digests[w] = run.digests
    with open(REFERENCE, "w", encoding="utf-8") as fh:
        json.dump({"seed": DEFAULT_SEED, "digests": digests}, fh, indent=1,
                  sort_keys=True)
        fh.write("\n")
    print(f"wrote {REFERENCE.relative_to(ROOT)}")


def main():
    parser = argparse.ArgumentParser(
        description="Benchmark of the interval-semiring analysis engine.")
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", action="store_true",
                        dest="write_reference",
                        help="record the output digests of the default seed")
    args = parser.parse_args()
    if not (ROOT / "src" / "intervalsemirings" / "__init__.py").is_file():
        sys.exit("error: run from a checkout root holding "
                 "src/intervalsemirings")
    if args.workload is None and not args.write_reference:
        parser.error("--workload is required")
    layout_fixed = fixed_layout()
    try:
        if args.write_reference:
            write_reference()
            return
        record = run_record(args, layout_fixed)
        run, result, raw, samples = measure(args)
    except BenchError as e:
        sys.exit(f"error: {e}")
    for f in run.failures:
        print(f"FAILED {f}", file=sys.stderr)
    with open(OUT / "runs.jsonl", "a", encoding="utf-8") as fh:
        fh.write(json.dumps(dict(record, result=result, raw=raw,
                                 samples=samples)) + "\n")
    print("record " + json.dumps(record))
    for name, m in result["metrics"].items():
        line = f"{name:44s} {m['value']:.6g} {m['unit']}"
        if raw:
            line += f"  (raw {raw[name]:.6g})"
        print(line)
    if samples:
        print("job latency: median over %d passes of each of %d jobs"
              % (samples[1], samples[0]))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
