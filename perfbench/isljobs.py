"""Job list of the isl-batch workload: `isl` command lines, no package import.

The sweeps, classify queries and tables are fixed.  The `eval` expressions
are drawn from the seed: random formal sums, matrices and neutrosophic
intervals over four small spec files, so each process does a little
arithmetic after paying interpreter start and package import.
"""

import random

SPECS = "perfbench/specs/"

FIXED = [
    ("verify-loop-laws-5-25", ["verify", "loop-laws", "--n", "5..25"]),
    ("verify-zn-prime-clean-97", ["verify", "zn-prime-clean", "--pmax", "97"]),
    ("verify-zn-composite-zd-100",
     ["verify", "zn-composite-zd", "--nmax", "100"]),
    ("verify-neutro-prime-3-13", ["verify", "neutro-prime-no-subsemiring",
                                  "--primes", "3,5,7,11,13"]),
    ("verify-loop-laws-5-41", ["verify", "loop-laws", "--n", "5..41"]),
    ("classify-zn18-zero-divisors",
     ["classify", "--spec", SPECS + "zn18.json", "--query", "zero-divisors",
      "--json"]),
    ("classify-zn15-ideal",
     ["classify", "--spec", SPECS + "zn15.json", "--query", "ideal",
      "--subset", "[0,0]; [0,3]; [0,6]; [0,9]; [0,12]", "--expect", "ideal"]),
    ("classify-chain3-smarandache",
     ["classify", "--spec", SPECS + "chain3.json", "--query", "smarandache",
      "--mode", "exhaustive"]),
    ("classify-chain2-L5_3-semifield",
     ["classify", "--spec", SPECS + "chain2-L5_3.json", "--query",
      "semifield"]),
    ("table-loop-7-3", ["table", "loop", "--n", "7", "--m", "3"]),
    ("table-groupoid-5-3-2", ["table", "groupoid", "--n", "5", "--t", "3",
                              "--u", "2"]),
    ("table-mult-group-5", ["table", "mult-group", "--p", "5", "--interval"]),
    ("table-cyclic-6", ["table", "cyclic", "--k", "6", "--json"]),
    ("table-dihedral-4", ["table", "dihedral", "--m", "4"]),
    ("table-symmetric-group-3", ["table", "symmetric-group", "--k", "3",
                                 "--json"]),
]

EVALS_PER_SPEC = 6


def _interval(rng, n):
    return f"[0,{rng.randrange(1, n)}]"


def _terms(rng, tokens, n):
    picked = rng.sample(tokens, rng.randint(2, 4))
    return " + ".join(f"{_interval(rng, n)}*{t}" for t in picked)


def _square(rng, n, size):
    rows = [", ".join(_interval(rng, n) for _ in range(size))
            for _ in range(size)]
    return "[" + ", ".join(f"[{r}]" for r in rows) + "]"


def _neutro(rng, n):
    terms = [f"[0,{rng.randrange(1, n)}+{rng.randrange(1, n)}I]",
             f"[0,{rng.randrange(1, n)}I]", _interval(rng, n)]
    return " + ".join(rng.sample(terms, 2))


# spec file, expression generator, formal-sum spec (takes --trace)
EVAL_SPECS = [
    ("poly7-zn30.json",
     lambda rng: _terms(rng, [f"x^{e}" for e in range(7)], 30), True),
    ("loop7_3-zn5.json",
     lambda rng: _terms(rng, ["e"] + [f"g{i}" for i in range(1, 8)], 5), True),
    ("square3-zn6.json", lambda rng: _square(rng, 6, 3), False),
    ("neutro-mixed-zn5.json", lambda rng: _neutro(rng, 5), False),
]


def eval_jobs(seed):
    """Seeded `isl eval` jobs as dicts (id, spec, lhs, rhs, op, json, trace)."""
    rng = random.Random(f"isl-batch:{seed}")
    jobs = []
    for spec, gen, formal_sum in EVAL_SPECS:
        for i in range(EVALS_PER_SPEC):
            op = "mul" if i % 2 == 0 else "add"
            jobs.append({
                "id": f"eval-{spec[:-5]}-{i}",
                "spec": SPECS + spec,
                "lhs": gen(rng),
                "rhs": gen(rng),
                "op": op,
                "json": i % 3 == 1,
                "trace": formal_sum and i == 2,
            })
    return jobs


def eval_argv(job):
    argv = ["eval", "--spec", job["spec"], "--lhs", job["lhs"],
            "--rhs", job["rhs"], "--op", job["op"]]
    if job["json"]:
        argv.append("--json")
    if job["trace"]:
        argv.append("--trace")
    return argv


def jobs_for(seed):
    """(job id, isl argv, eval job or None) in run order."""
    jobs = [(job_id, argv, None) for job_id, argv in FIXED]
    jobs += [(j["id"], eval_argv(j), j) for j in eval_jobs(seed)]
    return jobs
