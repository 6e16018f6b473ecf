"""Compare two sets of benchmark runs.

    python3 perfbench/compare.py BASE.jsonl CHANGE.jsonl

BASE and CHANGE are runs.jsonl files that perfbench/run.py appends to (one
per checkout).  Runs pair up by workload, seed and trace flag, in file
order, so make them alternately: base, change, change, base, ...  Each
workload gets its own table with every metric's median and quartiles on
both sides and the ratio change/base with its base.  End-to-end metrics
also get a verdict against the bound in BENCHMARK.json:

    better      the change wins at least nine tenths of the pairs (ties
                count for neither) and the medians differ by more than the
                base's quartile distance; or, when the base spreads wider
                than the bound, every change run beats every base run
    worse       the change's median is worse than the base's by more than
                the bound
    unresolved  the base runs spread wider than the bound
    unchanged   none of the above
"""

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

MANIFEST = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load(path):
    """{(workload, trace): {metric: [(seed, value), ...]}} in file order."""
    runs = defaultdict(lambda: defaultdict(list))
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            rec = json.loads(line)
            key = (rec["workload"], rec["trace"])
            for name, m in rec["result"]["metrics"].items():
                runs[key][name].append((rec["seed"], m["value"]))
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def pairs(base, change):
    """Base and change values paired by seed, in run order."""
    pending = defaultdict(list)
    for seed, v in base:
        pending[seed].append(v)
    out = []
    for seed, v in change:
        if pending[seed]:
            out.append((pending[seed].pop(0), v))
    return out


def verdict(base, change, lower_is_better, bound):
    """(verdict, wins, pair count) for one end-to-end metric."""
    b = [v for _, v in base]
    c = [v for _, v in change]
    q1, med_b, q3 = quartiles(b)
    med_c = quartiles(c)[1]
    sign = 1 if lower_is_better else -1
    matched = pairs(base, change)
    wins = sum(1 for pb, pc in matched if sign * (pc - pb) < 0)
    all_better = all(sign * (vc - vb) < 0 for vc in c for vb in b)
    worse_by = sign * (med_c - med_b) / med_b
    if (q3 - q1) / med_b > bound:
        result = "better" if all_better else "unresolved"
    elif worse_by > bound:
        result = "worse"
    elif (matched and wins >= 0.9 * len(matched) and worse_by < 0
          and abs(med_c - med_b) > q3 - q1):
        result = "better"
    else:
        result = "unchanged"
    return result, wins, len(matched)


def _fmt(values):
    q1, med, q3 = quartiles(values)
    return f"{med:.5g} [{q1:.5g}, {q3:.5g}]"


def main(argv):
    if len(argv) != 2:
        sys.exit(__doc__)
    with open(MANIFEST, encoding="utf-8") as fh:
        manifest = json.load(fh)
    e2e = {m["name"]: m for m in manifest["end_to_end"]}
    base, change = load(argv[0]), load(argv[1])
    for key in sorted(set(base) & set(change)):
        workload, trace = key
        print(f"== {workload} ({'traced, per-layer' if trace else 'end-to-end'})")
        print(f"{'metric':44s} {'base median [q1, q3]':30s} "
              f"{'change median [q1, q3]':30s} {'change/base':26s} verdict")
        for name in base[key]:
            b, c = base[key][name], change[key].get(name)
            if not c:
                continue
            med_b = quartiles([v for _, v in b])[1]
            med_c = quartiles([v for _, v in c])[1]
            ratio = (f"{med_c / med_b:.4f} (base {med_b:.5g})" if med_b
                     else f"n/a (base {med_b:.5g})")
            line = (f"{name:44s} {_fmt([v for _, v in b]):30s} "
                    f"{_fmt([v for _, v in c]):30s} {ratio:26s}")
            if name in e2e and not trace:
                m = e2e[name]
                v, wins, n = verdict(b, c, m["better"] == "lower", m["bound"])
                line += f" {v} ({wins}/{n} pairs won, bound {m['bound']})"
            print(line)
        print()


if __name__ == "__main__":
    main(sys.argv[1:])
