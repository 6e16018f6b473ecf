"""Handles, job lists and output checks of the two in-process workloads.

Imported only by the worker child process, never by the driver, so the
driver's own start-up does not import the package.

The handles are fixed; the seed picks only the generated inputs (the
subsets of ``subset-closure`` and the probe pairs).  Every job builds its
handle inside the timed pass on first use, so each pass pays enumeration
the way a fresh user session does.
"""

import hashlib
import json
import random

from intervalsemirings import analysis, domains, formalsums, matrices
from intervalsemirings.analysis import SemiringHandle
from intervalsemirings.carriers import build_loop, cyclic_group
from intervalsemirings.domains import (chain_lattice, neutro_mixed,
                                       zn_interval)
from intervalsemirings.expressions import eval_expression
from intervalsemirings.formalsums import make_spec

HANDLES = {
    "zn3.C5": lambda: SemiringHandle.for_formal_sums(
        make_spec(zn_interval(3), cyclic_group(5))),
    "chain2.L5_3": lambda: SemiringHandle.for_formal_sums(
        make_spec(chain_lattice(2), build_loop(5, 3))),
    "zn3.C6": lambda: SemiringHandle.for_formal_sums(
        make_spec(zn_interval(3), cyclic_group(6))),
    "row3.zn3": lambda: SemiringHandle.for_matrices(zn_interval(3), ("row", 3)),
    "square2.chain2": lambda: SemiringHandle.for_matrices(chain_lattice(2),
                                                          ("square", 2)),
    "neutro_mixed.zn5": lambda: SemiringHandle.for_domain(
        neutro_mixed(zn_interval(5))),
    "square2.zn3": lambda: SemiringHandle.for_matrices(zn_interval(3),
                                                       ("square", 2)),
}

# Pair budget of the 729-element zero-divisor scan: about 1.7 s of scanning
# on a 2-core sandbox, so enumeration stays a visible share of the job.
ZD_729_BUDGET = 20000

# Queries are looked up on the module at call time, so the traced run sees
# the wrapped functions.
FS_SCAN = [
    ("zero_divisors@zn3.C5", "zn3.C5",
     lambda h: analysis.find_zero_divisors(h)),
    ("units@zn3.C5", "zn3.C5", lambda h: analysis.find_units(h)),
    ("idempotents@zn3.C5", "zn3.C5", lambda h: analysis.find_idempotents(h)),
    ("nilpotents@zn3.C5", "zn3.C5", lambda h: analysis.find_nilpotents(h)),
    ("classify@zn3.C5", "zn3.C5", lambda h: analysis.classify_semiring(h)),
    ("verify_axioms@zn3.C5", "zn3.C5", lambda h: analysis.verify_axioms(h)),
    ("classify@chain2.L5_3", "chain2.L5_3",
     lambda h: analysis.classify_semiring(h)),
    ("s_zero_divisors@chain2.L5_3", "chain2.L5_3",
     lambda h: analysis.find_s_special(h, "s-zero-divisor")),
    ("s_idempotents@chain2.L5_3", "chain2.L5_3",
     lambda h: analysis.find_s_special(h, "s-idempotent")),
    ("verify_axioms@chain2.L5_3", "chain2.L5_3",
     lambda h: analysis.verify_axioms(h)),
    ("zero_divisors_budget@zn3.C6", "zn3.C6",
     lambda h: analysis.find_zero_divisors(h, budget=ZD_729_BUDGET)),
]

SUBSET_HANDLES = ("row3.zn3", "square2.zn3", "neutro_mixed.zn5")

SUBSET_CLOSURE = [
    ("smarandache@row3.zn3", "row3.zn3",
     lambda h: analysis.smarandache_search(h)),
    ("smarandache@square2.chain2", "square2.chain2",
     lambda h: analysis.smarandache_search(h)),
    ("smarandache@neutro_mixed.zn5", "neutro_mixed.zn5",
     lambda h: analysis.smarandache_search(h)),
    ("s_zero_divisors@square2.zn3", "square2.zn3",
     lambda h: analysis.find_s_special(h, "s-zero-divisor")),
    ("s_units@square2.zn3", "square2.zn3",
     lambda h: analysis.find_s_special(h, "s-unit")),
]

WORKLOADS = {"fs-scan": FS_SCAN, "subset-closure": SUBSET_CLOSURE}

# subsets drawn per handle: half closures of one random element, half
# random sets with zero; closures above the cap are redrawn so the cost of
# a pass depends little on the seed
SUBSETS_PER_HANDLE = 6
SUBSET_SIZE = 6
CLOSURE_CAP = 27


def _closure(h, seed):
    out = set(seed)
    frontier = list(seed)
    while frontier:
        nxt = []
        for x in frontier:
            for y in list(out):
                for z in (h.add(x, y), h.mul(x, y), h.mul(y, x)):
                    if z not in out:
                        out.add(z)
                        nxt.append(z)
        frontier = nxt
        if len(out) > CLOSURE_CAP:
            return None
    return out


def draw_subsets(seed):
    """Seeded subsets per subset handle, as lists in canonical order."""
    out = {}
    for name in SUBSET_HANDLES:
        h = HANDLES[name]()
        rng = random.Random(f"subsets:{name}:{seed}")
        elems = h.elements()
        subsets = []
        while len(subsets) < SUBSETS_PER_HANDLE:
            if len(subsets) % 2 == 0:
                c = _closure(h, {h.zero, rng.choice(elems)})
                if c is None:
                    continue
            else:
                c = set(rng.sample(elems, SUBSET_SIZE - 1)) | {h.zero}
            subsets.append(sorted(c, key=h.key))
        out[name] = subsets
    return out


def _subset_job(subs):
    def run(h):
        res = []
        for s in subs:
            res.append(("subsemiring",
                        analysis.check_substructure(h, s, "subsemiring")))
            res.append(("ideal", analysis.check_substructure(h, s, "ideal")))
            res.append(("semifield", analysis.semifield_within(h, s)))
        return res
    return run


def jobs_for(workload, seed):
    """(job id, handle name, call, subsets) for every job of a workload.

    ``subsets`` is None for the fixed jobs.  The seeded subset jobs run
    both substructure kinds and semifield_within on every drawn subset of
    one handle.
    """
    jobs = [(j, n, f, None) for j, n, f in WORKLOADS[workload]]
    if workload == "subset-closure":
        for name, subs in draw_subsets(seed).items():
            jobs.append((f"subsets@{name}", name, _subset_job(subs), subs))
    return jobs


# ---------------------------------------------------------------------------
# output rendering and checks


def _render_items(h, items):
    return [it if isinstance(it, str) else h.render(it) for it in items]


def render(h, result):
    """Deterministic text of a job's output; its digest is compared with
    the committed reference."""
    if isinstance(result, analysis.AnalysisReport):
        return result.to_json_str()
    if isinstance(result, analysis.Classification):
        return json.dumps(result.to_json())
    if isinstance(result, list):
        return json.dumps([[tag, ok, _render_items(h, w or ())]
                           for tag, (ok, w) in result])
    ok, witness = result
    return json.dumps([ok, _render_items(h, witness or ())])


def digest(text):
    return hashlib.sha256(text.encode()).hexdigest()


S_KINDS = ("s-zero-divisor", "s-anti-zero-divisor", "s-idempotent", "s-unit")


def _nonzero(h, *xs):
    return all(x != h.zero for x in xs)


def _power_zero_at(h, x, index):
    p = x
    for i in range(2, index + 1):
        p = h.mul(p, x)
        if p == h.zero:
            return i == index
    return False


def _check_finding(h, f):
    z, one = h.zero, h.one
    e = f.elements
    if tuple(f.witness) != tuple(_render_items(h, e)):
        return "witness text does not match its elements"
    if f.kind == "zero-divisor":
        x, y = e
        ok = _nonzero(h, x, y) and h.mul(x, y) == z and h.mul(y, x) == z
    elif f.kind == "one-sided-zero-divisor":
        x, y = e
        ok = _nonzero(h, x, y) and h.mul(x, y) == z and h.mul(y, x) != z
    elif f.kind == "unit":
        x, y = e
        ok = h.mul(x, y) == one and h.mul(y, x) == one
    elif f.kind == "idempotent":
        ok = h.mul(e[0], e[0]) == e[0]
    elif f.kind.startswith("nilpotent-index-"):
        ok = _power_zero_at(h, e[0], int(f.kind.rsplit("-", 1)[1]))
    elif f.kind in S_KINDS:
        ok = analysis.validate_s_certificate(h, f.kind, e)
    elif f.kind == "semifield-subset":
        ok = analysis.semifield_within(h, e)[0] and len(e) < h.size()
    else:
        return f"no check for finding kind {f.kind!r}"
    return None if ok else f"{f.kind} finding fails its re-check: {f.witness}"


def _parse(h, texts):
    return [eval_expression(h, t) for t in texts]


def _check_classification(h, c):
    w = c.witnesses
    failed = [n for n in ("strict", "commutative", "has_one",
                          "zero_divisor_free") if not getattr(c, n)]
    if c.semifield != (not failed) or \
            (failed and list(w.get("semifield", ())) != failed):
        return "semifield flag disagrees with the other flags"
    if not c.strict:
        a, b = _parse(h, w["strict"])
        if h.add(a, b) != h.zero or not (_nonzero(h, a) or _nonzero(h, b)):
            return "strict witness fails"
    if not c.commutative:
        x, y = _parse(h, w["commutative"])
        if h.mul(x, y) == h.mul(y, x):
            return "commutative witness fails"
    if not c.zero_divisor_free:
        x, y = _parse(h, w["zero_divisor_free"])
        if not (_nonzero(h, x, y) and h.mul(x, y) == h.zero
                and h.mul(y, x) == h.zero):
            return "zero_divisor_free witness fails"
    return None


def _axiom_witness_holds(h, w):
    law, xs = w[0], w[1:]
    add, mul = h.add, h.mul
    if law == "zero-identity":
        x, = xs
        return add(h.zero, x) != x or add(x, h.zero) != x
    if law == "addition-not-commutative":
        x, y = xs
        return add(x, y) != add(y, x)
    if law == "addition-not-associative":
        x, y, z = xs
        return add(add(x, y), z) != add(x, add(y, z))
    if law == "not-left-distributive":
        x, y, z = xs
        return mul(x, add(y, z)) != add(mul(x, y), mul(x, z))
    if law == "not-right-distributive":
        x, y, z = xs
        return mul(add(y, z), x) != add(mul(y, x), mul(z, x))
    return False


def _closed(h, mset, kind):
    if h.zero not in mset:
        return False
    if any(h.add(x, y) not in mset or h.mul(x, y) not in mset
           for x in mset for y in mset):
        return False
    if kind == "ideal":
        return all(h.mul(s, p) in mset and h.mul(p, s) in mset
                   for s in h.elements() for p in mset)
    return True


def _substructure_witness_holds(h, mset, w):
    law, xs = w[0], w[1:]
    if law == "missing-zero":
        return h.zero not in mset
    if law == "trivial":
        return len(mset) < 2
    if law == "not-closed-under-addition":
        return h.add(*xs) not in mset
    if law in ("not-closed-under-multiplication", "not-absorbing-left",
               "not-absorbing-right"):
        return h.mul(*xs) not in mset
    if law == "not-strict":
        x, y = xs
        return h.add(x, y) == h.zero and (_nonzero(h, x) or _nonzero(h, y))
    if law == "not-commutative":
        x, y = xs
        return h.mul(x, y) != h.mul(y, x)
    if law == "no-internal-identity":
        return not any(all(h.mul(u, x) == x and h.mul(x, u) == x
                           for x in mset) for u in mset)
    if law == "zero-divisor":
        x, y = xs
        return (_nonzero(h, x, y) and h.mul(x, y) == h.zero
                and h.mul(y, x) == h.zero)
    return False


def check(h, result, subsets=None):
    """Re-check a job's output from its witnesses; None when it holds."""
    if isinstance(result, analysis.AnalysisReport):
        for f in result.findings:
            err = _check_finding(h, f)
            if err:
                return err
        return None
    if isinstance(result, analysis.Classification):
        return _check_classification(h, result)
    if isinstance(result, list):
        subs = [set(s) for s in subsets]
        for i, (tag, (ok, w)) in enumerate(result):
            mset = subs[i // 3]
            if ok and tag == "semifield":
                ok_sub = analysis.check_substructure(h, list(mset),
                                                     "subsemiring")[0]
                if not ok_sub:
                    return "semifield subset is not a subsemiring"
            elif ok and not _closed(h, mset, tag):
                return f"{tag} verdict fails the closure re-check"
            elif not ok and not _substructure_witness_holds(h, mset, w):
                return f"{tag} witness fails its re-check: {w[0]}"
        return None
    ok, w = result
    if not ok and not _axiom_witness_holds(h, w):
        return f"axiom witness fails its re-check: {w[0]}"
    return None


# ---------------------------------------------------------------------------
# element-op probe ladder

PROBES = [
    ("domains.dom_mul.us.zn30", lambda: SemiringHandle.for_domain(
        zn_interval(30)), lambda: domains.dom_mul),
    ("domains.dom_mul.us.chain4", lambda: SemiringHandle.for_domain(
        chain_lattice(4)), lambda: domains.dom_mul),
    ("domains.dom_mul.us.neutro_mixed_zn5", HANDLES["neutro_mixed.zn5"],
     lambda: domains.dom_mul),
    ("matrices.mat_mul.us.square2_zn2", lambda: SemiringHandle.for_matrices(
        zn_interval(2), ("square", 2)), lambda: matrices.mat_mul),
    ("matrices.mat_mul.us.row5_zn2", lambda: SemiringHandle.for_matrices(
        zn_interval(2), ("row", 5)), lambda: matrices.mat_mul),
    ("formalsums.fs_mul.us.chain2_L5_3", HANDLES["chain2.L5_3"],
     lambda: formalsums.fs_mul),
    ("formalsums.fs_mul.us.zn3_C5", HANDLES["zn3.C5"],
     lambda: formalsums.fs_mul),
    ("formalsums.fs_mul.us.zn3_C6", HANDLES["zn3.C6"],
     lambda: formalsums.fs_mul),
]
