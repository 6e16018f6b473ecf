"""Compiled Cayley tables against the object arithmetic they replace.

The ``ref_*`` functions scan element objects with the handle's own
arithmetic; the table scans must match them exactly, witnesses and
``pairs_scanned`` included.
"""

import collections
import functools
import itertools
import json
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from intervalsemirings import (
    ROW,
    SQUARE,
    PolyBasis,
    SemiringHandle,
    SpecError,
    build_groupoid,
    build_loop,
    chain_lattice,
    check_substructure,
    classify_semiring,
    cyclic_group,
    element,
    find_idempotents,
    find_nilpotents,
    find_s_special,
    find_units,
    find_zero_divisors,
    make_spec,
    mult_semigroup_zn,
    nat_interval,
    neutro_mixed,
    neutro_pure,
    rat_interval,
    semifield_within,
    smarandache_search,
    symmetric_semigroup,
    table_lattice,
    theorem_sweep,
    validate_s_certificate,
    verify_axioms,
    zn_interval,
)
from intervalsemirings import (
    analysis,
    carriers,
    cli,
    domains,
    handle,
    laws,
    structural,
    tables,
)
from intervalsemirings.analysis import _finish_classification
from intervalsemirings.reports import Finding, _report, _wit
from intervalsemirings.structural import (
    _domain_zero_divisor_pair,
    _strict_domain,
)
from intervalsemirings.domains import (
    element_key,
    format_element,
    is_strict_domain,
)


def dh(d):
    return SemiringHandle.for_domain(d)


def fsh(coeff, basis, **kw):
    return SemiringHandle.for_formal_sums(make_spec(coeff, basis, **kw))


def mh(d, shape):
    return SemiringHandle.for_matrices(d, shape)


def _closure_under_ops(h, seed, cap):
    """Closure of seed under + and * (None if it exceeds the cap), by a
    breadth-first search on element objects: the reference the table
    closures are checked against."""
    out = set(seed)
    frontier = list(seed)
    while frontier:
        nxt = []
        for x in frontier:
            for y in list(out):
                for z in (h.add(x, y), h.add(y, x), h.mul(x, y), h.mul(y, x)):
                    if z not in out:
                        out.add(z)
                        nxt.append(z)
                        if len(out) > cap:
                            return None
        frontier = nxt
    return frozenset(out)


def _object_tables(h):
    """(add, mul, zero, one) index tables and indices over h.elements(),
    built with the handle's own add and mul (one is None without one)."""
    elems = h.elements()
    idx = {x: i for i, x in enumerate(elems)}
    add = np.array([[idx[h.add(x, y)] for y in elems] for x in elems],
                   dtype=np.intp)
    mul = np.array([[idx[h.mul(x, y)] for y in elems] for x in elems],
                   dtype=np.intp)
    one = getattr(h, "one", None)
    return add, mul, idx[h.zero], None if one is None else idx[one]


# the Boolean lattice 2x2 with its bottom at index 1, so the zero is not
# the first domain element
BOOL4 = table_lattice(
    ((0, 0, 3, 3), (0, 1, 2, 3), (3, 2, 2, 3), (3, 3, 3, 3)),
    ((0, 1, 1, 0), (1, 1, 1, 1), (1, 1, 2, 2), (0, 1, 2, 3)),
    names=("a", "0", "b", "1"))

# name -> handle builder; sizes in brackets
HANDLES = {
    "zn(2)": lambda: dh(zn_interval(2)),
    "zn(12)": lambda: dh(zn_interval(12)),
    "zn(24)": lambda: dh(zn_interval(24)),
    "zn(199)": lambda: dh(zn_interval(199)),
    "chain(5)": lambda: dh(chain_lattice(5)),
    "bool4": lambda: dh(BOOL4),
    "neutro-pure(zn(6))": lambda: dh(neutro_pure(zn_interval(6))),
    "neutro-mixed(zn(4))": lambda: dh(neutro_mixed(zn_interval(4))),
    "neutro-mixed(chain(3))": lambda: dh(neutro_mixed(chain_lattice(3))),
    "neutro-mixed(zn(14)) [196]": lambda: dh(neutro_mixed(zn_interval(14))),
    "zn(3).C1 [1]": lambda: fsh(zn_interval(3), cyclic_group(1)),
    "zn(2).C3 [8]": lambda: fsh(zn_interval(2), cyclic_group(3)),
    "zn(4).C3 [64]": lambda: fsh(zn_interval(4), cyclic_group(3)),
    "zn(2).C7 [128]": lambda: fsh(zn_interval(2), cyclic_group(7)),
    "zn(3).poly-cyclic-3 [27]": lambda: fsh(zn_interval(3), PolyBasis(3)),
    "chain(2).L5(2) [64]": lambda: fsh(chain_lattice(2), build_loop(5, 2)),
    "zn(2).L5(3) [64]": lambda: fsh(zn_interval(2), build_loop(5, 3)),
    "zn(2).Z4(1,2) [16]": lambda: fsh(zn_interval(2), build_groupoid(4, 1, 2)),
    "zn(3).Z3(2,1) [27]": lambda: fsh(zn_interval(3), build_groupoid(3, 2, 1)),
    "zn(3).mult-semigroup(4) absorbed [27]":
        lambda: fsh(zn_interval(3), mult_semigroup_zn(4)),
    "zn(2).mult-semigroup(4) kept [16]":
        lambda: fsh(zn_interval(2), mult_semigroup_zn(4),
                    absorb_zero_basis=False),
    "zn(2).symmetric-semigroup(2) [16]":
        lambda: fsh(zn_interval(2), symmetric_semigroup(2)),
    "bool4.C2 [16]": lambda: fsh(BOOL4, cyclic_group(2)),
    "neutro-pure(zn(2)).C3 [8]":
        lambda: fsh(neutro_pure(zn_interval(2)), cyclic_group(3)),
    "row(1) zn(6)": lambda: mh(zn_interval(6), (ROW, 1)),
    "row(3) zn(3) [27]": lambda: mh(zn_interval(3), (ROW, 3)),
    "row(2) bool4 [16]": lambda: mh(BOOL4, (ROW, 2)),
    "square(1) zn(4)": lambda: mh(zn_interval(4), (SQUARE, 1)),
    "square(2) zn(2) [16]": lambda: mh(zn_interval(2), (SQUARE, 2)),
    "square(2) zn(3) [81]": lambda: mh(zn_interval(3), (SQUARE, 2)),
    "square(2) chain(3) [81]": lambda: mh(chain_lattice(3), (SQUARE, 2)),
}

# The reference loops are quadratic in object products, and the
# certificate scans quartic when no certificate exists (s-anti-zero-divisors
# on chain(2).L5(2) runs for minutes), so the larger handles sit out.
MEDIUM = [name for name in HANDLES
          if HANDLES[name]().size() <= 81 or HANDLES[name]().kind == "domain"]
SMALL = [name for name in HANDLES if HANDLES[name]().size() <= 27]

budgets = st.one_of(st.none(), st.integers(min_value=-1, max_value=300))

S_KINDS = ("s-zero-divisor", "s-anti-zero-divisor", "s-idempotent", "s-unit")


# ---------------------------------------------------------------------------
# reference object loops


def _sorted_elements(h):
    return sorted(h.elements(), key=h.key)


def ref_zero_divisors(h, budget=None):
    query = f"zero-divisors on {h.describe()}"
    elems = _sorted_elements(h)
    zero = h.zero
    nz = [x for x in elems if x != zero]
    findings = []
    scanned = 0
    exhaustive = True
    for i, x in enumerate(nz):
        for y in nz[i:]:
            if budget is not None and scanned >= budget:
                exhaustive = False
                break
            scanned += 1
            xy = h.mul(x, y)
            yx = xy if x == y else h.mul(y, x)
            if xy == zero and yx == zero:
                a, b = h.pair(x, y)
                findings.append(Finding("zero-divisor", _wit(h, a, b), (a, b)))
            elif xy == zero:
                findings.append(Finding("one-sided-zero-divisor",
                                        _wit(h, x, y), (x, y)))
            elif yx == zero:
                findings.append(Finding("one-sided-zero-divisor",
                                        _wit(h, y, x), (y, x)))
        if not exhaustive:
            break
    return _report(query, findings, exhaustive, scanned)


def ref_idempotents(h):
    query = f"idempotents on {h.describe()}"
    findings = []
    scanned = 0
    for x in _sorted_elements(h):
        scanned += 1
        if h.mul(x, x) == x:
            findings.append(Finding("idempotent", _wit(h, x), (x,)))
    return _report(query, findings, True, scanned)


def ref_units(h):
    query = f"units on {h.describe()}"
    elems = _sorted_elements(h)
    one = h.one
    findings = []
    scanned = 0
    for x in elems:
        for y in elems:
            scanned += 1
            if h.mul(x, y) == one and h.mul(y, x) == one:
                findings.append(Finding("unit", _wit(h, x, y), (x, y)))
                break
    return _report(query, findings, True, scanned)


def ref_nilpotents(h, max_index=8):
    query = f"nilpotents on {h.describe()}"
    zero = h.zero
    findings = []
    scanned = 0
    for x in _sorted_elements(h):
        if x == zero:
            continue
        p = x
        for idx in range(2, max_index + 1):
            scanned += 1
            p = h.mul(p, x)
            if p == zero:
                findings.append(Finding(f"nilpotent-index-{idx}",
                                        _wit(h, x), (x,)))
                break
    return _report(query, findings, True, scanned)


def ref_s_special(h, kind, budget=None):
    query = f"{kind} on {h.describe()}"
    elems = _sorted_elements(h)
    zero = h.zero
    nz = [x for x in elems if x != zero]
    if kind == "s-zero-divisor":
        return _ref_s_zero_divisors(h, query, nz, zero, budget)
    if kind == "s-anti-zero-divisor":
        return _ref_s_anti_zero_divisors(h, query, nz, zero, budget)
    if kind == "s-idempotent":
        return _ref_s_idempotents(h, query, nz, zero, budget)
    return _ref_s_units(h, query, elems, budget)


def _ref_s_zero_divisors(h, query, nz, zero, budget):
    findings = []
    scanned = 0
    exhaustive = True
    for i, a in enumerate(nz):
        stop = False
        for b in nz[i:]:
            if budget is not None and scanned >= budget:
                exhaustive = False
                stop = True
                break
            scanned += 1
            if h.mul(a, b) != zero and h.mul(b, a) != zero:
                continue
            aa, bb = (a, b) if h.mul(a, b) == zero else (b, a)
            cert = _ref_s_zd_certificate(h, aa, bb, nz, zero)
            if cert is not None:
                x, y = cert
                findings.append(Finding("s-zero-divisor",
                                        _wit(h, aa, bb, x, y), (aa, bb, x, y)))
        if stop:
            break
    return _report(query, findings, exhaustive, scanned)


def _ref_s_zd_certificate(h, a, b, nz, zero):
    for x in nz:
        if x == a or x == b:
            continue
        if h.mul(a, x) != zero and h.mul(x, a) != zero:
            continue
        for y in nz:
            if y == a or y == b or y == x:
                continue
            if h.mul(b, y) != zero and h.mul(y, b) != zero:
                continue
            if h.mul(x, y) != zero or h.mul(y, x) != zero:
                return (x, y)
    return None


def _ref_s_anti_zero_divisors(h, query, nz, zero, budget):
    # over positions in nz, each row of products made once, as a bit mask:
    # bit j of apart(i) where nz[j]*nz[i] or nz[i]*nz[j] is nonzero (the a
    # of x are apart(x)), of vanish(i) where one of them is zero; a
    # certificate's b is the lowest bit of both outside {x, y}
    def row_mask(test):
        return functools.cache(lambda i: sum(
            1 << j for j, b in enumerate(nz)
            if test(h.mul(b, nz[i]), h.mul(nz[i], b))))

    apart = row_mask(lambda p, q: p != zero or q != zero)
    vanish = row_mask(lambda p, q: p == zero or q == zero)
    findings = []
    scanned = 0
    exhaustive = True
    for x in range(len(nz)):
        if budget is not None and scanned >= budget:
            exhaustive = False
            break
        scanned += 1
        cert = None
        for y in range(len(nz)):
            if y == x or h.mul(nz[x], nz[y]) == zero:
                continue
            for a in range(len(nz)):
                if a == x or a == y or not apart(x) >> a & 1:
                    continue
                bs = apart(y) & vanish(a) & ~(1 << x | 1 << y)
                if bs:
                    b = (bs & -bs).bit_length() - 1
                    cert = [nz[p] for p in (x, y, a, b)]
                    break
            if cert:
                break
        if cert:
            findings.append(Finding("s-anti-zero-divisor", _wit(h, *cert),
                                    tuple(cert)))
    return _report(query, findings, exhaustive, scanned)


def _ref_s_idempotents(h, query, nz, zero, budget):
    findings = []
    scanned = 0
    exhaustive = True
    one = h.one
    for a in nz:
        if budget is not None and scanned >= budget:
            exhaustive = False
            break
        scanned += 1
        if h.mul(a, a) != a or (one is not None and a == one):
            continue
        for b in nz + [zero]:
            if b == a:
                continue
            if h.mul(b, b) != a:
                continue
            sends_b = h.mul(a, b) == b or h.mul(b, a) == b
            sends_a = h.mul(b, a) == a or h.mul(a, b) == a
            if sends_b != sends_a:
                findings.append(Finding("s-idempotent",
                                        _wit(h, a, b), (a, b)))
                break
    return _report(query, findings, exhaustive, scanned)


def _ref_s_units(h, query, elems, budget):
    findings = []
    scanned = 0
    exhaustive = True
    one = h.one
    for x in elems:
        if x == one:
            continue
        if budget is not None and scanned >= budget:
            exhaustive = False
            break
        scanned += 1
        inv = None
        for y in elems:
            if h.mul(x, y) == one and h.mul(y, x) == one:
                inv = y
                break
        if inv is None:
            continue
        cert = None
        for a in elems:
            if a == x or a == inv or a == one:
                continue
            if h.mul(x, a) != inv and h.mul(a, x) != inv:
                continue
            for b in elems:
                if b == x or b == inv or b == one:
                    continue
                if h.mul(inv, b) != x and h.mul(b, inv) != x:
                    continue
                if h.mul(a, b) == one or h.mul(b, a) == one:
                    cert = (a, b)
                    break
            if cert:
                break
        if cert:
            a, b = cert
            findings.append(Finding("s-unit", _wit(h, x, inv, a, b),
                                    (x, inv, a, b)))
    return _report(query, findings, exhaustive, scanned)


def _pairs(members, distinct=False):
    for i, x in enumerate(members):
        for y in members[i + 1 if distinct else i:]:
            yield x, y


def ref_classify(h):
    elems = _sorted_elements(h)
    zero = h.zero
    witnesses = {}

    def least(pairs):
        return min((h.pair(x, y) for x, y in pairs),
                   key=lambda p: (h.key(p[0]), h.key(p[1])), default=None)

    strict_w = least((x, y) for x, y in _pairs(elems)
                     if h.add(x, y) == zero and not (x == zero and y == zero))
    if strict_w is not None:
        witnesses["strict"] = _wit(h, *strict_w)
    commutative_w = next(((x, y) for x, y in _pairs(elems, distinct=True)
                          if h.mul(x, y) != h.mul(y, x)), None)
    if commutative_w is not None:
        witnesses["commutative"] = _wit(h, *commutative_w)
    has_one = any(all(h.mul(u, x) == x and h.mul(x, u) == x for x in elems)
                  for u in elems)
    if not has_one:
        witnesses["has_one"] = ("no element acts as a two-sided identity",)
    nz = [x for x in elems if x != zero]
    zd_w = least((x, y) for x, y in _pairs(nz)
                 if h.mul(x, y) == zero and h.mul(y, x) == zero)
    if zd_w is not None:
        witnesses["zero_divisor_free"] = _wit(h, *zd_w)
    return _finish_classification(h, strict_w is None, commutative_w is None,
                                  has_one, zd_w is None, witnesses)


# ---------------------------------------------------------------------------
# reference subset-law scans, subset checks and searches on element objects


def _first_unclosed(h, members, mset):
    for x in members:
        for y in members:
            if h.add(x, y) not in mset:
                return ("not-closed-under-addition", x, y)
            if h.mul(x, y) not in mset:
                return ("not-closed-under-multiplication", x, y)
    return None


def _non_strict_pairs(h, members):
    zero = h.zero
    return ((x, y) for x, y in _pairs(members)
            if h.add(x, y) == zero and not (x == zero and y == zero))


def _noncommuting_pairs(h, members):
    return ((x, y) for x, y in _pairs(members, distinct=True)
            if h.mul(x, y) != h.mul(y, x))


def _zero_divisor_pairs(h, members):
    zero = h.zero
    nz = [x for x in members if x != zero]
    return ((x, y) for x, y in _pairs(nz)
            if h.mul(x, y) == zero and h.mul(y, x) == zero)


def _has_internal_identity(h, members):
    return any(all(h.mul(u, x) == x and h.mul(x, u) == x for x in members)
               for u in members)


def ref_semifield_within(h, subset):
    members = sorted(set(subset), key=h.key)
    mset = set(members)
    if h.zero not in mset:
        return (False, ("missing-zero",))
    if len(members) < 2:
        return (False, ("trivial",))
    unclosed = _first_unclosed(h, members, mset)
    if unclosed is not None:
        return (False, unclosed)
    w = next(_non_strict_pairs(h, members), None)
    if w is not None:
        return (False, ("not-strict",) + w)
    w = next(_noncommuting_pairs(h, members), None)
    if w is not None:
        return (False, ("not-commutative",) + w)
    if not _has_internal_identity(h, members):
        return (False, ("no-internal-identity",))
    w = next(_zero_divisor_pairs(h, members), None)
    if w is not None:
        return (False, ("zero-divisor",) + w)
    return (True, None)


def ref_check_substructure(h, subset, kind):
    mset = set(subset)
    if h.zero not in mset:
        return (False, ("missing-zero",))
    ordered = sorted(mset, key=h.key)
    unclosed = _first_unclosed(h, ordered, mset)
    if unclosed is not None:
        return (False, unclosed)
    if kind == "subsemiring":
        return (True, None)
    for s in h.elements():
        for p in ordered:
            if kind in ("ideal", "left-ideal") and h.mul(s, p) not in mset:
                return (False, ("not-absorbing-left", s, p))
            if kind in ("ideal", "right-ideal") and h.mul(p, s) not in mset:
                return (False, ("not-absorbing-right", p, s))
    return (True, None)


def _ref_is_s_subsemiring(h, members):
    mset = set(members)
    if h.zero not in mset or _first_unclosed(h, members, mset) is not None:
        return None
    for t in _ref_semifield_candidates_within(h, members):
        if len(t) < len(mset):
            return t
    return None


def _ref_semifield_candidates_within(h, members):
    mset = set(members)
    seen = set()
    out = []
    singles = [frozenset((h.zero, x)) for x in members]
    pairs = [frozenset((h.zero, x, y))
             for x, y in itertools.combinations(members, 2)]
    for seed in singles + pairs:
        c = _closure_under_ops(h, seed, cap=len(mset))
        if c is None or not c <= mset or c in seen:
            continue
        seen.add(c)
        ok, _ = ref_semifield_within(h, c)
        if ok:
            out.append(c)
    out.sort(key=lambda c: (len(c), tuple(sorted(h.key(x) for x in c))))
    return out


def _ref_pseudo_superset(h, mset):
    """(closed proper superset or None, decided): a closure past the cap
    may still hold a proper semifield, so it decides nothing, unless the
    handle has at most one element more than the cap: it is then the whole
    handle."""
    cap = tables.local_limit()
    c = _closure_under_ops(h, frozenset(mset | {h.zero}), cap)
    total = h.size() if h.is_finite() else None
    if c is None:
        return None, total is not None and total <= cap + 1
    ok, _ = ref_semifield_within(h, c)
    if ok and (total is None or len(c) < total):
        return c, True
    if _ref_is_s_subsemiring(h, sorted(c, key=h.key)) is not None:
        if total is None or len(c) < total:
            return c, True
    return None, True


def ref_candidate(h, members, kind):
    query = f"{kind} candidate on {h.describe()}"
    mset = set(members)
    ordered = sorted(mset, key=h.key)

    def found(subset):
        xs = tuple(sorted(subset, key=h.key))
        return _report(query, [Finding(kind, _wit(h, *xs), xs)], True, 0)

    decided = True

    if kind == "semifield-subset":
        ok, _ = ref_semifield_within(h, ordered)
        if ok and ((not h.is_finite()) or len(mset) < h.size()):
            return found(ordered)
    elif kind == "s-subsemiring":
        t = _ref_is_s_subsemiring(h, ordered)
        if t is not None:
            return found(t)
    elif kind == "s-ideal":
        if _ref_is_s_subsemiring(h, ordered) is not None:
            for a_set in _ref_semifield_candidates_within(h, ordered):
                if all(h.mul(p, a) in a_set and h.mul(a, p) in a_set
                       for p in ordered for a in a_set):
                    return found(a_set)
    elif kind == "s-pseudo-subsemiring":
        p, decided = _ref_pseudo_superset(h, mset)
        if p is not None:
            return found(p)
    else:
        p, decided = _ref_pseudo_superset(h, mset)
        if p is not None:
            for a_set in _ref_semifield_candidates_within(h, ordered):
                if all(h.mul(p, a) in mset and h.mul(a, p) in mset
                       for p in ordered for a in a_set):
                    return found(a_set)
    return _report(query, [], decided, 0)


def _ref_qualifies(h, c, total):
    return 2 <= len(c) < total and ref_semifield_within(h, c)[0]


def _ref_subset_findings(h, subsets):
    out = []
    for c in sorted(subsets, key=lambda c: (len(c),
                                            tuple(sorted(h.key(x) for x in c)))):
        ordered = sorted(c, key=h.key)
        out.append(Finding("semifield-subset", _wit(h, *ordered),
                           tuple(ordered)))
    return out


def ref_smarandache_generated(h, seed_size=2):
    query = f"smarandache on {h.describe()}"
    total = h.size()
    elems = h.elements()
    seen = set()
    hits = set()
    scanned = 0
    seeds = [frozenset((h.zero, x)) for x in elems]
    if seed_size >= 2:
        seeds += [frozenset((h.zero, x, y))
                  for x, y in itertools.combinations(elems, 2)]
    for seed in seeds:
        c = _closure_under_ops(h, seed, cap=total)
        scanned += 1
        if c is None or c in seen:
            continue
        seen.add(c)
        if _ref_qualifies(h, c, total):
            hits.add(c)
    return _report(query, _ref_subset_findings(h, hits), False, scanned)


def ref_smarandache_exhaustive(h, max_subset=None):
    query = f"smarandache on {h.describe()}"
    elems = h.elements()
    rest = [x for x in elems if x != h.zero]
    total = len(elems)
    cap = max_subset if max_subset is not None else total - 1
    hits = []
    scanned = 0
    for r in range(1, min(cap, total - 1)):
        for combo in itertools.combinations(rest, r):
            s = frozenset((h.zero,) + combo)
            scanned += 1
            if _ref_qualifies(h, s, total):
                hits.append(s)
    return _report(query, _ref_subset_findings(h, hits), True, scanned)


def ref_sweep_neutro_prime(primes=(3, 5, 7, 11, 13)):
    findings = []
    scanned = 0
    complete = True
    for p in primes:
        h = dh(neutro_pure(zn_interval(p)))
        zero = h.zero
        rest = [x for x in h.elements() if x != zero]
        closed_subset = None
        for r in range(1, len(rest)):
            for combo in itertools.combinations(rest, r):
                scanned += 1
                s = {zero, *combo}
                if _first_unclosed(h, combo, s) is None:
                    closed_subset = s
                    break
            if closed_subset:
                break
        if closed_subset:
            w = tuple(format_element(x)
                      for x in sorted(closed_subset, key=element_key))
            findings = [Finding("counterexample", (f"p={p}",) + w)]
            complete = False
            break
        findings.append(Finding("instance", (f"p={p}", "pass")))
    return _report("sweep neutro-prime-no-subsemiring", findings, complete,
                   scanned)


# ---------------------------------------------------------------------------
# canonical order and compiled tables


@pytest.mark.parametrize("name", list(HANDLES))
def test_elements_ascend_by_key(name):
    h = HANDLES[name]()
    keys = [h.key(x) for x in h.elements()]
    assert keys == sorted(keys)
    assert len(set(keys)) == len(keys) == h.size()


@pytest.mark.parametrize("name", MEDIUM)
def test_compiled_tables_match_object_tables(name):
    h = HANDLES[name]()
    t = h.tables()
    add, mul, zero, one = _object_tables(h)
    assert np.array_equal(t.full("add"), add)
    assert np.array_equal(t.full("mul"), mul)
    assert (t.zero, t.one) == (zero, one)
    assert t.k == len(h.elements())
    assert t.dtype == np.min_scalar_type(t.k - 1)


@pytest.mark.parametrize("name", list(HANDLES))
def test_slot_product_matches_the_compiled_tables(name):
    # The structural answers read from h._slots() which products of unit
    # slots vanish and where the others land; on these finite analogues
    # c*e_p times c*e_q must be zero exactly where product(p, q) is None,
    # and (c*c)*e_o at o = product(p, q) otherwise, on the compiled tables
    # and in object arithmetic alike.
    h = HANDLES[name]()
    t = h.tables()
    keys, product = h._slots()
    c = structural._first_nonzero_scalar(h._coefficient_handle().domain)

    def unit(p, a):
        return a if h.kind == "domain" else structural._support(h, (keys[p],), a)

    for p, q in itertools.product(range(len(keys)), repeat=2):
        x, y = unit(p, c), unit(q, c)
        o = product(p, q)
        want = h.index(h.zero if o is None else unit(o, c * c))
        assert want == h.index(h.mul(x, y))
        assert want == int(t.op("mul", h.index(x), h.index(y)))


# ---------------------------------------------------------------------------
# moved queries against their reference loops


@given(st.sampled_from(list(HANDLES)), budgets)
@settings(max_examples=60, deadline=None)
def test_zero_divisors_match_reference(name, budget):
    h = HANDLES[name]()
    want = ref_zero_divisors(h, budget).to_json_str()
    assert find_zero_divisors(h, budget=budget).to_json_str() == want
    if budget is not None:
        assert h.tables()._full == {}
    # the same scan again, read from the full table
    h.tables().full("mul")
    assert find_zero_divisors(h, budget=budget).to_json_str() == want


@given(st.sampled_from(MEDIUM))
@settings(max_examples=30, deadline=None)
def test_idempotents_units_nilpotents_classify_match_reference(name):
    h = HANDLES[name]()
    assert find_idempotents(h).to_json_str() == \
        ref_idempotents(h).to_json_str()
    assert find_nilpotents(h, max_index=5).to_json_str() == \
        ref_nilpotents(h, 5).to_json_str()
    if h.one is not None:
        assert find_units(h).to_json_str() == ref_units(h).to_json_str()
    assert json.dumps(classify_semiring(h).to_json()) == \
        json.dumps(ref_classify(h).to_json())


@given(st.sampled_from(SMALL),
       st.sampled_from(S_KINDS),
       budgets)
@settings(max_examples=60, deadline=None)
def test_s_special_matches_reference(name, kind, budget):
    h = HANDLES[name]()
    if kind == "s-unit" and h.one is None:
        return
    assert find_s_special(h, kind, budget=budget).to_json_str() == \
        ref_s_special(h, kind, budget).to_json_str()


@pytest.mark.parametrize("build, kind", [
    # rich in certificates of every kind
    *((lambda: dh(zn_interval(24)), kind) for kind in S_KINDS),
    # x*a = 0 != a*x: for some anchor the only b is x itself
    (lambda: fsh(zn_interval(2), build_groupoid(2, 1, 0)),
     "s-anti-zero-divisor"),
    # not power-associative: some certificate has a*b = a but b*a != a
    (lambda: fsh(zn_interval(3), build_loop(5, 2)), "s-idempotent"),
], ids=[*S_KINDS, "zn(2).Z2(1,0)", "zn(3).L5(2)"])
def test_s_special_pinned_handles_match_reference(build, kind):
    h = build()
    assert find_s_special(h, kind).to_json_str() == \
        ref_s_special(h, kind).to_json_str()


# past 27 elements; on chain(2).L5(2) no s-anti-zero-divisor anchor has a
# certificate
S_PINNED = {
    "square(2) zn(3)": lambda: mh(zn_interval(3), (SQUARE, 2)),
    "square(2) chain(3)": lambda: mh(chain_lattice(3), (SQUARE, 2)),
    "row(2) zn(6)": lambda: mh(zn_interval(6), (ROW, 2)),
    "zn(60)": lambda: dh(zn_interval(60)),
    "chain(2).L5(2)": lambda: fsh(chain_lattice(2), build_loop(5, 2)),
}


@pytest.mark.parametrize("kind", S_KINDS)
@pytest.mark.parametrize("name", list(S_PINNED))
def test_s_special_past_27_elements_match_reference(monkeypatch, name, kind):
    h = S_PINNED[name]()
    if kind == "s-unit" and h.one is None:
        return
    h.tables().full("mul")   # compiled before the block size changes
    for budget in (None, 0, 1, 5, 100):
        want = ref_s_special(h, kind, budget).to_json_str()
        # blocks of one anchor, of a few, and as the scans run them
        for entries in (1, 7, tables._BLOCK_ENTRIES):
            with monkeypatch.context() as m:
                m.setattr(tables, "_BLOCK_ENTRIES", entries)
                got = find_s_special(h, kind, budget=budget).to_json_str()
            assert got == want, (budget, entries)


@given(st.integers(0, 40), st.integers(1, 24), st.integers(0, 2 ** 32 - 1),
       st.sampled_from([1, 7, 64, 256, tables._BLOCK_ENTRIES]))
@example(40, 20, 5, 64)   # both cut rounds short
@example(40, 16, 38, 64)
@settings(max_examples=200, deadline=None)
def test_first_pairs_match_a_row_major_scan(n, k, seed, entries):
    # random candidate masks and partner relations, dense and sparse, so
    # that anchors run out of candidates over many rounds and a round's
    # rows are cut short
    rng = np.random.default_rng(seed)
    X, Y = (rng.random((n, k)) < rng.random() for _ in range(2))
    R = rng.random((n, k, k)) < rng.random() ** 3
    want = np.full((2, n), -1)
    for p in range(n):
        hit = next(((u, v) for u in range(k) for v in range(k)
                    if X[p, u] and Y[p, v] and R[p, u, v]), None)
        if hit:
            want[:, p] = hit
    with mock.patch.object(tables, "_BLOCK_ENTRIES", entries):
        got = tables._first_pairs(n, k, lambda ps: X[ps], lambda ps: Y[ps],
                                  lambda ps, us: R[ps, us])
    assert np.array_equal(got, want)


@given(st.sampled_from(MEDIUM), st.sampled_from(S_KINDS), budgets)
@settings(max_examples=40, deadline=None)
def test_s_special_findings_recheck_from_their_witnesses(name, kind, budget):
    h = HANDLES[name]()
    if kind == "s-unit" and h.one is None:
        return
    for f in find_s_special(h, kind, budget=budget).findings:
        assert validate_s_certificate(h, kind, f.elements), f.witness


# ---------------------------------------------------------------------------
# the table byte cap


def test_table_cap_refuses_the_full_table_without_allocating(tmp_path):
    h = fsh(zn_interval(3), cyclic_group(8))   # 6561 elements
    with pytest.raises(SpecError) as err:
        find_zero_divisors(h)
    assert "6561 elements" in str(err.value)
    assert str(6561 * 6561 * 2) + " bytes" in str(err.value)
    assert h.tables()._full == {}
    assert h._elements is None

    spec = tmp_path / "zn3-c8.json"
    spec.write_text(json.dumps({
        "schema": "1", "coefficients": {"kind": "zn-interval", "n": 3},
        "basis": {"kind": "cyclic", "k": 8}}))
    code = cli.main(["classify", "--spec", str(spec), "--query",
                     "zero-divisors"], out=_Sink(), err=_Sink())
    assert code == 2


def test_budgeted_scan_over_the_cap_matches_reference():
    h = fsh(zn_interval(3), cyclic_group(8))
    got = find_zero_divisors(h, budget=2000)
    assert h.tables()._full == {}
    assert got.to_json_str() == ref_zero_divisors(h, 2000).to_json_str()


class _Sink:
    def write(self, text):
        pass


# ---------------------------------------------------------------------------
# the laws verify_axioms added after the five additive/distributive ones


_MAX3 = [[0, 1, 2], [1, 1, 2], [2, 2, 2]]


@pytest.mark.parametrize("mul, witness", [
    # 0*2 = 1: the zero row fails first
    ([[0, 0, 1], [0, 1, 2], [0, 2, 2]], ("zero-absorption", 2)),
    # 0 absorbs from the left but 2*0 = 2
    ([[0, 0, 0], [0, 1, 2], [2, 2, 2]], ("zero-absorption", 2)),
    # 1*2 = 1: the one row fails at 2
    ([[0, 0, 0], [0, 1, 1], [0, 2, 2]], ("one-identity", 2)),
    # 1 is a left identity, but 2*1 = 1
    ([[0, 0, 0], [0, 1, 2], [0, 1, 2]], ("one-identity", 2)),
], ids=["zero-row", "zero-column", "one-row", "one-column"])
def test_verify_axioms_absorption_and_identity_witness(mul, witness):
    # index tables on 0..2 with zero 0 and one 1
    assert tables.axiom_failure(np.array(_MAX3), np.array(mul), 0, 1) == \
        witness


def test_verify_axioms_new_laws_hold_on_table_lattice():
    assert verify_axioms(dh(BOOL4)) == (True, None)
    assert verify_axioms(fsh(BOOL4, cyclic_group(2))) == (True, None)


# ---------------------------------------------------------------------------
# verify_axioms checks its arity-3 laws on additive generators first


def ref_verify_axioms(ops, elems):
    """Every law of ``_AXIOMS`` scanned in full over the tables of ops."""
    for law, arity, holds, report in tables._AXIOMS:
        if law == "one-identity" and ops[3] is None:
            break
        bad = laws.first_violation(range(len(ops[0])), arity,
                                   lambda *xs: holds(*ops, *xs))
        if bad:
            return (False, (law,) + tuple(elems[bad[i]] for i in report))
    return (True, None)


def test_verify_axioms_729_elements_holds():
    # a full scan of the arity-3 laws takes about 25 s at this size
    assert verify_axioms(fsh(zn_interval(3), cyclic_group(6))) == (True, None)


def test_verify_axioms_reads_in_blocks():
    # beyond its compiled tables, verify_axioms at 729 elements peaked at
    # 3330304 bytes when each law read whole 729 x 729 grids; its reads
    # now take blocks of 8192 entries, and the generating set's closures
    # are the larger part of what is left
    h = fsh(zn_interval(3), cyclic_group(6))
    h.tables().add, h.tables().mul
    tracemalloc.start()
    try:
        assert verify_axioms(h) == (True, None)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3330304


_Z4 = [[(x + y) % 4 for y in range(4)] for x in range(4)]
_ZERO4 = [[0] * 4 for _ in range(4)]


@pytest.mark.parametrize("add, mul, witness", [
    # (1 + 1) + 2 = 3 but 1 + (1 + 2) = 1
    ([[0, 1, 2, 3], [1, 2, 0, 0], [2, 0, 3, 0], [3, 0, 0, 0]], _ZERO4,
     ("addition-not-associative", 1, 1, 2)),
    # 1(1 + 1) = 1*1 + 1*1 but 1(1 + 2) = 0 while 1*1 + 1*2 = 3
    (_Z4, [[0, 0, 0, 0], [0, 1, 2, 0], [0, 0, 0, 0], [0, 0, 0, 0]],
     ("not-left-distributive", 1, 1, 2)),
    # 3y = y and every other product is 0: each row is additive, but
    # (1 + 2)1 = 1 while 1*1 + 2*1 = 0
    (_Z4, [[0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0], [0, 1, 2, 3]],
     ("not-right-distributive", 1, 1, 2)),
], ids=["associative", "left", "right"])
def test_verify_axioms_witness_is_first_violation_not_generator(add, mul,
                                                                 witness):
    # the additive generators are 0 and 1, so the generator that fails is
    # z = 1 while the first violation has z = 2
    assert laws.generators(laws._gathers([np.array(add)]), 4,
                           [0, *range(4)]) == [0, 1]
    ops = (np.array(add), np.array(mul), 0, None)
    assert tables.axiom_failure(*ops) == witness
    assert ref_verify_axioms(ops, range(4)) == (False, witness)


@given(st.sampled_from(list(HANDLES)),
       st.sampled_from(["none", "add", "mul", "row"]), st.data())
@settings(max_examples=30, deadline=None)
def test_verify_axioms_matches_full_scan(name, change, data):
    h = HANDLES[name]()
    t = h.tables()
    if change == "none":
        assert verify_axioms(h) == ref_verify_axioms(
            (t.add, t.mul, t.zero, t.one), h.elements())
        return
    add, mul = t.add.copy(), t.mul.copy()
    k = len(add)
    nonzero = st.sampled_from([x for x in range(k) if x != t.zero] or [0])
    i, j, v = data.draw(nonzero), data.draw(nonzero), data.draw(nonzero)
    if change == "add":
        # kept commutative and off the zero, so associativity is reached
        add[i, j] = add[j, i] = v
    elif change == "mul":
        mul[i, j] = v
    else:
        # every row stays additive, so left distributivity holds and
        # right distributivity is reached
        mul[i] = mul[j]
    ops = (add, mul, t.zero, t.one)
    bad = tables.axiom_failure(*ops)
    assert ref_verify_axioms(ops, range(k)) == (bad is None, bad)


def ref_axiom_failure(add, mul, zero, one):
    """The first violation of each ``_AXIOMS`` law in turn, in its scan
    order and permuted by its report, found by applying the law to Python
    ints over plain numpy tables."""
    for law, arity, holds, report in tables._AXIOMS:
        if law == "one-identity" and one is None:
            break
        for xs in itertools.product(range(len(add)), repeat=arity):
            if not holds(add, mul, zero, one, *xs):
                return (law, *(xs[i] for i in report))
    return None


@st.composite
def axiom_tables(draw):
    """(add, mul, zero, one) on 2 to 4 indices.  Either both tables are
    drawn at random, or add is a commutative monoid with zero 0 (max, or +
    mod k) and mul a law that distributes over it (min, or * mod k), with a
    few entries redrawn, so the distributive and identity laws are reached
    and may hold."""
    k = draw(st.integers(2, 4))
    entry = st.integers(0, k - 1)
    x, y = np.ogrid[:k, :k]
    kind = draw(st.sampled_from(["random", "max", "mod"]))
    if kind == "random":
        add, mul = (np.array(draw(st.lists(entry, min_size=k * k,
                                           max_size=k * k))).reshape(k, k)
                    for _ in range(2))
        zero = draw(entry)
    else:
        add = np.maximum(x, y) if kind == "max" else (x + y) % k
        mul = np.minimum(x, y) if kind == "max" else (x * y) % k
        zero = 0
        for _ in range(draw(st.integers(0, 2))):
            table = draw(st.sampled_from([add, mul]))
            table[draw(entry), draw(entry)] = draw(entry)
    one = draw(st.one_of(st.none(), entry))
    dtype = draw(st.sampled_from([np.intp, np.uint8]))
    return add.astype(dtype), mul.astype(dtype), zero, one


@given(axiom_tables())
@settings(max_examples=300, deadline=None)
def test_axiom_failure_matches_plain_loop(ops):
    assert tables.axiom_failure(*ops) == ref_axiom_failure(*ops)


@given(axiom_tables())
@settings(max_examples=200, deadline=None)
def test_one_failure_matches_the_laws_of_one(ops):
    # row and column one of mul against the laws of one scanned in full
    add, mul, zero, one = ops
    t = tables.Local(add, mul, zero)
    t.one = one
    laws_of_one = [a for a in tables._AXIOMS if a[0] == "one-identity"]
    with mock.patch.object(tables, "_AXIOMS", laws_of_one):
        assert tables.one_failure(t) == ref_axiom_failure(*ops)


def test_axiom_failure_full_run_stops_at_the_first_law():
    # + is neither commutative (1+2 = 0, 2+1 = 3) nor associative
    # ((1+1)+1 = 3, 1+(1+1) = 0), and x(y + z) holds for z in {0, 1} but
    # fails at (2, 1, 2): a full run reports the first law it breaks
    add = np.array([[0, 1, 2, 3], [1, 2, 0, 0], [2, 3, 0, 1], [3, 0, 1, 2]])
    mul = np.array([[0, 0, 0, 0], [0, 1, 2, 3], [0, 2, 0, 2], [0, 3, 2, 1]])
    for one in (None, 1):
        assert tables.axiom_failure(add, mul, 0, one) == \
            ("addition-not-commutative", 1, 2) == \
            ref_axiom_failure(add, mul, 0, one)


# the slot-wise-laws argument: handles whose coefficient domain reads drawn
# q x q tables; q is the domain's size
SLOT_HANDLES = {
    "zn(2).C3 [8]": (2, lambda: fsh(zn_interval(2), cyclic_group(3))),
    "zn(2).Z4(1,2) [16]":
        (2, lambda: fsh(zn_interval(2), build_groupoid(4, 1, 2))),
    "zn(3).mult-semigroup(4) absorbed [27]":
        (3, lambda: fsh(zn_interval(3), mult_semigroup_zn(4))),
    "row(3) zn(3) [27]": (3, lambda: mh(zn_interval(3), (ROW, 3))),
    "square(2) zn(2) [16]": (2, lambda: mh(zn_interval(2), (SQUARE, 2))),
}


@st.composite
def slot_kernel_cases(draw):
    """(handle name, add, mul): q x q domain tables with zero 0, drawn as
    ``axiom_tables`` draws them, so that the domain sometimes has every
    law before those of one and sometimes breaks one."""
    name = draw(st.sampled_from(sorted(SLOT_HANDLES)))
    q = SLOT_HANDLES[name][0]
    entry = st.integers(0, q - 1)
    x, y = np.ogrid[:q, :q]
    kind = draw(st.sampled_from(["random", "max", "mod"]))
    if kind == "random":
        add, mul = (np.array(draw(st.lists(entry, min_size=q * q,
                                           max_size=q * q))).reshape(q, q)
                    for _ in range(2))
    else:
        add = np.maximum(x, y) if kind == "max" else (x + y) % q
        mul = np.minimum(x, y) if kind == "max" else (x * y) % q
        for _ in range(draw(st.integers(0, 2))):
            table = draw(st.sampled_from([add, mul]))
            table[draw(entry), draw(entry)] = draw(entry)
    return name, add.astype(np.intp), mul.astype(np.intp)


_ZN3 = np.ogrid[:3, :3]


@given(slot_kernel_cases())
@example(("row(3) zn(3) [27]", (_ZN3[0] + _ZN3[1]) % 3,
          _ZN3[0] * _ZN3[1] % 3))
@example(("zn(3).mult-semigroup(4) absorbed [27]",
          (_ZN3[0] + _ZN3[1]) % 3, np.array([[0, 0, 0], [0, 1, 2], [0, 2, 2]])))
@settings(max_examples=150, deadline=None)
def test_slot_wise_laws_match_full_scan(case):
    # the handle and its coefficient handle compile from the same kernels
    name, add, mul = case
    drawn = {"add": add, "mul": mul}
    with mock.patch.object(tables, "dom_kernel",
                           lambda d, kind: lambda x, y: drawn[kind][x, y]):
        h = SLOT_HANDLES[name][1]()
        t = h.tables()
        want = ref_verify_axioms((t.add, t.mul, t.zero, t.one), h.elements())
        assert verify_axioms(h) == want


@pytest.mark.parametrize("name", list(HANDLES))
def test_slot_wise_laws_skip_the_handle_scan(name, monkeypatch):
    # a handle of several slots scans no arity-3 law over its own k x k
    # tables; a one-slot handle still does
    h = HANDLES[name]()
    t = h.tables()
    scans = []

    def spy(indices, arity, *rest):
        scans.append((len(indices), arity))
        return first_violation(indices, arity, *rest)

    first_violation = laws.first_violation
    monkeypatch.setattr(laws, "first_violation", spy)
    assert verify_axioms(h) == (True, None)
    assert ((t.k, 3) in scans) == (t.n <= 1)


def test_verify_axioms_builds_no_full_table_once_the_slots_decide():
    # zn(2) has the laws before those of one, so the laws of one are read
    # from row and column one of the handle's mul alone
    h = fsh(zn_interval(2), cyclic_group(10))
    assert verify_axioms(h) == (True, None)
    assert h.tables()._full == {}


@pytest.mark.parametrize("build", [
    lambda: fsh(zn_interval(2), cyclic_group(13)),
    lambda: fsh(zn_interval(2), cyclic_group(16)),
    lambda: fsh(DIV12, build_loop(5, 2)),
], ids=["zn(2).C13", "zn(2).C16", "DIV12.L5(2)"])
def test_verify_axioms_answers_past_the_table_cap_once_the_slots_decide(
        build):
    # 8192, 65536 and 46656 elements: a full table of each is over the cap
    h = build()
    assert verify_axioms(h) == (True, None)
    assert h.tables()._full == {}


def test_verify_axioms_refuses_an_oversized_handle_before_any_table():
    # when the coefficient domain breaks a law the handle is scanned in
    # full, and its add table is refused before any table is built
    # x*y = y breaks right distributivity: (0 + 0)1 = 1, 0*1 + 0*1 = 0
    drawn = {"add": np.array([[0, 1], [1, 0]]), "mul": np.array([[0, 1]] * 2)}
    with mock.patch.object(tables, "dom_kernel",
                           lambda d, kind: lambda x, y: drawn[kind][x, y]):
        h = fsh(zn_interval(2), cyclic_group(13))
        d = h._coefficient_handle().tables()
        assert tables.axiom_failure(d.add, d.mul, d.zero, None) == \
            ("not-right-distributive", 1, 0, 0)
        with pytest.raises(SpecError, match=(
                "a 8192x8192 add table over 8192 elements needs 134217728 "
                "bytes, above the 67108864-byte table cap")):
            verify_axioms(h)
    assert h.tables()._full == {}


# ---------------------------------------------------------------------------
# subset checks, closures and Smarandache searches against their references

SUB_KINDS = ("subsemiring", "ideal", "left-ideal", "right-ideal")
PSEUDO_KINDS = ("s-pseudo-subsemiring", "s-pseudo-ideal")
CANDIDATE_KINDS = ("semifield-subset", "s-subsemiring", "s-ideal") + \
    PSEUDO_KINDS
SIZE = {name: build().size() for name, build in HANDLES.items()}
# the reference subset checks are quadratic in members and, for ideals,
# linear in elements; the reference searches close hundreds of seeds on
# element objects, so they run on the smaller handles
UPTO_81 = [name for name in HANDLES if SIZE[name] <= 81]
UPTO_16 = [name for name in HANDLES if SIZE[name] <= 16]
UPTO_9 = [name for name in HANDLES if SIZE[name] <= 9]


def _draw_subset(data, h):
    """A random subset, often with zero, sometimes closed under + and *."""
    elems = h.elements()
    picks = data.draw(st.lists(st.integers(0, len(elems) - 1), max_size=6))
    subset = {elems[i] for i in picks}
    if data.draw(st.booleans()):
        subset.add(h.zero)
    if data.draw(st.booleans()):
        subset = set(_closure_under_ops(h, subset | {h.zero}, len(elems)))
    return data.draw(st.permutations(sorted(subset, key=h.key)))


@given(st.sampled_from(UPTO_81), st.data())
@settings(max_examples=80, deadline=None)
def test_subset_checks_match_reference(name, data):
    h = HANDLES[name]()
    subset = _draw_subset(data, h)
    assert semifield_within(h, subset) == ref_semifield_within(h, subset)
    for kind in SUB_KINDS:
        assert check_substructure(h, subset, kind) == \
            ref_check_substructure(h, subset, kind)


@given(st.sampled_from(UPTO_16), st.sampled_from(CANDIDATE_KINDS),
       st.data())
@settings(max_examples=60, deadline=None)
def test_candidates_match_reference(name, kind, data):
    h = HANDLES[name]()
    subset = _draw_subset(data, h)
    got = smarandache_search(h, candidate=subset, candidate_kind=kind)
    assert got.to_json_str() == ref_candidate(h, subset, kind).to_json_str()


def test_first_not_absorbing_reads_the_outside_entry_of_a_local():
    # two members whose product 1*1 leaves the subset (entry k = 2)
    s = tables.Local(np.array([[0, 1], [1, 0]]), np.array([[0, 0], [0, 2]]),
                     0)
    assert tables.first_not_absorbing(s, [1], into=[0, 1]) == \
        ("not-absorbing-left", 1, 1)
    assert tables.first_not_absorbing(s, [1], left=False, into=[0, 1]) == \
        ("not-absorbing-right", 1, 1)
    assert tables.first_not_absorbing(s, [0]) is None


@given(st.sampled_from(UPTO_16), st.sampled_from([1, 2]))
@settings(max_examples=15, deadline=None)
def test_generated_search_matches_reference(name, seed_size):
    h = HANDLES[name]()
    assert smarandache_search(h, seed_size=seed_size).to_json_str() == \
        ref_smarandache_generated(h, seed_size).to_json_str()


def test_smarandache_search_refuses_other_seed_sizes():
    # 3 once ran the pairs search and 0 the singles search; both are now
    # refused before the tables are compiled
    h = dh(chain_lattice(3))
    for seed_size in (0, 3):
        with pytest.raises(SpecError, match="seed_size must be 1 or 2"):
            smarandache_search(h, seed_size=seed_size)
    assert h._tables is None
    findings = [{"kind": "semifield-subset", "witness": ["0", "a1"]},
                {"kind": "semifield-subset", "witness": ["0", "1"]}]
    for seed_size, scanned in ((1, 3), (2, 6)):
        assert smarandache_search(h, seed_size=seed_size).to_json() == {
            "query": "smarandache on chain(3)", "exhaustive": False,
            "findings": findings, "budget": {"pairs_scanned": scanned}}


def test_smarandache_search_refuses_an_unknown_mode_on_every_handle():
    # an infinite handle, one over the generated guard and a candidate
    # each return without searching, so the mode is checked first
    for h, kw in ((dh(nat_interval()), {}),
                  (fsh(zn_interval(3), cyclic_group(9)), {}),
                  (dh(chain_lattice(3)),
                   {"candidate": [element(chain_lattice(3), 0)]})):
        with pytest.raises(SpecError, match="unknown search mode 'bogus'"):
            smarandache_search(h, mode="bogus", **kw)


@pytest.mark.parametrize("build", [
    # chain(3) is a semifield generated by {0, a1, 1}, which is not proper
    lambda: dh(chain_lattice(3)),
    HANDLES["chain(5)"],
    HANDLES["row(2) bool4 [16]"],
], ids=["chain(3)", "chain(5)", "row(2) bool4"])
def test_generated_search_pinned_handles_match_reference(build):
    h = build()
    got = smarandache_search(h)
    assert got.to_json_str() == ref_smarandache_generated(h).to_json_str()
    assert got.findings


@given(st.sampled_from(UPTO_9), st.sampled_from([None, 1, 2, 3, 5]))
@settings(max_examples=20, deadline=None)
def test_exhaustive_search_matches_reference(name, max_subset):
    h = HANDLES[name]()
    got = smarandache_search(h, mode="exhaustive", max_subset=max_subset)
    assert got.to_json_str() == \
        ref_smarandache_exhaustive(h, max_subset).to_json_str()


def test_noncommutative_subsets_match_reference():
    # strict and closed but not commutative: the whole of square(2) over
    # chain(2), and its upper triangular matrices
    h = mh(chain_lattice(2), (SQUARE, 2))
    upper = [x for x in h.elements() if x.entries[2] == h.zero.entries[2]]
    for subset in (h.elements(), upper):
        got = semifield_within(h, subset)
        assert got == ref_semifield_within(h, subset)
        assert got[1][0] == "not-commutative"
    for kind in CANDIDATE_KINDS:
        assert smarandache_search(
            h, candidate=upper, candidate_kind=kind).to_json_str() == \
            ref_candidate(h, upper, kind).to_json_str()


@pytest.mark.parametrize("h, values", [
    (dh(nat_interval()), (0, 1, 2)),
    (dh(nat_interval(2)), (0, 2)),
    (dh(rat_interval()), (0, 1)),
    (dh(nat_interval()), (1, 2)),
], ids=["nat", "nat(multiple=2)", "rat", "nat-without-zero"])
def test_infinite_subsets_match_reference(h, values):
    # no compiled tables: the local tables come from object arithmetic
    subset = [element(h.domain, v) for v in values]
    assert semifield_within(h, subset) == ref_semifield_within(h, subset)
    assert check_substructure(h, subset, "subsemiring") == \
        ref_check_substructure(h, subset, "subsemiring")
    for kind in CANDIDATE_KINDS:
        got = smarandache_search(h, candidate=subset, candidate_kind=kind)
        assert got.to_json_str() == \
            ref_candidate(h, subset, kind).to_json_str()
        # the closure is infinite: past the cap, the pseudo kinds are open
        assert got.exhaustive == (kind not in PSEUDO_KINDS)
    assert h._tables is None


def _object_engine_results(name, subset):
    """The subset queries on a handle and on a copy whose
    ``is_enumerable`` is False, so its subsets go through the object
    tables of the elements they reach; the copy compiles nothing."""
    out = []
    for enumerable in (True, False):
        h = HANDLES[name]()
        if not enumerable:
            h.is_enumerable = lambda: False
        out.append([semifield_within(h, subset),
                    check_substructure(h, subset, "subsemiring")] +
                   [smarandache_search(h, candidate=subset,
                                       candidate_kind=kind).to_json_str()
                    for kind in CANDIDATE_KINDS])
        assert enumerable or h._tables is None
    return out


@given(st.sampled_from(UPTO_81), st.data())
@settings(max_examples=60, deadline=None)
def test_object_tables_match_compiled_tables(name, data):
    compiled, reached = _object_engine_results(
        name, _draw_subset(data, HANDLES[name]()))
    assert reached == compiled


@pytest.mark.parametrize("name, values", [
    ("zn(12)", (0, 1)),
    ("zn(24)", (5,)),
    ("chain(5)", (0, 1, 2, 3, 4)),
])
def test_a_closure_that_is_the_whole_handle_is_not_proper(name, values):
    h = HANDLES[name]()
    subset = [element(h.domain, v) for v in values]
    compiled, reached = _object_engine_results(name, subset)
    assert reached == compiled
    for got in compiled[2:]:
        report = json.loads(got)
        if "pseudo" in report["query"]:
            assert report["exhaustive"] and report["findings"] == []


def test_the_closure_cap_is_read_when_the_closure_runs(monkeypatch):
    # zn(2^21) is past the enumeration guard; the closure of {0, 2^18} is
    # the 8 multiples of 2^18, whose products all vanish
    d = zn_interval(1 << 21)
    subset = [element(d, v) for v in (0, 1 << 18)]
    for cap, decided in ((8, True), (7, False)):
        # local tables of cap members, 6 bytes an entry, fit; one more not
        monkeypatch.setattr(tables, "TABLE_BYTE_CAP", 6 * cap * cap)
        for kind in PSEUDO_KINDS:
            r = smarandache_search(dh(d), candidate=subset,
                                   candidate_kind=kind)
            assert (r.findings, r.exhaustive) == ((), decided)


def _counted_ops(h):
    """Replace h's add and mul by counting wrappers; return the count."""
    ops = []

    def counted(op):
        return lambda x, y: ops.append(None) or op(x, y)

    h.add, h.mul = counted(h.add), counted(h.mul)
    return ops


@pytest.mark.parametrize("cap, limit", [
    (None, 2896),                    # the real cap, 8 bytes an entry
    (6 * 100 * 100, 100),            # 6 bytes an entry (uint8)
    (8 * 256 * 256 - 1, 255),        # 256 members would take uint16
    (8 * 256 * 256, 256),
    (8 * 300 * 300, 300),
    (8 * 65536 * 65536, 65535),      # 65536 would take 12 bytes an entry
])
def test_local_dtype_refuses_just_past_the_local_limit(monkeypatch, cap,
                                                       limit):
    if cap is not None:
        monkeypatch.setattr(tables, "TABLE_BYTE_CAP", cap)
    t = dh(zn_interval(5)).tables()
    assert tables.local_limit() == limit
    assert tables.local_dtype(t, limit) == np.min_scalar_type(limit)
    with pytest.raises(SpecError, match=f"local tables of {limit + 1} "
                       "members over 5 elements"):
        tables.local_dtype(t, limit + 1)


@pytest.mark.parametrize("cap", [None, 6 * 8 * 8])
def test_a_closure_past_the_limit_is_decided_as_the_whole_handle(
        monkeypatch, cap):
    # {0, [0,1]} closes to all of zn(n): past a cap of n - 1 members it is
    # the whole handle, so not proper; past a cap of n - 2 it decides
    # nothing.  The object tables of zn(2897) would take minutes.
    if cap is not None:
        monkeypatch.setattr(tables, "TABLE_BYTE_CAP", cap)
    limit = tables.local_limit()
    for n, decided in ((limit + 1, True), (limit + 2, False)):
        d = zn_interval(n)
        for enumerable in (True, False) if cap else (True,):
            h = dh(d)
            if not enumerable:
                h.is_enumerable = lambda: False
            for kind in PSEUDO_KINDS:
                r = smarandache_search(h, candidate=[element(d, v) for v in
                                                     (0, 1)],
                                       candidate_kind=kind)
                assert (r.findings, r.exhaustive) == ((), decided)


@pytest.mark.parametrize("d, values", [
    (zn_interval(1 << 21), (0, 1 << 16)),
    (nat_interval(), (0, 2)),
    (zn_interval(64), (0, 2)),
], ids=["zn(2^21)", "nat", "zn(64)"])
def test_a_closure_past_the_limit_stops_there(monkeypatch, d, values):
    # a limit of 16 members; each closure has 32 or more (the multiples of
    # 2^16, the even naturals, the 32 evens of zn(64)), and stops past the
    # limit instead of being closed in full (2048 operations on zn(2^21))
    # and then refused.  Its object tables hold at most 16 x 16 entries an
    # operation, and the s-pseudo-ideal candidate's own 2 x 2 (162 and 170
    # operations on zn(2^21), 50 and 58 on nat; zn(64) is compiled and
    # makes none)
    monkeypatch.setattr(tables, "TABLE_BYTE_CAP", 6 * 16 * 16)
    for kind in PSEUDO_KINDS:
        h = dh(d)
        ops = _counted_ops(h)
        r = smarandache_search(h, candidate=[element(d, v) for v in values],
                               candidate_kind=kind)
        assert (r.findings, r.exhaustive) == ((), False)
        assert len(ops) <= 2 * 16 * 16 + 2 * 2 * 2
        assert h.is_enumerable() or ops


@pytest.mark.parametrize("d, size", [
    (nat_interval(), "infinitely many"),
    (zn_interval(1 << 21), "2097152"),
], ids=["nat", "zn(2^21)"])
def test_a_refusal_of_local_tables_names_the_handle_size(d, size):
    # 3000 given members are past the limit: refused before any object
    # operation, naming the handle's size and not the member count
    h = dh(d)
    ops = _counted_ops(h)
    with pytest.raises(SpecError, match=f"the local tables of 3000 members "
                       f"over {size} elements needs 72000000 bytes"):
        check_substructure(h, [element(d, v) for v in range(3000)],
                           "subsemiring")
    assert ops == []


def test_neutro_prime_sweep_matches_reference(monkeypatch):
    got = theorem_sweep("neutro-prime-no-subsemiring")
    assert got.to_json_str() == ref_sweep_neutro_prime().to_json_str()
    assert got.budget_spent == {"pairs_scanned": 5194}
    # a composite modulus is refused; past that check, zn(4) and zn(6) are
    # not fields, and a closed subset halts the sweep
    with pytest.raises(SpecError, match="p=4 is not prime"):
        theorem_sweep("neutro-prime-no-subsemiring", primes=(3, 4, 6))
    monkeypatch.setattr(carriers, "_is_prime", lambda p: True)
    got = theorem_sweep("neutro-prime-no-subsemiring", primes=(3, 4, 6))
    assert got.to_json_str() == \
        ref_sweep_neutro_prime((3, 4, 6)).to_json_str()
    assert got.findings[0].kind == "counterexample"


def test_generated_search_at_81_elements():
    # 81 singles and 3240 pairs; the object search did not finish in 8 min
    h = mh(zn_interval(3), (SQUARE, 2))
    r = smarandache_search(h)
    assert r.budget_spent == {"pairs_scanned": 3321}
    assert r.findings == () and not r.exhaustive
    r = smarandache_search(mh(chain_lattice(3), (SQUARE, 2)))
    assert r.budget_spent == {"pairs_scanned": 3321}
    assert len(r.findings) == 386
    assert r.findings[0].witness == ("[[0, 0], [0, 0]]", "[[0, 0], [0, a1]]")
    assert r.findings[-1].witness == (
        "[[0, 0], [0, 0]]", "[[0, a1], [a1, 0]]", "[[0, 1], [1, 0]]",
        "[[a1, 0], [0, a1]]", "[[a1, a1], [a1, a1]]", "[[a1, 1], [1, a1]]",
        "[[1, 0], [0, 1]]", "[[1, a1], [a1, 1]]", "[[1, 1], [1, 1]]")


def _search_closing_every_seed(h):
    """The generated search with no seed skipped or shared: each seed is
    closed on the tables from scratch and each distinct closure checked on
    its own local tables."""
    t = h.tables()
    gathers = laws._gathers([t.add, t.mul])
    seeds = [(x,) for x in range(t.k)] + list(
        itertools.combinations(range(t.k), 2))
    found = {tuple(c.tolist()) for c in (
        laws.closure(gathers, t.k, (t.zero,) + seed, t.k) for seed in seeds)
        if c is not None and len(c) < t.k}
    hits = [c for c in sorted(found, key=lambda c: (len(c), c))
            if tables.semifield_failure(tables.restrict(t, c)) is None]
    return _report(f"smarandache on {h.describe()}", analysis._index_findings(
        h, [("semifield-subset",) + c for c in hits]), False, len(seeds))


@pytest.mark.parametrize("build, most, ref", [
    (HANDLES["row(3) zn(3) [27]"], 87, ref_smarandache_generated),
    (lambda: dh(neutro_mixed(zn_interval(5))), 28, ref_smarandache_generated),
    # the object reference takes minutes at 81 elements
    (HANDLES["square(2) zn(3) [81]"], 487, _search_closing_every_seed),
    (lambda: fsh(zn_interval(3), cyclic_group(4)), 183,
     _search_closing_every_seed),
], ids=["row(3) zn(3)", "neutro-mixed(zn(5))", "square(2) zn(3)",
        "zn(3).C4"])
def test_generated_search_closes_each_distinct_seed_once(build, most, ref,
                                                         monkeypatch):
    # pruning alone takes 267, 73, 2977 and 1545 closures here: the pair
    # seeds C(x) | C(y) repeat, and each distinct one is closed once
    h = build()
    calls, real = [], laws.closure
    monkeypatch.setattr(laws, "closure",
                        lambda *a: calls.append(1) or real(*a))
    got = smarandache_search(h)
    monkeypatch.undo()
    assert len(calls) <= most
    assert got.to_json_str() == ref(h).to_json_str()


def _semifields_set_by_set(t, mode, top, pairs=True):
    """``tables.semifields`` with each found set checked on its own local
    tables by ``semifield_failure``."""
    found, scanned = laws.substructures([t.add, t.mul], (t.zero,), mode,
                                        top, pairs)
    return [c for c in found
            if tables.semifield_failure(tables.restrict(t, c)) is None], \
        scanned


@pytest.mark.parametrize("name", UPTO_81)
def test_semifield_masks_match_the_set_by_set_check(name):
    t = HANDLES[name]().tables()
    for pairs in (False, True):
        assert tables.semifields(t, "generated", t.k - 1, pairs) == \
            _semifields_set_by_set(t, "generated", t.k - 1, pairs)
    if t.k <= 9:
        assert tables.semifields(t, "exhaustive", t.k - 1) == \
            _semifields_set_by_set(t, "exhaustive", t.k - 1)


@given(st.sampled_from(UPTO_81), st.data())
@settings(max_examples=60, deadline=None)
def test_semifield_subsets_of_a_local_match_the_set_by_set_check(name,
                                                                 data):
    t = HANDLES[name]().tables()
    seed = data.draw(st.lists(st.integers(0, t.k - 1), max_size=3))
    if data.draw(st.booleans()):
        members = laws.closure(laws._gathers([t.add, t.mul]), t.k,
                               [t.zero, *seed], t.k)
    else:
        members = sorted({t.zero, *seed})
    s = tables.restrict(t, members)
    assert tables.semifield_subsets(s) == \
        _semifields_set_by_set(s, "generated", s.k)[0]


@st.composite
def local_tables(draw, kmax=6):
    """A Local of k members with random add and mul entries, k meaning a
    result outside; addition need not commute."""
    k = draw(st.integers(1, kmax))
    table = st.lists(st.lists(st.integers(0, k), min_size=k, max_size=k),
                     min_size=k, max_size=k)
    add, mul = (np.array(draw(table), dtype=np.intp) for _ in range(2))
    return tables.Local(add, mul, draw(st.integers(0, k - 1)))


@given(local_tables(), st.sampled_from(["generated", "exhaustive"]),
       st.booleans())
# {0, 1, 2} with 2 + 1 = 0 but 1 + 2 = 2, and 1 the identity: a semifield
# to semifield_failure, which reads only the upper triangle of x + y = 0
@example(tables.Local(np.array([[0, 1, 2], [1, 1, 2], [2, 0, 2]]),
                      np.array([[0, 0, 0], [0, 1, 2], [0, 2, 2]]), 0),
         "generated", True)
@settings(max_examples=300, deadline=None)
def test_semifield_masks_match_on_noncommuting_addition(s, mode, pairs):
    # the masks keep that triangle where x + y != y + x
    assert tables.semifields(s, mode, s.k, pairs) == \
        _semifields_set_by_set(s, mode, s.k, pairs)


def test_generated_search_over_the_cap_is_refused(tmp_path):
    # 6561 elements pass the size guard, but the tables would not fit
    h = fsh(zn_interval(3), cyclic_group(8))
    with pytest.raises(SpecError) as err:
        smarandache_search(h)
    assert "6561 elements" in str(err.value)
    assert h.tables()._full == {}
    assert h._elements is None

    spec = tmp_path / "zn3-c8.json"
    spec.write_text(json.dumps({
        "schema": "1", "coefficients": {"kind": "zn-interval", "n": 3},
        "basis": {"kind": "cyclic", "k": 8}}))
    code = cli.main(["classify", "--spec", str(spec), "--query",
                     "smarandache"], out=_Sink(), err=_Sink())
    assert code == 2


def test_scan_memory_estimates_are_refused_before_allocating():
    # 4096 elements: each full table fits (32 MiB), five masks do not
    h = fsh(zn_interval(2), cyclic_group(12))
    with pytest.raises(SpecError) as err:
        classify_semiring(h)
    assert f"{5 * 4096 * 4096} bytes" in str(err.value)
    assert h.tables()._full == {}
    assert h._elements is None
    # 2187 elements: three intp count matrices over 2186 nonzero elements
    h = fsh(zn_interval(3), cyclic_group(7))
    with pytest.raises(SpecError) as err:
        find_s_special(h, "s-anti-zero-divisor")
    nbytes = 3 * 2186 * 2186 * np.dtype(np.intp).itemsize
    assert f"{nbytes} bytes" in str(err.value)
    assert h.tables()._full == {}


# ---------------------------------------------------------------------------
# cost on large domains and the memory of local tables


def _refuse_enumeration(monkeypatch):
    """Make every binding of domains.domain_elements raise."""
    def refuse(d):
        raise AssertionError(f"{domains.describe_domain(d)} enumerated")

    for module in (domains, structural, handle):
        monkeypatch.setattr(module, "domain_elements", refuse)


def _arithmetic_entries(monkeypatch):
    """A counter, by (domain, kind), of the entries the domain arithmetic
    under ``tables.dom_kernel`` computes from now on.  A kernel that reads
    a domain table computes its q^2 entries when it is made and none after;
    an arithmetic kernel computes nothing until it is asked."""
    counts = collections.Counter()
    arithmetic = tables._arithmetic

    def counted(d, kind):
        f = arithmetic(d, kind)

        def g(x, y):
            out = f(x, y)
            counts[domains.describe_domain(d), kind] += np.size(out)
            return out
        return g

    monkeypatch.setattr(tables, "_arithmetic", counted)
    return counts


def test_subsets_of_a_large_domain_cost_their_own_operations(monkeypatch):
    # 50000 elements: a domain table would be 50000^2 entries, and the
    # subset checks enumerate no element: the kernel computes the m x m
    # entries of the subset and, for absorption, k x m entries
    h, ref = dh(zn_interval(50000)), dh(zn_interval(50000))
    subset = [element(h.domain, v) for v in (0, 1, 25000)]
    with monkeypatch.context() as m:
        _refuse_enumeration(m)
        entries = _arithmetic_entries(m)
        within = semifield_within(h, subset)
        kinds = ("subsemiring", "ideal", "left-ideal", "right-ideal")
        subs = [check_substructure(h, subset, kind) for kind in kinds]
        candidates = [smarandache_search(h, candidate=subset,
                                         candidate_kind=kind)
                      for kind in CANDIDATE_KINDS]
    assert within == ref_semifield_within(ref, subset)
    assert subs == [ref_check_substructure(ref, subset, kind)
                    for kind in kinds]
    for kind, got in zip(CANDIDATE_KINDS, candidates):
        assert got.to_json_str() == \
            ref_candidate(ref, subset, kind).to_json_str()
        # the closure of {0, 1} is all 50000 elements, past the cap
        assert got.exhaustive == (kind not in PSEUDO_KINDS)
    assert h._elements is None and h.tables()._full == {}
    # the kernel computed the entries asked for, a small share of a table
    assert 0 < max(entries.values()) < 50000 ** 2 // 100
    # an enumerable handle checks every subset on its compiled tables
    h = dh(zn_interval(12))
    subset = [element(h.domain, v) for v in (0, 3, 6, 9)]
    assert semifield_within(h, subset) == ref_semifield_within(h, subset)
    assert h._tables is not None


def test_queries_on_the_largest_zn_enumerate_nothing(monkeypatch):
    # zn(2^20), the largest zn the enumeration guard admits: a position is
    # a payload, so the compile, the scans and the subset checks list no
    # element.  The outputs are those of the object scans: x*x = x only at
    # 0 and 1, no product in row [0,1] vanishes, and 1 + 1 = 2 leaves the
    # subset.
    _refuse_enumeration(monkeypatch)
    h = dh(zn_interval(1 << 20))
    t = h.tables()
    assert (t.k, t.zero, t.one) == (1 << 20, 0, 1)
    assert find_zero_divisors(h, budget=1000).to_json_str() == (
        '{"query": "zero-divisors on zn(1048576)", "exhaustive": false, '
        '"findings": [], "budget": {"pairs_scanned": 1000}}')
    assert find_idempotents(h).to_json_str() == (
        '{"query": "idempotents on zn(1048576)", "exhaustive": true, '
        '"findings": [{"kind": "idempotent", "witness": ["[0,0]"]}, '
        '{"kind": "idempotent", "witness": ["[0,1]"]}], '
        '"budget": {"pairs_scanned": 1048576}}')
    subset = [element(h.domain, v) for v in (0, 1, 1 << 19)]
    unclosed = (False, ("not-closed-under-addition", subset[1], subset[1]))
    assert semifield_within(h, subset) == unclosed
    assert check_substructure(h, subset, "subsemiring") == unclosed
    assert h._elements is None


@pytest.mark.parametrize("n", [2000, 12000])
def test_domain_table_is_built_only_when_it_pays_and_fits(monkeypatch, n):
    # a table of n^2 entries is more than a block, and past 2896 elements
    # over the cap as well: the kernel computes the n idempotent products
    # and nothing more
    entries = _arithmetic_entries(monkeypatch)
    h = dh(zn_interval(n))
    h.tables()
    assert entries == {}
    assert find_idempotents(h).to_json_str() == \
        ref_idempotents(h).to_json_str()
    assert entries == {(f"zn-interval({n})", "mul"): n}


def test_domain_table_is_built_when_the_kernel_is_made(monkeypatch):
    entries = _arithmetic_entries(monkeypatch)
    # zn(3): its 9-entry tables are built with the compiled tables, and
    # every later domain entry reads them
    t = fsh(zn_interval(3), cyclic_group(2)).tables()
    built = {("zn-interval(3)", "add"): 9, ("zn-interval(3)", "mul"): 9}
    assert entries == built
    t.op("mul", [1, 2], [3, 4])
    t.full("add")
    assert entries == built
    # zn(100): a 10000-entry table is more than a block, so it is never
    # built; the full table of row(1)/zn(100) computes its own entries
    entries.clear()
    h = mh(zn_interval(100), (ROW, 1))
    assert np.array_equal(h.tables().full("mul"), _object_tables(h)[1])
    assert entries == {("zn-interval(100)", "mul"): 100 * 100}


def test_domain_table_over_the_cap_is_never_built(monkeypatch):
    # zn(20): the full table takes 400 bytes, the domain table 3200
    monkeypatch.setattr(tables, "TABLE_BYTE_CAP", 1000)
    entries = _arithmetic_entries(monkeypatch)
    h = dh(zn_interval(20))
    h.tables()
    assert entries == {}
    assert np.array_equal(h.tables().full("mul"), _object_tables(h)[1])


def test_neutrosophic_kernels_take_their_base_tables(monkeypatch):
    # neutro-mixed(zn(10)) has 100 elements, too many for a table of its
    # own, so its arithmetic reads the 100-entry tables of zn(10); the
    # 10-element neutro-pure(zn(10)) and the 36-element
    # neutro-mixed(zn(6)) build a table of their own from their base's
    entries = _arithmetic_entries(monkeypatch)
    tables.dom_kernel(neutro_mixed(zn_interval(10)), "mul")
    assert entries == {("zn-interval(10)", "add"): 100,
                       ("zn-interval(10)", "mul"): 100}
    entries.clear()
    tables.dom_kernel(neutro_pure(zn_interval(10)), "mul")
    assert entries == {("zn-interval(10)", "mul"): 100,
                       ("neutro-pure(zn-interval(10))", "mul"): 100}
    entries.clear()
    tables.dom_kernel(neutro_mixed(zn_interval(6)), "add")
    assert entries == {("zn-interval(6)", "add"): 36,
                       ("zn-interval(6)", "mul"): 36,
                       ("neutro-mixed(zn-interval(6))", "add"): 36 * 36}


def test_generated_search_refuses_its_local_tables_first(monkeypatch):
    # square(2)/zn(3): each full table takes 6561 bytes, the local tables
    # of a closure of 80 members (6 bytes an entry) 38400
    monkeypatch.setattr(tables, "TABLE_BYTE_CAP", 10000)
    h = mh(zn_interval(3), (SQUARE, 2))
    with pytest.raises(SpecError) as err:
        smarandache_search(h)
    assert f"local tables of 80 members over 81 elements needs " \
        f"{6 * 80 * 80} bytes" in str(err.value)
    assert h.tables()._full == {}


# ---------------------------------------------------------------------------
# the array kernels of the domain operations against the object arithmetic


# the divisors of 12 under lcm and gcd: distributive, and not a chain
_DIV12 = (1, 2, 3, 4, 6, 12)
DIV12 = table_lattice(
    [[_DIV12.index(math.lcm(a, b)) for b in _DIV12] for a in _DIV12],
    [[_DIV12.index(math.gcd(a, b)) for b in _DIV12] for a in _DIV12],
    names=tuple(f"d{a}" for a in _DIV12))

_KERNEL_BASES = ([zn_interval(n) for n in range(2, 41)]
                 + [chain_lattice(k) for k in range(2, 7)] + [BOOL4, DIV12])
_NEUTRO_BASES = [zn_interval(2), zn_interval(6), zn_interval(9),
                 chain_lattice(3), BOOL4, DIV12]
KERNEL_DOMAINS = _KERNEL_BASES + [f(b) for f in (neutro_pure, neutro_mixed)
                                  for b in _NEUTRO_BASES]


@pytest.mark.parametrize("d", KERNEL_DOMAINS, ids=domains.describe_domain)
def test_domain_positions_round_trip(d):
    q = domains.domain_size(d)
    elems = [domains.domain_element_at(d, i) for i in range(q)]
    assert elems == domains.domain_elements(d)
    # positions ascend with the canonical key and invert the decoding
    assert sorted(elems, key=element_key) == elems and len(set(elems)) == q
    assert [domains.domain_position(d, element_key(x)) for x in elems] == \
        list(range(q))


@pytest.mark.parametrize("name", list(HANDLES))
def test_handle_index_inverts_element_at(name):
    h = HANDLES[name]()
    assert [h.index(h.element_at(i)) for i in range(h.size())] == \
        list(range(h.size()))


# for a handle of HANDLES, another handle whose elements' keys may still
# read as positions of its order
FOREIGN = {
    "zn(12)": lambda: dh(zn_interval(7)),
    "zn(4).C3 [64]": lambda: fsh(zn_interval(2), cyclic_group(3)),
    "row(3) zn(3) [27]": lambda: mh(zn_interval(3), (ROW, 2)),
    "square(2) zn(2) [16]": lambda: mh(zn_interval(2), (ROW, 4)),
}


@pytest.mark.parametrize("name", list(FOREIGN))
def test_an_element_of_another_handle_has_no_index(name):
    h, x = HANDLES[name](), FOREIGN[name]().element_at(1)
    with pytest.raises(SpecError, match="is not an element of"):
        h.index(x)
    with pytest.raises(SpecError):
        semifield_within(h, [h.zero, x])


def _object_domain_table(d, kind):
    """The q x q digit table of d built with dom_add or dom_mul and
    element_key, over domain_elements order."""
    elems = domains.domain_elements(d)
    digit = {element_key(x): i for i, x in enumerate(elems)}
    f = domains.dom_add if kind == "add" else domains.dom_mul
    return np.array([[digit[element_key(f(x, y))] for y in elems]
                     for x in elems], dtype=np.intp)


@pytest.mark.parametrize("kind", ["add", "mul"])
@pytest.mark.parametrize("d", KERNEL_DOMAINS, ids=domains.describe_domain)
def test_domain_kernel_matches_the_object_arithmetic(d, kind):
    every = np.arange(domains.domain_size(d))
    got = tables.dom_kernel(d, kind)(every[:, None], every)
    assert got.dtype == np.intp
    assert np.array_equal(got, _object_domain_table(d, kind))


@pytest.mark.parametrize("kind", ["add", "mul"])
@pytest.mark.parametrize("d", KERNEL_DOMAINS, ids=domains.describe_domain)
def test_domain_arithmetic_matches_the_object_arithmetic(monkeypatch, d,
                                                         kind):
    # with no table fitting a block every kernel, a neutrosophic one's base
    # included, is the arithmetic
    monkeypatch.setattr(tables, "_BLOCK_ENTRIES", 0)
    every = np.arange(domains.domain_size(d))
    got = tables.dom_kernel(d, kind)(every[:, None], every)
    assert got.dtype == np.intp
    assert np.array_equal(got, _object_domain_table(d, kind))


def test_zn_kernel_is_exact_at_the_enumeration_guard():
    # the largest zn a handle compiles: its products stay far inside intp
    from intervalsemirings.handle import _ENUM_GUARD
    n = _ENUM_GUARD
    assert dh(zn_interval(n)).is_enumerable()
    assert not dh(zn_interval(n + 1)).is_enumerable()
    assert (n - 1) ** 2 < 1 << 41 < np.iinfo(np.intp).max
    x = np.array([0, 1, n // 2, n - 2, n - 1], dtype=np.intp)
    for kind, f in (("add", lambda a, b: (a + b) % n),
                    ("mul", lambda a, b: a * b % n)):
        got = tables.dom_kernel(zn_interval(n), kind)(x[:, None], x)
        assert got.tolist() == [[f(a, b) for b in x.tolist()]
                                for a in x.tolist()]


def test_small_index_types_are_widened_before_the_kernel(monkeypatch):
    # zn(300) has no domain table, so the arithmetic reads the digits of the
    # uint16 indices: 299 * 299 overflows uint16
    entries = _arithmetic_entries(monkeypatch)
    t = dh(zn_interval(300)).tables()
    idx = np.array([0, 7, 298, 299], dtype=np.uint16)
    want = np.array([[a * b % 300 for b in idx.tolist()] for a in idx.tolist()])
    assert np.array_equal(t.block("mul", idx, idx), want)
    assert entries == {("zn-interval(300)", "mul"): 16}


def _strictness_sums(monkeypatch, h):
    """_strict_domain(h) and how many dom_add calls it made."""
    sums, dom_add = [], domains.dom_add

    def counted_add(x, y):
        sums.append(None)
        return dom_add(x, y)

    monkeypatch.setattr(domains, "dom_add", counted_add)
    return _strict_domain(h), len(sums)


@pytest.mark.parametrize("d", [zn_interval(30), neutro_mixed(zn_interval(4)),
                               neutro_pure(DIV12)],
                         ids=domains.describe_domain)
def test_strictness_past_the_domain_table_cap_matches_object_scan(
        monkeypatch, d):
    # a cap that the full k x k table fits and the intp domain table does not
    want = is_strict_domain(d)
    k = domains.domain_size(d)
    monkeypatch.setattr(tables, "TABLE_BYTE_CAP", 2 * k * k)
    entries = _arithmetic_entries(monkeypatch)
    h = dh(d)
    h.tables()
    assert (domains.describe_domain(d), "add") not in entries
    assert _strictness_sums(monkeypatch, h) == (want, 0)


def test_strictness_of_zn3000_runs_no_object_sums(monkeypatch):
    # 3000 elements: the 72 MB intp domain table is over the cap, so every
    # entry of the full add table comes from the kernel.  The object scan
    # (is_strict_domain, about 10 s) finds [0,1500] + [0,1500] = [0,0].
    d = zn_interval(3000)
    entries = _arithmetic_entries(monkeypatch)
    h = dh(d)
    h.tables()
    assert entries == {}
    half = element(d, 1500)
    assert _strictness_sums(monkeypatch, h) == ((False, (half, half)), 0)


@pytest.mark.parametrize("d", [zn_interval(12), zn_interval(7), BOOL4,
                               neutro_mixed(zn_interval(4)), chain_lattice(4)],
                         ids=["zn(12)", "zn(7)", "bool4", "neutro-mixed(zn(4))",
                              "chain(4)"])
def test_domain_zero_divisor_pair_matches_reference(d):
    h = dh(d)
    want = next(_zero_divisor_pairs(h, h.elements()), None)
    want = None if want is None else h.pair(*want)
    assert _domain_zero_divisor_pair(h) == want


def test_local_tables_use_the_small_entry_type_and_count_their_bytes():
    h = mh(zn_interval(3), (SQUARE, 2))
    t = h.tables()
    s = tables.restrict(t, [0, 1, 2, 4])
    assert s.add.dtype == s.mul.dtype == np.uint8
    # 6561 elements: the local tables of 4000 members are refused by their
    # estimate, before the compiled tables are even built
    t = fsh(zn_interval(3), cyclic_group(8)).tables()
    with pytest.raises(SpecError) as err:
        tables.restrict(t, np.arange(4000))
    assert f"{(2 * 2 + 4) * 4000 * 4000} bytes" in str(err.value)
    assert t._full == {}


@pytest.mark.parametrize("entries", [1, 7, laws._BLOCK_ENTRIES])
def test_neutro_prime_sweep_batches_match_reference(monkeypatch, entries):
    monkeypatch.setattr(laws, "_BLOCK_ENTRIES", entries)
    got = theorem_sweep("neutro-prime-no-subsemiring", primes=(3, 5, 7))
    assert got.to_json_str() == ref_sweep_neutro_prime((3, 5, 7)).to_json_str()
    # composite moduli, past the prime check, find a closed subset
    monkeypatch.setattr(carriers, "_is_prime", lambda p: True)
    got = theorem_sweep("neutro-prime-no-subsemiring", primes=(3, 4, 6))
    assert got.to_json_str() == \
        ref_sweep_neutro_prime((3, 4, 6)).to_json_str()


def test_scan_masks_are_counted_before_allocating():
    # 6561 elements: the unit and S-certificate masks are refused before
    # the (also oversized) full table is tried
    h = fsh(zn_interval(3), cyclic_group(8))
    for kind, nbytes in (("s-unit", 3 * 6561 * 6561),
                         ("s-zero-divisor", 4 * 6560 * 6560)):
        with pytest.raises(SpecError) as err:
            find_s_special(h, kind)
        assert f"{nbytes} bytes" in str(err.value)
    with pytest.raises(SpecError) as err:
        find_units(h)
    assert f"{3 * 6561 * 6561} bytes" in str(err.value)
    assert h.tables()._full == {}
    # 4096 elements: the full table fits (32 MiB), five zero-divisor masks
    # over the 4095 nonzero elements do not
    h = mh(zn_interval(2), (ROW, 12))
    with pytest.raises(SpecError) as err:
        find_zero_divisors(h)
    assert f"{5 * 4095 * 4095} bytes" in str(err.value)


@pytest.mark.parametrize("name", ["zn(2).C3 [8]", "row(3) zn(3) [27]",
                                  "neutro-mixed(zn(4))"])
def test_batched_closedness_matches_reference(name):
    # {0}, every {0, x}, and the pairs with it: in characteristic 2 each
    # {0, x} is closed under + and only some are closed under *
    h = HANDLES[name]()
    t = h.tables()
    elems = h.elements()
    want = [row for r in (0, 1, 2)
            for row in (tuple(sorted((t.zero,) + c)) for c in
                        itertools.combinations(t.nonzero().tolist(), r))
            if _first_unclosed(h, [elems[i] for i in row],
                               {elems[i] for i in row}) is None]
    got = laws.closed_sets([t.add, t.mul], (t.zero,), 3)
    assert sorted(got) == sorted(want)


def _ref_closed_sets(ops, base, top):
    """Each closed set that holds base with at most top elements, checked
    one subset at a time."""
    pool = [x for x in range(len(ops[0])) if x not in base]
    for r in range(top - len(base) + 1):
        for c in itertools.combinations(pool, r):
            s = set(base) | set(c)
            if all(op[x, y] in s for op in ops for x in s for y in s):
                yield tuple(sorted(s))


@pytest.mark.parametrize("entries", [1, 7, laws._BLOCK_ENTRIES])
def test_closed_subsets_match_reference(monkeypatch, entries):
    monkeypatch.setattr(laws, "_BLOCK_ENTRIES", entries)
    t = HANDLES["zn(2).C3 [8]"]().tables()
    # a local table: entry 5 marks a sum or product outside the subset
    s = tables.restrict(t, [0, 1, 2, 4, 7])
    magma = np.array(build_groupoid(4, 1, 2).table)
    loop = np.array(build_loop(7, 3).table)
    for ops, base, top in [([t.add, t.mul], (t.zero,), 8),
                           ([t.add, t.mul], (), 8),
                           ([s.add, s.mul], (s.zero,), 5),
                           ([magma], (), 4),
                           ([loop], (0,), 3)]:
        got = laws.closed_sets(ops, base, top)
        assert sorted(got) == sorted(_ref_closed_sets(ops, base, top))
        assert got


def test_exhaustive_search_pins():
    # every subset of a chain with 0 is closed: all of them but {0} and the
    # whole chain are found, and all of them are counted as scanned
    t = dh(chain_lattice(16)).tables()
    found, scanned = laws.substructures([t.add, t.mul], (t.zero,),
                                        "exhaustive", t.k - 1)
    assert len(found) == scanned == 32766
    assert smarandache_search(dh(zn_interval(20)), "exhaustive").to_json() == {
        "query": "smarandache on zn(20)", "exhaustive": True, "findings": [],
        "budget": {"pairs_scanned": 524286}}


@pytest.mark.parametrize("d", [zn_interval(6), zn_interval(12),
                               chain_lattice(3), BOOL4,
                               neutro_mixed(zn_interval(4))],
                         ids=["zn(6)", "zn(12)", "chain(3)", "bool4",
                              "neutro-mixed(zn(4))"])
def test_strictness_witness_from_tables_matches_object_scan(d):
    assert _strict_domain(dh(d)) == is_strict_domain(d)


def test_structural_classification_refuses_large_coefficient_domains():
    # over the enumeration guard: refused before any domain operation
    for h in (mh(zn_interval(1 << 21), (ROW, 1)),
              fsh(zn_interval(1 << 21), PolyBasis())):
        with pytest.raises(SpecError, match="enumeration guard exceeded"):
            classify_semiring(h)
    # under the guard, but the strictness masks of 6000 elements are over
    # the table cap
    with pytest.raises(SpecError, match=f"{2 * 6000 * 6000} bytes"):
        classify_semiring(fsh(zn_interval(6000), PolyBasis()))


def test_zero_divisor_scan_is_refused_before_building_its_table():
    # 4096 elements: the full table fits (32 MiB), its masks do not
    h = mh(zn_interval(2), (ROW, 12))
    with pytest.raises(SpecError, match=f"{5 * 4095 * 4095} bytes"):
        find_zero_divisors(h)
    assert h.tables()._full == {}


# ---------------------------------------------------------------------------
# the generated search at 243 elements, the coefficient domain compiled once,
# and the two sides of an S-unit's a


def test_generated_search_at_243_elements():
    # 243 singles and 29403 pairs; the report is the one the search gave
    # when it closed every pair from scratch
    h = fsh(zn_interval(3), cyclic_group(5))
    assert smarandache_search(h).to_json_str() == (
        '{"query": "smarandache on formal-sum[zn(3); cyclic(5)]", '
        '"exhaustive": false, "findings": [], '
        '"budget": {"pairs_scanned": 29646}}')


@pytest.mark.parametrize("build, pattern_sums", [
    (lambda: fsh(chain_lattice(300), PolyBasis()), 0),
    # the commutativity pattern multiplies two 2 x 2 matrices both ways
    (lambda: mh(chain_lattice(300), (SQUARE, 2)), 16),
], ids=["poly", "square(2)"])
def test_structural_classification_compiles_the_domain_once(
        monkeypatch, build, pattern_sums):
    built, sums = [], []
    init, dom_add = tables.Tables.__init__, domains.dom_add

    def counted_init(self, h):
        built.append(h.describe())
        init(self, h)

    def counted_add(x, y):
        sums.append(None)
        return dom_add(x, y)

    monkeypatch.setattr(tables.Tables, "__init__", counted_init)
    monkeypatch.setattr(domains, "dom_add", counted_add)
    h = build()
    want = '"strict": true, "commutative": %s' % (
        "true" if h.kind == "formal-sum" else "false")
    assert want in json.dumps(classify_semiring(h).to_json())
    # one strictness scan of the 300 x 300 domain table, reused by the
    # zero-divisor question; the table comes from the array kernel, so the
    # only object sums are the pattern's
    assert built == ["chain(300)"]
    assert len(sums) == pattern_sums


@pytest.mark.parametrize("n, m", [(7, 3), (9, 2)])
def test_s_unit_a_solving_one_side_only_never_completes(n, m):
    # see tables.s_units: on these nonassociative, noncommutative loop
    # semirings accepting only x*a = y would give the same certificates
    h = fsh(zn_interval(2), build_loop(n, m))
    t = h.tables()
    mul = t.full("mul")
    one = mul == t.one
    every = np.arange(t.k)
    one_sided = 0
    for x, y in tables.units(t)[0]:
        if x == t.one:
            continue
        outside = (every != x) & (every != y) & (every != t.one)
        left, right = mul[x] == y, mul[:, x] == y
        bs = ((mul[y] == x) | (mul[:, y] == x)) & outside
        completes = (one | one.T)[:, bs].any(axis=1) & outside
        one_sided += int(np.count_nonzero(left != right))
        assert not (completes & (left != right)).any(), x
    assert (one_sided > 0) == (n == 9)
    assert find_s_special(h, "s-unit").findings


# ---------------------------------------------------------------------------
# the table compile over digit axes, against the object arithmetic and the
# explicit fold of Tables.op


@functools.lru_cache(maxsize=None)
def _object_tables_of(name):
    return _object_tables(HANDLES[name]())


UPTO_729 = [name for name in HANDLES if SIZE[name] <= 729]


def _routes(k):
    """(rows, cols) index arrays reaching each route of Tables._compute:
    digit axes on the columns, on the rows, on both sides asked for in
    full, and explicit indices on both sides."""
    every = np.arange(k)
    few = every[::3][:max(1, (k - 1) // 2)]
    most = every[k // 3:]
    return [(few, most), (most, few), (every, every), (few, few[::-1])]


@pytest.mark.parametrize("name", UPTO_729)
def test_full_and_block_match_object_tables(name):
    obj = dict(zip(("add", "mul"), _object_tables_of(name)))
    for kind in ("add", "mul"):
        for rows, cols in _routes(SIZE[name]):
            t = HANDLES[name]().tables()
            got = t.block(kind, rows, cols)
            assert got.dtype == t.dtype
            assert np.array_equal(got, obj[kind][np.ix_(rows, cols)])
        t = HANDLES[name]().tables()
        assert np.array_equal(t.full(kind), obj[kind])
        assert t.full(kind).dtype == t.dtype


@given(st.sampled_from([n for n in UPTO_729 if SIZE[n] <= 128]),
       st.sampled_from(["add", "mul"]),
       st.sampled_from(["cols", "rows", "explicit"]), st.data())
@settings(max_examples=80, deadline=None)
def test_block_on_drawn_subsets_matches_object_tables(name, kind, route,
                                                      data):
    # unsorted, repeating index lists; the route fixes which side asks for
    # at least half of the elements
    k = SIZE[name]
    half = (k + 1) // 2
    some = st.lists(st.integers(0, k - 1), max_size=max(0, half - 1))
    many = st.lists(st.integers(0, k - 1), min_size=half, max_size=k + 3)
    rows = np.array(data.draw(many if route == "rows" else some), dtype=np.intp)
    cols = np.array(data.draw(many if route == "cols" else some), dtype=np.intp)
    t = HANDLES[name]().tables()
    obj = _object_tables_of(name)[0 if kind == "add" else 1]
    assert np.array_equal(t.block(kind, rows, cols), obj[np.ix_(rows, cols)])


@pytest.mark.parametrize("block", [2, 7, 50])
@pytest.mark.parametrize("name", ["zn(2).C3 [8]", "zn(3).Z3(2,1) [27]",
                                  "square(2) zn(3) [81]", "zn(12)",
                                  "zn(3).mult-semigroup(4) absorbed [27]"])
def test_multi_block_compile_matches_object_tables(monkeypatch, name, block):
    # small blocks split the digit axes: a unit of q^m positions with
    # m < n, several units or rows per block, or a few explicit entries
    monkeypatch.setattr(tables, "_BLOCK_ENTRIES", block)
    obj = dict(zip(("add", "mul"), _object_tables_of(name)))
    for kind in ("add", "mul"):
        for rows, cols in _routes(SIZE[name]):
            t = HANDLES[name]().tables()
            assert np.array_equal(t.block(kind, rows, cols),
                                  obj[kind][np.ix_(rows, cols)])
        assert np.array_equal(HANDLES[name]().tables().full(kind), obj[kind])


def _ref_fold(h, t, dom, kind, i, j):
    """Index of element i (kind) element j read digit by digit from the
    q x q domain tables dom: slot o sums its (l, r) products left to
    right, in row-major order of (l, r)."""
    keys, product = h._slots()
    n = len(keys)
    x = [i // t.q ** (n - 1 - s) % t.q for s in range(n)]
    y = [j // t.q ** (n - 1 - s) % t.q for s in range(n)]
    add, op = dom["add"], dom[kind]
    out = 0
    for o in range(n):
        if kind == "add":
            terms = [(o, o)]
        else:
            terms = [(l, r) for l, r in itertools.product(range(n), repeat=2)
                     if product(l, r) == o]
        acc = t._zero_digit
        for m, (l, r) in enumerate(terms):
            term = int(op[x[l], y[r]])
            acc = term if m == 0 else int(add[acc, term])
        out = out * t.q + acc
    return out


@pytest.mark.parametrize("name", ["zn(2).C3 [8]", "zn(3).Z3(2,1) [27]",
                                  "zn(2).L5(3) [64]", "square(2) zn(3) [81]",
                                  "zn(3).mult-semigroup(4) absorbed [27]",
                                  "zn(2).symmetric-semigroup(2) [16]"])
def test_compile_keeps_the_fold_order(name):
    # with a non-commutative, non-associative domain addition the order of
    # a slot's terms shows in its value, so the compile must fold them as
    # Tables.op and the reference do
    h = HANDLES[name]()
    t = h.tables()
    rng = np.random.default_rng(12)
    q = t.q
    while True:
        add = rng.integers(0, q, (q, q)).astype(np.intp)
        a, b, c = np.meshgrid(*[np.arange(q)] * 3, indexing="ij")
        if (add != add.T).any() and (add[add[a, b], c] != add[a, add[b, c]]).any():
            break
    dom = {"add": add, "mul": rng.integers(0, q, (q, q)).astype(np.intp)}
    t._kernel = {kind: functools.partial(lambda a, x, y: a[x, y], a)
                 for kind, a in dom.items()}
    every = np.arange(t.k)
    for kind in ("add", "mul"):
        full = t.full(kind)
        assert np.array_equal(full, t.op(kind, every[:, None], every[None, :]))
        for i, j in rng.integers(0, t.k, (40, 2)):
            assert full[i, j] == int(t.op(kind, i, j)) \
                == _ref_fold(h, t, dom, kind, i, j)


def test_full_mul_at_1024_elements_matches_object_products():
    h = fsh(zn_interval(2), cyclic_group(10))
    t = h.tables()
    mul = t.full("mul")
    rng = np.random.default_rng(10)
    for i, j in rng.integers(0, t.k, (200, 2)):
        x, y = h.element_at(int(i)), h.element_at(int(j))
        assert mul[i, j] == h.index(h.mul(x, y))


@pytest.mark.parametrize("build, kinds", [
    (lambda: fsh(zn_interval(3), cyclic_group(6)), ("add", "mul")),
    (lambda: fsh(zn_interval(2), build_loop(5, 3)), ("mul",)),
    (lambda: mh(zn_interval(3), (SQUARE, 2)), ("mul",)),
    # 19683 elements: one row of them is more than a block
    (lambda: fsh(zn_interval(3), cyclic_group(9)), ("mul",)),
    # 9000 domain elements: q itself is more than a block
    (lambda: dh(zn_interval(9000)), ("add",)),
])
def test_compile_keeps_every_domain_operation_within_a_block(monkeypatch,
                                                             build, kinds):
    sizes = []
    dom_op = tables.Tables._dom_op

    def counted(self, kind, x, y):
        out = dom_op(self, kind, x, y)
        sizes.extend(np.size(a) for a in (x, y, out))
        return out

    monkeypatch.setattr(tables.Tables, "_dom_op", counted)
    h = build()
    every = np.arange(h.size())
    few = every[1:4]
    for kind in kinds:
        t = h.tables()
        t.block(kind, few, every[1:])
        t.block(kind, every[1:], few)
        t.block(kind, few, few)
        if t.k <= 1024:
            t.full(kind)
    assert sizes and max(sizes) <= tables._BLOCK_ENTRIES


@pytest.mark.parametrize("name", list(HANDLES))
def test_element_at_matches_elements(name):
    h = HANDLES[name]()
    decoded = [h.element_at(i) for i in range(h.size())]
    # decoding is arithmetic on i: it enumerates no handle
    assert h._elements is None and h._coefficient_handle()._elements is None
    assert decoded == HANDLES[name]().elements()
    assert [h.render(x) for x in decoded] == \
        [h.render(x) for x in HANDLES[name]().elements()]
    elems = h.elements()
    assert all(h.element_at(i) is x for i, x in enumerate(elems))


@pytest.mark.parametrize("name", list(HANDLES))
def test_every_kind_names_its_coefficient_domain(name):
    # h.domain is the domain every slot of every element is drawn from
    h = HANDLES[name]()
    coefficients = {"domain": lambda x: [x.domain],
                    "formal-sum": lambda x: [x.spec.coefficients],
                    "matrix": lambda x: [e.domain for e in x.entries]}[h.kind]
    assert h._coefficient_handle().domain == h.domain
    assert h.size() == domains.domain_size(h.domain) ** len(h._slots()[0])
    assert {d for x in h.elements() for d in coefficients(x)} == {h.domain}


@pytest.mark.parametrize("shape", [(ROW, True), (SQUARE, True)])
def test_a_matrix_handle_refuses_a_bool_n(shape):
    # bool is a subclass of int, but True is no matrix size
    with pytest.raises(SpecError, match="invalid matrix shape"):
        mh(zn_interval(3), shape)


@pytest.mark.parametrize("name", list(HANDLES))
def test_element_at_refuses_an_index_outside_the_handle(name):
    # no wrap past the end or from a negative index, and no payload outside
    # the domain, before elements() and after it
    h = HANDLES[name]()
    n = h.size()
    for enumerated in (False, True):
        if enumerated:
            h.elements()
        for i in (n, n + 1, 2 * n, -1, -n):
            with pytest.raises(IndexError):
                h.element_at(i)
        assert h.element_at(n - 1) == h.elements()[-1]


def test_findings_render_without_enumerating_the_handle():
    h = fsh(zn_interval(3), cyclic_group(6))
    got = find_zero_divisors(h, budget=20000)
    assert h._elements is None and got.findings
    enumerated = fsh(zn_interval(3), cyclic_group(6))
    enumerated.elements()
    assert got.to_json_str() == \
        find_zero_divisors(enumerated, budget=20000).to_json_str()
