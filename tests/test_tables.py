"""Compiled Cayley tables against the object arithmetic they replace.

The ``ref_*`` functions scan element objects with the handle's own
arithmetic; the table scans must match them exactly, witnesses and
``pairs_scanned`` included.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from intervalsemirings import (
    ROW,
    SQUARE,
    PolyBasis,
    SemiringHandle,
    SpecError,
    build_groupoid,
    build_loop,
    chain_lattice,
    classify_semiring,
    cyclic_group,
    find_idempotents,
    find_nilpotents,
    find_s_special,
    find_units,
    find_zero_divisors,
    make_spec,
    mult_semigroup_zn,
    neutro_mixed,
    neutro_pure,
    symmetric_semigroup,
    table_lattice,
    verify_axioms,
    zn_interval,
)
from intervalsemirings import cli
from intervalsemirings.analysis import (
    Finding,
    _finish_classification,
    _object_tables,
    _report,
    _wit,
)


def dh(d):
    return SemiringHandle.for_domain(d)


def fsh(coeff, basis, **kw):
    return SemiringHandle.for_formal_sums(make_spec(coeff, basis, **kw))


def mh(d, shape):
    return SemiringHandle.for_matrices(d, shape)


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
    findings = []
    scanned = 0
    exhaustive = True
    for x in nz:
        if budget is not None and scanned >= budget:
            exhaustive = False
            break
        scanned += 1
        cert = None
        for y in nz:
            if y == x:
                continue
            if h.mul(x, y) == zero:
                continue
            for a in nz:
                if a == x or a == y:
                    continue
                if h.mul(a, x) == zero and h.mul(x, a) == zero:
                    continue
                for b in nz:
                    if b == x or b == y:
                        continue
                    if h.mul(b, y) == zero and h.mul(y, b) == zero:
                        continue
                    if h.mul(a, b) == zero or h.mul(b, a) == zero:
                        cert = (y, a, b)
                        break
                if cert:
                    break
            if cert:
                break
        if cert:
            y, a, b = cert
            findings.append(Finding("s-anti-zero-divisor",
                                    _wit(h, x, y, a, b), (x, y, a, b)))
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


class OneTableHandle:
    """Stand-in handle over explicit tables on 0..k-1; zero is 0, one is 1."""

    zero = 0
    one = 1

    def __init__(self, add, mul):
        self.add_table = add
        self.mul_table = mul

    def elements(self):
        return list(range(len(self.add_table)))

    def add(self, x, y):
        return self.add_table[x][y]

    def mul(self, x, y):
        return self.mul_table[x][y]


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
    assert verify_axioms(OneTableHandle(_MAX3, mul)) == (False, witness)


def test_verify_axioms_new_laws_hold_on_table_lattice():
    assert verify_axioms(dh(BOOL4)) == (True, None)
    assert verify_axioms(fsh(BOOL4, cyclic_group(2))) == (True, None)
