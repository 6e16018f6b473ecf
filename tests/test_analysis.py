import itertools
import json
from fractions import Fraction

import numpy as np
import pytest

from intervalsemirings import (
    analysis,
    domains,
    handle,
    laws,
    structural,
    tables,
)
from intervalsemirings import (
    PolyBasis,
    ROW,
    SQUARE,
    SemiringHandle,
    SpecError,
    build_groupoid,
    build_loop,
    chain_lattice,
    check_homomorphism,
    check_laws,
    check_substructure,
    classify_semiring,
    cyclic_group,
    domain_elements,
    element,
    find_idempotents,
    find_nilpotents,
    find_s_special,
    find_units,
    find_zero_divisors,
    make_spec,
    matrix_zd_comparison,
    mult_semigroup_zn,
    nat_interval,
    neutro_mixed,
    neutro_pure,
    rat_interval,
    semifield_within,
    smarandache_search,
    sweep_passed,
    table_lattice,
    theorem_sweep,
    validate_s_certificate,
    verify_axioms,
    zn_interval,
)


def dh(d):
    return SemiringHandle.for_domain(d)


def fsh(coeff, basis, **kw):
    return SemiringHandle.for_formal_sums(make_spec(coeff, basis, **kw))


def mh(d, shape):
    return SemiringHandle.for_matrices(d, shape)


# ---------------------------------------------------------------------------
# zero divisors


def test_zn18_zero_divisors_exhaustive():
    r = find_zero_divisors(dh(zn_interval(18)))
    assert r.exhaustive
    assert len(r.findings) == 15
    assert all(f.kind == "zero-divisor" for f in r.findings)
    pairs = {f.witness for f in r.findings}
    assert ("[0,6]", "[0,3]") in pairs
    assert ("[0,9]", "[0,2]") in pairs
    assert r.budget_spent["pairs_scanned"] == 153  # C(18,2) + 18 self-pairs


def test_zero_divisor_witnesses_multiply_to_zero():
    h = dh(zn_interval(18))
    for f in find_zero_divisors(h).findings:
        a, b = f.elements
        assert h.mul(a, b) == h.zero


def test_zn_prime_has_none():
    r = find_zero_divisors(dh(zn_interval(23)))
    assert r.exhaustive and not r.findings


def test_nat_domain_structurally_clean():
    r = find_zero_divisors(dh(nat_interval()))
    assert r.exhaustive and not r.findings
    assert r.budget_spent["pairs_scanned"] == 0


def test_diamond_lattice_zero_divisor():
    d = table_lattice(
        ((0, 1, 2, 3), (1, 1, 3, 3), (2, 3, 2, 3), (3, 3, 3, 3)),
        ((0, 0, 0, 0), (0, 1, 0, 1), (0, 0, 2, 2), (0, 1, 2, 3)),
        names=("0", "a", "b", "1"))
    r = find_zero_divisors(dh(d))
    assert r.exhaustive
    assert ("b", "a") in {f.witness for f in r.findings}


def test_formal_sum_zero_divisors_lift_from_domain():
    h = fsh(zn_interval(4), cyclic_group(3))
    r = find_zero_divisors(h)
    assert r.findings
    for f in r.findings:
        a, b = f.elements
        assert h.mul(a, b) == h.zero
    assert r.exhaustive  # 64 elements: small enough for a full pair scan


def test_large_formal_sum_found_by_pattern():
    h = fsh(zn_interval(4), cyclic_group(12))  # 4^12 elements
    r = find_zero_divisors(h)
    assert r.findings and not r.exhaustive
    a, b = r.findings[0].elements
    assert h.mul(a, b) == h.zero


def test_formal_sum_absorption_collision():
    h = fsh(nat_interval(), mult_semigroup_zn(4))
    r = find_zero_divisors(h)
    assert ("[0,1]*2b", "[0,1]*2b") in {f.witness for f in r.findings}


def test_formal_sum_structurally_clean():
    # strict zero-divisor-free domain, group basis: no zero divisors
    r = find_zero_divisors(fsh(nat_interval(), cyclic_group(3)))
    assert r.exhaustive and not r.findings


def test_infinite_domain_intervals_clean():
    r = find_zero_divisors(dh(rat_interval()))
    assert r.exhaustive and not r.findings


def test_budget_truncates_scan():
    r = find_zero_divisors(dh(zn_interval(18)), budget=10)
    assert not r.exhaustive
    assert r.budget_spent["pairs_scanned"] <= 10


@pytest.mark.parametrize("value", [True, False, "3", 1.0])
@pytest.mark.parametrize("query", [
    lambda h, v: find_zero_divisors(h, budget=v),
    lambda h, v: find_s_special(h, "s-unit", budget=v),
    lambda h, v: matrix_zd_comparison(mh(zn_interval(2), (ROW, 2)), budget=v),
    lambda h, v: smarandache_search(h, mode="exhaustive", max_subset=v),
], ids=["zero-divisors", "s-units", "comparison", "max_subset"])
def test_budget_and_max_subset_refuse_a_non_integer(query, value):
    # a bool is an int to Python, but True is no count of pairs
    h = dh(zn_interval(6))
    with pytest.raises(SpecError, match=f"must be an integer, not {value!r}"):
        query(h, value)


def test_budget_takes_numpy_integers_and_negative_counts():
    h = dh(zn_interval(18))
    for budget in (np.int64(10), np.uint8(10)):
        r = find_zero_divisors(h, budget=budget)
        assert r.to_json() == find_zero_divisors(h, budget=10).to_json()
        assert type(r.budget_spent["pairs_scanned"]) is int
    # a negative budget still scans nothing
    r = find_s_special(h, "s-zero-divisor", budget=-1)
    assert (r.findings, r.exhaustive, r.budget_spent) == \
        ((), False, {"pairs_scanned": 0})


# ---------------------------------------------------------------------------
# idempotents, units, nilpotents


def test_zn12_idempotents():
    r = find_idempotents(dh(zn_interval(12)))
    vals = sorted(f.elements[0].a for f in r.findings)
    assert vals == [0, 1, 4, 9]
    assert r.exhaustive


def test_rat_idempotents_structural():
    r = find_idempotents(dh(rat_interval()))
    assert {f.witness[0] for f in r.findings} == {"[0,0]", "[0,1]"}
    assert r.exhaustive


def test_neutro_idempotents():
    r = find_idempotents(dh(neutro_mixed(rat_interval())))
    assert {f.witness[0] for f in r.findings} == {"[0,0]", "[0,1]", "[0,1I]"}


def test_zn23_units():
    r = find_units(dh(zn_interval(23)))
    assert len(r.findings) == 22
    pairs = {f.witness for f in r.findings}
    assert ("[0,8]", "[0,3]") in pairs
    assert ("[0,22]", "[0,22]") in pairs


def test_units_need_identity():
    with pytest.raises(SpecError):
        find_units(dh(nat_interval(3)))


def test_units_need_finite_handle():
    with pytest.raises(SpecError):
        find_units(dh(rat_interval()))


def test_zn8_nilpotents():
    r = find_nilpotents(dh(zn_interval(8)))
    byval = {f.elements[0].a: f.kind for f in r.findings}
    assert byval == {2: "nilpotent-index-3", 4: "nilpotent-index-2",
                     6: "nilpotent-index-3"}


def test_nilpotent_index_bounds():
    with pytest.raises(SpecError):
        find_nilpotents(dh(zn_interval(8)), max_index=1)
    with pytest.raises(SpecError):
        find_nilpotents(dh(zn_interval(8)), max_index=9)


# ---------------------------------------------------------------------------
# smarandache special elements


def test_zn24_s_zero_divisors():
    r = find_s_special(dh(zn_interval(24)), "s-zero-divisor")
    assert len(r.findings) == 11
    first = tuple(x.a for x in r.findings[0].elements)
    assert first == (4, 12, 6, 2)
    h = dh(zn_interval(24))
    for f in r.findings:
        assert validate_s_certificate(h, "s-zero-divisor", f.elements)


def test_zn12_s_idempotents():
    r = find_s_special(dh(zn_interval(12)), "s-idempotent")
    got = sorted(tuple(x.a for x in f.elements) for f in r.findings)
    assert got == [(4, 8), (9, 3)]


@pytest.mark.parametrize("h, count", [
    (dh(zn_interval(12)), 2),
    (fsh(chain_lattice(2), build_loop(5, 3)), 1),
])
def test_s_idempotent_certificates_recheck(h, count):
    r = find_s_special(h, "s-idempotent")
    assert len(r.findings) == count
    for f in r.findings:
        a, b = f.elements
        assert validate_s_certificate(h, "s-idempotent", (a, b))
        assert not validate_s_certificate(h, "s-idempotent", (a, a))


def test_zn13_has_no_s_idempotents():
    assert not find_s_special(dh(zn_interval(13)), "s-idempotent").findings


def test_zn12_s_anti_zero_divisors():
    r = find_s_special(dh(zn_interval(12)), "s-anti-zero-divisor")
    assert len(r.findings) == 11
    assert tuple(x.a for x in r.findings[0].elements) == (1, 2, 3, 4)
    h = dh(zn_interval(12))
    for f in r.findings:
        assert validate_s_certificate(h, "s-anti-zero-divisor", f.elements)


def test_zn23_s_units():
    r = find_s_special(dh(zn_interval(23)), "s-unit")
    assert len(r.findings) == 20
    h = dh(zn_interval(23))
    for f in r.findings:
        assert validate_s_certificate(h, "s-unit", f.elements)


def test_zn4_has_no_s_units():
    assert not find_s_special(dh(zn_interval(4)), "s-unit").findings


def test_rat_s_unit_pattern():
    h = dh(rat_interval())
    r = find_s_special(h, "s-unit")
    assert r.findings and not r.exhaustive
    f = r.findings[0]
    assert validate_s_certificate(h, "s-unit", f.elements)


def test_nat_has_no_s_zero_divisors():
    r = find_s_special(dh(nat_interval()), "s-zero-divisor")
    assert r.exhaustive and not r.findings


def test_unknown_s_kind_rejected():
    with pytest.raises(SpecError):
        find_s_special(dh(zn_interval(12)), "s-prime")


def test_row_tuple_s_certificates():
    h6 = mh(rat_interval(), (ROW, 6))
    r = find_s_special(h6, "s-zero-divisor")
    assert r.findings
    assert validate_s_certificate(h6, "s-zero-divisor",
                                  r.findings[0].elements)
    h9 = mh(rat_interval(), (ROW, 9))
    r = find_s_special(h9, "s-anti-zero-divisor")
    assert r.findings
    assert validate_s_certificate(h9, "s-anti-zero-divisor",
                                  r.findings[0].elements)


# ---------------------------------------------------------------------------
# classification


def test_zn11_classification_witnesses():
    c = classify_semiring(dh(zn_interval(11)))
    assert not c.strict and not c.semifield
    assert c.commutative and c.has_one and c.zero_divisor_free
    assert c.witnesses["strict"] == ("[0,6]", "[0,5]")
    assert c.exhaustive


def test_zn15_zero_divisor_witness_minimal():
    c = classify_semiring(dh(zn_interval(15)))
    assert not c.zero_divisor_free
    assert c.witnesses["zero_divisor_free"] == ("[0,5]", "[0,3]")


def test_nat_is_semifield():
    c = classify_semiring(dh(nat_interval()))
    assert c.strict and c.commutative and c.has_one
    assert c.zero_divisor_free and c.semifield and c.exhaustive


def test_nat_multiples_lack_identity():
    c = classify_semiring(dh(nat_interval(3)))
    assert c.strict and not c.has_one and not c.semifield


def test_neutro_mixed_rat_is_semifield():
    c = classify_semiring(dh(neutro_mixed(rat_interval())))
    assert c.semifield


def test_chain_lattice_is_semifield():
    c = classify_semiring(dh(chain_lattice(5)))
    assert c.semifield and c.exhaustive


def test_loop_lattice_semifield_needs_commutative_carrier():
    # over C2 no convolution can cancel, so the only semifield obstacle
    # is carrier commutativity: m = (n+1)/2
    good = classify_semiring(fsh(chain_lattice(2), build_loop(5, 3)))
    assert good.semifield and good.exhaustive
    bad = classify_semiring(fsh(chain_lattice(2), build_loop(5, 2)))
    assert not bad.commutative and not bad.semifield
    assert bad.zero_divisor_free
    # same dichotomy at n=7, settled at the carrier level
    assert check_laws(build_loop(7, 4)).commutative
    assert not check_laws(build_loop(7, 3)).commutative


def test_square_matrices_not_commutative():
    c = classify_semiring(mh(zn_interval(2), (SQUARE, 2)))
    assert not c.commutative and not c.zero_divisor_free
    assert not c.semifield


def test_semifield_within_subset():
    h = dh(chain_lattice(3))
    elems = sorted(h.elements(), key=h.key)
    ok, reason = semifield_within(h, [elems[0], elems[2]])
    assert ok
    ok, reason = semifield_within(h, [elems[1], elems[2]])
    assert not ok and reason == ("missing-zero",)


# ---------------------------------------------------------------------------
# substructures


def test_multiples_ideal_in_zn15():
    h = dh(zn_interval(15))
    subset = [element(zn_interval(15), v) for v in (0, 3, 6, 9, 12)]
    ok, witness = check_substructure(h, subset, "ideal")
    assert ok and witness is None


def test_multiples_pattern_on_nat():
    ok, witness = check_substructure(dh(nat_interval()), "multiples-of-3",
                                     "ideal")
    assert ok and witness is None


def test_bad_subset_witnessed():
    h = dh(zn_interval(15))
    subset = [element(zn_interval(15), v) for v in (0, 3, 7)]
    ok, witness = check_substructure(h, subset, "subsemiring")
    assert not ok
    assert witness[0] == "not-closed-under-addition"


def test_subsemiring_needs_zero():
    h = dh(zn_interval(15))
    subset = [element(zn_interval(15), v) for v in (3, 6)]
    ok, witness = check_substructure(h, subset, "subsemiring")
    assert not ok and witness[0] == "missing-zero"


def test_non_absorbing_subset_fails_ideal():
    h = dh(zn_interval(16))
    subset = [element(zn_interval(16), v) for v in (0, 4, 8, 12)]
    ok, _ = check_substructure(h, subset, "subsemiring")
    assert ok
    subset = [element(zn_interval(16), v) for v in (0, 1, 2)]
    ok, witness = check_substructure(h, subset, "subsemiring")
    assert not ok


def test_unknown_kind_rejected():
    with pytest.raises(SpecError):
        check_substructure(dh(zn_interval(6)), [], "coideal")


# ---------------------------------------------------------------------------
# smarandache semiring search


def test_chain3_semifield_subsets_exhaustive():
    r = smarandache_search(dh(chain_lattice(3)), mode="exhaustive")
    assert r.exhaustive
    subsets = {f.witness for f in r.findings}
    assert ("0", "a1") in subsets
    assert ("0", "1") in subsets


def test_zn6_is_not_smarandache():
    r = smarandache_search(dh(zn_interval(6)), mode="exhaustive")
    assert r.exhaustive and not r.findings


def test_loop_semiring_candidate_kinds():
    h = fsh(chain_lattice(2), build_loop(7, 3))
    cand = [h.zero,
            next(x for x in h.elements() if h.render(x) == "1*e"),
            next(x for x in h.elements() if h.render(x) == "1*g5"),
            next(x for x in h.elements()
                 if h.render(x) == "1*e + 1*g5")]
    r = smarandache_search(h, candidate=cand,
                           candidate_kind="semifield-subset")
    assert r.findings and r.findings[0].kind == "semifield-subset"
    r = smarandache_search(h, candidate=cand,
                           candidate_kind="s-subsemiring")
    assert r.findings
    r = smarandache_search(h, candidate=cand,
                           candidate_kind="s-pseudo-subsemiring")
    assert r.findings


def test_a_pseudo_subsemiring_candidate_builds_no_tables_of_its_own(
        monkeypatch):
    # over nat the closure of {0, 2, 4} passes the cap: no local tables are
    # restricted, and the object tables stop at the first block that
    # reaches past the cap, after at most 25000 sums and products (14330
    # in rounds of products, then sums)
    calls, ops = [], []
    restrict = tables.restrict
    monkeypatch.setattr(tables, "restrict",
                        lambda *a: calls.append(a) or restrict(*a))
    d = nat_interval()
    h = dh(d)

    def counted(op):
        return lambda x, y: ops.append(None) or op(x, y)

    h.add, h.mul = counted(h.add), counted(h.mul)
    r = smarandache_search(h, candidate=[element(d, v) for v in (0, 2, 4)],
                           candidate_kind="s-pseudo-subsemiring")
    assert (r.findings, r.exhaustive, calls) == ((), False, [])
    assert 0 < len(ops) <= 25000


def test_generated_mode_not_exhaustive():
    r = smarandache_search(dh(chain_lattice(3)), mode="generated")
    assert not r.exhaustive
    assert r.findings


# ---------------------------------------------------------------------------
# homomorphisms


def test_reduction_hom_zn4_to_zn2():
    h4, h2 = dh(zn_interval(4)), dh(zn_interval(2))
    f = {x: element(zn_interval(2), x.a % 2)
         for x in domain_elements(zn_interval(4))}
    r = check_homomorphism(f, h4, h2)
    assert r.ok and r.exhaustive
    assert sorted(x.a for x in r.kernel) == [0, 2]


def test_inclusion_hom_multiples_to_rat():
    src = dh(nat_interval(3))
    dst = dh(rat_interval())
    r = check_homomorphism(
        lambda x: element(rat_interval(), Fraction(x.a)), src, dst)
    assert r.ok and not r.exhaustive
    assert [x.a for x in r.kernel] == [0]


def test_bad_map_witnessed():
    h4, h2 = dh(zn_interval(4)), dh(zn_interval(2))
    f = {x: element(zn_interval(2), 1)
         for x in domain_elements(zn_interval(4))}
    r = check_homomorphism(f, h4, h2)
    assert not r.ok
    assert r.witness[0] == "zero"


@pytest.mark.parametrize("n, fmap, witness", [
    # x -> 2x keeps sums but 2*1*1 = 2 while 2*2 = 0
    (4, lambda h, x: h.add(x, x), ("mul", 1, 1)),
    # x -> x^2 keeps products but (1+1)^2 = 1 while 1 + 1 = 2
    (3, lambda h, x: h.mul(x, x), ("add", 1, 1)),
])
def test_hom_witness_is_the_first_failing_pair_add_before_mul(n, fmap,
                                                              witness):
    h = dh(zn_interval(n))
    r = check_homomorphism(lambda x: fmap(h, x), h, h)
    assert not r.ok and r.exhaustive
    op, x, y = r.witness
    assert (op, x.a, y.a) == witness


def test_hom_source_over_the_guard_needs_a_sample():
    # zn(2^21) is finite but over the enumeration guard: it has no default
    # sample, and a given one is checked without enumerating the handle
    h = dh(zn_interval(1 << 21))
    with pytest.raises(SpecError, match="over the enumeration guard"):
        check_homomorphism(lambda x: x, h, h)
    r = check_homomorphism(lambda x: x, h, h,
                           sample=[h.zero, element(h.domain, 1)])
    assert r.ok and not r.exhaustive
    assert h._elements is None


# ---------------------------------------------------------------------------
# axiom verification


@pytest.mark.parametrize("h", [
    dh(zn_interval(12)),
    dh(chain_lattice(5)),
    dh(neutro_mixed(zn_interval(3))),
    fsh(zn_interval(2), cyclic_group(4)),
    fsh(zn_interval(3), cyclic_group(2)),
    mh(zn_interval(4), (ROW, 2)),
    mh(zn_interval(2), (SQUARE, 2)),
], ids=lambda h: h.describe())
def test_verify_axioms(h):
    ok, witness = verify_axioms(h)
    assert ok and witness is None


def test_verify_axioms_needs_finite_handle():
    with pytest.raises(SpecError):
        verify_axioms(dh(nat_interval()))


_MAX3 = [[0, 1, 2], [1, 1, 2], [2, 2, 2]]
_ZERO3 = [[0, 0, 0], [0, 0, 0], [0, 0, 0]]


@pytest.mark.parametrize("add, mul, witness", [
    # the zero row fails at 2 and the zero column at 1: the row is checked
    # in full first
    ([[0, 1, 0], [0, 1, 2], [2, 2, 2]], _ZERO3, ("zero-identity", 2)),
    ([[0, 1, 2], [1, 1, 1], [2, 2, 2]], _ZERO3,
     ("addition-not-commutative", 1, 2)),
    ([[0, 1, 2], [1, 1, 0], [2, 0, 0]], _ZERO3,
     ("addition-not-associative", 1, 1, 2)),
    (_MAX3, [[0, 2, 1], [2, 0, 2], [0, 0, 2]],
     ("not-left-distributive", 0, 1, 2)),
    # scanned as (y, z, x), reported as (x, y, z); the first violation in
    # (x, y, z) order would be (0, 0, 2)
    (_MAX3, [[1, 2, 2], [1, 1, 2], [0, 0, 2]],
     ("not-right-distributive", 1, 0, 1)),
], ids=lambda v: v[0] if isinstance(v[0], str) else None)
def test_verify_axioms_failure_witness(add, mul, witness):
    # index tables on 0..k-1 with zero 0 and no one
    assert tables.axiom_failure(np.array(add), np.array(mul), 0, None) == \
        witness


# ---------------------------------------------------------------------------
# sweeps


def test_sweep_zn_prime_clean():
    r = theorem_sweep("zn-prime-clean", pmax=31)
    assert sweep_passed(r)
    assert len(r.findings) == 11  # primes up to 31


def test_sweep_loop_laws():
    r = theorem_sweep("loop-laws", nmin=5, nmax=13)
    assert sweep_passed(r)


def test_sweep_composite_zd():
    r = theorem_sweep("zn-composite-zd", nmax=30)
    assert sweep_passed(r)
    assert len(r.findings) == 19  # composites in 4..30


def test_sweep_neutro_prime():
    r = theorem_sweep("neutro-prime-no-subsemiring", primes=(3, 5, 7))
    assert sweep_passed(r)


def test_unknown_sweep():
    with pytest.raises(SpecError):
        theorem_sweep("goldbach")


# Each sweep's counterexample path, forced by a wrong answer from the query
# it calls; the reports are pinned as the sweeps first produced them.


def _wrong_at_p5(query):
    """The analysis query, answering zn(5) with a false zero divisor or
    with its last finding dropped."""
    real = getattr(analysis, query)

    def wrong(h):
        r = real(h)
        if h.domain.n != 5:
            return r
        findings = r.findings[:-1]
        if query == "find_zero_divisors":
            x = element(h.domain, 2)
            findings = [analysis.Finding("zero-divisor", ("[0,2]", "[0,2]"),
                                         (x, x))]
        return analysis._report(r.query, findings, r.exhaustive,
                                r.budget_spent["pairs_scanned"])
    return wrong


@pytest.mark.parametrize("query, witness, scanned", [
    ("find_zero_divisors", ["p=5", "zero divisor found", "[0,2]", "[0,2]"],
     31),
    ("find_idempotents", ["p=5", "unexpected idempotents", "[0,0]"], 36),
    ("find_units", ["p=5", "unit count 3 != 4"], 55),
])
def test_sweep_zn_prime_clean_counterexample(monkeypatch, query, witness,
                                             scanned):
    monkeypatch.setattr(analysis, query, _wrong_at_p5(query))
    r = theorem_sweep("zn-prime-clean", pmax=11)
    assert r.to_json() == {
        "query": "sweep zn-prime-clean", "exhaustive": False,
        "findings": [{"kind": "counterexample", "witness": witness}],
        "budget": {"pairs_scanned": scanned}}


def test_sweep_loop_laws_counterexample(monkeypatch):
    real = laws.loop_law_summary

    def summary(g):
        s = dict(real(g))
        s["wip"] ^= g.order == 8
        return s

    monkeypatch.setattr(laws, "loop_law_summary", summary)
    assert theorem_sweep("loop-laws", nmin=5, nmax=9).to_json() == {
        "query": "sweep loop-laws", "exhaustive": False,
        "findings": [{"kind": "counterexample",
                      "witness": ["n=7", "m=2", "wip"]}],
        "budget": {"pairs_scanned": 4}}


def test_sweep_composite_zd_counterexample(monkeypatch):
    real = domains.element
    monkeypatch.setattr(domains, "element", lambda d, a: real(
        d, 3 if (d.n, a) == (8, 2) else a))
    r = theorem_sweep("zn-composite-zd", nmax=12)
    assert r.to_json() == {
        "query": "sweep zn-composite-zd", "exhaustive": False,
        "findings": [{"kind": "counterexample",
                      "witness": ["n=8", "[0,3]", "[0,4]"]}],
        "budget": {"pairs_scanned": 3}}
    assert [f.elements for f in theorem_sweep(
        "zn-composite-zd", nmax=6).findings] == [
        (element(zn_interval(4), 2), element(zn_interval(4), 2)),
        (element(zn_interval(6), 2), element(zn_interval(6), 3))]


def test_sweep_neutro_prime_counterexample(monkeypatch):
    real = laws.closed_sets

    def closed_sets(tables, base, top):
        # at p = 7, plant every set with base whose last index passes 3
        if len(tables[0]) != 7:
            return real(tables, base, top)
        rest = [x for x in range(7) if x not in base]
        return [tuple(sorted(base + c)) for r in range(top - len(base) + 1)
                for c in itertools.combinations(rest, r) if max(base + c) > 3]

    monkeypatch.setattr(laws, "closed_sets", closed_sets)
    assert theorem_sweep("neutro-prime-no-subsemiring").to_json() == {
        "query": "sweep neutro-prime-no-subsemiring", "exhaustive": False,
        "findings": [{"kind": "counterexample",
                      "witness": ["p=7", "[0,0]", "[0,4I]"]}],
        "budget": {"pairs_scanned": 20}}


def test_sweep_neutro_prime_refuses_past_the_guard(monkeypatch):
    # 2^(p-1) subsets: p = 21 is at the 2^20 guard, p = 23 past it; the
    # refusal comes before p = 3 is swept
    real = laws.closed_sets
    monkeypatch.setattr(laws, "closed_sets", None)
    with pytest.raises(SpecError, match=r"p=23: 2\^22 subsets"):
        theorem_sweep("neutro-prime-no-subsemiring", primes=(3, 23))
    # at a guard of 16, p = 5 (2^4 subsets) is swept and n = 6 is not
    monkeypatch.setattr(laws, "closed_sets", real)
    monkeypatch.setattr(handle, "_ENUM_GUARD", 16)
    assert sweep_passed(theorem_sweep("neutro-prime-no-subsemiring",
                                      primes=(3, 5)))
    with pytest.raises(SpecError, match=r"p=6: 2\^5 subsets"):
        theorem_sweep("neutro-prime-no-subsemiring", primes=(3, 5, 6))


@pytest.mark.parametrize("name, params, takes", [
    ("loop-laws", {"pmax": 3}, "nmin and nmax (integers)"),
    ("zn-composite-zd", {"nmax": "x"}, "nmax (integers)"),
    ("zn-prime-clean", {"pmax": None}, "pmax (integers)"),
    ("zn-prime-clean", {"pmax": True}, "pmax (integers)"),
    ("loop-laws", {"nmax": 9.0}, "nmin and nmax (integers)"),
    ("neutro-prime-no-subsemiring", {"primes": 5},
     "primes (a list of integers)"),
    ("neutro-prime-no-subsemiring", {"primes": (3, "5")},
     "primes (a list of integers)"),
    ("neutro-prime-no-subsemiring", {"primes": (3, False)},
     "primes (a list of integers)"),
    ("zn-composite-zd", {"nmax": (4, 6)}, "nmax (integers)"),
], ids=["unknown-name", "string", "none", "bool", "float", "bare-prime",
        "string-prime", "bool-prime", "tuple-bound"])
def test_sweep_refuses_a_parameter_it_does_not_take(name, params, takes):
    (key, value), = params.items()
    with pytest.raises(SpecError) as err:
        theorem_sweep(name, **params)
    assert str(err.value) == \
        f"sweep {name!r} takes {takes}, not {key}={value!r}"


def test_sweep_takes_numpy_integers_as_ints():
    r = theorem_sweep("zn-composite-zd", nmax=np.int64(9))
    assert r.to_json() == theorem_sweep("zn-composite-zd", nmax=9).to_json()
    assert sweep_passed(theorem_sweep(
        "neutro-prime-no-subsemiring", primes=[np.int32(3), 5]))


def test_unit_counts_match_totient():
    sympy = pytest.importorskip("sympy")
    for n in (7, 9, 12, 15, 23):
        r = find_units(dh(zn_interval(n)))
        assert len(r.findings) == sympy.totient(n)


def test_prime_sweep_instances_match_primerange():
    sympy = pytest.importorskip("sympy")
    r = theorem_sweep("zn-prime-clean", pmax=60)
    swept = [int(f.witness[0][2:]) for f in r.findings]
    assert swept == list(sympy.primerange(2, 61))


# ---------------------------------------------------------------------------
# report shape


def test_report_json_schema():
    r = find_zero_divisors(dh(zn_interval(6)))
    doc = json.loads(r.to_json_str())
    assert list(doc) == ["query", "exhaustive", "findings", "budget"]
    assert doc["budget"] == {"pairs_scanned": r.budget_spent["pairs_scanned"]}
    for f in doc["findings"]:
        assert list(f) == ["kind", "witness"]


def test_report_determinism():
    a = find_zero_divisors(dh(zn_interval(18))).to_json_str()
    b = find_zero_divisors(dh(zn_interval(18))).to_json_str()
    assert a == b


# ---------------------------------------------------------------------------
# matrix zero-divisor comparison


def test_matrix_zd_comparison_counts():
    r = matrix_zd_comparison(mh(zn_interval(4), (ROW, 2)))
    kinds = {}
    for f in r.findings:
        kinds[f.kind] = kinds.get(f.kind, 0) + 1
    assert kinds == {"zero-divisor": 18, "s-zero-divisor": 9, "zd-not-s": 9}
    assert r.exhaustive


# ---------------------------------------------------------------------------
# finite domains above the enumeration guard


@pytest.mark.parametrize("d", [zn_interval(1 << 21),
                               neutro_mixed(zn_interval(1100))],
                         ids=["zn(2^21)", "neutro-mixed(zn(1100))"])
def test_finite_domain_over_the_guard_is_not_decided_structurally(d):
    # zn(2^21) has [0,2] * [0,2^20] = 0: no nonnegativity argument applies
    h = dh(d)
    assert h.is_finite() and not h.is_enumerable()
    r = find_zero_divisors(h)
    assert r.findings == () and not r.exhaustive
    with pytest.raises(SpecError, match="enumeration guard"):
        classify_semiring(h)


def test_sample_scalar_of_a_large_domain_is_not_scanned(monkeypatch):
    # [0,1] is the least nonzero element of zn(n), and its own square: the
    # pattern needs none of the 2^21 elements
    def refuse(d):
        raise AssertionError("domain enumerated")

    monkeypatch.setattr(structural, "domain_elements", refuse)
    r = find_zero_divisors(mh(zn_interval(1 << 21), (ROW, 2)))
    assert [f.witness for f in r.findings] == [("[[0,1], [0,0]]",
                                                "[[0,0], [0,1]]")]
    assert not r.exhaustive


@pytest.mark.parametrize("d", [nat_interval(), rat_interval(),
                               neutro_mixed(nat_interval())],
                         ids=["nat", "rat", "neutro-mixed(nat)"])
def test_infinite_domains_keep_their_structural_verdicts(d):
    r = find_zero_divisors(dh(d))
    assert r.findings == () and r.exhaustive
    c = classify_semiring(dh(d))
    assert c.exhaustive and c.strict and c.zero_divisor_free


def test_each_witness_element_is_rendered_once(monkeypatch):
    from intervalsemirings import formalsums

    h = SemiringHandle.for_formal_sums(
        formalsums.make_spec(zn_interval(3), cyclic_group(3)))
    rendered = []
    real = formalsums.print_formal_sum

    def spy(x):
        rendered.append(x)
        return real(x)

    monkeypatch.setattr(formalsums, "print_formal_sum", spy)
    findings = find_zero_divisors(h).findings
    distinct = {id(x) for f in findings for x in f.elements}
    assert sum(len(f.elements) for f in findings) > len(distinct) > 0
    assert len(rendered) == len(distinct)
    monkeypatch.undo()
    assert [f.witness for f in findings] == [
        tuple(real(x) for x in f.elements) for f in findings]


def test_each_witness_index_is_decoded_once_per_report(monkeypatch):
    # chain(6) has 31 semifield subsets over its 6 elements
    h = dh(chain_lattice(6))
    decoded = []
    real = SemiringHandle.element_at

    def spy(self, i):
        decoded.append(i)
        return real(self, i)

    monkeypatch.setattr(SemiringHandle, "element_at", spy)
    findings = smarandache_search(h, mode="exhaustive").findings
    assert sum(len(f.elements) for f in findings) > len(decoded)
    assert sorted(decoded) == sorted(set(decoded))
    assert [f.witness for f in findings] == [
        tuple(map(str, f.elements)) for f in findings]


def test_handles_describe_their_domains_in_short():
    # the short names are describe_domain's without the kind suffixes
    table = table_lattice([[0, 1], [1, 1]], [[0, 0], [0, 1]])
    names = []
    for b in (zn_interval(5), nat_interval(), nat_interval(3), rat_interval(),
              chain_lattice(3), table):
        names += [dh(d).describe() for d in (b, neutro_pure(b), neutro_mixed(b))]
    assert names == [
        "zn(5)", "neutro-pure(zn(5))", "neutro-mixed(zn(5))",
        "nat", "neutro-pure(nat)", "neutro-mixed(nat)",
        "nat(multiple=3)", "neutro-pure(nat(multiple=3))",
        "neutro-mixed(nat(multiple=3))",
        "rat", "neutro-pure(rat)", "neutro-mixed(rat)",
        "chain(3)", "neutro-pure(chain(3))", "neutro-mixed(chain(3))",
        "table(2)", "neutro-pure(table(2))", "neutro-mixed(table(2))"]
    assert fsh(chain_lattice(3), cyclic_group(2)).describe() == \
        "formal-sum[chain(3); cyclic(2)]"
    assert mh(neutro_mixed(zn_interval(5)), (SQUARE, 2)).describe() == \
        "matrix[square,2; neutro-mixed(zn(5))]"
