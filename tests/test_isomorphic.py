"""Isomorphic constructions give the same answers.

Each pair below builds one finite semiring two ways.  The map between them
is checked to be a bijection that preserves +, * and 0 in both directions
(``check_homomorphism``), and then both sides must agree on the
classification flags, on the ``exhaustive`` flag of every element query,
and on its findings carried across by the map.  Every map below also keeps
the element order, so the findings come in the same order.
"""

import pytest

from intervalsemirings import (
    ROW,
    SQUARE,
    FormalSum,
    IntervalMatrix,
    PolyBasis,
    SemiringHandle,
    chain_lattice,
    check_homomorphism,
    classify_semiring,
    cyclic_group,
    element,
    find_idempotents,
    find_nilpotents,
    find_s_special,
    find_units,
    find_zero_divisors,
    make_spec,
    neutro_pure,
    table_lattice,
    zn_interval,
)

ZN6 = zn_interval(6)


def _fs(coeff, basis, **kw):
    return SemiringHandle.for_formal_sums(make_spec(coeff, basis, **kw))


def _group_vs_poly(n, period):
    """zn(n).C_period and zn(n).poly-cyclic-period, with g^i <-> x^i."""
    src = _fs(zn_interval(n), cyclic_group(period))
    dst = _fs(zn_interval(n), PolyBasis(period))
    return src, dst, lambda x: FormalSum(dst.spec, x.terms.items())


def _zn6_vs(build, wrap):
    return SemiringHandle.for_domain(ZN6), build(), wrap


def _chain_vs_table():
    k = 4
    chain = chain_lattice(k)
    table = table_lattice([[max(a, b) for b in range(k)] for a in range(k)],
                          [[min(a, b) for b in range(k)] for a in range(k)],
                          names=chain.names)
    dst = SemiringHandle.for_domain(table)
    return (SemiringHandle.for_domain(chain), dst,
            lambda x: element(table, x.a))


def _zn5_vs_c1():
    dst = _fs(zn_interval(5), cyclic_group(1), absorb_zero_basis=False)
    return (SemiringHandle.for_domain(zn_interval(5)), dst,
            lambda x: FormalSum(dst.spec, [(0, x)]))


PAIRS = {
    "zn(2).C4 ~ zn(2).poly-cyclic-4": lambda: _group_vs_poly(2, 4),
    "zn(3).C3 ~ zn(3).poly-cyclic-3": lambda: _group_vs_poly(3, 3),
    "zn(6) ~ square(1)/zn(6)": lambda: _zn6_vs(
        lambda: SemiringHandle.for_matrices(ZN6, (SQUARE, 1)),
        lambda x: IntervalMatrix(ZN6, (SQUARE, 1), (x,))),
    "zn(6) ~ row(1)/zn(6)": lambda: _zn6_vs(
        lambda: SemiringHandle.for_matrices(ZN6, (ROW, 1)),
        lambda x: IntervalMatrix(ZN6, (ROW, 1), (x,))),
    "zn(6) ~ neutro-pure(zn(6))": lambda: _zn6_vs(
        lambda: SemiringHandle.for_domain(neutro_pure(ZN6)),
        lambda x: element(neutro_pure(ZN6), x.a)),
    "chain(4) ~ table lattice": _chain_vs_table,
    "zn(5) ~ zn(5).C1 kept": _zn5_vs_c1,
}

QUERIES = {
    "zero-divisors": find_zero_divisors,
    "units": find_units,
    "idempotents": find_idempotents,
    "nilpotents": find_nilpotents,
    **{kind: (lambda h, kind=kind: find_s_special(h, kind))
       for kind in ("s-zero-divisor", "s-anti-zero-divisor",
                    "s-idempotent", "s-unit")},
}


@pytest.mark.parametrize("name", list(PAIRS))
def test_the_map_is_an_isomorphism_both_ways(name):
    src, dst, f = PAIRS[name]()
    elems = src.elements()
    forward = {x: f(x) for x in elems}
    # a bijection onto dst's elements, so it has an inverse on all of them
    assert sorted(map(dst.index, forward.values())) == list(range(dst.size()))
    backward = {y: x for x, y in forward.items()}
    for a, b, m in ((src, dst, forward), (dst, src, backward)):
        report = check_homomorphism(m, a, b)
        assert report.ok and report.exhaustive, report.witness
        assert report.kernel == (a.zero,)
    assert forward[src.one] == dst.one


@pytest.mark.parametrize("name", list(PAIRS))
def test_isomorphic_constructions_agree_on_every_query(name):
    src, dst, f = PAIRS[name]()
    assert [dst.index(f(x)) for x in src.elements()] == list(range(src.size()))
    a, b = classify_semiring(src), classify_semiring(dst)
    flags = ("strict", "commutative", "has_one", "zero_divisor_free",
             "semifield", "exhaustive")
    assert [getattr(a, k) for k in flags] == [getattr(b, k) for k in flags]
    for query, run in QUERIES.items():
        x, y = run(src), run(dst)
        assert (len(x.findings), x.exhaustive) == \
            (len(y.findings), y.exhaustive), query
        carried = [(g.kind, tuple(map(f, g.elements))) for g in x.findings]
        assert carried == [(g.kind, g.elements) for g in y.findings], query


def test_zn5_over_c1_collapses_by_default():
    # C1's one element is absorbing, so the default spec identifies it with
    # zero and every formal sum with 0
    h = _fs(zn_interval(5), cyclic_group(1))
    assert h.spec.absorb_zero_basis
    assert h.size() == 1 and h.elements() == [h.zero]
