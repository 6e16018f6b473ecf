from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from intervalsemirings import (
    DomainMismatchError,
    DomainSpec,
    IntervalElem,
    SpecError,
    canonical_pair,
    chain_lattice,
    dom_add,
    dom_mul,
    domain_elements,
    domain_from_json,
    domain_one,
    domain_to_json,
    domain_zero,
    element,
    element_key,
    format_element,
    is_finite_domain,
    is_strict_domain,
    lattice_element,
    nat_interval,
    neutro_mixed,
    neutro_pure,
    pair_key,
    parse_element,
    rat_interval,
    table_lattice,
    zn_interval,
)

DIAMOND_JOIN = ((0, 1, 2, 3), (1, 1, 3, 3), (2, 3, 2, 3), (3, 3, 3, 3))
DIAMOND_MEET = ((0, 0, 0, 0), (0, 1, 0, 1), (0, 0, 2, 2), (0, 1, 2, 3))


def diamond():
    return table_lattice(DIAMOND_JOIN, DIAMOND_MEET, names=("0", "a", "b", "1"))


# ---------------------------------------------------------------------------
# construction and validation


def test_zn_requires_modulus_at_least_two():
    with pytest.raises(SpecError):
        zn_interval(1)


def test_nat_multiple_restricts_endpoints():
    d = nat_interval(3)
    assert element(d, 6).a == 6
    with pytest.raises(SpecError):
        element(d, 4)


def test_chain_needs_two_elements():
    with pytest.raises(SpecError):
        chain_lattice(1)


def test_table_lattice_rejects_nondistributive():
    # M3: three incomparable atoms under 1
    join = (
        (0, 1, 2, 3, 4),
        (1, 1, 4, 4, 4),
        (2, 4, 2, 4, 4),
        (3, 4, 4, 3, 4),
        (4, 4, 4, 4, 4),
    )
    meet = (
        (0, 0, 0, 0, 0),
        (0, 1, 0, 0, 1),
        (0, 0, 2, 0, 2),
        (0, 0, 0, 3, 3),
        (0, 1, 2, 3, 4),
    )
    with pytest.raises(SpecError):
        table_lattice(join, meet)


def test_neutro_wraps_base_domain():
    d = neutro_mixed(zn_interval(4))
    x = element(d, 2, 3)
    assert x.a == 2 and x.b == 3


# ---------------------------------------------------------------------------
# arithmetic


def test_zn_arithmetic_wraps():
    d = zn_interval(6)
    assert dom_add(element(d, 4), element(d, 5)) == element(d, 3)
    assert dom_mul(element(d, 4), element(d, 5)) == element(d, 2)


def test_rat_uses_exact_fractions():
    d = rat_interval()
    x = element(d, Fraction(1, 3))
    y = element(d, Fraction(1, 6))
    assert dom_add(x, y).a == Fraction(1, 2)
    assert dom_mul(x, y).a == Fraction(1, 18)


def test_lattice_add_is_join_mul_is_meet():
    d = chain_lattice(4)
    lo = lattice_element(d, "a1")
    hi = lattice_element(d, "a2")
    assert dom_add(lo, hi) == hi
    assert dom_mul(lo, hi) == lo


def test_diamond_incomparable_atoms_multiply_to_zero():
    d = diamond()
    a = lattice_element(d, "a")
    b = lattice_element(d, "b")
    assert dom_mul(a, b) == domain_zero(d)
    assert dom_add(a, b) == lattice_element(d, "1")


def test_neutro_mixed_product_formula():
    # (a+bI)(c+dI) = ac + (ad+bc+bd)I
    d = neutro_mixed(zn_interval(10))
    x = element(d, 2, 3)
    y = element(d, 4, 5)
    p = dom_mul(x, y)
    assert p.a == 8
    assert p.b == (2 * 5 + 3 * 4 + 3 * 5) % 10


def test_neutro_pure_product_keeps_i():
    # (aI)(bI) = abI since I^2 = I
    d = neutro_pure(zn_interval(7))
    assert dom_mul(element(d, 3), element(d, 4)) == element(d, 5)


def test_domain_one_presence():
    assert domain_one(zn_interval(5)) == element(zn_interval(5), 1)
    assert domain_one(nat_interval(3)) is None
    # I itself is the one of a pure neutrosophic domain: (1I)(bI) = bI
    dp = neutro_pure(zn_interval(5))
    assert domain_one(dp) == element(dp, 1)
    d = neutro_mixed(zn_interval(5))
    assert domain_one(d) == element(d, 1, 0)


def test_mixed_domains_do_not_mix():
    with pytest.raises(DomainMismatchError):
        dom_add(element(zn_interval(5), 1), element(zn_interval(7), 1))


# ---------------------------------------------------------------------------
# parsing and rendering


def test_parse_round_trip_each_kind():
    cases = [
        (zn_interval(6), element(zn_interval(6), 4)),
        (nat_interval(), element(nat_interval(), 12)),
        (rat_interval(), element(rat_interval(), Fraction(7, 2))),
        (neutro_pure(zn_interval(5)), element(neutro_pure(zn_interval(5)), 3)),
        (neutro_mixed(zn_interval(5)),
         element(neutro_mixed(zn_interval(5)), 2, 3)),
    ]
    for d, x in cases:
        assert parse_element(d, format_element(x)) == x


def test_parse_lattice_uses_bare_names():
    d = chain_lattice(3)
    assert parse_element(d, "a1") == lattice_element(d, "a1")
    with pytest.raises(DomainMismatchError):
        parse_element(d, "[0,1]")


def test_parse_interval_in_lattice_free_whitespace():
    d = zn_interval(9)
    assert parse_element(d, "[ 0 , 5 ]") == element(d, 5)


def test_parse_rejects_malformed():
    with pytest.raises(SpecError):
        parse_element(zn_interval(9), "[1,5]")


def test_parse_rational_literal_rejected_in_zn():
    with pytest.raises(DomainMismatchError):
        parse_element(zn_interval(9), "[0,1/2]")


# ---------------------------------------------------------------------------
# classification helpers


def test_strictness():
    ok, witness = is_strict_domain(nat_interval())
    assert ok and witness is None
    ok, witness = is_strict_domain(zn_interval(6))
    assert not ok
    x, y = witness
    assert dom_add(x, y) == domain_zero(zn_interval(6))
    assert x != domain_zero(zn_interval(6))
    ok, _ = is_strict_domain(chain_lattice(3))
    assert ok


def test_finiteness():
    assert is_finite_domain(zn_interval(5))
    assert is_finite_domain(diamond())
    assert not is_finite_domain(nat_interval())
    assert not is_finite_domain(rat_interval())
    assert is_finite_domain(neutro_mixed(zn_interval(3)))


def test_domain_elements_counts():
    assert len(domain_elements(zn_interval(7))) == 7
    assert len(domain_elements(neutro_pure(zn_interval(5)))) == 5
    assert len(domain_elements(neutro_mixed(zn_interval(3)))) == 9


def test_pair_key_is_larger_first():
    d = zn_interval(10)
    x, y = element(d, 3), element(d, 8)
    assert pair_key(x, y) == pair_key(y, x)
    assert canonical_pair(x, y) == (y, x)
    assert pair_key(x, y) == (element_key(y), element_key(x))


# ---------------------------------------------------------------------------
# JSON round trips


@pytest.mark.parametrize("d", [
    zn_interval(12),
    nat_interval(),
    nat_interval(5),
    rat_interval(),
    chain_lattice(4),
    neutro_pure(zn_interval(7)),
    neutro_mixed(nat_interval()),
])
def test_domain_json_round_trip(d):
    assert domain_from_json(domain_to_json(d)) == d


def test_domain_json_round_trip_table():
    d = diamond()
    assert domain_from_json(domain_to_json(d)) == d


def test_domain_json_rejects_unknown_kind():
    with pytest.raises(SpecError):
        domain_from_json({"kind": "octonion"})


def test_a_domain_spec_hashes_its_tables_once():
    # every element hash hashes its spec, so a table lattice's join and
    # meet must not be hashed again on each of them
    calls = []

    class Counted(tuple):
        def __hash__(self):
            calls.append(1)
            return super().__hash__()

    d = DomainSpec("table-lattice", k=4, names=("0", "a", "b", "1"),
                   join=Counted(DIAMOND_JOIN), meet=DIAMOND_MEET)
    assert d == diamond()
    elements = [IntervalElem(d, a) for a in range(4)] * 50
    assert len({hash(x) for x in elements}) <= 4
    assert len(set(elements)) == 4 and hash(d) == hash(diamond())
    assert len(calls) <= 1


# ---------------------------------------------------------------------------
# property tests: semiring axioms on endpoints


@st.composite
def zn_elems(draw):
    n = draw(st.integers(min_value=2, max_value=60))
    d = zn_interval(n)
    xs = draw(st.lists(st.integers(min_value=0, max_value=n - 1),
                       min_size=3, max_size=3))
    return [element(d, v) for v in xs]


@given(zn_elems())
def test_zn_semiring_axioms(xs):
    x, y, z = xs
    assert dom_add(x, y) == dom_add(y, x)
    assert dom_add(dom_add(x, y), z) == dom_add(x, dom_add(y, z))
    assert dom_mul(dom_mul(x, y), z) == dom_mul(x, dom_mul(y, z))
    assert dom_mul(x, dom_add(y, z)) == dom_add(dom_mul(x, y), dom_mul(x, z))
    assert dom_mul(dom_add(y, z), x) == dom_add(dom_mul(y, x), dom_mul(z, x))


@given(st.fractions(min_value=0, max_value=100),
       st.fractions(min_value=0, max_value=100),
       st.fractions(min_value=0, max_value=100))
def test_rat_semiring_axioms(a, b, c):
    d = rat_interval()
    x, y, z = element(d, a), element(d, b), element(d, c)
    assert dom_add(x, y) == dom_add(y, x)
    assert dom_mul(x, dom_add(y, z)) == dom_add(dom_mul(x, y), dom_mul(x, z))
    assert dom_add(x, domain_zero(d)) == x
    assert dom_mul(x, domain_one(d)) == x


@given(st.integers(min_value=2, max_value=9),
       st.data())
def test_mixed_neutro_axioms(n, data):
    d = neutro_mixed(zn_interval(n))
    picks = data.draw(st.lists(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
        min_size=3, max_size=3))
    x, y, z = (element(d, a, b) for a, b in picks)
    assert dom_mul(x, y) == dom_mul(y, x)
    assert dom_mul(dom_mul(x, y), z) == dom_mul(x, dom_mul(y, z))
    assert dom_mul(x, dom_add(y, z)) == dom_add(dom_mul(x, y), dom_mul(x, z))
