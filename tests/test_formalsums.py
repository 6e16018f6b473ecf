import pytest
from hypothesis import given, settings, strategies as st

from intervalsemirings import (
    Magma,
    PolyBasis,
    SpecError,
    basis_is_finite,
    basis_keys,
    basis_token,
    build_groupoid,
    build_loop,
    cyclic_group,
    dom_add,
    dom_mul,
    domain_zero,
    element,
    enumerate_elements,
    fs_add,
    fs_from_terms,
    fs_mul,
    fs_one,
    fs_scale,
    fs_term,
    fs_zero,
    make_spec,
    mult_semigroup_zn,
    nat_interval,
    poly_mul,
    resolve_basis_token,
    semiring_size,
    zn_interval,
)
from intervalsemirings.formalsums import _basis_op


def naive_convolution(spec, p, q):
    """Independent reference: accumulate every cross term into a dict."""
    d = spec.coefficients
    acc = {}
    for g, cg in p.terms.items():
        for k, ck in q.terms.items():
            key = _basis_op(spec, g, k)
            prod = dom_mul(cg, ck)
            acc[key] = dom_add(acc[key], prod) if key in acc else prod
    zero = domain_zero(d)
    acc = {k: v for k, v in acc.items() if v != zero}
    if spec.absorb_zero_basis:
        acc.pop(spec.basis.absorbing_index(), None)
    return acc


# ---------------------------------------------------------------------------
# construction


def test_zero_coefficients_dropped():
    spec = make_spec(zn_interval(4), PolyBasis())
    p = fs_from_terms(spec, [(0, element(zn_interval(4), 0)),
                             (1, element(zn_interval(4), 2))])
    assert list(p.terms) == [1]


def test_repeated_keys_accumulate():
    spec = make_spec(nat_interval(), PolyBasis())
    d = nat_interval()
    p = fs_from_terms(spec, [(2, element(d, 3)), (2, element(d, 4))])
    assert p.terms[2] == element(d, 7)


def test_cyclic_exponents_fold():
    spec = make_spec(nat_interval(), PolyBasis(cyclic=4))
    d = nat_interval()
    p = fs_term(spec, 6, element(d, 1))
    assert list(p.terms) == [2]


def test_absorbed_basis_terms_dropped():
    g = mult_semigroup_zn(4)
    spec = make_spec(zn_interval(5), g)
    assert spec.absorb_zero_basis
    z = g.absorbing_index()
    p = fs_term(spec, z, element(zn_interval(5), 3))
    assert p == fs_zero(spec)


def test_absorb_flag_requires_absorbing_element():
    with pytest.raises(SpecError):
        make_spec(zn_interval(5), cyclic_group(3), absorb_zero_basis=True)


def test_key_out_of_range_rejected():
    spec = make_spec(zn_interval(2), cyclic_group(3))
    with pytest.raises(SpecError):
        fs_term(spec, 3, element(zn_interval(2), 1))


# ---------------------------------------------------------------------------
# arithmetic


def test_add_is_pointwise():
    spec = make_spec(zn_interval(6), PolyBasis())
    d = zn_interval(6)
    p = fs_from_terms(spec, [(0, element(d, 4)), (1, element(d, 1))])
    q = fs_from_terms(spec, [(0, element(d, 2)), (2, element(d, 5))])
    s = fs_add(p, q)
    assert list(s.terms) == [1, 2]  # 4+2 = 0 mod 6 drops x^0


def test_mul_convolves_through_carrier():
    g = cyclic_group(2)
    spec = make_spec(zn_interval(3), g)
    d = zn_interval(3)
    p = fs_from_terms(spec, [(0, element(d, 2)), (1, element(d, 1))])
    # (2e + g)^2 = 4e + 4g + g^2 = 4e+4g+e = 5e + 4g = 2e + g mod 3
    assert fs_mul(p, p) == p


def test_one_exists_when_carrier_has_identity():
    spec = make_spec(zn_interval(5), cyclic_group(3))
    one = fs_one(spec)
    assert one is not None
    p = fs_from_terms(spec, [(1, element(zn_interval(5), 4))])
    assert fs_mul(one, p) == p
    assert fs_mul(p, one) == p


def test_poly_basis_identity_is_x0_and_not_a_field():
    assert PolyBasis().identity == PolyBasis(cyclic=4).identity == 0
    # a property: fields, equality and hashing see only the period
    assert PolyBasis._fields == ("cyclic",)
    assert PolyBasis(cyclic=4) == PolyBasis(cyclic=4) != PolyBasis()
    assert hash(PolyBasis()) == hash(PolyBasis(None))
    with pytest.raises(AttributeError):
        PolyBasis().identity = 1
    spec = make_spec(zn_interval(5), PolyBasis(cyclic=4))
    assert list(fs_one(spec).terms) == [0]


def test_one_missing_without_domain_one():
    spec = make_spec(nat_interval(3), PolyBasis())
    assert fs_one(spec) is None


def test_scale():
    spec = make_spec(nat_interval(), PolyBasis())
    d = nat_interval()
    p = fs_from_terms(spec, [(0, element(d, 2)), (3, element(d, 5))])
    s = fs_scale(element(d, 4), p)
    assert s.terms[0] == element(d, 8) and s.terms[3] == element(d, 20)


def test_poly_mul_matches_fs_mul():
    spec = make_spec(zn_interval(7), PolyBasis())
    d = zn_interval(7)
    p = fs_from_terms(spec, [(0, element(d, 3)), (2, element(d, 4))])
    q = fs_from_terms(spec, [(1, element(d, 5))])
    assert poly_mul(p, q) == fs_mul(p, q)


def test_mul_rejects_mismatched_specs():
    a = make_spec(zn_interval(3), PolyBasis())
    b = make_spec(zn_interval(5), PolyBasis())
    with pytest.raises(SpecError):
        fs_mul(fs_zero(a), fs_zero(b))


# ---------------------------------------------------------------------------
# enumeration and sizes


def test_semiring_sizes():
    assert semiring_size(make_spec(zn_interval(2), PolyBasis(cyclic=4))) == 16
    assert semiring_size(make_spec(zn_interval(2), cyclic_group(4))) == 16
    assert semiring_size(make_spec(zn_interval(3), cyclic_group(2))) == 9


def test_semiring_size_counts_absorbed_basis_once():
    # 4 basis keys, one absorbed: size = 3^(4-1)
    spec = make_spec(zn_interval(3), mult_semigroup_zn(4))
    assert semiring_size(spec) == 27


def test_size_infinite_cases():
    with pytest.raises(SpecError):
        semiring_size(make_spec(nat_interval(), cyclic_group(2)))
    with pytest.raises(SpecError):
        semiring_size(make_spec(zn_interval(2), PolyBasis()))


def test_enumerate_elements_exact():
    spec = make_spec(zn_interval(2), cyclic_group(2))
    elems = enumerate_elements(spec)
    assert len(elems) == 4
    assert len(set(map(str, elems))) == 4


def test_enumeration_guard():
    spec = make_spec(zn_interval(2), build_loop(25, 8))
    with pytest.raises(SpecError):
        enumerate_elements(spec)


# ---------------------------------------------------------------------------
# tokens


def test_poly_tokens():
    spec = make_spec(zn_interval(2), PolyBasis())
    assert basis_token(spec, 0) == "x^0"
    assert basis_token(spec, 7) == "x^7"
    assert resolve_basis_token(spec, "x^7") == 7


def test_loop_tokens():
    spec = make_spec(zn_interval(2), build_loop(5, 2))
    assert basis_token(spec, 0) == "e"
    assert basis_token(spec, 3) == "g3"
    assert resolve_basis_token(spec, "e") == 0
    assert resolve_basis_token(spec, "g3") == 3


def test_residue_tokens():
    spec = make_spec(nat_interval(), build_groupoid(5, 3, 2))
    assert basis_token(spec, 4) == "4b"
    assert resolve_basis_token(spec, "4b") == 4
    with pytest.raises(SpecError):
        resolve_basis_token(spec, "9b")


def test_basis_keys_skip_absorbed():
    spec = make_spec(zn_interval(3), mult_semigroup_zn(4))
    assert spec.basis.absorbing_index() not in basis_keys(spec)


def test_basis_finiteness():
    assert basis_is_finite(cyclic_group(3))
    assert basis_is_finite(PolyBasis(cyclic=5))
    assert not basis_is_finite(PolyBasis())


# ---------------------------------------------------------------------------
# property tests against the naive oracle


def small_sums(spec, ncoeff, nkeys):
    coeff = st.integers(min_value=0, max_value=ncoeff - 1)
    term = st.tuples(st.integers(min_value=0, max_value=nkeys - 1), coeff)
    d = spec.coefficients
    return st.lists(term, min_size=0, max_size=4).map(
        lambda ts: fs_from_terms(spec, [(k, element(d, c)) for k, c in ts]))


POLY_SPEC = make_spec(zn_interval(6), PolyBasis(cyclic=5))
LOOP_SPEC = make_spec(zn_interval(4), build_loop(5, 3))
SEMI_SPEC = make_spec(zn_interval(5), mult_semigroup_zn(6))


@given(small_sums(POLY_SPEC, 6, 5), small_sums(POLY_SPEC, 6, 5))
@settings(max_examples=150, deadline=None)
def test_fs_mul_matches_naive_poly(p, q):
    assert fs_mul(p, q).terms == naive_convolution(POLY_SPEC, p, q)


@given(small_sums(LOOP_SPEC, 4, 6), small_sums(LOOP_SPEC, 4, 6))
@settings(max_examples=150, deadline=None)
def test_fs_mul_matches_naive_loop(p, q):
    assert fs_mul(p, q).terms == naive_convolution(LOOP_SPEC, p, q)


@given(small_sums(SEMI_SPEC, 5, 6), small_sums(SEMI_SPEC, 5, 6))
@settings(max_examples=150, deadline=None)
def test_fs_mul_matches_naive_absorbing(p, q):
    assert fs_mul(p, q).terms == naive_convolution(SEMI_SPEC, p, q)


@given(small_sums(POLY_SPEC, 6, 5), small_sums(POLY_SPEC, 6, 5),
       small_sums(POLY_SPEC, 6, 5))
@settings(max_examples=100, deadline=None)
def test_distributivity(p, q, r):
    assert fs_mul(p, fs_add(q, r)) == fs_add(fs_mul(p, q), fs_mul(p, r))
    assert fs_mul(fs_add(q, r), p) == fs_add(fs_mul(q, p), fs_mul(r, p))


@given(small_sums(LOOP_SPEC, 4, 6), small_sums(LOOP_SPEC, 4, 6))
@settings(max_examples=100, deadline=None)
def test_add_commutes(p, q):
    assert fs_add(p, q) == fs_add(q, p)


def test_a_formal_sum_hashes_its_terms_only(monkeypatch):
    # the hash of 1*e over C_200 never reaches the 200 x 200 basis table,
    # and equal sums over the same spec still hash alike
    spec = make_spec(zn_interval(5), cyclic_group(200))
    x = fs_term(spec, 0, element(zn_interval(5), 1))

    def refuse(self):
        raise AssertionError("Magma.__hash__ called")

    monkeypatch.setattr(Magma, "__hash__", refuse)
    assert hash(x) == hash(fs_term(spec, 0, element(zn_interval(5), 1)))
    assert len({x, fs_zero(spec), fs_add(x, x)}) == 3
    # the same terms over another spec hash alike and compare unequal
    other = fs_term(make_spec(zn_interval(5), cyclic_group(3)), 0,
                    element(zn_interval(5), 1))
    assert hash(other) == hash(x) and other != x
