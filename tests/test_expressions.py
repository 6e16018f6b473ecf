import pytest
from hypothesis import given, settings, strategies as st

from intervalsemirings import (
    DomainMismatchError,
    ParseError,
    PolyBasis,
    ROW,
    SQUARE,
    SemiringHandle,
    SpecError,
    ast_to_str,
    build_groupoid,
    build_loop,
    cyclic_group,
    element,
    eval_expression,
    eval_pair,
    fs_term,
    make_spec,
    nat_interval,
    parse_expression,
    parse_formal_sum,
    row_matrix,
    zn_interval,
)

POLY = SemiringHandle.for_formal_sums(make_spec(nat_interval(), PolyBasis()))
LOOP = SemiringHandle.for_formal_sums(make_spec(nat_interval(),
                                                build_loop(7, 3)))
GROUPOID = SemiringHandle.for_formal_sums(
    make_spec(nat_interval(), build_groupoid(5, 3, 2)))
DOM = SemiringHandle.for_domain(zn_interval(9))
MAT = SemiringHandle.for_matrices(zn_interval(6), (ROW, 2))
SQ = SemiringHandle.for_matrices(zn_interval(6), (SQUARE, 2))


# ---------------------------------------------------------------------------
# parsing


def test_parse_sum_of_terms():
    t = parse_expression("[0,1] + [0,2]*x^3")
    assert t[0] == "add"


def test_parse_binary_product_only():
    with pytest.raises(ParseError) as e:
        parse_expression("[0,1] * [0,2] * [0,3]")
    assert "parentheses" in str(e.value)
    assert e.value.position == 14


def test_parse_parenthesized_triple():
    t = parse_expression("([0,1] * [0,2]) * [0,3]")
    assert t[0] == "mul"


def test_parse_error_position_reported():
    with pytest.raises(ParseError) as e:
        parse_expression("[0,1] + ")
    assert e.value.position == 8


def test_parse_rejects_trailing_garbage():
    with pytest.raises(ParseError):
        parse_expression("[0,1] )")


def test_parse_empty_input():
    with pytest.raises(ParseError):
        parse_expression("")


def test_parse_matrix_literal():
    t = parse_expression("[[0,1], [0,2]]")
    assert t[0] == "matrix"


def test_parse_nested_matrix_rows():
    t = parse_expression("[[[0,1], [0,2]], [[0,3], [0,4]]]")
    assert t[0] == "matrix"
    assert isinstance(t[1][0], tuple)


def test_round_trip_fixed_cases():
    for text in [
        "[0,1]",
        "[0,1] + [0,2]",
        "[0,1] * [0,2]",
        "([0,1] + [0,2]) * [0,3]",
        "[0,2]*x^3 + [0,1]*e",
        "[[0,1], [0,2]]",
    ]:
        t = parse_expression(text)
        assert parse_expression(ast_to_str(t)) == t


@st.composite
def asts(draw, depth=0):
    leaf = st.sampled_from([
        ("interval", "[0,1]"),
        ("interval", "[0,12]"),
        ("symbol", "x^2"),
        ("symbol", "e"),
        ("symbol", "g3"),
    ])
    if depth >= 3:
        return draw(leaf)
    kind = draw(st.integers(0, 3))
    if kind == 0:
        return draw(leaf)
    if kind == 1:
        n = draw(st.integers(2, 3))
        return ("add", tuple(draw(asts(depth + 1)) for _ in range(n)))
    if kind == 2:
        return ("mul", draw(asts(depth + 1)), draw(asts(depth + 1)))
    return ("matrix", tuple(draw(st.sampled_from(["[0,1]", "[0,2]"]))
                            for _ in range(2)))


@given(asts())
@settings(max_examples=200, deadline=None)
def test_printer_parser_round_trip(t):
    assert parse_expression(ast_to_str(t)) == t


# ---------------------------------------------------------------------------
# evaluation


def test_eval_polynomial():
    p = eval_expression(POLY, "[0,2]*x^1 + [0,3]*x^2")
    d = nat_interval()
    assert p.terms == {1: element(d, 2), 2: element(d, 3)}


def test_eval_loop_tokens():
    p = eval_expression(LOOP, "[0,5]*g2 + [0,10]*e")
    assert list(p.terms) == [0, 2]


def test_eval_groupoid_residues():
    p = eval_expression(GROUPOID, "[0,7]*4b")
    assert p == fs_term(GROUPOID.spec, 4, element(nat_interval(), 7))


def test_bare_interval_needs_identity_basis():
    # a naked coefficient means coeff * identity-basis-element
    p = eval_expression(POLY, "[0,5]")
    assert list(p.terms) == [0]
    q = eval_expression(LOOP, "[0,5]")
    assert list(q.terms) == [0]


def test_eval_domain_handle():
    x = eval_expression(DOM, "[0,4] * [0,4]")
    assert x == element(zn_interval(9), 7)


def test_eval_matrix_handle():
    m = eval_expression(MAT, "[[0,1], [0,2]] + [[0,3], [0,4]]")
    d = zn_interval(6)
    assert m == row_matrix(d, [element(d, 4), element(d, 0)])


def test_square_matrix_literal():
    m = eval_expression(SQ, "[[[0,1], [0,0]], [[0,0], [0,1]]]")
    p = eval_expression(SQ, "[[[0,2], [0,3]], [[0,4], [0,5]]]")
    assert eval_pair(SQ, ast_to_str(parse_expression(
        "[[[0,1], [0,0]], [[0,0], [0,1]]]")),
        "[[[0,2], [0,3]], [[0,4], [0,5]]]", "mul") == p
    assert m is not None


def test_matrix_wrong_width_rejected():
    with pytest.raises(DomainMismatchError) as e:
        eval_expression(MAT, "[[0,1], [0,2], [0,3]]")
    assert "n=2" in str(e.value)


def test_matrix_literal_on_domain_handle_rejected():
    with pytest.raises(DomainMismatchError):
        eval_expression(DOM, "[[0,1], [0,2]]")


def test_unknown_symbol():
    with pytest.raises(DomainMismatchError):
        eval_expression(POLY, "y^2")


def test_symbol_on_wrong_basis():
    with pytest.raises(DomainMismatchError):
        eval_expression(POLY, "g3")


def test_mixed_coefficient_literal():
    with pytest.raises(DomainMismatchError):
        eval_expression(DOM, "[0,1/2]")


def test_eval_pair():
    assert eval_pair(DOM, "[0,4]", "[0,7]", "add") == element(zn_interval(9), 2)
    assert eval_pair(DOM, "[0,4]", "[0,7]", "mul") == element(zn_interval(9), 1)
    with pytest.raises(SpecError):
        eval_pair(DOM, "[0,1]", "[0,2]", "pow")


def test_parse_formal_sum_helper():
    p = parse_formal_sum(POLY.spec, "[0,3]*x^2 + [0,1]*x^0")
    assert list(p.terms) == [0, 2]


def test_coeff_times_coeff_in_sum_handle():
    p = eval_expression(POLY, "[0,3] * [0,4]")
    assert p.terms[0] == element(nat_interval(), 12)


def test_products_associate_explicitly_only():
    left = eval_expression(GROUPOID, "(([0,7]*4b) * ([0,12]*2b)) * ([0,10]*3b)")
    right = eval_expression(GROUPOID, "([0,7]*4b) * (([0,12]*2b) * ([0,10]*3b))")
    assert left != right


def test_distributes_over_parenthesized_sum():
    a = eval_expression(POLY, "([0,2]*x^1) * ([0,1]*x^0 + [0,1]*x^1)")
    b = eval_expression(POLY, "[0,2]*x^1 + [0,2]*x^2")
    assert a == b


# ---------------------------------------------------------------------------
# promotion: a coefficient scales what it multiplies; a bare token is 1*k and
# a bare coefficient c is c times the identity token or c*I


ZN3_C4 = SemiringHandle.for_formal_sums(make_spec(zn_interval(3),
                                                  cyclic_group(4)))
NAT2_C3 = SemiringHandle.for_formal_sums(make_spec(nat_interval(2),
                                                   cyclic_group(3)))
ZN3_GROUPOID = SemiringHandle.for_formal_sums(
    make_spec(zn_interval(3), build_groupoid(5, 3, 2)))
SQ_ZN5 = SemiringHandle.for_matrices(zn_interval(5), (SQUARE, 2))
SQ_NAT2 = SemiringHandle.for_matrices(nat_interval(2), (SQUARE, 2))
_M5 = "[[[0,1], [0,2]], [[0,3], [0,4]]]"
_MN2 = "[[[0,2], [0,0]], [[0,4], [0,2]]]"
_NO_TOKEN_ONE = "bare basis token needs a coefficient identity"
_NO_BASIS_ONE = "bare coefficient needs an identity basis element"
_NO_MATRIX_ONE = ("bare coefficient needs a multiplicative identity to make "
                  "a matrix")


@pytest.mark.parametrize("h, lhs, op, rhs, want", [
    (ZN3_C4, "g1", "mul", "[0,2]", "[0,2]*g1"),
    (ZN3_C4, "g1", "mul", "g3", "[0,1]*e"),
    (ZN3_C4, "[0,2]", "mul", "[0,1]*e + [0,1]*g1", "[0,2]*e + [0,2]*g1"),
    (ZN3_C4, "[0,1]*e + [0,2]*g1", "mul", "[0,2]", "[0,2]*e + [0,1]*g1"),
    (ZN3_C4, "[0,1]", "add", "[0,2]", "0"),
    (NAT2_C3, "g1", "mul", "g2", _NO_TOKEN_ONE),
    (NAT2_C3, "[0,2]*g1", "mul", "[0,4]", "[0,8]*g1"),
    (NAT2_C3, "[0,2]", "add", "[0,4]", "[0,6]*e"),
    (ZN3_GROUPOID, "[0,1]", "add", "[0,2]*1b", _NO_BASIS_ONE),
    (ZN3_GROUPOID, "([0,1] + [0,2])", "mul", "1b", _NO_BASIS_ONE),
    (ZN3_GROUPOID, "[0,2]", "mul", "1b", "[0,2]*1b"),
    (SQ_ZN5, "[0,2]", "mul", _M5, "[[[0,2], [0,4]], [[0,1], [0,3]]]"),
    (SQ_ZN5, _M5, "add", "[0,2]", "[[[0,3], [0,2]], [[0,3], [0,1]]]"),
    (SQ_NAT2, "[0,2]", "add", _MN2, _NO_MATRIX_ONE),
    (SQ_NAT2, "([0,2] + [0,4])", "mul", _MN2,
     "[[[0,12], [0,0]], [[0,24], [0,12]]]"),
])
def test_promotion_rule(h, lhs, op, rhs, want):
    if want.startswith("bare "):
        with pytest.raises(DomainMismatchError) as e:
            eval_pair(h, lhs, rhs, op)
        assert str(e.value) == want
    else:
        assert h.render(eval_pair(h, lhs, rhs, op)) == want
