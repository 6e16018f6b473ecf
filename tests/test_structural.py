"""Structural answers on handles that cannot be enumerated.

A formal sum or a row or square matrix over an infinite coefficient domain,
or a finite one past the enumeration guard, is answered from arguments
about its slots, not from a scan.  The grids below ask every structural
query of 98 handles over infinite domains and of 27 edge handles; each
grid's answers are pinned by one digest, and every witness it reports is
checked again by arithmetic.
"""

import hashlib
import json

import pytest

from intervalsemirings import analysis, domains, tables
from intervalsemirings import (
    PolyBasis,
    ROW,
    SQUARE,
    SemiringHandle,
    SpecError,
    build_groupoid,
    build_loop,
    chain_lattice,
    classify_semiring,
    cyclic_group,
    dihedral_group,
    find_idempotents,
    find_s_special,
    find_zero_divisors,
    make_spec,
    mult_semigroup_zn,
    nat_interval,
    neutro_mixed,
    neutro_pure,
    rat_interval,
    symmetric_group,
    table_lattice,
    validate_s_certificate,
    zn_interval,
)

NEUTRO = ("neutro-pure(nat)", "neutro-mixed(rat)")
DOMAINS = {
    "nat": nat_interval,
    "nat(multiple=3)": lambda: nat_interval(3),
    "rat": rat_interval,
    NEUTRO[0]: lambda: neutro_pure(nat_interval()),
    NEUTRO[1]: lambda: neutro_mixed(rat_interval()),
}
NONCOMMUTATIVE = ("L5(2)", "D3", "Z4(1,2)", "S3")
# basis and whether its absorbing element is identified with zero
BASES = {
    "poly": (PolyBasis, None),
    "C3": (lambda: cyclic_group(3), None),
    "L5(2)": (lambda: build_loop(5, 2), None),
    "D3": (lambda: dihedral_group(3), None),
    "Z4(1,2)": (lambda: build_groupoid(4, 1, 2), None),
    "S3": (lambda: symmetric_group(3), None),
    "M6 absorbed": (lambda: mult_semigroup_zn(6), True),
    "M6 kept": (lambda: mult_semigroup_zn(6), False),
}
SIZES = (1, 2, 3, 4, 6)
S_KINDS = ("s-zero-divisor", "s-anti-zero-divisor", "s-idempotent", "s-unit")
QUERIES = ("classify", "zero-divisors", "idempotents") + S_KINDS

# sha256 of the grid's answers outside former_crashes(), one line each.
# Both digests last changed when a free polynomial basis gained the
# idempotents c*x^0 (test_free_polynomial_basis_has_the_idempotent_x0).
GRID_SHA256 = (
    "01ebbeff1e84222ce6d06af1b4eeb1523a16c14a9541944728947fed19a882fe")
# sha256 of all 686 answers, the 93 former crashes included
GRID_ALL_SHA256 = (
    "cc1450878607df85c024278c5645571e5850659f97e55c5966a608b38b2ffc72")


def grid():
    """(name, handle) of the 98 handles, in a fixed order."""
    for dname, d in DOMAINS.items():
        yield dname, SemiringHandle.for_domain(d())
    for dname, d in DOMAINS.items():
        for mk in (ROW, SQUARE):
            for n in SIZES:
                yield (f"{mk}({n}) over {dname}",
                       SemiringHandle.for_matrices(d(), (mk, n)))
    for dname, d in DOMAINS.items():
        for bname, (basis, absorb) in BASES.items():
            yield (f"{bname} over {dname}", SemiringHandle.for_formal_sums(
                make_spec(d(), basis(), absorb)))
    for dname, d in (("zn(6)", lambda: zn_interval(6)),
                     ("zn(7)", lambda: zn_interval(7)),
                     ("chain(3)", lambda: chain_lattice(3))):
        yield (f"poly over {dname}", SemiringHandle.for_formal_sums(
            make_spec(d(), PolyBasis())))


def former_crashes():
    """The (handle, query) cells that once failed for want of a sample
    scalar of a neutrosophic domain: 93 of them."""
    cells = {(NEUTRO[0], "idempotents")}
    cells |= {(f"{b} over {NEUTRO[0]}", "idempotents") for b in BASES}
    for d in NEUTRO:
        cells |= {(f"row({n}) over {d}", q) for n in SIZES for q in S_KINDS}
        cells |= {(f"{mk}({n}) over {d}", q) for mk in (ROW, SQUARE)
                  for n in SIZES[1:] for q in ("classify", "zero-divisors")}
        cells |= {(f"{b} over {d}", "classify") for b in NONCOMMUTATIVE}
        cells |= {(f"M6 absorbed over {d}", q)
                  for q in ("classify", "zero-divisors")}
    return cells


def ask(h, query):
    if query == "classify":
        return json.dumps(classify_semiring(h).to_json())
    if query == "zero-divisors":
        r = find_zero_divisors(h)
        for f in r.findings:
            x, y = f.elements
            assert h.mul(x, y) == h.zero or h.mul(y, x) == h.zero
    elif query == "idempotents":
        r = find_idempotents(h)
        assert all(h.mul(x, x) == x for f in r.findings for x in f.elements)
    else:
        r = find_s_special(h, query)
        assert all(validate_s_certificate(h, f.kind, f.elements)
                   for f in r.findings)
    return r.to_json_str()


def answers(handles=grid):
    out = {}
    for name, h in handles():
        for query in QUERIES:
            try:
                out[name, query] = "answer " + ask(h, query)
            except SpecError as e:
                out[name, query] = f"refused {e}"
    return out


def digest(answered):
    return hashlib.sha256("".join(
        f"{name} {query} {text}\n"
        for (name, query), text in answered).encode()).hexdigest()


def test_structural_grid():
    got = answers()
    assert len(got) == 98 * len(QUERIES)
    crashes = former_crashes()
    assert len(crashes) == 93 and crashes <= got.keys()
    assert digest(cell for cell in got.items()
                  if cell[0] not in crashes) == GRID_SHA256
    assert digest(got.items()) == GRID_ALL_SHA256
    refused = {cell: text for cell, text in got.items()
               if text.startswith("refused")}
    # zn(7) has no zero divisors but is not strict, and the argument that
    # a product of nonzero formal sums is nonzero needs both
    assert refused == {("poly over zn(7)", "classify"):
                       "refused classification undecided for this handle"}


def test_free_polynomial_basis_has_the_idempotent_x0():
    # x^0 * x^0 = x^0: c*x^0 is idempotent for every nonzero idempotent c
    # of the coefficients; the seven grid cells that gained these answers
    want = {
        "nat": ["0", "[0,1]*x^0"],
        "rat": ["0", "[0,1]*x^0"],
        "neutro-pure(nat)": ["0", "[0,1I]*x^0"],
        "neutro-mixed(rat)": ["0", "[0,1I]*x^0", "[0,1]*x^0"],
        "zn(6)": ["0", "[0,1]*x^0", "[0,3]*x^0", "[0,4]*x^0"],
        "zn(7)": ["0", "[0,1]*x^0"],
        "chain(3)": ["0", "a1*x^0", "1*x^0"],
    }
    handles = dict(grid())
    for dname, witnesses in want.items():
        r = find_idempotents(handles[f"poly over {dname}"])
        assert not r.exhaustive
        assert [w for f in r.findings for w in f.witness] == witnesses


def test_polynomial_idempotents_read_the_domain_kernel(monkeypatch):
    # the nonzero idempotents of a finite coefficient domain come from its
    # kernel over every position, and only they are built as objects
    def refuse(d):
        raise AssertionError(f"{domains.describe_domain(d)} enumerated")

    for module in (domains, analysis):
        monkeypatch.setattr(module, "domain_elements", refuse)

    def poly(n):
        return SemiringHandle.for_formal_sums(
            make_spec(zn_interval(n), PolyBasis()))

    r = find_idempotents(poly(30))
    assert [w for f in r.findings for w in f.witness] == \
        ["0"] + [f"[0,{c}]*x^0" for c in (1, 6, 10, 15, 16, 21, 25)]
    r = find_idempotents(poly(1 << 21))
    assert [w for f in r.findings for w in f.witness] == ["0", "[0,1]*x^0"]
    assert not r.exhaustive
    # the scan's digit arrays are refused past the table cap: 3 * 8 * 100
    # bytes over zn(100)
    monkeypatch.setattr(tables, "TABLE_BYTE_CAP", 1000)
    with pytest.raises(SpecError, match="idempotent scan .* 2400 bytes"):
        find_idempotents(poly(100))


def test_row_matrix_over_neutro_pure_nat_has_zero_divisors():
    h = SemiringHandle.for_matrices(neutro_pure(nat_interval()), (ROW, 2))
    c = classify_semiring(h)
    assert c.exhaustive and not c.zero_divisor_free and not c.semifield
    assert c.witnesses["zero_divisor_free"] == ("[[0,1I], [0,0]]",
                                                "[[0,0], [0,1I]]")


def test_neutro_pure_nat_idempotents():
    r = find_idempotents(SemiringHandle.for_domain(neutro_pure(nat_interval())))
    assert r.exhaustive
    assert [f.witness for f in r.findings] == [("[0,0]",), ("[0,1I]",)]


def test_strict_witness_sits_in_the_first_basis_slot():
    # 3^13 elements, past the enumeration guard: classified structurally.
    # Key 0 of mult-semigroup(14) is the absorbed zero basis, so the first
    # slot is key 1 (1b), where zn(3)'s zero sum [0,2] + [0,1] is put
    h = SemiringHandle.for_formal_sums(
        make_spec(zn_interval(3), mult_semigroup_zn(14)))
    assert not h.is_enumerable()
    assert classify_semiring(h).to_json() == {
        "strict": False, "commutative": True, "has_one": True,
        "zero_divisor_free": False, "semifield": False,
        "witnesses": {"strict": ["[0,2]*1b", "[0,1]*1b"],
                      "zero_divisor_free": ["[0,1]*2b", "[0,1]*7b"],
                      "semifield": ["strict", "zero_divisor_free"]},
        "exhaustive": True}


# the Boolean lattice 2x2 with its bottom at index 1, so the zero is not
# the first domain element
BOOL4 = table_lattice(
    ((0, 0, 3, 3), (0, 1, 2, 3), (3, 2, 2, 3), (3, 3, 3, 3)),
    ((0, 1, 1, 0), (1, 1, 1, 1), (1, 1, 2, 2), (0, 1, 2, 3)),
    names=("a", "0", "b", "1"))
BIG = 1 << 21

# sha256 of the edge grid's answers, one line each
EDGE_SHA256 = (
    "ae7a39d2f28f01d90eb3b393c33eb0b9134d58b242ad1debc7b98378e82aad4c")


def edge_grid():
    """(name, handle) of 27 handles past the enumeration guard or with
    few slots: one-slot handles over a domain of 2^21 elements, long rows,
    larger squares, bases with and without an absorbed zero, and zero- and
    one-slot formal sums over infinite domains."""
    fs = SemiringHandle.for_formal_sums
    yield "row(1) over zn(2^21)", SemiringHandle.for_matrices(
        zn_interval(BIG), (ROW, 1))
    yield "square(1) over zn(2^21)", SemiringHandle.for_matrices(
        zn_interval(BIG), (SQUARE, 1))
    yield "zn(2^21)", SemiringHandle.for_domain(zn_interval(BIG))
    for n in (11, 12):
        for dname, d in (("zn(4)", zn_interval(4)),
                         ("chain(4)", chain_lattice(4))):
            yield f"row({n}) over {dname}", SemiringHandle.for_matrices(
                d, (ROW, n))
    for n in (4, 5):
        for dname, d in (("zn(4)", zn_interval(4)),
                         ("chain(3)", chain_lattice(3)),
                         ("neutro-mixed(zn(3))", neutro_mixed(zn_interval(3)))):
            yield f"square({n}) over {dname}", SemiringHandle.for_matrices(
                d, (SQUARE, n))
    for absorb, how in ((True, "absorbed"), (False, "kept")):
        yield f"zn(3).M14 {how}", fs(make_spec(
            zn_interval(3), mult_semigroup_zn(14), absorb))
    for name, d, basis in (
            ("zn(2).C21", zn_interval(2), cyclic_group(21)),
            ("zn(5).D5", zn_interval(5), dihedral_group(5)),
            ("chain(2).S4", chain_lattice(2), symmetric_group(4)),
            ("zn(6).L11(2)", zn_interval(6), build_loop(11, 2)),
            ("zn(4).Z12(1,2)", zn_interval(4), build_groupoid(12, 1, 2)),
            ("zn(2).poly-cyclic-21", zn_interval(2), PolyBasis(21)),
            ("neutro-pure(zn(5)).poly", neutro_pure(zn_interval(5)),
             PolyBasis()),
            ("bool4.poly", BOOL4, PolyBasis())):
        yield name, fs(make_spec(d, basis))
    yield "nat.C1 absorbed", fs(make_spec(nat_interval(), cyclic_group(1)))
    yield "rat.C1 kept", fs(make_spec(rat_interval(), cyclic_group(1), False))
    yield "nat.poly-cyclic-1", fs(make_spec(nat_interval(), PolyBasis(1)))
    yield "nat.M2", fs(make_spec(nat_interval(), mult_semigroup_zn(2)))


def test_structural_edge_grid():
    got = answers(edge_grid)
    assert len(got) == 27 * len(QUERIES)
    assert digest(got.items()) == EDGE_SHA256
