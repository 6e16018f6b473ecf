"""Formal sums of basis elements with interval coefficients.

A formal sum is a finite sparse map basis-key -> nonzero coefficient.
The basis is either a finite carrier (group, semigroup, loop, groupoid)
or a polynomial monomial basis (free, or exponents mod k). Addition
merges coefficients; multiplication is the bilinear convolution through
the basis operation. Products are strictly binary: nothing here ever
reassociates, so nonassociative bases behave exactly as parenthesized.
"""

from __future__ import annotations

from typing import Iterable, Optional

from . import domains
from .domains import DomainSpec, IntervalElem
from .errors import DomainMismatchError, Frozen, SpecError

# carriers whose elements are residues mod n (their tokens are "<r>b")
RESIDUE_KINDS = ("groupoid", "mult-semigroup", "additive-group", "mult-group")
# carriers whose identity prints as the bare token "e"
E_KINDS = ("loop", "cyclic", "dihedral", "symmetric-group")


class PolyBasis(Frozen):
    """Monomial basis x^0, x^1, ...; ``cyclic=k`` folds exponents mod k."""

    __slots__ = _fields = ("cyclic",)

    def __init__(self, cyclic: Optional[int] = None):
        if cyclic is not None and cyclic < 1:
            raise SpecError("poly-cyclic period must be >= 1")
        self._fill(cyclic)

    # the key of x^0, as ``Magma.identity`` is a carrier's identity key
    identity = property(lambda self: 0)


class SemiringSpec(Frozen):
    """Coefficient domain + basis (a PolyBasis or a carriers.Magma) + the
    zero-basis absorption flag.  Only a carrier basis loads carriers.

    ``absorb_zero_basis`` only matters for carriers with an absorbing
    element z (z*x = x*z = z for all x): when set, terms on z are
    identified with the semiring zero and dropped.
    """

    __slots__ = _fields = ("coefficients", "basis", "absorb_zero_basis")

    def __init__(self, coefficients: DomainSpec, basis,
                 absorb_zero_basis: bool = False):
        self._fill(coefficients, basis, absorb_zero_basis)


def make_spec(
    coefficients: DomainSpec,
    basis,
    absorb_zero_basis: Optional[bool] = None,
) -> SemiringSpec:
    """Build a spec; the absorption flag defaults to True exactly when the
    carrier has an absorbing element."""
    if not isinstance(basis, PolyBasis):
        from .carriers import Magma

        if not isinstance(basis, Magma):
            raise SpecError("basis must be a carrier Magma or a PolyBasis")
    absorbed = _absorbed_index(basis)
    if absorb_zero_basis is None:
        absorb_zero_basis = absorbed is not None
    if absorb_zero_basis and absorbed is None:
        raise SpecError(
            "absorb_zero_basis requires a carrier with an absorbing element"
        )
    return SemiringSpec(coefficients, basis, absorb_zero_basis)


def _absorbed_index(basis) -> Optional[int]:
    if isinstance(basis, PolyBasis):
        return None
    return basis.absorbing_index()


def basis_is_finite(basis) -> bool:
    if isinstance(basis, PolyBasis):
        return basis.cyclic is not None
    return True


def basis_keys(spec: SemiringSpec) -> list[int]:
    """All basis keys in canonical order, omitting an absorbed zero basis."""
    basis = spec.basis
    if isinstance(basis, PolyBasis):
        if basis.cyclic is None:
            raise SpecError(
                "free polynomial basis is infinite; cannot enumerate")
        return list(range(basis.cyclic))
    keys = list(range(basis.order))
    if spec.absorb_zero_basis:
        keys.remove(basis.absorbing_index())
    return keys


def _basis_op(spec: SemiringSpec, g: int, h: int) -> int:
    basis = spec.basis
    if not isinstance(basis, PolyBasis):
        return basis.table[g][h]
    if basis.cyclic is None:
        return g + h
    return (g + h) % basis.cyclic


def _check_key(spec: SemiringSpec, key: int) -> int:
    basis = spec.basis
    if not isinstance(key, int) or key < 0:
        raise SpecError(f"basis key must be a nonnegative integer, got {key!r}")
    if not isinstance(basis, PolyBasis):
        if key >= basis.order:
            raise SpecError(f"basis index {key} out of range")
        return key
    if basis.cyclic is not None:
        return key % basis.cyclic
    return key


def basis_token(spec: SemiringSpec, key: int) -> str:
    """Canonical literal token for one basis element.

    Polynomial bases print x^<exp> (exponent always explicit). Carriers
    of residue kind print <residue>b; carriers with identity label e
    print e for the identity and g<index> otherwise; all other carriers
    print g<index>.
    """
    basis = spec.basis
    if isinstance(basis, PolyBasis):
        return f"x^{key}"
    kind = basis.meta.kind
    if kind in RESIDUE_KINDS:
        residue = key + 1 if kind == "mult-group" else key
        return f"{residue}b"
    if kind in E_KINDS and key == basis.identity:
        return "e"
    return f"g{key}"


def resolve_basis_token(spec: SemiringSpec, token: str) -> int:
    """Inverse of basis_token; accepts any canonical token form."""
    basis = spec.basis
    if isinstance(basis, PolyBasis):
        if not token.startswith("x^"):
            raise SpecError(f"polynomial basis expects x^<exp>, got {token!r}")
        try:
            exp = int(token[2:])
        except ValueError:
            raise SpecError(f"malformed exponent in {token!r}") from None
        if exp < 0:
            raise SpecError("exponents are nonnegative")
        return _check_key(spec, exp)
    if token == "e":
        if basis.identity is None:
            raise SpecError("this carrier has no identity element e")
        return basis.identity
    if token.endswith("b") and token[:-1].isdigit():
        residue = int(token[:-1])
        kind = basis.meta.kind
        if kind not in RESIDUE_KINDS:
            raise SpecError(f"token {token!r} requires a residue carrier")
        index = residue - 1 if kind == "mult-group" else residue
        if not 0 <= index < basis.order:
            raise SpecError(f"residue {residue} out of range for this carrier")
        return index
    if token.startswith("g") and token[1:].isdigit():
        index = int(token[1:])
        if index >= basis.order:
            raise SpecError(f"basis index {index} out of range")
        return index
    raise SpecError(f"unknown basis token {token!r}")


class FormalSum:
    """Immutable sparse formal sum over one SemiringSpec."""

    __slots__ = ("spec", "terms")

    def __init__(self, spec: SemiringSpec, terms: Iterable[tuple[int, IntervalElem]] = ()):
        object.__setattr__(self, "spec", spec)
        zero = domains.domain_zero(spec.coefficients)
        absorbed = (
            _absorbed_index(spec.basis) if spec.absorb_zero_basis else None
        )
        acc: dict[int, IntervalElem] = {}
        for key, coeff in terms:
            key = _check_key(spec, key)
            if coeff.domain != spec.coefficients:
                raise DomainMismatchError(
                    "coefficient does not belong to the spec's domain"
                )
            if key == absorbed:
                continue
            prev = acc.get(key)
            coeff = domains.dom_add(prev, coeff) if prev is not None else coeff
            if coeff == zero:
                acc.pop(key, None)
            else:
                acc[key] = coeff
        object.__setattr__(self, "terms", dict(sorted(acc.items())))

    def __setattr__(self, name, value):
        raise AttributeError("FormalSum is immutable")

    def __eq__(self, other):
        return (
            isinstance(other, FormalSum)
            and self.spec == other.spec
            and self.terms == other.terms
        )

    # the payload only: equality still compares the (possibly large) spec
    def __hash__(self):
        return hash(tuple(self.terms.items()))

    def __add__(self, other):
        return fs_add(self, other)

    def __mul__(self, other):
        return fs_mul(self, other)

    def __str__(self):
        return print_formal_sum(self)

    def __repr__(self):
        return f"FormalSum({print_formal_sum(self)!r})"

    def coeff(self, key: int) -> IntervalElem:
        key = _check_key(self.spec, key)
        return self.terms.get(key, domains.domain_zero(self.spec.coefficients))


def fs_zero(spec: SemiringSpec) -> FormalSum:
    return FormalSum(spec)


def fs_term(spec: SemiringSpec, key: int, coeff: IntervalElem) -> FormalSum:
    return FormalSum(spec, [(key, coeff)])


def fs_from_terms(spec: SemiringSpec, terms) -> FormalSum:
    return FormalSum(spec, terms)


def fs_one(spec: SemiringSpec) -> Optional[FormalSum]:
    """Multiplicative identity 1*e when both ingredients exist."""
    one = domains.domain_one(spec.coefficients)
    if one is None:
        return None
    key = spec.basis.identity
    return None if key is None else fs_term(spec, key, one)


def _require_same_spec(p: FormalSum, q: FormalSum) -> None:
    if p.spec != q.spec:
        raise DomainMismatchError("formal sums from different semiring specs")


def fs_add(p: FormalSum, q: FormalSum) -> FormalSum:
    _require_same_spec(p, q)
    return FormalSum(p.spec, list(p.terms.items()) + list(q.terms.items()))


def fs_mul(p: FormalSum, q: FormalSum) -> FormalSum:
    """Bilinear convolution through the basis operation (binary only)."""
    _require_same_spec(p, q)
    spec = p.spec
    out = []
    for g, c in p.terms.items():
        for h, d in q.terms.items():
            out.append((_basis_op(spec, g, h), domains.dom_mul(c, d)))
    return FormalSum(spec, out)


def fs_scale(c: IntervalElem, p: FormalSum) -> FormalSum:
    if c.domain != p.spec.coefficients:
        raise DomainMismatchError("scalar does not belong to the spec's domain")
    return FormalSum(
        p.spec, [(k, domains.dom_mul(c, v)) for k, v in p.terms.items()]
    )


def poly_mul(p: FormalSum, q: FormalSum) -> FormalSum:
    if not isinstance(p.spec.basis, PolyBasis):
        raise SpecError("poly_mul requires a polynomial basis")
    return fs_mul(p, q)


def semiring_size(spec: SemiringSpec) -> int:
    """Number of elements of the formal-sum semiring when finite."""
    if not domains.is_finite_domain(spec.coefficients):
        raise SpecError("coefficient domain is infinite")
    slots = len(basis_keys(spec))
    return domains.domain_size(spec.coefficients) ** slots


def enumerate_elements(spec: SemiringSpec) -> list[FormalSum]:
    """All elements in canonical order (coefficient vectors over the basis
    keys, first key most significant), as ``SemiringHandle.elements``
    builds them, under its enumeration guard (2^20 elements)."""
    from .handle import SemiringHandle   # handle builds on this module

    return SemiringHandle.for_formal_sums(spec).elements()


def print_formal_sum(p: FormalSum) -> str:
    if not p.terms:
        return "0"
    parts = [
        f"{domains.format_element(c)}*{basis_token(p.spec, k)}"
        for k, c in p.terms.items()
    ]
    return " + ".join(parts)
