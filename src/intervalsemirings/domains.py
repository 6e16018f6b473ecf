"""Coefficient domains and exact interval arithmetic.

Every element is an interval [0, a] identified by its right endpoint a;
addition and multiplication act on endpoints inside the chosen domain.
Supported endpoint domains:

- ``zn-interval``: residues mod n,
- ``nat-interval``: arbitrary-precision naturals, optionally restricted to
  the multiples of a fixed k (which drops the multiplicative identity),
- ``rat-interval``: exact nonnegative rationals in lowest terms,
- ``chain-lattice`` / ``table-lattice``: finite lattices with join as
  addition and meet as multiplication,
- ``neutro-pure`` / ``neutro-mixed``: endpoints aI or a + bI over a base
  domain, with I*I = I.

All arithmetic is exact; no floats anywhere.
"""

from __future__ import annotations

import re
from typing import TYPE_CHECKING, Optional, Union

from .errors import DomainMismatchError, Frozen, SpecError

if TYPE_CHECKING:   # rational payloads load fractions where they are made
    from fractions import Fraction

ZN = "zn-interval"
NAT = "nat-interval"
RAT = "rat-interval"
CHAIN = "chain-lattice"
TABLE = "table-lattice"
NEUTRO_PURE = "neutro-pure"
NEUTRO_MIXED = "neutro-mixed"

_LATTICE_KINDS = (CHAIN, TABLE)
_NEUTRO_KINDS = (NEUTRO_PURE, NEUTRO_MIXED)

Payload = Union[int, "Fraction"]


class DomainSpec(Frozen):
    """Immutable description of one coefficient domain: the zn modulus n,
    the nat restriction to endpoints in multiple*Z>=0, the lattice size k,
    element names (index order) and join/meet tables, the neutrosophic base.

    Only the fields relevant to ``kind`` are set; the rest stay at their
    defaults so specs compare and hash by value.
    """

    _fields = ("kind", "n", "multiple", "k", "names", "join", "meet", "base")
    __slots__ = _fields + ("_hash",)

    def __init__(self, kind: str, n: int = 0, multiple: int = 1, k: int = 0,
                 names: tuple[str, ...] = (),
                 join: tuple[tuple[int, ...], ...] = (),
                 meet: tuple[tuple[int, ...], ...] = (),
                 base: Optional[DomainSpec] = None):
        self._fill(kind, n, multiple, k, names, join, meet, base)
        # every element hash hashes its spec: the join and meet tables of a
        # table lattice are hashed here, once
        object.__setattr__(self, "_hash", hash(self._values()))

    # every element operation compares two specs, often equal ones built
    # apart (a parsed element and a handle's own), so it is written out
    def __eq__(self, other):
        if other is self:
            return True
        if other.__class__ is self.__class__:
            return (self.kind, self.n, self.multiple, self.k, self.names,
                    self.join, self.meet, self.base) == (
                other.kind, other.n, other.multiple, other.k, other.names,
                other.join, other.meet, other.base)
        return NotImplemented

    def __hash__(self):
        return self._hash


class IntervalElem(Frozen):
    """One interval [0, a] (or [0, a + bI] for mixed neutrosophic domains).

    ``a`` holds the endpoint payload: a residue, natural, Fraction, lattice
    index, or the I-coefficient for pure neutrosophic domains. ``b`` is the
    I-coefficient for mixed neutrosophic domains and None otherwise.
    """

    __slots__ = _fields = ("domain", "a", "b")

    def __init__(self, domain: DomainSpec, a: Payload,
                 b: Optional[Payload] = None):
        _set_domain(self, domain)
        _set_a(self, a)
        _set_b(self, b)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.domain, self.a, self.b) == (
                other.domain, other.a, other.b)
        return NotImplemented

    def __hash__(self):
        return hash((self.domain, self.a, self.b))

    def __add__(self, other: "IntervalElem") -> "IntervalElem":
        return dom_add(self, other)

    def __mul__(self, other: "IntervalElem") -> "IntervalElem":
        return dom_mul(self, other)

    def __str__(self) -> str:
        return format_element(self)


_set_domain, _set_a, _set_b = IntervalElem._setters()


def zn_interval(n: int) -> DomainSpec:
    if n < 2:
        raise SpecError("zn-interval requires modulus n >= 2")
    return DomainSpec(kind=ZN, n=n)


def nat_interval(multiple: int = 1) -> DomainSpec:
    """Naturals with zero; ``multiple=k`` restricts endpoints to k, 2k, ..."""
    if multiple < 1:
        raise SpecError("nat-interval multiple must be >= 1")
    return DomainSpec(kind=NAT, multiple=multiple)


def rat_interval() -> DomainSpec:
    return DomainSpec(kind=RAT)


def _default_chain_names(k: int) -> tuple[str, ...]:
    if k == 2:
        return ("0", "1")
    middles = tuple(f"a{i}" for i in range(1, k - 1))
    return ("0",) + middles + ("1",)


def chain_lattice(k: int, names: Optional[tuple[str, ...]] = None) -> DomainSpec:
    """Totally ordered lattice 0 < a1 < ... < 1 with join=max, meet=min."""
    if k < 2:
        raise SpecError("chain-lattice requires at least 2 elements")
    names = _lattice_names(_default_chain_names(k) if names is None else names,
                           k)
    return DomainSpec(kind=CHAIN, k=k, names=names)


def _lattice_names(names, k: int) -> tuple[str, ...]:
    """names as a tuple, refused unless a list or tuple of k distinct
    strings of letters, digits and underscores."""
    if not isinstance(names, (list, tuple)) \
            or not all(isinstance(name, str) for name in names):
        raise SpecError("lattice names must be a list of strings")
    if len(names) != k:
        raise SpecError(f"expected {k} lattice names, got {len(names)}")
    if len(set(names)) != k:
        raise SpecError("lattice element names must be distinct")
    for name in names:
        if not re.fullmatch(r"[A-Za-z0-9_]+", name):
            raise SpecError(f"invalid lattice element name {name!r}")
    return tuple(names)


def table_lattice(
    join: "tuple[tuple[int, ...], ...] | list",
    meet: "tuple[tuple[int, ...], ...] | list",
    names: Optional[tuple[str, ...]] = None,
) -> DomainSpec:
    """Finite lattice given by explicit join/meet tables over indices.

    The tables are validated: idempotent, commutative, associative,
    mutually absorptive, and distributive. Non-distributive lattices
    (the diamond M3, the pentagon N5) are rejected with a witness.
    """
    try:
        join = tuple(tuple(row) for row in join)
        meet = tuple(tuple(row) for row in meet)
    except TypeError:
        raise SpecError("join and meet tables must be lists of rows") from None
    k = len(join)
    if k < 2:
        raise SpecError("table-lattice requires at least 2 elements")
    names = _lattice_names(
        tuple(f"m{i}" for i in range(k)) if names is None else names, k)
    for label, table in (("join", join), ("meet", meet)):
        if len(table) != k or any(len(row) != k for row in table):
            raise SpecError(f"{label} table must be {k}x{k}")
        for i, row in enumerate(table):
            for j, v in enumerate(row):
                if type(v) is not int or not 0 <= v < k:
                    raise SpecError(
                        f"{label} table entry [{i}][{j}] out of range"
                    )
    _validate_lattice(join, meet, k)
    return DomainSpec(kind=TABLE, k=k, names=names, join=join, meet=meet)


def _validate_lattice(join, meet, k: int) -> None:
    rng = range(k)
    for label, t in (("join", join), ("meet", meet)):
        for x in rng:
            if t[x][x] != x:
                raise SpecError(f"{label} is not idempotent at ({x},{x})")
            for y in rng:
                if t[x][y] != t[y][x]:
                    raise SpecError(f"{label} is not commutative at ({x},{y})")
        for x in rng:
            for y in rng:
                for z in rng:
                    if t[t[x][y]][z] != t[x][t[y][z]]:
                        raise SpecError(
                            f"{label} is not associative at ({x},{y},{z})"
                        )
    for x in rng:
        for y in rng:
            if join[x][meet[x][y]] != x or meet[x][join[x][y]] != x:
                raise SpecError(f"absorption fails at ({x},{y})")
    for x in rng:
        for y in rng:
            for z in rng:
                if meet[x][join[y][z]] != join[meet[x][y]][meet[x][z]]:
                    raise SpecError(
                        "lattice is not distributive: "
                        f"meet({x}, join({y},{z})) != "
                        f"join(meet({x},{y}), meet({x},{z}))"
                    )
                if join[x][meet[y][z]] != meet[join[x][y]][join[x][z]]:
                    raise SpecError(
                        "lattice is not distributive: "
                        f"join({x}, meet({y},{z})) != "
                        f"meet(join({x},{y}), join({x},{z}))"
                    )


def neutro_pure(base: DomainSpec) -> DomainSpec:
    """Endpoints aI over the base domain, I*I = I."""
    _check_neutro_base(base)
    return DomainSpec(kind=NEUTRO_PURE, base=base)


def neutro_mixed(base: DomainSpec) -> DomainSpec:
    """Endpoints a + bI over the base domain, I*I = I."""
    _check_neutro_base(base)
    return DomainSpec(kind=NEUTRO_MIXED, base=base)


def _check_neutro_base(base: DomainSpec) -> None:
    if not isinstance(base, DomainSpec):
        raise SpecError("neutrosophic base must be a DomainSpec")
    if base.kind in _NEUTRO_KINDS:
        raise SpecError("neutrosophic base may not itself be neutrosophic")


def describe_domain(d: DomainSpec) -> str:
    if d.kind == ZN:
        return f"zn-interval({d.n})"
    if d.kind == NAT:
        return f"nat-interval(multiple={d.multiple})" if d.multiple > 1 else "nat-interval"
    if d.kind == RAT:
        return "rat-interval"
    if d.kind == CHAIN:
        return f"chain-lattice({d.k})"
    if d.kind == TABLE:
        return f"table-lattice({d.k})"
    return f"{d.kind}({describe_domain(d.base)})"


# scalar (endpoint) arithmetic for the non-neutrosophic kinds

def _scalar_check(d: DomainSpec, v) -> Payload:
    if d.kind == ZN:
        if not isinstance(v, int):
            raise DomainMismatchError("zn endpoint must be an integer")
        return v % d.n
    if d.kind == NAT:
        if not isinstance(v, int):
            raise DomainMismatchError("nat endpoint must be an integer")
        if v < 0:
            raise DomainMismatchError("nat endpoint must be nonnegative")
        if v % d.multiple:
            raise DomainMismatchError(
                f"endpoint {v} is not a multiple of {d.multiple}"
            )
        return v
    if d.kind == RAT:
        from fractions import Fraction

        if isinstance(v, int):
            v = Fraction(v)
        if not isinstance(v, Fraction):
            raise DomainMismatchError("rat endpoint must be a Fraction or int")
        if v < 0:
            raise DomainMismatchError("rat endpoint must be nonnegative")
        return v
    # lattice kinds store element indices
    if not isinstance(v, int) or not 0 <= v < d.k:
        raise DomainMismatchError("lattice element index out of range")
    return v


def _scalar_add(d: DomainSpec, x: Payload, y: Payload) -> Payload:
    if d.kind == ZN:
        return (x + y) % d.n
    if d.kind in (NAT, RAT):
        return x + y
    if d.kind == CHAIN:
        return x if x > y else y
    return d.join[x][y]


def _scalar_mul(d: DomainSpec, x: Payload, y: Payload) -> Payload:
    if d.kind == ZN:
        return (x * y) % d.n
    if d.kind in (NAT, RAT):
        return x * y
    if d.kind == CHAIN:
        return x if x < y else y
    return d.meet[x][y]


def _scalar_zero(d: DomainSpec) -> Payload:
    if d.kind == RAT:
        return _scalar_check(d, 0)
    if d.kind in _LATTICE_KINDS:
        return _lattice_bottom(d)
    return 0


def _scalar_one(d: DomainSpec) -> Optional[Payload]:
    if d.kind == ZN:
        return 1 % d.n
    if d.kind == NAT:
        return 1 if d.multiple == 1 else None
    if d.kind == RAT:
        return _scalar_check(d, 1)
    return _lattice_top(d)


def _lattice_bottom(d: DomainSpec) -> int:
    if d.kind == CHAIN:
        return 0
    acc = 0
    for i in range(1, d.k):
        acc = d.meet[acc][i]
    return acc


def _lattice_top(d: DomainSpec) -> int:
    if d.kind == CHAIN:
        return d.k - 1
    acc = 0
    for i in range(1, d.k):
        acc = d.join[acc][i]
    return acc


# element construction

def element(d: DomainSpec, a, b=None) -> IntervalElem:
    """Build an element from raw payload(s), validating and normalizing.

    For neutro-pure, ``a`` is the I-coefficient; for neutro-mixed, the
    value is a + bI (b defaults to 0). zn residues are reduced mod n and
    rationals to lowest terms.
    """
    if d.kind == NEUTRO_PURE:
        if b is not None:
            raise DomainMismatchError("pure neutrosophic elements have no real part")
        return IntervalElem(d, _scalar_check(d.base, a))
    if d.kind == NEUTRO_MIXED:
        if b is None:
            b = 0
        return IntervalElem(d, _scalar_check(d.base, a), _scalar_check(d.base, b))
    if b is not None:
        raise DomainMismatchError(f"{d.kind} elements take a single endpoint")
    return IntervalElem(d, _scalar_check(d, a))


def lattice_element(d: DomainSpec, name: str) -> IntervalElem:
    if d.kind not in _LATTICE_KINDS:
        raise DomainMismatchError("lattice_element requires a lattice domain")
    try:
        return IntervalElem(d, d.names.index(name))
    except ValueError:
        raise SpecError(f"unknown lattice element name {name!r}") from None


def domain_zero(d: DomainSpec) -> IntervalElem:
    if d.kind == NEUTRO_PURE:
        return IntervalElem(d, _scalar_zero(d.base))
    if d.kind == NEUTRO_MIXED:
        z = _scalar_zero(d.base)
        return IntervalElem(d, z, z)
    return IntervalElem(d, _scalar_zero(d))


def domain_one(d: DomainSpec) -> Optional[IntervalElem]:
    """Multiplicative identity, or None when the domain lacks one."""
    if d.kind == NEUTRO_PURE:
        one = _scalar_one(d.base)
        return None if one is None else IntervalElem(d, one)
    if d.kind == NEUTRO_MIXED:
        one = _scalar_one(d.base)
        if one is None:
            return None
        return IntervalElem(d, one, _scalar_zero(d.base))
    one = _scalar_one(d)
    return None if one is None else IntervalElem(d, one)


def _require_same_domain(x: IntervalElem, y: IntervalElem) -> None:
    if x.domain != y.domain:
        raise DomainMismatchError(
            f"operands from different domains: "
            f"{describe_domain(x.domain)} vs {describe_domain(y.domain)}"
        )


def dom_add(x: IntervalElem, y: IntervalElem) -> IntervalElem:
    _require_same_domain(x, y)
    d = x.domain
    if d.kind == NEUTRO_PURE:
        return IntervalElem(d, _scalar_add(d.base, x.a, y.a))
    if d.kind == NEUTRO_MIXED:
        return IntervalElem(
            d,
            _scalar_add(d.base, x.a, y.a),
            _scalar_add(d.base, x.b, y.b),
        )
    return IntervalElem(d, _scalar_add(d, x.a, y.a))


def dom_mul(x: IntervalElem, y: IntervalElem) -> IntervalElem:
    _require_same_domain(x, y)
    d = x.domain
    if d.kind == NEUTRO_PURE:
        # aI * cI = (ac)I since I*I = I
        return IntervalElem(d, _scalar_mul(d.base, x.a, y.a))
    if d.kind == NEUTRO_MIXED:
        # (a+bI)(c+dI) = ac + (ad+bc+bd)I
        base = d.base
        real = _scalar_mul(base, x.a, y.a)
        ipart = _scalar_add(
            base,
            _scalar_add(
                base,
                _scalar_mul(base, x.a, y.b),
                _scalar_mul(base, x.b, y.a),
            ),
            _scalar_mul(base, x.b, y.b),
        )
        return IntervalElem(d, real, ipart)
    return IntervalElem(d, _scalar_mul(d, x.a, y.a))


# finiteness, enumeration, canonical order

def is_finite_domain(d: DomainSpec) -> bool:
    if d.kind in (NAT, RAT):
        return False
    if d.kind in _NEUTRO_KINDS:
        return is_finite_domain(d.base)
    return True


def domain_size(d: DomainSpec) -> int:
    if not is_finite_domain(d):
        raise SpecError(f"{describe_domain(d)} is infinite")
    if d.kind == ZN:
        return d.n
    if d.kind in _LATTICE_KINDS:
        return d.k
    if d.kind == NEUTRO_PURE:
        return domain_size(d.base)
    return domain_size(d.base) ** 2


def domain_elements(d: DomainSpec) -> list[IntervalElem]:
    """All elements in canonical order; domain_size raises SpecError on an
    infinite domain."""
    return [domain_element_at(d, i) for i in range(domain_size(d))]


def domain_element_at(d: DomainSpec, i: int) -> IntervalElem:
    """The element at position i of a finite domain's canonical order: the
    payload i (a residue, a lattice index, or the I-coefficient of aI), or
    a + bI with (a, b) = divmod(i, q) over a base of q elements."""
    if d.kind == NEUTRO_MIXED:
        return IntervalElem(d, *divmod(i, domain_size(d.base)))
    return IntervalElem(d, i)


def domain_position(d: DomainSpec, key) -> int:
    """Inverse of domain_element_at, from the element's ``element_key``."""
    if d.kind == NEUTRO_MIXED:
        return key[0] * domain_size(d.base) + key[1]
    return key[0]


def element_key(x: IntervalElem):
    """Sort key realizing the canonical element order within one domain."""
    if x.domain.kind == NEUTRO_MIXED:
        return (x.a, x.b)
    return (x.a,)


def pair_key(x: IntervalElem, y: IntervalElem):
    """Canonical key for the unordered pair {x, y}: (max, min) element keys."""
    kx, ky = element_key(x), element_key(y)
    return (kx, ky) if kx >= ky else (ky, kx)


def canonical_pair(x: IntervalElem, y: IntervalElem) -> tuple[IntervalElem, IntervalElem]:
    """The unordered pair {x, y} ordered larger-first for reporting."""
    if element_key(x) >= element_key(y):
        return (x, y)
    return (y, x)


# classification helpers

def is_strict_domain(d: DomainSpec) -> tuple[bool, Optional[tuple[IntervalElem, IntervalElem]]]:
    """Whether x + y = 0 forces x = y = 0.

    Returns (True, None) or (False, witness) with the witness pair chosen
    minimal under the canonical (max, min) pair key and ordered larger-first.
    """
    if not is_finite_domain(d):
        # endpoints are nonnegative naturals/rationals (componentwise for
        # neutrosophic ones): a sum is zero only when both parts are
        return (True, None)
    zero = domain_zero(d)
    elems = domain_elements(d)
    best = None
    best_key = None
    for i, x in enumerate(elems):
        for y in elems[i:]:
            if x == zero and y == zero:
                continue
            if dom_add(x, y) == zero:
                key = pair_key(x, y)
                if best_key is None or key < best_key:
                    best_key = key
                    best = canonical_pair(x, y)
    if best is None:
        return (True, None)
    return (False, best)


# literal format / parse

def format_element(x: IntervalElem) -> str:
    d = x.domain
    if d.kind in _LATTICE_KINDS:
        return d.names[x.a]
    if d.kind == NEUTRO_PURE:
        if x.a == _scalar_zero(d.base):
            return "[0,0]"
        return f"[0,{_format_scalar(d.base, x.a)}I]"
    if d.kind == NEUTRO_MIXED:
        zero = _scalar_zero(d.base)
        a, b = x.a, x.b
        if b == zero:
            return f"[0,{_format_scalar(d.base, a)}]"
        if a == zero:
            return f"[0,{_format_scalar(d.base, b)}I]"
        return f"[0,{_format_scalar(d.base, a)}+{_format_scalar(d.base, b)}I]"
    return f"[0,{_format_scalar(d, x.a)}]"


def _format_scalar(d: DomainSpec, v: Payload) -> str:
    if d.kind in _LATTICE_KINDS:
        return d.names[v]
    return str(v)


_INTERVAL_RE = re.compile(r"^\[\s*0\s*,\s*([^\]]*?)\s*\]$")


def parse_element(d: DomainSpec, text: str) -> IntervalElem:
    """Inverse of format_element; also accepts unnormalized spellings.

    Raises SpecError for malformed text and DomainMismatchError when a
    well-formed literal does not fit this domain.
    """
    text = text.strip()
    if d.kind in _LATTICE_KINDS:
        if text.startswith("["):
            raise DomainMismatchError(
                "lattice domains use bare element names, not interval literals"
            )
        return lattice_element(d, text)
    m = _INTERVAL_RE.match(text)
    if m is None:
        raise SpecError(f"malformed interval literal {text!r}")
    inner = m.group(1)
    if not inner:
        raise SpecError("empty interval endpoint")
    if d.kind == NEUTRO_PURE:
        a, b = _parse_neutro_parts(d.base, inner)
        if a != _scalar_zero(d.base):
            raise DomainMismatchError(
                "pure neutrosophic elements have no real part"
            )
        return IntervalElem(d, b)
    if d.kind == NEUTRO_MIXED:
        a, b = _parse_neutro_parts(d.base, inner)
        return IntervalElem(d, a, b)
    if "I" in inner:
        raise DomainMismatchError(
            f"neutrosophic literal in {describe_domain(d)} domain"
        )
    return element(d, _parse_scalar(d, inner))


def _parse_neutro_parts(base: DomainSpec, inner: str) -> tuple[Payload, Payload]:
    zero = _scalar_zero(base)
    if "+" in inner:
        left, _, right = inner.partition("+")
        left, right = left.strip(), right.strip()
        if not right.endswith("I"):
            raise SpecError(f"malformed neutrosophic endpoint {inner!r}")
        return (
            _parse_scalar(base, left),
            _parse_icoeff(base, right),
        )
    if inner.endswith("I"):
        return (zero, _parse_icoeff(base, inner))
    return (_parse_scalar(base, inner), zero)


def _parse_icoeff(base: DomainSpec, text: str) -> Payload:
    body = text[:-1].strip()
    if not body:
        return _scalar_check(base, _scalar_one(base) if _scalar_one(base) is not None else 1)
    return _parse_scalar(base, body)


def _parse_scalar(d: DomainSpec, text: str) -> Payload:
    text = text.strip()
    if d.kind in _LATTICE_KINDS:
        try:
            return d.names.index(text)
        except ValueError:
            raise SpecError(f"unknown lattice element name {text!r}") from None
    if "-" in text:
        raise DomainMismatchError("endpoints are nonnegative")
    if "/" in text:
        if d.kind != RAT:
            raise DomainMismatchError(
                f"rational literal in {describe_domain(d)} domain"
            )
        from fractions import Fraction

        num, _, den = text.partition("/")
        try:
            return _scalar_check(d, Fraction(int(num), int(den)))
        except (ValueError, ZeroDivisionError):
            raise SpecError(f"malformed rational {text!r}") from None
    try:
        value = int(text)
    except ValueError:
        raise SpecError(f"malformed integer {text!r}") from None
    return _scalar_check(d, value)


# JSON descriptions

_JSON_KEYS = {
    ZN: {"kind", "n"},
    NAT: {"kind", "multiple"},
    RAT: {"kind"},
    CHAIN: {"kind", "k", "names"},
    TABLE: {"kind", "names", "join", "meet"},
    NEUTRO_PURE: {"kind", "base"},
    NEUTRO_MIXED: {"kind", "base"},
}


def domain_to_json(d: DomainSpec) -> dict:
    if d.kind == ZN:
        return {"kind": ZN, "n": d.n}
    if d.kind == NAT:
        out = {"kind": NAT}
        if d.multiple > 1:
            out["multiple"] = d.multiple
        return out
    if d.kind == RAT:
        return {"kind": RAT}
    if d.kind == CHAIN:
        out = {"kind": CHAIN, "k": d.k}
        if d.names != _default_chain_names(d.k):
            out["names"] = list(d.names)
        return out
    if d.kind == TABLE:
        return {
            "kind": TABLE,
            "names": list(d.names),
            "join": [list(row) for row in d.join],
            "meet": [list(row) for row in d.meet],
        }
    return {"kind": d.kind, "base": domain_to_json(d.base)}


def domain_from_json(data) -> DomainSpec:
    if not isinstance(data, dict):
        raise SpecError("domain description must be a JSON object")
    kind = data.get("kind")
    if not isinstance(kind, str) or kind not in _JSON_KEYS:
        raise SpecError(f"unknown domain kind {kind!r}")
    unknown = set(data) - _JSON_KEYS[kind]
    if unknown:
        raise SpecError(
            f"unknown keys in {kind} description: {sorted(unknown)}"
        )
    if kind == ZN:
        n = data.get("n")
        if type(n) is not int:   # a JSON true is a bool, not 1
            raise SpecError("zn-interval requires integer n")
        return zn_interval(n)
    if kind == NAT:
        multiple = data.get("multiple", 1)
        if type(multiple) is not int:
            raise SpecError("nat-interval multiple must be an integer")
        return nat_interval(multiple)
    if kind == RAT:
        return rat_interval()
    if kind == CHAIN:
        k = data.get("k")
        if type(k) is not int:
            raise SpecError("chain-lattice requires integer k")
        return chain_lattice(k, data.get("names"))
    if kind == TABLE:
        if "join" not in data or "meet" not in data:
            raise SpecError("table-lattice requires join and meet tables")
        return table_lattice(data["join"], data["meet"], data.get("names"))
    base = domain_from_json(data.get("base"))
    return neutro_pure(base) if kind == NEUTRO_PURE else neutro_mixed(base)
