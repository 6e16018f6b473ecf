"""Semiring-level analysis: special elements, classification, searches, sweeps.

Every query runs against a :class:`SemiringHandle` (``handle``), a uniform
facade over the three semiring constructions in this package (interval
domains, formal sums, matrices).  Finite handles within the enumeration guard are scanned
exhaustively; infinite or oversized handles fall back to structural arguments
(reported with ``exhaustive=True`` only when the argument actually decides the
query) or to pattern instantiations (reported with ``exhaustive=False``).
The element scans, axiom checks, subset checks, closures and Smarandache
searches of an enumerable handle run on its compiled integer tables
(``tables``); ``SemiringHandle.index`` and ``element_at`` convert between
elements and table indices by arithmetic, without enumerating anything.  A
given subset, or the closure of one, on a handle that is not enumerable is
checked on local tables restricted from an object table of the elements it
reaches, built on demand (``_Reached``).  Homomorphism checks run on the
element objects.
"""

import itertools
import json
import math

import numpy as np

from . import tables
from .carriers import Magma, _is_prime, build_loop, loop_parameters
from .domains import (
    CHAIN,
    NAT,
    NEUTRO_MIXED,
    NEUTRO_PURE,
    RAT,
    TABLE,
    ZN,
    domain_element_at,
    domain_elements,
    domain_one,
    domain_size,
    domain_zero,
    element,
    element_key,
    format_element,
    is_finite_domain,
    is_strict_domain,
    neutro_pure,
    zn_interval,
)
from .errors import Frozen, SpecError
from .handle import _ENUM_GUARD, SemiringHandle
from .laws import _law_witness, closure, loop_law_summary, substructures

_GENERATED_GUARD = 1 << 14
_EXHAUSTIVE_SUBSET_LIMIT = 20


class Finding(Frozen):
    """One analysis result: a kind tag, rendered witness, raw payload."""

    __slots__ = _fields = ("kind", "witness", "elements")

    def __init__(self, kind: str, witness: tuple, elements: tuple = ()):
        self._fill(kind, witness, elements)

    def to_json(self):
        return {"kind": self.kind, "witness": list(self.witness)}


class AnalysisReport(Frozen):
    """The findings of one query, whether they are complete, and its cost."""

    __slots__ = _fields = ("query", "findings", "exhaustive", "budget_spent")

    def __init__(self, query: str, findings: tuple, exhaustive: bool,
                 budget_spent: dict):
        self._fill(query, findings, exhaustive, budget_spent)

    def to_json(self):
        return {
            "query": self.query,
            "exhaustive": self.exhaustive,
            "findings": [f.to_json() for f in self.findings],
            "budget": dict(self.budget_spent),
        }

    def to_json_str(self):
        return json.dumps(self.to_json())


def _report(query, findings, exhaustive, scanned):
    return AnalysisReport(query=query, findings=tuple(findings),
                          exhaustive=exhaustive,
                          budget_spent={"pairs_scanned": scanned})


def _count(name, value):
    """value as an int, or None; else SpecError, a bool too (as indices)."""
    ok = isinstance(value, (int, np.integer)) and not isinstance(value, bool)
    if not ok and value is not None:
        raise SpecError(f"{name} must be an integer, not {value!r}")
    return value if value is None else int(value)


def _wit(h, *items):
    return tuple(it if isinstance(it, str) else h.render(it) for it in items)


def _first_nonzero_scalar(d):
    """Smallest nonzero coefficient whose square is nonzero."""
    if (d.base or d).kind == TABLE:
        # explicit small tables, whose zero payload need not be 0
        zero = domain_zero(d)
        return next(c for c in domain_elements(d)
                    if c != zero and c * c != zero)
    if d.kind == NAT:
        return element(d, d.multiple)
    if d.kind == RAT:
        return element(d, 1)
    if d.kind in (ZN, CHAIN):
        return element(d, 1)   # the least nonzero element, its own square
    # the base's choice as an I-multiple, the least nonzero key as a scan
    # would pick it; (cI)^2 = c^2 I is nonzero
    c = _first_nonzero_scalar(d.base).a
    return element(d, c) if d.kind == NEUTRO_PURE else element(d, 0, c)


def _support(h, slots, c):
    """The formal sum or matrix of h with coefficient c at the given slot
    keys (basis keys or entry positions) and zero elsewhere."""
    zero = domain_zero(h.domain)
    return h._slot_constructor([c if k in slots else zero
                                for k in h._slots()[0]])


# ---------------------------------------------------------------------------
# special-element searches


def find_zero_divisors(h, budget=None):
    """All unordered zero-divisor pairs; one-sided pairs reported separately.

    Pairs (x, y) of nonzero elements with x*y = y*x = 0 yield kind
    "zero-divisor" (witness printed larger key first); when only one
    orientation vanishes the kind is "one-sided-zero-divisor" and the witness
    order is the vanishing one.
    """
    budget = _count("budget", budget)
    query = f"zero-divisors on {h.describe()}"
    if not h.is_enumerable():
        return _zero_divisor_patterns(h, query)
    hits, scanned, exhaustive = tables.zero_divisors(h.tables(), budget)
    return _report(query, _index_findings(h, hits), exhaustive, scanned)


def _index_findings(h, hits):
    """Findings from (kind, index, ...) tuples over elements() order, each
    distinct index decoded and rendered once."""
    at = {i: h.element_at(i) for i in {i for _, *idx in hits for i in idx}}
    text = {i: _wit(h, x)[0] for i, x in at.items()}
    return [Finding(kind, tuple(map(text.get, idx)), tuple(map(at.get, idx)))
            for kind, *idx in hits]


def _strict_domain(h):
    """is_strict_domain of a domain handle's domain, with the witness of a
    finite one read from its compiled tables (refused over the enumeration
    guard or the table cap)."""
    if not is_finite_domain(h.domain):
        return is_strict_domain(h.domain)
    w = tables.zero_sum_pair(h.tables())
    return w is None, None if w is None else tuple(h.element_at(i) for i in w)


def _domain_zero_divisor_pair(h):
    """Minimal nonzero pair with zero product in a finite domain handle's
    domain, or None."""
    hits, _, _ = tables.zero_divisors(h.tables())
    pair = next((xy for kind, *xy in hits if kind == "zero-divisor"), None)
    return None if pair is None else h.pair(*(h.element_at(i) for i in pair))


def _zero_divisor_patterns(h, query):
    d = h.domain
    keys, product = h._slots()
    if len(keys) == 1 and h.kind != "formal-sum":
        # nat, rat, and neutrosophic domains over them have no zero divisors:
        # products and the I-coefficient combination ad+bc+bd are sums of
        # products of nonnegatives, zero only when a factor is zero.  A finite
        # domain here, bare or in one entry, is past the guard: undecided.
        return _report(query, [], not is_finite_domain(d), 0)
    pairs = []
    if h.kind == "formal-sum" and is_finite_domain(d):
        pair = _domain_zero_divisor_pair(h._coefficient_handle())
        if pair is not None:
            pairs.append(tuple(_support(h, keys[:1], c) for c in pair))
    # the first two unit slots whose products vanish both ways; only a
    # matrix or an absorbed zero basis has products that vanish
    if h.kind == "matrix" or h.spec.absorb_zero_basis:
        slots = itertools.product(range(len(keys)), repeat=2)
        pair = next(((p, q) for p, q in slots
                     if product(p, q) is None and product(q, p) is None), None)
        if pair is not None:
            c = _first_nonzero_scalar(d)
            x, y = (_support(h, (keys[p],), c) for p in pair)
            if h.mul(x, y) == h.zero and h.mul(y, x) == h.zero:
                pairs.append(h.pair(x, y))
    findings = [Finding("zero-divisor", _wit(h, *xy), xy) for xy in pairs]
    if findings or h.kind == "matrix":
        return _report(query, findings, False, 0)
    # No findings: structurally complete only over a strict, zero-divisor-free
    # coefficient domain (coefficients of a product are sums of nonzero
    # products, hence nonzero); a finite domain has no zero divisors here,
    # since its pair would be a finding.
    return _report(query, [], _strict_domain(h._coefficient_handle())[0], 0)


def find_idempotents(h):
    """All x with x*x = x (exhaustive when enumerable)."""
    query = f"idempotents on {h.describe()}"
    if not h.is_enumerable():
        return _idempotent_patterns(h, query)
    hits, scanned = tables.idempotents(h.tables())
    return _report(query, _index_findings(h, [("idempotent", x) for x in hits]),
                   True, scanned)


def _domain_idempotents_structural(d):
    """(elements, complete) for an infinite domain."""
    zero = domain_zero(d)
    one = domain_one(d)
    if d.kind in (NAT, RAT):
        # a*a = a over nonnegative integers or rationals forces a in {0, 1}.
        out = [zero]
        if one is not None:
            out.append(one)
        return out, True
    if d.kind in (NEUTRO_PURE, NEUTRO_MIXED) and d.base.kind in (NAT, RAT):
        # (a+bI)^2 = a+bI forces a in {0,1}; then b(b+2a-1) = 0 over
        # nonnegatives leaves [0,0], [0,I], [0,1] (pure: [0,0], [0,I]).
        out = [zero]
        if d.base.multiple == 1:
            if d.kind == NEUTRO_PURE:
                out.append(element(d, 1))
            else:
                out += [element(d, 0, 1), element(d, 1, 0)]
        return out, True
    return [zero], False


def _idempotent_patterns(h, query):
    findings = []
    if h.kind == "domain":
        elems, complete = _domain_idempotents_structural(h.domain)
        for x in sorted(elems, key=element_key):
            findings.append(Finding("idempotent", _wit(h, x), (x,)))
        return _report(query, findings, complete, 0)
    # the idempotent unit slots: basis keys with k*k = k, a row's entries,
    # a square's diagonal
    keys, product = h._slots()
    slots = [keys[p] for p in range(len(keys)) if product(p, p) == p]
    d = h.domain
    if h.kind == "formal-sum":
        if is_finite_domain(d):
            # the positions c with c*c = c, from the domain's kernel: three
            # intp arrays of q entries
            q = domain_size(d)
            tables._check_bytes("the idempotent scan of a domain", q, 24 * q)
            every = np.arange(q)
            square = tables.dom_kernel(d, "mul")(every, every)
            dom_idem = [domain_element_at(d, i)
                        for i in np.flatnonzero(square == every).tolist()]
        else:
            dom_idem, _ = _domain_idempotents_structural(d)
        dom_idem = [c for c in dom_idem if c != domain_zero(d)]
        findings.append(Finding("idempotent", _wit(h, h.zero), (h.zero,)))
        for k in slots:
            for c in dom_idem:
                x = _support(h, (k,), c)
                if h.mul(x, x) == x:
                    findings.append(Finding("idempotent", _wit(h, x), (x,)))
        return _report(query, findings, False, 0)
    # matrices: diagonal 0/1 patterns when the domain has a one
    one = domain_one(d)
    zero = domain_zero(d)
    choices = [zero] if one is None else [zero, one]
    count = len(choices) ** len(slots)
    if count <= 256:
        for combo in itertools.product(choices, repeat=len(slots)):
            x = _support(h, [p for p, c in zip(slots, combo) if c != zero],
                         one)
            if h.mul(x, x) == x:
                findings.append(Finding("idempotent", _wit(h, x), (x,)))
    complete = h.shape[0] == "row" and d.kind in (NAT, RAT) and count <= 256
    # row matrices over nat/rat are idempotent exactly when every entry is,
    # and entrywise idempotents are only 0 and 1
    return _report(query, findings, complete, 0)


def find_units(h):
    """All x with a two-sided inverse; requires one and a finite handle."""
    query = f"units on {h.describe()}"
    if h.one is None:
        raise SpecError("units are undefined without a multiplicative identity")
    if not h.is_enumerable():
        raise SpecError("unit enumeration requires a finite handle")
    hits, scanned = tables.units(h.tables())
    return _report(query, _index_findings(h, [("unit",) + p for p in hits]),
                   True, scanned)


def find_nilpotents(h, max_index=8):
    """All nonzero x with some left-nested power zero, up to max_index.

    Powers are accumulated left-nested (((x*x)*x)*x)...; for nonassociative
    handles indices above 2 depend on that bracketing by definition.
    """
    query = f"nilpotents on {h.describe()}"
    if not isinstance(max_index, int) or not 2 <= max_index <= 8:
        raise SpecError("max_index must be an integer between 2 and 8")
    if not h.is_enumerable():
        raise SpecError("nilpotent enumeration requires a finite handle")
    hits, scanned = tables.nilpotents(h.tables(), max_index)
    return _report(query, _index_findings(
        h, [(f"nilpotent-index-{idx}", x) for x, idx in hits]), True, scanned)


# ---------------------------------------------------------------------------
# Smarandache special elements

_S_SCANS = {
    "s-zero-divisor": tables.s_zero_divisors,
    "s-anti-zero-divisor": tables.s_anti_zero_divisors,
    "s-idempotent": tables.s_idempotents,
    "s-unit": tables.s_units,
}
_S_KINDS = tuple(_S_SCANS)


def find_s_special(h, kind, budget=None):
    """Certificate search for the four auxiliary-witness special elements.

    - s-zero-divisor: anchor pair (a, b), a*b = 0, with x, y outside
      {a, b, 0}, x != y, a*x or x*a zero, b*y or y*b zero, x*y or y*x nonzero.
    - s-anti-zero-divisor: anchor x with y, x*y != 0, and a, b outside
      {0, x, y} where a*x or x*a nonzero, b*y or y*b nonzero, a*b or b*a zero.
    - s-idempotent: a*a = a nontrivial, with b != a, b*b = a, and exactly one
      of (a*b = b or b*a = b) / (b*a = a or a*b = a).
    - s-unit: x != 1 with x*y = y*x = 1 and a, b outside {x, y, 1} where
      a sends x to y, b sends y back to x, and a*b = 1.

    Witnesses carry the full certificate tuple.  The budget caps the
    anchors scanned: anchor pairs a <= b for s-zero-divisor, single anchors
    for the other kinds.
    """
    if kind not in _S_KINDS:
        raise SpecError(f"unknown special-element kind {kind!r} "
                        f"(available: {', '.join(_S_KINDS)})")
    budget = _count("budget", budget)
    query = f"{kind} on {h.describe()}"
    if not h.is_enumerable():
        return _s_special_patterns(h, kind, query)
    if kind == "s-unit" and h.one is None:
        raise SpecError("s-units are undefined without a multiplicative identity")
    certs, scanned, exhaustive = _S_SCANS[kind](h.tables(), budget)
    return _report(query, _index_findings(h, [(kind,) + c for c in certs]),
                   exhaustive, scanned)


# the least row length and the entry positions of each certificate element
# a row matrix instantiates
_S_ROW_PATTERNS = {
    "s-zero-divisor": (6, ((0, 1), (2, 3), (4, 5), (0, 1, 5))),
    "s-anti-zero-divisor": (4, ((0, 1, 2), (1, 2, 3), (0,), (3,))),
}


def _s_special_patterns(h, kind, query):
    if h.kind == "domain" and h.domain.kind in (NAT, RAT):
        d = h.domain
        if kind != "s-unit" or d.kind == NAT:
            # the zero-divisor certificates need a vanishing product of
            # nonzero elements; idempotents are only 0 and 1, and the only
            # unit of nat is 1, all excluded as anchors
            return _report(query, [], True, 0)
        from fractions import Fraction

        x = element(d, Fraction(2))
        y = element(d, Fraction(1, 2))
        a = element(d, Fraction(1, 4))
        b = element(d, Fraction(4))
        return _report(query, [Finding("s-unit", _wit(h, x, y, a, b),
                                       (x, y, a, b))], False, 0)
    if h.kind == "matrix" and h.shape[0] == "row" and kind in _S_ROW_PATTERNS:
        least, supports = _S_ROW_PATTERNS[kind]
        c = _first_nonzero_scalar(h.domain)
        if h.shape[1] >= least:
            cert = tuple(_support(h, s, c) for s in supports)
            if validate_s_certificate(h, kind, cert):
                return _report(query, [Finding(kind, _wit(h, *cert), cert)],
                               False, 0)
    return _report(query, [], False, 0)


def validate_s_certificate(h, kind, elements):
    """Recheck a stored certificate tuple against its defining conditions."""
    zero = h.zero
    if kind == "s-zero-divisor":
        a, b, x, y = elements
        return (h.mul(a, b) == zero
                and x not in (a, b, zero) and y not in (a, b, zero) and x != y
                and (h.mul(a, x) == zero or h.mul(x, a) == zero)
                and (h.mul(b, y) == zero or h.mul(y, b) == zero)
                and (h.mul(x, y) != zero or h.mul(y, x) != zero))
    if kind == "s-anti-zero-divisor":
        x, y, a, b = elements
        return (h.mul(x, y) != zero
                and a not in (zero, x, y) and b not in (zero, x, y)
                and (h.mul(a, x) != zero or h.mul(x, a) != zero)
                and (h.mul(b, y) != zero or h.mul(y, b) != zero)
                and (h.mul(a, b) == zero or h.mul(b, a) == zero))
    if kind == "s-idempotent":
        a, b = elements
        sends_b = h.mul(a, b) == b or h.mul(b, a) == b
        sends_a = h.mul(b, a) == a or h.mul(a, b) == a
        return (h.mul(a, a) == a and a not in (zero, h.one) and b != a
                and h.mul(b, b) == a and sends_b != sends_a)
    if kind == "s-unit":
        x, y, a, b = elements
        one = h.one
        return (one is not None and x != one
                and h.mul(x, y) == one and h.mul(y, x) == one
                and a not in (x, y, one) and b not in (x, y, one)
                and (h.mul(x, a) == y or h.mul(a, x) == y)
                and (h.mul(y, b) == x or h.mul(b, y) == x)
                and (h.mul(a, b) == one or h.mul(b, a) == one))
    raise SpecError(f"unknown special-element kind {kind!r}")


# ---------------------------------------------------------------------------
# substructures


def _materialize_pattern(h, pattern):
    if not isinstance(pattern, str):
        return list(pattern), None
    if pattern.startswith("multiples-of-"):
        try:
            k = int(pattern[len("multiples-of-"):])
        except ValueError:
            raise SpecError(f"bad structural pattern {pattern!r}")
        if k < 1:
            raise SpecError(f"bad structural pattern {pattern!r}")
        if h.kind == "domain" and h.domain.kind == ZN:
            d = h.domain
            return [element(d, v) for v in range(0, d.n, k)], None
        if h.kind == "domain" and h.domain.kind == NAT:
            return None, k
        raise SpecError("structural patterns apply to zn or nat domain handles")
    raise SpecError(f"unknown structural pattern {pattern!r}")


_SUB_KINDS = ("subsemiring", "ideal", "left-ideal", "right-ideal")


def check_substructure(h, subset, kind="subsemiring"):
    """Verify a subset is a subsemiring or (one/two-sided) ideal.

    Returns (ok, witness); the witness names the failing law and the
    offending elements.  Ideal kinds require a finite handle unless the
    subset is the structural pattern "multiples-of-k" on a nat domain.
    """
    if kind not in _SUB_KINDS:
        raise SpecError(f"unknown substructure kind {kind!r} "
                        f"(available: {', '.join(_SUB_KINDS)})")
    members, _ = _materialize_pattern(h, subset)
    if members is None:
        # multiples of k in the nat domain: k*s + k*t and s*(k*t) are again
        # multiples of k, so every kind holds structurally
        return (True, None)
    if h.zero not in set(members):
        return (False, ("missing-zero",))
    s, ordered, idx = _subset_tables(h, members)
    unclosed = tables.first_unclosed(s)
    if unclosed is not None:
        law, i, j = unclosed
        return (False, (law, ordered[i], ordered[j]))
    if kind == "subsemiring":
        return (True, None)
    if idx is None:
        raise SpecError("ideal absorption checks require a finite handle")
    w = tables.first_not_absorbing(
        h.tables(), idx,
        kind in ("ideal", "left-ideal"), kind in ("ideal", "right-ideal"))
    if w is None:
        return (True, None)
    law, x, y = w
    return (False, (law, h.element_at(x), h.element_at(y)))


def _subset_tables(h, members, cap=None):
    """(local tables, members in key order, indices or None) of the members
    or, given a cap, of their closure under + and * (None past the cap),
    from an enumerable handle's compiled tables or else ``_Reached``."""
    ordered = sorted(set(members), key=h.key)
    if compiled := h.is_enumerable():
        t, at, idx = h.tables(), h.element_at, [h.index(x) for x in ordered]
    else:
        t = _Reached(h, ordered, cap)
        at, idx = t.elements.__getitem__, range(len(ordered))
    if cap is not None:
        # products first: they pass a cap in fewer entries than sums do
        c = closure([lambda s: t.block("mul", s, s),
                     lambda s: t.block("add", s, s)], t.k, idx, cap)
        if c is None:
            return None
        # reached positions are in the order found, not in key order
        idx = sorted(c.tolist(),
                     key=None if compiled else lambda i: h.key(at(i)))
        ordered = [at(i) for i in idx]
    return tables.restrict(t, idx), ordered, idx if compiled else None


class _Reached:
    """Object tables of what ``block`` reaches on a handle without compiled
    tables: the members at positions 0, 1, ..., then each new result at the
    next position below k (the cap, or the member count).  A result past
    those reads k, a Local's outside mark, and with a cap ends its block at
    once.  Entries are computed on first read and kept; a block is read only
    with k within ``tables.local_limit``, so they fit the byte cap."""

    def __init__(self, h, members, cap):
        self.elements, self._stop = list(members), cap is not None
        self._pos = {x: i for i, x in enumerate(members)}
        self.k, self.zero = max(len(members), cap or 0), self._pos.get(h.zero)
        self.size = h.size() if h.is_finite() else "infinitely many"
        self._ops = {"add": h.add, "mul": h.mul}
        # -1 until computed, in arrays that grow with the positions read
        self._tab = dict.fromkeys(self._ops, np.empty(
            (0, 0), np.min_scalar_type(-self.k - 1)))

    def block(self, kind, rows, cols):
        tab, rows, cols = self._tab[kind], rows.tolist(), cols.tolist()
        if (m := max([len(tab) - 1, *rows, *cols]) + 1) > len(tab):
            tab = self._tab[kind] = np.pad(tab, (0, m - len(tab)),
                                           constant_values=-1)
        out = tab[np.array(rows, dtype=np.intp)[:, None], cols]
        for i, x in enumerate(rows):
            for j in np.flatnonzero(out[i] < 0).tolist():
                z = self._ops[kind](self.elements[x], self.elements[cols[j]])
                p = self._pos.setdefault(z, len(self.elements))
                if p == len(self.elements) < self.k:
                    self.elements.append(z)
                out[i, j] = tab[x, cols[j]] = p
                if p == self.k and self._stop:
                    return out
        return out


# ---------------------------------------------------------------------------
# classification


class Classification(Frozen):
    """Semifield flags, a witness per False flag, and exhaustiveness."""

    __slots__ = _fields = ("strict", "commutative", "has_one",
                           "zero_divisor_free", "semifield", "witnesses",
                           "exhaustive")

    def __init__(self, strict: bool, commutative: bool, has_one: bool,
                 zero_divisor_free: bool, semifield: bool, witnesses: dict,
                 exhaustive: bool):
        self._fill(strict, commutative, has_one, zero_divisor_free, semifield,
                   witnesses, exhaustive)

    def to_json(self):
        return {
            "strict": self.strict,
            "commutative": self.commutative,
            "has_one": self.has_one,
            "zero_divisor_free": self.zero_divisor_free,
            "semifield": self.semifield,
            "witnesses": {k: list(v) for k, v in self.witnesses.items()},
            "exhaustive": self.exhaustive,
        }


def classify_semiring(h):
    """Flags strict / commutative / has_one / zero_divisor_free / semifield.

    Every False flag carries a witness.  Enumerable handles are scanned
    exhaustively; infinite handles are classified structurally.
    """
    if h.is_enumerable():
        return _classify_scan(h)
    return _classify_structural(h)


def _classify_scan(h):
    strict, commutative, has_one, zd = tables.classify(h.tables())
    found = {"strict": strict, "commutative": commutative,
             "has_one": None if has_one else (), "zero_divisor_free": zd}
    witnesses = {law: _wit(h, *(h.element_at(i) for i in w))
                 for law, w in found.items() if w is not None}
    if not has_one:
        witnesses["has_one"] = ("no element acts as a two-sided identity",)
    return _finish_classification(h, *(w is None for w in found.values()),
                                  witnesses)


def _finish_classification(h, strict, commutative, has_one, zdfree, witnesses):
    semifield = strict and commutative and has_one and zdfree
    if not semifield:
        failed = [n for n, v in (("strict", strict), ("commutative", commutative),
                                 ("has_one", has_one),
                                 ("zero_divisor_free", zdfree)) if not v]
        witnesses["semifield"] = tuple(failed)
    return Classification(strict, commutative, has_one, zdfree, semifield,
                          witnesses, True)


def _classify_structural(h):
    """Classify a handle that is not enumerable: an infinite domain, or a
    formal sum or matrix as slots over its coefficient domain.  A finite
    domain here is over the enumeration guard and is refused, as is a
    coefficient domain whose strictness cannot be read from its tables."""
    witnesses = {}
    # a sum of slot vectors is zero only where the coefficient sums are:
    # a zero sum of nonzero coefficients, put in the first slot, is a
    # witness, and nat/rat (neutrosophic over them) have none
    strict, sw = _strict_domain(h._coefficient_handle())
    if not strict:
        witnesses["strict"] = _wit(
            h, *(_support(h, h._slots()[0][:1], c) for c in sw))
    # one pair of unit slots that may not commute: a basis pair that does
    # not, or the first two entries of a square matrix
    pair = None
    if h.kind == "formal-sum" and isinstance(h.spec.basis, Magma):
        pair = _law_witness(h.spec.basis, "commutative")
    elif h.kind == "matrix" and h.shape[0] == "square" and h.shape[1] >= 2:
        pair = (0, 1)
    commutative = True
    if pair is not None:
        c = _first_nonzero_scalar(h.domain)
        x, y = (_support(h, (p,), c) for p in pair)
        if h.mul(x, y) != h.mul(y, x):
            commutative = False
            witnesses["commutative"] = _wit(h, x, y)
    has_one = h.one is not None
    if not has_one:
        witnesses["has_one"] = (
            "no identity: needs both a coefficient 1 and a basis identity"
            if h.kind == "formal-sum"
            else "no multiplicative identity in this domain",)
    zd = find_zero_divisors(h)
    if zd.findings:
        witnesses["zero_divisor_free"] = zd.findings[0].witness
    elif not zd.exhaustive:
        raise SpecError("classification undecided for this handle")
    return _finish_classification(h, strict, commutative, has_one,
                                  not zd.findings, witnesses)


# ---------------------------------------------------------------------------
# Smarandache semiring search


def semifield_within(h, subset):
    """Check a subset is a semifield under the handle's operations.

    Returns (ok, reason).  Requires the handle zero inside, closure, strict
    addition, commutativity, an internal identity, and no zero divisors.
    """
    s, members, _ = _subset_tables(h, subset)
    w = tables.semifield_failure(s)
    if w is None:
        return (True, None)
    return (False, w[:1] + tuple(members[i] for i in w[1:]))


def smarandache_search(h, mode="generated", *, seed_size=2, max_subset=None,
                       candidate=None, candidate_kind=None):
    """Search for proper semifield subsets, or evaluate a candidate subset.

    Without a candidate the finding kind is "semifield-subset" and each
    witness lists the subset.  Generated mode keeps the distinct closures
    of {0, x} and {0, x, y} under both operations, skipping a pair whose
    closure is that of {0, x} or {0, y} and closing each distinct seed
    C(x) | C(y) once (``laws.generated_closures``); every seed counts in
    pairs_scanned; seed_size 1 keeps the singles.  Exhaustive mode
    enumerates the closed subsets with 0 of handles with at most 20
    elements (``laws.closed_sets``).  Either way each closed set is decided
    from semifield masks made once (``tables.semifields``).  With a
    candidate, the candidate_kind selects the certificate:
    semifield-subset, s-subsemiring, s-ideal, s-pseudo-subsemiring, or
    s-pseudo-ideal.
    """
    if seed_size not in (1, 2):
        raise SpecError(f"seed_size must be 1 or 2, not {seed_size!r}")
    if mode not in ("exhaustive", "generated"):
        raise SpecError(f"unknown search mode {mode!r}")
    max_subset = _count("max_subset", max_subset)
    if candidate is not None:
        return _evaluate_candidate(h, list(candidate),
                                   candidate_kind or "semifield-subset")
    query = f"smarandache on {h.describe()}"
    if not h.is_finite() or h.size() > _GENERATED_GUARD:
        return _report(query, [], False, 0)
    if mode == "exhaustive" and h.size() > _EXHAUSTIVE_SUBSET_LIMIT:
        raise SpecError("exhaustive subset search is limited to handles "
                        f"with at most {_EXHAUSTIVE_SUBSET_LIMIT} elements")
    t = h.tables()
    # a proper subset may hold all but one element: refuse its tables now
    tables.local_dtype(t, t.k - 1)
    top = t.k - 1 if mode == "generated" or max_subset is None \
        else min(max_subset, t.k - 1)
    hits, scanned = tables.semifields(t, mode, top, seed_size == 2)
    return _report(query, _index_findings(
        h, [("semifield-subset",) + c for c in hits]),
        mode == "exhaustive", scanned)


_CANDIDATE_KINDS = ("semifield-subset", "s-subsemiring", "s-ideal",
                    "s-pseudo-subsemiring", "s-pseudo-ideal")


def _evaluate_candidate(h, members, kind):
    if kind not in _CANDIDATE_KINDS:
        raise SpecError(f"unknown candidate kind {kind!r}")
    query = f"{kind} candidate on {h.describe()}"
    decided = True
    if kind == "s-pseudo-subsemiring":
        found, decided = _pseudo_superset(h, set(members))
    else:
        s, ordered, _ = _subset_tables(h, members)
        if kind == "semifield-subset":
            proper = (not h.is_finite()) or len(ordered) < h.size()
            ok = proper and tables.semifield_failure(s) is None
            at = range(s.k) if ok else None
        elif kind == "s-subsemiring":
            at = tables.s_subsemiring(s)
        else:
            # a semifield subset A of the candidate P with P*A and A*P in A
            # (s-ideal, P an S-subsemiring) or in P (s-pseudo-ideal, P
            # inside a closed proper superset)
            own = kind == "s-ideal"
            base, decided = (tables.s_subsemiring(s), True) if own else \
                _pseudo_superset(h, set(ordered))
            at = None if base is None else next(
                (a for a in tables.semifield_subsets(s)
                 if tables.first_not_absorbing(
                     s, a, into=a if own else range(s.k)) is None), None)
        found = None if at is None else [ordered[i] for i in at]
    return _report(query, [] if found is None else [
        Finding(kind, _wit(h, *found), tuple(found))], decided, 0)


def _pseudo_superset(h, mset):
    """(superset, decided): the closure of mset and 0 when it is a proper
    semifield or S-subsemiring, as members in key order, or None; it stops
    past ``tables.local_limit`` members, deciding nothing, or past all but
    one of a finite handle's, when it is the whole handle (not proper)."""
    limit = tables.local_limit()
    cap = min(limit, h.size() - 1) if h.is_finite() else limit
    sub = _subset_tables(h, mset | {h.zero}, cap)
    if sub is None:
        return None, h.is_finite() and cap == h.size() - 1
    s, ordered, _ = sub
    if tables.semifield_failure(s) is None or \
            tables.s_subsemiring(s) is not None:
        return ordered, True
    return None, True


# ---------------------------------------------------------------------------
# homomorphisms


class HomReport(Frozen):
    """Verdict, first failing (op, x, y), kernel, and exhaustiveness."""

    __slots__ = _fields = ("ok", "witness", "kernel", "exhaustive")

    def __init__(self, ok: bool, witness: tuple, kernel: tuple,
                 exhaustive: bool):
        self._fill(ok, witness, kernel, exhaustive)


def _default_sample(h):
    d = h.domain if h.kind == "domain" else None
    if d is not None and d.kind == NAT:
        return [element(d, i * d.multiple) for i in range(8)]
    if d is not None and d.kind == RAT:
        from fractions import Fraction

        vals = [Fraction(0), Fraction(1), Fraction(1, 2), Fraction(2),
                Fraction(1, 3), Fraction(3), Fraction(2, 3), Fraction(3, 2)]
        return [element(d, v) for v in vals]
    raise SpecError("a sample is required for a source that is infinite or "
                    "over the enumeration guard")


def check_homomorphism(f, src, dst, sample=None):
    """Verify f preserves +, *, and 0 on the source (or a sample of it).

    f is a dict keyed by source elements or a callable.  Enumerable sources
    are checked on every pair (exhaustive); infinite sources, and finite ones
    over the enumeration guard, on the sample.
    The kernel lists checked elements mapping to zero.
    """
    if src.is_enumerable():
        elems = src.elements()
        exhaustive = True
    else:
        elems = list(sample) if sample is not None else _default_sample(src)
        exhaustive = False
    if callable(f):
        fmap = f
    else:
        table = dict(f)

        def fmap(x):
            if x not in table:
                raise SpecError("map is not total on the checked elements")
            return table[x]

    if fmap(src.zero) != dst.zero:
        return HomReport(False, ("zero", src.zero), (), exhaustive)
    for x, y in itertools.product(elems, elems):
        for op, src_op, dst_op in (("add", src.add, dst.add),
                                   ("mul", src.mul, dst.mul)):
            if fmap(src_op(x, y)) != dst_op(fmap(x), fmap(y)):
                return HomReport(False, (op, x, y), (), exhaustive)
    kernel = tuple(x for x in elems if fmap(x) == dst.zero)
    return HomReport(True, None, kernel, exhaustive)


# ---------------------------------------------------------------------------
# axiom verification


def verify_axioms(h):
    """Exhaustively check the semiring laws of ``tables._AXIOMS`` (those of
    one when the handle has a one) on a finite handle's compiled tables.
    Returns (ok, witness): the failing law and its elements.

    A handle of n > 1 slots over a coefficient domain D (the slot layout
    of ``tables``) takes the laws before those of one from D's q x q
    tables (slot-wise-laws): when D has them, so does the handle, and
    the laws of one are read from row and column one of its mul alone
    (``tables.one_failure``, no k x k table); otherwise
    ``tables.axiom_failure`` scans it in full.  Its + is D's slot by
    slot, its zero is D's in every slot, and slot o of xy is the D-sum of
    x_l y_r over the pairs (l, r) with product(l, r) = o, for any partial
    product (an absorbed zero basis, row and square matrices alike):
    - + commutative, + associative and the zero identity act on each slot
      alone, so they hold as they do in D;
    - the fold order of a slot's sum does not matter once D's + is
      associative and commutative, which the distributive laws rely on;
    - x(y + z) sums x_l y_r + x_l z_r over the pairs of o, which regroups
      to xy + xz; (y + z)x likewise;
    - 0x and x0 sum D-products 0 x_r and x_l 0, each 0;
    - a slot with no pairs is D's zero on every side, and 0 + 0 = 0.
    So the first failing law, and its first witness, are those of the
    full scan.  A handle of one slot has D's q elements, one of no slots
    a single element: each keeps its plain scan.
    """
    t = h.tables()
    d = h._coefficient_handle().tables() if t.n > 1 else None   # slot-wise
    if d and tables.axiom_failure(d.add, d.mul, d.zero, None) is None:
        bad = tables.one_failure(t)
    else:
        bad = tables.axiom_failure(t.add, t.mul, t.zero, t.one)
    if bad is None:
        return (True, None)
    law, *idx = bad
    return (False, (law, *map(h.element_at, idx)))


# ---------------------------------------------------------------------------
# theorem sweeps


# Each sweep yields (label, failure, scanned, elements) per instance: the
# failure is None when the instance passes, else the certificate after its
# label; scanned is what the instance cost.


def _sweep_zn_prime_clean(pmax=97):
    for p in filter(_is_prime, range(pmax + 1)):
        h = SemiringHandle.for_domain(zn_interval(p))
        label = (f"p={p}",)
        zd = find_zero_divisors(h)
        scanned = zd.budget_spent["pairs_scanned"]
        if zd.findings or not zd.exhaustive:
            w = zd.findings[0].witness if zd.findings else ()
            yield label, ("zero divisor found",) + w, scanned, ()
            return
        idem = find_idempotents(h)
        scanned += idem.budget_spent["pairs_scanned"]
        idset = tuple(sorted({f.witness[0] for f in idem.findings}))
        if idset != ("[0,0]", "[0,1]"):
            yield label, ("unexpected idempotents",) + idset, scanned, ()
            return
        units = find_units(h)
        scanned += units.budget_spent["pairs_scanned"]
        count = len(units.findings)
        yield label, None if count == p - 1 else (
            f"unit count {count} != {p - 1}",), scanned, ()


def _sweep_loop_laws(nmin=5, nmax=25):
    for n in range(nmin | 1, nmax + 1, 2):   # the odd n of the range
        for m in loop_parameters(n):
            g = build_loop(n, m)
            s = loop_law_summary(g)
            checks = [
                ("order", g.order == n + 1),
                ("latin-square", s["latin_square"]),
                ("identity", s["has_identity"]),
                ("commutative", s["commutative"] == (m == (n + 1) // 2)),
                ("left-alternative", s["left_alternative"] == (m == 2)),
                ("right-alternative", s["right_alternative"] == (m == n - 1)),
                ("wip", s["wip"] == ((m * m - m + 1) % n == 0)),
                ("not-both-alternatives",
                 not (s["left_alternative"] and s["right_alternative"])),
            ]
            bad = tuple(name for name, ok in checks if not ok)
            yield (f"n={n}", f"m={m}"), bad or None, 1, ()


def _sweep_zn_composite_zd(nmax=100):
    for n in range(4, nmax + 1):
        if _is_prime(n):
            continue
        d = zn_interval(n)
        # the least divisor above 1 is the least prime factor
        p = next(q for q in range(2, n) if n % q == 0)
        x = element(d, p)
        y = element(d, n // p)
        zero = domain_zero(d)
        ok = x != zero and y != zero and x * y == zero
        yield ((f"n={n}", format_element(x), format_element(y)),
               None if ok else (), 1, (x, y))


def _sweep_neutro_prime(primes=(3, 5, 7, 11, 13)):
    # refused before any p is swept: the subsets {0} + combo of p - 1
    # nonzero elements number nearly 2^(p-1), which passes the guard G
    # exactly when p - 1 >= G.bit_length(); a composite p is no instance
    for p in primes:
        if p - 1 >= _ENUM_GUARD.bit_length():
            raise SpecError(f"enumeration guard exceeded (p={p}: 2^{p - 1} "
                            f"subsets, guard {_ENUM_GUARD})")
        if not _is_prime(p):
            raise SpecError(f"p={p} is not prime")
    for p in primes:
        h = SemiringHandle.for_domain(neutro_pure(zn_interval(p)))
        t = h.tables()
        # the least proper closed {0} + c, ranked in combinations order
        found, scanned = substructures([t.add, t.mul], (t.zero,),
                                       "exhaustive", t.k - 1)
        failure = None
        if found:
            c = [x - (x > t.zero) for x in found[0] if x != t.zero]
            scanned = sum(math.comb(t.k - 1, i + 1) - math.comb(
                t.k - 2 - x, len(c) - i) for i, x in enumerate(c))
            failure = tuple(format_element(h.element_at(i)) for i in found[0])
        yield (f"p={p}",), failure, scanned, ()


_SWEEPS = {
    "zn-prime-clean": _sweep_zn_prime_clean,
    "loop-laws": _sweep_loop_laws,
    "zn-composite-zd": _sweep_zn_composite_zd,
    "neutro-prime-no-subsemiring": _sweep_neutro_prime,
}


def theorem_sweep(name, **params):
    """Run a named instance sweep; a counterexample halts it immediately.

    Reports one "instance" finding per verified case; a failure produces a
    single "counterexample" finding with the certificate and marks the
    report non-exhaustive.
    """
    if name not in _SWEEPS:
        raise SpecError(f"unknown sweep {name!r} "
                        f"(available: {', '.join(sorted(_SWEEPS))})")
    query = f"sweep {name}"
    findings = []
    scanned = 0
    for label, failure, spent, elems in _SWEEPS[name](**params):
        scanned += spent
        if failure is not None:
            return _report(query, [Finding("counterexample", label + failure)],
                           False, scanned)
        findings.append(Finding("instance", label + ("pass",), elems))
    return _report(query, findings, True, scanned)


def sweep_passed(report):
    return report.exhaustive and all(f.kind != "counterexample"
                                     for f in report.findings)


# ---------------------------------------------------------------------------
# matrix zero divisors vs S-zero divisors


def matrix_zd_comparison(h, budget=None):
    """Report plain and S- zero-divisor anchors side by side.

    Findings: every "zero-divisor" pair, every "s-zero-divisor" certificate,
    and one "zd-not-s" entry per plain pair whose anchors admit no
    certificate.  No containment in either direction is asserted.
    """
    if h.kind != "matrix":
        raise SpecError("comparison applies to matrix handles")
    plain = find_zero_divisors(h, budget=budget)
    special = find_s_special(h, "s-zero-divisor", budget=budget)
    findings = list(plain.findings) + list(special.findings)
    anchored = {frozenset((f.elements[0], f.elements[1]))
                for f in special.findings}
    for f in plain.findings:
        if f.kind != "zero-divisor":
            continue
        if frozenset((f.elements[0], f.elements[1])) not in anchored:
            findings.append(Finding("zd-not-s", f.witness, f.elements))
    scanned = (plain.budget_spent["pairs_scanned"]
               + special.budget_spent["pairs_scanned"])
    return _report(f"zero-divisor comparison on {h.describe()}", findings,
                   plain.exhaustive and special.exhaustive, scanned)
