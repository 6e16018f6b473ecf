"""Structural answers for handles that are not enumerable.

An infinite handle, or a finite one past the enumeration guard, cannot be
compiled to tables, so its queries are answered here from arguments about
its slots (``SemiringHandle._slots``) and its coefficient domain: reported
exhaustive only when the argument decides the query, and otherwise as
pattern instantiations that are not exhaustive.  The queries in
``analysis`` load this module only on those branches, and for the
structural subset patterns ("multiples-of-k"), so a query on an
enumerable handle compiles none of it.
"""

import itertools

import numpy as np

from . import tables
from .analysis import (
    _finish_classification,
    find_zero_divisors,
    validate_s_certificate,
)
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
    is_finite_domain,
    is_strict_domain,
)
from .errors import SpecError
from .laws import _law_witness
from .reports import Finding, _report, _wit


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


def _materialize_pattern(h, pattern):
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
    if h.kind == "formal-sum":
        from .formalsums import PolyBasis   # loaded with the handle

        if not isinstance(h.spec.basis, PolyBasis):   # a carrier
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
