"""Semiring-level analysis: special elements, classification, searches.

Every query runs against a :class:`SemiringHandle` (``handle``), a uniform
facade over the three semiring constructions in this package (interval
domains, formal sums, matrices), and answers with the value classes of
``reports``.  Finite handles within the enumeration guard are scanned
exhaustively; infinite or oversized handles fall back to the structural
arguments of ``structural``, loaded only on those branches (reported with
``exhaustive=True`` only when the argument actually decides the query) or
to pattern instantiations (reported with ``exhaustive=False``).
The element scans, axiom checks, subset checks, closures and Smarandache
searches of an enumerable handle run on its compiled integer tables
(``tables``); ``SemiringHandle.index`` and ``element_at`` convert between
elements and table indices by arithmetic, without enumerating anything.  A
given subset, or the closure of one, on a handle that is not enumerable is
checked on local tables restricted from an object table of the elements it
reaches, built on demand (``_Reached``).  Homomorphism checks run on the
element objects.  The theorem sweeps are in ``sweeps``.
"""

import itertools

import numpy as np

from . import tables
from .errors import SpecError
from .handle import SemiringHandle
from .laws import closure
from .reports import (
    AnalysisReport,
    Classification,
    Finding,
    HomReport,
    _report,
    _wit,
)

_GENERATED_GUARD = 1 << 14
_EXHAUSTIVE_SUBSET_LIMIT = 20


def _count(name, value):
    """value as an int, or None; else SpecError, a bool too (as indices)."""
    ok = isinstance(value, (int, np.integer)) and not isinstance(value, bool)
    if not ok and value is not None:
        raise SpecError(f"{name} must be an integer, not {value!r}")
    return value if value is None else int(value)


# ---------------------------------------------------------------------------
# special-element searches


def find_zero_divisors(h: SemiringHandle, budget=None) -> AnalysisReport:
    """All unordered zero-divisor pairs; one-sided pairs reported separately.

    Pairs (x, y) of nonzero elements with x*y = y*x = 0 yield kind
    "zero-divisor" (witness printed larger key first); when only one
    orientation vanishes the kind is "one-sided-zero-divisor" and the witness
    order is the vanishing one.
    """
    budget = _count("budget", budget)
    query = f"zero-divisors on {h.describe()}"
    if not h.is_enumerable():
        from .structural import _zero_divisor_patterns

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


def find_idempotents(h: SemiringHandle) -> AnalysisReport:
    """All x with x*x = x (exhaustive when enumerable)."""
    query = f"idempotents on {h.describe()}"
    if not h.is_enumerable():
        from .structural import _idempotent_patterns

        return _idempotent_patterns(h, query)
    hits, scanned = tables.idempotents(h.tables())
    return _report(query, _index_findings(h, [("idempotent", x) for x in hits]),
                   True, scanned)


def find_units(h: SemiringHandle) -> AnalysisReport:
    """All x with a two-sided inverse; requires one and a finite handle."""
    query = f"units on {h.describe()}"
    if h.one is None:
        raise SpecError("units are undefined without a multiplicative identity")
    if not h.is_enumerable():
        raise SpecError("unit enumeration requires a finite handle")
    hits, scanned = tables.units(h.tables())
    return _report(query, _index_findings(h, [("unit",) + p for p in hits]),
                   True, scanned)


def find_nilpotents(h: SemiringHandle, max_index=8) -> AnalysisReport:
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


def find_s_special(h: SemiringHandle, kind, budget=None) -> AnalysisReport:
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
        from .structural import _s_special_patterns

        return _s_special_patterns(h, kind, query)
    if kind == "s-unit" and h.one is None:
        raise SpecError("s-units are undefined without a multiplicative identity")
    certs, scanned, exhaustive = _S_SCANS[kind](h.tables(), budget)
    return _report(query, _index_findings(h, [(kind,) + c for c in certs]),
                   exhaustive, scanned)


def validate_s_certificate(h: SemiringHandle, kind, elements) -> bool:
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


_SUB_KINDS = ("subsemiring", "ideal", "left-ideal", "right-ideal")


def check_substructure(h: SemiringHandle, subset, kind="subsemiring"):
    """Verify a subset is a subsemiring or (one/two-sided) ideal.

    Returns (ok, witness); the witness names the failing law and the
    offending elements.  Ideal kinds require a finite handle unless the
    subset is the structural pattern "multiples-of-k" on a nat domain.
    """
    if kind not in _SUB_KINDS:
        raise SpecError(f"unknown substructure kind {kind!r} "
                        f"(available: {', '.join(_SUB_KINDS)})")
    if isinstance(subset, str):   # a structural pattern
        from .structural import _materialize_pattern

        members, _ = _materialize_pattern(h, subset)
    else:
        members = list(subset)
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


def classify_semiring(h: SemiringHandle) -> Classification:
    """Flags strict / commutative / has_one / zero_divisor_free / semifield.

    Every False flag carries a witness.  Enumerable handles are scanned
    exhaustively; infinite handles are classified structurally.
    """
    if h.is_enumerable():
        return _classify_scan(h)
    from .structural import _classify_structural

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


# ---------------------------------------------------------------------------
# Smarandache semiring search


def semifield_within(h: SemiringHandle, subset):
    """Check a subset is a semifield under the handle's operations.

    Returns (ok, reason).  Requires the handle zero inside, closure, strict
    addition, commutativity, an internal identity, and no zero divisors.
    """
    s, members, _ = _subset_tables(h, subset)
    w = tables.semifield_failure(s)
    if w is None:
        return (True, None)
    return (False, w[:1] + tuple(members[i] for i in w[1:]))


def smarandache_search(h: SemiringHandle, mode="generated", *, seed_size=2,
                       max_subset=None, candidate=None,
                       candidate_kind=None) -> AnalysisReport:
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


def check_homomorphism(f, src: SemiringHandle, dst: SemiringHandle,
                       sample=None) -> HomReport:
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
        from .structural import _default_sample

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


def verify_axioms(h: SemiringHandle):
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
# matrix zero divisors vs S-zero divisors


def matrix_zd_comparison(h: SemiringHandle, budget=None) -> AnalysisReport:
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
