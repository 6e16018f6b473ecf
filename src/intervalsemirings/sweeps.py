"""Theorem sweeps: a named claim checked on each instance of a family.

``theorem_sweep`` runs one sweep and reports one "instance" finding per
case that holds, or halts at the first counterexample.  Each sweep imports
what it runs inside its own body, so an ``isl verify`` process loads only
its sweep's modules: zn-composite-zd only ``domains`` and ``carriers`` (no
numpy), loop-laws ``carriers`` and ``laws``, and zn-prime-clean and
neutro-prime-no-subsemiring the compiled tables of their handles.
"""

import numbers

from .errors import SpecError
from .reports import Finding, _report

# Each sweep yields (label, failure, scanned, elements) per instance: the
# failure is None when the instance passes, else the certificate after its
# label; scanned is what the instance cost.


def _sweep_zn_prime_clean(pmax=97):
    from .analysis import find_idempotents, find_units, find_zero_divisors
    from .carriers import _is_prime
    from .domains import zn_interval
    from .handle import SemiringHandle

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
    from .carriers import build_loop, loop_parameters
    from .laws import loop_law_summary

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
    from .carriers import _is_prime
    from .domains import domain_zero, element, format_element, zn_interval

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
    import math

    from .carriers import _is_prime
    from .domains import format_element, neutro_pure, zn_interval
    from .handle import _ENUM_GUARD, SemiringHandle
    from .laws import substructures

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


def _checked(name, params):
    """A sweep's parameters as ints (primes as a tuple of ints).  A name it
    does not take, or a value that is not an integer (a bool neither, as
    ``analysis._count``), is refused with the names it takes."""
    code = _SWEEPS[name].__code__
    takes = code.co_varnames[:code.co_argcount]
    out = {}
    for key, value in params.items():
        many = isinstance(value, (tuple, list))
        items = value if many else (value,)
        if key not in takes or many != (key == "primes") or not all(
                isinstance(v, numbers.Integral) and not isinstance(v, bool)
                for v in items):
            kind = "a list of integers" if takes == ("primes",) else "integers"
            raise SpecError(f"sweep {name!r} takes {' and '.join(takes)} "
                            f"({kind}), not {key}={value!r}")
        out[key] = tuple(map(int, items)) if many else int(value)
    return out


def theorem_sweep(name, **params):
    """Run a named instance sweep; a counterexample halts it immediately.

    Reports one "instance" finding per verified case; a failure produces a
    single "counterexample" finding with the certificate and marks the
    report non-exhaustive.
    """
    if name not in _SWEEPS:
        raise SpecError(f"unknown sweep {name!r} "
                        f"(available: {', '.join(sorted(_SWEEPS))})")
    params = _checked(name, params)
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
