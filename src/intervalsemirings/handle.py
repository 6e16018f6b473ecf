"""The semiring handle: one facade over the three constructions.

A :class:`SemiringHandle` wraps an interval domain, a formal-sum spec or a
matrix shape over a domain, and gives every construction the same
elements, zero and one, rendering, canonical keys and slot layout.  The
analysis queries (``analysis``) and expression evaluation
(``expressions``) both run against it.  Building a handle, enumerating it
and rendering its elements use only the exact object arithmetic; numpy and
the compiled tables are loaded by :meth:`SemiringHandle.tables`, on the
first query that needs them, so an ``isl table`` or ``isl eval`` process
never loads them.  Likewise ``formalsums`` and ``matrices`` are loaded by
the first handle of that kind, so a domain handle loads neither.
"""

import functools
import itertools

from .domains import (
    describe_domain,
    domain_element_at,
    domain_elements,
    domain_one,
    domain_position,
    domain_size,
    domain_zero,
    element_key,
    is_finite_domain,
)
from .errors import DomainMismatchError, SpecError

# The most elements a handle enumerates, and so compiles to tables.
_ENUM_GUARD = 1 << 20


def _describe_domain_short(d):
    """``describe_domain`` without the kind suffixes: zn(5), chain(3),
    neutro-mixed(nat(multiple=2))."""
    return describe_domain(d).replace("-interval", "").replace("-lattice", "")


def _describe_basis(spec):
    from .formalsums import PolyBasis

    b = spec.basis
    if isinstance(b, PolyBasis):
        return "poly" if b.cyclic is None else f"poly-cyclic-{b.cyclic}"
    params = ",".join(str(v) for v in b.meta.params)
    return f"{b.meta.kind}({params})"


class SemiringHandle:
    """Uniform facade over a domain, formal-sum, or matrix semiring.

    ``domain`` is the coefficient domain of every kind: a domain handle's
    own, a formal sum's ``spec.coefficients``, a matrix's entry domain.
    """

    def __init__(self, kind, *, domain=None, spec=None, shape=None):
        if kind not in ("domain", "formal-sum", "matrix"):
            raise SpecError(f"unknown handle kind {kind!r}")
        if kind == "domain" and domain is None:
            raise SpecError("domain handle requires a domain")
        if kind == "formal-sum" and spec is None:
            raise SpecError("formal-sum handle requires a semiring spec")
        if kind == "matrix":
            if domain is None or shape is None:
                raise SpecError("matrix handle requires a domain and a shape")
            mk, n = shape
            if mk not in ("row", "square") or type(n) is not int or n < 1:
                raise SpecError(f"invalid matrix shape {shape!r}")
        self.kind = kind
        self.domain = spec.coefficients if kind == "formal-sum" else domain
        self.spec = spec
        self.shape = shape
        self._elements = None
        self._decoded = {}
        self._digits = {}
        self._rendered = {}
        self._tables = None
        self._coefficients = None
        self._layout = None
        if kind == "domain":
            self.zero = domain_zero(domain)
            self.one = domain_one(domain)
        elif kind == "formal-sum":
            from .formalsums import fs_one, fs_zero

            self.zero = fs_zero(spec)
            self.one = fs_one(spec)
        else:
            from .matrices import identity_matrix, zero_matrix

            self.zero = zero_matrix(domain, shape)
            self.one = (None if domain_one(domain) is None
                        else identity_matrix(domain, shape))

    @classmethod
    def for_domain(cls, domain):
        return cls("domain", domain=domain)

    @classmethod
    def for_formal_sums(cls, spec):
        return cls("formal-sum", spec=spec)

    @classmethod
    def for_matrices(cls, domain, shape):
        return cls("matrix", domain=domain, shape=shape)

    def describe(self):
        d = _describe_domain_short(self.domain)
        if self.kind == "domain":
            return d
        if self.kind == "formal-sum":
            return f"formal-sum[{d}; {_describe_basis(self.spec)}]"
        mk, n = self.shape
        return f"matrix[{mk},{n}; {d}]"

    def add(self, x, y):
        return x + y

    def mul(self, x, y):
        return x * y

    def is_finite(self):
        if self.kind == "formal-sum":
            from .formalsums import basis_is_finite

            if not basis_is_finite(self.spec.basis):
                return False
        return is_finite_domain(self.domain)

    def _slots(self):
        """(keys, product): the handle's slot layout, made once.

        The keys name an element's slots in order: basis keys without an
        absorbed zero basis, matrix entries row-major, or a domain's one
        slot.  product(p, q) is the position unit slot p times unit slot q
        lands on, or None where it vanishes: on an absorbed zero basis, off
        a row's diagonal, and for e_il e_kj with l != k.  A free polynomial
        basis is cut to x^0, exact for every structural answer: x^i x^j
        never vanishes, and x^0 is its only idempotent key.
        """
        if self._layout is None:
            if self.kind == "formal-sum":
                from .formalsums import _basis_op, basis_is_finite, basis_keys

                spec = self.spec
                keys = basis_keys(spec) if basis_is_finite(spec.basis) else [0]
                at = {k: i for i, k in enumerate(keys)}
                self._layout = keys, lambda p, q: at.get(
                    _basis_op(spec, keys[p], keys[q]))
            elif self.kind == "matrix" and self.shape[0] == "square":
                n = self.shape[1]   # p = i*n + l times q = k*n + j
                self._layout = range(n * n), lambda p, q: (
                    p - p % n + q % n if p % n == q // n else None)
            else:   # a domain, or a row matrix multiplying entrywise
                n = 1 if self.kind == "domain" else self.shape[1]
                self._layout = range(n), lambda p, q: p if p == q else None
        return self._layout

    def size(self):
        return self._size

    @functools.cached_property
    def _size(self):
        """The number of elements (made once); an infinite handle raises."""
        if not self.is_finite():
            raise SpecError("handle is infinite")
        return domain_size(self.domain) ** len(self._slots()[0])

    def is_enumerable(self):
        return self.is_finite() and self.size() <= _ENUM_GUARD

    def _require_enumerable(self):
        if not self.is_finite():
            raise SpecError("cannot enumerate an infinite handle")
        if self.size() > _ENUM_GUARD:
            raise SpecError(f"enumeration guard exceeded ({self.size()} elements)")

    def elements(self):
        """All elements in canonical order, ascending by key (guarded)."""
        if self._elements is None:
            self._require_enumerable()
            dom = domain_elements(self.domain)
            self._elements = list(map(self._slot_constructor, itertools.product(
                dom, repeat=len(self._slots()[0]))))
        return self._elements

    @functools.cached_property
    def _slot_constructor(self):
        """f(values): the element whose slots hold the coefficient domain
        elements values, first slot first (made once)."""
        if self.kind == "domain":
            return lambda values: values[0]
        if self.kind == "formal-sum":
            from .formalsums import FormalSum

            spec, keys = self.spec, self._slots()[0]
            return lambda values: FormalSum(spec, zip(keys, values))
        from .matrices import IntervalMatrix

        domain, shape = self.domain, self.shape
        return lambda values: IntervalMatrix(domain, shape, tuple(values))

    def element_at(self, i):
        """elements()[i] without enumerating the handle, memoized per index:
        the element whose slots hold the domain elements at the base-q
        digits of i (``domain_element_at``, each made once per handle),
        first slot most significant; a domain is one slot.  An i outside
        range(size()) raises IndexError."""
        if self._elements is not None and i >= 0:
            return self._elements[i]
        x = self._decoded.get(i)
        if x is None:
            if not 0 <= i < self._size:
                raise IndexError(f"element index {i} out of range for "
                                 f"{self.describe()}")
            d, rest, values = self.domain, i, []
            q = domain_size(d)
            for _ in self._slots()[0]:
                rest, digit = divmod(rest, q)
                c = self._digits.get(digit)
                if c is None:
                    c = self._digits[digit] = domain_element_at(d, digit)
                values.append(c)
            x = self._decoded[i] = self._slot_constructor(values[::-1])
        return x

    def index(self, x):
        """Position of element x in elements() order, the inverse of
        element_at: the base-q number of its slots' domain positions
        (``domain_position``), first slot most significant.  An element of
        another domain, spec or shape is refused."""
        ours = x.spec == self.spec if self.kind == "formal-sum" else (
            x.domain == self.domain and getattr(x, "shape", None) == self.shape)
        if not ours:
            raise DomainMismatchError(f"{x} is not an element of "
                                      f"{self.describe()}")
        d = self.domain
        key = self.key(x)
        if self.kind == "domain":
            return domain_position(d, key)
        q, i = domain_size(d), 0
        for part in key:
            i = i * q + domain_position(d, part)
        return i

    def tables(self):
        """Integer add/mul tables over elements() order (compiled once)."""
        if self._tables is None:
            self._require_enumerable()
            from . import tables   # loads numpy; see the module docstring

            self._tables = tables.Tables(self)
        return self._tables

    def _coefficient_handle(self):
        """The handle of the coefficient domain (a domain handle is its
        own), made once so that its compiled tables serve every question
        about it."""
        if self.kind == "domain":
            return self
        if self._coefficients is None:
            self._coefficients = SemiringHandle.for_domain(self.domain)
        return self._coefficients

    def render(self, x):
        """The text of element x, memoized per element object, so a witness
        element that ``element_at`` decodes once is rendered once.  The memo
        keeps x, so no other object can take its id while x is in it."""
        hit = self._rendered.get(id(x))
        if hit is None:   # every element prints its literal
            hit = self._rendered[id(x)] = (x, str(x))
        return hit[1]

    def key(self, x):
        """Sortable canonical key; ordering matches elements()."""
        if self.kind == "domain":
            return element_key(x)
        if self.kind == "formal-sum":
            from .formalsums import basis_is_finite

            if basis_is_finite(self.spec.basis):
                return tuple(element_key(x.coeff(k)) for k in self._slots()[0])
            return tuple((k, element_key(c)) for k, c in x.terms.items())
        return tuple(element_key(e) for e in x.entries)

    def pair(self, x, y):
        """Canonical unordered presentation: larger key first."""
        if self.key(x) >= self.key(y):
            return (x, y)
        return (y, x)
