"""Row and square matrices of interval elements over one domain.

Row matrices multiply componentwise (the n-fold direct product of the
domain); square matrices use the usual matrix product. Rectangular
shapes are rejected: nothing in the supported algebra multiplies them.
"""

from __future__ import annotations

from typing import Iterable

from . import domains
from .domains import DomainSpec, IntervalElem
from .errors import DomainMismatchError, Frozen, SpecError

ROW = "row"
SQUARE = "square"


class IntervalMatrix(Frozen):
    """A row or square matrix: its domain, its shape (ROW or SQUARE, n) and
    its entries, row-major."""

    __slots__ = _fields = ("domain", "shape", "entries")

    def __init__(self, domain: DomainSpec, shape: tuple[str, int],
                 entries: tuple[IntervalElem, ...]):
        _set_domain(self, domain)
        _set_shape(self, shape)
        _set_entries(self, entries)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.domain, self.shape, self.entries) == (
                other.domain, other.shape, other.entries)
        return NotImplemented

    def __hash__(self):
        return hash((self.domain, self.shape, self.entries))

    @property
    def n(self) -> int:
        return self.shape[1]

    def __add__(self, other):
        return mat_add(self, other)

    def __mul__(self, other):
        return mat_mul(self, other)

    def __str__(self):
        return render_matrix(self)


_set_domain, _set_shape, _set_entries = IntervalMatrix._setters()


def _check_entries(domain: DomainSpec, entries) -> tuple[IntervalElem, ...]:
    out = []
    for e in entries:
        if not isinstance(e, IntervalElem):
            raise SpecError("matrix entries must be IntervalElem values")
        if e.domain != domain:
            raise DomainMismatchError("matrix entries from different domains")
        out.append(e)
    return tuple(out)


def row_matrix(domain: DomainSpec, entries: Iterable[IntervalElem]) -> IntervalMatrix:
    entries = _check_entries(domain, entries)
    if not entries:
        raise SpecError("row matrix needs at least one entry")
    return IntervalMatrix(domain, (ROW, len(entries)), entries)


def square_matrix(domain: DomainSpec, rows) -> IntervalMatrix:
    rows = [list(r) for r in rows]
    n = len(rows)
    if n == 0:
        raise SpecError("square matrix needs at least one row")
    if any(len(r) != n for r in rows):
        sizes = sorted({len(r) for r in rows} | {n})
        raise SpecError(
            f"rectangular matrices are not supported (got rows of sizes {sizes})"
        )
    flat = [e for r in rows for e in r]
    return IntervalMatrix(domain, (SQUARE, n), _check_entries(domain, flat))


def matrix_from_rows(domain: DomainSpec, rows) -> IntervalMatrix:
    """One row -> row matrix; n rows of n -> square; anything else rejected."""
    rows = [list(r) for r in rows]
    if len(rows) == 1:
        return row_matrix(domain, rows[0])
    if all(len(r) == len(rows) for r in rows):
        return square_matrix(domain, rows)
    raise SpecError(
        "rectangular matrices are not supported "
        f"(got {len(rows)} rows of sizes {[len(r) for r in rows]})"
    )


def zero_matrix(domain: DomainSpec, shape: tuple[str, int]) -> IntervalMatrix:
    kind, n = shape
    z = domains.domain_zero(domain)
    count = n if kind == ROW else n * n
    if kind not in (ROW, SQUARE) or n < 1:
        raise SpecError(f"bad matrix shape {shape!r}")
    return IntervalMatrix(domain, (kind, n), (z,) * count)


def identity_matrix(domain: DomainSpec, shape: tuple[str, int]) -> IntervalMatrix:
    """All-ones row (componentwise product) or the diagonal unit matrix."""
    kind, n = shape
    one = domains.domain_one(domain)
    if one is None:
        raise SpecError(
            f"{domains.describe_domain(domain)} has no multiplicative identity"
        )
    if kind == ROW:
        return IntervalMatrix(domain, (ROW, n), (one,) * n)
    z = domains.domain_zero(domain)
    entries = tuple(
        one if i == j else z for i in range(n) for j in range(n)
    )
    return IntervalMatrix(domain, (SQUARE, n), entries)


def _require_compatible(x: IntervalMatrix, y: IntervalMatrix) -> None:
    if x.domain != y.domain:
        raise DomainMismatchError("matrices over different domains")
    if x.shape != y.shape:
        raise DomainMismatchError(
            f"matrix shapes differ: {x.shape} vs {y.shape}"
        )


def mat_add(x: IntervalMatrix, y: IntervalMatrix) -> IntervalMatrix:
    _require_compatible(x, y)
    entries = tuple(
        domains.dom_add(a, b) for a, b in zip(x.entries, y.entries)
    )
    return IntervalMatrix(x.domain, x.shape, entries)


def mat_mul(x: IntervalMatrix, y: IntervalMatrix) -> IntervalMatrix:
    """Componentwise for rows, matrix product for squares."""
    _require_compatible(x, y)
    if x.shape[0] == ROW:
        entries = tuple(
            domains.dom_mul(a, b) for a, b in zip(x.entries, y.entries)
        )
        return IntervalMatrix(x.domain, x.shape, entries)
    n = x.n
    xe, ye = x.entries, y.entries
    out = []
    for i in range(n):
        for j in range(n):
            acc = domains.dom_mul(xe[i * n], ye[j])
            for l in range(1, n):
                acc = domains.dom_add(
                    acc, domains.dom_mul(xe[i * n + l], ye[l * n + j])
                )
            out.append(acc)
    return IntervalMatrix(x.domain, x.shape, tuple(out))


def scale_matrix(c: IntervalElem, x: IntervalMatrix) -> IntervalMatrix:
    if c.domain != x.domain:
        raise DomainMismatchError("scalar from a different domain")
    return IntervalMatrix(
        x.domain, x.shape, tuple(domains.dom_mul(c, e) for e in x.entries)
    )


def render_matrix(m: IntervalMatrix) -> str:
    """Bracketed literal form accepted back by the expression parser."""
    lits = [domains.format_element(e) for e in m.entries]
    if m.shape[0] == ROW:
        return "[" + ", ".join(lits) + "]"
    n = m.n
    rows = [
        "[" + ", ".join(lits[i * n : (i + 1) * n]) + "]" for i in range(n)
    ]
    return "[" + ", ".join(rows) + "]"


def matrix_to_json(m: IntervalMatrix) -> dict:
    return {
        "shape": m.shape[0],
        "n": m.n,
        "entries": [domains.format_element(e) for e in m.entries],
    }
