"""Finite basis carriers: loops, groupoids, groups, and semigroups.

A carrier is a finite magma given by an element list and a full Cayley
table of indices. Builders cover the parametric loops L_n(m) on n+1
elements, the parametric groupoids Z_n(t, u), and the standard stock of
groups/semigroups used as semiring bases.  The identity laws and closed
subsets of a carrier (``check_laws``, ``enumerate_substructures``) are
decided in ``laws``, which an ``isl table`` or ``isl eval`` process never
loads.
"""

from __future__ import annotations

import math
from itertools import permutations
from operator import itemgetter
from typing import Optional

from .errors import Frozen, SpecError

_MAX_TABLE_ENTRIES = 1_000_000


class CarrierMeta(Frozen):
    """The builder kind of a carrier and its integer parameters."""

    __slots__ = _fields = ("kind", "params")

    def __init__(self, kind: str, params: tuple[int, ...] = ()):
        self._fill(kind, params)


class Magma(Frozen):
    """Element labels plus a full index Cayley table.

    ``table[i][j]`` is the index of elements[i] * elements[j]; the row
    element is always the left factor. ``identity`` is the index of the
    two-sided identity, or None.  An instance keeps a ``__dict__`` for the
    absorbing index and the numpy table (``laws``), each made once.
    """

    _fields = ("elements", "table", "meta", "interval_labeled", "identity")

    def __init__(self, elements: tuple[str, ...],
                 table: tuple[tuple[int, ...], ...], meta: CarrierMeta,
                 interval_labeled: bool = False,
                 identity: Optional[int] = None):
        self._fill(elements, table, meta, interval_labeled, identity)

    @property
    def order(self) -> int:
        return len(self.elements)

    def op(self, i: int, j: int) -> int:
        return self.table[i][j]

    def index_of(self, label: str) -> int:
        try:
            return self.elements.index(label)
        except ValueError:
            raise SpecError(f"no carrier element labeled {label!r}") from None

    def absorbing_index(self) -> Optional[int]:
        """Index of the element z with z*x = x*z = z for all x, if any."""
        if "_absorbing" not in self.__dict__:
            object.__setattr__(self, "_absorbing", _two_sided(
                self.table, absorbing=True))
        return self._absorbing


def _two_sided(t, absorbing=False) -> Optional[int]:
    """First e with e*x = x*e = x (an identity) or, when absorbing,
    e*x = x*e = e, for every x of the tuple table t; None if none does."""
    return next((e for e, row in enumerate(t)
                 if all(row[x] == t[x][e] == (e if absorbing else x)
                        for x in range(len(t)))), None)


def _admit(order: int) -> None:
    """Refuse a carrier of ``order`` elements whose table would pass
    ``_MAX_TABLE_ENTRIES``, before its builder allocates anything."""
    if order ** 2 > _MAX_TABLE_ENTRIES:
        raise SpecError(
            f"carrier table would exceed {_MAX_TABLE_ENTRIES} entries")


def _finish(labels, table, meta: CarrierMeta, interval: bool,
            identity: Optional[int] = None) -> Magma:
    """The carrier of a builder's labels and table; its identity is the
    given index, known two-sided, or else found by ``_two_sided``."""
    labels = tuple(labels)
    table = tuple(tuple(row) for row in table)
    g = Magma(labels, table, meta, identity=_two_sided(table)
              if identity is None else identity)
    return with_interval_labels(g) if interval else g


def with_interval_labels(g: Magma) -> Magma:
    """Relabel every element x as [0,x]; the table is untouched."""
    if g.interval_labeled:
        return g
    return Magma(tuple(f"[0,{lbl}]" for lbl in g.elements), g.table, g.meta,
                 interval_labeled=True, identity=g.identity)


def build_loop(n: int, m: int, interval: bool = False) -> Magma:
    """The loop L_n(m) on {e, 1, ..., n}.

    e is the identity, i*i = e, and for distinct nonidentity i, j the
    product is (m*j - (m-1)*i) mod n written with representative in
    1..n (residue 0 stands for n). Requires n odd, n > 3, and both m
    and m-1 coprime to n with 1 < m < n.
    """
    if n <= 3 or n % 2 == 0:
        raise SpecError("n must be odd and > 3")
    if not 1 < m < n:
        raise SpecError("m must satisfy 1 < m < n")
    if math.gcd(m, n) != 1:
        raise SpecError("m must be coprime to n")
    if math.gcd(m - 1, n) != 1:
        raise SpecError("m-1 must be coprime to n")
    k = n + 1
    _admit(k)
    # column j of row i is residue (m*j - (m-1)*i) mod n, shown as n when
    # 0: the shown residues rotated by (m-1)*i, read at the residues m*j.
    # Row 0 and column 0 are the identity map, so e = 0 is the first
    # two-sided identity and no scan is needed.
    shown = [n, *range(1, n)]
    read = itemgetter(*[m * j % n for j in range(1, k)])
    table = [range(k)]
    for i in range(1, k):
        c = (m - 1) * i % n
        row = [i, *read(shown[-c:] + shown[:-c])]
        row[i] = 0
        table.append(row)
    labels = ["e"] + [str(i) for i in range(1, k)]
    return _finish(labels, table, CarrierMeta("loop", (n, m)), interval, 0)


def loop_parameters(n: int) -> list[int]:
    """All m making L_n(m) well defined, in increasing order."""
    if n <= 3 or n % 2 == 0:
        return []
    return [
        m
        for m in range(2, n)
        if math.gcd(m, n) == 1 and math.gcd(m - 1, n) == 1
    ]


def build_groupoid(n: int, t: int, u: int, interval: bool = False) -> Magma:
    """The groupoid Z_n(t, u): a * b = (t*a + u*b) mod n."""
    if n < 2:
        raise SpecError("groupoid modulus n must be >= 2")
    t %= n
    u %= n
    if t == 0 and u == 0:
        raise SpecError("t and u may not both be 0 mod n")
    _admit(n)
    table = [[(t * a + u * b) % n for b in range(n)] for a in range(n)]
    labels = [str(a) for a in range(n)]
    return _finish(labels, table, CarrierMeta("groupoid", (n, t, u)), interval)


def cyclic_group(k: int, interval: bool = False) -> Magma:
    if k < 1:
        raise SpecError("cyclic group order must be >= 1")
    _admit(k)
    table = [[(a + b) % k for b in range(k)] for a in range(k)]
    labels = ["e"] + [f"g{i}" for i in range(1, k)]
    return _finish(labels, table, CarrierMeta("cyclic", (k,)), interval)


def dihedral_group(m: int, interval: bool = False) -> Magma:
    """Dihedral group of order 2m: rotations r^i and reflections s r^i.

    Relations: s*s = e, r^m = e, r*s*r = s.
    """
    if m < 2:
        raise SpecError("dihedral parameter m must be >= 2")
    _admit(2 * m)
    elems = [(f, i) for f in (0, 1) for i in range(m)]
    index = {p: ix for ix, p in enumerate(elems)}

    def mul(p, q):
        f1, i1 = p
        f2, i2 = q
        return ((f1 + f2) % 2, ((i1 if f2 == 0 else -i1) + i2) % m)

    table = [[index[mul(p, q)] for q in elems] for p in elems]
    labels = [("s" if f else "e") if i == 0 else ("sr" if f else "r") + str(i)
              for f, i in elems]
    return _finish(labels, table, CarrierMeta("dihedral", (m,)), interval)


def symmetric_group(k: int, interval: bool = False) -> Magma:
    """All permutations of k points; (p*q)(x) = q(p(x))."""
    if not 1 <= k <= 6:
        raise SpecError("symmetric-group requires 1 <= k <= 6")
    _admit(math.factorial(k))
    perms = sorted(permutations(range(k)))
    index = {p: ix for ix, p in enumerate(perms)}
    table = [
        [index[tuple(q[p[x]] for x in range(k))] for q in perms] for p in perms
    ]
    labels = ["e"] + [f"p{i}" for i in range(1, len(perms))]
    return _finish(labels, table, CarrierMeta("symmetric-group", (k,)), interval)


def symmetric_semigroup(k: int, interval: bool = False) -> Magma:
    """All k^k self-maps of k points; (f*g)(x) = g(f(x)).

    The identity map is listed first, the remaining maps in
    lexicographic order.
    """
    if not 1 <= k <= 5:
        raise SpecError("symmetric-semigroup requires 1 <= k <= 5")
    # exempt from _admit: k <= 5 bounds its 3125^2 entries, and its rows
    # share one int per index (below)
    import numpy as np  # here, so that `isl table` never loads numpy

    n = k ** k
    # a map's code reads its values as a base-k numeral, so codes run in
    # lexicographic order; pos takes a code to its index in the listing
    weights = k ** np.arange(k - 1, -1, -1)
    ident = int(np.arange(k) @ weights)
    codes = np.concatenate(([ident], np.delete(np.arange(n), ident)))
    maps = codes[:, None] // weights % k
    pos = np.empty(n, dtype=np.intp)
    pos[codes] = np.arange(n)
    # one Python int per index, shared by the rows: a fresh int per entry
    # would take about 28 bytes more each, 275 MB at k = 5
    ints = np.arange(n).astype(object)
    table = [tuple(ints[pos[maps[:, f] @ weights]]) for f in maps]
    labels = ["e"] + [f"f{i}" for i in range(1, n)]
    return _finish(labels, table, CarrierMeta("symmetric-semigroup", (k,)), interval)


def mult_semigroup_zn(n: int, interval: bool = False) -> Magma:
    """Residues 0..n-1 under multiplication mod n, in residue order."""
    if n < 2:
        raise SpecError("mult-semigroup modulus n must be >= 2")
    _admit(n)
    table = [[(a * b) % n for b in range(n)] for a in range(n)]
    labels = [str(a) for a in range(n)]
    return _finish(labels, table, CarrierMeta("mult-semigroup", (n,)), interval)


def additive_group_zn(n: int, interval: bool = False) -> Magma:
    if n < 1:
        raise SpecError("additive-group modulus n must be >= 1")
    _admit(n)
    table = [[(a + b) % n for b in range(n)] for a in range(n)]
    labels = [str(a) for a in range(n)]
    return _finish(labels, table, CarrierMeta("additive-group", (n,)), interval)


def _is_prime(n: int) -> bool:
    return n == 2 or n > 2 and n % 2 == 1 and all(
        n % f for f in range(3, math.isqrt(n) + 1, 2))


def mult_group_zp(p: int, interval: bool = False) -> Magma:
    """Nonzero residues 1..p-1 under multiplication mod p (p prime)."""
    if not _is_prime(p):
        raise SpecError("p must be prime")
    _admit(p - 1)
    res = list(range(1, p))
    table = [[(a * b) % p - 1 for b in res] for a in res]
    labels = [str(a) for a in res]
    return _finish(labels, table, CarrierMeta("mult-group", (p,)), interval)


_STANDARD_BUILDERS = {
    "loop": (build_loop, ("n", "m")),
    "groupoid": (build_groupoid, ("n", "t", "u")),
    "cyclic": (cyclic_group, ("k",)),
    "dihedral": (dihedral_group, ("m",)),
    "symmetric-group": (symmetric_group, ("k",)),
    "symmetric-semigroup": (symmetric_semigroup, ("k",)),
    "mult-semigroup": (mult_semigroup_zn, ("n",)),
    "additive-group": (additive_group_zn, ("n",)),
    "mult-group": (mult_group_zp, ("p",)),
}


def carrier_kinds() -> list[str]:
    return sorted(_STANDARD_BUILDERS)


def build_carrier(kind: str, interval: bool = False, **params) -> Magma:
    """Build any carrier by kind name; used by the CLI and spec files."""
    if not isinstance(kind, str) or kind not in _STANDARD_BUILDERS:
        raise SpecError(
            f"unknown carrier kind {kind!r}; known: {carrier_kinds()}"
        )
    fn, names = _STANDARD_BUILDERS[kind]
    missing = [p for p in names if p not in params]
    if missing:
        raise SpecError(f"carrier kind {kind!r} requires parameters {list(names)}")
    unknown = set(params) - set(names)
    if unknown:
        raise SpecError(
            f"unknown parameters for carrier kind {kind!r}: {sorted(unknown)}"
        )
    for p in names:
        if type(params[p]) is not int:   # a JSON true is a bool, not 1
            raise SpecError(f"carrier parameter {p!r} must be an integer")
    args = [params[p] for p in names]
    return fn(*args, interval=interval)


def carrier_to_json(g: Magma) -> dict:
    return {
        "elements": list(g.elements),
        "table": [list(row) for row in g.table],
    }


def render_table(g: Magma) -> str:
    """Text grid: corner '*', header labels, one row per left factor."""
    rows = [["*"] + list(g.elements)]
    for i in range(g.order):
        rows.append([g.elements[i]] + [g.elements[g.table[i][j]] for j in range(g.order)])
    widths = [max(len(r[c]) for r in rows) for c in range(len(rows[0]))]
    lines = [
        "  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip()
        for row in rows
    ]
    return "\n".join(lines)
