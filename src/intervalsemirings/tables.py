"""Integer Cayley tables of finite semiring handles, and the element scans.

Every finite handle is a vector of n slots over a coefficient domain with q
elements, laid out by ``SemiringHandle._slots``: a domain is one slot, a
formal sum one slot per basis key, a matrix one slot per entry.  Both
operations act slot by slot through the domain operations: slot o of
x + y is x[o] + y[o], and slot o of x * y is the domain sum of x[l] * y[r]
over the slot pairs (l, r), row-major, whose unit product lands on o; a
slot no product lands on is zero.  A domain element's digit is its
position, ``domains.domain_position``: its payload a, or a * q_b + b for
a + bI over a base of q_b elements.  Element i is the slot vector whose
digits are the base-q digits of i, first slot most significant, which is
the order of ``SemiringHandle.elements()``; ``SemiringHandle.index`` and
``element_at`` convert by this arithmetic, so no compile enumerates.
Domain entries come from the domain's array kernel (``dom_kernel``),
fixed when the kernel is made: a read of the q x q domain table when that
table is no larger than a block, integer arithmetic on digit arrays
otherwise.  The object operations ``domains.dom_add`` and ``dom_mul`` are
the reference the kernels are tested against.

A table is computed a block at a time.  A side that covers every element
(all of a full table's columns) is not a list of indices but n broadcast
digit axes: slot l of every element is ``arange(q)`` on axis l.  Each
domain operation of a slot's sum then reads only the digits its terms have
involved so far.  On a group basis each term of a slot reads a new digit
axis, so the sizes of the running sum add up to at most q/(q-1) blocks a
slot, where explicit indices cost one block per term.

The scans below work on element indices and return index tuples in the
scan order each docstring states; ``analysis`` renders them.  The semiring
laws are checked by ``axiom_failure`` on any pair of k x k index tables,
and each semifield law is one mask over such a pair (``zero_sums``).
Subsets are checked on their local tables (:class:`Local`), restricted
from the compiled tables or, on a handle without them, from object tables
computed on demand; the subset searches (closures, semifield subsets, the
Smarandache searches) run on the same tables.
"""

import itertools

import numpy as np

from . import domains, laws
from .errors import SpecError

# Largest table (or block of one) a query may allocate, in bytes.
TABLE_BYTE_CAP = 1 << 26
# Entries of one computed block (explicit rows or columns times the
# broadcast digit axes), and so of every array a domain operation takes or
# returns while a table is built: about 64 KB of intp each.  The law scan
# (``laws.first_violation``) evaluates blocks of the same size.
_BLOCK_ENTRIES = laws._BLOCK_ENTRIES


class Tables:
    """Add/mul index tables of one finite handle, over elements() order.

    Domain entries come from the two array kernels of ``dom_kernel``, made
    with the tables and kept as they are.  Full k x k tables are built on
    the first query that needs random access to every entry and kept, and
    ``add`` and ``mul`` return them, as on a :class:`Local`; ``block``
    computes a few rows or columns without building the whole table.
    """

    def __init__(self, h):
        domain = h.domain
        keys, product = h._slots()
        self.n = len(keys)
        self.q = domains.domain_size(domain)
        self._kernel = {kind: dom_kernel(domain, kind)
                        for kind in ("add", "mul")}
        self.k = self.q ** self.n
        self.dtype = np.min_scalar_type(self.k - 1)
        self._place = [self.q ** (self.n - 1 - s) for s in range(self.n)]
        # the slot pairs (l, r) each output slot sums, row-major
        mul = [[] for _ in keys]
        for l, r in itertools.product(range(self.n), repeat=2):
            if (o := product(l, r)) is not None:
                mul[o].append((l, r))
        self._terms = {"add": [[(s, s)] for s in range(self.n)], "mul": mul}
        self._full = {}
        self.zero = h.index(h.zero)
        self._zero_digit = self.zero % self.q  # the zero is zero in every slot
        self.one = None if h.one is None else h.index(h.one)

    def _dom_op(self, kind, x, y):
        """Digits of x (kind) y in the coefficient domain, broadcasting."""
        return self._kernel[kind](np.asarray(x, dtype=np.intp),
                                  np.asarray(y, dtype=np.intp))

    def _digits(self, idx, m, trail):
        """Slot digits of the positions idx * q^m + t, t < q^m, as broadcast
        operands: the first n - m slots run along the axes of idx, the last
        m along one digit axis each, and ``trail`` unit axes follow."""
        pad = (1,) * trail
        lead = [(idx // self._place[s + m] % self.q).reshape(
            idx.shape + (1,) * m + pad) for s in range(self.n - m)]
        axes = [np.arange(self.q).reshape((-1,) + (1,) * (self.n - 1 - s) + pad)
                for s in range(self.n - m, self.n)]
        return lead + axes

    def _fold(self, kind, xs, ys, shape):
        """Indices of the elements with slot digits xs (kind) ys, of the
        given broadcast shape: slot o is the domain sum of xs[l] (kind)
        ys[r] over its terms (l, r), in row-major order."""
        out = np.zeros(shape, dtype=np.intp)
        for terms, place in zip(self._terms[kind], self._place):
            acc = self._zero_digit
            for m, (l, r) in enumerate(terms):
                term = self._dom_op(kind, xs[l], ys[r])
                acc = term if m == 0 else self._dom_op("add", acc, term)
            out += acc * place
        return out

    def op(self, kind, I, J):
        """Indices of elements()[I] (kind) elements()[J], broadcasting I, J."""
        I = np.asarray(I, dtype=np.intp)
        J = np.asarray(J, dtype=np.intp)
        return self._fold(kind, self._digits(I, 0, 0), self._digits(J, 0, 0),
                          np.broadcast_shapes(I.shape, J.shape))

    def full(self, kind):
        """The k x k table of ``kind``, built on first use and kept."""
        table = self._full.get(kind)
        if table is None:
            self.check_table(kind, self.k, self.k)
            every = np.arange(self.k)
            table = self._full[kind] = self._compute(kind, every, every)
        return table

    add = property(lambda self: self.full("add"))
    mul = property(lambda self: self.full("mul"))

    def block(self, kind, rows, cols):
        """Table entries at rows x cols, without building the full table."""
        table = self._full.get(kind)
        if table is not None:
            return table[rows[:, None], cols]
        return self._compute(kind, rows, cols)

    def check_table(self, kind, m, n):
        """Refuse an m x n table of ``kind`` over the byte cap."""
        _check_bytes(f"a {m}x{n} {kind} table", self.k,
                     m * n * self.dtype.itemsize)

    def _compute(self, kind, rows, cols):
        """Entries at rows x cols, at most _BLOCK_ENTRIES of them at a time.

        A side asking for at least half the elements (the columns first) is
        computed for every element and the asked-for ones are sliced out:
        its last m slots run as digit axes, q^m positions per unit, so each
        domain operation of a term reads only the digits it involves.
        Otherwise both sides are explicit indices (m = 0).
        """
        self.check_table(kind, len(rows), len(cols))
        out = np.empty((len(rows), len(cols)), dtype=self.dtype)
        m = 0
        while m < self.n and self.q ** (m + 1) <= _BLOCK_ENTRIES:
            m += 1
        left = 2 * len(cols) < self.k <= 2 * len(rows)
        wide, narrow = (rows, cols) if left else (cols, rows)
        if 2 * len(wide) < self.k:
            m = 0
        span, axes = self.q ** m, (self.q,) * m
        units = np.arange(self.k // span) if m else wide
        per = _BLOCK_ENTRIES // span
        for u0 in range(0, len(units), per):
            u = units[u0:u0 + per]
            if m:   # the asked-for positions among this run of units
                lo = u[0] * span
                sel = np.flatnonzero((wide >= lo) & (wide < lo + u.size * span))
                at = wide[sel] - lo
            else:
                sel, at = slice(u0, u0 + per), slice(None)
            step = max(1, _BLOCK_ENTRIES // (u.size * span))
            for e0 in range(0, len(narrow), step):
                e = narrow[e0:e0 + step]
                if left:
                    b = self._fold(kind, self._digits(u, m, 1),
                                   self._digits(e, 0, 0),
                                   (u.size,) + axes + (e.size,))
                    out[sel, e0:e0 + step] = b.reshape(-1, e.size)[at]
                else:
                    b = self._fold(kind, self._digits(e, 0, m + 1),
                                   self._digits(u, m, 0),
                                   (e.size, u.size) + axes)
                    out[e0:e0 + step, sel] = b.reshape(e.size, -1)[:, at]
        return out

    def nonzero(self):
        """Indices of the nonzero elements, in order."""
        return np.delete(np.arange(self.k), self.zero)


def dom_kernel(d, kind):
    """The domain operation ``kind`` ("add" or "mul") of the finite domain d
    on digit arrays: f(x, y) is the digit of x (kind) y, broadcasting, where
    a digit is a domain position (``domains.domain_position``).

    One rule, applied here once: when the q x q table of d has at most
    ``_BLOCK_ENTRIES`` entries and fits ``TABLE_BYTE_CAP``, f reads that
    table, built now with the arithmetic; otherwise f is the arithmetic.
    A neutrosophic domain takes the kernels of its base through the same
    call.  Both compute in intp, never with objects; ``domains.dom_add``
    and ``dom_mul`` stay the reference.
    """
    f = _arithmetic(d, kind)
    q = domains.domain_size(d)
    if q * q > min(_BLOCK_ENTRIES, TABLE_BYTE_CAP // np.intp(0).itemsize):
        return f
    every = np.arange(q)
    table = f(every[:, None], every)
    return lambda x, y: table[x, y]


def _arithmetic(d, kind):
    """The integer arithmetic of ``dom_kernel(d, kind)``.  A zn product is
    exact: ``SemiringHandle.tables`` admits q <= 2^20, and the idempotent
    patterns of ``analysis`` refuse digit arrays past the byte cap, so
    q < 2^22 and (q - 1)^2 < 2^44.  The digit of a + bI over a base of q_b
    elements is a * q_b + b."""
    add = kind == "add"
    if d.kind == domains.ZN:
        n = d.n
        return (lambda x, y: (x + y) % n) if add else (lambda x, y: x * y % n)
    if d.kind == domains.CHAIN:
        return np.maximum if add else np.minimum
    if d.kind == domains.TABLE:
        table = np.array(d.join if add else d.meet, dtype=np.intp)
        return lambda x, y: table[x, y]
    if d.kind == domains.NEUTRO_PURE:   # aI (kind) cI = (a (kind) c)I
        return dom_kernel(d.base, kind)
    q = domains.domain_size(d.base)
    plus, times = dom_kernel(d.base, "add"), dom_kernel(d.base, "mul")

    def mixed(x, y):
        (a, b), (c, e) = np.divmod(x, q), np.divmod(y, q)
        if add:
            return plus(a, c) * q + plus(b, e)
        # (a + bI)(c + eI) = ac + (ae + bc + be)I
        return times(a, c) * q + plus(plus(times(a, e), times(b, c)),
                                      times(b, e))
    return mixed


def _check_bytes(what, k, nbytes):
    """Refuse, before allocating, anything over the table byte cap."""
    if nbytes > TABLE_BYTE_CAP:
        raise SpecError(f"{what} over {k} elements needs {nbytes} bytes, "
                        f"above the {TABLE_BYTE_CAP}-byte table cap")


def _take(n, budget):
    """How many of n scan steps a budget admits (all of them without one)."""
    return n if budget is None else min(n, max(budget, 0))


def _pair_scan(m, budget):
    """(scanned, total, rows) of a row-major scan over the pairs (i, j),
    i <= j < m, within a budget; rows is how many rows it enters."""
    total = m * (m + 1) // 2
    scanned = _take(total, budget)
    r = np.arange(m)
    # row r starts after r*m - r*(r-1)/2 pairs
    rows = int(np.count_nonzero(r * m - r * (r - 1) // 2 < scanned))
    return scanned, total, rows


def _reached(m, rows, scanned):
    """reached[i, j] for i < rows: pair (i, j) is among the first scanned."""
    r = np.arange(m)
    i = r[:rows, None]
    # row i holds pairs (i, i), (i, i + 1), ... up to the budget
    return (r >= i) & (r < i + scanned - (i * m - i * (i - 1) // 2))


def _first(mask):
    """Row-major first True position of a 2-D mask, or None."""
    i = int(mask.argmax()) if mask.size else 0
    if not mask.size or not mask.flat[i]:
        return None
    return divmod(i, mask.shape[1])


def zero_divisors(t, budget=None):
    """([(kind, x, y)], scanned, exhaustive) of the zero-divisor pair scan.

    Pairs x <= y of nonzero elements in row-major order; a two-sided pair
    is reported larger index first, a one-sided one in its vanishing order.
    """
    nz = t.nonzero()
    scanned, total, nrows = _pair_scan(len(nz), budget)
    if budget is None:   # the scan reaches every pair: the full table
        t.check_table("mul", t.k, t.k)
    # the reached rows in both orders and about three masks derived from them
    _check_bytes("zero-divisor masks", t.k, 5 * nrows * len(nz))
    if budget is None:
        t.full("mul")   # build and keep it once both fit
    rows = nz[:nrows]
    xy = t.block("mul", rows, nz) == t.zero
    yx = t.block("mul", nz, rows).T == t.zero
    reached = _reached(len(nz), nrows, scanned)
    out = []
    for i, j in zip(*np.nonzero(reached & (xy | yx))):
        x, y = int(rows[i]), int(nz[j])
        if xy[i, j] and yx[i, j]:
            out.append(("zero-divisor", y, x))
        elif xy[i, j]:
            out.append(("one-sided-zero-divisor", x, y))
        else:
            out.append(("one-sided-zero-divisor", y, x))
    return out, scanned, scanned == total


def idempotents(t):
    """([x with x*x = x], scanned)."""
    every = np.arange(t.k)
    return np.flatnonzero(t.op("mul", every, every) == every).tolist(), t.k


def units(t):
    """([(x, first two-sided inverse of x)], scanned)."""
    _check_bytes("unit masks", t.k, 3 * t.k * t.k)
    mul = t.full("mul")
    inverse = (mul == t.one) & (mul.T == t.one)
    has = inverse.any(axis=1)
    first = inverse.argmax(axis=1)
    scanned = int(np.where(has, first + 1, t.k).sum())
    return [(int(x), int(first[x])) for x in np.flatnonzero(has)], scanned


def nilpotents(t, max_index):
    """([(x, index)], scanned): left-nested powers of nonzero x up to
    max_index, each x stopping at its first zero power."""
    nz = t.nonzero()
    power = nz.copy()
    index = np.zeros(len(nz), dtype=np.intp)
    live = np.arange(len(nz))
    scanned = 0
    for idx in range(2, max_index + 1):
        scanned += len(live)
        power[live] = t.op("mul", power[live], nz[live])
        dead = power[live] == t.zero
        index[live[dead]] = idx
        live = live[~dead]
    return [(int(nz[i]), int(index[i])) for i in np.flatnonzero(index)], \
        scanned


def _zero_products(t):
    """Nonzero indices nz and three masks over them: z[i, j] where
    nz[i] * nz[j] = 0, either = z | z.T, and apart[i, j] where i != j and
    nz[i] * nz[j] or nz[j] * nz[i] is nonzero."""
    nz = t.nonzero()
    z = (t.full("mul")[nz] == t.zero)[:, nz]
    apart = ~(z & z.T)
    np.fill_diagonal(apart, False)
    return nz, z, z | z.T, apart


def _without(mask, *cols):
    """mask, one row per anchor, with column cols[c][r] of row r cleared."""
    for c in cols:
        mask[np.arange(len(mask)), c] = False
    return mask


def _first_pairs(n, k, X, Y, row):
    """(u, v) of each of n anchors p: the row-major first pair with X[p, u],
    Y[p, v] and row(p, u)[v], or (-1, -1).  X(ps) and Y(ps) are the
    (len(ps) x k) candidate masks of the anchors ps, row(ps, us) the masks
    of the partners v of candidate us[i] of anchor ps[i].

    Anchors go in blocks of ``_BLOCK_ENTRIES // k``.  A round gathers the
    partners of the untried candidates below rank 2, 4, 8, ... of every
    open anchor of a block at once, in at most max(k, 4 * block) rows (a
    k x k mask, or four blocks of entries), the first anchors' first; the
    candidates cut off stay below the next rank.
    """
    first = np.full((2, n), -1, dtype=np.intp)
    step = max(1, _BLOCK_ENTRIES // max(k, 1))
    for lo in range(0, n, step):
        ps = np.arange(lo, min(lo + step, n))
        xs, ys, below = X(ps), Y(ps), 2
        rank = np.cumsum(xs, axis=1)   # u is candidate rank[p, u] of p
        while xs.any():   # xs: the candidates not yet tried
            i, u = np.divmod(np.flatnonzero(xs & (rank < below))
                             [:max(k, 4 * step)], k)
            hit = row(ps[i], u) & ys[i]
            good = np.flatnonzero(hit.any(axis=1))
            good = good[np.diff(i[good], prepend=-1) != 0]   # first per p
            first[:, ps[i[good]]] = u[good], hit[good].argmax(axis=1)
            xs[i, u] = False
            xs[i[good]] = False
            below *= 2
    return first


def s_zero_divisors(t, budget=None):
    """([(a, b, x, y)], scanned, exhaustive) over anchor pairs a <= b.

    An anchor with a zero product in some order is oriented so a*b = 0; its
    certificate is the row-major first pair (x, y) of elements outside
    {a, b}, x != y, with a*x or x*a zero, b*y or y*b zero, and x*y or y*x
    nonzero (so an x with no such y is passed over).
    """
    # z, its gathered block, either, and z & z.T before it is negated
    _check_bytes("s-zero-divisor masks", t.k, 4 * (t.k - 1) ** 2)
    nz, z, either, apart = _zero_products(t)
    scanned, total, nrows = _pair_scan(len(nz), budget)
    a, b = np.nonzero(_reached(len(nz), nrows, scanned) & either[:nrows])
    flip = ~z[a, b]
    a[flip], b[flip] = b[flip], a[flip]
    xy = _first_pairs(len(a), len(nz),
                      lambda ps: _without(either[a[ps]], a[ps], b[ps]),
                      lambda ps: _without(either[b[ps]], a[ps], b[ps]),
                      lambda ps, u: apart[u])
    certs = nz[np.vstack([a, b, xy])[:, xy[0] >= 0]]
    return list(map(tuple, certs.T.tolist())), scanned, scanned == total


def s_anti_zero_divisors(t, budget=None):
    """([(x, y, a, b)], scanned, exhaustive) over nonzero anchors x.

    The certificate is the row-major first pair (y, a) with y != x, x*y
    nonzero, a outside {x, y}, a*x or x*a nonzero, and some b outside
    {x, y} with b*y or y*b nonzero and a*b or b*a zero; b is the first such.
    """
    m = t.k - 1
    # the two operands of the count matmul, cast to intp, and its product
    _check_bytes("the s-anti-zero-divisor count matrices", t.k,
                 3 * m * m * np.dtype(np.intp).itemsize)
    nz, z, either, b_of = _zero_products(t)   # b_of[y, b]: b apart from y
    # reach[y, a]: how many b of b_of[y] have a*b or b*a zero, up to two (so
    # whether one is left besides x), and none for a = y
    reach = np.minimum(b_of.astype(np.intp) @ either.astype(np.intp), 2)
    reach = reach.astype(np.int8) * ~np.eye(m, dtype=bool)
    scanned = _take(m, budget)
    # y: x*y nonzero, y != x, and some a of reach[y] (else no a can do)
    live = reach.any(axis=1)
    y, a = _first_pairs(
        scanned, m, lambda xs: _without(~z[xs] & live, xs),
        lambda xs: b_of[xs],
        lambda xs, ys: reach[ys] - (b_of[ys, xs][:, None] & either[xs]) > 0)
    x = np.flatnonzero(y >= 0)
    y, a = y[x], a[x]
    b = _without(b_of[y] & either[a], x).argmax(axis=1) if m else x
    certs = nz[np.vstack([x, y, a, b])]
    return list(map(tuple, certs.T.tolist())), scanned, scanned == m


def s_idempotents(t, budget=None):
    """([(a, b)], scanned, exhaustive) over nonzero anchors a.

    a*a = a with a not the one; b is the first of the nonzero elements, then
    zero, with b != a, b*b = a and exactly one of (a*b = b or b*a = b) and
    (b*a = a or a*b = a).  Each b is tested once, against a = b*b.
    """
    mul = t.full("mul")
    nz = t.nonzero()
    scanned = _take(len(nz), budget)
    anchor = np.zeros(t.k, dtype=bool)
    anchor[nz[:scanned]] = True
    b = np.append(nz, t.zero)
    a = np.diagonal(mul)[b]
    ab, ba = mul[a, b], mul[b, a]
    ok = anchor[a] & (mul[a, a] == a) & (a != t.one) & (b != a) \
        & (((ab == b) | (ba == b)) != ((ba == a) | (ab == a)))
    a, b = a[ok], b[ok]
    first = np.unique(a, return_index=True)[1]   # each a's first b
    return list(zip(a[first].tolist(), b[first].tolist())), scanned, \
        scanned == len(nz)


def s_units(t, budget=None):
    """([(x, y, a, b)], scanned, exhaustive) over anchors x other than one.

    y is the first two-sided inverse of x; (a, b) is the row-major first
    pair of elements outside {x, y, 1} with x*a or a*x equal to y, y*b or
    b*y equal to x, and a*b or b*a equal to 1.

    Accepting only x*a = y finds the same certificates wherever that has
    been checked.  On an associative handle x*a = y and a*x = y both say
    a = y*y.  Over chain(2) the units of a loop semiring are its basis
    elements g, each its own inverse, and g*a = g or a*g = g only for
    a = 1.  The loop semirings of L_5(m), L_7(m) and L_9(m) over zn(2) are
    not associative, and anchors of L_9(m) have an a that solves one side
    only, but no such a is paired with a b.
    """
    _check_bytes("s-unit masks", t.k, 3 * t.k * t.k)
    mul = t.full("mul")
    one = mul == t.one
    inverse = one & one.T
    either = one | one.T
    anchors = np.delete(np.arange(t.k), t.one)
    scanned = _take(len(anchors), budget)
    x = anchors[:scanned]
    x = x[inverse.any(axis=1)[x]]
    y = inverse.argmax(axis=1)[x]

    def sends(s, d):   # c outside {x, y, 1} with s*c or c*s equal to d
        return lambda ps: _without((mul[s[ps]] == d[ps, None])
                                   | (mul[:, s[ps]].T == d[ps, None]),
                                   x[ps], y[ps], t.one)
    ab = _first_pairs(len(x), t.k, sends(x, y), sends(y, x),
                      lambda ps, u: either[u])
    certs = np.vstack([x, y, ab])[:, ab[0] >= 0]
    return list(map(tuple, certs.T.tolist())), scanned, scanned == len(anchors)


# The semifield laws, each one mask over the tables t (Tables or a Local):
# three over pairs (x, y), true where the law fails, and the identities.
# ``semifield_failure`` reads a pair mask's upper triangle row-major;
# ``classify`` reads strictness and zero products as (y, x), x <= y.


def zero_sums(t):
    """m[x, y]: x + y = 0, (x, y) other than (0, 0)."""
    m = t.add == t.zero
    m[t.zero, t.zero] = False
    return m


def noncommuting(t):
    """m[x, y]: x*y != y*x."""
    return t.mul != t.mul.T


def zero_products(t):
    """m[x, y]: nonzero x and y with x*y = y*x = 0."""
    m = (t.mul == t.zero) & (t.mul.T == t.zero)
    m[t.zero, :] = m[:, t.zero] = False
    return m


def identities(t):
    """m[e]: e*x = x*e = x for every x."""
    every = np.arange(t.k)
    return ((t.mul == every) & (t.mul.T == every)).all(axis=1)


def zero_sum_pair(t):
    """The least (y, x), x <= y, other than (0, 0), with x + y = 0, or None."""
    # the sum table's mask and its lower triangle
    _check_bytes("strictness masks", t.k, 2 * t.k * t.k)
    return _first(np.tril(zero_sums(t).T))


def classify(t):
    """(strict, commutative, has_one, zero_divisor_free) witnesses by index.

    strict: the least (y, x), x <= y, other than (0, 0), with x + y = 0;
    commutative: the row-major first x < y with x*y != y*x; has_one:
    whether some element is a two-sided identity (a bool);
    zero_divisor_free: the least (y, x), nonzero x <= y, with x*y = y*x = 0.
    Each witness is None when its law holds.
    """
    # about five k x k boolean masks are alive at once
    _check_bytes("classification masks", t.k, 5 * t.k * t.k)
    return (zero_sum_pair(t), _first(np.triu(noncommuting(t))),
            bool(identities(t).any()), _first(np.tril(zero_products(t).T)))


# The laws axiom_failure checks, in order: (law, arity, holds, report),
# where holds(add, mul, zero, one, *xs) takes index arrays and report
# orders the scanned indices of a violation as its witness.  Right
# distributivity is scanned in (y, z, x) order and reported as (x, y, z),
# so report[-1] of an arity-3 law is the argument slot of z; the laws of
# one come last, and tables without one stop before them.
_AXIOMS = (
    ("zero-identity", 1, lambda A, M, e, u, x: A[e, x] == x, (0,)),
    ("zero-identity", 1, lambda A, M, e, u, x: A[x, e] == x, (0,)),
    ("addition-not-commutative", 2,
     lambda A, M, e, u, x, y: A[x, y] == A[y, x], (0, 1)),
    ("addition-not-associative", 3,
     lambda A, M, e, u, x, y, z: A[A[x, y], z] == A[x, A[y, z]], (0, 1, 2)),
    ("not-left-distributive", 3,
     lambda A, M, e, u, x, y, z: M[x, A[y, z]] == A[M[x, y], M[x, z]],
     (0, 1, 2)),
    ("not-right-distributive", 3,
     lambda A, M, e, u, y, z, x: M[A[y, z], x] == A[M[y, x], M[z, x]],
     (2, 0, 1)),
    ("zero-absorption", 1, lambda A, M, e, u, x: M[e, x] == e, (0,)),
    ("zero-absorption", 1, lambda A, M, e, u, x: M[x, e] == e, (0,)),
    ("one-identity", 1, lambda A, M, e, u, x: M[u, x] == x, (0,)),
    ("one-identity", 1, lambda A, M, e, u, x: M[x, u] == x, (0,)),
)


def axiom_failure(add, mul, zero, one, axioms=_AXIOMS):
    """The first semiring law that the k x k index tables add and mul break,
    as (law, *indices), or None: the laws of ``axioms`` (``_AXIOMS`` or a
    run of its entries) in order, the identity laws of one only when one
    is not None.  add may be None when only the laws of one are given.

    The three arity-3 laws are first checked with their z slot running
    over an additive generating set only (``laws.first_violation`` has
    the argument), built only when one of them is asked for; the
    distributive laws come after additive associativity, which their
    argument needs, so a run that holds them starts no later than it.
    The indices are the lexicographically first violation in scan order,
    permuted by the law's report.
    """
    k = len(mul)
    gens = laws.generators(laws._gathers([add]), k, [zero, *range(k)]) \
        if any(arity == 3 for _, arity, _, _ in axioms) else None
    reads = (None if add is None else laws.LawTable(add), laws.LawTable(mul),
             zero, one)
    for law, arity, holds, report in axioms:
        if law == "one-identity" and one is None:
            break
        bad = laws.first_violation(range(k), arity,
                                   lambda *xs: holds(*reads, *xs),
                                   gens, report[-1])
        if bad:
            return (law, *(bad[i] for i in report))
    return None


# ---------------------------------------------------------------------------
# subsets: local tables, the subset-law scans, closures and searches


class Local:
    """Add/mul tables of a subset of k members in ascending element order.

    Entry [i, j] is the position of member i (op) member j among the
    members, or k where it leaves the subset; zero is the position of the
    handle's zero, or None when it is not a member.
    """

    def __init__(self, add, mul, zero):
        self.add, self.mul, self.zero = add, mul, zero
        self.k = len(add)

    def block(self, kind, rows, cols):
        table = self.add if kind == "add" else self.mul
        return table[rows[:, None], cols]


def local_dtype(t, m):
    """The entry type of the local tables of m members of t, after
    refusing them if they, with what a scan derives, would pass the cap."""
    dtype = np.min_scalar_type(m)
    # two local tables, and the larger of the block each is gathered from
    # (at most 4 bytes an entry) and the three masks a subset scan holds
    _check_bytes(f"the local tables of {m} members", t.k,
                 (2 * dtype.itemsize + 4) * m * m)
    return dtype


def restrict(t, idx):
    """Local tables of the members idx, distinct positions in t (the
    compiled tables or a Local, or any k, zero and block), in that order."""
    idx = np.asarray(idx, dtype=np.intp)
    m = len(idx)
    # position of every index of t among the members; the extra last entry
    # is what an outside entry of a Local reads
    pos = np.full(t.k + 1, m, dtype=local_dtype(t, m))
    pos[idx] = np.arange(m)
    zero = None if t.zero is None or pos[t.zero] == m else int(pos[t.zero])
    return Local(pos[t.block("add", idx, idx)], pos[t.block("mul", idx, idx)],
                 zero)


def first_unclosed(s):
    """Row-major first (law, i, j) whose sum or product leaves the subset,
    addition checked before multiplication at each pair."""
    out = s.add == s.k
    hit = _first(out | (s.mul == s.k))
    if hit is None:
        return None
    law = "addition" if out[hit] else "multiplication"
    return (f"not-closed-under-{law}",) + hit


def semifield_failure(s):
    """The first failing semifield law of a subset as (law, positions...):
    zero, size, closure, strictness, commutativity, an identity and zero
    divisors, in that order; None when the subset is a semifield."""
    if s.zero is None:
        return ("missing-zero",)
    if s.k < 2:
        return ("trivial",)
    w = first_unclosed(s)
    if w is not None:
        return w
    for law, mask in (("not-strict", zero_sums),
                      ("not-commutative", noncommuting)):
        w = _first(np.triu(mask(s)))
        if w is not None:
            return (law,) + w
    if not identities(s).any():
        return ("no-internal-identity",)
    w = _first(np.triu(zero_products(s)))
    return None if w is None else ("zero-divisor",) + w


def semifields(t, mode, top, pairs=True):
    """(semifield subsets of at most top elements, by size then positions;
    scanned) of t (the compiled tables or a Local): the closed subsets
    with 0 that ``laws.substructures`` finds in mode and that pass
    ``semifield_failure``, read from masks made once: a closed c with 0
    passes when it has two members, ``bad`` holds no pair of c, and some e
    in c has e*x = x for every x in c (so x*e too, as c commutes)."""
    # at most four k x k boolean masks are alive at once
    _check_bytes("semifield masks", t.k, 4 * t.k * t.k)
    found, scanned = laws.substructures([t.add, t.mul], (t.zero,), mode,
                                        top, pairs)
    bad = np.triu(zero_sums(t)) | noncommuting(t) | zero_products(t)
    no_id = t.mul != np.arange(t.k)

    def passes(c):
        i = np.array(c)
        return not bad[i[:, None], i].any() and \
            not no_id[i[:, None], i].any(axis=1).all()
    return [c for c in found if len(c) > 1 and passes(c)], scanned


def semifield_subsets(s):
    """Semifield closures inside a subset with zero, as position tuples
    ordered by size then positions (see ``semifields``)."""
    return [] if s.zero is None else semifields(s, "generated", s.k)[0]


def s_subsemiring(s):
    """The first proper semifield subset of a closed subset with zero, as
    positions, or None (also when the subset is not closed or lacks 0)."""
    if s.zero is None or first_unclosed(s) is not None:
        return None
    return next((c for c in semifield_subsets(s) if len(c) < s.k), None)


def first_not_absorbing(t, idx, left=True, right=True, into=None):
    """First (law, x, y) with s over every element of t (the compiled
    tables or a Local), then p over the member indices idx: s*p leaving
    into (the members by default; left) before p*s (right)."""
    idx = np.asarray(idx, dtype=np.intp)
    every = np.arange(t.k)
    # the extra False entry is what an outside entry of a Local reads
    target = np.zeros(t.k + 1, dtype=bool)
    target[idx if into is None else list(into)] = True
    bad_left = ~target[t.block("mul", every, idx)] if left else False
    bad_right = ~target[t.block("mul", idx, every).T] if right else False
    hit = _first(bad_left | bad_right)
    if hit is None:
        return None
    x, p = hit[0], int(idx[hit[1]])
    if left and bad_left[hit]:
        return ("not-absorbing-left", x, p)
    return ("not-absorbing-right", p, x)
