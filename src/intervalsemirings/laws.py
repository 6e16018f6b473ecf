"""Identity laws and closed subsets of finite magmas, on Cayley tables.

The engine under the carrier checks (``check_laws``, ``loop_law_summary``,
``enumerate_substructures``) and under the semiring tables (``tables``):
``first_violation`` scans a vectorised law over index arrays in row blocks,
``closure`` closes a seed under gathers of index tables, and
``closed_sets`` (Close-by-One) and ``generated_closures`` enumerate closed
subsets.  Every magma law check, witness re-checks included, reads the
numpy table ``_cayley(g)``.  The carriers themselves are built in
``carriers``; only a command that checks laws or searches subsets loads
this module, and with it numpy.
"""

from __future__ import annotations

import math
from itertools import compress, groupby
from typing import Optional

import numpy as np

from .carriers import Magma
from .errors import Frozen, SpecError


class LawProfile(Frozen):
    """Identity laws of one finite magma, each decided exactly;
    associativity on a generating set (``first_violation``), and the laws
    it implies by associativity when it holds (``_law_witnesses``).

    Exact identities tested (x, y, z range over all elements):

    - commutative: x*y = y*x
    - associative: (x*y)*z = x*(y*z)
    - latin_square: every row and every column is a permutation
    - has_identity: some e with e*x = x*e = x
    - moufang: (x*y)*(z*x) = (x*(y*z))*x
    - left_bol: x*(y*(x*z)) = (x*(y*x))*z
    - right_bol: ((x*y)*z)*y = x*((y*z)*y)
    - wip: (x*y)*z = e exactly when x*(y*z) = e (False without identity)
    - left_alternative: (x*y)*y = x*(y*y)
    - right_alternative: x*(x*y) = (x*x)*y
    - p_groupoid: (x*y)*x = x*(y*x)
    - idempotent_law: x*x = x
    - smarandache: the magma contains a proper closed subset of at least
      two elements on which * is associative (trivial singletons do not
      count); decided exactly by scanning closures of all singles and
      pairs

    ``witnesses`` holds, for each False law, the first violating index
    tuple in lexicographic scan order; for smarandache it instead holds
    the certifying subset when the flag is True.
    """

    __slots__ = _fields = (
        "commutative", "associative", "latin_square", "has_identity",
        "moufang", "left_bol", "right_bol", "wip", "left_alternative",
        "right_alternative", "p_groupoid", "idempotent_law", "smarandache",
        "witnesses")

    def __init__(self, commutative: bool, associative: bool,
                 latin_square: bool, has_identity: bool, moufang: bool,
                 left_bol: bool, right_bol: bool, wip: bool,
                 left_alternative: bool, right_alternative: bool,
                 p_groupoid: bool, idempotent_law: bool, smarandache: bool,
                 witnesses: Optional[dict] = None):
        self._fill(commutative, associative, latin_square, has_identity,
                   moufang, left_bol, right_bol, wip, left_alternative,
                   right_alternative, p_groupoid, idempotent_law, smarandache,
                   {} if witnesses is None else witnesses)


def _w_latin(t):
    """First repeated entry of the square index array t along a row, as
    (0, x, earlier y, y), else along a column, as (1, earlier x, x, y);
    None when every row and column is a permutation.

    Sorting finds the first row with a repeat.  Sorted stably, a repeat of
    that row sits right after an equal entry from an earlier position; the
    least later position is the first repeat a left-to-right scan meets,
    and its value occurs once before it, at the position sorted just
    ahead of it.
    """
    for kind, m in enumerate((t, t.T)):
        rows = np.flatnonzero(_repeats(m))
        if len(rows):
            r = int(rows[0])
            order = np.argsort(m[r], kind="stable")
            same = m[r, order[1:]] == m[r, order[:-1]]
            i = np.argmin(np.where(same, order[1:], len(m)))
            y0, y = int(order[i]), int(order[i + 1])
            return (0, r, y0, y) if kind == 0 else (1, y0, y, r)
    return None


def _repeats(m):
    """Whether each row (last axis) of m repeats an entry, found by sorting."""
    s = np.sort(m, axis=-1)
    return (s[..., 1:] == s[..., :-1]).any(axis=-1)


# Entries of a block of a law scan, a table compile (``tables``) or the
# check in ``closed_sets``: numpy's take copies a uint8 or uint16 index
# array to intp, so each array a block reads or makes stays about 64 KB.
_BLOCK_ENTRIES = 1 << 13


class _Axis:
    """One axis of a ``first_violation`` block: the index array ``a``,
    which varies along dimension ``dim`` only, and ``run``, the slice of
    table rows that its indices are when they are consecutive, else None.

    numpy reads an _Axis as the array ``a``, so a law over plain numpy
    tables evaluates as it would on index arrays; a ``LawTable`` reads a
    run as a view.
    """

    __slots__ = ("a", "dim", "run", "ndim")

    def __init__(self, a, dim, run):
        self.a, self.dim, self.run, self.ndim = a, dim, run, a.ndim

    def __array__(self, dtype=None, copy=None):
        a = self.a if dtype is None else self.a.astype(dtype)
        return a.copy() if copy else a


def _along(o, d):
    """Whether the 2-d operand o varies along dimension d at most."""
    if isinstance(o, _Axis):
        return o.ndim == 2 and o.dim == d
    return o.ndim == 2 and o.shape[1 - d] == 1


def _arr(o):
    """The index array of operand o."""
    return o.a if isinstance(o, _Axis) else o


def _pick(v, o, axis):
    """The entries of v at the indices of o along axis: 0 of a vector v,
    in o's shape; 1 of a block of rows, one column per index of o."""
    run = getattr(o, "run", None)
    if axis == 1:
        if run is not None:
            return v[:, run]
        return v.take(_arr(o).reshape(-1), axis=1)
    if run is not None:
        return v[run].reshape(o.a.shape)
    return v.take(_arr(o))


class LawTable:
    """A square index table t, read as ``t[a, b]`` by a law in
    ``first_violation``, where a and b are indices, index arrays or the
    scan's axes; each read returns what numpy's ``t[a, b]`` would.

    A 2-d fancy gather costs several times a view or a 1-d take per entry,
    so each read takes the cheapest route its operands allow: a row or a
    column of t where one is a scalar; a view of t where both are runs
    of the scan's axes; a take of the rows of a, then of the columns of b,
    where a varies down the block and b across it; otherwise one take from
    the flat table, its index widened to intp so that the row offsets of a
    uint8 or uint16 table cannot overflow.
    """

    __slots__ = ("t", "flat")

    def __init__(self, t):
        self.t, self.flat = t, t.reshape(-1)

    def __getitem__(self, ab):
        a, b = ab
        t = self.t
        if getattr(a, "ndim", 0) == 0:
            return t[a, b] if getattr(b, "ndim", 0) == 0 else _pick(t[a], b, 0)
        if getattr(b, "ndim", 0) == 0:
            return _pick(t[:, b], a, 0)
        ra, rb = getattr(a, "run", None), getattr(b, "run", None)
        if _along(a, 0) and _along(b, 1):
            rows = t[ra] if ra is not None \
                else t.take(_arr(a).reshape(-1), axis=0)
            return _pick(rows, b, 1)
        if ra is not None and rb is not None and a.dim == 1 and b.dim == 0:
            return t[ra, rb].T
        return self.flat.take(np.multiply(a, len(t), dtype=np.intp) + b)


def first_violation(indices, arity, holds, gens=None, slot=None):
    """Lexicographically first index tuple over ``indices`` where a law fails.

    ``holds`` is a vectorised predicate: it takes ``arity`` integer index
    arrays that broadcast against each other and returns a boolean array.
    The scan fixes the arguments before the last two, one tuple at a time
    in order, and evaluates the last two over the grid of indices in row
    blocks of at most ``_BLOCK_ENTRIES`` entries (but at least one row);
    arity 1 runs over the indices in blocks of that many.  So memory stays
    O(block) beyond the tables, and the scan stops at the first failing
    block.  The grid's arguments are ``_Axis`` objects, which numpy reads
    as index arrays of shapes (rows, 1) and (1, k), or (rows,) at arity 1,
    and which a ``LawTable`` reads as views of its table where it can; a
    law evaluates the same on plain numpy tables.  Returns None when
    ``holds`` is True everywhere.

    With ``gens``, an arity-3 law is first checked with only gens in
    argument ``slot`` (Light's associativity test, Clifford & Preston, The
    Algebraic Theory of Semigroups I, 1961, 1.2), at O(k^2 |gens|) reads.
    Call a good when the law holds whatever fills the other slots.  The
    caller vouches that gens generate ``indices`` under operations that
    keep the good elements closed; then good gens make every index good.
    Associativity (xy)z = x(yz) qualifies in any slot: for good a and b in
    the last, x(y(ab)) = x((ya)b) = (x(ya))b = ((xy)a)b = (xy)(ab).  So
    does x(y + z) = xy + xz with z over +, once + is associative: x(y + (a
    + b)) = x((y + a) + b) = (xy + xa) + xb = xy + x(a + b); likewise the
    right law.  When a generator is not good, the law is scanned in full.
    """
    idx = np.asarray(indices, dtype=np.intp)
    k = len(idx)
    if not k:
        return None
    # ascending indices are one run of table rows when they span k values
    run = idx[-1] - idx[0] == k - 1

    def axis(lo, hi, dim, shape):
        return _Axis(idx[lo:hi].reshape(shape), dim,
                     slice(idx[lo], idx[lo] + hi - lo) if run else None)

    grid = (axis(0, k, 1, (1, k)),) if arity > 1 else ()
    step = max(1, _BLOCK_ENTRIES // k ** len(grid))

    def failure(call):
        """First failing grid position of call(rows, *grid), or None."""
        for lo in range(0, k, step):
            hi = min(lo + step, k)
            rows = axis(lo, hi, 0, (hi - lo,) + (1,) * len(grid))
            ok = np.asarray(call(rows, *grid))
            if not ok.all():
                ok = np.broadcast_to(ok, (hi - lo,) + (k,) * len(grid))
                at = np.unravel_index(np.argmin(ok), ok.shape)
                return (lo + at[0],) + at[1:]
        return None

    if arity == 3:
        if gens and all(
                failure(lambda *yz: holds(*yz[:slot], a, *yz[slot:])) is None
                for a in gens):
            return None
        for x in idx:
            at = failure(lambda y, z: holds(x, y, z))
            if at:
                return (int(x),) + tuple(int(idx[i]) for i in at)
        return None
    at = failure(holds)
    return None if at is None else tuple(int(idx[i]) for i in at)


def closure(gathers, k, seed, cap):
    """Ascending indices of the closure of seed in a table of k indices.

    Each of ``gathers`` takes an ascending index array s and returns the
    results of its operation over s x s, so both operand orders are covered.
    Returns None once the closure has more than ``cap`` elements or reaches
    index k, which a local subset table uses to mark results outside it.
    """
    member = np.zeros(k + 1, dtype=bool)
    member[list(seed)] = True
    s = np.flatnonzero(member)
    while len(s) <= cap:
        for gather in gathers:
            member[gather(s)] = True
        if member[k]:
            return None
        grown = np.flatnonzero(member)
        if len(grown) == len(s):
            return s
        s = grown
    return None


def generators(gathers, k, candidates):
    """Each of ``candidates`` that lies outside the closure (``closure``,
    under ``gathers``) of the candidates taken before it; so the closure
    of the result is that of all candidates."""
    gens, member = [], np.zeros(k + 1, dtype=bool)
    for c in candidates:
        if not member[c]:
            gens.append(int(c))
            s = np.append(np.flatnonzero(member), c)
            member[closure(gathers, k, s, k)] = True
    return gens


def generated_closures(gathers, k, base, pairs):
    """(distinct closures, seeds scanned) of base + (x,) for every index x
    and, when pairs is set, of base + (x, y) for every x < y.

    Closures are ascending index tuples, under ``gathers`` as in
    ``closure``; one that leaves a local table is dropped.  The closure of
    a pair is C(x) when y is in C(x), C(y) when x is in C(y), and otherwise
    the closure of the seed C(x) | C(y); it leaves whenever C(x) or C(y)
    does.  Seeds repeat, so each is keyed by its packed member bits and
    closed only the first time its key appears.  Every pair counts as
    scanned, pruned or not.
    """
    # about k^2 bytes: under the k x k tables the caller already holds
    member = np.zeros((k, k + 1), dtype=bool)
    stays = np.zeros(k, dtype=bool)
    found = set()
    for x in range(k):
        c = closure(gathers, k, base + (x,), k)
        if c is not None:
            member[x, c] = stays[x] = True
            found.add(tuple(c.tolist()))
    seen = set()   # a key of (k + 1) / 8 bytes per distinct seed
    for x in np.flatnonzero(stays) if pairs else ():
        rest = stays[x + 1:] & ~member[x, x + 1:k] & ~member[x + 1:, x]
        # the seeds of x's pairs: one block no larger than member
        seeds = member[np.flatnonzero(rest) + x + 1] | member[x]
        for key, seed in zip(map(bytes, np.packbits(seeds, axis=1)), seeds):
            if key not in seen:
                seen.add(key)
                c = closure(gathers, k, np.flatnonzero(seed), k)
                if c is not None:
                    found.add(tuple(c.tolist()))
    return found, k + k * (k - 1) // 2 if pairs else k


def closed_sets(tables, base, top):
    """Every set of at most top indices that holds base and is closed under
    ``tables`` (as in ``closure``), as an ascending index tuple.

    Close-by-One (Kuznetsov, 1993): from a closed S whose last added index
    is x, close S + y for each y > x outside S, and keep the closure if it
    adds no index below y, so that each closed set is reached once, and if
    it fits in top and the table; else drop it with its extensions.  S + y
    is closed already when row t[y] and column t[:, y] of each table stay
    in S + y over its members: extensions are checked so in blocks of
    ``_BLOCK_ENTRIES`` table entries, and only those that fail are closed.
    """
    k = len(tables[0])
    gathers = _gathers(tables)
    root = closure(gathers, k, base, top)
    if root is None:
        return []
    sets = np.zeros((1, k + 1), dtype=bool)
    sets[0, root] = True
    found, todo = [tuple(root.tolist())], [(sets, np.array([-1]))]
    step = max(1, _BLOCK_ENTRIES // k)
    while todo:
        sets, last = todo.pop()
        at, ys = np.nonzero(~sets[:, :k] & (np.arange(k) > last[:, None])
                            & (sets.sum(axis=1, keepdims=True) < top))
        for lo in range(0, len(at), step):
            y = ys[lo:lo + step]
            grown = sets[at[lo:lo + step]]
            grown[np.arange(len(y)), y] = True
            ok = np.ones(len(y), dtype=bool)
            for t in tables:
                for out in (t[y], t[:, y].T):
                    ok &= (np.take_along_axis(grown, out, axis=1)
                           | ~grown[:, :k]).all(axis=1)
            for i in np.flatnonzero(~ok):
                c = closure(gathers, k, np.flatnonzero(grown[i]), top)
                ok[i] = c is not None and grown[i, c[c < y[i]]].all()
                if ok[i]:
                    grown[i, c] = True
            grown = grown[ok]
            todo.append((grown, y[ok]))
            cols = np.nonzero(grown)[1].tolist()
            ends = np.cumsum(grown.sum(axis=1)).tolist()
            found += [tuple(cols[a:b]) for a, b in zip([0] + ends, ends)]
    return found


def _gathers(tables):
    """The results over s x s of each of ``tables``, for ``closure``."""
    return [lambda s, t=t: t[s[:, None], s] for t in tables]


def substructures(tables, base, mode, top, pairs=True):
    """(closed subsets containing base with at most top elements, sorted
    by size then indices; scanned) under ``tables`` (as in ``closure``).

    Generated mode keeps the closures of ``generated_closures``; any other
    mode keeps each closed set but base (``closed_sets``), and scanned
    counts every base + c, for c of 1 to top - |base| other indices.
    """
    k = len(tables[0])
    if mode == "generated":
        found, scanned = generated_closures(_gathers(tables), k, base, pairs)
    else:
        found = [c for c in closed_sets(tables, base, top)
                 if len(c) > len(base)]
        scanned = sum(math.comb(k - len(base), r)
                      for r in range(1, top - len(base) + 1))
    return sorted((c for c in found if len(c) <= top),
                  key=lambda c: (len(c), c)), scanned


# The identity laws, each written once: name -> (arity, holds).  holds(t, e,
# x, ...) takes the numpy Cayley table t, the identity index e and index
# arrays; see LawProfile for the laws in product notation.
_LAWS = {
    "commutative": (2, lambda t, e, x, y: t[x, y] == t[y, x]),
    "associative": (3, lambda t, e, x, y, z: t[t[x, y], z] == t[x, t[y, z]]),
    "moufang": (3, lambda t, e, x, y, z:
                t[t[x, y], t[z, x]] == t[t[x, t[y, z]], x]),
    "left_bol": (3, lambda t, e, x, y, z:
                 t[x, t[y, t[x, z]]] == t[t[x, t[y, x]], z]),
    "right_bol": (3, lambda t, e, x, y, z:
                  t[t[t[x, y], z], y] == t[x, t[t[y, z], y]]),
    "wip": (3, lambda t, e, x, y, z:
            (t[t[x, y], z] == e) == (t[x, t[y, z]] == e)),
    "left_alternative": (2, lambda t, e, x, y: t[t[x, y], y] == t[x, t[y, y]]),
    "right_alternative": (2, lambda t, e, x, y: t[x, t[x, y]] == t[t[x, x], y]),
    "p_groupoid": (2, lambda t, e, x, y: t[t[x, y], x] == t[x, t[y, x]]),
    "idempotent_law": (1, lambda t, e, x: t[x, x] == x),
}


def _cayley(g: Magma):
    """The Cayley table of g as a numpy index array, built once per magma."""
    cached = g.__dict__.get("_array")
    if cached is None:
        cached = np.array(g.table, dtype=np.intp)
        object.__setattr__(g, "_array", cached)
    return cached


def _is_loop(g: Magma) -> bool:
    """Whether g has an identity and a Latin-square table."""
    return g.identity is not None and _w_latin(_cayley(g)) is None


def _indices(g: Magma, xs, message: str, arity=None) -> tuple:
    """xs as a tuple of indices of g, ints (bools excluded) in 0..k-1, and
    arity of them when given; else SpecError(message)."""
    xs = tuple(xs)
    if arity not in (None, len(xs)) or not all(
            isinstance(x, (int, np.integer)) and not isinstance(x, bool)
            and 0 <= x < g.order for x in xs):
        raise SpecError(message)
    return xs


def _law_witness(g: Magma, law: str, subset=None):
    """First violation of a ``_LAWS`` law over g (or a subset), else None.

    Associativity is first checked on generators of g, or of the subset,
    under g's operation (``first_violation``), so a subset must be closed.
    WIP is undefined without an identity; its witness is then ().
    """
    arity, holds = _LAWS[law]
    e = g.identity
    if law == "wip" and e is None:
        return ()
    t = _cayley(g)
    indices = range(g.order) if subset is None else sorted(subset)
    gens = generators(_gathers([t]), g.order, indices) \
        if law == "associative" else None
    reads = LawTable(t)
    return first_violation(indices, arity, lambda *xs: holds(reads, e, *xs),
                           gens, 1)


# The laws associativity implies.  Drop the brackets from both sides of
# each and the two are the same word: Moufang xyzx, left Bol xyxz, right
# Bol xyzy, the alternative laws xyy and xxy, and the P-law xyx; in an
# associative magma every bracketing of a word has the same product.  WIP
# compares (xy)z and x(yz), which are then equal, but counts only when an
# identity exists: without one its witness stays ().
_ASSOCIATIVE_IMPLIES = ("moufang", "left_bol", "right_bol", "wip",
                        "left_alternative", "right_alternative",
                        "p_groupoid")


def _law_witnesses(g: Magma, laws) -> dict:
    """``_law_witness`` over g of each of laws, in order, where a law that
    associativity implies holds without a scan once g is known to be
    associative (``_ASSOCIATIVE_IMPLIES``).  Associativity is decided where
    laws ask for it, and before the first arity-3 law it implies unless a
    law it implies has already failed, which refutes it."""
    found = {}
    for law in laws:
        implied = law in _ASSOCIATIVE_IMPLIES and (
            law != "wip" or g.identity is not None)
        if (implied and _LAWS[law][0] == 3 and "associative" not in found
                and not any(found.get(w) for w in _ASSOCIATIVE_IMPLIES)):
            found["associative"] = _law_witness(g, "associative")
        if law not in found:
            decided = implied and found.get("associative", ()) is None
            found[law] = None if decided else _law_witness(g, law)
    return {law: found[law] for law in laws}


def closure_of(g: Magma, seed) -> frozenset:
    """Smallest subset containing seed and closed under the operation."""
    seed = _indices(g, seed, f"malformed closure seed {seed!r}")
    return frozenset(closure(_gathers([_cayley(g)]), g.order, seed,
                             g.order).tolist())


def _smarandache_certificate(g: Magma) -> Optional[tuple[int, ...]]:
    # Any associative closed proper subset P with at least two elements
    # contains closure({x, y}) for each pair x, y in P, and that closure is
    # itself closed, associative, proper, and of size >= 2; so scanning the
    # closures of all pairs (plus singles, whose closures may grow) decides
    # the flag exactly.
    found, _ = substructures([_cayley(g)], (), "generated", g.order - 1)
    return next((c for c in found if len(c) >= 2
                 and _law_witness(g, "associative", c) is None), None)


def check_laws(g: Magma) -> LawProfile:
    """Evaluate every law exactly, associativity on a generating set
    (``first_violation``) and the laws it implies without a scan when it
    holds (``_law_witnesses``); relabeling never changes the result."""
    found = {"latin_square": _w_latin(_cayley(g)),
             "has_identity": None if g.identity is not None else ()}
    found.update(_law_witnesses(g, _LAWS))
    witnesses = {law: w for law, w in found.items() if w is not None}
    cert = _smarandache_certificate(g)
    if cert is not None:
        witnesses["smarandache"] = cert
    return LawProfile(**{law: w is None for law, w in found.items()},
                      smarandache=cert is not None, witnesses=witnesses)


def loop_law_summary(g: Magma) -> dict:
    """The cheap law subset used by the loop sweep: quadratic checks only,
    plus WIP (cubic, but early-exiting; decided by associativity when
    neither alternative law fails, ``_law_witnesses``)."""
    return {
        "latin_square": _w_latin(_cayley(g)) is None,
        "has_identity": g.identity is not None,
        **{law: w is None for law, w in _law_witnesses(
            g, ("commutative", "left_alternative", "right_alternative",
                "wip")).items()},
    }


def validate_witness(g: Magma, law: str, witness: tuple) -> bool:
    """Re-evaluate a recorded witness: True when it still violates the law."""
    t, message = _cayley(g), f"malformed {law} witness {witness!r}"
    if law == "latin_square":
        kind, a, b, c = _indices(g, witness, message, 4)
        if kind == 0:
            return bool(t[a, b] == t[a, c]) and b != c
        if kind == 1:
            return bool(t[a, c] == t[b, c]) and a != b
        raise SpecError(message)
    if law in ("has_identity", "wip") and witness == ():
        return g.identity is None
    if law in _LAWS:
        arity, holds = _LAWS[law]
        return not holds(t, g.identity, *_indices(g, witness, message, arity))
    if law == "smarandache":
        subset = frozenset(_indices(g, witness, message))
        return (2 <= len(subset) < g.order and closure_of(g, subset) == subset
                and _law_witness(g, "associative", subset) is None)
    raise SpecError(f"unknown law {law!r}")


def associator_closure(g: Magma) -> tuple[int, ...]:
    """Subloop generated by all associators a with (xy)z = (x(yz)) * a."""
    if not _is_loop(g):
        raise SpecError("associator closure requires a loop")
    t, k = _cayley(g), g.order
    # pos[w, v] = a with w * a = v (rows are permutations); pos[x(yz), (xy)z]
    # is marked for a block of (x, y) pairs over every z; (e, e, e) marks e
    reads, pos = LawTable(t), LawTable(np.argsort(t, axis=1))
    assoc = np.zeros(k, dtype=bool)
    step = max(1, _BLOCK_ENTRIES // k)
    for lo in range(0, k * k, step):
        x, y = np.divmod(np.arange(lo, min(lo + step, k * k)), k)
        assoc[pos[reads[x[:, None], t[y]], t[t[x, y]]]] = True
    return tuple(closure(_gathers([t]), k, np.flatnonzero(assoc), k).tolist())


def _latin(t, sets) -> list[bool]:
    """Whether the local table t[S][:, S] of each of sets (ascending index
    tuples, ordered by size) is a Latin square: no row, and then no column,
    ``_repeats`` an entry.  The sets of one size go together, in blocks of
    at most ``_BLOCK_ENTRIES`` table entries (but at least one set)."""
    latin = []
    for n, same in groupby(sets, len):
        s = np.array(list(same), dtype=np.intp).reshape(-1, n)
        step = max(1, _BLOCK_ENTRIES // (n * n))
        for lo in range(0, len(s), step):
            local = t[s[lo:lo + step, :, None], s[lo:lo + step, None]]
            ok = ~_repeats(local).any(axis=1)
            ok[ok] = ~_repeats(local[ok].swapaxes(1, 2)).any(axis=1)
            latin += ok.tolist()
    return latin


def enumerate_substructures(
        g: Magma, kind: str, max_size: Optional[int] = None,
        mode: Optional[str] = None) -> list[tuple[int, ...]]:
    """Subsets of g closed under * of the requested kind.

    kind: "subloop" (closed, contains the identity; g must be a loop),
    "subgroup", or "subsemigroup", from ``substructures``. Exhaustive
    search enumerates every closed subset up to max_size (``closed_sets``)
    and is guarded to |g| <= 24; generated mode keeps the distinct closures
    of every single element and unordered pair instead, closing a pair only
    when neither element lies in the other's closure
    (``generated_closures``).  When g is associative (one scan), so is every
    closed subset, and no subset is scanned for associativity.  A subgroup
    is an associative closed subset with a Latin local table (``_latin``):
    a finite associative quasigroup is a group, and a group's table is
    Latin (Clifford & Preston, The Algebraic Theory of Semigroups I, 1961).
    """
    if kind not in ("subloop", "subgroup", "subsemigroup"):
        raise SpecError(f"unknown substructure kind {kind!r}")
    if kind == "subloop" and not _is_loop(g):
        raise SpecError("subloop enumeration requires a loop")
    k = g.order
    if mode is None:
        mode = "exhaustive" if k <= 24 else "generated"
    if mode not in ("exhaustive", "generated"):
        raise SpecError(f"unknown search mode {mode!r}")
    if mode == "exhaustive" and k > 24:
        raise SpecError("exhaustive substructure search is limited to 24 elements")

    top = k if max_size is None else min(max_size, k)
    found, _ = substructures([_cayley(g)], (), mode, top)
    if kind == "subloop":
        return [c for c in found if g.identity in c]
    associative = _law_witness(g, "associative") is None
    if kind == "subgroup":
        found = list(compress(found, _latin(_cayley(g), found)))
    return [c for c in found
            if associative or _law_witness(g, "associative", c) is None]


def normalizers(g: Magma, h) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """First and second normalizers of the subloop h inside the loop g.

    n1 = { a : a*H = H*a as sets },  n2 = { a : a*(H*a) = H as sets }.
    """
    if not _is_loop(g):
        raise SpecError("normalizers require a loop")
    message = "h must be a nonempty subset of g"
    hset = frozenset(_indices(g, h, message))
    if not hset:
        raise SpecError(message)
    if g.identity not in hset or closure_of(g, hset) != hset:
        raise SpecError("h must be a subloop (closed and containing the identity)")
    # row a of t[:, hs] is a*H, of right H*a and of the take a*(H*a); a
    # loop's rows and columns are permutations, so each row is a set
    t, hs = _cayley(g), np.array(sorted(hset))
    right = t[hs].T
    n1 = (np.sort(t[:, hs], axis=1) == np.sort(right, axis=1)).all(axis=1)
    n2 = (np.sort(np.take_along_axis(t, right, 1), axis=1) == hs).all(axis=1)
    return tuple(tuple(np.flatnonzero(n).tolist()) for n in (n1, n2))
