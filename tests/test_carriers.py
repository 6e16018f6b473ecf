import math
import tracemalloc
from itertools import chain, combinations, product
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from intervalsemirings import (
    SemiringHandle,
    SpecError,
    additive_group_zn,
    associator_closure,
    build_carrier,
    build_groupoid,
    build_loop,
    carrier_kinds,
    carrier_to_json,
    chain_lattice,
    check_laws,
    closure_of,
    cyclic_group,
    dihedral_group,
    enumerate_substructures,
    loop_law_summary,
    loop_parameters,
    mult_group_zp,
    mult_semigroup_zn,
    render_table,
    symmetric_group,
    symmetric_semigroup,
    validate_witness,
)
from intervalsemirings import laws
from intervalsemirings.tables import _AXIOMS
from intervalsemirings.carriers import CarrierMeta, Magma, _finish
from intervalsemirings.laws import (
    _LAWS,
    LawTable,
    _cayley,
    _gathers,
    _law_witness,
    closure,
    first_violation,
    generated_closures,
    generators,
    normalizers,
)


def valid_loop_params(n):
    return [m for m in range(2, n)
            if math.gcd(m, n) == 1 and math.gcd(m - 1, n) == 1]


# ---------------------------------------------------------------------------
# loop construction


def test_loop_formula_and_identity():
    g = build_loop(5, 2)
    e = g.identity
    assert g.order == 6
    assert g.elements[e] == "e"
    # i*j = (mj - (m-1)i) mod 5, residue 0 printed as 5
    i, j = g.index_of("1"), g.index_of("3")
    r = (2 * 3 - 1 * 1) % 5
    assert g.elements[g.op(i, j)] == str(r if r else 5)
    assert g.op(i, i) == e


def test_loop_rejects_bad_parameters():
    with pytest.raises(SpecError):
        build_loop(4, 3)  # n even
    with pytest.raises(SpecError):
        build_loop(9, 3)  # gcd(m, n) != 1
    with pytest.raises(SpecError):
        build_loop(9, 4)  # gcd(m-1, n) != 1
    with pytest.raises(SpecError):
        build_loop(3, 2)  # n too small


def test_loop_parameters_matches_gcd_conditions():
    for n in range(5, 26, 2):
        assert list(loop_parameters(n)) == valid_loop_params(n)


def test_loop_interval_labels():
    g = build_loop(5, 2, interval=True)
    assert g.elements[g.identity] == "[0,e]"
    assert "[0,3]" in g.elements


def ref_build_loop(n, m, interval):
    """L_n(m) filled entry by entry, its identity found by scanning for the
    first two-sided one."""
    k = n + 1
    table = [[0] * k for _ in range(k)]
    for j in range(k):
        table[0][j] = j
        table[j][0] = j
    for i in range(1, k):
        for j in range(1, k):
            if i != j:
                r = (m * j - (m - 1) * i) % n
                table[i][j] = r if r else n
    identity = next(e for e in range(k) if all(
        table[e][x] == table[x][e] == x for x in range(k)))
    labels = ["e"] + [str(i) for i in range(1, k)]
    if interval:
        labels = [f"[0,{lbl}]" for lbl in labels]
    return Magma(tuple(labels), tuple(map(tuple, table)),
                 CarrierMeta("loop", (n, m)), interval, identity)


@pytest.mark.parametrize("n", range(5, 42))
def test_build_loop_matches_entrywise_construction(n):
    # the row formula and the identity at index 0 against the entrywise
    # table and a scan for the identity, for every loop the sweeps build
    for m in loop_parameters(n):
        for interval in (False, True):
            assert build_loop(n, m, interval) == ref_build_loop(n, m,
                                                                interval)


@given(st.sampled_from([(n, m) for n in range(5, 16, 2)
                        for m in valid_loop_params(n)]))
@settings(max_examples=30, deadline=None)
def test_loop_is_a_loop(nm):
    n, m = nm
    s = loop_law_summary(build_loop(n, m))
    assert s["latin_square"] and s["has_identity"]


# ---------------------------------------------------------------------------
# the pinned law bindings for L_n(m)


def test_left_alternative_iff_m_two():
    for n in (5, 7, 9, 11):
        for m in valid_loop_params(n):
            s = loop_law_summary(build_loop(n, m))
            assert s["left_alternative"] == (m == 2)


def test_right_alternative_iff_m_n_minus_one():
    for n in (5, 7, 9, 11):
        for m in valid_loop_params(n):
            s = loop_law_summary(build_loop(n, m))
            assert s["right_alternative"] == (m == n - 1)


def test_commutative_iff_middle_m():
    for n in (5, 7, 9, 11, 13):
        for m in valid_loop_params(n):
            s = loop_law_summary(build_loop(n, m))
            assert s["commutative"] == (m == (n + 1) // 2)


def test_wip_iff_divisibility():
    for n in (5, 7, 9, 11, 13):
        for m in valid_loop_params(n):
            s = loop_law_summary(build_loop(n, m))
            assert s["wip"] == ((m * m - m + 1) % n == 0)


# ---------------------------------------------------------------------------
# groupoids and classical carriers


def test_groupoid_formula():
    g = build_groupoid(5, 3, 2)
    # a*b = (3a + 2b) mod 5
    assert g.op(g.index_of("4"), g.index_of("2")) == g.index_of("1")
    assert g.op(g.index_of("2"), g.index_of("4")) == g.index_of("4")


def test_groupoid_generally_nonassociative():
    p = check_laws(build_groupoid(5, 3, 2))
    assert not p.associative
    assert validate_witness(build_groupoid(5, 3, 2), "associative",
                            p.witnesses["associative"])


def test_cyclic_group_laws():
    p = check_laws(cyclic_group(6))
    assert p.associative and p.commutative and p.has_identity
    assert p.latin_square


def test_dihedral_noncommutative():
    p = check_laws(dihedral_group(3))
    assert dihedral_group(3).order == 6
    assert p.associative and not p.commutative


def test_symmetric_group_order():
    assert symmetric_group(3).order == 6
    assert symmetric_group(4).order == 24
    p = check_laws(symmetric_group(3))
    assert p.associative and p.latin_square and not p.commutative


def test_symmetric_semigroup_order():
    g = symmetric_semigroup(2)
    assert g.order == 4
    p = check_laws(g)
    assert p.associative and not p.latin_square


def _listed_maps(k):
    """The self-maps of k points in listing order: the identity, then the
    rest in lexicographic order."""
    ident = tuple(range(k))
    return [ident] + [f for f in product(range(k), repeat=k) if f != ident]


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_symmetric_semigroup_table_matches_composition(k):
    maps = _listed_maps(k)
    index = {f: ix for ix, f in enumerate(maps)}
    want = tuple(tuple(index[tuple(h[f[x]] for x in range(k))] for h in maps)
                 for f in maps)
    g = symmetric_semigroup(k)
    assert g.table == want
    assert all(type(v) is int for row in g.table for v in row)
    assert g.identity == 0 and g.elements[:2] == ("e", "f1")[:k ** k]


def test_symmetric_semigroup_5_sampled_entries():
    maps = _listed_maps(5)
    g = symmetric_semigroup(5)
    assert g.order == 3125 and g.identity == 0
    rng = np.random.default_rng(5)
    for f, h in rng.integers(0, 3125, size=(2000, 2)).tolist():
        assert maps[g.table[f][h]] == tuple(maps[h][maps[f][x]]
                                            for x in range(5))


def test_mult_semigroup_has_absorbing_zero():
    g = mult_semigroup_zn(6)
    z = g.absorbing_index()
    assert z is not None
    assert all(g.op(z, x) == z and g.op(x, z) == z for x in range(g.order))


def test_mult_group_zp_rejects_composite():
    with pytest.raises(SpecError):
        mult_group_zp(8)
    assert mult_group_zp(7).order == 6


def test_additive_group_zn():
    g = additive_group_zn(5)
    assert g.op(g.index_of("3"), g.index_of("4")) == g.index_of("2")


def test_build_carrier_dispatch():
    assert set(carrier_kinds()) >= {"loop", "groupoid", "cyclic", "dihedral",
                                    "symmetric-group", "symmetric-semigroup",
                                    "mult-semigroup", "additive-group",
                                    "mult-group"}
    g = build_carrier("loop", n=5, m=2)
    assert g.order == 6
    with pytest.raises(SpecError):
        build_carrier("nope")
    with pytest.raises(SpecError):
        build_carrier("loop", n=5)  # missing m


@pytest.mark.parametrize("kind, params", [
    ("loop", {"n": 1001, "m": 2}),
    ("groupoid", {"n": 2000, "t": 1, "u": 1}),
    ("cyclic", {"k": 1001}),
    ("dihedral", {"m": 501}),
    ("mult-semigroup", {"n": 1001}),
    ("additive-group", {"n": 1001}),
    ("mult-group", {"p": 1009}),
])
def test_oversized_carrier_is_refused_before_its_table(kind, params):
    # each would have just over 10^6 entries; built first, groupoid(2000)'s
    # 4 * 10^6 took a 181 MB peak before the refusal
    tracemalloc.start()
    try:
        with pytest.raises(SpecError,
                           match="carrier table would exceed 1000000 entries"):
            build_carrier(kind, **params)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_carrier_at_the_entry_limit_is_built():
    assert additive_group_zn(1000).order == 1000


# ---------------------------------------------------------------------------
# rendering and serialization


def test_render_table_shape():
    lines = render_table(cyclic_group(3)).splitlines()
    assert len(lines) == 4
    assert lines[0].split() == ["*", "e", "g1", "g2"]


def test_carrier_json():
    data = carrier_to_json(cyclic_group(3))
    assert data["elements"] == ["e", "g1", "g2"]
    assert data["table"] == [[0, 1, 2], [1, 2, 0], [2, 0, 1]]


# ---------------------------------------------------------------------------
# closures, associators, substructures


def test_closure_of_generates_subgroup():
    g = cyclic_group(6)
    assert sorted(closure_of(g, {2})) == [0, 2, 4]
    assert sorted(closure_of(g, {1})) == [0, 1, 2, 3, 4, 5]


@pytest.mark.parametrize("call", [
    lambda: closure_of(cyclic_group(6), {6}),
    lambda: closure_of(cyclic_group(6), {-1}),
    lambda: closure_of(cyclic_group(6), {True}),
    lambda: normalizers(build_loop(5, 2), [0, 1.0]),
    lambda: normalizers(build_loop(5, 2), [0, True]),
    lambda: validate_witness(build_groupoid(5, 3, 2), "commutative", (0,)),
    lambda: validate_witness(build_groupoid(5, 3, 2), "associative",
                             (0, 1, 5)),
    lambda: validate_witness(build_groupoid(5, 3, 2), "associative",
                             (0, 1, -1)),
    lambda: validate_witness(build_groupoid(5, 3, 2), "latin_square",
                             (2, 0, 1, 2)),
    lambda: validate_witness(build_groupoid(5, 3, 2), "latin_square",
                             (0, 0, 1, 5)),
    lambda: validate_witness(build_groupoid(5, 3, 2), "smarandache", (0, 5)),
], ids=["seed-k", "seed-negative", "seed-bool", "h-float", "h-bool",
        "commutative-arity", "associative-k", "associative-negative",
        "latin-kind", "latin-k", "smarandache-k"])
def test_malformed_indices_are_refused(call):
    # indices are ints, bools excluded, in 0..k-1
    with pytest.raises(SpecError):
        call()


def test_associator_closure_requires_loop():
    with pytest.raises(SpecError):
        associator_closure(build_groupoid(5, 3, 2))


def test_associator_closure_trivial_on_groups():
    assert associator_closure(cyclic_group(5)) == (0,)
    assert associator_closure(symmetric_group(3)) == (0,)


def test_associator_closure_full_on_loops():
    g = build_loop(7, 3)
    assert associator_closure(g) == tuple(range(8))


def test_enumerate_subgroups_of_c6():
    subs = enumerate_substructures(cyclic_group(6), "subgroup")
    assert (0,) in subs
    assert (0, 2, 4) in subs
    assert (0, 3) in subs
    assert tuple(range(6)) in subs
    assert len(subs) == 4


def test_enumerate_subloops():
    g = build_loop(7, 3)
    subs = enumerate_substructures(g, "subloop")
    # e with any i is closed: i*i = e
    assert (0, 1) in subs
    assert all(g.identity in s for s in subs)


def test_generated_mode_agrees_on_small_group():
    g = cyclic_group(8)
    exhaustive = enumerate_substructures(g, "subgroup", mode="exhaustive")
    generated = enumerate_substructures(g, "subgroup", mode="generated")
    # cyclic groups: every subgroup is generated by one element
    assert set(generated) == set(exhaustive)


def test_normalizers_of_subloop():
    g = build_loop(5, 2)
    h = (g.identity, g.index_of("1"))
    n1, n2 = normalizers(g, h)
    assert g.identity in n1
    assert set(h) <= set(n1) or g.identity in n2


# ---------------------------------------------------------------------------
# smarandache flag


def test_smarandache_magma_flag():
    # S3 contains the closed associative subset {(), (12)}
    p = check_laws(symmetric_group(3))
    assert p.smarandache
    subset = p.witnesses["smarandache"]
    assert 2 <= len(subset) < 6


# ---------------------------------------------------------------------------
# law witnesses against a brute-force reference on the raw table

# each law as a predicate on the tuple table t with identity e
_REFERENCE_LAWS = {
    "commutative": (2, lambda t, e, x, y: t[x][y] == t[y][x]),
    "associative": (3, lambda t, e, x, y, z: t[t[x][y]][z] == t[x][t[y][z]]),
    "moufang": (3, lambda t, e, x, y, z:
                t[t[x][y]][t[z][x]] == t[t[x][t[y][z]]][x]),
    "left_bol": (3, lambda t, e, x, y, z:
                 t[x][t[y][t[x][z]]] == t[t[x][t[y][x]]][z]),
    "right_bol": (3, lambda t, e, x, y, z:
                  t[t[t[x][y]][z]][y] == t[x][t[t[y][z]][y]]),
    "wip": (3, lambda t, e, x, y, z:
            (t[t[x][y]][z] == e) == (t[x][t[y][z]] == e)),
    "left_alternative": (2, lambda t, e, x, y: t[t[x][y]][y] == t[x][t[y][y]]),
    "right_alternative": (2, lambda t, e, x, y: t[x][t[x][y]] == t[t[x][x]][y]),
    "p_groupoid": (2, lambda t, e, x, y: t[t[x][y]][x] == t[x][t[y][x]]),
    "idempotent_law": (1, lambda t, e, x: t[x][x] == x),
}


def _reference_witnesses(g):
    """Every law's first violation, scanned with itertools.product."""
    t, k = g.table, g.order
    e = next((e for e in range(k)
              if all(t[e][x] == x and t[x][e] == x for x in range(k))), None)
    out = {}
    for law, (arity, holds) in _REFERENCE_LAWS.items():
        if law == "wip" and e is None:
            out[law] = ()
            continue
        out[law] = next((xs for xs in product(range(k), repeat=arity)
                         if not holds(t, e, *xs)), None)
    out["has_identity"] = None if e is not None else ()
    # a repeated value in a row (kind 0) or column (kind 1), with the
    # position of its first occurrence
    cols = list(zip(*t))
    out["latin_square"] = next(chain(
        ((0, x, t[x].index(t[x][y]), y)
         for x, y in product(range(k), repeat=2) if t[x].index(t[x][y]) < y),
        ((1, cols[y].index(cols[y][x]), x, y)
         for y, x in product(range(k), repeat=2)
         if cols[y].index(cols[y][x]) < x)), None)
    return out


_LAW_MAGMAS = (
    [build_loop(n, m) for n in range(5, 16, 2) for m in loop_parameters(n)]
    + [build_groupoid(n, t, u) for n in range(2, 7) for t in range(n)
       for u in range(n) if (t, u) != (0, 0)]
    + [symmetric_group(3), dihedral_group(4), symmetric_semigroup(3),
       mult_semigroup_zn(12)]
)


@pytest.mark.parametrize(
    "g", _LAW_MAGMAS,
    ids=lambda g: f"{g.meta.kind}{g.meta.params}".replace(" ", ""))
def test_law_witnesses_match_brute_force(g):
    p = check_laws(g)
    for law, w in _reference_witnesses(g).items():
        assert getattr(p, law) == (w is None), law
        assert p.witnesses.get(law) == w, law
    for law, w in p.witnesses.items():
        assert validate_witness(g, law, w), law


# ---------------------------------------------------------------------------
# the magma searches against the object loops they replaced


def ref_closure_of(g, seed):
    """Set-frontier closure: close each new element against all members."""
    t = g.table
    current = set(seed)
    frontier = list(current)
    while frontier:
        nxt = []
        for x in frontier:
            for y in list(current):
                for v in (t[x][y], t[y][x]):
                    if v not in current:
                        current.add(v)
                        nxt.append(v)
        frontier = nxt
    return frozenset(current)


def ref_associative(g, s):
    """(xy)z = x(yz) for every x, y, z of s, by a triple loop."""
    t = g.table
    return all(t[t[x][y]][z] == t[x][t[y][z]]
               for x in s for y in s for z in s)


def ref_smarandache_certificate(g):
    """Least (size, members) associative proper closure of a single or a
    pair with at least two elements."""
    k = g.order
    best = None
    seeds = [(x,) for x in range(k)] + list(combinations(range(k), 2))
    for seed in seeds:
        c = ref_closure_of(g, seed)
        if 2 <= len(c) < k and ref_associative(g, c):
            cert = tuple(sorted(c))
            if best is None or (len(cert), cert) < (len(best), best):
                best = cert
    return best


def ref_find_identity(table):
    k = len(table)
    for e in range(k):
        if all(table[e][x] == x and table[x][e] == x for x in range(k)):
            return e
    return None


def ref_absorbing_index(g):
    for z in range(g.order):
        if all(g.table[z][x] == z and g.table[x][z] == z
               for x in range(g.order)):
            return z
    return None


def ref_associator_closure(g):
    """The closure of the identity and every associator pos[x(yz)][(xy)z],
    by a loop over all triples."""
    t, r = g.table, range(g.order)
    pos = [{v: a for a, v in enumerate(row)} for row in t]
    assoc = {pos[t[x][t[y][z]]][t[t[x][y]][z]]
             for x in r for y in r for z in r}
    return tuple(sorted(ref_closure_of(g, assoc | {g.identity})))


def ref_normalizers(g, h):
    """{a : a*H = H*a} and {a : a*(H*a) = H}, comparing Python sets."""
    t, r = g.table, range(g.order)
    return (tuple(a for a in r if {t[a][x] for x in h} == {t[x][a] for x in h}),
            tuple(a for a in r if {t[a][t[x][a]] for x in h} == set(h)))


@pytest.mark.parametrize(
    "g", _LAW_MAGMAS,
    ids=lambda g: f"{g.meta.kind}{g.meta.params}".replace(" ", ""))
def test_magma_searches_match_reference_loops(g):
    k = g.order
    for seed in [(x,) for x in range(k)] + list(combinations(range(k), 2)):
        assert closure_of(g, seed) == ref_closure_of(g, seed), seed
    assert check_laws(g).witnesses.get("smarandache") == \
        ref_smarandache_certificate(g)
    assert g.identity == ref_find_identity(g.table)
    assert g.absorbing_index() == ref_absorbing_index(g)
    s = loop_law_summary(g)
    if s["latin_square"] and s["has_identity"]:
        assert associator_closure(g) == ref_associator_closure(g)
        for h in enumerate_substructures(g, "subloop"):
            assert normalizers(g, h) == ref_normalizers(g, h), h


def ref_has_inverses(g, s):
    """Whether s has a two-sided identity and every element of it a
    two-sided inverse in s; a closed associative s is then a group."""
    t = g.table
    e = next((e for e in s if all(t[e][x] == t[x][e] == x for x in s)),
             None)
    return e is not None and all(
        any(t[x][y] == e == t[y][x] for y in s) for x in s)


def ref_enumerate_substructures(g, kind, max_size):
    """The exhaustive search as a loop over every subset of at most
    max_size elements, checking each in pure Python."""
    t = g.table

    def admits(s):
        if any(t[x][y] not in s for x in s for y in s):
            return False
        if kind == "subloop":
            return g.identity in s
        if not ref_associative(g, s):
            return False
        return kind == "subsemigroup" or ref_has_inverses(g, s)

    top = g.order if max_size is None else min(max_size, g.order)
    return [c for r in range(1, top + 1)
            for c in combinations(range(g.order), r) if admits(set(c))]


@pytest.mark.parametrize("g", [
    cyclic_group(6), dihedral_group(4), build_loop(5, 2), build_loop(7, 3),
    build_groupoid(4, 1, 2), mult_semigroup_zn(6), symmetric_group(3),
], ids=["C6", "D4", "L5(2)", "L7(3)", "Z4(1,2)", "mult-semigroup(6)", "S3"])
@pytest.mark.parametrize("max_size", [None, 2, 3])
def test_exhaustive_substructures_match_reference_loop(g, max_size):
    s = loop_law_summary(g)
    kinds = ["subgroup", "subsemigroup"]
    if s["latin_square"] and s["has_identity"]:
        kinds.append("subloop")
    for kind in kinds:
        assert enumerate_substructures(g, kind, max_size, "exhaustive") == \
            ref_enumerate_substructures(g, kind, max_size), kind


@pytest.mark.parametrize("g, mode", [
    (build_groupoid(5, 3, 2), "exhaustive"),
    (build_loop(5, 3), "exhaustive"),
    (build_groupoid(7, 2, 3), "generated"),
    (build_groupoid(6, 1, 0), "exhaustive"),
    (cyclic_group(12), "exhaustive"),
    (mult_semigroup_zn(10), "exhaustive"),
    (symmetric_semigroup(3), "generated"),
], ids=["Z5(3,2)", "L5(3)", "Z7(2,3)", "Z6(1,0)", "C12", "mult-semigroup(10)",
        "T3"])
def test_associativity_is_inherited_by_every_closed_subset(g, mode):
    # the per-set path decides each closed set on its own scan
    closed, _ = laws.substructures([_cayley(g)], (), mode, g.order)
    per_set = {
        "subsemigroup": [c for c in closed
                         if _law_witness(g, "associative", c) is None],
        "subgroup": [c for c in closed if ref_has_inverses(g, c)
                     and _law_witness(g, "associative", c) is None],
    }
    associative = _law_witness(g, "associative") is None
    real = laws._law_witness
    for kind, want in per_set.items():
        calls = []
        with mock.patch.object(laws, "_law_witness",
                               lambda g, law, subset=None: calls.append(subset)
                               or real(g, law, subset)):
            assert enumerate_substructures(g, kind, mode=mode) == want, kind
        # g is scanned once; only a nonassociative g scans its subsets too
        assert calls[0] is None
        if associative:
            assert calls == [None], kind
        else:
            assert len(calls) > 1, kind


# the Latin-square rule in blocks split down to one set; the 262143 closed
# sets of groupoid(18, 1, 0) would take too many such blocks, but its 48620
# nine-element sets already fill 482 blocks of the default size
@pytest.mark.parametrize("g, entries", [
    *[(g, entries) for g in _LAW_MAGMAS + [
        cyclic_group(24), dihedral_group(10), symmetric_group(4)]
      for entries in (1, 7)],
    (build_groupoid(18, 1, 0), laws._BLOCK_ENTRIES),
], ids=lambda x: f"{x.meta.kind}{x.meta.params}".replace(" ", "")
    if isinstance(x, Magma) else str(x))
def test_subgroups_are_the_closed_sets_with_identity_and_inverses(
        g, entries, monkeypatch):
    mode = "exhaustive" if g.order <= 24 else "generated"
    closed, _ = laws.substructures([_cayley(g)], (), mode, g.order)
    want = [c for c in closed
            if ref_has_inverses(g, c) and ref_associative(g, c)]
    monkeypatch.setattr(laws, "_BLOCK_ENTRIES", entries)
    assert enumerate_substructures(g, "subgroup") == want


# ---------------------------------------------------------------------------
# the generated-closure search against closing every seed from scratch


@st.composite
def closure_tables(draw, kmax=7):
    """(k, one or two k x k tables, base seed), k at most kmax.  Entries are
    indices below k, or, for a local table, may also be k: a result outside
    the subset.  Sometimes every entry lies in a small image, so that many
    seeds have the same closure."""
    k = draw(st.integers(1, kmax))
    top = k if draw(st.booleans()) else k - 1
    entry = st.integers(0, top)
    if draw(st.booleans()):
        entry = st.sampled_from(draw(st.lists(entry, min_size=1, max_size=3)))
    row = st.lists(entry, min_size=k, max_size=k)
    ops = [np.array(draw(st.lists(row, min_size=k, max_size=k)),
                    dtype=np.intp).reshape(k, k)
           for _ in range(draw(st.integers(1, 2)))]
    base = tuple(draw(st.lists(st.integers(0, k - 1), max_size=2)))
    return k, ops, base


@given(closure_tables(10), st.booleans())
@settings(max_examples=300, deadline=None)
def test_generated_closures_match_closing_every_seed(case, pairs):
    k, ops, base = case
    gathers = [lambda s, t=t: t[s[:, None], s] for t in ops]
    seeds = [(x,) for x in range(k)]
    if pairs:
        seeds += list(combinations(range(k), 2))
    want = set()
    for seed in seeds:
        c = closure(gathers, k, base + seed, k)
        if c is not None:
            want.add(tuple(c.tolist()))
    got, scanned = generated_closures(gathers, k, base, pairs)
    assert got == want
    assert scanned == len(seeds) == k + (k * (k - 1) // 2 if pairs else 0)


# ---------------------------------------------------------------------------
# Close-by-One against checking every subset


@given(closure_tables(8), st.integers(0, 8),
       st.sampled_from([1, 7, laws._BLOCK_ENTRIES]))
@settings(max_examples=300, deadline=None)
def test_closed_sets_match_every_subset(case, top, entries):
    k, ops, base = case
    want = [c for r in range(min(top, k) + 1) for c in combinations(range(k), r)
            if set(base) <= set(c)
            and all(t[x, y] in c for t in ops for x in c for y in c)]
    with mock.patch.object(laws, "_BLOCK_ENTRIES", entries):
        got = laws.closed_sets(ops, base, top)
    assert sorted(got) == sorted(want)


def test_exhaustive_substructure_pins():
    # the subgroups of C24 are those of each order d dividing 24
    assert enumerate_substructures(cyclic_group(24), "subgroup") == [
        tuple(range(0, 24, 24 // d)) for d in (1, 2, 3, 4, 6, 8, 12, 24)]
    # D10: rotations are 0..9 and reflections 10..19
    assert enumerate_substructures(dihedral_group(10), "subgroup") == [
        (0,), (0, 5), *[(0, s) for s in range(10, 20)],
        *[(0, 5, s, s + 5) for s in range(10, 15)], (0, 2, 4, 6, 8),
        tuple(range(10)), tuple(range(0, 20, 2)),
        (0, 2, 4, 6, 8, 11, 13, 15, 17, 19), tuple(range(20))]
    # every {e, x} of L19(3) is a subloop, since x*x = e
    assert enumerate_substructures(build_loop(19, 3), "subloop") == [
        (0,), *[(0, x) for x in range(1, 20)], tuple(range(20))]


def test_closed_sets_close_only_what_the_batch_check_rejects(monkeypatch):
    calls = []
    real = laws.closure
    monkeypatch.setattr(laws, "closure",
                        lambda *args: calls.append(args) or real(*args))
    # every subset of a chain with 0 is closed under max and min, and every
    # extension passes the batch check, so closure runs once, for the root
    t = SemiringHandle.for_domain(chain_lattice(12)).tables()
    assert len(laws.closed_sets([t.add, t.mul], (t.zero,), t.k)) == 2 ** 11
    assert len(calls) == 1
    # C24: the empty set and the 8 subgroups, from at most k closures each
    calls.clear()
    found = laws.closed_sets([_cayley(cyclic_group(24))], (), 24)
    assert len(found) == 9
    assert len(calls) <= 24 * (len(found) + 1)


# ---------------------------------------------------------------------------
# associativity on generators against the full scan


def _planted(g, i, j, v):
    """g with the one entry i*j changed to v."""
    t = [list(row) for row in g.table]
    t[i][j] = v
    return Magma(g.elements, tuple(map(tuple, t)), g.meta)


@pytest.mark.parametrize("g, subset, witness", [
    # 8*0 = 1: the generators are 0, 1, 2, 3, 5 and 7, and 0, 1 and 2 over
    # the closed subset; 0 fails first, but the first violation has y = 4
    (_planted(mult_semigroup_zn(12), 8, 0, 1), None, (2, 4, 0)),
    (_planted(mult_semigroup_zn(12), 8, 0, 1), (0, 1, 2, 4, 8), (2, 4, 0)),
    # T3 with f8*e = e: 0 fails first, and 8 is no generator
    (_planted(symmetric_semigroup(3), 8, 0, 0), None, (2, 8, 0)),
], ids=["mult-semigroup(12)", "mult-semigroup(12)-subset", "T3"])
def test_law_witness_is_first_violation_not_generator(g, subset, witness):
    s = range(g.order) if subset is None else subset
    assert closure_of(g, s) == frozenset(s)
    t = _cayley(g)
    gens = generators(_gathers([t]), g.order, s)
    assert witness[1] not in gens
    tt = g.table
    assert any(tt[tt[x][gens[0]]][y] != tt[x][tt[gens[0]][y]]
               for x in s for y in s)
    _, holds = _LAWS["associative"]
    scan = first_violation(sorted(s), 3, lambda *xs: holds(t, None, *xs))
    assert _law_witness(g, "associative", subset) == scan == witness
    assert next(xs for xs in product(s, repeat=3)
                if tt[tt[xs[0]][xs[1]]][xs[2]]
                != tt[xs[0]][tt[xs[1]][xs[2]]]) == witness


def ref_closure(ops, seed):
    """The closure of seed under each table of ops, as a set."""
    s = set(seed)
    while new := {int(t[x][y]) for t in ops for x in s for y in s} - s:
        s |= new
    return s


@given(closure_tables(), st.data())
@settings(max_examples=300, deadline=None)
def test_generators_are_outside_the_closure_of_those_before(case, data):
    k, ops, _ = case
    assume(all((t < k).all() for t in ops))  # no local tables
    candidates = data.draw(st.lists(st.integers(0, k - 1), max_size=10))
    gens = generators(_gathers(ops), k, candidates)
    assert gens == [c for i, c in enumerate(candidates)
                    if c not in ref_closure(ops, candidates[:i])]
    for i, a in enumerate(gens):
        assert a not in ref_closure(ops, gens[:i])
    assert ref_closure(ops, gens) == ref_closure(ops, candidates)


# ---------------------------------------------------------------------------
# the law scan's table reads against plain-array evaluation


def ref_first_violation(indices, arity, holds, gens=None, slot=None):
    """The law scan over plain index arrays and whole grids: each arity-3
    row, each generator check and each smaller law in one broadcast."""
    idx = np.asarray(indices, dtype=np.intp)
    k = len(idx)
    if arity == 3:
        y, z = np.ix_(idx, idx)
        if gens and all(np.all(holds(*(y, z)[:slot], a, *(y, z)[slot:]))
                        for a in gens):
            return None
        for x in idx:
            ok = np.broadcast_to(holds(x, y, z), (k, k))
            if not ok.all():
                j, l = np.unravel_index(np.argmin(ok), ok.shape)
                return (int(x), int(idx[j]), int(idx[l]))
        return None
    ok = np.broadcast_to(holds(*np.ix_(*[idx] * arity)), (k,) * arity)
    if ok.all():
        return None
    return tuple(int(idx[p]) for p in np.unravel_index(np.argmin(ok),
                                                         ok.shape))


# every law of both checkers as (arity, holds(add, mul, zero, one, *xs))
_SCANNED_LAWS = (
    [(arity, lambda A, M, e, u, *xs, h=holds: h(A, e, *xs))
     for arity, holds in _LAWS.values()]
    + [(arity, holds) for _, arity, holds, _ in _AXIOMS])

# lawful add/mul pairs to plant defects in: a chain lattice (max, min),
# the ring Z_k and a left-zero band under max
_LAWFUL = (
    lambda x, y, k: (np.maximum(x, y), np.minimum(x, y)),
    lambda x, y, k: ((x + y) % k, (x * y) % k),
    lambda x, y, k: (np.maximum(x, y), x + 0 * y),
)


@st.composite
def law_scans(draw):
    """(law, indices, gens, slot, add, mul, zero, one): add and mul are a
    lawful pair on k <= 40 indices with a few planted defects, so the
    first violation may lie in any row, over all indices or a sorted
    subset of them."""
    k = draw(st.integers(1, 40))
    x, y = np.ix_(range(k), range(k))
    dtype = draw(st.sampled_from([np.uint8, np.intp]))
    ops = [np.array(t, dtype=dtype) for t in draw(st.sampled_from(_LAWFUL))(
        x, y, k)]
    cell = st.integers(0, k - 1)
    for t in ops:
        for i, j, v in draw(st.lists(st.tuples(cell, cell, cell),
                                     max_size=3)):
            t[i, j] = v
    if draw(st.booleans()):
        indices = range(k)
    else:
        indices = sorted(draw(st.sets(cell, min_size=1)))
    gens = draw(st.none() | st.lists(st.sampled_from(list(indices)),
                                     min_size=1, max_size=4))
    return (draw(st.sampled_from(_SCANNED_LAWS)), indices, gens,
            draw(st.integers(0, 2)), *ops, draw(cell), draw(cell))


@given(law_scans(), st.sampled_from([1, 7, laws._BLOCK_ENTRIES]))
@settings(max_examples=300, deadline=None)
def test_first_violation_matches_plain_array_evaluation(case, block):
    (arity, holds), indices, gens, slot, add, mul, zero, one = case
    want = ref_first_violation(
        indices, arity, lambda *xs: holds(add, mul, zero, one, *xs), gens,
        slot)
    reads = LawTable(add), LawTable(mul), zero, one
    with mock.patch.object(laws, "_BLOCK_ENTRIES", block):
        assert first_violation(indices, arity,
                               lambda *xs: holds(*reads, *xs),
                               gens, slot) == want
        assert first_violation(
            indices, arity, lambda *xs: holds(add, mul, zero, one, *xs),
            gens, slot) == want


def test_first_violation_reads_rows_a_block_at_a_time():
    # a defect at (39, 38) of max: the first violation of commutativity is
    # (38, 39), in row 38 of the 40 x 40 grid
    t = np.maximum(*np.ix_(range(40), range(40)))
    t[39, 38] = 0
    _, holds = _LAWS["commutative"]
    shapes = []

    def spy(x, y):
        shapes.append(np.broadcast(x, y).shape)
        return holds(LawTable(t), None, x, y)

    assert first_violation(range(40), 2, spy) == (38, 39)
    assert shapes == [(40, 40)]   # 8192 entries hold 204 rows
    shapes.clear()
    with mock.patch.object(laws, "_BLOCK_ENTRIES", 7):
        assert first_violation(range(40), 2, spy) == (38, 39)
    assert shapes == [(1, 40)] * 39


# ---------------------------------------------------------------------------
# the Latin-square scan against the Python scan it replaced (on the magmas
# of _LAW_MAGMAS, test_law_witnesses_match_brute_force checks it too)


def ref_w_latin(t, k):
    """First repeated value along a row, then along a column, with the
    position of its earlier occurrence, by a Python scan."""
    for x in range(k):
        seen = {}
        for y in range(k):
            v = t[x][y]
            if v in seen:
                return (0, x, seen[v], y)
            seen[v] = y
    for y in range(k):
        seen = {}
        for x in range(k):
            v = t[x][y]
            if v in seen:
                return (1, seen[v], x, y)
            seen[v] = x
    return None


@given(st.integers(1, 9).flatmap(lambda k: st.tuples(
    st.just(k), st.permutations(range(k)),
    st.lists(st.tuples(*[st.integers(0, k - 1)] * 3), max_size=3))))
@settings(max_examples=300, deadline=None)
def test_latin_witness_matches_python_scan_on_drawn_tables(case):
    # a Latin square (a row-shifted permutation) with a few planted
    # entries, so a repeat may sit in any row or only in a column
    k, perm, planted = case
    t = np.array([[perm[(x + y) % k] for y in range(k)] for x in range(k)],
                 dtype=np.intp)
    for x, y, v in planted:
        t[x, y] = v
    assert laws._w_latin(t) == ref_w_latin(t.tolist(), k)


# ---------------------------------------------------------------------------
# associativity implies Moufang, both Bol laws, WIP and the quadratic laws


@pytest.mark.parametrize(
    "g", [g for g in _LAW_MAGMAS if _law_witness(g, "associative") is None],
    ids=lambda g: f"{g.meta.kind}{g.meta.params}".replace(" ", ""))
def test_associativity_decides_the_laws_it_implies(g):
    scans = {law: _law_witness(g, law) for law in _LAWS}
    scanned = []
    real = laws._law_witness

    def spy(g, law, subset=None):
        scanned.append(law)
        return real(g, law, subset)

    with mock.patch.object(laws, "_law_witness", spy):
        assert laws._law_witnesses(g, _LAWS) == scans
    implied = set(laws._ASSOCIATIVE_IMPLIES)
    if g.identity is None:
        assert scans["wip"] == ()
        implied.discard("wip")
    assert all(scans[law] is None for law in implied)
    assert implied.isdisjoint(scanned)


def test_a_failed_implied_law_refutes_associativity():
    # every loop of the sweep fails one alternative law, so WIP is scanned
    # without deciding associativity
    g = build_loop(7, 3)
    scanned = []
    real = laws._law_witness

    def spy(g, law, subset=None):
        scanned.append(law)
        return real(g, law, subset)

    with mock.patch.object(laws, "_law_witness", spy):
        loop_law_summary(g)
    assert scanned == ["commutative", "left_alternative",
                       "right_alternative", "wip"]


# ---------------------------------------------------------------------------
# relabelling a magma changes none of its laws


def _relabelled(g, pi):
    """g with element i renamed pi[i]: the table entry of pi[i] * pi[j] is
    pi[i * j]; its identity is found afresh, as a builder finds it."""
    k = g.order
    elements = [None] * k
    table = [[0] * k for _ in range(k)]
    for i in range(k):
        elements[pi[i]] = g.elements[i]
        for j in range(k):
            table[pi[i]][pi[j]] = pi[g.table[i][j]]
    return _finish(elements, table, g.meta, False)


@st.composite
def magmas(draw):
    """One of the law magmas, or a random table of at most five elements."""
    if draw(st.booleans()):
        return draw(st.sampled_from(_LAW_MAGMAS))
    k = draw(st.integers(1, 5))
    row = st.lists(st.integers(0, k - 1), min_size=k, max_size=k)
    table = draw(st.lists(row, min_size=k, max_size=k))
    return Magma(tuple(map(str, range(k))), tuple(map(tuple, table)),
                 CarrierMeta("table"), identity=ref_find_identity(table))


@given(magmas(), st.data())
@settings(max_examples=60, deadline=None)
def test_relabelling_leaves_every_law_flag_unchanged(g, data):
    pi = data.draw(st.permutations(range(g.order)))
    h = _relabelled(g, pi)
    want, got = check_laws(g), check_laws(h)
    for law in want._fields:
        if law != "witnesses":
            assert getattr(got, law) == getattr(want, law), law

    # and pi maps every magma result of g to that of h
    def image(xs):
        return frozenset(pi[x] for x in xs)

    assert h.identity == (None if g.identity is None else pi[g.identity])
    z = g.absorbing_index()
    assert h.absorbing_index() == (None if z is None else pi[z])
    kinds = ["subgroup", "subsemigroup"]
    if want.has_identity and want.latin_square:
        kinds.append("subloop")
        assert image(associator_closure(g)) == frozenset(associator_closure(h))
        sub = data.draw(st.sampled_from(enumerate_substructures(g, "subloop")))
        assert [image(n) for n in normalizers(g, sub)] == \
            [frozenset(n) for n in normalizers(h, image(sub))]
    for kind in kinds:
        assert {image(c) for c in enumerate_substructures(g, kind)} == \
            set(map(frozenset, enumerate_substructures(h, kind))), kind
