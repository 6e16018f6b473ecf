"""The immutable value classes against frozen dataclasses with the same
fields: equality, hash and repr match, construction takes the same
positional and keyword arguments and defaults, and nothing can be
assigned."""

import copy
import dataclasses
import inspect
import pickle

import pytest

from intervalsemirings import (
    AnalysisReport,
    CarrierMeta,
    Classification,
    DomainSpec,
    Finding,
    HomReport,
    IntervalElem,
    IntervalMatrix,
    LawProfile,
    Magma,
    PolyBasis,
    SemiringSpec,
    chain_lattice,
    cyclic_group,
    element,
    neutro_mixed,
    zn_interval,
)

ZN5 = zn_interval(5)
C3 = cyclic_group(3)
_FLAGS = (True, False, True, True, False, True, True, False, True, False,
          True, False, True)

# class -> two argument tuples that differ in one field
CASES = {
    DomainSpec: [("zn-interval", 5), ("zn-interval", 6)],
    IntervalElem: [(neutro_mixed(ZN5), 1, 2), (neutro_mixed(ZN5), 1, 3)],
    PolyBasis: [(3,), (None,)],
    SemiringSpec: [(ZN5, C3, False), (ZN5, C3, True)],
    IntervalMatrix: [(ZN5, ("row", 2), (element(ZN5, 1), element(ZN5, 2))),
                     (ZN5, ("row", 2), (element(ZN5, 1), element(ZN5, 3)))],
    CarrierMeta: [("loop", (5, 2)), ("loop", (5, 3))],
    Magma: [(C3.elements, C3.table, C3.meta, False, 0),
            (C3.elements, C3.table, C3.meta, True, 0)],
    LawProfile: [_FLAGS + ({"associative": (0, 1, 2)},), _FLAGS + ({},)],
    Finding: [("zero-divisor", ("[0,2]", "[0,3]")),
              ("zero-divisor", ("[0,2]", "[0,4]"))],
    AnalysisReport: [("units", (Finding("unit", ("[0,1]",)),), True,
                      {"pairs_scanned": 3}),
                     ("units", (), True, {"pairs_scanned": 3})],
    Classification: [(True, True, True, False, False, {"semifield": ("x",)},
                      True),
                     (True, True, True, False, False, {}, True)],
    HomReport: [(True, None, (), True), (False, ("add", 1, 2), (), True)],
}


def _parameters(cls):
    return list(inspect.signature(cls).parameters.values())


def _reference(cls):
    """A frozen dataclass named as cls with cls's fields and defaults."""
    fields = []
    for p in _parameters(cls):
        if p.default is inspect.Parameter.empty:
            fields.append((p.name, object))
        else:
            fields.append((p.name, object, dataclasses.field(default=p.default)))
    return dataclasses.make_dataclass(cls.__name__, fields, frozen=True)


def _hash_or_error(x):
    try:
        return hash(x)
    except TypeError as e:
        return str(e)


@pytest.mark.parametrize("cls", list(CASES), ids=lambda c: c.__name__)
def test_value_class_behaves_as_a_frozen_dataclass(cls):
    assert [p.name for p in _parameters(cls)] == list(cls._fields)
    ref = _reference(cls)
    first, second = CASES[cls]
    x = cls(*first)
    y = cls(**dict(zip(cls._fields, first)))
    z = cls(*second)
    assert repr(x) == repr(ref(*first))
    assert repr(z) == repr(ref(*second))
    assert (x == y, x == z, x != z) == (True, False, True)
    assert (ref(*first) == ref(*first), ref(*first) == ref(*second)) \
        == (True, False)
    assert x != ref(*first) and ref(*first) != x
    assert _hash_or_error(x) == _hash_or_error(ref(*first))
    assert _hash_or_error(x) == _hash_or_error(y)
    for name in cls._fields:
        with pytest.raises(AttributeError):
            setattr(x, name, None)
        with pytest.raises(AttributeError):
            delattr(x, name)
    assert x == cls(*first) and repr(x) == repr(ref(*first))
    assert copy.deepcopy(x) == x and pickle.loads(pickle.dumps(x)) == x


def test_defaults_match_the_dataclass_defaults():
    assert DomainSpec("rat-interval") == DomainSpec(
        "rat-interval", 0, 1, 0, (), (), (), None)
    assert IntervalElem(ZN5, 1) == IntervalElem(ZN5, 1, None)
    assert PolyBasis() == PolyBasis(None)
    assert SemiringSpec(ZN5, C3) == SemiringSpec(ZN5, C3, False)
    assert CarrierMeta("cyclic") == CarrierMeta("cyclic", ())
    assert Magma(C3.elements, C3.table, C3.meta) == Magma(
        C3.elements, C3.table, C3.meta, False, None)
    assert Finding("unit", ("[0,1]",)) == Finding("unit", ("[0,1]",), ())
    # each profile gets its own witness dict
    a, b = LawProfile(*_FLAGS), LawProfile(*_FLAGS)
    assert a.witnesses == {} and a.witnesses is not b.witnesses


def test_poly_basis_still_validates_its_period():
    with pytest.raises(ValueError, match="period must be >= 1"):
        PolyBasis(0)


def test_value_classes_keep_their_instance_caches_out_of_equality():
    # a magma caches its absorbing index; equality and repr read only the
    # fields, and the domain spec keeps value equality across instances
    g, h = cyclic_group(4), cyclic_group(4)
    g.absorbing_index()
    assert g == h and hash(g) == hash(h) and repr(g) == repr(h)
    assert chain_lattice(3) == chain_lattice(3)
    assert hash(chain_lattice(3)) == hash(chain_lattice(3))
