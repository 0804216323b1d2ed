"""The engine's records are values: equality, hash, repr, immutability and
each constructor check.

`SpaceAtom`, `SpaceMap`, `DiagonalSlot`, `StepSpec`, `StageStats`,
`SystemConfig` and `growth.Stage` are named tuples, each checked in its
`__new__` where it has checks, and so by `_replace` too: equal records are
those with equal fields, in order, and a record hashes as the tuple of its
fields.
`SpaceDescriptor` and `cfp.CfpWitness` are slotted classes that compare
one field (the factors, the terms) and hash as that field does; their
other fields are derived (the ring data) or carried along (the walked
stages, the first-stage certificate).  No record takes an attribute after
it is made, and a copy or a pickle of one is an equal record.
"""

from __future__ import annotations

import copy
import pickle
import re
import weakref

import pytest

from villadsen.bundles import DiagonalSlot
from villadsen.cfp import CfpWitness, build_witness
from villadsen.errors import ConfigError
from villadsen.growth import Stage
from villadsen.spaces import SpaceAtom, SpaceDescriptor, SpaceMap, constant, cproj, disk, sphere2
from villadsen.type_one import StageStats, StepSpec, SystemConfig

SPACE = SpaceDescriptor((disk(2, "d"), sphere2(), cproj(3)))
LINE = SpaceDescriptor((sphere2(),))
ATOM_REPRS = ("SpaceAtom(kind='disk', size=2, label='d'), SpaceAtom(kind='s2', size=1, "
              "label=''), SpaceAtom(kind='cp', size=3, label='')")
SPACE_REPR = f"SpaceDescriptor(factors=({ATOM_REPRS}))"
LINE_REPR = "SpaceDescriptor(factors=(SpaceAtom(kind='s2', size=1, label=''),))"
PROJECTION_REPR = (f"SpaceMap(source={SPACE_REPR}, target={LINE_REPR}, kind='proj', "
                   "indices=(1,), point='')")


def make_witness():
    return build_witness(2)


# (make two equal records, one record that differs, the repr of the first,
# the fields that hash it)
RECORDS = {
    "SpaceAtom": (lambda: cproj(2, "c"), lambda: cproj(3, "c"),
                  "SpaceAtom(kind='cp', size=2, label='c')", ("cp", 2, "c")),
    "SpaceAtom default label": (lambda: SpaceAtom("s2", 1), lambda: sphere2("s"),
                                "SpaceAtom(kind='s2', size=1, label='')", ("s2", 1, "")),
    "SpaceDescriptor": (lambda: SpaceDescriptor(list(SPACE.factors)), lambda: LINE,
                        SPACE_REPR, SPACE.factors),
    "SpaceDescriptor empty": (lambda: SpaceDescriptor(), lambda: LINE,
                              "SpaceDescriptor(factors=())", ()),
    "SpaceMap": (lambda: SpaceMap(SPACE, LINE, "proj", [1]), lambda: constant(SPACE, LINE, "p"),
                 PROJECTION_REPR, (SPACE, LINE, "proj", (1,), "")),
    "DiagonalSlot": (lambda: DiagonalSlot(SpaceMap(SPACE, LINE, "proj", (1,)), 3, 0),
                     lambda: DiagonalSlot(SpaceMap(SPACE, LINE, "proj", (1,)), 2, 0),
                     f"DiagonalSlot(eigenvalue_map={PROJECTION_REPR}, multiplicity=3, carrier=0)",
                     (SpaceMap(SPACE, LINE, "proj", (1,)), 3, 0)),
    "DiagonalSlot defaults": (lambda: DiagonalSlot(constant(SPACE, LINE, "p")),
                              lambda: DiagonalSlot(constant(SPACE, LINE, "q")),
                              f"DiagonalSlot(eigenvalue_map=SpaceMap(source={SPACE_REPR}, "
                              f"target={LINE_REPR}, kind='const', indices=(), point='p'), "
                              "multiplicity=1, carrier=None)",
                              (constant(SPACE, LINE, "p"), 1, None)),
    "StepSpec": (lambda: StepSpec((("p1", 1), ("p2", 3)), 1), lambda: StepSpec((("p1", 1),)),
                 "StepSpec(projection_multiplicities=(('p1', 1), ('p2', 3)), "
                 "point_evaluations=1)", ((("p1", 1), ("p2", 3)), 1)),
    "StageStats": (lambda: StageStats(1, 2, 3), lambda: StageStats(1, 2, 4),
                   "StageStats(distinct_projections=1, projection_multiplicity=2, "
                   "total_multiplicity=3)", (1, 2, 3)),
    "SystemConfig": (lambda: SystemConfig(6, (StepSpec((("a", 2),)),)),
                     lambda: SystemConfig(7, (StepSpec((("a", 2),)),)),
                     "SystemConfig(seed_dimension=6, steps=(StepSpec(projection_multiplicities="
                     "(('a', 2),), point_evaluations=0),))",
                     (6, (StepSpec((("a", 2),)),))),
    "Stage": (lambda: Stage(1, 2, 1, 1, 1), lambda: Stage(1, 2, 1, 2, 2),
              "Stage(n=1, rank=2, unit=1, dim=1, witness=1)", (1, 2, 1, 1, 1)),
    "CfpWitness": (make_witness, lambda: build_witness(3),
                   f"CfpWitness(terms={make_witness().terms!r})", (make_witness().terms,)),
}


@pytest.mark.parametrize("name", RECORDS)
def test_records_are_values(name):
    make, make_other, text, fields = RECORDS[name]
    a, b, other = make(), make(), make_other()
    assert a is not b and a == b and not a != b and hash(a) == hash(b)
    assert a != other and not a == other
    assert repr(a) == text
    assert hash(a) == hash(fields)
    assert len({a, b, other}) == 2
    assert a != object() and a != None  # noqa: E711


def test_the_witness_compares_its_terms_alone():
    witness = make_witness()
    assert CfpWitness(witness.terms, (), None) == witness
    assert CfpWitness(witness.terms, witness.stages, {"value": 1}) == witness
    assert witness.first_stage is not None and len(witness.stages) > len(witness.terms)
    assert weakref.ref(witness)() is witness


def test_a_space_builds_its_ring_once():
    assert SPACE.factors == (disk(2, "d"), sphere2(), cproj(3))
    assert (SPACE.caps, SPACE.positions, SPACE.real_dimension) == ((2, 4), {1: 0, 2: 1}, 12)
    assert SpaceDescriptor(iter(SPACE.factors)).factors == SPACE.factors


@pytest.mark.parametrize("name", RECORDS)
def test_records_take_no_assignment(name):
    record = RECORDS[name][0]()
    slots = [slot for cls in type(record).__mro__ for slot in getattr(cls, "__slots__", ())]
    names = getattr(record, "_fields", None) or [slot for slot in slots if slot != "__weakref__"]
    assert names
    for field in names:
        value = getattr(record, field)
        with pytest.raises(AttributeError):
            setattr(record, field, value)
        with pytest.raises(AttributeError):
            delattr(record, field)
        assert getattr(record, field) is value
    with pytest.raises(AttributeError):
        record.extra = 1


@pytest.mark.parametrize("build, error, message", [
    (lambda: SpaceAtom("weird", 1), ValueError, "unknown atom kind 'weird'"),
    (lambda: SpaceAtom("disk", -1), ValueError, "disk power must be >= 0"),
    (lambda: SpaceAtom("cp", 0), ValueError, "projective space needs complex dimension >= 1"),
    (lambda: SpaceAtom("s2", 2), ValueError, "a 2-sphere atom has no size parameter"),
    (lambda: SpaceMap(SPACE, LINE, "proj", (0, 1)), ValueError,
     "projection must select one source factor per target factor"),
    (lambda: SpaceMap(SPACE, SpaceDescriptor((sphere2(), sphere2())), "proj", (1, 1)),
     ValueError, "projection must select distinct source factors"),
    (lambda: SpaceMap(SPACE, LINE, "proj", (5,)), ValueError, "projection index 5 out of range"),
    (lambda: SpaceMap(SPACE, LINE, "proj", (0,)), ValueError,
     "selected source factor 0 does not match target factor 0"),
    (lambda: SpaceMap(SPACE, LINE, "const"), ValueError, "constant map needs a point label"),
    (lambda: SpaceMap(SPACE, LINE, "weird"), ValueError, "unknown map kind 'weird'"),
    (lambda: DiagonalSlot(constant(SPACE, LINE, "p"), 0), ValueError,
     "slot multiplicity must be >= 1, got 0"),
    (lambda: StepSpec((("a", 1), ("a", 2))), ConfigError, "duplicate projection id in step"),
    (lambda: StepSpec((("a", 0),)), ConfigError, "projection 'a' needs multiplicity >= 1"),
    (lambda: StepSpec((("a", 1),), -1), ConfigError, "point evaluation count must be >= 0"),
    (lambda: StepSpec(()), ConfigError, "a step needs at least one eigenvalue map"),
    (lambda: StageStats(2, 1, 3), ValueError, "need 0 <= distinct <= with-multiplicity <= total"),
    (lambda: StageStats(-1, 0, 1), ValueError, "need 0 <= distinct <= with-multiplicity <= total"),
    (lambda: StageStats(0, 0, 0), ValueError, "total multiplicity must be >= 1"),
])
def test_each_constructor_check_keeps_its_message(build, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        build()


@pytest.mark.parametrize("record, changes, error, message", [
    (sphere2(), {"size": 2}, ValueError, "a 2-sphere atom has no size parameter"),
    (constant(SPACE, LINE, "p"), {"point": ""}, ValueError, "constant map needs a point label"),
    (DiagonalSlot(constant(SPACE, LINE, "p")), {"multiplicity": 0}, ValueError,
     "slot multiplicity must be >= 1, got 0"),
    (StepSpec((("a", 1),)), {"point_evaluations": -1}, ConfigError,
     "point evaluation count must be >= 0"),
    (StageStats(1, 1, 1), {"total_multiplicity": 0}, ValueError,
     "need 0 <= distinct <= with-multiplicity <= total"),
])
def test_a_replaced_record_is_checked_as_a_new_one(record, changes, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        record._replace(**changes)
    assert record._replace() == record and type(record._replace()) is type(record)


@pytest.mark.parametrize("name", RECORDS)
def test_records_copy_and_pickle_as_values(name):
    record = RECORDS[name][0]()
    for copied in (copy.copy(record), copy.deepcopy(record),
                   pickle.loads(pickle.dumps(record))):
        assert type(copied) is type(record) and copied == record and repr(copied) == repr(record)
