import random

import pytest
from hypothesis import given, strategies as st

from villadsen.cli import main
from villadsen.cohomology import GradedClass
from villadsen.spaces import (
    SpaceAtom,
    SpaceDescriptor,
    SpaceMap,
    cproj,
    disk,
    projection,
    read_int,
    spheres,
    sphere2,
)

from conftest import random_space


def test_sphere_power_dimension():
    assert spheres(3).real_dimension == 6


def test_mixed_stage_space_dimension():
    # one disk pair plus three projective factors, summed directly
    space = SpaceDescriptor((disk(2), cproj(2), cproj(8), cproj(36)))
    assert space.real_dimension == 2 * 2 + 2 * (2 + 8 + 36) == 96


def test_disk_only_dimension():
    assert SpaceDescriptor((disk(5),)).real_dimension == 10


def test_product_dimension_additive():
    rng = random.Random(7)
    for _ in range(50):
        a, b = random_space(rng), random_space(rng)
        product = SpaceDescriptor(a.factors + b.factors)
        assert product.real_dimension == a.real_dimension + b.real_dimension


@pytest.mark.parametrize("argv", [["cfp", "--terms", "6", "--stage", "140"],
                                  ["v2", "-k", "2", "-n", "40", "--rc", "--trace"]])
def test_building_and_comparing_spaces_hashes_no_atom(argv, monkeypatch, capsys):
    calls = []
    atom_hash = SpaceAtom.__hash__

    def counted(atom):
        calls.append(atom)
        return atom_hash(atom)

    monkeypatch.setattr(SpaceAtom, "__hash__", counted)
    assert main(argv) == 0
    capsys.readouterr()
    assert calls == []
    # the counter does see a hashed atom
    hash(sphere2())
    assert len(calls) == 1


def test_atom_validation():
    with pytest.raises(ValueError):
        SpaceAtom("cp", 0)
    with pytest.raises(ValueError):
        SpaceAtom("disk", -1)
    with pytest.raises(ValueError):
        SpaceAtom("weird", 1)


def test_descriptor_from_json():
    doc = {"factors": [{"kind": "disk", "d": 2, "label": "d0"}, {"kind": "cp", "n": "4"},
                       {"kind": "s2", "label": "s"}]}
    space = SpaceDescriptor((disk(2, label="d0"), cproj(4), sphere2(label="s")))
    assert SpaceDescriptor.from_json(doc) == space


def test_space_presents_its_ring():
    # a disk carries no generator; the sphere and CP^3 generators sit at
    # positions 0 and 1, capped at powers 2 and 4
    space = SpaceDescriptor((disk(2), sphere2(), cproj(3)))
    assert space.caps == (2, 4)
    assert (space.generator_position(1), space.generator_position(2)) == (0, 1)
    with pytest.raises(KeyError):
        space.generator_position(0)
    assert repr(GradedClass(space, {(0, 1): 1})) == "GradedClass(y2)"
    assert repr(GradedClass(space, {(1, 0): 1})) == "GradedClass(z1)"


def test_map_kind_must_be_basic():
    # only projections and constant maps exist
    with pytest.raises(ValueError):
        SpaceMap(spheres(3), spheres(1), "composite")


@pytest.mark.parametrize("value, expected", [(7, 7), (-2, -2), ("12", 12), ("-0", 0),
                                             ("9" * 40, int("9" * 40))])
def test_read_int_accepts_integers_and_decimal_strings(value, expected):
    assert read_int(value, "slot") == expected


@pytest.mark.parametrize("value", [True, False, "1_000", " 7", "7\n", "+7", "\u0663", "",
                                   "0x1f", 2.0, None, [1]])
def test_read_int_refuses_everything_else(value):
    with pytest.raises(ValueError, match="slot must be an integer"):
        read_int(value, "slot")


@given(st.integers(min_value=0, max_value=30))
def test_disk_power_dimension_formula(d):
    assert disk(d).real_dimension == 2 * d


def test_prefix_projection_is_stored_as_a_range():
    source = SpaceDescriptor((disk(1), cproj(2), sphere2(), cproj(3)))
    target = SpaceDescriptor(source.factors[:3])
    assert projection(source, target, range(3)) == projection(source, target, (0, 1, 2))
    with pytest.raises(ValueError, match="index 3 out of range"):
        projection(target, source, range(4))
    with pytest.raises(ValueError, match="source factor 2 does not match target factor 2"):
        projection(source, SpaceDescriptor(source.factors[:2] + (cproj(2),)), range(3))
    with pytest.raises(ValueError, match="source factor 3 does not match target factor 1"):
        projection(source, SpaceDescriptor(source.factors[:2]), (0, 3))
    with pytest.raises(ValueError, match="distinct"):
        projection(spheres(3), spheres(2), (1, 1))
    with pytest.raises(ValueError, match="index 5 out of range"):
        projection(spheres(3), spheres(2), (0, 5))
