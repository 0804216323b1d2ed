import json
import random

import pytest
from hypothesis import given, strategies as st

from villadsen.errors import CompositionError
from villadsen.spaces import (
    SpaceAtom,
    SpaceDescriptor,
    SpaceMap,
    compose,
    constant,
    cproj,
    disk,
    identity,
    projection,
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
        assert a.product(b).real_dimension == a.real_dimension + b.real_dimension


def test_atom_validation():
    with pytest.raises(ValueError):
        SpaceAtom("cp", 0)
    with pytest.raises(ValueError):
        SpaceAtom("disk", -1)
    with pytest.raises(ValueError):
        SpaceAtom("weird", 1)


def test_compose_projection_after_projection():
    s3 = spheres(3)
    s2 = spheres(2)
    s1 = spheres(1)
    g = projection(s3, s2, (0, 1))
    f = projection(s2, s1, (0,))
    assert compose(f, g) == projection(s3, s1, (0,))


def test_compose_constant_after_projection():
    s2 = spheres(2)
    s1 = spheres(1)
    g = projection(s2, s1, (0,))
    f = constant(s1, s1, "p")
    out = compose(f, g)
    assert out.kind == "const" and out.point == "p"
    assert out.source == s2 and out.target == s1


def test_compose_index_arithmetic():
    # select factors {0, 2}, then the second of those: factor 2 overall
    s3 = spheres(3)
    s2 = spheres(2)
    s1 = spheres(1)
    g = projection(s3, s2, (0, 2))
    f = projection(s2, s1, (1,))
    assert compose(f, g) == projection(s3, s1, (2,))


def test_compose_rejects_mismatched_chain():
    f = projection(spheres(2), spheres(1), (0,))
    g = projection(spheres(3), spheres(3), (0, 1, 2))
    with pytest.raises(CompositionError):
        compose(f, g)


def _random_chain(rng, length):
    """A composable chain of maps ending at a random space."""
    spaces = [random_space(rng, spheres_only=False)]
    maps = []
    for _ in range(length):
        src_extra = random_space(rng)
        target = spaces[-1]
        source = target.product(src_extra)
        if rng.random() < 0.8:
            maps.append(projection(source, target, tuple(range(len(target.factors)))))
        else:
            maps.append(constant(source, target, f"q{rng.randrange(100)}"))
        spaces.append(source)
    return maps  # maps[i]: spaces[i+1] -> spaces[i]


def test_compose_associative():
    rng = random.Random(11)
    for _ in range(60):
        f, g, h = (m for m in _random_chain(rng, 3))
        left = compose(compose(f, g), h)
        right = compose(f, compose(g, h))
        assert left == right


def test_compose_folds_random_chains():
    rng = random.Random(13)
    for _ in range(40):
        chain = _random_chain(rng, 3)  # chain[-1] is applied first
        folded = chain[-1]
        for f in reversed(chain[:-1]):
            folded = compose(f, folded)
        assert (folded.source, folded.target) == (chain[-1].source, chain[0].target)
        # a chain holding a constant map is constant, at the point of the one applied last
        points = [m.point for m in reversed(chain) if m.kind == "const"]
        assert folded.kind == ("const" if points else "proj")
        assert folded.point == (points[-1] if points else "")


def test_identity_is_neutral():
    rng = random.Random(17)
    space = random_space(rng)
    other = space.product(spheres(1))
    f = projection(other, space, tuple(range(len(space.factors))))
    assert compose(identity(space), f) == f
    assert compose(f, identity(other)) == f


def test_descriptor_serialization_round_trip():
    space = SpaceDescriptor((disk(2, label="d0"), cproj(4), sphere2(label="s")))
    doc = json.loads(json.dumps(space.to_json()))
    assert SpaceDescriptor.from_json(doc) == space


def test_map_serialization_round_trip():
    s3, s1 = spheres(3), spheres(1)
    for m in (projection(s3, s1, (2,)), constant(s3, s1, "x0")):
        doc = json.loads(json.dumps(m.to_json()))
        assert SpaceMap.from_json(doc) == m
    # only the two basic kinds exist; a chain is folded by `compose` instead
    with pytest.raises(ValueError):
        SpaceMap.from_json({"kind": "composite", "source": s3.to_json(),
                            "target": s1.to_json(), "maps": []})
    with pytest.raises(ValueError):
        SpaceMap(s3, s1, "composite")


@given(st.integers(min_value=0, max_value=30))
def test_disk_power_dimension_formula(d):
    assert disk(d).real_dimension == 2 * d
