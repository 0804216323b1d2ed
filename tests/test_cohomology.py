import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from villadsen.cohomology import (
    GradedClass,
    cup,
    graded_components,
    homogeneous_component,
    kunneth_product_nonzero,
    line_series_product,
    product_all,
    pullback_class,
)
from villadsen.errors import BaseMismatchError
from villadsen.spaces import SpaceDescriptor, cproj, disk, projection, sphere2, spheres

from conftest import random_class, random_space


def one_plus_generator(space, factor_index, coeff=1):
    return GradedClass.unit(space) + GradedClass.generator(space, factor_index).scale(coeff)


def test_cup_caps_projective_line():
    line = SpaceDescriptor((cproj(1),))
    a = one_plus_generator(line, 0)
    sq = cup(a, a)
    assert sq == GradedClass(line, {(0,): 1, (1,): 2})  # y^2 is capped away


def test_cup_square_zero_generators():
    s2 = spheres(2)
    prod = cup(one_plus_generator(s2, 0), one_plus_generator(s2, 1))
    assert prod == GradedClass(s2, {(0, 0): 1, (1, 0): 1, (0, 1): 1, (1, 1): 1})


def test_cup_exponent_reaching_cap_dies():
    p3 = SpaceDescriptor((cproj(3),))
    y2 = GradedClass(p3, {(2,): 1})
    assert cup(y2, y2).is_zero()


def test_cup_rejects_mixed_presentations():
    a = GradedClass.unit(spheres(1))
    b = GradedClass.unit(spheres(2))
    with pytest.raises(BaseMismatchError):
        cup(a, b)


def test_homogeneous_component_examples():
    p3 = SpaceDescriptor((cproj(3),))
    a = GradedClass(p3, {(0,): 1, (1,): 2, (2,): 1})
    assert homogeneous_component(a, 4) == GradedClass(p3, {(2,): 1})
    assert homogeneous_component(a, 0) == GradedClass.unit(p3)
    assert homogeneous_component(a, 3).is_zero()
    assert homogeneous_component(a, -2).is_zero()


def test_degree_four_part_of_two_line_product():
    # (1+z1)(1+z2): the degree-4 part is the product of the two generators
    s2 = spheres(2)
    total = cup(one_plus_generator(s2, 0), one_plus_generator(s2, 1))
    assert homogeneous_component(total, 4) == GradedClass(s2, {(1, 1): 1})


def test_pullback_projection_sends_generator_to_selected_factor():
    s3, s1 = spheres(3), spheres(1)
    f = projection(s3, s1, (1,))
    z = GradedClass.generator(s1, 0)
    assert pullback_class(f, z) == GradedClass.generator(s3, 1)


def test_pullback_constant_keeps_degree_zero():
    from villadsen.spaces import constant
    s2, s1 = spheres(2), spheres(1)
    f = constant(s2, s1, "p")
    a = GradedClass(s1, {(0,): 7, (1,): 3})
    assert pullback_class(f, a) == GradedClass.unit(s2, 7)


def test_pullback_along_fold_matches_two_step():
    rng = random.Random(23)
    for _ in range(40):
        base = random_space(rng, max_factors=2)
        mid = SpaceDescriptor(base.factors + random_space(rng, max_factors=2).factors)
        top = SpaceDescriptor(mid.factors + random_space(rng, max_factors=2).factors)
        g = projection(top, mid, tuple(range(len(mid.factors))))
        f = projection(mid, base, tuple(range(len(base.factors))))
        a = random_class(rng, base)
        two_step = pullback_class(g, pullback_class(f, a))
        # f after g selects the factors g.indices[i] for i in f.indices
        composite = projection(top, base, tuple(g.indices[i] for i in f.indices))
        folded = pullback_class(composite, a)
        assert two_step == folded


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_pullback_is_ring_homomorphism(data):
    rng = random.Random(data.draw(st.integers(0, 10 ** 9)))
    base = random_space(rng, max_factors=3)
    source = SpaceDescriptor(base.factors + random_space(rng, max_factors=2).factors)
    f = projection(source, base, tuple(range(len(base.factors))))
    a = random_class(rng, base)
    b = random_class(rng, base)
    assert pullback_class(f, cup(a, b)) == cup(pullback_class(f, a),
                                               pullback_class(f, b))
    assert pullback_class(f, GradedClass.unit(base)) == GradedClass.unit(source)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_cup_commutative_associative_unital(data):
    rng = random.Random(data.draw(st.integers(0, 10 ** 9)))
    space = random_space(rng, max_factors=3)
    a, b, c = (random_class(rng, space) for _ in range(3))
    assert cup(a, b) == cup(b, a)
    assert cup(cup(a, b), c) == cup(a, cup(b, c))
    assert cup(a, GradedClass.unit(space)) == a


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_cap_deletion_confluent(data):
    rng = random.Random(data.draw(st.integers(0, 10 ** 9)))
    space = random_space(rng, max_factors=3)
    classes = [random_class(rng, space) for _ in range(3)]
    results = {product_all(list(perm)) for perm in itertools.permutations(classes)}
    assert len(results) == 1


def test_kunneth_examples():
    s2 = spheres(2)
    z1 = GradedClass.generator(s2, 0)
    z2 = GradedClass.generator(s2, 1)
    assert kunneth_product_nonzero([z1, z2]) is True
    assert kunneth_product_nonzero([z1, GradedClass.zero(s2)]) is False


def test_kunneth_top_classes_on_projective_blocks():
    space = SpaceDescriptor((cproj(4), cproj(8)))
    top1 = GradedClass(space, {(4, 0): 1})
    top2 = GradedClass(space, {(0, 8): 1})
    assert kunneth_product_nonzero([top1, top2]) is True
    assert not cup(top1, top2).is_zero()


def test_kunneth_eight_generator_blocks_brute_force():
    # top classes on two 4-sphere blocks: product expands to a single term
    s8 = spheres(8)
    left = GradedClass(s8, {(1, 1, 1, 1, 0, 0, 0, 0): 3})
    right = GradedClass(s8, {(0, 0, 0, 0, 1, 1, 1, 1): -2})
    assert kunneth_product_nonzero([left, right]) is True
    assert cup(left, right) == GradedClass(s8, {(1,) * 8: -6})


def test_kunneth_rejects_overlapping_blocks():
    s2 = spheres(2)
    z1 = GradedClass.generator(s2, 0)
    with pytest.raises(ValueError):
        kunneth_product_nonzero([z1, z1])


def test_kunneth_agrees_with_full_expansion():
    rng = random.Random(31)
    for _ in range(80):
        space = random_space(rng, max_factors=4)
        n = len(space.caps)
        if n < 2:
            continue
        split = rng.randint(1, n - 1)
        blocks = [list(range(0, split)), list(range(split, n))]
        classes = []
        for block in blocks:
            caps = [space.caps[i] for i in block]
            terms = {}
            for _ in range(rng.randint(0, 3)):
                exps = [0] * n
                for i, cap in zip(block, caps):
                    exps[i] = rng.randrange(0, cap)
                coeff = rng.randint(-3, 3)
                if coeff:
                    terms[tuple(exps)] = coeff
            classes.append(GradedClass(space, terms))
        expected = not cup(classes[0], classes[1]).is_zero()
        assert kunneth_product_nonzero(classes) == expected


def test_class_serialization_round_trip():
    import json
    space = SpaceDescriptor((cproj(3), *spheres(1).factors))
    a = GradedClass(space, {(2, 1): 10 ** 30, (0, 0): -1})
    doc = json.loads(json.dumps(a.to_json()))
    assert GradedClass.from_json(space, doc) == a


def test_constructor_normalizes_caps_and_zeros():
    space = spheres(1)
    assert GradedClass(space, {(5,): 3}).is_zero()
    assert GradedClass(space, {(1,): 0}).is_zero()


def test_line_series_product_is_the_cartesian_product():
    space = SpaceDescriptor((cproj(3), disk(2), sphere2()))
    y = GradedClass.generator(space, 0)
    z = GradedClass.generator(space, 2)
    series_y = GradedClass.unit(space, 4) + y.scale(-5) + cup(y, y).scale(6)
    series_z = GradedClass.unit(space, 2) + z.scale(7)
    got = line_series_product(space, [(1, [2, 7]), (0, [4, -5, 6])])
    assert got == cup(series_y, series_z)
    assert len(got.terms) == 6
    assert line_series_product(space, []) == GradedClass.unit(space)


def test_line_series_product_checks_each_factor():
    space = SpaceDescriptor((cproj(2), sphere2()))
    with pytest.raises(ValueError, match="two factors"):
        line_series_product(space, [(0, [1, 2]), (1, [1, 1]), (0, [1, 3])])
    with pytest.raises(ValueError, match="zero coefficient"):
        line_series_product(space, [(0, [1, 0, 4])])
    with pytest.raises(ValueError, match="cap"):
        line_series_product(space, [(1, [1, 2, 1])])
    with pytest.raises(ValueError, match="no generator"):
        line_series_product(space, [(2, [1])])


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_graded_components_match_homogeneous_components(data):
    rng = random.Random(data.draw(st.integers(0, 10 ** 9)))
    a = random_class(rng, random_space(rng, max_factors=4), max_terms=8)
    parts = graded_components(a)
    assert list(parts) == sorted(parts)
    for degree in range(-1, 2 * sum(a.space.caps) + 1):
        assert parts.get(degree, GradedClass.zero(a.space)) \
            == homogeneous_component(a, degree)
    assert all(not part.is_zero() for part in parts.values())
