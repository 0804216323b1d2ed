import itertools
import json
import random
import sys
from functools import reduce
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from villadsen.bundles import BundleExpr, chern_series
from villadsen.cohomology import GradedClass, _expand, line_series_texts
from villadsen.errors import BaseMismatchError
from villadsen.reports import canonical_json
from villadsen.spaces import SpaceDescriptor, cproj, disk, projection, sphere2, spheres

from conftest import (
    class_document,
    cup,
    dict_form_text,
    graded_components,
    homogeneous_component,
    pullback_class,
    random_class,
    random_space,
    series_cut,
    series_product,
    series_texts,
    unit_class,
    unlimited_int_digits,
)


def generator(space, factor_index):
    exps = [0] * len(space.caps)
    exps[space.generator_position(factor_index)] = 1
    return GradedClass(space, {tuple(exps): 1})


def one_plus_generator(space, factor_index):
    return GradedClass(space, {(0,) * len(space.caps): 1,
                               **generator(space, factor_index).terms})


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
    a = unit_class(spheres(1))
    b = unit_class(spheres(2))
    with pytest.raises(BaseMismatchError):
        cup(a, b)


def test_homogeneous_component_examples():
    p3 = SpaceDescriptor((cproj(3),))
    a = GradedClass(p3, {(0,): 1, (1,): 2, (2,): 1})
    assert homogeneous_component(a, 4) == GradedClass(p3, {(2,): 1})
    assert homogeneous_component(a, 0) == unit_class(p3)
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
    assert pullback_class(f, generator(s1, 0)) == generator(s3, 1)


def test_pullback_constant_keeps_degree_zero():
    from villadsen.spaces import constant
    s2, s1 = spheres(2), spheres(1)
    f = constant(s2, s1, "p")
    a = GradedClass(s1, {(0,): 7, (1,): 3})
    assert pullback_class(f, a) == unit_class(s2, 7)


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
    assert pullback_class(f, unit_class(base)) == unit_class(source)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_cup_commutative_associative_unital(data):
    rng = random.Random(data.draw(st.integers(0, 10 ** 9)))
    space = random_space(rng, max_factors=3)
    a, b, c = (random_class(rng, space) for _ in range(3))
    assert cup(a, b) == cup(b, a)
    assert cup(cup(a, b), c) == cup(a, cup(b, c))
    assert cup(a, unit_class(space)) == a


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_cap_deletion_confluent(data):
    rng = random.Random(data.draw(st.integers(0, 10 ** 9)))
    space = random_space(rng, max_factors=3)
    classes = [random_class(rng, space) for _ in range(3)]
    results = {reduce(cup, perm) for perm in itertools.permutations(classes)}
    assert len(results) == 1


def test_kunneth_examples():
    s2 = spheres(2)
    z1, z2 = generator(s2, 0), generator(s2, 1)
    assert not cup(z1, z2).is_zero()
    assert cup(z1, GradedClass.zero(s2)).is_zero()


def test_kunneth_top_classes_on_projective_blocks():
    space = SpaceDescriptor((cproj(4), cproj(8)))
    top1 = GradedClass(space, {(4, 0): 1})
    top2 = GradedClass(space, {(0, 8): 1})
    assert not cup(top1, top2).is_zero()


def test_kunneth_eight_generator_blocks_brute_force():
    # top classes on two 4-sphere blocks: product expands to a single term
    s8 = spheres(8)
    left = GradedClass(s8, {(1, 1, 1, 1, 0, 0, 0, 0): 3})
    right = GradedClass(s8, {(0, 0, 0, 0, 1, 1, 1, 1): -2})
    assert cup(left, right) == GradedClass(s8, {(1,) * 8: -6})


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
        # a product of classes on disjoint generator blocks cannot cancel
        assert (not cup(*classes).is_zero()) == all(not c.is_zero() for c in classes)


def test_class_serialization_round_trip():
    space = SpaceDescriptor((cproj(3), *spheres(1).factors))
    a = GradedClass(space, {(2, 1): 10 ** 30, (0, 0): -1})
    doc = json.loads(dict_form_text(a))
    assert GradedClass.from_json(space, doc) == a


@st.composite
def graded_classes(draw):
    # disks carry no generator, so some spaces (the empty one too) have none
    atoms = st.one_of(st.just(sphere2()), st.builds(cproj, st.integers(1, 4)),
                      st.builds(disk, st.integers(1, 3)))
    space = SpaceDescriptor(tuple(draw(st.lists(atoms, max_size=5))))
    exponents = st.tuples(*[st.integers(0, cap - 1) for cap in space.caps])
    terms = draw(st.dictionaries(exponents, st.integers(-10 ** 40, 10 ** 40), max_size=8))
    return GradedClass(space, terms)


@settings(max_examples=300, deadline=None)
@given(graded_classes())
def test_class_text_is_its_dict_form_encoded(a):
    # the report writer writes a class document as json's encoder does
    assert canonical_json(class_document(a)) == dict_form_text(a)


@pytest.mark.parametrize("space", [SpaceDescriptor(()), SpaceDescriptor((disk(2),)), spheres(3)])
def test_zero_and_constant_class_text(space):
    zero = GradedClass.zero(space)
    assert canonical_json(class_document(zero)) == dict_form_text(zero) == '{"terms":[]}'
    constant = GradedClass(space, {(0,) * len(space.caps): -5})
    assert canonical_json(class_document(constant)) == dict_form_text(constant)


def test_class_text_past_the_int_digit_limit():
    space = SpaceDescriptor((cproj(2), sphere2()))
    a = GradedClass(space, {(1, 0): -(10 ** 5000) - 7, (2, 1): 3})
    if hasattr(sys, "set_int_max_str_digits"):
        with pytest.raises(ValueError):  # refused by str() under the default limit
            class_document(a)
    with unlimited_int_digits():
        assert canonical_json(class_document(a)) == dict_form_text(a)
        assert '"coefficient":"-1' + "0" * 4999 + '7"' in dict_form_text(a)


def test_class_document_adds_repeated_exponent_vectors():
    space = spheres(2)
    term = {"exponents": [1, 0], "coefficient": "1"}
    assert GradedClass.from_json(space, {"terms": [term, term]}) == \
        GradedClass(space, {(1, 0): 2})


def test_constructor_normalizes_caps_and_zeros():
    space = spheres(1)
    assert GradedClass(space, {(5,): 3}).is_zero()
    assert GradedClass(space, {(1,): 0}).is_zero()


def test_line_series_product_is_the_cartesian_product():
    # series on distinct generators: one term per choice of powers, the cup
    # product of the factors' series classes, written out degree by degree
    space = SpaceDescriptor((cproj(3), disk(2), sphere2()))
    series_y = GradedClass(space, {(0, 0): 4, (1, 0): -5, (2, 0): 6})
    series_z = GradedClass(space, {(0, 0): 2, (0, 1): 7})
    factors = [(1, [2, 7]), (0, [4, -5, 6])]
    product = cup(series_y, series_z)
    assert series_product(space, factors) == product
    assert len(product.terms) == 6
    texts = {d: dict_form_text(part) for d, part in graded_components(product).items()}
    assert series_texts(space, factors) == texts
    assert series_texts(space, []) == {0: dict_form_text(unit_class(space))}


def texts_of_product(space, factors) -> dict[int, str]:
    parts = graded_components(series_product(space, factors))
    return {degree: dict_form_text(part) for degree, part in parts.items()}


def test_line_series_texts_of_short_and_signed_series():
    space = SpaceDescriptor((disk(1), cproj(3), sphere2(), disk(2), cproj(2)))
    cases = [
        [(0, [5])],                             # one term, of power zero
        [(1, [-3])],                            # a negative one, between factor-free generators
        [(0, [-1, 4, -6, 9]), (2, [7, -2])],    # signs, a factor-free generator between
        [(0, [1, -1]), (1, [-1, 1])],           # a factor-free generator after the last
        [(2, [-2, -3, 5]), (0, [1, 1, 1, -1])],  # given out of position order
        [(0, [1, 2]), (1, []), (2, [3])],      # an empty series: zero, with no component
    ]
    for factors in cases:
        assert series_texts(space, factors) == texts_of_product(space, factors)


def test_line_series_texts_cut_before_every_factor():
    # k factors of two powers but the one at index j, which has 2**k; then
    # factors of 1 to 4 powers, drawn until the cut has fallen
    # before every factor and after the last.  Each cut is the reference's,
    # where the runs plus the suffix terms are fewest
    rng = random.Random(7)
    for k in range(1, 7):
        # summand-free spheres around and between the factors' projective spaces
        space = SpaceDescriptor(tuple(cproj(2 ** k) if i % 2 else sphere2()
                                      for i in range(2 * k + 1)))
        shapes = [[2 ** k if i == j else 2 for i in range(k)] for j in range(k)]
        cuts = {series_cut(lengths) for lengths in shapes}
        while len(cuts) < k + 1:
            lengths = [rng.randint(1, 4) for _ in range(k)]
            if series_cut(lengths) not in cuts:
                cuts.add(series_cut(lengths))
                shapes.append(lengths)
        assert cuts == set(range(k + 1))
        for lengths in shapes:
            factors = [(2 * i + 1, [rng.choice([-1, 1]) * rng.randint(1, 99)
                                    for _ in range(size)])
                       for i, size in enumerate(lengths)]
            with mock.patch("villadsen.cohomology._expand", wraps=_expand) as expand:
                texts = series_texts(space, factors)
            # the prefix block starts from the exponent text "0" of the
            # first sphere, the suffix block from ""
            prefix_levels = [levels for text, levels in
                             (c.args for c in expand.call_args_list) if text]
            assert [len(levels) for levels in prefix_levels] == [series_cut(lengths)]
            assert texts == texts_of_product(space, factors)


def test_line_series_texts_of_a_mixed_document_in_few_runs():
    # a 1960-term `chern` document of series lengths [4, 5, 2, 7, 7]: a
    # suffix block of the last two factors would write 520 runs of about
    # four rows (40 prefix and 49 suffix terms expanded), the cut after the
    # first two writes 280 (20 and 98 terms)
    space = SpaceDescriptor((cproj(3), cproj(4), sphere2(), cproj(6), cproj(6)))
    factors = chern_series(BundleExpr(space, 1, [(0, 3), (1, 7), (2, 2), (3, 6), (4, 9)]))
    assert [len(coeffs) for _, coeffs in factors] == [4, 5, 2, 7, 7]
    components = line_series_texts(space, factors)
    assert {degree: part.text for degree, part in components.items()} == \
        texts_of_product(space, factors)
    # a component's pieces are its opening text and its runs
    assert sum(len(part.pieces.runs) for part in components.values()) <= 280


def test_line_series_product_checks_each_factor():
    # each factor is checked once, before any term is written
    space = SpaceDescriptor((cproj(2), sphere2()))
    with pytest.raises(ValueError, match="two factors"):
        line_series_texts(space, [(0, [1, 2]), (1, [1, 1]), (0, [1, 3])])
    with pytest.raises(ValueError, match="zero coefficient"):
        line_series_texts(space, [(0, [1, 0, 4])])
    with pytest.raises(ValueError, match="cap"):
        line_series_texts(space, [(1, [1, 2, 1])])
    with pytest.raises(ValueError, match="no generator"):
        line_series_texts(space, [(2, [1])])


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
