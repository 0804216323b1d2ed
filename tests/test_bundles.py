import json
import random

import pytest
from hypothesis import given, settings, strategies as st

from villadsen.bundles import (
    BundleExpr,
    DiagonalSlot,
    chern,
    chern_component,
    chern_expansion_cost,
    euler,
    euler_nonzero,
    line_sum,
    parse_bundle,
    pullback_bundle,
    pushforward_diagonal,
    tensor_line,
    trivial_bundle,
)
from villadsen.cohomology import (
    GradedClass,
    cup,
    graded_components,
    homogeneous_component,
    product_all,
    pullback_class,
)
from villadsen.errors import CrossCheckDisagreement, GeneratorBudgetExceeded, InvalidLineClassError
from villadsen.spaces import SpaceDescriptor, cproj, disk, projection, sphere2, spheres

from conftest import component_dropping_top_term, direct_sum, random_space


def line_class(space: SpaceDescriptor, pos: int | None) -> GradedClass:
    """The line class on the generator at `pos`, or the zero line for None."""
    if pos is None:
        return GradedClass.zero(space)
    return GradedClass.generator(space, list(space.positions)[pos])


def bundle_document(trivial: int, lines: list[tuple[GradedClass, int]]) -> dict:
    """The `chern --bundle` document of a trivial rank and (line class, mult) pairs."""
    return json.loads(json.dumps({
        "trivial": str(trivial),
        "summands": [{"line": line.to_json(), "mult": str(m)} for line, m in lines]}))


def random_bundle(rng: random.Random, space: SpaceDescriptor,
                  max_mult: int = 3) -> BundleExpr:
    parts = []
    for idx, atom in enumerate(space.factors):
        if atom.generator_cap is None:
            continue
        m = rng.randint(0, max_mult)
        if m:
            parts.append((idx, m))
    return line_sum(space, parts, trivial_rank=rng.randint(0, 2))


def test_trivial_rank():
    assert trivial_bundle(spheres(2), 2).rank == 2


def test_single_line_block_rank():
    space = SpaceDescriptor((cproj(36),))
    assert line_sum(space, [(0, 36)]).rank == 36


def test_chern_of_trivial_is_one():
    space = spheres(2)
    assert chern(trivial_bundle(space, 5)) == GradedClass.unit(space)


def test_chern_of_two_pulled_back_lines():
    space = spheres(2)
    b = line_sum(space, [(0, 1), (1, 1)])
    assert chern(b) == GradedClass(space, {(0, 0): 1, (1, 0): 1, (0, 1): 1, (1, 1): 1})


def test_chern_of_multiple_square_zero_line():
    space = spheres(1)
    b = line_sum(space, [(0, 7)])
    assert chern(b) == GradedClass(space, {(0,): 1, (1,): 7})  # (1+z)^7 = 1+7z


def test_euler_of_trivial_vanishes():
    assert euler(trivial_bundle(spheres(2), 1)).is_zero()


def test_euler_top_power_at_cap_boundary():
    kappa = 8
    space = SpaceDescriptor((cproj(kappa),))
    assert euler(line_sum(space, [(0, kappa)])) == GradedClass(space, {(kappa,): 1})
    assert euler(line_sum(space, [(0, kappa + 1)])).is_zero()


def test_euler_of_block_sum_is_product_of_top_powers():
    space = SpaceDescriptor((cproj(2), cproj(8)))
    b = line_sum(space, [(0, 2), (1, 8)])
    assert euler(b) == GradedClass(space, {(2, 8): 1})


def test_euler_dies_with_trivial_summand():
    rng = random.Random(3)
    for _ in range(30):
        space = random_space(rng)
        b = direct_sum(random_bundle(rng, space), trivial_bundle(space, 1))
        assert euler(b).is_zero()


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_euler_equals_top_chern_component(data):
    rng = random.Random(data.draw(st.integers(0, 10 ** 9)))
    space = random_space(rng)
    b = random_bundle(rng, space)
    assert euler(b) == homogeneous_component(chern(b), 2 * b.rank)


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_chern_multiplicative_over_direct_sum(data):
    rng = random.Random(data.draw(st.integers(0, 10 ** 9)))
    space = random_space(rng)
    a = random_bundle(rng, space)
    b = random_bundle(rng, space)
    assert chern(direct_sum(a, b)) == cup(chern(a), chern(b))


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_chern_natural_under_pullback(data):
    rng = random.Random(data.draw(st.integers(0, 10 ** 9)))
    base = random_space(rng, max_factors=3)
    source = SpaceDescriptor(base.factors + random_space(rng, max_factors=2).factors)
    f = projection(source, base, tuple(range(len(base.factors))))
    b = random_bundle(rng, base)
    assert chern(pullback_bundle(f, b)) == pullback_class(f, chern(b))


def test_pullback_along_constant_gives_trivial():
    from villadsen.spaces import constant
    base = spheres(2)
    src = spheres(3)
    b = line_sum(base, [(0, 2), (1, 1)], trivial_rank=1)
    pulled = pullback_bundle(constant(src, base, "pt"), b)
    assert pulled == trivial_bundle(src, b.rank)


def test_pushforward_identity_slot():
    space = spheres(2)
    b = line_sum(space, [(0, 2)], trivial_rank=1)
    identity = projection(space, space, (0, 1))
    assert pushforward_diagonal(b, [DiagonalSlot(identity)]) == b


def test_pushforward_point_slots_tensor_with_carrier():
    from villadsen.spaces import constant
    base = spheres(1)
    src = SpaceDescriptor(base.factors + (cproj(4),))
    b = line_sum(base, [(0, 3)], trivial_rank=2)  # rank 5
    point = constant(src, base, "y")
    out = pushforward_diagonal(b, [DiagonalSlot(point, 2, 1)])
    # two copies of rank(b) lines carried on the projective generator, position 1
    assert out == BundleExpr(src, 0, [(1, 2 * b.rank)])
    assert out.parts == {1: 10}
    with pytest.raises(InvalidLineClassError):
        pushforward_diagonal(b, [DiagonalSlot(point, 1, 2)])  # src has two generators


def test_pushforward_mixed_slots_rank():
    from villadsen.spaces import constant
    base = spheres(1)
    src = SpaceDescriptor(base.factors + spheres(1).factors)
    b = line_sum(base, [(0, 1)], trivial_rank=1)
    proj = projection(src, base, (0,))
    out = pushforward_diagonal(b, [DiagonalSlot(proj, 2),
                                   DiagonalSlot(constant(src, base, "y"), 3)])
    assert out.rank == 5 * b.rank


def test_tensor_line_converts_trivial_part():
    space = spheres(2)
    out = tensor_line(trivial_bundle(space, 3), 1)
    assert out == BundleExpr(space, 0, [(1, 3)])
    assert tensor_line(trivial_bundle(space, 0), 1) == BundleExpr(space)


def test_tensor_line_rejects_unrepresentable_shift():
    # a carrier on top of an existing line leaves the single-generator model
    space = spheres(2)
    with pytest.raises(InvalidLineClassError):
        tensor_line(BundleExpr(space, 1, [(0, 2)]), 1)
    with pytest.raises(InvalidLineClassError):
        tensor_line(trivial_bundle(space, 1), 2)  # no generator at position 2


def test_invalid_line_class_rejected():
    space = SpaceDescriptor((*spheres(1).factors, cproj(3)))
    z0, y1 = line_class(space, 0), line_class(space, 1)
    for line in (z0.scale(2), z0 + y1, y1 - z0, GradedClass(space, {(0, 2): 1}),
                 GradedClass.unit(space)):
        with pytest.raises(InvalidLineClassError):
            parse_bundle(space, bundle_document(0, [(z0, 1), (line, 1)]))
    # so is an invalid line with no copies
    with pytest.raises(InvalidLineClassError):
        parse_bundle(space, bundle_document(0, [(z0.scale(2), 0)]))


def test_normal_form_merges_and_folds():
    space = spheres(2)
    z0 = line_class(space, 0)
    zero_line = line_class(space, None)
    b = parse_bundle(space, bundle_document(1, [(z0, 2), (z0, 3), (zero_line, 4)]))
    assert b.trivial_rank == 5
    assert b.parts == {0: 5}
    assert b == BundleExpr(space, 1 + 4, [(0, 2), (0, 3), (1, 0)])
    # a z0^2 term is zero in the ring, so that line is the zero line too
    squared = GradedClass(space, {(2, 0): 1})
    assert parse_bundle(space, bundle_document(0, [(squared, 3)])) == trivial_bundle(space, 3)


def test_budget_refusal_and_override(monkeypatch):
    monkeypatch.setenv("ENGINE_GENERATOR_BUDGET", "1000")
    space = SpaceDescriptor((cproj(200), cproj(200), cproj(200)))
    b = line_sum(space, [(0, 200), (1, 200), (2, 200)])
    assert chern_expansion_cost(b) == 201 ** 3
    with pytest.raises(GeneratorBudgetExceeded):
        chern(b)
    # the Euler cross-check expands only its own degree, so the budget does not bind
    nonzero, route = euler_nonzero(b)
    assert nonzero and route == "factorized+full"


def test_euler_nonzero_cross_checks_when_affordable():
    space = SpaceDescriptor((cproj(3), cproj(5)))
    b = line_sum(space, [(0, 3), (1, 5)])
    nonzero, route = euler_nonzero(b)
    assert nonzero and route == "factorized+full"
    # a multiplicity at the cap kills the Euler class; both routes agree on zero
    assert euler_nonzero(line_sum(space, [(0, 4), (1, 5)])) == (False, "factorized+full")
    assert euler_nonzero(line_sum(space, [(0, 3)], trivial_rank=1)) == (False, "factorized+full")


def test_chern_component_examples():
    space = SpaceDescriptor((cproj(3), *spheres(1).factors))
    b = line_sum(space, [(0, 5), (1, 2)], trivial_rank=4)
    # (1 + y)^5 truncated at y^3 times (1 + z)^2 truncated at z: degree 4 is
    # C(5,2) y^2 + C(5,1) C(2,1) y z
    assert chern_component(b, 4).terms == {(2, 0): 10, (1, 1): 10}
    assert chern_component(b, 0) == GradedClass.unit(b.base)
    for degree in (-2, 3, 10, 2 * b.rank):
        assert chern_component(b, degree).is_zero()


def test_chern_component_never_expands_a_huge_multiplicity():
    big = 10 ** 40
    space = SpaceDescriptor((cproj(big), cproj(2)))
    b = line_sum(space, [(0, big), (1, 2)])
    # the Euler degree keeps one term per step, whatever the cap
    assert chern_component(b, 2 * b.rank).terms == {(big, 2): 1}
    assert chern_component(b, 2 * b.rank) == euler(b)
    assert chern_component(b, 4).terms == {(2, 0): big * (big - 1) // 2,
                                           (1, 1): 2 * big, (0, 2): 1}


def test_bundle_serialization_round_trip():
    space = SpaceDescriptor((cproj(4), *spheres(1).factors))
    b = line_sum(space, [(0, 10 ** 25), (1, 3)], trivial_rank=7)
    doc = bundle_document(b.trivial_rank,
                          [(line_class(space, pos), m) for pos, m in b.parts.items()])
    assert parse_bundle(space, doc) == b


def test_env_budget_parsing(monkeypatch):
    from villadsen.bundles import expansion_budget, DEFAULT_BUDGET
    monkeypatch.delenv("ENGINE_GENERATOR_BUDGET", raising=False)
    assert expansion_budget() == DEFAULT_BUDGET
    monkeypatch.setenv("ENGINE_GENERATOR_BUDGET", "123")
    assert expansion_budget() == 123
    monkeypatch.setenv("ENGINE_GENERATOR_BUDGET", "-1")
    with pytest.raises(ValueError):
        expansion_budget()
    # read like every other integer input, and named when refused
    for raw in ("1_000", " 5", "abc", "\u0663", "true"):
        monkeypatch.setenv("ENGINE_GENERATOR_BUDGET", raw)
        with pytest.raises(ValueError, match="ENGINE_GENERATOR_BUDGET must be an integer"):
            expansion_budget()


def test_position_keyed_construction_matches_checked_lines():
    space = SpaceDescriptor((cproj(2), *spheres(2).factors))
    lines = [line_class(space, pos) for pos in range(3)]
    checked = parse_bundle(space, bundle_document(1, [(lines[0], 2), (lines[2], 1),
                                                      (lines[0], 3)]))
    keyed = BundleExpr(space, 1, [(0, 2), (2, 1), (0, 3)])
    assert keyed == checked and hash(keyed) == hash(checked)
    # parts are listed in the order of the lines' exponent vectors
    assert list(keyed.parts.items()) == [(2, 1), (0, 5)]
    assert repr(keyed) == "BundleExpr(theta_1 + 1*z2 + 5*y0)"
    with pytest.raises(InvalidLineClassError):
        BundleExpr(space, 0, [(3, 1)])
    with pytest.raises(ValueError):
        BundleExpr(space, 0, [(0, -1)])
    with pytest.raises(ValueError):
        BundleExpr(space, -1)
    # a zero line's multiplicity must not mend or spoil the trivial rank
    zero_line = line_class(space, None)
    for doc in ({"trivial": "-1"}, bundle_document(0, [(lines[1], -1)]),
                bundle_document(3, [(zero_line, -1)]), bundle_document(-1, [(zero_line, 4)])):
        with pytest.raises(ValueError):
            parse_bundle(space, doc)


ATOMS = st.one_of(st.builds(disk, st.integers(0, 3)), st.builds(sphere2),
                  st.builds(cproj, st.integers(1, 4)))


@st.composite
def split_bundles(draw):
    """(space, trivial rank, [(line position or None, multiplicity), ...]).

    Positions may repeat (split summands), None is the zero line, and the
    summand list may be empty.
    """
    space = SpaceDescriptor(tuple(draw(st.lists(ATOMS, min_size=1, max_size=5))))
    positions = st.sampled_from([None, *range(len(space.caps))])
    summands = draw(st.lists(st.tuples(positions, st.integers(0, 5)), max_size=6))
    return space, draw(st.integers(0, 2)), summands


@settings(max_examples=200, deadline=None)
@given(split_bundles())
def test_chern_kernel_matches_cup_product_of_summand_series(drawn):
    space, trivial, summands = drawn
    lines = [(line_class(space, pos), m) for pos, m in summands]
    b = parse_bundle(space, bundle_document(trivial, lines))
    # (1 + line)^m for each summand as it was given, by m cups of 1 + line;
    # the validating constructor drops every power at or past its cap
    series = [GradedClass.unit(space) + line for line, m in lines for _ in range(m)]
    total = chern(b)
    assert total == product_all([GradedClass.unit(space), *series])
    assert len(total.terms) == chern_expansion_cost(b)
    parts = graded_components(total)
    for degree in range(0, 2 * sum(space.caps) + 1):
        assert parts.get(degree, GradedClass.zero(space)) == homogeneous_component(total, degree)
        assert chern_component(b, degree) == homogeneous_component(total, degree)


def test_euler_cross_check_disagreement_is_reported(monkeypatch):
    space = SpaceDescriptor((cproj(3), cproj(5)))
    b = line_sum(space, [(0, 3), (1, 5)])
    monkeypatch.setattr("villadsen.bundles.chern_component", component_dropping_top_term)
    with pytest.raises(CrossCheckDisagreement):
        euler_nonzero(b)
