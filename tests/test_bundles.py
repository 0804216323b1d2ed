import json
import math
import os
import random
import sys
from functools import reduce
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from villadsen.bundles import (
    BundleExpr,
    DiagonalSlot,
    chern_component,
    chern_expansion_cost,
    chern_series,
    euler,
    euler_nonzero,
    parse_bundle,
    pushforward_diagonal,
)
from villadsen.cohomology import GradedClass, line_series_texts
from villadsen.errors import (
    CrossCheckDisagreement,
    GeneratorBudgetExceeded,
    InvalidLineClassError,
)
from villadsen.spaces import SpaceDescriptor, cproj, disk, projection, sphere2, spheres

from conftest import (
    chern_class,
    class_document,
    component_dropping_top_term,
    cup,
    dict_form_text,
    direct_sum,
    graded_components,
    homogeneous_component,
    pullback_class,
    pushforward_from_scratch,
    random_space,
    series_product,
    series_texts,
    unit_class,
    unlimited_int_digits,
)


def line_class(space: SpaceDescriptor, pos: int | None) -> GradedClass:
    """The line class on the generator at `pos`, or the zero line for None."""
    if pos is None:
        return GradedClass.zero(space)
    exps = [0] * len(space.caps)
    exps[pos] = 1
    return GradedClass(space, {tuple(exps): 1})


def bundle_document(trivial: int, lines: list[tuple[GradedClass, int]]) -> dict:
    """The `chern --bundle` document of a trivial rank and (line class, mult) pairs."""
    return json.loads(json.dumps({
        "trivial": str(trivial),
        "summands": [{"line": class_document(line), "mult": str(m)} for line, m in lines]}))


def random_bundle(rng: random.Random, space: SpaceDescriptor,
                  max_mult: int = 3) -> BundleExpr:
    parts = []
    for pos in range(len(space.caps)):
        m = rng.randint(0, max_mult)
        if m:
            parts.append((pos, m))
    return BundleExpr(space, rng.randint(0, 2), parts)


def test_trivial_rank():
    assert BundleExpr(spheres(2), 2).rank == 2


def test_single_line_block_rank():
    space = SpaceDescriptor((cproj(36),))
    assert BundleExpr(space, 0, [(0, 36)]).rank == 36


def test_chern_of_trivial_is_one():
    space = spheres(2)
    assert chern_class(BundleExpr(space, 5)) == unit_class(space)


def test_chern_of_two_pulled_back_lines():
    space = spheres(2)
    b = BundleExpr(space, 0, [(0, 1), (1, 1)])
    assert chern_class(b) == GradedClass(space, {(0, 0): 1, (1, 0): 1, (0, 1): 1, (1, 1): 1})


def test_chern_of_multiple_square_zero_line():
    space = spheres(1)
    b = BundleExpr(space, 0, [(0, 7)])
    assert chern_class(b) == GradedClass(space, {(0,): 1, (1,): 7})  # (1+z)^7 = 1+7z


def test_euler_of_trivial_vanishes():
    assert euler(BundleExpr(spheres(2), 1)).is_zero()


def test_euler_top_power_at_cap_boundary():
    kappa = 8
    space = SpaceDescriptor((cproj(kappa),))
    assert euler(BundleExpr(space, 0, [(0, kappa)])) == GradedClass(space, {(kappa,): 1})
    assert euler(BundleExpr(space, 0, [(0, kappa + 1)])).is_zero()


def test_euler_of_block_sum_is_product_of_top_powers():
    space = SpaceDescriptor((cproj(2), cproj(8)))
    b = BundleExpr(space, 0, [(0, 2), (1, 8)])
    assert euler(b) == GradedClass(space, {(2, 8): 1})


def test_euler_dies_with_trivial_summand():
    rng = random.Random(3)
    for _ in range(30):
        space = random_space(rng)
        b = direct_sum(random_bundle(rng, space), BundleExpr(space, 1))
        assert euler(b).is_zero()


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_euler_equals_top_chern_component(data):
    rng = random.Random(data.draw(st.integers(0, 10 ** 9)))
    space = random_space(rng)
    b = random_bundle(rng, space)
    assert euler(b) == homogeneous_component(chern_class(b), 2 * b.rank)


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_chern_multiplicative_over_direct_sum(data):
    rng = random.Random(data.draw(st.integers(0, 10 ** 9)))
    space = random_space(rng)
    a = random_bundle(rng, space)
    b = random_bundle(rng, space)
    assert chern_class(direct_sum(a, b)) == cup(chern_class(a), chern_class(b))


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_chern_natural_under_pullback(data):
    rng = random.Random(data.draw(st.integers(0, 10 ** 9)))
    base = random_space(rng, max_factors=3)
    source = SpaceDescriptor(base.factors + random_space(rng, max_factors=2).factors)
    f = projection(source, base, tuple(range(len(base.factors))))
    b = random_bundle(rng, base)
    pulled = pushforward_diagonal(b, [DiagonalSlot(f)])
    assert chern_class(pulled) == pullback_class(f, chern_class(b))


def test_naturality_check_catches_a_swapped_position_map(monkeypatch):
    # the reference pullback counts generator factors itself, so a wrong
    # position map in the engine breaks the naturality check
    from villadsen import bundles
    f = projection(spheres(3), spheres(2), (2, 0))
    b = BundleExpr(spheres(2), 0, [(0, 1)])
    expected = pullback_class(f, chern_class(b))
    assert chern_class(pushforward_diagonal(b, [DiagonalSlot(f)])) == expected
    original = bundles.pullback_positions
    monkeypatch.setattr(bundles, "pullback_positions", lambda g: original(g)[::-1])
    assert chern_class(pushforward_diagonal(b, [DiagonalSlot(f)])) != expected


def test_pullback_along_constant_gives_trivial():
    from villadsen.spaces import constant
    base = spheres(2)
    src = spheres(3)
    b = BundleExpr(base, 1, [(0, 2), (1, 1)])
    pulled = pushforward_diagonal(b, [DiagonalSlot(constant(src, base, "pt"))])
    assert pulled == BundleExpr(src, b.rank)


def test_pushforward_identity_slot():
    space = spheres(2)
    b = BundleExpr(space, 1, [(0, 2)])
    identity = projection(space, space, (0, 1))
    assert pushforward_diagonal(b, [DiagonalSlot(identity)]) == b


def test_pushforward_point_slots_tensor_with_carrier():
    from villadsen.spaces import constant
    base = spheres(1)
    src = SpaceDescriptor(base.factors + (cproj(4),))
    b = BundleExpr(base, 2, [(0, 3)])  # rank 5
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
    b = BundleExpr(base, 1, [(0, 1)])
    proj = projection(src, base, (0,))
    out = pushforward_diagonal(b, [DiagonalSlot(proj, 2),
                                   DiagonalSlot(constant(src, base, "y"), 3)])
    assert out.rank == 5 * b.rank


def carried(b: BundleExpr, carrier: int) -> BundleExpr:
    """`b` pushed through one slot over the identity, carried on `carrier`."""
    identity = projection(b.base, b.base, range(len(b.base.factors)))
    return pushforward_diagonal(b, [DiagonalSlot(identity, 1, carrier)])


def test_carrier_slot_converts_trivial_part():
    space = spheres(2)
    assert carried(BundleExpr(space, 3), 1) == BundleExpr(space, 0, [(1, 3)])
    assert carried(BundleExpr(space, 0), 1) == BundleExpr(space)


def test_carrier_slot_rejects_unrepresentable_shift():
    # a carrier on top of an existing line leaves the single-generator model
    space = spheres(2)
    with pytest.raises(InvalidLineClassError):
        carried(BundleExpr(space, 1, [(0, 2)]), 1)
    # no generator at position 2, whatever the rank of the piece
    for trivial in (1, 0):
        with pytest.raises(InvalidLineClassError):
            carried(BundleExpr(space, trivial), 2)


@pytest.mark.parametrize("multiplicity", [0, -1])
def test_slot_multiplicity_below_one_is_refused(multiplicity):
    identity = projection(spheres(2), spheres(2), (0, 1))
    with pytest.raises(ValueError, match=f"multiplicity must be >= 1, got {multiplicity}"):
        DiagonalSlot(identity, multiplicity)


def test_pushforward_builds_one_bundle(monkeypatch):
    # every slot's piece is built in place and merged into the result alone
    from villadsen.spaces import constant
    base = spheres(1)
    src = SpaceDescriptor(base.factors + (cproj(4),))
    b = BundleExpr(base, 2, [(0, 3)])
    slots = [DiagonalSlot(projection(src, base, (0,)), 2),
             DiagonalSlot(constant(src, base, "y"), 3, 1),
             DiagonalSlot(constant(src, base, "y"))]
    built, init = [], BundleExpr.__init__

    def counting_init(self, *args, **kwargs):
        built.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(BundleExpr, "__init__", counting_init)
    out = pushforward_diagonal(b, slots)
    assert len(built) == 1
    assert out == BundleExpr(src, 2 * 2 + 5, [(0, 2 * 3), (1, 3 * 5)])


def test_invalid_line_class_rejected():
    space = SpaceDescriptor((*spheres(1).factors, cproj(3)))
    z0, twice_z0 = line_class(space, 0), GradedClass(space, {(1, 0): 2})
    for terms in ({(1, 0): 2}, {(1, 0): 1, (0, 1): 1}, {(0, 1): 1, (1, 0): -1},
                  {(0, 2): 1}, {(0, 0): 1}):
        with pytest.raises(InvalidLineClassError):
            parse_bundle(space, bundle_document(0, [(z0, 1), (GradedClass(space, terms), 1)]))
    # so is an invalid line with no copies
    with pytest.raises(InvalidLineClassError):
        parse_bundle(space, bundle_document(0, [(twice_z0, 0)]))


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
    assert parse_bundle(space, bundle_document(0, [(squared, 3)])) == BundleExpr(space, 3)


@pytest.mark.parametrize("summands", [0, 1, 2, 5])
def test_expansion_cost_is_the_product_of_the_top_powers_plus_one(summands):
    # below each cap the top power is the multiplicity itself
    space = SpaceDescriptor(tuple(cproj(10 ** 40) for _ in range(5)))
    mults = [10 ** 30 * (p + 2) + p for p in range(summands)]
    b = BundleExpr(space, 1, list(enumerate(mults)))
    assert chern_expansion_cost(b) == math.prod(m + 1 for m in mults)


def test_budget_refusal_and_override(monkeypatch):
    monkeypatch.setenv("ENGINE_GENERATOR_BUDGET", "1000")
    space = SpaceDescriptor((cproj(200), cproj(200), cproj(200)))
    b = BundleExpr(space, 0, [(0, 200), (1, 200), (2, 200)])
    assert chern_expansion_cost(b) == 201 ** 3
    with pytest.raises(GeneratorBudgetExceeded):
        chern_series(b)
    # the Euler cross-check expands only its own degree, so the budget does not bind
    nonzero, route = euler_nonzero(b)
    assert nonzero and route == "factorized+full"


def test_euler_nonzero_cross_checks_when_affordable():
    space = SpaceDescriptor((cproj(3), cproj(5)))
    b = BundleExpr(space, 0, [(0, 3), (1, 5)])
    nonzero, route = euler_nonzero(b)
    assert nonzero and route == "factorized+full"
    # a multiplicity at the cap kills the Euler class; both routes agree on zero
    assert euler_nonzero(BundleExpr(space, 0, [(0, 4), (1, 5)])) == (False, "factorized+full")
    assert euler_nonzero(BundleExpr(space, 1, [(0, 3)])) == (False, "factorized+full")


def test_chern_component_examples():
    space = SpaceDescriptor((cproj(3), *spheres(1).factors))
    b = BundleExpr(space, 4, [(0, 5), (1, 2)])
    # (1 + y)^5 truncated at y^3 times (1 + z)^2 truncated at z: degree 4 is
    # C(5,2) y^2 + C(5,1) C(2,1) y z
    assert chern_component(b, 4).terms == {(2, 0): 10, (1, 1): 10}
    assert chern_component(b, 0) == unit_class(b.base)
    for degree in (-2, 3, 10, 2 * b.rank):
        assert chern_component(b, degree).is_zero()


def test_chern_component_never_expands_a_huge_multiplicity():
    big = 10 ** 40
    space = SpaceDescriptor((cproj(big), cproj(2)))
    b = BundleExpr(space, 0, [(0, big), (1, 2)])
    # the Euler degree keeps one term per step, whatever the cap
    assert chern_component(b, 2 * b.rank).terms == {(big, 2): 1}
    assert chern_component(b, 2 * b.rank) == euler(b)
    assert chern_component(b, 4).terms == {(2, 0): big * (big - 1) // 2,
                                           (1, 1): 2 * big, (0, 2): 1}


def test_bundle_serialization_round_trip():
    space = SpaceDescriptor((cproj(4), *spheres(1).factors))
    b = BundleExpr(space, 7, [(0, 10 ** 25), (1, 3)])
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
    assert keyed.parts == {2: 1, 0: 5}
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


def test_summand_order_is_not_part_of_the_bundle():
    space = SpaceDescriptor((cproj(2), *spheres(3).factors))
    pairs = [(0, 2), (3, 1), (1, 4), (0, 3), (2, 0)]
    forward, backward = BundleExpr(space, 1, pairs), BundleExpr(space, 1, pairs[::-1])
    # the constructor keeps the pairs' order and sorts nothing
    assert list(forward.parts) != list(backward.parts)
    assert forward == backward and hash(forward) == hash(backward)
    assert repr(forward) == repr(backward) == "BundleExpr(theta_1 + 1*z3 + 4*z1 + 5*y0)"


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
    one = unit_class(space)
    series = [GradedClass(space, {**one.terms, **line.terms})
              for line, m in lines for _ in range(m)]
    total = chern_class(b)
    assert total == reduce(cup, series, one)
    assert len(total.terms) == chern_expansion_cost(b)
    parts = graded_components(total)
    for degree in range(0, 2 * sum(space.caps) + 1):
        assert parts.get(degree, GradedClass.zero(space)) == homogeneous_component(total, degree)
        assert chern_component(b, degree) == homogeneous_component(total, degree)


# coefficients past the 4300-digit limit: C(m, 4) for m near 10^1100 has
# about 4400 digits, and a few s2 summands of that size multiply past it
HUGE = st.integers(10 ** 1000, 10 ** 1100)


@st.composite
def chern_bundles(draw):
    """A bundle on each generator or none (so generators without a summand
    sit anywhere), over any mix of disks, spheres and projective spaces,
    disks alone included; small multiplicities below, at and past the caps,
    and now and then a huge one."""
    space = SpaceDescriptor(tuple(draw(st.lists(ATOMS, max_size=5))))
    mults = st.one_of(st.integers(0, 6), st.integers(0, 6), st.integers(0, 6), HUGE)
    parts = [(pos, draw(mults)) for pos in range(len(space.caps)) if draw(st.booleans())]
    return BundleExpr(space, draw(st.integers(0, 2)), parts)


@st.composite
def wide_chern_bundles(draw):
    """Six to nine summands of multiplicity 1 or 2 on spheres and projective
    lines, with summand-free spheres and disks before, between and after
    them; now and then one summand on a projective space of up to 40
    dimensions instead, which can hold more terms than the others together.
    So the cut between the prefix and the suffix block of
    `line_series_texts` falls before any one of six factors, and in the
    middle of more."""
    atoms, carriers = [], []
    for _ in range(draw(st.integers(6, 9))):
        atoms += draw(st.lists(st.sampled_from([sphere2(), disk(1), disk(0)]), max_size=2))
        carriers.append(len(atoms))
        atoms.append(draw(st.sampled_from([sphere2(), cproj(1)])))
    big = draw(st.one_of(st.none(), st.sampled_from(carriers)))
    if big is not None:
        atoms[big] = cproj(draw(st.integers(3, 40)))
    atoms += draw(st.lists(st.sampled_from([sphere2(), disk(2)]), max_size=2))
    space = SpaceDescriptor(tuple(atoms))
    mults = [draw(st.integers(1, 2)) for _ in carriers]
    if big is not None:  # at, past or below the cap
        mults[carriers.index(big)] = atoms[big].size + draw(st.integers(-1, 2))
    return BundleExpr(space, draw(st.integers(0, 1)),
                      [(space.generator_position(i), m) for i, m in zip(carriers, mults)])


@settings(max_examples=150, deadline=None)
@given(st.one_of(chern_bundles(), wide_chern_bundles()))
# summand-free generators before, between and after the summands, with disks
@example(BundleExpr(SpaceDescriptor((disk(1), sphere2(), cproj(3), disk(2), sphere2(),
                                     cproj(2), sphere2(), disk(3))),
                    0, [(1, 3), (3, 2)]))
@example(BundleExpr(SpaceDescriptor((disk(2), disk(0))), 2))   # no generator at all
@example(BundleExpr(SpaceDescriptor((cproj(2), sphere2())), 3, [(0, 0)]))   # trivial only
@example(BundleExpr(SpaceDescriptor((cproj(4), cproj(2))), 0, [(0, 2), (1, 5)]))  # below, at cap
@example(BundleExpr(SpaceDescriptor((cproj(4), sphere2(), sphere2())), 1,
                    [(0, 10 ** 1100 + 1), (1, 10 ** 1500), (2, 10 ** 3000)]))  # > 4300 digits
@example(BundleExpr(SpaceDescriptor((disk(1), cproj(3), disk(2))), 0, [(0, 5)]))  # one factor
@example(BundleExpr(SpaceDescriptor((sphere2(), disk(1), cproj(2), sphere2())), 0,
                    [(0, 1), (1, 2)]))   # the cut right after the first factor
def test_chern_texts_are_the_class_components_written_out(b):
    with unlimited_int_digits():
        texts = series_texts(b.base, chern_series(b))
        parts = graded_components(series_product(b.base, chern_series(b)))
        expected = {degree: dict_form_text(part) for degree, part in parts.items()}
        assert texts == expected
        assert {degree: json.loads(text) for degree, text in texts.items()} == \
            {degree: class_document(part) for degree, part in parts.items()}
    # the series refuse one term past the budget, with the exact count
    cost = chern_expansion_cost(b)
    if cost > 1:
        with mock.patch.dict(os.environ, {"ENGINE_GENERATOR_BUDGET": str(cost - 1)}):
            with pytest.raises(GeneratorBudgetExceeded) as exc:
                chern_series(b)
        assert (exc.value.required, exc.value.budget) == (cost, cost - 1)


def test_chern_texts_refuse_a_coefficient_past_the_digit_limit():
    # the > 4300-digit example above, without `unlimited_int_digits`
    b = BundleExpr(SpaceDescriptor((cproj(4), sphere2(), sphere2())), 1,
                   [(0, 10 ** 1100 + 1), (1, 10 ** 1500), (2, 10 ** 3000)])
    if hasattr(sys, "set_int_max_str_digits"):
        # the components are listed, and their texts made as they are read
        components = line_series_texts(b.base, chern_series(b))
        with pytest.raises(ValueError):   # str refuses it as %d did
            [part.text for part in components.values()]


def test_euler_cross_check_disagreement_is_reported(monkeypatch):
    space = SpaceDescriptor((cproj(3), cproj(5)))
    b = BundleExpr(space, 0, [(0, 3), (1, 5)])
    monkeypatch.setattr("villadsen.bundles.chern_component", component_dropping_top_term)
    with pytest.raises(CrossCheckDisagreement):
        euler_nonzero(b)


@settings(max_examples=150, deadline=None)
@given(split_bundles(), st.lists(ATOMS, max_size=3), st.data())
def test_pushforward_matches_from_scratch_build(drawn, atoms, data):
    # the projections onto the source's first factors and onto its last
    # ones (a copy of the base), and a constant map, each with multiplicity
    # and any of them with a carrier, all merged into one bundle
    from villadsen.spaces import constant
    space, trivial, summands = drawn
    b = BundleExpr(space, trivial, [(pos, m) for pos, m in summands if pos is not None])
    source = SpaceDescriptor((*space.factors, *atoms, *space.factors))
    n, offset = len(space.factors), len(space.factors) + len(atoms)
    maps = [projection(source, space, range(n)),
            projection(source, space, tuple(range(offset, offset + n))),
            constant(source, space, "pt")]
    carriers = [None, *range(len(source.caps))]
    slots = []
    for _ in range(data.draw(st.integers(1, 4))):
        f = data.draw(st.sampled_from(maps))
        carrier = data.draw(st.sampled_from(carriers))
        slots.append(DiagonalSlot(f, data.draw(st.integers(1, 3)), carrier))
    try:
        expected = pushforward_from_scratch(b, slots)
    except ValueError as refused:
        # a projected line summand cannot be carried on a line
        assert str(refused) == "a line summand tensored with a line"
        with pytest.raises(InvalidLineClassError):
            pushforward_diagonal(b, slots)
        return
    pushed = pushforward_diagonal(b, slots)
    assert pushed == expected and pushed.rank == expected.rank
