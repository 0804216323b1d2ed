import json
import random
from itertools import product as iproduct

import pytest

from villadsen.bundles import line_sum, trivial_bundle
from villadsen.comparison import (
    dominates_by_rank,
    obstructed_by_euler,
    trivial_line_subbundle_sufficient,
)
from villadsen.errors import BaseMismatchError
from villadsen.spaces import SpaceDescriptor, cproj, spheres

from villadsen.cfp import unit_over_witness_base, witness_base

from conftest import direct_sum


def test_rank_gap_on_witness_base():
    # stage-4 projective base: half-dimension 447, unit rank 120
    base = witness_base(4)
    unit = unit_over_witness_base(4)
    amplified = line_sum(base, [(3, 960)])
    assert base.real_dimension == 2 * 447
    assert unit.rank == 120
    verdict = dominates_by_rank(unit, amplified)
    assert verdict["outcome"] == "dominates"
    assert verdict["certificate"]["half_dimension"] == "447"


def test_rank_gap_unknown_for_equal_trivials():
    base = spheres(1)
    x = trivial_bundle(base, 1)
    assert dominates_by_rank(x, x)["outcome"] == "unknown"


def test_zero_bundle_always_dominated():
    base = spheres(1)
    zero = trivial_bundle(base, 0)
    assert dominates_by_rank(zero, trivial_bundle(base, 0))["outcome"] == "dominates"


def test_rank_gap_requires_common_base():
    with pytest.raises(BaseMismatchError):
        dominates_by_rank(trivial_bundle(spheres(1), 1), trivial_bundle(spheres(2), 5))


def test_stable_range_on_projective_space():
    for kappa in (1, 2, 8, 192):
        base = SpaceDescriptor((cproj(kappa),))
        doubled = line_sum(base, [(0, 2 * kappa)])
        assert trivial_line_subbundle_sufficient(doubled)["outcome"] == "dominates"


def test_stable_range_unknown_for_thin_bundle():
    base = spheres(1)
    assert trivial_line_subbundle_sufficient(trivial_bundle(base, 1))["outcome"] == "unknown"


def test_stable_range_boundary_case():
    base = spheres(2)  # dimension 4
    y = trivial_bundle(base, 3)  # 2*3-1 = 5 >= 4
    assert trivial_line_subbundle_sufficient(y)["outcome"] == "dominates"


def test_euler_obstruction_on_sphere_square():
    base = spheres(2)
    x = trivial_bundle(base, 1)
    y = line_sum(base, [(0, 1), (1, 1)])
    verdict = obstructed_by_euler(x, y)
    assert verdict["outcome"] == "obstructed"


def test_euler_obstruction_unknown_for_trivial_target():
    base = spheres(2)
    assert obstructed_by_euler(trivial_bundle(base, 1),
                               trivial_bundle(base, 5))["outcome"] == "unknown"


def test_euler_obstruction_against_witness_sums():
    from villadsen.type_two import SystemParams, build_stage, obstruction_bundle
    from villadsen.growth import INFINITE
    params = SystemParams(INFINITE)
    for m in (1, 2, 3):
        x = trivial_bundle(build_stage(params, m)[0], 1)
        verdict = obstructed_by_euler(x, obstruction_bundle(params, m))
        assert verdict["outcome"] == "obstructed"


def test_euler_obstruction_requires_trivial_summand():
    base = spheres(1)
    x = line_sum(base, [(0, 1)])
    with pytest.raises(ValueError):
        obstructed_by_euler(x, trivial_bundle(base, 1))


def test_soundness_rank_vs_obstruction_on_sphere_powers():
    # over (S^2)^m: a pair certified Dominates can never also be Obstructed
    for m in range(1, 5):
        base = spheres(m)
        mult_choices = list(iproduct(range(0, 3), repeat=m))
        for mults in mult_choices:
            y = line_sum(base, [(i, mu) for i, mu in enumerate(mults) if mu],
                         trivial_rank=0)
            for trivial_extra in (0, 1, 2):
                y2 = direct_sum(y, trivial_bundle(base, trivial_extra))
                for x_rank in (1, 2):
                    x = trivial_bundle(base, x_rank)
                    dom = dominates_by_rank(x, y2)["outcome"] == "dominates"
                    obs = obstructed_by_euler(x, y2)["outcome"] == "obstructed"
                    assert not (dom and obs)


def test_domination_monotone_under_added_trivial_rank():
    rng = random.Random(43)
    for _ in range(100):
        m = rng.randint(1, 4)
        base = spheres(m)
        x = trivial_bundle(base, rng.randint(0, 3))
        y = line_sum(base, [(i, rng.randint(0, 2)) for i in range(m)],
                     trivial_rank=rng.randint(0, 4))
        if dominates_by_rank(x, y)["outcome"] == "dominates":
            bigger = direct_sum(y, trivial_bundle(base, rng.randint(1, 5)))
            assert dominates_by_rank(x, bigger)["outcome"] == "dominates"


def _branches():
    sphere, square = spheres(1), spheres(2)
    thin = trivial_bundle(sphere, 1)
    return [
        ("zero-bundle", "dominates",
         dominates_by_rank(trivial_bundle(sphere, 0), thin)),
        ("rank-gap", "dominates",
         dominates_by_rank(thin, trivial_bundle(sphere, 2))),
        ("rank-gap", "unknown", dominates_by_rank(thin, thin)),
        ("stable-range", "dominates",
         trivial_line_subbundle_sufficient(trivial_bundle(square, 3))),
        ("stable-range", "unknown", trivial_line_subbundle_sufficient(thin)),
        ("euler-obstruction", "obstructed",
         obstructed_by_euler(trivial_bundle(square, 1), line_sum(square, [(0, 1), (1, 1)]))),
        ("euler-obstruction", "unknown",
         obstructed_by_euler(trivial_bundle(square, 1), trivial_bundle(square, 5))),
    ]


BRANCHES = _branches()


@pytest.mark.parametrize("rule, outcome, verdict", BRANCHES,
                         ids=[f"{rule}-{outcome}" for rule, outcome, _ in BRANCHES])
def test_every_branch_is_the_dict_the_report_prints(rule, outcome, verdict):
    assert set(verdict) == {"outcome", "certificate"}
    assert verdict["outcome"] == outcome
    assert verdict["certificate"]["rule"] == rule
    assert json.loads(json.dumps(verdict)) == verdict
