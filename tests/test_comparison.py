import json
import random
from itertools import product as iproduct
from math import factorial

import pytest

from villadsen.bundles import BundleExpr
from villadsen.comparison import (
    dominates_by_rank,
    obstructed_by_euler,
    trivial_line_subbundle_sufficient,
)
from villadsen.spaces import SpaceDescriptor, cproj, spheres

from conftest import direct_sum


def test_rank_gap_on_witness_base():
    # stage-4 projective base: half-dimension 1 + 8 + 54 + 384 = 447, unit
    # rank 5! = 120
    verdict = dominates_by_rank(factorial(5), 960, 2 * 447)
    assert verdict["outcome"] == "dominates"
    assert verdict["certificate"]["half_dimension"] == "447"


def test_rank_gap_unknown_for_equal_trivials():
    assert dominates_by_rank(1, 1, spheres(1).real_dimension)["outcome"] == "unknown"


def test_zero_bundle_always_dominated():
    assert dominates_by_rank(0, 0, spheres(1).real_dimension)["outcome"] == "dominates"


def test_stable_range_on_projective_space():
    for kappa in (1, 2, 8, 192):
        base = SpaceDescriptor((cproj(kappa),))
        doubled = BundleExpr(base, 0, [(0, 2 * kappa)])
        assert trivial_line_subbundle_sufficient(
            doubled.rank, base.real_dimension)["outcome"] == "dominates"


def test_stable_range_unknown_for_thin_bundle():
    assert trivial_line_subbundle_sufficient(1, spheres(1).real_dimension)["outcome"] \
        == "unknown"


def test_stable_range_boundary_case():
    # a rank-3 bundle over (S^2)^2, of dimension 4: 2*3-1 = 5 >= 4
    assert trivial_line_subbundle_sufficient(3, spheres(2).real_dimension)["outcome"] \
        == "dominates"


def test_euler_obstruction_on_sphere_square():
    verdict = obstructed_by_euler(BundleExpr(spheres(2), 0, [(0, 1), (1, 1)]))
    assert verdict["outcome"] == "obstructed"


def test_euler_obstruction_unknown_for_trivial_target():
    assert obstructed_by_euler(BundleExpr(spheres(2), 5))["outcome"] == "unknown"


def test_euler_obstruction_against_witness_sums():
    from villadsen.growth import INFINITE
    from conftest import witness_sum_from_scratch
    k = INFINITE
    for m in (1, 2, 3):
        verdict = obstructed_by_euler(witness_sum_from_scratch(k, m))
        assert verdict["outcome"] == "obstructed"


def test_soundness_rank_vs_obstruction_on_sphere_powers():
    # over (S^2)^m: a pair certified Dominates can never also be Obstructed
    for m in range(1, 5):
        base = spheres(m)
        mult_choices = list(iproduct(range(0, 3), repeat=m))
        for mults in mult_choices:
            y = BundleExpr(base, 0, enumerate(mults))
            for trivial_extra in (0, 1, 2):
                y2 = direct_sum(y, BundleExpr(base, trivial_extra))
                # x is trivial of rank 1 or 2, so it has the trivial summand
                # the Euler obstruction needs
                obs = obstructed_by_euler(y2)["outcome"] == "obstructed"
                for x_rank in (1, 2):
                    dom = dominates_by_rank(x_rank, y2.rank, base.real_dimension)["outcome"] \
                        == "dominates"
                    assert not (dom and obs)


def test_domination_monotone_under_added_trivial_rank():
    rng = random.Random(43)
    for _ in range(100):
        m = rng.randint(1, 4)
        base = spheres(m)
        x_rank = rng.randint(0, 3)
        parts = [(i, rng.randint(0, 2)) for i in range(m)]
        y = BundleExpr(base, rng.randint(0, 4), parts)
        if dominates_by_rank(x_rank, y.rank, base.real_dimension)["outcome"] == "dominates":
            bigger = direct_sum(y, BundleExpr(base, rng.randint(1, 5)))
            assert dominates_by_rank(x_rank, bigger.rank, base.real_dimension)["outcome"] \
                == "dominates"


def _branches():
    # (S^2) has real dimension 2 and (S^2)^2 dimension 4
    square = spheres(2)
    return [
        ("zero-bundle", "dominates", dominates_by_rank(0, 1, 2)),
        ("rank-gap", "dominates", dominates_by_rank(1, 2, 2)),
        ("rank-gap", "unknown", dominates_by_rank(1, 1, 2)),
        ("stable-range", "dominates", trivial_line_subbundle_sufficient(3, 4)),
        ("stable-range", "unknown", trivial_line_subbundle_sufficient(1, 2)),
        ("euler-obstruction", "obstructed",
         obstructed_by_euler(BundleExpr(square, 0, [(0, 1), (1, 1)]))),
        ("euler-obstruction", "unknown", obstructed_by_euler(BundleExpr(square, 5))),
    ]


BRANCHES = _branches()


@pytest.mark.parametrize("rule, outcome, verdict", BRANCHES,
                         ids=[f"{rule}-{outcome}" for rule, outcome, _ in BRANCHES])
def test_every_branch_is_the_dict_the_report_prints(rule, outcome, verdict):
    assert set(verdict) == {"outcome", "certificate"}
    assert verdict["outcome"] == outcome
    assert verdict["certificate"]["rule"] == rule
    assert json.loads(json.dumps(verdict)) == verdict
