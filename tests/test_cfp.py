import json
from fractions import Fraction
from math import factorial

import pytest

from villadsen.cfp import (
    WitnessTerm,
    build_witness,
    exact_pushed_coefficients,
    factor_dimension,
    factor_dimensions,
    first_stage_certificate,
    first_witness_stage,
    half_dimension_sum,
    next_witness_stage,
    unit_over_witness_base,
    verify_lower,
    verify_upper,
    witness_base,
)
from villadsen.cli import main
from villadsen.errors import ConfigError
from villadsen.growth import unit_multiplicity


def brute_force_first_stage(horizon: int = 60) -> int:
    """Oracle: scan all stages up to a large horizon for both entry conditions."""
    def ok(m):
        return (factor_dimension(m) % 4 == 0
                and Fraction(5, 4) * factor_dimension(m)
                >= sum(factor_dimension(j) for j in range(1, m + 1)))
    for candidate in range(1, horizon):
        if all(ok(m) for m in range(candidate, horizon)):
            return candidate
    raise AssertionError("no stage found below the horizon")


def brute_force_next_stage(prev: int) -> int:
    """Oracle: first m > prev satisfying the original big-integer inequality."""
    total = sum(factor_dimension(j) for j in range(1, prev + 1))
    m = prev + 1
    while True:
        lhs = 2 * total * (m * factorial(m))
        rhs = factor_dimension(m) * factorial(prev + 1)
        if lhs <= rhs:
            return m
        m += 1


def test_factor_dimension_values():
    assert factor_dimension(1) == 1
    assert factor_dimension(3) == 54
    assert factor_dimension(4) == 384


def test_factor_dimension_table_matches_pointwise_values():
    assert factor_dimensions(0) == []
    assert factor_dimensions(40) == [factor_dimension(s) for s in range(1, 41)]
    assert [atom.size for atom in witness_base(40).factors] == factor_dimensions(40)


def test_first_stage_matches_oracle():
    assert first_witness_stage() == 4 == brute_force_first_stage()


def test_first_stage_certificate_structure():
    cert = first_stage_certificate()
    assert cert["value"] == 4
    failing = [c for c in cert["finite_checks"] if c["stage"] == 3]
    assert failing and not failing[0]["divisible_by_4"]
    assert cert["tail"]["divisibility_from"] == 4
    assert all(c["fivefold"] for c in cert["tail"]["growth_checks"])


def test_next_stage_values_and_oracle():
    assert next_witness_stage(1) == 2 == brute_force_next_stage(1)
    assert next_witness_stage(4) == 8 == brute_force_next_stage(4)
    assert next_witness_stage(8) == 16 == brute_force_next_stage(8)
    # the exact ceiling agrees with the scan wherever it lands on a boundary
    for prev in range(1, 40):
        assert next_witness_stage(prev) == brute_force_next_stage(prev)


def test_next_stage_minimality_and_margin():
    for prev in range(2, 10):
        m = next_witness_stage(prev)
        total = sum(factor_dimension(j) for j in range(1, prev + 1))
        fact = factorial(prev + 1)
        assert 2 * total * (m * factorial(m)) <= factor_dimension(m) * fact
        if m > prev + 1:
            bad = m - 1
            assert 2 * total * (bad * factorial(bad)) > factor_dimension(bad) * fact


def test_next_stage_monotone_in_previous():
    values = [next_witness_stage(prev) for prev in range(1, 10)]
    assert values == sorted(values)


def test_build_witness_minimal_stages():
    w = build_witness(3)
    assert [t.stage for t in w.terms] == [4, 8, 16]
    assert [t.copies for t in w.terms] == [factor_dimension(4) // 2,
                                           factor_dimension(8) // 2,
                                           factor_dimension(16) // 2]
    assert all(2 * t.copies == factor_dimension(t.stage) for t in w.terms)


def test_build_witness_override_validation():
    with pytest.raises(ConfigError):
        build_witness(2, [8, 4])
    with pytest.raises(ConfigError):
        build_witness(2, [4])
    with pytest.raises(ConfigError):
        build_witness(2, [1, 2])  # stage 1 has odd factor dimension
    w = build_witness(2, [4, 9])
    assert w.overridden and w.terms[1].stage == 9


def test_witness_base_dimensions():
    assert witness_base(4).real_dimension == 2 * 447
    assert half_dimension_sum(4) == 447
    assert unit_over_witness_base(4).rank == 120
    for j in range(1, 40):
        unit = unit_over_witness_base(j)
        assert unit.rank == factorial(j + 1)
        assert unit.parts == {s - 1: unit_multiplicity(s) for s in range(1, j + 1)}


def test_upper_verdicts_first_three_terms():
    w = build_witness(3)
    v1 = verify_upper(w.terms[0])
    assert v1["outcome"] == "dominates"
    assert v1["certificate"] == {"rule": "rank-gap", "rank_x": "120",
                                 "rank_y": "960", "half_dimension": "447"}
    for term in w.terms[1:]:
        assert verify_upper(term)["outcome"] == "dominates"


def test_upper_certificate_is_the_one_cfp_prints(capsys):
    assert main(["cfp", "--terms", "3"]) == 0
    printed = {c["name"]: c["certificate"] for c in json.loads(capsys.readouterr().out)["checks"]}
    for term in build_witness(3).terms:
        assert verify_upper(term) == printed[f"upper_term_{term.index}"]


def test_upper_degenerate_zero_copies_guard():
    degenerate = WitnessTerm(1, 4, 0)
    assert verify_upper(degenerate)["outcome"] == "unknown"


def test_lower_verification_two_terms():
    w = build_witness(2)
    low = verify_lower(w)
    assert low["passed"] and low["stage"] == 8
    step = low["rows"][1]
    assert step["dominated_rank"] == "447"
    assert step["growth_lhs"] == "1201536"
    assert step["growth_rhs_half_cap"] == "1290240"
    assert step["combined"] == "2491776"
    assert step["cap"] == "2580480"
    assert step["growth_ok"] and step["combined_ok"]


def test_lower_verification_three_terms():
    low = verify_lower(build_witness(3))
    assert low["passed"]
    assert all(row.get("growth_ok", True) for row in low["rows"])
    assert all(entry["ok"] for row in low["rows"][1:] for entry in row["intermediate"])
    assert all(entry["ok"] for entry in low["pushed_table"])
    assert low["euler"]["outcome"] == "obstructed"


def test_lower_verification_beyond_last_stage():
    w = build_witness(2)
    low = verify_lower(w, stage=10)
    assert low["passed"]
    assert [r["to_stage"] for r in low["stretch"]] == [9, 10]
    with pytest.raises(ValueError):
        verify_lower(w, stage=7)


def test_lower_fails_for_greedy_override():
    # stage 5 is too early after 4: the growth inequality cannot hold
    w = build_witness(2, [4, 5])
    low = verify_lower(w)
    assert not low["passed"]
    assert any("growth" in f or "cap" in f for f in low["failures"])


def test_exact_pushed_coefficients_hand_computed():
    w = build_witness(2)
    coeffs = exact_pushed_coefficients(w, 8)
    assert coeffs[4] == 192
    assert coeffs[5] == 5 * 192
    assert coeffs[6] == 6 * (192 + 960)
    assert coeffs[7] == 7 * (192 + 960 + 6912)
    assert coeffs[8] == 8 * (192 + 960 + 6912 + 56448) + 1290240
    for s, c in coeffs.items():
        assert c <= factor_dimension(s)


def factor_labelled(space, label):
    """Index of the one factor of a stage space carrying `label`."""
    (index,) = [i for i, atom in enumerate(space.factors) if atom.label == label]
    return index


def test_exact_pushed_matches_bundle_pushforward():
    # independent route: push the real line bundles through the actual
    # connecting maps of the infinite family and read off multiplicities
    from villadsen.growth import INFINITE
    from villadsen.type_two import SystemParams, build_stage
    from villadsen.bundles import line_sum
    from conftest import direct_sum, push_through_stages

    params = SystemParams(INFINITE)
    w = build_witness(2)
    j = 8
    total = None
    for term in w.terms:
        start_space, _ = build_stage(params, term.stage)
        bundle = line_sum(start_space,
                          [(factor_labelled(start_space, f"cp{term.stage}"), term.copies)])
        pushed = push_through_stages(params, bundle, term.stage, j)
        total = pushed if total is None else direct_sum(total, pushed)
    expected = exact_pushed_coefficients(w, j)
    final_space, _ = build_stage(params, j)
    by_stage = {}
    for s in range(1, j + 1):
        pos = total.base.generator_position(factor_labelled(final_space, f"cp{s}"))
        if pos in total.parts:
            by_stage[s] = total.parts[pos]
    assert sum(by_stage.values()) == total.rank
    assert by_stage == {s: c for s, c in expected.items() if c}


def test_pushed_coefficients_dominated_by_replay_table():
    w = build_witness(3)
    low = verify_lower(w)
    exact = exact_pushed_coefficients(w, low["stage"])
    table = {int(e["stage"]): int(e["coefficient"]) for e in low["pushed_table"]}
    assert table == exact
    for row in low["rows"][1:]:
        for entry in row["intermediate"]:
            assert exact[entry["stage"]] <= int(entry["total"])
