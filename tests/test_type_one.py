import json
import random
from fractions import Fraction

import pytest

from villadsen.cli import main
from villadsen.errors import ConfigError, CrossCheckDisagreement, GeneratorBudgetExceeded
from villadsen.type_one import (
    IDENTITY_STATS,
    StageStats,
    StepSpec,
    SystemConfig,
    compose_stats,
    composed_projection_multiplicities,
    ratio_contradiction_check,
    ratio_trajectory,
    stats_over_range,
    top_chern_witness,
)

from conftest import (
    dict_poly_top_coefficient,
    enumerate_chain_stats,
    fraction,
    kernel_dropping_top_term,
    random_step,
)


def test_compose_stats_squares():
    s = StageStats(3, 3, 4)
    assert compose_stats(s, s) == StageStats(9, 9, 16)


def test_identity_stats_neutral():
    s = StageStats(2, 3, 5)
    assert compose_stats(s, IDENTITY_STATS) == s
    assert compose_stats(IDENTITY_STATS, s) == s


def test_compose_stats_componentwise():
    assert compose_stats(StageStats(2, 3, 5), StageStats(1, 2, 4)) == StageStats(2, 6, 20)


def test_stats_validation():
    with pytest.raises(ValueError):
        StageStats(3, 2, 5)  # distinct exceeds with-multiplicity
    with pytest.raises(ValueError):
        StageStats(0, 0, 0)


def test_step_stats():
    step = StepSpec((("p1", 2), ("p2", 3)), 4)
    assert step.stats() == StageStats(2, 5, 9)


def test_step_validation():
    with pytest.raises(ConfigError):
        StepSpec((("p1", 0),), 1)
    with pytest.raises(ConfigError):
        StepSpec((("p1", 1), ("p1", 2)), 0)
    with pytest.raises(ConfigError):
        StepSpec((), 0)


def test_config_parsing_rejects_unknown_keys():
    with pytest.raises(ConfigError):
        SystemConfig.from_json({"seed_dim": 2, "steps": [], "typo": 1})
    with pytest.raises(ConfigError):
        SystemConfig.from_json({"steps": []})
    cfg = SystemConfig.from_json(
        {"seed_dim": 3, "steps": [{"proj_mults": {"a": 2}, "point_evals": 1}]})
    assert cfg.steps[0].stats() == StageStats(1, 2, 3)


def test_constant_step_trajectory_is_geometric():
    step = StepSpec((("p1", 1), ("p2", 1), ("p3", 1)), 1)  # ratio 3/4 per step
    traj = ratio_trajectory([step] * 5, 0)
    assert traj == [Fraction(3, 4) ** j for j in range(1, 6)]


def test_trajectory_within_unit_interval_and_nonincreasing():
    rng = random.Random(5)
    for _ in range(60):
        steps = [random_step(rng) for _ in range(rng.randint(1, 5))]
        for start in range(len(steps)):
            traj = ratio_trajectory(steps, start)
            assert all(0 <= v <= 1 for v in traj)
            assert all(a >= b for a, b in zip(traj, traj[1:]))


def test_stats_match_chain_enumeration():
    rng = random.Random(9)
    for _ in range(60):
        steps = [random_step(rng, max_projections=4) for _ in range(rng.randint(1, 5))]
        start = rng.randint(0, len(steps) - 1)
        stop = rng.randint(start + 1, len(steps))
        distinct, with_mult, total = enumerate_chain_stats(steps, start, stop)
        composed = stats_over_range(steps, start, stop)
        assert composed.distinct_projections == distinct
        assert composed.projection_multiplicity == with_mult
        assert composed.total_multiplicity == total


def test_composed_multiplicities_outer_product():
    steps = [StepSpec((("p1", 2), ("p2", 3)), 1), StepSpec((("q1", 5),), 2)]
    assert sorted(composed_projection_multiplicities(steps, 0, 2)) == [10, 15]


def test_top_chern_witness_frozen_values():
    assert top_chern_witness(2, [1, 3])["degree"] == "4"
    assert top_chern_witness(2, [1, 3])["coefficient"] == "9"
    assert top_chern_witness(1, [1])["coefficient"] == "1"
    assert top_chern_witness(1, [1])["degree"] == "1"
    w = top_chern_witness(2, [2, 2, 2])
    assert (w["degree"], w["coefficient"]) == ("6", "64")


def test_top_chern_witness_against_dict_oracle():
    rng = random.Random(29)
    for _ in range(40):
        n = rng.randint(1, 3)
        mults = [rng.randint(1, 5) for _ in range(rng.randint(1, 4))]
        gens, coeff = dict_poly_top_coefficient(n, mults)
        w = top_chern_witness(n, mults)
        assert w["sphere_power"] == gens
        assert w["coefficient"] == str(coeff)
        assert w["degree"] == str(n * len(mults))


def test_top_chern_witness_is_the_certificate_vi_prints(tmp_path, capsys):
    steps = [{"proj_mults": {"p1": 2, "p2": 1}, "point_evals": 1},
             {"proj_mults": {"q1": 3}, "point_evals": 2}]
    config = tmp_path / "vi.json"
    config.write_text(json.dumps({"seed_dim": 6, "steps": steps}))
    assert main(["vi", "--config", str(config), "--witness", "2"]) == 0
    printed = {c["name"]: c for c in json.loads(capsys.readouterr().out)["checks"]}
    mults = composed_projection_multiplicities(
        list(SystemConfig.from_json({"seed_dim": 6, "steps": steps}).steps), 0, 2)
    assert printed["top_chern_witness"]["outcome"] == "pass"
    assert top_chern_witness(2, mults) == printed["top_chern_witness"]["certificate"]


def test_top_chern_witness_budget(monkeypatch):
    monkeypatch.setenv("ENGINE_GENERATOR_BUDGET", "4096")
    assert top_chern_witness(4, [2, 3, 1])["coefficient"] == str(6 ** 4)  # 2^12 terms
    with pytest.raises(GeneratorBudgetExceeded) as exc:
        top_chern_witness(13, [1])
    assert (exc.value.required, exc.value.budget) == (2 ** 13, 4096)
    with pytest.raises(GeneratorBudgetExceeded, match="needs at least 2\\^20000 terms"):
        top_chern_witness(10_000, [1, 1])  # the count has 6021 digits


def test_top_chern_witness_disagreement(monkeypatch):
    monkeypatch.setattr("villadsen.type_one.line_series_product", kernel_dropping_top_term)
    with pytest.raises(CrossCheckDisagreement, match="closed 9, expanded 0"):
        top_chern_witness(2, [1, 3])


def test_contradiction_at_exact_threshold():
    rep = ratio_contradiction_check(2, StageStats(3, 3, 4))
    assert rep["hypothesis_holds"] and rep["contradiction"]
    assert fraction(rep["fixed_point_bound"]) == Fraction(1, 2)
    assert fraction(rep["forced_square"]) == Fraction(1, 4)
    assert rep["strict_drop"]


def test_contradiction_for_larger_n():
    rep = ratio_contradiction_check(3, StageStats(5, 5, 6))
    assert rep["hypothesis_holds"] and rep["contradiction"]
    assert fraction(rep["fixed_point_bound"]) == Fraction(3, 5)
    assert fraction(rep["ratio"]) > fraction(rep["fixed_point_bound"])


def test_no_contradiction_when_hypothesis_fails():
    rep = ratio_contradiction_check(2, StageStats(0, 0, 7))
    assert not rep["hypothesis_holds"]
    assert not rep["contradiction"]
    assert rep["rank_bound_holds"]  # 0 <= anything


def test_contradiction_closes_on_random_grid():
    rng = random.Random(37)
    for n in range(2, 7):
        threshold = Fraction(2 * n - 1, 2 * n)
        for _ in range(60):
            total = rng.randint(2 * n, 1000)
            lo = -(-threshold.numerator * total // threshold.denominator)  # ceil
            distinct = rng.randint(lo, total)
            alpha = rng.randint(distinct, total)
            stats = StageStats(distinct, alpha, total)
            assert stats.distinct_ratio >= threshold
            rep = ratio_contradiction_check(n, stats)
            assert rep["contradiction"]


def test_contradiction_requires_n_at_least_two():
    with pytest.raises(ValueError):
        ratio_contradiction_check(1, StageStats(1, 1, 1))
