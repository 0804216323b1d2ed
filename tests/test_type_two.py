from fractions import Fraction
from math import factorial

import pytest

from villadsen.bundles import (
    chern_expansion_cost,
    euler,
    pushforward_diagonal,
    trivial_bundle,
)
from villadsen.comparison import Outcome, obstructed_by_euler
from villadsen import type_two
from villadsen.growth import INFINITE, GrowthTable, cp_dimension, unit_multiplicity
from villadsen.type_two import (
    SystemParams,
    build_stage,
    comparability_triple,
    obstruction_bundle,
    radius_of_comparison,
    trace_value,
)

from villadsen.spaces import cproj

from conftest import (
    connecting_maps,
    direct_sum,
    pushforward_from_scratch,
    stage_space_from_scratch,
)


def test_growth_functions():
    assert [unit_multiplicity(n) for n in range(5)] == [1, 1, 4, 18, 96]
    assert cp_dimension(2, 3) == 36
    assert cp_dimension(INFINITE, 3) == 54
    assert GrowthTable(2).up_to(3).rank == 24


def test_growth_table_matches_pointwise_values():
    for k in (1, 2, INFINITE):
        table = GrowthTable(k)
        for n in range(1, 25):
            table = table.up_to(n)
            assert table.n == n and table.factorial == factorial(n)
            assert table.rank == factorial(n + 1)
            assert table.unit == tuple(unit_multiplicity(j) for j in range(1, n + 1))
            assert table.dims == tuple(cp_dimension(k, j) for j in range(1, n + 1))
        # one jump from stage 0, or from a midway table, gives the same table
        assert GrowthTable(k).up_to(24) == GrowthTable(k).up_to(9).up_to(24) == table
        with pytest.raises(ValueError):
            table.up_to(23)


def assert_same_space(space, expected):
    assert space == expected and hash(space) == hash(expected)
    assert space.factors == expected.factors
    assert space.caps == expected.caps
    assert space.positions == expected.positions
    assert space.generator_names == expected.generator_names
    assert space.real_dimension == expected.real_dimension \
        == sum(a.real_dimension for a in expected.factors)


@pytest.mark.parametrize("k", [1, 2, INFINITE])
def test_stage_tower_matches_from_scratch_build(k):
    params = SystemParams(k)
    # one walk: stage 0 from its atoms, each later stage extending the one before
    for n, stage in zip(range(31), type_two._stages(params)):
        assert stage.n == n
        assert stage.growth == GrowthTable(k).up_to(n)
        assert_same_space(stage.space, stage_space_from_scratch(params, n))
    # cold calls: each builds its stage from its atoms
    for n in range(30, -1, -3):
        assert_same_space(build_stage(params, n)[0], stage_space_from_scratch(params, n))
    # a walk may start at any stage
    assert_same_space(next(type_two._stages(params, 30)).space,
                      stage_space_from_scratch(params, 30))


def test_stage_zero():
    space, unit = build_stage(SystemParams(2), 0)
    assert [a.kind for a in space.factors] == ["disk"]
    assert space.real_dimension == 4
    assert unit.rank == 1 and unit.trivial_rank == 1


def test_stage_three_finite():
    space, unit = build_stage(SystemParams(2), 3)
    assert space.real_dimension == 96
    assert [a.size for a in space.factors] == [2, 2, 8, 36]
    assert unit.rank == factorial(4)


def test_stage_two_infinite():
    space, unit = build_stage(SystemParams(INFINITE), 2)
    disks = [a.size for a in space.factors if a.kind == "disk"]
    cps = [a.size for a in space.factors if a.kind == "cp"]
    assert sum(disks) == 2 * unit_multiplicity(2) ** 2 == 32
    assert cps == [1, 8]
    assert space.real_dimension == 82
    assert unit.rank == 6


def test_unit_rank_telescopes():
    for k in (1, 2, INFINITE):
        params = SystemParams(k)
        for n in range(13):
            _, unit = build_stage(params, n)
            assert unit.rank == factorial(n + 1)
            assert unit.rank == sum(unit_multiplicity(j) for j in range(n + 1))


def test_dimension_rank_ratio_equals_parameter():
    for k in range(1, 6):
        params = SystemParams(k)
        for n in range(9):
            space, _ = build_stage(params, n)
            assert Fraction(space.real_dimension, 2 * factorial(n + 1)) == k


def test_traces():
    params = SystemParams(2)
    space, unit = build_stage(params, 3)
    assert trace_value(params, 3, unit) == 1
    assert trace_value(params, 3, trivial_bundle(space, 1)) == Fraction(1, 24)
    assert trace_value(params, 3, obstruction_bundle(params, 3)) == Fraction(23, 12)


def test_trace_additive_in_rank():
    params = SystemParams(2)
    n = 2
    a = obstruction_bundle(params, n)
    _, b = build_stage(params, n)
    assert trace_value(params, n, direct_sum(a, b)) == (
        trace_value(params, n, a) + trace_value(params, n, b))


def test_connecting_map_rank_ratio():
    for k in (1, 2, INFINITE):
        params = SystemParams(k)
        for i, slots in connecting_maps(params, 0, 4):
            eta = obstruction_bundle(params, i) if i else build_stage(params, 0)[1]
            pushed = pushforward_diagonal(eta, slots)
            assert pushed.rank * factorial(i + 1) == eta.rank * factorial(i + 2)


def test_connecting_map_structure():
    params = SystemParams(2)
    i = 2
    eta = obstruction_bundle(params, i)
    (_, slots), = connecting_maps(params, i, i + 1)
    pushed = pushforward_diagonal(eta, slots)
    nxt, _ = build_stage(params, i + 1)
    # the stage-j projective factor is labelled cp{j}
    cp_index = {atom.label: idx for idx, atom in enumerate(nxt.factors)}
    expected_parts = [(cp_index[f"cp{j}"], cp_dimension(2, j)) for j in range(1, i + 1)]
    expected_parts.append((cp_index[f"cp{i + 1}"], (i + 1) * eta.rank))
    from villadsen.bundles import line_sum
    assert pushed == line_sum(nxt, expected_parts)


def test_unit_iteration_reproduces_closed_form():
    for k in (1, 2, INFINITE):
        params = SystemParams(k)
        _, current = build_stage(params, 0)
        for i, slots in connecting_maps(params, 0, 4):
            current = pushforward_diagonal(current, slots)
            assert current == build_stage(params, i + 1)[1]


def test_comparability_triple_small_finite():
    report = comparability_triple(SystemParams(2), 2, 3)
    assert report["passed"]
    assert all(r["outcome"] == "dominates" for r in report["line_subbundle"])
    assert all(r["within_capacity"] for r in report["chain"])
    assert report["euler_obstruction"]["outcome"] == "obstructed"
    assert report["traces"]["limit"] == "2"


def test_comparability_first_stage_inequality():
    report = comparability_triple(SystemParams(1), 1, 1)
    (rec,) = report["line_subbundle"]
    assert rec["cp_dimension"] == "1"
    assert rec["certificate"]["inequality"] == "2*2-1 >= 2"


def test_comparability_infinite_divergence_entries():
    report = comparability_triple(SystemParams(INFINITE), 2, 2)
    assert report["traces"]["divergent"] is True
    entries = report["traces"]["entries"]
    assert entries[1]["lower_bound"] == {"num": "4", "den": "3"}
    assert entries[1]["exact"] == {"num": "3", "den": "2"}


def test_comparability_rejects_bad_stages():
    with pytest.raises(ValueError):
        comparability_triple(SystemParams(2), 0, 1)
    with pytest.raises(ValueError):
        comparability_triple(SystemParams(2), 3, 2)


def test_comparability_cross_checks_past_the_budget(monkeypatch):
    monkeypatch.setenv("ENGINE_GENERATOR_BUDGET", "1000")
    witness = obstruction_bundle(SystemParams(2), 4)
    assert chern_expansion_cost(witness) > 1000
    report = comparability_triple(SystemParams(2), 2, 4)
    assert report["passed"]
    assert report["euler_obstruction"]["certificate"]["route"] == "factorized+full"


def test_radius_finite_examples():
    report = radius_of_comparison(SystemParams(3), 5)
    assert report["passed"]
    assert all(s["equals_parameter"] for s in report["stages"])
    assert report["stages"][-1]["value"] == {"num": "3", "den": "1"}
    small = radius_of_comparison(SystemParams(1), 1)
    assert small["passed"]
    assert small["stages"][-1]["value"] == {"num": "1", "den": "1"}


def test_radius_witness_lower_bounds():
    report = radius_of_comparison(SystemParams(2), 3)
    w = report["witnesses"][-1]  # stage 3
    assert w["trace_trivial_line"] == {"num": "1", "den": "24"}
    assert w["trace_witness_sum"] == {"num": "23", "den": "12"}
    assert w["lower_bound"] == {"num": "15", "den": "8"}  # 2 - 3/24
    assert w["obstructed"]


def test_radius_infinite_reports_divergence():
    report = radius_of_comparison(SystemParams(INFINITE), 4)
    assert report["divergent"] and report["passed"]
    bounds = [Fraction(int(w["divergence_lower_bound"]["num"]),
                       int(w["divergence_lower_bound"]["den"]))
              for w in report["witnesses"]]
    assert bounds == sorted(bounds)
    assert bounds[-1] == Fraction(16, 5)


def test_euler_obstruction_chain_consistency():
    # the pushed witness stays dominated, and its Euler class never helps:
    # only the capacity bundle's Euler class is used, and it is nonzero
    params = SystemParams(2)
    for j in (1, 2, 3, 4):
        x = trivial_bundle(build_stage(params, j)[0], 1)
        assert obstructed_by_euler(x, obstruction_bundle(params, j)).outcome \
            == Outcome.OBSTRUCTED


def fraction(doc: dict) -> Fraction:
    return Fraction(int(doc["num"]), int(doc["den"]))


@pytest.mark.parametrize("k", [1, 2, INFINITE])
def test_carried_witness_sums_match_from_scratch(k):
    # the sweep carries each stage's witness rank and Euler verdict up the
    # tower; a trace over the stage's (m+1)! determines the rank
    params = SystemParams(k)
    report = radius_of_comparison(params, 60)
    divergence = comparability_triple(params, 60)["traces"].get("entries")
    for m, record in enumerate(report["witnesses"], start=1):
        witness = obstruction_bundle(params, m)
        assert record["stage"] == m
        assert fraction(record["trace_witness_sum"]) == Fraction(witness.rank, factorial(m + 1))
        assert record["obstructed"] is (not euler(witness).is_zero())
        if divergence is not None:
            assert fraction(divergence[m - 1]["exact"]) \
                == Fraction(witness.rank, factorial(m + 1))
    assert len(report["witnesses"]) == 60


def test_carried_euler_verdict_follows_the_caps(monkeypatch):
    # a stage-5 factor one dimension short caps its line at the witness
    # multiplicity, so the Euler class dies there and at every later stage
    new_atoms = type_two._new_atoms

    def short_factor(params, growth, j):
        atoms = new_atoms(params, growth, j)
        if j == 5:
            atoms[-1] = cproj(atoms[-1].size - 1, label=atoms[-1].label)
        return atoms

    monkeypatch.setattr(type_two, "_new_atoms", short_factor)
    params = SystemParams(2)
    report = radius_of_comparison(params, 8)
    verdicts = [record["obstructed"] for record in report["witnesses"]]
    assert verdicts == [m < 5 for m in range(1, 9)]
    assert verdicts == [not euler(obstruction_bundle(params, m)).is_zero()
                        for m in range(1, 9)]
    assert not report["passed"]


@pytest.mark.parametrize("k", [1, 2, INFINITE])
def test_chain_steps_match_from_scratch_pushforward(k, monkeypatch):
    # each step pushes the stage-ell witness sum forward and extends it to
    # the stage-(ell+1) sum; both equal their from-scratch builds, and the
    # check at the new position agrees with the check at every position
    params = SystemParams(k)
    steps, witnesses = [], []

    def recording_push(b, slots):
        pushed = pushforward_diagonal(b, slots)
        steps.append((b, slots, pushed))
        return pushed

    def recording_obstruction(x, y):
        witnesses.append(y)
        return obstructed_by_euler(x, y)

    monkeypatch.setattr(type_two, "pushforward_diagonal", recording_push)
    monkeypatch.setattr(type_two, "obstructed_by_euler", recording_obstruction)
    report = comparability_triple(params, 1, 60)
    assert report["passed"] and len(steps) == len(report["chain"]) == 59
    targets = [b for b, _, _ in steps[1:]] + witnesses
    for ell, ((current, slots, pushed), target, record) in enumerate(
            zip(steps, targets, report["chain"]), start=1):
        expected = obstruction_bundle(params, ell)
        assert current == expected and current.rank == expected.rank
        generic = pushforward_from_scratch(current, slots)
        assert pushed == generic and pushed.rank == generic.rank
        expected = obstruction_bundle(params, ell + 1)
        assert target == expected and target.rank == expected.rank
        assert record["pushed_rank"] == str(pushed.rank)
        assert record["within_capacity"] is all(
            m <= target.parts.get(pos, 0) for pos, m in pushed.parts.items())
