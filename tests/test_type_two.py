from fractions import Fraction
from itertools import islice
from math import factorial

import pytest

from villadsen.bundles import (
    BundleExpr,
    capacity_sum,
    chern_expansion_cost,
    euler,
    pushforward_diagonal,
)
from villadsen.cfp import build_witness, verify_lower
from villadsen.comparison import obstructed_by_euler
from villadsen import cfp, type_two
from villadsen.growth import INFINITE, tower
from villadsen.type_two import (
    comparability_triple,
    radius_of_comparison,
    trace_table,
)

from villadsen.spaces import SpaceDescriptor, cproj

from conftest import (
    comparability_traces_from_fractions,
    connecting_maps,
    cp_dimension,
    direct_sum,
    fraction,
    plain,
    pushforward_from_scratch,
    radius_from_fractions,
    stage_space_from_scratch,
    trace_table_from_fractions,
    unit_from_scratch,
    unit_multiplicity,
    witness_sum_from_scratch,
)


def test_growth_functions():
    assert [unit_multiplicity(n) for n in range(5)] == [1, 1, 4, 18, 96]
    assert cp_dimension(2, 3) == 36
    assert cp_dimension(INFINITE, 3) == 54
    stage = next(islice(tower(2), 3, None))
    assert stage.n == 3 and stage.rank == 24


def test_walk_matches_pointwise_values():
    for k in (1, 2, INFINITE):
        walk = list(islice(tower(k), 25))
        for n, stage in enumerate(walk):
            assert stage.n == n
            assert stage.rank == factorial(n + 1)
            assert stage.unit == unit_multiplicity(n)
            assert stage.dim == (cp_dimension(k, n) if n else 0)
            assert stage.witness == sum(cp_dimension(k, j) for j in range(1, n + 1))
        # each walk starts again at stage 0, and one resumed from a stage
        # goes on as the walk it was taken from
        assert next(tower(k)) == (0, 1, 1, 0, 0)
        assert list(islice(tower(k, walk[10]), 14)) == walk[11:]


def projective_factors(space: SpaceDescriptor) -> tuple:
    return tuple(atom for atom in space.factors if atom.kind == "cp")


def assert_witness_sum_over_stage(dims, k, n):
    """The witness sum `capacity_sum` builds from the walked dims of stages
    1..n lies over the from-scratch stage space's projective factors, with
    the from-scratch witness sum's summands."""
    witness, expected = capacity_sum(dims), witness_sum_from_scratch(k, n)
    assert witness.base.factors == projective_factors(expected.base)
    assert witness.base.caps == expected.base.caps
    assert witness.parts == expected.parts and witness.rank == expected.rank


@pytest.mark.parametrize("k", [1, 2, INFINITE])
def test_stage_tower_matches_from_scratch_build(k):
    # one walk of numbers: each stage's rank, growth numbers, witness rank
    # and printed dimension against values computed on their own
    sweep = plain(radius_of_comparison(k, 60))["stages"]
    dims = []
    for n, (stage, record) in enumerate(zip(islice(tower(k), 61), sweep,
                                            strict=True)):
        expected = stage_space_from_scratch(k, n)
        assert stage.n == n and all(type(value) is int for value in stage)
        assert stage.rank == factorial(n + 1)
        assert stage.unit == unit_multiplicity(n)
        assert stage.dim == (cp_dimension(k, n) if n else 0)
        assert stage.witness == witness_sum_from_scratch(k, n).rank
        dimension = str(expected.real_dimension)
        assert record["dimension"] == trace_table(k, n)["dimension"] == dimension
        if n:
            dims.append(stage.dim)
        assert_witness_sum_over_stage(dims, k, n)


@pytest.mark.parametrize("k", [1, 2, INFINITE])
def test_early_stage_unchanged_by_later_walk(k):
    walk = tower(k)
    early = list(islice(walk, 11))
    later = list(islice(walk, 100))
    assert later[-1].n == 110
    # the stages taken early equal those of a fresh walk, and the later ones
    # continue it
    assert early + later == list(islice(tower(k), 111))
    assert_witness_sum_over_stage([stage.dim for stage in early[1:]], k, 10)


def test_stage_zero():
    (stage,) = islice(tower(2), 1)
    assert stage == (0, 1, 1, 0, 0)
    cert = trace_table(2, 0)
    assert cert["dimension"] == "4" and cert["rank"] == "1"
    unit = unit_from_scratch(2, 0)
    assert unit.rank == 1 and unit.trivial_rank == 1
    assert "witness_sum_trace" not in cert
    # one disk of power 1 for k = inf
    assert trace_table(INFINITE, 0)["dimension"] == "2"


def test_stage_three_finite():
    stages = list(islice(tower(2), 4))
    assert [s.dim for s in stages] == [0, 2, 8, 36]
    assert [s.witness for s in stages] == [0, 2, 10, 46]
    cert = trace_table(2, 3)
    # 2 * (disk power 2 + witness rank 46)
    assert cert["dimension"] == "96"
    assert cert["rank"] == str(factorial(4))


def test_stage_two_infinite():
    stages = list(islice(tower(INFINITE), 3))
    assert [s.dim for s in stages] == [0, 1, 8]
    # the disk power n*sigma(n)^2 is dim*unit
    assert stages[-1].dim * stages[-1].unit == 2 * unit_multiplicity(2) ** 2 == 32
    cert = trace_table(INFINITE, 2)
    # 2 * (disk power 32 + witness rank 9)
    assert cert["dimension"] == "82"
    assert cert["rank"] == "6"


def test_unit_rank_telescopes():
    for k in (1, 2, INFINITE):
        for n in range(13):
            unit = unit_from_scratch(k, n)
            assert unit.rank == factorial(n + 1)
            assert unit.rank == sum(unit_multiplicity(j) for j in range(n + 1))
            # the engine's unit, checked against (n+1)! before it is reported
            assert trace_table(k, n)["rank"] == str(unit.rank)


def test_dimension_rank_ratio_equals_parameter():
    for k in range(1, 6):
        for n in range(9):
            dimension = int(trace_table(k, n)["dimension"])
            assert dimension == stage_space_from_scratch(k, n).real_dimension
            assert Fraction(dimension, 2 * factorial(n + 1)) == k


def test_traces():
    k = 2
    cert = trace_table(k, 3)
    assert fraction(cert["unit_trace"]) == 1
    assert fraction(cert["trivial_line_trace"]) == Fraction(1, 24)
    assert fraction(cert["witness_sum_trace"]) == Fraction(23, 12) \
        == Fraction(witness_sum_from_scratch(k, 3).rank, factorial(4))


def test_trace_additive_in_rank():
    k = 2
    n = 2
    a = witness_sum_from_scratch(k, n)
    b = unit_from_scratch(k, n)
    cert = trace_table(k, n)
    trace = Fraction(direct_sum(a, b).rank, factorial(n + 1))
    assert trace == fraction(cert["witness_sum_trace"]) + fraction(cert["unit_trace"])


def test_connecting_map_rank_ratio():
    for k in (1, 2, INFINITE):
        for i, slots in connecting_maps(k, 0, 4):
            eta = witness_sum_from_scratch(k, i) if i else unit_from_scratch(k, 0)
            pushed = pushforward_diagonal(eta, slots)
            assert pushed.rank * factorial(i + 1) == eta.rank * factorial(i + 2)


def test_connecting_map_structure():
    k = 2
    i = 2
    eta = witness_sum_from_scratch(k, i)
    (_, slots), = connecting_maps(k, i, i + 1)
    pushed = pushforward_diagonal(eta, slots)
    nxt = stage_space_from_scratch(k, i + 1)
    # the stage-j projective factor is labelled cp{j}
    cp_index = {atom.label: idx for idx, atom in enumerate(nxt.factors)}
    expected_parts = [(cp_index[f"cp{j}"], cp_dimension(2, j)) for j in range(1, i + 1)]
    expected_parts.append((cp_index[f"cp{i + 1}"], (i + 1) * eta.rank))
    assert pushed == BundleExpr(nxt, 0, [(nxt.generator_position(idx), m)
                                         for idx, m in expected_parts])


def test_unit_iteration_reproduces_closed_form():
    for k in (1, 2, INFINITE):
        current = unit_from_scratch(k, 0)
        for i, slots in connecting_maps(k, 0, 4):
            current = pushforward_diagonal(current, slots)
            assert current == unit_from_scratch(k, i + 1)


def test_comparability_triple_small_finite():
    report = plain(comparability_triple(2, 2, 3))
    assert report["passed"]
    assert all(r["outcome"] == "dominates" for r in report["line_subbundle"])
    assert all(r["within_capacity"] for r in report["chain"])
    assert report["euler_obstruction"]["outcome"] == "obstructed"
    assert report["traces"]["limit"] == "2"


def test_comparability_first_stage_inequality():
    report = plain(comparability_triple(1, 1, 1))
    (rec,) = report["line_subbundle"]
    assert rec["cp_dimension"] == "1"
    assert rec["certificate"]["inequality"] == "2*2-1 >= 2"


def test_comparability_infinite_divergence_entries():
    report = plain(comparability_triple(INFINITE, 2, 2))
    assert report["traces"]["divergent"] is True
    entries = report["traces"]["entries"]
    assert entries[1]["lower_bound"] == {"num": "4", "den": "3"}
    assert entries[1]["exact"] == {"num": "3", "den": "2"}


@pytest.mark.parametrize("k", [0, -1])
def test_family_parameter_below_one_is_refused_by_the_walk(k):
    for run in (lambda: trace_table(k, 3), lambda: comparability_triple(k, 2),
                lambda: radius_of_comparison(k, 3), lambda: list(islice(tower(k), 1))):
        with pytest.raises(ValueError, match="family parameter"):
            run()


def test_infinite_family_parameter_is_accepted():
    assert trace_table(INFINITE, 1)["stage"] == 1
    assert comparability_triple(INFINITE, 1)["k"] == "inf"
    assert radius_of_comparison(INFINITE, 1)["k"] == "inf"
    assert list(islice(tower(INFINITE), 1)) == [(0, 1, 1, 0, 0)]


def test_comparability_rejects_bad_stages():
    with pytest.raises(ValueError):
        comparability_triple(2, 0, 1)
    with pytest.raises(ValueError):
        comparability_triple(2, 3, 2)


def test_comparability_cross_checks_past_the_budget(monkeypatch):
    monkeypatch.setenv("ENGINE_GENERATOR_BUDGET", "1000")
    witness = witness_sum_from_scratch(2, 4)
    assert chern_expansion_cost(witness) > 1000
    report = comparability_triple(2, 2, 4)
    assert report["passed"]
    assert report["euler_obstruction"]["certificate"]["route"] == "factorized+full"


def test_radius_finite_examples():
    report = plain(radius_of_comparison(3, 5))
    assert report["passed"]
    assert all(s["equals_parameter"] for s in report["stages"])
    assert report["stages"][-1]["value"] == {"num": "3", "den": "1"}
    small = plain(radius_of_comparison(1, 1))
    assert small["passed"]
    assert small["stages"][-1]["value"] == {"num": "1", "den": "1"}


def test_radius_witness_lower_bounds():
    report = plain(radius_of_comparison(2, 3))
    w = report["witnesses"][-1]  # stage 3
    assert w["trace_trivial_line"] == {"num": "1", "den": "24"}
    assert w["trace_witness_sum"] == {"num": "23", "den": "12"}
    assert w["lower_bound"] == {"num": "15", "den": "8"}  # 2 - 3/24
    assert w["obstructed"]


def test_radius_infinite_reports_divergence():
    report = plain(radius_of_comparison(INFINITE, 4))
    assert report["divergent"] and report["passed"]
    bounds = [Fraction(int(w["divergence_lower_bound"]["num"]),
                       int(w["divergence_lower_bound"]["den"]))
              for w in report["witnesses"]]
    assert bounds == sorted(bounds)
    assert bounds[-1] == Fraction(16, 5)


@pytest.mark.parametrize("k", [1, 2, 3, 5, INFINITE])
def test_certificates_match_the_fraction_reference(k):
    # integer pairs reduced by one gcd and verdicts by cross-multiplication,
    # against the same certificates built with Fraction
    for n in range(31):
        assert plain(trace_table(k, n)) == trace_table_from_fractions(k, n)
        assert plain(radius_of_comparison(k, n)) == radius_from_fractions(k, n)
        if n >= 1:
            assert plain(comparability_triple(k, n, n + 8)["traces"]) \
                == comparability_traces_from_fractions(k, n)


def test_euler_obstruction_chain_consistency():
    # the pushed witness stays dominated, and its Euler class never helps:
    # only the capacity bundle's Euler class is used, and it is nonzero
    k = 2
    for j in (1, 2, 3, 4):
        assert obstructed_by_euler(witness_sum_from_scratch(k, j))["outcome"] \
            == "obstructed"


@pytest.mark.parametrize("k", [1, 2, INFINITE])
def test_carried_witness_sums_match_from_scratch(k):
    # the sweep carries each stage's witness rank and Euler verdict up the
    # tower; a trace over the stage's (m+1)! determines the rank
    report = plain(radius_of_comparison(k, 60))
    divergence = plain(comparability_triple(k, 60))["traces"].get("entries")
    for m, record in enumerate(report["witnesses"], start=1):
        witness = witness_sum_from_scratch(k, m)
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
    walk = type_two.tower

    def short_factor(k):
        # the witness sum still adds the full stage-5 copies
        for stage in walk(k):
            if stage.n == 5:
                stage = stage._replace(dim=stage.dim - 1)
            yield stage

    def short_witness_sum(m):
        # the from-scratch witness sum over a space whose cp5 is one shorter
        witness = witness_sum_from_scratch(k, m)
        factors = tuple(cproj(a.size - 1, label=a.label) if a.label == "cp5" else a
                        for a in witness.base.factors)
        return BundleExpr(SpaceDescriptor(factors), 0, witness.parts.items())

    monkeypatch.setattr(type_two, "tower", short_factor)
    k = 2
    report = plain(radius_of_comparison(k, 8))
    verdicts = [record["obstructed"] for record in report["witnesses"]]
    assert verdicts == [m < 5 for m in range(1, 9)]
    assert verdicts == [not euler(short_witness_sum(m)).is_zero() for m in range(1, 9)]
    assert not report["passed"]


@pytest.mark.parametrize("k", [1, 2, INFINITE])
def test_chain_steps_match_from_scratch_pushforward(k):
    # the chain carries only the witness rank; every record equals the
    # from-scratch stage-ell witness sum pushed through the from-scratch
    # connecting map, and the check at the new position agrees with the
    # check at every position
    report = plain(comparability_triple(k, 1, 60))
    assert report["passed"] and len(report["chain"]) == 59
    for (ell, slots), record in zip(connecting_maps(k, 1, 60), report["chain"], strict=True):
        pushed = pushforward_from_scratch(witness_sum_from_scratch(k, ell), slots)
        target = witness_sum_from_scratch(k, ell + 1)
        assert (record["from_stage"], record["to_stage"]) == (ell, ell + 1)
        assert record["pushed_rank"] == str(pushed.rank)
        assert record["new_line_multiplicity"] == str(pushed.parts.get(ell, 0))
        assert record["within_capacity"] is all(
            m <= target.parts.get(pos, 0) for pos, m in pushed.parts.items())


@pytest.mark.parametrize("terms", [1, 2, 3])
def test_infinite_chain_witness_sum_is_the_cfp_capacity_bundle(monkeypatch, terms):
    # the CFP counterexample is the k = inf family: the bundle whose Euler
    # class `verify_lower` checks is the chain's witness sum at that stage
    checked = []

    def recording(y):
        checked.append(y)
        return obstructed_by_euler(y)

    monkeypatch.setattr(cfp, "obstructed_by_euler", recording)
    monkeypatch.setattr(type_two, "obstructed_by_euler", recording)
    witness = build_witness(terms)
    j = witness.terms[-1].n
    assert verify_lower(witness)["passed"]
    assert comparability_triple(INFINITE, 1, j)["passed"]
    capacity, chained = checked
    assert chained == capacity and chained.base.factors == capacity.base.factors
    assert chained.parts == witness_sum_from_scratch(INFINITE, j).parts
