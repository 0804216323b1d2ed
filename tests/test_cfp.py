import json
from fractions import Fraction
from itertools import islice
from math import factorial

import pytest

from villadsen import cfp
from villadsen.cfp import (
    build_witness,
    first_stage_certificate,
    next_witness_stage,
    verify_lower,
    verify_upper,
)
from villadsen.cli import main
from villadsen.comparison import obstructed_by_euler
from villadsen.errors import ConfigError
from villadsen.growth import INFINITE, tower

from conftest import cp_dimension, plain, unit_multiplicity

# stages 0..300 of the k = inf walk, the records `cfp` reads its numbers off
STAGES = list(islice(tower(INFINITE), 301))


def factor_dimension(s: int) -> int:
    """The stage-s factor dimension s^2 * s!, computed on its own."""
    return cp_dimension(INFINITE, s)


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
    assert [STAGES[s].dim for s in (1, 3, 4)] == [1, 54, 384]
    assert STAGES[4].witness == 447


def test_infinite_walk_matches_closed_forms():
    # stage s of the walk: the factor dimension s^2 * s!, the witness rank
    # sum_{t <= s} t^2 * t!, half the real dimension of the first s factors,
    # and the unit rank (s+1)!
    witness = 0
    for s, stage in enumerate(STAGES):
        dim = factor_dimension(s) if s else 0
        witness += dim
        assert (stage.n, stage.dim, stage.witness, stage.rank) \
            == (s, dim, witness, factorial(s + 1))


def test_capacity_bundle_fills_every_factor(monkeypatch):
    # the Euler check reads factor_dimension(s) copies of the stage-s line
    # over a product of projective factors of those dimensions
    checked = []
    monkeypatch.setattr(cfp, "obstructed_by_euler",
                        lambda y: checked.append(y) or obstructed_by_euler(y))
    verify_lower(build_witness(2), 40)
    [capacity] = checked
    dims = [factor_dimension(s) for s in range(1, 41)]
    assert [atom.size for atom in capacity.base.factors] == dims
    assert capacity.parts == dict(enumerate(dims)) and capacity.trivial_rank == 0
    assert capacity.base.real_dimension == 2 * sum(dims)


def test_first_stage_matches_oracle():
    assert first_stage_certificate([])["value"] == 4 == brute_force_first_stage()


def test_first_stage_certificate_structure():
    # the certificate walks the stages it checks, and no further
    stages = []
    cert = first_stage_certificate(stages)
    assert stages == STAGES[:5]
    assert cert["value"] == 4
    failing = [c for c in cert["finite_checks"] if c["stage"] == 3]
    assert failing and not failing[0]["divisible_by_4"]
    assert cert["tail"]["divisibility_from"] == 4
    assert all(c["fivefold"] for c in cert["tail"]["growth_checks"])


def test_next_stage_values_and_oracle():
    assert next_witness_stage(STAGES[1]) == 2 == brute_force_next_stage(1)
    assert next_witness_stage(STAGES[4]) == 8 == brute_force_next_stage(4)
    assert next_witness_stage(STAGES[8]) == 16 == brute_force_next_stage(8)
    # the exact ceiling agrees with the scan wherever it lands on a boundary
    for prev in range(1, 40):
        assert next_witness_stage(STAGES[prev]) == brute_force_next_stage(prev)
    with pytest.raises(ValueError):
        next_witness_stage(STAGES[0])


def test_next_stage_minimality_and_margin():
    for prev in range(2, 10):
        m = next_witness_stage(STAGES[prev])
        total = sum(factor_dimension(j) for j in range(1, prev + 1))
        fact = factorial(prev + 1)
        assert 2 * total * (m * factorial(m)) <= factor_dimension(m) * fact
        if m > prev + 1:
            bad = m - 1
            assert 2 * total * (bad * factorial(bad)) > factor_dimension(bad) * fact


def test_next_stage_monotone_in_previous():
    values = [next_witness_stage(STAGES[prev]) for prev in range(1, 10)]
    assert values == sorted(values)


def test_build_witness_minimal_stages():
    w = build_witness(3)
    assert [t.n for t in w.terms] == [4, 8, 16]
    copies = [t["copies"] for t in cfp.witness_stages(w)["witness"]["terms"]]
    assert copies == [str(factor_dimension(4) // 2), str(factor_dimension(8) // 2),
                      str(factor_dimension(16) // 2)]
    assert all(t.dim == factor_dimension(t.n) for t in w.terms)


@pytest.mark.parametrize("args", [(1,), (3,), (2, [4, 9]), (2, [2, 3])])
def test_witness_terms_are_records_of_its_walk(args):
    # the walk from stage 0 to the last witness stage, and each term the
    # walk's own record of its stage
    w = build_witness(*args)
    last = w.terms[-1].n
    assert w.stages == tuple(STAGES[:last + 1])
    assert all(term is w.stages[term.n] for term in w.terms)


def test_build_witness_override_validation():
    with pytest.raises(ConfigError):
        build_witness(2, [8, 4])
    with pytest.raises(ConfigError):
        build_witness(2, [4])
    with pytest.raises(ConfigError):
        build_witness(2, [1, 2])  # stage 1 has odd factor dimension
    w = build_witness(2, [4, 9])
    assert w.first_stage is None and w.terms[1].n == 9


def test_witness_base_dimensions():
    # the unit over the first j projective factors has rank 1 plus the
    # sigma(s) of each stage line, (j+1)!; the base half its real dimension
    assert verify_upper(STAGES[4])["certificate"]["rank_x"] == "120"
    for j in range(1, 40):
        assert 1 + sum(unit_multiplicity(s) for s in range(1, j + 1)) == factorial(j + 1)
        certificate = verify_upper(STAGES[j])["certificate"]
        assert certificate["rank_x"] == str(factorial(j + 1))
        assert certificate["half_dimension"] == str(sum(factor_dimension(s)
                                                        for s in range(1, j + 1)))


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
    for i, term in enumerate(build_witness(3).terms, start=1):
        assert verify_upper(term) == printed[f"upper_term_{i}"]


def test_witness_stages_is_the_certificate_cfp_prints(capsys):
    assert main(["cfp", "--terms", "3"]) == 0
    printed = {c["name"]: c["certificate"] for c in json.loads(capsys.readouterr().out)["checks"]}
    cert = cfp.witness_stages(build_witness(3))
    assert cert == printed["witness_stages"]
    assert cert["witness"]["overridden"] is False and cert["first_stage"]["value"] == 4


def test_witness_stages_of_given_stages_has_no_first_stage():
    cert = cfp.witness_stages(build_witness(2, [4, 5]))
    assert cert == {"witness": {"terms": [{"index": 1, "stage": 4, "copies": "192"},
                                          {"index": 2, "stage": 5, "copies": "1500"}],
                                "overridden": True}}


def test_upper_degenerate_zero_copies_guard():
    # stage 0 adds no factor, so its term has no copies to dominate the unit
    degenerate = verify_upper(STAGES[0])
    assert degenerate["copies"] == "0" and degenerate["outcome"] == "unknown"


def test_lower_verification_two_terms():
    w = build_witness(2)
    low = plain(verify_lower(w))
    assert low["passed"] and low["stage"] == 8
    step = low["rows"][1]
    assert step["dominated_rank"] == "447"
    assert step["growth_lhs"] == "1201536"
    assert step["growth_rhs_half_cap"] == "1290240"
    assert step["combined"] == "2491776"
    assert step["cap"] == "2580480"
    assert step["growth_ok"] and step["combined_ok"]


def test_lower_verification_three_terms():
    low = plain(verify_lower(build_witness(3)))
    assert low["passed"]
    assert all(row.get("growth_ok", True) for row in low["rows"])
    assert all(entry["ok"] for row in low["rows"][1:] for entry in row["intermediate"])
    assert all(entry["ok"] for entry in low["pushed_table"])
    assert low["euler"]["outcome"] == "obstructed"


def test_lower_verification_beyond_last_stage():
    w = build_witness(2)
    low = plain(verify_lower(w, stage=10))
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


def printed_pushed_coefficients(capsys, *argv) -> dict[int, int]:
    """{stage: coefficient} of the `pushed_table` a `cfp` call prints."""
    assert main(["cfp", *argv]) == 0
    checks = {c["name"]: c["certificate"] for c in json.loads(capsys.readouterr().out)["checks"]}
    return {row["stage"]: int(row["coefficient"]) for row in checks["lower_bound"]["pushed_table"]}


def test_exact_pushed_coefficients_hand_computed(capsys):
    coeffs = printed_pushed_coefficients(capsys, "--terms", "2")
    assert list(coeffs) == list(range(1, 9))
    assert coeffs[1] == coeffs[2] == coeffs[3] == 0
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


def test_exact_pushed_matches_bundle_pushforward(capsys):
    # independent route: push the real line bundles through the actual
    # connecting maps of the infinite family and read off multiplicities
    from villadsen.growth import INFINITE
    from villadsen.bundles import BundleExpr
    from conftest import direct_sum, push_through_stages, stage_space_from_scratch

    k = INFINITE
    w = build_witness(2)
    j = 8
    total = None
    for term in w.terms:
        start_space = stage_space_from_scratch(k, term.n)
        pos = start_space.generator_position(factor_labelled(start_space, f"cp{term.n}"))
        bundle = BundleExpr(start_space, 0, [(pos, term.dim // 2)])
        pushed = push_through_stages(k, bundle, term.n, j)
        total = pushed if total is None else direct_sum(total, pushed)
    expected = printed_pushed_coefficients(capsys, "--terms", "2")
    final_space = stage_space_from_scratch(k, j)
    by_stage = {}
    for s in range(1, j + 1):
        pos = total.base.generator_position(factor_labelled(final_space, f"cp{s}"))
        if pos in total.parts:
            by_stage[s] = total.parts[pos]
    assert sum(by_stage.values()) == total.rank
    assert by_stage == {s: c for s, c in expected.items() if c}


def test_pushed_coefficients_dominated_by_replay_table():
    w = build_witness(3)
    low = plain(verify_lower(w))
    exact = {e["stage"]: int(e["coefficient"]) for e in low["pushed_table"]}
    # the running total of the pushed sum, T(s) = (s+1) T(s-1) + arrival(s):
    # pushing one stage on keeps the sum and adds s copies of it
    arrivals = {t.n: factor_dimension(t.n) // 2 for t in w.terms}
    before = 0
    for s in range(1, low["stage"] + 1):
        after = (s + 1) * before + arrivals.get(s, 0)
        assert exact[s] == after - before
        before = after
    for row in low["rows"][1:]:
        for entry in row["intermediate"]:
            assert exact[entry["stage"]] <= int(entry["total"])


@pytest.mark.parametrize("broken, failures", [
    (6, ["dominating coefficient exceeds cap at stage 6",
         "exact pushed coefficient exceeds cap at stage 6"]),
    (10, ["capacity push fails from stage 9",
          "exact pushed coefficient exceeds cap at stage 10"]),
])
def test_lower_bound_names_each_table_a_broken_cap_fails(broken, failures, monkeypatch,
                                                         capsys):
    # a walk whose stage `broken` has factor dimension 1: every table that
    # reads that stage's cap fails there, and no other check moves
    walk = cfp.tower
    monkeypatch.setattr(cfp, "tower", lambda k, after=None: (
        stage._replace(dim=1) if stage.n == broken else stage for stage in walk(k, after)))
    assert main(["cfp", "--terms", "2", "--stage", "10"]) == 2
    checks = json.loads(capsys.readouterr().out)["checks"]
    assert [c["name"] for c in checks if c["outcome"] != "pass"] == ["lower_bound"]
    lower = checks[-1]
    assert lower["outcome"] == "fail" and lower["certificate"]["failures"] == failures
