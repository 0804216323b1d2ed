"""Acceptance gate: every finite-stage quantity and inequality, exactly.

Each test prints one line `[criterion N] ...: PASS/FAIL (elapsed)`; run with
`pytest -s tests/test_acceptance.py` to see them.  All comparisons are exact
(integers and rationals); the time limits are generous and absolute.
"""

import json
import random
import time
from contextlib import contextmanager
from fractions import Fraction
from functools import reduce
from math import factorial

from villadsen.bundles import (
    BundleExpr,
    DiagonalSlot,
    chern_expansion_cost,
    euler,
    pushforward_diagonal,
)
from villadsen.cohomology import GradedClass
from villadsen.comparison import trivial_line_subbundle_sufficient
from villadsen.growth import INFINITE
from villadsen.reports import validate_report
from villadsen.spaces import SpaceDescriptor, cproj, projection
from villadsen.type_one import StageStats, ratio_contradiction_check, running_stats, top_chern_witness
from villadsen.type_two import (
    comparability_triple,
    radius_of_comparison,
    trace_table,
)
from villadsen import cfp
from villadsen.cli import main as cli_main

from conftest import (
    chern_class,
    cp_dimension,
    cup,
    dict_poly_top_coefficient,
    direct_sum,
    enumerate_chain_stats,
    fraction,
    plain,
    pullback_class,
    random_class,
    random_space,
    random_step,
    stage_space_from_scratch,
    witness_sum_from_scratch,
)
from test_bundles import random_bundle
from test_cfp import STAGES, brute_force_first_stage, brute_force_next_stage


@contextmanager
def criterion(number: int, description: str, limit_seconds: float):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        elapsed = time.perf_counter() - start
        print(f"[criterion {number}] {description}: FAIL ({elapsed:.2f} s)", flush=True)
        raise
    elapsed = time.perf_counter() - start
    assert elapsed < limit_seconds, (
        f"criterion {number} took {elapsed:.2f} s, limit {limit_seconds} s")
    print(f"[criterion {number}] {description}: PASS ({elapsed:.2f} s)", flush=True)


def test_criterion_1_type_two_traces():
    with criterion(1, "stage-3 traces of the k=2 family", 1.0):
        k = 2
        cert = trace_table(k, 3)
        q_sum = fraction(cert["witness_sum_trace"])
        assert q_sum == Fraction(23, 12) \
            == Fraction(witness_sum_from_scratch(k, 3).rank, factorial(4))
        assert fraction(cert["trivial_line_trace"]) == Fraction(1, 24) \
            == Fraction(BundleExpr(stage_space_from_scratch(k, 3), 1).rank,
                        factorial(4))


def test_criterion_2_radius_of_comparison_grid():
    with criterion(2, "dimension/rank ratio equals k for k<=5, n<=8", 1.0):
        for k in range(1, 6):
            report = radius_of_comparison(k, 8)
            assert report["passed"]
            for n in range(0, 9):
                dimension = int(trace_table(k, n)["dimension"])
                assert dimension == stage_space_from_scratch(k, n).real_dimension
                assert Fraction(dimension, 2 * factorial(n + 1)) == k


def test_criterion_3_top_chern_closed_form_vs_expansion():
    with criterion(3, "top-Chern closed form vs sparse expansion, 200+ cases", 30.0):
        rng = random.Random(20260810)
        cases = 0
        for _ in range(200):
            n = rng.randint(1, 3)
            mults = [rng.randint(1, 5) for _ in range(rng.randint(1, 4))]
            witness = top_chern_witness(n, mults)  # self-checks both routes
            gens, coeff = dict_poly_top_coefficient(n, mults)
            assert witness["sphere_power"] == gens
            assert witness["coefficient"] == str(coeff)
            expected = 1
            for m in mults:
                expected *= m ** n
            assert int(witness["coefficient"]) == expected != 0
            cases += 1
        assert cases >= 200


def test_criterion_4_contradiction_chain_closes():
    with criterion(4, "ratio hypothesis forces the contradiction, n=2..6", 1.0):
        rng = random.Random(4)
        for n in range(2, 7):
            threshold = Fraction(2 * n - 1, 2 * n)
            for _ in range(50):
                total = rng.randint(2 * n, 10 ** 6)
                lowest = -(-threshold.numerator * total // threshold.denominator)
                distinct = rng.randint(lowest, total)
                alpha = rng.randint(distinct, total)
                report = ratio_contradiction_check(n, StageStats(distinct, alpha, total))
                assert report["hypothesis_holds"]
                assert report["contradiction"]
                assert fraction(report["forced_square"]) < Fraction(n - 1, n)


def test_criterion_5_comparability_certificates(monkeypatch):
    with criterion(5, "stable-range i<=6 (k=1,2,inf); Euler obstruction j<=4 (k<=2)", 5.0):
        for k in (1, 2, INFINITE):
            for i in range(1, 7):
                dim = cp_dimension(k, i)
                base = SpaceDescriptor((cproj(dim),))
                doubled = BundleExpr(base, 0, [(0, 2 * dim)])
                assert trivial_line_subbundle_sufficient(
                    doubled.rank, base.real_dimension)["outcome"] == "dominates"
        for k in (1, 2):
            for n in range(1, 5):
                for j in range(n, 5):
                    report = comparability_triple(k, n, j)
                    assert report["passed"]
                    assert report["euler_obstruction"]["certificate"]["euler_nonzero"]
                    assert report["euler_obstruction"]["certificate"]["route"] \
                        == "factorized+full"
        # one full-expansion agreement at the largest stage, budget lifted
        witness = witness_sum_from_scratch(2, 4)
        monkeypatch.setenv("ENGINE_GENERATOR_BUDGET", str(chern_expansion_cost(witness)))
        top = chern_class(witness, degrees=[2 * witness.rank])
        assert top == euler(witness) and not top.is_zero()


def test_criterion_6_cfp_witness():
    with criterion(6, "witness stages, upper verdicts, lower induction", 10.0):
        assert cfp.first_stage_certificate([])["value"] == 4 == brute_force_first_stage()
        assert cfp.next_witness_stage(STAGES[4]) == 8 == brute_force_next_stage(4)
        witness = cfp.build_witness(3)
        first = cfp.verify_upper(witness.terms[0])
        assert first["outcome"] == "dominates"
        assert first["certificate"]["rank_y"] == "960"
        assert (int(first["certificate"]["rank_x"])
                + int(first["certificate"]["half_dimension"])) == 567
        for term in witness.terms[1:]:
            assert cfp.verify_upper(term)["outcome"] == "dominates"
        lower = plain(cfp.verify_lower(witness))
        assert lower["passed"]
        for row in lower["rows"][1:]:
            assert row["growth_ok"] and row["combined_ok"]
            assert 2 * int(row["growth_lhs"]) <= cp_dimension(INFINITE, row["to_stage"])


def test_criterion_7_property_suites():
    with criterion(7, "five property suites, 1000 randomized cases", 60.0):
        rng = random.Random(777)
        counts = {"product_formula": 0, "naturality": 0, "confluence": 0,
                  "stats_vs_enumeration": 0, "kunneth": 0}

        for _ in range(200):
            space = random_space(rng)
            a, b = random_bundle(rng, space), random_bundle(rng, space)
            assert chern_class(direct_sum(a, b)) == cup(chern_class(a), chern_class(b))
            counts["product_formula"] += 1

        for _ in range(200):
            base = random_space(rng, max_factors=3)
            source = SpaceDescriptor(base.factors + random_space(rng, max_factors=2).factors)
            f = projection(source, base, tuple(range(len(base.factors))))
            bundle = random_bundle(rng, base)
            pulled = pushforward_diagonal(bundle, [DiagonalSlot(f)])
            assert chern_class(pulled) == pullback_class(f, chern_class(bundle))
            counts["naturality"] += 1

        for _ in range(200):
            space = random_space(rng, max_factors=3)
            classes = [random_class(rng, space) for _ in range(3)]
            forward = reduce(cup, classes)
            backward = reduce(cup, reversed(classes))
            rotated = reduce(cup, classes[1:] + classes[:1])
            assert forward == backward == rotated
            counts["confluence"] += 1

        for _ in range(200):
            steps = [random_step(rng) for _ in range(rng.randint(1, 4))]
            composed = running_stats(steps, 0, len(steps))[-1]
            oracle = enumerate_chain_stats(steps, 0, len(steps))
            assert (composed.distinct_projections,
                    composed.projection_multiplicity,
                    composed.total_multiplicity) == oracle
            counts["stats_vs_enumeration"] += 1

        for _ in range(200):
            space = random_space(rng, max_factors=4)
            n_gens = len(space.caps)
            while n_gens < 2:
                space = random_space(rng, max_factors=4)
                n_gens = len(space.caps)
            split = rng.randint(1, n_gens - 1)
            classes = []
            for block in (range(0, split), range(split, n_gens)):
                terms = {}
                for _ in range(rng.randint(0, 3)):
                    exps = [0] * n_gens
                    for i in block:
                        exps[i] = rng.randrange(0, space.caps[i])
                    c = rng.randint(-3, 3)
                    if c:
                        terms[tuple(exps)] = c
                classes.append(GradedClass(space, terms))
            a, b = classes
            assert (not cup(a, b).is_zero()) == (not a.is_zero() and not b.is_zero())
            counts["kunneth"] += 1

        total = sum(counts.values())
        assert total >= 1000, counts
        print(f"  property cases: {counts} (total {total}, zero failures)", flush=True)


def test_criterion_8_cli_reports_and_exit_codes(tmp_path, capsys):
    with criterion(8, "single-subcommand runs, schema-valid reports, exit codes", 30.0):
        def run(*argv):
            code = cli_main(list(argv))
            out = capsys.readouterr().out
            doc = json.loads(out)
            validate_report(doc)
            return code, doc

        # criterion 1 as a subcommand
        code, doc = run("v2", "-k", "2", "-n", "3", "--trace")
        assert code == 0
        cert = doc["checks"][0]["certificate"]
        assert cert["witness_sum_trace"] == {"num": "23", "den": "12"}
        assert cert["trivial_line_trace"] == {"num": "1", "den": "24"}

        # criterion 2: one subcommand per parameter
        for k in range(1, 6):
            code, doc = run("v2", "-k", str(k), "-n", "8", "--rc")
            assert code == 0 and doc["ok"]

        # criteria 3 and 4 behind the vi subcommand
        config = tmp_path / "vi.json"
        config.write_text(json.dumps({
            "seed_dim": 6,
            "steps": [{"proj_mults": {"p1": 1, "p2": 1, "p3": 1}, "point_evals": 1}],
        }))
        code, doc = run("vi", "--config", str(config), "--witness", "2")
        assert code == 0
        by_name = {c["name"]: c for c in doc["checks"]}
        assert by_name["top_chern_witness"]["outcome"] == "pass"
        assert by_name["ratio_contradiction"]["certificate"]["contradiction"]

        # criterion 5 behind v2 --comparability
        code, doc = run("v2", "-k", "2", "-n", "2", "--comparability", "--stage", "4")
        assert code == 0 and doc["ok"]

        # criterion 6 behind cfp
        code, doc = run("cfp", "--terms", "3")
        assert code == 0 and doc["ok"]

        # exit code 2 on verification failure, 1 on usage errors
        code = cli_main(["cfp", "--terms", "2", "--override-l", "4,5"])
        capsys.readouterr()
        assert code == 2
        code = cli_main(["vi", "--config", str(tmp_path / "missing.json")])
        capsys.readouterr()
        assert code == 1
