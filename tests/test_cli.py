import json
import sys
from fractions import Fraction
from math import factorial
from pathlib import Path

import pytest

from villadsen.cli import main
from villadsen.growth import unit_multiplicity
from villadsen.reports import canonical_json, normalize_report, validate_report
from villadsen.type_one import compose_stats

from conftest import component_dropping_top_term, kernel_dropping_top_term


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def write_sphere_pair(tmp_path):
    space = tmp_path / "space.json"
    bundle = tmp_path / "bundle.json"
    space.write_text(json.dumps({"factors": [{"kind": "s2"}, {"kind": "s2"}]}))
    bundle.write_text(json.dumps({
        "trivial": "0",
        "summands": [
            {"line": {"terms": [{"exponents": [1, 0], "coefficient": "1"}]}, "mult": "1"},
            {"line": {"terms": [{"exponents": [0, 1], "coefficient": "1"}]}, "mult": "1"},
        ],
    }))
    return str(space), str(bundle)


def write_vi_config(tmp_path, steps):
    path = tmp_path / "vi.json"
    path.write_text(json.dumps({"seed_dim": 6, "steps": steps}))
    return str(path)


def test_chern_subcommand(tmp_path, capsys):
    space, bundle = write_sphere_pair(tmp_path)
    code, out = run_cli(capsys, "chern", "--space", space, "--bundle", bundle)
    assert code == 0
    doc = json.loads(out)
    validate_report(doc)
    components = doc["checks"][0]["certificate"]["components"]
    assert set(components) == {"0", "2", "4"}
    euler_check = doc["checks"][1]
    assert euler_check["certificate"]["nonzero"] is True


def test_chern_trivial_bundle_only_degree_zero(tmp_path, capsys):
    space = tmp_path / "s.json"
    bundle = tmp_path / "b.json"
    space.write_text(json.dumps({"factors": [{"kind": "s2"}]}))
    bundle.write_text(json.dumps({"trivial": "5", "summands": []}))
    code, out = run_cli(capsys, "chern", "--space", str(space), "--bundle", str(bundle))
    assert code == 0
    doc = json.loads(out)
    assert set(doc["checks"][0]["certificate"]["components"]) == {"0"}
    assert doc["checks"][1]["certificate"]["nonzero"] is False


def test_vi_subcommand_with_witness(tmp_path, capsys):
    config = write_vi_config(tmp_path, [
        {"proj_mults": {"p1": 1, "p2": 1, "p3": 1}, "point_evals": 1},
    ])
    code, out = run_cli(capsys, "vi", "--config", config, "--witness", "2")
    assert code == 0
    doc = json.loads(out)
    validate_report(doc)
    names = [c["name"] for c in doc["checks"]]
    assert names == ["stage_stats", "ratio_trajectory", "projection_ratio_estimate",
                     "top_chern_witness", "ratio_contradiction"]
    contra = doc["checks"][-1]["certificate"]
    assert contra["hypothesis_holds"] and contra["contradiction"]


def test_vi_projection_ratio_estimate_flags_finite_stage(tmp_path, capsys):
    # projection share 3/4 per step
    config = write_vi_config(tmp_path, [{"proj_mults": {"p": 3}, "point_evals": 1}] * 3)
    code, out = run_cli(capsys, "vi", "--config", config)
    assert code == 0
    estimate = [c for c in json.loads(out)["checks"]
                if c["name"] == "projection_ratio_estimate"][0]["certificate"]
    value = Fraction(3, 4) ** 3
    assert estimate == {"value": {"num": str(value.numerator), "den": str(value.denominator)},
                        "finite_stage": True, "from_stage": 0, "to_stage": 3}


def test_vi_rejects_unknown_config_keys(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"seed_dim": 2, "steps": [], "wat": 1}))
    code, _ = run_cli(capsys, "vi", "--config", str(path))
    assert code == 1


def test_vi_missing_file_is_usage_error(tmp_path, capsys):
    code, _ = run_cli(capsys, "vi", "--config", str(tmp_path / "absent.json"))
    assert code == 1


def test_v2_trace_values(capsys):
    code, out = run_cli(capsys, "v2", "-k", "2", "-n", "3", "--trace")
    assert code == 0
    doc = json.loads(out)
    validate_report(doc)
    cert = doc["checks"][0]["certificate"]
    assert cert["witness_sum_trace"] == {"num": "23", "den": "12"}
    assert cert["trivial_line_trace"] == {"num": "1", "den": "24"}
    assert cert["unit_trace"] == {"num": "1", "den": "1"}


def test_v2_radius_and_comparability(capsys):
    code, out = run_cli(capsys, "v2", "-k", "3", "-n", "5", "--rc")
    assert code == 0
    doc = json.loads(out)
    assert doc["checks"][-1]["outcome"] == "pass"

    code, out = run_cli(capsys, "v2", "-k", "2", "-n", "2",
                        "--comparability", "--stage", "4")
    assert code == 0
    doc = json.loads(out)
    validate_report(doc)
    cert = doc["checks"][-1]["certificate"]
    assert cert["passed"] is True
    assert cert["euler_obstruction"]["outcome"] == "obstructed"


def test_v2_infinite_family_divergence(capsys):
    code, out = run_cli(capsys, "v2", "-k", "inf", "-n", "4", "--rc")
    assert code == 0
    doc = json.loads(out)
    cert = doc["checks"][-1]["certificate"]
    assert cert["divergent"] is True


def test_v2_bad_parameter_is_usage_error(capsys):
    code, _ = run_cli(capsys, "v2", "-k", "0", "-n", "3")
    assert code == 1


def test_cfp_subcommand(capsys):
    code, out = run_cli(capsys, "cfp", "--terms", "2")
    assert code == 0
    doc = json.loads(out)
    validate_report(doc)
    names = [c["name"] for c in doc["checks"]]
    assert names == ["witness_stages", "upper_term_1", "upper_term_2", "lower_bound"]
    assert doc["ok"] is True


def test_cfp_override_verification_failure_exits_two(capsys):
    code, out = run_cli(capsys, "cfp", "--terms", "2", "--override-l", "4,5")
    assert code == 2
    doc = json.loads(out)
    validate_report(doc)
    assert doc["ok"] is False
    lower = [c for c in doc["checks"] if c["name"] == "lower_bound"][0]
    assert lower["outcome"] == "fail"


def test_every_euler_certificate_is_cross_checked(capsys, monkeypatch):
    # the full routes of these bundles expand far past a budget of 1000 terms;
    # the degree-targeted cross-check does not depend on it
    monkeypatch.setenv("ENGINE_GENERATOR_BUDGET", "1000")
    for k in ("1", "2", "inf"):
        for stage in range(1, 7):
            code, out = run_cli(capsys, "v2", "-k", k, "-n", "1", "--stage", str(stage),
                                "--comparability")
            assert code == 0
            triple = json.loads(out)["checks"][0]["certificate"]
            assert triple["euler_obstruction"]["certificate"]["route"] == "factorized+full"
    code, out = run_cli(capsys, "cfp", "--terms", "9")
    assert code == 0
    lower = [c for c in json.loads(out)["checks"] if c["name"] == "lower_bound"][0]
    assert lower["certificate"]["stage"] == 1024
    assert lower["certificate"]["euler"]["certificate"]["route"] == "factorized+full"


def test_schema_invalid_report_exits_two(capsys, monkeypatch):
    def check_with_unknown_outcome(name, ok, certificate=None, message=""):
        return {"name": name, "outcome": "maybe"}

    monkeypatch.setattr("villadsen.reports.check", check_with_unknown_outcome)
    code = main(["v2", "-k", "2", "-n", "3"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "Traceback" not in captured.err
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert "'maybe'" in captured.err


def test_cfp_invalid_override_is_usage_error(capsys):
    code, _ = run_cli(capsys, "cfp", "--terms", "2", "--override-l", "1,2")
    assert code == 1
    # an entry that is not an integer is named with its option
    code = main(["cfp", "--terms", "2", "--override-l", "4,x"])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert "--override-l" in captured.err and "'x'" in captured.err


def test_cfp_override_below_stage_one_is_named(capsys):
    code = main(["cfp", "--terms", "2", "--override-l", "0,4"])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err == "error: override stages start at stage 1, not [0]\n"


@pytest.mark.parametrize("argv, option", [
    (["v2", "-k", "\u0662", "-n", "3"], "-k"),
    (["v2", "-k", "true", "-n", "3"], "-k"),
    (["v2", "-k", "2", "-n", "1_0", "--trace"], "-n"),
    (["v2", "-k", "2", "-n", " 3"], "-n"),
    (["v2", "-k", "2", "-n", "3", "--stage", "+4", "--comparability"], "--stage"),
    (["cfp", "--terms", "\u0663"], "--terms"),
    (["cfp", "--terms", "2", "--stage", "0x10"], "--stage"),
    (["vi", "--config", "vi.json", "--from", "1.0"], "--from"),
    (["vi", "--config", "vi.json", "--stage", "1e1"], "--stage"),
    (["vi", "--config", "vi.json", "--witness", "two"], "--witness"),
])
def test_integer_option_is_read_strictly(argv, option, capsys):
    # int() took Unicode digits, underscores and spaces, and its refusal
    # named no option
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    assert code == 1 and captured.out == "" and "Traceback" not in captured.err
    errors = [line for line in captured.err.splitlines() if line.startswith("error:")]
    assert len(errors) == 1 and option in errors[0] and repr(argv[argv.index(option) + 1]) \
        in errors[0]


@pytest.mark.parametrize("size", ["1", "0"])
def test_vi_witness_below_two_is_refused_first(size, capsys):
    # the refusal named no option, and came from deep in the engine; the
    # config path does not exist, so it must come before any work
    code = main(["vi", "--config", "missing.json", "--witness", size])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err == f"error: --witness must be >= 2, not {size}\n"


def test_v2_stage_needs_comparability(capsys):
    # --stage was silently ignored without --comparability, with exit 0
    code = main(["v2", "-k", "2", "-n", "3", "--stage", "5"])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == "" and "Traceback" not in captured.err
    errors = [line for line in captured.err.splitlines() if line.startswith("error:")]
    assert len(errors) == 1 and "--stage" in errors[0]
    assert captured.err.count("\n") == 1


def test_usage_errors_exit_one(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["nonsense"])
    assert exc.value.code == 1
    with pytest.raises(SystemExit) as exc:
        main(["v2", "-n", "3"])  # missing -k
    assert exc.value.code == 1


def test_reports_deterministic_and_round_trip(capsys):
    code1, out1 = run_cli(capsys, "cfp", "--terms", "2")
    code2, out2 = run_cli(capsys, "cfp", "--terms", "2")
    assert code1 == code2 == 0
    doc1, doc2 = json.loads(out1), json.loads(out2)
    assert normalize_report(doc1) == normalize_report(doc2)
    # canonical encoding round-trips byte-identically
    assert canonical_json(doc1) == out1.strip()
    assert canonical_json(json.loads(canonical_json(doc1))) == canonical_json(doc1)


def test_v2_rank_beyond_default_digit_limit(capsys):
    # (n+1)! has more than the 4300 digits Python prints by default
    n = 1700
    limit = sys.get_int_max_str_digits()
    code, out = run_cli(capsys, "v2", "-k", "2", "-n", str(n), "--trace")
    assert code == 0
    assert sys.get_int_max_str_digits() == limit
    rank = json.loads(out)["checks"][0]["certificate"]["rank"]
    sys.set_int_max_str_digits(0)
    try:
        assert rank == str(factorial(n + 1))
    finally:
        sys.set_int_max_str_digits(limit)
    assert len(rank) > 4300


def test_input_documents_keep_the_default_digit_limit(tmp_path, capsys):
    space, bundle = write_sphere_pair(tmp_path)
    doc = json.loads(Path(bundle).read_text())
    doc["summands"][0]["mult"] = "9" * (sys.get_int_max_str_digits() + 1)
    Path(bundle).write_text(json.dumps(doc))
    code, _ = run_cli(capsys, "chern", "--space", space, "--bundle", bundle)
    assert code == 1


def write_chern_docs(tmp_path, space_doc, bundle_doc):
    space = tmp_path / "space.json"
    bundle = tmp_path / "bundle.json"
    space.write_text(json.dumps(space_doc))
    bundle.write_text(json.dumps(bundle_doc))
    return str(space), str(bundle)


def assert_one_error_line(capsys, code, path):
    captured = capsys.readouterr()
    assert code == 1
    assert "Traceback" not in captured.err
    errors = [line for line in captured.err.splitlines() if line.startswith("error:")]
    assert len(errors) == 1 and path in errors[0]
    assert captured.out == ""
    return errors[0]


def test_chern_space_with_non_list_factors_is_usage_error(tmp_path, capsys):
    space, bundle = write_chern_docs(tmp_path, {"factors": 5}, {"trivial": "1"})
    code = main(["chern", "--space", space, "--bundle", bundle])
    assert_one_error_line(capsys, code, space)


@pytest.mark.parametrize("line", [
    {"terms": [{"exponents": "10", "coefficient": "1"}]},
    {"terms": [{"exponents": {"1": 0, "0": 1}, "coefficient": "1"}]},
    {"terms": {}},
])
def test_chern_line_terms_that_are_not_lists_are_usage_error(tmp_path, capsys, line):
    # a string or an object would be read by its characters or keys
    space, bundle = write_chern_docs(tmp_path, {"factors": [{"kind": "s2"}, {"kind": "s2"}]},
                                     {"summands": [{"line": line, "mult": "1"}]})
    code = main(["chern", "--space", space, "--bundle", bundle])
    assert_one_error_line(capsys, code, bundle)


def test_chern_summand_without_mult_is_usage_error(tmp_path, capsys):
    space, bundle = write_sphere_pair(tmp_path)
    doc = json.loads(Path(bundle).read_text())
    del doc["summands"][1]["mult"]
    Path(bundle).write_text(json.dumps(doc))
    code = main(["chern", "--space", space, "--bundle", bundle])
    assert_one_error_line(capsys, code, bundle)


def test_chern_bundle_that_is_a_list_is_usage_error(tmp_path, capsys):
    space, bundle = write_chern_docs(tmp_path, {"factors": [{"kind": "s2"}]}, [])
    code = main(["chern", "--space", space, "--bundle", bundle])
    assert_one_error_line(capsys, code, bundle)


@pytest.mark.parametrize("space_doc, bundle_doc, bad", [
    ({"factors": {}}, {"trivial": "1"}, "space"),
    ({"factors": ""}, {"trivial": "1"}, "space"),
    ({"factors": [{"kind": "s2"}]}, {"summands": {}}, "bundle"),
], ids=["factors-object", "factors-string", "summands-object"])
def test_chern_factors_and_summands_must_be_lists(tmp_path, capsys, space_doc, bundle_doc,
                                                   bad):
    # an empty object or string would be read as the empty list
    paths = dict(zip(("space", "bundle"), write_chern_docs(tmp_path, space_doc, bundle_doc)))
    code = main(["chern", "--space", paths["space"], "--bundle", paths["bundle"]])
    assert_one_error_line(capsys, code, paths[bad])


@pytest.mark.parametrize("steps, message", [
    ({}, "steps must be a JSON list"),
    ("", "steps must be a JSON list"),
    (["ab"], "step 0 must be a JSON object"),
    ([{"proj_mults": {"p": 1}}, 3], "step 1 must be a JSON object"),
    ([{"proj_mults": [["p", 1]]}], "proj_mults must be a JSON object"),
], ids=["steps-object", "steps-string", "step-string", "step-int", "proj-mults-list"])
def test_vi_config_steps_and_proj_mults_are_checked(steps, message, tmp_path, capsys):
    # an empty object or string would be read as no steps, a verified empty system
    config = write_vi_config(tmp_path, steps)
    code = main(["vi", "--config", config, "--witness", "2"])
    assert message in assert_one_error_line(capsys, code, config)


def test_vi_config_without_steps_is_valid(tmp_path, capsys):
    code, out = run_cli(capsys, "vi", "--config", write_vi_config(tmp_path, []))
    assert code == 0 and json.loads(out)["checks"]


def test_chern_bundle_without_summands_is_trivial(tmp_path, capsys):
    space, bundle = write_chern_docs(tmp_path, {"factors": [{"kind": "s2"}]}, {"trivial": "2"})
    code, out = run_cli(capsys, "chern", "--space", space, "--bundle", bundle)
    assert code == 0
    assert json.loads(out)["checks"][0]["certificate"]["rank"] == "2"


def test_chern_line_with_a_repeated_exponent_vector_adds_its_terms(tmp_path, capsys):
    # two terms z0 are the class 2*z0, which is not a line
    twice_z0 = {"terms": [{"exponents": [1, 0], "coefficient": "1"},
                          {"exponents": [1, 0], "coefficient": "1"}]}
    space, bundle = write_chern_docs(tmp_path, {"factors": [{"kind": "s2"}, {"kind": "s2"}]},
                                     {"summands": [{"line": twice_z0, "mult": "1"}]})
    code = main(["chern", "--space", space, "--bundle", bundle])
    error = assert_one_error_line(capsys, code, bundle)
    assert "line class must be one generator with coefficient 1" in error


def test_vi_witness_past_the_budget_is_refused(tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("ENGINE_GENERATOR_BUDGET", raising=False)
    config = write_vi_config(tmp_path, [{"proj_mults": {"p1": 2}, "point_evals": 1}])
    code, out = run_cli(capsys, "vi", "--config", config, "--witness", "17")
    assert code == 2
    doc = json.loads(out)
    validate_report(doc)
    witness = [c for c in doc["checks"] if c["name"] == "top_chern_witness"][0]
    assert witness["outcome"] == "refused"
    assert "17 generators" in witness["message"]
    assert "131072" in witness["message"] and "100000" in witness["message"]
    assert witness["certificate"] == {"required": "131072", "budget": "100000"}

    # 14 generators (16384 terms) stay within the default budget
    config = write_vi_config(tmp_path, [{"proj_mults": {"p1": 1, "p2": 2}, "point_evals": 0}])
    code, out = run_cli(capsys, "vi", "--config", config, "--witness", "7")
    assert code == 0
    witness = [c for c in json.loads(out)["checks"] if c["name"] == "top_chern_witness"][0]
    assert witness["certificate"]["sphere_power"] == 14
    assert witness["certificate"]["coefficient"] == str(2 ** 7)


def test_vi_projection_chains_follow_the_expansion_budget(tmp_path, capsys, monkeypatch):
    # three steps of 50 projections compose into 125,000 chains
    steps = [{"proj_mults": {f"p{i}": 1 for i in range(50)}, "point_evals": 0}] * 3
    config = write_vi_config(tmp_path, steps)
    messages = {}
    for budget in ("100000", "1000000000"):
        monkeypatch.setenv("ENGINE_GENERATOR_BUDGET", budget)
        code, out = run_cli(capsys, "vi", "--config", config, "--witness", "2")
        assert code == 2
        witness = [c for c in json.loads(out)["checks"] if c["name"] == "top_chern_witness"][0]
        assert witness["outcome"] == "refused"
        messages[budget] = witness["message"]
    assert messages["100000"].startswith("projection chain enumeration needs 125000 terms")
    # the raised budget lets the enumeration through to the top-Chern expansion
    assert messages["1000000000"].startswith("top Chern witness expansion over 250000 generators")


# an engine route broken on purpose, by the name it is patched in under
BROKEN_ROUTE = {
    "villadsen.bundles.chern_component": component_dropping_top_term,
    "villadsen.type_one.line_series_product": kernel_dropping_top_term,
    "villadsen.cfp.unit_multiplicity": lambda n: unit_multiplicity(n) + 1,
    # a unit rank 1000 times too large shrinks every trace below its bounds
    "villadsen.growth.GrowthTable.rank":
        property(lambda table: 1000 * table.factorial * (table.n + 1)),
}


@pytest.mark.parametrize("argv, budget, check, patched, message", [
    (["v2", "-k", "2", "-n", "1", "--comparability", "--stage", "3"], "100000",
     "comparability_triple", "villadsen.bundles.chern_component",
     "factorized Euler class disagrees"),
    (["cfp", "--terms", "1"], "100000",
     "lower_bound", "villadsen.bundles.chern_component",
     "factorized Euler class disagrees"),
    (["vi", "--config", "CONFIG", "--witness", "2"], "100000",
     "top_chern_witness", "villadsen.type_one.line_series_product",
     "top Chern coefficient mismatch"),
    (["cfp", "--terms", "2"], "100000",
     "lower_bound", "villadsen.cfp.unit_multiplicity",
     "running pushforward coefficient disagrees"),
    (["v2", "-k", "2", "-n", "3"], "100000",
     "trace_table", "villadsen.growth.GrowthTable.rank",
     "unit rank bookkeeping is inconsistent"),
    (["v2", "-k", "2", "-n", "2", "--comparability"], "100000",
     "comparability_triple", "villadsen.growth.GrowthTable.rank",
     "closed-form q-sum trace disagrees"),
    (["v2", "-k", "inf", "-n", "2", "--comparability"], "100000",
     "comparability_triple", "villadsen.growth.GrowthTable.rank",
     "divergence lower bound fails"),
])
def test_cross_check_disagreement_exits_two(argv, budget, check, patched, message,
                                            tmp_path, capsys, monkeypatch):
    config = write_vi_config(tmp_path, [{"proj_mults": {"p1": 1, "p2": 3}, "point_evals": 1}])
    argv = [config if word == "CONFIG" else word for word in argv]
    monkeypatch.setenv("ENGINE_GENERATOR_BUDGET", budget)
    monkeypatch.setattr(patched, BROKEN_ROUTE[patched])
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert "Traceback" not in captured.err
    doc = json.loads(captured.out)
    validate_report(doc)
    failed = [c for c in doc["checks"] if c["name"] == check][0]
    assert failed["outcome"] == "fail" and failed["message"].startswith(message)


FLOAT_LITERALS = ["1e400", "2.9", "NaN"]


@pytest.mark.parametrize("literal", FLOAT_LITERALS)
def test_chern_space_with_float_literal_is_usage_error(literal, tmp_path, capsys):
    space, bundle = write_sphere_pair(tmp_path)
    Path(space).write_text('{"factors": [{"kind": "cp", "n": %s}]}' % literal)
    code = main(["chern", "--space", space, "--bundle", bundle])
    captured = capsys.readouterr()
    assert_float_literal_named(captured, code, space, literal)


@pytest.mark.parametrize("literal", FLOAT_LITERALS)
def test_chern_bundle_with_float_literal_is_usage_error(literal, tmp_path, capsys):
    space, bundle = write_sphere_pair(tmp_path)
    text = Path(bundle).read_text().replace('"mult": "1"', '"mult": %s' % literal, 1)
    Path(bundle).write_text(text)
    code = main(["chern", "--space", space, "--bundle", bundle])
    assert_float_literal_named(capsys.readouterr(), code, bundle, literal)


@pytest.mark.parametrize("literal", FLOAT_LITERALS)
def test_vi_config_with_float_literal_is_usage_error(literal, tmp_path, capsys):
    config = tmp_path / "vi.json"
    config.write_text('{"seed_dim": %s, "steps": []}' % literal)
    code = main(["vi", "--config", str(config)])
    assert_float_literal_named(capsys.readouterr(), code, str(config), literal)


def assert_float_literal_named(captured, code, path, literal):
    # 1e400 was an OverflowError traceback and 2.9 was read as 2
    assert code == 1
    assert captured.out == "" and "Traceback" not in captured.err
    errors = [line for line in captured.err.splitlines() if line.startswith("error:")]
    assert len(errors) == 1 and path in errors[0] and literal in errors[0]


BOOLEAN_SLOT_DOCUMENTS = {
    "space": {"factors": [{"kind": "disk", "d": 1}, {"kind": "s2"}, {"kind": "cp", "n": 2}]},
    "bundle": {"trivial": "1", "summands": [
        {"line": {"terms": [{"exponents": [1, 0], "coefficient": "1"}]}, "mult": "2"}]},
    "config": {"seed_dim": 6, "steps": [{"proj_mults": {"p1": 2}, "point_evals": 1}]},
}


@pytest.mark.parametrize("document, slot_path", [
    ("space", "factors.0.d"),
    ("space", "factors.2.n"),
    ("bundle", "trivial"),
    ("bundle", "summands.0.mult"),
    ("bundle", "summands.0.line.terms.0.exponents.0"),
    ("bundle", "summands.0.line.terms.0.coefficient"),
    ("config", "seed_dim"),
    ("config", "steps.0.proj_mults.p1"),
    ("config", "steps.0.point_evals"),
])
def test_boolean_in_an_integer_slot_is_usage_error(document, slot_path, tmp_path, capsys):
    # `true` was read as 1: a bundle of all-`true` slots had rank 2
    docs = json.loads(json.dumps(BOOLEAN_SLOT_DOCUMENTS))
    *parents, last = [int(k) if k.isdigit() else k for k in slot_path.split(".")]
    slot = docs[document]
    for key in parents:
        slot = slot[key]
    slot[last] = True
    paths = {}
    for name, doc in docs.items():
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(json.dumps(doc))
    if document == "config":
        code = main(["vi", "--config", str(paths["config"])])
    else:
        code = main(["chern", "--space", str(paths["space"]), "--bundle", str(paths["bundle"])])
    assert_one_error_line(capsys, code, str(paths[document]))


# past Python's default limit of 4300 digits for int<->str conversion
LONG_INTEGER = "7" * 5000


def assert_digit_limit_named(captured, code, slot):
    # the error named no option or document and told a CLI user to call
    # sys.set_int_max_str_digits()
    assert code == 1 and captured.out == "" and "Traceback" not in captured.err
    errors = [line for line in captured.err.splitlines() if line.startswith("error:")]
    assert len(errors) == 1 and slot in errors[0]
    assert "set_int_max_str_digits" not in captured.err


@pytest.mark.parametrize("argv, slot", [
    (["v2", "-k", LONG_INTEGER, "-n", "3"], "-k"),
    (["v2", "-k", "2", "-n", LONG_INTEGER], "-n"),
    (["cfp", "--terms", "1", "--override-l", LONG_INTEGER], "--override-l"),
], ids=["v2-k", "v2-n", "cfp-override-l"])
def test_integer_option_past_the_digit_limit_is_named(argv, slot, capsys):
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    assert_digit_limit_named(capsys.readouterr(), code, slot)


@pytest.mark.parametrize("literal", [LONG_INTEGER, f'"{LONG_INTEGER}"'],
                         ids=["literal", "string"])
@pytest.mark.parametrize("command", ["chern", "vi"])
def test_document_integer_past_the_digit_limit_is_named(command, literal, tmp_path, capsys):
    if command == "chern":
        path, bundle = write_sphere_pair(tmp_path)
        Path(path).write_text('{"factors": [{"kind": "cp", "n": %s}]}' % literal)
        code = main(["chern", "--space", path, "--bundle", bundle])
    else:
        path = str(tmp_path / "vi.json")
        Path(path).write_text('{"seed_dim": %s, "steps": []}' % literal)
        code = main(["vi", "--config", path])
    assert_digit_limit_named(capsys.readouterr(), code, path)


def test_document_that_is_not_utf8_is_named(tmp_path, capsys):
    config = tmp_path / "vi.json"
    config.write_bytes(b'{"seed_dim": 6, "steps": []}\xff')
    code = main(["vi", "--config", str(config)])
    assert_one_error_line(capsys, code, str(config))


def test_vi_trajectory_composes_only_the_requested_range(tmp_path, capsys, monkeypatch):
    # the trajectory composed every step of the config and then cut it
    calls = []

    def counting(a, b):
        calls.append((a, b))
        return compose_stats(a, b)

    monkeypatch.setattr("villadsen.type_one.compose_stats", counting)
    config = write_vi_config(tmp_path, [{"proj_mults": {"p1": 1}, "point_evals": 1}] * 3)
    code, out = run_cli(capsys, "vi", "--config", config, "--stage", "1")
    assert code == 0
    assert [c["certificate"]["values"] for c in json.loads(out)["checks"]
            if c["name"] == "ratio_trajectory"] == [[{"num": "1", "den": "2"}]]
    # one step each for the stage stats and the trajectory
    assert len(calls) == 2
