import io
import json
import os
import re
import subprocess
import sys
import tracemalloc
import weakref
from fractions import Fraction
from math import factorial
from pathlib import Path

import pytest

import villadsen
from villadsen import cli, reports, type_two
from villadsen.cli import main
from villadsen.errors import GeneratorBudgetExceeded
from villadsen.reports import canonical_json, normalize_report, validate_report
from villadsen.type_one import compose_stats

from conftest import (
    component_adding_a_term,
    component_dropping_top_term,
    component_of_the_degree_below,
    component_raising_the_top_coefficient,
    component_zeroing_a_top_exponent,
    unlimited_int_digits,
)


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


@pytest.mark.parametrize("argv", [
    ["v2", "-k", "2", "-n", "3", "--rc"],
    ["cfp", "--terms", "2"],
    ["vi", "--config", "{config}", "--witness", "2"],
])
def test_a_report_without_fragments_is_one_encode_call(tmp_path, capsys, argv):
    # the printed report, read back as plain JSON, holds no fragment: the
    # writer gives it the bytes that one call of json's encoder gives it
    config = write_vi_config(tmp_path, [{"proj_mults": {"p1": 1, "p2": 3}, "point_evals": 1}])
    code, out = run_cli(capsys, *[arg.format(config=config) for arg in argv])
    doc = json.loads(out)
    assert code == 0 and doc["ok"] is True
    assert canonical_json(doc) + "\n" == out
    assert json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n" == out


class WriteLog(io.TextIOBase):
    """A text stream that checks each write against `printed` where it
    lands and keeps only the offset reached and the longest write: unlike
    a Mock, its `writelines` is `write` once per line."""

    def __init__(self, printed: str):
        self.printed, self.end, self.longest = printed, 0, 0

    def write(self, text: str) -> int:
        assert self.printed.startswith(text, self.end)
        self.end += len(text)
        self.longest = max(self.longest, len(text))
        return len(text)


def emitted_writes(monkeypatch, argv) -> tuple[str, int, int, int]:
    """The canonical text of the report `argv` builds, its longest piece,
    the longest write `cli._emit` prints it with, each write checked
    against the text and newline where it lands, and the peak of what
    `_emit` allocates meanwhile."""
    # `_report` lifts the digit limit, which `main` restores after `_emit`
    with unlimited_int_digits():
        report = cli._report(cli._parse(argv), 0.0)
        text = canonical_json(report)
        longest_piece = max(map(len, reports.canonical_pieces(report)))
        stream = WriteLog(text + "\n")
        with monkeypatch.context() as patch:
            patch.setattr(sys, "stdout", stream)
            tracemalloc.start()
            try:
                assert cli._emit(report) == 0
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
    assert stream.end == len(stream.printed)
    return text, longest_piece, stream.longest, peak


def write_sphere_lines(tmp_path, generators):
    """A space of `generators` spheres, with one line summand on each: its
    total Chern class has 2**generators terms."""
    space, bundle = tmp_path / "spheres.json", tmp_path / "lines.json"
    space.write_text(json.dumps({"factors": [{"kind": "s2"}] * generators}))
    bundle.write_text(json.dumps({"summands": [
        {"line": {"terms": [{"exponents": [int(i == p) for i in range(generators)],
                             "coefficient": "1"}]}, "mult": "1"}
        for p in range(generators)]}))
    return str(space), str(bundle)


@pytest.mark.parametrize("argv, large", [
    (["v2", "-k", "2", "-n", "300", "--rc"], True),
    (["chern", "--space", "{space}", "--bundle", "{bundle}"], True),   # 2**12 terms
    (["vi", "--config", "{config}", "--witness", "2"], False),
], ids=["v2", "chern", "vi"])
def test_a_report_is_written_as_its_pieces(tmp_path, monkeypatch, argv, large):
    # the report's bytes, handed to the stream piece by piece: no write
    # joins pieces, and a large report is never copied whole (a small one's
    # validation alone allocates more than its text)
    space, bundle = write_sphere_lines(tmp_path, 12)
    config = write_vi_config(tmp_path, [{"proj_mults": {"p1": 1, "p2": 3}, "point_evals": 1}])
    text, longest_piece, longest_write, peak = emitted_writes(
        monkeypatch, [arg.format(space=space, bundle=bundle, config=config) for arg in argv])
    assert longest_write <= longest_piece
    if large:
        assert peak < len(text) // 2


# the input documents each subcommand echoes
ECHOED_DOCUMENTS = {"chern": 2, "vi": 1, "v2": 0, "cfp": 0}


@pytest.mark.parametrize("argv", [
    ["v2", "-k", "2", "-n", "5", "--rc", "--trace"],
    ["v2", "-k", "2", "-n", "2", "--stage", "4", "--comparability"],
    ["v2", "-k", "inf", "-n", "2", "--stage", "4", "--comparability"],
    ["cfp", "--terms", "3", "--stage", "19"],
    ["chern", "--space", "{space}", "--bundle", "{bundle}"],
    ["vi", "--config", "{config}", "--witness", "2"],
])
def test_every_subcommand_writes_its_report_with_no_refused_encode_call(
        tmp_path, capsys, monkeypatch, argv):
    # the report writer builds no JSON encoder: json's C encoder writes each
    # echoed input document once, where it is read, and nothing else, so
    # `v2` and `cfp` print the same bytes with the encoder made to raise
    echoes = ECHOED_DOCUMENTS[argv[0]]
    space, bundle = write_sphere_pair(tmp_path)
    config = write_vi_config(tmp_path, [{"proj_mults": {"p1": 1, "p2": 3}, "point_evals": 1}])
    argv = [arg.format(space=space, bundle=bundle, config=config) for arg in argv]
    code, expected = run_cli(capsys, *argv)
    assert code == 0
    make_encoder, encodes = json.encoder.c_make_encoder, []

    def counting(*args):
        if not echoes:
            raise AssertionError("a JSON encoder was built")
        encodes.append(args)
        return make_encoder(*args)

    def refused(*args, **kwargs):
        raise AssertionError("JSONEncoder.encode was called")

    monkeypatch.setattr(json.encoder, "c_make_encoder", counting)
    if not echoes:
        monkeypatch.setattr(json.JSONEncoder, "encode", refused)
    code, out = run_cli(capsys, *argv)
    monkeypatch.undo()
    assert code == 0 and len(encodes) == echoes
    # the same bytes, but for the wall time
    wall_time = re.compile(r'"wall_time_ms":"[0-9]+"')
    assert wall_time.sub("", out) == wall_time.sub("", expected)
    assert out == json.dumps(json.loads(out), sort_keys=True, separators=(",", ":")) + "\n"


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
    assert main(["v2", "-k", "0", "-n", "3"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: -k must be >= 1 or 'inf'\n"


def test_cfp_witness_is_released_before_the_report_is_written(capsys, monkeypatch):
    # the report's write is where a call's memory peaks; the witness and the
    # factor dimensions it walked must be gone by then
    witnesses = []
    written = []

    def build_witness(*args):
        witness = cfp_build_witness(*args)
        witnesses.append(weakref.ref(witness))
        return witness

    def canonical_pieces(doc):
        written.append([ref() is None for ref in witnesses])
        return encode(doc)

    cfp_build_witness, encode = villadsen.cfp.build_witness, reports.canonical_pieces
    monkeypatch.setattr(villadsen.cfp, "build_witness", build_witness)
    monkeypatch.setattr(reports, "canonical_pieces", canonical_pieces)
    code, out = run_cli(capsys, "cfp", "--terms", "3")
    assert code == 0 and json.loads(out)["ok"] is True
    assert written == [[True]]


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


@pytest.mark.parametrize("override", [",4,5", "4,,5", "4,5,", ",4,,5,", "4, ,5"])
def test_cfp_empty_override_entry_is_usage_error(capsys, override):
    # an empty entry is not skipped: the report would echo the raw text
    # beside a witness read from the other entries
    code = main(["cfp", "--terms", "2", "--override-l", override])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err == ("error: --override-l entry must be an integer or a "
                            "decimal string, not ''\n")


def test_cfp_override_below_stage_one_is_named(capsys):
    code = main(["cfp", "--terms", "2", "--override-l", "0,4"])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err == "error: override stages start at stage 1, not [0]\n"


@pytest.mark.parametrize("stage", [str(2 ** 63), "100000000000000000000"])
def test_cfp_override_past_the_factorial_range_is_named(capsys, stage):
    # math.factorial refuses an argument past sys.maxsize with an OverflowError
    code = main(["cfp", "--terms", "2", "--override-l", f"4,{stage}"])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == "" and "Traceback" not in captured.err
    errors = [line for line in captured.err.splitlines() if line.startswith("error:")]
    assert len(errors) == 1 and "--override-l" in errors[0] and stage in errors[0]


@pytest.mark.parametrize("argv, option", [
    (["v2", "-k", "2", "-n", "{big}"], "-n"),
    (["v2", "-k", "2", "-n", "{big}", "--rc"], "-n"),
    (["v2", "-k", "2", "-n", "{big}", "--comparability"], "-n"),
    (["v2", "-k", "2", "-n", "3", "--stage", "{big}", "--comparability"], "--stage"),
    (["cfp", "--terms", "1", "--stage", "{big}"], "--stage"),
    (["cfp", "--terms", "{big}"], "--terms"),
])
@pytest.mark.parametrize("big", [str(2 ** 63), "100000000000000000000"])
def test_stage_past_the_index_range_is_named(capsys, argv, option, big):
    # islice and math.factorial stop at sys.maxsize
    code = main([arg.format(big=big) for arg in argv])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    subject = option if option == "--terms" else f"{option} stage"  # a term count is no stage
    assert captured.err == f"error: {subject} {big} exceeds {sys.maxsize}\n"


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


def usage_error_lines(capsys, argv) -> list[str]:
    """The stderr lines of `main(argv)`, which must end in SystemExit(1)
    with nothing on stdout."""
    with pytest.raises(SystemExit) as exc:
        main(argv)
    captured = capsys.readouterr()
    assert exc.value.code == 1 and captured.out == ""
    return captured.err.splitlines()


V2_USAGE = ("usage: villadsen v2 [-h] -k K -n N [--stage STAGE] [--trace] "
            "[--comparability] [--rc]")


def test_usage_errors_exit_one(capsys):
    # one usage line, of the subcommand once it is named, and one error
    # line that names the option or word at fault
    for argv, usage, named in [
        (["nonsense"], "usage: villadsen [-h] {chern,vi,v2,cfp} ...", "'nonsense'"),
        ([], "usage: villadsen [-h] {chern,vi,v2,cfp} ...", "chern, vi, v2, cfp"),
        (["v2", "-n", "3"], V2_USAGE, "-k"),
        (["v2", "-k", "2", "-n", "3", "4"], V2_USAGE, "'4'"),
        (["vi", "--config"], "usage: villadsen vi [-h] --config CONFIG [--from START] "
                             "[--stage STAGE] [--witness WITNESS]", "--config"),
        (["cfp", "--terms", "--stage", "4"], "usage: villadsen cfp [-h] [--terms TERMS] "
                                             "[--stage STAGE] [--override-l OVERRIDE_L]", "--terms"),
        (["chern", "--space", "s.json", "--bundle", "-h"],
         "usage: villadsen chern [-h] --space SPACE --bundle BUNDLE", "--bundle"),
    ]:
        lines = usage_error_lines(capsys, argv)
        assert len(lines) == 2 and lines[0] == usage, argv
        assert lines[1].startswith("error: ") and named in lines[1], argv


@pytest.mark.parametrize("argv, last", [
    (["cfp", "--terms", "2", "--stage", "3"], 8),
    (["cfp", "--terms", "2", "--override-l", "4,9", "--stage", "5"], 9),
])
def test_cfp_stage_below_the_last_witness_stage_is_named(argv, last, capsys, monkeypatch):
    # a usage error raised before any check runs, naming the option, the
    # stage given and the stage it must reach
    checked = []
    monkeypatch.setattr(cli.cfp_mod, "verify_upper", checked.append)
    monkeypatch.setattr(cli.cfp_mod, "verify_lower", checked.append)
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 1 and captured.out == "" and checked == []
    assert captured.err == (f"error: --stage {argv[-1]} is below the last witness "
                            f"stage; it must reach stage {last}\n")


@pytest.mark.parametrize("argv, word", [
    (["v2", "-k", "2", "-n", "3", "--comp"], "--comp"),
    (["cfp", "--terms=3"], "--terms=3"),
    (["v2", "-k", "2", "-n3"], "-n3"),
    (["v2", "-k", "2", "-n", "3", "--"], "--"),
])
def test_argparse_only_forms_are_usage_errors(argv, word, capsys):
    # prefix abbreviations, --opt=value, attached short values and "--"
    lines = usage_error_lines(capsys, argv)
    assert len(lines) == 2 and lines[0].startswith(f"usage: villadsen {argv[0]} ")
    assert lines[1] == f"error: unrecognized argument {word!r}"


@pytest.mark.parametrize("argv", [["-h"], ["--help", "v2"], ["v2", "--help"], ["cfp", "-h"],
                                  ["vi", "--stage", "2", "-h"], ["chern", "--help"]])
def test_help_names_every_option_and_exits_zero(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    captured = capsys.readouterr()
    assert exc.value.code == 0 and captured.err == ""
    name = argv[0] if argv[0] in cli._COMMANDS else None
    rows = list(cli._COMMANDS[name][2]) if name else list(cli._COMMANDS)
    assert captured.out.startswith(cli._usage(name) + "\n")
    for word in [*rows, "-h,"]:
        assert f"\n  {word} " in captured.out, word


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


@pytest.mark.parametrize("witness", ["1000000", "100000000000000000000"])
def test_vi_huge_witness_is_refused_by_its_exponent(witness, tmp_path):
    # the 2^(n*count) term count was formed before it met the budget: at
    # n = 10^6 the refusal took seconds and printed 600 000 digits, and at
    # n = 10^20 it never ended
    config = write_vi_config(tmp_path, [{"proj_mults": {"p1": 1, "p2": 3}, "point_evals": 1}])
    env = {**os.environ, "PYTHONPATH": str(Path(villadsen.__file__).parents[1])}
    env.pop("ENGINE_GENERATOR_BUDGET", None)
    done = subprocess.run([sys.executable, "-m", "villadsen.cli", "vi", "--config", config,
                           "--witness", witness],
                          env=env, capture_output=True, text=True, timeout=10)
    assert done.returncode == 2 and "Traceback" not in done.stderr
    doc = json.loads(done.stdout)
    validate_report(doc)
    refused = [c for c in doc["checks"] if c["outcome"] == "refused"]
    assert [c["name"] for c in refused] == ["top_chern_witness"]
    gens = str(2 * int(witness))
    assert refused[0]["certificate"] == {"required_log2": gens, "budget": "100000"}
    assert refused[0]["message"].startswith(
        f"top Chern witness expansion over {gens} generators needs at least 2^{gens} terms")


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
def test_a_closed_pipe_is_one_error_line(unbuffered):
    # the reader closes after 20 bytes of a report larger than the pipe: what
    # a buffered stdout still holds must not fail again when the interpreter
    # flushes it at exit, which prints "Exception ignored" and exits 120
    env = {**os.environ, "PYTHONPATH": str(Path(villadsen.__file__).parents[1])}
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    with subprocess.Popen([sys.executable, "-m", "villadsen.cli", "cfp", "--terms", "8"],
                          env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          bufsize=0) as proc:
        assert os.read(proc.stdout.fileno(), 20) == b'{"checks":[{"certifi'
        proc.stdout.close()
        err = proc.stderr.read().decode()
        assert proc.wait(timeout=60) == 1
    assert err == "error: [Errno 32] Broken pipe\n"


def test_chern_huge_cost_is_refused_by_its_exponent(tmp_path):
    # 60 summands of multiplicity 10^4000 on CP^(10^4000) factors: every
    # input integer is within the digit limit, but the expansion cost
    # (10^4000 + 1)^60 has 240 001 digits, which the refusal printed in
    # full, taking over a second
    g, big = 60, "1" + "0" * 4000
    space, bundle = tmp_path / "space.json", tmp_path / "bundle.json"
    space.write_text(json.dumps({"factors": [{"kind": "cp", "n": big}] * g}))
    bundle.write_text(json.dumps({"summands": [
        {"line": {"terms": [{"exponents": [int(i == p) for i in range(g)], "coefficient": "1"}]},
         "mult": big} for p in range(g)]}))
    env = {**os.environ, "PYTHONPATH": str(Path(villadsen.__file__).parents[1])}
    env.pop("ENGINE_GENERATOR_BUDGET", None)
    done = subprocess.run([sys.executable, "-m", "villadsen.cli", "chern", "--space", str(space),
                           "--bundle", str(bundle)],
                          env=env, capture_output=True, text=True, timeout=10)
    assert done.returncode == 2 and "Traceback" not in done.stderr
    doc = json.loads(done.stdout)
    validate_report(doc)
    refused = [c for c in doc["checks"] if c["outcome"] == "refused"]
    assert [c["name"] for c in refused] == ["chern_components"]
    # floor(60 * log2(10^4000 + 1)) = floor(240000 * log2(10))
    assert refused[0]["certificate"] == {"required_log2": "797262", "budget": "100000"}
    assert refused[0]["message"].startswith(
        "Chern class expansion needs at least 2^797262 terms")


def test_budget_refusal_keeps_its_count_exact_up_to_1024_bits():
    exact = GeneratorBudgetExceeded(None, 7, required_log2=1023)
    assert (exact.required, exact.required_log2) == (2 ** 1023, None)
    assert f"needs {2 ** 1023} terms" in str(exact)
    past = GeneratorBudgetExceeded(None, 7, required_log2=1024)
    assert (past.required, past.required_log2) == (None, 1024)
    assert "needs at least 2^1024 terms" in str(past)
    # an exact count is kept below 2^1024 and given by its floor log2 from there
    below = GeneratorBudgetExceeded(2 ** 1024 - 1, 7)
    assert (below.required, below.required_log2) == (2 ** 1024 - 1, None)
    for count in (2 ** 1024, 3 * 2 ** 1500 + 5):
        huge = GeneratorBudgetExceeded(count, 7)
        assert (huge.required, huge.required_log2) == (None, count.bit_length() - 1)
        assert f"needs at least 2^{count.bit_length() - 1} terms" in str(huge)


# an engine route broken on purpose, by the name it is patched in under and,
# where one name has several, a word after it
BROKEN_ROUTE = {
    "villadsen.bundles.chern_component": component_dropping_top_term,
    "villadsen.type_one.chern_component": component_dropping_top_term,
    # a top term off the full monomial, and one with the wrong coefficient
    "villadsen.type_one.chern_component zeroing": component_zeroing_a_top_exponent,
    "villadsen.type_one.chern_component raising": component_raising_the_top_coefficient,
    # the right top term with another beside it, and the degree below the top
    "villadsen.type_one.chern_component adding": component_adding_a_term,
    "villadsen.type_one.chern_component lowering": component_of_the_degree_below,
    # the closed form of the running pushforward coefficient, off by one
    "villadsen.cfp.factorial": lambda n: factorial(n) + 1,
    # a unit rank 1000 times too large shrinks every trace below its bounds
    "villadsen.type_two.tower": lambda k, tower=type_two.tower: (
        stage._replace(rank=1000 * stage.rank) for stage in tower(k)),
    # n point evaluations onto the new stage line, not n+1
    "villadsen.type_two._slots": lambda n, space, following, slots=type_two._slots: [
        slot if slot.carrier is None else slot._replace(multiplicity=n)
        for slot in slots(n, space, following)],
}


@pytest.mark.parametrize("argv, budget, check, patched, message", [
    (["v2", "-k", "2", "-n", "1", "--comparability", "--stage", "3"], "100000",
     "comparability_triple", "villadsen.bundles.chern_component",
     "factorized Euler class disagrees"),
    (["cfp", "--terms", "1"], "100000",
     "lower_bound", "villadsen.bundles.chern_component",
     "factorized Euler class disagrees"),
    (["vi", "--config", "CONFIG", "--witness", "2"], "100000",
     "top_chern_witness", "villadsen.type_one.chern_component",
     "top Chern coefficient mismatch"),
    (["cfp", "--terms", "2"], "100000",
     "lower_bound", "villadsen.cfp.factorial",
     "running pushforward coefficient disagrees"),
    (["v2", "-k", "2", "-n", "3"], "100000",
     "trace_table", "villadsen.type_two.tower",
     "unit rank bookkeeping is inconsistent"),
    (["v2", "-k", "2", "-n", "2", "--comparability"], "100000",
     "comparability_triple", "villadsen.type_two.tower",
     "closed-form q-sum trace disagrees"),
    (["v2", "-k", "inf", "-n", "2", "--comparability"], "100000",
     "comparability_triple", "villadsen.type_two.tower",
     "divergence lower bound fails"),
    (["v2", "-k", "2", "-n", "1", "--comparability", "--stage", "3"], "100000",
     "comparability_triple", "villadsen.type_two._slots",
     "pushforward from stage 2 disagrees with the carried witness rank"),
    # the Euler class z1*z2 of two sphere lines, printed by `chern`
    (["chern", "--space", "SPACE", "--bundle", "BUNDLE"], "100000",
     "euler_class", "villadsen.bundles.chern_component",
     "factorized Euler class disagrees"),
    (["vi", "--config", "CONFIG", "--witness", "2"], "100000",
     "top_chern_witness", "villadsen.type_one.chern_component zeroing",
     "top Chern coefficient mismatch: closed 9, expanded 0"),
    (["vi", "--config", "CONFIG", "--witness", "2"], "100000",
     "top_chern_witness", "villadsen.type_one.chern_component raising",
     "top Chern coefficient mismatch: closed 9, expanded 10"),
    (["vi", "--config", "CONFIG", "--witness", "2"], "100000",
     "top_chern_witness", "villadsen.type_one.chern_component adding",
     "top Chern coefficient mismatch: closed 9, expanded 9"),
    (["vi", "--config", "CONFIG", "--witness", "2"], "100000",
     "top_chern_witness", "villadsen.type_one.chern_component lowering",
     "top Chern coefficient mismatch: closed 9, expanded 0"),
])
def test_cross_check_disagreement_exits_two(argv, budget, check, patched, message,
                                            tmp_path, capsys, monkeypatch):
    config = write_vi_config(tmp_path, [{"proj_mults": {"p1": 1, "p2": 3}, "point_evals": 1}])
    space, bundle = write_sphere_pair(tmp_path)
    files = {"CONFIG": config, "SPACE": space, "BUNDLE": bundle}
    argv = [files.get(word, word) for word in argv]
    monkeypatch.setenv("ENGINE_GENERATOR_BUDGET", budget)
    monkeypatch.setattr(patched.split()[0], BROKEN_ROUTE[patched])
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert "Traceback" not in captured.err
    doc = json.loads(captured.out)
    validate_report(doc)
    failed = [c for c in doc["checks"] if c["name"] == check][0]
    assert failed["outcome"] == "fail" and failed["message"].startswith(message)


def _dimension_at_stage_two(change):
    """`type_two._dimension` with stage 2's dimension passed through `change`."""
    return lambda k, stage, dimension=type_two._dimension: (
        change(dimension(k, stage)) if stage.n == 2 else dimension(k, stage))


# a radius verdict made false at one stage: (k, the records that hold the
# verdict, the stage it fails at, the name patched, the broken route)
BROKEN_VERDICT = {
    # stage 2's dimension 2 too large: dim/(2*rank) misses k there
    "equals_parameter": ("2", "stages", 2, "villadsen.type_two._dimension",
                         _dimension_at_stage_two(lambda d: d + 2)),
    # stage 2's dimension 1000 times too large: stage 3's ratio falls below it
    "nondecreasing": ("inf", "stages", 3, "villadsen.type_two._dimension",
                      _dimension_at_stage_two(lambda d: 1000 * d)),
    # stage 2's rank 7, not 6: its witness trace 9/7 falls below 4/3
    "bound_holds": ("inf", "witnesses", 2, "villadsen.type_two.tower",
                    lambda k, tower=type_two.tower: (
                        stage._replace(rank=stage.rank + 1) if stage.n == 2 else stage
                        for stage in tower(k))),
}


@pytest.mark.parametrize("verdict", sorted(BROKEN_VERDICT))
def test_false_radius_verdict_exits_two(verdict, capsys, monkeypatch):
    k, records, stage, patched, route = BROKEN_VERDICT[verdict]
    monkeypatch.setattr(patched, route)
    code = main(["v2", "-k", k, "-n", "3", "--rc"])
    captured = capsys.readouterr()
    assert code == 2
    assert "Traceback" not in captured.err
    doc = json.loads(captured.out)
    validate_report(doc)
    [radius] = [c for c in doc["checks"] if c["name"] == "radius_of_comparison"]
    assert radius["outcome"] == "fail"
    assert [r["stage"] for r in radius["certificate"][records] if not r[verdict]] == [stage]


def test_self_referencing_certificate_is_one_error_line(capsys, monkeypatch):
    # the encoder keeps no cycle record: a value that holds itself ends in
    # RecursionError, as a too-deep one does, and that is one error line
    def cyclic_trace_table(k, n):
        certificate = {"stage": n}
        certificate["itself"] = certificate
        return certificate

    monkeypatch.setattr(cli, "trace_table", cyclic_trace_table)
    code = main(["v2", "-k", "2", "-n", "3"])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert "Traceback" not in captured.err
    errors = [line for line in captured.err.splitlines() if line.startswith("error:")]
    assert len(errors) == 1 and "holds itself" in errors[0]


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


@pytest.mark.parametrize("slot", ["space", "bundle", "config"])
def test_deeply_nested_document_is_usage_error(slot, tmp_path, capsys):
    # json.load raises RecursionError past about 995 levels: that was a traceback
    space, bundle = write_sphere_pair(tmp_path)
    config = write_vi_config(tmp_path, [])
    path = {"space": space, "bundle": bundle, "config": config}[slot]
    Path(path).write_text("[" * 100_000 + "]" * 100_000)
    argv = (["vi", "--config", config] if slot == "config"
            else ["chern", "--space", space, "--bundle", bundle])
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == "" and "Traceback" not in captured.err
    errors = [line for line in captured.err.splitlines() if line.startswith("error:")]
    assert len(errors) == 1 and path in errors[0]


def test_a_document_too_deep_to_echo_is_usage_error(tmp_path, capsys, monkeypatch):
    # json.load may read a document a few levels deeper than json's encoder
    # can echo, depending on the interpreter and on the caller's stack
    def too_deep(document):
        raise RecursionError("maximum recursion depth exceeded")

    monkeypatch.setattr(reports, "echo", too_deep)
    config = write_vi_config(tmp_path, [])
    code = main(["vi", "--config", config])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err == f"error: {config} nests too deeply to be echoed\n"


NESTED_DEPTHS = range(980, 1001)

# One interpreter per slot calls `main` from its top level, as the console
# script does, at every depth: json.load reads a document a few levels
# deeper than the report can echo, and where that window falls depends on
# how deep the caller's stack already is, so under pytest's own stack it
# would fall elsewhere.
NESTED_RUNS = """
import contextlib, io, json, sys, traceback
from villadsen.cli import main
slot, space, bundle, config, *depths = sys.argv[1:]
runs = {}
for depth in map(int, depths):
    if slot == "space":  # an unused key, echoed under `inputs`
        nest = "[" * (depth - 1) + "]" * (depth - 1)
        text = '{"factors": [{"kind": "s2"}, {"kind": "s2"}], "unused": %s}' % nest
    else:
        nest = "[" * (depth - 2) + "]" * (depth - 2)
        text = '{"seed_dim": 6, "steps": [%s]}' % nest
    with open(space if slot == "space" else config, "w") as fh:
        fh.write(text)
    argv = (["chern", "--space", space, "--bundle", bundle] if slot == "space"
            else ["vi", "--config", config])
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except BaseException:
            traceback.print_exc()
            code = None
    runs[depth] = [code, out.getvalue(), err.getvalue()]
print(json.dumps(runs))
"""


@pytest.fixture(scope="module")
def nested_runs(tmp_path_factory):
    env = {**os.environ, "PYTHONPATH": str(Path(villadsen.__file__).parents[1])}
    runs = {}

    def run(slot):
        if slot not in runs:
            tmp = tmp_path_factory.mktemp(f"nested-{slot}")
            space, bundle = write_sphere_pair(tmp)
            argv = [sys.executable, "-c", NESTED_RUNS, slot, space, bundle,
                    str(tmp / "vi.json"), *map(str, NESTED_DEPTHS)]
            done = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=120)
            assert done.returncode == 0, done.stderr
            runs[slot] = {int(depth): run for depth, run in json.loads(done.stdout).items()}
        return runs[slot]
    return run


@pytest.mark.parametrize("depth", NESTED_DEPTHS)
@pytest.mark.parametrize("slot", ["space", "config"])
def test_nesting_near_the_recursion_limit_is_a_report_or_one_error_line(
        slot, depth, nested_runs):
    # a depth json.load reads but the report cannot echo was a traceback
    code, out, err = nested_runs(slot)[depth]
    assert "Traceback" not in err
    if code == 0:
        # the echoed document is as deep as the decoder's stack allows, and
        # pytest's frames sit below this one
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(limit + 1000)
        try:
            doc = json.loads(out)
        finally:
            sys.setrecursionlimit(limit)
        validate_report(doc)
    else:
        assert code == 1 and out == ""
        assert len([line for line in err.splitlines() if line.startswith("error:")]) == 1


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
    assert_one_error_line(capsys, *run_with_slot_set(tmp_path, document, slot_path, True))


def run_with_slot_set(tmp_path, document, slot_path, value) -> tuple[int, str]:
    """Exit code of the command that reads `document`, run on the documents
    of BOOLEAN_SLOT_DOCUMENTS with the slot at `slot_path` (keys and list
    indices, joined by dots) in `document` set to `value`; and that
    document's path."""
    docs = json.loads(json.dumps(BOOLEAN_SLOT_DOCUMENTS))
    *parents, last = [int(k) if k.isdigit() else k for k in slot_path.split(".")]
    slot = docs[document]
    for key in parents:
        slot = slot[key]
    slot[last] = value
    paths = {}
    for name, doc in docs.items():
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(json.dumps(doc))
    if document == "config":
        code = main(["vi", "--config", str(paths["config"])])
    else:
        code = main(["chern", "--space", str(paths["space"]), "--bundle", str(paths["bundle"])])
    return code, str(paths[document])


@pytest.mark.parametrize("document, slot_path, level", [
    ("space", "factor", "space"),
    ("space", "factors.0.n", "atom"),        # a cp's dimension on a disk
    ("space", "factors.1.d", "atom"),        # a disk's power on a sphere
    ("space", "factors.2.lable", "atom"),
    ("bundle", "sumands", "bundle"),
    ("bundle", "summands.0.mul", "summand"),
    ("bundle", "summands.0.line.term", "class"),
    ("bundle", "summands.0.line.terms.0.exponent", "term"),
    ("config", "step", "config"),
    ("config", "steps.0.point_eval", "step"),
])
def test_unknown_key_in_a_document_is_usage_error(document, slot_path, level, tmp_path, capsys):
    # a misspelt key was dropped silently: `{"trivial": "1", "sumands": [...]}`
    # certified a rank-1 bundle with a zero Euler class
    error = assert_one_error_line(capsys, *run_with_slot_set(tmp_path, document, slot_path, "1"))
    assert f"unknown {level} keys: [{slot_path.split('.')[-1]!r}]" in error


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
    # one running composition gives the stage stats and the trajectory
    assert len(calls) == 1
