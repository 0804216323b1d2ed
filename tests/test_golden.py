"""Golden reports: refactors must keep the normalised CLI output byte-identical.

Each case runs `villadsen.cli.main` on a fixed invocation and compares its
exit code and the SHA-256 of `canonical_json(normalize_report(report))`
with those recorded before the change.  A mismatch means the report changed; if that
is intended, the new digest must be recorded together with the reason.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import villadsen
from villadsen.cli import main
from villadsen.reports import canonical_json, normalize_report

CHERN_SPACE = {"factors": [{"kind": "disk", "d": 1}, {"kind": "s2"}, {"kind": "cp", "n": 3},
                           {"kind": "s2"}, {"kind": "cp", "n": 2}]}


def _line(position: int) -> dict:
    exps = [0, 0, 0, 0]
    exps[position] = 1
    return {"terms": [{"exponents": exps, "coefficient": "1"}]}


CHERN_BUNDLE = {"trivial": "0", "summands": [
    {"line": _line(0), "mult": "1"},
    {"line": _line(1), "mult": "2"},
    {"line": _line(2), "mult": "1"},
    {"line": _line(1), "mult": "1"},
    {"line": _line(3), "mult": "2"},
    {"line": _line(2), "mult": "0"},
]}

# generators 0, 2 and 4 carry no summand, so they sit before, between and
# after the summands' positions, and so do the three disks
GAPS_SPACE = {"factors": [{"kind": "disk", "d": 2}, {"kind": "s2"}, {"kind": "s2"},
                          {"kind": "disk", "d": 1}, {"kind": "cp", "n": 3},
                          {"kind": "cp", "n": 2}, {"kind": "s2"}, {"kind": "disk", "d": 3}]}
GAPS_BUNDLE = {"summands": [
    {"line": {"terms": [{"exponents": [0, 0, 0, 1, 0], "coefficient": "1"}]}, "mult": "2"},
    {"line": {"terms": [{"exponents": [0, 1, 0, 0, 0], "coefficient": "1"}]}, "mult": "1"},
]}
TRIVIAL_BUNDLE = {"trivial": "2", "summands": [{"line": {"terms": []}, "mult": "1"}]}

VI_CONFIG = {"seed_dim": 6, "steps": [
    {"proj_mults": {"p1": 2, "p2": 1}, "point_evals": 1},
    {"proj_mults": {"q1": 1, "q2": 1, "q3": 1}, "point_evals": 0},
]}

NO_PROJECTIONS = {"seed_dim": 6, "steps": [{"proj_mults": {}, "point_evals": 3}]}

GOLDEN = {
    "v2 -k 1 -n 3 --rc --trace":
        "bb866cad3198f5311c2ae9ba7f1d5a08b9234829a6fb62cbcdcf658a4acff4a4",
    "v2 -k 1 -n 12 --rc --trace":
        "cc46bca7adbaee4cd0366c1ea01fbfa82c1284ec75b3ad6dbe717fdacf60ae28",
    "v2 -k 2 -n 3 --rc --trace":
        "aa7aacd32ca72e4f5f96420098ac3207de9ebe8c082845b9f85ab5a7e156e7f2",
    "v2 -k 2 -n 12 --rc --trace":
        "32c6bf72002c4dc4b090ff3ae533fb6d9459070e2564595d715dccd8b07f3af8",
    "v2 -k inf -n 3 --rc --trace":
        "06d404b2e1df49725d8a0b130c1622714286a8d8b12551f72c4adf00851fc5e1",
    "v2 -k inf -n 12 --rc --trace":
        "7835f9a90e1ac0833bf42c66f5899a8e5c4b173a8850d46492728fc44e56710d",
    # these three changed only in the Euler certificate's "route", from
    # "factorized" to "factorized+full": the degree-targeted Chern component
    # cross-checks the Euler class past the term budget that skipped it before
    "v2 -k 2 -n 2 --stage 5 --comparability":
        "8f77096c082abda3c18ee0984b789d19338366656620fa4366273c3472f1ea9a",
    "cfp --terms 3":
        "65133c6de0414ee034b5acd3794dca77a3d306eda123602998e1a85f24e83dd3",
    "cfp --terms 4 --stage 40":
        "c53b5c01a376adac11da7ff390624acbac4aa62257b60e2b01bf73319126001c",
    "chern --space SPACE --bundle BUNDLE":
        "038d9e7f106e3bd348cace20d6c52f8ecbe513afd16199baed082a027ac7620a",
    # recorded before the Chern components were written straight from the
    # summands' series: generators and disks without a summand around the
    # summands, and a bundle with no line summand at all
    "chern --space GAPS_SPACE --bundle GAPS_BUNDLE":
        "428aecf5a12b9949a9a608c579b2af90568f595798d0e4aabe6d11477dc3b6f6",
    "chern --space SPACE --bundle TRIVIAL_BUNDLE":
        "fd7f4516dec6620d0896cc5a5a80c552cd79f27ea21203dcecaf0ec9b80633fb",
    "vi --config CONFIG --witness 2":
        "a973b434cf2874a31ae41eaca2b7c8a16993b650ff0cd2927483e3ed746ae171",
    # deeper stages, recorded before the stage spaces were built as a tower,
    # where an incremental build could drift from the from-scratch one
    "v2 -k inf -n 80 --rc --trace":
        "526bdb881abd892141ef5d7eb394a1213556013f1aa70156a7055913564d9759",
    "v2 -k 3 -n 80 --rc --trace":
        "b6019ca64fa40a7dc0a164c48ad8a08a24162bc6ee33723ff4e8a12a94e7be0f",
    "v2 -k 2 -n 20 --stage 120 --comparability":
        "1a50e261c58b7953da2ca63187f0e3544ff711bcf0c75534f72c25edf442799f",
    "v2 -k inf -n 6 --stage 40 --comparability":
        "af6304a41fb8fb2c0de51f57190fd0a47034103e650d6e2e091aefcfda10ca4f",
    "cfp --terms 8":
        "25e551868fa407e4a2d09183c964596834ae3cddbb2c226e68c3b28ee8cbf2a0",
    # a refused, a failed and a no-projections check, and the default
    # trace table: each took its own branch of the CLI when recorded
    "vi --config CONFIG --witness 9":
        "0d4e229abd1eb7e850c2f07a579e31a6d25f098c56008f37b964cb38c5faf0c7",
    "cfp --terms 2 --override-l 4,5":
        "2b5ad0efe0e288e0f51d87aca0f997649058f098ad15c7c4f5e1b1f0598541ad",
    "vi --config NO_PROJECTIONS --witness 2":
        "d8acaa570075a75876e48b297aca7af8f5fc161d6eefa402f081a38c0fb08528",
    "v2 -k 2 -n 5":
        "9a4edfd0b12be02a3bd3a02b37edaff90d8099755c2832fec98ac81c875ac1cf",
    # deep walks, recorded while every stage still rebuilt its witness sum
    # from scratch, where a sum carried up the tower could drift from it
    "v2 -k 2 -n 100 --stage 400 --comparability":
        "f45a048f3b0617a980c0f108cff486be945e96bdc7a7667988421a920a7d4719",
    "v2 -k inf -n 300 --rc":
        "af9b00c2f628fb1c6771729dc285950a50f81a8294ed64c6f12ded3602a36f90",
    "v2 -k 1 -n 30 --stage 150 --comparability --trace":
        "bce40e6f88c0a96efa87bdff9c9d7445c38ae0e43a4bd7bc9f07afb51e82681f",
}

# the exit code of every grid command not listed here is 0
EXIT_CODES = {
    "vi --config CONFIG --witness 9": 2,
    "cfp --terms 2 --override-l 4,5": 2,
    "vi --config NO_PROJECTIONS --witness 2": 2,
}


def golden_digest(command: str, workdir, capsys) -> tuple[int, str]:
    """Run one grid command; return its exit code and report digest.

    SPACE, BUNDLE, GAPS_SPACE, GAPS_BUNDLE, TRIVIAL_BUNDLE, CONFIG and
    NO_PROJECTIONS in the command name input
    documents, which are written into `workdir` first.  Report input
    documents hold the file contents, not the paths, so the digest does not
    depend on `workdir`.
    """
    files = {"SPACE": CHERN_SPACE, "BUNDLE": CHERN_BUNDLE, "GAPS_SPACE": GAPS_SPACE,
             "GAPS_BUNDLE": GAPS_BUNDLE, "TRIVIAL_BUNDLE": TRIVIAL_BUNDLE,
             "CONFIG": VI_CONFIG, "NO_PROJECTIONS": NO_PROJECTIONS}
    argv = []
    for word in command.split():
        if word in files:
            path = workdir / f"{word.lower()}.json"
            path.write_text(json.dumps(files[word]))
            word = str(path)
        argv.append(word)
    capsys.readouterr()
    code = main(argv)
    report = json.loads(capsys.readouterr().out)
    text = canonical_json(normalize_report(report))
    return code, hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("command", sorted(GOLDEN))
def test_golden_report(command, tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("ENGINE_GENERATOR_BUDGET", "100000")
    code, digest = golden_digest(command, tmp_path, capsys)
    assert code == EXIT_CODES.get(command, 0)
    assert digest == GOLDEN[command]


def alone(argv: list[str], env: dict) -> tuple[int, str, str]:
    """Exit code, normalised report and stderr of one CLI call in a fresh
    interpreter."""
    done = subprocess.run([sys.executable, "-m", "villadsen.cli", *argv], env=env,
                          capture_output=True, text=True, timeout=120)
    return done.returncode, normalized(done.stdout), done.stderr


def normalized(out: str) -> str:
    return canonical_json(normalize_report(json.loads(out))) if out else ""


def test_one_process_gives_each_call_what_it_gives_alone(tmp_path, capsys, monkeypatch):
    # main reuses one option table and one validator for the whole process, so no
    # call may depend on the calls before it
    monkeypatch.setenv("ENGINE_GENERATOR_BUDGET", "100000")
    for command in sorted(GOLDEN, reverse=True):
        code, digest = golden_digest(command, tmp_path, capsys)
        assert (code, digest) == (EXIT_CODES.get(command, 0), GOLDEN[command]), command
    env = {**os.environ, "PYTHONPATH": str(Path(villadsen.__file__).parents[1])}
    for argv, expected in ((["v2", "-k", "2", "--bogus"], 1),
                           (["v2", "-k", "2", "-n", "3", "--trace"], 0),
                           (["v2", "-k", "2", "-n", "3", "--stage", "5"], 1)):
        try:
            code = main(argv)
        except SystemExit as exc:  # how the option table ends a usage error
            code = exc.code
        captured = capsys.readouterr()
        assert code == expected
        assert (code, normalized(captured.out), captured.err) == alone(argv, env)
