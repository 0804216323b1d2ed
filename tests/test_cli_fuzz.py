"""Fuzz the CLI with malformed input documents and argv.

Whatever `chern --space/--bundle` or `vi --config` document it is given,
`main` must return 0, 1 or 2, let no exception escape and print no
traceback.  Documents are random JSON values, near-valid documents with
random values in their slots, or text that is not JSON at all.  The argv
of every subcommand mixes small valid sizes with malformed integers,
missing values and option words, under the same properties; an exit 1
also prints nothing to stdout and exactly one `error:` line.

The argparse parser the CLI used before its option table
(`conftest.reference_parser`) is the oracle of `cli._parse`: on argv in
the forms the table reads, an argv it accepts gives the same subcommand,
runner and option values, and an argv it refuses `_parse` refuses too, so
`main` exits 1.  The one difference is a dashed word that names no option
of the subcommand and is no negative number: argparse reads it as an
unknown option, the table as a value where one is due.
"""

import contextlib
import io
import json
import re
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from conftest import reference_parser
from villadsen import cli
from villadsen.cli import main

KEYS = ["factors", "kind", "d", "n", "label", "trivial", "summands", "line", "mult",
        "terms", "exponents", "coefficient", "seed_dim", "steps", "proj_mults",
        "point_evals"]

SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(-2, 4),
    st.sampled_from(["0", "1", "2", "-1", "2.5", "x", "", "s2", "cp", "disk"]),
    st.floats(allow_nan=True, allow_infinity=True))

VALUES = st.recursive(
    SCALARS,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(KEYS), inner, max_size=4),
    max_leaves=10)

# each slot holds a small, mostly valid value, a float (json.dumps writes
# inf as Infinity) or anything at all
SMALL = st.one_of(st.integers(0, 3), st.sampled_from(["0", "1", "2", "3"]),
                  st.sampled_from([2.9, 2.0, float("inf"), float("nan")]), VALUES)

FACTOR = st.fixed_dictionaries(
    {"kind": st.one_of(st.sampled_from(["s2", "cp", "disk"]), SCALARS)},
    optional={"n": SMALL, "d": SMALL, "label": SCALARS})

SPACE = st.fixed_dictionaries({"factors": st.one_of(st.lists(FACTOR, max_size=3), VALUES)})

TERM = st.fixed_dictionaries({"exponents": st.one_of(st.lists(SMALL, max_size=3), VALUES),
                              "coefficient": SMALL})

SUMMAND = st.fixed_dictionaries(
    {"line": st.one_of(st.fixed_dictionaries({"terms": st.lists(TERM, max_size=2)}), VALUES)},
    optional={"mult": SMALL})

BUNDLE = st.fixed_dictionaries({}, optional={"trivial": SMALL,
                                             "summands": st.lists(SUMMAND, max_size=3)})

STEP = st.fixed_dictionaries(
    {"proj_mults": st.one_of(st.dictionaries(st.sampled_from(["p1", "p2", "p3"]), SMALL,
                                             max_size=3), VALUES)},
    optional={"point_evals": SMALL})

CONFIG = st.fixed_dictionaries({"seed_dim": SMALL, "steps": st.lists(STEP, max_size=3)},
                               optional={"wat": SCALARS})


def document(near_valid):
    """JSON text: a near-valid document, any JSON value, or not JSON."""
    return st.one_of(near_valid.map(json.dumps), near_valid.map(json.dumps),
                     VALUES.map(json.dumps), st.text(max_size=8))


@contextlib.contextmanager
def documents(*texts):
    """The paths of temporary files that hold `texts`."""
    with tempfile.TemporaryDirectory() as tmp:
        paths = []
        for i, text in enumerate(texts):
            path = Path(tmp) / f"doc{i}.json"
            path.write_text(text, encoding="utf-8")
            paths.append(str(path))
        yield paths


def run(argv_for, texts):
    with documents(*texts) as paths:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv_for(*paths))
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    if code == 1:
        assert out.getvalue() == ""
        assert err.getvalue().startswith("error: ")


def run_argv(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # the option table refuses the argv
            code = exc.code
    assert code in (0, 1, 2), argv
    assert "Traceback" not in err.getvalue()
    if code == 1:
        assert out.getvalue() == ""
        assert sum(line.startswith("error: ") for line in err.getvalue().splitlines()) == 1
    return code


@settings(max_examples=100, deadline=None)
@given(document(SPACE), document(BUNDLE))
def test_chern_survives_malformed_documents(space, bundle):
    run(lambda s, b: ["chern", "--space", s, "--bundle", b], [space, bundle])


@settings(max_examples=100, deadline=None)
@given(document(CONFIG), st.sampled_from([None, "1", "2", "3"]))
def test_vi_survives_malformed_documents(config, witness):
    extra = [] if witness is None else ["--witness", witness]
    run(lambda c: ["vi", "--config", c, *extra], [config])


MALFORMED = st.sampled_from(["true", "1_0", "\u0662", " 5", "-1", "oo", "x"])


def mostly(valid):
    """An option's text: mostly from `valid`, else a malformed integer."""
    return st.one_of(valid, valid, valid, MALFORMED)


def size(bound):
    return mostly(st.integers(0, bound).map(str))


def option(name, values):
    return st.one_of(st.just([]), values.map(lambda value: [name, value]))


@settings(max_examples=100, deadline=None)
@given(mostly(st.sampled_from(["1", "2", "3", "inf"])), size(40),
       option("--stage", size(80)),
       st.sets(st.sampled_from(["--trace", "--comparability", "--rc"])))
def test_v2_survives_malformed_argv(k, n, stage, flags):
    run_argv(["v2", "-k", k, "-n", n, *stage, *sorted(flags)])


@settings(max_examples=100, deadline=None)
@given(option("--terms", size(5)), option("--stage", size(80)),
       option("--override-l", st.one_of(
           # increasing stages, as an override needs, or anything at all; a
           # stage from 2**63 on is past math.factorial's argument range
           st.lists(st.one_of(st.integers(1, 40), st.integers(2 ** 63, 2 ** 70)),
                    max_size=5, unique=True).map(sorted),
           st.lists(size(40), max_size=5)).map(lambda entries: ",".join(map(str, entries)))))
def test_cfp_survives_malformed_argv(terms, stage, override):
    run_argv(["cfp", *terms, *stage, *override])


SPACE_TEXT = json.dumps({"factors": [{"kind": "s2"}, {"kind": "s2"}]})
BUNDLE_TEXT = json.dumps({"summands": [
    {"line": {"terms": [{"exponents": [1, 0], "coefficient": "1"}]}, "mult": "2"}]})
CONFIG_TEXT = json.dumps({"seed_dim": 6, "steps": [
    {"proj_mults": {"p1": 1, "p2": 1}, "point_evals": 1}]})


@settings(max_examples=100, deadline=None)
@given(option("--from", size(3)), option("--stage", size(3)), option("--witness", size(4)),
       option("--config", st.sampled_from(["CONFIG", "--stage", "-1", "missing.json"])))
def test_vi_survives_malformed_argv(start, stage, witness, config):
    with documents(CONFIG_TEXT) as (path,):
        run_argv(["vi", "--config", path, *start, *stage, *witness,
                  *(path if word == "CONFIG" else word for word in config)])


@settings(max_examples=100, deadline=None)
@given(st.lists(st.sampled_from(["--space", "--bundle", "SPACE", "BUNDLE", "-1", "x",
                                 "--terms"]), max_size=6))
def test_chern_survives_malformed_argv(words):
    with documents(SPACE_TEXT, BUNDLE_TEXT) as (space, bundle):
        run_argv(["chern", *({"SPACE": space, "BUNDLE": bundle}.get(word, word)
                             for word in words)])


# the option words, required options and flags of each subcommand, written
# out apart from the table under test
OPTIONS = {"chern": ["--space", "--bundle"],
           "vi": ["--config", "--from", "--stage", "--witness"],
           "v2": ["-k", "-n", "--stage"],
           "cfp": ["--terms", "--stage", "--override-l"]}
REQUIRED = {"chern": ["--space", "--bundle"], "vi": ["--config"], "v2": ["-k", "-n"], "cfp": []}
FLAGS = {"chern": [], "vi": [], "v2": ["--trace", "--comparability", "--rc"], "cfp": []}
WORDS = sorted({word for words in [*OPTIONS.values(), *FLAGS.values()] for word in words})

# every option takes a decimal integer, negative ones included
GOOD = st.integers(-3, 9).map(str)
# a word where an option or value may stand: a good value, a malformed
# integer, a family parameter, an empty path, or an option word of any
# subcommand
STRAY = st.one_of(GOOD, MALFORMED, st.sampled_from(["inf", ""]), st.sampled_from(WORDS))


# a word after an option: as a stray word, or a help word
VALUE = st.one_of(STRAY, st.sampled_from(["-h", "--help"]))


REFERENCE = reference_parser()


def looks_foreign(word, subcommand):
    """Whether argparse reads `word` as an option `subcommand` lacks: a
    dashed word that is no option of it, no help word and no negative
    number."""
    return (word.startswith("-") and not re.fullmatch("-[0-9]+", word)
            and word not in OPTIONS[subcommand] + FLAGS[subcommand] + ["-h", "--help"])


def argv_of(subcommand):
    """argv of `subcommand` in the forms the option table reads: mostly its
    required options and then options with good values and flags, in any
    order and repeated, with options given a bad value or none and stray
    words among them."""
    good = st.one_of(st.tuples(st.sampled_from(OPTIONS[subcommand]), GOOD).map(list),
                     st.sampled_from(FLAGS[subcommand] or OPTIONS[subcommand]).map(
                         lambda word: [word] if word in FLAGS[subcommand] else [word, "1"]))
    bad = st.one_of(st.tuples(st.sampled_from(OPTIONS[subcommand]), VALUE).map(list),
                    st.sampled_from(OPTIONS[subcommand]).map(lambda word: [word]),
                    STRAY.map(lambda word: [word]))
    required = st.permutations(REQUIRED[subcommand]).flatmap(
        lambda words: st.tuples(*(GOOD.map(lambda value, w=w: [w, value]) for w in words)))
    return st.tuples(st.one_of(st.just(()), required, required, required),
                     st.lists(st.one_of(*[good] * 7, bad), max_size=6)).map(
        lambda parts: [subcommand, *(word for items in parts for item in items for word in item)])


@settings(max_examples=400, deadline=None)
@given(st.sampled_from(sorted(OPTIONS)).flatmap(argv_of))
def test_option_table_reads_argv_as_argparse_does(argv):
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            expected = REFERENCE.parse_args(argv)
    except SystemExit as exc:
        assert exc.code == 1, (argv, out.getvalue(), err.getvalue())
        if any(looks_foreign(word, argv[0]) for word in argv[1:]):
            # argparse reads such a word as an unknown option, the table as
            # a value where one is due; main keeps its exit contract
            run_argv(argv)
        else:
            assert run_argv(argv) == 1, argv
            with contextlib.redirect_stderr(io.StringIO()), pytest.raises(SystemExit):
                cli._parse(argv)
    else:
        assert vars(cli._parse(argv)) == vars(expected), argv
