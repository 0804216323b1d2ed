"""Fuzz the CLI with malformed input documents and argv.

Whatever `chern --space/--bundle` or `vi --config` document it is given,
`main` must return 0, 1 or 2, let no exception escape and print no
traceback.  Documents are random JSON values, near-valid documents with
random values in their slots, or text that is not JSON at all.  The argv
of `v2` and `cfp` mixes small valid sizes with malformed integers, under
the same properties; an exit 1 also prints nothing to stdout and exactly
one `error:` line.
"""

import contextlib
import io
import json
import tempfile
from pathlib import Path

from hypothesis import given, settings, strategies as st

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


def run(argv_for, texts):
    with tempfile.TemporaryDirectory() as tmp:
        paths = []
        for i, text in enumerate(texts):
            path = Path(tmp) / f"doc{i}.json"
            path.write_text(text, encoding="utf-8")
            paths.append(str(path))
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
        except SystemExit as exc:  # argparse refuses the argv
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
           # increasing stages, as an override needs, or anything at all
           st.lists(st.integers(1, 40), max_size=5, unique=True).map(sorted),
           st.lists(size(40), max_size=5)).map(lambda entries: ",".join(map(str, entries)))))
def test_cfp_survives_malformed_argv(terms, stage, override):
    run_argv(["cfp", *terms, *stage, *override])
