import json
import os
import re
import subprocess
import sys
import zipfile
from collections import namedtuple
from fractions import Fraction
from importlib import resources
from pathlib import Path

import jsonschema
import pytest
from hypothesis import example, given, strategies as st

import villadsen
from villadsen.reports import (
    Encoded,
    canonical_json,
    canonical_pieces,
    echo,
    fraction_json,
    load_schema,
    validate_report,
)


def test_packaged_schema_is_a_valid_schema():
    text = resources.files("villadsen.schemas").joinpath("report.schema.json").read_text()
    schema = json.loads(text)
    jsonschema.validators.validator_for(schema).check_schema(schema)
    assert load_schema() == schema


def test_schema_is_loaded_once():
    assert load_schema() is load_schema()


# the keywords `validate_report` reads, and the annotations it may skip
WALKED_KEYWORDS = {"type", "required", "properties", "additionalProperties", "items",
                   "enum", "pattern", "$schema", "$id", "title"}


def subschemas(schema: dict):
    yield schema
    for subschema in schema.get("properties", {}).values():
        yield from subschemas(subschema)
    if "items" in schema:
        yield from subschemas(schema["items"])


def test_schema_uses_only_the_keywords_the_walker_reads():
    # a rule the walker does not know would be skipped without a word
    schema = load_schema()
    assert schema["$schema"] == "http://json-schema.org/draft-07/schema#"
    for subschema in subschemas(schema):
        assert set(subschema) <= WALKED_KEYWORDS, subschema
        assert subschema.get("type", "object") in {"object", "array", "string", "boolean"}
        assert subschema.get("additionalProperties", False) is False
        assert isinstance(subschema.get("items", {}), dict)


VALID_REPORT = {"command": "v2", "inputs": {"n": 3}, "checks": [], "ok": True,
                "engine_version": "x", "wall_time_ms": "3"}
VALID_CHECK = {"name": "c", "outcome": "pass", "certificate": {"v": "-1"}, "message": "m"}


def test_every_report_is_still_validated():
    validate_report(VALID_REPORT)
    for bad, where in [({"wall_time_ms": "3.5"}, "$.wall_time_ms: '3.5'"),
                       ({"extra": 1}, "$: additional property 'extra'"),
                       ({"checks": [{"name": "c", "outcome": "maybe"}]},
                        "$.checks[0].outcome: 'maybe'"),
                       ({"checks": [{"name": "c", "outcome": "pass", "certificate": []}]},
                        "$.checks[0].certificate: []")]:
        with pytest.raises(ValueError) as raised:
            validate_report({**VALID_REPORT, **bad})
        assert str(raised.value).startswith(f"at {where}")


def test_validating_a_report_compiles_no_pattern(monkeypatch):
    # the schema's patterns are compiled when it is read, at import: a cold
    # process compiled `wall_time_ms`'s pattern in its one validation
    compiled = []
    compile_ = re._compile

    def counting(*args, **kwargs):
        compiled.append(args)
        return compile_(*args, **kwargs)

    monkeypatch.setattr(re, "_compile", counting)
    validate_report({**VALID_REPORT, "checks": [VALID_CHECK]})
    assert compiled == []


@st.composite
def edited(draw, valid: dict, values) -> dict:
    """`valid` with up to two of its keys, or an extra key, dropped or set
    to one of `values`."""
    doc = dict(valid)
    for _ in range(draw(st.integers(0, 2))):
        key = draw(st.sampled_from([*valid, "extra"]))
        if draw(st.booleans()):
            doc.pop(key, None)
        else:
            doc[key] = draw(values)
    return doc


# wrong types where a list or string belongs, outcomes in and out of the
# enum, and wall times in and out of the pattern
VALUES = st.sampled_from([True, False, 1, 0, None, (), {}, [], {"k": [1]}, (VALID_CHECK,),
                          "", "x", "3", "03", "3.5", "3\n", "pass", "refused", "maybe"])
CHECKS = st.lists(edited(VALID_CHECK, VALUES), max_size=3)
REPORTS = CHECKS.flatmap(
    lambda checks: edited({**VALID_REPORT, "checks": checks}, st.one_of(VALUES, CHECKS)))
ORACLE = jsonschema.Draft7Validator(load_schema())


@given(REPORTS)
@example({**VALID_REPORT, "wall_time_ms": "3\n"})  # `$` matches before a final newline
@example({**VALID_REPORT, "wall_time_ms": ""})
@example({**VALID_REPORT, "checks": [{"name": "c", "outcome": "maybe"}]})
@example({**VALID_REPORT, "checks": (VALID_CHECK,)})
@example({**VALID_REPORT, "checks": {}})
@example({**VALID_REPORT, "command": True})
@example({**VALID_REPORT, "checks": [{**VALID_CHECK, "name": 1}]})
@example({**VALID_REPORT, "checks": [{**VALID_CHECK, "message": ()}]})
def test_the_walker_agrees_with_the_draft_07_oracle(doc):
    try:
        validate_report(doc)
        accepted = True
    except ValueError:
        accepted = False
    assert accepted == ORACLE.is_valid(doc)


@given(st.integers(), st.integers(min_value=1))
@example(0, 1)
@example(0, 12)
@example(-6, 4)
@example(-7, 1)
@example(12, 18)
@example(2 * 3 ** 40, 3 ** 41)
def test_fraction_json_agrees_with_fraction(num, den):
    # the text of the pair, canonical, as row templates embed it
    x = Fraction(num, den)
    pair = {"num": str(x.numerator), "den": str(x.denominator)}
    assert fraction_json(num, den) == canonical_dumps(pair)


@pytest.mark.parametrize("den", [0, -1, -12])
def test_fraction_json_refuses_a_denominator_below_one(den):
    with pytest.raises(ValueError, match="denominator"):
        fraction_json(1, den)


def test_inputs_deeper_than_the_recursion_limit_are_not_walked():
    deep = []
    for _ in range(sys.getrecursionlimit() + 100):
        deep = [deep]
    validate_report({**VALID_REPORT, "inputs": {"config": deep}})


# modules the runtime must not load, by top-level name or as a submodule:
# jsonschema (with what it loads) is the oracle of the tests, and argparse
# (with gettext and locale) the reference of the option table; records are
# named tuples or slotted classes, not dataclasses (with inspect, ast, dis
# and tokenize) or typing's NamedTuple; the packaged schema is read by the
# package's own loader, not importlib.resources (with pathlib, zipfile and
# tempfile); and ratios are integer pairs, not fractions
UNLOADED_MODULES = ("jsonschema", "referencing", "rpds", "attrs", "attr", "argparse",
                    "gettext", "locale", "fractions", "dataclasses", "inspect", "ast",
                    "dis", "tokenize", "typing", "importlib.resources", "pathlib",
                    "zipfile", "tempfile")


def test_the_cli_imports_no_jsonschema(tmp_path):
    # the modules that importing the CLI and one call of each subcommand
    # load, against what the interpreter had loaded before; without `site`
    # (-S), which on some machines loads typing or importlib.resources itself
    config, space, bundle = (tmp_path / name for name in ("vi.json", "space.json", "bundle.json"))
    config.write_text(json.dumps({"seed_dim": 6, "steps": [
        {"proj_mults": {"p1": 1, "p2": 3}, "point_evals": 1}]}))
    space.write_text(json.dumps({"factors": [{"kind": "s2"}, {"kind": "cp", "n": 3}]}))
    bundle.write_text(json.dumps({"trivial": "1", "summands": [
        {"line": {"terms": [{"exponents": [0, 1], "coefficient": "1"}]}, "mult": "2"}]}))
    script = f"""
import sys
bare = set(sys.modules)
import json, villadsen.cli
for argv in (["chern", "--space", {str(space)!r}, "--bundle", {str(bundle)!r}],
             ["v2", "-k", "2", "-n", "3"], ["vi", "--config", {str(config)!r}, "--witness", "2"],
             ["cfp", "--terms", "2"]):
    assert villadsen.cli.main(argv) == 0, argv
sys.stdout.write("\\n" + json.dumps(sorted(set(sys.modules) - bare)))
"""
    env = {**os.environ, "PYTHONPATH": str(Path(villadsen.__file__).parents[1])}
    done = subprocess.run([sys.executable, "-S", "-c", script], env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    loaded = json.loads(done.stdout.rpartition("\n")[2])
    assert "villadsen.cli" in loaded
    assert [name for name in loaded if any(name == module or name.startswith(module + ".")
                                           for module in UNLOADED_MODULES)] == []


def test_the_schema_is_read_from_a_zipped_package(tmp_path):
    # the package's loader reads the schema wherever the package is, a zip
    # archive included
    package = Path(villadsen.__file__).parent
    archive = tmp_path / "villadsen.zip"
    with zipfile.ZipFile(archive, "w") as zipped:
        for path in sorted(package.rglob("*")):
            if path.is_file() and "__pycache__" not in path.parts:
                zipped.write(path, path.relative_to(package.parent).as_posix())
    script = """
import sys
import villadsen.cli
assert villadsen.cli.__file__.startswith(sys.argv[1]), villadsen.cli.__file__
sys.exit(villadsen.cli.main(["v2", "-k", "2", "-n", "3", "--trace"]))
"""
    done = subprocess.run([sys.executable, "-c", script, str(archive)], cwd=tmp_path,
                          env={**os.environ, "PYTHONPATH": str(archive)},
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    doc = json.loads(done.stdout)
    jsonschema.validate(doc, load_schema())
    validate_report(doc)
    assert doc["ok"] is True and doc["command"] == "v2"


def canonical_dumps(doc) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def test_fragments_are_spliced_where_their_values_sit(monkeypatch):
    checks = [{"b": Encoded('{"terms":[]}'), "a": [Encoded("[1,2]"), "x"],
               "c": {"z": Encoded('"s"'), "y": None}}]
    doc = {"command": "chern", "inputs": {"a": [1]}, "checks": checks, "ok": True}
    plain = {**doc, "checks": [{"b": {"terms": []}, "a": [[1, 2], "x"],
                                "c": {"z": "s", "y": None}}]}
    # the writer builds no JSON encoder, with or without fragments
    def refused(*args, **kwargs):
        raise AssertionError("a JSON encoder was used")

    monkeypatch.setattr(json.encoder, "c_make_encoder", refused)
    monkeypatch.setattr(json.JSONEncoder, "encode", refused)
    assert canonical_json(doc) == canonical_json(plain)
    # the pieces hold each fragment's own piece, not a copy
    pieces = canonical_pieces(doc)
    assert "".join(pieces) == canonical_json(plain)
    for fragment in (checks[0]["b"], checks[0]["a"][0], checks[0]["c"]["z"]):
        assert any(piece is fragment.pieces[0] for piece in pieces)
    monkeypatch.undo()
    assert canonical_json(plain) == canonical_dumps(plain)


def test_a_fragment_is_written_wherever_it_sits():
    # an echoed input document is a fragment under `inputs`, and a fragment
    # may sit at the root, in a list or in a tuple
    inputs = {"space": {"factors": [{"kind": "s2"}] * 3}, "bundle": {"trivial": "1"}}
    plain = {"command": "chern", "inputs": inputs, "checks": [[]], "ok": True}
    doc = {**plain, "inputs": {key: echo(value) for key, value in inputs.items()},
           "checks": (Encoded("[]"),)}
    assert "".join(canonical_pieces(doc)) == canonical_dumps(plain)
    for value in (Encoded("{}"), [Encoded("1"), ("x", None)], (Encoded("1"), True)):
        assert canonical_json(value) == canonical_dumps(json.loads(canonical_json(value)))
    assert canonical_json((1, [Encoded("2")], ())) == "[1,[2],[]]"
    # the echo is the document's canonical text, keys sorted and non-ASCII escaped
    document = {"b": ["\u00e9", -3, None, {}], "a": {"y": True, "x": "q\"uote"}}
    assert echo(document).text == canonical_dumps(document)


# text with quotes, backslashes, non-ASCII characters and JSON-looking pieces
TEXT = st.text(max_size=6) | st.sampled_from(
    ['"', "\\", "\u00e9", "\u2028", "\U0001d11e", 'x"}],{\\', '{"terms":[', '"s"', "[1,2]"])
PLAIN = st.recursive(
    st.none() | st.booleans() | st.integers() | TEXT,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(TEXT, inner, max_size=4),
    max_leaves=20)


@st.composite
def with_fragments(draw):
    """A plain JSON value, the same value with random sub-values (the root
    included) given as `Encoded` fragments of their canonical text, and the
    fragment texts."""
    plain = draw(PLAIN)
    texts = []

    def encode(value):
        if draw(st.integers(0, 3)) == 0:
            texts.append(canonical_dumps(value))
            return Encoded(texts[-1])
        if isinstance(value, list):
            return [encode(item) for item in value]
        if isinstance(value, dict):
            return {key: encode(item) for key, item in value.items()}
        return value

    return plain, encode(plain), texts


@given(with_fragments())
@example(({"a": 1, "b": ["x"]}, {"a": Encoded("1"), "b": [Encoded('"x"')]}, ["1", '"x"']))
def test_fragments_are_written_where_they_sit(case):
    plain, doc, texts = case
    assert canonical_json(doc) == canonical_dumps(plain)
    # the fragment texts echoed beside the fragments, as strings and as keys
    echo = {text: [text] for text in texts}
    assert canonical_json([doc, echo]) == canonical_dumps([plain, echo])
    assert canonical_json({**echo, "\x00": doc}) == canonical_dumps({**echo, "\x00": plain})
    # a report's checks, beside echoed input documents
    report, plain_report = {"inputs": echo, "checks": doc}, {"inputs": echo, "checks": plain}
    assert "".join(canonical_pieces(report)) == canonical_dumps(plain_report)


@pytest.mark.parametrize("value", [object(), {1, 2}, b"bytes", Fraction(1, 2), 0.5, 2.0,
                                   float("nan"), namedtuple("Pair", "a b")(1, 2)])
def test_a_value_that_is_not_json_still_raises(value):
    # a float among them: `cli._load_json` refuses float literals, and the
    # engine writes every other number as an int or a decimal string; and a
    # subclass of a JSON type, since the writer reads a value's exact type
    with pytest.raises(TypeError):
        canonical_json({"ok": True, "value": value})
    with pytest.raises(TypeError):
        canonical_json({"fragment": Encoded("1"), "value": [value]})
    with pytest.raises(TypeError):
        canonical_json(("x", value))
    # json.dumps writes some non-string keys as text; a report holds none
    with pytest.raises(TypeError):
        canonical_json({"ok": True, "value": {1: "one"}})
    with pytest.raises(TypeError):
        canonical_json({"ok": True, "value": {1: Encoded("1"), 2: "two"}})
    for report in ({"ok": True, "checks": [value]}, {"checks": [Encoded("1"), [value]]},
                   {"ok": True, "inputs": {"config": value}, "checks": []},
                   {"ok": True, "checks": [{"certificate": {None: "1"}}]}):
        with pytest.raises(TypeError):
            canonical_pieces(report)
