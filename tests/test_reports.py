import json
import os
import subprocess
import sys
from fractions import Fraction
from importlib import resources
from pathlib import Path

import jsonschema
import pytest
from hypothesis import example, given, strategies as st

import villadsen
from villadsen.reports import Encoded, canonical_json, load_schema, validate_report


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


def test_inputs_deeper_than_the_recursion_limit_are_not_walked():
    deep = []
    for _ in range(sys.getrecursionlimit() + 100):
        deep = [deep]
    validate_report({**VALID_REPORT, "inputs": {"config": deep}})


def test_the_cli_imports_no_jsonschema():
    # jsonschema is the oracle of the tests, not a part of the runtime
    script = """
import sys
import villadsen.cli
print(sorted({name.partition(".")[0] for name in sys.modules}
             & {"jsonschema", "referencing", "rpds", "attrs", "attr"}))
"""
    env = {**os.environ, "PYTHONPATH": str(Path(villadsen.__file__).parents[1])}
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n"


def canonical_dumps(doc) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def test_fragments_are_spliced_where_their_values_sit():
    doc = {"b": Encoded('{"terms":[]}'), "a": [Encoded("[1,2]"), "x"],
           "c": {"z": Encoded('"s"'), "y": None}}
    plain = {"b": {"terms": []}, "a": [[1, 2], "x"], "c": {"z": "s", "y": None}}
    assert canonical_json(doc) == canonical_dumps(plain)


def test_an_echoed_placeholder_cannot_fool_the_splice(monkeypatch):
    # with the nonce fixed, learn the placeholder of the first fragment,
    # then echo it as an input string beside, and as a key next to, fragments
    monkeypatch.setattr(os, "urandom", lambda n: b"\x07" * n)
    seen = []
    dumps = json.dumps

    def recording_dumps(*args, **kwargs):
        text = dumps(*args, **kwargs)
        seen.append(text)
        return text

    monkeypatch.setattr(json, "dumps", recording_dumps)
    assert canonical_json({"a": Encoded("1")}) == '{"a":1}'
    placeholder = json.loads(seen[0])["a"]
    assert isinstance(placeholder, str)
    doc = {"a": Encoded("1"), "echo": placeholder, placeholder: [placeholder, Encoded("2")],
           "quoted": 'x"' + placeholder}
    plain = {"a": 1, "echo": placeholder, placeholder: [placeholder, 2],
             "quoted": 'x"' + placeholder}
    seen.clear()
    assert canonical_json(doc) == dumps(plain, sort_keys=True, separators=(",", ":"))
    assert len(seen) == 2  # the collision was seen, and the retry did not collide


def test_a_report_without_fragments_draws_no_nonce(monkeypatch):
    def no_urandom(n):
        raise AssertionError("os.urandom called")

    monkeypatch.setattr(os, "urandom", no_urandom)
    doc = {"command": "v2", "inputs": {"k": "2", "n": [1, {"x": None}]}, "ok": True,
           "checks": [{"name": "c", "outcome": "pass", "certificate": {"v": "-12"}}],
           "text": 'quote " and é'}
    assert canonical_json(doc) == canonical_dumps(doc)


@pytest.mark.parametrize("value", [object(), {1, 2}, b"bytes", Fraction(1, 2)])
def test_a_value_that_is_not_json_still_raises(value):
    with pytest.raises(TypeError):
        canonical_json({"ok": True, "value": value})
    with pytest.raises(TypeError):
        canonical_json({"fragment": Encoded("1"), "value": [value]})
