import json
import os
import subprocess
import sys
from fractions import Fraction
from importlib import resources
from pathlib import Path

import jsonschema
import pytest

import villadsen
from villadsen.reports import Encoded, canonical_json, load_schema, validate_report


def test_packaged_schema_is_a_valid_schema():
    text = resources.files("villadsen.schemas").joinpath("report.schema.json").read_text()
    schema = json.loads(text)
    jsonschema.validators.validator_for(schema).check_schema(schema)
    assert load_schema() == schema


def test_schema_uses_draft_07():
    # every CLI process checks the schema against its metaschema once; the
    # draft-07 check costs about a third of the 2020-12 one, and the schema's
    # keywords mean the same in both
    validator = jsonschema.validators.validator_for(load_schema())
    assert validator is jsonschema.Draft7Validator


def test_schema_is_loaded_once():
    assert load_schema() is load_schema()


def test_import_checks_the_schema_against_its_metaschema_once():
    # in a fresh interpreter: the CLI's import checks the schema every report
    # is validated against, and its calls check it no more
    script = """
import jsonschema
checked = []
check = jsonschema.Draft7Validator.check_schema.__func__
jsonschema.Draft7Validator.check_schema = classmethod(
    lambda cls, schema: checked.append(schema) or check(cls, schema))
from villadsen import cli, reports
imported = list(checked)
cli.main(["v2", "-k", "2", "-n", "3", "--trace"])
cli.main(["cfp", "--terms", "2"])
print(imported == [reports.load_schema()], len(checked))
"""
    env = {**os.environ, "PYTHONPATH": str(Path(villadsen.__file__).parents[1])}
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "True 1"


def test_every_report_is_still_validated():
    good = {"command": "v2", "inputs": {}, "checks": [], "ok": True,
            "engine_version": "x", "wall_time_ms": "3"}
    validate_report(good)
    for bad in ({**good, "wall_time_ms": "3.5"}, {**good, "extra": 1},
                {**good, "checks": [{"name": "c", "outcome": "maybe"}]}):
        with pytest.raises(jsonschema.ValidationError):
            validate_report(bad)


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
