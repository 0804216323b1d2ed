import json
import os
import subprocess
import sys
from importlib import resources
from pathlib import Path

import jsonschema
import pytest

import villadsen
from villadsen.reports import load_schema, validate_report


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
