"""Report assembly, canonical JSON encoding, and schema validation.

Every number in a report is a decimal string and every rational a num/den
pair of decimal strings, so reports are exact and independent of platform
float behaviour.  Reports are deterministic given identical inputs and
engine version once the volatile wall-time field is dropped, which is what
`normalize_report` is for.
"""

from __future__ import annotations

import json
import time
from fractions import Fraction
from importlib import resources

import jsonschema

from .version import ENGINE_VERSION


def fraction_json(x: Fraction) -> dict:
    return {"num": str(x.numerator), "den": str(x.denominator)}


def check(name: str, ok: bool, certificate: dict | None = None,
          message: str = "") -> dict:
    doc: dict = {"name": name, "outcome": "pass" if ok else "fail"}
    if certificate is not None:
        doc["certificate"] = certificate
    if message:
        doc["message"] = message
    return doc


def refused(name: str, message: str, certificate: dict | None = None) -> dict:
    doc: dict = {"name": name, "outcome": "refused", "message": message}
    if certificate is not None:
        doc["certificate"] = certificate
    return doc


def assemble(command: str, inputs: dict, checks: list[dict],
             started: float) -> dict:
    elapsed_ms = max(0, int((time.perf_counter() - started) * 1000))
    return {
        "command": command,
        "inputs": inputs,
        "checks": checks,
        "ok": all(c["outcome"] == "pass" for c in checks),
        "engine_version": ENGINE_VERSION,
        "wall_time_ms": str(elapsed_ms),
    }


def canonical_json(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def normalize_report(doc: dict) -> dict:
    """Strip the volatile wall-time field; the rest must be reproducible."""
    out = dict(doc)
    out.pop("wall_time_ms", None)
    return out


# the one validator every report goes through, built at import: the draft-07
# metaschema check costs about 1 ms, paid once per process, not once per call
_SCHEMA = json.loads(
    resources.files("villadsen.schemas").joinpath("report.schema.json").read_text())
_VALIDATOR = jsonschema.validators.validator_for(_SCHEMA)(_SCHEMA)
_VALIDATOR.check_schema(_SCHEMA)


def load_schema() -> dict:
    """The packaged report schema, read and checked against its metaschema
    once per process (shared; do not modify it)."""
    return _VALIDATOR.schema


def validate_report(doc: dict) -> None:
    """Raise jsonschema.ValidationError unless the report matches the schema."""
    error = jsonschema.exceptions.best_match(_VALIDATOR.iter_errors(doc))
    if error is not None:
        raise error
