"""Report assembly, canonical JSON encoding, and schema validation.

Numbers in a report follow one rule.  Stage indices and counts are JSON
integers: `stage`, `max_stage`, `verify_stage`, `from_stage`, `to_stage`,
`i`, `term` and `index`; the inputs `n`, `terms`, `stage`, `from` and
`witness` (`null` for an option not given); the CFP first stage's `value`,
`ratio_induction_base` and `divisibility_from`; the `vi` witness size `n`
and `sphere_power`; and the exponents of a class term.  Every other number
is a decimal string, and every rational a {"num", "den"} pair of decimal
strings in lowest terms with a positive denominator, written by
`fraction_json`, so reports are exact and independent of platform float
behaviour.  Echoed input documents keep the numbers as they were written.
Reports are deterministic given identical inputs and engine version once
the volatile wall-time field is dropped, which is what `normalize_report`
is for.

A value the engine has already written as canonical JSON text, such as a
class (`GradedClass.json_text`) or Chern component (`line_series_texts`),
goes into a report as an `Encoded` fragment.  `canonical_json` writes the
text where the value sits, with nothing spliced afterwards, so the report's
bytes are those of the same report with the value held as plain JSON, and
no per-term object is built or encoded again.

`validate_report` checks a report against the packaged
`schemas/report.schema.json`, which states the envelope and each check's
`name` and `outcome`.  It is standard-library code that reads the schema's
draft-07 keywords itself.  It descends only where the schema has
`properties` or `items`, so a certificate or an echoed input document is
never walked, and it compiles no pattern: `_PATTERNS` holds the schema's.
"""

from __future__ import annotations

import json
import re
import time
from importlib import resources
from math import gcd

from .version import ENGINE_VERSION


def fraction_json(num: int, den: int) -> dict:
    """The rational num/den as a report writes it: a {"num", "den"} pair of
    decimal strings in lowest terms with a positive denominator, reduced by
    one gcd.  ValueError for den < 1."""
    if den < 1:
        raise ValueError(f"a rational needs a denominator >= 1, not {den}")
    g = gcd(num, den)
    return {"num": str(num // g), "den": str(den // g)}


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


class Encoded:
    """A report value given as its canonical JSON text (sorted keys, no
    whitespace), which `canonical_json` writes where the value sits, with
    nothing spliced in afterwards."""

    __slots__ = ("text",)

    def __init__(self, text: str):
        self.text = text


# canonical JSON text of a value, by one encoder built once: `json.dumps`
# with these options would build a new one on every call.  A report is a
# tree of fresh engine dicts and `json.load` output, so the encoder keeps no
# record of the containers it is inside: a value that held itself would end,
# as a too-deep one does, in RecursionError
_encode = json.JSONEncoder(sort_keys=True, separators=(",", ":"),
                           check_circular=False).encode


def canonical_json(doc: dict) -> str:
    """The report as one line of JSON with sorted keys and no whitespace.

    A value that holds no `Encoded` fragment is written by one encode call.
    The encoder refuses one that does with TypeError; such a list, or dict
    with string keys, is then written member by member, keys in sorted
    order, and each fragment's text where it sits: nothing is spliced and
    no output text is searched.  Any other value that is not JSON raises
    TypeError, as does a non-string key beside a fragment.
    """
    pieces: list[str] = []
    _write(doc, pieces)
    return "".join(pieces)


def _write(value, pieces: list[str]) -> None:
    """Append the canonical text of `value` to `pieces`."""
    if isinstance(value, Encoded):
        pieces.append(value.text)
        return
    try:
        pieces.append(_encode(value))
        return
    except TypeError:
        if not isinstance(value, (list, dict)):
            raise
    # the list or dict holds a fragment, or a member that is not JSON
    if isinstance(value, list):
        brackets, members = "[]", [("", item) for item in value]
    elif all(isinstance(key, str) for key in value):
        brackets, members = "{}", [(_encode(key) + ":", value[key]) for key in sorted(value)]
    else:
        raise TypeError("a dict that holds a fragment must have str keys")
    pieces.append(brackets[0])
    for i, (prefix, item) in enumerate(members):
        pieces.append(("," if i else "") + prefix)
        _write(item, pieces)
    pieces.append(brackets[1])


def normalize_report(doc: dict) -> dict:
    """Strip the volatile wall-time field; the rest must be reproducible."""
    out = dict(doc)
    out.pop("wall_time_ms", None)
    return out


# the packaged report schema, read once per process
_SCHEMA = json.loads(
    resources.files("villadsen.schemas").joinpath("report.schema.json").read_text())


def _patterns(schema: dict):
    """The `pattern`s of `schema` and of the subschemas `_check_value` reaches."""
    if "pattern" in schema:
        yield schema["pattern"]
    for subschema in schema.get("properties", {}).values():
        yield from _patterns(subschema)
    if "items" in schema:
        yield from _patterns(schema["items"])


# the schema's patterns, compiled once
_PATTERNS = {pattern: re.compile(pattern) for pattern in _patterns(_SCHEMA)}

# the draft-07 types the schema names, as Python types
_TYPES = {"object": dict, "array": list, "string": str, "boolean": bool}


def load_schema() -> dict:
    """The packaged report schema, read once per process (shared; do not
    modify it)."""
    return _SCHEMA


def validate_report(doc: dict) -> None:
    """Raise ValueError, naming the JSON path and the offending value, unless
    the report matches the packaged schema."""
    _check_value(_SCHEMA, doc, "$")


def _check_value(schema: dict, value, path: str) -> None:
    """Check `value` against `schema` with the draft-07 keywords the report
    schema uses: `type`, `enum`, `pattern` (searched, as draft-07 does),
    `required`, `properties`, `additionalProperties: false` and `items`."""
    def fail(message: str):
        raise ValueError(f"at {path}: {message}")

    kind = schema.get("type")
    if kind is not None and not isinstance(value, _TYPES[kind]):
        fail(f"{value!r} is not of type {kind!r}")
    if "enum" in schema and value not in schema["enum"]:
        fail(f"{value!r} is not one of {schema['enum']!r}")
    if isinstance(value, str) and "pattern" in schema \
            and not _PATTERNS[schema["pattern"]].search(value):
        fail(f"{value!r} does not match {schema['pattern']!r}")
    if isinstance(value, dict):
        properties = schema.get("properties", {})
        for key in schema.get("required", ()):
            if key not in value:
                fail(f"{key!r} is a required property")
        if schema.get("additionalProperties") is False:
            for key in value:
                if key not in properties:
                    fail(f"additional property {key!r} is not allowed")
        for key, subschema in properties.items():
            if key in value:
                _check_value(subschema, value[key], f"{path}.{key}")
    if isinstance(value, list) and "items" in schema:
        for i, item in enumerate(value):
            _check_value(schema["items"], item, f"{path}[{i}]")
