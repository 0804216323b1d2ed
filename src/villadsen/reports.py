"""Report assembly, canonical JSON encoding, and schema validation.

Numbers in a report follow one rule.  Stage indices and counts are JSON
integers: `stage`, `max_stage`, `verify_stage`, `from_stage`, `to_stage`,
`i`, `term` and `index`; the inputs `n`, `terms`, `stage`, `from` and
`witness` (`null` for an option not given); the CFP first stage's `value`,
`ratio_induction_base` and `divisibility_from`; the `vi` witness size `n`
and `sphere_power`; and the exponents of a class term.  Every other number
is a decimal string, and every rational a {"num", "den"} pair of decimal
strings in lowest terms with a positive denominator, whose text
`fraction_json` writes, so reports are exact and independent of platform
float behaviour.  Echoed input documents keep the numbers as they were
written.  Reports are deterministic given identical inputs and engine
version once the volatile wall-time field is dropped, which is what
`normalize_report` is for.

A value the engine has already written as canonical JSON text goes into a
report as an `Encoded` fragment: a class (`GradedClass.json_text`), a Chern
component (`line_series_texts`), a rational (`fraction_json`), each record
list that grows with a stage or term count, which the engine writes row by
row as it computes the records, one row template per record kind with its
keys in canonical order, and each echoed input document (`echo`, one call
of json's C encoder where the document is read).  A list's fragment is its
rows and the brackets and commas between them (`encoded_rows`), so no row
is copied into a list text before the report is joined.
`canonical_pieces` is the one report writer: a walk over the report that
appends each value's text where it sits, each fragment's pieces wherever
it is, builds no JSON encoder and splices nothing afterwards.  So the
report's bytes are those of the same report held as plain JSON, and no
record, term or input document is built as a dict or encoded again.  The
CLI hands the pieces to stdout's `writelines` and never joins them into
one text; `canonical_json` is their join.

`validate_report` checks a report against the packaged
`schemas/report.schema.json`, which states the envelope and each check's
`name` and `outcome`.  The schema is read once, at import, by the loader
that imported this module, so it is found in a zip archive too.  It is
standard-library code that reads the schema's draft-07 keywords itself.
It descends only where the schema has `properties` or `items`, so a
certificate or an echoed input document is never walked, and it compiles
no pattern: `_PATTERNS` holds the schema's.
"""

from __future__ import annotations

import json
import os
import re
import time
# a string's JSON text, by the C escaper `json.dumps` uses for ASCII output
from json.encoder import encode_basestring_ascii as _string
from math import gcd

from .version import ENGINE_VERSION


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
    whitespace), in the pieces whose concatenation it is, which
    `canonical_pieces` puts where the value sits, piece by piece."""

    __slots__ = ("pieces",)

    def __init__(self, *pieces: str):
        self.pieces = pieces

    @property
    def text(self) -> str:
        return "".join(self.pieces)


def fraction_json(num: int, den: int) -> str:
    """The rational num/den as a report writes it: the canonical text of a
    {"num", "den"} pair of decimal strings in lowest terms with a positive
    denominator, reduced by one gcd: the one writer of a rational.  A row
    template embeds the text, and a rational that sits alone in a
    certificate is the `Encoded` fragment of it.  ValueError for den < 1."""
    if den < 1:
        raise ValueError(f"a rational needs a denominator >= 1, not {den}")
    g = gcd(num, den)
    return f'{{"den":"{den // g}","num":"{num // g}"}}'


# JSON's two booleans, indexed by a Python bool, for the row templates
JSON_BOOL = ("false", "true")


def encoded_rows(rows: list[str]) -> Encoded:
    """The JSON list of the records whose canonical texts are `rows`: the
    rows and the brackets and commas between them, so that no row is copied
    into a joined list text before the report is written."""
    if not rows:
        return Encoded("[]")
    pieces = [","] * (2 * len(rows) + 1)
    pieces[0], pieces[1::2], pieces[-1] = "[", rows, "]"
    return Encoded(*pieces)


def echo(document) -> Encoded:
    """An input document as a report echoes it under `inputs`: the fragment
    of its canonical text, written by one call of json's C encoder where the
    document is read, so the report writer never walks a document of any
    size.  A `json.load` result holds no cycle, so the encoder keeps no
    record of one; RecursionError for a document too deep to encode."""
    return Encoded(json.dumps(document, sort_keys=True, separators=(",", ":"),
                              check_circular=False))


def canonical_pieces(report) -> list[str]:
    """The report as one line of JSON with sorted keys and no whitespace,
    in the pieces whose concatenation it is.

    One walk (`_write`) writes every value where it sits: each `Encoded`
    fragment as its own pieces, wherever it is, and every other value
    member by member, so no JSON encoder is built and nothing is spliced
    afterwards.  Every piece is written before this returns, so an error
    comes before any of them is used.  A value that is not JSON raises
    TypeError: a float, a subclass of a JSON type, a non-string key or any
    other type.  A value that holds itself ends, as a too-deep one does, in
    RecursionError."""
    out: list[str] = []
    _write(report, out)
    return out


def canonical_json(value) -> str:
    """Any value as one line of JSON with sorted keys and no whitespace,
    each `Encoded` fragment's text where it sits: a certificate as a report
    writes it.  A report's text is this, and the join of its
    `canonical_pieces`."""
    return "".join(canonical_pieces(value))


def _write(value, out: list[str]) -> None:
    """Append the canonical text of `value` to `out`, as pieces.  A value is
    read by its exact type, as `json.load` and the engine build them, so a
    subclass, a float (`cli._load_json` reads none, and the engine writes
    every other number as an int or a decimal string) and a dict key that
    is not a str are TypeErrors."""
    kind = type(value)
    if kind is str:
        out.append(_string(value))
    elif kind is dict:
        if not value:
            out.append("{}")
            return
        head = "{"
        for key in sorted(value):
            if type(key) is not str:
                raise TypeError(f"a report key must be a str, not {key!r}")
            out.append(head + _string(key) + ":")
            _write(value[key], out)
            head = ","
        out.append("}")
    elif kind is list or kind is tuple:
        if not value:
            out.append("[]")
            return
        head = "["
        for item in value:
            out.append(head)
            _write(item, out)
            head = ","
        out.append("]")
    elif kind is Encoded:
        out += value.pieces
    elif value is None:
        out.append("null")
    elif kind is bool:
        out.append(JSON_BOOL[value])
    elif kind is int:
        out.append(int.__repr__(value))
    else:
        raise TypeError(f"a {kind.__name__} is not a report value")


def normalize_report(doc: dict) -> dict:
    """Strip the volatile wall-time field; the rest must be reproducible."""
    out = dict(doc)
    out.pop("wall_time_ms", None)
    return out


# the packaged report schema, read once per process by the package's own
# loader, which reads it from a directory or a zip archive alike
_SCHEMA = json.loads(__spec__.loader.get_data(
    os.path.join(os.path.dirname(__file__), "schemas", "report.schema.json")))


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
