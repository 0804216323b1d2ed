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
float behaviour.  The input documents a report echoes under `inputs` are
the values `json.load` read, so they keep the numbers as they were
written.  Reports are deterministic given identical inputs and engine
version once the volatile wall-time field is dropped, which is what
`normalize_report` is for.

A value the engine has already written as canonical JSON text goes into a
report as an `Encoded` fragment: a rational (`fraction_json`), each record
list that grows with a stage or term count, written row by row as the
records are computed (`encoded_rows`), and a Chern component
(`line_series_texts`), a lazy fragment whose pieces are made as they are
written.  Every other value, the echoed input documents and the Euler
class included, is plain JSON.  `canonical_pieces` is the one report
writer, which puts each fragment's pieces where it sits, so the report's
bytes are those of the same report held as plain JSON, and no record or
Chern term is built as a dict or encoded again.

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
from itertools import chain
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
    return {"command": command, "inputs": inputs, "checks": checks,
            "ok": all(c["outcome"] == "pass" for c in checks),
            "engine_version": ENGINE_VERSION, "wall_time_ms": Elapsed(started)}


class Elapsed(float):
    """A report's `wall_time_ms`: the milliseconds since this perf_counter
    value, a decimal string stamped where the writer reaches it."""

    def __iter__(self):  # its text, stamped now: a clock deferred past a lazy fragment
        out: list[str] = []
        _write(self, out, [])
        return iter(out)


class Encoded:
    """A report value given as its canonical JSON text (sorted keys, no
    whitespace), in the pieces whose concatenation it is, which
    `canonical_pieces` puts where the value sits, piece by piece."""

    __slots__ = ("pieces",)

    def __init__(self, *pieces: str):
        self.pieces = pieces

    @classmethod
    def lazy(cls, pieces) -> "Encoded":
        """The fragment whose pieces each iteration of `pieces` makes anew."""
        fragment = cls()
        fragment.pieces = pieces
        return fragment

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


def canonical_pieces(report):
    """The report as one line of JSON with sorted keys and no whitespace,
    in the pieces whose concatenation it is.

    One walk (`_write`) writes every value where it sits, each `Encoded`
    fragment as its own pieces, builds no JSON encoder and splices nothing
    afterwards.  It ends before this returns, so an error in it comes
    before any piece is used: TypeError for a value that is not JSON (a
    float, a subclass of a JSON type, a non-string key or any other type),
    RecursionError for one nested deeper than the interpreter's stack
    allows or that holds itself.  They are a list, or, with a lazy fragment,
    an iterator that makes its pieces, and an `Elapsed` after it, as it
    reaches them."""
    out, lazy = [], []
    _write(report, out, lazy)
    return chain.from_iterable(lazy + [out]) if lazy else out


def canonical_json(value) -> str:
    """Any value as one line of JSON with sorted keys and no whitespace, each
    `Encoded` fragment's text where it sits: a certificate as a report
    writes it, and a report's text, the join of its `canonical_pieces`."""
    return "".join(canonical_pieces(value))


def _write(value, out: list[str], lazy: list) -> None:
    """Append the canonical text of `value` to `out`, as pieces, but move
    `out`'s pieces and then a lazy fragment's to `lazy`.  A value is read
    by its exact type, as `json.load` and the engine build them, so a
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
            _write(value[key], out, lazy)
            head = ","
        out.append("}")
    elif kind is list or kind is tuple:
        if not value:
            out.append("[]")
            return
        head = "["
        for item in value:
            out.append(head)
            _write(item, out, lazy)
            head = ","
        out.append("]")
    elif kind is Encoded and type(value.pieces) is tuple:
        out += value.pieces
    elif value is None:
        out.append("null")
    elif kind is bool:
        out.append(JSON_BOOL[value])
    elif kind is int:
        out.append(int.__repr__(value))
    elif kind is Encoded or kind is Elapsed and lazy:  # made as the report is written
        lazy += (out[:], value if kind is Elapsed else value.pieces)
        del out[:]
    elif kind is Elapsed:  # inline: a forked call pays page faults for each new function
        out.append(_string(str(max(0, int((time.perf_counter() - value) * 1000)))))
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

# the draft-07 types the schema names, as Python types; a clock is a string
# of digits the writer stamps
_TYPES = {"object": dict, "array": list, "string": (str, Elapsed), "boolean": bool}


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
