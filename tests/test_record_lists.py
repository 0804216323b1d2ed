"""Record lists are written once, as canonical text, where they are computed.

Every certificate list that grows with a stage or term count is one
`reports.Encoded` fragment.  Each must be canonical JSON (its own sorted,
whitespace-free re-dump) and hold the records the dict references of
`tests/conftest.py` build.
"""

from __future__ import annotations

import json

import pytest

from villadsen.cfp import build_witness, verify_lower
from villadsen.growth import INFINITE
from villadsen.reports import Encoded
from villadsen.type_two import comparability_triple, radius_of_comparison

from conftest import (
    comparability_records,
    comparability_traces_from_fractions,
    lower_bound_records,
    radius_from_fractions,
)

FAMILIES = [1, 2, 3, INFINITE]


def records(fragment) -> list:
    """The records of a record-list fragment, which must be canonical text."""
    assert isinstance(fragment, Encoded)
    value = json.loads(fragment.text)
    assert fragment.text == json.dumps(value, sort_keys=True, separators=(",", ":"))
    assert isinstance(value, list)
    return value


@pytest.mark.parametrize("k", FAMILIES)
def test_radius_lists_are_canonical_text_of_the_reference_records(k):
    for n in range(41):
        cert = radius_of_comparison(k, n)
        expected = radius_from_fractions(k, n)
        assert records(cert["stages"]) == expected["stages"], n
        assert records(cert["witnesses"]) == expected["witnesses"], n


CHAINS = [(1, 1), (1, 6), (2, 2), (2, 9), (3, 5), (4, 4), (5, 12)]


@pytest.mark.parametrize("k", FAMILIES)
@pytest.mark.parametrize("n, verify_stage", CHAINS)
def test_comparability_lists_are_canonical_text_of_the_reference_records(k, n, verify_stage):
    cert = comparability_triple(k, n, verify_stage)
    expected = comparability_records(k, n, verify_stage)
    assert records(cert["line_subbundle"]) == expected["line_subbundle"]
    assert records(cert["chain"]) == expected["chain"]
    if k is INFINITE:
        assert records(cert["traces"]["entries"]) \
            == comparability_traces_from_fractions(k, n)["entries"]
    else:
        assert "entries" not in cert["traces"]


# (term count or override stages, stages past the last witness stage); the
# overrides [3, 4] and [4, 5, 9] fail the growth inequality, so some rows
# and intermediate records read false
WITNESSES = [(terms, stretch) for terms in range(1, 7) for stretch in (0, 3)] + [
    ([2, 3], 0), ([2, 3], 2), ([3, 4], 0), ([4, 5, 9], 1), ([4, 8, 16], 0), ([3, 6], 4)]


@pytest.mark.parametrize("given, stretch", WITNESSES)
def test_lower_bound_lists_are_canonical_text_of_the_reference_records(given, stretch):
    if isinstance(given, list):
        witness = build_witness(len(given), given)
    else:
        witness = build_witness(given)
    stages = [term.n for term in witness.terms]
    cert = verify_lower(witness, stages[-1] + stretch)
    expected = lower_bound_records(stages, stages[-1] + stretch)
    for key in ("rows", "stretch", "pushed_table"):
        assert records(cert[key]) == expected[key], key
    assert cert["passed"] == all(
        record.get("ok", True) and record.get("growth_ok", True)
        and record.get("combined_ok", True)
        and all(entry["ok"] for entry in record.get("intermediate", ()))
        for key in ("rows", "stretch", "pushed_table") for record in expected[key])


def test_some_reference_records_fail():
    # the override grid reaches the false branches of the row templates
    for stages, verify_stage in (([3, 4], 4), ([4, 5, 9], 10)):
        rows = lower_bound_records(stages, verify_stage)["rows"]
        assert not all(row["growth_ok"] and row["combined_ok"] for row in rows[1:])
        assert not all(entry["ok"] for row in rows[1:] for entry in row["intermediate"])
