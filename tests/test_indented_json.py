"""The report emitter against json.dumps(sort_keys=True, indent=2), the
encoder it replaces."""

import json

import pytest

from isoreg.formats import indented_json
from isoreg.paramtheory import certify_range


def reference(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2)


# claim -> indices of the certify benchmark workload, over its full ranges.
WORKLOAD_CERTIFICATES = {
    "bicirc-odd": range(2, 201),
    "leung-ma-b": range(3, 200, 2),
    "leung-ma-c": range(3, 200, 2),
    "tri-family-1": range(-50, 51),
    "tri-family-2": range(-50, 51),
}


@pytest.mark.parametrize("claim", sorted(WORKLOAD_CERTIFICATES))
def test_workload_certificates_match_json(claim):
    payload = certify_range(claim, list(WORKLOAD_CERTIFICATES[claim])).to_json()
    assert indented_json(payload) == reference(payload)


EDGE_CASES = {
    "empty-dict": {},
    "empty-list": [],
    "nested-empties": {"a": {}, "b": [], "c": [{}, [], [[]], {"d": {}}], "e": {"f": []}},
    "bools-next-to-ints": {"t": True, "f": False, "one": 1, "zero": 0,
                           "mixed": [True, 1, False, 0], "only_bools": [True, False]},
    "negative-and-huge-ints": [-1, -(10**4000) + 7, 10**3999 + 3, 0, {"big": -(2**13000)}],
    "none": {"n": None, "list": [None, None], "top": [None]},
    "tuples": {"pair": (1, 2), "nested": ((), (3, ("x", None)), [(-4,)])},
    "strings": {
        "quotes": 'say "hi"',
        "backslash": "a\\b\\\\c",
        "controls": "\x00\x01\b\f\n\r\t\x1f\x7f",
        "non-ascii": "café ∂ \U0001f600",
        "": "empty key",
        "é\"key\n": [" ", "plain"],
    },
    "float-leaf": {"x": 1.5, "list": [0.1, -2.0, 1e300, 7], "nan": float("nan")},
    "scalars-at-top": [1, "s", True, None, 2.5],
    "deep": {"a": [{"b": [{"c": [1, [2, [3, {"d": "e"}]]]}]}]},
    "key-order": {"b": 1, "a": 2, "B": 3, "aa": 4, "é": 5, "_": 6, "10": 7, "9": 8},
}


@pytest.mark.parametrize("name", sorted(EDGE_CASES))
def test_edge_cases_match_json(name):
    obj = EDGE_CASES[name]
    assert indented_json(obj) == reference(obj)


@pytest.mark.parametrize("value", [True, False, None, 0, -3, 10**50, "xÿ", 2.25, [], {}])
def test_top_level_values_match_json(value):
    assert indented_json(value) == reference(value)
