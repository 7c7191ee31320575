"""Every CLI output kind against its JSON schema in docs/schemas/, checked
by a standard-library validator for the subset of JSON Schema those files
use."""

import json
from pathlib import Path

import pytest

from isoreg.cli import main

SCHEMAS = Path(__file__).resolve().parent.parent / "docs" / "schemas"

_TYPES = {
    "object": lambda v: isinstance(v, dict),
    "array": lambda v: isinstance(v, list),
    "string": lambda v: isinstance(v, str),
    "integer": lambda v: isinstance(v, int) and not isinstance(v, bool),
    "boolean": lambda v: isinstance(v, bool),
    "null": lambda v: v is None,
}
_ANNOTATIONS = {"$schema", "title", "description"}
_KEYWORDS = {"type", "required", "properties", "additionalProperties", "items", "enum", "oneOf",
             "minItems", "maxItems"}


def _subschemas(schema):
    yield from schema.get("properties", {}).values()
    yield from schema.get("oneOf", ())
    for key in ("items", "additionalProperties"):
        if key in schema:
            yield schema[key]


def unsupported(schema) -> set[str]:
    """The keywords of schema and its subschemas that the validator does not
    implement, annotations aside."""
    out = set(schema) - _KEYWORDS - _ANNOTATIONS
    for sub in _subschemas(schema):
        out |= unsupported(sub)
    return out


def schema_errors(value, schema, path: str = "$") -> list[str]:
    """How value breaks schema, one message per fault; [] when it conforms.
    Implements type (a name or a list of names), required, properties,
    additionalProperties, items, enum, oneOf, minItems and maxItems.  A JSON
    boolean is not an integer, and enum members match by type and value."""
    if "type" in schema:
        names = schema["type"] if isinstance(schema["type"], list) else [schema["type"]]
        if not any(_TYPES[name](value) for name in names):
            return [f"{path}: {value!r} is not of type {names}"]
    errors = []
    if "enum" in schema and not any(type(value) is type(x) and value == x for x in schema["enum"]):
        errors.append(f"{path}: {value!r} is not one of {schema['enum']}")
    if "oneOf" in schema:
        matched = sum(not schema_errors(value, sub, path) for sub in schema["oneOf"])
        if matched != 1:
            errors.append(f"{path}: matches {matched} of the oneOf schemas, not 1")
    if isinstance(value, dict):
        errors += [f"{path}: missing {key!r}" for key in schema.get("required", ()) if key not in value]
        properties = schema.get("properties", {})
        for key, item in value.items():
            sub = properties.get(key, schema.get("additionalProperties"))
            if sub is not None:
                errors += schema_errors(item, sub, f"{path}.{key}")
    if isinstance(value, list):
        if len(value) < schema.get("minItems", 0):
            errors.append(f"{path}: {len(value)} items, fewer than {schema['minItems']}")
        if len(value) > schema.get("maxItems", len(value)):
            errors.append(f"{path}: {len(value)} items, more than {schema['maxItems']}")
        if "items" in schema:
            for i, item in enumerate(value):
                errors += schema_errors(item, schema["items"], f"{path}[{i}]")
    return errors


def _schema(name: str) -> dict:
    return json.loads((SCHEMAS / f"{name}.schema.json").read_text())


def _run(capsys, argv: list[str], code: int) -> str:
    assert main(argv) == code, argv
    return capsys.readouterr().out


def test_schemas_use_only_the_validated_subset():
    names = sorted(p.name for p in SCHEMAS.glob("*.schema.json"))
    assert names == ["certificate.schema.json", "check-report.schema.json",
                     "replay-report.schema.json", "search-stream.schema.json"]
    for name in names:
        assert unsupported(json.loads((SCHEMAS / name).read_text())) == set(), name


def test_validator_rejects_each_kind_of_fault():
    stream = _schema("search-stream")
    line = {"symbol": "bi:n=5;S=1,4;Sp=2,3;T=0", "params": {}, "profile": [1, 0, 1, 0],
            "graph6": "IheA@GUAo", "iso3": True, "class": 0}
    assert schema_errors(line, stream) == []
    for bad in (
        {k: v for k, v in line.items() if k != "graph6"},  # required
        {**line, "class": True},  # a boolean is not an integer
        {**line, "class": "0"},  # type
        {**line, "profile": [1, 0, 1]},  # minItems
        {**line, "profile": [1, 0, 1, 0, 0]},  # maxItems
        {**line, "profile": [1, 0, 1, None]},  # items
        {"summary": {"mode": "circ", "n": 5, "stats": {}}},  # enum
        [line],  # no oneOf branch
    ):
        assert schema_errors(bad, stream), bad
    assert schema_errors({**line, "profile": None}, stream) == []  # a union type
    report = _schema("check-report")
    profile = {"k": 3, "valencies": {"K3": 1}, "vacuous": []}
    base = {"graph": "c5", "graph6": "Dhc", "check": "isoreg"}
    assert schema_errors({**base, "profile": profile}, report) == []
    bad = {**base, "profile": {**profile, "valencies": {"K3": "1"}}}
    assert schema_errors(bad, report)  # additionalProperties
    assert schema_errors(1, {"enum": [True]}) and schema_errors(True, {"enum": [1]})
    # A value that matches both branches of a oneOf fails it too.
    assert schema_errors(1, {"oneOf": [{"type": "integer"}, {"enum": [1]}]})


@pytest.mark.parametrize(
    "argv",
    [
        "search bicirc --n 5",
        "search bicirc --n 5 --iso3",
        "search bicirc --n 6 --s-size 2",
        "search tricirc --n 3 --params 9,4,1,2",
        "search bicirc-odd --n 5",
        "search bicirc-odd --n 7",
    ],
)
def test_search_stream_matches_schema(capsys, argv):
    lines = _run(capsys, [*argv.split(), "--jobs", "1"], 0).splitlines()
    assert lines
    schema = _schema("search-stream")
    for line in lines:
        assert schema_errors(json.loads(line), schema) == [], line
    assert "summary" in json.loads(lines[-1])


def test_search_stream_has_both_profile_branches(capsys):
    # A survivor line's profile is a four-entry array for a 3-isoregular
    # survivor and null for any other; both occur in the runs above.
    profiles = set()
    for argv in ("search tricirc --n 3 --params 9,4,1,2", "search bicirc --n 5"):
        rows = [json.loads(x) for x in _run(capsys, argv.split(), 0).splitlines()[:-1]]
        profiles |= {r["profile"] is None for r in rows}
    assert profiles == {True, False}


@pytest.mark.parametrize(
    "argv, code",
    [
        ("check isoreg clebsch", 0),
        ("check isoreg petersen", 1),
        ("check isoreg c5 --k 2", 0),
        ("check local3 clebsch", 0),
        ("check local3 petersen --vertex 3", 1),
    ],
)
def test_check_report_matches_schema(capsys, argv, code):
    payload = json.loads(_run(capsys, argv.split(), code))
    assert schema_errors(payload, _schema("check-report")) == []


@pytest.mark.parametrize(
    "family, span",
    [("bicirc-odd", "2..30"), ("family-b", "3..21"), ("family-c", "3..21"),
     ("tri1", "-10..10"), ("tri2", "-10..10")],
)
def test_certify_and_replay_match_schemas(capsys, tmp_path, family, span):
    path = tmp_path / "cert.json"
    cert = json.loads(_run(capsys, ["certify", family, f"--range={span}"], 0))
    assert schema_errors(cert, _schema("certificate")) == []
    path.write_text(json.dumps(cert))
    report = json.loads(_run(capsys, ["replay", str(path)], 0))
    assert schema_errors(report, _schema("replay-report")) == []
    cert["instances"][0]["steps"][0]["holds"] = not cert["instances"][0]["steps"][0]["holds"]
    path.write_text(json.dumps(cert))
    report = json.loads(_run(capsys, ["replay", str(path)], 1))
    assert report["mismatches"]
    assert schema_errors(report, _schema("replay-report")) == []


def test_certificate_step_variants_are_the_rule_table():
    # One step variant per form of each kind in the replay rule table, with
    # exactly its required fields and their types; "tuple" is the one
    # optional field, an integer list that only the certifiers read.  The
    # other slots replay types are the slot table's.
    from isoreg.paramtheory import (
        _CHECKED_GRAPHS, _FIELD_TYPES, _GRAPH_ASSERTIONS, _NULLABLE_SLOTS, _OPTIONAL_SLOTS,
        _RELATIONS, _RULES, _SLOT_TYPES, _TYPE_TESTS,
    )

    integers = {"type": "array", "items": {"type": "integer"}}
    as_schema = {
        "an integer": {"type": "integer"},
        "a boolean": {"type": "boolean"},
        "a checked graph": {"enum": list(_CHECKED_GRAPHS)},
        "a list of integers": integers,
        "a list of two integers": {**integers, "minItems": 2, "maxItems": 2},
        "a relation": {"enum": list(_RELATIONS)},
        "a graph assertion": {"enum": list(_GRAPH_ASSERTIONS)},
    }
    expected = [
        (kind, {name: as_schema[_FIELD_TYPES.get(name, "an integer")] for name in fields})
        for kind, forms in _RULES.items()
        for fields, _ in forms
    ]
    step = _schema("certificate")["properties"]["instances"]["items"]["properties"]["steps"]
    variants = []
    for variant in step["items"]["oneOf"]:
        (kind,) = variant["properties"]["kind"]["enum"]
        data = variant["properties"]["data"]
        properties = dict(data["properties"])
        assert properties.pop("tuple", integers) == integers
        assert list(properties) == data["required"]
        variants.append((kind, properties))
    assert variants == expected

    # Each slot table against its schema object: the same slots, each of the
    # same type (an enum's members of that type), null where the table
    # allows it, and required unless optional.  An oracle is its own table,
    # and `validate_step` types a step's holds.
    as_schema.update({
        "a string": {"type": "string"},
        "a list": {"type": "array"},
        "a list of strings": {"type": "array", "items": {"type": "string"}},
        "an object of integers": {"type": "object", "additionalProperties": {"type": "integer"}},
    })
    certificate = _schema("certificate")
    instance = certificate["properties"]["instances"]["items"]
    oracle = instance["properties"]["oracle"]
    objects = {"certificate": certificate, "instance": instance, "step": step["items"],
               "oracle": oracle, "oracle entry": oracle["properties"]["feasible"]["items"]}
    typed_apart = {"instance": {"oracle"}, "step": {"holds"}}
    assert oracle["type"] == ["object", "null"]
    assert list(objects) == list(_SLOT_TYPES)
    for name, node in objects.items():
        slots = _SLOT_TYPES[name]
        assert set(node["properties"]) == set(slots) | typed_apart.get(name, set()), name
        assert {slot for slot in slots if slot not in _OPTIONAL_SLOTS} <= set(node["required"])
        assert not set(_OPTIONAL_SLOTS) & set(node["required"]), name
        for slot, type_name in slots.items():
            actual, want = node["properties"][slot], dict(as_schema[type_name])
            if "enum" in actual:
                assert all(_TYPE_TESTS[type_name](v) for v in actual["enum"]), (name, slot)
                continue
            if slot in _NULLABLE_SLOTS:
                want["type"] = [want["type"], "null"]
            assert {key: actual.get(key) for key in want} == want, (name, slot)


@pytest.mark.parametrize("name", ["oracle-entry-integer", "oracle-tuple-object",
                                  "oracle-eliminated-by-integer", "oracle-vacuous-string",
                                  "oracle-settled-by-null"])
def test_hostile_oracle_entries_break_the_schema(name):
    # Each malformed oracle entry that replay refuses breaks the schema too,
    # while the same certificate with a well-formed entry conforms.
    from test_cli import _HOSTILE_CERTIFICATES, _one_oracle_certificate

    schema = _schema("certificate")
    assert schema_errors(_one_oracle_certificate({"tuple": [0, 0, 0], "settled_by": ""}), schema) == []
    assert schema_errors(_HOSTILE_CERTIFICATES[name][0], schema)


def test_certificate_claims_are_the_claim_table():
    from isoreg.cli import _FAMILIES
    from isoreg.paramtheory import _CLAIMS

    assert _schema("certificate")["properties"]["claim"]["enum"] == sorted(_CLAIMS)
    assert {claim for claim, _ in _FAMILIES.values()} <= set(_CLAIMS)
