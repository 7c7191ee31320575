"""Value semantics of the result and parameter classes: immutable fields,
equality and hashing by field values, and the repr text."""

import importlib
import json
import pkgutil

import pytest

import isoreg
from isoreg.formats import indented_json
from isoreg.isoregularity import (
    DPartition,
    EdgeLocalParams,
    IsoProfile,
    IsoType,
    IsoWitness,
    KIsoregularity,
    LocalReport,
    NonEdgeLocalParams,
    TVertexResult,
    TVertexWitness,
)
from isoreg.paramtheory import (
    Certificate,
    Instance,
    LeungMaEntry,
    LocalParamSolution,
    ReplayResult,
    Step,
    TricircEntry,
)
from isoreg.search import OddRunResult, SearchResult, SearchSpec, SearchStats, Survivor
from isoreg.srg import SrgParams
from isoreg.symbols import Symbol, symbol_graph

_P = SrgParams(10, 3, 0, 1)
_SYMBOL = Symbol(5, [{1, 4}, {2, 3}], [{0}])
_GRAPH = symbol_graph(_SYMBOL)
_STATS = SearchStats(10, 2, 2, 0, 2, 1, 1)
_RESULT = SearchResult((), (), _STATS)
_STEP = Step("SUBSTITUTION", "1 = 1", {"lhs": 1, "rhs": 1}, True)

# One instance of every value class; the flag says whether it is hashable
# (a dict field makes it not).
VALUES = [
    (_SYMBOL, True),
    (_P, True),
    (SearchSpec(n=5, target=_P), True),
    (Survivor(_SYMBOL, _P, (0, 1, 0, 1), _GRAPH, 0), True),
    (_STATS, True),
    (_RESULT, True),
    (OddRunResult(5, _RESULT, 0, None, True), True),
    (LeungMaEntry("a", 5, 1, 2, 0, 1), True),
    (TricircEntry(1, 0, SrgParams(6, 1, 0, 0), True, 1, 1, True), True),
    (LocalParamSolution(0, 0, 1, 0, frozenset({"Q"})), True),
    (_STEP, False),
    (Instance(3, _P, "CONTRADICTION", (_STEP,)), False),
    (Certificate("bicirc-odd", (3,), ()), True),
    (ReplayResult(True, ()), True),
    (IsoType(3, 1), True),
    (IsoWitness(IsoType(3, 0), (0, 1, 2), 1, (0, 1, 3), 2), True),
    (KIsoregularity(True, 1, None, IsoProfile(1, {"K1": 3}, frozenset())), False),
    (IsoProfile(1, {"K1": 3}, frozenset()), False),
    (EdgeLocalParams(0, 0, 1), True),
    (NonEdgeLocalParams(0, 1, 0, frozenset({"3K1"})), True),
    (LocalReport(0, (1, EdgeLocalParams(0, 0, 1)), None), True),
    (DPartition(0, 1, (), (2, 3), (4, 5), (6,)), True),
    (TVertexWitness(2, "adjacent", IsoType(2, 1), (0, 1), 1, (0, 2), 2), True),
    (TVertexResult(True, 2), True),
]
IDS = [type(value).__name__ for value, _ in VALUES]


def test_every_value_class_is_listed():
    listed = {type(value) for value, _ in VALUES}
    found = set()
    for info in pkgutil.iter_modules(isoreg.__path__):
        module = importlib.import_module(f"isoreg.{info.name}")
        for obj in vars(module).values():
            if (isinstance(obj, type) and obj.__module__ == module.__name__
                    and hasattr(obj, "_fields") and not obj.__name__.startswith("_")):
                found.add(obj)
    assert found == listed


@pytest.mark.parametrize("value, hashable", VALUES, ids=IDS)
def test_fields_cannot_be_set_or_deleted(value, hashable):
    for name in value._fields:
        with pytest.raises(AttributeError):
            setattr(value, name, getattr(value, name))
        with pytest.raises(AttributeError):
            delattr(value, name)
    with pytest.raises(AttributeError):
        value.extra = 1


@pytest.mark.parametrize("value, hashable", VALUES, ids=IDS)
def test_equal_fields_make_equal_values(value, hashable):
    twin = type(value)(*value)
    assert twin is not value and twin == value and not twin != value
    if hashable:
        assert hash(twin) == hash(value) and len({twin, value}) == 1
    else:
        with pytest.raises(TypeError):
            hash(value)


SERIALISED = [value for value, _ in VALUES if hasattr(value, "to_json")]


@pytest.mark.parametrize("value", SERIALISED, ids=[type(v).__name__ for v in SERIALISED])
def test_to_json_is_plain_json(value):
    # Reports go through indented_json and search lines through json.dumps,
    # so a to_json result must be JSON both take alike: a frozenset or other
    # non-JSON field left in an _asdict() fails here, not only in a digest.
    payload = value.to_json()
    json.dumps(payload)
    assert indented_json(payload) == json.dumps(payload, sort_keys=True, indent=2)


def test_local_param_solution_writes_an_empty_trace():
    plain = LocalParamSolution(1, 2, 3, 4)
    assert plain == LocalParamSolution(1, 2, 3, 4, frozenset())
    assert plain != LocalParamSolution(1, 2, 3, 5)
    assert plain != LocalParamSolution(1, 2, 3, 4, frozenset({"Q"}))
    assert plain.to_json()["trace"] == {}


@pytest.mark.parametrize(
    "args, message",
    [
        ((1, [[]]), "modulus must be at least 2"),
        ((5, [{0, 1, 4}]), "S contains 0"),
        ((5, [{1, 4}, {2}], [{0}]), "Sp is not closed under negation mod 5: [2]"),
        ((5, [{1, 4}, {2, 3}]), "no 2-orbit symbol has 0 connections"),
        ((5, [{1, 4}] * 4), "no 4-orbit symbol has 0 connections"),
    ],
)
def test_symbol_rejects_bad_input(args, message):
    with pytest.raises(ValueError) as info:
        Symbol(*args)
    assert str(info.value) == message


def test_symbol_replace_validates():
    assert _SYMBOL._replace(connections=[{6}]) == Symbol(5, [{1, 4}, {2, 3}], [{1}])
    with pytest.raises(ValueError, match="S contains 0"):
        _SYMBOL._replace(diagonals=[{0}, {2, 3}])


def test_symbol_reduces_residues_and_hashes_by_value():
    same = Symbol(5, [[6, -1], (7, 8)], [[10]])
    assert same == _SYMBOL and hash(same) == hash(_SYMBOL) and len({same, _SYMBOL}) == 1
    assert _SYMBOL != Symbol(5, [{1, 4}, {2, 3}], [{1}])


def test_verdicts_are_falsy_when_they_fail():
    assert ReplayResult(True, ()) and not ReplayResult(False, ("index 3: step 0",))
    assert KIsoregularity(True, 3) and not KIsoregularity(False, 3)
    assert TVertexResult(True, 2) and not TVertexResult(False, 2)
    assert not LocalReport(0, (1, EdgeLocalParams(0, 0, 1)), None)


def test_repr_text():
    assert repr(_P) == "SrgParams(n=10, k=3, lam=0, mu=1)"
    assert repr(_SYMBOL) == (
        "Symbol(n=5, diagonals=(frozenset({1, 4}), frozenset({2, 3})), "
        "connections=(frozenset({0}),))"
    )
