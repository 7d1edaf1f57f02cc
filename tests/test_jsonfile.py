"""The non-finite walker shared by the JSON readers and the CLI's result
check, and the built-in schema checker against jsonschema."""

import copy
import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from jsonschema import Draft202012Validator, ValidationError

from errorkit import dataset
from errorkit._jsonfile import _accepts, first_nonfinite, read_json
from errorkit.budget import BUDGET_SCHEMA
from errorkit.simulate import SCENARIO_SCHEMA

from test_cli_fuzz import JSON_NUMBERS, _numeric_paths, _set


class TestFirstNonfinite:
    def test_finite_document(self):
        assert first_nonfinite({"a": [1, 2.5, {"b": -1e308}], "c": "inf"}) is None

    def test_first_hit_in_document_order(self):
        doc = {"a": 1.0, "b": [0.0, math.nan, -math.inf], "c": math.inf}
        pointer, value = first_nonfinite(doc)
        assert pointer == "/b/1"
        assert math.isnan(value)

    def test_dict_order_is_insertion_order(self):
        assert first_nonfinite({"z": math.inf, "a": -math.inf}) == ("/z", math.inf)

    def test_tuples_and_nested_lists(self):
        doc = {"rows": ([1.0, 2.0], [[3.0], [4.0, (5.0, -math.inf)]])}
        assert first_nonfinite(doc) == ("/rows/1/1/1/1", -math.inf)
        assert first_nonfinite((0.0, [1.0, math.inf])) == ("/1/1", math.inf)

    @pytest.mark.parametrize("value", [math.inf, -math.inf, 10**400, -(10**400)])
    def test_top_level_scalar_is_the_root(self, value):
        assert first_nonfinite(value) == ("/", value)

    def test_top_level_nan(self):
        pointer, value = first_nonfinite(math.nan)
        assert pointer == "/"
        assert math.isnan(value)

    def test_int_beyond_a_double_is_flagged(self):
        assert first_nonfinite({"n": [2**1023, 10**400]}) == ("/n/1", 10**400)

    @pytest.mark.parametrize("value", [
        True, False, -0.0, 0, 1e308, -1.7976931348623157e308, 5e-324, None, "nan",
    ])
    def test_not_flagged(self, value):
        assert first_nonfinite(value) is None
        assert first_nonfinite({"x": [value]}) is None

    def test_empty_containers(self):
        assert first_nonfinite({}) is None
        assert first_nonfinite([[], (), {}]) is None


# --- the schema checker --------------------------------------------------------

SCHEMAS = {
    "table3_scenario.json": SCENARIO_SCHEMA,
    "budget_example.json": BUDGET_SCHEMA,
}
VALIDATORS = {name: Draft202012Validator(schema) for name, schema in SCHEMAS.items()}

# Values a mutation puts in place of another: wrong types, bools where
# numbers go, integral floats, empty and unknown strings, zero and
# negative bounds.
ODD_VALUES = (
    *JSON_NUMBERS, True, False, None, 1.0, 0.0, -0.0, -1.5, 2.5, "", "x", "other",
    "cycle", "mm", "ppm", "constant", "distance", [], [1.0], [1.0, 2.0],
    [1.0, 2.0, 3.0], {}, {"x": 1},
)
# A fresh copy each time: an edit may later change what it put in.
ODD = st.sampled_from(ODD_VALUES).map(copy.deepcopy)


def _paths(node, path=()):
    """Paths to every value below the root of a parsed JSON document."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return
    for key, child in items:
        yield (*path, key)
        yield from _paths(child, (*path, key))


def _agrees(name, doc):
    expected = VALIDATORS[name].is_valid(doc)
    assert _accepts(SCHEMAS[name], doc) is expected, (name, doc)
    return expected


def _get(node, path):
    for key in path:
        node = node[key]
    return node


@st.composite
def _edited(draw, doc, times):
    """``doc`` after ``times`` edits, each one of: a number swapped as the
    CLI fuzz test does, a value replaced by an odd one, a key deleted, a
    key added."""
    for _ in range(times):
        how = draw(st.sampled_from(["number", "value", "delete", "add"]))
        numbers = list(_numeric_paths(doc))
        if how == "number" and numbers:
            _set(doc, draw(st.sampled_from(numbers)), draw(st.sampled_from(JSON_NUMBERS)))
            continue
        # Leave the differential pairs' numbers to the "number" edit.
        paths = [p for p in _paths(doc) if len(p) < 3 or p[0] != "differential"]
        if how == "value" and paths:
            _set(doc, draw(st.sampled_from(paths)), draw(ODD))
            continue
        parents = [()] + [p for p in paths if isinstance(_get(doc, p), dict)]
        parent = _get(doc, draw(st.sampled_from(parents)))
        if how == "delete" and parent:
            del parent[draw(st.sampled_from(sorted(parent)))]
        elif how == "add":
            parent[draw(st.sampled_from(["wobble_mm", "name", "schedule", "x"]))] = (
                draw(ODD))
    return doc


@st.composite
def mutated_document(draw):
    """(fixture name, document): a bundled JSON fixture after one to
    three edits."""
    name = draw(st.sampled_from(sorted(SCHEMAS)))
    doc = json.loads(dataset.bundled_path(name).read_text(encoding="utf-8"))
    return name, draw(_edited(doc, draw(st.integers(1, 3))))


@st.composite
def _valid(draw, schema):
    """A document valid against ``schema``: its required keys, some of the
    others, both ``anyOf`` branches and lists of every allowed length."""
    if "anyOf" in schema:
        return draw(_valid(draw(st.sampled_from(schema["anyOf"]))))
    if "enum" in schema:
        return draw(st.sampled_from(schema["enum"]))
    kind = schema.get("type")
    if kind == "object":
        required = schema.get("required", ())
        doc = {key: draw(_valid(sub)) for key, sub in schema.get("properties", {}).items()
               if key in required or draw(st.booleans())}
        extra = schema.get("additionalProperties", True)
        if isinstance(extra, dict):
            for key in draw(st.lists(st.sampled_from(["distance", "temperature"]),
                                     max_size=2, unique=True)):
                doc[key] = draw(_valid(extra))
        return doc
    if kind == "array":
        items = _valid(schema["items"]) if "items" in schema else st.sampled_from([1.0, 2])
        return draw(st.lists(items, min_size=schema.get("minItems", 0),
                             max_size=schema.get("maxItems", 3)))
    # Positive numbers meet every bound in the schemas; 1.0 is an integer.
    return draw(st.sampled_from({
        "integer": [1, 2, 1.0], "number": [1, 0.5, 20.0], "string": ["a", "cycle"],
        "boolean": [True, False],
    }[kind]))


@st.composite
def generated_document(draw):
    """(fixture name, document): a generated document valid against that
    fixture's schema, after zero to two edits."""
    name = draw(st.sampled_from(sorted(SCHEMAS)))
    return name, draw(_edited(draw(_valid(SCHEMAS[name])), draw(st.integers(0, 2))))


class TestSchemaChecker:
    """The checker accepts a document exactly when jsonschema's Draft
    2020-12 validator does."""

    @pytest.mark.parametrize("documents", [mutated_document(), generated_document()],
                             ids=["mutated-fixtures", "generated"])
    def test_hypothesis_documents(self, documents):
        outcomes = set()

        @settings(max_examples=300)
        @given(documents)
        def agrees(case):
            outcomes.add((case[0], _agrees(*case)))

        agrees()
        # The strategies reach both answers for both schemas.
        assert outcomes == {(name, ok) for name in SCHEMAS for ok in (True, False)}

    def test_bundled_fixtures_are_accepted(self):
        for name in SCHEMAS:
            doc = json.loads(dataset.bundled_path(name).read_text(encoding="utf-8"))
            assert _agrees(name, doc)

    SCHEDULE = {"repeats": 3, "generator": "listed"}

    @pytest.mark.parametrize("edit, valid", [
        ({"repeats": 1.0}, True),
        ({"repeats": 1.5}, False),
        ({"repeats": True}, False),
        ({"repeats": 0}, False),
        ({"seed": 1.0}, True),
        ({"seed": -3}, True),
        ({"seed": False}, False),
        ({"generator": "other"}, False),
        ({"ranges": {"distance": [0.0]}}, False),
        ({"ranges": {"distance": [0.0, 1.0]}}, True),
        ({"ranges": {"distance": [0.0, 1.0, 2.0]}}, False),
        ({"ranges": {"distance": [0.0, True]}}, False),
        ({"conditions": {"distance": 2.0}}, True),
        ({"conditions": {"distance": [1.0, 2]}}, True),
        ({"conditions": {"distance": "far"}}, False),
        ({"conditions": {"distance": [1.0, None]}}, False),
        ({"extra": 1}, False),
    ])
    def test_schedule_keywords(self, edit, valid):
        doc = {"true_value": 1.0, "sources": [{"name": "a", "kind": "additive-constant"}],
               "schedule": {**self.SCHEDULE, **edit}}
        assert _agrees("table3_scenario.json", doc) is valid

    @pytest.mark.parametrize("edit, valid", [
        ({"name": ""}, False),
        ({"name": 3}, False),
        ({"wavelength_m": 0}, False),
        ({"wavelength_m": -1.0}, False),
        ({"wavelength_m": 5e-324}, True),
        ({"sigma_mm": 0}, True),
        ({"sigma_mm": -0.0}, True),
        ({"sigma_mm": -1e-300}, False),
        ({"c_mm": True}, False),
        ({"coeffs_ppm": [1, 2.0, True]}, False),
        ({"coeffs_ppm": []}, True),
        ({"depends_on": "humidity"}, False),
        ({"wobble_mm": 0.1}, False),
    ])
    def test_source_keywords(self, edit, valid):
        doc = {"sources": [{"name": "a", "kind": "additive-constant", **edit}]}
        assert _agrees("table3_scenario.json", doc) is valid

    @pytest.mark.parametrize("doc, valid", [
        ({}, False),
        ([], False),
        ({"sources": []}, False),
        ({"sources": [{"name": "a"}]}, False),
        ({"sources": [{"name": "a", "kind": "additive-constant"}], "eps_abs_mm": 0}, False),
        ({"sources": [{"name": "a", "kind": "additive-constant"}], "differential": {}}, False),
        ({"sources": [{"name": "a", "kind": "additive-constant"}],
          "differential": {"pairs": [[1.0, "x"]], "round_readings": 1}}, False),
        ({"sources": [{"name": "a", "kind": "additive-constant"}],
          "differential": {"pairs": [[1.0, "x"]], "round_readings": False}}, True),
    ])
    def test_scenario_documents(self, doc, valid):
        assert _agrees("table3_scenario.json", doc) is valid

    COMPONENT = {"name": "a", "std": 1.0, "unit": "mm"}

    @pytest.mark.parametrize("edit, valid", [
        ({"sensitivity": "constant"}, True),
        ({"sensitivity": 2.5}, True),
        ({"sensitivity": -1}, True),
        ({"sensitivity": "linear"}, False),
        ({"sensitivity": True}, False),
        ({"sensitivity": None}, False),
        ({"std": 0}, True),
        ({"std": -1}, False),
        ({"std": False}, False),
        ({"unit": "m"}, False),
        ({"shape": "arcsine"}, True),
        ({"shape": "triangle"}, False),
        ({"name": ""}, False),
    ])
    def test_component_keywords(self, edit, valid):
        doc = {"operating_point_m": 1000.0, "components": [{**self.COMPONENT, **edit}]}
        assert _agrees("budget_example.json", doc) is valid

    @pytest.mark.parametrize("doc, valid", [
        ({"components": []}, True),
        ({"components": [{"name": "a", "std": 1.0}]}, False),
        ({"components": [], "operating_point_m": 0}, False),
        ({"components": [], "operating_point_m": 1}, True),
        ({"components": {}}, False),
        ({"components": [], "extra": None}, False),
    ])
    def test_budget_documents(self, doc, valid):
        assert _agrees("budget_example.json", doc) is valid

    @pytest.mark.parametrize("keyword, schema", [
        ("pattern", {"type": "string", "pattern": "^a"}),
        ("format", {"type": "object",
                    "properties": {"a": {"type": "string", "format": "date"}}}),
        ("maxLength", {"anyOf": [{"type": "number"}, {"type": "string", "maxLength": 2}]}),
        ("uniqueItems", {"type": "array", "items": {"uniqueItems": True}}),
    ])
    def test_an_unknown_keyword_is_refused_at_first_use(self, keyword, schema, tmp_path):
        path = tmp_path / "doc.json"
        path.write_text('"a"')
        with pytest.raises(NotImplementedError, match=f"keyword '{keyword}'"):
            read_json(path, schema, ValueError)

    def test_a_rejection_is_worded_by_jsonschema(self, tmp_path):
        path = tmp_path / "budget.json"
        path.write_text('{"components": [{"name": "a", "std": -1, "unit": "mm"}]}')
        with pytest.raises(ValidationError) as raised:
            read_json(path, BUDGET_SCHEMA, ValueError)
        assert raised.value.message == "-1 is less than the minimum of 0"
        assert list(raised.value.absolute_path) == ["components", 0, "std"]
