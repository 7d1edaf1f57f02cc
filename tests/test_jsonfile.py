"""The non-finite walker shared by the JSON readers and the CLI's result
check, the compiled schema checkers against jsonschema, the reference,
and the reading of a file's bytes against a text-mode read."""

import copy
import json
import math
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from jsonschema import Draft202012Validator
from jsonschema.exceptions import best_match

from errorkit import dataset
from errorkit._jsonfile import (
    _KEYWORDS, _brief, _cut_pointer, compile_schema, first_nonfinite, not_utf8, read_json,
    shorten)
from errorkit.budget import BUDGET_SCHEMA, BudgetError, load_budget
from errorkit.simulate import SCENARIO_SCHEMA, ScenarioError, load_scenario

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
CHECKERS = {name: compile_schema(schema) for name, schema in SCHEMAS.items()}

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
    assert (CHECKERS[name](doc) is None) is expected, (name, doc)
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


def _pointer(keys):
    return "/" + "/".join(map(str, keys))


def _subschemas(schema):
    """``schema`` and every schema its checker can reach inside it."""
    yield schema
    for sub in (*schema.get("properties", {}).values(), *schema.get("anyOf", ()),
                *(schema[key] for key in ("items", "additionalProperties")
                  if isinstance(schema.get(key), dict))):
        yield from _subschemas(sub)


class TestPointerCut:
    @pytest.mark.parametrize("pointer", ["/", "/differential/pairs/9999", "/ab" * 16])
    def test_a_pointer_of_48_characters_or_fewer_is_kept(self, pointer):
        assert _cut_pointer(pointer) == pointer

    def test_a_longer_pointer_keeps_its_head_and_tail(self):
        cut = _cut_pointer("/components" + "/0" * 600 + "/7")
        assert cut == "/components/0/0/0/0/0/...0/0/0/0/0/0/0/0/0/0/0/7"
        assert len(cut) == 48

    def test_deep_nonfinite_number(self, tmp_path):
        path = tmp_path / "deep.json"
        path.write_text('{"components": ' + "[" * 600 + "1e999" + "]" * 600 + "}")
        with pytest.raises(BudgetError) as raised:
            load_budget(path)
        assert str(raised.value) == (
            "deep.json: at /components/0/0/0/0/0/...0/0/0/0/0/0/0/0/0/0/0/0: "
            "1e999 is not a finite number")

    def test_long_key_violation(self, tmp_path):
        path = tmp_path / "doc.json"
        path.write_text(json.dumps({"sources": [SOURCE], "schedule": {
            **SCHEDULE, "ranges": {"x" * 3000: [0.0]}}}))
        with pytest.raises(ScenarioError) as raised:
            load_scenario(path)
        assert str(raised.value) == (
            "at /schedule/ranges/xxxxx..." + "x" * 23 + ": [0.0] is too short")


class TestSchemaChecker:
    """A compiled checker accepts a document exactly when jsonschema's
    Draft 2020-12 validator does, and locates a lone violation where
    ``best_match`` does."""

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

    @pytest.mark.parametrize("documents", [mutated_document(), generated_document()],
                             ids=["mutated-fixtures", "generated"])
    def test_a_single_violation_is_located_as_best_match_does(self, documents):
        # Pointers only: jsonschema words some keywords differently before 4.26.
        # An anyOf rejection is left out: best_match descends into its branches.
        compared = set()

        @settings(max_examples=300)
        @given(documents)
        def same_pointer(case):
            name, doc = case
            errors = list(VALIDATORS[name].iter_errors(doc))
            if len(errors) == 1 and not errors[0].context:
                found = CHECKERS[name](doc)
                assert _pointer(reversed(found[1:])) == _pointer(
                    best_match(errors).absolute_path), (name, doc)
                compared.add(name)

        same_pointer()
        assert compared == set(SCHEMAS)

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

    @pytest.mark.parametrize("schema", [SCENARIO_SCHEMA, BUDGET_SCHEMA],
                             ids=["scenario", "budget"])
    def test_bundled_schemas_use_only_what_the_walker_reads(self, schema):
        for node in _subschemas(schema):
            assert isinstance(node, dict)
            assert node.keys() <= _KEYWORDS.keys()
            assert isinstance(node.get("type", ""), str)
            assert all(isinstance(member, str) for member in node.get("enum", ()))
            assert node.get("additionalProperties") in (None, False) or isinstance(
                node["additionalProperties"], dict)


SOURCE = {"name": "a", "kind": "additive-constant"}
SCHEDULE = {"repeats": 3, "generator": "listed"}
COMPONENT = {"name": "a", "std": 1.0, "unit": "mm"}


class TestViolations:
    """A rejection is the loader's own error, a ValueError, worded
    ``at <pointer>: <message>`` as jsonschema 4.26 words the keyword."""

    @pytest.mark.parametrize("load, doc, message", [
        (load_scenario, [], "at /: [] is not of type 'object'"),
        (load_budget, {"components": {}}, "at /components: {} is not of type 'array'"),
        (load_scenario, {"sources": [SOURCE], "schedule": {**SCHEDULE, "repeats": 1.5}},
         "at /schedule/repeats: 1.5 is not of type 'integer'"),
        (load_budget, {"components": [{**COMPONENT, "std": True}]},
         "at /components/0/std: True is not of type 'number'"),
        (load_budget, {"components": [{**COMPONENT, "unit": "m"}]},
         "at /components/0/unit: 'm' is not one of ['mm', 'ppm']"),
        (load_scenario, {}, "at /: 'sources' is a required property"),
        (load_scenario, {"sources": [{**SOURCE, "wobble_mm": 0.1}]},
         "at /sources/0: Additional properties are not allowed ('wobble_mm' was unexpected)"),
        (load_budget, {"components": [], "x": 1, "extra": None},
         "at /: Additional properties are not allowed ('extra', 'x' were unexpected)"),
        (load_scenario, {"sources": []}, "at /sources: [] should be non-empty"),
        (load_scenario, {"sources": [SOURCE], "schedule": {**SCHEDULE, "ranges": {
            "distance": [0.0]}}}, "at /schedule/ranges/distance: [0.0] is too short"),
        (load_scenario, {"sources": [SOURCE], "schedule": {**SCHEDULE, "ranges": {
            "distance": [0.0, 1.0, 2.0]}}},
         "at /schedule/ranges/distance: [0.0, 1.0, 2.0] is too long"),
        (load_scenario, {"sources": [{**SOURCE, "name": ""}]},
         "at /sources/0/name: '' should be non-empty"),
        (load_budget, {"components": [{**COMPONENT, "std": -1}]},
         "at /components/0/std: -1 is less than the minimum of 0"),
        (load_budget, {"components": [], "operating_point_m": 0},
         "at /operating_point_m: 0 is less than or equal to the minimum of 0"),
        (load_budget, {"components": [{**COMPONENT, "sensitivity": "linear"}]},
         "at /components/0/sensitivity: 'linear' is not valid under any of the given "
         "schemas"),
        # best_match would name /schedule/conditions/distance/1 instead.
        (load_scenario, {"sources": [SOURCE], "schedule": {**SCHEDULE, "conditions": {
            "distance": [1.0, None]}}},
         "at /schedule/conditions/distance: [1.0, None] is not valid under any of the "
         "given schemas"),
    ], ids=["type root", "type", "integer", "bool is no number", "enum", "required",
            "additionalProperties", "additionalProperties plural", "minItems 1",
            "minItems", "maxItems", "minLength 1", "minimum", "exclusiveMinimum",
            "anyOf", "anyOf of an array"])
    def test_one_message_per_keyword(self, tmp_path, load, doc, message):
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError) as raised:
            load(path)
        assert type(raised.value) is (ScenarioError if load is load_scenario else BudgetError)
        assert str(raised.value) == message

    @pytest.mark.parametrize("load, doc, message", [
        # best_match names the last of two sibling violations.
        (load_scenario, {"sources": [{**SOURCE, "kind": "x"}, {**SOURCE, "kind": "y"}]},
         "at /sources/0/kind: 'x' is not one of "),
        # Keywords in the schema's order: required before properties.
        (load_budget, {"components": [{"name": "a", "std": -1}]},
         "at /components/0: 'unit' is a required property"),
        # Children in the document's order, not the schema's.
        (load_budget, {"components": [{"unit": "m", "std": 1.0, "name": ""}]},
         "at /components/0/unit: 'm' is not one of "),
    ], ids=["items", "keywords", "properties"])
    def test_the_first_violation_in_walk_order_is_named(self, tmp_path, load, doc, message):
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError) as raised:
            load(path)
        assert str(raised.value).startswith(message)

    @pytest.mark.parametrize("load, doc, message", [
        (load_scenario, [[10.0, 18.0]] * 10**4,
         "at /: [[10.0, 18.0], [10.0,... is not of type 'object'"),
        (load_scenario, {"sources": [SOURCE], "differential": [[10.0, 18.0]] * 10**4},
         "at /differential: [[10.0, 18.0], [10.0,... is not of type 'object'"),
        (load_budget, {"components": [{**COMPONENT, "unit": "x" * 10**4}]},
         "at /components/0/unit: 'xxxxxxxxxxxxxxxxxxxx... is not one of ['mm', 'ppm']"),
        (load_budget, {"components": [], **{f"extra{i}": i for i in range(100)}},
         "at /: Additional properties are not allowed ('extra0', 'extra1', '... were "
         "unexpected)"),
    ], ids=["root", "differential", "enum", "additionalProperties"])
    def test_a_long_value_is_cut(self, tmp_path, load, doc, message):
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError) as raised:
            load(path)
        assert str(raised.value) == message

    @given(st.recursive(
        st.none() | st.booleans() | st.floats(allow_nan=False) | st.integers() | st.text(),
        lambda inner: st.lists(inner, max_size=40) | st.dictionaries(st.text(), inner),
        max_leaves=60))
    def test_a_cut_repr_is_the_whole_reprs_cut(self, value):
        assert _brief(value) == shorten(repr(value))

    def test_a_rejection_raises_the_given_error(self, tmp_path):
        class Refused(Exception):
            pass

        path = tmp_path / "budget.json"
        path.write_text('{"components": [{"name": "a", "std": -1, "unit": "mm"}]}')
        with pytest.raises(Refused, match=r"^at /components/0/std: -1 is less than"):
            read_json(path, compile_schema(BUDGET_SCHEMA), Refused)


# --- the byte scan in front of the number hooks -----------------------------

_MAX = sys.float_info.max
ANY = compile_schema({})  # every document meets it, so only the parse is compared


def _hooked(path, error):
    """``read_json``'s parse without the byte scan: a hook on every number
    token, each parsed by ``float()`` or ``int()``."""
    bad = []

    def finite(parse):
        def checked(token):
            value = parse(token)
            if not -_MAX <= value <= _MAX:
                bad.append((token, value))
            return value

        return checked

    raw = json.loads(path.read_text(encoding="utf-8"), parse_constant=finite(float),
                     parse_float=finite(float), parse_int=finite(int))
    found = first_nonfinite(raw) if bad else None
    if found is not None:
        token = next(token for token, value in bad if value is found[1])
        token = token if len(token) <= 24 else token[:21] + "..."
        raise error(f"{path.name}: at {found[0]}: {token} is not a finite number")
    return raw


def _outcome(read, path):
    """``("value", repr)`` of what ``read(path)`` returns, or the type and
    message of what it raises; repr tells ``1`` from ``1.0``."""
    try:
        return "value", repr(read(path))
    except Exception as exc:  # noqa: BLE001 - the outcome is compared whole
        return type(exc), str(exc)


def _same_as_hooked(path):
    fast = _outcome(lambda p: read_json(p, ANY, ValueError), path)
    assert fast == _outcome(lambda p: _hooked(p, ValueError), path), path.read_text()[:400]
    return fast


# Number tokens beside the CLI fuzz test's: on, just past and far past
# the double range, written every way JSON allows.
NUMBER_TOKENS = (
    *map(json.dumps, JSON_NUMBERS), "1E400", "-1e309", "1e308", "1E+308", "1.5e-400",
    "0e0", "-0.0", "2.5", "9" * 308, "9" * 309, "-" + "9" * 310, "1" + "0" * 308,
    "17976931348623157" + "0" * 292, "17976931348623159" + "0" * 292, "12." + "3" * 320,
    "NaN", "Infinity", "-Infinity",
)
# Strings that hold what the scan looks for without being numbers.
LABELS = ("v0e1", "1E9", "x" + "7" * 320, "NaN", "Infinity", "Noise", "plain")


@st.composite
def tokened_text(draw):
    """(fixture name, text): a bundled JSON fixture with one to three
    numbers replaced by raw tokens and maybe a string by a look-alike."""
    name = draw(st.sampled_from(sorted(SCHEMAS)))
    doc = json.loads(dataset.bundled_path(name).read_text(encoding="utf-8"))
    numbers = list(_numeric_paths(doc))
    tokens = {}
    for i in range(draw(st.integers(1, 3))):
        tokens[f"@{i}@"] = draw(st.sampled_from(NUMBER_TOKENS))
        _set(doc, draw(st.sampled_from(numbers)), f"@{i}@")
    strings = [p for p in _paths(doc)
               if isinstance(_get(doc, p), str) and not _get(doc, p).startswith("@")]
    if strings and draw(st.booleans()):
        _set(doc, draw(st.sampled_from(strings)), draw(st.sampled_from(LABELS)))
    text = json.dumps(doc)
    for marker, token in tokens.items():
        text = text.replace(json.dumps(marker), token)
    return name, text


@pytest.fixture
def decoders(monkeypatch):
    """The keywords of each ``json.JSONDecoder`` built while the test runs,
    as sets; ``json.loads`` with a keyword builds one."""
    built = []

    class Recorded(json.JSONDecoder):
        def __init__(self, **kw):
            built.append(set(kw))
            super().__init__(**kw)

    monkeypatch.setattr(json, "JSONDecoder", Recorded)
    return built


EVERY_TOKEN = {"parse_constant", "parse_float", "parse_int"}


class TestByteScan:
    """``read_json`` gives what a hook on every number token gives: the same
    value, or the same exception type and message."""

    def test_hypothesis_texts(self, tmp_path, decoders):
        seen = set()

        @settings(max_examples=300)
        @given(tokened_text())
        def collect(case):
            path = tmp_path / case[0]
            path.write_text(case[1], encoding="utf-8")
            decoders.clear()
            fast = _outcome(lambda p: read_json(p, ANY, ValueError), path)
            hooked = EVERY_TOKEN in decoders  # read_json's decoders only
            assert fast == _outcome(lambda p: _hooked(p, ValueError), path), case[1][:400]
            seen.add((fast[0], hooked))

        collect()
        # A text that could hold a non-finite token is hooked, so only a
        # hooked text is refused.
        assert seen == {("value", False), ("value", True), (ValueError, True)}

    @pytest.mark.parametrize("text, message", [
        ('{"a": [0, 1E400]}', "at /a/1: 1E400 is not a finite number"),
        ('{"a": [0, -1e309]}', "at /a/1: -1e309 is not a finite number"),
        ('{"a": [0, 1e308]}', None),
        ('{"a": [0, 1.5e-400]}', None),
        ('{"a": [0, %s]}' % ("9" * 308), None),
        ('{"a": [0, %s]}' % ("1" + "0" * 308), None),
        ('{"a": [0, %s]}' % ("17976931348623157" + "0" * 292), None),
        ('{"a": [0, %s]}' % ("17976931348623159" + "0" * 292),
         "at /a/1: 179769313486231590000... is not a finite number"),
        ('{"a": [0, %s]}' % ("9" * 309), "at /a/1: 999999999999999999999... is not a finite number"),
        ('{"a": [0, %s]}' % ("-" + "9" * 310),
         "at /a/1: -99999999999999999999... is not a finite number"),
        ('{"a": [0, %s.5]}' % ("9" * 310), "at /a/1: 999999999999999999999... is not a finite number"),
        ('{"a": [0, NaN]}', "at /a/1: NaN is not a finite number"),
        ('{"a": [0, -Infinity]}', "at /a/1: -Infinity is not a finite number"),
        ('{"name": "v0e1", "a": [1, 2.5]}', None),
        ('{"name": "%s", "a": [1, 2.5]}' % ("x" + "0" * 320), None),
        ('{"name": "1e999", "a": 1e400}', "at /a: 1e400 is not a finite number"),
        ('{"a": 1e400, "a": 1}', None),
        ('{"a": NaN, "a": 2.0}', None),
        ('{"a": %s, "a": 3}' % ("9" * 400), None),
        ('{"a": 1, "a": 1e400}', "at /a: 1e400 is not a finite number"),
        ('{"a": 1e400, "b": NaN}', "at /a: 1e400 is not a finite number"),
        # The shadowed first token is not the one reported.
        ('{"a": 1e999, "a": 1.0, "b": [-1E999]}', "at /b/0: -1E999 is not a finite number"),
        ('{"a": NaN, "a": 1, "b": Infinity}', "at /b: Infinity is not a finite number"),
        ('{"a": 1e999, "a": 1e400}', "at /a: 1e400 is not a finite number"),
    ])
    def test_table(self, tmp_path, text, message):
        path = tmp_path / "doc.json"
        path.write_text(text)
        kind, detail = _same_as_hooked(path)
        if message is None:
            assert kind == "value"
        else:
            assert (kind, detail) == (ValueError, f"doc.json: {message}")

    def test_a_malformed_text_names_the_file_line_and_column(self, tmp_path):
        path = tmp_path / "doc.json"
        path.write_text('{"a": [1, 2,]}')
        with pytest.raises(ValueError) as raised:
            read_json(path, ANY, ValueError)
        assert str(raised.value) == "doc.json: line 1 column 13: Expecting value"

    # A text the scan passes is parsed by json.loads' own decoder, built
    # when json is imported; any other is parsed with a hook on every token.
    @pytest.mark.parametrize("text, built", [
        (dataset.bundled_path("table3_scenario.json").read_text(encoding="utf-8"), []),
        (dataset.bundled_path("budget_example.json").read_text(encoding="utf-8"), []),
        ('{"a": [1, 2.5, -3, NaN], "v0": "e"}', [EVERY_TOKEN]),
        ('{"a": 1e5}', [EVERY_TOKEN]),
        ('{"a": 2.5E-3}', [EVERY_TOKEN]),
        ('{"name": "v0e1"}', [EVERY_TOKEN]),
        ('{"name": "Noise", "a": [1, 2.5]}', [EVERY_TOKEN]),
        ('{"label": "to Infinity", "a": [1, 2.5]}', [EVERY_TOKEN]),
        ('{"a": %s}' % ("1" * 309), [EVERY_TOKEN]),
        ('{"a": %s}' % ("1" * 308), []),
    ], ids=["table3_scenario", "budget_example", "constants", "exponent", "upper-case",
            "label", "name with an N", "label with Infinity", "309 digits", "308 digits"])
    def test_only_texts_that_could_overflow_hook_every_token(
            self, tmp_path, decoders, text, built):
        path = tmp_path / "doc.json"
        path.write_text(text)
        got = _outcome(lambda p: read_json(p, ANY, ValueError), path)
        assert decoders == built
        if "NaN" not in text:
            assert got == ("value", repr(json.loads(text)))

    @pytest.mark.parametrize("sign", ["", "-"])
    def test_an_integer_past_int_digit_limit_is_located(self, tmp_path, sign):
        # int() refuses more than 4300 digits; the token is still located.
        path = tmp_path / "doc.json"
        path.write_text('{"a": [0, %s%s]}' % (sign, "9" * 5000))
        with pytest.raises(ValueError) as raised:
            read_json(path, ANY, ValueError)
        assert str(raised.value) == (
            f"doc.json: at /a/1: {(sign + '9' * 21)[:21]}... is not a finite number")


# --- the file read once as bytes ----------------------------------------------


def _text_mode(path, error):
    """A text-mode read and ``json.loads``, worded as ``read_json`` words
    their errors: the reference for reading a file's bytes."""
    try:
        text = path.read_text(encoding="utf-8-sig")
    except UnicodeDecodeError as exc:
        raise error(not_utf8(path, exc)) from None
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise error(f"{path.name}: line {exc.lineno} column {exc.colno}: {exc.msg}") from None


BOM = b"\xef\xbb\xbf"


class TestBytesRead:
    """``read_json`` reads a file's bytes once and gives what a text-mode
    read and ``json.loads`` gave: the same value, or the same exception
    type and message. A file of one or two bytes of a byte-order mark
    alone is refused as the CSV reader refuses it."""

    @pytest.mark.parametrize("data, message", [
        (b'{"a": [1,\r\n 2.5],\r\n "b": "x"}\r\n', None),
        (b'{"a":\r [1,\r 2.5]}\r', None),
        (b'{"a":\r\n\r 1}\n\r', None),
        (BOM + b'{"a": 1}', None),
        (BOM + b'{\r\n"a": 1e5\r\n}', None),
        (BOM * 2 + b'{"a": 1}', "line 1 column 1: Unexpected UTF-8 BOM (decode using utf-8-sig)"),
        (b"", "line 1 column 1: Expecting value"),
        (b'{\r\n"a": 1,\r\n"b": tru\r\n}\r\n', "line 3 column 6: Expecting value"),
        (b'{\r"a": 1,\r"b": [1 2]}', "line 3 column 9: Expecting ',' delimiter"),
        (b'{"a": "x\ry"}', "line 1 column 9: Invalid control character at"),
    ], ids=["crlf", "lone cr", "mixed", "bom", "bom crlf exponent", "two boms", "empty",
            "crlf line 3", "lone cr line 3", "cr in a string"])
    def test_text_mode_line_ends_and_byte_order_marks(self, tmp_path, data, message):
        path = tmp_path / "doc.json"
        path.write_bytes(data)
        got = _outcome(lambda p: read_json(p, ANY, ValueError), path)
        assert got == _outcome(lambda p: _text_mode(p, ValueError), path)
        assert got[0] == "value" if message is None else got == (
            ValueError, f"doc.json: {message}")

    @pytest.mark.parametrize("data, message", [
        (b'{"a": "\xff"}', "not UTF-8 text at line 1 (byte 0xff)"),
        (b'{\r\n"a":\r\n "\xe9"}', "not UTF-8 text at line 3 (byte 0xe9)"),
        (BOM + b'{\n"a": "\xc3"}', "not UTF-8 text at line 2 (byte 0xc3)"),
        (BOM[:2] + b"{}", "not UTF-8 text at line 1 (byte 0xef)"),
    ], ids=["latin-1", "crlf", "after a bom", "half a bom"])
    def test_bytes_that_are_not_utf8(self, tmp_path, data, message):
        path = tmp_path / "doc.json"
        path.write_bytes(data)
        got = _outcome(lambda p: read_json(p, ANY, ValueError), path)
        assert got == _outcome(lambda p: _text_mode(p, ValueError), path)
        assert got == (ValueError, f"{path}: {message}")

    @pytest.mark.parametrize("data", [BOM[:1], BOM[:2]], ids=["bom byte", "bom bytes"])
    def test_part_of_a_bom_is_not_utf8_in_json_as_in_csv(self, tmp_path, data):
        # A text-mode read would take these bytes as an empty file.
        json_path, csv_path = tmp_path / "doc.json", tmp_path / "doc.csv"
        json_path.write_bytes(data)
        csv_path.write_bytes(data)
        with pytest.raises(ValueError) as from_json:
            read_json(json_path, ANY, ValueError)
        with pytest.raises(dataset.DatasetError) as from_csv:
            dataset.load_series(csv_path)
        assert str(from_json.value) == f"{json_path}: not UTF-8 text at line 1 (byte 0xef)"
        assert str(from_csv.value) == f"{csv_path}: not UTF-8 text at line 1 (byte 0xef)"
