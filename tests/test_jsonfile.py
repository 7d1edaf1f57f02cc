"""The non-finite walker shared by the JSON readers and the CLI's result
check, and the built-in schema checker against jsonschema."""

import contextlib
import copy
import json
import math
import sys

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


# --- the byte scan in front of the number hooks -----------------------------

_MAX = sys.float_info.max
ANY = {}  # a schema every document meets, so only the parse is compared


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
LABELS = ("v0e1", "1E9", "x" + "7" * 320, "NaN", "plain")


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


class TestByteScan:
    """``read_json`` gives what a hook on every number token gives: the same
    value, or the same exception type and message."""

    def test_hypothesis_texts(self, tmp_path, monkeypatch):
        loads, hooks, seen = json.loads, [], set()
        monkeypatch.setattr(json, "loads", lambda s, **kw: hooks.append(set(kw)) or loads(s, **kw))

        @settings(max_examples=300)
        @given(tokened_text())
        def collect(case):
            path = tmp_path / case[0]
            path.write_text(case[1], encoding="utf-8")
            hooks.clear()
            kind = _same_as_hooked(path)[0]
            seen.add((kind, "parse_float" in hooks[0]))  # hooks[0]: read_json's parse

        collect()
        assert seen == {(kind, hooked) for kind in ("value", ValueError) for hooked in (False, True)}

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

    def test_a_malformed_text_raises_as_json_does(self, tmp_path):
        path = tmp_path / "doc.json"
        path.write_text('{"a": [1, 2,]}')
        assert _same_as_hooked(path)[0] is json.JSONDecodeError

    @pytest.mark.parametrize("text, hooked", [
        (dataset.bundled_path("table3_scenario.json").read_text(encoding="utf-8"), False),
        (dataset.bundled_path("budget_example.json").read_text(encoding="utf-8"), False),
        ('{"a": [1, 2.5, -3, NaN], "v0": "e"}', False),
        ('{"a": 1e5}', True),
        ('{"a": 2.5E-3}', True),
        ('{"name": "v0e1"}', True),
        ('{"a": %s}' % ("1" * 309), True),
        ('{"a": %s}' % ("1" * 308), False),
    ], ids=["table3_scenario", "budget_example", "constants", "exponent", "upper-case",
            "label", "309 digits", "308 digits"])
    def test_only_texts_that_could_overflow_hook_every_token(
            self, tmp_path, monkeypatch, text, hooked):
        path = tmp_path / "doc.json"
        path.write_text(text)
        loads, hooks = json.loads, []
        monkeypatch.setattr(json, "loads", lambda s, **kw: hooks.append(set(kw)) or loads(s, **kw))
        with contextlib.suppress(ValueError):
            read_json(path, ANY, ValueError)
        expected = {"parse_constant", "parse_float", "parse_int"} if hooked else {"parse_constant"}
        assert hooks == [expected]

    @pytest.mark.parametrize("sign", ["", "-"])
    def test_an_integer_past_int_digit_limit_is_located(self, tmp_path, sign):
        # int() refuses more than 4300 digits; the token is still located.
        path = tmp_path / "doc.json"
        path.write_text('{"a": [0, %s%s]}' % (sign, "9" * 5000))
        with pytest.raises(ValueError) as raised:
            read_json(path, ANY, ValueError)
        assert str(raised.value) == (
            f"doc.json: at /a/1: {(sign + '9' * 21)[:21]}... is not a finite number")
