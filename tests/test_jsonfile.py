"""The non-finite walker shared by the JSON readers and the CLI's result
check."""

import math

import pytest

from errorkit._jsonfile import first_nonfinite


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
