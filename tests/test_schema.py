"""The one checker of settings, bundle scalars and JSON documents: its
kinds, bounds and messages, its object check, and its list check, whose
fast paths must agree with checking item by item."""

import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from llmdetect.errors import ModelError
from llmdetect.schema import Rule, binary_labels, build, object_with
from llmdetect.models import GbdtConfig

FLOAT_MAX = sys.float_info.max


@pytest.mark.parametrize("rule, value, message", [
    (Rule(int), 16.0, "x must be an integer, got 16.0"),
    (Rule(int), True, "x must be an integer, got True"),
    (Rule(int), "3", "x must be an integer, got '3'"),
    (Rule(int, 2, 1024), 1, "x must be in [2, 1024], got 1"),
    (Rule(int, 2, 1024), 2.5, "x must be an integer, got 2.5"),
    (Rule(int, 1), 0, "x must be >= 1, got 0"),
    (Rule(int, null=True), "a", "x must be an integer or null, got 'a'"),
    (Rule(float), math.nan, "x must be a finite number, got nan"),
    (Rule(float), 2 * 10 ** 308, "x must be a finite number, got 2"),
    (Rule(float), False, "x must be a finite number, got False"),
    (Rule(float, 0), -1, "x must be a finite number >= 0, got -1"),
    (Rule(float, 0, low_open=True), 0.0,
     "x must be a finite number > 0, got 0.0"),
    (Rule(float, 0, 1), 1.5, "x must be a finite number in [0, 1], got 1.5"),
    (Rule(float, null=True), "1", "x must be a finite number or null, got '1'"),
    (Rule(bool), 1, "x must be true or false, got 1"),
    (Rule(str), 5, "x must be a string, got 5"),
    (Rule(dict), [], "x must be an object, got []"),
    (Rule(("leaf_wise", "symmetric")), "x",
     "x must be leaf_wise or symmetric, got 'x'"),
    (Rule(list), {}, "x must be a list, got {}"),
    (Rule(int, 2, 2), 1, "x must be equal to 2, got 1"),
    (Rule(int, 2, 2), 2.0, "x must be an integer, got 2.0"),
], ids=str)
def test_refused_with_message(rule, value, message):
    assert not rule.admits(value)
    with pytest.raises(ModelError) as refused:
        rule.check("x", value, ModelError)
    assert str(refused.value).startswith(message)


@pytest.mark.parametrize("rule, value", [
    (Rule(int), np.int64(3)), (Rule(int, 0), 10 ** 30),
    (Rule(float), np.float64(0.5)), (Rule(float), 3), (Rule(float), 10 ** 300),
    (Rule(float), -FLOAT_MAX), (Rule(float, 0, low_open=True), 5e-324),
    (Rule(float, 0, 1), 1), (Rule(bool), False), (Rule(int, null=True), None),
    (Rule(str, null=True), "abc"), (Rule(dict), {}),
    (Rule(("a", "b")), "b"),
], ids=str)
def test_admitted(rule, value):
    assert rule.admits(value)
    rule.check("x", value, ModelError)


_ITEMS = st.one_of(
    st.integers(-3, 3), st.integers(), st.integers(-10 ** 400, 10 ** 400),
    st.floats(), st.floats(-4, 4), st.booleans(), st.none(), st.text(),
    st.sampled_from([FLOAT_MAX, -FLOAT_MAX, "1", "", [1], {}]))
_RULES = st.sampled_from([
    Rule(int), Rule(int, -1, 2), Rule(int, 0), Rule(float),
    Rule(float, 0, low_open=True), Rule(float, -1, 1),
    Rule(float, null=True), Rule(str), Rule(str, null=True), Rule(list),
    Rule(bool)])


@settings(max_examples=600, deadline=None)
@given(rule=_RULES, values=st.one_of(
    st.lists(_ITEMS, max_size=6), st.lists(st.text(), max_size=6).flatmap(
        lambda strings: st.permutations(strings + [None, True]))))
def test_check_each_is_check_of_each_item(rule, values):
    # the set of types, or the sum, least and greatest items, decide for
    # the whole list only when every item passes; else the first bad item
    # is named
    bad = [i for i, value in enumerate(values) if not rule.admits(value)]
    if not bad:
        rule.check_each("xs", values, ModelError)
        return
    with pytest.raises(ModelError) as refused:
        rule.check_each("xs", values, ModelError)
    assert str(refused.value).startswith(f"xs[{bad[0]}] must be ")


def test_long_value_shown_short():
    # a bundle field set to a megabyte of text once made a megabyte-long
    # error line
    with pytest.raises(ModelError) as refused:
        Rule(int).check("x", "y" * 10 ** 6, ModelError)
    assert len(str(refused.value)) < 80
    assert str(refused.value).startswith("x must be an integer, got 'yyy")


def test_check_each_refuses_a_non_list():
    with pytest.raises(ModelError, match="xs must be a list, got tuple"):
        Rule(int).check_each("xs", (1, 2), ModelError)


class TestBuild:
    def test_builds_from_every_field(self):
        fields = {"variant": "symmetric", "n_trees": 3, "learning_rate": 0.5,
                  "max_leaves": 4, "depth": 2, "n_bins": 16,
                  "min_data_in_leaf": 1, "lambda_l2": 2.0}
        assert build(GbdtConfig, fields, "c", ModelError) == \
            GbdtConfig(**fields)

    @pytest.mark.parametrize("data, message", [
        ([], "c: expected an object, got list"),
        ({"a": 1, "b": 2, "z": 3}, "c: unknown key 'z'"),
        ({"a": 1}, "c: missing key 'b'"),
        ({"b": 1, "o": 2}, "c: missing key 'a'"),
        ({"a": 1, "b": 2, "p": 3}, "c: unknown key 'p'"),
        # a renamed key is both unknown and missing
        ({"a": 1, "B": 2}, "^c: unknown key 'B'; missing key 'b'$"),
        ({"x": 1, "y": 2}, "^c: unknown key 'x'; missing key 'a'$"),
    ])
    def test_object_with_refuses(self, data, message):
        with pytest.raises(ModelError, match=message):
            object_with(data, ("a", "b"), "c", ModelError, optional=("o",))

    @pytest.mark.parametrize("data", [{"a": 1, "b": 2},
                                      {"a": 1, "b": 2, "o": None}])
    def test_optional_key_may_be_absent(self, data):
        assert object_with(data, ("a", "b"), "c", ModelError,
                           optional=("o",)) is data


class TestBinaryLabels:
    @pytest.mark.parametrize("labels, message", [
        ([1, 0, 0.7], "label 0.7 is not 0 or 1"),
        # named as given, not as the string numpy would make of the list
        ([0, "1"], "label '1' is not 0 or 1"),
        ([0, None], "label None is not 0 or 1"),
        ([[0, 1]], "labels must be a flat sequence, got 2 dimensions"),
    ])
    def test_refused(self, labels, message):
        with pytest.raises(ModelError, match=message):
            binary_labels(labels, ModelError)

    def test_exact_zero_one_of_any_type_read_as_int64(self):
        y = binary_labels([0.0, True, np.int64(0), 1], ModelError)
        assert y.dtype == np.int64 and y.tolist() == [0, 1, 0, 1]
