"""Reply parsers are total: any text gives a value or a ``ParseError``.

Each property feeds a parser three kinds of text: arbitrary unicode, JSON
values wrapped in prose, and strings stitched from the tokens the parser
looks for, so that the fuzzing reaches past the first "not found" check.
"""

import json

from hypothesis import example, given, settings
from hypothesis import strategies as st

from quadkit.errors import ParseError
from quadkit.gateway import (
    extract_json_block,
    parse_cost_json,
    parse_levels,
    parse_numeric_params,
)
from quadkit.tasks import SKILLS, parse_subgoals, parse_verdict

TOKENS = (
    "A1", "A2", "A3", "A4", "A5", "A6", "A7", ":", ".", " ", "\n", "very", "high", "low",
    "medium", "positive", "negative", "neural", "Trotting", "pacing", "gait", "body height",
    "stepping frequency", "foot swing height", "body pitch", "stance width", "-", "0", "1.5",
    "0.3", "9e9", "{", "}", "[", "]", '"', "\\", ",", "SUCCESS", "failure", "skill", "args",
    "target_object", "terrain", "cost", "type",
)
JSON_KEYS = ("skill", "args", "description", "target", "target_object", "obstacles",
             "terrain", "type", "cost", "gait")

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8)
    | st.sampled_from(["sit_down", "find", "chair", "floor"]),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(JSON_KEYS) | st.text(max_size=4), inner, max_size=5),
    max_leaves=12,
)
texts = st.one_of(
    st.text(),
    st.tuples(st.text(max_size=10), json_values, st.text(max_size=10)).map(
        lambda t: t[0] + json.dumps(t[1]) + t[2]),
    st.lists(st.sampled_from(TOKENS) | st.text(max_size=3), max_size=40).map("".join),
)

DEEP = "[" * 100000 + "]" * 100000
HUGE_INT = "1" + "0" * 5000


def assert_total(parser, text):
    try:
        parser(text)
    except ParseError:
        pass


@settings(max_examples=200, deadline=None)
@given(texts)
def test_parse_levels_is_total(text):
    assert_total(parse_levels, text)


@settings(max_examples=200, deadline=None)
@given(texts)
@example("body height: 1e999 stepping frequency 2 pitch 0 stance width 0.2 "
         "swing height 0.1 gait: trotting")
def test_parse_numeric_params_is_total(text):
    assert_total(parse_numeric_params, text)


@settings(max_examples=200, deadline=None)
@given(texts, st.sampled_from([("{", "}"), ("[", "]")]))
def test_extract_json_block_is_total(text, brackets):
    assert_total(lambda t: extract_json_block(t, *brackets), text)


@settings(max_examples=200, deadline=None)
@given(texts, st.sampled_from(["binary", "continuous"]))
@example('{"a": ' + DEEP + "}", "binary")
@example('{"target_object": "x", "terrain": [{"type": "a", "cost": ' + HUGE_INT
         + ', "gait": 0}]}', "continuous")
@example('{"target_object": "x", "terrain": [{"type": "a", "cost": 1' + "0" * 400
         + ', "gait": 0}]}', "continuous")
@example('{"target_object": "x", "terrain": [{"type": "a", "cost": NaN, "gait": 1}]}',
         "continuous")
def test_parse_cost_json_is_total(text, mode):
    assert_total(lambda t: parse_cost_json(t, mode), text)


@settings(max_examples=200, deadline=None)
@given(texts)
@example(DEEP)
@example("[" + HUGE_INT + "]")
@example('[{"skill": ["sit_down"]}]')
@example('[{"skill": {"a": 1}}]')
@example('[{"skill": "sit_down", "args": 5}]')
@example('[{"skill": "sit_down", "args": "ab"}]')
@example('[{"skill": "sit_down", "args": [["target", "chair"]]}]')
def test_decompose_parser_is_total(text):
    assert_total(lambda t: parse_subgoals(t, SKILLS), text)


@settings(max_examples=200, deadline=None)
@given(texts)
def test_parse_verdict_is_total(text):
    assert_total(parse_verdict, text)
