import json
import math

import pytest

from conftest import fixture_text, make_gateway
from quadkit import gateway
from quadkit.errors import (
    ConfigError,
    ParseError,
    SchemaError,
    ScriptExhaustedError,
    TranscriptMismatchError,
)
from quadkit.gateway import (
    ChatRequest,
    Gateway,
    LiveProvider,
    ScriptedProvider,
    extract_json_block,
    load_template,
    parse_cost_json,
    parse_levels,
    parse_numeric_params,
)
from quadkit.locomotion import Level


def test_scripted_provider_replays_in_order():
    gw = make_gateway([("auto", "one"), ("auto", "two"), ("auto", "three")])
    out = gw.complete(ChatRequest("auto", "", "prompt", n_samples=3))
    assert out == ["one", "two", "three"]


def test_scripted_provider_keys_by_template():
    gw = make_gateway([("a", "ra"), ("b", "rb"), ("a", "ra2")])
    assert gw.complete(ChatRequest("b", "", "x")) == ["rb"]
    assert gw.complete(ChatRequest("a", "", "x", n_samples=2)) == ["ra", "ra2"]


def test_script_exhaustion_names_template_and_ordinal():
    gw = make_gateway([("auto", "only")])
    gw.complete(ChatRequest("auto", "", "x"))
    with pytest.raises(ScriptExhaustedError) as err:
        gw.complete(ChatRequest("auto", "", "x"))
    assert err.value.template_id == "auto"
    assert err.value.ordinal == 1


def test_transcript_log_replays_losslessly(tmp_path):
    log = tmp_path / "log.jsonl"
    gw = make_gateway([("auto", "alpha"), ("locate_levels", "beta"), ("auto", "gamma")],
                      log_path=str(log))
    gw.complete(ChatRequest("auto", "", "p1", n_samples=2))
    gw.complete(ChatRequest("locate_levels", "", "p2"))
    replay = Gateway(ScriptedProvider.from_file(log))
    assert replay.complete(ChatRequest("auto", "", "p1", n_samples=2)) == ["alpha", "gamma"]
    assert replay.complete(ChatRequest("locate_levels", "", "p2")) == ["beta"]
    records = [json.loads(line) for line in log.read_text().splitlines()]
    assert [r["ordinal"] for r in records] == [0, 1, 0]
    assert all("request_hash" in r for r in records)


def test_replay_of_reordered_requests_raises_on_request_hash(tmp_path):
    log = tmp_path / "log.jsonl"
    gw = make_gateway([("auto", "alpha"), ("auto", "beta"), ("locate_levels", "gamma")],
                      log_path=str(log))
    gw.complete(ChatRequest("auto", "", "p1"))
    gw.complete(ChatRequest("auto", "", "p2"))
    gw.complete(ChatRequest("locate_levels", "", "p3"))
    replay = Gateway(ScriptedProvider.from_file(log))
    assert replay.complete(ChatRequest("locate_levels", "", "p3")) == ["gamma"]
    with pytest.raises(TranscriptMismatchError) as err:
        replay.complete(ChatRequest("auto", "", "p2"))
    assert err.value.template_id == "auto"
    assert err.value.ordinal == 0
    assert "'auto' at ordinal 0" in str(err.value)
    assert ChatRequest("auto", "", "p1").digest() in str(err.value)


@pytest.mark.parametrize("text, line, what", [
    ('{"template_id": "auto", "response": "ok"}\nnot json\n', 2, "Expecting value"),
    ('\n[1, 2]\n', 2, "expected an object"),
    ('{"response": "ok"}\n', 1, "'template_id'"),
    ('{"template_id": "cost_map"}\n', 1, "'response'"),
    ('{"template_id": "auto", "response": "ok", "request_hash": 7}\n', 1, "'request_hash'"),
    ('{"template_id": "auto", "response": 5}\n', 1, "'response' must be a string"),
    ('{"template_id": ["cost_map"], "response": "ok"}\n', 1, "'template_id' must be a string"),
])
def test_transcript_malformed_line_raises_config_error(tmp_path, text, line, what):
    path = tmp_path / "t.jsonl"
    path.write_text(text)
    with pytest.raises(ConfigError) as err:
        ScriptedProvider.from_file(path)
    assert str(path) in str(err.value)
    assert f"line {line}" in str(err.value)
    assert what in str(err.value)


def test_live_provider_requires_env(monkeypatch):
    for var in ("QUADKIT_LLM_ENDPOINT", "QUADKIT_LLM_MODEL", "QUADKIT_LLM_API_KEY"):
        monkeypatch.delenv(var, raising=False)
    with pytest.raises(ConfigError):
        LiveProvider.from_env()


def test_templates_load_with_slots():
    assert "{terrain_description}" in load_template("auto")
    assert "{terrain_description}" in load_template("locate_levels")
    assert "{instruction}" in load_template("cost_map")
    assert "{options_block}" in load_template("determining")
    # the in-context example survives str.format substitution
    rendered = load_template("cost_map").format(instruction="Go to the chair")
    assert '"target_object": "red cabinet"' in rendered
    assert "Go to the chair" in rendered


def test_load_template_reads_each_template_once_per_process(monkeypatch):
    opened = []
    files = gateway.resources.files

    def counted(package):
        opened.append(package)
        return files(package)

    load_template.cache_clear()
    monkeypatch.setattr(gateway.resources, "files", counted)
    texts = [load_template(name) for _ in range(3) for name in ("auto", "locate_levels")]
    assert len(opened) == 2
    assert texts[:2] * 3 == texts
    # A failed read is not cached: an unknown name raises on every call.
    for calls in (3, 4):
        with pytest.raises(OSError):
            load_template("no_such_template")
        assert len(opened) == calls


def test_parse_levels_verbatim_example():
    levels = parse_levels(fixture_text("uphill_levels_reply.txt"))
    assert levels["body_height"] == Level.LOW
    assert levels["step_frequency"] == Level.HIGH
    assert levels["swing_height"] == Level.HIGH
    assert levels["body_pitch"] == Level.HIGH  # "positive"
    assert levels["stance_width"] == Level.MEDIUM
    assert levels["gait"] == "trotting"


def test_parse_levels_case_insensitive():
    text = "A1: LOW.\nA2: high\nA3: Very High.\nA4: NEURAL.\nA5: medium\nA6: Pacing."
    levels = parse_levels(text)
    assert levels["body_height"] == Level.LOW
    assert levels["swing_height"] == Level.VERY_HIGH
    assert levels["body_pitch"] == Level.MEDIUM
    assert levels["gait"] == "pacing"


def test_parse_levels_missing_answer_names_index():
    text = "A1: Low.\nA2: High.\nA3: High.\nA5: Medium.\nA6: Trotting."
    with pytest.raises(ParseError) as err:
        parse_levels(text)
    assert err.value.what == "A4"


def test_parse_levels_invalid_level_names_index():
    text = "A1: Low.\nA2: Sideways.\nA3: High.\nA4: Positive.\nA5: Medium.\nA6: Trotting."
    with pytest.raises(ParseError) as err:
        parse_levels(text)
    assert err.value.what == "A2"


def test_parse_numeric_params_fixture():
    text = ("body height: 0.25, stepping frequency: 3.0, foot swing height: 0.12, "
            "body pitch: 0.1, foot stance width: 0.25, gait: trotting")
    params = parse_numeric_params(text)
    assert params.body_height == 0.25
    assert params.step_frequency == 3.0
    assert params.swing_height == 0.12
    assert params.body_pitch == 0.1
    assert params.stance_width == 0.25
    assert params.gait == "trotting"


def test_parse_numeric_params_clamps_out_of_range():
    text = ("body height: 9.9, stepping frequency: 3.0, foot swing height: 0.12, "
            "body pitch: -2.0, foot stance width: 0.25, gait: bounding")
    params = parse_numeric_params(text)
    assert params.body_height == 0.45
    assert params.body_pitch == -0.4


def test_parse_numeric_params_rejects_unknown_gait():
    text = ("body height: 0.25, stepping frequency: 3.0, foot swing height: 0.12, "
            "body pitch: 0.1, foot stance width: 0.25, gait: galloping")
    with pytest.raises(ParseError) as err:
        parse_numeric_params(text)
    assert err.value.what == "gait"


def test_parse_numeric_params_missing_value():
    text = "body height: 0.25, stepping frequency: 3.0, gait: trotting"
    with pytest.raises(ParseError) as err:
        parse_numeric_params(text)
    assert err.value.what in ("swing_height", "body_pitch", "stance_width")


def test_parse_cost_json_verbatim_example():
    assignment = parse_cost_json(fixture_text("cost_reply_kitchen.json"))
    assert assignment.target_object == "red cabinet"
    assert assignment.obstacles == ("white kitchen table", "wooden chair")
    assert len(assignment.terrain) == 3
    steps = assignment.cost_of("metal steps")
    assert steps.cost == 1 and steps.gait == 1
    tiles = assignment.cost_of("gray tiles")
    assert tiles.cost == 0 and tiles.gait == 0
    floor = assignment.cost_of("light wooden floor")
    assert floor.cost == 0 and floor.gait == 0


def test_parse_cost_json_wrapped_in_prose():
    assignment = parse_cost_json(fixture_text("cost_reply_wrapped.txt"))
    assert assignment.target_object == "red cabinet"
    assert len(assignment.terrain) == 3


def test_parse_cost_json_missing_gait_names_entry():
    text = json.dumps({
        "target_object": "box",
        "obstacles": [],
        "terrain": [{"type": "floor", "cost": 0, "gait": 0}, {"type": "rug", "cost": 0}],
    })
    with pytest.raises(SchemaError) as err:
        parse_cost_json(text)
    assert any("terrain[1]" in issue for issue in err.value.issues)


def test_parse_cost_json_rejects_out_of_domain_cost():
    text = json.dumps({
        "target_object": "box",
        "obstacles": [],
        "terrain": [{"type": "floor", "cost": 2, "gait": 0}],
    })
    with pytest.raises(SchemaError) as err:
        parse_cost_json(text)
    assert any("terrain[0]" in issue and "cost 2" in issue for issue in err.value.issues)


def test_parse_cost_json_modes():
    text = json.dumps({
        "target_object": "box",
        "obstacles": [],
        "terrain": [{"type": "rug", "cost": 0.4, "gait": 0}],
    })
    with pytest.raises(SchemaError):
        parse_cost_json(text, mode="binary")
    assignment = parse_cost_json(text, mode="continuous")
    assert assignment.cost_of("rug").cost == 0.4


@pytest.mark.parametrize("mode", ["binary", "continuous"])
@pytest.mark.parametrize("field", ["cost", "gait"])
def test_parse_cost_json_rejects_booleans(mode, field):
    entry = {"type": "rug", "cost": 1, "gait": 1, field: True}
    text = json.dumps({"target_object": "box", "obstacles": [], "terrain": [entry]})
    with pytest.raises(SchemaError) as err:
        parse_cost_json(text, mode=mode)
    assert err.value.issues == [f"terrain[0]: {field} True outside "
                                + ("[0, 1]" if (field, mode) == ("cost", "continuous")
                                   else "{0, 1}")]


def test_extract_json_block_handles_braces_in_strings():
    text = 'noise {"a": "curly } inside", "b": [1, 2]} trailing {unbalanced'
    block = extract_json_block(text)
    assert json.loads(block) == {"a": "curly } inside", "b": [1, 2]}
    with pytest.raises(ParseError):
        extract_json_block("no json here")
