"""Every input file is read by one decoder, and reading is total: whatever the
bytes of a config, scene, transcript, scenario or params file, its loader
returns a value or raises a ``ConfigError`` naming the file, and the line of a
line-delimited one. The CLI turns each such error into exit 2."""

import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from quadkit.adaptation import manual_params
from quadkit.bench import SCENARIO_KEYS, asset_path, load_scenario
from quadkit.cli import main
from quadkit.config import ToolkitConfig, load_config
from quadkit.errors import ConfigError
from quadkit.gateway import TRANSCRIPT_KEYS, ScriptedProvider
from quadkit.locomotion import PARAMETERS
from quadkit.mapping import FRAME_KEYS, HEADER_KEYS, load_scene

LOADERS = {
    "config": load_config,
    "scene": load_scene,
    "transcript": ScriptedProvider.from_file,
    "scenario": lambda path: load_scenario(path, ToolkitConfig()),
    "params": manual_params,
}
LINE_DELIMITED = ("scene", "transcript")
KEYS = {
    "config": ("reward", "sim", "lss", "mapping", "nav", "level_ranges"),
    "scene": HEADER_KEYS + FRAME_KEYS,
    "transcript": TRANSCRIPT_KEYS,
    "scenario": SCENARIO_KEYS,
    "params": PARAMETERS + ("gait",),
}

GOOD_PARAMS = {"body_height": 0.2, "step_frequency": 3.0, "body_pitch": 0.1,
               "stance_width": 0.3, "swing_height": 0.15}
HEADER = {"categories": ["floor", "chair"], "M": 40}
FRAME = {"pose": [0.0, 0.0, 0.0], "points": [[0.1, 0.1, 0.1, 1]]}
# Each file with a numeric field its loader checks written as NUMBER: a
# transcript checks none, so its NUMBER is the unread ordinal.
WITH_NUMBER = {
    "config": '{"sim": {"dt": NUMBER}}',
    "scene": json.dumps(HEADER) + '\n{"pose": [NUMBER, 0, 0], "points": []}\n',
    "transcript": '{"template_id": "cost_map", "response": "{}", "ordinal": NUMBER}\n',
    "scenario": '{"instruction": "find the chair", "scene": "s.jsonl", '
                '"config": {"sim": {"dt": NUMBER}}}',
    "params": '{"body_height": NUMBER, "step_frequency": 3.0, "body_pitch": 0.1, '
              '"stance_width": 0.3, "swing_height": 0.15}',
}
# A whole-file document spans lines, so that CRLF line ends change it.
VALID = {
    "config": json.dumps({"sim": {"dt": 0.01}}, indent=2).encode(),
    "scene": (json.dumps(HEADER) + "\n" + json.dumps(FRAME) + "\n").encode(),
    "transcript": b'{"template_id": "cost_map", "response": "{}", "ordinal": 0}\n',
    "scenario": json.dumps({"instruction": "find the chair", "scene": "s.jsonl",
                            "config": {"nav": {"cost_mode": "continuous"}}}, indent=2).encode(),
    "params": json.dumps(GOOD_PARAMS, indent=2).encode(),
}


def with_number(name: str, number: str) -> bytes:
    return WITH_NUMBER[name].replace("NUMBER", number).encode()


def last_line(name: str) -> int:
    """The line a line-delimited file's last record is on; 0, naming no line,
    for a whole-file one."""
    return VALID[name].count(b"\n") if name in LINE_DELIMITED else 0


def canonical(name: str, value):
    """A comparable form of what a loader returned."""
    if name == "config":
        return value.as_dict()
    if name == "scene":
        return (value.categories, value.m, value.cell_size, value.start_pose, value.origin,
                [(f.index, f.pose, f.cloud.points.tolist()) for f in value.frames])
    if name == "transcript":
        return value._queues
    return value


def load(name: str, path):
    return LOADERS[name](path)


def assert_names_file(name: str, err: ConfigError, path, line=None):
    message = str(err)
    assert str(path) in message
    if line is not None:
        assert f"line {line}: " in message


# -- totality ------------------------------------------------------------------

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats()
    | st.integers(10 ** 400, 10 ** 401) | st.text(max_size=6)
    | st.sampled_from(["floor", "trotting", "cost_map", "s.jsonl"]),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=10,
)


def documents(name: str):
    """Bytes near a valid file: arbitrary bytes; JSON objects over the file's own
    keys (one per line for a line-delimited file); either with bytes spliced in."""
    objects = st.dictionaries(st.sampled_from(KEYS[name]) | st.text(max_size=3), json_values,
                              max_size=len(KEYS[name])).map(json.dumps)
    if name in LINE_DELIMITED:
        texts = st.lists(objects | json_values.map(json.dumps) | st.sampled_from(["", "\r"]),
                         min_size=1, max_size=4).map("\n".join)
    else:
        texts = objects | json_values.map(json.dumps)
    encoded = texts.map(str.encode)
    spliced = st.tuples(encoded, st.binary(min_size=1, max_size=3), st.integers(0, 10 ** 4)).map(
        lambda t: t[0][:t[2] % (len(t[0]) + 1)] + t[1] + t[0][t[2] % (len(t[0]) + 1):])
    return st.one_of(st.binary(max_size=64), encoded, spliced)


@pytest.mark.parametrize("name", sorted(LOADERS))
def test_every_loader_returns_a_value_or_a_config_error_naming_the_file(tmp_path, name):
    path = tmp_path / f"input-{name}.json"

    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=documents(name))
    def check(data):
        path.write_bytes(data)
        try:
            load(name, path)
        except ConfigError as err:
            assert str(path) in str(err)
            if name in LINE_DELIMITED and not str(err).endswith(" is empty"):
                assert ", line " in str(err)

    check()


# -- explicit cases --------------------------------------------------------------

def malformed_cases():
    """(name, case id, bytes, line the error names: 0 for none, None if it loads)."""
    deep = b"[" * 200_000 + b"]" * 200_000
    for name in sorted(LOADERS):
        lines = name in LINE_DELIMITED
        valid = VALID[name]
        yield name, "invalid-utf8", valid[:-3] + b"\xff" + valid[-3:], last_line(name)
        yield (name, "nested-200000", valid + deep + b"\n" if lines else deep,
               last_line(name) + 1 if lines else 0)
        yield name, "number-0.2", with_number(name, "0.2"), None  # the control
        yield name, "digits-5000", with_number(name, "1" * 5000), last_line(name)
        yield (name, "digits-401", with_number(name, "1" * 401),
               None if name == "transcript" else last_line(name))
        yield name, "utf8-bom", b"\xef\xbb\xbf" + valid, 1 if lines else 0


@pytest.mark.parametrize("name, case, data, line",
                         [pytest.param(*c, id=f"{c[0]}-{c[1]}") for c in malformed_cases()])
def test_malformed_input_raises_config_error_naming_file_and_line(tmp_path, name, case, data,
                                                                   line):
    path = tmp_path / f"bad-{name}.json"
    path.write_bytes(data)
    if line is None:
        load(name, path)
        return
    with pytest.raises(ConfigError) as err:
        load(name, path)
    assert_names_file(name, err.value, path, line or None)


# (name, case id, text, line the error names, the key it names)
UNKNOWN_KEYS = [
    ("scene", "header-key", json.dumps(dict(HEADER, **{"cell-size": 0.1})) + "\n", 1,
     "'cell-size'"),
    ("scene", "frame-key", json.dumps(HEADER) + "\n\n" + json.dumps(dict(FRAME, yaw=0)) + "\n",
     3, "'yaw'"),
    ("transcript", "key", '{"template_id": "auto", "response": "ok", "note": 1}\n', 1, "'note'"),
    ("scenario", "key", '{"instruction": "sit", "scene": "s.jsonl", "transcripts": "t"}', 0,
     "'transcripts'"),
    ("params", "key", json.dumps(dict(GOOD_PARAMS, gaits="trotting")), 0, "'gaits'"),
    ("config", "key", '{"sim": {"dt": 0.01}, "simm": {}}', 0, "'simm'"),
]


@pytest.mark.parametrize("name, case, text, line, key",
                         [pytest.param(*c, id=f"{c[0]}-{c[1]}") for c in UNKNOWN_KEYS])
def test_unknown_key_raises_config_error_naming_file_line_and_key(tmp_path, name, case, text,
                                                                  line, key):
    path = tmp_path / f"typo-{name}.json"
    path.write_text(text)
    with pytest.raises(ConfigError) as err:
        load(name, path)
    assert_names_file(name, err.value, path, line or None)
    assert "unknown" in str(err.value) and key in str(err.value)


@pytest.mark.parametrize("name", sorted(LOADERS))
def test_crlf_line_ends_and_blank_lines_load_as_lf(tmp_path, name):
    lf, crlf = tmp_path / "lf.json", tmp_path / "crlf.json"
    lf.write_bytes(VALID[name])
    crlf.write_bytes(b"\r\n \r\n" + VALID[name].replace(b"\n", b"\r\n\r\n") + b"\r\n")
    assert canonical(name, load(name, crlf)) == canonical(name, load(name, lf))


@pytest.mark.parametrize("name", LINE_DELIMITED)
def test_line_numbers_count_blank_and_crlf_lines(tmp_path, name):
    path = tmp_path / "bad.jsonl"
    path.write_bytes(b"\r\n" + VALID[name].replace(b"\n", b"\r\n") + b"\t\r\n\r\n[1]\r\n")
    with pytest.raises(ConfigError) as err:
        load(name, path)
    assert_names_file(name, err.value, path, last_line(name) + 4)


def test_number_too_large_for_a_float_is_rejected_like_a_non_finite_one(tmp_path):
    path = tmp_path / "cfg.json"
    for section, key in (("sim", "dt"), ("reward", "sigma_cf"), ("nav", "success_radius"),
                         ("lss", "candidate_cap"), ("mapping", "dilation_p")):
        path.write_text(f'{{"{section}": {{"{key}": {"9" * 401}}}}}')
        with pytest.raises(ConfigError, match=f"{section}.{key} must be finite, not 9+$"):
            load_config(path)


# -- the CLI -------------------------------------------------------------------

def cli_argv(name: str, path, out) -> list:
    plan = ["plan", "--instruction", "Go to the chair"]
    return {
        "config": ["adapt", "--runs", "1", "--terrains", "uphill_slope", "--config", path],
        "scene": plan + ["--scene", path,
                         "--transcript", asset_path("transcripts", "plan_band.jsonl")],
        "transcript": plan + ["--scene", asset_path("scenes", "band_free.jsonl"),
                              "--transcript", path],
        "scenario": ["task", "--scenario", path],
        "params": ["adapt", "--runs", "1", "--terrains", "uphill_slope", "--variants", "manual",
                   "--manual-params", path],
    }[name] + ["--out", out]


CLI_CASES = [c for c in malformed_cases() if c[3] is not None] + [
    (name, f"unknown-{case}", text.encode(), line) for name, case, text, line, _ in UNKNOWN_KEYS]


@pytest.mark.parametrize("name, case, data, line",
                         [pytest.param(*c, id=f"{c[0]}-{c[1]}") for c in CLI_CASES])
def test_cli_exits_2_naming_each_malformed_input_file(tmp_path, capsys, name, case, data, line):
    path = tmp_path / f"bad-{name}.json"
    path.write_bytes(data)
    code = main(cli_argv(name, str(path), str(tmp_path / "out")))
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(path) in err
    if line:
        assert f"line {line}: " in err
