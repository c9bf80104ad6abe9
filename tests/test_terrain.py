import dataclasses
import io
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from quadkit.adaptation import TERRAIN_DESCRIPTIONS, direct_request, locate_request
from quadkit.surrogate import IDEAL_PROFILES
from quadkit.terrain import TERRAIN_TYPES, UphillSlope, terrain_by_name, write_pgm


def test_terrain_by_name():
    assert terrain_by_name("uphill_slope") == UphillSlope()
    with pytest.raises(ValueError):
        terrain_by_name("lava_field")


def test_a_terrain_is_its_name():
    # Nothing scores or describes a terrain but its name, so a spec holds no
    # geometry, and the three tables keyed by name cover the same terrains.
    for cls in TERRAIN_TYPES.values():
        assert dataclasses.fields(cls) == ()
    assert set(TERRAIN_TYPES) == set(TERRAIN_DESCRIPTIONS) == set(IDEAL_PROFILES)


@pytest.mark.parametrize("name", sorted(TERRAIN_TYPES))
def test_terrain_by_name_gives_the_named_spec(name):
    spec = terrain_by_name(name)
    assert type(spec) is TERRAIN_TYPES[name]
    assert spec.name == name
    assert spec == TERRAIN_TYPES[name]() and hash(spec) == hash(TERRAIN_TYPES[name]())
    with pytest.raises(dataclasses.FrozenInstanceError):
        spec.name = "lava_field"


@pytest.mark.parametrize("name", ["lava_field", "", "Uphill_Slope", " uphill_slope", "uphill-slope"])
def test_terrain_by_name_rejects_a_name_not_in_the_table(name):
    # Names are matched exactly: no case folding, trimming or separator mapping.
    with pytest.raises(ValueError) as err:
        terrain_by_name(name)
    assert str(err.value) == (f"unknown terrain '{name}'; valid: downhill_slope, "
                              "downside_stair, uneven_ground, uphill_slope, upside_stair")


@pytest.mark.parametrize("name, geometry", [
    ("uphill_slope", "rises 15 centimeters for every meter"),
    ("downhill_slope", "descends 40 centimeters for every meter"),
    ("upside_stair", "going up here. Each step is 10 centimeters in height and 50 centimeters"),
    ("downside_stair", "going down here. Each step is 10 centimeters in height and 50 centimeters"),
    ("uneven_ground", "maximum height is 20 cm, and the minimum height is 0 cm"),
])
def test_description_states_the_benchmark_geometry(name, geometry):
    # A spec holds no geometry; the benchmark's slopes, steps and roughness
    # reach the model only as this text.
    assert geometry in TERRAIN_DESCRIPTIONS[name]


@pytest.mark.parametrize("name", sorted(TERRAIN_TYPES))
def test_every_prompt_carries_the_terrain_description(name):
    description = TERRAIN_DESCRIPTIONS[name]
    for request in (locate_request(description), direct_request(description),
                    direct_request(description, with_prior=True)):
        assert description in request.user


INF = math.inf


@pytest.mark.parametrize("values, text", [
    # scaled over the finite range [0, 4]; inf is white; fractions truncate
    ([[0.0, 2.0, INF], [1.0, 4.0, 3.0]], "P2\n3 2\n255\n0 127 255\n63 255 191\n"),
    # a constant grid has span 0, which falls back to 1
    ([[-3.0, -3.0, -3.0]], "P2\n3 1\n255\n0 0 0\n"),
    # no finite value: every cell is white
    ([[INF, INF], [INF, INF]], "P2\n2 2\n255\n255 255\n255 255\n"),
    # the finite values span more than the largest float
    ([[-1e308, 1e308, 0.0]], "P2\n3 1\n255\n0 255 127\n"),
])
def test_write_pgm_text(tmp_path, values, text):
    path = tmp_path / "grid.pgm"
    write_pgm(path, np.array(values))
    assert path.read_text() == text


@settings(max_examples=200, deadline=None)
@given(values=arrays(float, st.tuples(st.integers(0, 12), st.integers(0, 12)),
                     elements=st.floats(allow_nan=False, allow_infinity=False)
                     | st.sampled_from([INF, -INF, math.nan])))
@example(values=np.array([[-1.7976931348623157e308, 1.7976931348623157e308, 5e-324, INF]]))
def test_write_pgm_rows_equal_savetxt(tmp_path_factory, values):
    path = tmp_path_factory.mktemp("pgm") / "grid.pgm"
    write_pgm(path, values)
    finite = values[np.isfinite(values)]
    lo = float(finite.min()) if finite.size else 0.0
    hi = float(finite.max()) if finite.size else 1.0
    if math.isinf(hi - lo):
        # A quarter of every value spans less than the largest float, and
        # scaling by a power of two changes no level.
        values = values / 4
        lo, hi = lo / 4, hi / 4
    span = hi - lo if hi > lo else 1.0
    scaled = np.where(np.isfinite(values), (values - lo) / span * 255.0, 255.0).astype(int)
    expected = io.StringIO()
    expected.write(f"P2\n{values.shape[1]} {values.shape[0]}\n255\n")
    np.savetxt(expected, scaled, fmt="%d")
    assert path.read_text() == expected.getvalue()


@pytest.mark.parametrize("dtype", [np.int8, np.int16, np.int32, np.int64, np.uint8])
def test_write_pgm_integer_grid_writes_the_levels_of_its_float_copy(tmp_path, dtype):
    values = np.random.default_rng(7).integers(0, 100, size=(40, 9)).astype(dtype)
    write_pgm(tmp_path / "int.pgm", values)
    write_pgm(tmp_path / "float.pgm", values.astype(float))
    assert (tmp_path / "int.pgm").read_text() == (tmp_path / "float.pgm").read_text()


@pytest.mark.parametrize("rows", [31, 32, 33, 64, 100])
@pytest.mark.parametrize("scale", [1.0, 1e308])
def test_write_pgm_equals_savetxt_across_row_blocks(tmp_path, rows, scale):
    # Enough rows for several of the writer's row blocks; at scale 1e308 the
    # finite values span more than the largest float.
    rng = np.random.default_rng(rows)
    values = rng.uniform(-1.0, 1.0, size=(rows, 7)) * scale
    values[rng.random(values.shape) < 0.1] = INF
    values[rng.random(values.shape) < 0.05] = math.nan
    path = tmp_path / "grid.pgm"
    write_pgm(path, values)
    finite = values[np.isfinite(values)]
    lo, hi = float(finite.min()), float(finite.max())
    if math.isinf(hi - lo):
        values, lo, hi = values / 4, lo / 4, hi / 4  # changes no level
    scaled = np.where(np.isfinite(values), (values - lo) / (hi - lo) * 255.0, 255.0).astype(int)
    expected = io.StringIO()
    expected.write(f"P2\n7 {rows}\n255\n")
    np.savetxt(expected, scaled, fmt="%d")
    assert path.read_text() == expected.getvalue()
