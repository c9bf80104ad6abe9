import io
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from oracles import bilinear_oracle
from quadkit.terrain import (
    TERRAIN_TYPES,
    DownhillSlope,
    DownsideStair,
    UnevenGround,
    UphillSlope,
    UpsideStair,
    build,
    height_at,
    slope_roughness,
    terrain_by_name,
    write_pgm,
)

PLATFORMED = (UphillSlope(), DownhillSlope(), UpsideStair(), DownsideStair())


def test_table_defaults():
    assert UphillSlope() == UphillSlope(slope=-0.15, platform_size=0.6)
    assert DownhillSlope() == DownhillSlope(slope=0.4, platform_size=0.8)
    assert UpsideStair() == UpsideStair(step_width=0.5, step_height=-0.1, platform_size=0.8)
    assert DownsideStair() == DownsideStair(step_width=0.5, step_height=0.1, platform_size=1.0)
    assert UnevenGround() == UnevenGround(min_height=0.0, max_height=0.2, seed=0)


def test_terrain_by_name():
    assert terrain_by_name("uphill_slope") == UphillSlope()
    assert terrain_by_name("uneven_ground", seed=42).seed == 42
    with pytest.raises(ValueError):
        terrain_by_name("lava_field")


@pytest.mark.parametrize("spec", PLATFORMED)
def test_platform_center_height_zero(spec):
    hf = build(spec)
    assert height_at(hf, 0.0, 0.0) == 0.0


def test_upside_stair_height_past_platform():
    spec = UpsideStair()
    hf = build(spec)
    x = spec.platform_size / 2 + 1.3  # two full steps up
    assert abs(height_at(hf, x, 0.0) - 0.2) < 1e-12


def test_downside_stair_descends():
    spec = DownsideStair()
    hf = build(spec)
    x = spec.platform_size / 2 + 1.3
    assert abs(height_at(hf, x, 0.0) + 0.2) < 1e-12


def test_slopes_rise_and_fall():
    up = build(UphillSlope())
    down = build(DownhillSlope())
    d = 2.0
    assert abs(height_at(up, 0.3 + d, 0.0) - 0.15 * d) < 1e-9
    assert abs(height_at(down, 0.4 + d, 0.0) + 0.4 * d) < 1e-9


@pytest.mark.parametrize("spec", PLATFORMED)
def test_profile_mirrored_along_negative_x(spec):
    hf = build(spec)
    for x in (0.8, 1.3, 2.2, 3.1):
        assert abs(height_at(hf, x, 0.0) - height_at(hf, -x, 0.0)) < 1e-9


def test_uneven_ground_bounds_and_determinism():
    a = build(UnevenGround(seed=3))
    b = build(UnevenGround(seed=3))
    c = build(UnevenGround(seed=4))
    assert np.array_equal(a.heights, b.heights)
    assert not np.array_equal(a.heights, c.heights)
    assert a.heights.min() >= 0.0
    assert a.heights.max() <= 0.2


def test_stairs_piecewise_constant_with_step_discontinuities():
    spec = UpsideStair()
    hf = build(spec)
    half = spec.platform_size / 2
    # within one tread the height is constant
    inner = [height_at(hf, half + 0.6 + dx, 0.0) for dx in (0.0, 0.1, 0.2, 0.3)]
    assert max(inner) - min(inner) < 1e-12
    # across a tread boundary it jumps by one step height
    below = height_at(hf, half + 0.45, 0.0)
    above = height_at(hf, half + 0.55, 0.0)
    assert abs((above - below) - 0.1) < 1e-9


def test_slope_height_is_continuous():
    hf = build(UphillSlope())
    xs = np.linspace(-3.5, 3.5, 200)
    heights = [height_at(hf, float(x), 0.0) for x in xs]
    diffs = np.abs(np.diff(heights))
    assert diffs.max() < 0.02  # bounded by slope * sample spacing + interpolation


def test_height_at_cell_center_and_midpoint():
    hf = build(UphillSlope())
    n = hf.cells
    i, j = n // 2 + 3, n // 2 + 7
    x = hf.origin[0] + (j + 0.5) * hf.resolution
    y = hf.origin[1] + (i + 0.5) * hf.resolution
    assert height_at(hf, x, y) == hf.heights[i, j]
    mid = height_at(hf, x + hf.resolution / 2, y)
    assert abs(mid - 0.5 * (hf.heights[i, j] + hf.heights[i, j + 1])) < 1e-12


def test_height_at_matches_bruteforce_oracle():
    hf = build(UnevenGround(seed=11))
    rng = np.random.default_rng(5)
    for _ in range(300):
        x = float(rng.uniform(-3.9, 3.9))
        y = float(rng.uniform(-3.9, 3.9))
        want = bilinear_oracle(hf.heights, hf.resolution, hf.origin, x, y)
        assert abs(height_at(hf, x, y) - want) < 1e-12


def test_height_at_rejects_out_of_extent():
    hf = build(UphillSlope())
    with pytest.raises(ValueError):
        height_at(hf, 4.5, 0.0)
    with pytest.raises(ValueError):
        height_at(hf, 0.0, -4.01)


def test_slope_roughness_flat_platform():
    hf = build(UphillSlope())
    stats = slope_roughness(hf, (-0.25, -0.25, 0.25, 0.25))
    assert stats["mean_gradient"] == 0.0
    assert stats["height_span"] == 0.0


def test_slope_roughness_on_analytic_plane():
    hf = build(UphillSlope())
    stats = slope_roughness(hf, (1.0, -1.0, 3.0, 1.0))
    assert abs(stats["mean_gradient"] - 0.15) < 1e-9


def test_slope_roughness_reproducible_and_degenerate_region():
    a = slope_roughness(build(UnevenGround(seed=9)), (-1.0, -1.0, 1.0, 1.0))
    b = slope_roughness(build(UnevenGround(seed=9)), (-1.0, -1.0, 1.0, 1.0))
    assert a == b
    with pytest.raises(ValueError):
        slope_roughness(build(UphillSlope()), (0.0, 0.0, 0.01, 0.01))


def test_build_is_deterministic():
    for name in TERRAIN_TYPES:
        a = build(terrain_by_name(name))
        b = build(terrain_by_name(name))
        assert np.array_equal(a.heights, b.heights)


def test_exports(tmp_path):
    hf = build(UpsideStair(), extent=2.0)
    txt = tmp_path / "hf.txt"
    pgm = tmp_path / "hf.pgm"
    hf.to_text(txt)
    hf.to_pgm(pgm)
    loaded = np.loadtxt(txt)
    assert loaded.shape == hf.heights.shape
    header = pgm.read_text().splitlines()[:3]
    assert header[0] == "P2" and header[2] == "255"


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
