import math

import numpy as np
import pytest

from oracles import contact_table, gait_phase_table, timing_table
from quadkit.locomotion import (
    GAIT_NAMES,
    GAITS,
    GLOBAL_RANGES,
    LEVEL_RANGES,
    PARAMETERS,
    BehaviorParams,
    CommandVector,
    FootId,
    GaitOffsets,
    Level,
    desired_contact,
    desired_contacts,
    foot_phases,
    level_from_name,
    level_midpoint,
    level_name,
    level_range,
    sample_grid,
    timing_reference,
)

T_GRID = [round(k * 0.01, 2) for k in range(100)]


def test_foot_order_is_stable():
    assert [f.name for f in FootId] == ["FR", "FL", "RR", "RL"]
    assert [int(f) for f in FootId] == [0, 1, 2, 3]


def test_gait_presets_exact():
    assert GAITS["pronking"] == GaitOffsets(0.0, 0.0, 0.0)
    assert GAITS["trotting"] == GaitOffsets(0.5, 0.0, 0.0)
    assert GAITS["bounding"] == GaitOffsets(0.0, 0.5, 0.0)
    assert GAITS["pacing"] == GaitOffsets(0.0, 0.0, 0.5)


def test_foot_phases_examples():
    assert foot_phases(0.3, GAITS["pronking"]) == (0.3, 0.3, 0.3, 0.3)
    assert foot_phases(0.0, GAITS["trotting"]) == (0.0, 0.5, 0.5, 0.0)
    phases = foot_phases(0.9, GAITS["pacing"])
    expected = (0.4, 0.4, 0.9, 0.9)
    assert all(abs(a - b) < 1e-12 for a, b in zip(phases, expected))


@pytest.mark.parametrize("gait_name_", GAIT_NAMES)
def test_foot_phases_match_bruteforce(gait_name_):
    gait = GAITS[gait_name_]
    offsets = (gait.theta1, gait.theta2, gait.theta3)
    for t in T_GRID:
        got = foot_phases(t, gait)
        want = gait_phase_table(t, offsets)
        assert all(abs(a - b) < 1e-12 for a, b in zip(got, want))
        assert all(0.0 <= p < 1.0 for p in got)


@pytest.mark.parametrize("gait_name_", GAIT_NAMES)
def test_timing_reference_match_bruteforce(gait_name_):
    gait = GAITS[gait_name_]
    offsets = (gait.theta1, gait.theta2, gait.theta3)
    for t in T_GRID:
        got = timing_reference(t, gait)
        want = timing_table(t, offsets)
        assert all(abs(a - b) < 1e-12 for a, b in zip(got, want))
        assert all(-1.0 <= v <= 1.0 for v in got)


@pytest.mark.parametrize("gait_name_", GAIT_NAMES)
def test_desired_contact_match_bruteforce(gait_name_):
    gait = GAITS[gait_name_]
    offsets = (gait.theta1, gait.theta2, gait.theta3)
    for t in T_GRID:
        assert desired_contact(gait, t) == contact_table(t, offsets)
    rows = desired_contacts(gait, T_GRID)
    assert rows.shape == (len(T_GRID), 4) and rows.dtype == bool
    for t, row in zip(T_GRID, rows):
        assert tuple(row) == contact_table(t, offsets)


def test_timing_reference_examples():
    assert all(abs(v - 1.0) < 1e-12 for v in timing_reference(0.25, GAITS["pronking"]))
    assert all(abs(v) < 1e-12 for v in timing_reference(0.0, GAITS["pronking"]))
    trot = timing_reference(0.0, GAITS["trotting"])
    assert abs(trot[0]) < 1e-12 and abs(trot[3]) < 1e-12
    assert abs(trot[1]) < 1e-12 and abs(trot[2]) < 1e-12  # sin(pi) underflows to ~0


def test_desired_contact_examples():
    assert desired_contact(GAITS["pronking"], 0.25) == (True, True, True, True)
    assert desired_contact(GAITS["pronking"], 0.75) == (False, False, False, False)
    assert desired_contact(GAITS["trotting"], 0.25) == (True, False, False, True)


@pytest.mark.parametrize("gait_name_", GAIT_NAMES)
def test_desired_contacts_equal_scalar_at_simulated_phases(gait_name_):
    # phases as the surrogate steps them: k * f * dt reduced into [0, 1)
    gait = GAITS[gait_name_]
    for f in (1.5, 2.3, 3.7):
        phase = np.mod(np.arange(250) * (f * 0.02), 1.0)
        rows = desired_contacts(gait, phase)
        assert [tuple(row) for row in rows] == [desired_contact(gait, float(t)) for t in phase]


def test_desired_contacts_rejects_bad_fractions():
    assert desired_contacts(GAITS["trotting"], []).shape == (0, 4)
    for bad in ([0.2, 1.5], [-0.1], [float("nan")]):
        with pytest.raises(ValueError):
            desired_contacts(GAITS["trotting"], bad)


def test_cycle_fraction_bounds_rejected():
    with pytest.raises(ValueError):
        foot_phases(-0.1, GAITS["pronking"])
    with pytest.raises(ValueError):
        foot_phases(1.5, GAITS["trotting"])


def test_phase_periodicity():
    for name in GAIT_NAMES:
        gait = GAITS[name]
        for t in T_GRID:
            wrapped = (t + 1.0) % 1.0
            a = foot_phases(t, gait)
            b = foot_phases(wrapped, gait)
            assert all(abs(x - y) < 1e-12 for x, y in zip(a, b))


def test_trot_diagonal_pairs_in_phase():
    gait = GAITS["trotting"]
    for t in T_GRID:
        fr, fl, rr, rl = foot_phases(t, gait)
        assert fr == rl
        assert fl == rr


def test_pace_same_end_pairs_in_phase():
    gait = GAITS["pacing"]
    for t in T_GRID:
        fr, fl, rr, rl = foot_phases(t, gait)
        assert fr == fl
        assert rr == rl
        assert abs((fr - rr) % 1.0 - 0.5) < 1e-12


def test_contact_flips_once_per_cycle():
    for name in GAIT_NAMES:
        gait = GAITS[name]
        for foot in range(4):
            seq = [desired_contact(gait, t)[foot] for t in T_GRID]
            rises = sum(1 for a, b in zip(seq, seq[1:] + seq[:1]) if not a and b)
            falls = sum(1 for a, b in zip(seq, seq[1:] + seq[:1]) if a and not b)
            assert rises == 1 and falls == 1


def test_level_ranges_from_table():
    assert level_range("body_height", "high") == (0.3, 0.4)
    assert level_range("body_pitch", "neutral") == (-0.08, 0.08)
    assert level_range("step_frequency", "very_low") == (1.5, 2.0)
    assert level_range("stance_width", Level.VERY_HIGH) == (0.37, 0.45)
    assert level_range("swing_height", Level.VERY_LOW) == (0.03, 0.07)


def test_level_range_rejects_unknown_pairs():
    with pytest.raises(ValueError):
        level_range("body_mass", "high")
    with pytest.raises(ValueError):
        level_range("body_height", "sideways")
    with pytest.raises(ValueError):
        level_range("body_height", 7)


def test_level_intervals_cover_global_range():
    for name in PARAMETERS:
        intervals = LEVEL_RANGES[name]
        lo, hi = GLOBAL_RANGES[name]
        assert intervals[0][0] == lo
        assert intervals[-1][1] == hi
        for (a0, a1), (b0, b1) in zip(intervals, intervals[1:]):
            assert a1 == b0  # contiguous, interiors disjoint
            assert a0 < a1 and b0 < b1


def test_level_naming_schemes():
    assert level_name("body_pitch", Level.MEDIUM) == "neutral"
    assert level_name("body_height", Level.MEDIUM) == "medium"
    assert level_from_name("body_pitch", "Very Positive") == Level.VERY_HIGH
    assert level_from_name("body_pitch", "neural") == Level.MEDIUM
    assert level_from_name("step_frequency", "VERY LOW") == Level.VERY_LOW
    # an ordinal-equivalent name from the other scheme still resolves
    assert level_from_name("body_pitch", "medium") == Level.MEDIUM


def test_level_midpoints():
    assert level_midpoint("body_height", "high") == 0.35
    assert level_midpoint("body_pitch", "neutral") == 0.0


def test_sample_grid_examples():
    assert sample_grid("body_height", (0.3, 0.4)) == [0.3, 0.35, 0.4]
    assert sample_grid("swing_height", (0.03, 0.07)) == [0.03, 0.05, 0.07]
    assert sample_grid("body_pitch", (0.08, 0.08)) == [0.08]


def test_sample_grid_includes_off_grid_upper_bound():
    values = sample_grid("step_frequency", (3.0, 3.5))
    assert values == [3.0, 3.2, 3.4, 3.5]
    values = sample_grid("stance_width", (0.21, 0.29))
    assert values == [0.21, 0.26, 0.29]


def test_sample_grid_rejects_bad_intervals():
    with pytest.raises(ValueError):
        sample_grid("body_height", (0.4, 0.3))
    with pytest.raises(ValueError):
        sample_grid("body_height", (0.0, 0.2))


def test_command_vector_validation():
    cmd = CommandVector(1.0, 0.0, 0.0)
    cmd.validate()
    with pytest.raises(ValueError):
        CommandVector(float("nan"), 0.0, 0.0)
    with pytest.raises(ValueError):
        CommandVector(2.5, 0.0, 0.0).validate()
    with pytest.raises(ValueError):
        CommandVector(0.0, 0.0, 3.5).validate()
    CommandVector(2.5, 0.0, 0.0).validate(v_limit=3.0)


def test_behavior_params_validation():
    params = BehaviorParams(0.25, 3.0, 0.0, 0.25, 0.1, "trotting")
    params.validate()
    bad = BehaviorParams(0.5, 3.0, 0.0, 0.25, 0.1, "trotting")
    with pytest.raises(ValueError):
        bad.validate()
    # a gait is a preset name, not its offsets
    for gait in ("galloping", GAITS["trotting"]):
        with pytest.raises(ValueError, match="unknown gait preset"):
            BehaviorParams(0.25, 3.0, 0.0, 0.25, 0.1, gait).validate()


def test_gait_offsets_range_checked():
    with pytest.raises(ValueError):
        GaitOffsets(1.0, 0.0, 0.0)
    with pytest.raises(ValueError):
        GaitOffsets(-0.1, 0.0, 0.0)
