import dataclasses
import hashlib
import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import ndimage

from conftest import GRID_480, traced_peak_over_entry
from oracles import (
    InstanceMemoryOracle,
    cells_of,
    chebyshev_dilation,
    detection_of,
    flood_fill_labels,
    map_image_reference,
    mask_of,
    project_frame_reference,
    union_find_clusters,
)
from quadkit.config import MAX_SCENE_CELLS
from quadkit.errors import ConfigError
from quadkit.mapping import (
    Detection,
    Frame,
    InstanceMemory,
    LabeledPointCloud,
    Scene,
    SemanticMap,
    _label_components,
    dilate,
    ingest,
    load_scene,
    match_detection,
    merge,
    project_frame,
    save_scene,
)


def small_map(categories=("floor", "box"), m=100):
    return SemanticMap(categories, m=m, cell_size=0.05)


def make_frame(points, pose=(0.0, 0.0, 0.0), index=0):
    return Frame(index=index, pose=pose, cloud=LabeledPointCloud(points=tuple(points)))


def detection(cells, class_id=0, frame=0, m=100):
    """A detection of the given cells of an m x m map (a crop of their bbox)."""
    assert all(0 <= r < m and 0 <= c < m for r, c in cells)
    return detection_of(cells, class_id, frame)


def class_coverage(memory, class_id):
    return set().union(*(cells_of(r.cells) for r in memory.instances.values()
                         if r.class_id == class_id))


def test_channel_layout_k_equals_c_plus_3():
    # C int32 owner channels and two bool masks; the canonical image has C + 3 planes
    for c in (1, 5, 20):
        smap = SemanticMap([f"cat{i}" for i in range(c)], m=64)
        assert smap.grid.shape == (c, 64, 64) and smap.grid.dtype == np.int32
        assert smap.explored.shape == smap.visited.shape == (64, 64)
        assert smap.explored.dtype == smap.visited.dtype == bool
        assert smap.current_cell is None
        planes = list(smap.image_planes())
        assert len(planes) == c + 3
        assert all(p.shape == (64, 64) and p.dtype == np.int32 for p in planes)
        assert not map_image_reference(smap).any()


def test_world_to_cell_examples():
    smap = SemanticMap(["a"], m=480)
    assert smap.world_to_cell(0.0, 0.0) == (240, 240)
    assert smap.world_to_cell(1.0, 0.5) == (250, 260)
    assert smap.world_to_cell(-0.05, 0.0) == (240, 239)
    with pytest.raises(ValueError):
        smap.world_to_cell(100.0, 0.0)


def test_cell_world_roundtrip():
    smap = small_map()
    for cell in ((50, 50), (10, 80), (99, 0)):
        x, y = smap.cell_to_world(*cell)
        assert smap.world_to_cell(x, y) == cell


def test_current_position_channel_single_cell():
    smap = small_map()
    project_frame(smap, LabeledPointCloud(()), (0.0, 0.0, 0.0))
    assert smap.current_cell == (50, 50)
    assert map_image_reference(smap)[-2].sum() == 1
    project_frame(smap, LabeledPointCloud(()), (1.0, 1.0, 0.0))
    assert smap.current_cell == (70, 70)
    image = map_image_reference(smap)
    assert image[-2].sum() == 1 and image[-2][70, 70] == 1
    assert cells_of(smap.visited) == {(50, 50), (70, 70)}
    assert image[-1].sum() == 2


@pytest.mark.parametrize("cell", [(-1, 0), (0, -1), (100, 0), (0, 100), (-100, 5)])
def test_mark_pose_rejects_a_cell_off_the_grid(cell):
    # a negative index would otherwise wrap to the far edge of the grid
    smap = small_map()
    smap.mark_pose(3, 4)
    with pytest.raises(ValueError, match=r"outside the 100x100 grid"):
        smap.mark_pose(*cell)
    assert smap.current_cell == (3, 4)
    assert cells_of(smap.visited) == cells_of(smap.explored) == {(3, 4)}


def test_project_empty_cloud_updates_only_explored_and_pose():
    smap = small_map()
    detections = project_frame(smap, LabeledPointCloud(()), (0.0, 0.0, 0.0))
    assert detections == []
    assert smap.explored.any()
    assert not smap.grid.any()


def test_project_single_point():
    smap = SemanticMap(["a", "b", "c"], m=480)
    detections = project_frame(smap, LabeledPointCloud(((1.0, 0.5, 0.3, 2),)),
                               (0.0, 0.0, 0.0))
    assert len(detections) == 1
    det = detections[0]
    assert det.class_id == 2
    assert det.bbox == (0, (250, 260, 250, 260)) and det.cells.shape == (1, 1)
    assert cells_of(det) == frozenset({(250, 260)})
    # projection writes no category channel; ingest's claims are its only writer
    assert not smap.grid.any()


def test_project_ignores_points_above_ceiling():
    smap = small_map()
    detections = project_frame(smap, LabeledPointCloud(((1.0, 0.5, 2.5, 0),)),
                               (0.0, 0.0, 0.0))
    assert detections == []


def test_project_two_clusters_two_detections():
    smap = small_map()
    points = [(1.0, 1.0, 0.1, 1), (1.05, 1.0, 0.1, 1),     # cluster A
              (-1.0, -1.0, 0.1, 1), (-1.05, -1.0, 0.1, 1)]  # cluster B, 2 m away
    detections = project_frame(smap, LabeledPointCloud(tuple(points)), (0.0, 0.0, 0.0))
    assert len(detections) == 2
    assert all(d.class_id == 1 for d in detections)
    assert all(len(cells_of(d)) == 2 and d.cells.shape == (1, 2) for d in detections)


@pytest.mark.parametrize("point, message", [
    ((0.0, 0.0, 0.1, 2), "category id 2"),
    ((0.0, 0.0, 5.0, -1), "category id -1"),  # checked before the height filter
])
def test_project_frame_rejects_bad_points_with_value_error(point, message):
    smap = SemanticMap(["floor", "box"], m=100, cell_size=0.05, origin=(-2.7, 0.0))
    with pytest.raises(ValueError, match=message):
        project_frame(smap, LabeledPointCloud((point,)), (-2.7, 0.0, 0.0))


@pytest.mark.parametrize("m, cell_size, origin, x, y", [
    (5, 1.0, (0.0, 0.0), 2.5, 2.5),  # odd M: the centre of cell (4, 4) is on the map
    # inside a float extent test, but the cell formula floors to column M
    (480, 0.05, (-7.77, 0.0), 4.2299999999999995, 0.0),
    (100, 0.05, (-2.7, 0.0), -0.2000000000000002, 0.0),
], ids=["odd-m-last-cell", "m480-floors-to-m", "m100-floors-to-m"])
def test_project_frame_keeps_exactly_the_points_world_to_cell_places(m, cell_size, origin,
                                                                     x, y):
    smap = SemanticMap(["floor"], m=m, cell_size=cell_size, origin=origin)
    detections = project_frame(smap, LabeledPointCloud(((x, y, 0.1, 0),)),
                               (origin[0], origin[1], 0.0))
    try:
        expected = {smap.world_to_cell(x, y)}
    except ValueError:
        expected = set()
    assert set().union(*(cells_of(d) for d in detections)) == expected
    assert expected <= cells_of(smap.explored)


def test_dilate_identity_and_single_cell():
    cells = {(5, 5), (7, 9)}
    assert cells_of(dilate(mask_of(cells, 40), 0)) == cells
    assert cells_of(dilate(mask_of({(5, 5)}, 40), 1)) == \
        {(r, c) for r in range(4, 7) for c in range(4, 7)}
    with pytest.raises(ValueError):
        dilate(mask_of(cells, 40), -1)


def test_dilate_matches_bruteforce_oracle():
    rng = np.random.default_rng(3)
    for _ in range(200):
        n = int(rng.integers(1, 12))
        cells = {(int(rng.integers(0, 40)), int(rng.integers(0, 40))) for _ in range(n)}
        p = int(rng.integers(0, 4))
        assert cells_of(dilate(mask_of(cells, 40), p)) == chebyshev_dilation(cells, p, 40)
        # unclipped: the same cells on a grid padded by 3 on every side
        shifted = {(r + 3, c + 3) for (r, c) in cells}
        assert cells_of(dilate(mask_of(shifted, 46), p)) == chebyshev_dilation(shifted, p)


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_dilate_matches_oracle_and_ndimage_on_any_square_grid(data):
    # p >= m and the 1 x 1 grid included; the result is a fresh bool array
    m = data.draw(st.integers(1, 12))
    p = data.draw(st.integers(0, 15))
    mask = np.array(data.draw(st.lists(st.booleans(), min_size=m * m, max_size=m * m)))
    mask = mask.reshape(m, m)
    before = mask.copy()
    out = dilate(mask, p)
    assert out.shape == (m, m) and out.dtype == bool
    assert cells_of(out) == chebyshev_dilation(cells_of(mask), p, m)
    assert np.array_equal(out, ndimage.maximum_filter(mask, size=2 * p + 1, mode="constant"))
    out ^= True
    assert np.array_equal(mask, before)


def test_dilate_huge_radius_equals_grid_wide_radius():
    mask = np.random.default_rng(5).random((40, 40)) < 0.05
    assert np.array_equal(dilate(mask, 10**9), dilate(mask, 39))


def assert_labels_match_oracle_and_ndimage(mask):
    labels, slices = _label_components(mask)
    ref_labels, ref_slices = flood_fill_labels(mask)
    assert labels.dtype == np.int32 and np.array_equal(labels, ref_labels)
    assert slices == ref_slices
    nd_labels, _ = ndimage.label(mask, structure=np.ones((3, 3), dtype=bool))
    assert np.array_equal(labels, nd_labels)
    assert slices == ndimage.find_objects(nd_labels)


@settings(max_examples=300, deadline=None)
@given(h=st.integers(1, 40), w=st.integers(1, 40), density=st.floats(0.0, 1.0),
       seed=st.integers(0, 2**32 - 1))
@example(h=40, w=40, density=0.0, seed=0)  # all false
@example(h=40, w=40, density=1.0, seed=0)  # all true
@example(h=1, w=40, density=0.6, seed=1)  # a single row
@example(h=40, w=1, density=0.6, seed=2)  # a single column
def test_label_components_matches_flood_fill_and_ndimage(h, w, density, seed):
    mask = np.random.default_rng(seed).random((h, w)) < density
    assert_labels_match_oracle_and_ndimage(mask)


@pytest.mark.parametrize("density", [0.2, 0.5])
def test_label_components_dense_full_size_map(density):
    assert_labels_match_oracle_and_ndimage(np.random.default_rng(7).random((480, 480)) < density)


def test_match_detection_semantics():
    memory = InstanceMemory(small_map(), p=2)
    det_a = detection({(10, 10), (10, 11)}, class_id=0)
    assert match_detection(det_a, memory) is None
    iid = memory.create(det_a)
    # same class, dilated overlap -> match
    det_b = detection({(10, 13)}, class_id=0)
    assert match_detection(det_b, memory) == iid
    # overlap but different class -> no match
    det_c = detection({(10, 10)}, class_id=1)
    assert match_detection(det_c, memory) is None
    # beyond the dilation radius -> no match
    det_d = detection({(10, 20)}, class_id=0)
    assert match_detection(det_d, memory) is None


@pytest.mark.parametrize("class_id", [-1, 2])
def test_match_detection_rejects_a_class_id_outside_the_categories(class_id):
    # -1 would read the last category's channel and match instance 1; 2 would
    # raise a raw IndexError
    smap = small_map()
    memory = InstanceMemory(smap, p=1)
    smap.mark_pose(5, 5)
    memory.create(detection({(5, 5)}, class_id=1))
    with pytest.raises(ValueError, match=rf"category id {class_id} outside \[0, 2\)"):
        match_detection(detection({(5, 5)}, class_id=class_id), memory)


def test_detection_cells_must_crop_the_bbox():
    with pytest.raises(ValueError, match="do not crop the bbox"):
        Detection(bbox=(0, (5, 5, 6, 7)), class_id=0, cells=np.ones((2, 2), dtype=bool))
    det = detection({(5, 5), (6, 7)})
    assert det.cells.shape == (2, 3) and det.window == (slice(5, 7), slice(5, 8))
    assert cells_of(det) == {(5, 5), (6, 7)}


def test_instance_memory_rejects_a_negative_dilation_radius():
    with pytest.raises(ValueError, match="dilation radius"):
        InstanceMemory(small_map(), p=-1)


def test_match_detection_largest_overlap_then_lowest_id():
    memory = InstanceMemory(small_map(), p=1)
    small = memory.create(detection({(0, 0)}, class_id=0))
    big = memory.create(detection({(5, 5), (5, 6), (5, 7)}, class_id=0))
    probe = detection({(1, 1), (4, 5), (4, 6)}, class_id=0)
    assert match_detection(probe, memory) == big
    # exact tie in overlap -> lowest instance id
    memory2 = InstanceMemory(small_map(), p=1)
    first = memory2.create(detection({(0, 0)}, class_id=0))
    memory2.create(detection({(10, 10)}, class_id=0))
    probe2 = detection({(1, 1), (9, 9)}, class_id=0)
    assert match_detection(probe2, memory2) == first


def test_merge_semantics():
    memory = InstanceMemory(small_map(), p=1)
    iid = memory.create(detection({(5, 5), (5, 6)}, class_id=0, frame=0))
    rec = memory.instances[iid]
    # subset: cells unchanged, views grow by one
    merge(iid, detection({(5, 5)}, class_id=0, frame=1), memory)
    assert cells_of(rec.cells) == {(5, 5), (5, 6)}
    assert len(rec.views) == 2
    # disjoint: cardinality grows by the detection size
    merge(iid, detection({(8, 8), (8, 9)}, class_id=0, frame=2), memory)
    assert len(cells_of(rec.cells)) == 4
    # idempotence: merging the same detection twice equals once
    before = cells_of(rec.cells)
    merge(iid, detection({(8, 8), (8, 9)}, class_id=0, frame=2), memory)
    assert cells_of(rec.cells) == before
    with pytest.raises(ValueError):
        merge(iid, detection({(1, 1)}, class_id=1, frame=3), memory)


def test_create_leaves_owned_cells_with_their_first_owner():
    # Same-class records own disjoint cells, a direct create included.
    memory = InstanceMemory(small_map(), p=1)
    first = memory.create(detection({(5, 5), (5, 6)}, class_id=0, frame=0))
    second = memory.create(detection({(5, 6), (5, 7)}, class_id=0, frame=1))
    other = memory.create(detection({(5, 6)}, class_id=1, frame=2))
    assert cells_of(memory.instances[first].cells) == {(5, 5), (5, 6)}
    assert cells_of(memory.instances[second].cells) == {(5, 7)}
    assert cells_of(memory.instances[other].cells) == {(5, 6)}
    assert memory.instances[second].views == {(1, (5, 6, 5, 7))}


cell_12 = st.tuples(st.integers(0, 11), st.integers(0, 11))


@settings(max_examples=200, deadline=None)
@given(p=st.integers(0, 3),
       steps=st.lists(st.tuples(st.sets(cell_12, min_size=1, max_size=12), st.integers(0, 1),
                                st.sampled_from(["match", "create", "merge"]),
                                st.integers(0, 99)),
                      min_size=1, max_size=12))
def test_instance_memory_equals_cell_set_oracle(p, steps):
    # "match" merges into the matched instance or creates one, as ingest does;
    # "create" and "merge" act directly, overlapping same-class records included.
    memory, oracle = InstanceMemory(small_map(m=12), p=p), InstanceMemoryOracle(p, m=12)
    for frame, (cells, class_id, op, pick) in enumerate(steps):
        det = detection(cells, class_id=class_id, frame=frame, m=12)
        matched = match_detection(det, memory)
        assert matched == oracle.match(cells, class_id)
        same_class = sorted(i for i, c in oracle.classes.items() if c == class_id)
        target = matched if op == "match" else (
            same_class[pick % len(same_class)] if op == "merge" and same_class else None)
        if target is None:
            assert memory.create(det) == oracle.create(cells, class_id, det.bbox)
        else:
            assert cells_of(merge(target, det, memory)) == oracle.merge(target, cells, det.bbox)
        assert sorted(memory.instances) == sorted(oracle.cells)
        for iid, rec in memory.instances.items():
            assert rec.class_id == oracle.classes[iid]
            assert cells_of(rec.cells) == oracle.cells[iid]
            assert rec.views == oracle.views[iid]


# A world coordinate on an m x m map of 5 cm cells: anywhere from a little off
# the grid on one side to a little off it on the other, or exactly on a cell
# edge (the grid's own edges included) or a hair either side of one.
def coordinates(m):
    half = m * 0.05 / 2
    edge = st.builds(lambda k, nudge: (k - m // 2) * 0.05 + nudge,
                     st.integers(-1, m + 1), st.sampled_from([0.0, 1e-9, -1e-9]))
    return st.one_of(st.floats(-half - 0.2, half + 0.2), edge)


@st.composite
def projections(draw):
    m = draw(st.integers(1, 25))
    cats = ["a", "b", "c"]
    xy = coordinates(m)
    points = draw(st.lists(st.tuples(xy, xy, st.sampled_from([-0.01, 0.0, 0.3, 1.99, 2.0]),
                                     st.integers(0, len(cats) - 1)), max_size=60))
    pose_cell = draw(st.tuples(st.integers(0, m - 1), st.integers(0, m - 1)))
    sensor_range = draw(st.sampled_from([0.0, 0.05, 0.17, 0.5, 3.0]))
    return m, cats, points, pose_cell, sensor_range


@settings(max_examples=300, deadline=None)
@given(case=projections(), frame_index=st.integers(0, 5))
@example(case=(7, ["a", "b", "c"], [], (3, 3), 0.17), frame_index=0)  # an empty frame
@example(case=(5, ["a", "b", "c"], [(0.125, 0.125, 0.1, 0), (-0.125, -0.125, 0.1, 0),
                                    (-0.126, 0.0, 0.1, 1), (0.1, 0.0, 0.1, 2)],
               (0, 4), 0.05), frame_index=2)  # both grid edges of odd M, one point off
def test_project_frame_crops_equal_the_full_grid_reference(case, frame_index):
    m, cats, points, (pr, pc), sensor_range = case
    got_map, want_map = (SemanticMap(cats, m=m, cell_size=0.05) for _ in range(2))
    pose = got_map.cell_to_world(pr, pc) + (0.0,)
    cloud = LabeledPointCloud(tuple(points))
    got = project_frame(got_map, cloud, pose, frame_index, sensor_range)
    want = project_frame_reference(want_map, cloud, pose, frame_index, sensor_range)
    assert [(d.bbox, d.class_id) for d in got] == [(bbox, cls) for bbox, cls, _ in want]
    for det, (_, _, full) in zip(got, want):
        placed = np.zeros((m, m), dtype=bool)
        placed[det.window] = det.cells
        assert np.array_equal(placed, full)
        assert cells_of(det) == cells_of(full)
    assert np.array_equal(got_map.explored, want_map.explored)
    assert got_map.current_cell == want_map.current_cell == (pr, pc)
    assert np.array_equal(got_map.visited, want_map.visited)
    assert not got_map.grid.any()


def plan_like_frame(index, row, col, m=480):
    """A frame like the 480 x 480 plan benchmark's: a 70-cell floor patch, a
    rug patch, two boxes and a chair around the pose cell (row, col)."""
    half = m // 2

    def patch(r0, c0, side, z, cat):
        rows, cols = np.mgrid[r0:r0 + side, c0:c0 + side]
        x, y = (cols.ravel() - half + 0.5) * 0.05, (rows.ravel() - half + 0.5) * 0.05
        return np.column_stack([x, y, np.full(x.size, z), np.full(x.size, cat)])

    points = np.concatenate([
        patch(row - 35, col - 35, 70, 0.0, 0), patch(row - 10, col - 20, 40, 0.01, 1),
        patch(row - 55, col - 10, 20, 0.4, 2), patch(row + 35, col - 5, 20, 0.4, 2),
        patch(row - 3, col + 25, 6, 0.45, 3)])
    pose = ((col - half + 0.5) * 0.05, (row - half + 0.5) * 0.05, 0.0)
    return Frame(index=index, pose=pose, cloud=LabeledPointCloud(points))


def test_ingest_of_a_plan_like_frame_holds_under_a_quarter_grid():
    smap = SemanticMap(["floor", "rug", "box", "chair"], m=480, cell_size=0.05)
    memory = InstanceMemory(smap, p=3)
    ingest(smap, memory, plan_like_frame(0, 240, 100))
    frame = plan_like_frame(1, 250, 140)  # overlaps the first: matches and merges
    touched, peak = traced_peak_over_entry(lambda: ingest(smap, memory, frame))
    # the frame's point-sized temporaries, the sensor disk and the bbox-sized
    # labeling; no (M, M) array per detection or per category
    assert peak < 0.25 * GRID_480
    assert touched == [1, 2, 6, 7, 8]  # the floor and the rug merge; the rest is new


def test_instance_records_hold_no_arrays_and_read_the_category_channel():
    smap = small_map()
    memory = InstanceMemory(smap, p=2)
    ingest(smap, memory, make_frame([(1.0, 1.0, 0.1, 1), (1.05, 1.0, 0.1, 1),
                                     (-1.0, 1.0, 0.1, 0), (1.0, -1.0, 0.1, 1)]))
    assert len(memory) == 3
    for rec in memory.instances.values():
        assert not any(isinstance(getattr(rec, f.name), np.ndarray)
                       for f in dataclasses.fields(rec))
        assert np.array_equal(rec.cells, smap.grid[rec.class_id] == rec.instance_id)


def test_ingest_rejects_a_memory_bound_to_another_map():
    frame = make_frame([(1.0, 1.0, 0.1, 1)])
    smap = small_map()
    memory = InstanceMemory(smap, p=2)
    other = small_map()
    with pytest.raises(ValueError, match="another map"):
        ingest(other, memory, frame)
    for untouched in (other, smap):
        assert not map_image_reference(untouched).any()
        assert untouched.current_cell is None
    assert len(memory) == 0
    ingest(smap, memory, frame)
    assert len(memory) == 1


@pytest.mark.parametrize("class_id", [-1, 2, 5])
def test_create_and_merge_reject_a_class_id_outside_the_categories(class_id):
    # -1 would otherwise index the last category channel and 2 raise IndexError
    smap = small_map()
    memory = InstanceMemory(smap, p=1)
    iid = memory.create(detection({(5, 5)}, class_id=0))
    before = smap.grid.copy()
    bad = detection({(6, 6)}, class_id=class_id)
    with pytest.raises(ValueError, match=rf"category id {class_id} outside \[0, 2\)"):
        memory.create(bad)
    with pytest.raises(ValueError, match=rf"category id {class_id} outside \[0, 2\)"):
        merge(iid, bad, memory)
    assert np.array_equal(smap.grid, before)
    assert list(memory.instances) == [iid] and memory.instances[iid].views == {(0, (5, 5, 5, 5))}


def test_ingest_two_frames_one_instance_two_views():
    smap = small_map()
    memory = InstanceMemory(smap, p=3)
    points = [(1.0, 1.0, 0.1, 1), (1.05, 1.0, 0.1, 1)]
    ingest(smap, memory, make_frame(points, pose=(0.0, 0.0, 0.0), index=0))
    ingest(smap, memory, make_frame(points, pose=(0.5, 0.5, 0.3), index=1))
    assert len(memory) == 1
    rec = next(iter(memory.instances.values()))
    assert len(rec.views) == 2


def test_ingest_chain_merges_to_single_instance():
    smap = small_map()
    memory = InstanceMemory(smap, p=2)
    # three same-class blobs, each within dilation reach of the previous
    frames = [
        make_frame([(1.0, 1.0, 0.1, 1)], index=0),
        make_frame([(1.1, 1.0, 0.1, 1)], index=1),
        make_frame([(1.2, 1.0, 0.1, 1)], index=2),
    ]
    for f in frames:
        ingest(smap, memory, f)
    assert len(memory) == 1
    assert len(cells_of(next(iter(memory.instances.values())).cells)) == 3


def test_ingest_disjoint_classes_one_instance_each():
    smap = SemanticMap(["a", "b", "c"], m=100)
    memory = InstanceMemory(smap, p=2)
    points = [(1.0, 1.0, 0.1, 0), (-1.0, 1.0, 0.1, 1), (1.0, -1.0, 0.1, 2)]
    ids = ingest(smap, memory, make_frame(points))
    assert len(ids) == 3
    assert len(memory) == 3


def test_ingest_is_deterministic():
    def run():
        smap = small_map()
        memory = InstanceMemory(smap, p=2)
        rng = np.random.default_rng(11)
        for i in range(5):
            pts = [(float(rng.uniform(-2, 2)), float(rng.uniform(-2, 2)),
                    0.1, int(rng.integers(0, 2))) for _ in range(20)]
            ingest(smap, memory, make_frame(pts, index=i))
        return (map_image_reference(smap),
                {i: (r.class_id, frozenset(cells_of(r.cells)), frozenset(r.views))
                 for i, r in memory.instances.items()})
    grid_a, mem_a = run()
    grid_b, mem_b = run()
    assert np.array_equal(grid_a, grid_b)
    assert mem_a == mem_b


def test_ingest_coverage_matches_union_find_oracle():
    smap = small_map()
    memory = InstanceMemory(smap, p=2)
    rng = np.random.default_rng(29)
    all_detections = []
    for i in range(30):
        pts = [(float(rng.uniform(-2, 2)), float(rng.uniform(-2, 2)),
                0.1, int(rng.integers(0, 2))) for _ in range(15)]
        frame = make_frame(pts, index=i)
        # collect the detections an independent projection produces
        probe_map = small_map()
        dets = project_frame(probe_map, frame.cloud, frame.pose, frame.index)
        all_detections.extend(dets)
        ingest(smap, memory, frame)
    clusters, by_class = union_find_clusters(all_detections, p=2, m=100)
    for class_id in (0, 1):
        assert class_coverage(memory, class_id) == by_class.get(class_id, set())
    # each instance is contained in exactly one same-class union-find cluster
    for rec in memory.instances.values():
        containing = [cells for cls, cells in clusters.values()
                      if cls == rec.class_id and cells_of(rec.cells) <= cells]
        assert len(containing) == 1


def test_ingest_partition_property():
    smap = small_map()
    memory = InstanceMemory(smap, p=2)
    rng = np.random.default_rng(31)
    for i in range(20):
        pts = [(float(rng.uniform(-1, 1)), float(rng.uniform(-1, 1)),
                0.1, int(rng.integers(0, 2))) for _ in range(12)]
        ingest(smap, memory, make_frame(pts, index=i))
    for class_id in (0, 1):
        channel = smap.grid[class_id]
        nonzero = {(int(r), int(c)) for r, c in zip(*np.nonzero(channel))}
        owners = {}
        for rec in memory.instances.values():
            if rec.class_id != class_id:
                continue
            for cell in cells_of(rec.cells):
                assert cell not in owners, "cell owned by two instances"
                owners[cell] = rec.instance_id
        assert set(owners) == nonzero
        for cell, iid in owners.items():
            assert channel[cell] == iid


@settings(max_examples=60, deadline=None)
@given(m=st.integers(1, 15), frames=st.lists(
    st.lists(st.tuples(st.floats(-0.5, 0.5), st.floats(-0.5, 0.5), st.integers(0, 2)),
             max_size=20),
    min_size=1, max_size=4))
def test_ingest_leaves_every_category_cell_to_an_instance_of_its_class(m, frames):
    # odd M and points off the map (the extent is m * 5 cm) included
    smap = SemanticMap(["a", "b", "c"], m=m, cell_size=0.05)
    memory = InstanceMemory(smap, p=1)
    for i, pts in enumerate(frames):
        ingest(smap, memory, make_frame([(x, y, 0.1, c) for x, y, c in pts], index=i))
    for class_id in range(smap.num_categories):
        ids = {i for i, r in memory.instances.items() if r.class_id == class_id}
        assert set(np.unique(smap.grid[class_id]).tolist()) - {0} == ids
    assert all(r.cells.any() for r in memory.instances.values())


def test_scene_roundtrip(tmp_path):
    scene = Scene(categories=["floor", "box"], m=100, cell_size=0.05,
                  frames=[make_frame([(1.0, 1.0, 0.1, 1)], pose=(0.0, 0.0, 0.5))],
                  start_pose=(-1.0, 0.0, 0.0))
    path = tmp_path / "scene.jsonl"
    save_scene(scene, path)
    loaded = load_scene(path)
    assert loaded.categories == scene.categories
    assert loaded.m == scene.m
    assert loaded.start_pose == scene.start_pose
    assert loaded.frames[0].pose == (0.0, 0.0, 0.5)
    assert np.array_equal(loaded.frames[0].cloud.points, [(1.0, 1.0, 0.1, 1)])


def test_class_coverage_is_order_invariant():
    rng = np.random.default_rng(57)
    frames = []
    for i in range(8):
        pts = [(float(rng.uniform(-1.5, 1.5)), float(rng.uniform(-1.5, 1.5)),
                0.1, int(rng.integers(0, 2))) for _ in range(10)]
        frames.append(make_frame(pts, index=i))

    def coverage(order):
        smap = small_map()
        memory = InstanceMemory(smap, p=2)
        for idx in order:
            ingest(smap, memory, frames[idx])
        return {cls: class_coverage(memory, cls) for cls in (0, 1)}

    forward = coverage(range(8))
    backward = coverage(reversed(range(8)))
    shuffled = coverage([3, 0, 7, 5, 1, 6, 2, 4])
    assert forward == backward == shuffled


@pytest.mark.parametrize("text, line", [
    ("", None),
    ('{"M": 20}\n', 1),
    ('{"categories": ["floor"]}\n\n{"points": []}\n', 3),
    ('{"categories": ["floor"]}\n{"pose": [0, 0, 0]}\nnot json\n', 3),
    ('{"categories": ["floor"]}\n[1, 2]\n', 2),
    ('{"categories": ["floor"]}\n{"pose": [0, 0]}\n', 2),
    ('{"categories": ["floor"], "start_pose": ["x", 0, 0]}\n', 1),
    ('{"categories": ["floor"]}\n{"pose": [0, 0, 0], "points": [[0.1, 0.1, 0.1, "1"]]}\n', 2),
    ('{"categories": ["floor"]}\n{"pose": [0, 0, 0], "points": [["0.1", 0.1, 0.1, 0]]}\n', 2),
    ('{"categories": ["floor"]}\n{"pose": [0, 0, 0], "points": [[0.1, 0.1, 0.1, 0]]}\n'
     '{"pose": [0, 0, 0], "points": [[0.1, 0.1, 0.1, 0], [0.1, 0.1, 0.1]]}\n', 3),
    ('{"categories": ["floor"]}\n{"pose": [0, 0, 0], "points": [0.1, 0.1, 0.1, 1]}\n', 2),
    ('{"categories": ["floor"]}\n{"pose": [0, 0, 0], "points": [[NaN, 0.1, 0.1, 0]]}\n', 2),
    ('{"categories": ["floor"]}\n{"pose": [NaN, 0, 0], "points": [[0.1, 0.1, 0.1, 0]]}\n', 2),
    ('{"categories": ["a", "b", "c"]}\n{"pose": [0, 0, 0], "points": [[0.1, 0.1, 0.1, 99]]}\n',
     2),
    ('{"categories": ["floor"]}\n{"pose": [1000, 0, 0], "points": [[0.1, 0.1, 0.1, 0]]}\n', 2),
    ('{"categories": ["floor"], "start_pose": [1000, 0, 0]}\n', 1),
    ('{"categories": ["a", "b"]}\n{"pose": [0, 0, 0], "points": [[0.1, 0.1, 0.1, 1.5]]}\n', 2),
    # A bad header field is named after its line number.
    ('{"categories": ["floor"], "origin": "ab"}\n', "1: origin"),
    ('{"categories": ["floor"], "origin": [1]}\n', "1: origin"),
    ('{"categories": ["floor"], "origin": [0, NaN]}\n', "1: origin"),
    ('{"categories": ["floor"], "M": 0}\n', "1: M"),
    ('{"categories": ["floor"], "M": -4}\n', "1: M"),
    ('{"categories": ["floor"], "M": 20.0}\n', "1: M"),
    ('{"categories": ["floor"], "cell_size": 0}\n', "1: cell_size"),
    ('{"categories": ["floor"], "cell_size": Infinity}\n', "1: cell_size"),
    ('{"categories": ["floor"], "cell_size": "0.05"}\n', "1: cell_size"),
    ('{"categories": "ab"}\n', "1: categories"),
    ('{"categories": []}\n', "1: categories"),
    ('{"categories": ["floor", 1]}\n', "1: categories"),
    ('{"categories": ["floor", "floor"]}\n', "1: categories"),
])
def test_load_scene_malformed_raises_config_error(tmp_path, text, line):
    path = tmp_path / "bad.jsonl"
    path.write_text(text)
    with pytest.raises(ConfigError) as err:
        load_scene(path)
    assert str(path) in str(err.value)
    if line is not None:
        assert f"line {line}" in str(err.value)


@pytest.mark.parametrize("text", ["\n", "\n  \n\t\n"])
def test_load_scene_of_blank_lines_is_empty(tmp_path, text):
    path = tmp_path / "blank.jsonl"
    path.write_text(text)
    with pytest.raises(ConfigError, match="is empty"):
        load_scene(path)


def test_load_scene_names_the_file_line_of_a_bad_frame_after_blank_lines(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('\n{"categories": ["floor"]}\n\n\n'
                    '{"pose": [0, 0, 0], "points": [[0.1, 0.1, 0.1, 0]]}\n\n'
                    '{"pose": [0, 0, 0], "points": [[0.1, 0.1, 0.1, 7]]}\n')
    with pytest.raises(ConfigError, match=r"bad\.jsonl, line 7: "):
        load_scene(path)


@pytest.mark.parametrize("categories, m", [(["floor"], 4096), (["a", "b", "c", "d"], 2048)])
def test_load_scene_takes_a_header_at_the_cell_ceiling_and_refuses_one_past_it(tmp_path,
                                                                               categories, m):
    # C x M x M = MAX_SCENE_CELLS exactly. load_scene reads the header only
    # and builds no map, so neither size is allocated here.
    assert len(categories) * m * m == MAX_SCENE_CELLS
    path = tmp_path / "big.jsonl"
    path.write_text(json.dumps({"categories": categories, "M": m}) + "\n")
    assert load_scene(path).m == m
    path.write_text(json.dumps({"categories": categories, "M": m + 1}) + "\n")
    with pytest.raises(ConfigError) as err:
        load_scene(path)
    assert f"big.jsonl, line 1: M={m + 1} makes" in str(err.value)
    assert f"ceiling of {MAX_SCENE_CELLS}" in str(err.value)


def test_load_scene_header_size_loads_within_the_ceiling_or_names_m(tmp_path):
    path = tmp_path / "header.jsonl"

    @settings(max_examples=100, deadline=None)
    @given(c=st.integers(1, 8), m=st.one_of(st.integers(1, 5000), st.integers(1, 10**30)))
    def check(c, m):
        path.write_text(json.dumps({"categories": [f"c{i}" for i in range(c)], "M": m}) + "\n")
        if c * m * m <= MAX_SCENE_CELLS:
            assert load_scene(path).m == m
        else:
            with pytest.raises(ConfigError, match=rf"line 1: M={m} makes {c} x {m} x {m}"):
                load_scene(path)

    check()


def test_first_named_returns_lowest_id_instance():
    smap = small_map()
    memory = InstanceMemory(smap, p=0)
    ingest(smap, memory, make_frame([(1.0, 1.0, 0.1, 1)], index=0))
    ingest(smap, memory, make_frame([(-1.0, -1.0, 0.1, 1)], index=1))
    assert len(memory) == 2
    assert memory.first_named(smap.categories[1]).instance_id == 1
    assert memory.first_named(smap.categories[0]) is None
    assert memory.first_named("no such category") is None
