import math

import numpy as np
import pytest

from oracles import cells_of, chebyshev_dilation, mask_of, union_find_clusters
from quadkit.errors import ConfigError
from quadkit.mapping import (
    PRESENCE_MARK,
    Detection,
    Frame,
    InstanceMemory,
    LabeledPointCloud,
    Scene,
    SemanticMap,
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


def detection(cells, class_id=0, frame=0, p=0, m=100):
    rows = [c[0] for c in cells]
    cols = [c[1] for c in cells]
    det = Detection(bbox=(frame, (min(rows), min(cols), max(rows), max(cols))),
                    class_id=class_id, cells=mask_of(cells, m))
    return det.with_dilation(p)


def class_coverage(memory, class_id):
    return set().union(*(cells_of(r.cells) for r in memory.instances.values()
                         if r.class_id == class_id))


def test_channel_layout_k_equals_c_plus_3():
    for c in (1, 5, 20):
        smap = SemanticMap([f"cat{i}" for i in range(c)], m=64)
        assert smap.k == c + 3
        assert smap.grid.shape == (c + 3, 64, 64)
        assert not smap.grid.any()


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
    assert smap.grid[smap.current_pos_channel].sum() == 1
    project_frame(smap, LabeledPointCloud(()), (1.0, 1.0, 0.0))
    assert smap.grid[smap.current_pos_channel].sum() == 1
    assert smap.grid[smap.past_pos_channel].sum() == 2


def test_project_empty_cloud_updates_only_explored_and_pose():
    smap = small_map()
    detections = project_frame(smap, LabeledPointCloud(()), (0.0, 0.0, 0.0))
    assert detections == []
    assert smap.grid[smap.explored_channel].any()
    for ci in range(smap.num_categories):
        assert not smap.grid[ci].any()


def test_project_single_point():
    smap = SemanticMap(["a", "b", "c"], m=480)
    detections = project_frame(smap, LabeledPointCloud(((1.0, 0.5, 0.3, 2),)),
                               (0.0, 0.0, 0.0))
    assert len(detections) == 1
    det = detections[0]
    assert det.class_id == 2
    assert cells_of(det.cells) == frozenset({(250, 260)})
    channel = smap.grid[2]
    assert channel[250, 260] == PRESENCE_MARK
    assert (channel != 0).sum() == 1


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
    assert all(len(cells_of(d.cells)) == 2 for d in detections)


@pytest.mark.parametrize("point, message", [
    ((0.0, 0.0, 0.1, 2), "category id 2"),
    ((0.0, 0.0, 5.0, -1), "category id -1"),  # checked before the height filter
    # inside the extent test, but the cell formula floors to column M
    ((-0.2000000000000002, 0.0, 0.1, 0), "outside map extent"),
])
def test_project_frame_rejects_bad_points_with_value_error(point, message):
    smap = SemanticMap(["floor", "box"], m=100, cell_size=0.05, origin=(-2.7, 0.0))
    with pytest.raises(ValueError, match=message):
        project_frame(smap, LabeledPointCloud((point,)), (-2.7, 0.0, 0.0))


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


def test_match_detection_semantics():
    memory = InstanceMemory(p=2)
    det_a = detection({(10, 10), (10, 11)}, class_id=0, p=2)
    assert match_detection(det_a, memory) is None
    iid = memory.create(det_a)
    # same class, dilated overlap -> match
    det_b = detection({(10, 13)}, class_id=0, p=2)
    assert match_detection(det_b, memory) == iid
    # overlap but different class -> no match
    det_c = detection({(10, 10)}, class_id=1, p=2)
    assert match_detection(det_c, memory) is None
    # beyond the dilation radius -> no match
    det_d = detection({(10, 20)}, class_id=0, p=2)
    assert match_detection(det_d, memory) is None


def test_match_detection_largest_overlap_then_lowest_id():
    memory = InstanceMemory(p=1)
    small = memory.create(detection({(0, 0)}, class_id=0))
    big = memory.create(detection({(5, 5), (5, 6), (5, 7)}, class_id=0))
    probe = detection({(1, 1), (4, 5), (4, 6)}, class_id=0, p=1)
    assert match_detection(probe, memory) == big
    # exact tie in overlap -> lowest instance id
    memory2 = InstanceMemory(p=1)
    first = memory2.create(detection({(0, 0)}, class_id=0))
    memory2.create(detection({(10, 10)}, class_id=0))
    probe2 = detection({(1, 1), (9, 9)}, class_id=0, p=1)
    assert match_detection(probe2, memory2) == first


def test_merge_semantics():
    memory = InstanceMemory(p=1)
    iid = memory.create(detection({(5, 5), (5, 6)}, class_id=0, frame=0))
    rec = memory.instances[iid]
    # subset: cells unchanged, views grow by one
    merge(iid, detection({(5, 5)}, class_id=0, frame=1, p=1), memory)
    assert cells_of(rec.cells) == {(5, 5), (5, 6)}
    assert len(rec.views) == 2
    # disjoint: cardinality grows by the detection size
    merge(iid, detection({(8, 8), (8, 9)}, class_id=0, frame=2, p=1), memory)
    assert len(cells_of(rec.cells)) == 4
    # idempotence: merging the same detection twice equals once
    before = cells_of(rec.cells)
    merge(iid, detection({(8, 8), (8, 9)}, class_id=0, frame=2, p=1), memory)
    assert cells_of(rec.cells) == before
    with pytest.raises(ValueError):
        merge(iid, detection({(1, 1)}, class_id=1, frame=3, p=1), memory)


def test_ingest_two_frames_one_instance_two_views():
    smap = small_map()
    memory = InstanceMemory(p=3)
    points = [(1.0, 1.0, 0.1, 1), (1.05, 1.0, 0.1, 1)]
    ingest(smap, memory, make_frame(points, pose=(0.0, 0.0, 0.0), index=0))
    ingest(smap, memory, make_frame(points, pose=(0.5, 0.5, 0.3), index=1))
    assert len(memory) == 1
    rec = next(iter(memory.instances.values()))
    assert len(rec.views) == 2


def test_ingest_chain_merges_to_single_instance():
    smap = small_map()
    memory = InstanceMemory(p=2)
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
    memory = InstanceMemory(p=2)
    points = [(1.0, 1.0, 0.1, 0), (-1.0, 1.0, 0.1, 1), (1.0, -1.0, 0.1, 2)]
    ids = ingest(smap, memory, make_frame(points))
    assert len(ids) == 3
    assert len(memory) == 3


def test_ingest_is_deterministic():
    def run():
        smap = small_map()
        memory = InstanceMemory(p=2)
        rng = np.random.default_rng(11)
        for i in range(5):
            pts = [(float(rng.uniform(-2, 2)), float(rng.uniform(-2, 2)),
                    0.1, int(rng.integers(0, 2))) for _ in range(20)]
            ingest(smap, memory, make_frame(pts, index=i))
        return (smap.grid.copy(),
                {i: (r.class_id, frozenset(cells_of(r.cells)), frozenset(r.views))
                 for i, r in memory.instances.items()})
    grid_a, mem_a = run()
    grid_b, mem_b = run()
    assert np.array_equal(grid_a, grid_b)
    assert mem_a == mem_b


def test_ingest_coverage_matches_union_find_oracle():
    smap = small_map()
    memory = InstanceMemory(p=2)
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
    memory = InstanceMemory(p=2)
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


def test_add_category_reallocates():
    smap = small_map(("floor",))
    assert smap.k == 4
    idx = smap.add_category("rug")
    assert idx == 1
    assert smap.k == 5
    assert smap.categories == ["floor", "rug"]


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
    assert loaded.frames[0].cloud.points == ((1.0, 1.0, 0.1, 1),)


def test_pgm_export(tmp_path):
    smap = small_map()
    ingest(smap, InstanceMemory(2), make_frame([(1.0, 1.0, 0.1, 1)]))
    path = tmp_path / "chan.pgm"
    smap.channel_to_pgm(1, path)
    assert path.read_text().startswith("P2")


def test_class_coverage_is_order_invariant():
    rng = np.random.default_rng(57)
    frames = []
    for i in range(8):
        pts = [(float(rng.uniform(-1.5, 1.5)), float(rng.uniform(-1.5, 1.5)),
                0.1, int(rng.integers(0, 2))) for _ in range(10)]
        frames.append(make_frame(pts, index=i))

    def coverage(order):
        smap = small_map()
        memory = InstanceMemory(p=2)
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
])
def test_load_scene_malformed_raises_config_error(tmp_path, text, line):
    path = tmp_path / "bad.jsonl"
    path.write_text(text)
    with pytest.raises(ConfigError) as err:
        load_scene(path)
    assert str(path) in str(err.value)
    if line is not None:
        assert f"line {line}" in str(err.value)


def test_first_named_returns_lowest_id_instance():
    smap = small_map()
    memory = InstanceMemory(p=0)
    ingest(smap, memory, make_frame([(1.0, 1.0, 0.1, 1)], index=0))
    ingest(smap, memory, make_frame([(-1.0, -1.0, 0.1, 1)], index=1))
    assert len(memory) == 2
    assert memory.first_named(smap.categories, smap.categories[1]).instance_id == 1
    assert memory.first_named(smap.categories, smap.categories[0]) is None
    assert memory.first_named(smap.categories, "no such category") is None
