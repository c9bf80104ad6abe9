"""Independent brute-force oracles used by the test suite.

These deliberately re-derive results through a different route than the
library code they check.
"""

import heapq
import math

import numpy as np

from quadkit.rewards import StepSample, _phase_terms, r_velocity_xy, r_velocity_yaw
from quadkit.surrogate import Trajectory


def gait_phase_table(t, offsets):
    """Direct evaluation of the per-foot phase formulas via floor reduction."""
    th1, th2, th3 = offsets
    raw = (t + th2 + th3, t + th1 + th3, t + th1, t + th2)
    return tuple(v - math.floor(v) for v in raw)


def timing_table(t, offsets):
    return tuple(math.sin(2.0 * math.pi * p) for p in gait_phase_table(t, offsets))


def contact_table(t, offsets, duty=0.5):
    return tuple(p < duty for p in gait_phase_table(t, offsets))


def trajectory_of(samples):
    """Trajectory whose per-step arrays hold the given StepSamples' values."""
    samples = list(samples)
    n = len(samples)
    return Trajectory(
        v_xy=np.array([s.v_xy for s in samples], dtype=float).reshape(n, 2),
        w_z=np.array([s.w_z for s in samples], dtype=float),
        foot_force=np.array([s.foot_force for s in samples], dtype=float).reshape(n, 4),
        foot_speed=np.array([s.foot_speed_xy for s in samples], dtype=float).reshape(n, 4),
        phase=np.array([s.phase_t for s in samples], dtype=float),
    )


def samples_of(traj):
    """One StepSample per row of a trajectory's arrays."""
    return [StepSample(v_xy=tuple(traj.v_xy[k]), w_z=float(traj.w_z[k]),
                       foot_force=tuple(traj.foot_force[k]),
                       foot_speed_xy=tuple(traj.foot_speed[k]), phase_t=float(traj.phase[k]))
            for k in range(len(traj))]


def episode_percent_steps(samples, cmd, gait, cfg):
    """Per-step episode percents (vel_xy, vel_yaw, swing, stance), one
    StepSample at a time through the scalar reward terms."""
    acc = [0.0, 0.0, 0.0, 0.0]
    den = [0.0, 0.0, 0.0, 0.0]
    for s in samples:
        acc[0] += r_velocity_xy(s, cmd, cfg)
        acc[1] += r_velocity_yaw(s, cmd, cfg)
        den[0] += 1.0
        den[1] += 1.0
        sw_sum, sw_n, st_sum, st_n = _phase_terms(s, gait, cfg)
        acc[2] += sw_sum
        acc[3] += st_sum
        den[2] += 4.0 if cfg.flat_phase_max else sw_n
        den[3] += 4.0 if cfg.flat_phase_max else st_n
    return tuple(100.0 * a / d if d > 0 else 100.0 for a, d in zip(acc, den))


def bilinear_oracle(heights, resolution, origin, x, y):
    """Reimplementation of cell-center bilinear interpolation."""
    n = heights.shape[0]
    u = (x - origin[0]) / resolution - 0.5
    v = (y - origin[1]) / resolution - 0.5
    u = min(max(u, 0.0), n - 1.0)
    v = min(max(v, 0.0), n - 1.0)
    j = min(int(math.floor(u)), n - 2)
    i = min(int(math.floor(v)), n - 2)
    fx, fy = u - j, v - i
    return (heights[i, j] * (1 - fx) * (1 - fy)
            + heights[i, j + 1] * fx * (1 - fy)
            + heights[i + 1, j] * (1 - fx) * fy
            + heights[i + 1, j + 1] * fx * fy)


def chebyshev_dilation(cells, p, m=None):
    """Per-cell square expansion, the slow way."""
    out = set()
    for (r, c) in cells:
        for nr in range(r - p, r + p + 1):
            for nc in range(c - p, c + p + 1):
                if m is None or (0 <= nr < m and 0 <= nc < m):
                    out.add((nr, nc))
    return out


def mask_of(cells, m):
    """(m, m) bool mask with the given (row, col) cells set."""
    mask = np.zeros((m, m), dtype=bool)
    for (r, c) in cells:
        mask[r, c] = True
    return mask


def cells_of(mask):
    """Set of (row, col) int tuples of a mask's set cells."""
    return {(int(r), int(c)) for r, c in zip(*np.nonzero(mask))}


class UnionFind:
    def __init__(self, n):
        self.parent = list(range(n))

    def find(self, a):
        while self.parent[a] != a:
            self.parent[a] = self.parent[self.parent[a]]
            a = self.parent[a]
        return a

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[rb] = ra


def union_find_clusters(detections, p, m):
    """Transitive closure of same-class dilated-overlap matching over a
    detection batch: returns per-class merged cell coverage sets."""
    uf = UnionFind(len(detections))
    cells = [cells_of(d.cells) for d in detections]
    dilated = [chebyshev_dilation(c, p, m) for c in cells]
    for i in range(len(detections)):
        for j in range(i + 1, len(detections)):
            if detections[i].class_id != detections[j].class_id:
                continue
            if dilated[i] & cells[j] or dilated[j] & cells[i]:
                uf.union(i, j)
    clusters = {}
    for i, det in enumerate(detections):
        root = uf.find(i)
        clusters.setdefault(root, (det.class_id, set()))[1].update(cells[i])
    by_class = {}
    for i, det in enumerate(detections):
        by_class.setdefault(det.class_id, set()).update(cells[i])
    return clusters, by_class


def dijkstra_times(costs, source, cell_size=0.05, speed_floor=0.05):
    """8-connected Dijkstra with edge weights cell_size/F averaged over the
    edge endpoints (sqrt(2)-scaled diagonals). Diagonal steps require both
    orthogonal intermediates to be passable, so corner-clipping between
    touching obstacles is excluded."""
    m, n = costs.shape
    obstacles = costs >= 1.0
    speed = np.clip(1.0 - costs, speed_floor, 1.0)
    tau = cell_size / speed
    dist = np.full((m, n), np.inf)
    dist[source] = 0.0
    heap = [(0.0, source[0], source[1])]
    done = np.zeros((m, n), dtype=bool)
    while heap:
        d, r, c = heapq.heappop(heap)
        if done[r, c]:
            continue
        done[r, c] = True
        for dr in (-1, 0, 1):
            for dc in (-1, 0, 1):
                if dr == 0 and dc == 0:
                    continue
                nr, nc = r + dr, c + dc
                if not (0 <= nr < m and 0 <= nc < n):
                    continue
                if obstacles[nr, nc] or done[nr, nc]:
                    continue
                if dr and dc:
                    if obstacles[r, nc] or obstacles[nr, c]:
                        continue
                    step = math.sqrt(2.0)
                else:
                    step = 1.0
                nd = d + step * 0.5 * (tau[r, c] + tau[nr, nc])
                if nd < dist[nr, nc]:
                    dist[nr, nc] = nd
                    heapq.heappush(heap, (nd, nr, nc))
    return dist
