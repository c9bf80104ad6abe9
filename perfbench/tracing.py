"""Per-module spans and counters, taken from outside the program.

``Tracer.install`` replaces each traced function with a timing wrapper at
every place a caller looks it up: quadkit modules import names directly
(``from .navigation import fmm_solve``), so the wrapper is bound into every
quadkit module global that holds the original, and methods are replaced on
their class. ``Tracer.uninstall`` puts the originals back.

Each call becomes a span (name, start, end, parent, invocation). A span's
self time is its duration minus the time covered by its child spans. Spans
are kept in memory and written out once at the end of a run; functions
called hundreds of thousands of times per invocation (``desired_contact``)
only add to their counters and to their parent's child time.
"""

from __future__ import annotations

import builtins
import functools
import json
import sys
import time
from collections import defaultdict

import numpy as np

# Prompt templates the workloads send (auto_prior is in no workload).
TEMPLATES = ("auto", "locate_levels", "determining", "decompose", "evaluate", "cost_map")

# Marker every retry prompt carries (retry_reprompt and decompose's own retry).
RETRY_MARK = "\n\nYour previous reply"

# Per-layer metric names, in report order.
TIMED = (
    "surrogate.simulate", "rewards.episode_velocity_percent", "rewards.episode_percent",
    "locomotion.desired_contact", "adaptation.select_best", "adaptation.candidate_grid",
    "adaptation.locate_ranges", "navigation.fmm_solve", "navigation.extract_path",
    "navigation.build_cost_map", "navigation.assign_costs", "navigation.frontier_goal",
    "navigation.frontier_cells", "navigation.snap_to_free", "mapping.load_scene",
    "mapping.ingest", "mapping.project_frame", "mapping.dilate", "mapping.match_detection",
    "mapping.merge", "gateway.complete", "tasks.decompose", "tasks.execute",
    "tasks.snapshot_hash", "tasks.observe_here", "terrain.write_pgm", "bench.artifacts",
    "bench.cmd",
)
COUNTERS = (
    "surrogate.steps", "adaptation.candidates", "navigation.cells_frozen",
    "navigation.fmm_solve.useful_ratio", "mapping.points", "mapping.detections",
    "gateway.parse_retries", "gateway.useful_ratio", "tasks.subgoals",
    "bench.artifacts.bytes",
) + tuple(f"gateway.complete.calls.{t}" for t in TEMPLATES)
# Counters that depend on where the checkout lives (the manifest embeds paths).
PATH_DEPENDENT = ("bench.artifacts.bytes",)
# Called too often to keep one span per call.
UNSPANNED = ("locomotion.desired_contact",)


def count_names() -> list:
    return [f"{n}.calls" for n in TIMED] + list(COUNTERS)


def time_names() -> list:
    return [f"{n}.self_ms" for n in TIMED]


class Tracer:
    def __init__(self):
        self.spans = []
        self.invocation = 0
        self._stack = []
        self._next_id = 1
        self._patched = []  # (owner, attribute, original or None if it had none)
        self.reset()

    def reset(self):
        self.self_s = defaultdict(float)
        self.counts = defaultdict(int)
        self.last_field = None
        self._fmm_frozen = 0
        self._fmm_useful = 0
        self._replies = 0
        self._retry_replies = 0

    # -- spans ---------------------------------------------------------------

    def _open(self, name):
        frame = [self._next_id, name, time.perf_counter(), 0.0]
        self._next_id += 1
        self._stack.append(frame)
        return frame

    def _close(self, frame):
        end = time.perf_counter()
        self._stack.pop()
        span_id, name, start, child = frame
        duration = end - start
        self.self_s[name] += duration - child
        self.counts[f"{name}.calls"] += 1
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[3] += duration
        if name not in UNSPANNED:
            self.spans.append((self.invocation, span_id, parent[0] if parent else 0,
                               name, start, end))

    def wrap(self, name, fn, post=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(frame)
            if post is not None:
                post(result, *args, **kwargs)
            return result

        return traced

    # -- counters fed by post-call hooks ---------------------------------------

    def _after_simulate(self, traj, *args, **kwargs):
        self.counts["surrogate.steps"] += len(traj)

    def _after_select_best(self, result, *args, **kwargs):
        self.counts["adaptation.candidates"] += len(result.candidates)

    def _after_fmm(self, field, *args, **kwargs):
        self.last_field = field
        self._fmm_frozen += int(np.count_nonzero(np.isfinite(field.times)))

    def _use_field(self, field, cell):
        times = field.times
        self._fmm_useful += int(np.count_nonzero(times <= times[cell[0], cell[1]]))

    def _after_extract_path(self, plan, field, start, *args, **kwargs):
        self._use_field(field, start)

    def _after_frontier_goal(self, cell, *args, **kwargs):
        self._use_field(self.last_field, cell)

    def _after_ingest(self, touched, smap, memory, frame, *args, **kwargs):
        self.counts["mapping.points"] += len(frame.cloud.points)

    def _after_project_frame(self, detections, *args, **kwargs):
        self.counts["mapping.detections"] += len(detections)

    def _after_complete(self, responses, gateway, request, *args, **kwargs):
        self.counts[f"gateway.complete.calls.{request.template_id}"] += 1
        self._replies += len(responses)
        if RETRY_MARK in request.user:
            self.counts["gateway.parse_retries"] += 1
            self._retry_replies += len(responses)

    def _after_decompose(self, subgoals, *args, **kwargs):
        self.counts["tasks.subgoals"] += len(subgoals)

    def finish_invocation(self, artifact_bytes: int) -> tuple:
        """Close one invocation: returns (counts, self_ms) keyed by metric name."""
        self.counts["bench.artifacts.bytes"] = artifact_bytes
        self.counts["navigation.cells_frozen"] = self._fmm_frozen
        self.counts["navigation.fmm_solve.useful_ratio"] = (
            self._fmm_useful / self._fmm_frozen if self._fmm_frozen else 0.0)
        # A retried request wastes its own replies and those it replaced.
        self.counts["gateway.useful_ratio"] = (
            (self._replies - 2 * self._retry_replies) / self._replies
            if self._replies else 0.0)
        counts = {name: self.counts.get(name, 0) for name in count_names()}
        self_ms = {f"{n}.self_ms": self.self_s.get(n, 0.0) * 1e3 for n in TIMED}
        self.reset()
        self.invocation += 1
        return counts, self_ms

    # -- installation ----------------------------------------------------------

    def _targets(self):
        from quadkit import (adaptation, bench, gateway, locomotion, mapping, navigation,
                             rewards, surrogate, tasks, terrain)
        return [
            ("surrogate.simulate", surrogate, "simulate", self._after_simulate),
            ("rewards.episode_velocity_percent", rewards, "episode_velocity_percent", None),
            ("rewards.episode_percent", rewards, "episode_percent", None),
            ("locomotion.desired_contact", locomotion, "desired_contact", None),
            ("adaptation.select_best", adaptation, "select_best", self._after_select_best),
            ("adaptation.candidate_grid", adaptation, "candidate_grid", None),
            ("adaptation.locate_ranges", adaptation, "locate_ranges", None),
            ("navigation.fmm_solve", navigation, "fmm_solve", self._after_fmm),
            ("navigation.extract_path", navigation, "extract_path", self._after_extract_path),
            ("navigation.build_cost_map", navigation, "build_cost_map", None),
            ("navigation.assign_costs", navigation, "assign_costs", None),
            ("navigation.frontier_goal", navigation, "frontier_goal",
             self._after_frontier_goal),
            ("navigation.frontier_cells", navigation, "frontier_cells", None),
            ("navigation.snap_to_free", navigation, "snap_to_free", None),
            ("mapping.load_scene", mapping, "load_scene", None),
            ("mapping.ingest", mapping, "ingest", self._after_ingest),
            ("mapping.project_frame", mapping, "project_frame", self._after_project_frame),
            ("mapping.dilate", mapping, "dilate", None),
            ("mapping.match_detection", mapping, "match_detection", None),
            ("mapping.merge", mapping, "merge", None),
            ("gateway.complete", gateway.Gateway, "complete", self._after_complete),
            ("tasks.decompose", tasks, "decompose", self._after_decompose),
            ("tasks.execute", tasks, "execute", None),
            ("tasks.snapshot_hash", tasks.World, "snapshot_hash", None),
            ("tasks.observe_here", tasks.World, "observe_here", None),
            ("terrain.write_pgm", terrain, "write_pgm", None),
            ("bench.artifacts", navigation.ArrivalField, "to_csv", None),
            ("bench.artifacts", navigation.PathPlan, "to_jsonl", None),
            ("bench.artifacts", tasks.ExecutionTrace, "to_jsonl", None),
            ("bench.artifacts", adaptation, "rows_to_csv", None),
        ], bench

    def _patch(self, owner, attribute, value):
        self._patched.append((owner, attribute, vars(owner).get(attribute)))
        setattr(owner, attribute, value)

    def install(self):
        targets, bench = self._targets()
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "quadkit" or n.startswith("quadkit."))]
        for name, owner, attribute, post in targets:
            original = getattr(owner, attribute, None)
            if original is None:
                continue  # the program no longer has this function
            wrapper = self.wrap(name, original, post)
            if isinstance(owner, type):
                self._patch(owner, attribute, wrapper)
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, wrapper)
        # bench writes the candidate CSVs, verdicts, result and manifest inline
        # with the builtin open; a module global of that name shadows it.
        self._patch(bench, "open", self._traced_open)

    def uninstall(self):
        for owner, attribute, original in reversed(self._patched):
            if original is None:
                delattr(owner, attribute)
            else:
                setattr(owner, attribute, original)
        self._patched = []

    def _traced_open(self, *args, **kwargs):
        frame = self._open("bench.artifacts")
        try:
            fh = builtins.open(*args, **kwargs)
        except BaseException:
            self._close(frame)
            raise
        return _TracedFile(self, frame, fh)

    def write_spans(self, path):
        with open(path, "w") as fh:
            for inv, span_id, parent, name, start, end in self.spans:
                fh.write(json.dumps({"invocation": inv, "id": span_id, "parent": parent,
                                     "name": name, "start": start, "end": end}) + "\n")


class _TracedFile:
    """A file whose whole open-to-close lifetime is one ``bench.artifacts`` span."""

    def __init__(self, tracer, frame, fh):
        self._tracer = tracer
        self._frame = frame
        self._fh = fh

    def __getattr__(self, attribute):
        return getattr(self._fh, attribute)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
        return False

    def close(self):
        if self._frame is not None:
            self._fh.close()
            self._tracer._close(self._frame)
            self._frame = None
