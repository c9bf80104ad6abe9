#!/usr/bin/env python3
"""quadkit benchmark: closed-loop pipeline invocations with an artifact-digest gate.

    python3 perfbench/run.py --workload adapt --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seconds 30     # table of every workload

One process, one thread, one client: each invocation of a ``quadkit.bench``
command starts after the previous one ends, with the inputs the workload
generated from ``--seed``. Every invocation is checked: it must not raise,
must return the workload's verdict, and must write artifacts whose SHA-256
digests (all files but ``manifest.json``, which embeds paths) equal those of
the run's own warm-up invocation and the ones recorded in ``expected.json``:
per file at the default seed, combined over the files at the other recorded
seeds.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` alternates traced
and untraced invocations and reports per-module self times and counters
(see ``tracing.py``); the counters must repeat exactly on every traced
invocation and, at the default seed, equal ``expected.json``. The spans are
written to ``.perfbench_out/``. The last line of standard output is the JSON
result; the line before it (``detail:``) holds sample counts, the tail
percentile, the failed ratio, input sizes and the machine record.

``--record`` runs one invocation per recorded seed (traced at the default
seed) and stores the digests and counters in ``expected.json``. Use it only
when a change is meant to alter the program's outputs.
"""

import os

# One BLAS/OpenMP thread, set before numpy is first imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
EXPECTED = os.path.join(HERE, "expected.json")
WORK = os.path.join(ROOT, ".perfbench_work")
OUT = os.path.join(ROOT, ".perfbench_out")
DEFAULT_SEED = 0
# Fresh interpreters timed for setup_s, after one untimed warm-up import.
SETUP_REPEATS = 5
# Seeds 0..RECORDED_SEEDS-1 have their artifact digests in expected.json.
RECORDED_SEEDS = 24
# The tail is the highest percentile with this many samples beyond it.
TAIL_BEYOND = 10
IMPORT_PROBE = ("import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
                "import quadkit.cli, quadkit.bench; print(repr(time.perf_counter() - t)); "
                "print(quadkit.__file__)")

sys.path.insert(0, HERE)
from tracing import PATH_DEPENDENT, Tracer, count_names, time_names  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


class Failure(Exception):
    pass


def machine_record() -> dict:
    import numpy
    import scipy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "nproc": os.cpu_count(), "cpu": cpu,
            "loadavg_start": [round(v, 2) for v in os.getloadavg()]}


def measure_setup() -> float:
    """Median seconds to import quadkit.cli and quadkit.bench in a fresh interpreter."""
    times = []
    for i in range(SETUP_REPEATS + 1):
        proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE, SRC], capture_output=True,
                              text=True, timeout=120, cwd=ROOT)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or len(lines) != 2 or not lines[1].startswith(SRC):
            raise Failure(f"import probe failed: {proc.stderr.strip()[-500:]}")
        if i:
            times.append(float(lines[0]))
    return statistics.median(times)


def artifacts(out_dir) -> tuple:
    """(digest per byte-compared artifact, total bytes of every artifact)."""
    digests = {}
    total = 0
    for name in sorted(os.listdir(out_dir)):
        path = os.path.join(out_dir, name)
        total += os.path.getsize(path)
        if name != "manifest.json":
            with open(path, "rb") as fh:
                digests[name] = hashlib.sha256(fh.read()).hexdigest()
    return digests, total


def combine(digests) -> str:
    """One digest over every artifact's name and digest."""
    text = "".join(f"{name} {digest}\n" for name, digest in sorted(digests.items()))
    return hashlib.sha256(text.encode()).hexdigest()


def tail(samples) -> tuple:
    """(value, percentile): the highest percentile with TAIL_BEYOND samples beyond
    it. A run too short for that keeps a quarter of its samples beyond it, so
    that one outlier does not decide the value."""
    ordered = sorted(samples)
    n = len(ordered)
    beyond = min(TAIL_BEYOND, n // 4)
    return ordered[n - 1 - beyond], 100.0 * (n - beyond) / n


class Runner:
    """Runs and checks the invocations of one workload."""

    def __init__(self, workload, seed, reference):
        import quadkit
        from quadkit import bench

        if not os.path.abspath(quadkit.__file__).startswith(SRC + os.sep):
            raise Failure(f"quadkit imported from {quadkit.__file__}, not {SRC}")
        self.workload = workload
        self.work = os.path.join(WORK, f"{workload.name}-{seed}-{os.getpid()}")
        in_dir = os.path.join(self.work, "in")
        os.makedirs(in_dir)
        self.out_dir = os.path.join(self.work, "out")
        self.prepared = workload.prepare(bench, seed, in_dir)
        self.ref_digests = reference.get("digests")
        self.ref_combined = reference.get("combined")
        self.ref_counts = reference.get("counts")
        self.tracer = Tracer()
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def invoke(self, traced: bool) -> tuple:
        """One checked invocation: (seconds, (counts, self_ms) if traced and it ran)."""
        shutil.rmtree(self.out_dir, ignore_errors=True)
        gc.collect()  # start from a collected heap, as a fresh CLI process would
        if traced:
            self.tracer.install()
        error = verdict = None
        start = time.perf_counter()
        try:
            if traced:
                verdict = self.tracer.wrap("bench.cmd", self.prepared.invoke)(self.out_dir)
            else:
                verdict = self.prepared.invoke(self.out_dir)
        except Exception as err:  # noqa: BLE001 - every failure is counted, not fatal
            error = f"{type(err).__name__}: {err}"
        seconds = time.perf_counter() - start
        if traced:
            self.tracer.uninstall()
        self.attempted += 1
        problems = [error] if error else []
        layer = None
        if verdict is not None and verdict != self.workload.verdict:
            problems.append(f"verdict {verdict!r}, expected {self.workload.verdict!r}")
        if error is None:
            digests, total = artifacts(self.out_dir)
            if self.ref_combined is not None and combine(digests) != self.ref_combined:
                problems.append("artifact digests differ from the ones recorded for this seed")
            if self.ref_digests is None:
                self.ref_digests = digests
            elif digests != self.ref_digests:
                changed = sorted(set(digests) ^ set(self.ref_digests)
                                 | {k for k in digests if digests[k] != self.ref_digests.get(k)})
                problems.append(f"artifact digests differ: {', '.join(changed)}")
            if traced:
                counts, self_ms = self.tracer.finish_invocation(total)
                stable = {k: v for k, v in counts.items() if k not in PATH_DEPENDENT}
                if self.ref_counts is None:
                    self.ref_counts = stable
                elif stable != self.ref_counts:
                    diff = sorted(k for k in stable if stable[k] != self.ref_counts.get(k))
                    problems.append("counters differ: " + ", ".join(
                        f"{k}={stable[k]} (expected {self.ref_counts.get(k)})" for k in diff))
                layer = (counts, self_ms)
        elif traced:
            self.tracer.finish_invocation(0)
        self.failed += bool(problems)
        self.problems.extend(f"invocation {self.attempted}: {p}" for p in problems)
        return seconds, layer

    def window(self, seconds: float, trace: bool) -> list:
        """Closed loop for about ``seconds``: (seconds, traced, layer) per invocation.

        No invocation starts that the median so far says would end past the
        window; in trace mode invocations alternate traced/untraced and at
        least one of each runs.
        """
        samples = []
        begin = time.perf_counter()
        while True:
            elapsed = time.perf_counter() - begin
            if samples and (not trace or len(samples) >= 2):
                if elapsed + statistics.median(s for s, _, _ in samples) > seconds:
                    break
            traced = trace and len(samples) % 2 == 0
            duration, layer = self.invoke(traced)
            samples.append((duration, traced, layer))
        self.window_s = time.perf_counter() - begin
        return samples

    def close(self):
        shutil.rmtree(self.work, ignore_errors=True)


def end_to_end(samples, window_s, setup_s) -> tuple:
    ms = [s * 1e3 for s, _, _ in samples]
    tail_ms, tail_pct = tail(ms)
    metrics = {
        "run_ms_p50": (statistics.median(ms), "ms"),
        "run_ms_tail": (tail_ms, "ms"),
        "runs_per_s": (len(ms) / window_s, "1/s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    return metrics, {"samples": len(ms), "tail_percentile": round(tail_pct, 2),
                     "samples_ms": [round(v, 1) for v in ms]}


def per_layer(samples) -> tuple:
    traced = [layer for _, t, layer in samples if t and layer is not None]
    traced_ms = [s * 1e3 for s, t, _ in samples if t]
    plain_ms = [s * 1e3 for s, t, _ in samples if not t]
    if not traced or not plain_ms:
        raise Failure("trace mode needs one traced and one untraced invocation that succeed")
    metrics = {}
    counts = traced[-1][0]
    for name in count_names():
        unit = "ratio" if name.endswith("ratio") else "bytes" if name.endswith("bytes") \
            else "count"
        metrics[name] = (counts[name], unit)
    for name in time_names():
        metrics[name] = (statistics.median(layer[1][name] for layer in traced), "ms")
    overhead = statistics.median(traced_ms) - statistics.median(plain_ms)
    metrics["trace.overhead_ms"] = (overhead, "ms")
    return metrics, {"traced_samples": len(traced_ms), "untraced_samples": len(plain_ms)}


def load_expected() -> dict:
    with open(EXPECTED) as fh:
        return json.load(fh)


def reference_for(expected, workload, seed) -> dict:
    """What the run's invocations must reproduce: the full record at the default
    seed, the combined digest at another recorded seed, else nothing (the
    warm-up invocation becomes the reference)."""
    entry = expected["workloads"].get(workload.name)
    if entry is None:
        raise Failure(f"expected.json has no entry for {workload.name}")
    if seed == DEFAULT_SEED:
        return {"digests": entry["digests"], "counts": entry["counts"]}
    combined = entry["seed_digests"].get(str(seed))
    return {} if combined is None else {"combined": combined}


def record(workload) -> int:
    """Store the default seed's digests and counters, and the combined digest of
    seeds 1..RECORDED_SEEDS-1, in expected.json."""
    expected = load_expected()
    entry = {"verdict": workload.verdict, "seed_digests": {}}
    for seed in range(RECORDED_SEEDS):
        runner = Runner(workload, seed, {})
        try:
            runner.invoke(traced=seed == DEFAULT_SEED)
        finally:
            runner.close()
        if runner.problems:
            raise Failure(f"seed {seed}: " + "; ".join(runner.problems))
        if seed == DEFAULT_SEED:
            entry.update(digests=runner.ref_digests, counts=runner.ref_counts)
        else:
            entry["seed_digests"][str(seed)] = combine(runner.ref_digests)
    expected["workloads"][workload.name] = entry
    with open(EXPECTED, "w") as fh:
        json.dump(expected, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"recorded {workload.name} in {EXPECTED}")
    return 0


def run_workload(args) -> int:
    if not os.path.isfile(os.path.join(SRC, "quadkit", "__init__.py")):
        print(f"quadkit sources not found under {SRC}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    machine = machine_record()
    sys.path.insert(0, SRC)
    if args.record:
        return record(workload)
    reference = reference_for(load_expected(), workload, args.seed)
    setup_s = None if args.trace else measure_setup()
    runner = Runner(workload, args.seed, reference)
    try:
        runner.invoke(traced=bool(args.trace))
        samples = runner.window(args.seconds, bool(args.trace))
    finally:
        runner.close()
    if args.trace:
        metrics, detail = per_layer(samples)
        os.makedirs(OUT, exist_ok=True)
        spans = os.path.join(OUT, f"spans-{workload.name}-seed{args.seed}.jsonl")
        runner.tracer.write_spans(spans)
        detail["spans"] = os.path.relpath(spans, ROOT)
    else:
        metrics, detail = end_to_end(samples, runner.window_s, setup_s)
    failed = runner.failed
    detail.update(workload=workload.name, seed=args.seed, trace=args.trace,
                  failed_ratio=failed / runner.attempted, sizes=runner.prepared.sizes,
                  machine=machine, problems=runner.problems[:10])
    print("detail: " + json.dumps(detail, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": runner.attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def run_all(args) -> int:
    """Run every workload in its own process and print one table."""
    rows = []
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed",
             str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, cwd=ROOT)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or len(lines) < 2:
            print(f"{name}: failed\n{proc.stderr}", file=sys.stderr)
            return 1
        detail = json.loads(lines[-2].split(": ", 1)[1])
        result = json.loads(lines[-1])
        metrics = {k: (v["value"], v["unit"]) for k, v in result["metrics"].items()}
        metrics["failed_ratio"] = (detail["failed_ratio"], "ratio")
        for metric, (value, unit) in metrics.items():
            rows.append(f"{name:10s} {metric:45s} {value:14.4f} {unit}")
        if not result["correct"]:
            rows.extend(f"{name:10s} problem: {p}" for p in detail["problems"])
    print("\n".join(rows))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true",
                        help="store the recorded seeds' digests and counters in expected.json")
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    try:
        return run_workload(args)
    except Failure as err:
        print(f"benchmark failed: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
