"""Workload-matrix benchmark for ``hypercongruence.congruence_test_4d``.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source checkout: the library is imported from
``src/``.  The pairs of the workload (workloads.py) are generated from the
seed before any timing.  One pass decides every pair once; passes repeat
while the next one is expected to end within S seconds.  Every verdict is
compared with the ground truth of the pair's construction, and every
positive verdict is re-checked by mapping A with the returned rotation and
translation and matching B by nearest neighbour.

--trace 0 reports the end-to-end metrics.  Every time in them is scaled to
a reference host speed (calibrate.py): each decision is divided by the
fixed kernel's seconds around it, and the median fresh interpreter of
setup_s (setup_probe.py) by the median kernel run between them; both are
then multiplied by the kernel's reference seconds.  wall_s and its parts
sum each pair's median over the passes; decision_s.p50 is the median of
all decisions.  The table also gives the unscaled seconds.

--trace 1 alternates untraced and traced passes and reports the per-layer
metrics of tracing.py in unscaled seconds (from the fastest traced pass,
per metric), plus the tracing overhead.

Stdout ends with one JSON line {"correct", "attempted", "failed",
"metrics"}; the lines before it give the environment and a readable table.
Exit status: 0 with a result, 1 on a false positive or a construction that
the check contradicts, 2 when the library source is missing.
"""

import os
import sys

# BLAS and OpenMP read these when numpy loads, and HYPERCONGRUENCE_THREADS
# sets the workers of the library's cKDTree queries (default: every core).
NPROC = len(os.sched_getaffinity(0))
for _var in ("HYPERCONGRUENCE_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
             "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = str(NPROC)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import traceback  # noqa: E402
from collections import defaultdict  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402
from scipy.spatial import cKDTree  # noqa: E402

import workloads  # noqa: E402
from calibrate import REFERENCE_S, Clock, kernel_seconds  # noqa: E402
from tracing import Tracer  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
SETUP_REPEATS = 7
# Kernel runs after each setup interpreter.  setup_s scales the median
# interpreter by the median kernel run: one kernel run right after a
# process exit is too noisy to scale that one interpreter alone.
SETUP_KERNEL_RUNS = 3
# Absolute coordinate tolerance of the independent check; inputs are O(1),
# and the smallest perturbation of a near-miss is 1e-3.
CHECK_TOL = 1e-6

SPAN_METRICS = (
    "condense.joint_cluster.calls", "condense.joint_cluster.s",
    "cpgraph.closest_pair_graph.calls", "cpgraph.closest_pair_graph.s",
    "iterprune.iterative_prune.calls", "iterprune.iterative_prune.s",
    "iterprune.iterative_prune.self_s",
    "circles.mirror_reduce.s", "circles.orbit_circles.calls",
    "marking.mark_circles.calls", "marking.mark_circles.s",
    "lowdim.one_plus_three_reduce.s", "lowdim.one_plus_three_reduce.self_s",
    "lowdim.congruence_3d_labeled.calls", "lowdim.congruence_3d_labeled.s",
    "lowdim.collapse_circle.calls", "lowdim.collapse_circle.s",
    "sphere.condense_sphere.calls", "sphere.condense_sphere.s",
    "torus.two_plus_two_reduce.s",
    "torus.canonical_set_torus.calls", "torus.canonical_set_torus.s",
    "geom.verify_rotation.calls", "geom.verify_rotation.s",
    "geom.match_multisets.calls", "geom.match_multisets.s",
)
COUNT_METRICS = ("iterprune.points_in", "iterprune.points_out")


class BenchmarkError(Exception):
    """A false positive, or a verdict that contradicts the construction."""


def decide(pipeline, pair):
    """(seconds, verdict) of one decision; verdict None if it raised."""
    opts = None
    if pair.delta0 is not None:
        opts = pipeline.PipelineOptions(delta0=pair.delta0)
    t0 = perf_counter()
    try:
        verdict = pipeline.congruence_test_4d(pair.a, pair.b, opts)
    except Exception:  # counted as a failed decision; the run goes on
        seconds = perf_counter() - t0
        print(f"decision raised on {pair.label}:", file=sys.stderr)
        traceback.print_exc()
        return seconds, None
    return perf_counter() - t0, verdict


def maps_onto(a, b, rotation, translation) -> bool:
    """Whether a proper rotation plus translation maps A onto B, point for
    point within CHECK_TOL (the nearest neighbours form a bijection)."""
    r = np.asarray(rotation, dtype=float)
    if np.abs(r @ r.T - np.eye(4)).max() > CHECK_TOL or np.linalg.det(r) <= 0:
        return False
    dist, idx = cKDTree(b).query(a @ r.T + translation)
    return bool(dist.max() <= CHECK_TOL and len(np.unique(idx)) == len(b))


def judge(pair, verdict) -> bool:
    """Whether the verdict is right; a wrong positive raises."""
    if verdict is None:
        return False
    if not verdict.congruent:
        return not pair.congruent
    if not maps_onto(pair.a, pair.b, verdict.rotation, verdict.translation):
        raise BenchmarkError(f"false positive on {pair.label}: the returned "
                             "rotation does not map A onto B")
    if not pair.congruent:
        raise BenchmarkError(f"{pair.label} is congruent, which contradicts "
                             "its construction")
    return True


def setup_seconds(seed: int) -> tuple:
    """(seconds, verdict right) for import plus one 5-cell decision in a
    fresh interpreter."""
    a, b = workloads.five_cell_pair(seed)
    proc = subprocess.run(
        [sys.executable, str(HERE / "setup_probe.py"), str(SRC)],
        input=json.dumps([a.tolist(), b.tolist()]), capture_output=True,
        text=True, timeout=120, check=True)
    out = json.loads(proc.stdout.splitlines()[-1])
    return out["seconds"], out["congruent"]


class Tally:
    """Decisions attempted and failed, over every pass of the run."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def add(self, ok: bool) -> None:
        self.attempted += 1
        self.failed += not ok

    def judge_pass(self, pairs, outcomes) -> list:
        for pair, (_, verdict) in zip(pairs, outcomes):
            self.add(judge(pair, verdict))
        return [None if v is None else bool(v.congruent) for _, v in outcomes]


def warm_up(pipeline, pairs) -> None:
    """Decide the smallest rung once, untimed, so lazy imports and first-call
    costs stay out of the passes."""
    for pair in pairs:
        if pair.rung == 0:
            decide(pipeline, pair)


def scaling_exponent(pairs, seconds) -> float:
    """Log-log slope of the per-rung total time against the per-rung total
    point count."""
    points, times = defaultdict(int), defaultdict(float)
    for pair, s in zip(pairs, seconds):
        points[pair.rung] += len(pair.a)
        times[pair.rung] += s
    rungs = sorted(points)
    return float(np.polyfit(np.log([points[r] for r in rungs]),
                            np.log([times[r] for r in rungs]), 1)[0])


def timed_run(pipeline, pairs, seconds: float, seed: int) -> dict:
    tally = Tally()
    setup, kernel = [], []
    for i in range(SETUP_REPEATS):
        s, ok = setup_seconds(seed * SETUP_REPEATS + i)
        setup.append(s)
        tally.add(ok)
        kernel += [kernel_seconds() for _ in range(SETUP_KERNEL_RUNS)]
    setup_s = statistics.median(setup) / statistics.median(kernel) * REFERENCE_S
    clock = Clock()
    warm_up(pipeline, pairs)
    norm, raw = [], []  # per pass, per pair
    start = perf_counter()
    while True:
        t0 = perf_counter()
        outcomes, row = [], []
        for pair in pairs:
            outcomes.append(decide(pipeline, pair))
            row.append(clock.normalised(outcomes[-1][0]))
        pass_s = perf_counter() - t0
        norm.append(row)
        raw.append([dt for dt, _ in outcomes])
        tally.judge_pass(pairs, outcomes)
        if perf_counter() - start + pass_s > seconds:
            break

    per_pair = [statistics.median(col) for col in zip(*norm)]
    metrics = {
        "setup_s": (setup_s, "s"),
        "wall_s": (sum(per_pair), "s"),
        "wall_s.congruent": (
            sum(t for t, p in zip(per_pair, pairs) if p.congruent), "s"),
        "wall_s.not_congruent": (
            sum(t for t, p in zip(per_pair, pairs) if not p.congruent), "s"),
        "decision_s.p50": (statistics.median(t for row in norm for t in row), "s"),
        "scaling_exponent": (scaling_exponent(pairs, per_pair), "1"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                        "MB"),
    }
    raw_wall = sum(statistics.median(col) for col in zip(*raw))
    notes = {
        "setup_s": f"median of {len(setup)} fresh interpreters; "
                   f"unscaled {statistics.median(setup):.4g} s",
        "wall_s": f"sum over {len(pairs)} pairs of the median of {len(norm)} "
                  f"passes; unscaled {raw_wall:.4g} s",
        "decision_s.p50": f"median of {len(pairs) * len(norm)} decisions "
                          f"({len(pairs)} pairs x {len(norm)} passes)",
        "fail_rate": f"{tally.failed} of {tally.attempted}",
    }
    print_table(metrics, notes, tally)
    return result(True, tally, metrics)


def layer_values(stats: dict, counts) -> dict:
    out = {"pipeline.self_s": stats["pipeline.congruence_test_4d"].self_s}
    for metric in SPAN_METRICS:
        span, field = metric.rsplit(".", 1)
        out[metric] = getattr(stats[span], field)
    for metric in COUNT_METRICS:
        out[metric] = counts[metric]
    calls_3d = stats["lowdim.congruence_3d_labeled"].calls
    out["lowdim.anchor_yield"] = (
        counts["lowdim.one_plus_three_reduce.congruent"] / calls_3d
        if calls_3d else 0.0)
    calls_verify = stats["geom.verify_rotation"].calls
    out["geom.verify_rotation.ok_ratio"] = (
        counts["geom.verify_rotation.ok"] / calls_verify if calls_verify else 0.0)
    return out


def unit_of(metric: str) -> str:
    if metric.endswith(("_s", ".s")):
        return "s"
    if metric.endswith(("_yield", "_ratio")):
        return "ratio"
    return "count"


def traced_run(pipeline, pairs, seconds: float) -> dict:
    tracer = Tracer()
    tally = Tally()
    warm_up(pipeline, pairs)
    plain, traced = [], []  # per pass: (seconds deciding, verdicts[, trace])
    start = perf_counter()
    while True:
        t0 = perf_counter()
        if len(traced) < len(plain):
            tracer.reset()
            with tracer.installed():
                outcomes = [decide(pipeline, p) for p in pairs]
            verdicts = tally.judge_pass(pairs, outcomes)
            traced.append((sum(dt for dt, _ in outcomes), verdicts,
                           tracer.stats, tracer.counts))
        else:
            outcomes = [decide(pipeline, p) for p in pairs]
            plain.append((sum(dt for dt, _ in outcomes),
                          tally.judge_pass(pairs, outcomes)))
        pass_s = perf_counter() - t0
        if len(traced) >= 2 and perf_counter() - start + pass_s > seconds:
            break

    correct = True
    if any(run[1] != plain[0][1] for run in plain + traced):
        print("traced verdicts differ from untraced verdicts", file=sys.stderr)
        correct = False
    per_pass = [layer_values(stats, counts) for _, _, stats, counts in traced]
    for metric, value in per_pass[0].items():
        if unit_of(metric) == "count" and any(v[metric] != value for v in per_pass):
            print(f"{metric} differs between traced passes", file=sys.stderr)
            correct = False
    for wall, _, stats, _ in traced:
        self_sum = sum(st.self_s for st in stats.values())
        if abs(self_sum - wall) > 0.01 * wall:
            print(f"self times add up to {self_sum:.4f} s of {wall:.4f} s traced",
                  file=sys.stderr)
            correct = False

    metrics = {m: (min(v[m] for v in per_pass), unit_of(m)) for m in per_pass[0]}
    metrics["bench.trace_overhead_s"] = (
        min(w for w, *_ in traced) - min(w for w, _ in plain), "s")
    by_layer = defaultdict(float)
    for name, st in traced[0][2].items():
        by_layer[name.split(".")[0]] += st.self_s
    wall = traced[0][0]
    shares = ", ".join(f"{k} {v / wall:.2f}" for k, v in
                       sorted(by_layer.items(), key=lambda kv: -kv[1]) if v)
    notes = {"bench.trace_overhead_s":
             f"{len(traced)} traced vs {len(plain)} untraced passes; "
             f"self-time share of traced wall: {shares}"}
    print_table(metrics, notes, tally)
    return result(correct, tally, metrics)


def print_table(metrics: dict, notes: dict, tally: Tally) -> None:
    rows = dict(metrics)
    rows["fail_rate"] = (tally.failed / tally.attempted, "ratio")
    for name, (value, unit) in rows.items():
        note = notes.get(name, "")
        print(f"{name:38s} {value:14.6g} {unit:6s} {note}".rstrip())


def result(correct: bool, tally: Tally, metrics: dict) -> dict:
    return {"correct": correct and tally.failed == 0,
            "attempted": tally.attempted, "failed": tally.failed,
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit) in metrics.items()}}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "hypercongruence" / "__init__.py").is_file():
        print(f"error: no library source at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from hypercongruence import pipeline

    pairs = workloads.generate(args.workload, args.seed)
    print(json.dumps({"workload": args.workload, "seed": args.seed,
                      "trace": args.trace, "pairs": len(pairs), "nproc": NPROC,
                      "python": platform.python_version(),
                      "numpy": np.__version__, "scipy": scipy.__version__}))
    try:
        if args.trace:
            out = traced_run(pipeline, pairs, args.seconds)
        else:
            out = timed_run(pipeline, pairs, args.seconds, args.seed)
    except BenchmarkError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
