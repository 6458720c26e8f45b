"""anchorguard trial benchmark: end-to-end and per-layer metrics.

Run from the repository root::

    python3 perfbench/run.py --workload attack-sweep --seed 42 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all            # every workload in turn

One process, one thread, closed loop with one client: trials run back to
back and the BLAS/OpenMP thread variables are pinned to 1 before numpy
loads.  The package is imported from ``src/`` of the checkout, never from
an installed copy.

The unit of work is one ``harness.run_sweep`` call on the workload's
scenario with ``trials = 1`` and its own master seed, ``seed * 100000 + k``
for call ``k``, followed by ``harness.emit_csv``.  A call therefore runs
one trial per sweep point, and the points of a call share a trial index,
which is what lets a sweep deploy once per trial index.

``--trace 0`` times untraced calls for ``--seconds`` and at least
``MIN_TRIAL_SAMPLES`` trials, so the tail percentile keeps ten samples
beyond it; slow workloads therefore run longer than ``--seconds``.
``--trace 1`` runs each call twice for ``--seconds``, untraced and then
under ``tracing.HOOKS``, for the per-layer metrics and the tracing overhead.

Reported times are scaled to a reference host speed by a calibration
kernel timed between calls (see ``calibrate``); the raw wall-clock
figures are printed beside them.

Every call's output is checked (see ``check_call`` and
``check_reproduction``); a trial that is skipped or fails a check counts
in ``failed``.  The last line of stdout is one JSON object with the
metrics ``BENCHMARK.json`` lists for the mode; the lines above it print
every metric by name with its unit.  With ``--workload all``,
``peak_rss_mb`` is the peak of the whole process so far.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable

import calibrate
import tracing

# Pinned to 1 before numpy is imported, here and in the set-up launches.
THREAD_ENV = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SPAN_DIR = HERE / "out"

SEED_STRIDE = 100_000
TAIL_PCT = 90
# Nearest-rank p90 of 100 samples leaves 10 samples beyond it.
MIN_TRIAL_SAMPLES = 100
# Hard stop for the timed loop, so that a run ends within 180 s.
MAX_LOOP_S = 120.0
SETUP_LAUNCHES = 11
REPRO_SAMPLES = 2
TRACE_MIN_CALLS = 2
QUALITY_METHOD = "trilateration_mahalanobis"


@dataclass(frozen=True)
class Workload:
    why: str
    scenario: str


# Scenario documents pin every key that shapes the work, so a change of
# the package's defaults does not silently change a workload.
WORKLOADS = {
    "attack-sweep": Workload(
        why="acceptance trend sweep: 122 nodes, 5 attack sizes redeploying one network per trial index",
        scenario="""
            area_w = 600
            area_h = 600
            n_nodes = 122
            ranging = gaussian
            sigma = 0.5
            comm_radius = 70
            n_malicious = [4, 8, 12, 16, 20]
            methods = [trilateration_only, trilateration_mahalanobis]
            cloud_samples = 64
        """,
    ),
    "clean-field": Workload(
        why="criterion-9 clean network: placement and unread m_cross fixes dominate, nothing is confirmed",
        scenario="""
            area_w = 600
            area_h = 600
            n_nodes = 122
            ranging = gaussian
            sigma = 0.5
            epsilon = 5
            alpha = 0.05
            comm_radius = 150
            n_malicious = 0
            methods = trilateration_mahalanobis
            cloud_samples = 64
        """,
    ),
    "dense-488": Workload(
        why="488 nodes on 1200 m: exposes quadratic placement, reference and neighbor-scan costs",
        scenario="""
            area_w = 1200
            area_h = 1200
            n_nodes = 488
            ranging = gaussian
            sigma = 0.5
            comm_radius = 150
            n_malicious = 48
            methods = [trilateration_only, trilateration_mahalanobis]
            cloud_samples = 64
        """,
    ),
    "liar-heavy": Workload(
        why="40 liars, sigma 1, 256-sample clouds: the only workload where confirmation dominates",
        scenario="""
            area_w = 600
            area_h = 600
            n_nodes = 122
            ranging = gaussian
            sigma = 1.0
            comm_radius = 150
            n_malicious = 40
            methods = [trilateration_only, trilateration_mahalanobis]
            cloud_samples = 256
        """,
    ),
}


def scenario_text(workload: str, seed: int) -> str:
    body = "\n".join(line.strip() for line in WORKLOADS[workload].scenario.splitlines())
    return f"{body.strip()}\nmaster_seed = {seed}\n"


# --------------------------------------------------------------------------
# Loading the package under test


class BenchError(Exception):
    """The benchmark cannot run here; exit 2 without a result."""


def load_harness():
    """Import ``anchorguard.harness`` from ``src/`` of this checkout."""
    if not (SRC / "anchorguard" / "__init__.py").is_file():
        raise BenchError(f"no anchorguard sources at {SRC / 'anchorguard'}")
    sys.path.insert(0, str(SRC))
    import anchorguard.harness as harness

    if not Path(harness.__file__).resolve().is_relative_to(SRC):
        raise BenchError(f"imported anchorguard from {harness.__file__}, not {SRC}")
    return harness


def machine_note() -> str:
    import numpy

    threads = " ".join(f"{v}={os.environ.get(v, '')}" for v in THREAD_ENV)
    return (
        f"python {platform.python_version()}, numpy {numpy.__version__}, "
        f"nproc {len(os.sched_getaffinity(0))}, {platform.machine()}, {threads}"
    )


# --------------------------------------------------------------------------
# Statistics


def percentile(values: list[float], pct: float) -> float:
    """Nearest-rank percentile."""
    if not values:
        raise ValueError("percentile of no values")
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1]


def samples_beyond(n: int, pct: float) -> int:
    """Samples ranked above the nearest-rank percentile of ``n`` samples."""
    return n - max(1, math.ceil(pct / 100.0 * n))


# --------------------------------------------------------------------------
# Driving the sweep


@dataclass
class Call:
    """One ``run_sweep`` + ``emit_csv`` call and what it produced."""

    cfg: object
    rows: list
    csv: str
    seconds: float
    trial_ms: list[float] = field(default_factory=list)
    # Host-speed factor from ``calibrate``; multiplies every time above.
    scale: float = 1.0

    def trial_rows(self, n_mal: int) -> list:
        return [r for r in self.rows if r.trial == 0 and r.n_malicious == n_mal]

    def completed_rows(self) -> list[list]:
        """The rows of each sweep point whose trial ran, one list per point."""
        found = []
        for n_mal in self.cfg.n_malicious:
            rows = self.trial_rows(n_mal)
            if rows and rows[0].method != "skipped":
                found.append(rows)
        return found

    @property
    def completed(self) -> int:
        return len(self.completed_rows())


def stripped(csv: str) -> str:
    """The CSV with its trailing ``detect_ms`` column cut off."""
    return "\n".join(line.rsplit(",", 1)[0] for line in csv.splitlines()) + "\n"


def digest(calls: list[Call]) -> str:
    h = hashlib.sha256()
    for call in calls:
        h.update(stripped(call.csv).encode())
    return h.hexdigest()


@contextmanager
def trial_timer(harness, sink: list[float]):
    """Time each ``run_trial`` call that ``run_sweep`` makes."""
    original = getattr(harness, "run_trial", None)
    if original is None:
        yield
        return

    def timed(*args, **kwargs):
        t0 = time.perf_counter()
        result = original(*args, **kwargs)
        sink.append((time.perf_counter() - t0) * 1e3)
        return result

    harness.run_trial = timed
    try:
        yield
    finally:
        harness.run_trial = original


def sweep_call(harness, cfg, tracer: tracing.Tracer | None = None) -> Call:
    trial_ms: list[float] = []
    with trial_timer(harness, trial_ms):
        t0 = time.perf_counter()
        if tracer is None:
            rows = harness.run_sweep(cfg)
        else:
            with tracer.span("harness.run_sweep"):
                rows = harness.run_sweep(cfg)
        text = harness.emit_csv(rows)
        seconds = time.perf_counter() - t0
    call = Call(cfg=cfg, rows=rows, csv=text, seconds=seconds)
    # A sweep that no longer goes through run_trial still gets one
    # sample per completed trial: the call's time spread evenly.
    if not trial_ms and call.completed:
        trial_ms = [seconds * 1e3 / call.completed] * call.completed
    call.trial_ms = trial_ms
    return call


def call_cfg(cfg, seed: int, k: int):
    return replace(cfg, master_seed=seed * SEED_STRIDE + k, trials=1)


def run_loop(
    harness, cfg, seed: int, keep_going: Callable[[list[Call], float], bool], cal: calibrate.Calibration
) -> list[Call]:
    """Calls back to back, with a calibration sample before each and after the last."""
    calls: list[Call] = []
    start = time.perf_counter()
    while True:
        cal.sample()
        elapsed = time.perf_counter() - start
        if elapsed >= MAX_LOOP_S or not keep_going(calls, elapsed):
            break
        calls.append(sweep_call(harness, call_cfg(cfg, seed, len(calls))))
    for k, call in enumerate(calls):
        call.scale = cal.scale(k)
    return calls


# --------------------------------------------------------------------------
# Output checks


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-12)


def check_call(call: Call) -> set[int]:
    """Sweep points of ``call`` whose trial was skipped or fails a check.

    Checks the row count (trials x methods plus summary rows), the range
    of every value, and that each summary row is the mean of its rows.
    """
    cfg = call.cfg
    bad: set[int] = set()
    expected = 0
    for n_mal in cfg.n_malicious:
        rows = call.trial_rows(n_mal)
        if len(rows) == 1 and rows[0].method == "skipped":
            bad.add(n_mal)
            expected += 1
            continue
        expected += 2 * len(cfg.methods)
        if [r.method for r in rows] != list(cfg.methods):
            bad.add(n_mal)
            continue
        for r in rows:
            in_unit = all(0.0 <= v <= 1.0 for v in (r.precision, r.recall))
            errors_ok = all(math.isfinite(v) and v >= 0.0 for v in (r.mean_error_m, r.max_error_m))
            if not (in_unit and errors_ok):
                bad.add(n_mal)
        summaries = {
            r.method: r for r in call.rows if r.trial == -1 and r.n_malicious == n_mal
        }
        for r in rows:
            s = summaries.get(r.method)
            columns = ("mean_error_m", "max_error_m", "precision", "recall", "detect_ms")
            if s is None or not all(_close(getattr(s, c), getattr(r, c)) for c in columns):
                bad.add(n_mal)
    if len(call.rows) != expected:
        bad.update(cfg.n_malicious)
    return bad


def check_reproduction(harness, calls: list[Call], seed: int) -> set[tuple[int, int]]:
    """Re-run sampled (call, sweep point) trials alone through ``run_trial``.

    The stand-alone rows must match the sweep's rows byte for byte
    outside ``detect_ms``.  Returns the (call index, n_malicious) pairs
    that do not.
    """
    pairs = [(i, n) for i, call in enumerate(calls) for n in call.cfg.n_malicious]
    picks = random.Random(seed).sample(pairs, min(REPRO_SAMPLES, len(pairs)))
    bad = set()
    for i, n_mal in picks:
        call = calls[i]
        swept = [r for r in call.trial_rows(n_mal) if r.method != "skipped"]
        if not swept:
            continue
        try:
            alone = harness.run_trial(call.cfg, 0, n_mal)
        except Exception as exc:  # a crash is a failed check, not a crashed benchmark
            print(f"perfbench: run_trial alone raised {exc!r}", file=sys.stderr)
            bad.add((i, n_mal))
            continue
        if stripped(harness.emit_csv(alone)) != stripped(harness.emit_csv(swept)):
            bad.add((i, n_mal))
    return bad


def failed_trials(harness, calls: list[Call], seed: int) -> set[tuple[int, int]]:
    failed = {(i, n) for i, call in enumerate(calls) for n in check_call(call)}
    return failed | check_reproduction(harness, calls, seed)


# --------------------------------------------------------------------------
# Set-up time

# Each launch also times the calibration kernel after the timed part, for
# the launch's own host-speed factor: the first kernel run warms up, the
# median of the next three counts.
SETUP_SNIPPET = """
import sys, time
text = sys.stdin.read()
t0 = time.perf_counter()
import anchorguard
from anchorguard.harness import parse_scenario
parse_scenario(text)
elapsed = time.perf_counter() - t0
sys.path.insert(0, sys.argv[1])
import statistics, calibrate
calibrate.kernel()
print(elapsed, statistics.median(calibrate.kernel_ms() for _ in range(3)))
"""


def measure_setup(text: str) -> list[tuple[float, float]]:
    """Fresh interpreters importing the package and parsing the scenario.

    Returns (seconds, kernel ms) per launch.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    launches = []
    for _ in range(SETUP_LAUNCHES):
        done = subprocess.run(
            [sys.executable, "-c", SETUP_SNIPPET, str(HERE)],
            input=text,
            capture_output=True,
            text=True,
            cwd=ROOT,
            env=env,
            timeout=60,
            check=True,
        )
        seconds, kernel_ms = done.stdout.strip().splitlines()[-1].split()
        launches.append((float(seconds), float(kernel_ms)))
    return launches


# --------------------------------------------------------------------------
# Metrics


@dataclass
class Metric:
    name: str
    unit: str
    value: float | None
    note: str = ""


END_TO_END_UNITS = {
    "trials_per_s": "1/s",
    "trial_ms_p50": "ms",
    f"trial_ms_p{TAIL_PCT}": "ms",
    "detect_ms_p50": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "precision": "ratio",
    "recall": "ratio",
    "mean_error_m": "m",
    "failed_share": "ratio",
}


def end_to_end(harness, workload: str, seed: int, seconds: float) -> tuple[list[Metric], int, int, list[str]]:
    text = scenario_text(workload, seed)
    cfg = harness.parse_scenario(text)
    setup = measure_setup(text)
    setup_s = [s * calibrate.factor(k) for s, k in setup]
    points = len(cfg.n_malicious)
    quality_calls = math.ceil(MIN_TRIAL_SAMPLES / points)

    sweep_call(harness, call_cfg(cfg, seed, SEED_STRIDE - 1))  # warm-up, not counted
    calibrate.kernel()

    def keep_going(calls: list[Call], elapsed: float) -> bool:
        samples = sum(len(c.trial_ms) for c in calls)
        return elapsed < seconds or samples < MIN_TRIAL_SAMPLES or len(calls) < quality_calls

    cal = calibrate.Calibration()
    calls = run_loop(harness, cfg, seed, keep_going, cal)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    failed = failed_trials(harness, calls, seed)
    attempted = points * len(calls)
    completed = sum(c.completed for c in calls)
    skipped = attempted - completed
    wall = sum(c.seconds * c.scale for c in calls)
    trial_ms = [t * c.scale for c in calls for t in c.trial_ms]
    detect_ms = [rows[0].detect_ms * c.scale for c in calls for rows in c.completed_rows()]
    raw_wall = sum(c.seconds for c in calls)
    raw_trial_ms = [t for c in calls for t in c.trial_ms]
    raw_detect_ms = [rows[0].detect_ms for c in calls for rows in c.completed_rows()]
    quality = calls[:quality_calls]
    q_rows = [r for c in quality for r in c.rows if r.trial == 0 and r.method == QUALITY_METHOD]

    def q_mean(column: str) -> float | None:
        return sum(getattr(r, column) for r in q_rows) / len(q_rows) if q_rows else None

    q_note = f"mean of {len(q_rows)} trials in the first {len(quality)} calls"
    n_note = f"n={len(trial_ms)} trials"
    values = {
        "trials_per_s": (completed / wall if wall else None, f"{completed} trials in {wall:.3f} s at reference speed"),
        "trial_ms_p50": (percentile(trial_ms, 50) if trial_ms else None, n_note),
        f"trial_ms_p{TAIL_PCT}": (
            percentile(trial_ms, TAIL_PCT) if trial_ms else None,
            f"{n_note}, {samples_beyond(len(trial_ms), TAIL_PCT)} beyond",
        ),
        "detect_ms_p50": (percentile(detect_ms, 50) if detect_ms else None, f"n={len(detect_ms)} trials"),
        "setup_s": (
            statistics.median(setup_s),
            f"median of {len(setup_s)} launches: " + " ".join(f"{t:.4f}" for t in setup_s),
        ),
        "peak_rss_mb": (peak_rss_mb, ""),
        "precision": (q_mean("precision"), q_note),
        "recall": (q_mean("recall"), q_note),
        "mean_error_m": (q_mean("mean_error_m"), q_note),
        "failed_share": (
            len(failed) / attempted if attempted else None,
            f"{skipped} skipped + {len(failed) - skipped} failing a check, of {attempted} attempted",
        ),
    }
    metrics = [Metric(name, END_TO_END_UNITS[name], *values[name]) for name in END_TO_END_UNITS]
    kernel = cal.samples_ms
    info = [
        f"csv_sha256 {digest(quality)} (detect_ms stripped, first {len(quality)} calls)",
        f"host speed: kernel {statistics.median(kernel):.3f} ms median of {len(kernel)} samples "
        f"(min {min(kernel):.3f}, max {max(kernel):.3f}); times are scaled to {calibrate.REF_KERNEL_MS} ms",
    ]
    if raw_trial_ms and raw_detect_ms:
        info.append(
            f"raw wall: trials_per_s {completed / raw_wall:.6g}, trial_ms_p50 {percentile(raw_trial_ms, 50):.6g}, "
            f"trial_ms_p{TAIL_PCT} {percentile(raw_trial_ms, TAIL_PCT):.6g}, "
            f"detect_ms_p50 {percentile(raw_detect_ms, 50):.6g}, "
            f"setup_s {statistics.median(s for s, _ in setup):.6g}"
        )
    return metrics, attempted, len(failed), info


def _ratio(num: float, den: float) -> float:
    if not den:
        raise tracing.Absent("zero base")
    return num / den


# name, unit, f(aggregate, trials, trial_indices) -> value.  "Per trial"
# divides by completed traced trials.
LAYER_METRICS: list[tuple[str, str, Callable]] = [
    ("deployment.placement_ms", "ms/trial", lambda a, t, k: (
        a.total_ms("harness.deploy") - a.total_ms("deployment.build_references", "harness.deploy")) / t),
    ("deployment.references_ms", "ms/trial", lambda a, t, k: a.total_ms("deployment.build_references") / t),
    ("deployment.reference_fixes", "count/trial", lambda a, t, k: (
        a.count_under("deployment.trilaterate", "deployment.build_references") / t)),
    ("deployment.m_cross_read_ratio", "ratio", lambda a, t, k: _ratio(
        a.count_under("detection.trilaterate", "detection.isolate_suspects")
        + a.calls("harness.relocalization_cloud"),
        a.count("m_cross_built", "harness.deploy"))),
    ("deployment.neighbor_scans", "count/trial", lambda a, t, k: a.calls("deployment.neighbor_groups") / t),
    ("deployment.neighbor_scan_ms", "ms/trial", lambda a, t, k: a.total_ms("deployment.neighbor_groups") / t),
    ("detection.neighbor_scans", "count/trial", lambda a, t, k: a.calls("detection.neighbor_groups") / t),
    ("detection.neighbor_scan_ms", "ms/trial", lambda a, t, k: a.total_ms("detection.neighbor_groups") / t),
    ("harness.deploys_per_trial_index", "ratio", lambda a, t, k: _ratio(a.calls("harness.deploy"), k)),
    ("attack.compromise_ms", "ms/trial", lambda a, t, k: a.total_ms("harness.compromise") / t),
    ("detection.stage1_ms", "ms/trial", lambda a, t, k: (
        a.total_ms("detection.group_check", "harness.run_detection") / t)),
    ("detection.groups_checked", "count/trial", lambda a, t, k: (
        a.calls("detection.group_check", "harness.run_detection") / t)),
    ("detection.groups_failed", "count/trial", lambda a, t, k: (
        a.count("failed", "detection.group_check", "harness.run_detection") / t)),
    ("detection.groups_unresolved", "count/trial", lambda a, t, k: (
        a.count("unresolved", "harness.run_detection") / t)),
    ("detection.groups_degenerate", "count/trial", lambda a, t, k: (
        a.count("degenerate", "detection.group_check", "harness.run_detection") / t)),
    ("detection.stage2_ms", "ms/trial", lambda a, t, k: a.total_ms("detection.isolate_suspects") / t),
    ("detection.members_relocalized", "count/trial", lambda a, t, k: (
        a.count_under("detection.trilaterate", "detection.isolate_suspects") / t)),
    ("detection.suspects", "count/trial", lambda a, t, k: a.count("suspects", "harness.run_detection") / t),
    ("detection.self_ms", "ms/trial", lambda a, t, k: a.self_ms("harness.run_detection") / t),
    ("detection.range_draws", "count/trial", lambda a, t, k: (
        a.count_under("detection.measure", "harness.run_detection") / t)),
    ("confirmation.cloud_ms", "ms/trial", lambda a, t, k: a.total_ms("harness.relocalization_cloud") / t),
    ("confirmation.cloud_fixes", "count/trial", lambda a, t, k: (
        a.count_under("detection.trilaterate", "harness.relocalization_cloud") / t)),
    ("confirmation.range_draws", "count/trial", lambda a, t, k: (
        a.count_under("detection.measure", "harness.relocalization_cloud") / t)),
    ("confirmation.score_ms", "ms/trial", lambda a, t, k: a.total_ms("harness.confirm_outliers") / t),
    ("confirmation.suspects_scored", "count/trial", lambda a, t, k: (
        a.count("scored", "harness.confirm_outliers") / t)),
    # The harness confirms a suspect outright when scoring raises.
    ("confirmation.confirmed_ratio", "ratio", lambda a, t, k: _ratio(
        a.count("outliers", "harness.confirm_outliers") + a.count("raised", "harness.confirm_outliers"),
        a.count("scored", "harness.confirm_outliers"))),
    ("confirmation.singular_fallbacks", "count/trial", lambda a, t, k: (
        a.count("raised", "harness.confirm_outliers") / t)),
    ("harness.trial_self_ms", "ms/trial", lambda a, t, k: a.self_ms("harness.run_trial") / t),
    ("harness.emit_csv_ms", "ms/trial", lambda a, t, k: a.total_ms("harness.emit_csv") / t),
]
OVERHEAD_METRIC = "trace.overhead_ratio"
LAYER_UNITS = {name: unit for name, unit, _ in LAYER_METRICS} | {OVERHEAD_METRIC: "ratio"}


def layer_metrics(agg: tracing.Aggregate, trials: int, trial_indices: int, scale: float = 1.0) -> list[Metric]:
    """Per-layer metrics; ``scale`` multiplies the times (see ``calibrate``)."""
    metrics = []
    for name, unit, fn in LAYER_METRICS:
        try:
            value = fn(agg, trials, trial_indices)
            metrics.append(Metric(name, unit, value * scale if unit == "ms/trial" else value))
        except tracing.Absent as exc:
            metrics.append(Metric(name, unit, None, f"absent: {exc} not recorded"))
        except ZeroDivisionError:
            metrics.append(Metric(name, unit, None, "absent: no completed trials"))
    return metrics


def per_layer(harness, workload: str, seed: int, seconds: float) -> tuple[list[Metric], int, int, list[str]]:
    cfg = harness.parse_scenario(scenario_text(workload, seed))
    sweep_call(harness, call_cfg(cfg, seed, SEED_STRIDE - 1))  # warm-up, not counted
    calibrate.kernel()
    # Each call runs untraced and then traced, back to back, so that the
    # overhead ratio compares the two under the same machine conditions.
    tracer = tracing.Tracer()
    cal = calibrate.Calibration()
    plain: list[Call] = []
    traced: list[Call] = []
    start = time.perf_counter()
    while len(plain) < TRACE_MIN_CALLS or time.perf_counter() - start < min(seconds, MAX_LOOP_S):
        cal.sample()
        cfg_k = call_cfg(cfg, seed, len(plain))
        plain.append(sweep_call(harness, cfg_k))
        with tracing.hooked(tracer):
            traced.append(sweep_call(harness, cfg_k, tracer))
    cal.sample()

    failed = failed_trials(harness, traced, seed)
    for i, (a, b) in enumerate(zip(plain, traced)):
        if stripped(a.csv) != stripped(b.csv):
            failed.update((i, n) for n in a.cfg.n_malicious)
    attempted = len(cfg.n_malicious) * len(traced)
    trials = sum(c.completed for c in traced)
    plain_tps = sum(c.completed for c in plain) / sum(c.seconds for c in plain)
    traced_s = sum(c.seconds for c in traced)
    traced_tps = trials / traced_s

    agg = tracing.Aggregate(tracer)
    metrics = layer_metrics(agg, trials, len(traced), cal.run_scale())
    metrics.append(Metric(OVERHEAD_METRIC, LAYER_UNITS[OVERHEAD_METRIC], traced_tps / plain_tps,
                          f"traced {traced_tps:.3f} / untraced {plain_tps:.3f} trials/s"))

    SPAN_DIR.mkdir(exist_ok=True)
    span_file = SPAN_DIR / f"spans-{workload}-seed{seed}.jsonl"
    tracing.write_spans(tracer, span_file)

    table = agg.self_table_ms()
    accounted = sum(table.values()) / trials
    info = [
        f"traced {trials} trials in {len(traced)} calls, {len(tracer.spans)} spans -> {span_file.relative_to(ROOT)}",
        f"csv_sha256 traced {digest(traced)} untraced {digest(plain)}",
        f"missing hooks: {', '.join(tracer.missing) or 'none'}",
        f"host speed: kernel {statistics.median(cal.samples_ms):.3f} ms median of {len(cal.samples_ms)} samples; "
        f"ms/trial metrics are scaled by {cal.run_scale():.4f} to {calibrate.REF_KERNEL_MS} ms, "
        "the self-time line below is raw wall time",
        "m_cross_read_ratio base: "
        + _safe(lambda: f"{agg.count('m_cross_built', 'harness.deploy') / trials:.1f} m_cross entries built per trial"),
        f"self time per trial: wall {1e3 * traced_s / trials:.3f} ms, spans {accounted:.3f} ms = "
        + " + ".join(f"{name} {ms / trials:.3f}" for name, ms in sorted(table.items(), key=lambda kv: -kv[1])),
    ]
    return metrics, attempted, len(failed), info


def _safe(fn: Callable[[], str]) -> str:
    try:
        return fn()
    except (tracing.Absent, ZeroDivisionError) as exc:
        return f"absent ({exc})"


# --------------------------------------------------------------------------
# Reporting


def declared_metrics(trace: bool) -> set[str]:
    """The metrics BENCHMARK.json declares for the mode."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def report(workload: str, seed: int, trace: bool, metrics: list[Metric], info: list[str]) -> None:
    print(f"== {workload} seed {seed} trace {int(trace)}: {WORKLOADS[workload].why}")
    for line in info:
        print(f"   {line}")
    for m in metrics:
        shown = "absent" if m.value is None else f"{m.value:.6g}"
        print(f"   {m.name:<34} {shown:>14} {m.unit:<12} {m.note}")


def result_json(metrics: list[Metric], trace: bool, attempted: int, failed: int) -> dict:
    wanted = declared_metrics(trace)
    chosen = {
        m.name: {"value": m.value, "unit": m.unit}
        for m in metrics
        if m.value is not None and m.name in wanted
    }
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": chosen}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    for var in THREAD_ENV:
        os.environ[var] = "1"
    try:
        harness = load_harness()
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    trace = bool(args.trace)
    print(f"machine: {machine_note()}")
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        measure = per_layer if trace else end_to_end
        metrics, attempted, failed, info = measure(harness, name, args.seed, args.seconds)
        report(name, args.seed, trace, metrics, info)
        results[name] = result_json(metrics, trace, attempted, failed)

    if len(names) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}/{k}": v for w, r in results.items() for k, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
