"""Self-tests of the benchmark itself.

Run from the repository root with ``python -m pytest perfbench``.
"""

import json
import re
import sys
from dataclasses import replace
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import calibrate  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402

harness = run.load_harness()

METRIC_NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")

# Small enough to run in milliseconds, large enough that suspects reach
# confirmation.
TINY = harness.ScenarioConfig(
    area_w=300.0,
    area_h=300.0,
    n_nodes=16,
    sigma=0.5,
    n_malicious=(2, 4),
    trials=2,
    cloud_samples=8,
)


def test_metric_names_use_allowed_characters():
    names = [*run.END_TO_END_UNITS, *run.LAYER_UNITS, *run.WORKLOADS]
    assert len(set(names)) == len(names)
    for name in names:
        assert METRIC_NAME.fullmatch(name), name


def test_benchmark_json_names_what_the_benchmark_measures():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    for w in spec["workloads"]:
        assert w["why"] == run.WORKLOADS[w["name"]].why
    for m in spec["end_to_end"]:
        assert run.END_TO_END_UNITS[m["name"]] == m["unit"], m
    for m in spec["per_layer"]:
        assert run.LAYER_UNITS[m["name"]] == m["unit"], m


def test_tail_percentile_keeps_ten_samples_beyond():
    assert run.samples_beyond(run.MIN_TRIAL_SAMPLES, run.TAIL_PCT) >= 10
    values = [float(v) for v in range(1, run.MIN_TRIAL_SAMPLES + 1)]
    tail = run.percentile(values, run.TAIL_PCT)
    beyond = sum(1 for v in values if v > tail)
    assert beyond == run.samples_beyond(len(values), run.TAIL_PCT)
    assert run.percentile(values, 50) == 50.0
    assert run.percentile([3.0], run.TAIL_PCT) == 3.0


def test_hooks_leave_the_csv_unchanged_and_are_removed_after():
    plain = run.stripped(harness.emit_csv(harness.run_sweep(TINY)))
    originals = {name: getattr(harness, name) for name in ("deploy", "run_trial", "emit_csv")}
    tracer = tracing.Tracer()
    with tracing.hooked(tracer):
        with tracer.span("harness.run_sweep"):
            rows = harness.run_sweep(TINY)
        traced = run.stripped(harness.emit_csv(rows))
    assert traced == plain
    assert {s.name for s in tracer.spans} >= {
        "harness.deploy",
        "deployment.build_references",
        "harness.run_detection",
        "harness.relocalization_cloud",
        "harness.emit_csv",
    }
    assert {name: getattr(harness, name) for name in originals} == originals


def test_self_time_on_a_synthetic_span_tree():
    # root [0, 10] holds a [1, 5] and c [6, 9]; a holds b [2, 4].
    ticks = iter([0.0, 1.0, 2.0, 4.0, 5.0, 6.0, 9.0, 10.0])
    tracer = tracing.Tracer(clock=lambda: next(ticks))
    with tracer.span("root"):
        with tracer.span("a"):
            with tracer.span("b"):
                tracer.count("hits")
                tracer.count("hits")
        with tracer.span("c"):
            pass
    assert [(s.name, s.duration_s, s.self_s) for s in tracer.spans] == [
        ("root", 10.0, 3.0),
        ("a", 4.0, 2.0),
        ("b", 2.0, 2.0),
        ("c", 3.0, 3.0),
    ]
    agg = tracing.Aggregate(tracer)
    assert agg.self_table_ms() == {"root": 3000.0, "a": 2000.0, "b": 2000.0, "c": 3000.0}
    assert sum(agg.self_table_ms().values()) == agg.total_ms("root")
    assert agg.total_ms("b", parent="a") == 2000.0
    assert agg.count_under("hits", "root") == 2
    assert agg.count_under("hits", "c") == 0


def test_missing_hook_targets_give_absent_metrics():
    hooks = (tracing.Hook("harness", "no_such_function"), tracing.Hook("no_such_module", "f"))
    tracer = tracing.Tracer()
    with tracing.hooked(tracer, hooks):
        pass
    assert tracer.missing == ["harness.no_such_function", "no_such_module.f"]
    metrics = run.layer_metrics(tracing.Aggregate(tracer), trials=1, trial_indices=1)
    assert [m.name for m in metrics] == [name for name, _, _ in run.LAYER_METRICS]
    assert all(m.value is None and m.note.startswith("absent") for m in metrics)


def test_output_checks_flag_a_wrong_summary_row():
    cfg = replace(TINY, trials=1)
    call = run.sweep_call(harness, cfg)
    assert run.check_call(call) == set()
    assert run.check_reproduction(harness, [call], seed=1) == set()
    summary = next(i for i, r in enumerate(call.rows) if r.trial == -1 and r.n_malicious == 4)
    call.rows[summary] = replace(call.rows[summary], precision=call.rows[summary].precision + 0.5)
    assert run.check_call(call) == {4}


def test_calibration_kernel_is_fixed_work_and_scales_by_its_neighbours(monkeypatch):
    assert calibrate.kernel() == calibrate.kernel()
    monkeypatch.setattr(calibrate, "WINDOW", 3)
    monkeypatch.setattr(calibrate, "ELASTICITY", 1.0)
    cal = calibrate.Calibration()
    ref = calibrate.REF_KERNEL_MS
    # Samples 0..7; the host runs at half speed from sample 4 on.
    cal.samples_ms = [ref, ref, ref, ref, 2 * ref, 2 * ref, 2 * ref, 2 * ref]
    assert cal.scale(0) == 1.0  # samples 0..3
    assert cal.scale(2) == 1.0  # samples 0..5
    assert cal.scale(3) == pytest.approx(2 / 3)  # samples 1..6: median 1.5 ref
    assert cal.scale(5) == 0.5  # samples 3..7: median 2 ref
    assert cal.run_scale() == pytest.approx(2 / 3)
    monkeypatch.setattr(calibrate, "ELASTICITY", 0.5)
    assert cal.scale(5) == pytest.approx(0.5**0.5)
