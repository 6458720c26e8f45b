"""End-to-end acceptance checks, one verdict line per criterion.

Run `pytest tests/test_acceptance.py -v -s` to see every verdict even
when all criteria pass.  Criteria 6 and 7 share one noisy sweep at the
documented trend operating point (comm_radius 70, master_seed 42);
criterion 8 reruns a reduced scenario twice.
"""

import math
import time

import numpy as np
import pytest
from scipy.optimize import brentq

from anchorguard.attack import AttackSpec, UniformRadial, compromise
from anchorguard.deployment import deploy
from anchorguard.detection import run_detection
from anchorguard.geometry import DegenerateGeometry, Point2, frame_xy, trilaterate
from anchorguard.harness import (
    METHOD_MAHALANOBIS,
    METHOD_TRILATERATION,
    SUMMARY_TRIAL,
    ScenarioConfig,
    _confirm_suspects,
    emit_csv,
    run_sweep,
    trial_streams,
)
from anchorguard.mahalanobis import (
    CovarianceMatrix2,
    chi_square_cutoff,
    distance_to_centroid,
    invert,
)
from anchorguard.ranging import RangingModel, true_distance

TREND_SWEEP = ScenarioConfig(
    sigma=0.5,
    n_malicious=(4, 8, 12, 16, 20),
    trials=30,
    master_seed=42,
    comm_radius=70.0,
)


def verdict(num, ok, detail):
    line = f"criterion {num}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def trend_sweep():
    start = time.perf_counter()
    rows = run_sweep(TREND_SWEEP)
    elapsed = time.perf_counter() - start
    summaries = {
        (r.n_malicious, r.method): r for r in rows if r.trial == SUMMARY_TRIAL
    }
    return summaries, elapsed


def test_criterion_1_round_trip():
    rng = np.random.default_rng(921)
    start = time.perf_counter()
    worst = 0.0
    done = 0
    while done < 1000:
        pts = [Point2(rng.uniform(0, 600), rng.uniform(0, 600)) for _ in range(3)]
        a, b, c = pts
        if 0.5 * abs((b.x - a.x) * (c.y - a.y) - (c.x - a.x) * (b.y - a.y)) < 25.0:
            continue
        target = Point2(rng.uniform(0, 600), rng.uniform(0, 600))
        fix = trilaterate(pts, [true_distance(target, p) for p in pts])
        worst = max(worst, true_distance(fix, target))
        done += 1
    elapsed = time.perf_counter() - start
    verdict(
        1,
        worst < 1e-9 and elapsed < 1.0,
        f"1000 triples, max error {worst:.3e} m in {elapsed * 1e3:.0f} ms",
    )


def _two_circle_intersection(d, i, j, r1, r2, r3):
    """Numeric root-find on the first two circle equations.

    Walks the first circle by angle, brackets every sign change of the
    distance-to-second-circle gap, then picks the intersection that
    best satisfies the third range.  Shares no algebra with the closed
    form under test.
    """

    def gap(theta):
        return math.hypot(r1 * math.cos(theta) - d, r1 * math.sin(theta)) - r2

    candidates = []
    n = 2000
    thetas = [k * 2.0 * math.pi / n for k in range(n + 1)]
    values = [gap(t) for t in thetas]
    for ta, tb, va, vb in zip(thetas, thetas[1:], values, values[1:]):
        if va == 0.0:
            candidates.append(ta)
        elif va * vb < 0.0:
            candidates.append(brentq(gap, ta, tb, xtol=1e-14, rtol=8.9e-16))
    points = [Point2(r1 * math.cos(t), r1 * math.sin(t)) for t in candidates]
    return min(points, key=lambda p: abs(math.hypot(p.x - i, p.y - j) - r3))


def test_criterion_2_closed_form_oracle():
    rng = np.random.default_rng(916)
    worst_first = 0.0
    worst_second = 0.0
    done = 0
    while done < 100:
        d = rng.uniform(20, 200)
        i = rng.uniform(-100, 200)
        j = rng.uniform(20, 200)
        if 0.5 * abs(d * j) <= 50.0:
            continue
        target = Point2(rng.uniform(-50, 250), rng.uniform(-50, 250))
        if math.hypot(target.x, target.y) < 1.0:
            continue
        r1 = math.hypot(target.x, target.y)
        r2 = math.hypot(target.x - d, target.y)
        r3 = math.hypot(target.x - i, target.y - j)
        fix = Point2(*frame_xy(d, i, j, r1, r2, r3))
        direct = (r1 * r1 - r2 * r2 + d * d) / (2.0 * d)
        worst_first = max(
            worst_first, abs(fix.x - direct) / max(abs(direct), 1e-30)
        )
        crossing = _two_circle_intersection(d, i, j, r1, r2, r3)
        worst_second = max(worst_second, true_distance(fix, crossing))
        done += 1
    verdict(
        2,
        worst_first < 1e-12 and worst_second < 1e-9,
        f"100 configs, first coordinate {worst_first:.2e} rel, "
        f"intersection gap {worst_second:.2e} m",
    )


def test_criterion_3_determinant_identity():
    rng = np.random.default_rng(917)
    worst_det = 0.0
    worst_eye = 0.0
    for _ in range(1000):
        a = rng.normal(0.0, 3.0, (2, 2))
        m = a @ a.T + np.eye(2) * rng.uniform(0.01, 1.0)
        cov = CovarianceMatrix2(m[0, 0], m[1, 1], m[0, 1])
        oracle = float(np.linalg.det(m))
        worst_det = max(worst_det, abs(cov.det - oracle) / abs(oracle))
        # Variance-correlation factoring of the same determinant.
        rho_sq = cov.s12 * cov.s12 / (cov.s11 * cov.s22)
        alt = cov.s11 * cov.s22 * (1.0 - rho_sq)
        worst_det = max(worst_det, abs(cov.det - alt) / abs(cov.det))
        inv = invert(cov)
        prod = m @ np.array([[inv.s11, inv.s12], [inv.s12, inv.s22]])
        worst_eye = max(worst_eye, float(np.abs(prod - np.eye(2)).max()))
    verdict(
        3,
        worst_det < 1e-12 and worst_eye < 1e-10,
        f"1000 matrices, det {worst_det:.2e} rel, inverse product {worst_eye:.2e}",
    )


def test_criterion_4_mahalanobis_reductions():
    rng = np.random.default_rng(918)
    identity = CovarianceMatrix2(1.0, 1.0, 0.0)
    worst_euclid = 0.0
    for _ in range(1000):
        p = Point2(rng.uniform(-100, 100), rng.uniform(-100, 100))
        c = Point2(rng.uniform(-100, 100), rng.uniform(-100, 100))
        worst_euclid = max(
            worst_euclid,
            abs(distance_to_centroid(p, c, identity) - true_distance(p, c)),
        )

    rng = np.random.default_rng(919)
    worst_affine = 0.0
    for _ in range(100):
        while True:
            mmat = rng.normal(0.0, 2.0, (2, 2))
            if abs(np.linalg.det(mmat)) > 0.1:
                break
        shift = rng.normal(0.0, 50.0, 2)
        a = rng.normal(0.0, 2.0, (2, 2))
        cm = a @ a.T + np.eye(2) * 0.3
        cov = CovarianceMatrix2(cm[0, 0], cm[1, 1], cm[0, 1])
        p = Point2(rng.uniform(-20, 20), rng.uniform(-20, 20))
        c = Point2(rng.uniform(-20, 20), rng.uniform(-20, 20))
        base = distance_to_centroid(p, c, invert(cov))
        cm2 = mmat @ cm @ mmat.T
        cov2 = CovarianceMatrix2(cm2[0, 0], cm2[1, 1], cm2[0, 1])
        tp = mmat @ np.array([p.x, p.y]) + shift
        tc = mmat @ np.array([c.x, c.y]) + shift
        moved = distance_to_centroid(Point2(*tp), Point2(*tc), invert(cov2))
        worst_affine = max(worst_affine, abs(base - moved) / max(abs(base), 1e-30))
    verdict(
        4,
        worst_euclid < 1e-12 and worst_affine < 1e-9,
        f"identity gap {worst_euclid:.2e}, affine gap {worst_affine:.2e} rel",
    )


def test_criterion_5_zero_noise_detection():
    model = RangingModel.exact()
    cutoff = chi_square_cutoff(0.05)
    violating = []
    imperfect = []
    for seed in range(100):
        cfg = ScenarioConfig(ranging="exact", epsilon=1.0, master_seed=seed)
        _, (deploy_rng, attack_rng, detect_rng, confirm_rng) = trial_streams(cfg, 0)
        net = deploy((600.0, 600.0), 122, deploy_rng, cfg.comm_radius)
        net, truth = compromise(
            net,
            AttackSpec(count=12, displacement=UniformRadial(20.0, 60.0)),
            attack_rng,
        )
        report = run_detection(net, 1.0, model, detect_rng)
        if report.groups_unresolved:
            violating.append(seed)
            continue
        confirmed = _confirm_suspects(net, report, model, cutoff, 64, confirm_rng)
        if report.flagged_ids != truth.malicious_ids or confirmed != truth.malicious_ids:
            imperfect.append(seed)
    verdict(
        5,
        not imperfect and len(violating) < 5,
        f"imperfect seeds {imperfect}, precondition violations {violating} "
        f"({len(violating)}/100, expected < 5)",
    )


def test_criterion_6_confirmation_lowers_error(trend_sweep):
    summaries, elapsed = trend_sweep
    gaps = []
    for n in TREND_SWEEP.n_malicious:
        only = summaries[(n, METHOD_TRILATERATION)].mean_error_m
        maha = summaries[(n, METHOD_MAHALANOBIS)].mean_error_m
        gaps.append((n, only, maha))
    ok = all(maha <= only for _, only, maha in gaps) and elapsed < 60.0
    detail = ", ".join(f"n={n}: {maha:.3f}<={only:.3f}" for n, only, maha in gaps)
    verdict(6, ok, f"{detail}; sweep took {elapsed:.1f} s")


def test_criterion_7_error_and_time_trends(trend_sweep):
    summaries, _ = trend_sweep

    def inversions(series):
        return sum(1 for a, b in zip(series, series[1:]) if b < a)

    report = []
    ok = True
    for method in (METHOD_TRILATERATION, METHOD_MAHALANOBIS):
        errors = [summaries[(n, method)].mean_error_m for n in TREND_SWEEP.n_malicious]
        times = [summaries[(n, method)].detect_ms for n in TREND_SWEEP.n_malicious]
        inv_e = inversions(errors)
        inv_t = inversions(times)
        ok = ok and inv_e <= 1 and inv_t <= 1
        report.append(f"{method}: error inversions {inv_e}, time inversions {inv_t}")
    verdict(7, ok, "; ".join(report))


def test_criterion_8_csv_determinism():
    cfg = ScenarioConfig(sigma=0.5, n_malicious=(4, 12), trials=5, comm_radius=70.0)

    def stripped():
        rows = run_sweep(cfg)
        return "\n".join(
            line.rsplit(",", 1)[0] for line in emit_csv(rows).splitlines()
        )

    first = stripped()
    second = stripped()
    verdict(
        8,
        first == second,
        f"two runs, {len(first.splitlines())} rows byte-identical excluding detect_ms",
    )


def test_criterion_9_clean_network_false_alarms():
    cfg = ScenarioConfig(
        sigma=0.5,
        epsilon=5.0,
        alpha=0.05,
        n_malicious=(0,),
        trials=1000,
        methods=(METHOD_MAHALANOBIS,),
    )
    rows = [r for r in run_sweep(cfg) if r.trial != SUMMARY_TRIAL]
    alarms = sum(1 for r in rows if r.precision < 1.0)
    rate = alarms / len(rows)
    verdict(
        9,
        rate <= 0.08,
        f"{alarms}/{len(rows)} clean trials raised a confirmed outlier (rate {rate:.4f})",
    )
