"""Scenario parsing, trial orchestration, metrics, CSV rendering."""

import hashlib
import math
from dataclasses import replace

import numpy as np
import pytest

from anchorguard import deployment, harness
from anchorguard.attack import AttackSpec, FixedOffset, SpecificIds, compromise
from anchorguard.detection import SuspectRecord
from anchorguard.geometry import Point2
from anchorguard.harness import (
    CSV_HEADER,
    METHOD_MAHALANOBIS,
    METHOD_TRILATERATION,
    SKIPPED,
    SUMMARY_TRIAL,
    MetricsRecord,
    ParseError,
    ScenarioConfig,
    ValidationError,
    _error_stats,
    emit_csv,
    parse_scenario,
    run_sweep,
    run_trial,
    trial_streams,
)
from conftest import compensated_sum

FULL_DOC = """
# attack-size sweep
area_w = 600
area_h = 600
n_nodes = 122
n_malicious = [4, 8, 12]
ranging = gaussian
sigma = 0.5        # meters
epsilon = 5.0
alpha = 0.05
comm_radius = 80
trials = 30
master_seed = 42
methods = [trilateration_only, trilateration_mahalanobis]
displacement_min = 20
displacement_max = 60
cloud_samples = 64
"""


def test_parse_full_document():
    cfg = parse_scenario(FULL_DOC)
    assert cfg.n_malicious == (4, 8, 12)
    assert cfg.ranging == "gaussian"
    assert cfg.sigma == 0.5
    assert cfg.epsilon == 5.0
    assert cfg.comm_radius == 80.0
    assert cfg.methods == (METHOD_TRILATERATION, METHOD_MAHALANOBIS)
    assert cfg.cloud_samples == 64


def test_parse_minimal_document_defaults():
    cfg = parse_scenario("n_nodes = 122\n")
    assert (cfg.area_w, cfg.area_h) == (600.0, 600.0)
    assert cfg.trials == 30
    assert cfg.sigma == 0.0
    assert cfg.resolved_epsilon() == 1.0
    assert cfg.alpha == 0.05
    assert cfg.comm_radius == 150.0
    assert cfg.master_seed == 42
    assert cfg.methods == (METHOD_TRILATERATION, METHOD_MAHALANOBIS)


def test_scalar_n_malicious_becomes_tuple():
    assert parse_scenario("n_malicious = 7\n").n_malicious == (7,)


def test_resolved_epsilon_tracks_noise():
    assert ScenarioConfig(sigma=0.0).resolved_epsilon() == 1.0
    assert ScenarioConfig(sigma=0.5).resolved_epsilon() == 5.0
    assert ScenarioConfig(sigma=0.05).resolved_epsilon() == 1.0
    assert ScenarioConfig(sigma=2.0, epsilon=3.5).resolved_epsilon() == 3.5


@pytest.mark.parametrize(
    "doc, fragment",
    [
        ("bogus_key = 1\n", "unknown key"),
        ("trials = 5\ntrials = 6\n", "duplicate"),
        ("sigma\n", "key=value"),
        ("sigma =\n", "no value"),
        ("n_malicious = [4, 8\n", "unterminated"),
        ("trials = soon\n", "integer"),
        ("sigma = much\n", "number"),
        ("sigma = [1, 2]\n", "does not take a list"),
        ("n_malicious = []\n", "no values"),
    ],
)
def test_parse_errors(doc, fragment):
    with pytest.raises(ParseError, match=fragment):
        parse_scenario(doc)


def test_parse_error_carries_line_number():
    try:
        parse_scenario("n_nodes = 10\nwat = 1\n")
    except ParseError as exc:
        assert exc.lineno == 2
    else:
        pytest.fail("expected ParseError")


def _each_build(doc, monkeypatch):
    """Builders of the scenario ``doc`` describes, one for each way a
    ScenarioConfig gets built: parsing the document, constructing it
    from the parsed values, and ``replace`` on the default scenario."""
    with monkeypatch.context() as m:
        # parse_scenario hands its parsed values to ScenarioConfig as
        # keywords; a dict in its place collects them unchecked.
        m.setattr(harness, "ScenarioConfig", dict)
        fields = harness.parse_scenario(doc)
    return [
        lambda: parse_scenario(doc),
        lambda: ScenarioConfig(**fields),
        lambda: replace(ScenarioConfig(), **fields),
    ]


@pytest.mark.parametrize(
    "doc, field",
    [
        ("n_malicious = 200\nn_nodes = 122\n", "n_malicious"),
        ("sigma = -1\n", "sigma"),
        ("alpha = 1.5\n", "alpha"),
        ("alpha = 0\n", "alpha"),
        ("epsilon = 0\n", "epsilon"),
        ("comm_radius = -10\n", "comm_radius"),
        ("trials = 0\n", "trials"),
        ("n_nodes = 3\n", "n_nodes"),
        ("area_w = -5\n", "area"),
        ("master_seed = -1\n", "master_seed"),
        ("ranging = sonar\n", "ranging"),
        ("methods = [warp_drive]\n", "methods"),
        ("methods = [trilateration_only, trilateration_only]\n", "methods"),
        ("displacement_min = 70\ndisplacement_max = 60\n", "displacement"),
        ("cloud_samples = 2\n", "cloud_samples"),
    ],
)
def test_validation_errors(doc, field, monkeypatch):
    for build in _each_build(doc, monkeypatch):
        with pytest.raises(ValidationError, match=field):
            build()


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize(
    "key",
    [
        "area_w",
        "area_h",
        "sigma",
        "epsilon",
        "alpha",
        "comm_radius",
        "displacement_min",
        "displacement_max",
    ],
)
def test_validation_rejects_non_finite(key, value, monkeypatch):
    for build in _each_build(f"{key} = {value}\n", monkeypatch):
        with pytest.raises(ValidationError, match=f"{key}: must be finite"):
            build()


@pytest.mark.parametrize(
    "fields, field",
    [
        ({"n_malicious": [2]}, "n_malicious"),
        ({"n_malicious": (2.0,)}, "n_malicious"),
        ({"n_malicious": (True,)}, "n_malicious"),
        ({"methods": ["trilateration_only"]}, "methods"),
        ({"methods": "trilateration_only"}, "methods"),
        ({"trials": 1.5}, "trials"),
        ({"n_nodes": 10.5}, "n_nodes"),
        ({"n_nodes": True}, "n_nodes"),
        ({"master_seed": "7"}, "master_seed"),
        ({"cloud_samples": 64.0}, "cloud_samples"),
        ({"sigma": "0.5"}, "sigma"),
        ({"alpha": True}, "alpha"),
        ({"area_w": None}, "area_w"),
        ({"epsilon": "3"}, "epsilon"),
        ({"comm_radius": [70.0]}, "comm_radius"),
    ],
    ids=lambda v: v if isinstance(v, str) else repr(next(iter(v.values()))),
)
def test_validation_rejects_wrong_types(fields, field):
    # Only code can build these; a document or a CLI flag is parsed
    # into the right types first.
    with pytest.raises(ValidationError, match=f"^{field}:"):
        ScenarioConfig(**fields)
    with pytest.raises(ValidationError, match=f"^{field}:"):
        replace(ScenarioConfig(), **fields)


def test_validation_accepts_numpy_and_int_numbers():
    cfg = ScenarioConfig(
        n_nodes=np.int64(122), n_malicious=(np.int64(4),), area_w=600, sigma=np.float64(0.5)
    )
    assert cfg.n_nodes == 122 and cfg.area_w == 600.0


def test_validate_rejects_empty_methods():
    # A document cannot list no methods; only code can build one so.
    with pytest.raises(ValidationError, match="methods"):
        ScenarioConfig(methods=())
    with pytest.raises(ValidationError, match="methods"):
        replace(ScenarioConfig(), methods=())


def test_trial_streams_reproducible_and_distinct():
    cfg = ScenarioConfig()
    seed_a, streams_a = trial_streams(cfg, 0)
    seed_b, streams_b = trial_streams(cfg, 0)
    assert seed_a == seed_b
    assert len(streams_a) == 4
    for x, y in zip(streams_a, streams_b):
        assert x.normal() == y.normal()
    seed_c, _ = trial_streams(cfg, 1)
    assert seed_c != seed_a
    seed_d, _ = trial_streams(replace(cfg, master_seed=43), 0)
    assert seed_d != seed_a


def test_clean_network_conventions():
    cfg = ScenarioConfig(n_malicious=(0,), ranging="exact")
    rows = run_trial(cfg, 0)
    assert len(rows) == 2
    for r in rows:
        assert r.precision == 1.0
        assert r.recall == 1.0
        assert r.mean_error_m == 0.0
        assert r.max_error_m == 0.0


def test_noise_free_trial_is_perfect():
    cfg = ScenarioConfig(ranging="exact")
    for r in run_trial(cfg, 0):
        assert r.precision == 1.0
        assert r.recall == 1.0
        assert r.mean_error_m < 1e-9
        assert r.n_malicious == 12


def test_error_stats_blends_fixes_and_misses(two_group_net):
    # One flagged anchor known by a fix 5 m off, one missed cheater
    # displaced 50 m: the system's picture is wrong by 27.5 m on mean.
    spec = AttackSpec(
        count=1, displacement=FixedOffset(30.0, 40.0), selection=SpecificIds((5,))
    )
    net, _ = compromise(two_group_net, spec, np.random.default_rng(0))
    true4 = net.node(4).true_pos
    rec = SuspectRecord(
        anchor_id=4,
        group_id=1,
        verifier_group_id=0,
        observed_pos=true4,
        localized_pos=Point2(true4.x + 3.0, true4.y + 4.0),
        reference_pos=true4,
        deviation=9.9,
    )
    mean, worst = _error_stats(net, frozenset({4, 5}), [rec])
    assert mean == pytest.approx(27.5, abs=1e-9)
    assert worst == pytest.approx(50.0, abs=1e-9)
    assert _error_stats(net, frozenset(), []) == (0.0, 0.0)


def test_sweep_row_counts():
    cfg = ScenarioConfig(n_malicious=(0, 4, 8, 12), trials=10, ranging="exact")
    rows = run_sweep(cfg)
    data = [r for r in rows if r.trial != SUMMARY_TRIAL]
    summaries = [r for r in rows if r.trial == SUMMARY_TRIAL]
    assert len(data) == 80
    assert len(summaries) == 8


def test_summary_rows_hold_column_means():
    cfg = ScenarioConfig(n_malicious=(4,), trials=5, sigma=0.4)
    rows = run_sweep(cfg)
    for method in cfg.methods:
        data = [r for r in rows if r.trial != SUMMARY_TRIAL and r.method == method]
        summ = [r for r in rows if r.trial == SUMMARY_TRIAL and r.method == method]
        assert len(summ) == 1
        assert summ[0].seed == cfg.master_seed
        assert summ[0].mean_error_m == pytest.approx(
            sum(r.mean_error_m for r in data) / len(data)
        )
        assert summ[0].recall == pytest.approx(sum(r.recall for r in data) / len(data))


def test_sweep_deterministic_except_timing():
    cfg = ScenarioConfig(n_malicious=(4,), trials=3, sigma=0.3)
    a = run_sweep(cfg)
    b = run_sweep(cfg)
    assert len(a) == len(b)
    for x, y in zip(a, b):
        assert replace(x, detect_ms=0.0) == replace(y, detect_ms=0.0)


def test_undeployable_scenario_yields_skipped_rows():
    cfg = ScenarioConfig(area_w=20.0, area_h=20.0, n_nodes=6, n_malicious=(0,), trials=3)
    rows = run_sweep(cfg)
    assert len(rows) == 3
    for r in rows:
        assert r.method == SKIPPED
        assert math.isnan(r.mean_error_m)
        assert math.isnan(r.precision)


# Unsorted, with a repeated value: rows must be kept per sweep point,
# not per n_malicious value.
SHARED_CFG = ScenarioConfig(sigma=0.5, comm_radius=70.0, n_malicious=(8, 4, 8), trials=3)


def _strip(text):
    return "".join(line.rsplit(",", 1)[0] + "\n" for line in text.splitlines())


def test_sweep_deploys_once_per_trial_index(monkeypatch):
    calls = []
    original = harness.deploy

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(harness, "deploy", counting)
    run_sweep(SHARED_CFG)
    assert len(calls) == SHARED_CFG.trials


def test_sweep_rows_match_stand_alone_trials_in_point_major_order():
    rows = run_sweep(SHARED_CFG)
    alone = [
        row
        for n_mal in SHARED_CFG.n_malicious
        for t in range(SHARED_CFG.trials)
        for row in run_trial(SHARED_CFG, t, n_mal)
    ]
    data = [r for r in rows if r.trial != SUMMARY_TRIAL]
    assert _strip(emit_csv(data)) == _strip(emit_csv(alone))
    assert rows[: len(data)] == data
    summary_points = [r.n_malicious for r in rows[len(data) :]]
    methods = len(SHARED_CFG.methods)
    assert summary_points == [n for n in SHARED_CFG.n_malicious for _ in range(methods)]


def test_emit_csv_empty():
    assert emit_csv([]) == CSV_HEADER + "\n"


def test_emit_csv_one_record():
    rec = MetricsRecord(
        trial=0, seed=123, method=METHOD_TRILATERATION, n_malicious=4,
        mean_error_m=1.0 / 3.0, max_error_m=2.0, precision=1.0, recall=0.75,
        detect_ms=12.5,
    )
    text = emit_csv([rec])
    lines = text.splitlines()
    assert len(lines) == 2
    assert lines[0] == CSV_HEADER
    assert lines[1] == "0,123,trilateration_only,4,0.333333,2,1,0.75,12.5"


def test_emit_csv_six_significant_digits():
    rec = MetricsRecord(
        trial=1, seed=0, method=METHOD_MAHALANOBIS, n_malicious=0,
        mean_error_m=123456.789, max_error_m=0.000123456789, precision=0.0,
        recall=1.0, detect_ms=float("nan"),
    )
    line = emit_csv([rec]).splitlines()[1]
    assert "123457" in line
    assert "0.000123457" in line
    assert line.endswith("nan")


# Noisy ranging at a short radius: stage 2 isolates suspects and
# confirmation prunes some of them, so every layer feeds the digest.
GOLDEN_CFG = ScenarioConfig(sigma=0.5, comm_radius=70.0, n_malicious=(4, 12), trials=3)
GOLDEN_SHA256 = "3746d7694b88b760054ca952ab367abffca6026c9d144e006f7470551c9f8304"


def test_golden_sweep_digest():
    """Pins the sweep's output, not just its run-to-run determinism."""
    text = emit_csv(run_sweep(GOLDEN_CFG))
    stripped = "".join(line.rsplit(",", 1)[0] + "\n" for line in text.splitlines())
    assert hashlib.sha256(stripped.encode()).hexdigest() == GOLDEN_SHA256


# Stripped-CSV digests of sweeps the golden one does not reach: the two
# other ranging kinds, and a 1200 m field of 488 nodes with the default
# comm radius.  Taken before the confirmation cloud was batched and the
# neighbor lists cached; both changes must leave every byte in place.
KIND_DIGESTS = {
    "lognormal": (
        ScenarioConfig(
            ranging="lognormal", sigma=0.01, comm_radius=70.0, n_malicious=(4, 12), trials=3
        ),
        "7462964073a24cb52e64ed7cdf4cb453ff11f2239c36dc76e600024189669439",
    ),
    "exact": (
        ScenarioConfig(ranging="exact", comm_radius=70.0, n_malicious=(4, 12), trials=3),
        "b94b2ab381715c1d1881eaa3d6a9dfd44bc063270435c00b531d6a548b3be910",
    ),
    "dense-488": (
        ScenarioConfig(
            area_w=1200.0,
            area_h=1200.0,
            n_nodes=488,
            sigma=0.5,
            comm_radius=150.0,
            n_malicious=(12, 40),
            trials=3,
        ),
        "b83afadfc5e7c74da9ec9362a00e30827d1f83148fb995d3a5032cba33c62fc1",
    ),
}


@pytest.mark.parametrize("name", sorted(KIND_DIGESTS))
def test_sweep_digest(name):
    cfg, expected = KIND_DIGESTS[name]
    text = emit_csv(run_sweep(cfg))
    stripped = "".join(line.rsplit(",", 1)[0] + "\n" for line in text.splitlines())
    assert hashlib.sha256(stripped.encode()).hexdigest() == expected


def test_sweep_digests_under_compensated_sum(monkeypatch):
    """Python 3.12's ``sum`` compensates float sums; neither placement
    nor the error and summary means may move with the interpreter."""
    for module in (deployment, harness):
        monkeypatch.setattr(module, "sum", compensated_sum, raising=False)
    test_golden_sweep_digest()
    for name in ("exact", "lognormal"):
        test_sweep_digest(name)
