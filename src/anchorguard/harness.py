"""Seeded experiment harness: scenarios, trials, sweeps, CSV output.

A scenario document is flat ``key = value`` text.  ``#`` starts a
comment, lists are written in brackets, and unknown keys are rejected
so typos fail loudly.  Values are checked when the ``ScenarioConfig``
is built, however it is built, so nothing downstream re-checks them::

    # sweep over attack sizes
    n_nodes = 122
    n_malicious = [4, 8, 12, 16, 20]
    ranging = gaussian
    sigma = 0.5
    trials = 30

Every trial derives its own random streams from
``(master_seed, trial_index)``.  The sweep runs trial index by trial
index, and the sweep points of one index attack one shared deployment,
so method and attack-size comparisons are paired rather than
independent and each network is placed once.  Rows still come out in
point-major order, and runs are reproducible row for row.  The CSV
schema is::

    trial,seed,method,n_malicious,mean_error_m,max_error_m,precision,recall,detect_ms

with floats printed to 6 significant digits.  ``detect_ms`` is wall
time and sits in the last column so the rest of a row is byte
reproducible.  After the data rows, one summary row per
(n_malicious, method) pair holds the per-column means over trials,
with ``trial`` set to -1.
"""

from __future__ import annotations

import functools
import math
import numbers
import time
from dataclasses import dataclass

import numpy as np

from .attack import AttackSpec, GroundTruth, InvalidSpec, UniformRadial, compromise
from .deployment import DeploymentFailure, Network, deploy
from .detection import (
    DetectionReport,
    SuspectRecord,
    relocalization_cloud,
    run_detection,
)
from .mahalanobis import (
    InsufficientData,
    SingularCovariance,
    chi_square_cutoff,
    confirm_outliers,
)
from .ranging import _KINDS, RangingModel, true_distance

METHOD_TRILATERATION = "trilateration_only"
METHOD_MAHALANOBIS = "trilateration_mahalanobis"
METHODS = (METHOD_TRILATERATION, METHOD_MAHALANOBIS)

CSV_HEADER = (
    "trial,seed,method,n_malicious,mean_error_m,max_error_m,precision,recall,detect_ms"
)

SKIPPED = "skipped"
SUMMARY_TRIAL = -1


class ParseError(ValueError):
    """A scenario document line could not be parsed."""

    def __init__(self, lineno: int, message: str):
        super().__init__(f"line {lineno}: {message}")
        self.lineno = lineno


class ValidationError(ValueError):
    """A scenario value is out of range or inconsistent."""

    def __init__(self, fieldname: str, message: str):
        super().__init__(f"{fieldname}: {message}")
        self.fieldname = fieldname


_INT_KEYS = ("n_nodes", "trials", "master_seed", "cloud_samples")
_FLOAT_KEYS = (
    "area_w",
    "area_h",
    "sigma",
    "epsilon",
    "alpha",
    "comm_radius",
    "displacement_min",
    "displacement_max",
)


def _is_int(value: object) -> bool:
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


@dataclass(frozen=True)
class ScenarioConfig:
    """One experiment description.

    ``epsilon`` of None means "derive from the noise level": detection
    uses max(1.0, 10 * sigma).  Ten standard deviations keeps honest
    range gaps from tripping the check even after noise amplification
    through the solve, while staying far below any displacement worth
    an attacker's effort.

    A scenario checks itself when it is built, whether by
    ``parse_scenario``, direct construction or ``dataclasses.replace``,
    and raises ValidationError for any value of the wrong type (a bool
    is not a number here, and list fields must be tuples) or out of
    range, so every scenario that exists is a valid one.
    """

    area_w: float = 600.0
    area_h: float = 600.0
    n_nodes: int = 122
    n_malicious: tuple[int, ...] = (12,)
    ranging: str = "gaussian"
    sigma: float = 0.0
    epsilon: float | None = None
    alpha: float = 0.05
    comm_radius: float = 150.0
    trials: int = 30
    master_seed: int = 42
    methods: tuple[str, ...] = METHODS
    displacement_min: float = 20.0
    displacement_max: float = 60.0
    cloud_samples: int = 64

    def __post_init__(self) -> None:
        for key in _INT_KEYS:
            value = getattr(self, key)
            if not _is_int(value):
                raise ValidationError(key, f"must be an integer, got {value!r}")
        for key in _FLOAT_KEYS:
            value = getattr(self, key)
            if value is None and key == "epsilon":
                continue
            if isinstance(value, bool) or not isinstance(value, numbers.Real):
                raise ValidationError(key, f"must be a number, got {value!r}")
            if not math.isfinite(value):
                raise ValidationError(key, f"must be finite, got {value}")
        for key in ("n_malicious", "methods"):
            value = getattr(self, key)
            if not isinstance(value, tuple):
                raise ValidationError(key, f"must be a tuple, got {value!r}")
        if self.area_w <= 0 or self.area_h <= 0:
            raise ValidationError("area", f"must be positive, got {self.area_w}x{self.area_h}")
        if self.n_nodes < 4:
            raise ValidationError("n_nodes", f"must be at least 4, got {self.n_nodes}")
        if not self.n_malicious:
            raise ValidationError("n_malicious", "needs at least one value")
        for m in self.n_malicious:
            if not _is_int(m):
                raise ValidationError("n_malicious", f"values must be integers, got {m!r}")
            if m < 0 or m >= self.n_nodes:
                raise ValidationError(
                    "n_malicious", f"each value needs 0 <= value < n_nodes, got {m}"
                )
        if self.ranging not in _KINDS:
            raise ValidationError("ranging", f"unknown model {self.ranging!r}")
        if self.sigma < 0:
            raise ValidationError("sigma", f"must be >= 0, got {self.sigma}")
        if self.epsilon is not None and self.epsilon <= 0:
            raise ValidationError("epsilon", f"must be > 0, got {self.epsilon}")
        if not (0.0 < self.alpha < 1.0):
            raise ValidationError("alpha", f"must be in (0, 1), got {self.alpha}")
        if self.comm_radius <= 0:
            raise ValidationError("comm_radius", f"must be > 0, got {self.comm_radius}")
        if self.trials < 1:
            raise ValidationError("trials", f"must be >= 1, got {self.trials}")
        if self.master_seed < 0:
            raise ValidationError("master_seed", f"must be >= 0, got {self.master_seed}")
        if not self.methods:
            raise ValidationError("methods", "needs at least one method")
        for m in self.methods:
            if m not in METHODS:
                raise ValidationError("methods", f"unknown method {m!r}")
        if len(set(self.methods)) != len(self.methods):
            raise ValidationError("methods", "duplicate method")
        if not (0.0 <= self.displacement_min <= self.displacement_max) or self.displacement_max <= 0:
            raise ValidationError(
                "displacement",
                f"needs 0 <= min <= max and max > 0, got [{self.displacement_min}, {self.displacement_max}]",
            )
        if self.cloud_samples < 8:
            raise ValidationError("cloud_samples", f"must be >= 8, got {self.cloud_samples}")

    def resolved_epsilon(self) -> float:
        if self.epsilon is not None:
            return self.epsilon
        return max(1.0, 10.0 * self.sigma)


@dataclass(frozen=True, slots=True)
class MetricsRecord:
    """One CSV row."""

    trial: int
    seed: int
    method: str
    n_malicious: int
    mean_error_m: float
    max_error_m: float
    precision: float
    recall: float
    detect_ms: float


def _parse_scalar(key: str, text: str, lineno: int):
    if key in _INT_KEYS:
        try:
            return int(text)
        except ValueError:
            raise ParseError(lineno, f"{key} expects an integer, got {text!r}") from None
    if key in _FLOAT_KEYS:
        try:
            return float(text)
        except ValueError:
            raise ParseError(lineno, f"{key} expects a number, got {text!r}") from None
    return text


def parse_scenario(text: str) -> ScenarioConfig:
    """Parse a scenario document into a checked ScenarioConfig.

    Raises:
        ParseError: malformed line, unknown key, duplicate key, or a
            value of the wrong shape.
        ValidationError: well-formed but out-of-range configuration,
            raised by ScenarioConfig itself.
    """
    known = set(_INT_KEYS) | set(_FLOAT_KEYS) | {"ranging", "n_malicious", "methods"}
    seen: dict[str, object] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, eq, value = line.partition("=")
        if not eq:
            raise ParseError(lineno, f"expected key=value, got {raw.strip()!r}")
        key = key.strip()
        value = value.strip()
        if key not in known:
            raise ParseError(lineno, f"unknown key {key!r}")
        if key in seen:
            raise ParseError(lineno, f"duplicate key {key!r}")
        if not value:
            raise ParseError(lineno, f"{key} has no value")
        if value.startswith("["):
            if not value.endswith("]"):
                raise ParseError(lineno, f"unterminated list for {key}")
            items = [v.strip() for v in value[1:-1].split(",") if v.strip()]
            if not items:
                raise ParseError(lineno, f"{key} lists no values")
            if key == "n_malicious":
                seen[key] = tuple(
                    _parse_scalar("n_nodes", item, lineno) for item in items
                )
            elif key == "methods":
                seen[key] = tuple(items)
            else:
                raise ParseError(lineno, f"{key} does not take a list")
        else:
            if key == "n_malicious":
                seen[key] = (_parse_scalar("n_nodes", value, lineno),)
            elif key == "methods":
                seen[key] = (value,)
            else:
                seen[key] = _parse_scalar(key, value, lineno)

    return ScenarioConfig(**seen)  # type: ignore[arg-type]


def trial_streams(
    cfg: ScenarioConfig, trial_index: int
) -> tuple[int, list[np.random.Generator]]:
    """Derive the trial's display seed and its four independent streams
    (deploy, attack, detect, confirm)."""
    root = np.random.SeedSequence([cfg.master_seed, trial_index])
    display = int(root.generate_state(1)[0])
    return display, [np.random.default_rng(child) for child in root.spawn(4)]


def _precision_recall(
    flags: frozenset[int], malicious: frozenset[int]
) -> tuple[float, float]:
    tp = len(flags & malicious)
    if not malicious:
        # Clean network: an empty flag set is a correct rejection.
        return (1.0, 1.0) if not flags else (0.0, 1.0)
    precision = tp / len(flags) if flags else 1.0
    recall = tp / len(malicious)
    return precision, recall


def _confirm_suspects(
    net: Network,
    report: DetectionReport,
    model: RangingModel,
    cutoff: float,
    cloud_samples: int,
    rng: np.random.Generator,
) -> frozenset[int]:
    """Second-opinion filter over the detector's suspects.

    Each suspect is scored against a cloud of simulated honest re-fixes
    of its own cross reference.  A degenerate cloud means the
    references are unanimous (noise-free ranging); any suspect already
    past epsilon is then confirmed outright.
    """
    confirmed = set()
    for rec in report.suspects:
        cloud = relocalization_cloud(
            net, rec.reference_pos, rec.verifier_group_id, model, rng, cloud_samples
        )
        try:
            scores = confirm_outliers([rec], cloud, rec.reference_pos, cutoff)
            if scores[0].outlier:
                confirmed.add(rec.anchor_id)
        except (SingularCovariance, InsufficientData):
            confirmed.add(rec.anchor_id)
    return frozenset(confirmed)


def _error_stats(
    net: Network, malicious: frozenset[int], records: list[SuspectRecord]
) -> tuple[float, float]:
    """Localization error over everything the system got wrong or fixed.

    Each flagged anchor is known to the system by its stage-two
    physical fix, so it contributes |fix - true position|.  A falsely
    flagged honest anchor only became a suspect because its fix strayed
    past epsilon, so false positives drag the mean up; pruning them is
    what the confirmation stage is for.  A malicious anchor that
    escaped flagging still deceives the system by its full falsified
    displacement, so misses cost exactly that.  An empty set reports
    zeros by convention.
    """
    errors = [
        true_distance(rec.localized_pos, net.node(rec.anchor_id).true_pos)
        for rec in records
    ]
    flagged = {rec.anchor_id for rec in records}
    for mid in sorted(malicious - flagged):
        node = net.node(mid)
        errors.append(true_distance(node.reported_pos, node.true_pos))
    if not errors:
        return 0.0, 0.0
    return sum(errors) / len(errors), max(errors)


@functools.lru_cache(maxsize=1)
def _deployment(cfg: ScenarioConfig, trial_index: int) -> Network:
    """The trial's pristine network, a pure function of its deploy stream.

    Consecutive sweep points of one trial index reuse it; ``Network`` is
    immutable, so every attack starts from the same placement.  A
    ``DeploymentFailure`` propagates and is not cached.
    """
    _, (deploy_rng, *_) = trial_streams(cfg, trial_index)
    return deploy((cfg.area_w, cfg.area_h), cfg.n_nodes, deploy_rng, cfg.comm_radius)


def attacked_network(
    cfg: ScenarioConfig,
    trial_index: int,
    n_malicious: int,
    attack_rng: np.random.Generator,
) -> tuple[Network, GroundTruth]:
    """The trial's network with ``n_malicious`` anchors compromised.

    ``attack_rng`` is the trial's attack stream from ``trial_streams``;
    the caller passes it in because it derives the other streams from
    the same call.
    """
    attack = AttackSpec(
        count=n_malicious,
        displacement=UniformRadial(cfg.displacement_min, cfg.displacement_max),
    )
    return compromise(_deployment(cfg, trial_index), attack, attack_rng)


def run_trial(
    cfg: ScenarioConfig, trial_index: int, n_malicious: int | None = None
) -> list[MetricsRecord]:
    """Run one deploy/attack/detect cycle and score every method.

    Placement is skipped when the previous call placed the same
    scenario's network for the same trial index; that network is
    reused as it was.  Raises DeploymentFailure (propagated) when
    placement fails; the sweep records those as skipped rows.
    """
    n_mal = cfg.n_malicious[0] if n_malicious is None else n_malicious
    display_seed, (_, attack_rng, detect_rng, confirm_rng) = trial_streams(
        cfg, trial_index
    )
    model = RangingModel(cfg.ranging, cfg.sigma)
    epsilon = cfg.resolved_epsilon()

    net, truth = attacked_network(cfg, trial_index, n_mal, attack_rng)
    report = run_detection(net, epsilon, model, detect_rng)

    confirm_start = time.perf_counter()
    confirmed = _confirm_suspects(
        net, report, model, chi_square_cutoff(cfg.alpha), cfg.cloud_samples, confirm_rng
    )
    confirm_ms = (time.perf_counter() - confirm_start) * 1e3
    # One pipeline serves both methods, so the timing column reports the
    # shared detection plus confirmation wall time on every row.
    elapsed = report.elapsed_ms + confirm_ms

    records = []
    for method in cfg.methods:
        if method == METHOD_TRILATERATION:
            kept = list(report.suspects)
        else:
            kept = [r for r in report.suspects if r.anchor_id in confirmed]
        flags = frozenset(r.anchor_id for r in kept)
        precision, recall = _precision_recall(flags, truth.malicious_ids)
        mean_error, max_error = _error_stats(net, truth.malicious_ids, kept)
        records.append(
            MetricsRecord(
                trial=trial_index,
                seed=display_seed,
                method=method,
                n_malicious=n_mal,
                mean_error_m=mean_error,
                max_error_m=max_error,
                precision=precision,
                recall=recall,
                detect_ms=elapsed,
            )
        )
    return records


def run_sweep(cfg: ScenarioConfig) -> list[MetricsRecord]:
    """Run the full sweep: every (n_malicious, trial) pair, all methods.

    Trials run index by index, and the sweep points of one trial index
    share one deployment.  Rows are buffered per point and emitted in
    point-major order: every trial of the first ``n_malicious`` value,
    then the next.  Summary rows (per-column means over the completed
    trials of each (n_malicious, method) pair, with trial = -1) are
    appended at the end.
    """
    # A sweep pays for its own placements: a network left cached by an
    # earlier call with the same scenario would go unmeasured and untraced.
    _deployment.cache_clear()
    data: list[list[MetricsRecord]] = [[] for _ in cfg.n_malicious]
    for trial_index in range(cfg.trials):
        for point, n_mal in enumerate(cfg.n_malicious):
            try:
                data[point].extend(run_trial(cfg, trial_index, n_mal))
            except (DeploymentFailure, InvalidSpec):
                display_seed, _ = trial_streams(cfg, trial_index)
                nan = float("nan")
                data[point].append(
                    MetricsRecord(
                        trial=trial_index,
                        seed=display_seed,
                        method=SKIPPED,
                        n_malicious=n_mal,
                        mean_error_m=nan,
                        max_error_m=nan,
                        precision=nan,
                        recall=nan,
                        detect_ms=nan,
                    )
                )

    summaries: list[MetricsRecord] = []
    for n_mal, point_rows in zip(cfg.n_malicious, data):
        for method in cfg.methods:
            rows = [r for r in point_rows if r.method == method]
            if not rows:
                continue
            n = len(rows)
            summaries.append(
                MetricsRecord(
                    trial=SUMMARY_TRIAL,
                    seed=cfg.master_seed,
                    method=method,
                    n_malicious=n_mal,
                    mean_error_m=sum(r.mean_error_m for r in rows) / n,
                    max_error_m=sum(r.max_error_m for r in rows) / n,
                    precision=sum(r.precision for r in rows) / n,
                    recall=sum(r.recall for r in rows) / n,
                    detect_ms=sum(r.detect_ms for r in rows) / n,
                )
            )
    return [r for point_rows in data for r in point_rows] + summaries


def _fmt(value: float) -> str:
    return format(value, ".6g")


def emit_csv(records: list[MetricsRecord]) -> str:
    """Render records in the fixed CSV schema.

    Every column except the trailing detect_ms is a pure function of
    the scenario, so two runs of the same scenario agree byte for byte
    up to that column.
    """
    lines = [CSV_HEADER]
    for r in records:
        lines.append(
            f"{r.trial},{r.seed},{r.method},{r.n_malicious},"
            f"{_fmt(r.mean_error_m)},{_fmt(r.max_error_m)},"
            f"{_fmt(r.precision)},{_fmt(r.recall)},{_fmt(r.detect_ms)}"
        )
    return "\n".join(lines) + "\n"


def suspects_csv(report: DetectionReport) -> str:
    """Render a detection report's suspect records as CSV."""
    lines = [
        "anchor_id,group_id,verifier_group_id,observed_x,observed_y,"
        "localized_x,localized_y,reference_x,reference_y,deviation_m"
    ]
    for r in report.suspects:
        lines.append(
            f"{r.anchor_id},{r.group_id},{r.verifier_group_id},"
            f"{_fmt(r.observed_pos.x)},{_fmt(r.observed_pos.y)},"
            f"{_fmt(r.localized_pos.x)},{_fmt(r.localized_pos.y)},"
            f"{_fmt(r.reference_pos.x)},{_fmt(r.reference_pos.y)},"
            f"{_fmt(r.deviation)}"
        )
    return "\n".join(lines) + "\n"
