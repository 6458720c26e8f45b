"""Command line front end.

Subcommands:
    run     execute a scenario sweep and write the metrics CSV
    deploy  place a network and write its fixture
    detect  run detection over a stored network fixture

Each subcommand registers only the flags it reads.  Exit codes: 0 on
success, 2 for scenario or fixture problems and for paths that cannot be
read or written, 3 when a sweep produces no usable trials or fails
outright.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace

from .attack import AttackSpec, UniformRadial, compromise
from .deployment import DeploymentFailure, deploy, parse_network, serialize_network
from .detection import run_detection
from .harness import (
    SKIPPED,
    ScenarioConfig,
    ValidationError,
    emit_csv,
    parse_scenario,
    run_sweep,
    suspects_csv,
    trial_streams,
)
from .ranging import RangingModel


def _load_config(path: str | None) -> ScenarioConfig:
    if path is None:
        return ScenarioConfig()
    with open(path, "r", encoding="utf-8") as fh:
        return parse_scenario(fh.read())


# Override flag -> ScenarioConfig field.  A subcommand registers only
# the flags it reads; replace() checks the result like any other build.
_OVERRIDES = {
    "seed": "master_seed",
    "trials": "trials",
    "malicious": "n_malicious",
    "sigma": "sigma",
    "epsilon": "epsilon",
    "alpha": "alpha",
}


def _apply_overrides(cfg: ScenarioConfig, args: argparse.Namespace) -> ScenarioConfig:
    changes = {
        field: getattr(args, flag)
        for flag, field in _OVERRIDES.items()
        if getattr(args, flag, None) is not None
    }
    if "n_malicious" in changes:
        try:
            changes["n_malicious"] = tuple(
                int(v) for v in args.malicious.split(",") if v.strip()
            )
        except ValueError:
            raise ValidationError(
                "n_malicious", f"expected comma-separated integers, got {args.malicious!r}"
            ) from None
    return replace(cfg, **changes)


def _write(path: str | None, text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _cmd_run(args: argparse.Namespace) -> int:
    cfg = _apply_overrides(_load_config(args.scenario), args)
    records = run_sweep(cfg)
    usable = [r for r in records if r.method != SKIPPED]
    if not usable:
        print("sweep failed: every trial was skipped", file=sys.stderr)
        return 3
    _write(args.out, emit_csv(records))
    if not args.quiet:
        skipped = sum(1 for r in records if r.method == SKIPPED)
        print(
            f"wrote {len(records)} rows"
            + (f" to {args.out}" if args.out and args.out != "-" else "")
            + (f" ({skipped} trials skipped)" if skipped else "")
        )
        for r in records:
            if r.trial == -1:
                print(
                    f"  n_malicious={r.n_malicious:<3d} {r.method:<26s} "
                    f"mean_error={r.mean_error_m:8.3f} m  precision={r.precision:.3f} "
                    f"recall={r.recall:.3f}  detect={r.detect_ms:.2f} ms"
                )
    return 0


def _cmd_deploy(args: argparse.Namespace) -> int:
    cfg = _apply_overrides(_load_config(args.scenario), args)
    _, (deploy_rng, attack_rng, _, _) = trial_streams(cfg, 0)
    net = deploy((cfg.area_w, cfg.area_h), cfg.n_nodes, deploy_rng, cfg.comm_radius)
    # The fixture is trial 0 of `run` with the same scenario and seed,
    # attacked with the first sweep value, so a stored network gives
    # `detect` something to find and replays that trial.
    count = cfg.n_malicious[0]
    if count:
        net, _ = compromise(
            net,
            AttackSpec(
                count=count,
                displacement=UniformRadial(cfg.displacement_min, cfg.displacement_max),
            ),
            attack_rng,
        )
    _write(args.out, serialize_network(net, seed=cfg.master_seed))
    if not args.quiet:
        print(
            f"deployed {len(net.nodes)} anchors in {len(net.groups)} groups "
            f"over {cfg.area_w:g}x{cfg.area_h:g} m, {count} compromised"
        )
    return 0


def _cmd_detect(args: argparse.Namespace) -> int:
    cfg = _apply_overrides(_load_config(args.scenario), args)
    with open(args.network, "r", encoding="utf-8") as fh:
        net = parse_network(fh.read())
    model = RangingModel(cfg.ranging, cfg.sigma)
    _, (_, _, detect_rng, _) = trial_streams(cfg, 0)
    report = run_detection(net, cfg.resolved_epsilon(), model, detect_rng)
    _write(args.out, suspects_csv(report))
    if not args.quiet:
        flagged = ",".join(str(i) for i in sorted(report.flagged_ids)) or "none"
        print(
            f"checked {len(report.checks)} groups: {len(report.groups_failed)} failed, "
            f"{len(report.groups_unresolved)} unresolved, flagged [{flagged}] "
            f"in {report.elapsed_ms:.2f} ms"
        )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="anchorguard",
        description="Deploy anchor networks, inject lying anchors, detect them.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--scenario", help="scenario document (defaults apply if omitted)")
        p.add_argument("--out", help="output path, '-' or omitted for stdout")
        p.add_argument("--seed", type=int, help="override master_seed")
        p.add_argument("--quiet", action="store_true", help="suppress the summary")

    def detection(p: argparse.ArgumentParser) -> None:
        p.add_argument("--sigma", type=float, help="override ranging noise")
        p.add_argument("--epsilon", type=float, help="override detection threshold")

    p_run = sub.add_parser("run", help="run a scenario sweep, write metrics CSV")
    common(p_run)
    detection(p_run)
    p_run.add_argument("--alpha", type=float, help="override confirmation significance")
    p_run.add_argument("--trials", type=int, help="override trials per sweep point")
    p_run.add_argument("--malicious", help="override n_malicious, e.g. 4,8,12")
    p_run.set_defaults(func=_cmd_run)

    p_dep = sub.add_parser("deploy", help="deploy a network, write its fixture")
    common(p_dep)
    p_dep.set_defaults(func=_cmd_deploy)

    p_det = sub.add_parser("detect", help="run detection over a network fixture")
    common(p_det)
    detection(p_det)
    p_det.add_argument("--network", required=True, help="network fixture path")
    p_det.set_defaults(func=_cmd_detect)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError) as exc:
        # ParseError, ValidationError, DegenerateGeometry and InvalidSpec
        # are ValueErrors; OSError covers unreadable or unwritable paths.
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except DeploymentFailure as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
