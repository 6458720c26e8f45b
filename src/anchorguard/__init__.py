"""anchorguard: wireless anchor networks that police their own positions.

Deploy anchors in trilateration groups, let some of them lie about
where they are, and catch the liars by replaying the deployment
geometry: group consistency checks first, per-anchor isolation through
neighbor groups second, Mahalanobis confirmation on top.

The top level exports what the README's library examples use; every
other name lives in its module (``anchorguard.detection`` and so on).
"""

from .attack import AttackSpec, UniformRadial, compromise
from .deployment import deploy
from .detection import run_detection
from .harness import (
    ParseError,
    ScenarioConfig,
    ValidationError,
    emit_csv,
    parse_scenario,
    run_sweep,
)
from .ranging import RangingModel

__version__ = "0.1.0"

__all__ = [
    "AttackSpec",
    "ParseError",
    "RangingModel",
    "ScenarioConfig",
    "UniformRadial",
    "ValidationError",
    "compromise",
    "deploy",
    "emit_csv",
    "parse_scenario",
    "run_detection",
    "run_sweep",
]
