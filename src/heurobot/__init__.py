"""Rule-based mobile manipulation: sub-task controllers, solution plans,
a deterministic kinematic mock environment and a seeded episode runner."""

from .core import (
    ActionIndexMap,
    Observation,
    ObjectAttributes,
    RobotConfig,
    RobotState,
    TASK_KINDS,
    add,
    clamp,
)
from .mockenv import EnvConfig, MockEnv
from .orchestrator import BatchResult, EpisodeResult, replay_actions, run_batch, run_episode
from .plans import Plan, PlanError, builtin_plan, resolve
from .subtasks import ArmStabilizer, MoveSteps, MoveTo

__version__ = "0.1.0"

__all__ = [
    "ActionIndexMap",
    "ArmStabilizer",
    "BatchResult",
    "EnvConfig",
    "EpisodeResult",
    "MockEnv",
    "MoveSteps",
    "MoveTo",
    "Observation",
    "ObjectAttributes",
    "Plan",
    "PlanError",
    "RobotConfig",
    "RobotState",
    "TASK_KINDS",
    "add",
    "builtin_plan",
    "clamp",
    "replay_actions",
    "resolve",
    "run_batch",
    "run_episode",
    "__version__",
]
