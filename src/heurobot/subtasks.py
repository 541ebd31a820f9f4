"""Rule-based sub-task controllers.

Two primitives cover every task script: emit a fixed action for a fixed
number of steps, or drive one selected scalar of the observation toward a
target by activating exactly one action component at +/-v until the error
drops below a threshold. The arm stabilizer applies the same bang-bang rule
to every arm joint at once and keeps a per-joint settled mask, so a joint
that drifts back out of its band re-arms.

Both primitives deliberately emit before they evaluate their done flag, so
even an already-converged controller produces exactly one action.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Callable

from .core import Action, ActionIndexMap, Observation, one_hot


class SubTaskError(RuntimeError):
    """Raised when a sub-task is stepped illegally or cannot read its input."""


Selector = Callable[[Observation], float]


def _finger_mean(obs: Observation, axis: int) -> float:
    tips = obs.robot.finger_positions
    return sum(p[axis] for p in tips) / len(tips)


# Named scalar accessors available to plan documents. Finger selectors read
# the midpoint of the fingertips, which collapses to the single fingertip on
# one-armed robots.
SELECTORS: dict[str, Selector] = {
    "platform_x": lambda obs: obs.robot.platform_x,
    "platform_y": lambda obs: obs.robot.platform_y,
    "platform_height": lambda obs: obs.robot.platform_height,
    "platform_yaw": lambda obs: obs.robot.platform_yaw,
    "finger_x": lambda obs: _finger_mean(obs, 0),
    "finger_y": lambda obs: _finger_mean(obs, 1),
    "finger_height": lambda obs: _finger_mean(obs, 2),
    "object_x": lambda obs: obs.object.object_pose[0],
    "object_y": lambda obs: obs.object.object_pose[1],
}

_ARM_JOINT_RE = re.compile(r"^(left|right)_arm_joint_(\d+)$")


def arm_joint_selector(arm: int, joint: int) -> Selector:
    def read(obs: Observation) -> float:
        joints = obs.robot.arm_joints
        if arm >= len(joints) or joint >= len(joints[arm]):
            raise SubTaskError(f"arm joint ({arm}, {joint}) not present in observation")
        return joints[arm][joint]

    return read


def get_selector(name: str) -> Selector:
    """Resolve a selector name; raises ValueError for unknown names."""
    if name in SELECTORS:
        return SELECTORS[name]
    m = _ARM_JOINT_RE.match(name)
    if m:
        arm = 0 if m.group(1) == "left" else 1
        return arm_joint_selector(arm, int(m.group(2)))
    raise ValueError(f"unknown selector {name!r}")


@dataclass
class MoveSteps:
    """Emit a fixed action vector for a fixed number of steps."""

    fixed_action: Action
    num_steps: int
    label: str = "move_steps"
    steps_taken: int = 0

    def __post_init__(self) -> None:
        if self.num_steps < 1:
            raise ValueError(f"{self.label}: num_steps must be >= 1, got {self.num_steps}")

    @property
    def done(self) -> bool:
        return self.steps_taken >= self.num_steps

    def step(self, obs: Observation) -> tuple[Action, bool]:
        if self.done:
            raise SubTaskError(f"{self.label}: stepped after completion")
        self.steps_taken += 1
        return self.fixed_action, self.done


@dataclass
class MoveTo:
    """Drive one observed scalar to a target with a bang-bang one-hot action.

    The emitted action has exactly one nonzero component, at ``active_index``,
    with magnitude ``velocity``; its sign follows the sign of the remaining
    distance. Convergence (|target - x| < threshold) is checked after the
    emission, mirroring the emit-then-update loop order.
    """

    active_index: int
    target: float
    selector: Selector
    action_dim: int
    velocity: float
    threshold: float
    label: str = "move_to"
    done: bool = False

    def __post_init__(self) -> None:
        if not 0 <= self.active_index < self.action_dim:
            raise ValueError(
                f"{self.label}: active_index {self.active_index} out of range for dim {self.action_dim}"
            )
        if not 0.0 < self.velocity <= 1.0:
            raise ValueError(f"{self.label}: velocity must be in (0, 1], got {self.velocity}")
        if self.threshold <= 0.0:
            raise ValueError(f"{self.label}: threshold must be positive, got {self.threshold}")

    def distance(self, obs: Observation) -> float:
        x = self.selector(obs)
        if not math.isfinite(x):
            raise SubTaskError(f"{self.label}: selector returned non-finite value {x!r}")
        return self.target - x

    def step(self, obs: Observation) -> tuple[Action, bool]:
        if self.done:
            raise SubTaskError(f"{self.label}: stepped after completion")
        d = self.distance(obs)
        act = one_hot(self.action_dim, self.active_index, self.velocity if d > 0 else -self.velocity)
        self.done = abs(d) < self.threshold
        return act, self.done


STABILIZER_GAIN = 0.2  # at step 0, then decays geometrically
STABILIZER_DECAY = 0.995  # per step
STABILIZER_MIN_GAIN = 0.02  # floor of the decayed gain
STABILIZER_THRESHOLD = 0.01  # rad, per joint


@dataclass
class ArmStabilizer:
    """Holds the arm joints at a reference pose with one vector bang-bang.

    Each joint that is not settled emits +/-gain at its slot toward its
    reference angle, then counts as settled once |error| < 0.01; a settled
    joint stays silent until it drifts back out of that band. The gain
    degenerates geometrically (``0.2 * 0.995**k``, floored at 0.02) so the
    hold softens over time. The output is meant to be added to the
    main-stream action before clamping and is zero outside the stabilized
    joint slots.
    """

    index_map: ActionIndexMap
    reference: tuple[tuple[float, ...], ...]
    steps_taken: int = 0

    def __post_init__(self) -> None:
        robot = self.index_map.robot
        if len(self.reference) != len(robot.arms) or any(len(r) == 0 for r in self.reference):
            raise ValueError("stabilizer reference must provide a pose for every arm")
        for arm, pose in enumerate(self.reference):
            if len(pose) != robot.joints_per_arm:
                raise ValueError(
                    f"reference pose for arm {arm} has {len(pose)} joints, expected {robot.joints_per_arm}"
                )
        # per joint, in arm-major order: (arm, joint, action slot, target); _settled[k] is joint k's mask bit
        self._joints = tuple(
            (arm, joint, slot, angle)
            for arm, (pose, slots) in enumerate(zip(self.reference, self.index_map.joint_slots))
            for joint, (angle, slot) in enumerate(zip(pose, slots))
        )
        self._settled = [False] * len(self._joints)

    @property
    def gain(self) -> float:
        return max(STABILIZER_GAIN * STABILIZER_DECAY**self.steps_taken, STABILIZER_MIN_GAIN)

    def step(self, obs: Observation) -> Action:
        g = self.gain
        settled = self._settled
        joints = obs.robot.arm_joints
        out = [0.0] * self.index_map.dim
        for k, (arm, joint, slot, target) in enumerate(self._joints):
            try:
                x = joints[arm][joint]
            except IndexError:
                raise SubTaskError(f"arm joint ({arm}, {joint}) not present in observation") from None
            if not math.isfinite(x):
                name = self.index_map.robot.arms[arm]
                raise SubTaskError(f"stabilize_{name}_joint_{joint}: selector returned non-finite value {x!r}")
            d = target - x
            if settled[k] and abs(d) < STABILIZER_THRESHOLD:
                continue  # settled and still inside the band
            out[slot] = g if d > 0 else -g
            settled[k] = abs(d) < STABILIZER_THRESHOLD
        self.steps_taken += 1
        return tuple(out)
