"""Rule-based sub-task controllers.

Two primitives cover every task script: emit a fixed action for a fixed
number of steps, or drive one selected scalar of the observation toward a
target by activating exactly one action component at +/-v until the error
drops below a threshold. Each is a frozen plan entry, built once by
``parse_plan``; its ``step`` keeps no state, because the episode runner
passes in the evaluated target and the steps the entry has taken so far.
The arm stabilizer applies the same bang-bang rule to every arm joint at
once and keeps a per-joint settled mask, so a joint that drifts back out of
its band re-arms.

Both primitives deliberately emit before they evaluate their done flag, so
even an already-converged controller produces exactly one action.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

from .core import DUAL_ARM, Action, ActionIndexMap, Observation, midpoint, one_hot


Selector = Callable[[Observation], float]


def _arm_joint(arm: int, joint: int) -> Selector:
    return lambda obs: obs.robot.arm_joints[arm][joint]


# Joint selectors are named as the dual-arm joint slots; a task's robot may lack some of them.
JOINT_SELECTORS: dict[str, Selector] = {
    DUAL_ARM.slots[slot]: _arm_joint(arm, joint)
    for arm, slots in enumerate(DUAL_ARM.joint_slots)
    for joint, slot in enumerate(slots)
}

# Named scalar accessors available to plan documents. Finger selectors read
# the midpoint of the fingertips, which collapses to the single fingertip on
# one-armed robots.
SELECTORS: dict[str, Selector] = {
    "platform_x": lambda obs: obs.robot.platform_x,
    "platform_y": lambda obs: obs.robot.platform_y,
    "platform_height": lambda obs: obs.robot.platform_height,
    "platform_yaw": lambda obs: obs.robot.platform_yaw,
    "finger_x": lambda obs: midpoint(obs.robot.finger_positions)[0],
    "finger_y": lambda obs: midpoint(obs.robot.finger_positions)[1],
    "finger_height": lambda obs: midpoint(obs.robot.finger_positions)[2],
    "object_x": lambda obs: obs.object.object_pose[0],
    "object_y": lambda obs: obs.object.object_pose[1],
    **JOINT_SELECTORS,
}


# Entries hold names, numbers and indices, never selector callables, so a
# ``Plan`` of them pickles to pool workers.
class MoveSteps(NamedTuple):
    """Emit a fixed action vector for ``steps`` steps."""

    kind = "move_steps"  # a class attribute, not a field
    label: str
    steps: int
    vector: Action  # the document's ``action`` object, unnamed slots zero

    def step(self, obs: Observation, target: None, taken: int) -> tuple[Action, bool]:
        """The action for step ``taken + 1`` of this entry, and whether it is the last."""
        return self.vector, taken + 1 >= self.steps


class MoveTo(NamedTuple):
    """Drive one observed scalar to a target with a bang-bang one-hot action.

    The emitted action has exactly one nonzero component, at ``index``, with
    magnitude ``velocity``; its sign follows the sign of the remaining
    distance. Convergence (|target - x| < threshold) is checked after the
    emission, mirroring the emit-then-update loop order.
    """

    kind = "move_to"  # a class attribute, not a field
    label: str
    slot: str
    selector: str  # a key of ``SELECTORS``
    target: float | str  # as written; ``step`` takes it evaluated
    velocity: float
    threshold: float
    index: int  # of ``slot`` in the action vector
    dim: int  # of the action vector

    def step(self, obs: Observation, target: float, taken: int) -> tuple[Action, bool]:
        """One action toward ``target``, and whether the scalar was already inside the band."""
        d = target - SELECTORS[self.selector](obs)
        return one_hot(self.dim, self.index, self.velocity if d > 0 else -self.velocity), abs(d) < self.threshold


STABILIZER_GAIN = 0.2  # at step 0, then decays geometrically
STABILIZER_DECAY = 0.995  # per step
STABILIZER_MIN_GAIN = 0.02  # floor of the decayed gain
STABILIZER_THRESHOLD = 0.01  # rad, per joint


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

    __slots__ = ("index_map", "steps_taken", "_joints", "_settled")

    def __init__(self, index_map: ActionIndexMap, reference: tuple[tuple[float, ...], ...]) -> None:
        if len(reference) != len(index_map.arms):
            raise ValueError("stabilizer reference must provide a pose for every arm")
        for arm, pose in enumerate(reference):
            if len(pose) != index_map.joints_per_arm:
                raise ValueError(
                    f"reference pose for arm {arm} has {len(pose)} joints, expected {index_map.joints_per_arm}"
                )
        self.index_map = index_map
        self.steps_taken = 0
        # per joint, in arm-major order: (arm, joint, action slot, target); _settled[k] is joint k's mask bit
        self._joints = tuple(
            (arm, joint, slot, angle)
            for arm, (pose, slots) in enumerate(zip(reference, index_map.joint_slots))
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
            d = target - joints[arm][joint]
            inside = abs(d) < STABILIZER_THRESHOLD
            if settled[k] and inside:
                continue  # settled and still inside the band
            out[slot] = g if d > 0 else -g
            settled[k] = inside
        self.steps_taken += 1
        return tuple(out)
