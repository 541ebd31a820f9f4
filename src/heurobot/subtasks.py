"""Rule-based sub-task controllers.

Two primitives cover every task script: emit a fixed action for a fixed
number of steps, or drive one selected scalar of the observation toward a
target by activating exactly one action component at +/-v until the error
drops below a threshold. Each holds the actions it emits, built once by
``parse_plan``: ``MoveSteps.vector``, and ``MoveTo.plus`` and ``minus``.
The arm stabilizer applies the same bang-bang rule to every arm joint at
once: a joint inside its band on the previous observation and the current
one is silent, and re-arms once it drifts out.
All three are frozen plan entries built by ``parse_plan``, each its own
controller, and none keeps state: the episode runner passes in what ``step``
reads (a target and the steps taken, or the marker and previous observations).
Nor does any check what it reads: ``EnvConfig``'s envelope keeps every
observation finite.

Both primitives deliberately emit before they evaluate their done flag, so
even an already-converged controller produces exactly one action.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

from .core import DUAL_ARM, Action, ActionIndexMap, Observation, midpoint


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


# Entries hold names, numbers, indices and action layouts (which pickle by
# name), never selector callables, so a ``Plan`` of them pickles to pool workers.
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

    It emits ``plus`` (``+velocity`` at ``slot``, every other component zero)
    while the remaining distance is positive and ``minus`` otherwise; both are
    built by ``parse_plan``. Convergence (|target - x| < threshold) is checked
    after the emission, mirroring the emit-then-update loop order.
    """

    kind = "move_to"  # a class attribute, not a field
    label: str
    slot: str
    selector: str  # a key of ``SELECTORS``
    target: float | str  # as written; ``step`` takes it evaluated
    velocity: float
    threshold: float
    plus: Action  # +velocity at ``slot``
    minus: Action  # -velocity at ``slot``

    def step(self, obs: Observation, target: float, taken: int) -> tuple[Action, bool]:
        """One action toward ``target``, and whether the scalar was already inside the band."""
        d = target - SELECTORS[self.selector](obs)
        return self.plus if d > 0 else self.minus, abs(d) < self.threshold


STABILIZER_GAIN = 0.2  # at the start step, then decays geometrically
STABILIZER_DECAY = 0.995  # per step
STABILIZER_MIN_GAIN = 0.02  # floor of the decayed gain
STABILIZER_THRESHOLD = 0.01  # rad, per joint


class ArmStabilizer(NamedTuple):
    """Marker entry: holds the arm joints at a reference pose with one vector bang-bang.

    ``start`` is the observation at which the runner passed the marker: its
    arm joints are the reference and its ``step_index`` the start. At the
    start every joint emits +/-gain at its slot toward its reference angle;
    after it, a joint is silent only while |error| < 0.01 on both the current
    and the previous observation, so one that drifts back out re-arms. The
    gain degenerates geometrically (``0.2 * 0.995**k`` at ``k`` steps past the
    start, floored at 0.02) so the hold softens over time. The output is meant
    to be added to the main-stream action before clamping and is zero outside
    the stabilized joint slots.
    """

    kind = "stabilizer_on"  # a class attribute, not a field
    label: str
    index_map: ActionIndexMap  # the task's action layout

    def step(self, obs: Observation, start: Observation, previous: Observation) -> Action:
        """The correction at ``obs``; ``previous`` is the step before it, unread at ``start``."""
        k = obs.step_index - start.step_index
        if k < 0:
            raise ValueError(f"stabilizer started at step {start.step_index}, got step {obs.step_index}")
        if k and previous.step_index != obs.step_index - 1:
            raise ValueError(f"previous observation is step {previous.step_index}, expected {obs.step_index - 1}")
        g = max(STABILIZER_GAIN * STABILIZER_DECAY**k, STABILIZER_MIN_GAIN)
        out = [0.0] * self.index_map.dim
        for slots, reference, now, before in zip(
            self.index_map.joint_slots, start.robot.arm_joints, obs.robot.arm_joints, previous.robot.arm_joints
        ):
            for slot, target, q, p in zip(slots, reference, now, before):
                d = target - q
                if k and abs(d) < STABILIZER_THRESHOLD and abs(target - p) < STABILIZER_THRESHOLD:
                    continue  # inside the band now and one step ago
                out[slot] = g if d > 0 else -g
        return tuple(out)
