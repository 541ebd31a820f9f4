"""Shared action/observation data model used by the controllers, the mock
environment and the episode runner.

Actions are plain tuples of normalized command scalars. The convention for
every slot is a unitless velocity in [-1, +1]; the environment scales it by
its configured rates. Actions stay unclamped while controllers compose them.
The episode runner clamps the composed sum once, and the environment
consumes and the log records that same action. ``MockEnv.step`` takes a
tuple or a list of one int or float per action dimension (other number
types are unsupported; a bool passes as 0 or 1) and rejects any other
container, a set, str or bytes included; it saturates nothing and rejects
any component outside [-1, +1], NaN and inf included.

An ``Observation`` is one immutable snapshot per step. It and its parts,
``RobotState`` and ``ObjectAttributes``, are named tuples that only the
environment builds, so they carry no constructor checks; a test over every
task pins their invariants (which fields are present for which object kind).
"""

from __future__ import annotations

import json
import math
import operator
import sys
from typing import NamedTuple

# task kind -> object kind placed in the scene
TASK_OBJECT = {
    "open_cabinet_door": "door",
    "open_cabinet_drawer": "drawer",
    "move_bucket": "bucket",
    "push_chair": "chair",
}
TASK_KINDS = tuple(TASK_OBJECT)

ARTICULATED_OBJECTS = ("door", "drawer")  # opened by an articulation, not moved
GOAL_POINT_OBJECTS = ("bucket", "chair")  # carried or pushed to a goal point

PLATFORM_SLOTS = ("platform_x", "platform_y", "platform_rotation", "platform_height")

Action = tuple[float, ...]
Point3 = tuple[float, float, float]
Point2 = tuple[float, float]


def clamp(action: Action) -> Action:
    """Saturate every component into [-1, +1]. Idempotent."""
    return tuple([-1.0 if v < -1.0 else (1.0 if v > 1.0 else v) for v in action])


def add(a: Action, b: Action) -> Action:
    """Component-wise sum, intentionally not clamped."""
    if len(a) != len(b):
        raise ValueError(f"action dimension mismatch: {len(a)} vs {len(b)}")
    return tuple(map(operator.add, a, b))


def is_finite_number(value: object) -> bool:
    """True for an int or float that converts to a finite float; bools are not numbers."""
    return type(value) in (int, float) and abs(value) <= sys.float_info.max


def loads_json(data: bytes, source: object, line: int = 1) -> object:
    """The package's one ``json.loads``: every decode failure is a ValueError that starts with ``source``.
    ``data`` must be strict UTF-8 (no BOM, no UTF-16/32); ``line`` is the file line ``data`` starts on."""
    try:
        return json.loads(data.decode("utf-8"))
    except json.JSONDecodeError as e:
        raise ValueError(f"{source}: invalid JSON at line {e.lineno + line - 1}, column {e.colno}: {e.msg}") from None
    except UnicodeDecodeError as e:  # named by the line of its first bad byte
        line += data.count(b"\n", 0, e.start)
        raise ValueError(f"{source}: invalid JSON at line {line}: {e}") from None
    except RecursionError:
        raise ValueError(f"{source}: invalid JSON: nested too deeply to parse") from None
    except ValueError as e:  # an integer literal longer than the interpreter's digit limit
        raise ValueError(f"{source}: invalid JSON: {e}") from None


def read_json(path, parse):
    """``parse`` of the JSON document in the file at ``path``. Every ValueError starts
    with ``path``: a file that does not decode raises ``loads_json``'s, and one from
    ``parse`` keeps its type."""
    with open(path, "rb") as fh:
        doc = loads_json(fh.read(), path)
    try:
        return parse(doc)
    except ValueError as e:
        raise type(e)(f"{path}: {e}") from None


def wrap_angle(angle: float) -> float:
    """Normalize an angle to (-pi, pi]."""
    wrapped = math.remainder(angle, math.tau)
    if wrapped <= -math.pi:
        wrapped += math.tau
    return wrapped


# Grasp-ready arm pose, one angle (rad) per joint: the planar links are solved so the
# fingertip sits 0.35 m ahead of the platform center and 0.15 m above platform height.
READY_POSE = (0.0, 1.21191, -1.71442, 0.0, -0.35, 0.0, 0.25, 0.0)


class ActionIndexMap:
    """Bijection between named command slots and action vector indices.

    ``arms`` is ``("left",)`` or ``("left", "right")``: joint selectors read
    the left arm at index 0 and the right arm at index 1, and slot names
    must be distinct. Slot names: the four platform slots, then per arm
    ``<arm>_arm_joint_<j>`` followed by ``<arm>_fingers`` (positive = close,
    negative = open). ``joint_slots`` holds each arm's joint slot indices and
    ``finger_slots`` each arm's finger slot index. The stack uses only the
    two prebuilt maps ``SINGLE_ARM`` and ``DUAL_ARM``, and a map pickles and
    copies as one of them, by name.
    """

    __slots__ = ("arms", "slots", "joint_slots", "finger_slots", "_index")
    joints_per_arm = len(READY_POSE)  # every arm's joint count: a class constant, not a setting

    def __init__(self, arms: tuple[str, ...]) -> None:
        if arms not in (("left",), ("left", "right")):
            raise ValueError(f"invalid arm set {arms!r}; expected ('left',) or ('left', 'right')")
        names = list(PLATFORM_SLOTS)
        joint_slots, finger_slots = [], []
        for arm in arms:
            joint_slots.append(tuple(range(len(names), len(names) + self.joints_per_arm)))
            names.extend(f"{arm}_arm_joint_{j}" for j in range(self.joints_per_arm))
            finger_slots.append(len(names))
            names.append(f"{arm}_fingers")
        self.arms = arms
        self.slots = tuple(names)
        self.joint_slots = tuple(joint_slots)
        self.finger_slots = tuple(finger_slots)
        self._index = {name: i for i, name in enumerate(names)}

    def __reduce__(self) -> str:
        # pickle and copy resolve a map to this module's own object by name
        return "DUAL_ARM" if len(self.arms) == 2 else "SINGLE_ARM"

    @property
    def robot(self) -> "ActionIndexMap":
        # bench/tracer.py reads ``index_map.robot`` until ROADMAP item 3 updates the tracer
        return self

    @property
    def dim(self) -> int:
        return len(self.slots)

    def index_of(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise KeyError(f"unknown action slot {name!r}") from None

    def build(self, assignments: dict[str, float]) -> Action:
        """Action with the named slots set and every other component zero."""
        out = [0.0] * self.dim
        for name, value in assignments.items():
            out[self.index_of(name)] = float(value)
        return tuple(out)


SINGLE_ARM = ActionIndexMap(("left",))
DUAL_ARM = ActionIndexMap(("left", "right"))

# task kind -> action layout (dual-arm tasks hold the object with two arms)
TASK_ACTIONS = {
    "open_cabinet_door": SINGLE_ARM,
    "open_cabinet_drawer": SINGLE_ARM,
    "move_bucket": DUAL_ARM,
    "push_chair": DUAL_ARM,
}


def midpoint(points: tuple[Point3, ...]) -> Point3:
    """Mean of the points, each axis summed in point order from the int 0."""
    n = len(points)
    return tuple([sum(axis) / n for axis in zip(*points)])


class RobotState(NamedTuple):
    """Kinematic robot snapshot. Yaw is kept normalized to (-pi, pi]."""

    platform_x: float  # m
    platform_y: float  # m
    platform_height: float  # m
    platform_yaw: float  # rad
    arm_joints: tuple[tuple[float, ...], ...]  # rad, one tuple per arm
    finger_positions: tuple[Point3, ...]  # m, one fingertip point per arm
    grasping: tuple[bool, ...]  # per arm: attachment currently active


class ObjectAttributes(NamedTuple):
    """Estimated attributes of the manipulated object.

    ``articulation_value`` is the door opening angle (rad) or drawer
    extension (m) and is present exactly for those kinds; ``target_point``
    is present exactly for bucket/chair tasks.
    """

    kind: str
    handle_position: Point3  # m, representative grip point
    object_pose: tuple[float, float, float]  # x, y, yaw of the object base
    articulation_value: float | None = None
    target_point: Point2 | None = None


class Observation(NamedTuple):
    """Snapshot handed to sub-task controllers, one per environment step."""

    robot: RobotState
    object: ObjectAttributes
    step_index: int
