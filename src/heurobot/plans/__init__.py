"""Task solution scripts: ordered sub-task lists in a small JSON plan format.

A plan document is a JSON object with a ``task_kind`` and an ``entries``
list. Every entry carries ``kind``, ``label`` and exactly the fields
``ENTRY_FIELDS`` lists for its kind. Targets are either literal
numbers or expressions from the closed vocabulary in ``TARGETS``,
evaluated once against the first observation of an episode: later object
motion never retargets a sub-task.

``parse_plan`` checks a document once into frozen entries; nothing is
filled in but the task's action layout and the actions built from it, every
action a plan can emit. There are three entry kinds,
``MoveSteps``, ``MoveTo`` and the ``stabilizer_on`` marker
``ArmStabilizer``, and each is its own sub-task controller; ``resolve``
only evaluates the ``MoveTo`` targets for one episode.
"""

from __future__ import annotations

import math
import os
from typing import Callable, NamedTuple

from ..core import (
    GOAL_POINT_OBJECTS,
    TASK_ACTIONS,
    TASK_KINDS,
    TASK_OBJECT,
    Observation,
    is_finite_number,
    read_json,
    wrap_angle,
)
from ..subtasks import JOINT_SELECTORS, SELECTORS, ArmStabilizer, MoveSteps, MoveTo

# entry kind -> fields it requires besides ``kind`` and ``label``, in document order
ENTRY_FIELDS = {
    MoveSteps.kind: ("action", "steps"),
    MoveTo.kind: ("slot", "selector", "target", "velocity", "threshold"),
    ArmStabilizer.kind: (),
}

PLAN_SCHEMA_VERSION = 1


class PlanError(ValueError):
    """Malformed plan document or failed plan resolution."""


# ---------------------------------------------------------------- targets


def _facing_yaw(obs: Observation, point: tuple[float, ...]) -> float:
    robot = obs.robot
    bearing = math.atan2(point[1] - robot.platform_y, point[0] - robot.platform_x)
    # express the target relative to the current yaw so the rotation
    # never has to cross the +-pi wrap
    return robot.platform_yaw + wrap_angle(bearing - robot.platform_yaw)


def _edge_point(obs: Observation, offset: float) -> tuple[float, float]:
    """Goal point pulled back ``offset`` meters toward the robot."""
    tx, ty = obs.object.target_point
    dx, dy = tx - obs.robot.platform_x, ty - obs.robot.platform_y
    norm = math.hypot(dx, dy)
    if norm < 1e-9:
        raise PlanError("target point coincides with the robot start position")
    ux, uy = dx / norm, dy / norm
    return tx - offset * ux, ty - offset * uy


class TargetRule(NamedTuple):
    offset: bool  # requires a ":D" offset in meters
    goal_point: bool  # reads the goal point, which only GOAL_POINT_OBJECTS have
    evaluate: Callable[[Observation, float], float]  # (first observation, offset)


# The whole target vocabulary. ``facing_yaw`` spells the point it faces in
# its name; ``target_edge_*`` take the offset argument (``target_edge_x:D``).
TARGETS: dict[str, TargetRule] = {
    "handle_x": TargetRule(False, False, lambda obs, _: obs.object.handle_position[0]),
    "handle_y": TargetRule(False, False, lambda obs, _: obs.object.handle_position[1]),
    "handle_height": TargetRule(False, False, lambda obs, _: obs.object.handle_position[2]),
    "armrest_height": TargetRule(False, False, lambda obs, _: obs.object.handle_position[2]),
    "target_x": TargetRule(False, True, lambda obs, _: obs.object.target_point[0]),
    "target_y": TargetRule(False, True, lambda obs, _: obs.object.target_point[1]),
    "facing_yaw:handle": TargetRule(False, False, lambda obs, _: _facing_yaw(obs, obs.object.handle_position)),
    "facing_yaw:object": TargetRule(False, False, lambda obs, _: _facing_yaw(obs, obs.object.object_pose)),
    "facing_yaw:target": TargetRule(False, True, lambda obs, _: _facing_yaw(obs, obs.object.target_point)),
    "target_edge_x": TargetRule(True, True, lambda obs, d: _edge_point(obs, d)[0]),
    "target_edge_y": TargetRule(True, True, lambda obs, d: _edge_point(obs, d)[1]),
}


def _parse_target(target: str) -> tuple[TargetRule, float]:
    """Look a target expression up in ``TARGETS``; returns its rule and offset."""
    name, _, arg = target.partition(":")
    rule = TARGETS.get(name)
    if rule is not None and rule.offset:
        try:
            offset = float(arg)
        except ValueError:
            offset = math.nan
        if not math.isfinite(offset):
            raise PlanError(f"target {target!r} needs a finite offset D in meters, as in '{name}:0.35'")
        return rule, offset
    if target not in TARGETS:
        raise PlanError(f"unknown target expression {target!r}")
    return TARGETS[target], 0.0


def eval_target(target: float | str, obs: Observation) -> float:
    """Evaluate a target against the episode's first observation."""
    if not isinstance(target, str):
        return float(target)
    rule, offset = _parse_target(target)
    if rule.goal_point and obs.object.target_point is None:
        raise PlanError(f"target expression {target!r} needs a target point, none for kind {obs.object.kind!r}")
    return rule.evaluate(obs, offset)


# ------------------------------------------------------------------ plans


PlanEntry = ArmStabilizer | MoveSteps | MoveTo


class Plan(NamedTuple):
    """Ordered sub-task list for one task kind, as built by ``parse_plan``."""

    task_kind: str
    entries: tuple[PlanEntry, ...]


def parse_plan(doc: object) -> Plan:
    """Check a decoded plan document once and build its typed entries.

    Raises ``PlanError`` unless the document has no keys but
    ``schema_version``, ``task_kind`` and ``entries``, and every entry has
    exactly its kind's fields, with the JSON types they need (numbers finite
    and not bools, ``steps`` an integer >= 1), names slots and joints of the
    task's robot and known selectors, and uses goal-point targets only on
    tasks that have a goal point. Every number but ``steps`` is stored as a
    float.
    """
    if not isinstance(doc, dict):
        raise PlanError("plan document must be a JSON object")
    unknown = sorted(set(doc) - {"schema_version", "task_kind", "entries"})
    if unknown:
        raise PlanError(f"unknown plan keys {unknown}")
    version = doc.get("schema_version", PLAN_SCHEMA_VERSION)
    if type(version) is not int or version != PLAN_SCHEMA_VERSION:
        raise PlanError(f"unsupported plan schema_version {version!r}")
    entries_obj = doc.get("entries")
    if not isinstance(entries_obj, list):
        raise PlanError("plan document requires an 'entries' list")
    task_kind = doc.get("task_kind")
    if task_kind not in TASK_KINDS:
        raise PlanError(f"unknown task kind {task_kind!r}")
    if not entries_obj:
        raise PlanError("plan has no entries")
    index_map = TASK_ACTIONS[task_kind]
    has_goal_point = TASK_OBJECT[task_kind] in GOAL_POINT_OBJECTS
    entries: list[PlanEntry] = []
    for i, obj in enumerate(entries_obj):
        if not isinstance(obj, dict):
            raise PlanError(f"entry {i}: expected an object, got {type(obj).__name__}")
        kind, label = obj.get("kind"), obj.get("label")
        where = f"entry {i} ({label!r})"
        if not isinstance(kind, str) or kind not in ENTRY_FIELDS:
            raise PlanError(f"{where}: unknown kind {kind!r}")
        keys = {"kind", "label", *ENTRY_FIELDS[kind]}
        unknown, missing = sorted(set(obj) - keys), sorted(keys - set(obj))
        if unknown:
            raise PlanError(f"{where}: unknown keys {unknown} for kind {kind!r}")
        if missing:
            raise PlanError(f"{where}: missing keys {missing} for kind {kind!r}")
        if not isinstance(label, str) or not label:
            raise PlanError(f"{where}: label must be a non-empty string")
        if kind == ArmStabilizer.kind:
            if any(isinstance(e, ArmStabilizer) for e in entries):
                raise PlanError(f"{where}: duplicate stabilizer_on marker")
            entries.append(ArmStabilizer(label, index_map))
        elif kind == MoveSteps.kind:
            steps, action = obj["steps"], obj["action"]
            if type(steps) is not int or steps < 1:
                raise PlanError(f"{where}: move_steps requires integer steps >= 1, got {steps!r}")
            if not isinstance(action, dict):
                raise PlanError(f"{where}: action must map slot names to numbers")
            for name, value in action.items():
                if name not in index_map.slots:
                    raise PlanError(f"{where}: unknown action slot {name!r}")
                if not is_finite_number(value):
                    raise PlanError(f"{where}: action value for {name!r} must be a finite number, got {value!r}")
            entries.append(MoveSteps(label, steps, index_map.build(action)))
        else:
            slot, selector, target = obj["slot"], obj["selector"], obj["target"]
            if slot not in index_map.slots:
                raise PlanError(f"{where}: unknown action slot {slot!r}")
            if not isinstance(selector, str):
                raise PlanError(f"{where}: selector must be a string, got {selector!r}")
            if selector not in SELECTORS:
                raise PlanError(f"{where}: unknown selector {selector!r}")
            try:
                rule = _parse_target(target)[0] if isinstance(target, str) else None
            except PlanError as err:
                raise PlanError(f"{where}: {err}") from None
            if selector in JOINT_SELECTORS and selector not in index_map.slots:
                raise PlanError(f"{where}: selector {selector!r} names a joint the task's robot does not have")
            if rule is None and not is_finite_number(target):
                raise PlanError(f"{where}: target must be a finite number or an expression, got {target!r}")
            if rule is not None and rule.goal_point and not has_goal_point:
                raise PlanError(
                    f"{where}: target {target!r} needs a goal point; only move_bucket and push_chair have one"
                )
            velocity, threshold = obj["velocity"], obj["threshold"]
            if not (is_finite_number(velocity) and 0.0 < velocity <= 1.0):
                raise PlanError(f"{where}: velocity must be a number in (0, 1], got {velocity!r}")
            if not (is_finite_number(threshold) and threshold > 0.0):
                raise PlanError(f"{where}: threshold must be a positive finite number, got {threshold!r}")
            if rule is None:
                target = float(target)
            velocity, threshold = float(velocity), float(threshold)  # 1 and 1.0 log the same bytes
            plus, minus = index_map.build({slot: velocity}), index_map.build({slot: -velocity})
            entries.append(MoveTo(label, slot, selector, target, velocity, threshold, plus, minus))
    return Plan(task_kind, tuple(entries))


def resolve(plan: Plan, init_obs: Observation) -> list[float | None]:
    """Evaluate a plan's targets against an episode's first observation.

    Returns one entry per plan entry: the ``MoveTo`` target as a number,
    ``None`` for every other kind. Targets are evaluated exactly once, here.
    """
    expected = TASK_OBJECT[plan.task_kind]
    if init_obs.object.kind != expected:
        raise PlanError(
            f"plan for {plan.task_kind!r} got an observation of a {init_obs.object.kind!r} "
            f"(expected {expected!r})"
        )
    return [eval_target(e.target, init_obs) if isinstance(e, MoveTo) else None for e in plan.entries]


# ------------------------------------------------------------- documents


# Read with ``read_json``: importing ``importlib.resources`` takes 15-28 ms of
# CPU on CPython 3.10-3.13, and from 3.12 on it imports ``inspect``.
PLAN_DATA_DIR = os.path.join(os.path.dirname(__file__), "data")


def builtin_plan(task_kind: str) -> Plan:
    """Bundled solution script for one of the four task kinds, read and parsed on every call."""
    if task_kind not in TASK_KINDS:
        raise PlanError(f"unknown task kind {task_kind!r}")
    return read_json(os.path.join(PLAN_DATA_DIR, f"{task_kind}.json"), parse_plan)
