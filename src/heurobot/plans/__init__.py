"""Task solution scripts: ordered sub-task lists in a small JSON plan format.

A plan document is a JSON object with a ``task_kind`` and an ``entries``
list. Every entry carries ``kind`` and ``label``; the other fields each
kind takes are listed in ``ENTRY_FIELDS``. Targets are either literal
numbers or expressions from the closed vocabulary in ``TARGETS``,
evaluated once against the first observation of an episode: later object
motion never retargets a sub-task.

A ``Plan`` is checked in full when it is constructed, whether it comes
from a document or from code, so ``resolve`` only instantiates it.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields
from importlib import resources
from typing import Callable, NamedTuple

from ..core import (
    TASK_KINDS,
    TASK_OBJECT,
    Observation,
    index_map_for_task,
    is_finite_number,
    wrap_angle,
)
from ..subtasks import MoveSteps, MoveTo, get_selector

MARKER_KIND = "stabilizer_on"

# entry kind -> fields it takes besides ``kind`` and ``label``, in document order
ENTRY_FIELDS = {
    "move_steps": ("action", "steps"),
    "move_to": ("slot", "selector", "target", "velocity", "threshold"),
    MARKER_KIND: (),
}

PLAN_SCHEMA_VERSION = 1

# convergence defaults when an entry does not pin its own values
DEFAULT_VELOCITY = 0.5
DEFAULT_THRESHOLDS = {"platform_rotation": 0.02}  # rad; translations below
DEFAULT_THRESHOLD = 0.01  # m
DEFAULT_EDGE_OFFSET = 0.35  # m, target_edge_* without an explicit D

GOAL_POINT_OBJECTS = ("bucket", "chair")  # objects whose scene has a goal point


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
    offset: bool  # takes an optional ":D" offset in meters
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
            offset = float(arg) if arg else DEFAULT_EDGE_OFFSET
        except ValueError:
            offset = math.nan
        if not math.isfinite(offset):
            raise PlanError(f"bad edge offset {arg!r} in target {target!r}")
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


@dataclass(frozen=True)
class StabilizerOn:
    """Resolved marker: switch the arm stabilizer on at the current pose."""

    label: str = "stabilizer_on"


@dataclass(frozen=True)
class PlanEntry:
    """One sub-task as written; checked by the ``Plan`` that holds it."""

    kind: str
    label: str
    action: dict[str, float] | None = None
    steps: int | None = None
    slot: str | None = None
    selector: str | None = None
    target: float | str | None = None
    velocity: float | None = None
    threshold: float | None = None


ENTRY_KEYS = frozenset(f.name for f in fields(PlanEntry))


@dataclass(frozen=True)
class Plan:
    """Ordered sub-task list for one task kind, valid by construction.

    Construction raises ``PlanError`` unless every entry uses its kind's
    fields with the JSON types they need (numbers finite and not bools,
    ``steps`` an integer >= 1), names action slots of the task's robot and
    known selectors, and uses goal-point targets only on tasks that have a
    goal point.
    """

    task_kind: str
    entries: tuple[PlanEntry, ...]

    def __post_init__(self) -> None:
        if self.task_kind not in TASK_KINDS:
            raise PlanError(f"unknown task kind {self.task_kind!r}")
        if not self.entries:
            raise PlanError("plan has no entries")
        slots = index_map_for_task(self.task_kind).slots
        has_goal_point = TASK_OBJECT[self.task_kind] in GOAL_POINT_OBJECTS
        markers = 0
        for i, e in enumerate(self.entries):
            where = f"entry {i} ({e.label!r})"
            if not isinstance(e.kind, str) or e.kind not in ENTRY_FIELDS:
                raise PlanError(f"{where}: unknown kind {e.kind!r}")
            if not isinstance(e.label, str) or not e.label:
                raise PlanError(f"{where}: label must be a non-empty string")
            foreign = ENTRY_KEYS - {"kind", "label", *ENTRY_FIELDS[e.kind]}
            stray = sorted(k for k in foreign if getattr(e, k) is not None)
            if stray:
                raise PlanError(f"{where}: unknown keys {stray} for kind {e.kind!r}")
            if e.kind == MARKER_KIND:
                markers += 1
                if markers > 1:
                    raise PlanError(f"{where}: duplicate stabilizer_on marker")
            elif e.kind == "move_steps":
                if type(e.steps) is not int or e.steps < 1:
                    raise PlanError(f"{where}: move_steps requires integer steps >= 1, got {e.steps!r}")
                if e.action is not None and not isinstance(e.action, dict):
                    raise PlanError(f"{where}: action must map slot names to numbers")
                for name, value in (e.action or {}).items():
                    if name not in slots:
                        raise PlanError(f"{where}: unknown action slot {name!r}")
                    if not is_finite_number(value):
                        raise PlanError(f"{where}: action value for {name!r} must be a finite number, got {value!r}")
            else:
                if e.slot not in slots:
                    raise PlanError(f"{where}: unknown action slot {e.slot!r}")
                if not isinstance(e.selector, str):
                    raise PlanError(f"{where}: selector must be a string, got {e.selector!r}")
                try:
                    get_selector(e.selector)
                    rule = _parse_target(e.target)[0] if isinstance(e.target, str) else None
                except ValueError as err:
                    raise PlanError(f"{where}: {err}") from None
                if rule is None and not is_finite_number(e.target):
                    raise PlanError(f"{where}: target must be a finite number or an expression, got {e.target!r}")
                if rule is not None and rule.goal_point and not has_goal_point:
                    raise PlanError(
                        f"{where}: target {e.target!r} needs a goal point; only move_bucket and push_chair have one"
                    )
                if e.velocity is not None and not (is_finite_number(e.velocity) and 0.0 < e.velocity <= 1.0):
                    raise PlanError(f"{where}: velocity must be a number in (0, 1], got {e.velocity!r}")
                if e.threshold is not None and not (is_finite_number(e.threshold) and e.threshold > 0.0):
                    raise PlanError(f"{where}: threshold must be a positive finite number, got {e.threshold!r}")

    @property
    def executable_entries(self) -> tuple[PlanEntry, ...]:
        return tuple(e for e in self.entries if e.kind != MARKER_KIND)


def resolve(plan: Plan, init_obs: Observation) -> list[MoveSteps | MoveTo | StabilizerOn]:
    """Instantiate a plan's sub-tasks against the initial observation.

    Targets are evaluated exactly once, here; the returned controllers are
    fresh state machines owned by the calling episode.
    """
    expected = TASK_OBJECT[plan.task_kind]
    if init_obs.object.kind != expected:
        raise PlanError(
            f"plan for {plan.task_kind!r} got an observation of a {init_obs.object.kind!r} "
            f"(expected {expected!r})"
        )
    index_map = index_map_for_task(plan.task_kind)
    out: list[MoveSteps | MoveTo | StabilizerOn] = []
    for entry in plan.entries:
        if entry.kind == MARKER_KIND:
            out.append(StabilizerOn(label=entry.label))
        elif entry.kind == "move_steps":
            out.append(
                MoveSteps(
                    fixed_action=index_map.build(entry.action or {}),
                    num_steps=entry.steps,
                    label=entry.label,
                )
            )
        else:
            threshold = entry.threshold
            if threshold is None:
                threshold = DEFAULT_THRESHOLDS.get(entry.slot, DEFAULT_THRESHOLD)
            out.append(
                MoveTo(
                    active_index=index_map.index_of(entry.slot),
                    target=eval_target(entry.target, init_obs),
                    selector=get_selector(entry.selector),
                    action_dim=index_map.dim,
                    velocity=entry.velocity if entry.velocity is not None else DEFAULT_VELOCITY,
                    threshold=threshold,
                    label=entry.label,
                )
            )
    return out


# ------------------------------------------------------------- documents


def load_plan(text: str) -> Plan:
    """Parse a plan document into a checked ``Plan``; errors carry position info."""
    if not text.strip():
        raise PlanError("empty plan document")
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise PlanError(f"invalid JSON at line {e.lineno}, column {e.colno}: {e.msg}") from None
    except (ValueError, RecursionError) as e:  # over-long integer literal, nesting too deep
        raise PlanError(f"invalid JSON: {e}") from None
    if not isinstance(doc, dict):
        raise PlanError("plan document must be a JSON object")
    version = doc.get("schema_version", PLAN_SCHEMA_VERSION)
    if version != PLAN_SCHEMA_VERSION:
        raise PlanError(f"unsupported plan schema_version {version!r}")
    entries_obj = doc.get("entries")
    if not isinstance(entries_obj, list):
        raise PlanError("plan document requires an 'entries' list")
    entries = []
    for i, obj in enumerate(entries_obj):
        if not isinstance(obj, dict):
            raise PlanError(f"entry {i}: expected an object, got {type(obj).__name__}")
        unknown = set(obj) - ENTRY_KEYS
        if unknown:
            raise PlanError(f"entry {i}: unknown keys {sorted(unknown)}")
        kind = obj.get("kind")
        entries.append(PlanEntry(**{**obj, "kind": kind, "label": obj.get("label", kind)}))
    return Plan(task_kind=doc.get("task_kind"), entries=tuple(entries))


def load_plan_file(path) -> Plan:
    with open(path, "r", encoding="utf-8") as fh:
        return load_plan(fh.read())


def serialize_plan(plan: Plan) -> str:
    entries = []
    for e in plan.entries:
        obj: dict = {"kind": e.kind, "label": e.label}
        for key in ENTRY_FIELDS[e.kind]:
            value = getattr(e, key)
            if value is not None:
                obj[key] = value
        entries.append(obj)
    doc = {"schema_version": PLAN_SCHEMA_VERSION, "task_kind": plan.task_kind, "entries": entries}
    return json.dumps(doc, indent=2) + "\n"


_builtin_cache: dict[str, Plan] = {}


def builtin_plan(task_kind: str) -> Plan:
    """Bundled solution script for one of the four task kinds."""
    if task_kind not in TASK_KINDS:
        raise PlanError(f"unknown task kind {task_kind!r}")
    if task_kind not in _builtin_cache:
        text = resources.files(__package__).joinpath("data", f"{task_kind}.json").read_text("utf-8")
        _builtin_cache[task_kind] = load_plan(text)
    return _builtin_cache[task_kind]
