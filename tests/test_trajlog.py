"""``trajectory_lines`` writes exactly what one ``json.dumps`` per record writes.

The writer builds each record from field texts memoised per episode. A memo
keyed on the values themselves would be wrong: ``0.0 == -0.0`` and
``1 == 1.0 == True``, but their JSON texts differ. These tests compare the
writer with the plain per-record reference on real episodes and on
hand-built records that toggle between such values.
"""

import json
import math
from typing import NamedTuple

import pytest

from heurobot.core import TASK_KINDS
from heurobot.mockenv import EnvConfig
from heurobot.orchestrator import EpisodeResult, StepRecord, run_episode
from heurobot.plans import builtin_plan
from heurobot.trajlog import SCHEMA_VERSION, trajectory_lines

from helpers import door_attributes, make_obs, robot_state


def reference_lines(result, config, plan_source):
    """One ``json.dumps`` for the header and for each record, fields taken as they are."""

    def dumps(obj):
        return json.dumps(obj, sort_keys=True, separators=(",", ":"))

    header = {
        "schema_version": SCHEMA_VERSION,
        "kind": "trajectory",
        "task": result.task_kind,
        "seed": result.seed,
        "plan": plan_source,
        "config": config._asdict(),
        "success": result.success,
        "steps": result.steps,
        "error": result.error,
    }
    lines = [dumps(header)]
    for rec in result.trajectory:
        robot, obj = rec.obs.robot, rec.obs.object
        record = {
            "step": rec.obs.step_index,
            "label": rec.label,
            "subtask": rec.subtask_index,
            "action": rec.action,
            "main": rec.main_action,
            "stabilizer": rec.stabilizer_action,
            "platform": [robot.platform_x, robot.platform_y, robot.platform_height, robot.platform_yaw],
            "joints": robot.arm_joints,
            "object": obj.object_pose,
            "handle": obj.handle_position,
            "articulation": obj.articulation_value,
        }
        lines.append(dumps(record))
    return lines


@pytest.mark.parametrize("config", [EnvConfig(), EnvConfig(disturbance_std=0.05)], ids=["default", "std0.05"])
@pytest.mark.parametrize("task", TASK_KINDS)
def test_episode_lines_equal_one_dumps_per_record(task, config):
    plan = builtin_plan(task)
    for seed in range(10):
        result = run_episode(task, plan, config, seed)
        assert trajectory_lines(result, config, "builtin") == reference_lines(result, config, "builtin")


class Pose(NamedTuple):
    """A tuple subclass: JSON writes it as a list, ``marshal`` cannot key it."""

    x: float
    y: float
    yaw: float


# Consecutive values that compare equal (or are both "missing") but print differently.
SLOT_VALUES = (0.0, -0.0, 0.0, -0.0, 1, 1.0, True, 1.0, 1, True, 0, False, 0.0)
ARTICULATIONS = (None, 0.0, None, -0.0, 0, None, 0.25, 0.25, None, math.inf, None, 1, 1.0)
LABELS = ('say "hi"', "back\\slash", "é", "line\u2028sep", "é", 'say "hi"', "plain", " ",
          "\\", '"', "é\\\"", "plain", "x")


def hand_built_result():
    records = []
    for step, (slot, articulation, label) in enumerate(zip(SLOT_VALUES, ARTICULATIONS, LABELS)):
        action = (slot, 0.0, 0.5)
        obj = door_attributes(handle=(0.7, 0.0, slot), articulation=articulation)
        if step % 4 == 3:
            obj = obj._replace(object_pose=Pose(*obj.object_pose))
        robot = robot_state(platform_x=slot, platform_yaw=-0.0 if step % 2 else 0.0, arm_joints=((slot,) * 8,))
        records.append(
            StepRecord(
                label=label,
                subtask_index=slot if step % 3 else step,
                action=action,
                main_action=(0.0, slot, 0.5),
                stabilizer_action=(-0.0, 0.0, slot),
                obs=make_obs(robot=robot, obj=obj, step_index=step),
            )
        )
    return EpisodeResult("open_cabinet_door", 7, False, len(records), tuple(records), error='bad "é" ')


def test_lines_keep_the_text_of_equal_values_that_print_differently():
    result, config = hand_built_result(), EnvConfig()
    lines = trajectory_lines(result, config, "plan \\ é.json")
    assert lines == reference_lines(result, config, "plan \\ é.json")
    # the toggles reach the output: each slot prints unlike the one before it
    slots = [line[len('{"action":['):].split(",", 1)[0] for line in lines[1:8]]
    assert slots == ["0.0", "-0.0", "0.0", "-0.0", "1", "1.0", "true"]
