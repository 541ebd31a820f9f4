"""Observation builders and input fuzzers shared by the test modules."""

import copy
import math

from heurobot.core import ObjectAttributes, Observation, RobotState


def robot_state(
    platform_x=0.0,
    platform_y=0.0,
    platform_height=0.4,
    platform_yaw=0.0,
    arm_joints=((0.0,) * 8,),
    finger_positions=((0.35, 0.0, 0.55),),
    grasping=None,
):
    if grasping is None:
        grasping = (False,) * len(arm_joints)
    return RobotState(
        platform_x=platform_x,
        platform_y=platform_y,
        platform_height=platform_height,
        platform_yaw=platform_yaw,
        arm_joints=tuple(tuple(q) for q in arm_joints),
        finger_positions=tuple(finger_positions),
        grasping=tuple(grasping),
    )


def door_attributes(handle=(0.7, 0.0, 0.55), articulation=0.0):
    return ObjectAttributes(
        kind="door",
        handle_position=handle,
        object_pose=(0.95, 0.0, 3.14),
        articulation_value=articulation,
    )


def bucket_attributes(center=(0.35, 0.0), handle=(0.09, 0.0, 0.55), target=(1.0, 0.2)):
    return ObjectAttributes(
        kind="bucket",
        handle_position=handle,
        object_pose=(center[0], center[1], 0.0),
        target_point=target,
    )


def chair_attributes(center=(0.7, 0.0), grip=(0.54, 0.0, 0.55), target=(2.0, 0.0)):
    return ObjectAttributes(
        kind="chair",
        handle_position=grip,
        object_pose=(center[0], center[1], 0.0),
        target_point=target,
    )


def make_obs(robot=None, obj=None, step_index=0):
    return Observation(
        robot=robot if robot is not None else robot_state(),
        object=obj if obj is not None else door_attributes(),
        step_index=step_index,
    )


# JSON values of every type, including ones a reader must not take for numbers
JUNK_VALUES = ("", "x", "1", True, False, None, [], [1], {}, {"kind": "summary"},
               math.nan, math.inf, -1, 0, 2.5, 10**400)


def mutate_json(rng, doc):
    """A copy of a decoded JSON document with one random node replaced, removed or given a junk sibling."""
    doc = copy.deepcopy(doc)
    parent, key, node = None, None, doc
    while isinstance(node, (dict, list)) and node and rng.random() < 0.7:
        parent, key = node, rng.choice(sorted(node) if isinstance(node, dict) else range(len(node)))
        node = node[key]
    junk = copy.deepcopy(rng.choice(JUNK_VALUES))
    if parent is None:
        return junk
    op = rng.randrange(5)
    if op == 0:
        del parent[key]
    elif op == 1 and isinstance(parent, dict):
        parent["junk"] = junk
    elif op == 1:
        parent.append(junk)
    else:
        parent[key] = junk
    return doc


def mutate_bytes(rng, data):
    """``data`` with one random byte overwritten, one inserted, or a short run deleted."""
    i = rng.randrange(len(data))
    op = rng.randrange(3)
    if op == 0:
        return data[:i] + bytes([rng.randrange(256)]) + data[i + 1 :]
    if op == 1:
        return data[:i] + bytes([rng.randrange(256)]) + data[i:]
    return data[:i] + data[i + rng.randint(1, 16) :]
