"""Observation builders shared by the test modules."""

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
