import math
import random

import pytest

import heurobot
from heurobot.core import (
    DUAL_ARM,
    READY_POSE,
    SINGLE_ARM,
    TASK_ACTIONS,
    TASK_KINDS,
    ActionIndexMap,
    ObjectAttributes,
    add,
    clamp,
    midpoint,
    wrap_angle,
)
from heurobot.mockenv import MockEnv
from heurobot.orchestrator import EpisodeResult
from heurobot.plans import builtin_plan
from heurobot.subtasks import MoveSteps, MoveTo


def test_clamp_saturates_componentwise():
    assert clamp((1.5, -2.0, 0.3)) == (1.0, -1.0, 0.3)
    assert clamp((0.0, 0.0, 0.0)) == (0.0, 0.0, 0.0)


def test_clamp_is_idempotent():
    rng = random.Random(7)
    for _ in range(1000):
        a = tuple(rng.uniform(-3, 3) for _ in range(rng.randint(1, 22)))
        once = clamp(a)
        assert clamp(once) == once
        assert all(-1.0 <= v <= 1.0 for v in once)


def test_add_disjoint_supports():
    assert add((0.5, 0.0), (0.0, 0.3)) == (0.5, 0.3)


def test_add_zero_is_identity():
    rng = random.Random(11)
    for _ in range(100):
        dim = rng.randint(1, 22)
        a = tuple(rng.uniform(-1, 1) for _ in range(dim))
        assert add(a, (0.0,) * dim) == a


def test_add_does_not_clamp_but_clamp_after_add_does():
    summed = add((0.8, 0.1), (0.8, 0.0))
    assert summed == (1.6, 0.1)
    assert clamp(summed) == (1.0, 0.1)


def test_add_is_the_per_component_float_sum_signed_zeros_and_nan_included():
    a = (-0.0, -0.0, 0.0, math.inf, 0.1, -1.0)
    b = (-0.0, 0.0, -0.0, -math.inf, 0.2, 1.0)
    assert repr(add(a, b)) == repr(tuple(x + y for x, y in zip(a, b)))
    assert repr(add(a, b)[:4]) == "(-0.0, 0.0, 0.0, nan)"
    rng = random.Random(17)
    for _ in range(200):
        dim = rng.randint(1, 22)
        a = tuple(rng.choice((-0.0, 0.0, rng.uniform(-1, 1))) for _ in range(dim))
        b = tuple(rng.choice((-0.0, 0.0, rng.uniform(-1, 1))) for _ in range(dim))
        assert repr(add(a, b)) == repr(tuple(x + y for x, y in zip(a, b)))


def random_point(rng):
    return tuple(rng.choice((-0.0, 0.0, rng.uniform(-2, 2))) for _ in range(3))


@pytest.mark.parametrize("count", [1, 2])
def test_midpoint_sums_each_axis_in_point_order_from_int_zero(count):
    rng = random.Random(23 + count)
    cases = [((-0.0, -0.0, -0.0),) * count, ((-0.0, 0.0, 1e-300),) * count]
    cases += [tuple(random_point(rng) for _ in range(count)) for _ in range(300)]
    for points in cases:
        expected = tuple(sum([p[a] for p in points]) / len(points) for a in range(3))
        assert repr(midpoint(points)) == repr(expected)


def test_add_dimension_mismatch():
    with pytest.raises(ValueError):
        add((0.1,), (0.1, 0.2))


def test_sum_chain_then_single_clamp_is_in_range():
    rng = random.Random(3)
    for _ in range(200):
        dim = rng.randint(1, 8)
        total = (0.0,) * dim
        for _ in range(rng.randint(1, 6)):
            total = add(total, tuple(rng.uniform(-1, 1) for _ in range(dim)))
        assert all(-1.0 <= v <= 1.0 for v in clamp(total))


def test_wrap_angle_range_and_identity():
    assert wrap_angle(0.0) == 0.0
    assert wrap_angle(math.pi) == pytest.approx(math.pi)
    assert wrap_angle(-math.pi) == pytest.approx(math.pi)
    assert wrap_angle(3 * math.pi) == pytest.approx(math.pi)
    rng = random.Random(5)
    for _ in range(500):
        a = rng.uniform(-30, 30)
        w = wrap_angle(a)
        assert -math.pi < w <= math.pi
        assert math.cos(w) == pytest.approx(math.cos(a), abs=1e-9)
        assert math.sin(w) == pytest.approx(math.sin(a), abs=1e-9)


def test_action_dims_for_each_layout():
    assert SINGLE_ARM.dim == 13
    assert DUAL_ARM.dim == 22


def test_index_map_arm_set_validation():
    with pytest.raises(ValueError):
        ActionIndexMap(())
    with pytest.raises(ValueError):
        ActionIndexMap(("middle",))
    # the joint count is a class constant, not a setting
    with pytest.raises(TypeError):
        ActionIndexMap(joints_per_arm=2)


def test_every_arm_has_one_joint_per_ready_pose_value():
    assert SINGLE_ARM.joints_per_arm == DUAL_ARM.joints_per_arm == len(READY_POSE) == 8
    for m in (SINGLE_ARM, DUAL_ARM):
        assert all(len(slots) == len(READY_POSE) for slots in m.joint_slots)


def test_every_export_resolves():
    # a name left in __all__ after its definition is deleted fails here, not at a user's star import
    assert [name for name in heurobot.__all__ if not hasattr(heurobot, name)] == []


def test_records_carry_no_unread_fields():
    assert "size_extents" not in ObjectAttributes._fields
    assert "subtask_steps" not in EpisodeResult._fields


@pytest.mark.parametrize(
    "arms",
    [("left", "left"), ("right",), ("right", "left"), ("left", "right", "right")],
    ids=["left_left", "right_only", "right_left", "left_right_right"],
)
def test_index_map_rejects_arm_sets_the_stack_cannot_serve(arms):
    # duplicate arms would share slot names; a lone right arm would be read at index 1
    with pytest.raises(ValueError, match="invalid arm set"):
        ActionIndexMap(arms)


@pytest.mark.parametrize("m", [SINGLE_ARM, DUAL_ARM], ids=["one_arm", "two_arms"])
def test_index_map_is_a_bijection(m):
    assert sorted(m.index_of(name) for name in m.slots) == list(range(m.dim))
    for name in m.slots:
        assert m.slots[m.index_of(name)] == name


@pytest.mark.parametrize("task", TASK_KINDS)
def test_each_task_has_one_index_map(task):
    # the env, the plan parser and the stabilizer all act in the task's one prebuilt layout
    m = TASK_ACTIONS[task]
    assert MockEnv(task).index_map is m
    entries = builtin_plan(task).entries
    assert all(len(e.plus) == len(e.minus) == m.dim for e in entries if isinstance(e, MoveTo))
    assert all(len(e.vector) == m.dim for e in entries if isinstance(e, MoveSteps))


def test_index_map_arm_slots():
    single = SINGLE_ARM
    assert not any("right" in s for s in single.slots)
    dual = DUAL_ARM
    assert dual.finger_slots == (12, 21)
    assert dual.joint_slots[1][0] == 13
    with pytest.raises(KeyError):
        single.index_of("right_fingers")


def test_index_map_build():
    m = SINGLE_ARM
    act = m.build({"platform_x": -0.3, "left_fingers": 0.6})
    assert act[m.index_of("platform_x")] == -0.3
    assert act[m.index_of("left_fingers")] == 0.6
    assert sum(1 for v in act if v != 0.0) == 2
    with pytest.raises(KeyError):
        m.build({"nonsense": 1.0})
