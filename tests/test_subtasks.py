import json
import math
import random

import pytest

from heurobot.core import DUAL_ARM, READY_POSE, SINGLE_ARM, TASK_ACTIONS, midpoint
from heurobot.mockenv import EnvConfig
from heurobot.orchestrator import run_episode
from heurobot.plans import builtin_plan
from heurobot.subtasks import SELECTORS, STABILIZER_GAIN, ArmStabilizer, MoveSteps, MoveTo

from helpers import make_obs, robot_state


def obs_at(x):
    return make_obs(robot=robot_state(platform_x=x))


def move_steps(vector, steps):
    return MoveSteps("move_steps", steps, vector)


def at_index(dim, index, value):
    """Action with ``value`` at ``index`` and every other component zero."""
    return tuple(value if i == index else 0.0 for i in range(dim))


def move_to(target, index, dim, velocity, threshold, selector="platform_x"):
    plus, minus = at_index(dim, index, velocity), at_index(dim, index, -velocity)
    return MoveTo("move_to", "platform_x", selector, target, velocity, threshold, plus, minus)


def run_entry(entry, target, observe):
    """Step ``entry`` until it reports done; ``observe(actions so far)`` gives each observation."""
    actions, done = [], False
    while not done:
        act, done = entry.step(observe(actions), target, len(actions))
        actions.append(act)
    return actions


# --------------------------------------------------------------- MoveSteps


def test_move_steps_emits_action_n_times_then_done():
    st = move_steps((0.5, 0.0), 3)
    obs = obs_at(0.0)
    assert st.step(obs, None, 0) == ((0.5, 0.0), False)
    assert st.step(obs, None, 1) == ((0.5, 0.0), False)
    assert st.step(obs, None, 2) == ((0.5, 0.0), True)


def test_move_steps_single_step():
    st = move_steps((0.1,), 1)
    act, done = st.step(obs_at(0.0), None, 0)
    assert act == (0.1,) and done


def test_move_steps_emission_is_constant():
    rng = random.Random(21)
    obs = obs_at(0.0)
    for _ in range(100):
        dim = rng.randint(1, 22)
        a = tuple(rng.uniform(-1, 1) for _ in range(dim))
        n = rng.randint(1, 50)
        outputs = run_entry(move_steps(a, n), None, lambda _: obs)
        assert outputs == [a] * n


# ------------------------------------------------------------------ MoveTo


def test_move_to_positive_distance_emits_plus_v():
    mt = move_to(1.0, 0, 2, 0.5, 0.1)
    act, done = mt.step(obs_at(0.2), 1.0, 0)
    assert act == (0.5, 0.0) and not done


def test_move_to_within_threshold_emits_minus_v_and_finishes():
    mt = move_to(1.0, 0, 2, 0.5, 0.1)
    act, done = mt.step(obs_at(1.05), 1.0, 0)
    assert act == (-0.5, 0.0) and done


def test_move_to_exactly_on_target():
    # d = 0 takes the else branch: one -v emission, then immediately done
    mt = move_to(1.0, 0, 3, 0.4, 0.05)
    act, done = mt.step(obs_at(1.0), 1.0, 0)
    assert act == (-0.4, 0.0, 0.0) and done


def test_move_to_steps_toward_the_target_it_is_given():
    # the as-written ``target`` is for ``resolve``; ``step`` uses the evaluated one
    mt = move_to("handle_x", 0, 1, 0.5, 0.1)
    assert mt.step(obs_at(0.0), -1.0, 0) == ((-0.5,), False)
    assert mt.step(obs_at(0.0), 1.0, 0) == ((0.5,), False)


def test_move_to_nan_selector_output_steps_negative_and_never_converges():
    # the env never observes NaN; a hand-built observation that does runs the entry to the step cap
    mt = move_to(0.0, 1, 3, 0.5, 0.01)
    assert mt.step(obs_at(math.nan), 0.0, 0) == ((0.0, -0.5, 0.0), False)


def _euler_loop_oracle(x0, xt, v, t, delta):
    """Independent brute-force transcription of the bang-bang loop."""
    x = x0
    steps = 0
    while True:
        d = xt - x
        a = v if d > 0 else -v
        steps += 1
        done = abs(d) < t
        x = x + a * delta
        if done:
            return steps


def _run_move_to(x0, xt, v, t, delta, max_steps=100000):
    def observe(actions):
        assert len(actions) <= max_steps
        return obs_at(x0 + sum(act[0] for act in actions) * delta)

    actions = run_entry(move_to(xt, 0, 1, v, t), xt, observe)
    assert all(act[0] in (v, -v) for act in actions)
    return len(actions)


def test_move_to_random_walk_convergence_bound():
    # x0=0, xt=1, v=1, t=0.05, delta=0.02: bound is ceil(0.95/0.02)+1 = 49
    steps = _run_move_to(0.0, 1.0, 1.0, 0.05, 0.02)
    assert steps == _euler_loop_oracle(0.0, 1.0, 1.0, 0.05, 0.02)
    assert steps <= 49


def test_move_to_matches_oracle_and_bound_on_random_cases():
    rng = random.Random(2024)
    for _ in range(300):
        t = rng.uniform(0.005, 0.1)
        delta = rng.uniform(0.005, 0.05)
        v = rng.uniform(0.05, 1.0)
        while v * delta >= 2 * t:
            v = rng.uniform(0.05, 1.0)
        x0 = rng.uniform(-2, 2)
        xt = rng.uniform(-2, 2)
        steps = _run_move_to(x0, xt, v, t, delta)
        assert steps == _euler_loop_oracle(x0, xt, v, t, delta)
        bound = max(math.ceil((abs(xt - x0) - t) / (v * delta)), 0) + 1
        assert steps <= bound


def test_move_to_every_emission_is_one_hot():
    rng = random.Random(99)
    for _ in range(50):
        dim = rng.randint(2, 22)
        idx = rng.randint(0, dim - 1)
        v = rng.uniform(0.1, 1.0)
        target = rng.uniform(-1, 1)
        x0 = rng.uniform(-1, 1)
        actions = run_entry(
            move_to(target, idx, dim, v, 0.05), target, lambda acts: obs_at(x0 + sum(a[idx] for a in acts) * 0.02)
        )
        for act in actions:
            assert abs(act[idx]) == v
            assert all(val == 0.0 for i, val in enumerate(act) if i != idx)


# --------------------------------------------------------------- selectors


def test_selector_registry():
    obs = make_obs(robot=robot_state(platform_x=1.5, platform_yaw=0.3))
    assert SELECTORS["platform_x"](obs) == 1.5
    assert SELECTORS["platform_yaw"](obs) == 0.3
    assert "warp_drive" not in SELECTORS


def test_finger_selectors_average_over_arms():
    robot = robot_state(
        arm_joints=((0.0,) * 8, (0.0,) * 8),
        finger_positions=((0.3, 0.2, 0.5), (0.5, -0.2, 0.7)),
    )
    obs = make_obs(robot=robot)
    assert SELECTORS["finger_x"](obs) == pytest.approx(0.4)
    assert SELECTORS["finger_y"](obs) == pytest.approx(0.0)
    assert SELECTORS["finger_height"](obs) == pytest.approx(0.6)


def test_finger_selectors_read_the_fingertip_midpoint_bit_for_bit():
    rng = random.Random(29)
    cases = [((-0.0, -0.0, -0.0), (-0.0, -0.0, -0.0)), ((0.1, 0.2, 0.3), (0.7, -0.0, 1e-300))]
    cases += [tuple(tuple(rng.uniform(-2, 2) for _ in range(3)) for _ in range(2)) for _ in range(100)]
    for fingers in cases:
        obs = make_obs(robot=robot_state(arm_joints=((0.0,) * 8,) * 2, finger_positions=fingers))
        for axis, name in enumerate(("finger_x", "finger_y", "finger_height")):
            assert repr(SELECTORS[name](obs)) == repr(midpoint(fingers)[axis])


def test_arm_joint_selector_names():
    robot = robot_state(arm_joints=((0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8), (1.1, 1.2, 1.3, 1.4, 1.5, 1.6, 1.7, 1.8)))
    obs = make_obs(robot=robot)
    assert SELECTORS["left_arm_joint_3"](obs) == 0.4
    assert SELECTORS["right_arm_joint_0"](obs) == 1.1


def test_joint_selectors_are_the_dual_arm_joint_slots():
    m = DUAL_ARM
    joint_slot_names = {m.slots[i] for arm in m.joint_slots for i in arm}
    assert {name for name in SELECTORS if "_arm_joint_" in name} == joint_slot_names
    assert len(joint_slot_names) == 16


# -------------------------------------------------------------- stabilizer


def pose(*angles):
    """An arm pose with the given leading joint angles and every other joint at 0."""
    return angles + (0.0,) * (len(READY_POSE) - len(angles))


def obs_for_joints(joints, step=0):
    return make_obs(robot=robot_state(arm_joints=joints), step_index=step)


def started(m, reference, start=0):
    """A stabilizer entry for ``m`` switched on at ``reference`` on step ``start``,
    and a function that steps it on one pose per call, each call one step
    after the last (the first at ``start``), passing the marker observation
    as ``start`` and the observation before it as ``previous``."""
    stab, at_marker = ArmStabilizer("hold", m), obs_for_joints(reference, start)
    seen = []

    def step(joints):
        obs = obs_for_joints(joints, start + len(seen))
        act = stab.step(obs, at_marker, seen[-1] if seen else obs)
        seen.append(obs)
        return act

    return stab, step


def test_stabilizer_init_builds_one_corrector_per_joint():
    m = SINGLE_ARM
    stab, step = started(m, (pose(0.1, -0.3),))
    assert stab == ("hold", m) and stab.index_map is m  # the reference and start are the runner's
    j0, j1 = m.joint_slots[0][0], m.joint_slots[0][1]
    # one channel per joint, each pushing toward its own reference angle
    first = step((pose(0.5, -0.5),))
    assert first[j0] == -STABILIZER_GAIN and first[j1] == STABILIZER_GAIN
    assert all(v == 0.0 for i, v in enumerate(first) if i not in m.joint_slots[0])
    # threshold 0.01: inside the band a joint settles after one emission, outside it does not
    near = (pose(0.1 + 0.009, -0.3 - 0.011),)
    step(near)
    second = step(near)
    assert second[j0] == 0.0 and second[j1] != 0.0


def test_stabilizer_at_reference_fires_once_then_goes_quiet():
    m = SINGLE_ARM
    _, step = started(m, (pose(0.1, -0.3),))
    at_reference = (pose(0.1, -0.3),)
    first = step(at_reference)
    j0, j1 = m.joint_slots[0][0], m.joint_slots[0][1]
    assert abs(first[j0]) == STABILIZER_GAIN and abs(first[j1]) == STABILIZER_GAIN
    assert all(v == 0.0 for i, v in enumerate(first) if i not in m.joint_slots[0])
    for _ in range(3):
        assert all(v == 0.0 for v in step(at_reference))


def test_stabilizer_corrects_displaced_joint_toward_reference():
    m = SINGLE_ARM
    _, step = started(m, (pose(),))
    out = step((pose(0.5),))
    assert out[m.joint_slots[0][0]] == -STABILIZER_GAIN  # pushes back down
    # zero outside the stabilized joint slots
    joint_slots = set(m.joint_slots[0])
    assert all(v == 0.0 for i, v in enumerate(out) if i not in joint_slots)


def test_stabilizer_rearms_after_convergence():
    m = SINGLE_ARM
    _, step = started(m, (pose(),))
    settled = (pose(),)
    step(settled)
    assert all(v == 0.0 for v in step(settled))
    out = step((pose(0.2),))
    assert out[m.joint_slots[0][0]] != 0.0


def test_stabilizer_gain_decays_geometrically_with_floor():
    m = SINGLE_ARM
    _, step = started(m, (pose(),), start=5)
    gains = [abs(step((pose(1.0, 1.0),))[m.joint_slots[0][0]]) for _ in range(470)]
    assert gains == [max(0.2 * 0.995**k, 0.02) for k in range(470)]
    assert gains[0] == 0.2 and gains[-1] == 0.02  # the floor is reached within the window


def test_stabilizer_dual_arm_reference():
    m = DUAL_ARM
    _, step = started(m, (pose(), pose(0.1, 0.1)))
    at_reference = (pose(), pose(0.1, 0.1))
    first = step(at_reference)
    joint_slots = set(m.joint_slots[0]) | set(m.joint_slots[1])
    assert len(joint_slots) == 16
    assert all(abs(first[i]) == STABILIZER_GAIN for i in joint_slots)
    assert all(v == 0.0 for i, v in enumerate(first) if i not in joint_slots)
    assert all(v == 0.0 for v in step(at_reference))


def test_stabilizer_nan_joint_emits_minus_gain_and_never_settles():
    m = SINGLE_ARM
    _, step = started(m, (pose(),))
    with_nan = (pose(0.0, math.nan),)
    nan_slot = m.joint_slots[0][1]
    step(with_nan)  # every joint emits on the first step
    for k in range(1, 4):
        act = step(with_nan)
        assert act[nan_slot] == -max(0.2 * 0.995**k, 0.02)
        assert all(v == 0.0 for i, v in enumerate(act) if i != nan_slot)


class CorrectorBankOracle:
    """The stabilizer as first written: one re-arming MoveTo corrector per joint."""

    def __init__(self, index_map, reference, velocity=0.2, decay=0.995, min_velocity=0.02, threshold=0.01):
        self.index_map = index_map
        self.velocity, self.decay, self.min_velocity = velocity, decay, min_velocity
        self.steps_taken = 0
        self.correctors = [
            MoveTo(
                label=f"stabilize_{slot}",
                slot=slot,
                selector=slot,
                target=angle,
                velocity=velocity,
                threshold=threshold,
                plus=index_map.build({slot: velocity}),
                minus=index_map.build({slot: -velocity}),
            )
            for arm, pose in enumerate(reference)
            for joint, angle in enumerate(pose)
            for slot in [f"{index_map.arms[arm]}_arm_joint_{joint}"]
        ]
        self.done = [False] * len(self.correctors)

    def step(self, obs):
        g = max(self.velocity * self.decay**self.steps_taken, self.min_velocity)
        out = [0.0] * self.index_map.dim
        for k, mt in enumerate(self.correctors):
            gained = mt._replace(plus=self.index_map.build({mt.slot: g}), minus=self.index_map.build({mt.slot: -g}))
            act, inside = gained.step(obs, mt.target, 0)
            if self.done[k] and inside:
                continue  # converged and still inside the band
            self.done[k] = inside  # re-arms once the joint drifts out
            index = self.index_map.index_of(mt.slot)
            out[index] += act[index]
        self.steps_taken += 1
        return tuple(out)


@pytest.mark.parametrize("m", [SINGLE_ARM, DUAL_ARM], ids=["one_arm", "two_arms"])
def test_stabilizer_matches_corrector_bank_oracle(m):
    rng = random.Random(f"{len(m.arms)}:0.995")
    reference = tuple(tuple(rng.uniform(-1.5, 1.5) for _ in range(m.joints_per_arm)) for _ in m.arms)
    _, step = started(m, reference, start=37)
    oracle = CorrectorBankOracle(m, reference)
    joints = [[q + rng.uniform(-0.05, 0.05) for q in pose] for pose in reference]
    slots = [m.joint_slots[arm] for arm in range(len(m.arms))]
    joint_slots = [i for arm in slots for i in arm]
    previous = None
    settles = rearms = 0
    for _ in range(600):
        want, got = oracle.step(obs_for_joints(joints)), step(joints)
        assert json.dumps(got) == json.dumps(want)  # same bytes, signed zeros included
        if previous is not None:
            settles += sum(1 for i in joint_slots if previous[i] != 0.0 and got[i] == 0.0)
            rearms += sum(1 for i in joint_slots if previous[i] == 0.0 and got[i] != 0.0)
        previous = got
        # closed loop: the correction moves the joint, a seeded disturbance pushes it off
        for arm, q in enumerate(joints):
            for j in range(len(q)):
                q[j] += got[slots[arm][j]] * 0.05 + rng.gauss(0.0, 0.008)
    assert oracle.steps_taken == 600
    assert settles > 10 and rearms > 10  # the walk exercises both mask transitions


def test_stabilizer_misuse_raises():
    m = SINGLE_ARM
    stab, start = ArmStabilizer("hold", m), obs_for_joints((pose(),), 5)
    at = {step: obs_for_joints((pose(0.3),), step) for step in range(3, 9)}
    with pytest.raises(ValueError, match="started at step 5, got step 4"):
        stab.step(at[4], start, at[3])  # before the start
    with pytest.raises(ValueError, match="previous observation is step 5, expected 6"):
        stab.step(at[7], start, at[5])  # a step skipped
    with pytest.raises(ValueError, match="previous observation is step 8, expected 6"):
        stab.step(at[7], start, at[8])  # out of order
    assert stab.step(at[5], start, at[8]) == stab.step(at[5], start, at[5])  # the start step does not read previous


@pytest.mark.parametrize("config", [None, EnvConfig(disturbance_std=0.05)], ids=["default", "std_0.05"])
@pytest.mark.parametrize("task", ["move_bucket", "push_chair"])
def test_stabilizer_column_recomputes_from_the_log_in_any_order(task, config):
    plan = builtin_plan(task)
    marker = next(i for i, e in enumerate(plan.entries) if e.kind == "stabilizer_on")
    for seed in range(10):
        records = run_episode(task, plan, config, seed).trajectory
        first = next(i for i, rec in enumerate(records) if rec.subtask_index > marker)
        stab, start = plan.entries[marker], records[first].obs
        assert stab.index_map is TASK_ACTIONS[task]
        for i in reversed(range(first, len(records))):
            rec, previous = records[i], records[i - 1 if i > first else i].obs
            got = stab.step(rec.obs, start, previous)
            assert repr(got) == repr(rec.stabilizer_action), f"seed {seed} step {i}"
            assert stab.step(rec.obs, start, previous) == got
        assert stab == builtin_plan(task).entries[marker]
