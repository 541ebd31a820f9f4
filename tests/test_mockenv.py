import copy
import math
import pickle
import random

import pytest

from heurobot.core import TASK_KINDS, TASK_OBJECT, Observation, wrap_angle
from heurobot import mockenv
from heurobot.mockenv import (
    ARM_MOUNTS,
    DETACH_OPEN_STEPS,
    HEIGHT_LIMITS,
    NOISE_TRUNCATION,
    PLATFORM_TOP_HEIGHT,
    EnvConfig,
    MockEnv,
    READY_FINGER_FORWARD,
    READY_FINGER_RISE,
    finger_local,
    fingertips,
)
from heurobot.orchestrator import replay_actions, run_episode
from heurobot.plans import builtin_plan

from helpers import mutate_json

QUIET = EnvConfig(disturbance_std=1e-12)  # effectively noise-free


def random_action(rng, dim):
    return tuple(rng.uniform(-1, 1) for _ in range(dim))


# ------------------------------------------------------------- determinism


@pytest.mark.parametrize("task_kind", TASK_KINDS)
def test_reset_is_deterministic(task_kind):
    a, _ = MockEnv(task_kind).reset(42)
    b, _ = MockEnv(task_kind).reset(42)
    assert a == b


def test_trajectories_are_bit_identical():
    env1 = MockEnv("move_bucket")
    env2 = MockEnv("move_bucket")
    obs1, _ = env1.reset(7)
    obs2, _ = env2.reset(7)
    rng = random.Random(123)
    for _ in range(100):
        act = random_action(rng, env1.index_map.dim)
        obs1, done1 = env1.step(act)
        obs2, done2 = env2.step(act)
        assert obs1 == obs2
        assert done1 == done2


def test_different_seeds_give_different_layouts():
    poses = set()
    for seed in range(100):
        obs, _ = MockEnv("open_cabinet_door").reset(seed)
        poses.add(obs.object.handle_position)
    assert len(poses) >= 99


def test_config_seed_shifts_the_layout_stream():
    base, _ = MockEnv("push_chair", EnvConfig(rng_seed=0)).reset(5)
    other, _ = MockEnv("push_chair", EnvConfig(rng_seed=1)).reset(5)
    assert base.object.object_pose != other.object.object_pose


# ------------------------------------------------------------ layout bands


def test_handle_heights_stay_in_reachable_band():
    for seed in range(200):
        obs, _ = MockEnv("open_cabinet_drawer").reset(seed)
        assert 0.45 <= obs.object.handle_position[2] <= 0.68


def test_bucket_rim_spawns_at_ready_fingertip_height():
    for seed in range(200):
        obs, _ = MockEnv("move_bucket").reset(seed)
        finger_z = obs.robot.finger_positions[0][2]
        assert abs(obs.object.handle_position[2] - finger_z) <= 0.02 + 1e-9


def test_ready_pose_fingertip_geometry():
    obs, _ = MockEnv("open_cabinet_door").reset(3)
    robot = obs.robot
    fx, fy, fz = robot.finger_positions[0]
    expected_x = robot.platform_x + READY_FINGER_FORWARD * math.cos(robot.platform_yaw)
    assert fx == pytest.approx(expected_x, abs=1e-9)
    assert fz == pytest.approx(robot.platform_height + READY_FINGER_RISE, abs=1e-9)
    assert READY_FINGER_FORWARD == pytest.approx(0.35, abs=2e-4)
    assert READY_FINGER_RISE == pytest.approx(0.15, abs=2e-4)


@pytest.mark.parametrize("n_arms", [1, 2])
def test_fingertips_rotate_each_arms_local_point_into_the_world(n_arms):
    rng = random.Random(31 + n_arms)
    for _ in range(200):
        platform = [rng.uniform(-2, 2), rng.uniform(-2, 2), rng.uniform(0.1, 1.2), rng.choice((-0.0, rng.uniform(-3, 3)))]
        joints = [[rng.uniform(-3, 3) for _ in range(8)] for _ in range(n_arms)]
        px, py, ph, yaw = platform
        c, s = math.cos(yaw), math.sin(yaw)
        expected = []
        for q, mount in zip(joints, ARM_MOUNTS[n_arms]):
            reach, lateral, rise = finger_local(q, mount)
            expected.append((px + c * reach - s * lateral, py + s * reach + c * lateral, ph + rise))
        assert repr(fingertips(platform, joints)) == repr(tuple(expected))


# ------------------------------------------------------------ observations


@pytest.mark.parametrize("task_kind", TASK_KINDS)
def test_observations_keep_the_object_kind_invariants(task_kind):
    # the env is the only builder of ObjectAttributes, which has no constructor check
    kind = TASK_OBJECT[task_kind]
    for seed in range(3):
        actions = [rec.action for rec in run_episode(task_kind, builtin_plan(task_kind), seed=seed).trajectory]
        env = MockEnv(task_kind)
        seen = [env.reset(seed)[0]] + [env.step(act)[0] for act in actions]
        assert len(seen) == len(actions) + 1 > 1
        for obs in seen:
            assert obs.object.kind == kind
            assert (obs.object.articulation_value is not None) == (kind in ("door", "drawer"))
            assert (obs.object.target_point is not None) == (kind in ("bucket", "chair"))


@pytest.mark.parametrize("task_kind", TASK_KINDS)
def test_carry_is_set_exactly_while_every_arm_grasps(task_kind):
    # the env moves a bucket or chair whenever ``carry`` is set, without re-reading the grasp flags
    carries = TASK_OBJECT[task_kind] in ("bucket", "chair")
    for seed in range(3):
        actions = [rec.action for rec in run_episode(task_kind, builtin_plan(task_kind), seed=seed).trajectory]
        env = MockEnv(task_kind)
        env.reset(seed)
        held_steps = 0
        for act in [*actions, None]:
            state = env.state
            assert (state.carry is not None) == (carries and all(state.grasping)), f"seed {seed}, step {state.step}"
            # the attach step does not reset the count, so a new grasp relies on it being 0 here
            assert all(count == 0 for count, held in zip(state.open_counts, state.grasping) if not held)
            held_steps += all(state.grasping)
            if act is not None:
                env.step(act)
        assert held_steps > 0  # the plan grasps, so both sides of the equality are exercised


def test_reset_and_step_return_the_shapes_the_benchmark_tracer_reads():
    # bench/tracer.py reads result[0] of whatever reset or step returns
    env = MockEnv("move_bucket")
    for result in (env.reset(0), env.step((0.0,) * env.index_map.dim)):
        assert type(result) is tuple and len(result) == 2
        assert type(result[0]) is Observation and type(result[1]) is bool


def test_observation_is_a_named_tuple():
    obs, _ = MockEnv("push_chair").reset(4)
    assert obs == tuple(obs) and hash(obs) == hash(tuple(obs))
    assert pickle.loads(pickle.dumps(obs)) == obs
    assert obs._replace(step_index=9).step_index == 9


def test_reset_is_not_done_where_the_spawn_state_already_succeeds():
    # tolerances at FIELD_MAX count a bucket or chair as placed at spawn; the episode still takes a step
    cfg = EnvConfig(bucket_xy_tolerance=100, bucket_height_tolerance=100, chair_xy_tolerance=100)
    for task_kind in ("move_bucket", "push_chair"):
        env = MockEnv(task_kind, cfg)
        assert env.reset(0)[1] is False and env.success()
        assert run_episode(task_kind, builtin_plan(task_kind), cfg, seed=0).steps == 1


# -------------------------------------------------------------- kinematics


def test_zero_action_changes_nothing_but_the_step_counter():
    env = MockEnv("push_chair")
    obs0, _ = env.reset(11)
    obs1, done = env.step((0.0,) * env.index_map.dim)
    assert not done
    assert obs1.step_index == obs0.step_index + 1
    assert obs1.robot == obs0.robot  # no attachment -> no noise
    assert obs1.object == obs0.object


def test_platform_x_euler_integration():
    env = MockEnv("open_cabinet_door")
    obs0, _ = env.reset(1)
    act = env.index_map.build({"platform_x": 1.0})
    obs1, _ = env.step(act)
    assert obs1.robot.platform_x == obs0.robot.platform_x + 1.0 * 1.0 * 0.05
    assert obs1.robot.platform_y == obs0.robot.platform_y


def test_step_index_counts_up_by_one():
    env = MockEnv("open_cabinet_door")
    obs, _ = env.reset(0)
    assert obs.step_index == 0
    zero = (0.0,) * env.index_map.dim
    for expected in range(1, 11):
        obs, _ = env.step(zero)
        assert obs.step_index == expected


@pytest.mark.parametrize("seed", [True, 1.5, "1", 10**5000], ids=["bool", "float", "str", "int_too_long_to_print"])
def test_reset_rejects_seeds_that_are_not_integers(seed):
    # True would seed the stream "0:True:layout", not seed 1's; 10**5000 cannot be printed into one
    with pytest.raises(ValueError, match="seed must be an integer"):
        MockEnv("move_bucket").reset(seed)
    with pytest.raises(ValueError, match="seed must be an integer"):
        run_episode("move_bucket", builtin_plan("move_bucket"), seed=seed)


def test_action_validation():
    env = MockEnv("open_cabinet_door")
    env.reset(0)
    in_range = [i / 20 for i in range(13)]
    # wrong length, no length at all, or the right length but not a tuple or a list
    for bad in ((0.0,) * 5, 5, None, iter([0.0] * 13), set(in_range), dict.fromkeys(in_range), "0" * 13, b"\x01" * 13):
        with pytest.raises(ValueError, match="action dimension"):
            env.step(bad)
    with pytest.raises(ValueError, match="action dimension"):
        replay_actions("open_cabinet_door", None, 0, [5])  # what a hand-edited log could hold
    for bad in (math.nan, math.inf, 1.5, -1.0000001):
        with pytest.raises(ValueError, match=r"\[-1, 1\]"):
            env.step(env.index_map.build({"platform_x": bad}))
    for bad in ("x", None, 1j):  # not a number: a typed error, not a raw TypeError
        action = list(env.index_map.build({}))
        action[0] = bad
        with pytest.raises(ValueError, match=r"\[-1, 1\]"):
            env.step(action)
    assert env.state.step == 0  # a rejected action moves nothing
    env.step(env.index_map.build({"platform_x": 1.0, "platform_y": -1.0}))  # the bounds themselves are accepted
    env.step(in_range)  # a list steps like a tuple
    with pytest.raises(RuntimeError):
        MockEnv("open_cabinet_door").step((0.0,) * 13)


# ------------------------------------------------------- grasp and objects


def teleport_fingers_to_handle(env, obs):
    """Place the platform so the (ready-pose) fingertip coincides with the handle seen in obs."""
    hx, hy, hz = obs.object.handle_position
    platform = env.state.platform
    yaw = platform[3]
    platform[0] = hx - READY_FINGER_FORWARD * math.cos(yaw)
    platform[1] = hy - READY_FINGER_FORWARD * math.sin(yaw)
    platform[2] = hz - READY_FINGER_RISE


def test_drawer_pull_projects_displacement_onto_axis():
    # success disabled so the full 0.3 m pull can be observed end to end
    env = MockEnv("open_cabinet_drawer", EnvConfig(disturbance_std=1e-12, drawer_success_fraction=5.0))
    obs, _ = env.reset(4)
    teleport_fingers_to_handle(env, obs)
    close = env.index_map.build({"left_fingers": 0.6})
    obs, _ = env.step(close)
    assert obs.robot.grasping == (True,)
    ax, ay = env.state.layout.axis
    # pull straight along the articulation axis: 0.03 m per step, 0.3 m total
    pull = env.index_map.build({"platform_x": 0.6 * ax, "platform_y": 0.6 * ay})
    for k in range(10):
        obs, _ = env.step(pull)
        assert obs.object.articulation_value == pytest.approx(0.03 * (k + 1), abs=1e-9)
    assert obs.object.articulation_value == pytest.approx(0.3, abs=1e-9)


def test_drawer_articulation_never_decreases_and_clamps():
    # success disabled (fraction > 1 is unreachable) to drive into the hard stop
    env = MockEnv("open_cabinet_drawer", EnvConfig(disturbance_std=1e-12, drawer_success_fraction=5.0))
    obs, _ = env.reset(9)
    teleport_fingers_to_handle(env, obs)
    env.step(env.index_map.build({"left_fingers": 0.6}))
    ax, ay = env.state.layout.axis
    pull = env.index_map.build({"platform_x": 0.8 * ax, "platform_y": 0.8 * ay})
    push = env.index_map.build({"platform_x": -0.8 * ax, "platform_y": -0.8 * ay})
    last = 0.0
    for _ in range(30):
        obs, _ = env.step(pull)
        assert obs.object.articulation_value >= last
        last = obs.object.articulation_value
    assert last == pytest.approx(env.state.layout.art_range)
    obs, _ = env.step(push)  # pushing back is ratcheted out
    assert obs.object.articulation_value == last


def test_door_articulation_scales_with_handle_radius():
    env = MockEnv("open_cabinet_door", QUIET)
    obs, _ = env.reset(12)
    teleport_fingers_to_handle(env, obs)
    env.step(env.index_map.build({"left_fingers": 0.6}))
    lay = env.state.layout
    pull = env.index_map.build({"platform_x": 0.6 * lay.axis[0], "platform_y": 0.6 * lay.axis[1]})
    obs, _ = env.step(pull)
    assert obs.object.articulation_value == pytest.approx(0.6 * 0.05 / lay.lever, abs=1e-9)


def test_attach_requires_closing_and_proximity():
    env = MockEnv("open_cabinet_door", QUIET)
    obs, _ = env.reset(2)
    teleport_fingers_to_handle(env, obs)
    obs, _ = env.step(env.index_map.build({"left_fingers": -0.5}))  # opening: no attach
    assert obs.robot.grasping == (False,)
    obs, _ = env.step(env.index_map.build({"left_fingers": 0.5}))
    assert obs.robot.grasping == (True,)
    far = MockEnv("open_cabinet_door", QUIET)
    far.reset(2)  # fingers ~0.3 m from the handle at spawn
    obs, _ = far.step(far.index_map.build({"left_fingers": 0.5}))
    assert obs.robot.grasping == (False,)


def test_detach_needs_sustained_opening():
    env = MockEnv("open_cabinet_door", QUIET)
    obs, _ = env.reset(2)
    teleport_fingers_to_handle(env, obs)
    env.step(env.index_map.build({"left_fingers": 0.5}))
    open_cmd = env.index_map.build({"left_fingers": -0.5})
    for k in range(DETACH_OPEN_STEPS - 1):
        obs, _ = env.step(open_cmd)
        assert obs.robot.grasping == (True,), f"released after {k + 1} opens"
    obs, _ = env.step(env.index_map.build({"left_fingers": 0.5}))  # close resets the count
    assert obs.robot.grasping == (True,)
    for _ in range(DETACH_OPEN_STEPS):
        obs, _ = env.step(open_cmd)
    assert obs.robot.grasping == (False,)


def test_disturbance_only_hits_attached_arms():
    env = MockEnv("open_cabinet_door")
    obs0, _ = env.reset(6)
    zero = (0.0,) * env.index_map.dim
    obs, _ = env.step(zero)
    assert obs.robot.arm_joints == obs0.robot.arm_joints
    teleport_fingers_to_handle(env, obs)
    before, _ = env.step(env.index_map.build({"left_fingers": 0.5}))
    assert before.robot.grasping == (True,)
    obs, _ = env.step(zero)
    assert obs.robot.arm_joints != before.robot.arm_joints


@pytest.mark.parametrize("std", [0.0, 0.01, 0.05])
def test_inlined_disturbance_matches_normalvariate(std):
    # MockEnv.step draws the held-arm noise with random.normalvariate's
    # ratio-of-uniforms loop inlined; a twin stream run through the stdlib
    # call must give the same joints, bit for bit, and end in the same state.
    assert mockenv.NV_MAGICCONST == random.NV_MAGICCONST
    cfg = EnvConfig(disturbance_std=std)
    logged = [rec.action for rec in run_episode("move_bucket", builtin_plan("move_bucket"), cfg, 21).trajectory]
    env = MockEnv("move_bucket", cfg)
    obs, _ = env.reset(21)
    k = 0
    while obs.robot.grasping != (True, True):
        obs, _ = env.step(logged[k])
        k += 1
    twin = copy.deepcopy(env.state.noise_rng)
    joints = copy.deepcopy(env.state.joints)
    ang = cfg.angular_velocity_scale * cfg.dt
    bound = NOISE_TRUNCATION * std
    for act in logged[k : k + 20]:
        assert env.state.grasping == [True, True]  # every step of the window draws
        env.step(act)
        for q, slots in zip(joints, env.index_map.joint_slots):  # arm-major, as drawn
            for j, slot in enumerate(slots):
                q[j] = (q[j] + act[slot] * ang) + min(max(twin.normalvariate(0.0, std), -bound), bound)
        assert env.state.joints == joints
    assert env.state.noise_rng.getstate() == twin.getstate()


def test_no_teleportation_under_random_actions():
    cfg = EnvConfig()
    env = MockEnv("move_bucket", cfg)
    obs, _ = env.reset(13)
    rng = random.Random(77)
    lin = cfg.linear_velocity_scale * cfg.dt
    ang = cfg.angular_velocity_scale * cfg.dt
    joint_bound = ang + NOISE_TRUNCATION * cfg.disturbance_std + 1e-12
    # loose kinematic bound for a held object: platform motion plus the
    # rotation lever and the noise-propagated fingertip wobble
    object_bound = 0.15
    prev = obs
    for _ in range(150):
        obs, done = env.step(random_action(rng, env.index_map.dim))
        assert abs(obs.robot.platform_x - prev.robot.platform_x) <= lin + 1e-12
        assert abs(obs.robot.platform_y - prev.robot.platform_y) <= lin + 1e-12
        assert abs(obs.robot.platform_height - prev.robot.platform_height) <= lin + 1e-12
        assert abs(wrap_angle(obs.robot.platform_yaw - prev.robot.platform_yaw)) <= ang + 1e-12
        for arm in range(2):
            for j in range(8):
                assert abs(obs.robot.arm_joints[arm][j] - prev.robot.arm_joints[arm][j]) <= joint_bound
        assert abs(obs.object.object_pose[0] - prev.object.object_pose[0]) <= object_bound
        assert abs(obs.object.object_pose[1] - prev.object.object_pose[1]) <= object_bound
        if done:
            break
        prev = obs


@pytest.mark.parametrize("task_kind", TASK_KINDS)
def test_fuzzed_actions_keep_the_state_invariants(task_kind):
    """Random piecewise-constant actions, finger commands biased to close, keep the state in range.

    Each episode first replays a random prefix of the builtin plan's actions, so
    door and drawer handles get grasped too, then holds random actions for 1-20
    steps at a time. Two invariants the mock does not keep yet are left out, and
    belong with the mock's slip and support fix (ROADMAP item 10): a held grip
    can drift more than 0.25 m from its fingertip, and a carried bucket can sink
    below the platform top.
    """
    # success fractions past any reachable opening keep a door or drawer episode going up to its hard stop
    cfg = EnvConfig(max_steps=400, door_success_fraction=100, drawer_success_fraction=100)
    carries = TASK_OBJECT[task_kind] in ("bucket", "chair")
    articulated = TASK_OBJECT[task_kind] in ("door", "drawer")
    held_steps = 0
    for seed in range(30):
        rng = random.Random(f"mock-fuzz:{task_kind}:{seed}")
        logged = [rec.action for rec in run_episode(task_kind, builtin_plan(task_kind), cfg, seed=seed).trajectory]
        segments = [(action, 1) for action in logged[: rng.randrange(len(logged))]]
        env = MockEnv(task_kind, cfg)
        env.reset(seed)
        done = False
        while not done:
            if segments:
                action, repeats = segments.pop(0)
            else:
                action = list(random_action(rng, env.index_map.dim))
                for slot in env.index_map.finger_slots:
                    action[slot] = rng.uniform(-0.25, 1.0)
                repeats = rng.randint(1, 20)
            for _ in range(repeats):
                before = env.state.articulation
                _, done = env.step(action)
                state = env.state
                where = f"seed {seed}, step {state.step}"
                assert HEIGHT_LIMITS[0] <= state.platform[2] <= HEIGHT_LIMITS[1], where
                assert -math.pi < state.platform[3] <= math.pi and -math.pi < state.object_yaw <= math.pi, where
                if articulated:
                    assert 0.0 <= before <= state.articulation <= state.layout.art_range, where
                assert state.object_z >= 0.0, where
                assert (state.carry is not None) == (carries and all(state.grasping)), where
                held_steps += all(state.grasping)
                if done:
                    break
    assert held_steps > 0  # grasps happen, so the held-side checks run


def test_restoring_a_state_copy_replays_the_episode_exactly():
    # all mutable episode state, noise stream included, lives in env.state
    logged = [rec.action for rec in run_episode("move_bucket", builtin_plan("move_bucket"), seed=21).trajectory]
    env = MockEnv("move_bucket")
    obs, _ = env.reset(21)
    k = 0
    while obs.robot.grasping != (True, True):  # load both arms: every step then draws noise
        obs, _ = env.step(logged[k])
        k += 1
    actions = logged[k : k + 20]
    saved = copy.deepcopy(env.state)
    first = [env.step(act) for act in actions]
    env.state = saved
    second = [env.step(act) for act in actions]
    assert len(first) == 20 and second == first
    assert all(o.robot.grasping == (True, True) for o, _ in first)


def test_episode_caps_at_max_steps():
    env = MockEnv("push_chair", EnvConfig(max_steps=50))
    env.reset(3)
    zero = (0.0,) * env.index_map.dim
    done = False
    for k in range(50):
        obs, done = env.step(zero)
    assert done and obs.step_index == 50
    with pytest.raises(RuntimeError):
        env.step(zero)
    # both ends of the accepted range [1, 10**6] build; at 1 an episode takes exactly one step
    assert EnvConfig(max_steps=10**6).max_steps == 10**6
    for task_kind in ("push_chair", "open_cabinet_door"):
        result = run_episode(task_kind, builtin_plan(task_kind), EnvConfig(max_steps=1), seed=0)
        assert result.steps == 1 and len(result.trajectory) == 1


# ----------------------------------------------------------------- success


@pytest.mark.parametrize("task_kind", TASK_KINDS)
def test_fresh_reset_is_never_a_success(task_kind):
    for seed in range(50):
        env = MockEnv(task_kind)
        assert not env.success()  # before reset too
        env.reset(seed)
        assert not env.success()


def test_drawer_success_at_target_extension():
    env = MockEnv("open_cabinet_drawer")
    env.reset(1)
    env.state.articulation = env.state.layout.art_target
    assert env.success()
    env.state.articulation = 0.89 * env.state.layout.art_target
    assert not env.success()


def test_bucket_success_requires_release():
    env = MockEnv("move_bucket")
    env.reset(1)
    state = env.state
    state.object_xy = state.layout.target
    state.object_z = PLATFORM_TOP_HEIGHT
    state.grasping = [True, True]
    assert not env.success()
    state.grasping = [False, False]
    assert env.success()


def test_chair_success_is_proximity_only():
    env = MockEnv("push_chair")
    env.reset(1)
    env.state.object_xy = (env.state.layout.target[0] + 0.14, env.state.layout.target[1])
    assert env.success()
    env.state.object_xy = (env.state.layout.target[0] + 0.2, env.state.layout.target[1])
    assert not env.success()


# ------------------------------------------------------------------ config


def test_env_config_mapping_round_trip():
    cfg = EnvConfig(dt=0.1, max_steps=77)
    assert EnvConfig.from_mapping(cfg._asdict()) == cfg


@pytest.mark.parametrize("change", [{"dt": -1.0}, {"max_steps": 0}], ids=["dt", "max_steps"])
def test_env_config_replace_is_checked(change):
    with pytest.raises(ValueError, match=next(iter(change))):
        EnvConfig()._replace(**change)


def test_env_config_make_is_checked():
    values = list(EnvConfig())
    values[EnvConfig._fields.index("max_steps")] = 0
    with pytest.raises(ValueError, match="max_steps"):
        EnvConfig._make(values)


def test_env_config_survives_pickle_and_copy():
    cfg = EnvConfig(dt=0.1, max_steps=77)
    for twin in (pickle.loads(pickle.dumps(cfg)), copy.copy(cfg), copy.deepcopy(cfg)):
        assert twin == cfg and type(twin) is EnvConfig


def test_env_config_pickle_and_copy_rebuild_through_the_check():
    unchecked = tuple.__new__(EnvConfig, (-1.0, *EnvConfig()[1:]))  # made around the constructor
    blob = pickle.dumps(unchecked)
    for rebuild in (lambda: pickle.loads(blob), lambda: copy.copy(unchecked), lambda: copy.deepcopy(unchecked)):
        with pytest.raises(ValueError, match="dt"):
            rebuild()


@pytest.mark.parametrize(
    "data",
    [
        {"dt": "0.05"},
        {"dt": math.nan},
        {"disturbance_std": math.inf},
        {"grasp_radius": None},
        {"linear_velocity_scale": True},
        {"max_steps": 1.5},
        {"max_steps": True},
        {"rng_seed": "0"},
        # each field finite, but a per-step product MockEnv.step forms from them is not
        {"linear_velocity_scale": 1e308, "dt": 10},
        {"angular_velocity_scale": 1e308, "dt": 10},
        {"linear_velocity_scale": 10**308, "dt": 10},
        {"disturbance_std": 1e308},
        # each product finite, but an episode of such steps leaves the finite floats
        {"linear_velocity_scale": 1e307, "dt": 10},
        {"disturbance_std": 1e307},
        # just past the envelope
        {"dt": 100.0000001},
        {"max_steps": 10**6 + 1},
        # an int too long to print in decimal is named by its field, not by the digit limit
        {"max_steps": 10**5000},
        {"dt": 10**5000},
        {"rng_seed": 10**5000},
    ],
)
def test_env_config_rejects_wrong_typed_and_non_finite_fields(data):
    with pytest.raises(ValueError, match=next(iter(data))):
        EnvConfig.from_mapping(data)


@pytest.mark.parametrize("data", [5, None, [1]], ids=["number", "null", "array"])
def test_env_config_must_be_an_object(data):
    with pytest.raises(ValueError, match="JSON object"):
        EnvConfig.from_mapping(data)


def test_fuzzed_env_configs_parse_or_raise_value_error():
    rng = random.Random("config-fuzz")
    default = EnvConfig()._asdict()
    rejected = 0
    for _ in range(300):
        data = mutate_json(rng, default)
        try:
            EnvConfig.from_mapping(data)
        except ValueError:
            rejected += 1
    assert 0 < rejected < 300


def test_env_config_rejects_unknown_keys_and_bad_values():
    with pytest.raises(ValueError, match=r"^unknown environment config keys: \['gravity'\]$"):
        EnvConfig.from_mapping({"gravity": 9.8})
    with pytest.raises(ValueError):
        EnvConfig(dt=0.0)
    with pytest.raises(ValueError):
        EnvConfig(grasp_radius=-0.1)
    with pytest.raises(ValueError):
        MockEnv("paint_fence")
