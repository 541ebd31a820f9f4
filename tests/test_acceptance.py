"""Acceptance suite: every criterion prints one PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as the
criteria execute; without ``-s`` pytest shows them for failing tests only.
"""

import math
import random
import time

import pytest

from heurobot.cli import main
from heurobot.core import add, clamp, wrap_angle
from heurobot.mockenv import EnvConfig, MockEnv
from heurobot.orchestrator import replay_actions, run_episode
from heurobot.plans import builtin_plan
from heurobot.subtasks import ArmStabilizer, MoveSteps, MoveTo

from helpers import make_obs, robot_state

TASKS = ("open_cabinet_door", "open_cabinet_drawer", "move_bucket", "push_chair")
SEEDS = list(range(1, 101))


def _report(num: int, name: str, ok: bool, detail: str = ""):
    print(f"[acceptance] criterion {num} ({name}): {'PASS' if ok else 'FAIL'} {detail}".rstrip())
    assert ok, f"criterion {num} ({name}) failed: {detail}"


@pytest.fixture(scope="module")
def endtoend():
    """100 seeded episodes per builtin plan, timed; shared by criteria 4 and 7."""
    runs = {}
    t0 = time.monotonic()
    for task in TASKS:
        plan = builtin_plan(task)
        runs[task] = [run_episode(task, plan, None, seed) for seed in SEEDS]
    elapsed = time.monotonic() - t0
    return runs, elapsed


# ---------------------------------------------------------------- criterion 1


def test_criterion_1_move_steps_fidelity():
    rng = random.Random(10001)
    violations = 0
    for _ in range(500):
        dim = rng.randint(1, 22)
        action = tuple(rng.uniform(-1, 1) for _ in range(dim))
        n = rng.randint(1, 50)
        st = MoveSteps("move_steps", n, action)
        obs = make_obs()
        for k in range(n):
            out, done = st.step(obs, None, k)
            if out != action or done != (k == n - 1):
                violations += 1
    _report(1, "MoveSteps fidelity", violations == 0, f"{violations} violations over 500 cases")


# ---------------------------------------------------------------- criterion 2


def _oracle_steps(x0, xt, v, t, delta):
    x, steps = x0, 0
    while True:
        d = xt - x
        a = v if d > 0 else -v
        steps += 1
        done = abs(d) < t
        x += a * delta
        if done:
            return steps


def test_criterion_2_move_to_fidelity():
    rng = random.Random(10002)
    violations = 0
    for _ in range(1000):
        t = rng.uniform(0.005, 0.08)
        delta = rng.uniform(0.004, 0.04)
        v = rng.uniform(0.05, 1.0)
        while v * delta >= 2 * t:
            v = rng.uniform(0.05, 1.0)
        x0 = rng.uniform(-2.0, 2.0)
        xt = rng.uniform(-2.0, 2.0)
        dim = rng.randint(1, 8)
        idx = rng.randint(0, dim - 1)
        plus, minus = (tuple(s * v if i == idx else 0.0 for i in range(dim)) for s in (1, -1))
        mt = MoveTo("move_to", "platform_x", "platform_x", xt, v, t, plus, minus)
        x, steps = x0, 0
        ok = True
        done = False
        while not done:
            act, done = mt.step(make_obs(robot=robot_state(platform_x=x)), xt, steps)
            if abs(act[idx]) != v or any(val != 0.0 for i, val in enumerate(act) if i != idx):
                ok = False
                break
            x += act[idx] * delta
            steps += 1
            if steps > 100000:
                ok = False
                break
        bound = max(math.ceil((abs(xt - x0) - t) / (v * delta)), 0) + 1
        if not ok or steps > bound or steps != _oracle_steps(x0, xt, v, t, delta):
            violations += 1
    _report(2, "MoveTo fidelity", violations == 0, f"{violations} violations over 1000 cases")


# ---------------------------------------------------------------- criterion 3


def _held_load_deviation(seed: int, stabilize: bool) -> float:
    env = MockEnv("move_bucket", EnvConfig(max_steps=400))
    obs, _ = env.reset(seed)
    imap = env.index_map
    # face the bucket (closed loop), then close both grippers on the rim
    bearing = math.atan2(
        obs.object.object_pose[1] - obs.robot.platform_y,
        obs.object.object_pose[0] - obs.robot.platform_x,
    )
    target = obs.robot.platform_yaw + wrap_angle(bearing - obs.robot.platform_yaw)
    rotate = MoveTo(
        label="face_bucket",
        slot="platform_rotation",
        selector="platform_yaw",
        target=target,
        velocity=0.7,
        threshold=0.02,
        plus=imap.build({"platform_rotation": 0.7}),
        minus=imap.build({"platform_rotation": -0.7}),
    )
    done = False
    while not done:
        act, done = rotate.step(obs, target, 0)
        obs, _ = env.step(act)
    hold = imap.build({"left_fingers": 0.6, "right_fingers": 0.6})
    for _ in range(5):
        obs, _ = env.step(hold)
    assert all(obs.robot.grasping), f"seed {seed}: load never attached"
    reference, start = obs.robot.arm_joints, obs
    stab = ArmStabilizer("hold", imap) if stabilize else None
    zero = (0.0,) * imap.dim
    total, count = 0.0, 0
    previous = obs
    for _ in range(200):
        action = clamp(add(zero, stab.step(obs, start, previous))) if stab else zero
        previous = obs
        obs, _ = env.step(action)
        for arm, pose in enumerate(obs.robot.arm_joints):
            for j, q in enumerate(pose):
                total += abs(q - reference[arm][j])
                count += 1
    return total / count


def test_criterion_3_stabilizer_efficacy(endtoend):
    wins = 0
    for seed in range(1, 51):
        if _held_load_deviation(seed, True) < _held_load_deviation(seed, False):
            wins += 1
    additive_violations = 0
    runs, _ = endtoend
    for result in runs["move_bucket"]:
        for rec in result.trajectory:
            if rec.action != clamp(add(rec.main_action, rec.stabilizer_action)):
                additive_violations += 1
    ok = wins >= 48 and additive_violations == 0
    _report(3, "stabilizer efficacy", ok, f"{wins}/50 seeds improved, {additive_violations} additivity violations")


# ---------------------------------------------------------------- criterion 4


def test_criterion_4_end_to_end_success(endtoend):
    runs, elapsed = endtoend
    details = []
    ok = elapsed < 60.0
    for task in TASKS:
        results = runs[task]
        rate = sum(1 for r in results if r.success) / len(results)
        worst = max(r.steps for r in results)
        details.append(f"{task}={rate:.2f} (max {worst} steps)")
        ok = ok and rate >= 0.95 and worst <= 200
    _report(4, "end-to-end mock success", ok, ", ".join(details) + f", runtime {elapsed:.1f}s")


# ---------------------------------------------------------------- criterion 5


def test_criterion_5_plan_fidelity():
    expected = {
        "open_cabinet_door": (["move_steps", "move_to", "move_to", "move_to", "move_to", "move_steps", "move_steps"], 0),
        "open_cabinet_drawer": (["move_steps", "move_to", "move_to", "move_to", "move_to", "move_steps", "move_steps"], 0),
        "move_bucket": (["move_steps", "move_to", "move_steps", "move_steps", "move_to", "move_to", "move_to", "move_steps"], 1),
        "push_chair": (["move_steps", "move_to", "move_steps", "move_to", "move_to"], 1),
    }
    mismatches = []
    for task, (kinds, markers) in expected.items():
        plan = builtin_plan(task)
        got_kinds = [e.kind for e in plan.entries if e.kind != "stabilizer_on"]
        got_markers = sum(1 for e in plan.entries if e.kind == "stabilizer_on")
        if got_kinds != kinds or got_markers != markers:
            mismatches.append(task)
    _report(5, "plan fidelity", not mismatches, f"mismatches: {mismatches or 'none'}")


# ---------------------------------------------------------------- criterion 6


def test_criterion_6_determinism_and_replay(tmp_path):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    out_c = tmp_path / "c"
    for out, jobs in ((out_a, "1"), (out_b, "1"), (out_c, "8")):
        rc = main([
            "run", "--task", "open_cabinet_drawer", "--seeds", "1..10",
            "--out", str(out), "--jobs", jobs, "--quiet",
        ])
        assert rc == 0
    names = sorted(p.name for p in out_a.iterdir())
    identical_rerun = all((out_a / n).read_bytes() == (out_b / n).read_bytes() for n in names)
    identical_jobs = all((out_a / n).read_bytes() == (out_c / n).read_bytes() for n in names)

    # replay a logged action sequence and compare the logged observations
    from heurobot.trajlog import read_trajectory

    replay_ok = True
    for log in sorted(out_a.glob("*.jsonl"))[:3]:
        header, records = read_trajectory(log)
        config = EnvConfig.from_mapping(header["config"])
        actions = [tuple(rec["action"]) for rec in records]
        observations = replay_actions(header["task"], config, header["seed"], actions)
        for rec, obs in zip(records, observations):
            robot = obs.robot
            if (
                rec["platform"] != [robot.platform_x, robot.platform_y, robot.platform_height, robot.platform_yaw]
                or rec["joints"] != [list(q) for q in robot.arm_joints]
                or rec["object"] != list(obs.object.object_pose)
                or rec["handle"] != list(obs.object.handle_position)
                or rec["articulation"] != obs.object.articulation_value
            ):
                replay_ok = False
    ok = identical_rerun and identical_jobs and replay_ok
    _report(
        6,
        "determinism & replay",
        ok,
        f"rerun identical={identical_rerun}, jobs 1 vs 8 identical={identical_jobs}, replay exact={replay_ok}",
    )


# ---------------------------------------------------------------- criterion 7


def test_criterion_7_orchestrator_invariants(endtoend):
    runs, _ = endtoend
    violations = 0
    for task in TASKS:
        plan = builtin_plan(task)
        marker_index = next(
            (i for i, e in enumerate(plan.entries) if e.kind == "stabilizer_on"), None
        )
        for result in runs[task]:
            trace = tuple(rec.subtask_index for rec in result.trajectory)
            if any(a > b for a, b in zip(trace, trace[1:])):
                violations += 1  # trace must be monotone non-decreasing
            if len(trace) != result.steps:
                violations += 1  # exactly one sub-task stepped per env step
            if marker_index is not None:
                for rec in result.trajectory:
                    if rec.subtask_index < marker_index and any(v != 0.0 for v in rec.stabilizer_action):
                        violations += 1
            else:
                if any(any(v != 0.0 for v in rec.stabilizer_action) for rec in result.trajectory):
                    violations += 1
    _report(7, "orchestrator invariants", violations == 0, f"{violations} violations over 400 episodes")
