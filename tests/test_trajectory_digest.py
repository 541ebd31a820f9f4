"""Trajectory bytes of the builtin plans, pinned to the benchmark's golden figures.

``bench/golden.json`` holds, per task, the sha256 of the trajectory logs of
its canary seeds concatenated in seed order, their success rate and mean
steps. Any change to a trajectory byte fails here, not only in the benchmark.
"""

import hashlib
import json
from pathlib import Path

import pytest

from heurobot.core import TASK_KINDS
from heurobot.mockenv import EnvConfig
from heurobot.orchestrator import run_episode
from heurobot.plans import builtin_plan
from heurobot.trajlog import trajectory_lines

GOLDEN = json.loads((Path(__file__).resolve().parents[1] / "bench" / "golden.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("task", TASK_KINDS)
def test_builtin_trajectories_match_golden_digest(task):
    config = EnvConfig()
    seeds = GOLDEN["seeds"]
    digest = hashlib.sha256()
    steps = successes = 0
    for seed in seeds:
        result = run_episode(task, builtin_plan(task), config, seed)
        digest.update("".join(line + "\n" for line in trajectory_lines(result, config, "builtin")).encode())
        steps += result.steps
        successes += result.success
    want = GOLDEN["tasks"][task]
    assert digest.hexdigest() == want["sha256"]
    assert successes / len(seeds) == want["success_rate"]
    assert steps / len(seeds) == want["mean_steps"]
