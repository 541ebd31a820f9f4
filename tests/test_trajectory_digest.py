"""Trajectory bytes of the builtin plans, pinned at two configs.

At the default config, ``bench/golden.json`` holds, per task, the sha256 of
the trajectory logs of its canary seeds concatenated in seed order, their
success rate and mean steps. It holds no figure away from the default, where
the held-arm disturbance is small, so ``NOISY_DIGESTS`` pins the same sha256
at five times that disturbance over seeds 0-3: a change to how the noise is
drawn or applied shows there. Any change to a trajectory byte fails here, not
only in the benchmark.
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
NOISY_DIGESTS = {
    "open_cabinet_door": "7b48c97b67da1e95c84c17d17b96edbe46780ea3399e7c441cc9f51c3ebd6aea",
    "open_cabinet_drawer": "6025af9e4b3577ae61884065ca35e3bf843a8c4a223e668346be5cc56f85ec19",
    "move_bucket": "c81bae3e7d23a387583ebe188f75f6a9b6324542ebd7837d1a3999116c8b3672",
    "push_chair": "e3fe2baae5c0dd3d7701b6d384c39ce924f6ac17c3a7616cd82452cb1561e1ab",
}


def figures(task, config, seeds):
    """The sha256 of the seeds' logs concatenated in seed order, their success rate and mean steps."""
    digest = hashlib.sha256()
    steps = successes = 0
    for seed in seeds:
        result = run_episode(task, builtin_plan(task), config, seed)
        digest.update("".join(line + "\n" for line in trajectory_lines(result, config, "builtin")).encode())
        steps += result.steps
        successes += result.success
    return {"sha256": digest.hexdigest(), "success_rate": successes / len(seeds), "mean_steps": steps / len(seeds)}


@pytest.mark.parametrize("task", TASK_KINDS)
def test_builtin_trajectories_match_golden_digest(task):
    assert figures(task, EnvConfig(), GOLDEN["seeds"]) == GOLDEN["tasks"][task]


@pytest.mark.parametrize("task", TASK_KINDS)
def test_builtin_trajectories_match_noisy_digest(task):
    assert figures(task, EnvConfig(disturbance_std=0.05), range(4))["sha256"] == NOISY_DIGESTS[task]
