"""Trajectory bytes of the builtin plans at a noisy config.

``bench/golden.json`` pins only the default config, where the held-arm
disturbance is small. These digests pin the bytes at five times that
disturbance, so a change to how the noise is drawn or applied shows here.
Each is the sha256 of the trajectory logs of seeds 0-3 concatenated in seed
order.
"""

import hashlib

import pytest

from heurobot.mockenv import EnvConfig
from heurobot.orchestrator import run_episode
from heurobot.plans import builtin_plan
from heurobot.trajlog import trajectory_lines

NOISY = EnvConfig(disturbance_std=0.05)
SEEDS = range(4)
DIGESTS = {
    "open_cabinet_door": "7b48c97b67da1e95c84c17d17b96edbe46780ea3399e7c441cc9f51c3ebd6aea",
    "open_cabinet_drawer": "6025af9e4b3577ae61884065ca35e3bf843a8c4a223e668346be5cc56f85ec19",
    "move_bucket": "c81bae3e7d23a387583ebe188f75f6a9b6324542ebd7837d1a3999116c8b3672",
    "push_chair": "e3fe2baae5c0dd3d7701b6d384c39ce924f6ac17c3a7616cd82452cb1561e1ab",
}


@pytest.mark.parametrize("task", DIGESTS)
def test_builtin_trajectories_match_noisy_digest(task):
    digest = hashlib.sha256()
    for seed in SEEDS:
        result = run_episode(task, builtin_plan(task), NOISY, seed)
        digest.update("".join(line + "\n" for line in trajectory_lines(result, NOISY, "builtin")).encode())
    assert digest.hexdigest() == DIGESTS[task]
