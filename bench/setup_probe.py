"""Set-up step of the benchmark, shared by the benchmark and its set-up probe.

Set-up is what a ``heurobot`` user pays before the first episode runs:
importing the package, loading the plans and parsing the environment config.
``run.py`` measures it by starting this file in a fresh interpreter several
times; run as a script it performs the set-up for the tasks named on the
command line and prints the CPU seconds the process has used by the time
set-up is done (``time.process_time()``, interpreter start-up included). CPU
time leaves out the moments the host takes the CPU away, which on a shared
host would otherwise dominate a ~0.1 s measurement.

    python3 bench/setup_probe.py move_bucket push_chair
"""

from __future__ import annotations

import sys
import time
from pathlib import Path
from types import SimpleNamespace

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def import_heurobot() -> SimpleNamespace:
    """Import heurobot from this checkout's ``src``; exit 2 when it is absent."""
    package = SRC / "heurobot"
    if not (package / "__init__.py").is_file():
        print(f"error: no heurobot sources at {package}", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(SRC))
    import heurobot
    from heurobot import cli, core, mockenv, orchestrator, plans, subtasks, trajlog

    if Path(heurobot.__file__).resolve().parent != package:
        print(f"error: imported heurobot from {heurobot.__file__}, not from {package}", file=sys.stderr)
        raise SystemExit(2)
    return SimpleNamespace(
        cli=cli,
        core=core,
        mockenv=mockenv,
        orchestrator=orchestrator,
        plans=plans,
        subtasks=subtasks,
        trajlog=trajlog,
    )


def load_inputs(hb: SimpleNamespace, tasks) -> tuple[dict, object]:
    """Builtin plan per task and the default environment config, parsed."""
    plans = {task: hb.plans.builtin_plan(task) for task in tasks}
    return plans, hb.mockenv.EnvConfig.from_mapping({})


if __name__ == "__main__":
    load_inputs(import_heurobot(), sys.argv[1:])
    print(repr(time.process_time()))
