"""Smoke test of the benchmark: every workload at a tiny size, and the output check.

    python3 -m pytest -q bench/test_smoke.py      # or: python3 bench/test_smoke.py
"""

from __future__ import annotations

import dataclasses
import json
import random
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run as bench  # noqa: E402
import setup_probe  # noqa: E402
from tracer import PER_LAYER  # noqa: E402


def tiny(name: str) -> "bench.Workload":
    return dataclasses.replace(bench.WORKLOADS[name], seeds_per_task=2)


class BenchmarkSmokeTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls) -> None:
        cls.hb = setup_probe.import_heurobot()
        bench.OUT.mkdir(exist_ok=True)
        cls.spec = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))

    def run_bench(self, workload: str, trace: int) -> dict:
        done = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3",
             "--seconds", "0.2", "--trace", str(trace)],
            capture_output=True, text=True, timeout=170,
        )
        self.assertEqual(done.returncode, 0, done.stdout + done.stderr)
        return json.loads(done.stdout.strip().splitlines()[-1])

    def test_names_match_benchmark_json(self) -> None:
        self.assertEqual(sorted(w["name"] for w in self.spec["workloads"]), sorted(bench.WORKLOADS))
        self.assertEqual(
            [(m["name"], m["unit"]) for m in self.spec["end_to_end"]], list(bench.END_TO_END)
        )
        self.assertEqual([(m["name"], m["unit"]) for m in self.spec["per_layer"]], list(PER_LAYER))

    def test_every_workload_prints_every_metric_with_a_unit(self) -> None:
        for workload in bench.WORKLOADS:
            for trace, names in ((0, bench.END_TO_END), (1, PER_LAYER)):
                with self.subTest(workload=workload, trace=trace):
                    result = self.run_bench(workload, trace)
                    self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 1)
                    self.assertEqual(
                        {k: v["unit"] for k, v in result["metrics"].items()}, dict(names)
                    )
                    for value in result["metrics"].values():
                        self.assertIsInstance(value["value"], (int, float))

    def window_run(self, workload: str, tmp: Path) -> tuple["bench.Run", object]:
        w = tiny(workload)
        plans, config = setup_probe.load_inputs(self.hb, w.tasks)
        run = bench.Run(w, self.hb, plans, config)
        return run, bench.window(run, random.Random(5), tmp)

    def test_flipped_log_byte_fails_the_cli_check(self) -> None:
        cli = self.hb.cli
        original = cli.write_trajectory
        flipped = []

        def write_then_flip(path, *args, **kwargs):
            original(path, *args, **kwargs)
            if not flipped:
                data = bytearray(Path(path).read_bytes())
                data[len(data) // 2] ^= 0x01
                Path(path).write_bytes(bytes(data))
                flipped.append(path)

        with tempfile.TemporaryDirectory(dir=bench.OUT) as tmp:
            run, measure = self.window_run("cli_single_arm", Path(tmp))
            cli.write_trajectory = write_then_flip
            try:
                measure(0.01)
            finally:
                cli.write_trajectory = original
        self.assertEqual(len(flipped), 1)
        self.assertEqual(run.failed, 1)
        self.assertIn("differ", run.problems[0])

    def test_flipped_log_byte_fails_the_replay_check(self) -> None:
        with tempfile.TemporaryDirectory(dir=bench.OUT) as tmp:
            run, measure = self.window_run("replay_logged", Path(tmp))
            self.assertEqual(run.failed, 0)
            log = sorted((Path(tmp) / "logs").glob("*.jsonl"))[0]
            data = bytearray(log.read_bytes())
            # a digit inside the last record's platform pose: the record still parses
            at = data.rindex(b'"platform":[') + len(b'"platform":[') + 3
            data[at] = ord("1") if data[at] != ord("1") else ord("2")
            log.write_bytes(bytes(data))
            measure(0.01)
        self.assertGreaterEqual(run.failed, 1)
        self.assertIn("does not replay", run.problems[0])

    def test_golden_mismatch_fails(self) -> None:
        w = tiny("sim_dual_arm")
        plans, config = setup_probe.load_inputs(self.hb, w.tasks)
        run = bench.Run(w, self.hb, plans, config)
        golden = json.loads(bench.GOLDEN.read_text(encoding="utf-8"))
        with tempfile.TemporaryDirectory(dir=bench.OUT) as tmp:
            logs = bench.canary_logs(run, Path(tmp), golden["seeds"])
        bench.check_golden(run, logs, golden)
        self.assertEqual(run.failed, 0)
        key = ("move_bucket", golden["seeds"][0])
        logs[key] = logs[key].replace(b'"success":true', b'"success":false', 1)
        bench.check_golden(run, logs, golden)
        self.assertEqual(run.failed, len(golden["seeds"]))


if __name__ == "__main__":
    unittest.main()
