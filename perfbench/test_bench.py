#!/usr/bin/env python3
"""Self-tests of the benchmark (not of the engine):

    python3 perfbench/test_bench.py

- a short smoke run of each workload prints every metric BENCHMARK.json
  names, with its unit, traced and untraced;
- a planted wrong answer is counted as a failure and fails the run;
- the same seed gives the same request stream and the same answers;
- a PASCALR_* variable in the environment, or a directory holding only
  the benchmark, makes the command exit non-zero without a result.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    BENCH = json.load(f)
WORKLOADS = [w["name"] for w in BENCH["workloads"]]


def run(workload, seed=7, trace=0, extra=(), env=None, cwd=ROOT):
    proc = subprocess.run(
        ["python3", "perfbench/run.py", "--workload", workload, "--seed",
         str(seed), "--seconds", "2", "--trace", str(trace), "--smoke",
         *extra],
        cwd=cwd, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    info = dict(l[2:].split(": ", 1) for l in lines if l.startswith("# "))
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    return proc.returncode, info, result


class BenchmarkTest(unittest.TestCase):
    def test_smoke_emits_every_metric(self):
        for workload in WORKLOADS:
            for trace, key in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=workload, trace=trace):
                    code, info, res = run(workload, trace=trace)
                    self.assertEqual(code, 0)
                    self.assertEqual(sorted(res),
                                     ["attempted", "correct", "failed", "metrics"])
                    self.assertTrue(res["correct"])
                    self.assertEqual(res["failed"], 0)
                    self.assertGreaterEqual(res["attempted"], 1)
                    want = {m["name"]: m["unit"] for m in BENCH[key]}
                    got = {n: m["unit"] for n, m in res["metrics"].items()}
                    self.assertEqual(got, want)
                    self.assertEqual(info["error_rate"], "0")
                    self.assertIn("exec_opts.jobs", info)
                    if trace == 0:
                        # every scaled figure is printed as measured too
                        self.assertIn("probe_ms", info)
                        for m in BENCH["end_to_end"]:
                            if m["unit"] in ("ms", "1/s"):
                                self.assertIn("raw." + m["name"], info)

    def test_planted_wrong_answer_fails(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                code, _, res = run(workload, extra=["--plant-wrong"])
                self.assertNotEqual(code, 0)
                self.assertFalse(res["correct"])
                self.assertGreaterEqual(res["failed"], 1)

    def test_same_seed_same_stream_and_answers(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                _, a, _ = run(workload, seed=11)
                _, b, _ = run(workload, seed=11)
                _, c, _ = run(workload, seed=12)
                self.assertEqual(a["stream_digest"], b["stream_digest"])
                self.assertEqual(a["answer_digest"], b["answer_digest"])
                self.assertNotEqual(a["stream_digest"], c["stream_digest"])

    def test_refuses_engine_knobs(self):
        env = dict(os.environ, PASCALR_JOBS="1")
        code, _, res = run("quantified", env=env)
        self.assertNotEqual(code, 0)
        self.assertIsNone(res)

    def test_fails_without_the_engine_sources(self):
        scratch = os.path.join(ROOT, ".perfbench")
        os.makedirs(scratch, exist_ok=True)
        with tempfile.TemporaryDirectory(dir=scratch) as d:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), d)
            for p in BENCH["paths"]:
                shutil.copytree(os.path.join(ROOT, p), os.path.join(d, p))
            code, _, res = run(WORKLOADS[0], cwd=d)
            self.assertNotEqual(code, 0)
            self.assertIsNone(res)


if __name__ == "__main__":
    unittest.main(verbosity=2)
