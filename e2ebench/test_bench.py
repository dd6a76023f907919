#!/usr/bin/env python3
"""The benchmark's own tests: determinism and a held-out seed.

    python3 e2ebench/test_bench.py        (from the repository root; ~1 min)

Same seed => every count-type per-layer metric and every sim_* latency repeats
exactly.  A seed other than the default runs every workload cleanly.
"""
import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("openloop_zipf", "closedloop_paper", "crash_writes")
# Per-layer units that are counts (deterministic); ns/req timings and the
# tracing overhead are wall-clock and may differ run to run.
WALL_CLOCK = {"trace.overhead_frac"}
WALL_CLOCK_UNITS = {"ns/req"}


def run(workload, seed, trace):
    p = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "0.1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = p.stdout.strip().splitlines()
    sim = {ln.split()[0]: ln.split()[1] for ln in lines
           if ln.startswith("sim_")}
    return p, sim, json.loads(lines[-1]) if lines else None


class Determinism(unittest.TestCase):
    def test_counts_and_sim_latencies_repeat(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                (pa, sim_a, a), (pb, sim_b, b) = run(w, 1, 1), run(w, 1, 1)
                self.assertEqual(pa.returncode, 0, pa.stderr)
                self.assertEqual(pb.returncode, 0, pb.stderr)
                self.assertTrue(a["correct"] and b["correct"])
                self.assertEqual(len(sim_a), 4)
                self.assertEqual(sim_a, sim_b)
                counts = [k for k, m in a["metrics"].items()
                          if k not in WALL_CLOCK
                          and m["unit"] not in WALL_CLOCK_UNITS]
                self.assertGreater(len(counts), 20)
                for k in counts:
                    self.assertEqual(a["metrics"][k], b["metrics"][k], k)

    def test_held_out_seed_runs_clean(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                p, _, r = run(w, 9001, 0)
                self.assertEqual(p.returncode, 0, p.stderr)
                self.assertTrue(r["correct"])
                self.assertGreaterEqual(r["attempted"], 1)
                self.assertEqual(r["failed"], 0)


if __name__ == "__main__":
    unittest.main()
