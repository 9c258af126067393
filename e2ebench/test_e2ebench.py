#!/usr/bin/env python3
"""Self-tests of the end-to-end benchmark.

    python3 e2ebench/test_e2ebench.py

Builds the benchmark the way run.py does, then checks that request
generation is a pure function of the seed and that the metric names
the benchmark prints are exactly those BENCHMARK.json declares. The
metric check runs the cheap warm workload for one second per mode;
cold and re-rank print the same metric lists (main.cc endToEnd and
traced.cc layerMetrics are shared by all three workloads).
"""

import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402  (the build helper lives next to this file)

WORKLOADS = ["cold", "rerank", "warm"]


def requests(workload, seed, count=12):
    return subprocess.run(
        [run.BINARY, "--workload", workload, "--seed", str(seed),
         "--print-requests", str(count)],
        check=True, capture_output=True, text=True).stdout


class RequestGeneration(unittest.TestCase):
    def test_same_seed_same_requests(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                first = requests(workload, 7)
                self.assertTrue(first.strip())
                self.assertEqual(first, requests(workload, 7))

    def test_different_seed_changes_requests(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                self.assertNotEqual(requests(workload, 7),
                                    requests(workload, 8))


class MetricNames(unittest.TestCase):
    def declared(self, key):
        with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
            return [(m["name"], m["unit"]) for m in json.load(f)[key]]

    def printed(self, trace):
        work = os.path.join(run.BUILD, "test-work-%d" % os.getpid())
        out = subprocess.run(
            [run.BINARY, "--workload", "warm", "--seed", "3", "--seconds",
             "1", "--trace", str(trace), "--work-dir", work],
            check=True, capture_output=True, text=True).stdout
        lines = out.strip().splitlines()
        result = json.loads(lines[-1])
        self.assertTrue(result["correct"])
        listed = [tuple(line.split()[1::2]) for line in lines
                  if line.startswith("metric ")]
        self.assertEqual(listed, [(name, m["unit"]) for name, m
                                  in result["metrics"].items()])
        return listed

    def test_end_to_end_names_match(self):
        self.assertEqual(self.printed(0), self.declared("end_to_end"))

    def test_per_layer_names_match(self):
        self.assertEqual(self.printed(1), self.declared("per_layer"))


if __name__ == "__main__":
    run.build()
    unittest.main()
