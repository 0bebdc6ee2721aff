#!/usr/bin/env python3
"""Tests of the end-to-end benchmark, at tiny sizes.

Run from the repository root:

    python3 perfbench/test_perfbench.py

Each workload runs once untraced and once traced. The tests check the
result line against BENCHMARK.json (every metric present, with its unit),
that the output oracle passed, which layers do work on which workload,
that a seed pins the inputs, and that the benchmark refuses to run without
the repository's sources.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SPEC = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run(workload, seed=3, trace=0, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"),
         "--workload", workload, "--seed", str(seed), "--seconds", "1",
         "--trace", str(trace), "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=900)
    return proc


class Result:
    def __init__(self, proc):
        self.proc = proc
        self.lines = proc.stdout.strip().splitlines()
        self.json = json.loads(self.lines[-1]) if self.lines else None

    def metric(self, name):
        return self.json["metrics"][name]["value"]

    def line(self, prefix):
        return next(l for l in self.lines if l.startswith(prefix))


_cache = {}


def result(workload, trace, seed=3):
    key = (workload, trace, seed)
    if key not in _cache:
        _cache[key] = Result(run(workload, seed, trace))
    return _cache[key]


class ResultLineTest(unittest.TestCase):
    def check(self, trace, spec):
        for workload in WORKLOADS:
            with self.subTest(workload=workload, trace=trace):
                r = result(workload, trace)
                self.assertEqual(r.proc.returncode, 0, r.proc.stderr)
                self.assertEqual(set(r.json),
                                 {"correct", "attempted", "failed", "metrics"})
                self.assertTrue(r.json["correct"])
                self.assertGreaterEqual(r.json["attempted"], 1)
                self.assertEqual(r.json["failed"], 0)
                got = {k: v["unit"] for k, v in r.json["metrics"].items()}
                self.assertEqual(got, {m["name"]: m["unit"] for m in spec})

    def test_untraced_run_prints_every_end_to_end_metric(self):
        self.check(0, SPEC["end_to_end"])
        for workload in WORKLOADS:
            r = result(workload, 0)
            for m in SPEC["end_to_end"]:
                self.assertGreater(r.metric(m["name"]), 0, m["name"])

    def test_traced_run_prints_every_per_layer_metric(self):
        self.check(1, SPEC["per_layer"])


class LayerSplitTest(unittest.TestCase):
    def test_kg_query_runs_no_chain_layer(self):
        r = result("kg_query", 1)
        for name, v in r.json["metrics"].items():
            if name.startswith(("mlog.", "stream.", "prediction.", "scenario.",
                                "insitu.", "synopses.", "linkdiscovery.")):
                self.assertEqual(v["value"], 0, name)
        self.assertGreater(r.metric("store.query.adjacency.self_ms"), 0)
        self.assertGreater(r.metric("store.query.pushdown.self_ms"), 0)
        self.assertGreater(r.metric("store.compile_ms"), 0)

    def test_chains_run_no_store_query(self):
        for workload in ("surveillance_steady", "replay_saturate"):
            r = result(workload, 1)
            for name, v in r.json["metrics"].items():
                if name.startswith("store.query."):
                    self.assertEqual(v["value"], 0, (workload, name))
            for name in ("insitu.calls", "prediction.cpa.calls",
                         "synopses.calls", "linkdiscovery.calls", "rdf.calls",
                         "cep.calls", "store.add.triples"):
                self.assertGreater(r.metric(name), 0, (workload, name))

    def test_only_surveillance_goes_through_mlog(self):
        self.assertGreater(
            result("surveillance_steady", 1).metric("mlog.bytes_appended"), 0)
        self.assertEqual(
            result("replay_saturate", 1).metric("mlog.bytes_appended"), 0)


class KgQueryTest(unittest.TestCase):
    def test_runs_whole_rounds_of_the_query_mix(self):
        # 16 distinct stars; a run never stops in the middle of a round.
        self.assertEqual(result("kg_query", 0).json["attempted"] % 16, 0)


class InputsTest(unittest.TestCase):
    def test_seed_pins_the_inputs(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                a = result(workload, 0).line("input digest=")
                b = result(workload, 1).line("input digest=")
                c = result(workload, 0, seed=4).line("input digest=")
                self.assertEqual(a.split()[1], b.split()[1])
                self.assertNotEqual(a.split()[1], c.split()[1])


class WithoutSourcesTest(unittest.TestCase):
    def test_fails_without_the_repository(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp)
            shutil.copytree(HERE, os.path.join(tmp, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = run(WORKLOADS[0], cwd=tmp)
            self.assertNotEqual(proc.returncode, 0)
            self.assertFalse(proc.stdout.strip())


if __name__ == "__main__":
    unittest.main()
