"""Tests of the benchmark runner and of BENCHMARK.json.

Run with `python3 perfbench/run.py --self-test` (builds first), or
`python3 -m unittest test_run` from perfbench/ once the build exists.
"""

import json
import re
import subprocess
import unittest

import run

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


class BenchmarkJsonTest(unittest.TestCase):
    def setUp(self):
        self.spec = run.load_spec()

    def test_keys_and_limits(self):
        s = self.spec
        self.assertEqual(set(s), {"command", "paths", "run_seconds",
                                  "workloads", "end_to_end", "per_layer"})
        self.assertEqual(s["command"], ["python3", "perfbench/run.py"])
        self.assertEqual(s["paths"], ["perfbench"])
        self.assertTrue(1 <= s["run_seconds"] <= 60)
        self.assertTrue(2 <= len(s["workloads"]) <= 8)
        names = []
        for w in s["workloads"]:
            self.assertEqual(set(w), {"name", "why"})
            self.assertLessEqual(len(w["why"]), 200)
            names.append(w["name"])
        for m in s["end_to_end"]:
            self.assertEqual(set(m), {"name", "unit", "better", "bound"})
            self.assertTrue(0 < m["bound"] <= 0.25, m)
            names.append(m["name"])
        for m in s["per_layer"]:
            self.assertEqual(set(m), {"name", "unit", "better"})
            names.append(m["name"])
        for m in s["end_to_end"] + s["per_layer"]:
            self.assertRegex(m["unit"], UNIT)
            self.assertIn(m["better"], ("lower", "higher"))
        for n in names:
            self.assertRegex(n, NAME)
        self.assertEqual(len(names), len(set(names)))

    def test_setup_time_has_the_largest_bound(self):
        e2e = {m["name"]: m for m in self.spec["end_to_end"]}
        setup = e2e["setup_s"]
        self.assertEqual((setup["unit"], setup["better"]), ("s", "lower"))
        self.assertEqual(setup["bound"], max(m["bound"] for m in e2e.values()))


class PrintedMetricsTest(unittest.TestCase):
    """The names and units the benchmark binary prints match BENCHMARK.json."""

    def test_binary_lists_the_json_metrics_and_workloads(self):
        run.build(["owan_perfbench"])
        out = subprocess.run([str(run.BINARY), "--list-metrics"],
                             capture_output=True, text=True, check=True).stdout
        listed = {"workload": set(), "end_to_end": set(), "per_layer": set()}
        for line in out.splitlines():
            kind, *rest = line.split(" ")
            listed[kind].add(tuple(rest))
        spec = run.load_spec()
        self.assertEqual(listed["workload"],
                         {(w["name"],) for w in spec["workloads"]})
        for kind in ("end_to_end", "per_layer"):
            self.assertEqual(listed[kind],
                             {(m["name"], m["unit"]) for m in spec[kind]})


class ResultLineTest(unittest.TestCase):
    OUTPUT = "\n".join([
        "metric setup_s s 0.0012 31",
        "metric run_s s 12.5 1",
        "note 1 timed runs",
        "outcome 227 2 1",
    ])

    def test_result_line_has_exactly_the_contract_keys(self):
        metrics, outcome, notes = run.parse_output(self.OUTPUT)
        line = json.loads(run.result_line(metrics, outcome, True))
        self.assertEqual(set(line), {"correct", "attempted", "failed",
                                     "metrics"})
        self.assertEqual((line["attempted"], line["failed"]), (227, 2))
        self.assertEqual(line["metrics"]["run_s"], {"value": 12.5, "unit": "s"})
        self.assertEqual(notes, ["1 timed runs"])

    def test_missing_outcome_is_an_error(self):
        with self.assertRaises(run.BenchError):
            run.parse_output("metric run_s s 1.0 1")

    def test_check_metrics_flags_mismatches(self):
        expected = [{"name": "setup_s", "unit": "s"},
                    {"name": "run_s", "unit": "ms"}]
        metrics, _, _ = run.parse_output(self.OUTPUT)
        problems = run.check_metrics(metrics, expected, end_to_end=True)
        self.assertEqual(problems, ["run_s: unit s != ms"])
        metrics["setup_s"]["value"] = 0.0
        problems = run.check_metrics(metrics, expected[:1], end_to_end=True)
        self.assertTrue(any("differ from BENCHMARK.json" in p
                            for p in problems))
        self.assertTrue(any("not positive" in p for p in problems))


if __name__ == "__main__":
    unittest.main()
