#!/usr/bin/env python3
"""Tests of tools/check_bench_regression.py on small synthetic
google-benchmark files: for every declared gate, a file that holds
passes and the same file with the gate's numerator slowed past its bound
fails with exit 1; files that cannot be gated exit 2."""

import importlib.util
import json
import os
import subprocess
import sys
import tempfile
import unittest

SCRIPT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "..",
                      "tools", "check_bench_regression.py")
_spec = importlib.util.spec_from_file_location("checker", SCRIPT)
checker = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(checker)


def good_values(gates):
    """{(row, field): value} under which every gate holds with a wide
    margin: each denominator is 1000x above every value it divides."""
    level = {}
    for num, den, _ in gates:
        level.setdefault(num, 0)
        level.setdefault(den, 0)
    for _ in range(len(level)):
        for num, den, _ in gates:
            level[den] = max(level[den], level[num] + 1)
    return {key: 1000.0 ** depth for key, depth in level.items()}


def results(bench, values):
    """A google-benchmark JSON document with one row per name."""
    rows = {}
    for (name, field), value in values.items():
        row = rows.setdefault(name, {"name": name, "run_type": "iteration",
                                     "iterations": 1, "real_time": 1.0,
                                     "time_unit": "ns"})
        row[field] = value
    return {"context": {"executable": f"./build/bench/{bench}"},
            "benchmarks": list(rows.values())}


class CheckBenchRegressionTest(unittest.TestCase):

    def setUp(self):
        self.dir = tempfile.TemporaryDirectory()
        self.addCleanup(self.dir.cleanup)

    def run_checker(self, doc=None, text=None, name="results.json"):
        path = os.path.join(self.dir.name, name)
        if doc is not None:
            text = json.dumps(doc)
        if text is not None:
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
        return subprocess.run([sys.executable, SCRIPT, path],
                              capture_output=True, text=True)

    def test_every_gate_holds_then_fails_when_slowed(self):
        for bench, gates in checker.GATES.items():
            values = good_values(gates)
            done = self.run_checker(results(bench, values))
            self.assertEqual(done.returncode, 0, f"{bench}\n{done.stderr}")
            for num, den, bound in gates:
                with self.subTest(bench=bench, gate=f"{num} / {den}"):
                    slowed = dict(values)
                    slowed[num] = values[den] * bound * 1.1
                    done = self.run_checker(results(bench, slowed))
                    self.assertEqual(done.returncode, 1, done.stderr)
                    self.assertIn(f"{num[0]}", done.stderr)

    def test_repetitions_count_with_their_median(self):
        num, den, bound = checker.GATES["bench_recorder"][0]
        doc = results("bench_recorder", {num: 1.0, den: 1.0})
        slow = dict(doc["benchmarks"][0], real_time=100.0 * bound)
        aggregate = dict(slow, run_type="aggregate", name=num[0] + "_mean")
        doc["benchmarks"] += [dict(doc["benchmarks"][0]), slow, aggregate]
        self.assertEqual(self.run_checker(doc).returncode, 0)

    def test_rows_repeated_in_the_binary_gate_under_their_plain_name(self):
        num, den, bound = checker.GATES["bench_recorder"][0]
        doc = results("bench_recorder", {num: 1.0, den: 1.0})
        rows = []
        for row in doc["benchmarks"]:
            rows += [dict(row, name=row["name"] + "/repeats:3")
                     for _ in range(3)]
        rows[0]["real_time"] = 100.0 * bound  # one slow run of three
        doc["benchmarks"] = rows
        self.assertEqual(self.run_checker(doc).returncode, 0)
        rows[1]["real_time"] = 100.0 * bound  # now the median is slow
        self.assertEqual(self.run_checker(doc).returncode, 1)

    def test_files_that_cannot_be_gated_exit_2(self):
        bench = "bench_shard"
        values = good_values(checker.GATES[bench])
        absent = dict(values)
        del absent[next(iter(absent))]
        errored = results(bench, values)
        errored["benchmarks"][0].update(error_occurred=True,
                                        error_message="replay lost jobs")
        cases = {
            "missing file": self.run_checker(name="absent.json"),
            "malformed JSON": self.run_checker(text='{"benchmarks": ['),
            "not benchmark JSON": self.run_checker(text="[1, 2]"),
            "row not an object": self.run_checker(
                text='{"context": [], "benchmarks": [1]}'),
            "absent gated row": self.run_checker(results(bench, absent)),
            "row with an error": self.run_checker(errored),
            "binary without gates": self.run_checker(
                results("bench_unknown", values)),
        }
        for case, done in cases.items():
            with self.subTest(case=case):
                self.assertEqual(done.returncode, 2, done.stdout)
                self.assertTrue(done.stderr.startswith("error: "),
                                done.stderr)


if __name__ == "__main__":
    unittest.main()
