"""Tests of bench_e2e/run.py: strict result parsing and run combining.

    python3 -B -m unittest -v test_run      # from bench_e2e/
"""

import json
import unittest

import run

UNITS = {"setup_s": "s", "wall_s": "s", "ok_frac": "frac"}


def child(**overrides):
    doc = {
        "correct": True,
        "attempted": 5,
        "failed": 0,
        "digest": "0123456789abcdef",
        "metrics": {
            "setup_s": {"value": 1.0, "unit": "s"},
            "wall_s": {"value": 0.5, "unit": "s"},
            "ok_frac": {"value": 1, "unit": "frac"},
        },
    }
    doc.update(overrides)
    return doc


def line(doc):
    return json.dumps(doc)


class ParseChildResult(unittest.TestCase):
    def test_accepts_a_well_formed_line(self):
        doc = run.parse_child_result(line(child()), UNITS)
        self.assertEqual(doc["metrics"]["wall_s"]["value"], 0.5)

    def rejects(self, text, units=UNITS):
        with self.assertRaises(ValueError):
            run.parse_child_result(text, units)

    def test_rejects_missing_and_extra_top_level_keys(self):
        doc = child()
        del doc["failed"]
        self.rejects(line(doc))
        self.rejects(line(child(extra=1)))
        self.rejects("[1, 2]")

    def test_rejects_duplicate_keys_and_non_finite_numbers(self):
        self.rejects(line(child()).replace('"failed": 0',
                                           '"failed": 0, "failed": 0'))
        for bad in ("NaN", "Infinity", "-Infinity"):
            self.rejects(line(child()).replace("0.5", bad))

    def test_rejects_malformed_json(self):
        self.rejects(line(child())[:-1])
        self.rejects(line(child()) + " trailing")
        self.rejects(line(child())[:-1] + ", }")

    def test_rejects_wrong_types_and_ranges(self):
        self.rejects(line(child(correct="yes")))
        self.rejects(line(child(attempted=0)))
        self.rejects(line(child(attempted=2.0)))
        self.rejects(line(child(attempted=True)))
        self.rejects(line(child(failed=6)))
        self.rejects(line(child(failed=-1)))
        self.rejects(line(child(digest="abc")))

    def test_rejects_metric_set_unit_and_value_mismatches(self):
        doc = child()
        del doc["metrics"]["wall_s"]
        self.rejects(line(doc))
        doc = child()
        doc["metrics"]["cpu_s"] = {"value": 1.0, "unit": "s"}
        self.rejects(line(doc))
        doc = child()
        doc["metrics"]["wall_s"]["unit"] = "ms"
        self.rejects(line(doc))
        doc = child()
        doc["metrics"]["wall_s"]["value"] = True
        self.rejects(line(doc))
        doc = child()
        doc["metrics"]["wall_s"]["value"] = "0.5"
        self.rejects(line(doc))
        doc = child()
        doc["metrics"]["wall_s"]["extra"] = 1
        self.rejects(line(doc))


def probe(setup_s, digest="0123456789abcdef", failed=0):
    return {"correct": failed == 0, "attempted": 1, "failed": failed,
            "digest": digest,
            "metrics": {"setup_s": {"value": setup_s, "unit": "s"}}}


class Combine(unittest.TestCase):
    ORDER = ["setup_s", "wall_s", "ok_frac"]

    def test_setup_is_the_median_over_every_process(self):
        res = run.combine(child(), [probe(3.0), probe(2.0)], self.ORDER)
        self.assertEqual(res["metrics"]["setup_s"]["value"], 2.0)
        self.assertEqual(list(res["metrics"]), self.ORDER)
        self.assertEqual(set(res), {"correct", "attempted", "failed",
                                    "metrics"})
        self.assertTrue(res["correct"])
        self.assertEqual(res["attempted"], 7)
        self.assertEqual(res["metrics"]["ok_frac"]["value"], 1.0)

    def test_a_probe_with_another_digest_is_a_failed_operation(self):
        res = run.combine(child(), [probe(1.0, digest="f" * 16),
                                    probe(1.0)], self.ORDER)
        self.assertFalse(res["correct"])
        self.assertEqual(res["failed"], 1)
        self.assertAlmostEqual(res["metrics"]["ok_frac"]["value"], 6 / 7)

    def test_failures_anywhere_make_the_run_incorrect(self):
        res = run.combine(child(failed=2, correct=False), [probe(1.0)],
                          self.ORDER)
        self.assertFalse(res["correct"])
        self.assertEqual(res["failed"], 2)
        self.assertAlmostEqual(res["metrics"]["ok_frac"]["value"], 4 / 6)


class BenchmarkSpec(unittest.TestCase):
    def test_benchmark_json_names_this_harness(self):
        spec = run.load_benchmark()
        self.assertEqual(spec["command"], ["python3", "bench_e2e/run.py"])
        names = [m["name"] for m in spec["end_to_end"]]
        self.assertIn("setup_s", names)
        bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
        self.assertEqual(bounds["setup_s"], max(bounds.values()))


if __name__ == "__main__":
    unittest.main()
