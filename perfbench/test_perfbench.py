"""Tests of the benchmark itself: every workload path on small types, and
each oracle firing on a corrupted output.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import signal
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import calibrate  # noqa: E402
import levispherical  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SMOKE = workloads.CONFIGS["smoke"]


def run_bench(*args, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )
    return proc.returncode, proc.stdout.strip().splitlines()


def smoke(name, seed=0):
    workload = SMOKE[name]
    inputs = workload.setup(seed)
    return workload, inputs, workload.run(inputs)


class SmokeRuns(unittest.TestCase):
    def test_workloads_match_benchmark_json(self):
        names = [w["name"] for w in SPEC["workloads"]]
        self.assertEqual(names, list(workloads.WORKLOADS))
        self.assertEqual(names, list(SMOKE))

    def test_every_workload_prints_every_metric(self):
        for name in workloads.WORKLOADS:
            for trace, seed, key in ((0, 0, "end_to_end"), (1, 11, "per_layer")):
                with self.subTest(workload=name, trace=trace):
                    code, lines = run_bench(
                        "--config", "smoke", "--workload", name, "--seed", str(seed),
                        "--seconds", "1", "--trace", str(trace),
                    )
                    self.assertEqual(code, 0)
                    result, details = json.loads(lines[-1]), json.loads(lines[-2])
                    self.assertEqual(
                        set(result), {"correct", "attempted", "failed", "metrics"}
                    )
                    self.assertTrue(result["correct"], details["problems"])
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 1)
                    self.assertEqual(
                        {n: m["unit"] for n, m in result["metrics"].items()},
                        {m["name"]: m["unit"] for m in SPEC[key]},
                    )
                    self.assertEqual(details["seed"], seed)

    def test_refuses_without_the_package_source(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(ROOT / "BENCHMARK.json", tmp)
            shutil.copytree(HERE, Path(tmp) / "perfbench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            code, lines = run_bench("--workload", "census-e6", cwd=tmp)
        self.assertNotEqual(code, 0)
        self.assertEqual(lines, [])


class Oracles(unittest.TestCase):
    def test_clean_outputs_pass(self):
        for name in workloads.WORKLOADS:
            for seed in (0, 4):
                with self.subTest(workload=name, seed=seed):
                    workload, inputs, out = smoke(name, seed)
                    verdict = workload.check(seed, inputs, out)
                    self.assertEqual((verdict.failed, verdict.problems), (0, []))

    def assertFires(self, verdict, fragment):
        self.assertGreater(verdict.failed, 0)
        self.assertTrue(any(fragment in p for p in verdict.problems), verdict.problems)

    def test_corrupted_census_record(self):
        workload, inputs, out = smoke("census-e6")
        code, text = out.result
        lines = text.splitlines()
        rec = json.loads(lines[7])
        rec["spherical"] = not rec["spherical"]
        lines[7] = json.dumps(rec)
        out.result = (code, "\n".join(lines) + "\n")
        self.assertFires(workload.check(0, inputs, out), "spherical in the stream")

    def test_reordered_census_passes_and_dropped_record_fails(self):
        workload, inputs, out = smoke("census-e6")
        code, text = out.result
        lines = text.splitlines()
        records, summary = lines[:-1], lines[-1]
        swapped = records[:]
        swapped[1], swapped[2] = swapped[2], swapped[1]  # both of length 1
        out.result = (code, "\n".join(swapped + [summary]) + "\n")
        self.assertEqual(workload.check(0, inputs, out).failed, 0)
        out.result = (code, "\n".join(records[1:] + [summary]) + "\n")
        self.assertFires(workload.check(0, inputs, out), "records in the stream")

    def test_wrong_census_count(self):
        workload, inputs, out = smoke("census-e6")
        code, text = out.result
        lines = text.splitlines()
        summary = json.loads(lines[-1])
        summary["spherical_count"] += 1
        lines[-1] = json.dumps(summary)
        out.result = (code, "\n".join(lines) + "\n")
        self.assertFires(workload.check(0, inputs, out), "summary spherical_count")

    def test_wrong_query_verdict(self):
        workload, inputs, out = smoke("queries-e8", seed=4)
        w, levi, res = out.result[3]
        out.result[3] = (w, levi, dataclasses.replace(res, spherical=not res.spherical))
        verdict = workload.check(4, inputs, out)
        self.assertEqual(verdict.failed, 1)

    def test_query_d_that_does_not_rebuild_w(self):
        workload, inputs, out = smoke("queries-e8", seed=4)
        k = next(i for i, (_w, _l, r) in enumerate(out.result) if r.d_word)
        w, levi, res = out.result[k]
        other = res.d_word[0] % inputs[0].rank + 1  # s_b s_a d != d
        d_word = (other,) + res.d_word[1:]
        out.result[k] = (w, levi, dataclasses.replace(res, d_word=d_word))
        self.assertEqual(workload.check(4, inputs, out).failed, 1)

    def test_wrong_crosscheck_census_count(self):
        workload, inputs, out = smoke("crosscheck-f4", seed=4)
        out.result[0].spherical_count += 1
        self.assertFires(workload.check(4, inputs, out), "summary spherical_count")

    def test_inconsistent_crosscheck_report(self):
        workload, inputs, out = smoke("crosscheck-f4", seed=4)
        out.result[3].witness_found += 1
        self.assertFires(workload.check(4, inputs, out), "inconsistent report")

    def test_crosscheck_inconsistency_error_fails(self):
        workload, inputs, out = smoke("crosscheck-f4", seed=4)
        summary, records, sample, _report = out.result
        error = levispherical.InconsistencyError(sample[0], (1, 1, 1), (0, 0, 0), 2)
        out.result = (summary, records, sample, error)
        self.assertFires(workload.check(4, inputs, out), "InconsistencyError")

    def test_non_reconstructing_decomposition(self):
        workload, inputs, out = smoke("decompose-d5")
        char, entries = out.result
        (mu, m), rest = entries[0], entries[1:]
        out.result = (char, ((mu, m + 1),) + tuple(rest))
        self.assertFires(workload.check(0, inputs, out), "sum of mult * dim_I(mu)")

    def test_chain_dimension(self):
        # A2 adjoint (1, 1) has dimension 8; A3 rho has dimension 2**6.
        self.assertEqual(workloads.chain_dimension((1, 1), (1, 2)), 8)
        self.assertEqual(workloads.chain_dimension((0, 1, 1, 1), (2, 3, 4)), 64)
        self.assertEqual(workloads.chain_dimension((5, 0, 0), (1,)), 6)


class Calibration(unittest.TestCase):
    def test_clock_leaves_out_the_ticks(self):
        sampler = calibrate.Sampler()
        sampler.start()
        try:
            t0, c0 = perf_counter(), sampler.clock()
            while perf_counter() - t0 < 0.3:
                sum(range(1000))
            t1, c1 = perf_counter(), sampler.clock()
        finally:
            sampler.stop()
        self.assertIs(signal.getsignal(signal.SIGALRM), signal.SIG_DFL)
        self.assertGreaterEqual(len(sampler.chunks), 3)
        self.assertEqual(len(sampler.ticks), len(sampler.chunks))
        self.assertEqual(sampler.ticks, sorted(sampler.ticks))
        self.assertAlmostEqual((t1 - t0) - (c1 - c0), sampler.spent, delta=1e-4)
        self.assertGreater(sampler.spent, sum(sampler.chunks) * 0.99)

    def test_speed_is_the_mean_over_the_chunks_asked_for(self):
        sampler = calibrate.Sampler()
        ref = calibrate.REFERENCE_S
        sampler.chunks = [ref, ref / 2, ref * 2]
        sampler.ticks = [0.0, 1.0, 2.0]
        self.assertAlmostEqual(sampler.speed(), (1 + 2 + 0.5) / 3)
        self.assertAlmostEqual(sampler.speed(1), (2 + 0.5) / 2)
        self.assertAlmostEqual(sampler.local_speed(1.01, 9.0), 2.0)
        self.assertEqual(sampler.local_speed(5.0, 9.0), 9.0)
        self.assertGreater(sampler.speed(3), 0)  # times a chunk of its own
        self.assertEqual(len(sampler.ticks), 4)


class Tracing(unittest.TestCase):
    def bindings(self):
        return {
            (modname, attr): value
            for modname, module in sys.modules.items()
            if modname.startswith("levispherical")
            for attr, value in vars(module).items()
            if callable(value)
        }

    def test_remove_restores_every_binding(self):
        before = self.bindings()
        record = levispherical.CensusRecord
        methods = dict(vars(record))
        tracer = tracing.Tracer()
        tracer.install()
        self.assertIsNot(levispherical.census.classify, before[("levispherical.census", "classify")])
        tracer.remove()
        self.assertEqual(self.bindings(), before)
        self.assertEqual(dict(vars(record)), methods)

    def test_traced_outputs_match_and_spans_nest(self):
        for name in workloads.WORKLOADS:
            with self.subTest(workload=name):
                workload, inputs, plain = smoke(name, seed=4)
                tracer = tracing.Tracer()
                tracer.install()
                try:
                    traced = workload.run(inputs)
                finally:
                    tracer.remove()
                self.assertEqual(
                    workload.check(4, inputs, traced).digest,
                    workload.check(4, inputs, plain).digest,
                )
                for _name, _start, duration, parent in tracer.spans:
                    self.assertGreaterEqual(duration, 0.0)
                    if parent >= 0:
                        self.assertLessEqual(duration, tracer.spans[parent][2])
                self.assertEqual(
                    set(tracer.layer_metrics()) | {"trace.overhead_s"},
                    {m["name"] for m in SPEC["per_layer"]},
                )

    def test_self_time_subtracts_direct_children(self):
        tracer = tracing.Tracer()
        tracer.spans = [
            ["cli.main", 0.0, 10.0, -1],
            ["census.run", 1.0, 6.0, 0],
            ["sphericality.classify", 2.0, 2.5, 1],
            ["rootsys.build", 8.0, 1.0, 0],
        ]
        totals = tracer.totals()
        self.assertEqual(totals["cli.main"], (1, 10.0, 3.0))
        self.assertEqual(totals["census.run"], (1, 6.0, 3.5))


if __name__ == "__main__":
    unittest.main()
