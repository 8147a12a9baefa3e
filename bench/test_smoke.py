"""Smoke test of the benchmark: every workload at a tiny size.

    python3 -m pytest bench/test_smoke.py     (or: python3 bench/test_smoke.py)

Checks that each run prints every metric BENCHMARK.json declares, that its
checks pass, and that the traced self times add up to the op time.
"""

from __future__ import annotations

import json
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
# Every workload the runner knows, also those BENCHMARK.json leaves out.
WORKLOADS = ["fig2", "qudit", "extension"]


def run(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", "0", "--trace", str(trace), "--size", "tiny"],
        capture_output=True, text=True, timeout=170, cwd=ROOT,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


class SmokeTest(unittest.TestCase):
    def check_result(self, result, section):
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertGreaterEqual(result["attempted"], 1)
        declared = {m["name"]: m["unit"] for m in SPEC[section]}
        self.assertEqual(set(result["metrics"]), set(declared))
        for name, metric in result["metrics"].items():
            self.assertEqual(metric["unit"], declared[name], name)
            self.assertGreater(metric["value"], 0, name)

    def test_end_to_end(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                self.check_result(run(workload, 0), "end_to_end")

    def test_traced(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                result = run(workload, 1)
                self.check_result(result, "per_layer")
                m = {k: v["value"] for k, v in result["metrics"].items()}
                op_sum = sum(m[k] for k in tracing.OP_PARTITION)
                self.assertAlmostEqual(op_sum, m["trace.op_s"], delta=1e-9 * m["trace.op_s"] + 1e-12)
                engine_sum = sum(m[k] for k in tracing.ENGINE_PARTITION)
                self.assertAlmostEqual(engine_sum, m["sdp.solve_s"], delta=1e-9 * m["sdp.solve_s"] + 1e-12)
                self.check_spans(workload)

    def check_spans(self, workload):
        dump = json.loads(
            (ROOT / ".bench_out" / f"{workload}-seed7-trace1-spans.json").read_text()
        )
        spans = dump["spans"]
        own = tracing.self_times(spans)
        op_time, own_sum = {}, {}
        for s, t in zip(spans, own):
            self.assertGreaterEqual(t, -1e-9, s[0])
            own_sum[s[4]] = own_sum.get(s[4], 0.0) + t
            if s[0] == tracing.OP_SPAN:
                op_time[s[4]] = s[2] - s[1]
        self.assertTrue(op_time)
        for op_id, total in op_time.items():
            self.assertAlmostEqual(own_sum[op_id], total, delta=1e-9)

    def test_missing_target_is_absent(self):
        sys.path.insert(0, str(ROOT / "src"))
        from qot import linalg

        realify = linalg.realify
        del linalg.realify
        tracer = tracing.Tracer()
        try:
            tracer.install()
            tracer.uninstall()
        finally:
            linalg.realify = realify
        self.assertEqual(tracer.missing, ["linalg.realify"])
        spans = [["op", 0.0, 2.0, -1, 0, None], ["np.svd", 0.5, 1.0, 0, 0, None]]
        metrics = tracing.layer_metrics(spans, tracer.missing)
        self.assertNotIn("linalg.realify_s", metrics)
        self.assertEqual(metrics["wasserstein.svd_s"], 0.5)
        self.assertEqual(metrics["wasserstein.self_s"], 1.5)


if __name__ == "__main__":
    unittest.main()
