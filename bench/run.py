"""Benchmark runner for qot: one workload, one seed, one process.

    python3 bench/run.py --workload {fig2,qudit,extension} --seed N \
        --seconds S --trace {0,1}

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0``
the metrics are the end-to-end ones (setup_s, ops_per_s, op_s_p50,
op_s_tail, peak_rss_mb); with ``--trace 1`` they are the per-layer ones,
measured by wrapping the layer functions (see tracing.py).  The lines before
it give the environment record, the tail percentile and every workload
check.  The full result, and the spans of a traced run, are also written
to ``.bench_out/`` at the root of the checkout.

See bench/README.md for why each workload exists.
"""

from __future__ import annotations

import argparse
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

# BLAS runs on one thread; this must happen before NumPy is imported.
BLAS_THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
# Every reported time is CPU time of this process.  The workloads are
# single-threaded and never wait, so on an unshared machine this equals
# wall time; on a shared virtual machine it leaves out the time the host
# deschedules us (steal), which otherwise dominates run-to-run spread.
CLOCK = time.process_time
SETUP_SAMPLES = 5  # this process plus fresh probe processes
PROBE_READY = "setup-probe-ready"
TAIL_BEYOND = 10  # samples that must lie beyond the tail percentile
EXIT_NO_SOURCE = 3
EXIT_PROBE_FAILED = 4


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=["fig2", "qudit", "extension"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument(
        "--size",
        choices=["full", "tiny"],
        default="full",
        help="tiny shrinks every workload for the smoke test",
    )
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def prepare(args):
    """Set-up as setup_s counts it: imports, inputs and a warm-up op of
    each op kind, on inputs the timed phase never reuses."""
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    workload = workloads.WORKLOADS[args.workload](args.seed, tiny=args.size == "tiny")
    for op in workload.warmup():
        op.fn()
    return workloads, workload


def probe_setup(args, count: int) -> list:
    """Set-up CPU time of ``count`` fresh processes, from exec to ready."""
    cmd = [
        sys.executable,
        str(Path(__file__).resolve()),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--size", args.size,
        "--setup-probe",
    ]
    times = []
    for _ in range(count):
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
        word, _, cpu = proc.stdout.strip().partition(" ")
        if proc.returncode != 0 or word != PROBE_READY:
            sys.stderr.write(f"set-up probe failed (exit {proc.returncode})\n{proc.stderr}")
            sys.exit(EXIT_PROBE_FAILED)
        times.append(float(cpu))
    return times


def run_op(workloads, op, op_id, cycle, tracer):
    rec = workloads.Record(op_id, cycle, op.kind, 0.0, op.meta)
    if tracer is not None:
        tracer.begin_op(op_id)
    start = CLOCK()
    try:
        results = op.fn()
    except Exception as exc:  # any failure of the program counts as a failed op
        results = []
        rec.error = f"{type(exc).__name__}: {exc}"
    rec.seconds = CLOCK() - start
    if tracer is not None:
        tracer.end_op()
    rec.values = {label: float(res.value) for label, res in results}
    rec.retried = [why for _, res in results for why in res.diagnostics["retried_after"]]
    rec.solve_failures = workloads.solve_failures(results)
    return rec


def timed_phase(workloads, workload, seconds, tracer):
    """Closed loop over whole cycles until ``seconds`` have passed.

    With a tracer, every other op is traced, so traced and untraced ops
    share one mix of op kinds and the untraced half gives the overhead.
    Returns the records, the wall and CPU time of the phase, and the ops
    per CPU second of each cycle.
    """
    records, cycle_rates = [], []
    start, cpu_start = time.perf_counter(), CLOCK()
    cycle = 0
    while cycle == 0 or time.perf_counter() - start < seconds:
        gen = workload.cycle(cycle)
        rec = None
        first, cycle_start = len(records), CLOCK()
        try:
            while True:
                op = gen.send(rec)
                op_id = len(records)
                traced = tracer if tracer is not None and op_id % 2 == 0 else None
                rec = run_op(workloads, op, op_id, cycle, traced)
                records.append(rec)
        except StopIteration:
            pass
        cycle_rates.append((len(records) - first) / (CLOCK() - cycle_start))
        cycle += 1
    return records, time.perf_counter() - start, CLOCK() - cpu_start, cycle_rates


def tail(latencies):
    """Highest percentile with TAIL_BEYOND samples beyond it: (value, pct)."""
    xs = sorted(latencies)
    k = len(xs) - TAIL_BEYOND - 1
    if k < 0:
        return None, None
    return xs[k], 100.0 * (k + 1) / len(xs)


def _scalars(meta: dict) -> dict:
    """The JSON-printable entries of an op's metadata (phi, sense, ...)."""
    return {
        k: v for k, v in meta.items()
        if isinstance(v, (int, float, str))
        or (isinstance(v, tuple) and all(isinstance(x, int) for x in v))
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "qot" / "__init__.py").is_file():
        sys.stderr.write(f"qot sources not found under {ROOT / 'src'}\n")
        return EXIT_NO_SOURCE
    if args.setup_probe:
        prepare(args)
        print(PROBE_READY, CLOCK(), flush=True)
        return 0

    workloads, workload = prepare(args)
    setup_own = CLOCK()  # CPU time since exec, so interpreter start-up too
    import envinfo
    import tracing

    setup_s = None
    if not args.trace:
        probes = 1 if args.size == "tiny" else SETUP_SAMPLES - 1
        setup_s = statistics.median([setup_own] + probe_setup(args, probes))
    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install()
    try:
        records, wall, cpu, cycle_rates = timed_phase(
            workloads, workload, args.seconds, tracer
        )
    finally:
        if tracer is not None:
            tracer.uninstall()
    peak_rss_mb = envinfo.peak_rss_mb()

    checks = workload.check(records)
    latencies = [r.seconds for r in records]
    env = envinfo.record(ROOT, args.seed)
    info = {"workload": args.workload, "seed": args.seed, "cycles": records[-1].cycle + 1,
            "timed_wall_s": wall, "timed_cpu_s": cpu, "ops_per_cpu_s": len(records) / cpu,
            "retried_ops": sum(bool(r.retried) for r in records)}
    if args.trace:
        traced = [r.seconds for r in records if r.op_id % 2 == 0]
        untraced = [r.seconds for r in records if r.op_id % 2 == 1]
        metrics = tracing.layer_metrics(tracer.spans, tracer.missing)
        if untraced:
            metrics["trace.overhead_ratio"] = statistics.median(traced) / statistics.median(untraced)
        units = envinfo.metric_units(ROOT, "per_layer")
    else:
        value, pct = tail(latencies)
        metrics = {
            "setup_s": setup_s,
            "ops_per_s": statistics.median(cycle_rates),
            "op_s_p50": statistics.median(latencies),
            "peak_rss_mb": peak_rss_mb,
        }
        if value is not None:
            metrics["op_s_tail"] = value
        info["op_s_tail"] = {"percentile": pct, "samples": len(latencies),
                             "beyond": TAIL_BEYOND}
        units = envinfo.metric_units(ROOT, "end_to_end")
    result = {
        "correct": all(c.ok for c in checks),
        "attempted": len(records),
        "failed": sum(r.failed for r in records),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    failed_ops = [
        {"op_id": r.op_id, "kind": r.kind,
         "why": ([r.error] if r.error else []) + r.solve_failures + r.check_failures}
        for r in records if r.failed
    ]
    retried_ops = [
        {"op_id": r.op_id, "kind": r.kind, "meta": _scalars(r.meta), "why": r.retried}
        for r in records if r.retried
    ]
    envinfo.write_result(
        ROOT, args, tracer, env,
        {**info, "checks": [c.summary() for c in checks], "failed_ops": failed_ops,
         "retried_ops": retried_ops, "op_seconds": latencies, "result": result},
    )
    envinfo.emit({"env": env})
    envinfo.emit({"info": info})
    for c in checks:
        envinfo.emit(c.summary())
    for f in retried_ops[:20]:
        envinfo.emit({"retried_op": f})
    for f in failed_ops[:20]:
        envinfo.emit({"failed_op": f})
    envinfo.emit(result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
