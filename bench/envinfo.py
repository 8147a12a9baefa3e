"""Environment record, metric units and result output of a benchmark run."""

from __future__ import annotations

import ctypes
import json
import os
import platform
import resource
import sys
from pathlib import Path

import numpy as np

OUT_DIR = ".bench_out"


def metric_units(root: Path, section: str) -> dict:
    """Units of the metrics BENCHMARK.json declares in ``section``."""
    spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec[section]}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _blas_library():
    """The BLAS shared library this process has loaded, or None."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            for line in fh:
                path = line.split()[-1]
                if "blas" in os.path.basename(path).lower():
                    return ctypes.CDLL(path)
    except OSError:
        pass
    return None


def _blas_runtime() -> dict:
    """Thread count and configuration reported by a loaded OpenBLAS."""
    lib = _blas_library()
    out = {}
    if lib is None:
        return out
    for prefix in ("scipy_openblas", "openblas"):
        for suffix in ("64_", ""):
            threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
            config = getattr(lib, f"{prefix}_get_config{suffix}", None)
            if threads is None:
                continue
            threads.argtypes, threads.restype = [], ctypes.c_int
            out["threads"] = threads()
            if config is not None:
                config.argtypes, config.restype = [], ctypes.c_char_p
                out["config"] = config().decode()
            return out
    return out


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit(root: Path) -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def _blas_build() -> dict:
    """BLAS vendor and version NumPy was built against."""
    try:
        return np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # NumPy before 1.26 only prints its config
        return {}


def record(root: Path, seed: int) -> dict:
    blas = _blas_build()
    runtime = _blas_runtime()
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {"vendor": blas.get("name"), "version": blas.get("version"),
                 "runtime_config": runtime.get("config")},
        "blas_threads": runtime.get("threads", os.environ.get("OPENBLAS_NUM_THREADS")),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "git_commit": _git_commit(root),
        "seed": seed,
    }


def emit(obj) -> None:
    sys.stdout.write(json.dumps(obj) + "\n")
    sys.stdout.flush()


def write_result(root: Path, args, tracer, env: dict, payload: dict) -> None:
    """Full result, and the spans of a traced run, under .bench_out/."""
    out = root / OUT_DIR
    out.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(out / f"{stem}.json", "w", encoding="utf-8") as fh:
        json.dump({"env": env, **payload}, fh, indent=1)
    if tracer is not None:
        tracer.write(out / f"{stem}-spans.json", env)
