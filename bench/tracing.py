"""Span tracer for the traced benchmark run.

Layer functions are wrapped from outside, by replacing module attributes:
``qot`` modules call each other and NumPy through module attributes
(``cp.build``, ``sdp.solve_blocks``, ``np.linalg.svd``), so a replaced
attribute sees every call.  Each call inside an op becomes a span
``[name, start, end, parent, op_id, info]`` kept in memory; ``info`` holds
the counts read at the same boundary (problem sizes, iterations, status).

Spans use the wall clock (``time.perf_counter``): it is several times
cheaper to read than the CPU clock, and a fig2 op makes over a thousand
wrapped calls.  Self time of a span is its duration minus the duration of its child spans,
so the self times of all spans of one op sum to the op time.  A NumPy call
is attributed to the innermost ``qot`` span that contains it.  A target
that no longer exists is skipped, and every metric that depends on it is
reported as absent.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time

# (module, attribute, span name)
QOT_TARGETS = (
    ("qot.coupling", "build", "coupling.build"),
    ("qot.sdp", "solve_blocks", "sdp.solve_blocks"),
    ("qot.linalg", "realify", "linalg.realify"),
    ("qot.linalg", "derealify", "linalg.derealify"),
)
NUMPY_TARGETS = (
    ("numpy.linalg", "svd", "np.svd"),
    ("numpy.linalg", "eigh", "np.eigh"),
    ("numpy.linalg", "eigvalsh", "np.eigvalsh"),
    ("numpy.linalg", "cholesky", "np.cholesky"),
    ("numpy.linalg", "solve", "np.solve"),
    ("numpy", "einsum", "np.einsum"),
)
OP_SPAN = "op"

# Layer of each qot span, and the bucket its self time goes to.
_LAYER = {
    OP_SPAN: ("wasserstein", "wasserstein.self_s"),
    "coupling.build": ("coupling", "coupling.build_s"),
    "sdp.solve_blocks": ("sdp", "sdp.self_s"),
    "linalg.realify": ("linalg", "linalg.realify_s"),
    "linalg.derealify": ("linalg", "linalg.realify_s"),
}

# Self-time buckets.  The first group partitions an op, the second
# partitions the engine (sdp.solve_s); the smoke test checks both sums.
OP_PARTITION = (
    "wasserstein.self_s",
    "wasserstein.svd_s",
    "wasserstein.other_np_s",
    "coupling.build_s",
    "linalg.realify_s",
    "sdp.solve_s",
)
ENGINE_PARTITION = (
    "sdp.self_s",
    "sdp.respan_svd_s",
    "sdp.eig_s",
    "sdp.factor_s",
    "sdp.einsum_s",
)

# Span names each metric needs; a metric is absent when one is missing.
_REQUIRES = {
    "wasserstein.svd_s": ("np.svd",),
    "coupling.build_s": ("coupling.build",),
    "coupling.eq_rows": ("coupling.build",),
    "coupling.var_cdim": ("coupling.build",),
    "linalg.realify_s": ("linalg.realify", "linalg.derealify"),
    "sdp.solve_s": ("sdp.solve_blocks",),
    "sdp.iterations": ("sdp.solve_blocks",),
    "sdp.s_per_iter": ("sdp.solve_blocks",),
    "sdp.free_dims": ("sdp.solve_blocks",),
    "sdp.block_dim": ("sdp.solve_blocks",),
    "sdp.optimal_frac": ("sdp.solve_blocks",),
    "sdp.self_s": ("sdp.solve_blocks",),
    "sdp.respan_svd_s": ("sdp.solve_blocks", "np.svd"),
    "sdp.eig_s": ("sdp.solve_blocks", "np.eigh", "np.eigvalsh"),
    "sdp.eig_calls": ("sdp.solve_blocks", "np.eigh", "np.eigvalsh"),
    "sdp.factor_s": ("sdp.solve_blocks", "np.cholesky", "np.solve"),
    "sdp.factor_calls": ("sdp.solve_blocks", "np.cholesky", "np.solve"),
    "sdp.einsum_s": ("sdp.solve_blocks", "np.einsum"),
}


def _numpy_bucket(name: str, layer: str) -> tuple[str, str | None]:
    """(time bucket, call-count bucket) of a NumPy call under ``layer``."""
    if layer == "sdp":
        if name == "np.svd":
            return "sdp.respan_svd_s", None
        if name in ("np.eigh", "np.eigvalsh"):
            return "sdp.eig_s", "sdp.eig_calls"
        if name in ("np.cholesky", "np.solve"):
            return "sdp.factor_s", "sdp.factor_calls"
        return "sdp.einsum_s", None
    if layer == "wasserstein":
        if name == "np.svd":
            return "wasserstein.svd_s", None
        return "wasserstein.other_np_s", None
    if layer == "coupling":
        return "coupling.build_s", None
    return "linalg.realify_s", None


def _build_info(args, kwargs, out):
    return {"eq_rows": len(out.eq_rows), "var_cdim": int(out.var_cdim)}


def _solve_info(signature):
    def info(args, kwargs, out):
        bound = signature.bind(*args, **kwargs).arguments
        rec = {
            "free_dims": len(bound["b"]),
            "block_dim": sum(len(c) for c in bound["cost_blocks"]),
        }
        if out is None:
            rec["status"] = "Raised"
        else:
            rec["status"] = out.status
            rec["iterations"] = int(out.iterations)
        return rec

    return info


class Tracer:
    """Records spans for calls made while an op is open."""

    def __init__(self):
        self.spans: list = []
        self.missing: list = []
        self._stack: list = []
        self._op_id = None
        self._saved: list = []

    # -- wrapping ---------------------------------------------------------

    def install(self) -> None:
        for module_name, attr, span in QOT_TARGETS + NUMPY_TARGETS:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr, None)
            if fn is None:
                self.missing.append(span)
                continue
            info = None
            if span == "coupling.build":
                info = _build_info
            elif span == "sdp.solve_blocks":
                info = _solve_info(inspect.signature(fn))
            self._saved.append((module, attr, fn))
            setattr(module, attr, self._wrap(fn, span, info))

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved.clear()

    def _wrap(self, fn, name, info):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not stack:
                return fn(*args, **kwargs)
            idx = len(spans)
            rec = [name, clock(), 0.0, stack[-1], self._op_id, None]
            spans.append(rec)
            stack.append(idx)
            out = None
            try:
                out = fn(*args, **kwargs)
                return out
            finally:
                rec[2] = clock()
                stack.pop()
                if info is not None:
                    try:
                        rec[5] = info(args, kwargs, out)
                    except (AttributeError, KeyError, TypeError):
                        rec[5] = None  # the layer's interface changed

        return wrapper

    # -- op spans ---------------------------------------------------------

    def begin_op(self, op_id: int) -> None:
        self._op_id = op_id
        self._stack.append(len(self.spans))
        self.spans.append([OP_SPAN, time.perf_counter(), 0.0, -1, op_id, None])

    def end_op(self) -> None:
        self.spans[self._stack.pop()][2] = time.perf_counter()
        self._op_id = None

    def write(self, path, env: dict) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "env": env,
                    "fields": ["name", "start", "end", "parent", "op_id", "info"],
                    "missing": self.missing,
                    "spans": self.spans,
                },
                fh,
            )


def self_times(spans) -> list:
    """Self time of every span: its duration minus its children's."""
    own = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] >= 0:
            own[s[3]] -= s[2] - s[1]
    return own


def op_buckets(spans) -> dict:
    """Per-op sums of every self-time and count bucket, keyed by op id."""
    own = self_times(spans)
    layer_of = [None] * len(spans)
    per_op: dict = {}
    for i, s in enumerate(spans):
        name, parent, op_id, info = s[0], s[3], s[4], s[5]
        acc = per_op.setdefault(op_id, {})
        if name in _LAYER:
            layer_of[i], bucket = _LAYER[name]
            calls = None
        else:
            # NumPy spans are leaves of the innermost qot span.
            layer_of[i] = layer_of[parent]
            bucket, calls = _numpy_bucket(name, layer_of[i])
        acc[bucket] = acc.get(bucket, 0.0) + own[i]
        if calls:
            acc[calls] = acc.get(calls, 0) + 1
        if name == OP_SPAN:
            acc["op_s"] = s[2] - s[1]
        elif name == "sdp.solve_blocks":
            acc["sdp.solve_s"] = acc.get("sdp.solve_s", 0.0) + (s[2] - s[1])
            acc["sdp.solves"] = acc.get("sdp.solves", 0) + 1
            info = info or {}
            for key in ("iterations", "free_dims", "block_dim"):
                if key in info:
                    acc[f"sdp.{key}"] = acc.get(f"sdp.{key}", 0) + info[key]
            if info.get("status") == "Optimal":
                acc["sdp.optimal"] = acc.get("sdp.optimal", 0) + 1
        elif name == "coupling.build" and info:
            for key in ("eq_rows", "var_cdim"):
                acc[f"coupling.{key}"] = acc.get(f"coupling.{key}", 0) + info[key]
    return per_op


def layer_metrics(spans, missing) -> dict:
    """Per-layer metrics as means per traced op, with absent ones dropped."""
    per_op = op_buckets(spans)
    n_ops = len(per_op)
    if n_ops == 0:
        return {}
    totals: dict = {}
    for acc in per_op.values():
        for key, val in acc.items():
            totals[key] = totals.get(key, 0) + val
    out = {}
    for name in OP_PARTITION + ENGINE_PARTITION + (
        "coupling.eq_rows",
        "coupling.var_cdim",
        "sdp.iterations",
        "sdp.free_dims",
        "sdp.block_dim",
        "sdp.eig_calls",
        "sdp.factor_calls",
    ):
        out[name] = totals.get(name, 0) / n_ops
    solves = totals.get("sdp.solves", 0)
    if solves:
        out["sdp.optimal_frac"] = totals.get("sdp.optimal", 0) / solves
    if totals.get("sdp.iterations"):
        out["sdp.s_per_iter"] = totals["sdp.solve_s"] / totals["sdp.iterations"]
    out["trace.op_s"] = totals["op_s"] / n_ops
    for name, needs in _REQUIRES.items():
        if any(span in missing for span in needs):
            out.pop(name, None)
    return out
