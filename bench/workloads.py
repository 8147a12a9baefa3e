"""The benchmark's workloads: inputs, ops and correctness checks.

Every workload is a closed loop driven by one client.  A workload yields
its ops cycle by cycle; an op is one timed call sequence into ``qot``'s
public entry points and returns the scalars the checks need.  Cycles are
the unit of the timed phase (it always ends on a cycle boundary), so every
run measures the same mix of op kinds whatever its length.

Inputs come from ``numpy.random.SeedSequence([seed, stream, cycle, ...])``:
the same seed gives the same inputs, and warm-up inputs come from their
own stream, so no input repeats within a process.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field

import numpy as np

from qot import cli, metrology, qstates
from qot import coupling as cp
from qot import wasserstein as ws

GAP_MAX = 1e-8  # certified duality gap of an accepted solve
RESIDUAL_MAX = 1e-7  # marginal residual of an accepted coupling

TIMED, WARMUP = 0, 1  # input streams

# Step fractions tried, in order, when a solve ends uncertified.  With the
# default 0.98 the engine stalls near the cone boundary on about one fig2
# point in 250 and one ppt_extension_3 op in 300 (ROADMAP item 1); a
# shorter step from the same start recovers them.  The first retry is the
# cheapest; the later ones recover the solves it does not.  Tolerances are
# never changed, the retries' time is part of the op, and every retry is
# reported.
RETRY_STEP_FRACTIONS = (0.95, 0.5, 0.3)


def _rng(seed: int, *key: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, *key]))


@dataclass
class Op:
    kind: str
    fn: object  # () -> list of (label, TransportResult)
    meta: dict = field(default_factory=dict)


@dataclass
class Record:
    """Outcome of one timed op."""

    op_id: int
    cycle: int
    kind: str
    seconds: float
    meta: dict
    values: dict = field(default_factory=dict)
    retried: list = field(default_factory=list)  # why earlier tries failed
    error: str | None = None
    solve_failures: list = field(default_factory=list)
    check_failures: list = field(default_factory=list)

    @property
    def certified(self) -> bool:
        """Returned values from solves that all passed the acceptance gates.

        Checks compare only certified values; the other ops are already
        counted as failed.
        """
        return not (self.error or self.solve_failures)

    @property
    def failed(self) -> bool:
        return not self.certified or bool(self.check_failures)


def solve_failures(results) -> list:
    """Acceptance gates of every solve in an op: status, gap, residual."""
    bad = []
    for label, res in results:
        diag = res.diagnostics
        if diag.get("status") != "Optimal":
            bad.append(f"{label}: status {diag.get('status')}")
        if diag.get("gap", 0.0) > GAP_MAX:
            bad.append(f"{label}: gap {diag['gap']:.3e}")
        if diag.get("marginal_residual", 0.0) > RESIDUAL_MAX:
            bad.append(f"{label}: residual {diag['marginal_residual']:.3e}")
    return bad


def certified_solve(fn, rho, sigma, spec, cset):
    """``fn(rho, sigma, spec, cset)``, retried with a shorter engine step
    while the result fails the acceptance gates.

    The reasons the earlier tries failed go to
    ``diagnostics["retried_after"]`` of the returned result.
    """
    res = fn(rho, sigma, spec, cset)
    retried = []
    for frac in RETRY_STEP_FRACTIONS:
        bad = solve_failures([(cset.label(), res)])
        if not bad:
            break
        retried += bad
        options = dataclasses.replace(ws.DEFAULT_OPTIONS, step_fraction=frac)
        res = fn(rho, sigma, spec, cset, options)
    res.diagnostics["retried_after"] = retried
    return res


class Check:
    """Result of one workload check, printed with every run."""

    def __init__(self, name: str):
        self.name = name
        self.count = 0
        self.failures: list = []

    def expect(self, ok: bool, detail: str, records=()) -> None:
        self.count += 1
        if not ok:
            self.failures.append(detail)
            for rec in records:
                rec.check_failures.append(f"{self.name}: {detail}")

    @property
    def ok(self) -> bool:
        return self.count > 0 and not self.failures

    def summary(self) -> dict:
        return {
            "check": self.name,
            "ok": self.ok,
            "evaluated": self.count,
            "failures": self.failures[:5],
        }


# ---------------------------------------------------------------- fig2


class Fig2:
    """The paper's rotated-qubit sweep: one op is a general + PPT pair.

    Cycle 0 is the exact paper sweep (64-point grid on [0, pi/2], then
    bisection of the phi0 crossing to 1e-9); later cycles jitter each grid
    point within its cell.  The exact grid hits the solver stall near
    phi0 in every run, which counts as a failed op.
    """

    name = "fig2"

    def __init__(self, seed: int, tiny: bool = False):
        self.seed = seed
        self.points = 8 if tiny else 64
        self.tol = 1e-3 if tiny else 1e-9
        self.spec = ws.CostSpec((qstates.pauli("z"),), "dpt")
        self.phi0: dict = {}

    def _op(self, phi: float) -> Op:
        def fn():
            rho, sigma = cli.example_states(phi)
            return [
                ("general", certified_solve(ws.distance_squared, rho, sigma, self.spec, cp.GENERAL)),
                ("ppt", certified_solve(ws.distance_squared, rho, sigma, self.spec, cp.PPT)),
            ]

        return Op("pair", fn, {"phi": phi})

    def warmup(self):
        yield self._op(float(_rng(self.seed, WARMUP).uniform(0.0, math.pi / 2)))

    def grid(self, cycle: int) -> np.ndarray:
        if cycle == 0:
            return np.linspace(0.0, math.pi / 2, self.points)
        cell = (math.pi / 2) / self.points
        offsets = _rng(self.seed, TIMED, cycle).uniform(0.0, 1.0, self.points)
        return (np.arange(self.points) + offsets) * cell

    def cycle(self, cycle: int):
        gaps = []
        for phi in self.grid(cycle):
            rec = yield self._op(float(phi))
            if rec.error:
                return
            gaps.append((float(phi), rec.values["ppt"] - rec.values["general"]))
        # Same crossing rule and bisection as `qot fig2`.
        threshold = cli.GAP_THRESHOLD
        for (lo, g_lo), (hi, g_hi) in zip(gaps, gaps[1:]):
            if g_lo > threshold >= g_hi:
                break
        else:
            return
        while hi - lo > self.tol:
            mid = (lo + hi) / 2
            rec = yield self._op(mid)
            if rec.error:
                return
            if rec.values["ppt"] - rec.values["general"] > threshold:
                lo = mid
            else:
                hi = mid
        self.phi0[cycle] = (lo + hi) / 2

    def check(self, records) -> list:
        anchors = Check("fig2.phi0_anchor_values")
        order = Check("fig2.ppt_above_general")
        crossing = Check("fig2.phi0_in_range")
        for r in records:
            if not r.certified:
                continue
            gap = r.values["ppt"] - r.values["general"]
            order.expect(gap >= -1e-6, f"phi={r.meta['phi']!r} gap {gap:.3e}", [r])
        first = records[0]
        want = {"general": 1.0 - math.sqrt(3.0) / 2.0, "ppt": 0.25}
        for label, value in want.items():
            err = abs(first.values.get(label, math.inf) - value)
            anchors.expect(err <= 1e-5, f"{label} at phi=0 off by {err:.3e}", [first])
        for cycle in sorted({r.cycle for r in records}):
            phi0 = self.phi0.get(cycle)
            crossing.expect(
                phi0 is not None and 0.2936 <= phi0 / math.pi <= 0.2956,
                f"cycle {cycle}: phi0 = {phi0!r}",
            )
        return [anchors, order, crossing]


# --------------------------------------------------------------- qudit


QUDIT_SETS = (
    cp.GENERAL,
    cp.PPT,
    cp.CLASSICAL_QUANTUM,
    cp.QUANTUM_CLASSICAL,
)
SELF_ROWS = (
    (cp.GENERAL, "dpt"),
    (cp.PPT, "gmpc"),
    (cp.SYMMETRIC_PPT, "gmpc"),
)


class Qudit:
    """Independent random (rho, sigma, H) at d = 4, eleven ops each.

    Eight ops are distance and variance over general, PPT, classical-quantum
    and quantum-classical couplings; the convention alternates between dpt
    and gmpc per instance.  Three are the table1 self-distance rows.  A
    cycle is two instances, one per convention.
    """

    name = "qudit"

    def __init__(self, seed: int, tiny: bool = False):
        self.seed = seed
        self.d = 2 if tiny else 4

    def _instance(self, rng, convention, instance):
        rho = qstates.random_density(self.d, rng)
        sigma = qstates.random_density(self.d, rng)
        h = qstates.random_hermitian(self.d, rng)
        spec = ws.CostSpec((h,), convention)
        for cset in QUDIT_SETS:
            for sense, fn in (("min", ws.distance_squared), ("max", ws.wasserstein_variance)):
                yield Op(
                    f"{sense}.{cset.kind}",
                    lambda fn=fn, cset=cset: [
                        (cset.kind, certified_solve(fn, rho, sigma, spec, cset))
                    ],
                    {"instance": instance, "rho": rho, "h": h},
                )
        for cset, conv in SELF_ROWS:
            self_spec = ws.CostSpec((h,), conv)
            yield Op(
                f"self.{cset.kind}.{conv}",
                lambda cset=cset, self_spec=self_spec: [
                    (cset.kind, certified_solve(ws.distance_squared, rho, rho, self_spec, cset))
                ],
                {"instance": instance, "rho": rho, "h": h},
            )

    def warmup(self):
        yield from self._instance(_rng(self.seed, WARMUP), "dpt", None)

    def cycle(self, cycle: int):
        for k, convention in enumerate(("dpt", "gmpc")):
            rng = _rng(self.seed, TIMED, cycle, k)
            yield from self._instance(rng, convention, (cycle, k))

    def check(self, records) -> list:
        order = Check("qudit.set_ordering")
        skew = Check("qudit.self_general_is_skew_information")
        qfi = Check("qudit.self_ppt_below_qfi_over_4")
        sym = Check("qudit.self_symmetric_ppt_between_ppt_and_variance")
        groups: dict = {}
        for rec in records:
            groups.setdefault(rec.meta["instance"], {})[rec.kind] = rec
        for recs in groups.values():
            for sense, sign in (("min", 1.0), ("max", -1.0)):
                vals = {
                    k.split(".", 1)[1]: r
                    for k, r in recs.items()
                    if k.startswith(sense + ".") and r.certified
                }
                chain = [
                    ("general", "ppt"),
                    ("ppt", "classical_quantum"),
                    ("ppt", "quantum_classical"),
                ]
                for lo, hi in chain:
                    if lo in vals and hi in vals:
                        a = vals[lo].values[lo]
                        b = vals[hi].values[hi]
                        order.expect(
                            sign * (b - a) >= -1e-7,
                            f"{sense}: {lo}={a:.10g} {hi}={b:.10g}",
                            [vals[lo], vals[hi]],
                        )
            r = recs.get("self.general.dpt")
            if r and r.certified:
                ref = metrology.skew_information(r.meta["rho"], r.meta["h"])
                err = abs(r.values["general"] - ref)
                skew.expect(err <= 1e-6, f"off by {err:.3e}", [r])
            r_ppt = recs.get("self.ppt.gmpc")
            if r_ppt and r_ppt.certified:
                bound = metrology.qfi(r_ppt.meta["rho"], r_ppt.meta["h"]) / 4.0
                val = r_ppt.values["ppt"]
                qfi.expect(val <= bound + 1e-6, f"{val:.10g} > {bound:.10g}", [r_ppt])
            r_sym = recs.get("self.symmetric_ppt.gmpc")
            if r_sym and r_sym.certified:
                # Symmetric PPT couplings are PPT couplings, and the product
                # coupling is one of them.
                val = r_sym.values["symmetric_ppt"]
                var = metrology.variance(r_sym.meta["rho"], r_sym.meta["h"])
                ok = val <= var + 1e-7
                if r_ppt and r_ppt.certified:
                    ok = ok and val >= r_ppt.values["ppt"] - 1e-7
                sym.expect(ok, f"{val:.10g} vs variance {var:.10g}", [r_sym])
        return [order, skew, qfi, sym]


# ----------------------------------------------------------- extension


class Extension:
    """Doherty-Parrilo-Spedalieri PPT extensions on random pairs.

    A cycle is one ppt_extension_2 op at d = 3 and twelve ppt_extension_3
    ops at d = 2; the sense alternates between min and max.  ppt_extension_3
    at d = 3 is left out: it does not fit in the memory of an 8 GB machine.
    """

    name = "extension"

    def __init__(self, seed: int, tiny: bool = False):
        self.seed = seed
        self.d_ext2 = 2 if tiny else 3

    def _op(self, rng, kind, d, n, sense) -> Op:
        rho = qstates.random_density(d, rng)
        sigma = qstates.random_density(d, rng)
        spec = ws.CostSpec((qstates.random_hermitian(d, rng),), "dpt")
        fn = ws.distance_squared if sense == "min" else ws.wasserstein_variance
        cset = cp.ppt_extension(n)
        return Op(
            kind,
            lambda: [(cset.label(), certified_solve(fn, rho, sigma, spec, cset))],
            {"sense": sense, "d": d, "n": n, "inputs": (rho, sigma, spec)},
        )

    def warmup(self):
        yield self._op(_rng(self.seed, WARMUP, 0), "ext2", self.d_ext2, 2, "min")
        yield self._op(_rng(self.seed, WARMUP, 1), "ext3", 2, 3, "max")

    def cycle(self, cycle: int):
        sense = ("min", "max")
        yield self._op(
            _rng(self.seed, TIMED, cycle, 0), "ext2", self.d_ext2, 2, sense[cycle % 2]
        )
        for j in range(12):
            yield self._op(_rng(self.seed, TIMED, cycle, 1 + j), "ext3", 2, 3, sense[j % 2])

    def check(self, records) -> list:
        """Reference PPT solves, run after the timed phase."""
        equal = Check("extension.ext3_d2_equals_ppt")
        side = Check("extension.ext2_on_correct_side_of_ppt")
        for rec in records:
            if not rec.certified:
                continue
            rho, sigma, spec = rec.meta["inputs"]
            sense = rec.meta["sense"]
            fn = ws.distance_squared if sense == "min" else ws.wasserstein_variance
            ref = certified_solve(fn, rho, sigma, spec, cp.PPT)
            val = rec.values[cp.ppt_extension(rec.meta["n"]).label()]
            bad_ref = solve_failures([("ppt reference", ref)])
            if rec.meta["d"] == 2 and rec.meta["n"] == 3:
                err = abs(val - ref.value)
                equal.expect(
                    err <= 1e-6 and not bad_ref, f"off by {err:.3e} {bad_ref}", [rec]
                )
            else:
                sign = 1.0 if sense == "min" else -1.0
                slack = sign * (val - ref.value)
                side.expect(
                    slack >= -1e-7 and not bad_ref,
                    f"{sense}: ext {val:.10g} ppt {ref.value:.10g} {bad_ref}",
                    [rec],
                )
        return [equal, side]


WORKLOADS = {w.name: w for w in (Fig2, Qudit, Extension)}
