"""Command-line surface.

Subcommands:
  distance   transport cost between two states from operator files
  fig2       sweep of the qubit example comparing general vs PPT couplings
  table1     self-distance table across coupling sets
  check      entanglement criteria on a coupling file

Operator/state files are JSON documents {"dims": [d, ...], "matrix":
[[[re, im], ...], ...]} in row-major order.  JSON output uses 12
significant digits and CSV uses %.10e with LF line endings, so identical
inputs produce byte-identical output.  Exit codes: 0 success, 1 input
error, 2 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import coupling as cp
from . import entanglement as ent
from . import wasserstein as ws
from .errors import InvalidDimension, QotError
from .qstates import HermitianOperator, as_density, pauli, validate_density, xbasis_state

GAP_THRESHOLD = 1e-6  # general vs PPT coincidence threshold for phi0


class _CliError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # input errors exit 1, not argparse's 2
        raise _CliError(message)


def _round12(obj):
    if isinstance(obj, float):
        return float(f"{obj:.12g}")
    if isinstance(obj, (np.floating, np.integer)):
        return _round12(float(obj))
    if isinstance(obj, dict):
        return {k: _round12(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round12(v) for v in obj]
    return obj


def _emit(payload) -> None:
    sys.stdout.write(json.dumps(_round12(payload), indent=2) + "\n")


def matrix_to_json(m: np.ndarray) -> list:
    return [[[float(v.real), float(v.imag)] for v in row] for row in np.asarray(m)]


def load_operator_file(path: str):
    """Parse {"dims": [...], "matrix": [[[re, im], ...], ...]}."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise _CliError(f"{path}: {exc.strerror or exc}") from exc
    except json.JSONDecodeError as exc:
        raise _CliError(f"{path}: malformed JSON ({exc})") from exc
    if not isinstance(data, dict):
        raise _CliError(f"{path}: expected a JSON object with 'dims' and 'matrix'")
    for key in ("dims", "matrix"):
        if key not in data:
            raise _CliError(f"{path}: missing field {key!r}")
    dims = data["dims"]
    if not isinstance(dims, list) or not all(
        isinstance(d, int) and not isinstance(d, bool) and d >= 1 for d in dims
    ):
        raise _CliError(f"{path}: field 'dims' is not a list of positive integers")
    dims = tuple(dims)
    try:
        mat = np.array(
            [[complex(re, im) for re, im in row] for row in data["matrix"]],
            dtype=complex,
        )
    except (TypeError, ValueError) as exc:
        raise _CliError(f"{path}: field 'matrix' is not [[re, im], ...] rows") from exc
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise _CliError(f"{path}: matrix is not square")
    if int(np.prod(dims)) != mat.shape[0]:
        raise _CliError(f"{path}: dims {list(dims)} do not match matrix size")
    return mat, dims


def _load_density(path: str):
    mat, dims = load_operator_file(path)
    try:
        return as_density(validate_density(mat, dims))
    except QotError as exc:
        raise _CliError(f"{path}: {exc}") from exc


def _load_observable(path: str) -> HermitianOperator:
    mat, dims = load_operator_file(path)
    try:
        return HermitianOperator(mat, dims)
    except QotError as exc:
        raise _CliError(f"{path}: {exc}") from exc


def _coupling_payload(result) -> dict:
    payload = {
        "value": result.value,
        "set": result.cset.label(),
        "convention": result.convention,
        "exactness": result.exactness,
        "gap": result.diagnostics.get("gap", 0.0),
        "status": result.diagnostics.get("status", "Optimal"),
    }
    if result.coupling is not None:
        d = result.coupling.dims[0]
        payload["coupling"] = {
            "dims": [int(d), int(d)],
            "matrix": matrix_to_json(result.coupling.matrix),
        }
    return payload


def cmd_distance(args) -> int:
    rho = _load_density(args.rho)
    sigma = _load_density(args.sigma)
    obs = tuple(_load_observable(p) for p in args.obs)
    cset = cp.coupling_set(args.set)
    spec = ws.CostSpec(obs, args.convention)
    runner = ws.wasserstein_variance if args.max else ws.distance_squared
    result = runner(rho, sigma, spec, cset)
    _emit(_coupling_payload(result))
    return 0 if result.diagnostics.get("status") == "Optimal" else 2


def example_states(phi: float):
    """The mixed qubit pair of the sweep: rho and its sigma_y rotation."""
    x1 = xbasis_state(1)
    rho = 0.5 * np.outer(x1, x1.conj()) + 0.25 * np.eye(2)
    sy = pauli("y").matrix
    u = np.cos(phi / 2) * np.eye(2) - 1j * np.sin(phi / 2) * sy
    return as_density(rho), as_density(u @ rho @ u.conj().T)


def _sweep_point(phi: float):
    rho, sigma = example_states(phi)
    spec = ws.CostSpec((pauli("z"),), "dpt")
    general = ws.distance_squared(rho, sigma, spec, cp.GENERAL)
    ppt = ws.distance_squared(rho, sigma, spec, cp.PPT)
    ok = (
        general.diagnostics["status"] == "Optimal"
        and ppt.diagnostics["status"] == "Optimal"
    )
    return general.value, ppt.value, ok


def _bisect_phi0(lo: float, hi: float, tol: float = 1e-9) -> float | None:
    """Locate the crossing where the PPT-general gap reaches the
    coincidence threshold; gap(lo) > threshold >= gap(hi).  Returns None
    when a solve along the way is not certified."""
    while hi - lo > tol:
        mid = (lo + hi) / 2
        g, p, ok = _sweep_point(mid)
        if not ok:
            return None
        if p - g > GAP_THRESHOLD:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2


class SweepFailure(Exception):
    """A solve of the fig2 sweep ended uncertified (exit code 2)."""


def fig2_sweep(points: int):
    """General-vs-PPT values on a grid over [0, pi/2], then bisection of
    the first grid cell where the curves meet.

    Returns (phis, results, phi0): ``results`` holds (general, ppt, ok)
    per grid point, and ``phi0`` is None when the curves do not meet on the
    grid.  Raises InvalidDimension for fewer than 8 points and
    SweepFailure when a solve is not certified.
    """
    if points < 8:
        raise InvalidDimension(f"--points must be at least 8, got {points}")
    phis = np.linspace(0.0, np.pi / 2, points)
    results = [_sweep_point(phi) for phi in phis]
    if not all(ok for _, _, ok in results):
        raise SweepFailure("solver failed on at least one sweep point")
    gaps = [p - g for g, p, _ in results]
    phi0 = None
    for i in range(len(phis) - 1):
        if gaps[i] > GAP_THRESHOLD >= gaps[i + 1]:
            phi0 = _bisect_phi0(phis[i], phis[i + 1])
            if phi0 is None:
                raise SweepFailure("solver failure during bisection")
            break
    return phis, results, phi0


def write_fig2_csv(path, phis, results, phi0) -> None:
    lines = ["phi,d2_general,d2_ppt"]
    for phi, (g, p, _) in zip(phis, results):
        lines.append(f"{phi:.10e},{g:.10e},{p:.10e}")
    if phi0 is not None:
        lines.append(f"phi0,{phi0:.10e},{phi0 / np.pi:.10e}")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def cmd_fig2(args) -> int:
    try:
        phis, results, phi0 = fig2_sweep(args.points)
    except SweepFailure as exc:
        sys.stderr.write(f"{exc}\n")
        return 2
    write_fig2_csv(args.out, phis, results, phi0)
    return 0


def cmd_table1(args) -> int:
    rho = _load_density(args.rho)
    h = _load_observable(args.obs)
    rows = ws.self_distance_table(rho, h)
    failed = any(r["diagnostics"].get("status") != "Optimal" for r in rows)
    _emit({"rows": rows})
    return 2 if failed else 0


def cmd_check(args) -> int:
    state = _load_density(args.coupling)
    dd = state.dim
    d = int(round(np.sqrt(dd)))
    if d * d != dd:
        raise _CliError(f"{args.coupling}: dimension {dd} is not bipartite d x d")
    reports = ent.all_coupling_criteria(state)
    _emit(
        {
            "reports": [
                {
                    "criterion": r.criterion,
                    "lhs": r.lhs,
                    "bound": r.bound,
                    "direction": r.direction,
                    "verdict": r.verdict,
                    "margin": r.margin,
                }
                for r in reports
            ]
        }
    )
    return 0


def build_parser() -> _Parser:
    parser = _Parser(prog="qot", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("distance", help="transport cost between two states")
    p.add_argument("--rho", required=True)
    p.add_argument("--sigma", required=True)
    p.add_argument("--obs", required=True, nargs="+")
    p.add_argument("--set", default="general")
    p.add_argument("--convention", default="dpt", choices=["dpt", "gmpc"])
    p.add_argument("--max", action="store_true", help="maximize instead")
    p.set_defaults(func=cmd_distance)

    p = sub.add_parser("fig2", help="general vs PPT sweep of the qubit example")
    p.add_argument("--points", type=int, default=64)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_fig2)

    p = sub.add_parser("table1", help="self-distance table across coupling sets")
    p.add_argument("--rho", required=True)
    p.add_argument("--obs", required=True)
    p.set_defaults(func=cmd_table1)

    p = sub.add_parser("check", help="entanglement criteria on a coupling")
    p.add_argument("--coupling", required=True)
    p.add_argument("--criteria", default="all", choices=["all"])
    p.set_defaults(func=cmd_check)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except (_CliError, QotError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
