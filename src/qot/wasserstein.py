"""Quantum Wasserstein distances and variance-like transport costs.

Squared distances are minimizations of

    (1/2) sum_n Tr[(H_n^T x 1 - 1 x H_n)^2 rho_12]     (DPT)
    (1/2) sum_n Tr[(H_n  x 1 - 1 x H_n)^2 rho_12]      (GMPC)

over a selectable coupling set; the variance-like quantities flip the
optimization to a maximization.  The tilde variants replace the second
moment of the two-body cost by its variance, which differs from the plain
quantity only by a mean-shift correction fixed by the marginals.

Coupling problems are passed to the SDP engine in a reduced form: the
equality constraints are eliminated by parametrizing their null space, so
the solver sees one constraint per free direction and one PSD block per
cone map.  The optimizer of the original problem is then read off the
dual slack and projected back onto the constraint subspace, which makes
the marginals of the returned coupling exact to roundoff.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import coupling as cp
from . import linalg, metrology, sdp
from .errors import DimensionMismatch, InvalidDimension, MarginalMismatch
from .qstates import DensityMatrix, HermitianOperator, as_density, as_operator

DEFAULT_OPTIONS = sdp.SolveOptions()


@dataclass(frozen=True)
class CostSpec:
    """Observables defining the transport cost, plus the convention."""

    observables: tuple
    convention: str = "dpt"

    def __post_init__(self):
        obs = tuple(as_operator(h) for h in self.observables)
        if not obs:
            raise InvalidDimension("need at least one observable")
        if len({h.dim for h in obs}) != 1:
            raise DimensionMismatch("observables must share one dimension")
        if self.convention not in ("dpt", "gmpc"):
            raise InvalidDimension(f"unknown convention {self.convention!r}")
        object.__setattr__(self, "observables", obs)

    @property
    def dim(self) -> int:
        return self.observables[0].dim

    def differences(self) -> list:
        """The two-body differences H_n^(T) x 1 - 1 x H_n, one per
        observable, with the transpose under the DPT convention only."""
        eye = np.eye(self.dim)
        return [
            linalg.kron(h.matrix.T if self.convention == "dpt" else h.matrix, eye)
            - linalg.kron(eye, h.matrix)
            for h in self.observables
        ]

    def cost_operator(self) -> np.ndarray:
        """(1/2) sum_n (H_n^(T) x 1 - 1 x H_n)^2 on the coupling space."""
        d = self.dim
        total = np.zeros((d * d, d * d), dtype=complex)
        for a in self.differences():
            total += a @ a
        return total / 2.0


@dataclass
class TransportResult:
    value: float
    coupling: DensityMatrix | None
    cset: cp.CouplingSet
    convention: str
    exactness: str
    exactness_note: str
    diagnostics: dict = field(default_factory=dict)
    notes: list = field(default_factory=list)


def _mean_shift(rho, sigma, spec: CostSpec) -> float:
    """(1/2) sum_n (<H_n>_rho - <H_n>_sigma)^2, fixed by the marginals."""
    return 0.5 * sum(
        (metrology.expectation(rho, h) - metrology.expectation(sigma, h)) ** 2
        for h in spec.observables
    )


def _product_value(rho, sigma, spec: CostSpec) -> float:
    both = sum(
        metrology.variance(rho, h) + metrology.variance(sigma, h)
        for h in spec.observables
    )
    return 0.5 * both + _mean_shift(rho, sigma, spec)


def _cone_stacks(problem: cp.CouplingProblem, null: np.ndarray, real: bool) -> list:
    """The negated null-space directions through every cone map, as one
    embedded (k, n_b, n_b) stack per cone."""
    directions = linalg.vec_to_herm(null, problem.var_cdim)
    return [linalg.realify(-apply(directions), real) for apply in problem.cone_maps]


def _solve_reduced(problem: cp.CouplingProblem, c_var, options):
    """Minimize <c_var, X> over the coupling problem via the null-space
    dual embedding; returns (X_var, engine result).

    The constraints are eliminated inside ``problem.subspace`` where the
    set has one.  ``problem.eq_rows`` and ``problem.subspace`` are released
    once their real coordinates are taken.

    A problem whose lifted cost is real is solved over real symmetric
    variables (every witness is real).  Complex conjugation maps every
    coupling set onto itself and keeps a real cost, so the average of an
    optimum and its conjugate is a real optimum.  The marginal rows are
    real or imaginary (g and m are real diagonal), and so are the
    class-basis rows of the subspace; only the real ones, on the first
    n(n + 1)/2 coordinates, constrain a real variable."""
    n = problem.var_cdim
    real = not c_var.imag.any()
    keep = n * (n + 1) // 2 if real else n * n

    def full(vec):
        """Coordinates padded with the zero imaginary ones of a real problem."""
        if not real:
            return vec
        out = np.zeros(vec.shape[:-1] + (n * n,))
        out[..., :keep] = vec
        return out

    rows, sub = linalg.herm_to_vec(problem.eq_rows)[:, :keep], problem.subspace
    problem.eq_rows = problem.subspace = None
    if real and sub is not None:
        sub = sub[sub[:, :keep].any(axis=1), :keep]
    bvec = np.asarray(problem.eq_rhs, dtype=float)
    red = rows if sub is None else rows @ sub.T
    s, vt = np.linalg.svd(red, full_matrices=True)[1:]
    if sub is not None:
        vt = vt @ sub  # the right singular vectors in herm_to_vec coordinates
    del red, sub
    rank = int(np.sum(s > 1e-12 * s[0]))
    # The particular solution is the strictly feasible witness, so that the
    # engine's cost, the witness mapped through the cones, is a PD slack
    # at y = 0.
    x0_vec = linalg.herm_to_vec(problem.feasible_witness)[:keep]
    if np.linalg.norm(rows @ x0_vec - bvec) > 1e-9 * (1.0 + np.linalg.norm(bvec)):
        raise MarginalMismatch("marginal constraint system is inconsistent")
    # A copy, so that the SVD factors are freed before the engine runs.
    null = vt[rank:].copy()
    del rows, s, vt
    x0 = linalg.vec_to_herm(full(x0_vec), n)
    if null.shape[0] == 0:
        return x0, None
    c_vec = linalg.herm_to_vec(c_var)[:keep]
    b_hat = -(null @ c_vec)
    cost_blocks = [linalg.realify(apply(x0), real) for apply in problem.cone_maps]
    # The constraint stacks go to the engine with no reference kept here,
    # so it can free them once it holds its own copy.
    res = sdp.solve_blocks(
        cost_blocks, _cone_stacks(problem, full(null), real), b_hat, options
    )
    # The original optimizer is the slack of the reduced problem; project
    # it back onto the constraint subspace to null out dual residual.
    x_raw = linalg.herm_to_vec(linalg.derealify(res.s_blocks[0], real))[:keep]
    x_vec = x0_vec + null.T @ (null @ (x_raw - x0_vec))
    return linalg.vec_to_herm(full(x_vec), n), res


def _clean_coupling(raw: np.ndarray, d: int) -> DensityMatrix:
    eig = linalg.eig_hermitian(raw)
    lam = np.clip(eig.eigenvalues, 0.0, None)
    mat = (eig.eigenvectors * lam) @ eig.eigenvectors.conj().T
    mat /= np.trace(mat).real
    return DensityMatrix(HermitianOperator(linalg.hermitize(mat), (d, d)))


def _optimize(rho, sigma, spec: CostSpec, cset: cp.CouplingSet, sense, options):
    rho, sigma = as_density(rho), as_density(sigma)
    if rho.dim != spec.dim or sigma.dim != spec.dim:
        raise DimensionMismatch("state and observable dimensions differ")
    d = rho.dim
    flag, note = cp.exactness(cset, d)

    if cset.kind == "product":
        value = _product_value(rho, sigma, spec)
        return TransportResult(
            value=value,
            coupling=None,
            cset=cset,
            convention=spec.convention,
            exactness=flag,
            exactness_note=note,
            diagnostics={"status": "Optimal", "gap": 0.0, "iterations": 0},
            notes=["closed-form product coupling; no SDP solved"],
        )

    problem = cp.build(rho, sigma, cset, spec.convention)
    c_var = problem.lift_cost(spec.cost_operator())
    sign = -1.0 if sense == "maximize" else 1.0
    x_var, res = _solve_reduced(problem, sign * c_var, options or DEFAULT_OPTIONS)
    value = float(linalg.frob_inner(c_var, x_var))
    coup = _clean_coupling(problem.extract_coupling(x_var), d)
    marg1, marg2 = cp.marginals(rho, sigma, spec.convention)
    r1 = np.linalg.norm(linalg.partial_trace(coup.matrix, 2, (d, d)) - marg1)
    r2 = np.linalg.norm(linalg.partial_trace(coup.matrix, 1, (d, d)) - marg2)
    # With no free direction the affine set is the witness alone, which
    # is PD in every cone, so it is optimal.
    diag = {
        "status": "Optimal" if res is None else res.status,
        "gap": 0.0 if res is None else res.gap,
        "iterations": 0 if res is None else res.iterations,
        "marginal_residual": float(max(r1, r2)),
        "free_dimensions": 0 if res is None else len(res.y),
    }
    return TransportResult(
        value=value,
        coupling=coup,
        cset=cset,
        convention=spec.convention,
        exactness=flag,
        exactness_note=note,
        diagnostics=diag,
        notes=list(problem.notes),
    )


def distance_squared(rho, sigma, spec: CostSpec, cset: cp.CouplingSet, options=None):
    """Squared Wasserstein distance: minimize the transport cost over the
    chosen coupling set."""
    return _optimize(rho, sigma, spec, cset, "minimize", options)


def wasserstein_variance(rho, sigma, spec: CostSpec, cset: cp.CouplingSet, options=None):
    """Variance-like transport cost: maximize instead of minimizing."""
    return _optimize(rho, sigma, spec, cset, "maximize", options)


def _tilde(result: TransportResult, rho, sigma, spec: CostSpec) -> TransportResult:
    corr = _mean_shift(rho, sigma, spec)
    result.value -= corr
    result.diagnostics["mean_shift_correction"] = corr
    result.notes.append("variance objective: mean-shift correction subtracted")
    return result


def tilde_distance_squared(rho, sigma, spec, cset, options=None):
    """Distance with the second moment replaced by the variance of the
    two-body cost; equals the plain distance minus the mean-shift term."""
    return _tilde(distance_squared(rho, sigma, spec, cset, options), rho, sigma, spec)


def tilde_variance(rho, sigma, spec, cset, options=None):
    return _tilde(
        wasserstein_variance(rho, sigma, spec, cset, options), rho, sigma, spec
    )


# Normalized mode -> (kernel builder, cost convention, coupling set).
_GENERALIZED_MODES = {
    "sepyf": (metrology.roof_kernel_Y, "gmpc", cp.PPT),
    "generalzf": (metrology.general_kernel_Z, "dpt", cp.GENERAL),
}


def generalized_distance_squared(
    rho, sigma, h, f: metrology.MonotoneFunction, mode: str, options=None
):
    """Distance family whose self-distance is a generalized QFI over 4.

    mode "sep_yf":     GMPC cost with observable Y_f o H over the PPT set
    mode "general_zf": DPT cost with observable Z_f o H over general states

    Both kernels are built in the eigenbasis of the first argument; the
    choice matters only for rho != sigma and is recorded in the notes.
    """
    rho = as_density(rho)
    key = mode.replace("_", "").lower()
    if key not in _GENERALIZED_MODES:
        raise InvalidDimension(f"unknown generalized-distance mode {mode!r}")
    kernel, convention, cset = _GENERALIZED_MODES[key]
    observable = metrology.hadamard_transform(rho, kernel(rho, f), h)
    spec = CostSpec((observable,), convention)
    result = distance_squared(rho, sigma, spec, cset, options)
    result.notes.append(f"kernel {f.name} built in the eigenbasis of rho")
    return result


def self_distance_table(rho, h, options=None) -> list:
    """Self-distance across coupling sets for one observable, with the
    matching closed-form identity for each row."""
    rho = as_density(rho)
    h = as_operator(h)
    d = rho.dim
    # Dephasing coupling: sum_k l_k var_k(H), with the variance in the k-th
    # eigenvector read off H in the eigenbasis, sum_l |H_kl|^2 - |H_kk|^2.
    lam, _, h_eig = metrology._spectrum(rho, h)
    h_abs2 = np.abs(h_eig) ** 2
    cc_value = float(np.sum(lam * (h_abs2.sum(axis=1) - np.diag(h_abs2))))

    rows = []
    spec_dpt = CostSpec((h,), "dpt")
    spec_gmpc = CostSpec((h,), "gmpc")

    res = distance_squared(rho, rho, spec_dpt, cp.GENERAL, options)
    rows.append(
        {
            "set": "general",
            "convention": "dpt",
            "value": res.value,
            "closed_form": metrology.skew_information(rho, h),
            "identity": "wigner_yanase_skew_information",
            "diagnostics": res.diagnostics,
        }
    )
    res = distance_squared(rho, rho, spec_gmpc, cp.PPT, options)
    fq4 = metrology.qfi(rho, h) / 4.0
    rows.append(
        {
            "set": "ppt",
            "convention": "gmpc",
            "value": res.value,
            "closed_form": fq4,
            "identity": "qfi_over_4" if d == 2 else "qfi_over_4_upper_bound",
            "diagnostics": res.diagnostics,
        }
    )
    rows.append(
        {
            "set": "rho_cc",
            "convention": "both",
            "value": cc_value,
            "closed_form": cc_value,
            "identity": "eigenbasis_dephasing_coupling",
            "diagnostics": {"status": "Optimal", "gap": 0.0, "iterations": 0},
        }
    )
    rows.append(
        {
            "set": "product",
            "convention": "both",
            "value": metrology.variance(rho, h),
            "closed_form": metrology.variance(rho, h),
            "identity": "variance",
            "diagnostics": {"status": "Optimal", "gap": 0.0, "iterations": 0},
        }
    )
    return rows


def maximal_self_distance(h):
    """State maximizing the self-distance for one observable.

    Returns (value, state) with value = (h_max - h_min)^2 / 4, attained by
    the equal superposition of the extremal eigenvectors.
    """
    op = as_operator(h)
    eig = linalg.eig_hermitian(op.matrix)
    spread = eig.eigenvalues[-1] - eig.eigenvalues[0]
    v = eig.eigenvectors[:, 0] + eig.eigenvectors[:, -1]
    v /= np.linalg.norm(v)
    state = DensityMatrix(HermitianOperator(np.outer(v, v.conj()), op.dims))
    return float(spread**2 / 4.0), state


def pure_mixed_closed_form(rho, sigma, spec: CostSpec) -> float:
    """Distance from a pure state: the coupling is forced to be the
    product, so every variant reduces to the same expression."""
    return _product_value(rho, sigma, spec)
