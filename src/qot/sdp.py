"""Self-contained standard-form semidefinite solver.

Solves  min <C, X>  s.t.  <A_i, X> = b_i,  X >= 0  over real symmetric
block-diagonal matrices, with a certified duality gap.  The algorithm is
an infeasible-start primal-dual interior-point method with Nesterov-Todd
scaling and a Mehrotra predictor-corrector step.  ``solve_blocks`` is the
one entry point; a caller that maximises negates the cost (and the
returned values).

Problem sizes span two orders of magnitude.  A qubit coupling has one or
two 8x8 realified blocks and 9 constraints, and the fig2 sweep solves
thousands of these, so the fixed NumPy cost per call dominates there.  At
the other end a 2:1 extension at d = 3 has three 54x54 blocks and 388
constraints.  Constraint data therefore travels as one (m, n_b, n_b)
stack per block, and each iteration factors the m x m Schur matrix once:
its Cholesky factor is inverted, and the predictor, the corrector (or
the centring recovery step) and both refinement passes of each Schur
solve apply that inverse by matrix products.

Complex Hermitian data enters exclusively through ``linalg.realify`` and
is never tied to its doubling symmetry by extra constraints.  Cost,
constraints and the identity start all commute with the symplectic
involution, so in exact arithmetic the iterates do too.  In floating
point they need not: inside a degenerate optimal face the iterate can
drift away from the symmetric subspace (by about 1e-4 on a 3x3 complex
problem started at X = I).  ``linalg.derealify`` averages the two copies,
so couplings read back through it carry no such drift.

Constraints are preprocessed with an SVD: redundant or dependent rows are
re-spanned by an orthonormal independent set, and an inconsistent system
is reported as Infeasible outright.  The duality gap is certified as an
absolute width, ``gap_tol``, whatever the scale of the objective.

At a degenerate optimum (strict complementarity lost, as where two
coupling sets give the same value) the Mehrotra step can collapse: both
step lengths to the cone boundary fall below 1e-8 while the gap is still
above tolerance.  The engine then takes a recovery step from the same
iterate, a pure centring Newton step (sigma = 1, no second-order term)
under the same NT scaling, and carries on.  Only if that step collapses
too does it stop, with status Stalled.  Solves that never collapse take
exactly the Mehrotra iterates.

Status values: Optimal (gap and residuals within tolerance), Stalled
(stopped at the cone boundary before certifying), MaxIterations (the
iteration cap was reached) and Infeasible (inconsistent constraints or a
diverging dual).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class SolveOptions:
    gap_tol: float = 8e-9  # absolute width of the certified duality gap
    feas_tol: float = 1e-9
    max_iters: int = 200
    step_fraction: float = 0.98
    collect_history: bool = False


@dataclass
class BlockSolution:
    """Raw engine output; matrices are per-block lists."""

    x_blocks: list
    s_blocks: list
    y: np.ndarray
    primal_value: float
    dual_value: float
    gap: float
    status: str  # Optimal | Stalled | MaxIterations | Infeasible
    iterations: int
    history: list = field(default_factory=list)


def _sym(m: np.ndarray) -> np.ndarray:
    return (m + m.T) / 2


def _reduce_constraints(a_flat, b, rank_tol=1e-12):
    """Re-span constraint rows with an orthonormal independent set.

    Returns (rows, b_reduced, consistent).  ``rows`` has orthonormal rows
    spanning the original row space; an inconsistent right-hand side makes
    ``consistent`` False.
    """
    u, s, vt = np.linalg.svd(a_flat, full_matrices=False)
    if s.size == 0 or s[0] == 0.0:
        return np.zeros((0, a_flat.shape[1])), np.zeros(0), not np.any(b)
    rank = int(np.sum(s > rank_tol * s[0]))
    rows = vt[:rank]
    b_red = (u[:, :rank].T @ b) / s[:rank]
    x_ls = rows.T @ b_red
    residual = np.linalg.norm(a_flat @ x_ls - b)
    return rows, b_red, residual <= 1e-8 * (1.0 + np.linalg.norm(b))


def _step_to_boundary(p_inv_half: np.ndarray, direction: np.ndarray) -> float:
    """sup { alpha : P + alpha D >= 0 } given P^{-1/2}."""
    g = _sym(p_inv_half @ direction @ p_inv_half)
    lam_min = float(np.linalg.eigvalsh(g)[0])
    if lam_min >= -1e-14:
        return np.inf
    return -1.0 / lam_min


def _spd_roots(m: np.ndarray):
    """(M^{1/2}, M^{-1/2}) for symmetric positive definite M."""
    w, u = np.linalg.eigh(_sym(m))
    w = np.maximum(w, np.max(w) * 1e-16)
    sq = np.sqrt(w)
    return (u * sq) @ u.T, (u / sq) @ u.T


def solve_blocks(
    cost_blocks,
    constraint_blocks,
    b,
    options: SolveOptions | None = None,
    dual_start=None,
) -> BlockSolution:
    """Block-diagonal standard-form engine.

    ``cost_blocks`` is a list of symmetric matrices; ``constraint_blocks``
    holds one (m, n_b, n_b) stack per block, entry p of every stack being
    the block of constraint p; ``b`` the m right-hand sides.

    ``dual_start`` is an optional multiplier vector (in the original
    constraint indexing) whose slack C - A*(y) is strictly positive
    definite; starting there keeps the dual residual at roundoff for the
    whole run, so the duality gap reduces to pure complementarity.  An
    unusable start falls back to the cold one.
    """
    opts = options or SolveOptions()
    c_blocks = [_sym(np.asarray(c, dtype=float)) for c in cost_blocks]
    sizes = [c.shape[0] for c in c_blocks]
    n_total = sum(sizes)
    b = np.asarray(b, dtype=float)
    m_raw = len(b)

    # Symmetrise the stacks and re-span their rows orthonormally.
    a_stk_raw = [np.asarray(blk, dtype=float) for blk in constraint_blocks]
    a_flat_raw = np.concatenate(
        [((a + a.transpose(0, 2, 1)) / 2).reshape(m_raw, -1) for a in a_stk_raw],
        axis=1,
    )
    rows, b_red, consistent = _reduce_constraints(a_flat_raw, b)
    if not consistent:
        return BlockSolution(
            x_blocks=[np.zeros((n, n)) for n in sizes],
            s_blocks=[np.zeros((n, n)) for n in sizes],
            y=np.zeros(0),
            primal_value=np.nan,
            dual_value=np.nan,
            gap=np.nan,
            status="Infeasible",
            iterations=0,
        )
    m = rows.shape[0]
    if m == 0:
        raise ValueError("constraint system is empty after reduction")
    a_stk, a_flat, offset = [], [], 0
    for n in sizes:
        blk = rows[:, offset : offset + n * n].reshape(m, n, n)
        blk = (blk + blk.transpose(0, 2, 1)) / 2
        a_stk.append(blk)
        a_flat.append(blk.reshape(m, -1))
        offset += n * n

    # Interior start: scale X by the first trace constraint, one that is
    # alpha * I on every block, when there is one.  Coupling solves have
    # none (their directions are traceless) and start at X = I.
    xi = 1.0
    alphas = a_stk_raw[0][:, 0, 0]
    is_trace = np.abs(alphas) > 1e-12
    for blk, n in zip(a_stk_raw, sizes):
        scaled_eye = alphas[:, None, None] * np.eye(n)
        is_trace &= np.isclose(blk, scaled_eye, atol=1e-12).all(axis=(1, 2))
    if is_trace.any():
        p = int(np.argmax(is_trace))
        xi = max(b[p] / (alphas[p] * n_total), 1e-6)
    x = [xi * np.eye(n) for n in sizes]
    s = [np.eye(n) for n in sizes]
    y = np.zeros(m)
    if dual_start is not None:
        # re-express the start in the re-spanned constraint coordinates
        y0 = rows @ (a_flat_raw.T @ np.asarray(dual_start, dtype=float))
        s0 = [
            c_blocks[ib] - np.einsum("p,pij->ij", y0, a_stk[ib])
            for ib in range(len(sizes))
        ]
        floors = [np.linalg.eigvalsh(sb)[0] for sb in s0]
        if min(floors) > 1e-8 * (1.0 + max(np.linalg.norm(sb) for sb in s0)):
            y, s = y0, [_sym(sb) for sb in s0]

    def a_apply(mats):
        return sum(
            np.einsum("pij,ij->p", a_stk[ib], mats[ib]) for ib in range(len(sizes))
        )

    def a_adjoint(vec):
        return [np.einsum("p,pij->ij", vec, a_stk[ib]) for ib in range(len(sizes))]

    norm_b = np.linalg.norm(b_red)
    norm_c = np.sqrt(sum(np.sum(c * c) for c in c_blocks))
    history: list = []
    status, it = "MaxIterations", 0

    for it in range(1, opts.max_iters + 1):
        ax = a_apply(x)
        rp = b_red - ax
        ay = a_adjoint(y)
        rd = [c_blocks[ib] - s[ib] - ay[ib] for ib in range(len(sizes))]
        mu = sum(np.sum(x[ib] * s[ib]) for ib in range(len(sizes))) / n_total

        pobj = sum(np.sum(c_blocks[ib] * x[ib]) for ib in range(len(sizes)))
        dobj = float(b_red @ y)
        # Residuals are measured relative to data and iterate scale: an
        # optimal face at distance O(1/eps) caps the attainable absolute
        # residual near eps/machine precision, not the tolerance.
        norm_x = np.sqrt(sum(np.sum(xb * xb) for xb in x))
        norm_s = np.sqrt(sum(np.sum(sb * sb) for sb in s))
        pinf = np.linalg.norm(rp) / (1.0 + norm_b + norm_x)
        dinf = np.sqrt(sum(np.sum(r * r) for r in rd)) / (1.0 + norm_c + norm_s)
        # Rigorous width of the certificate: the identity
        # p - d = <X,S> - y.rp + <Rd,X> bounds |p - d| by this sum, and
        # unlike p - d itself it cannot benefit from cancellation.
        gap_cert = (
            mu * n_total
            + abs(float(y @ rp))
            + abs(sum(np.sum(rd[ib] * x[ib]) for ib in range(len(sizes))))
        )
        if opts.collect_history:
            history.append(
                {"primal": pobj, "dual": dobj, "pinf": pinf,
                 "dinf": dinf, "gap_cert": gap_cert}
            )
        if (
            pinf <= opts.feas_tol
            and dinf <= opts.feas_tol
            and gap_cert <= opts.gap_tol
        ):
            status = "Optimal"
            break

        # Nesterov-Todd scaling per block: W = R R^T with R = X^{1/2} Q L^{-1/4},
        # so that the scaled primal and dual points coincide with diag(sqrt(L)).
        r_fac, r_inv, v_diag, w_sc, x_ih, s_ih = [], [], [], [], [], []
        for ib in range(len(sizes)):
            xh, xih = _spd_roots(x[ib])
            lam, q = np.linalg.eigh(_sym(xh @ s[ib] @ xh))
            lam = np.maximum(lam, np.max(lam) * 1e-16)
            rf = xh @ (q * lam**-0.25)
            ri = (q * lam**0.25).T @ xih
            r_fac.append(rf)
            r_inv.append(ri)
            v_diag.append(np.sqrt(lam))
            w_sc.append(rf @ rf.T)
            x_ih.append(xih)
            _, sih = _spd_roots(s[ib])
            s_ih.append(sih)

        m_mat = np.zeros((m, m))
        for ib in range(len(sizes)):
            wa = np.matmul(w_sc[ib], np.matmul(a_stk[ib], w_sc[ib]))
            m_mat += a_flat[ib] @ wa.reshape(m, -1).T
        try:
            chol = np.linalg.cholesky(_sym(m_mat))
        except np.linalg.LinAlgError:
            m_mat += np.eye(m) * max(np.trace(m_mat) / m, 1.0) * 1e-13
            chol = np.linalg.cholesky(_sym(m_mat))
        # One factorisation per iteration, shared by every Schur solve:
        # M^-1 = U U^T with U = (L^T)^-1.  LU of the upper factor L^T needs
        # no row exchange, so each column of U is a triangular solve.
        u_inv = np.linalg.inv(chol.T)

        def schur_solve(rhs):
            # two steps of iterative refinement; the Schur matrix is badly
            # conditioned near the end of the path
            dy = u_inv @ (u_inv.T @ rhs)
            for _ in range(2):
                dy += u_inv @ (u_inv.T @ (rhs - m_mat @ dy))
            return dy

        def newton(rc):
            rhs = rp - a_apply(rc)
            rhs += a_apply(
                [w_sc[ib] @ rd[ib] @ w_sc[ib] for ib in range(len(sizes))]
            )
            dy = schur_solve(rhs)
            ady = a_adjoint(dy)
            ds = [rd[ib] - ady[ib] for ib in range(len(sizes))]
            dx = [
                _sym(rc[ib] - w_sc[ib] @ ds[ib] @ w_sc[ib])
                for ib in range(len(sizes))
            ]
            # Lift the primal direction back onto the constraint manifold:
            # the rows are orthonormal, so adding A*(rp - A(dx)) restores
            # A(dx) = rp exactly however ill-conditioned the Schur system.
            lift = a_adjoint(rp - a_apply(dx))
            dx = [dx[ib] + lift[ib] for ib in range(len(sizes))]
            return dx, dy, ds

        def step_lengths(dx, ds):
            ap = min(_step_to_boundary(x_ih[ib], dx[ib]) for ib in range(len(sizes)))
            ad = min(_step_to_boundary(s_ih[ib], ds[ib]) for ib in range(len(sizes)))
            return min(1.0, opts.step_fraction * ap), min(1.0, opts.step_fraction * ad)

        # Predictor (affine scaling direction).
        dx_a, dy_a, ds_a = newton([-x[ib] for ib in range(len(sizes))])
        ap, ad = step_lengths(dx_a, ds_a)
        mu_aff = (
            sum(
                np.sum((x[ib] + ap * dx_a[ib]) * (s[ib] + ad * ds_a[ib]))
                for ib in range(len(sizes))
            )
            / n_total
        )
        sigma = min(1.0, max((max(mu_aff, 0.0) / mu) ** 3, 1e-10))

        def corrector(target, second_order):
            # Centring term in the scaled space, where both scaled points
            # equal diag(v): solve the Lyapunov system entrywise.  With
            # ``second_order`` (the predictor pair) it carries Mehrotra's
            # correction, without it the step is a pure centring one.
            rc = []
            for ib in range(len(sizes)):
                v = v_diag[ib]
                rhs_s = target * np.eye(len(v)) - np.diag(v * v)
                if second_order is not None:
                    dxt = r_inv[ib] @ second_order[0][ib] @ r_inv[ib].T
                    dst = r_fac[ib].T @ second_order[1][ib] @ r_fac[ib]
                    rhs_s = rhs_s - _sym(dxt @ dst)
                rhs_s = 2.0 * rhs_s / np.add.outer(v, v)
                rc.append(_sym(r_fac[ib] @ rhs_s @ r_fac[ib].T))
            return rc

        dx, dy, ds = newton(corrector(sigma * mu, (dx_a, ds_a)))
        ap, ad = step_lengths(dx, ds)
        if ap < 1e-8 and ad < 1e-8:
            # Near a degenerate optimum the Mehrotra direction can point
            # straight into the cone boundary.  Recover with a pure
            # centring step (sigma = 1) from the same iterate, which pulls
            # the eigenvalue pairs of X and S back towards mu.
            dx, dy, ds = newton(corrector(mu, None))
            ap, ad = step_lengths(dx, ds)
            if ap < 1e-8 and ad < 1e-8:
                status = "Stalled"
                break
        for _ in range(40):  # guard against roundoff at the cone boundary
            x_new = [_sym(x[ib] + ap * dx[ib]) for ib in range(len(sizes))]
            s_new = [_sym(s[ib] + ad * ds[ib]) for ib in range(len(sizes))]
            if all(np.linalg.eigvalsh(xb)[0] > 0 for xb in x_new) and all(
                np.linalg.eigvalsh(sb)[0] > 0 for sb in s_new
            ):
                break
            ap *= 0.8
            ad *= 0.8
        x, s = x_new, s_new
        y = y + ad * dy

        # Best-effort infeasibility certificate: stalled primal residual
        # with a diverging dual objective.
        dobj_new = float(b_red @ y)
        if (it > 8 and pinf > 1e-6 and dobj_new > 1e8 * (1.0 + abs(pobj))) or not (
            np.isfinite(dobj_new) and all(np.all(np.isfinite(xb)) for xb in x)
        ):
            status = "Infeasible"
            break

    pobj = sum(np.sum(c_blocks[ib] * x[ib]) for ib in range(len(sizes)))
    dobj = float(b_red @ y)
    rp = b_red - a_apply(x)
    ay = a_adjoint(y)
    gap = (
        sum(np.sum(x[ib] * s[ib]) for ib in range(len(sizes)))
        + abs(float(y @ rp))
        + abs(
            sum(
                np.sum((c_blocks[ib] - s[ib] - ay[ib]) * x[ib])
                for ib in range(len(sizes))
            )
        )
    )
    return BlockSolution(
        x_blocks=x,
        s_blocks=s,
        y=y,
        primal_value=pobj,
        dual_value=dobj,
        gap=gap,
        status=status,
        iterations=it,
        history=history,
    )

