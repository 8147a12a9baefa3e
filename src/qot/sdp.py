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
constraints.  The engine keeps one stack per block size: X, S, the NT
factors and the directions are (K, n, n) stacks and the constraints one
(K, m, n, n) stack, so each eigensolver call, product and step length
serves all K blocks of a size.  NT scaling is blockwise, so this changes
no iterate in exact arithmetic.  Schur assembly alone runs block by block:
over a whole stack it needs an (m, K, n, n) temporary, which raises the
peak memory of extension solves by a quarter.  Each iteration factors the
m x m Schur matrix once and inverts its Cholesky factor; every Schur
solve applies that inverse by matrix products.  A step is accepted when
one Cholesky factorisation of the new X and S stacks succeeds.

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


def _t(m: np.ndarray) -> np.ndarray:
    """Transpose of every matrix in a stack."""
    return m.swapaxes(-1, -2)


def _sym(m: np.ndarray) -> np.ndarray:
    return (m + _t(m)) / 2


def _dot(us, vs) -> float:
    """Frobenius inner product of two lists of stacks."""
    return sum(float(np.sum(u * v)) for u, v in zip(us, vs))


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
        [_sym(a).reshape(m_raw, -1) for a in a_stk_raw], axis=1
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

    # One stack per distinct block size, in order of first appearance:
    # ``by_size`` maps a size to the indices of its blocks, and ``where``
    # lists (ib, g, k) in input order, block ib being entry k of group g.
    by_size: dict = {}
    for ib, n in enumerate(sizes):
        by_size.setdefault(n, []).append(ib)
    where = sorted(
        (ib, g, k)
        for g, mem in enumerate(by_size.values())
        for k, ib in enumerate(mem)
    )
    c = [np.stack([c_blocks[ib] for ib in mem]) for mem in by_size.values()]
    row_blocks = np.split(rows, np.cumsum([n * n for n in sizes])[:-1], axis=1)
    a = [
        _sym(np.stack([row_blocks[ib] for ib in mem]).reshape(len(mem), m, n, n))
        for n, mem in by_size.items()
    ]
    a_flat = [ag.reshape(len(ag), m, -1) for ag in a]

    def a_apply(mats):
        return sum(np.einsum("kpij,kij->p", ag, mg) for ag, mg in zip(a, mats))

    def a_adjoint(vec):
        return [np.einsum("p,kpij->kij", vec, ag) for ag in a]

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
    s = [np.tile(np.eye(n), (len(mem), 1, 1)) for n, mem in by_size.items()]
    x = [xi * sg for sg in s]
    y = np.zeros(m)
    if dual_start is not None:
        # re-express the start in the re-spanned constraint coordinates
        y0 = rows @ (a_flat_raw.T @ np.asarray(dual_start, dtype=float))
        s0 = [cg - ag for cg, ag in zip(c, a_adjoint(y0))]
        floor = min(np.linalg.eigvalsh(sg)[:, 0].min() for sg in s0)
        scale = max(np.linalg.norm(sg, axis=(1, 2)).max() for sg in s0)
        if floor > 1e-8 * (1.0 + scale):
            y, s = y0, [_sym(sg) for sg in s0]

    norm_b = np.linalg.norm(b_red)
    norm_c = np.sqrt(_dot(c, c))
    history: list = []
    status, it = "MaxIterations", 0

    for it in range(1, opts.max_iters + 1):
        rp = b_red - a_apply(x)
        rd = [cg - sg - ag for cg, sg, ag in zip(c, s, a_adjoint(y))]
        mu = _dot(x, s) / n_total

        pobj = _dot(c, x)
        dobj = float(b_red @ y)
        # Residuals are measured relative to data and iterate scale: an
        # optimal face at distance O(1/eps) caps the attainable absolute
        # residual near eps/machine precision, not the tolerance.
        pinf = np.linalg.norm(rp) / (1.0 + norm_b + np.sqrt(_dot(x, x)))
        dinf = np.sqrt(_dot(rd, rd)) / (1.0 + norm_c + np.sqrt(_dot(s, s)))
        # Rigorous width of the certificate: the identity
        # p - d = <X,S> - y.rp + <Rd,X> bounds |p - d| by this sum, and
        # unlike p - d itself it cannot benefit from cancellation.
        gap_cert = mu * n_total + abs(float(y @ rp)) + abs(_dot(rd, x))
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
        # ``inv_roots`` stacks X^{-1/2} over S^{-1/2} for the step lengths.
        r_fac, r_inv, v_diag, w_sc, inv_roots = [], [], [], [], []
        for xg, sg in zip(x, s):
            k = len(xg)
            lam, u = np.linalg.eigh(_sym(np.concatenate([xg, sg])))
            sq = np.sqrt(np.maximum(lam, lam[:, -1:] * 1e-16))[:, None, :]
            xh = (u[:k] * sq[:k]) @ _t(u[:k])
            inv_root = (u / sq) @ _t(u)
            lam, q = np.linalg.eigh(_sym(xh @ sg @ xh))
            lam = np.maximum(lam, lam[:, -1:] * 1e-16)[:, None, :]
            rf = xh @ (q * lam**-0.25)
            r_fac.append(rf)
            r_inv.append(_t(q * lam**0.25) @ inv_root[:k])
            v_diag.append(np.sqrt(lam[:, 0]))
            w_sc.append(rf @ _t(rf))
            inv_roots.append(inv_root)

        # Schur assembly stays one block at a time: over a whole stack the
        # W A W products would need an (m, K, n, n) temporary.
        m_mat = np.zeros((m, m))
        for ag, afg, wg in zip(a, a_flat, w_sc):
            for ak, afk, wk in zip(ag, afg, wg):
                wa = np.matmul(wk, np.matmul(ak, wk))
                m_mat += afk @ wa.reshape(m, -1).T
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

        a_wrw = a_apply([wg @ rdg @ wg for wg, rdg in zip(w_sc, rd)])

        def newton(rc):
            dy = schur_solve(rp - a_apply(rc) + a_wrw)
            ds = [rdg - ag for rdg, ag in zip(rd, a_adjoint(dy))]
            dx = [_sym(rcg - wg @ dsg @ wg) for rcg, wg, dsg in zip(rc, w_sc, ds)]
            # Lift the primal direction back onto the constraint manifold:
            # the rows are orthonormal, so adding A*(rp - A(dx)) restores
            # A(dx) = rp exactly however ill-conditioned the Schur system.
            dx = [dxg + lg for dxg, lg in zip(dx, a_adjoint(rp - a_apply(dx)))]
            return dx, dy, ds

        def step_lengths(dx, ds):
            # sup { alpha : P + alpha D >= 0 } is -1 / lambda_min of
            # P^{-1/2} D P^{-1/2}, unbounded when that is nonnegative.
            low_p = low_d = np.inf
            for dxg, dsg, ih in zip(dx, ds, inv_roots):
                g = _sym(ih @ np.concatenate([dxg, dsg]) @ ih)
                low = np.linalg.eigvalsh(g)[:, 0]
                low_p = min(low_p, low[: len(dxg)].min())
                low_d = min(low_d, low[len(dxg) :].min())
            return tuple(
                1.0 if low >= -1e-14 else min(1.0, opts.step_fraction * (-1.0 / low))
                for low in (low_p, low_d)
            )

        # Predictor (affine scaling direction).
        dx_a, dy_a, ds_a = newton([-xg for xg in x])
        ap, ad = step_lengths(dx_a, ds_a)
        mu_aff = (
            _dot(
                [xg + ap * dxg for xg, dxg in zip(x, dx_a)],
                [sg + ad * dsg for sg, dsg in zip(s, ds_a)],
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
            for g, (v, rf, ri) in enumerate(zip(v_diag, r_fac, r_inv)):
                rhs_s = np.eye(v.shape[1]) * (target - v * v)[:, None, :]
                if second_order is not None:
                    dxt = ri @ second_order[0][g] @ _t(ri)
                    dst = _t(rf) @ second_order[1][g] @ rf
                    rhs_s = rhs_s - _sym(dxt @ dst)
                rhs_s = 2.0 * rhs_s / (v[:, :, None] + v[:, None, :])
                rc.append(_sym(rf @ rhs_s @ _t(rf)))
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
            x_new = [_sym(xg + ap * dxg) for xg, dxg in zip(x, dx)]
            s_new = [_sym(sg + ad * dsg) for sg, dsg in zip(s, ds)]
            try:
                for xg, sg in zip(x_new, s_new):
                    np.linalg.cholesky(np.concatenate([xg, sg]))
                break
            except np.linalg.LinAlgError:
                ap *= 0.8
                ad *= 0.8
        x, s = x_new, s_new
        y = y + ad * dy

        # Best-effort infeasibility certificate: stalled primal residual
        # with a diverging dual objective.
        dobj_new = float(b_red @ y)
        if (it > 8 and pinf > 1e-6 and dobj_new > 1e8 * (1.0 + abs(pobj))) or not (
            np.isfinite(dobj_new) and all(np.all(np.isfinite(xg)) for xg in x)
        ):
            status = "Infeasible"
            break

    rp = b_red - a_apply(x)
    rd = [cg - sg - ag for cg, sg, ag in zip(c, s, a_adjoint(y))]
    return BlockSolution(
        x_blocks=[x[g][k] for _, g, k in where],
        s_blocks=[s[g][k] for _, g, k in where],
        y=y,
        primal_value=_dot(c, x),
        dual_value=float(b_red @ y),
        gap=_dot(x, s) + abs(float(y @ rp)) + abs(_dot(rd, x)),
        status=status,
        iterations=it,
        history=history,
    )
