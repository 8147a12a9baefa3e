"""Self-contained standard-form semidefinite solver.

Solves  min <C, X>  s.t.  <A_i, X> = b_i,  X >= 0  over real symmetric
block-diagonal matrices, with a certified duality gap.  The algorithm is
an infeasible-start primal-dual interior-point method with Nesterov-Todd
scaling and a Mehrotra predictor-corrector step.  ``solve_blocks`` is the
one entry point; a caller that maximises negates the cost (and the
returned values).

Problem sizes span two orders of magnitude.  A real qubit coupling has
one or two 4x4 blocks and 5 constraints, and the fig2 sweep solves
thousands of these, so the fixed NumPy cost per call dominates there.  A
2:1 extension at d = 3 has five blocks, 36, 18, 54, 36 and 18 wide, and
388 constraints (19 MB).
The engine uses one flat layout: blocks are grouped by size, a group of K
blocks of size n taking K n^2 adjacent coordinates.  The constraints are
one (m, N) matrix, and X, S and every direction one length-N vector with a
(K, n, n) view per group, so A(.), A*(.) and each inner product is one
call, and each eigensolver call, product and step length serves a group.
NT scaling is blockwise, so no iterate changes in exact arithmetic.  Schur
assembly alone runs block by block: with the NT factor W = R R^T, block b
adds B B^T for B = R^T A_b R, one BLAS syrk, so the Schur matrix is
exactly symmetric; over a group B would be an (m, K, n, n) temporary.
Each iteration factors the Schur matrix once and inverts its Cholesky
factor, and a step is accepted when one Cholesky factorisation of the new
X and S succeeds.

Every problem enters through ``linalg.realify``.  Real data enters as its
real part, n x n.  Complex Hermitian data is realified, 2n x 2n, and is
never tied to its doubling symmetry by extra constraints.  Cost,
constraints and the start all commute with the symplectic
involution, so in exact arithmetic the iterates do too.  In floating
point they need not: inside a degenerate optimal face the iterate can
drift away from the symmetric subspace (by about 1e-4 on a 3x3 complex
problem started at X = I).  ``linalg.derealify`` averages the two copies,
so couplings read back through it carry no such drift.

The caller owns consistency: the rows it passes are consistent and admit
a strictly feasible point, as those of every coupling problem do, since
each coupling set contains the product coupling; the engine tests
neither.  Constraints are re-spanned by an orthonormal independent set
read off the SVD of their m x m Gram matrix (``_reduce_constraints``).
The engine holds one copy of them: the symmetrised input is written into
the flat layout once (input stacks with no other reference are freed
then), and the re-spanned rows, one product of the m x m transform with
it, symmetrised in place, replace it.  A(.) and A*(.) use np.einsum,
which the benchmark's smoke test requires; it matches a matrix product
at extension sizes and costs about 1 us more per call at fig2 sizes.
The duality gap is certified as an absolute width, ``gap_tol``, whatever
the scale of the objective.

Every solve starts at y = 0 and X = xi I.  Where the constraints fix
Tr X (the identity lies in their row span), xi = <A(I), b> / |A(I)|^2 is
the least-squares scale of the identity, which meets that trace exactly;
elsewhere, as in every coupling solve, X = I.  S starts at C when C is
safely positive definite, which makes the start dual feasible; coupling
solves pass a strictly feasible coupling, mapped through the cones, as C.
Otherwise S starts at I.

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
iteration cap was reached) and NonFinite (an iterate left the finite
numbers).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np


FEAS_TOL = 1e-9  # relative primal and dual residual of a certified solve


@dataclass(frozen=True)
class SolveOptions:
    gap_tol: float = 8e-9  # absolute width of the certified duality gap
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
    status: str  # Optimal | Stalled | MaxIterations | NonFinite
    iterations: int
    history: list = field(default_factory=list)


def _t(m: np.ndarray) -> np.ndarray:
    """Transpose of every matrix in a stack."""
    return m.swapaxes(-1, -2)


def _sym(m: np.ndarray) -> np.ndarray:
    return (m + _t(m)) / 2


def _norm(v: np.ndarray) -> float:
    """Euclidean norm of a 1-D float vector, by np.linalg.norm's formula."""
    return math.sqrt(v.dot(v))


def _reduce_constraints(a_flat, b):
    """Re-span constraint rows with an orthonormal independent set.

    Returns (rows, b_reduced): ``rows`` has orthonormal rows spanning the
    original row space, and ``b_reduced`` the right-hand sides in them,
    exact for the consistent system the caller guarantees.

    The (m, N) rows A enter through their m x m Gram matrix G = A A^T (one
    syrk).  Its SVD G = U diag(s^2) U^T gives the rank and the transform
    T = U_r diag(1/s_r), and rows = T^T A, b_reduced = T^T b (one gemm).
    The rank keeps the Gram eigenvalues s^2 > 1e-12 s_0^2, i.e. singular
    values of A above 1e-6 of the largest: the Gram's roundoff floor lies
    near 1e-16 s_0^2.  The rows are orthonormal to roundoff times the
    squared condition number of the kept part of A; caller rows are well
    conditioned (coupling rows arrive orthonormal), so that is roundoff.
    """
    u, s2, _ = np.linalg.svd(a_flat @ a_flat.T)
    rank = int(np.sum(s2 > 1e-12 * s2[0]))
    t = u[:, :rank] / np.sqrt(s2[:rank])
    return t.T @ a_flat, t.T @ b


def solve_blocks(
    cost_blocks,
    constraint_blocks,
    b,
    options: SolveOptions | None = None,
) -> BlockSolution:
    """Block-diagonal standard-form engine.

    ``cost_blocks`` is a list of symmetric matrices; ``constraint_blocks``
    holds one (m, n_b, n_b) stack per block, entry p of every stack being
    the block of constraint p; ``b`` the m right-hand sides.

    The dual start is y = 0.  Its slack is C itself when C is safely
    positive definite; the dual residual then stays at roundoff for the
    whole run, so the duality gap reduces to pure complementarity.
    Otherwise the slack starts at the identity.
    """
    opts = options or SolveOptions()
    sizes = [np.shape(c)[0] for c in cost_blocks]
    n_total = sum(sizes)
    b = np.asarray(b, dtype=float)

    # Size groups in order of first appearance, each in input order; block
    # ib takes the n_ib^2 coordinates from start[ib] on, and a group of K
    # blocks of size n the span (lo, hi) of its K n^2 coordinates.
    by_size: dict = {}
    for ib, n in enumerate(sizes):
        by_size.setdefault(n, []).append(ib)
    start, n_cols, spans = [0] * len(sizes), 0, []
    for n, mem in by_size.items():
        lo = n_cols
        for ib in mem:
            start[ib], n_cols = n_cols, n_cols + n * n
        spans.append((lo, n_cols, len(mem), n))
    eyes = [np.eye(n) for *_, n in spans]

    def views(vec):
        return [vec[lo:hi].reshape(k, n, n) for lo, hi, k, n in spans]

    def flat(stacks):
        """One flat vector of fresh group stacks; a single group's is a view."""
        if len(stacks) == 1:
            return stacks[0].reshape(-1)
        return np.concatenate([g.reshape(-1) for g in stacks])

    def cols(mat, ib):
        """Block ib of a flat vector, or of every row of a matrix."""
        n = sizes[ib]
        return mat[..., start[ib] : start[ib] + n * n].reshape(*mat.shape[:-1], n, n)

    # Write the symmetrised input into the flat layout.
    c, a = np.empty(n_cols), np.empty((len(b), n_cols))
    for ib, (cost, blk) in enumerate(zip(cost_blocks, constraint_blocks)):
        cols(c, ib)[...] = _sym(np.asarray(cost, dtype=float))
        blk = np.asarray(blk, dtype=float)
        np.add(blk, _t(blk), out=cols(a, ib))
    del constraint_blocks, blk
    a /= 2

    a, b_red = _reduce_constraints(a, b)
    m = a.shape[0]
    a_blocks = [cols(a, ib) for ib in range(len(sizes))]
    for blk in a_blocks:
        np.add(blk, _t(blk), out=blk)
    a /= 2

    def a_apply(vec):
        return np.einsum("pj,j->p", a, vec)

    def a_adjoint(vec):
        return np.einsum("p,pj->j", vec, a)

    # Interior start: X = xi I.  When the constraints fix the trace, the
    # identity lies in the span of the (orthonormal) rows, |A(I)|^2 =
    # |I|^2, and xi is the least-squares scale <A(I), b> / |A(I)|^2, which
    # meets the trace exactly.  Otherwise, as in coupling solves, X = I.
    s = flat([np.tile(eye, (k, 1, 1)) for eye, (*_, k, _) in zip(eyes, spans)])
    a_eye = a_apply(s)
    xi = 1.0
    if a_eye @ a_eye > (1.0 - 1e-9) * n_total:
        xi = max(float(a_eye @ b_red) / float(a_eye @ a_eye), 1e-6)
    x = xi * s
    y = np.zeros(m)
    floor = min(np.linalg.eigvalsh(cg)[:, 0].min() for cg in views(c))
    scale = max(np.linalg.norm(cg, axis=(1, 2)).max() for cg in views(c))
    if floor > 1e-8 * (1.0 + scale):
        s = c.copy()

    norm_b, norm_c = _norm(b_red), _norm(c)
    history: list = []
    status, it = "MaxIterations", 0

    for it in range(1, opts.max_iters + 1):
        rp = b_red - a_apply(x)
        rd = c - s - a_adjoint(y)
        mu = float(x @ s) / n_total

        # Residuals are measured relative to data and iterate scale: an
        # optimal face at distance O(1/eps) caps the attainable absolute
        # residual near eps/machine precision, not the tolerance.
        pinf = _norm(rp) / (1.0 + norm_b + _norm(x))
        dinf = _norm(rd) / (1.0 + norm_c + _norm(s))
        # Rigorous width of the certificate: the identity
        # p - d = <X,S> - y.rp + <Rd,X> bounds |p - d| by this sum, and
        # unlike p - d itself it cannot benefit from cancellation.
        gap_cert = mu * n_total + abs(float(y @ rp)) + abs(float(rd @ x))
        if opts.collect_history:
            history.append(
                {"primal": float(c @ x), "dual": float(b_red @ y), "pinf": pinf,
                 "dinf": dinf, "gap_cert": gap_cert}
            )
        if pinf <= FEAS_TOL and dinf <= FEAS_TOL and gap_cert <= opts.gap_tol:
            status = "Optimal"
            break

        # Nesterov-Todd scaling per block: W = R R^T with R = X^{1/2} Q L^{-1/4},
        # so that the scaled primal and dual points coincide with diag(sqrt(L)).
        # ``inv_roots`` stacks X^{-1/2} over S^{-1/2} for the step lengths.
        r_fac, r_inv, v_diag, w_sc, inv_roots = [], [], [], [], []
        for xg, sg in zip(views(x), views(s)):
            k = len(xg)
            # X and S are exactly symmetric: every step symmetrises them.
            lam, u = np.linalg.eigh(np.concatenate([xg, sg]))
            sq = np.sqrt(np.maximum(lam, lam[:, -1:] * 1e-16))[:, None, :]
            uk = u[:k]
            xh = (uk * sq[:k]) @ _t(uk)
            inv_root = (u / sq) @ _t(u)
            lam, q = np.linalg.eigh(_sym(xh @ sg @ xh))
            lam = np.maximum(lam, lam[:, -1:] * 1e-16)[:, None, :]
            rf = xh @ (q * lam**-0.25)
            r_fac.append(rf)
            r_inv.append(_t(q * lam**0.25) @ inv_root[:k])
            v_diag.append(np.sqrt(lam[:, 0]))
            w_sc.append(rf @ _t(rf))
            inv_roots.append(inv_root)

        # Schur matrix: <A_p, W A_q W> = <R^T A_p R, R^T A_q R>, so block b
        # adds B B^T with B = R^T A_b R, which NumPy hands to BLAS syrk.
        m_mat = np.zeros((m, m))
        for mem, rg in zip(by_size.values(), r_fac):
            for ib, rk in zip(mem, rg):
                bk = (_t(rk) @ a_blocks[ib] @ rk).reshape(m, -1)
                m_mat += bk @ bk.T
        try:
            chol = np.linalg.cholesky(m_mat)
        except np.linalg.LinAlgError:
            m_mat += np.eye(m) * max(np.trace(m_mat) / m, 1.0) * 1e-13
            chol = np.linalg.cholesky(m_mat)
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

        a_wrw = a_apply(flat([wg @ rdg @ wg for wg, rdg in zip(w_sc, views(rd))]))

        def newton(rc):
            dy = schur_solve(rp - a_apply(rc) + a_wrw)
            ds = rd - a_adjoint(dy)
            groups = zip(views(rc), w_sc, views(ds))
            dx = flat([_sym(rcg - wg @ dsg @ wg) for rcg, wg, dsg in groups])
            # Lift the primal direction back onto the constraint manifold:
            # the rows are orthonormal, so adding A*(rp - A(dx)) restores
            # A(dx) = rp exactly however ill-conditioned the Schur system.
            dx += a_adjoint(rp - a_apply(dx))
            return dx, dy, ds

        def step_lengths(dx, ds):
            # sup { alpha : P + alpha D >= 0 } is -1 / lambda_min of
            # P^{-1/2} D P^{-1/2}, unbounded when that is nonnegative.
            low_p = low_d = np.inf
            for dxg, dsg, ih in zip(views(dx), views(ds), inv_roots):
                g = _sym(ih @ np.concatenate([dxg, dsg]) @ ih)
                low = np.linalg.eigvalsh(g)[:, 0]
                low_p = min(low_p, low[: len(dxg)].min())
                low_d = min(low_d, low[len(dxg) :].min())
            return tuple(
                1.0 if low >= -1e-14 else min(1.0, opts.step_fraction * (-1.0 / low))
                for low in (low_p, low_d)
            )

        # Predictor (affine scaling direction).
        dx_a, dy_a, ds_a = newton(-x)
        ap, ad = step_lengths(dx_a, ds_a)
        mu_aff = float((x + ap * dx_a) @ (s + ad * ds_a)) / n_total
        sigma = min(1.0, max((max(mu_aff, 0.0) / mu) ** 3, 1e-10))

        def corrector(target, second_order):
            # Centring term in the scaled space, where both scaled points
            # equal diag(v): solve the Lyapunov system entrywise.  With
            # ``second_order`` (the predictor pair) it carries Mehrotra's
            # correction, without it the step is a pure centring one.
            rc = []
            for g, (v, rf, ri) in enumerate(zip(v_diag, r_fac, r_inv)):
                rhs_s = eyes[g] * (target - v * v)[:, None, :]
                if second_order is not None:
                    dxt = ri @ views(second_order[0])[g] @ _t(ri)
                    dst = _t(rf) @ views(second_order[1])[g] @ rf
                    rhs_s = rhs_s - _sym(dxt @ dst)
                rhs_s = 2.0 * rhs_s / (v[:, :, None] + v[:, None, :])
                rc.append(_sym(rf @ rhs_s @ _t(rf)))
            return flat(rc)

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
            x_new = flat([_sym(g) for g in views(x + ap * dx)])
            s_new = flat([_sym(g) for g in views(s + ad * ds)])
            try:
                for xg, sg in zip(views(x_new), views(s_new)):
                    np.linalg.cholesky(np.concatenate([xg, sg]))
                break
            except np.linalg.LinAlgError:
                ap *= 0.8
                ad *= 0.8
        x, s = x_new, s_new
        y = y + ad * dy

        if not (np.isfinite(float(b_red @ y)) and np.isfinite(x).all()):
            status = "NonFinite"
            break

    rp = b_red - a_apply(x)
    rd = c - s - a_adjoint(y)
    return BlockSolution(
        x_blocks=[cols(x, ib) for ib in range(len(sizes))],
        s_blocks=[cols(s, ib) for ib in range(len(sizes))],
        y=y,
        primal_value=float(c @ x),
        dual_value=float(b_red @ y),
        gap=float(x @ s) + abs(float(y @ rp)) + abs(float(rd @ x)),
        status=status,
        iterations=it,
        history=history,
    )
