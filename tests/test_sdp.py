import tracemalloc
import weakref
from collections import Counter

import numpy as np

from qot import cli, linalg
from qot import coupling as cp
from qot import qstates as qs
from qot import wasserstein as ws
from qot.sdp import SolveOptions, solve_blocks

SX = np.array([[0.0, 1.0], [1.0, 0.0]])
TIGHT = SolveOptions(gap_tol=1e-9)


def solve(cost, constraints, options=None):
    """One PSD block with constraint pairs (A_i, b_i), minimised."""
    return solve_blocks(
        [cost],
        [np.stack([np.asarray(a, dtype=float) for a, _ in constraints])],
        np.array([bv for _, bv in constraints], dtype=float),
        options,
    )


def feasibility_residual(constraints, x):
    return max(abs(np.sum(a * x) - b) for a, b in constraints)


class TestSpecExamples:
    def test_fully_constrained_scalar(self):
        s = solve(np.array([[1.0]]), [(np.array([[1.0]]), 3.0)])
        assert s.status == "Optimal"
        assert abs(s.primal_value - 3.0) < 1e-7

    def test_smallest_eigenvalue_selection(self):
        s = solve(np.diag([1.0, 2.0]), [(np.eye(2), 1.0)])
        assert s.status == "Optimal"
        assert abs(s.primal_value - 1.0) < 1e-7
        assert np.allclose(s.x_blocks[0], np.diag([1.0, 0.0]), atol=1e-6)

    def test_realified_pauli_trace_budget(self):
        # oracle: min Tr(sigma_x M) over PSD trace-2 complex M equals -2 by
        # the eigenvalue argument; cross-check by a grid over the Bloch ball
        grid = np.linspace(-1.0, 1.0, 41)
        best = min(2.0 * x for x in grid)  # Tr(sx (I + x sx + ...)) = 2x
        assert best == -2.0
        s = solve(linalg.realify(SX), [(np.eye(4), 2.0)])
        assert s.status == "Optimal"
        assert abs(s.primal_value - (-2.0)) < 1e-7


class TestInvariants:
    def test_weak_duality_at_feasible_iterates(self):
        opts = SolveOptions(collect_history=True)
        s = solve(np.diag([1.0, 2.0, -1.0]), [(np.eye(3), 1.0)], opts)
        assert s.status == "Optimal"
        for rec in s.history:
            if rec["pinf"] <= 1e-8 and rec["dinf"] <= 1e-8:
                assert rec["dual"] <= rec["primal"] + 1e-10

    def test_cost_scaling(self):
        rng = np.random.default_rng(21)
        c = rng.standard_normal((3, 3))
        c = (c + c.T) / 2
        cons = [(np.eye(3), 1.0)]
        v1 = solve(c, cons, TIGHT).primal_value
        v2 = solve(3.5 * c, cons, TIGHT).primal_value
        assert abs(v2 - 3.5 * v1) < 1e-7

    def test_redundant_constraint(self):
        base = [(np.eye(2), 1.0), (np.diag([1.0, -1.0]), 0.2)]
        v1 = solve(np.diag([1.0, 2.0]), base, TIGHT).primal_value
        v2 = solve(np.diag([1.0, 2.0]), base + [base[0]], TIGHT).primal_value
        assert abs(v1 - v2) <= 1e-7

    def test_maximize_by_negation(self):
        s = solve(-np.diag([1.0, 2.0]), [(np.eye(2), 1.0)])
        primal_value, dual_value = -s.primal_value, -s.dual_value
        assert s.status == "Optimal"
        assert abs(primal_value - 2.0) < 1e-7
        assert dual_value <= primal_value + 1e-7  # flipped back consistently

    def test_constructed_optimum_recovered(self):
        # build a complementary primal-dual pair, so the optimal value is
        # known exactly before the solver runs
        rng = np.random.default_rng(29)
        for _ in range(6):
            n, m = 5, 4
            q, _ = np.linalg.qr(rng.standard_normal((n, n)))
            lam_x = np.concatenate([rng.uniform(0.5, 2.0, 2), np.zeros(n - 2)])
            lam_s = np.concatenate([np.zeros(2), rng.uniform(0.5, 2.0, n - 2)])
            x_star = (q * lam_x) @ q.T
            s_star = (q * lam_s) @ q.T
            y_star = rng.standard_normal(m)
            mats = []
            for _ in range(m):
                a = rng.standard_normal((n, n))
                mats.append((a + a.T) / 2)
            c = s_star + sum(yv * a for yv, a in zip(y_star, mats))
            cons = [(a, float(np.sum(a * x_star))) for a in mats]
            want = float(np.sum(c * x_star))
            s = solve(c, cons, TIGHT)
            assert s.status == "Optimal"
            assert abs(s.primal_value - want) < 1e-6

    def test_random_problems_certified(self):
        rng = np.random.default_rng(22)
        for _ in range(8):
            n = 5
            c = rng.standard_normal((n, n))
            c = (c + c.T) / 2
            x_feas = rng.standard_normal((n, n))
            x_feas = x_feas @ x_feas.T
            cons = [(np.eye(n), float(np.trace(x_feas)))]
            for _ in range(3):
                a = rng.standard_normal((n, n))
                a = (a + a.T) / 2
                cons.append((a, float(np.sum(a * x_feas))))
            s = solve(c, cons, TIGHT)
            assert s.status == "Optimal"
            assert s.gap <= 1e-7
            assert feasibility_residual(cons, s.x_blocks[0]) <= 1e-7
            assert np.linalg.eigvalsh(s.x_blocks[0])[0] >= -1e-8
            assert s.dual_value <= s.primal_value + 1e-8


class TestDegenerateAndInfeasible:
    def test_unique_feasible_point(self):
        # X is forced to diag(1, 0) and the dual optimum is unattained;
        # the default tolerances are still certified
        cons = [(np.diag([1.0, 0.0]), 1.0), (np.diag([0.0, 1.0]), 0.0)]
        s = solve(SX, cons)
        assert s.status == "Optimal"
        assert abs(s.primal_value) < 1e-7

    def test_conic_infeasibility(self):
        # trace one but a diagonal entry beyond it: no coupling problem is
        # infeasible, so the engine carries no certificate for this, but it
        # must not certify it either
        cons = [(np.eye(2), 1.0), (np.diag([1.0, 0.0]), 2.0)]
        s = solve(np.eye(2), cons, SolveOptions(max_iters=80))
        assert s.status != "Optimal"

    def test_collapsed_steps_report_stalled(self):
        # a step fraction this small caps both the Mehrotra and the centring
        # step below the collapse threshold: from the cold start (a cost
        # that is not PD) the engine stops at once and says so, rather than
        # claiming the iteration cap
        opts = SolveOptions(step_fraction=1e-9)
        s = solve(np.diag([1.0, 2.0]) - 3.0 * np.eye(2), [(np.eye(2), 1.0)], opts)
        assert s.status == "Stalled"
        assert s.iterations == 1
        # a PD cost is a dual-feasible start; the capped steps still never
        # certify it
        s = solve(np.diag([1.0, 2.0]), [(np.eye(2), 1.0)], opts)
        assert s.status != "Optimal"


class TestRealifiedStructure:
    def test_doubling_symmetry_preserved(self):
        # cost and constraints are realifications, so the optimum commutes
        # with the symplectic involution and derealifies consistently
        rng = np.random.default_rng(23)
        h = linalg.hermitize(
            rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        )
        g = linalg.hermitize(
            rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        )
        rho0 = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        rho0 = rho0 @ rho0.conj().T
        rho0 /= np.trace(rho0).real
        cons = [
            (linalg.realify(np.eye(3)), 2.0),
            (linalg.realify(g), 2.0 * linalg.frob_inner(g, rho0)),
        ]
        s = solve(linalg.realify(h), cons, TIGHT)
        assert s.status == "Optimal"
        n = 3
        j = np.block(
            [[np.zeros((n, n)), -np.eye(n)], [np.eye(n), np.zeros((n, n))]]
        )
        x = s.x_blocks[0]
        assert np.linalg.norm(j @ x - x @ j) < 1e-6
        assert np.linalg.norm(linalg.realify(linalg.derealify(x)) - x) < 1e-6

    def test_block_engine(self):
        # two blocks with a linking constraint; oracle by elimination
        z = np.zeros((2, 2))
        res = solve_blocks(
            [np.diag([1.0, 2.0]), np.diag([3.0, 1.0])],
            [
                np.stack([np.eye(2), z, np.diag([1.0, 0.0])]),
                np.stack([z, np.eye(2), np.diag([0.0, -1.0])]),
            ],
            np.array([1.0, 1.0, 0.0]),
            options=TIGHT,
        )
        assert res.status == "Optimal"
        assert abs(res.primal_value - 2.0) < 1e-7

    def test_mixed_block_sizes(self):
        # blocks of sizes 2, 3, 2, so the two size groups interleave; each
        # block has trace one and the link reads X1[0,0] + X2[2,2] + X3[0,0]
        # = 3/2.  With a, c, e those three entries the cost is
        # (2 - a) + (1 + c) + (2 + 2e): a = 1, and the remaining 1/2 goes to
        # c, the cheaper of the other two.  Optimum 1 + 3/2 + 2 = 9/2 at
        # X1 = diag(1, 0), diag X2 = (0, 1/2, 1/2) and X3 = diag(0, 1).
        z2, z3 = np.zeros((2, 2)), np.zeros((3, 3))
        costs = [np.diag([1.0, 2.0]), np.diag([3.0, 1.0, 2.0]), np.diag([4.0, 2.0])]
        stacks = [
            [np.eye(2), z2, z2, np.diag([1.0, 0.0])],
            [z3, np.eye(3), z3, np.diag([0.0, 0.0, 1.0])],
            [z2, z2, np.eye(2), np.diag([1.0, 0.0])],
        ]
        res = solve_blocks(
            costs, [np.stack(stk) for stk in stacks], [1.0, 1.0, 1.0, 1.5], TIGHT
        )
        assert res.status == "Optimal"
        assert abs(res.primal_value - 4.5) < 1e-7
        shapes = [(2, 2), (3, 3), (2, 2)]
        assert [x.shape for x in res.x_blocks] == shapes
        assert [s.shape for s in res.s_blocks] == shapes
        assert np.allclose(res.x_blocks[0], np.diag([1.0, 0.0]), atol=1e-6)
        assert np.allclose(np.diag(res.x_blocks[1]), [0.0, 0.5, 0.5], atol=1e-6)
        assert np.allclose(res.x_blocks[2], np.diag([0.0, 1.0]), atol=1e-6)


class TestCallCounts:
    # The engine holds all blocks of one size in one stack, so an iteration
    # makes the same eigensolver calls for the two-block fig2 ppt solve as
    # for the one-block general solve.  A per-block loop doubles the count.
    SPIED = ("eigh", "eigvalsh", "cholesky")

    def fig2_inputs(self, engine_calls):
        rho, sigma = cli.example_states(0.3)
        spec = ws.CostSpec((qs.pauli("z"),), "dpt")
        for cset in (cp.GENERAL, cp.PPT):
            ws.distance_squared(rho, sigma, spec, cset)
        return engine_calls

    def counts(self, monkeypatch, args, kwargs, max_iters):
        counts = Counter()

        def counted(name, fn):
            def wrapper(*a, **k):
                counts[name] += 1
                return fn(*a, **k)

            return wrapper

        with monkeypatch.context() as mp:
            for name in self.SPIED:
                mp.setattr(np.linalg, name, counted(name, getattr(np.linalg, name)))
            options = SolveOptions(max_iters=max_iters)
            res = solve_blocks(*args[:3], options, **kwargs)
        assert res.status == "MaxIterations"
        return counts

    def test_eig_calls_per_iteration_independent_of_block_count(
        self, monkeypatch, engine_calls
    ):
        (gen_args, gen_kw), (ppt_args, ppt_kw) = self.fig2_inputs(engine_calls)
        assert (len(gen_args[0]), len(ppt_args[0])) == (1, 2)
        per_iter = set()
        for args, kwargs in ((gen_args, gen_kw), (ppt_args, ppt_kw)):
            for k in (2, 3, 4):
                before = self.counts(monkeypatch, args, kwargs, k)
                after = self.counts(monkeypatch, args, kwargs, k + 1)
                per_iter.add(
                    tuple(after[name] - before[name] for name in self.SPIED)
                )
        assert len(per_iter) == 1
        eigh, eigvalsh, _ = per_iter.pop()
        assert eigh + eigvalsh <= 5


class TestOneCopy:
    # The engine keeps one (m, N) copy of its constraints, N the summed
    # squared block sizes, and frees input stacks that the caller passed
    # without keeping a reference.

    @staticmethod
    def ext3_inputs(engine_calls):
        rng = np.random.default_rng(72)
        rho, sigma = qs.random_density(2, rng), qs.random_density(2, rng)
        spec = ws.CostSpec((qs.random_hermitian(2, rng),), "dpt")
        ws.distance_squared(rho, sigma, spec, cp.ppt_extension(3))
        ((args, _),) = engine_calls
        return args[:3]

    def test_traced_peak_is_a_few_constraint_matrices(self, engine_calls):
        costs, stacks, b = self.ext3_inputs(engine_calls)
        matrix_bytes = 8 * len(b) * sum(len(c) ** 2 for c in costs)
        tracemalloc.start()
        try:
            # the copies are made inside the traced window and handed over
            # unreferenced (a call through *args or **kwargs would hold them)
            res = solve_blocks(costs, [s.copy() for s in stacks], b)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert res.status == "Optimal"
        assert peak <= 2.5 * matrix_bytes, peak / matrix_bytes

    def test_unreferenced_stacks_freed_before_respan(self, monkeypatch, engine_calls):
        costs, stacks, b = self.ext3_inputs(engine_calls)
        refs, alive = [], []
        svd = np.linalg.svd

        def fresh_stacks():
            out = [stk.copy() for stk in stacks]
            refs.extend(weakref.ref(stk) for stk in out)
            return out

        def checked_svd(*args, **kw):
            alive.append(sum(ref() is not None for ref in refs))
            return svd(*args, **kw)

        monkeypatch.setattr(np.linalg, "svd", checked_svd)
        res = solve_blocks(costs, fresh_stacks(), b)
        assert res.status == "Optimal"
        assert alive == [0]
