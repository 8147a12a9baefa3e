import itertools
import weakref
from dataclasses import replace

import numpy as np
import pytest

from qot import cli
from qot import coupling as cp
from qot import metrology as mt
from qot import qstates as qs
from qot import sdp
from qot import wasserstein as ws
from qot.linalg import derealify, partial_trace

SZ = qs.pauli("z")
SX = qs.pauli("x")
SKEW_EX4 = 1.0 - np.sqrt(3.0) / 2.0


def example4_state():
    x1 = qs.xbasis_state(1)
    return qs.validate_density(0.5 * np.outer(x1, x1.conj()) + 0.25 * np.eye(2))


def dm(mat):
    return qs.validate_density(np.asarray(mat, dtype=complex))


MIXED = dm(np.eye(2) / 2)


class TestWorkedExamples:
    def test_example2_maximally_mixed_self_distance(self):
        res = ws.distance_squared(MIXED, MIXED, ws.CostSpec((SZ,), "gmpc"), cp.PPT)
        assert res.value == pytest.approx(0.0, abs=1e-8)
        # the optimum is attained by a classical coupling diagonal in z
        coupling = res.coupling.matrix
        assert abs(coupling[0, 0] + coupling[3, 3] - 1.0) < 1e-6

    def test_example2_rotated_observable(self):
        res = ws.distance_squared(MIXED, MIXED, ws.CostSpec((SX,), "gmpc"), cp.PPT)
        assert res.value == pytest.approx(0.0, abs=1e-8)

    def test_example3_diagonal_states(self):
        for p in (0.1, 0.3, 0.5, 0.9):
            rho = dm(np.diag([p, 1 - p]))
            res = ws.distance_squared(rho, rho, ws.CostSpec((SZ,), "gmpc"), cp.PPT)
            assert res.value == pytest.approx(0.0, abs=1e-8)

    def test_example4_self_distances(self):
        rho = example4_state()
        spec = ws.CostSpec((SZ,), "dpt")
        general = ws.distance_squared(rho, rho, spec, cp.GENERAL)
        assert general.value == pytest.approx(SKEW_EX4, abs=1e-8)
        restricted = ws.distance_squared(rho, rho, spec, cp.PPT)
        assert restricted.value == pytest.approx(0.25, abs=1e-8)

    def test_example7_pure_self_variance(self):
        rng = np.random.default_rng(71)
        psi = qs.random_pure(2, rng)
        h = qs.random_hermitian(2, rng)
        res = ws.wasserstein_variance(psi, psi, ws.CostSpec((h,), "dpt"), cp.GENERAL)
        assert res.value == pytest.approx(mt.variance(psi, h), abs=1e-8)

    def test_example8_variance(self):
        res = ws.wasserstein_variance(
            MIXED, MIXED, ws.CostSpec((SZ,), "gmpc"), cp.PPT
        )
        assert res.value == pytest.approx(2.0, abs=1e-8)
        # optimum attained by the anticorrelated classical coupling
        coupling = res.coupling.matrix
        assert abs(coupling[1, 1] + coupling[2, 2] - 1.0) < 1e-6

    def test_example0_symmetric_maximum(self):
        res = ws.wasserstein_variance(
            MIXED, MIXED, ws.CostSpec((SZ,), "gmpc"), cp.SYMMETRIC_PPT
        )
        assert res.value == pytest.approx(1.0, abs=1e-8)

    def test_example5_v_vs_mean_of_self(self):
        spec = ws.CostSpec((SZ,), "gmpc")

        def v(r, s):
            return ws.wasserstein_variance(dm(r), dm(s), spec, cp.PPT).value

        cases = [
            (np.diag([1.0, 0.0]), np.diag([0.25, 0.75]), "greater"),
            (np.diag([1.0, 0.0]), np.diag([0.75, 0.25]), "equal"),
            (np.eye(2) / 2, np.array([[0.75, 0.40], [0.40, 0.25]]), "less"),
        ]
        for rho, sigma, relation in cases:
            val = v(rho, sigma)
            avg = 0.5 * (v(rho, rho) + v(sigma, sigma))
            if relation == "greater":
                assert val > avg + 1e-6
            elif relation == "less":
                assert val < avg - 1e-6
            else:
                assert val == pytest.approx(avg, abs=1e-6)


class TestPureStateCollapse:
    def test_all_variants_match_closed_form(self):
        rng = np.random.default_rng(72)
        for _ in range(5):
            psi = qs.random_pure(2, rng)
            sigma = qs.random_density(2, rng)
            h = qs.random_hermitian(2, rng)
            for conv in ("dpt", "gmpc"):
                spec = ws.CostSpec((h,), conv)
                want = ws.pure_mixed_closed_form(psi, sigma, spec)
                for cset in (cp.GENERAL, cp.PPT):
                    assert ws.distance_squared(psi, sigma, spec, cset).value == (
                        pytest.approx(want, abs=1e-6)
                    )
                    assert ws.wasserstein_variance(psi, sigma, spec, cset).value == (
                        pytest.approx(want, abs=1e-6)
                    )

    def test_product_closed_form(self):
        rng = np.random.default_rng(73)
        rho, sigma = qs.random_density(2, rng), qs.random_density(2, rng)
        h = qs.random_hermitian(2, rng)
        spec = ws.CostSpec((h,), "gmpc")
        res = ws.distance_squared(rho, sigma, spec, cp.PRODUCT)
        want = 0.5 * (
            mt.variance(rho, h)
            + mt.variance(sigma, h)
            + (mt.expectation(rho, h) - mt.expectation(sigma, h)) ** 2
        )
        assert res.value == pytest.approx(want, abs=1e-12)
        assert res.coupling is None
        # DPT product value coincides
        res2 = ws.distance_squared(rho, sigma, ws.CostSpec((h,), "dpt"), cp.PRODUCT)
        assert res2.value == pytest.approx(want, abs=1e-12)


class TestOrderingsAndBounds:
    def test_set_ordering_and_v_dominance(self):
        rng = np.random.default_rng(74)
        for _ in range(5):
            rho, sigma = qs.random_density(2, rng), qs.random_density(2, rng)
            h = qs.random_hermitian(2, rng)
            spec = ws.CostSpec((h,), "gmpc")
            d_gen = ws.distance_squared(rho, sigma, spec, cp.GENERAL).value
            d_ppt = ws.distance_squared(rho, sigma, spec, cp.PPT).value
            v_ppt = ws.wasserstein_variance(rho, sigma, spec, cp.PPT).value
            assert d_gen <= d_ppt + 1e-7
            assert v_ppt >= d_ppt - 1e-7

    def test_convention_equality_on_ppt(self):
        rng = np.random.default_rng(75)
        for _ in range(5):
            rho, sigma = qs.random_density(2, rng), qs.random_density(2, rng)
            n_obs = int(rng.integers(1, 3))
            hs = tuple(qs.random_hermitian(2, rng) for _ in range(n_obs))
            a = ws.distance_squared(rho, sigma, ws.CostSpec(hs, "dpt"), cp.PPT).value
            b = ws.distance_squared(rho, sigma, ws.CostSpec(hs, "gmpc"), cp.PPT).value
            assert abs(a - b) <= 1e-6

    def test_qfi_lower_bound(self):
        # D^2_GMPC,PPT >= (sum F_Q[rho] + sum F_Q[sigma]) / 8 at d = 2
        rng = np.random.default_rng(76)
        for _ in range(5):
            rho, sigma = qs.random_density(2, rng), qs.random_density(2, rng)
            h = qs.random_hermitian(2, rng)
            spec = ws.CostSpec((h,), "gmpc")
            val = ws.distance_squared(rho, sigma, spec, cp.PPT).value
            bound = (mt.qfi(rho, h) + mt.qfi(sigma, h)) / 8.0
            assert val >= bound - 1e-6

    def test_self_distance_mean_bound(self):
        rng = np.random.default_rng(77)
        rho, sigma = qs.random_density(2, rng), qs.random_density(2, rng)
        h = qs.random_hermitian(2, rng)
        spec = ws.CostSpec((h,), "gmpc")
        val = ws.distance_squared(rho, sigma, spec, cp.PPT).value
        self_r = ws.distance_squared(rho, rho, spec, cp.PPT).value
        self_s = ws.distance_squared(sigma, sigma, spec, cp.PPT).value
        assert val >= 0.5 * (self_r + self_s) - 1e-6

    def test_gmpc_symmetry(self):
        rng = np.random.default_rng(78)
        rho, sigma = qs.random_density(2, rng), qs.random_density(2, rng)
        h = qs.random_hermitian(2, rng)
        spec = ws.CostSpec((h,), "gmpc")
        for cset in (cp.GENERAL, cp.PPT):
            ab = ws.distance_squared(rho, sigma, spec, cset).value
            ba = ws.distance_squared(sigma, rho, spec, cset).value
            assert abs(ab - ba) <= 1e-6

    def test_variance_sandwich(self):
        rng = np.random.default_rng(79)
        for _ in range(5):
            rho, sigma = qs.random_density(2, rng), qs.random_density(2, rng)
            h = qs.random_hermitian(2, rng)
            spec = ws.CostSpec((h,), "gmpc")
            val = ws.wasserstein_variance(rho, sigma, spec, cp.PPT).value
            lo = 0.5 * (mt.variance(rho, h) + mt.variance(sigma, h))
            hi = (
                mt.variance(rho, h)
                + mt.variance(sigma, h)
                + mt.expectation(rho, h) ** 2
                + mt.expectation(sigma, h) ** 2
            )
            assert lo - 1e-6 <= val <= hi + 1e-6

    def test_extension_monotonicity(self):
        rng = np.random.default_rng(80)
        for _ in range(3):
            rho, sigma = qs.random_density(2, rng), qs.random_density(2, rng)
            spec = ws.CostSpec((qs.random_hermitian(2, rng),), "dpt")
            d_ppt = ws.distance_squared(rho, sigma, spec, cp.PPT).value
            d2 = ws.distance_squared(rho, sigma, spec, cp.ppt_extension(2)).value
            d3 = ws.distance_squared(rho, sigma, spec, cp.ppt_extension(3)).value
            assert d2 >= d_ppt - 1e-7
            assert d3 >= d2 - 1e-7

    def test_classical_quantum_above_ppt(self):
        rng = np.random.default_rng(81)
        for _ in range(3):
            rho, sigma = qs.random_density(2, rng), qs.random_density(2, rng)
            spec = ws.CostSpec((qs.random_hermitian(2, rng),), "gmpc")
            d_ppt = ws.distance_squared(rho, sigma, spec, cp.PPT).value
            for cset in (cp.CLASSICAL_QUANTUM, cp.QUANTUM_CLASSICAL):
                assert (
                    ws.distance_squared(rho, sigma, spec, cset).value
                    >= d_ppt - 1e-7
                )

    def test_coupling_marginals_and_value_consistency(self):
        rng = np.random.default_rng(82)
        rho, sigma = qs.random_density(2, rng), qs.random_density(2, rng)
        h = qs.random_hermitian(2, rng)
        spec = ws.CostSpec((h,), "dpt")
        res = ws.distance_squared(rho, sigma, spec, cp.PPT)
        cm = res.coupling.matrix
        assert np.linalg.norm(partial_trace(cm, 2, (2, 2)) - rho.matrix.T) < 1e-7
        assert np.linalg.norm(partial_trace(cm, 1, (2, 2)) - sigma.matrix) < 1e-7
        direct = np.trace(spec.cost_operator() @ cm).real
        assert res.value == pytest.approx(direct, abs=1e-7)
        assert res.diagnostics["marginal_residual"] < 1e-7


class TestTilde:
    def test_self_distance_unchanged(self):
        rho = example4_state()
        spec = ws.CostSpec((SZ,), "gmpc")
        plain = ws.distance_squared(rho, rho, spec, cp.PPT).value
        tilde = ws.tilde_distance_squared(rho, rho, spec, cp.PPT).value
        assert tilde == pytest.approx(plain, abs=1e-10)

    def test_orthogonal_pure_states(self):
        # |0><0| vs |1><1| with sigma_z over the product coupling:
        # D^2 = 2, correction = 2, tilde = 0
        rho, sigma = dm(np.diag([1.0, 0.0])), dm(np.diag([0.0, 1.0]))
        spec = ws.CostSpec((SZ,), "gmpc")
        plain = ws.distance_squared(rho, sigma, spec, cp.PRODUCT)
        assert plain.value == pytest.approx(2.0, abs=1e-12)
        tilde = ws.tilde_distance_squared(rho, sigma, spec, cp.PRODUCT)
        assert tilde.value == pytest.approx(0.0, abs=1e-12)
        assert tilde.diagnostics["mean_shift_correction"] == pytest.approx(2.0)

    def test_pure_pair_halved_sum(self):
        rng = np.random.default_rng(83)
        psi, phi = qs.random_pure(2, rng), qs.random_pure(2, rng)
        h = qs.random_hermitian(2, rng)
        spec = ws.CostSpec((h,), "gmpc")
        pair = ws.tilde_distance_squared(psi, phi, spec, cp.PPT).value
        self_a = ws.tilde_distance_squared(psi, psi, spec, cp.PPT).value
        self_b = ws.tilde_distance_squared(phi, phi, spec, cp.PPT).value
        assert pair == pytest.approx(0.5 * (self_a + self_b), abs=1e-6)

    def test_tilde_qfi_lower_bound(self):
        rng = np.random.default_rng(84)
        for _ in range(5):
            rho, sigma = qs.random_density(2, rng), qs.random_density(2, rng)
            h = qs.random_hermitian(2, rng)
            spec = ws.CostSpec((h,), "gmpc")
            val = ws.tilde_distance_squared(rho, sigma, spec, cp.PPT).value
            bound = (mt.qfi(rho, h) + mt.qfi(sigma, h)) / 8.0
            assert val >= bound - 1e-6

    def test_tilde_variance_below_variance(self):
        rng = np.random.default_rng(85)
        rho, sigma = qs.random_density(2, rng), qs.random_density(2, rng)
        h = qs.random_hermitian(2, rng)
        spec = ws.CostSpec((h,), "gmpc")
        assert (
            ws.tilde_variance(rho, sigma, spec, cp.PPT).value
            <= ws.wasserstein_variance(rho, sigma, spec, cp.PPT).value + 1e-10
        )


class TestGeneralizedFamily:
    @pytest.mark.parametrize("mode", ["sep_yf", "general_zf"])
    @pytest.mark.parametrize("f", [mt.F_MAX, mt.F_WY], ids=["f_max", "f_wy"])
    def test_self_distance_matches_generalized_qfi(self, mode, f):
        rng = np.random.default_rng(86)
        rho = qs.random_density(2, rng)
        h = qs.random_hermitian(2, rng)
        res = ws.generalized_distance_squared(rho, rho, h, f, mode)
        assert res.value == pytest.approx(mt.gen_qfi(rho, h, f) / 4.0, abs=1e-6)

    def test_fwy_general_mode_is_skew_information(self):
        rng = np.random.default_rng(87)
        rho = qs.random_density(2, rng)
        h = qs.random_hermitian(2, rng)
        res = ws.generalized_distance_squared(rho, rho, h, mt.F_WY, "general_zf")
        assert res.value == pytest.approx(mt.skew_information(rho, h), abs=1e-6)

    def test_kernel_note_recorded(self):
        rho = example4_state()
        res = ws.generalized_distance_squared(rho, rho, SZ, mt.F_MAX, "sep_yf")
        assert any("eigenbasis" in n for n in res.notes)


class TestSelfDistanceTable:
    def test_example4_rows(self):
        rho = example4_state()
        rows = {r["set"]: r for r in ws.self_distance_table(rho, SZ)}
        assert rows["general"]["value"] == pytest.approx(SKEW_EX4, abs=1e-6)
        assert rows["general"]["closed_form"] == pytest.approx(SKEW_EX4, abs=1e-10)
        assert rows["ppt"]["value"] == pytest.approx(0.25, abs=1e-6)
        assert rows["ppt"]["closed_form"] == pytest.approx(0.25, abs=1e-10)
        assert rows["product"]["value"] == pytest.approx(
            mt.variance(rho, SZ), abs=1e-10
        )
        # rho_cc row: sum_k lambda_k var_k from the eigendecomposition
        lam, vecs = np.linalg.eigh(rho.matrix)
        want = sum(
            l * mt.variance(np.outer(v, v.conj()), SZ) for l, v in zip(lam, vecs.T)
        )
        assert rows["rho_cc"]["value"] == pytest.approx(want, abs=1e-10)
        for r in rows.values():
            if r["closed_form"] is not None:
                assert abs(r["value"] - r["closed_form"]) < 1e-6

    def test_pure_input_all_rows_equal(self):
        rng = np.random.default_rng(88)
        psi = qs.random_pure(2, rng)
        h = qs.random_hermitian(2, rng)
        rows = ws.self_distance_table(psi, h)
        var = mt.variance(psi, h)
        for r in rows:
            assert r["value"] == pytest.approx(var, abs=1e-6)

    def test_commuting_observable_zero_rows(self):
        rho = dm(np.diag([0.7, 0.3]))
        rows = {r["set"]: r for r in ws.self_distance_table(rho, SZ)}
        assert rows["general"]["value"] == pytest.approx(0.0, abs=1e-7)
        assert rows["ppt"]["value"] == pytest.approx(0.0, abs=1e-7)


class TestMaximalSelfDistance:
    def test_sigma_z(self):
        value, state = ws.maximal_self_distance(SZ)
        assert value == pytest.approx(1.0)
        # equal superposition of the extremal eigenvectors
        assert mt.variance(state, SZ) == pytest.approx(1.0, abs=1e-10)
        for cset in (cp.GENERAL, cp.PPT):
            res = ws.distance_squared(
                state, state, ws.CostSpec((SZ,), "dpt"), cset
            )
            assert res.value == pytest.approx(value, abs=1e-6)

    def test_spin_one_jz(self):
        _, _, jz = qs.angular_momentum(1.0)
        value, state = ws.maximal_self_distance(jz)
        assert value == pytest.approx(1.0)
        vec = state.matrix.diagonal().real
        assert vec[0] == pytest.approx(0.5) and vec[2] == pytest.approx(0.5)
        res = ws.distance_squared(state, state, ws.CostSpec((jz,), "dpt"), cp.GENERAL)
        assert res.value == pytest.approx(1.0, abs=1e-6)

    def test_identity_observable(self):
        value, _ = ws.maximal_self_distance(np.eye(3))
        assert value == pytest.approx(0.0)


class TestFig2CoincidencePoint:
    # Two phis next to phi0 ~ 0.2946 pi, where the general and PPT optima
    # meet and strict complementarity is lost: the engine's Mehrotra step
    # collapses at the cone boundary there and must recover.
    @pytest.mark.parametrize("phi", [0.9255063312215726, 0.9265243958829272])
    def test_general_solve_certified(self, phi):
        rho, sigma = cli.example_states(phi)
        spec = ws.CostSpec((SZ,), "dpt")
        res = ws.distance_squared(rho, sigma, spec, cp.GENERAL)
        assert res.diagnostics["status"] == "Optimal"
        assert res.diagnostics["gap"] <= 1e-8
        damped = ws.distance_squared(
            rho, sigma, spec, cp.GENERAL,
            options=replace(ws.DEFAULT_OPTIONS, step_fraction=0.95),
        )
        assert damped.diagnostics["status"] == "Optimal"
        assert abs(res.value - damped.value) <= 1e-8
        ppt = ws.distance_squared(rho, sigma, spec, cp.PPT)
        assert res.value <= ppt.value


class TestEngineInput:
    # The engine is handed null-space directions that are orthonormal, and
    # whose couplings in full coordinates are traceless (the trace is fixed
    # by the marginals), mapped isometrically into each cone and realified.
    # Their right-hand sides are consistent, since the product coupling
    # meets every marginal row.  The engine relies on this: the identity is
    # not in their span, so it starts at X = I, re-spanning the rows is a
    # rotation, and it tests no row for consistency.
    SETS = [
        cp.GENERAL,
        cp.PPT,
        cp.CLASSICAL_QUANTUM,
        cp.QUANTUM_CLASSICAL,
        cp.SYMMETRIC_PPT,
        cp.ppt_extension(2),
        cp.ppt_extension(3),
    ]
    # (d, rank of the second marginal), full rank where None.  An id names
    # d and the rank only where they are not 2 and full.
    MARGINALS = [(2, None), (2, 1), (3, None), (3, 2)]
    CASES = [
        pytest.param(
            cset,
            d,
            rank,
            id=cset.label() + f"-d{d}" * (d != 2) + f"-rank{rank}" * bool(rank),
        )
        for (d, rank), cset in itertools.product(MARGINALS, SETS)
        # The size guard refuses ext-3 at d = 3, and a pure second marginal
        # leaves a one-copy coupling no free direction to hand the engine.
        if (d, cset.n_copies) != (3, 3) and (rank, cset.n_copies) != (1, None)
    ]

    @pytest.mark.parametrize("cset, d, rank", CASES)
    def test_constraints_traceless_and_orthonormal(self, cset, d, rank, monkeypatch):
        calls = []
        engine = sdp.solve_blocks

        def spy(cost_blocks, constraint_blocks, b, *args, **kwargs):
            calls.append(constraint_blocks)
            return engine(cost_blocks, constraint_blocks, b, *args, **kwargs)

        monkeypatch.setattr(sdp, "solve_blocks", spy)
        rng = np.random.default_rng(66)
        if cset.kind == "symmetric_ppt":
            rho = sigma = qs.random_density(d, rng, rank)
        else:
            rho, sigma = qs.random_density(d, rng), qs.random_density(d, rng, rank)
        spec = ws.CostSpec((qs.random_hermitian(d, rng),), "gmpc")
        ws.distance_squared(rho, sigma, spec, cset)
        ws.wasserstein_variance(rho, sigma, spec, cset)
        assert len(calls) == 2
        problem = cp.build(rho, sigma, cset, "gmpc")
        for stacks in calls:
            # Tr(g1 x g2 . D) = 0 for every direction D, read off the first
            # cone, the variable itself
            traces = [
                np.trace(problem.extract_coupling(derealify(stk)))
                for stk in stacks[0]
            ]
            assert np.max(np.abs(traces)) <= 1e-12
            rows = np.concatenate([stk.reshape(len(stk), -1) for stk in stacks], 1)
            gram = rows @ rows.T
            want = 2.0 * len(stacks) * np.eye(len(rows))
            assert np.max(np.abs(gram - want)) <= 1e-12

    def test_elimination_freed_before_engine(self, monkeypatch):
        # Only the null-space basis and the particular solution outlive the
        # constraint elimination: the problem's complex rows, its subspace
        # basis, the SVD input and its factors are dead by the time the
        # engine is entered.
        refs, alive = [], []
        svd, engine, build = np.linalg.svd, sdp.solve_blocks, cp.build

        def recorded_build(*args, **kwargs):
            problem = build(*args, **kwargs)
            refs.extend(weakref.ref(x) for x in (problem.eq_rows, problem.subspace))
            return problem

        def recorded_svd(a, *args, **kwargs):
            out = svd(a, *args, **kwargs)
            if not alive:  # the elimination's call, not the engine's
                refs.extend(weakref.ref(x) for x in (a, *out))
            return out

        def checked_engine(*args, **kwargs):
            alive.append(sum(ref() is not None for ref in refs))
            return engine(*args, **kwargs)

        monkeypatch.setattr(cp, "build", recorded_build)
        monkeypatch.setattr(np.linalg, "svd", recorded_svd)
        monkeypatch.setattr(sdp, "solve_blocks", checked_engine)
        rng = np.random.default_rng(67)
        rho, sigma = qs.random_density(2, rng), qs.random_density(2, rng)
        spec = ws.CostSpec((qs.random_hermitian(2, rng),), "dpt")
        res = ws.distance_squared(rho, sigma, spec, cp.ppt_extension(2))
        assert res.diagnostics["status"] == "Optimal"
        assert len(refs) == 6
        assert alive == [0]


def certified(res):
    """The acceptance gates: Optimal, gap <= 1e-8, marginal residual <= 1e-7."""
    diag = res.diagnostics
    return (
        diag["status"] == "Optimal"
        and diag["gap"] <= 1e-8
        and diag["marginal_residual"] <= 1e-7
    )


def with_small_eigenvalue(mat, small):
    """The state ``mat`` with its smallest eigenvalue set to ``small``."""
    lam, v = np.linalg.eigh(mat)
    lam[0] = small
    return qs.validate_density((v * (lam / lam.sum())) @ v.conj().T)


class TestNearSingularMarginals:
    def test_near_pure_qubit_self_distance_is_qfi_over_4(self):
        # PPT is separability on qubits, so the separable self-distance is
        # QFI/4 exactly; near-pure states once certified values above it
        rng = np.random.default_rng(31)
        for _ in range(12):
            rho = qs.random_density(2, rng).matrix
            rho = with_small_eigenvalue(rho, 10 ** rng.uniform(-7, -5))
            h = qs.random_hermitian(2, rng)
            spec = ws.CostSpec((h,), "gmpc")
            want = mt.qfi(rho, h) / 4
            for cset in (cp.PPT, cp.SYMMETRIC_PPT):
                res = ws.distance_squared(rho, rho, spec, cset)
                assert certified(res), (cset, res.diagnostics)
                assert abs(res.value - want) <= res.diagnostics["gap"], cset

    def test_squeezed_sweep_certified(self):
        # Seeded d = 3 pairs: plain, rho squeezed, or both squeezed to a
        # smallest eigenvalue 10^U(-7, -3).  Compressed by the support
        # isometry V alone, the general pairs with rho squeezed fail; by the
        # whitening V diag(lam)^(1/2), the pairs and self rows with both
        # squeezed do.
        rng = np.random.default_rng(11)
        failed = []
        for i in range(12):
            rho, sigma = qs.random_density(3, rng), qs.random_density(3, rng)
            if i % 3:
                rho = with_small_eigenvalue(rho.matrix, 10 ** rng.uniform(-7, -3))
            if i % 3 == 2:
                sigma = with_small_eigenvalue(sigma.matrix, 10 ** rng.uniform(-7, -3))
            h = qs.random_hermitian(3, rng)
            solves = [
                (f, rho, sigma, cset, conv)
                for cset in (cp.GENERAL, cp.PPT, cp.CLASSICAL_QUANTUM)
                for conv in ("dpt", "gmpc")
                for f in (ws.distance_squared, ws.wasserstein_variance)
            ]
            solves += [
                (ws.distance_squared, rho, rho, cset, "gmpc")
                for cset in (cp.GENERAL, cp.PPT, cp.SYMMETRIC_PPT)
            ]
            for f, a, b, cset, conv in solves:
                res = f(a, b, ws.CostSpec((h,), conv), cset)
                if not certified(res):
                    failed.append((i, f.__name__, cset.kind, conv, res.diagnostics))
        assert not failed, failed
