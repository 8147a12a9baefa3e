import tracemalloc
import warnings

import numpy as np
import pytest

from qot import coupling as cp
from qot import linalg
from qot import qstates as qs
from qot import wasserstein as ws
from qot.errors import DegenerateEigenbasis, InvalidDimension, MarginalMismatch


def eq_residual(problem, x):
    return max(
        abs(linalg.frob_inner(a, x) - b)
        for a, b in zip(problem.eq_rows, problem.eq_rhs)
    )


def cone_floor(problem, x):
    return min(
        np.linalg.eigvalsh(apply(x))[0] for apply in problem.cone_maps
    )


class TestSetParsing:
    def test_names(self):
        assert cp.coupling_set("general") is cp.GENERAL
        assert cp.coupling_set("PPT") is cp.PPT
        assert cp.coupling_set("separable") is cp.PPT  # alias
        assert cp.coupling_set("ppt_extension_2") == cp.ppt_extension(2)

    def test_unknown(self):
        for name in ("bogus", "ppt_extension_x", "ppt_extension_", "ppt_extension_2.5"):
            with pytest.raises(InvalidDimension):
                cp.coupling_set(name)

    def test_labels(self):
        assert cp.ppt_extension(3).label() == "ppt_extension_3"
        assert cp.GENERAL.label() == "general"


class TestExactness:
    def test_ppt_qubits_exact(self):
        flag, _ = cp.exactness(cp.PPT, 2)
        assert flag == cp.EXACT_SEPARABLE

    def test_ppt_qutrits_bound_only(self):
        flag, _ = cp.exactness(cp.PPT, 3)
        assert flag == cp.LOWER_BOUND_ONLY

    def test_general_not_applicable(self):
        flag, note = cp.exactness(cp.GENERAL, 3)
        assert flag == cp.EXACT_SEPARABLE
        assert "not applicable" in note


class TestBuild:
    def test_product_witness_feasible(self):
        rng = np.random.default_rng(61)
        pairs = [
            (qs.random_density(2, rng), qs.random_density(2, rng)),
            # the first marginal is whitened
            (np.diag([0.995, 0.005]), np.diag([0.6, 0.4])),
        ]
        csets = (cp.GENERAL, cp.PPT, cp.ppt_extension(2), cp.CLASSICAL_QUANTUM)
        for rho, sigma in pairs:
            for cset in csets:
                for conv in ("dpt", "gmpc"):
                    problem = cp.build(rho, sigma, cset, conv)
                    w = problem.feasible_witness
                    assert w is not None
                    assert eq_residual(problem, w) < 1e-10, (cset, conv)
                    assert cone_floor(problem, w) > -1e-12, (cset, conv)

    def test_dpt_marginal_is_transpose(self):
        rng = np.random.default_rng(62)
        rho, sigma = qs.random_density(2, rng), qs.random_density(2, rng)
        problem = cp.build(rho, sigma, cp.GENERAL, "dpt")
        # the witness extracts back to rho^T x sigma
        coupling = problem.extract_coupling(problem.feasible_witness)
        assert np.allclose(
            linalg.partial_trace(coupling, 2, (2, 2)), rho.matrix.T
        )
        assert np.allclose(linalg.partial_trace(coupling, 1, (2, 2)), sigma.matrix)

    def test_product_set_refused(self):
        # the product coupling has a closed form and no constraint data
        rng = np.random.default_rng(60)
        rho, sigma = qs.random_density(2, rng), qs.random_density(2, rng)
        with pytest.raises(InvalidDimension):
            cp.build(rho, sigma, cp.PRODUCT)

    def test_symmetric_requires_equal_marginals(self):
        rng = np.random.default_rng(63)
        rho, sigma = qs.random_density(2, rng), qs.random_density(2, rng)
        with pytest.raises(MarginalMismatch):
            cp.build(rho, sigma, cp.SYMMETRIC_PPT, "gmpc")

    def test_extension_cap(self):
        rho = qs.random_density(2, np.random.default_rng(64))
        with pytest.raises(InvalidDimension):
            cp.build(rho, rho, cp.ppt_extension(4), "gmpc")
        with pytest.raises(InvalidDimension):
            cp.build(rho, rho, cp.ppt_extension(1), "gmpc")

    def test_extension_size_guard_refuses_before_building(self, monkeypatch):
        # d = 3, n = 3 needs about 16 GiB; the refusal comes from the
        # estimate alone, before any constraint data exists
        def fail(_d):
            raise AssertionError("constraint data built for a refused input")

        monkeypatch.setattr(cp, "_herm_basis", fail)
        rho = qs.random_density(3, np.random.default_rng(68))
        with pytest.raises(InvalidDimension, match="budget"):
            cp.build(rho, rho, cp.ppt_extension(3), "gmpc")

    def test_extension_size_guard_admits_benchmark_inputs(self):
        # admitted, and the estimate bounds the traced peak of the build
        # and the solve together
        rng = np.random.default_rng(69)
        for d, n in ((3, 2), (2, 3)):
            need = cp.extension_memory_estimate(d, d, n)
            assert need <= cp.EXTENSION_MEMORY_BUDGET
            rho, sigma = qs.random_density(d, rng), qs.random_density(d, rng)
            problem = cp.build(rho, sigma, cp.ppt_extension(n), "dpt")
            assert problem.var_cdim == d**n * d
            del problem
            spec = ws.CostSpec((qs.random_hermitian(d, rng),), "dpt")
            tracemalloc.start()
            try:
                res = ws.distance_squared(rho, sigma, spec, cp.ppt_extension(n))
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert res.diagnostics["status"] == "Optimal"
            assert peak <= need, (d, n, peak, need)

    def test_extension_with_pure_first_marginal(self):
        # r1 = 1: the flip on one copy is the 1 x 1 identity, so every swap
        # row vanishes, and the pure marginal forces the product coupling
        rng = np.random.default_rng(71)
        psi, sigma = qs.random_pure(2, rng), qs.random_density(2, rng)
        spec = ws.CostSpec((qs.random_hermitian(2, rng),), "gmpc")
        res = ws.distance_squared(psi, sigma, spec, cp.ppt_extension(2))
        assert res.diagnostics["status"] == "Optimal"
        want = ws.pure_mixed_closed_form(psi, sigma, spec)
        assert res.value == pytest.approx(want, abs=1e-7)

    def test_degenerate_eigenbasis_warning(self):
        mixed = qs.validate_density(np.eye(2) / 2)
        with pytest.warns(DegenerateEigenbasis):
            cp.build(mixed, mixed, cp.CLASSICAL_QUANTUM, "gmpc")

    def test_support_compression_note(self):
        rng = np.random.default_rng(65)
        psi = qs.random_pure(2, rng)
        sigma = qs.random_density(2, rng)
        problem = cp.build(psi, sigma, cp.GENERAL, "gmpc")
        assert problem.var_cdim == 2  # 1 x 2 after facial reduction
        assert any("compressed" in note for note in problem.notes)

    def test_extension_variable_size(self):
        rng = np.random.default_rng(66)
        rho, sigma = qs.random_density(2, rng), qs.random_density(2, rng)
        problem = cp.build(rho, sigma, cp.ppt_extension(3), "dpt")
        assert problem.var_cdim == 16
        assert len(problem.cone_maps) == 4  # identity + three cuts

    def test_classical_quantum_block_structure(self):
        rng = np.random.default_rng(67)
        rho, sigma = qs.random_density(2, rng), qs.random_density(2, rng)
        problem = cp.build(rho, sigma, cp.CLASSICAL_QUANTUM, "gmpc")
        # witness satisfies the block-zero rows: entries coupling distinct
        # eigenvectors vanish
        w = problem.feasible_witness
        assert abs(w[0, 2]) < 1e-12 and abs(w[1, 3]) < 1e-12
