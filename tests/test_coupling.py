import math
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


def squeezed(d, rng, small):
    """A real state with one eigenvalue ``small``, low enough to be
    whitened; real so that the symmetric set admits it under DPT."""
    q, _ = np.linalg.qr(rng.standard_normal((d, d)))
    lam = np.concatenate([[small], rng.uniform(0.5, 1.0, d - 1)])
    return (q * (lam / lam.sum())) @ q.T


def random_herm(n, rng):
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    g = linalg.hermitize(g)
    return g / np.linalg.norm(g)


def ranked_state(d, r, rng):
    """A random state on C^d of rank r."""
    q, _ = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
    lam = np.concatenate([rng.uniform(0.5, 1.0, r), np.zeros(d - r)])
    return (q * (lam / lam.sum())) @ q.conj().T


def adjacent_swaps(r1, r2, n):
    """The transpositions of neighbouring copies on (C^r1)^(x n) x C^r2."""
    f = qs.flip_operator(r1).matrix
    return [
        np.kron(np.kron(np.eye(r1**t), f), np.eye(r1 ** (n - t - 2) * r2))
        for t in range(n - 1)
    ]


WITNESS_SETS = (
    cp.GENERAL,
    cp.PPT,
    cp.CLASSICAL_QUANTUM,
    cp.QUANTUM_CLASSICAL,
    cp.ppt_extension(2),
    cp.ppt_extension(3),
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
        for rho, sigma in pairs:
            for cset in WITNESS_SETS:
                for conv in ("dpt", "gmpc"):
                    problem = cp.build(rho, sigma, cset, conv)
                    w = problem.feasible_witness
                    assert w is not None
                    assert eq_residual(problem, w) < 1e-10, (cset, conv)
                    assert cone_floor(problem, w) > -1e-12, (cset, conv)
                    sub = problem.subspace
                    if sub is not None:  # None: the full space
                        wv = linalg.herm_to_vec(w)
                        off = wv - sub.T @ (sub @ wv)
                        assert np.linalg.norm(off) < 1e-12, (cset, conv)

    def test_dpt_marginal_is_transpose(self):
        rng = np.random.default_rng(62)
        rho, sigma = qs.random_density(2, rng), qs.random_density(2, rng)
        for cset in WITNESS_SETS:
            problem = cp.build(rho, sigma, cset, "dpt")
            # the witness extracts back to rho^T x sigma
            coupling = problem.extract_coupling(problem.feasible_witness)
            assert np.allclose(coupling, np.kron(rho.matrix.T, sigma.matrix)), cset

    @pytest.mark.parametrize("d", [2, 3])
    @pytest.mark.parametrize("convention", ["dpt", "gmpc"])
    @pytest.mark.parametrize("whitened", [False, True], ids=["plain", "whitened"])
    def test_lift_cost_is_adjoint_of_extraction(self, d, convention, whitened):
        # <lift_cost(c), y> = <c, extract_coupling(y)> for every set
        rng = np.random.default_rng(72 + d)
        if whitened:
            rho, sigma = squeezed(d, rng, 2e-3), squeezed(d, rng, 5e-4)
        else:
            rho, sigma = qs.random_density(d, rng), qs.random_density(d, rng)
        c = random_herm(d * d, rng)
        for cset in WITNESS_SETS + (cp.SYMMETRIC_PPT,):
            if d == 3 and cset == cp.ppt_extension(3):
                continue  # refused by the size guard
            if cset is cp.SYMMETRIC_PPT:
                # equal, transpose-invariant marginals
                real = squeezed(d, rng, 2e-3 if whitened else 0.2)
                problem = cp.build(real, real, cset, convention)
            else:
                problem = cp.build(rho, sigma, cset, convention)
            y = random_herm(problem.var_cdim, rng)
            lhs = linalg.frob_inner(problem.lift_cost(c), y)
            rhs = linalg.frob_inner(c, problem.extract_coupling(y))
            assert abs(lhs - rhs) <= 1e-12, (cset, lhs - rhs)

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
        # d = 3, n = 3 needs about 4.9 GiB; the refusal comes from the
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

    @pytest.mark.parametrize(
        "r1,r2,n", [(2, 2, 2), (2, 2, 3), (3, 3, 2), (2, 3, 3), (1, 2, 2)]
    )
    def test_extension_subspace(self, r1, r2, n):
        # The orthonormal permutation-invariant basis spans exactly the
        # null space of the swap rows S X S - X, one per adjacent swap S.
        rng = np.random.default_rng(73)
        d = max(r1, r2)
        rho, sigma = ranked_state(d, r1, rng), ranked_state(d, r2, rng)
        problem = cp.build(rho, sigma, cp.ppt_extension(n), "dpt")
        sub, nc = problem.subspace, problem.var_cdim
        assert nc == r1**n * r2
        assert sub.shape == (r2 * r2 * math.comb(r1 * r1 + n - 1, n), nc * nc)
        assert np.allclose(sub @ sub.T, np.eye(len(sub)), rtol=0, atol=1e-14)
        ops = linalg.vec_to_herm(sub, nc)
        basis = linalg.vec_to_herm(np.eye(nc * nc), nc)
        swap_rows = []
        for swap in adjacent_swaps(r1, r2, n):
            assert np.allclose(swap @ ops @ swap, ops, rtol=0, atol=1e-14)
            swap_rows.append(linalg.herm_to_vec(swap @ basis @ swap - basis))
        _, sv, vt = np.linalg.svd(np.concatenate(swap_rows))
        null = vt[int(np.sum(sv > 1e-10)) :]
        assert null.shape == sub.shape
        assert np.allclose(null.T @ null, sub.T @ sub, rtol=0, atol=1e-12)

    def test_extension_with_pure_first_marginal(self):
        # r1 = 1: every operator on the copies is permutation invariant, so
        # the subspace is the full space, and the pure marginal forces the
        # product coupling
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
        # the subspace keeps the two diagonal 2 x 2 blocks, so the entries
        # coupling distinct eigenvectors vanish in every direction and in
        # the witness
        ops = linalg.vec_to_herm(problem.subspace, 4)
        assert ops.shape == (8, 4, 4)
        assert not np.any(ops[:, :2, 2:]) and not np.any(ops[:, 2:, :2])
        w = problem.feasible_witness
        assert abs(w[0, 2]) < 1e-12 and abs(w[1, 3]) < 1e-12
