import numpy as np
import pytest

from qot import coupling as cp
from qot import qstates as qs
from qot import transport as tp
from qot import wasserstein as ws
from qot.errors import EnsembleMismatch
from qot.linalg import partial_transpose


def unit(v):
    return v / np.linalg.norm(v)


def random_ensemble(d, k, rng, orthogonal=False):
    if orthogonal:
        src = np.linalg.qr(
            rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        )[0][:, :k]
    else:
        src = np.column_stack(
            [unit(rng.standard_normal(d) + 1j * rng.standard_normal(d)) for _ in range(k)]
        )
    tgt = np.column_stack(
        [unit(rng.standard_normal(d) + 1j * rng.standard_normal(d)) for _ in range(k)]
    )
    w = rng.uniform(0.2, 1.0, k)
    return tp.Ensemble(w / w.sum(), src, tgt)


class TestBuildChannel:
    def test_trace_preserving_full_rank(self):
        rng = np.random.default_rng(91)
        for _ in range(10):
            e = random_ensemble(2, 4, rng)
            rho = qs.validate_density(e.source_state())
            ch = tp.build_channel(e, rho)
            assert np.linalg.norm(ch.support_projector() - np.eye(2)) < 1e-8

    def test_transports_rho_to_sigma(self):
        rng = np.random.default_rng(92)
        for _ in range(5):
            e = random_ensemble(3, 5, rng)
            rho = qs.validate_density(e.source_state())
            ch = tp.build_channel(e, rho)
            assert np.linalg.norm(tp.apply(ch, rho.matrix) - e.target_state()) < 1e-7

    def test_orthogonal_sources_give_rank_one_kraus(self):
        rng = np.random.default_rng(93)
        e = random_ensemble(2, 2, rng, orthogonal=True)
        rho = qs.validate_density(e.source_state())
        ch = tp.build_channel(e, rho)
        for k, b in enumerate(ch.operators):
            want = np.outer(e.targets[:, k], e.sources[:, k].conj())
            assert np.linalg.norm(b - want) < 1e-8

    def test_eigen_ensemble_is_dephasing(self):
        rng = np.random.default_rng(94)
        rho = qs.random_density(2, rng)
        lam, vecs = np.linalg.eigh(rho.matrix)
        e = tp.Ensemble(lam, vecs, vecs)
        ch = tp.build_channel(e, rho)
        assert np.linalg.norm(tp.apply(ch, rho.matrix) - rho.matrix) < 1e-8
        # off-diagonal input in the eigenbasis is damped to its diagonal
        x = vecs @ np.array([[0.0, 1.0], [1.0, 0.0]]) @ vecs.conj().T
        out = tp.apply(ch, x)
        assert np.linalg.norm(vecs.conj().T @ out @ vecs - np.zeros((2, 2))) < 1e-8

    def test_example2_coupling_channel(self):
        e = tp.Ensemble(
            np.array([0.5, 0.5]), np.eye(2, dtype=complex), np.eye(2, dtype=complex)
        )
        rho = qs.validate_density(np.eye(2) / 2)
        ch = tp.build_channel(e, rho)
        assert np.linalg.norm(tp.apply(ch, rho.matrix) - rho.matrix) < 1e-10

    def test_reconstruction_mismatch_raises(self):
        rng = np.random.default_rng(95)
        e = random_ensemble(2, 3, rng)
        other = qs.random_density(2, rng)
        with pytest.raises(EnsembleMismatch):
            tp.build_channel(e, other)

    def test_rank_deficient_source_supports(self):
        # ensemble living on a qubit subspace of a qutrit
        src = np.zeros((3, 2), dtype=complex)
        src[0, 0] = 1.0
        src[1, 1] = 1.0
        tgt = np.column_stack([unit(np.array([1.0, 1.0, 0.0])), unit(np.array([0.0, 1.0, 1.0]))])
        e = tp.Ensemble(np.array([0.6, 0.4]), src, tgt.astype(complex))
        rho = qs.validate_density(e.source_state())
        ch = tp.build_channel(e, rho)
        proj = np.diag([1.0, 1.0, 0.0])
        assert np.linalg.norm(ch.support_projector() - proj) < 1e-8
        assert np.linalg.norm(tp.apply(ch, rho.matrix) - e.target_state()) < 1e-7


class TestOneSupport:
    @pytest.mark.parametrize("eps", [5e-11, 5e-13])
    def test_state_compiler_and_channel_share_the_support(self, eps):
        # A cut of its own at 1e-10 once gave the channel rank 2 at
        # eps = 5e-11, where the compiler kept rank 3.
        rho = qs.validate_density(np.diag([0.6, 0.4 - eps, eps]))
        sup = rho.support
        rank = len(sup.eigenvalues)
        assert rank == (3 if eps > qs.SUPPORT_TOL else 2)
        problem = cp.build(rho, rho, cp.GENERAL, "gmpc")
        assert problem.var_cdim == rank**2
        compressed = "variable compressed to marginal supports (2 x 2)"
        assert (compressed in problem.notes) == (rank == 2)
        w = sup.eigenvalues / sup.eigenvalues.sum()
        ch = tp.build_channel(tp.Ensemble(w, sup.eigenvectors, sup.eigenvectors), rho)
        proj = sup.eigenvectors @ sup.eigenvectors.conj().T
        assert np.linalg.norm(ch.support_projector() - proj) < 1e-8


class TestCouplingRoundTrip:
    def test_gmpc_round_trip_orthogonal(self):
        rng = np.random.default_rng(96)
        e = random_ensemble(2, 2, rng, orthogonal=True)
        rho = qs.validate_density(e.source_state())
        ch = tp.build_channel(e, rho)
        rho0 = np.zeros((4, 4), dtype=complex)
        for k, p in enumerate(e.weights):
            a = np.outer(e.sources[:, k], e.sources[:, k].conj())
            rho0 += p * np.kron(a, a)
        got = tp.apply_on_second_factor(ch, rho0, (2, 2))
        assert np.linalg.norm(got - e.coupling()) < 1e-7

    def test_dpt_round_trip_orthogonal(self):
        rng = np.random.default_rng(97)
        e = random_ensemble(2, 2, rng, orthogonal=True)
        rho = qs.validate_density(e.source_state())
        ch = tp.build_channel(e, rho)
        rho0 = np.zeros((4, 4), dtype=complex)
        for k, p in enumerate(e.weights):
            a = np.outer(e.sources[:, k], e.sources[:, k].conj())
            rho0 += p * np.kron(a, a)
        got = tp.apply_on_second_factor(
            ch, partial_transpose(rho0, 1, (2, 2)), (2, 2)
        )
        want = np.zeros((4, 4), dtype=complex)
        for k, p in enumerate(e.weights):
            a = np.outer(e.sources[:, k].conj(), e.sources[:, k])
            b = np.outer(e.targets[:, k], e.targets[:, k].conj())
            want += p * np.kron(a, b)
        assert np.linalg.norm(got - want) < 1e-7

    def test_non_orthogonal_map_is_not_identity(self):
        s0 = np.array([1.0, 0.0], dtype=complex)
        sp = np.array([1.0, 1.0], dtype=complex) / np.sqrt(2)
        e = tp.Ensemble(
            np.array([0.5, 0.5]), np.column_stack([s0, sp]), np.column_stack([s0, sp])
        )
        rho = qs.validate_density(e.source_state())
        ch = tp.build_channel(e, rho)
        x = np.diag([1.0, -1.0]).astype(complex)
        assert np.linalg.norm(tp.apply(ch, x) - x) > 1e-3
        # yet the state itself is preserved
        assert np.linalg.norm(tp.apply(ch, rho.matrix) - rho.matrix) < 1e-8


class TestEnsembleFromCoupling:
    def test_classical_coupling(self):
        rng = np.random.default_rng(98)
        u = np.linalg.qr(
            rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        )[0]
        lam = np.array([0.3, 0.7])
        cc = sum(
            lam[k]
            * np.kron(
                np.outer(u[:, k], u[:, k].conj()), np.outer(u[:, k], u[:, k].conj())
            )
            for k in range(2)
        )
        e = tp.ensemble_from_coupling(cc, (2, 2), "gmpc")
        assert np.linalg.norm(e.coupling() - cc) < 1e-10

    def test_optimal_coupling_of_example2_transports(self):
        mixed = qs.validate_density(np.eye(2) / 2)
        res = ws.distance_squared(
            mixed, mixed, ws.CostSpec((qs.pauli("z"),), "gmpc"), cp.PPT
        )
        e = tp.ensemble_from_coupling(res.coupling, (2, 2), "gmpc")
        ch = tp.build_channel(e, mixed)
        assert np.linalg.norm(tp.apply(ch, mixed.matrix) - mixed.matrix) < 1e-6

    def test_dpt_sources_are_conjugated(self):
        # Under DPT the coupling's first marginal is rho^T, whose
        # eigenvectors are those of rho conjugated: the DPT sources undo
        # the conjugation and rebuild rho, the GMPC ones rebuild rho^T.
        rng = np.random.default_rng(99)
        rho, sigma = qs.random_density(2, rng), qs.random_density(2, rng)
        product = np.kron(rho.matrix.T, sigma.matrix)
        e = tp.ensemble_from_coupling(product, (2, 2), "dpt")
        assert np.linalg.norm(e.source_state() - rho.matrix) < 1e-15
        ch = tp.build_channel(e, rho)
        assert np.linalg.norm(tp.apply(ch, rho.matrix) - sigma.matrix) < 1e-15
        g = tp.ensemble_from_coupling(product, (2, 2), "gmpc")
        miss = np.linalg.norm(g.source_state() - rho.matrix)
        assert miss == pytest.approx(np.linalg.norm(rho.matrix.T - rho.matrix))
        assert miss > 0.3
        with pytest.raises(EnsembleMismatch):
            tp.build_channel(g, rho)

    def test_entangled_coupling_rejected(self):
        me = qs.maximally_entangled(2)
        with pytest.raises(EnsembleMismatch):
            tp.ensemble_from_coupling(me, (2, 2))

    def test_bad_weights_rejected(self):
        with pytest.raises(EnsembleMismatch):
            tp.Ensemble(
                np.array([0.7, 0.7]),
                np.eye(2, dtype=complex),
                np.eye(2, dtype=complex),
            )
