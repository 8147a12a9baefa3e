import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qot import cli
from qot import coupling as cp
from qot import qstates as qs
from qot import wasserstein as ws
from qot.errors import (
    InvalidSpin,
    MarginalMismatch,
    NotHermitian,
    NotPSD,
    NotUnitTrace,
)
from qot.linalg import partial_trace
from qot.metrology import variance


def test_pauli_matrices_exact():
    assert np.array_equal(qs.pauli("x").matrix, [[0, 1], [1, 0]])
    assert np.array_equal(qs.pauli("y").matrix, [[0, -1j], [1j, 0]])
    assert np.array_equal(qs.pauli("z").matrix, [[1, 0], [0, -1]])


class TestSuGenerators:
    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_gram_orthogonality(self, d):
        gens = qs.su_generators(d)
        assert len(gens) == d * d - 1
        for i, a in enumerate(gens):
            assert abs(np.trace(a.matrix)) < 1e-14
            for j, b in enumerate(gens):
                want = 2.0 if i == j else 0.0
                assert abs(np.trace(a.matrix @ b.matrix).real - want) < 1e-12

    def test_d2_is_paulis(self):
        for g, axis in zip(qs.su_generators(2), "xyz"):
            assert np.allclose(g.matrix, qs.pauli(axis).matrix)

    @pytest.mark.parametrize("d", [2, 3])
    def test_pure_state_variance_sum(self, d):
        # sum_n var(G_n) = 2(d-1) on pure states
        rng = np.random.default_rng(31)
        gens = qs.su_generators(d)
        for _ in range(20):
            psi = qs.random_pure(d, rng)
            total = sum(variance(psi, g) for g in gens)
            assert abs(total - 2.0 * (d - 1)) < 1e-8

    @pytest.mark.parametrize("d", [2, 3])
    def test_mixed_state_variance_bound(self, d):
        rng = np.random.default_rng(32)
        gens = qs.su_generators(d)
        for _ in range(10):
            rho = qs.random_density(d, rng)
            total = sum(variance(rho, g) for g in gens)
            assert total >= 2.0 * (d - 1) - 1e-8


class TestAngularMomentum:
    def test_spin_half_is_paulis_up_to_basis_order(self):
        # the ladder construction orders the basis by ascending m, so the
        # triple matches the Pauli/2 triple after reversing the basis
        jx, jy, jz = qs.angular_momentum(0.5)
        p = np.array([[0.0, 1.0], [1.0, 0.0]])
        assert np.allclose(p @ jx.matrix @ p, qs.pauli("x").matrix / 2)
        assert np.allclose(p @ jy.matrix @ p, qs.pauli("y").matrix / 2)
        assert np.allclose(p @ jz.matrix @ p, qs.pauli("z").matrix / 2)

    def test_spin_one(self):
        jx, jy, jz = qs.angular_momentum(1.0)
        assert np.allclose(jz.matrix, np.diag([-1.0, 0.0, 1.0]))
        casimir = jx.matrix @ jx.matrix + jy.matrix @ jy.matrix + jz.matrix @ jz.matrix
        assert np.allclose(casimir, 2.0 * np.eye(3), atol=1e-10)
        # ladder-formula oracle for the only nonzero j_+ entries
        assert np.isclose(
            abs((jx.matrix + 1j * jy.matrix)[1, 0]), np.sqrt(2.0)
        )

    @pytest.mark.parametrize("j", [0.5, 1.0, 1.5, 2.5])
    def test_algebra(self, j):
        jx, jy, jz = qs.angular_momentum(j)
        d = int(round(2 * j)) + 1
        comm = jx.matrix @ jy.matrix - jy.matrix @ jx.matrix
        assert np.linalg.norm(comm - 1j * jz.matrix) < 1e-10
        assert abs(np.trace(jz.matrix)) < 1e-12
        casimir = jx.matrix @ jx.matrix + jy.matrix @ jy.matrix + jz.matrix @ jz.matrix
        assert np.linalg.norm(casimir - j * (j + 1) * np.eye(d)) < 1e-10

    def test_invalid_spin(self):
        with pytest.raises(InvalidSpin):
            qs.angular_momentum(0.7)

    @pytest.mark.parametrize("j", [0.5, 1.0, 1.5])
    def test_uncertainty_bound(self, j):
        rng = np.random.default_rng(33)
        ops = qs.angular_momentum(j)
        for _ in range(10):
            rho = qs.random_density(int(round(2 * j)) + 1, rng)
            total = sum(variance(rho, op) for op in ops)
            assert total >= j - 1e-8


class TestStates:
    def test_maximally_entangled_d2(self):
        psi = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)
        assert np.allclose(qs.maximally_entangled(2).matrix, np.outer(psi, psi))

    def test_maximally_entangled_d3(self):
        rho = qs.maximally_entangled(3)
        w = np.linalg.eigvalsh(rho.matrix)
        assert np.isclose(w[-1], 1.0) and np.all(w[:-1] < 1e-12)
        assert np.allclose(partial_trace(rho.matrix, 2, (3, 3)), np.eye(3) / 3)
        assert np.isclose(np.trace(rho.matrix @ rho.matrix).real, 1.0)

    def test_flip_operator(self):
        f = qs.flip_operator(2).matrix
        perm = np.eye(4)[[0, 2, 1, 3]]
        assert np.allclose(f, perm)
        rng = np.random.default_rng(34)
        for d in (2, 3):
            fd = qs.flip_operator(d).matrix
            assert np.allclose(fd @ fd, np.eye(d * d))
            assert np.isclose(np.trace(fd).real, d)
            a = rng.standard_normal(d) + 1j * rng.standard_normal(d)
            b = rng.standard_normal(d) + 1j * rng.standard_normal(d)
            assert np.allclose(fd @ np.kron(a, b), np.kron(b, a))

    def test_symmetric_isometry(self):
        for d in (2, 3):
            v = qs.symmetric_isometry(d)
            assert np.allclose(v.conj().T @ v, np.eye(d * (d + 1) // 2))
            f = qs.flip_operator(d).matrix
            assert np.allclose(f @ v, v)


class TestValidateDensity:
    def test_accepts_maximally_mixed(self):
        qs.validate_density(np.eye(2) / 2)

    def test_rejects_negative(self):
        with pytest.raises(NotPSD):
            qs.validate_density(np.diag([2.0, -1.0]))

    def test_rejects_wrong_trace(self):
        with pytest.raises(NotUnitTrace):
            qs.validate_density(np.diag([0.6, 0.6]))

    def test_rejects_non_hermitian(self):
        with pytest.raises(NotHermitian):
            qs.validate_density(np.array([[0.5, 0.1], [0.0, 0.5]]))
        with pytest.raises(NotHermitian):
            qs.HermitianOperator(np.array([[0.0, 1.0], [0.0, 0.0]]))


class TestOneJudgement:
    # Hermiticity is judged once per matrix, when it becomes a
    # HermitianOperator; the engine boundary (linalg.realify) judges its
    # blocks again, and no kernel in between does.
    def test_admitting_a_state_judges_once(self, hermiticity_checks):
        rho = qs.random_density(3, np.random.default_rng(3)).matrix
        hermiticity_checks.clear()
        qs.validate_density(rho)
        assert hermiticity_checks == [(3, 3)]

    def test_fig2_op(self, hermiticity_checks):
        # The sweep point admits sigma_y and its two states (3); each solve
        # judges its engine blocks, a cost block and a constraint stack per
        # cone, and admits its coupling: 3 for general, 5 for PPT.
        spec = ws.CostSpec((qs.pauli("z"),), "dpt")
        hermiticity_checks.clear()
        rho, sigma = cli.example_states(0.6)
        for cset in (cp.GENERAL, cp.PPT):
            ws.distance_squared(rho, sigma, spec, cset)
        assert len(hermiticity_checks) == 11


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 10**6), d=st.integers(2, 4))
def test_random_density_is_state(seed, d):
    rho = qs.random_density(d, np.random.default_rng(seed))
    assert abs(np.trace(rho.matrix) - 1.0) < 1e-10
    assert np.linalg.eigvalsh(rho.matrix)[0] > -1e-12


def test_qot_seed_env_controls_default_generator(monkeypatch):
    monkeypatch.setenv("QOT_SEED", "12345")
    a = qs.random_density(3, qs.default_rng())
    b = qs.random_density(3, qs.default_rng())
    assert np.allclose(a.matrix, b.matrix)
    monkeypatch.setenv("QOT_SEED", "54321")
    c = qs.random_density(3, qs.default_rng())
    assert not np.allclose(a.matrix, c.matrix)
