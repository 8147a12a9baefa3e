import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qot import linalg
from qot.errors import DimensionMismatch, NotHermitian
from qot.qstates import maximally_entangled, pauli

SX = pauli("x").matrix
SY = pauli("y").matrix
SZ = pauli("z").matrix


def random_hermitian(d, rng):
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return linalg.hermitize(g)


class TestEig:
    def test_diagonal(self):
        eig = linalg.eig_hermitian(np.diag([3.0, 1.0, 2.0]))
        assert np.allclose(eig.eigenvalues, [1.0, 2.0, 3.0])

    def test_pauli_x_spectrum(self):
        eig = linalg.eig_hermitian(SX)
        assert np.allclose(eig.eigenvalues, [-1.0, 1.0])
        # eigenvectors are the x-basis states up to phase
        for col, val in zip(eig.eigenvectors.T, eig.eigenvalues):
            assert np.allclose(SX @ col, val * col)

    def test_reconstruction_random(self):
        rng = np.random.default_rng(101)
        a = random_hermitian(4, rng)
        eig = linalg.eig_hermitian(a)
        assert np.linalg.norm(eig.reconstruct() - a) <= 1e-10 * np.linalg.norm(a)
        v = eig.eigenvectors
        assert np.linalg.norm(v.conj().T @ v - np.eye(4)) <= 1e-10

    def test_trusts_its_input(self, hermiticity_checks):
        # Hermiticity is judged on admission; the kernel decomposes the
        # Hermitian part of what it is handed and judges nothing.
        rng = np.random.default_rng(102)
        a = random_hermitian(4, rng)
        assert np.allclose(linalg.eig_hermitian(a).reconstruct(), a)
        linalg.eig_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]))
        assert hermiticity_checks == []

    def test_eigenvalues_ascending(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            w = linalg.eig_hermitian(random_hermitian(5, rng)).eigenvalues
            assert np.all(np.diff(w) >= 0)


class TestKron:
    def test_identity(self):
        assert np.allclose(linalg.kron(np.eye(2), np.eye(2)), np.eye(4))

    def test_diagonal_paulis(self):
        assert np.allclose(linalg.kron(SZ, SZ), np.diag([1, -1, -1, 1]))

    def test_index_formula(self):
        # oracle: (a x b)[i*rb+k, j*cb+l] = a[i,j] b[k,l]
        rng = np.random.default_rng(3)
        a, b = SX, SY
        k = linalg.kron(a, b)
        for i in range(2):
            for j in range(2):
                for kk in range(2):
                    for ll in range(2):
                        assert k[i * 2 + kk, j * 2 + ll] == a[i, j] * b[kk, ll]


class TestPartialTrace:
    def test_product_input(self):
        rng = np.random.default_rng(11)
        rho = random_hermitian(2, rng)
        sig = random_hermitian(3, rng)
        m = linalg.kron(rho, sig)
        assert np.allclose(
            linalg.partial_trace(m, 2, (2, 3)), rho * np.trace(sig)
        )
        assert np.allclose(
            linalg.partial_trace(m, 1, (2, 3)), sig * np.trace(rho)
        )

    def test_maximally_entangled_marginal(self):
        m = maximally_entangled(2).matrix
        assert np.allclose(linalg.partial_trace(m, 1, (2, 2)), np.eye(2) / 2)
        assert np.allclose(linalg.partial_trace(m, 2, (2, 2)), np.eye(2) / 2)

    def test_index_sum_oracle(self):
        rng = np.random.default_rng(12)
        m = random_hermitian(4, rng)
        expected = np.zeros((2, 2), dtype=complex)
        for i in range(2):
            for j in range(2):
                expected[i, j] = sum(m[i * 2 + k, j * 2 + k] for k in range(2))
        assert np.allclose(linalg.partial_trace(m, 2, (2, 2)), expected)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            linalg.partial_trace(np.eye(4), 2, (2, 3))


class TestPartialTranspose:
    def test_product_rule(self):
        rng = np.random.default_rng(13)
        rho = random_hermitian(2, rng)
        sig = random_hermitian(2, rng)
        m = linalg.kron(rho, sig)
        assert np.allclose(
            linalg.partial_transpose(m, 1, (2, 2)), linalg.kron(rho.T, sig)
        )

    def test_maximally_entangled_gives_flip(self):
        # explicit 4x4 construction: PT of |Psi_me><Psi_me| is F/2
        m = maximally_entangled(2).matrix
        pt = linalg.partial_transpose(m, 1, (2, 2))
        flip = np.zeros((4, 4))
        for a in range(2):
            for b in range(2):
                flip[b * 2 + a, a * 2 + b] = 1.0
        assert np.allclose(pt, flip / 2)
        assert np.isclose(np.linalg.eigvalsh(pt)[0], -0.5)

    def test_involution_and_trace(self):
        rng = np.random.default_rng(14)
        m = random_hermitian(6, rng)
        pt = linalg.partial_transpose(m, 1, (2, 3))
        assert np.allclose(linalg.partial_transpose(pt, 1, (2, 3)), m)
        assert np.isclose(np.trace(pt), np.trace(m))
        assert linalg.hermiticity_defect(pt) < 1e-12


class TestHadamard:
    def test_all_ones_identity(self):
        rng = np.random.default_rng(15)
        a = random_hermitian(3, rng)
        assert np.allclose(linalg.hadamard_product(a, np.ones((3, 3))), a)

    def test_disjoint_supports(self):
        assert np.allclose(linalg.hadamard_product(SZ, SX), np.zeros((2, 2)))

    def test_elementwise_oracle(self):
        rng = np.random.default_rng(16)
        a, b = random_hermitian(3, rng), random_hermitian(3, rng)
        h = linalg.hadamard_product(a, b)
        for i in range(3):
            for j in range(3):
                assert abs(h[i, j] - a[i, j] * b[i, j]) < 1e-12

    def test_shape_mismatch(self):
        with pytest.raises(DimensionMismatch):
            linalg.hadamard_product(np.eye(2), np.eye(3))


class TestRealify:
    def test_identity(self):
        assert np.allclose(linalg.realify(np.eye(2)), np.eye(4))

    def test_pauli_y_eigenvalues(self):
        # oracle: eigenvalues of the explicit block matrix
        block = np.block([[SY.real, -SY.imag], [SY.imag, SY.real]])
        expected = np.linalg.eigvalsh(block)
        got = np.linalg.eigvalsh(linalg.realify(SY))
        assert np.allclose(got, expected)
        assert np.allclose(got, [-1, -1, 1, 1])

    def test_real_diagonal(self):
        r = linalg.realify(np.diag([2.0, 3.0]))
        assert np.allclose(r, np.diag([2.0, 3.0, 2.0, 3.0]))

    def test_eigenvalue_doubling_and_psd(self):
        rng = np.random.default_rng(17)
        h = random_hermitian(3, rng)
        wh = np.linalg.eigvalsh(h)
        wr = np.linalg.eigvalsh(linalg.realify(h))
        assert np.allclose(wr, np.sort(np.repeat(wh, 2)))

    def test_derealify_roundtrip(self):
        rng = np.random.default_rng(18)
        h = random_hermitian(4, rng)
        assert np.allclose(linalg.derealify(linalg.realify(h)), h)

    def test_real_embedding_is_the_real_part(self):
        rng = np.random.default_rng(28)
        g = rng.standard_normal((3, 4, 4))
        hs = (g + np.swapaxes(g, 1, 2)).astype(complex)
        r = linalg.realify(hs, real=True)
        assert r.dtype == float and r.tobytes() == hs.real.tobytes()
        back = linalg.derealify(r[0], real=True)
        assert back.dtype == complex and np.array_equal(back, hs[0])
        with pytest.raises(ValueError, match="imaginary"):
            linalg.realify(random_hermitian(3, rng), real=True)


class TestHermVec:
    def test_roundtrip_and_inner_product(self):
        rng = np.random.default_rng(19)
        a, b = random_hermitian(4, rng), random_hermitian(4, rng)
        va, vb = linalg.herm_to_vec(a), linalg.herm_to_vec(b)
        assert np.allclose(linalg.vec_to_herm(va, 4), a)
        assert np.isclose(va @ vb, linalg.frob_inner(a, b))


class TestStacks:
    """Stacked calls equal the per-matrix calls bit for bit."""

    def stack(self, seed, k=5, n=6):
        rng = np.random.default_rng(seed)
        return np.stack([random_hermitian(n, rng) for _ in range(k)])

    def assert_bitwise(self, got, want):
        assert got.shape == want.shape and got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()

    def test_herm_vec(self):
        hs = self.stack(24)
        vecs = linalg.herm_to_vec(hs)
        self.assert_bitwise(vecs, np.stack([linalg.herm_to_vec(h) for h in hs]))
        self.assert_bitwise(
            linalg.vec_to_herm(vecs, 6),
            np.stack([linalg.vec_to_herm(v, 6) for v in vecs]),
        )

    def test_realify(self):
        hs = self.stack(25)
        self.assert_bitwise(
            linalg.realify(hs), np.stack([linalg.realify(h) for h in hs])
        )

    def test_partial_transpose(self):
        hs = self.stack(26)
        for sub in (1, 2):
            self.assert_bitwise(
                linalg.partial_transpose(hs, sub, (2, 3)),
                np.stack([linalg.partial_transpose(h, sub, (2, 3)) for h in hs]),
            )

    def test_kron(self):
        # the broadcast product forms np.kron's entries bit for bit, for a
        # pair of matrices and per matrix of a stack on either side
        rng = np.random.default_rng(29)
        hs, b = self.stack(29, k=3, n=3), rng.standard_normal((2, 4))
        self.assert_bitwise(linalg.kron(hs[0], b), np.kron(hs[0], b))
        self.assert_bitwise(linalg.kron(hs, b), np.stack([np.kron(h, b) for h in hs]))
        self.assert_bitwise(linalg.kron(b, hs), np.stack([np.kron(b, h) for h in hs]))

    def test_realify_judges_each_matrix(self):
        hs = self.stack(27)
        hs[3, 0, 1] += 1e-6  # one matrix of the stack is not Hermitian
        with pytest.raises(NotHermitian, match="stack index 3"):
            linalg.realify(hs)
        linalg.realify(np.delete(hs, 3, axis=0))


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10**6), d1=st.integers(2, 3), d2=st.integers(2, 3))
def test_partial_trace_preserves_trace(seed, d1, d2):
    rng = np.random.default_rng(seed)
    m = random_hermitian(d1 * d2, rng)
    for sub in (1, 2):
        reduced = linalg.partial_trace(m, sub, (d1, d2))
        assert abs(np.trace(reduced) - np.trace(m)) < 1e-12


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10**6))
def test_kron_trace_factorizes(seed):
    rng = np.random.default_rng(seed)
    x, y, a, b = (random_hermitian(2, rng) for _ in range(4))
    lhs = np.trace(linalg.kron(x, y) @ linalg.kron(a, b))
    assert abs(lhs - np.trace(x @ a) * np.trace(y @ b)) < 1e-12


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10**6))
def test_partial_transpose_trace_identity(seed):
    # Tr(X Y) = Tr(X^T1 Y^T1) for bipartite pairs
    rng = np.random.default_rng(seed)
    x, y = random_hermitian(4, rng), random_hermitian(4, rng)
    lhs = np.trace(x @ y)
    rhs = np.trace(
        linalg.partial_transpose(x, 1, (2, 2)) @ linalg.partial_transpose(y, 1, (2, 2))
    )
    assert abs(lhs - rhs) < 1e-12
