import numpy as np
import pytest

from qot import metrology as mt
from qot import qstates as qs
from qot.errors import IrregularFunction

SZ = qs.pauli("z")
SKEW_EX4 = 1.0 - np.sqrt(3.0) / 2.0  # frozen Example-4 anchor
# A user-defined standard regular function: the power mean with p = 1/4.
F_POW = mt.MonotoneFunction("power_mean", lambda x: ((1.0 + x**0.25) / 2.0) ** 4)


def example4_state():
    x1 = qs.xbasis_state(1)
    return qs.validate_density(0.5 * np.outer(x1, x1.conj()) + 0.25 * np.eye(2))


def x_eigenstate(bit):
    v = qs.xbasis_state(bit)
    return qs.validate_density(np.outer(v, v.conj()))


class TestMoments:
    def test_expectation(self):
        assert mt.expectation(np.eye(2) / 2, SZ) == pytest.approx(0.0)
        assert mt.expectation(np.diag([1.0, 0.0]), SZ) == pytest.approx(1.0)
        assert mt.expectation(x_eigenstate(1), qs.pauli("x")) == pytest.approx(-1.0)

    def test_variance(self):
        assert mt.variance(np.diag([1.0, 0.0]), SZ) == pytest.approx(0.0)
        assert mt.variance(x_eigenstate(1), SZ) == pytest.approx(1.0)
        assert mt.variance(np.eye(2) / 2, SZ) == pytest.approx(1.0)


class TestQfiAndSkew:
    def test_pure_state_equality(self):
        assert mt.qfi(x_eigenstate(1), SZ) == pytest.approx(4.0)

    def test_example4(self):
        rho = example4_state()
        assert mt.qfi(rho, SZ) == pytest.approx(1.0, abs=1e-10)
        assert mt.skew_information(rho, SZ) == pytest.approx(SKEW_EX4, abs=1e-10)

    def test_commuting_observable(self):
        rng = np.random.default_rng(41)
        rho = qs.random_density(3, rng)
        assert mt.qfi(rho, np.eye(3)) == pytest.approx(0.0, abs=1e-10)
        assert mt.skew_information(rho, np.eye(3)) == pytest.approx(0.0, abs=1e-10)

    def test_pure_skew_equals_variance(self):
        # sqrt(rho) = rho on a pure state; square roots of the roundoff
        # eigenvalues of its kernel would move I_WY by up to 1e-7, and the
        # generalized family's kernels, built on those eigenvalues, by up
        # to 4e-7
        rng = np.random.default_rng(42)
        for d in (2, 3, 4):
            for _ in range(40):
                psi = qs.random_pure(d, rng)
                h = qs.random_hermitian(d, rng)
                var = mt.variance(psi, h)
                assert mt.skew_information(psi, h) == pytest.approx(var, abs=1e-12), d
                for f in (mt.F_MAX, mt.F_WY):
                    assert mt.gen_qfi(psi, h, f) == pytest.approx(4 * var, abs=1e-12)
                    assert mt.gen_variance(psi, h, f) == pytest.approx(var, abs=1e-12)

    def test_pseudo_pure_formula(self):
        # F_Q[p psi + (1-p) I/d] = p^2 / (p + 2(1-p)/d) * 4 var_psi(H)
        rng = np.random.default_rng(43)
        for d in (2, 3):
            psi = qs.random_pure(d, rng)
            h = qs.random_hermitian(d, rng)
            for p in (0.3, 0.5, 0.8):
                rho = p * psi.matrix + (1 - p) * np.eye(d) / d
                want = p**2 / (p + 2 * (1 - p) / d) * 4 * mt.variance(psi, h)
                assert mt.qfi(rho, h) == pytest.approx(want, abs=1e-8)

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_ordering_chain(self, d):
        # 4 I_rho(H) <= F_Q <= 4 var on random pairs
        rng = np.random.default_rng(44 + d)
        for _ in range(50):
            rho = qs.random_density(d, rng)
            h = qs.random_hermitian(d, rng)
            skew4 = 4 * mt.skew_information(rho, h)
            fq = mt.qfi(rho, h)
            var4 = 4 * mt.variance(rho, h)
            assert skew4 <= fq + 1e-8
            assert fq <= var4 + 1e-8

    def test_convexity_spot_check(self):
        rng = np.random.default_rng(45)
        for _ in range(10):
            r1, r2 = qs.random_density(2, rng), qs.random_density(2, rng)
            h = qs.random_hermitian(2, rng)
            mix = 0.5 * r1.matrix + 0.5 * r2.matrix
            assert mt.qfi(mix, h) <= 0.5 * mt.qfi(r1, h) + 0.5 * mt.qfi(r2, h) + 1e-8


class TestMonotoneFamily:
    def test_registry_functions_validate(self):
        mt.F_MAX.validate()
        mt.F_WY.validate()
        assert mt.F_MAX.f_zero == pytest.approx(0.5)
        assert mt.F_WY.f_zero == pytest.approx(0.25)

    def test_irregular_rejected(self):
        geo = mt.MonotoneFunction("geometric", lambda x: np.sqrt(x))
        geo.validate()  # standard, but not regular
        with pytest.raises(IrregularFunction):
            geo.require_regular()
        with pytest.raises(IrregularFunction):
            mt.gen_qfi(np.eye(2) / 2, SZ, geo)

    def test_non_standard_rejected(self):
        # x + 0.5 breaks f(1) = 1; (1 + 3x)/4 keeps it but breaks
        # f(t) = t f(1/t), e.g. f(2) = 1.75 while 2 f(1/2) = 1.25.
        for g in (lambda x: x + 0.5, lambda x: (1.0 + 3.0 * x) / 4.0):
            with pytest.raises(IrregularFunction):
                mt.MonotoneFunction("bad", g).validate()

    def test_gen_qfi_reduces_to_known(self):
        rng = np.random.default_rng(46)
        for d in (2, 3):
            rho = qs.random_density(d, rng)
            h = qs.random_hermitian(d, rng)
            assert mt.gen_qfi(rho, h, mt.F_MAX) == pytest.approx(
                mt.qfi(rho, h), abs=1e-10
            )
            assert mt.gen_qfi(rho, h, mt.F_WY) == pytest.approx(
                4 * mt.skew_information(rho, h), abs=1e-8
            )

    def test_gen_qfi_example4(self):
        rho = example4_state()
        assert mt.gen_qfi(rho, SZ, mt.F_MAX) == pytest.approx(1.0, abs=1e-10)
        assert mt.gen_qfi(rho, SZ, mt.F_WY) == pytest.approx(4 * SKEW_EX4, abs=1e-10)

    def test_gen_qfi_pure_state(self):
        rng = np.random.default_rng(47)
        psi = qs.random_pure(2, rng)
        h = qs.random_hermitian(2, rng)
        for f in (mt.F_MAX, mt.F_WY):
            assert mt.gen_qfi(psi, h, f) == pytest.approx(
                4 * mt.variance(psi, h), abs=1e-8
            )

    def test_gen_variance(self):
        # direct evaluation oracle at lambda = (1/2, 1/2): the sum collapses
        # to |H|_F^2 / 2 - <H>^2 for f_max
        assert mt.gen_variance(np.eye(2) / 2, SZ, mt.F_MAX) == pytest.approx(1.0)
        rng = np.random.default_rng(48)
        psi = qs.random_pure(2, rng)
        assert mt.gen_variance(psi, SZ, mt.F_WY) == pytest.approx(
            mt.variance(psi, SZ), abs=1e-8
        )
        rho = qs.random_density(3, rng)
        for f in (mt.F_MAX, mt.F_WY):
            assert mt.gen_variance(rho, np.eye(3), f) == pytest.approx(0.0, abs=1e-10)

    def test_fmax_extremality(self):
        rng = np.random.default_rng(49)
        for _ in range(10):
            rho = qs.random_density(2, rng)
            h = qs.random_hermitian(2, rng)
            assert mt.gen_qfi(rho, h, mt.F_MAX) >= mt.gen_qfi(rho, h, mt.F_WY) - 1e-8
            assert (
                mt.gen_variance(rho, h, mt.F_MAX)
                <= mt.gen_variance(rho, h, mt.F_WY) + 1e-8
            )


class TestConversionKernels:
    def test_same_function_gives_indicator(self):
        rho = np.diag([0.75, 0.25])
        q = mt.conversion_matrix(rho, mt.F_MAX, mt.F_MAX).matrix
        assert q[0, 0] == q[1, 1] == 0.0  # degenerate pairs take the zero branch
        assert q[0, 1] == pytest.approx(1.0)

    def test_fmax_fwy_entry(self):
        # lambda = (3/4, 1/4): entry (sqrt(l1) + sqrt(l2)) / sqrt(l1 + l2)
        rho = np.diag([0.75, 0.25])
        q = mt.conversion_matrix(rho, mt.F_MAX, mt.F_WY).matrix
        want = (np.sqrt(0.75) + np.sqrt(0.25)) / 1.0
        assert q[0, 1].real == pytest.approx(want)
        assert want == pytest.approx((np.sqrt(3) + 1) / 2)
        qr = mt.conversion_matrix(rho, mt.F_WY, mt.F_MAX).matrix
        assert qr[0, 1].real == pytest.approx(1.0 / want)

    def test_kernel_identities(self):
        rng = np.random.default_rng(50)
        rho = qs.random_density(3, rng)
        y_max = mt.roof_kernel_Y(rho, mt.F_MAX).matrix
        z_wy = mt.general_kernel_Z(rho, mt.F_WY).matrix
        off = ~np.eye(3, dtype=bool)
        assert np.allclose(y_max[off], 1.0)
        assert np.allclose(z_wy[off], 1.0)
        y_wy = mt.roof_kernel_Y(rho, mt.F_WY).matrix
        q = mt.conversion_matrix(rho, mt.F_WY, mt.F_MAX).matrix
        assert np.allclose(y_wy, q)
        z_max = mt.general_kernel_Z(rho, mt.F_MAX).matrix
        q2 = mt.conversion_matrix(rho, mt.F_MAX, mt.F_WY).matrix
        assert np.allclose(z_max, q2)

    def test_degenerate_pair_zero_branch(self):
        rho = np.diag([0.4, 0.4, 0.2])
        q = mt.conversion_matrix(rho, mt.F_MAX, mt.F_WY).matrix
        # eigenvalues ascending: (0.2, 0.4, 0.4); the 0.4-cluster is zeroed
        assert q[1, 2] == 0.0 and q[2, 1] == 0.0
        assert q[0, 1] != 0.0

    @pytest.mark.parametrize("d", [2, 3])
    def test_conversion_identity(self, d):
        rng = np.random.default_rng(51 + d)
        F_POW.validate()
        for _ in range(25):
            rho = qs.random_density(d, rng)
            h = qs.random_hermitian(d, rng)
            pairs = [(mt.F_MAX, mt.F_WY), (mt.F_WY, mt.F_MAX), (F_POW, mt.F_MAX)]
            for f1, f2 in pairs:
                q = mt.conversion_matrix(rho, f1, f2)
                h2 = mt.hadamard_transform(rho, q, h)
                assert mt.gen_qfi(rho, h, f1) == pytest.approx(
                    mt.gen_qfi(rho, h2, f2), abs=1e-8
                )
