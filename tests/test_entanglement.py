import numpy as np
import pytest

from qot import coupling as cp
from qot import entanglement as ent
from qot import qstates as qs
from qot import wasserstein as ws
from qot.errors import ExactnessWarning
from qot.linalg import partial_transpose


def pure(vec):
    v = np.asarray(vec, dtype=complex)
    v = v / np.linalg.norm(v)
    return np.outer(v, v.conj())


SINGLET = pure([0, 1, -1, 0])
TRIPLET = pure([0, 1, 1, 0])


def random_ppt_two_qubit(rng):
    while True:
        rho = qs.random_density(4, rng).matrix
        if np.linalg.eigvalsh(partial_transpose(rho, 1, (2, 2)))[0] >= 1e-10:
            return rho


class TestSuCriterion:
    def test_maximally_entangled_violates(self):
        for d in (2, 3):
            rep = ent.su_criterion(qs.maximally_entangled(d))
            assert rep.lhs == pytest.approx(0.0, abs=1e-10)
            assert rep.bound == 4.0 * (d - 1)
            assert rep.verdict == "violated"

    def test_transposed_product_saturates(self):
        rng = np.random.default_rng(111)
        for d in (2, 3):
            psi = qs.random_pure(d, rng).matrix
            state = np.kron(psi.T, psi)
            rep = ent.su_criterion(state)
            assert rep.lhs == pytest.approx(4.0 * (d - 1), abs=1e-10)
            assert rep.verdict == "satisfied"

    def test_maximally_mixed_satisfies(self):
        rep = ent.su_criterion(np.eye(4) / 4)
        assert rep.verdict == "satisfied"

    def test_swap_transpose_invariance(self):
        rng = np.random.default_rng(112)
        rho = qs.random_density(4, rng).matrix
        d = 2
        swap = qs.flip_operator(d).matrix
        partner = swap @ rho.T @ swap
        a = ent.su_criterion(rho).lhs
        b = ent.su_criterion(partner).lhs
        assert a == pytest.approx(b, abs=1e-10)


class TestAngularMomentumCriterion:
    def test_maximally_entangled_violates(self):
        rep = ent.angular_momentum_criterion(qs.maximally_entangled(2), 0.5)
        assert rep.lhs == pytest.approx(0.0, abs=1e-10)
        assert rep.verdict == "violated"

    def test_stretched_state_saturates(self):
        # |+j, +j> sits exactly on the separable bound 2j
        d = 3
        v = np.zeros(d, dtype=complex)
        v[-1] = 1.0
        state = np.kron(pure(v), pure(v))
        rep = ent.angular_momentum_criterion(state, 1.0)
        assert rep.lhs == pytest.approx(2.0, abs=1e-10)
        assert rep.verdict == "satisfied"

    def test_random_product_state_satisfies(self):
        rng = np.random.default_rng(113)
        for _ in range(5):
            a = qs.random_pure(2, rng).matrix
            b = qs.random_pure(2, rng).matrix
            rep = ent.angular_momentum_criterion(np.kron(a, b), 0.5)
            assert rep.verdict == "satisfied"


class TestPauliXy:
    def test_singlet_hits_eight(self):
        second, reports = ent.pauli_xy_bounds(SINGLET)
        assert second == pytest.approx(8.0, abs=1e-10)
        assert reports[0].verdict == "violated"  # above 6

    def test_triplet_hits_zero(self):
        second, reports = ent.pauli_xy_bounds(TRIPLET)
        assert second == pytest.approx(0.0, abs=1e-10)
        assert reports[1].verdict == "violated"  # below 2
        assert reports[1].extra["variance_form"] == pytest.approx(0.0, abs=1e-10)

    def test_x_basis_product_saturates_upper(self):
        v = np.kron(qs.xbasis_state(0), qs.xbasis_state(1))
        second, reports = ent.pauli_xy_bounds(pure(v))
        assert second == pytest.approx(6.0, abs=1e-10)
        assert reports[0].verdict == "satisfied"
        assert abs(reports[0].margin) < 1e-10

    def test_x_basis_11_saturates_lower(self):
        v = np.kron(qs.xbasis_state(1), qs.xbasis_state(1))
        second, reports = ent.pauli_xy_bounds(pure(v))
        assert second == pytest.approx(2.0, abs=1e-10)
        assert reports[1].verdict == "satisfied"


class TestSoundness:
    def test_ppt_states_never_flagged(self):
        rng = np.random.default_rng(114)
        for _ in range(50):
            rho = random_ppt_two_qubit(rng)
            for rep in ent.all_coupling_criteria(rho):
                assert rep.verdict == "satisfied", rep.criterion

    def test_tolerance_monotone(self):
        # enlarging the tolerance never flips satisfied -> violated
        for lhs in (3.9, 4.0, 4.1):
            tight = ent._verdict(lhs, 4.0, "below", tol=1e-8)[0]
            loose = ent._verdict(lhs, 4.0, "below", tol=1e-2)[0]
            if tight == "satisfied":
                assert loose == "satisfied"


class TestCriteriaAsCosts:
    # Each criterion sums second moments of the two-body differences of a
    # cost spec, which is twice that spec's transport cost at the coupling.
    def test_cost_operator_sums_differences(self):
        rng = np.random.default_rng(117)
        for d in (2, 3):
            obs = (qs.random_hermitian(d, rng), qs.random_hermitian(d, rng))
            for convention in ("dpt", "gmpc"):
                spec = ws.CostSpec(obs, convention)
                want = sum(a @ a for a in spec.differences()) / 2
                assert np.array_equal(spec.cost_operator(), want)

    def test_second_moments_are_twice_the_cost(self):
        rng = np.random.default_rng(118)
        xy = ws.CostSpec((qs.pauli("x"), qs.pauli("y")), "gmpc")
        for _ in range(10):
            for d in (2, 3):
                rho = qs.random_density(d * d, rng).matrix
                su = ws.CostSpec(tuple(qs.su_generators(d)), "dpt")
                cost = np.trace(rho @ su.cost_operator()).real
                assert ent.su_criterion(rho).lhs == pytest.approx(2 * cost, abs=1e-12)
            rho = qs.random_density(4, rng).matrix
            cost = np.trace(rho @ xy.cost_operator()).real
            second, _ = ent.pauli_xy_bounds(rho)
            assert second == pytest.approx(2 * cost, abs=1e-12)


class TestWassersteinVerdicts:
    def example4_pair(self, phi):
        x1 = qs.xbasis_state(1)
        rho = 0.5 * np.outer(x1, x1.conj()) + 0.25 * np.eye(2)
        sy = qs.pauli("y").matrix
        u = np.cos(phi / 2) * np.eye(2) - 1j * np.sin(phi / 2) * sy
        return qs.validate_density(rho), qs.validate_density(u @ rho @ u.conj().T)

    def test_example4_at_zero_violated(self):
        rho, sigma = self.example4_pair(0.0)
        rep = ent.wasserstein_verdict(rho, sigma, ws.CostSpec((qs.pauli("z"),), "dpt"))
        assert rep.verdict == "violated"
        assert rep.certified
        assert rep.lhs == pytest.approx(1 - np.sqrt(3) / 2, abs=1e-6)
        assert rep.bound == pytest.approx(0.25, abs=1e-6)

    def test_example4_past_crossing_satisfied(self):
        rho, sigma = self.example4_pair(np.pi / 2)
        rep = ent.wasserstein_verdict(rho, sigma, ws.CostSpec((qs.pauli("z"),), "dpt"))
        assert rep.verdict == "satisfied"

    def test_variance_direction(self):
        mixed = qs.validate_density(np.eye(2) / 2)
        spec = ws.CostSpec((qs.pauli("x"), qs.pauli("y")), "gmpc")
        rep = ent.wasserstein_verdict(mixed, mixed, spec, quantity="variance")
        # general max 4 (singlet coupling) vs separable max 3
        assert rep.verdict == "violated"
        assert rep.lhs == pytest.approx(4.0, abs=1e-6)
        assert rep.bound == pytest.approx(3.0, abs=1e-6)

    def test_qutrit_verdict_downgraded(self):
        rng = np.random.default_rng(115)
        rho = qs.random_density(3, rng)
        with pytest.warns(ExactnessWarning):
            rep = ent.wasserstein_verdict(
                rho, rho, ws.CostSpec((qs.random_hermitian(3, rng),), "dpt")
            )
        assert not rep.certified


class TestThresholds:
    def test_maximally_mixed_marginals(self):
        mixed = np.eye(2) / 2
        reports = {r.criterion: r for r in ent.threshold_verdicts(mixed, mixed)}
        su = reports["distance_su_generators_threshold"]
        assert su.lhs == pytest.approx(0.0, abs=1e-6)  # Psi_me coupling is free
        assert su.verdict == "violated"
        am = reports["distance_angular_momentum_threshold"]
        assert am.verdict == "violated"
        vxy = reports["variance_pauli_xy_threshold"]
        assert vxy.lhs == pytest.approx(4.0, abs=1e-6)
        assert vxy.verdict == "violated"
        dxy = reports["distance_pauli_xy_threshold"]
        assert dxy.lhs == pytest.approx(0.0, abs=1e-6)
        assert dxy.verdict == "violated"

    def test_separable_side_bound_on_ppt(self):
        # the PPT-restricted SU(d) distance can never dip below 2(d-1)
        rng = np.random.default_rng(116)
        rho, sigma = qs.random_density(2, rng), qs.random_density(2, rng)
        spec = ws.CostSpec(tuple(qs.su_generators(2)), "dpt")
        val = ws.distance_squared(rho, sigma, spec, cp.PPT).value
        assert val >= 2.0 - 1e-6

    def test_pure_product_input_satisfied(self):
        # distance between commuting eigenstates over z alone stays classical
        rho = np.diag([1.0, 0.0])
        reports = ent.threshold_verdicts(rho, rho)
        by_name = {r.criterion: r for r in reports}
        assert by_name["distance_su_generators_threshold"].verdict == "satisfied"
