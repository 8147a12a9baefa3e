"""Closed-form quantum metrology quantities.

Variance, quantum Fisher information, Wigner-Yanase skew information, and
the generalized family built from standard matrix-monotone functions,
including the Hadamard conversion kernels that map one member of the
family onto another in the eigenbasis of the state.

Conventions for the generalized family:

    F_Q^f[rho, H]  = 2 sum_{kl} m_f(1,0)/m_f(l_k, l_l) (l_k - l_l)^2 |H_kl|^2
    var_f          = (1/2) sum_{kl} m_f(l_k, l_l)/m_f(1,0) |H_kl|^2
                     - <H>^2 / (2 m_f(1,0))

with m_f(a, b) = a f(b/a) the operator mean of f.  Eigenvalues off the
state's support (qstates.SUPPORT_TOL) are 0, so terms whose eigenvalue
pair lies in the kernel of rho vanish; pairs closer than DEG_TOL are
treated as degenerate and take the zero branch of every kernel, which is
consistent because the (l_k - l_l)^2 numerators vanish there anyway.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import linalg
from .errors import DimensionMismatch, IrregularFunction
from .qstates import HermitianOperator, as_density, as_operator

DEG_TOL = 1e-9


def _pair(rho, h):
    """The admitted state and the operator's matrix."""
    r = as_density(rho)
    op = as_operator(h)
    if r.dim != op.dim:
        raise DimensionMismatch(f"state dim {r.dim} != operator dim {op.dim}")
    return r, op.matrix


def expectation(rho, h) -> float:
    """<H>_rho = Re Tr(rho H); both were judged Hermitian on admission, so
    the imaginary part is roundoff at the scale of H."""
    r, hm = _pair(rho, h)
    return float(np.trace(r.matrix @ hm).real)


def _centred(rho, h):
    """The admitted state and H - <H> 1.  Second moments of the centred
    operator do not cancel when H carries a large multiple of 1."""
    r, hm = _pair(rho, h)
    return r, hm - np.trace(r.matrix @ hm).real * np.eye(len(hm))


def variance(rho, h) -> float:
    """(Delta H)^2_rho = Tr(rho (H - <H>)^2)."""
    r, hc = _centred(rho, h)
    return float(np.trace(r.matrix @ hc @ hc).real)


def _spectrum(rho, h):
    """Eigenvalues of rho, 0 off its support, its eigenvectors, and <k|H|l>."""
    r, hm = _pair(rho, h)
    v = r.spectrum.eigenvectors
    return r.spectrum.eigenvalues, v, v.conj().T @ hm @ v


def qfi(rho, h) -> float:
    """Quantum Fisher information
    F_Q = 2 sum_{kl} (l_k - l_l)^2 / (l_k + l_l) |<k|H|l>|^2."""
    lam, _, h_eig = _spectrum(rho, h)
    num = np.subtract.outer(lam, lam) ** 2
    den = np.add.outer(lam, lam)
    mask = den > 0.0
    terms = np.zeros_like(num)
    terms[mask] = num[mask] / den[mask]
    return float(2.0 * np.sum(terms * np.abs(h_eig) ** 2))


def skew_information(rho, h) -> float:
    """Wigner-Yanase skew information Tr(H^2 rho) - Tr(H sqrt(rho) H sqrt(rho)),
    evaluated on the centred H - <H> 1, which leaves it unchanged.

    Eigenvalues off the support count as 0: the square root would turn
    their roundoff into an error of its square root."""
    r, hc = _centred(rho, h)
    v = r.spectrum.eigenvectors
    sqrt_rho = (v * np.sqrt(r.spectrum.eigenvalues)) @ v.conj().T
    return float(
        np.trace(hc @ hc @ r.matrix).real - np.trace(hc @ sqrt_rho @ hc @ sqrt_rho).real
    )


@dataclass(frozen=True)
class MonotoneFunction:
    """A standard matrix-monotone f with its mean m_f(a,b) = a f(b/a).

    Standard means f(1) = 1 and f(t) = t f(1/t); regular means f(0) > 0.
    User-defined functions are admitted if they pass ``validate``.
    """

    name: str
    f: Callable[[float], float]

    @property
    def f_zero(self) -> float:
        return float(self.f(0.0))

    def mean(self, a: float, b: float) -> float:
        # Larger argument factored out for stability at the spectrum edge.
        if a < b:
            a, b = b, a
        if a <= 0.0:
            return 0.0
        return a * self.f(b / a)

    def require_regular(self):
        if self.f_zero <= 1e-14:
            raise IrregularFunction(f"{self.name}: f(0) = {self.f_zero!r} <= 0")

    def validate(self, samples: int = 25, seed: int = 5) -> "MonotoneFunction":
        """Check f(1) = 1 and f(t) = t f(1/t) on sampled t; operator
        monotonicity stays the caller's claim."""
        if abs(self.f(1.0) - 1.0) > 1e-12:
            raise IrregularFunction(f"{self.name}: f(1) != 1")
        for t in np.random.default_rng(seed).uniform(1e-3, 3.0, size=samples):
            if abs(self.f(t) - t * self.f(1.0 / t)) > 1e-12 * max(1.0, t):
                raise IrregularFunction(f"{self.name}: f(t) != t f(1/t) at t={t:.3g}")
        return self


F_MAX = MonotoneFunction("f_max", lambda x: (1.0 + x) / 2.0)
F_WY = MonotoneFunction("f_wy", lambda x: (np.sqrt(x) + 1.0) ** 2 / 4.0)


def _means(lam: np.ndarray, f: MonotoneFunction) -> np.ndarray:
    """m_f(l_k, l_l) for every eigenvalue pair, as a d x d matrix."""
    return np.array([[f.mean(a, b) for b in lam] for a in lam])


def gen_qfi(rho, h, f: MonotoneFunction) -> float:
    """Generalized quantum Fisher information for a regular f."""
    f.require_regular()
    lam, _, h_eig = _spectrum(rho, h)
    terms = _x_kernel(lam, f) ** 2 * np.subtract.outer(lam, lam) ** 2
    return float(2.0 * np.sum(terms * np.abs(h_eig) ** 2))


def gen_variance(rho, h, f: MonotoneFunction) -> float:
    """Generalized variance for a regular f; equals the usual variance
    for pure states and for f = f_max."""
    f.require_regular()
    lam, _, h_eig = _spectrum(rho, h)
    mean = float(np.sum(lam * np.diag(h_eig).real))
    total = float(np.sum(_means(lam, f) * np.abs(h_eig) ** 2))
    return total / (2.0 * f.f_zero) - mean**2 / (2.0 * f.f_zero)


def _x_kernel(lam: np.ndarray, f: MonotoneFunction) -> np.ndarray:
    """(X_f)_{kl} = sqrt(m_f(1,0) / m_f(l_k, l_l)) on the support."""
    mf = _means(lam, f)
    x = np.zeros_like(mf)
    pos = mf > 0.0
    x[pos] = np.sqrt(f.f_zero / mf[pos])
    return x


def conversion_matrix(rho, f1: MonotoneFunction, f2: MonotoneFunction):
    """Kernel Q_{f1,f2} in the eigenbasis of rho, zero on degenerate pairs.

    Satisfies F_Q^{f1}[rho, H] = F_Q^{f2}[rho, Q o H] with the Hadamard
    product taken in the eigenbasis of rho.
    """
    f1.require_regular()
    f2.require_regular()
    lam = as_density(rho).spectrum.eigenvalues
    x1, x2 = _x_kernel(lam, f1), _x_kernel(lam, f2)
    q = np.zeros_like(x1)
    ok = (np.abs(np.subtract.outer(lam, lam)) >= DEG_TOL) & (x2 > 0.0)
    q[ok] = x1[ok] / x2[ok]
    return HermitianOperator(q.astype(complex))


def roof_kernel_Y(rho, f: MonotoneFunction) -> HermitianOperator:
    """(Y_f)_{kl} = (X_f)_{kl} / (X_{f_max})_{kl}; identity kernel off the
    degenerate clusters when f = f_max."""
    return conversion_matrix(rho, f, F_MAX)


def general_kernel_Z(rho, f: MonotoneFunction) -> HermitianOperator:
    """(Z_f)_{kl} = (X_f)_{kl} / (X_{f_WY})_{kl}."""
    return conversion_matrix(rho, f, F_WY)


def hadamard_transform(rho, kernel, h) -> HermitianOperator:
    """Return the observable Q o H, with the Hadamard product taken in the
    eigenbasis of rho and the result expressed in the computational basis."""
    _, v, h_eig = _spectrum(rho, h)
    km = as_operator(kernel).matrix
    transformed = v @ linalg.hadamard_product(km, h_eig) @ v.conj().T
    return HermitianOperator(linalg.hermitize(transformed), as_operator(h).dims)
