"""Transport maps built from separable coupling ensembles.

A separable coupling sum_k p_k |Psi_k><Psi_k| x |Phi_k><Phi_k| carries a
CPTP map transforming the first marginal into the second, with Kraus
operators B_k = sqrt(p_k) |Phi_k><Psi_k| rho^{-1/2} (inverse taken on the
support).  For pairwise orthogonal source vectors the Kraus operators
reduce to |Phi_k><Psi_k| exactly; for non-orthogonal ensembles the map is
generally not the identity even when source and target states coincide.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import DimensionMismatch, EnsembleMismatch
from .qstates import SUPPORT_TOL, DensityMatrix, as_density


@dataclass(frozen=True)
class Ensemble:
    """Weighted pairs of unit source/target vectors reconstructing the
    two marginals."""

    weights: np.ndarray
    sources: np.ndarray  # columns |Psi_k>
    targets: np.ndarray  # columns |Phi_k>

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        if np.any(w < -1e-12) or abs(np.sum(w) - 1.0) > 1e-8:
            raise EnsembleMismatch("weights must be nonnegative and sum to one")
        for vecs in (self.sources, self.targets):
            norms = np.linalg.norm(vecs, axis=0)
            if np.max(np.abs(norms - 1.0)) > 1e-8:
                raise EnsembleMismatch("ensemble vectors must be unit norm")

    def source_state(self) -> np.ndarray:
        return (self.sources * self.weights) @ self.sources.conj().T

    def target_state(self) -> np.ndarray:
        return (self.targets * self.weights) @ self.targets.conj().T

    def coupling(self) -> np.ndarray:
        """sum_k p_k |Psi_k><Psi_k| x |Phi_k><Phi_k|."""
        d = self.sources.shape[0]
        out = np.zeros((d * d, d * d), dtype=complex)
        for k, p in enumerate(self.weights):
            a = np.outer(self.sources[:, k], self.sources[:, k].conj())
            b = np.outer(self.targets[:, k], self.targets[:, k].conj())
            out += p * np.kron(a, b)
        return out


@dataclass(frozen=True)
class KrausChannel:
    operators: tuple

    def support_projector(self) -> np.ndarray:
        """sum_k B_k^dag B_k: the projector onto supp(rho) when the channel
        was built from an ensemble of rho."""
        d = self.operators[0].shape[1]
        acc = np.zeros((d, d), dtype=complex)
        for b in self.operators:
            acc += b.conj().T @ b
        return acc


def build_channel(ensemble: Ensemble, rho) -> KrausChannel:
    """Kraus operators B_k = sqrt(p_k) |Phi_k><Psi_k| rho^{-1/2}.

    The ensemble must reconstruct rho; the map is trace preserving on the
    support of rho (a rank-deficient rho leaves the kernel unconstrained).
    """
    rho = as_density(rho)
    recon = ensemble.source_state()
    if np.linalg.norm(recon - rho.matrix) > 1e-8:
        raise EnsembleMismatch(
            "ensemble does not reconstruct the source state "
            f"(defect {np.linalg.norm(recon - rho.matrix):.3e})"
        )
    v = rho.support.eigenvectors
    inv_sqrt = (v * (1.0 / np.sqrt(rho.support.eigenvalues))) @ v.conj().T
    ops = []
    for k, p in enumerate(ensemble.weights):
        a_k = np.outer(ensemble.targets[:, k], ensemble.sources[:, k].conj())
        ops.append(np.sqrt(p) * a_k @ inv_sqrt)
    return KrausChannel(operators=tuple(ops))


def apply(channel: KrausChannel, x) -> np.ndarray:
    """Phi(X) = sum_k B_k X B_k^dag."""
    xm = linalg.as_complex_matrix(x)
    d = channel.operators[0].shape[1]
    if xm.shape != (d, d):
        raise DimensionMismatch(f"input shape {xm.shape} does not match {d}")
    out = np.zeros((channel.operators[0].shape[0],) * 2, dtype=complex)
    for b in channel.operators:
        out += b @ xm @ b.conj().T
    return out


def apply_on_second_factor(channel: KrausChannel, x12, dims) -> np.ndarray:
    """(id x Phi)(X_12): reproduces the coupling from the two-copy state."""
    d1, d2 = dims
    ops = [np.kron(np.eye(d1), b) for b in channel.operators]
    out = np.zeros_like(np.asarray(x12, dtype=complex))
    for b in ops:
        out += b @ x12 @ b.conj().T
    return out


def _pairs_from_eigenvectors(coupling: DensityMatrix, d1, d2):
    """Factor every eigenvector of the support as a product; only safe for
    couplings with a non-degenerate nonzero spectrum."""
    pairs = []
    sup = coupling.support
    for lam, vec in zip(sup.eigenvalues, sup.eigenvectors.T):
        m = vec.reshape(d1, d2)  # vec = a x b  <=>  m = a b^T
        u, s, vh = np.linalg.svd(m)
        if s.size > 1 and s[1] > 1e-8:
            raise EnsembleMismatch(
                "coupling eigenvector does not factor as a product "
                f"(second singular value {s[1]:.3e})"
            )
        pairs.append((float(lam), u[:, 0], s[0] * vh[0]))
    return pairs


def _pairs_from_product_diagonal(cm, d1, d2, seed):
    """Recover local bases in which the coupling is diagonal.

    Generic Hermitian probes split degenerate clusters: for a coupling
    diagonal in a product basis, Tr_2[X (1 x R)] is diagonal in the first
    local basis with generically distinct eigenvalues, and likewise on the
    second factor.  The reconstruction check certifies the result.
    """
    rng = np.random.default_rng(seed)
    r1 = linalg.hermitize(
        rng.standard_normal((d1, d1)) + 1j * rng.standard_normal((d1, d1))
    )
    r2 = linalg.hermitize(
        rng.standard_normal((d2, d2)) + 1j * rng.standard_normal((d2, d2))
    )
    probe1 = linalg.partial_trace(cm @ np.kron(np.eye(d1), r2), 2, (d1, d2))
    probe2 = linalg.partial_trace(np.kron(r1, np.eye(d2)) @ cm, 1, (d1, d2))
    basis1 = linalg.eig_hermitian(probe1).eigenvectors
    basis2 = linalg.eig_hermitian(probe2).eigenvectors
    pairs, recon = [], np.zeros_like(cm)
    for i in range(d1):
        for j in range(d2):
            v = np.kron(basis1[:, i], basis2[:, j])
            q = float(np.real(v.conj() @ cm @ v))
            if q <= SUPPORT_TOL:
                continue
            pairs.append((q, basis1[:, i], basis2[:, j]))
            recon += q * np.outer(v, v.conj())
    if np.linalg.norm(recon - cm) > 1e-8:
        raise EnsembleMismatch(
            "coupling is not diagonal in a product basis "
            f"(defect {np.linalg.norm(recon - cm):.3e})"
        )
    return pairs


def ensemble_from_coupling(coupling, dims, convention: str = "gmpc") -> Ensemble:
    """Extract an ensemble from a coupling diagonal in a product basis.

    Covers the eigenbasis-dephasing coupling and the optimizers of the
    classical qubit examples: eigenvectors are factored directly when the
    spectrum is non-degenerate, with a probe-based joint diagonalization
    as the fallback for degenerate spectra.  Raises EnsembleMismatch when
    no product structure exists within 1e-8.  Under the DPT convention
    the first factor is conjugated before use as the source vector.
    """
    d1, d2 = dims
    state = as_density(coupling, dims)
    try:
        pairs = _pairs_from_eigenvectors(state, d1, d2)
        recon = sum(
            q * np.outer(np.kron(a, b), np.kron(a, b).conj()) for q, a, b in pairs
        )
        if np.linalg.norm(recon - state.matrix) > 1e-8:
            raise EnsembleMismatch("eigenvector factoring lost weight")
    except EnsembleMismatch:
        pairs = None
        for seed in (1, 2):
            try:
                pairs = _pairs_from_product_diagonal(state.matrix, d1, d2, seed)
                break
            except EnsembleMismatch:
                continue
        if pairs is None:
            raise
    if not pairs:
        raise EnsembleMismatch("coupling has no support")
    weights = np.array([q for q, _, _ in pairs])
    weights = weights / weights.sum()
    sources = np.column_stack(
        [a.conj() if convention == "dpt" else a for _, a, _ in pairs]
    )
    targets = np.column_stack([b / np.linalg.norm(b) for _, _, b in pairs])
    return Ensemble(weights=weights, sources=sources, targets=targets)
