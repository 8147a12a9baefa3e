"""Standard states and operator families.

Paulis, SU(d) generators in the generalized Gell-Mann basis, angular
momentum operators from the ladder-operator formula, maximally entangled
states, the flip operator and the symmetric-subspace isometry, plus the
density-matrix admission, whose spectrum every consumer of state data reads.

Transposes throughout the package are taken in the computational basis;
the basis is part of the public contract because the transport-cost
formulas involve explicit transposes.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np

from . import linalg
from .errors import (
    DimensionMismatch,
    InvalidDimension,
    InvalidSpin,
    NotPSD,
    NotUnitTrace,
)

# A state's eigenvalues at or below this are off its support.
SUPPORT_TOL = 1e-12


@dataclass(frozen=True)
class HermitianOperator:
    """A Hermitian matrix together with its subsystem dimensions; the one
    place a matrix entering the package is judged Hermitian."""

    matrix: np.ndarray
    dims: tuple = field(default=())

    def __post_init__(self):
        m = linalg.check_hermitian(self.matrix)
        object.__setattr__(self, "matrix", m)
        dims = tuple(self.dims) if self.dims else (m.shape[0],)
        if int(np.prod(dims)) != m.shape[0]:
            raise DimensionMismatch(
                f"dims {dims} do not multiply to matrix size {m.shape[0]}"
            )
        object.__setattr__(self, "dims", dims)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


@dataclass(frozen=True)
class DensityMatrix:
    """Trace-one PSD Hermitian operator, decomposed once on admission:
    ``spectrum`` has the eigenvalues off the support set to 0, ascending,
    and ``support`` keeps the eigenpairs on it."""

    op: HermitianOperator
    spectrum: linalg.EigenDecomposition = field(init=False, repr=False, compare=False)
    support: linalg.EigenDecomposition = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        m = self.op.matrix
        tr = np.trace(m).real
        if abs(tr - 1.0) > 1e-10:
            raise NotUnitTrace(f"trace is {tr!r}, deviates by {abs(tr - 1.0):.3e}")
        eig = linalg.eig_hermitian(m)
        lam, v = eig.eigenvalues, eig.eigenvectors
        if lam[0] < linalg.PSD_FLOOR:
            raise NotPSD(f"minimum eigenvalue {lam[0]:.3e} below PSD floor")
        keep = lam > SUPPORT_TOL
        cut = linalg.EigenDecomposition(np.where(keep, lam, 0.0), v)
        on = linalg.EigenDecomposition(lam[keep], v[:, keep])
        object.__setattr__(self, "spectrum", cut)
        object.__setattr__(self, "support", on)

    @property
    def matrix(self) -> np.ndarray:
        return self.op.matrix

    @property
    def dims(self) -> tuple:
        return self.op.dims

    @property
    def dim(self) -> int:
        return self.op.matrix.shape[0]


def as_operator(h, dims=None) -> HermitianOperator:
    """Coerce an array or operator to HermitianOperator."""
    if isinstance(h, HermitianOperator):
        return h
    if isinstance(h, DensityMatrix):
        return h.op
    return HermitianOperator(np.asarray(h, dtype=complex), dims or ())


def as_density(rho, dims=None) -> DensityMatrix:
    """Coerce an array or state to DensityMatrix."""
    if isinstance(rho, DensityMatrix):
        return rho
    return DensityMatrix(as_operator(rho, dims))


def validate_density(m, dims=None) -> DensityMatrix:
    """Admit a matrix as a density operator or raise the violated invariant.

    Raises NotHermitian, NotUnitTrace or NotPSD, each naming the magnitude
    of the violation.
    """
    return DensityMatrix(HermitianOperator(m, dims or ()))


_PAULI = {
    "x": np.array([[0, 1], [1, 0]], dtype=complex),
    "y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def pauli(axis: str) -> HermitianOperator:
    """Pauli spin matrix for axis in {x, y, z}."""
    if axis not in _PAULI:
        raise InvalidDimension(f"unknown Pauli axis {axis!r}")
    return HermitianOperator(_PAULI[axis].copy(), (2,))


def su_generators(d: int) -> list[HermitianOperator]:
    """The d^2 - 1 generalized Gell-Mann generators, Tr(G_n G_m) = 2 delta_nm.

    For d = 2 the list is exactly [sigma_x, sigma_y, sigma_z].
    """
    if d < 2:
        raise InvalidDimension(f"need d >= 2, got {d}")
    gens = []
    for j in range(d):
        for k in range(j + 1, d):
            sym = np.zeros((d, d), dtype=complex)
            sym[j, k] = sym[k, j] = 1.0
            gens.append(sym)
            asym = np.zeros((d, d), dtype=complex)
            asym[j, k] = -1j
            asym[k, j] = 1j
            gens.append(asym)
    for l in range(1, d):
        diag = np.zeros(d)
        diag[:l] = 1.0
        diag[l] = -l
        gens.append(np.diag(diag).astype(complex) * np.sqrt(2.0 / (l * (l + 1))))
    return [HermitianOperator(g, (d,)) for g in gens]


def angular_momentum(j: float):
    """Angular momentum triple (j_x, j_y, j_z) with j_z = diag(-j..+j).

    Built from the ladder operator
    (j_+)_{m,n} = delta_{m,n+1} sqrt(j(j+1) - (j-n)(j+1-n)) with 1-based
    indices, so the basis is ordered by ascending magnetic quantum number.
    """
    two_j = 2.0 * j
    if j <= 0 or abs(two_j - round(two_j)) > 1e-12:
        raise InvalidSpin(f"2j must be a positive integer, got j={j}")
    d = int(round(two_j)) + 1
    jp = np.zeros((d, d), dtype=complex)
    for n in range(1, d):  # (m, n) = (n + 1, n), 1-based
        jp[n, n - 1] = np.sqrt(j * (j + 1) - (j - n) * (j + 1 - n))
    jm = jp.conj().T
    jx = (jp + jm) / 2
    jy = (jp - jm) / 2j
    jz = np.diag(np.arange(d) - j).astype(complex)
    return (
        HermitianOperator(jx, (d,)),
        HermitianOperator(jy, (d,)),
        HermitianOperator(jz, (d,)),
    )


def maximally_entangled(d: int) -> DensityMatrix:
    """|Psi_me> = d^{-1/2} sum_k |k>|k> as a density matrix."""
    if d < 2:
        raise InvalidDimension(f"need d >= 2, got {d}")
    psi = np.zeros(d * d, dtype=complex)
    psi[:: d + 1] = 1.0 / np.sqrt(d)
    return DensityMatrix(HermitianOperator(np.outer(psi, psi.conj()), (d, d)))


def flip_operator(d: int) -> HermitianOperator:
    """Flip (swap) operator F |m>|n> = |n>|m> on a d x d system (the
    identity for d = 1, as for the pure first marginal of an extension)."""
    if d < 1:
        raise InvalidDimension(f"need d >= 1, got {d}")
    f = np.zeros((d * d, d * d), dtype=complex)
    for mm in range(d):
        for nn in range(d):
            f[nn * d + mm, mm * d + nn] = 1.0
    return HermitianOperator(f, (d, d))


def symmetric_isometry(d: int) -> np.ndarray:
    """Isometry whose columns span the symmetric subspace: |ii> and
    (|ij> + |ji>)/sqrt(2) for i < j."""
    cols = []
    for i in range(d):
        v = np.zeros(d * d, dtype=complex)
        v[i * d + i] = 1.0
        cols.append(v)
    for i in range(d):
        for jj in range(i + 1, d):
            v = np.zeros(d * d, dtype=complex)
            v[i * d + jj] = v[jj * d + i] = 1.0 / np.sqrt(2.0)
            cols.append(v)
    return np.column_stack(cols)


def default_rng(seed=None) -> np.random.Generator:
    """Generator seeded from the argument or the QOT_SEED environment var."""
    if seed is None:
        seed = int(os.environ.get("QOT_SEED", "20230521"))
    return np.random.default_rng(seed)


def random_pure(d: int, rng=None) -> DensityMatrix:
    rng = rng if rng is not None else default_rng()
    v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    v /= np.linalg.norm(v)
    return DensityMatrix(HermitianOperator(np.outer(v, v.conj()), (d,)))


def random_density(d: int, rng=None, rank: int | None = None) -> DensityMatrix:
    """Ginibre state rho = G G^dag / Tr(G G^dag); full rank by default."""
    rng = rng if rng is not None else default_rng()
    k = rank or d
    g = rng.standard_normal((d, k)) + 1j * rng.standard_normal((d, k))
    m = g @ g.conj().T
    return DensityMatrix(HermitianOperator(m / np.trace(m).real, (d,)))


def random_hermitian(d: int, rng=None) -> HermitianOperator:
    rng = rng if rng is not None else default_rng()
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return HermitianOperator(linalg.hermitize(g), (d,))


def xbasis_state(bit: int) -> np.ndarray:
    """|0>_x or |1>_x for a single qubit."""
    return np.array([1.0, 1.0 - 2.0 * bit], dtype=complex) / np.sqrt(2.0)
