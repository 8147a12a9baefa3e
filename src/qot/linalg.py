"""Dense complex matrix kernel.

Hermitian eigendecomposition, Kronecker products, partial trace and
transpose on bipartite systems, Hadamard products, and the realification
of Hermitian matrices used to feed complex problems to the real SDP
solver.  Everything here is a pure function of immutable inputs.

``partial_transpose``, ``realify``, ``herm_to_vec``, ``vec_to_herm`` and
``frob_inner`` also take a leading stack axis, (k, n, n) or (k, n^2), and
act on every matrix of the stack at once; the coupling compiler hands
them whole sets of constraint directions.  Realified blocks are 2 r1 r2
wide for marginal ranks r1, r2 (8x8 for qubit couplings, 32x32 at
d = 4) and 2 r1^n r2 wide for an n:1 extension: a 2:1 extension at
d = 3 has three 54x54 blocks.  Real data is embedded as its real part,
r1 r2 wide (4x4 for the paper's real qubit pairs).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, NoConvergence, NotHermitian


# State validation's thresholds: the relative Hermiticity defect admitted,
# and the smallest eigenvalue a density matrix may have.
HERMITICITY_TOL = 1e-10
PSD_FLOOR = -1e-8


def as_complex_matrix(a, stack: bool = False) -> np.ndarray:
    """Coerce to a 2D complex array, rejecting NaN/Inf entries; with
    ``stack`` a (..., n, m) stack of matrices is admitted too."""
    m = np.asarray(a, dtype=complex)
    if m.ndim != 2 and not (stack and m.ndim > 2):
        raise DimensionMismatch(f"expected a matrix, got ndim={m.ndim}")
    if not np.isfinite(m).all():
        raise ValueError("non-finite entries are not admitted")
    return m


def hermiticity_defect(a: np.ndarray):
    """Relative Frobenius defect ||a - a^dag|| / max(1, ||a||), one value
    per matrix of a stack."""
    return _fro(a - np.swapaxes(a, -1, -2).conj()) / np.maximum(1.0, _fro(a))


def _fro(a: np.ndarray):
    """Frobenius norm of every matrix of a complex stack, by the formula of
    np.linalg.norm, whose complex product need not round as re^2 + im^2."""
    return np.sqrt(np.add.reduce((a.conj() * a).real, axis=(-2, -1)))


def check_hermitian(a, stack: bool = False) -> np.ndarray:
    """Complex copy of a Hermitian matrix (or, with ``stack``, of a stack
    of them, each judged on its own)."""
    m = as_complex_matrix(a, stack)
    if m.shape[-2] != m.shape[-1]:
        raise NotHermitian(f"matrix is {m.shape[-2]}x{m.shape[-1]}, not square")
    defect = hermiticity_defect(m)
    if np.any(defect > HERMITICITY_TOL):
        where = "" if m.ndim == 2 else f" at stack index {np.argmax(defect)}"
        raise NotHermitian(
            f"Hermiticity defect {np.max(defect):.3e}{where} exceeds "
            f"{HERMITICITY_TOL:.1e}"
        )
    return m


def hermitize(a: np.ndarray) -> np.ndarray:
    """Hermitian part (a + a^dag) / 2."""
    return (a + a.conj().T) / 2


@dataclass(frozen=True)
class EigenDecomposition:
    """Spectral data of a Hermitian matrix, eigenvalues ascending."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def reconstruct(self) -> np.ndarray:
        v = self.eigenvectors
        return (v * self.eigenvalues) @ v.conj().T


def eig_hermitian(a) -> EigenDecomposition:
    """Eigendecomposition of a Hermitian matrix, eigenvalues ascending.

    The input is trusted, not judged: it is an admitted operator's matrix
    or one its caller built Hermitian.  Raises NoConvergence when the
    iteration gives up.  No ordering is promised for eigenvectors inside a
    degenerate cluster beyond orthonormality.
    """
    try:
        w, v = np.linalg.eigh(hermitize(np.asarray(a, dtype=complex)))
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure
        raise NoConvergence(str(exc)) from exc
    return EigenDecomposition(eigenvalues=w, eigenvectors=v)


def kron(a, b) -> np.ndarray:
    """Kronecker product of two matrices, or of every matrix of a stack by
    a matrix (or of a matrix by every matrix of a stack).  One broadcast
    product forms np.kron's entries, without its reshaping overhead."""
    a, b = as_complex_matrix(a, stack=True), as_complex_matrix(b, stack=True)
    out = a[..., :, None, :, None] * b[..., None, :, None, :]
    rows, cols = a.shape[-2] * b.shape[-2], a.shape[-1] * b.shape[-1]
    return out.reshape(out.shape[:-4] + (rows, cols))


def _split_bipartite(m: np.ndarray, dims: tuple[int, int]) -> np.ndarray:
    d1, d2 = dims
    if m.shape[-2:] != (d1 * d2, d1 * d2):
        raise DimensionMismatch(
            f"matrix of shape {m.shape} does not match dims {dims}"
        )
    return m.reshape(m.shape[:-2] + (d1, d2, d1, d2))


def partial_trace(m, subsystem: int, dims: tuple[int, int]) -> np.ndarray:
    """Trace out the given subsystem (1 or 2) of a bipartite matrix."""
    t = _split_bipartite(as_complex_matrix(m), dims)
    if subsystem == 1:
        return np.einsum("kikj->ij", t)
    if subsystem == 2:
        return np.einsum("ikjk->ij", t)
    raise DimensionMismatch(f"subsystem must be 1 or 2, got {subsystem}")


def partial_transpose(m, subsystem: int, dims: tuple[int, int]) -> np.ndarray:
    """Transpose the given subsystem (1 or 2) of a bipartite matrix, or of
    every matrix of a stack."""
    m = as_complex_matrix(m, stack=True)
    t = _split_bipartite(m, dims)
    if subsystem == 1:
        return np.swapaxes(t, -4, -2).reshape(m.shape)
    if subsystem == 2:
        return np.swapaxes(t, -3, -1).reshape(m.shape)
    raise DimensionMismatch(f"subsystem must be 1 or 2, got {subsystem}")


def hadamard_product(a, b) -> np.ndarray:
    """Entry-wise product; shapes must agree."""
    ma, mb = as_complex_matrix(a), as_complex_matrix(b)
    if ma.shape != mb.shape:
        raise DimensionMismatch(f"shapes {ma.shape} and {mb.shape} differ")
    return ma * mb


def frob_inner(a: np.ndarray, b: np.ndarray):
    """Tr(a b) for Hermitian a, b (real by construction), one value per
    matrix of a stack."""
    return np.sum(a.conj() * b, axis=(-2, -1)).real


def realify(h, real: bool = False) -> np.ndarray:
    """Embed a Hermitian matrix, or each of a (k, n, n) stack, as
    [[Re, -Im], [Im, Re]].

    The image is real symmetric, PSD iff the input is PSD, and carries
    every eigenvalue of the input twice.  With ``real`` the input must
    have no imaginary part, and the embedding is its real part itself.
    """
    m = check_hermitian(h, stack=True)
    re, im = m.real, m.imag
    if real:
        if im.any():
            raise ValueError("a real embedding needs a zero imaginary part")
        return re
    return np.block([[re, -im], [im, re]])


def derealify(r: np.ndarray, real: bool = False) -> np.ndarray:
    """Inverse of realify, averaging the two redundant copies; with
    ``real``, the Hermitian part of a real block."""
    if real:
        return hermitize(r.astype(complex))
    n2 = r.shape[0]
    if n2 % 2 != 0 or r.shape[0] != r.shape[1]:
        raise DimensionMismatch("realified matrix must be square of even size")
    n = n2 // 2
    re = (r[:n, :n] + r[n:, n:]) / 2
    im = (r[n:, :n] - r[:n, n:]) / 2
    return hermitize(re + 1j * im)


@functools.lru_cache(maxsize=None)
def _herm_index(n: int):
    """Flat positions in a row-major n x n matrix of the diagonal, the
    strict upper triangle and its mirror, in herm_to_vec order; read-only,
    as every caller shares them."""
    i, j = np.triu_indices(n, k=1)
    index = np.arange(n) * (n + 1), i * n + j, j * n + i
    for positions in index:
        positions.flags.writeable = False
    return index


def herm_to_vec(h: np.ndarray) -> np.ndarray:
    """Real coordinates of a Hermitian matrix in an orthonormal basis; a
    (k, n, n) stack gives (k, n^2) rows.

    Coordinates are (diagonal, sqrt(2) Re upper, sqrt(2) Im upper), so the
    Euclidean inner product of coordinate vectors equals Tr(a b).  A real
    symmetric matrix has its coordinates in the first n(n + 1)/2.
    """
    n = h.shape[-1]
    diag, upper, _ = _herm_index(n)
    flat = h.reshape(h.shape[:-2] + (n * n,))
    up = flat[..., upper]
    return np.concatenate(
        [flat[..., diag].real, np.sqrt(2.0) * up.real, np.sqrt(2.0) * up.imag],
        axis=-1,
    )


def vec_to_herm(v: np.ndarray, n: int) -> np.ndarray:
    """Inverse of herm_to_vec for n x n Hermitian matrices; (k, n^2) rows
    give a (k, n, n) stack."""
    if v.shape[-1:] != (n * n,):
        raise DimensionMismatch(f"expected {n * n} coordinates, got {v.shape}")
    diag, upper, lower = _herm_index(n)
    k = len(upper)
    h = np.zeros(v.shape[:-1] + (n * n,), dtype=complex)
    h[..., diag] = v[..., :n]
    up = (v[..., n : n + k] + 1j * v[..., n + k :]) / np.sqrt(2.0)
    h[..., upper] = up
    h[..., lower] = up.conj()
    return h.reshape(v.shape[:-1] + (n, n))
