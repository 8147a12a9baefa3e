"""Feasible sets of bipartite couplings as SDP constraint data.

A coupling is a bipartite state whose marginals are the two states being
compared.  Every set is built by one construction, as in the PPT
symmetric-extension hierarchy of Doherty, Parrilo and Spedalieri: a
Hermitian variable on n copies of the first support and one of the
second, the marginal constraints, and a list of cone maps whose images
must all be PSD.  The sets differ only in three parameters:

  n            the number of first-support copies: n for ppt_extension(n),
               1 otherwise
  PPT cuts     a partial transpose after each of the first k copies,
               k = 1..n, for ppt, symmetric_ppt and ppt_extension(n)
  variable     the real isometries V onto its diagonal blocks, and the
               subspace the operators V E V^T span: for symmetric_ppt the
               one block Sym^2; for classical_quantum one per eigenvector of
               the first marginal and for quantum_classical of the second;
               when n > 1 the permutation-invariant operators, which span
               less than their blocks; else the full space, one block

So general is the n = 1 member without a cut, ppt the one with it and
symmetric_ppt ppt on the one block Sym^2.  The product set has a closed
form (see wasserstein) and is not built here.

Each cone of an extension commutes with a group of permutations of the
copies: the variable and the last cut with all of them, cut k with those
within the first k and within the last n - k copies.  By Schur's lemma
the cone is block diagonal in the subspace its group fixes, Sym^k x
Sym^(n-k) x C^r2, and that subspace's orthogonal complement, so only
the blocks must be PSD: with V the real isometries onto them, the cone
gives one map X -> V^T cone(X) V per block.  The split is exact and
changes no value; Bose symmetry, which would keep only the variable's
symmetric block, is not imposed.

The DPT convention fixes the first marginal to rho^T and the GMPC
convention to rho; the second marginal is sigma in both.  "separable" is
accepted as an alias for the PPT set; the exactness flag records whether
PPT actually coincides with separability at the given dimension.

Problems are posed in compressed coordinates X = (T_1 x T_2) Y (T_1 x
T_2)^dag, which is exact: couplings are automatically supported on
supp(marg1) x supp(marg2) (facial reduction), and partial transposes
conjugate covariantly.  A marginal V diag(lam) V^dag, its state's support,
gets T = V diag(lam)^p, p = 1/4 for n = 1: the product coupling and the
near-diagonal optimum of a nearly singular marginal then both have entries
of order lam^(1/2), and neither they nor the dual potentials grow like
1/lam.  Extensions keep the support isometry, p = 0.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from . import linalg
from .errors import (
    DegenerateEigenbasis,
    DimensionMismatch,
    InvalidDimension,
    MarginalMismatch,
)
from .qstates import DensityMatrix, as_density, flip_operator, symmetric_isometry

PPT_EXTENSION_CAP = 3
# Extensions whose compile-time data would exceed this many bytes are
# refused up front (see extension_memory_estimate).
EXTENSION_MEMORY_BUDGET = 2 * 1024**3

EXACT_SEPARABLE = "ExactSeparable"
LOWER_BOUND_ONLY = "LowerBoundOnly"


@dataclass(frozen=True)
class CouplingSet:
    kind: str
    n_copies: int | None = None

    def label(self) -> str:
        if self.kind == "ppt_extension":
            return f"ppt_extension_{self.n_copies}"
        return self.kind


GENERAL = CouplingSet("general")
PPT = CouplingSet("ppt")
SEPARABLE = PPT  # alias: realized as PPT plus the exactness flag
SYMMETRIC_PPT = CouplingSet("symmetric_ppt")
CLASSICAL_QUANTUM = CouplingSet("classical_quantum")
QUANTUM_CLASSICAL = CouplingSet("quantum_classical")
PRODUCT = CouplingSet("product")


def ppt_extension(n: int) -> CouplingSet:
    return CouplingSet("ppt_extension", n)


_SET_BY_NAME = {
    "general": GENERAL,
    "ppt": PPT,
    "separable": SEPARABLE,
    "symmetric_ppt": SYMMETRIC_PPT,
    "classical_quantum": CLASSICAL_QUANTUM,
    "quantum_classical": QUANTUM_CLASSICAL,
    "product": PRODUCT,
}


def coupling_set(name: str) -> CouplingSet:
    """Parse a set name, including ppt_extension_<n>."""
    key = name.strip().lower()
    if key in _SET_BY_NAME:
        return _SET_BY_NAME[key]
    order = key.removeprefix("ppt_extension_")
    if order != key and order.isdecimal():
        return ppt_extension(int(order))
    raise InvalidDimension(f"unknown coupling set {name!r}")


def exactness(cset: CouplingSet, d: int):
    """Whether optimizing over the set solves the separable problem exactly.

    Returns (flag, note).  PPT and its symmetric extensions coincide with
    separability for qubit couplings (2 x 2); for d >= 3 they only bound
    it.  Sets that are not separability relaxations get the vacuous
    ExactSeparable flag with an explanatory note.
    """
    if cset.kind in ("ppt", "symmetric_ppt", "ppt_extension"):
        if d == 2:
            return EXACT_SEPARABLE, "PPT equals separability on 2x2 couplings"
        return LOWER_BOUND_ONLY, "PPT only bounds separability for d >= 3"
    if cset.kind == "general":
        return EXACT_SEPARABLE, "not applicable: unrestricted optimization"
    return (
        EXACT_SEPARABLE,
        "not applicable: optimization over an explicitly parametrized subset",
    )


@dataclass
class CouplingProblem:
    """Constraint data for one coupling optimization.

    The Hermitian variable lives on ``var_cdim`` complex dimensions; each
    of the ``cone_maps`` sends it (or a stack of variables) to a matrix
    that must be PSD, one map per diagonal block of every cone (the first
    maps always reproducing the blocks of the variable itself, which
    ``variable`` puts back together), the equality constraints read
    Tr(eq_rows[i] X) = eq_rhs[i] with ``eq_rows`` one (k, var_cdim,
    var_cdim) stack, the variable is restricted to the span of the
    orthonormal ``subspace`` rows (in linalg.herm_to_vec coordinates; None
    for the full space), and ``lift_cost`` / ``extract_coupling``
    translate between the d^2 coupling space and the variable space.
    ``feasible_witness`` is a point of the subspace meeting the
    equalities, PD in every cone.  The solve takes the real coordinates of
    ``eq_rows`` and ``subspace`` and sets both to None.

    ``var_blocks`` holds the real isometries V onto the variable's
    diagonal blocks, whose maps are y -> V^T y V, or None when the
    variable is one block.  The blocks may span less than the whole
    space; the variable vanishes off them.
    """

    var_cdim: int
    cone_maps: list
    eq_rows: np.ndarray | None
    eq_rhs: np.ndarray
    lift_cost: object
    extract_coupling: object
    feasible_witness: np.ndarray
    subspace: np.ndarray | None = None
    var_blocks: tuple | None = None
    notes: list = field(default_factory=list)

    def variable(self, blocks):
        """The variable whose diagonal blocks lead ``blocks``, an iterable
        ordered as ``cone_maps``; the rest is not read."""
        blocks = iter(blocks)
        if self.var_blocks is None:
            return next(blocks)
        return sum(v @ next(blocks) @ v.T for v in self.var_blocks)


@functools.lru_cache(maxsize=None)
def _herm_basis(d: int) -> np.ndarray:
    """Orthonormal Hermitian basis matching linalg.herm_to_vec coordinates,
    as one read-only (d^2, d, d) stack."""
    basis = linalg.vec_to_herm(np.eye(d * d), d)
    basis.flags.writeable = False
    return basis


def _marginal_rows(m1, m2, right, left):
    """Marginal constraints in compressed coordinates: the reduced states
    must equal m1 and m2 (the trace constraint sits in their span).  The
    rows are e x ``right`` and ``left`` x e over the basis stacks e;
    returns (rows, rhs)."""
    b1, b2 = _herm_basis(m1.shape[0]), _herm_basis(m2.shape[0])
    rows = np.concatenate([linalg.kron(b1, right), linalg.kron(left, b2)])
    rhs = np.concatenate([linalg.frob_inner(b1, m1), linalg.frob_inner(b2, m2)])
    return rows, rhs


@functools.lru_cache(maxsize=None)
def _cut_blocks(r1: int, r2: int, n: int, k: int):
    """Real isometries onto the diagonal blocks of a cone on n copies of
    C^r1 and one of C^r2 that commutes with the permutations within the
    first k copies and within the last n - k: Sym^k x Sym^(n-k) x C^r2,
    the vectors that group fixes, and its orthogonal complement (Schur's
    lemma).  None where the complement is empty and the cone one block.
    Read-only, as every problem of the same shape shares them."""
    s1, c1 = symmetric_isometry(r1, k)
    s2, c2 = symmetric_isometry(r1, n - k)
    rest = np.hstack([np.kron(s1, c2), np.kron(c1, s2), np.kron(c1, c2)])
    if rest.shape[1] == 0:
        return None
    blocks = (np.kron(np.kron(s1, s2), np.eye(r2)), np.kron(rest, np.eye(r2)))
    for v in blocks:
        v.flags.writeable = False
    return blocks


def extension_memory_estimate(r1: int, r2: int, n: int) -> int:
    """Bytes an n:1 extension holds at its peak, build and solve together,
    for marginal ranks r1 and r2.

    Counted: the orthonormal basis of the permutation-invariant subspace,
    r2^2 C(r1^2 + n - 1, n) rows of the variable's real dimension, and the
    elimination's right singular vectors lifted through it; the r1^2 + r2^2
    marginal rows, complex and in real coordinates; and the engine's
    constraint data, counted as four copies of the realified free
    directions, one (2 n_b)^2 block per diagonal block of every cone, and
    eight free x free matrices.  The engine holds at most three such
    copies at once: the caller's stacks (freed before the re-span unless
    another reference holds them), its flat copy and the re-spanned rows;
    and four such matrices: the Gram matrix of the rows, its two SVD
    factors and the transform.  The rest is headroom: the traced peak of
    d = 3, n = 2 is about half the estimate.
    """
    nc = r1**n * r2
    var = nc * nc  # real dimension of the variable
    n_rows = r1 * r1 + r2 * r2
    n_sub = r2 * r2 * math.comb(r1 * r1 + n - 1, n)
    # Free directions: the subspace less the independent marginal rows.
    free = n_sub - (n_rows - 1)
    subspace = 2 * 8 * n_sub * var
    eq_rows = 16 * n_rows * var + 8 * n_rows * var
    # The summed squared sizes of the realified blocks: cut k, and the
    # variable as cut n, splits into Sym^k x Sym^(n-k) x C^r2 and its
    # complement, an empty complement adding nothing.
    blocks = 0
    for k in (n, *range(1, n + 1)):
        fixed = math.comb(r1 + k - 1, k) * math.comb(r1 + n - k - 1, n - k) * r2
        blocks += (2 * fixed) ** 2 + (2 * (nc - fixed)) ** 2
    engine = 8 * (4 * free * blocks + 8 * free * free)
    return subspace + eq_rows + engine


@dataclass(frozen=True)
class _MarginalFactor:
    """Compression data for one marginal V diag(lam) V^dag.

    ``t`` = V diag(lam)^p maps the compressed space into the full one,
    ``g`` = t^dag t = diag(lam)^(2p), and ``m`` = diag(lam)^(1 - 2p) is
    the marginal in compressed coordinates, so the marginal constraint
    reads Tr_other[(. x g) Y] = m and m1 x m2 meets both.
    """

    t: np.ndarray
    g: np.ndarray
    m: np.ndarray
    lam: np.ndarray

    @property
    def rank(self) -> int:
        return len(self.lam)


def _marginal_factor(state: DensityMatrix, p: float, transpose: bool):
    """Compression data for the state's support, or for its transpose's:
    the conjugate, with the same eigenvalues and conjugated eigenvectors."""
    lam, v = state.support.eigenvalues, state.support.eigenvectors
    if transpose:
        v = v.conj()
    return _MarginalFactor(
        v * lam**p,
        np.diag(lam ** (2 * p)).astype(complex),
        np.diag(lam ** (1 - 2 * p)).astype(complex),
        lam,
    )


def marginals(rho: DensityMatrix, sigma: DensityMatrix, convention: str):
    """The matrices the two reduced states must equal under a convention."""
    if convention not in ("dpt", "gmpc"):
        raise InvalidDimension(f"unknown convention {convention!r}")
    marg1 = rho.matrix.T.copy() if convention == "dpt" else rho.matrix
    return marg1, sigma.matrix


def _class_basis(labels: np.ndarray) -> np.ndarray:
    """Orthonormal rows, in linalg.herm_to_vec coordinates, spanning the
    Hermitian matrices that are constant on every class of entries sharing
    a label.

    A class C closed under the adjoint gives one row, its indicator; a
    class paired with its adjoint gives two, C + C^dag and i(C - C^dag).
    Every coordinate belongs to at most one row, so the rows are
    orthogonal by construction.
    """
    nc = len(labels)
    i, j = np.triu_indices(nc, k=1)
    up, adj = labels[i, j], labels[j, i]
    # Each coordinate (diagonal, Re upper, Im upper) goes to the row keyed
    # by its class, the smaller label of the pair, with the value the
    # row's matrix has there; the i(C - C^dag) rows take the odd keys.
    pair = 2 * np.minimum(up, adj)
    key = np.concatenate([2 * np.diagonal(labels), pair, pair + 1])
    root2 = np.sqrt(2.0)
    val = np.concatenate(
        [np.ones(nc), np.full(len(up), root2), root2 * np.sign(adj - up)]
    )
    coord = np.flatnonzero(val != 0)
    row = np.unique(key[coord], return_inverse=True)[1]
    basis = np.zeros((row.max() + 1, nc * nc))
    basis[row, coord] = val[coord]
    return basis / np.linalg.norm(basis, axis=1, keepdims=True)


def _orbit_labels(r1: int, r2: int, n: int) -> np.ndarray:
    """Entry labels of an operator on n copies of C^r1 and one of C^r2 that
    are shared exactly by an orbit under permutations of the copies: the
    sorted (row, column) digit pairs of the copies, then that of the last
    factor, read as one number."""
    digits = np.indices((r1,) * n + (r2,)).reshape(n + 1, -1)
    pairs = np.sort(digits[:n, :, None] * r1 + digits[:n, None, :], axis=0)
    labels = digits[n][:, None] * r2 + digits[n][None, :]
    for code in pairs:
        labels = labels * (r1 * r1) + code
    return labels


def _anchor_blocks(f1: _MarginalFactor, f2: _MarginalFactor, on_first: bool):
    """Real isometries onto the variable's diagonal blocks that couple no
    two eigenvectors of the anchor marginal, the first or the second: the
    identity's columns per anchor eigenvector, as the compression basis
    diagonalizes the anchor.  None for a pure anchor, one block."""
    anchor = f1.lam if on_first else f2.lam
    if len(anchor) == 1:
        return None
    if np.min(np.diff(anchor)) < 1e-8:
        warnings.warn(
            "eigenbasis of the anchor marginal is not unique; using "
            "the decomposition as returned",
            DegenerateEigenbasis,
        )
    index = np.arange(f1.rank * f2.rank).reshape(f1.rank, f2.rank)
    return tuple(np.eye(index.size)[:, c] for c in (index if on_first else index.T))


_BUILT_KINDS = (
    "general",
    "ppt",
    "symmetric_ppt",
    "classical_quantum",
    "quantum_classical",
    "ppt_extension",
)


def build(rho, sigma, cset: CouplingSet, convention: str = "dpt") -> CouplingProblem:
    """Assemble the constraint data for a coupling optimization.  The
    product set has no free variables and is refused."""
    rho, sigma = as_density(rho), as_density(sigma)
    if rho.dim != sigma.dim:
        raise DimensionMismatch(f"state dims {rho.dim} and {sigma.dim} differ")
    kind = cset.kind
    if kind not in _BUILT_KINDS:
        raise InvalidDimension(f"no constraint data for coupling set kind {kind!r}")
    d = rho.dim
    marg1, marg2 = marginals(rho, sigma, convention)
    n = 1
    if kind == "ppt_extension":
        n = cset.n_copies or 2
        if n < 2 or n > PPT_EXTENSION_CAP:
            raise InvalidDimension(
                f"extension order {n} outside 2..{PPT_EXTENSION_CAP}"
            )
    if kind == "symmetric_ppt":
        # Symmetry forces equal marginals and a shared compression factor;
        # under the DPT convention that additionally requires rho^T = rho.
        if np.linalg.norm(rho.matrix - sigma.matrix) > 1e-8:
            raise MarginalMismatch(
                "symmetric couplings force equal marginals; rho != sigma"
            )
        if np.linalg.norm(marg1 - marg2) > 1e-8:
            raise MarginalMismatch(
                "symmetric couplings under the transposed convention need "
                "a transpose-invariant state"
            )
    # Scaled by lam^(1/4), an extension's middle copies would carry the
    # weights g, and its solves take more iterations.
    p = 0.25 if n == 1 else 0.0
    f1 = _marginal_factor(rho, p, convention == "dpt")
    f2 = f1 if kind == "symmetric_ppt" else _marginal_factor(sigma, p, False)
    r1, r2 = f1.rank, f2.rank
    if n > 1:
        need = extension_memory_estimate(r1, r2, n)
        if need > EXTENSION_MEMORY_BUDGET:
            raise InvalidDimension(
                f"{n}:1 extension of a {r1} x {r2} coupling needs about "
                f"{need / 2**30:.1f} GiB, above the "
                f"{EXTENSION_MEMORY_BUDGET / 2**30:.0f} GiB budget"
            )
    notes = []
    if r1 < d or r2 < d:
        notes.append(f"variable compressed to marginal supports ({r1} x {r2})")

    # The variable lives on (A1, A2..An, B): n copies of the first support
    # and one of the second; ``rest`` is the dimension of the middle copies.
    rest = r1 ** (n - 1)
    nc = r1 * rest * r2
    blocks = subspace = None
    if kind == "symmetric_ppt":
        blocks = (symmetric_isometry(r1)[0],)
        notes.append("variable restricted to the symmetric subspace")
    if kind in ("classical_quantum", "quantum_classical"):
        blocks = _anchor_blocks(f1, f2, kind == "classical_quantum")
        notes.append(f"block structure in the recorded eigenbasis ({kind})")
    if blocks is not None:  # a real or imaginary E keeps its kind in V E V^T
        ops = [v @ _herm_basis(v.shape[1]) @ v.T for v in blocks]
        subspace = linalg.herm_to_vec(np.concatenate(ops))
    if n > 1:
        blocks = _cut_blocks(r1, r2, n, n)
        subspace = _class_basis(_orbit_labels(r1, r2, n))
        notes.append(f"{n}:1 symmetric extension, PPT across every cut")
    rows, rhs = _marginal_rows(
        f1.m, f2.m, linalg.kron(np.eye(rest), f2.g), linalg.kron(f1.g, np.eye(rest))
    )

    # Every cone goes to the engine as its diagonal blocks, the variable's
    # first; a partial transpose on one copy is one block.
    cones, splits = [lambda y: y], [blocks]
    if kind in ("ppt", "symmetric_ppt", "ppt_extension"):
        for k in range(1, n + 1):
            cut = (r1**k, r1 ** (n - k) * r2)
            cones.append(lambda y, cut=cut: linalg.partial_transpose(y, 1, cut))
            splits.append(_cut_blocks(r1, r2, n, k))
    cone_maps = []
    for apply, split in zip(cones, splits):
        if split is None:
            cone_maps.append(apply)
        else:
            cone_maps.extend(lambda y, a=apply, v=v: v.T @ a(y) @ v for v in split)

    lift = linalg.kron(f1.t, f2.t)
    mid = np.arange(rest)

    def lift_cost(c):
        # c acts on (A1, B) and the identity on the middle copies.
        cc = linalg.hermitize(lift.conj().T @ c @ lift).reshape(r1, r2, r1, r2)
        y = np.zeros((r1, rest, r2) * 2, dtype=complex)
        y[:, mid, :, :, mid, :] = cc
        return y.reshape(nc, nc)

    def extract_coupling(y):
        # Trace out the middle copies.
        x = np.trace(y.reshape((r1, rest, r2) * 2), axis1=1, axis2=4)
        return lift @ x.reshape(r1 * r2, r1 * r2) @ lift.conj().T

    # The product coupling m1^(x n) x m2.
    witness = f2.m
    for _ in range(n):
        witness = linalg.kron(f1.m, witness)
    if kind == "symmetric_ppt":
        # With S = m = g, W = (S x S)(1 + F)/2 + sum_k (1 - lam_k)/2 |kk><kk|
        # meets Tr_2[(1 x S) W] = S, lies on Sym^2 and is PD there, and has
        # a PD partial transpose.
        witness = witness + witness @ flip_operator(r1).matrix
        witness = (witness + np.diag(np.diag(1 - f1.lam).ravel())) / 2
    return CouplingProblem(
        var_cdim=nc,
        cone_maps=cone_maps,
        eq_rows=rows,
        eq_rhs=rhs,
        lift_cost=lift_cost,
        extract_coupling=extract_coupling,
        subspace=subspace,
        feasible_witness=witness,
        var_blocks=blocks,
        notes=notes,
    )
