"""Feasible sets of bipartite couplings as SDP constraint data.

A coupling is a bipartite state whose marginals are the two states being
compared.  Each variant of the feasible set is described by a Hermitian
variable space, linear equality constraints on it, and a list of cone
maps whose images must all be PSD:

  general           the full state set, cone = identity
  ppt               adds the partial transpose as a second cone
  symmetric_ppt     variable compressed to the symmetric subspace, plus PPT
  ppt_extension(n)  an n:1 symmetric extension with PPT across every cut
  classical_quantum block-diagonal in the eigenbasis of the first marginal
  quantum_classical mirrored on the second factor

The product set has a closed form (see wasserstein) and is not built here.

The DPT convention fixes the first marginal to rho^T and the GMPC
convention to rho; the second marginal is sigma in both.  "separable" is
accepted as an alias for the PPT set; the exactness flag records whether
PPT actually coincides with separability at the given dimension.

Problems are posed in compressed coordinates X = (T_1 x T_2) Y (T_1 x
T_2)^dag, which is exact: couplings are automatically supported on
supp(marg1) x supp(marg2), and partial transposes conjugate covariantly.
Well-conditioned marginals use the support isometry for T; marginals
with tiny eigenvalues are whitened (T absorbs the eigenvalue square
roots), which makes the product coupling the identity matrix and keeps
the feasible region's interior O(1) wide even when a marginal is nearly
singular or outright rank-deficient.
"""

from __future__ import annotations

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
SUPPORT_CUTOFF = 1e-12
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
    that must be PSD (the first map always reproducing the variable itself),
    the equality constraints read Tr(eq_rows[i] X) = eq_rhs[i] with
    ``eq_rows`` one (k, var_cdim, var_cdim) stack (set to None by the
    solve, which takes its real coordinates), and ``lift_cost`` /
    ``extract_coupling`` translate between the d^2 coupling space and the
    variable space.
    """

    var_cdim: int
    cone_maps: list
    eq_rows: np.ndarray | None
    eq_rhs: np.ndarray
    lift_cost: object
    extract_coupling: object
    feasible_witness: np.ndarray | None = None
    notes: list = field(default_factory=list)


def _herm_basis(d: int) -> np.ndarray:
    """Orthonormal Hermitian basis matching linalg.herm_to_vec coordinates,
    as one (d^2, d, d) stack."""
    return linalg.vec_to_herm(np.eye(d * d), d)


def _marginal_rows(m1, m2, embed1, embed2):
    """Marginal constraints in compressed coordinates: the reduced states
    must equal m1 and m2 (the trace constraint sits in their span).
    ``embed1``/``embed2`` act on a whole basis stack; returns (rows, rhs)."""
    b1, b2 = _herm_basis(m1.shape[0]), _herm_basis(m2.shape[0])
    rows = np.concatenate([embed1(b1), embed2(b2)])
    rhs = np.concatenate([linalg.frob_inner(b1, m1), linalg.frob_inner(b2, m2)])
    return rows, rhs


def extension_memory_estimate(r1: int, r2: int, n: int) -> int:
    """Bytes the compile step of an n:1 extension holds at its peak, for
    marginal ranks r1 and r2.

    Counted: the Hermitian basis of the variable and its n - 1 stacks of
    swap rows; the stack of all equality rows (r1^2 + r2^2 marginal rows
    and (n - 1) var swap rows) and its real coordinates, with the full SVD
    of those (input copy, U, V^T and workspace); and the engine's
    constraint data.  That is four copies of the realified free
    directions, one (2 nc)^2 block per cone: the caller's stacks (freed
    before the engine's SVD unless another reference holds them), the
    engine's flat copy, and the SVD's input copy and V^T; plus U and the
    SVD workspace, eight free x free matrices.
    """
    nc = r1**n * r2
    var = nc * nc  # real dimension of the variable
    n_rows = r1 * r1 + r2 * r2 + (n - 1) * var
    # Free directions: permutation-invariant Hermitian operators, i.e.
    # r2^2 times the symmetric n-th power of the r1^2 operator space,
    # less the independent marginal rows.
    free = r2 * r2 * math.comb(r1 * r1 + n - 1, n) - (r1 * r1 + r2 * r2 - 1)
    basis_and_swaps = 16 * var * var * n
    eq_rows = 16 * n_rows * var + 2 * 8 * n_rows * var
    svd = 8 * (
        2 * n_rows * var + n_rows * n_rows + var * var + 4 * min(n_rows, var) ** 2
    )
    engine = 8 * (4 * free * (n + 1) * (2 * nc) ** 2 + 8 * free * free)
    return basis_and_swaps + eq_rows + svd + engine


def permute_systems(m: np.ndarray, dims, perm) -> np.ndarray:
    """Reorder tensor factors of an operator."""
    k = len(dims)
    t = m.reshape(*dims, *dims)
    axes = list(perm) + [k + p for p in perm]
    n = int(np.prod(dims))
    return t.transpose(axes).reshape(n, n)


WHITEN_THRESHOLD = 1e-2


@dataclass(frozen=True)
class _MarginalFactor:
    """Compression data for one marginal.

    ``t`` maps the compressed space into the full one, ``g`` = t^dag t,
    and ``m`` is the marginal in compressed coordinates, so the marginal
    constraint reads Tr_other[(. x g) Y] = m.  Well-conditioned marginals
    are only support-compressed (t = the isometry, m = diag(lam));
    marginals with tiny eigenvalues are whitened (t absorbs sqrt(lam),
    m = 1), which keeps the feasible set's interior O(1) wide at the cost
    of rescaling the variable.
    """

    t: np.ndarray
    g: np.ndarray
    m: np.ndarray
    lam: np.ndarray
    isometry: np.ndarray

    @property
    def rank(self) -> int:
        return len(self.lam)


def _marginal_factor(mat: np.ndarray) -> _MarginalFactor:
    eig = linalg.eig_hermitian(mat)
    keep = eig.eigenvalues > SUPPORT_CUTOFF
    lam = eig.eigenvalues[keep]
    v = eig.eigenvectors[:, keep]
    r = len(lam)
    diag = np.diag(lam).astype(complex)
    if lam.min() < WHITEN_THRESHOLD:
        return _MarginalFactor(v * np.sqrt(lam), diag, np.eye(r, dtype=complex), lam, v)
    return _MarginalFactor(v, np.eye(r, dtype=complex), diag, lam, v)


def marginals(rho: DensityMatrix, sigma: DensityMatrix, convention: str):
    """The matrices the two reduced states must equal under a convention."""
    if convention not in ("dpt", "gmpc"):
        raise InvalidDimension(f"unknown convention {convention!r}")
    marg1 = rho.matrix.T.copy() if convention == "dpt" else rho.matrix
    return marg1, sigma.matrix


def build(rho, sigma, cset: CouplingSet, convention: str = "dpt") -> CouplingProblem:
    """Assemble the constraint data for a coupling optimization.  The
    product set has no free variables and is refused."""
    rho, sigma = as_density(rho), as_density(sigma)
    if rho.dim != sigma.dim:
        raise DimensionMismatch(f"state dims {rho.dim} and {sigma.dim} differ")
    d = rho.dim
    marg1, marg2 = marginals(rho, sigma, convention)
    notes = []
    f1 = _marginal_factor(marg1)
    if cset.kind == "symmetric_ppt":
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
        f2 = f1
    else:
        f2 = _marginal_factor(marg2)
    g1, g2, m1, m2 = f1.g, f2.g, f1.m, f2.m
    r1, r2 = f1.rank, f2.rank
    if r1 < d or r2 < d:
        notes.append(f"variable compressed to marginal supports ({r1} x {r2})")
    lift = np.kron(f1.t, f2.t)

    def lift_cost_base(c):
        return linalg.hermitize(lift.conj().T @ c @ lift)

    def lift_back(y):
        return lift @ y @ lift.conj().T

    if cset.kind in ("general", "ppt", "classical_quantum", "quantum_classical"):
        rows, rhs = _marginal_rows(
            m1,
            m2,
            lambda e: np.kron(e, g2),
            lambda e: np.kron(g1, e),
        )
        cones = [lambda y: y]
        if cset.kind == "ppt":
            cones.append(lambda y: linalg.partial_transpose(y, 1, (r1, r2)))
        if cset.kind in ("classical_quantum", "quantum_classical"):
            # The compression basis diagonalizes the anchor marginal, so
            # the block structure is literal in these coordinates.
            on_first = cset.kind == "classical_quantum"
            anchor = f1.lam if on_first else f2.lam
            if len(anchor) > 1 and np.min(np.diff(anchor)) < 1e-8:
                warnings.warn(
                    "eigenbasis of the anchor marginal is not unique; using "
                    "the decomposition as returned",
                    DegenerateEigenbasis,
                )
            block = (lambda p: p // r2) if on_first else (lambda p: p % r2)
            dd = r1 * r2
            p, q = np.triu_indices(dd, k=1)
            cross = np.flatnonzero(block(p) != block(q))
            # The Re and Im basis elements of every entry coupling two
            # blocks (herm_to_vec order: diagonal, Re upper, Im upper).
            off = _herm_basis(dd)[dd + np.concatenate([cross, len(p) + cross])]
            rows = np.concatenate([rows, off])
            rhs = np.concatenate([rhs, np.zeros(len(off))])
            notes.append(f"block structure in the recorded eigenbasis ({cset.kind})")
        return CouplingProblem(
            var_cdim=r1 * r2,
            cone_maps=cones,
            eq_rows=rows,
            eq_rhs=rhs,
            lift_cost=lift_cost_base,
            extract_coupling=lift_back,
            feasible_witness=np.kron(m1, m2),
            notes=notes,
        )

    if cset.kind == "symmetric_ppt":
        vs = symmetric_isometry(r1)
        ds = vs.shape[1]
        rows, rhs = _marginal_rows(
            m1,
            m2,
            lambda e: vs.conj().T @ np.kron(e, g2) @ vs,
            lambda e: vs.conj().T @ np.kron(g1, e) @ vs,
        )
        cones = [
            lambda z: z,
            lambda z: linalg.partial_transpose(vs @ z @ vs.conj().T, 1, (r1, r2)),
        ]
        return CouplingProblem(
            var_cdim=ds,
            cone_maps=cones,
            eq_rows=rows,
            eq_rhs=rhs,
            lift_cost=lambda c: vs.conj().T @ lift_cost_base(c) @ vs,
            extract_coupling=lambda z: lift_back(vs @ z @ vs.conj().T),
            notes=notes + ["variable compressed to the symmetric subspace"],
        )

    if cset.kind == "ppt_extension":
        # Support-compressed but never whitened: the extension variable
        # blows up like 1/lambda^n in whitened coordinates, which ruins
        # the gap certificate; the isometry form keeps it a state.
        n = cset.n_copies or 2
        if n < 2 or n > PPT_EXTENSION_CAP:
            raise InvalidDimension(
                f"extension order {n} outside 2..{PPT_EXTENSION_CAP}"
            )
        need = extension_memory_estimate(r1, r2, n)
        if need > EXTENSION_MEMORY_BUDGET:
            raise InvalidDimension(
                f"{n}:1 extension of a {r1} x {r2} coupling needs about "
                f"{need / 2**30:.1f} GiB, above the "
                f"{EXTENSION_MEMORY_BUDGET / 2**30:.0f} GiB budget"
            )
        v1, v2 = f1.isometry, f2.isometry
        mc1 = linalg.hermitize(v1.conj().T @ marg1 @ v1)
        mc2 = linalg.hermitize(v2.conj().T @ marg2 @ v2)
        iso = np.kron(v1, v2)
        rest = r1 ** (n - 1)
        nc = r1**n * r2
        rows, rhs = _marginal_rows(
            mc1,
            mc2,
            lambda e: np.kron(e, np.eye(rest * r2)),
            lambda e: np.kron(np.eye(r1**n), e),
        )
        rows = [rows]
        # Permutation symmetry of the A copies via adjacent transpositions.
        f = flip_operator(r1).matrix
        basis = _herm_basis(nc)
        for t in range(n - 1):
            swap = np.kron(
                np.kron(np.eye(r1**t), f), np.eye(r1 ** (n - t - 2) * r2)
            )
            rows.append(swap @ basis @ swap - basis)
        del basis
        rows = np.concatenate(rows)
        rhs = np.concatenate([rhs, np.zeros(len(rows) - len(rhs))])
        cones = [lambda y: y]
        for k in range(1, n + 1):
            dims_cut = (r1**k, r1 ** (n - k) * r2)
            cones.append(
                lambda y, dims_cut=dims_cut: linalg.partial_transpose(y, 1, dims_cut)
            )

        def lift_ext(c):
            cc = linalg.hermitize(iso.conj().T @ c @ iso)  # acts on (A1, B)
            k = np.kron(cc, np.eye(rest))  # order [A1, B, mid]
            return permute_systems(k, (r1, r2, rest), (0, 2, 1))

        def extract(x):
            per = permute_systems(
                x, (r1,) * n + (r2,), (0, n) + tuple(range(1, n))
            )
            reduced = linalg.partial_trace(per, 2, (r1 * r2, rest))
            return iso @ reduced @ iso.conj().T

        witness = mc2
        for _ in range(n):
            witness = np.kron(mc1, witness)
        return CouplingProblem(
            var_cdim=nc,
            cone_maps=cones,
            eq_rows=rows,
            eq_rhs=rhs,
            lift_cost=lift_ext,
            extract_coupling=extract,
            feasible_witness=witness,
            notes=notes + [f"{n}:1 symmetric extension, PPT across every cut"],
        )

    raise InvalidDimension(f"no constraint data for coupling set kind {cset.kind!r}")
