"""Symmetric-matrix spectral utilities.

Everything downstream (projections, prox operators, curvature terms) is
driven by eigenvalue decompositions of symmetric matrices, index partitions
of the spectrum by sign, groupings of the spectrum into distinct blocks,
and the isometric half-vectorization.  This module owns those
primitives, the compression of a direction into an eigenbasis, and the
one generalized-derivative element type, :class:`HadamardElement`.
"""

from dataclasses import dataclass
from functools import lru_cache
from typing import Optional, Tuple

import numpy as np

from .errors import InvalidInput, require_nonnegative

__all__ = [
    "check_symmetric",
    "as_symmetric",
    "default_tol",
    "EigenDecomposition",
    "symmetric_part",
    "eig_sym",
    "eig_symmetrized",
    "SignPartition",
    "partition_by_sign",
    "DistinctBlocks",
    "group_distinct",
    "choice_table",
    "compress",
    "hadamard_image",
    "HadamardElement",
    "svec",
    "smat",
    "pinv_sym",
]

SYM_TOL = 1e-8
# relative gap below which consecutive eigenvalues form one group
GROUP_TOL = 1e-8
# half the largest float: two entries this large still add to a finite sum
_HALF_MAX = float(np.finfo(np.float64).max) / 2.0


def check_symmetric(M, name="matrix"):
    """Validate a square matrix and return it as a float64 array.

    Raises
    ------
    InvalidInput
        If ``M`` is not square, contains non-finite entries, or its
        asymmetry exceeds a small relative tolerance.
    """
    M = np.asarray(M, dtype=np.float64)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise InvalidInput(f"{name} must be square, got shape {M.shape}")
    if M.size:
        # the largest magnitude is inf or NaN exactly when some entry is
        top = np.abs(M).max()
        if not np.isfinite(top):
            raise InvalidInput(f"{name} contains non-finite entries")
        gap = np.abs(M - M.T).max()
        if gap > SYM_TOL * (1.0 + top):
            raise InvalidInput(f"{name} is not symmetric (asymmetry {gap:.3e})")
    return M


def as_symmetric(M, name="matrix"):
    """Validate (see :func:`check_symmetric`) and symmetrize a square
    matrix by :func:`symmetric_part`.

    Returns a new array.  A matrix that is symmetric bit for bit comes
    back with its bits, subnormal entries included.
    """
    return symmetric_part(check_symmetric(M, name), name)


def default_tol(values):
    """Sign tolerance scaled by the largest eigenvalue magnitude."""
    values = np.asarray(values)
    top = np.abs(values).max() if values.size else 0.0
    return 1e-8 * (1.0 + top)


@dataclass(frozen=True)
class EigenDecomposition:
    """Spectral factorization M = basis @ diag(values) @ basis.T.

    ``values`` are sorted descending; ``basis`` columns are orthonormal and
    column-major.  :func:`eig_sym` fixes each column's sign (its
    largest-magnitude entry positive), so that public callers see a
    deterministic basis.  :func:`eig_symmetrized` leaves the sign as
    LAPACK returns it: what the solver forms from a basis (the prox, the
    projection, the Hadamard-weighted Grams of the Newton element) is
    even in each column, and IEEE rounding is symmetric in sign, so a
    flipped column gives the same bits.
    """

    values: np.ndarray
    basis: np.ndarray

    @property
    def dim(self):
        return self.values.size

    @property
    def norm(self):
        """Spectral norm: the larger end of the descending spectrum in
        magnitude (0 for an empty one)."""
        if not self.values.size:
            return 0.0
        return max(float(self.values[0]), -float(self.values[-1]))


def symmetric_part(A, name):
    """(A + A^T) / 2 of a square matrix or of each slice of a stack
    (..., k, k), checked finite: the symmetrization of the data, the
    multipliers and the matrices formed from them.

    Adds before halving, so the result is symmetric bit for bit and an
    exactly symmetric matrix keeps its bits, subnormals included; only an
    entry whose sum overflows is halved first.  Raises InvalidInput
    naming ``name`` when an entry is not finite.  Unlike
    :func:`as_symmetric` it does not test the asymmetry: it is for
    matrices formed from checked operands.  Only the per-step
    ``soft_threshold``, ``positive_part`` and ``newton_matrix_element``
    form 0.5 (X + X^T) inline: the same bits on a finite sum.
    """
    At = A.swapaxes(-1, -2)
    # one scan settles the usual case: entries of magnitude at most
    # DBL_MAX/2 cannot overflow the sum, and NaN fails the comparison
    if np.abs(A).max(initial=0.0) <= _HALF_MAX:
        S = A + At
        S *= 0.5
        return S
    with np.errstate(over="ignore", invalid="ignore"):
        S = (A + At) * 0.5
        S = np.where(np.isfinite(S), S, 0.5 * A + 0.5 * At)
    if not np.isfinite(S).all():
        raise InvalidInput(f"{name} contains non-finite entries")
    return S


def eig_sym(M, name="matrix"):
    """Eigendecomposition of a symmetric matrix, descending, sign-fixed.

    ``M`` is validated and symmetrized by :func:`as_symmetric` first, and
    named ``name`` in its errors.  The largest entry of a unit column is
    not zero, so its sign is +1 or -1.
    """
    eig = eig_symmetrized(as_symmetric(M, name))
    if not eig.dim:
        return eig
    Q = eig.basis
    anchor = Q[np.abs(Q).argmax(axis=0), np.arange(eig.dim)]
    return EigenDecomposition(
        eig.values, np.multiply(Q, np.copysign(1.0, anchor), order="F"))


def eig_symmetrized(S):
    """Descending eigendecomposition of a matrix that is exactly symmetric
    and finite already, as :func:`as_symmetric` and
    :func:`symmetric_part` return it, without validating it again.

    Unlike :func:`eig_sym` it does not fix the column signs (see
    :class:`EigenDecomposition`): the solver decomposes its shifted
    matrices here and only forms sign-even quantities from the basis.
    Relies on ``np.linalg.eigh`` returning the eigenvalues in ascending
    order (LAPACK's guarantee), so reversing the columns is the
    descending order, ties included, without a sort.
    """
    if S.shape[0] == 0:
        return EigenDecomposition(np.zeros(0), np.zeros((0, 0)))
    vals, vecs = np.linalg.eigh(S)
    # column-major, so that every product downstream takes the same BLAS
    # path whichever way the columns point
    return EigenDecomposition(vals[::-1].copy(),
                              np.asfortranarray(vecs[:, ::-1]))


@dataclass(frozen=True)
class SignPartition:
    """Indices of the spectrum split by sign against a tolerance."""

    pos: Tuple[int, ...]
    zero: Tuple[int, ...]
    neg: Tuple[int, ...]
    tol: float


def partition_by_sign(eig):
    """Partition the eigenvalue indices of ``eig`` into (pos, zero, neg),
    with the cutoff ``default_tol(eig.values)``, 1e-8 (1 + max |l_i|)."""
    tol = default_tol(eig.values)
    # a loop over a Python list: for the spectra of fewer than about 50
    # eigenvalues that the diagnostics and the subgradient structure
    # split, one numpy call costs more than the whole loop
    vals = eig.values.tolist()
    pos = tuple(i for i, v in enumerate(vals) if v > tol)
    neg = tuple(i for i, v in enumerate(vals) if v < -tol)
    zero = tuple(i for i, v in enumerate(vals) if abs(v) <= tol)
    return SignPartition(pos, zero, neg, float(tol))


@dataclass(frozen=True)
class DistinctBlocks:
    """Grouping of a descending spectrum into blocks of equal eigenvalues.

    ``values`` holds one representative per block: the block's value
    where all its eigenvalues are equal, else their mean.  ``blocks``
    holds the index tuples, and ``zero_block`` the position of the block
    sitting at zero, if any.
    """

    values: np.ndarray
    blocks: Tuple[Tuple[int, ...], ...]
    zero_block: Optional[int]


def group_distinct(eig, group_tol=GROUP_TOL):
    """Group consecutive eigenvalues whose gap is below ``group_tol``.

    The tolerance is scaled by (1 + largest magnitude); the first block
    whose representative lies within it of zero is flagged as the zero
    block.  A block of exactly equal eigenvalues is represented by their
    value, which their mean can round off; any other block by the mean.
    So at ``group_tol`` 0 every representative is an eigenvalue.
    """
    require_nonnegative("group_tol", group_tol)
    # loops over a Python list, as in partition_by_sign
    vals = eig.values.tolist()
    if not vals:
        return DistinctBlocks(np.zeros(0), (), None)
    gap_tol = group_tol * (1.0 + max(map(abs, vals)))
    cuts = [i for i in range(1, len(vals)) if vals[i - 1] - vals[i] > gap_tol]
    bounds = [0, *cuts, len(vals)]
    blocks = tuple(tuple(range(a, b))
                   for a, b in zip(bounds[:-1], bounds[1:]))
    # descending, so equal ends make the whole block equal
    reps = [vals[b[0]] if vals[b[0]] == vals[b[-1]]
            else float(eig.values[b[0]:b[-1] + 1].mean()) for b in blocks]
    zero_block = next((k for k, v in enumerate(reps) if abs(v) <= gap_tol),
                      None)
    return DistinctBlocks(np.array(reps), blocks, zero_block)


def choice_table(choice, k, name):
    """Free Hadamard block of a generalized-derivative element.

    ``choice`` is "zero", "identity", or an explicit symmetric k-by-k
    table with entries in [0, 1]; ``name`` labels the argument in errors.
    """
    if isinstance(choice, str):
        if choice == "zero":
            return np.zeros((k, k))
        if choice == "identity":
            return np.ones((k, k))
        raise InvalidInput(f"unknown {name} {choice!r}")
    omega = np.asarray(choice, dtype=np.float64)
    if omega.shape != (k, k):
        raise InvalidInput(f"{name} table must be {k}x{k}, got {omega.shape}")
    if np.abs(omega - omega.T).max(initial=0.0) > 1e-12:
        raise InvalidInput(f"{name} table must be symmetric")
    if omega.size and (omega.min() < 0.0 or omega.max() > 1.0):
        raise InvalidInput(f"{name} entries must lie in [0, 1]")
    return omega


def compress(basis, H, name, of):
    """basis^T H basis: a direction H compressed into an eigenbasis of
    the matrix that ``of`` names.

    H is validated and symmetrized by :func:`as_symmetric`.  InvalidInput
    names it by ``name`` when it is not square, finite and symmetric, and
    names both when its size differs from the basis's.
    """
    H = as_symmetric(H, name)
    if H.shape != (basis.shape[0],) * 2:
        raise InvalidInput(f"{name} dimension does not match {of}")
    return basis.T @ H @ basis


def hadamard_image(basis, table, Hh, overlays=()):
    """basis (table o Hh) basis^T, symmetrized, for a direction Hh
    compressed into ``basis`` and a table (or a scalar).

    Each (idx, block) of ``overlays`` replaces the diagonal block idx of
    table o Hh first: a directional derivative of a spectral operator is
    a Hadamard table off the blocks where the scalar function has a kink,
    and a nested derivative on them.
    """
    out = table * Hh
    for idx, block in overlays:
        out[np.ix_(idx, idx)] = block
    return symmetric_part(basis @ out @ basis.T, "directional derivative")


@dataclass(frozen=True)
class HadamardElement:
    """Linear operator H -> basis (table o (basis^T H basis)) basis^T.

    Every constructible element of a generalized derivative of a spectral
    operator (the prox, the envelope gradient, the PSD projection) has
    this form, for an eigenbasis of the point and a table of divided
    differences with a committed choice on its kink blocks.
    """

    basis: np.ndarray
    table: np.ndarray

    def apply(self, H):
        Hh = compress(self.basis, H, "H", "the element's basis")
        return self.basis @ (self.table * Hh) @ self.basis.T


@lru_cache(maxsize=None)
def _triangle(q):
    """Row and column indices of the upper triangle of a q x q matrix,
    column by column, and the isometric scale of each entry (sqrt(2) off
    the diagonal, 1 on it); cached, so read-only."""
    j, i = np.tril_indices(q)
    out = (i, j, np.where(i == j, 1.0, np.sqrt(2.0)))
    for a in out:
        a.flags.writeable = False
    return out


def svec(M):
    """Isometric half-vectorization.

    Stacks the columns of the upper triangle, scaling off-diagonal entries
    by sqrt(2) so that inner products of vectorizations match Frobenius
    inner products of the matrices.  A stack of shape (..., q, q) maps to
    (..., q(q+1)/2).
    """
    M = np.asarray(M, dtype=np.float64)
    i, j, scale = _triangle(M.shape[-1])
    return M[..., i, j] * scale


def smat(v):
    """Inverse of :func:`svec`."""
    v = np.asarray(v, dtype=np.float64)
    q = int(round((np.sqrt(8.0 * v.size + 1.0) - 1.0) / 2.0))
    if q * (q + 1) // 2 != v.size:
        raise InvalidInput(f"length {v.size} is not a triangular number")
    i, j, scale = _triangle(q)
    M = np.zeros((q, q))
    M[i, j] = M[j, i] = v / scale
    return M


def pinv_sym(M):
    """Moore-Penrose pseudoinverse of a symmetric matrix.

    Eigenvalues with magnitude at most 1e-12 (1 + ||M||_2) are treated
    as zero.
    """
    eig = eig_sym(M)
    cutoff = 1e-12 * (1.0 + eig.norm)
    inv = np.where(np.abs(eig.values) > cutoff, 1.0 / np.where(eig.values == 0.0, 1.0, eig.values), 0.0)
    return (eig.basis * inv) @ eig.basis.T
