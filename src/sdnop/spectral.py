"""Symmetric-matrix spectral utilities.

Everything downstream (projections, prox operators, curvature terms) is
driven by eigenvalue decompositions of symmetric matrices, index partitions
of the spectrum by sign, groupings of the spectrum into distinct blocks,
and the isometric half-vectorization.  This module owns those primitives.
"""

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .errors import InvalidInput

__all__ = [
    "as_symmetric",
    "default_tol",
    "EigenDecomposition",
    "eig_sym",
    "SignPartition",
    "partition_by_sign",
    "DistinctBlocks",
    "group_distinct",
    "choice_table",
    "svec",
    "smat",
    "svec_block",
    "pinv_sym",
]

_SYM_TOL = 1e-8


def as_symmetric(M, name="matrix"):
    """Validate and symmetrize a square matrix.

    Raises
    ------
    InvalidInput
        If ``M`` is not square, contains non-finite entries, or its
        asymmetry exceeds a small relative tolerance.
    """
    M = np.asarray(M, dtype=np.float64)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise InvalidInput(f"{name} must be square, got shape {M.shape}")
    if M.size and not np.all(np.isfinite(M)):
        raise InvalidInput(f"{name} contains non-finite entries")
    if M.size:
        scale = 1.0 + np.abs(M).max()
        gap = np.abs(M - M.T).max()
        if gap > _SYM_TOL * scale:
            raise InvalidInput(f"{name} is not symmetric (asymmetry {gap:.3e})")
    # halve before adding, so finite entries near the float limit stay finite
    H = 0.5 * M
    return H + H.T


def default_tol(values):
    """Sign tolerance scaled by the largest eigenvalue magnitude."""
    values = np.asarray(values)
    top = np.abs(values).max() if values.size else 0.0
    return 1e-8 * (1.0 + top)


@dataclass(frozen=True)
class EigenDecomposition:
    """Spectral factorization M = basis @ diag(values) @ basis.T.

    ``values`` are sorted descending; ``basis`` columns are orthonormal with
    a deterministic sign (largest-magnitude entry of each column positive).
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

    def reconstruct(self):
        return (self.basis * self.values) @ self.basis.T


def eig_sym(M):
    """Eigendecomposition of a symmetric matrix, descending, sign-fixed."""
    M = as_symmetric(M)
    if M.size == 0:
        return EigenDecomposition(np.zeros(0), np.zeros((0, 0)))
    vals, vecs = np.linalg.eigh(M)
    order = np.argsort(vals, kind="stable")[::-1]
    vals = vals[order]
    vecs = vecs[:, order]
    anchor = np.argmax(np.abs(vecs), axis=0)
    signs = np.sign(vecs[anchor, np.arange(vecs.shape[1])])
    signs[signs == 0.0] = 1.0
    return EigenDecomposition(vals, vecs * signs)


@dataclass(frozen=True)
class SignPartition:
    """Indices of the spectrum split by sign against a tolerance."""

    pos: Tuple[int, ...]
    zero: Tuple[int, ...]
    neg: Tuple[int, ...]
    tol: float


def partition_by_sign(eig, tol=None):
    """Partition the eigenvalue indices of ``eig`` into (pos, zero, neg).

    Parameters
    ----------
    eig : EigenDecomposition
    tol : float, optional
        Absolute cutoff; defaults to ``default_tol(eig.values)``.
    """
    if tol is None:
        tol = default_tol(eig.values)
    if tol < 0:
        raise InvalidInput("sign tolerance must be nonnegative")
    vals = eig.values
    pos = tuple(int(i) for i in np.flatnonzero(vals > tol))
    neg = tuple(int(i) for i in np.flatnonzero(vals < -tol))
    zero = tuple(int(i) for i in np.flatnonzero(np.abs(vals) <= tol))
    return SignPartition(pos, zero, neg, float(tol))


@dataclass(frozen=True)
class DistinctBlocks:
    """Grouping of a descending spectrum into blocks of equal eigenvalues.

    ``values`` holds one representative per block (the block mean),
    ``blocks`` the index tuples, and ``zero_block`` the position of the
    block sitting at zero, if any.
    """

    values: np.ndarray
    blocks: Tuple[Tuple[int, ...], ...]
    zero_block: Optional[int]


def group_distinct(eig, group_tol=1e-8):
    """Group consecutive eigenvalues whose gap is below ``group_tol``.

    The tolerance is scaled by (1 + largest magnitude); the first block
    whose representative lies within it of zero is flagged as the zero
    block.
    """
    vals = eig.values
    if vals.size == 0:
        return DistinctBlocks(np.zeros(0), (), None)
    scale = 1.0 + np.abs(vals).max()
    gap_tol = group_tol * scale
    cuts = [0, *(np.flatnonzero(vals[:-1] - vals[1:] > gap_tol) + 1), vals.size]
    blocks = tuple(tuple(range(a, b)) for a, b in zip(cuts[:-1], cuts[1:]))
    if len(blocks) == vals.size:
        reps = vals.copy()
    else:
        reps = np.array([vals[b[0]:b[-1] + 1].mean() for b in blocks])
    zero = np.flatnonzero(np.abs(reps) <= gap_tol)
    zero_block = int(zero[0]) if zero.size else None
    return DistinctBlocks(reps, blocks, zero_block)


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


def _triangle(q):
    """Row and column indices of the upper triangle of a q x q matrix,
    column by column, and the isometric scale of each entry (sqrt(2) off
    the diagonal, 1 on it)."""
    j, i = np.tril_indices(q)
    return i, j, np.where(i == j, 1.0, np.sqrt(2.0))


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


def svec_block(M, rows):
    """Isometric half-vectorization of the principal submatrix on ``rows``."""
    M = np.asarray(M)
    return svec(M[np.ix_(list(rows), list(rows))])


def pinv_sym(M, cutoff=None):
    """Moore-Penrose pseudoinverse of a symmetric matrix.

    Eigenvalues with magnitude at most ``cutoff`` are treated as zero.
    ``cutoff`` defaults to 1e-12 scaled by (1 + largest magnitude).
    """
    eig = eig_sym(M)
    if cutoff is None:
        cutoff = 1e-12 * (1.0 + eig.norm)
    inv = np.where(np.abs(eig.values) > cutoff, 1.0 / np.where(eig.values == 0.0, 1.0, eig.values), 0.0)
    return (eig.basis * inv) @ eig.basis.T
