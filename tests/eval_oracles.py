"""The evaluation path's earlier formulas, as oracles.

``problem.QuadraticMatrixMap`` and ``problem.adjoint_jac`` contract flat
views of the coefficient stacks with one matrix product,
``spectral.eig_sym`` reverses ``eigh``'s ascending order instead of
sorting, and ``nuclear.prox_divided_diff`` repeats the rows and columns
of its block table instead of gathering them through an index built
block by block, and lists its kinks from a Python list of the flags.
The functions below are the formulas those replaced: ``np.tensordot``
contractions, a stable argsort reorder, a loop-built block index and a
loop over the numpy flags for the kinks.  Each rewrite must agree with
its oracle bit for bit.
"""

import numpy as np

from sdnop.nuclear import soft_pair_table
from sdnop.spectral import EigenDecomposition, as_symmetric, group_distinct


def map_value(mp, x):
    V = mp.A0 + np.tensordot(x, mp.Ai, axes=1)
    if mp.Aij is not None:
        V = V + 0.5 * np.tensordot(x, np.tensordot(x, mp.Aij, axes=(0, 0)),
                                   axes=(0, 0))
    return V


def map_jac(mp, x):
    J = mp.Ai
    if mp.Aij is not None:
        J = J + np.tensordot(x, mp.Aij, axes=(0, 0))
    return J


def map_hess_contract(mp, S):
    if mp.Aij is None:
        return np.zeros((mp.n, mp.n))
    return np.tensordot(mp.Aij, S, axes=([2, 3], [0, 1]))


def adjoint_jac(jac, S):
    return np.tensordot(jac, S, axes=([1, 2], [0, 1]))


def eig_sym(M):
    """Descending, sign-fixed eigendecomposition by a stable argsort."""
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


def _kink_flags(blocks, tau, group_tol):
    reps = blocks.values
    scale = 1.0 + (np.abs(reps).max() if reps.size else 0.0) + tau
    kink_tol = group_tol * scale
    flags = np.zeros(reps.size, dtype=np.int8)
    flags[np.abs(reps - tau) <= kink_tol] = 1
    flags[np.abs(reps + tau) <= kink_tol] = -1
    return flags


def prox_table(eig, tau, group_tol):
    """Soft-threshold divided-difference table over the spectrum of
    ``eig``, expanded to eigenvalue-index pairs through a block index
    filled block by block."""
    blocks = group_distinct(eig, group_tol)
    small = soft_pair_table(blocks.values, tau,
                            _kink_flags(blocks, tau, group_tol))
    expand = np.empty(eig.dim, dtype=int)
    for k, blk in enumerate(blocks.blocks):
        expand[list(blk)] = k
    return small[np.ix_(expand, expand)]


def kink_blocks(eig, tau, group_tol):
    """(block position, sign) of each block on a threshold kink, listed by
    a loop over every block."""
    flags = _kink_flags(group_distinct(eig, group_tol), tau, group_tol)
    return tuple((k, int(f)) for k, f in enumerate(flags) if f)
