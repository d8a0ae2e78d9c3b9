"""The evaluation path's earlier and reference formulas, as oracles.

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

``apply_jac``, ``lagrangian`` and ``newton_element_einsum`` are the
reference formulas the tests check the library against: the directional
image of a Jacobian stack, the Lagrangian value, and the Newton element
assembled with einsum over the full tables, with every operator
decomposing its own argument and a free committed table on each kink
block.
"""

import numpy as np

from sdnop import spectral
from sdnop.nuclear import grad_moreau_env, prox_divided_diff, soft_pair_table
from sdnop.problem import hess_xx_lagrangian
from sdnop.psd_cone import proj_bsub_element, project_psd
from sdnop.spectral import (
    EigenDecomposition,
    as_symmetric,
    choice_table,
    group_distinct,
)


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


def apply_jac(jac, d):
    """Directional image sum_i d_i (d/dx_i) of a stacked Jacobian (n, k, k)."""
    return np.tensordot(d, jac, axes=1)


def lagrangian(problem, x, Y, mu, Gamma):
    """f + <Y, F> + <mu, h> - <Gamma, g>."""
    return (problem.f(x) + float(np.sum(Y * problem.F(x)))
            + float(mu @ problem.h(x)) - float(np.sum(Gamma * problem.g(x))))


def newton_element_einsum(problem, x, Y, mu, Gamma, c, group_tol=1e-8,
                          up_choice="zero", low_choice="zero",
                          beta_choice="zero"):
    """Reference assembly of the Newton element: every operator
    decomposes its own argument and the curvature blocks are contracted
    with einsum over the full tables.  The ``*_choice`` arguments commit
    the free Hadamard blocks where the shifted spectra sit exactly on a
    kink (see :func:`spectral.choice_table`); the library's element
    commits "zero" on each."""
    tau = 1.0 / c
    Yhat = grad_moreau_env(problem.F(x) + Y / c, tau) if problem.q \
        else np.zeros((0, 0))
    muhat = mu + c * problem.h(x) if problem.m else np.zeros(0)
    Ghat = project_psd(Gamma - c * problem.g(x))[0] if problem.p \
        else np.zeros((0, 0))
    A = hess_xx_lagrangian(problem, x, Yhat, muhat, Ghat)
    if problem.q:
        eig = spectral.eig_sym(problem.F(x) + Y / c)
        dd = prox_divided_diff(eig, tau, group_tol)
        T = dd.table.copy()
        for k, sign in dd.kink_blocks:
            idx = list(dd.blocks.blocks[k])
            choice = up_choice if sign > 0 else low_choice
            T[np.ix_(idx, idx)] = choice_table(choice, len(idx), "choice")
        Gs = np.einsum("ra,iab,bs->irs", eig.basis.T, problem.jac_F(x),
                       eig.basis, optimize=True)
        A = A + c * np.einsum("ikl,kl,jkl->ij", Gs, 1.0 - T, Gs,
                              optimize=True)
    if problem.m:
        J = problem.jac_h(x)
        A = A + c * (J.T @ J)
    if problem.p:
        M = Gamma - c * problem.g(x)
        scale = 1.0 + float(np.linalg.norm(M, 2)) if M.size else 1.0
        elem = proj_bsub_element(M, beta_choice, tol=group_tol * scale)
        P = elem.basis
        Cs = np.einsum("ra,iab,bs->irs", P.T, problem.jac_g(x), P,
                       optimize=True)
        A = A + c * np.einsum("ikl,kl,jkl->ij", Cs, elem.theta.entries, Cs,
                              optimize=True)
    return 0.5 * (A + A.T)
