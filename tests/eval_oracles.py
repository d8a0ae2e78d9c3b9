"""The evaluation path's earlier and reference formulas, as oracles.

``problem.QuadraticMatrixMap`` and ``problem.adjoint_jac`` contract flat
views of the coefficient stacks with one matrix product,
``spectral.eig_sym`` reverses ``eigh``'s ascending order instead of
sorting, and ``nuclear.prox_divided_diff`` forms one pair table over
the spectrum with each eigenvalue snapped to its block's value, instead
of gathering a block table through an index built block by block, and
lists its kinks from a Python list of the flags.  The functions below
are the formulas those replaced: ``np.tensordot`` contractions, a stable
argsort reorder, a loop-built block index and a loop over the numpy
flags for the kinks.  Each rewrite must agree with
its oracle bit for bit.  ``sym_stack_loop`` is the check of a coefficient
stack that ``problem._sym_stack`` makes in one pass: one ``as_symmetric``
call per slice.

``theta_table`` is ``psd_cone.theta_matrix``'s table split by sign at
any cutoff, where the library splits at 1e-8 (1 + max |l_i|) only:
``psd_pair_table`` on the spectrum with the eigenvalues within the
cutoff snapped to 0, and the committed choice on that zero block.  At
cutoff 0 it is the full table the Newton element's support rectangle
is cut from.

``rectangle_weights`` is the weighting of the support-rectangle Gram
product as formed from a full table, before the Newton element built
its tables on the rectangle alone, and ``hadamard_gram`` that Gram
product of a full table with the support bounds it is given: the
reference the Newton element is checked against byte for byte.

``apply_jac``, ``lagrangian`` and ``newton_element_einsum`` are the
reference formulas the tests check the library against: the directional
image of a Jacobian stack, the Lagrangian value, and the Newton element
assembled with einsum over the full tables, with every operator
decomposing its own argument and a free committed table on each kink
block.

``nuclear`` forms the nuclear norm's directional derivatives by the
chain rule of |.| over the eigenvalue derivatives.  ``theta_dir_deriv``,
``theta_second_dir_deriv``, ``eig_dir_derivs`` and
``eig_second_dir_derivs`` below are the blockwise forms that came
before it: signed traces of the compressed direction and curvature over
the sign partition, nuclear norms where the sign vanishes, and one
eigenvalue problem per block.
"""

import numpy as np

from sdnop import spectral
from sdnop.nuclear import (
    _pinv_weights,
    grad_moreau_env,
    nuclear_norm,
    prox_divided_diff,
    soft_pair_table,
)
from sdnop.problem import _rectangle_gram, hess_xx_lagrangian
from sdnop.psd_cone import project_psd, psd_pair_table
from sdnop.spectral import (
    EigenDecomposition,
    as_symmetric,
    choice_table,
    group_distinct,
    partition_by_sign,
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


def sym_stack_loop(A, name):
    A = np.asarray(A, dtype=np.float64)
    out = np.empty_like(A)
    for idx in np.ndindex(A.shape[:-2]):
        out[idx] = as_symmetric(A[idx], name)
    return out


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
    flags = _kink_flags(blocks, tau, group_tol)
    small = soft_pair_table(np.where(flags > 0, tau,
                                     np.where(flags < 0, -tau, blocks.values)),
                            tau)
    expand = np.empty(eig.dim, dtype=int)
    for k, blk in enumerate(blocks.blocks):
        expand[list(blk)] = k
    return small[np.ix_(expand, expand)]


def theta_table(eig, tol, beta_choice="zero"):
    """Theta table of the matrix that ``eig`` decomposes, with the
    eigenvalues within ``tol`` of 0 as its zero block."""
    zero = np.abs(eig.values) <= tol
    table = psd_pair_table(np.where(zero, 0.0, eig.values))
    if zero.any():
        idx = np.flatnonzero(zero)
        table[np.ix_(idx, idx)] = choice_table(beta_choice, idx.size,
                                               "beta_choice")
    return table


def rectangle_weights(W, lo, hi):
    """The weights a Gram product over the support rectangle rows
    [0, hi) x columns [lo, k) gives the full symmetric table W, formed
    from the full table: twice W's rectangle, once its middle block
    [lo, hi)^2."""
    R = 2.0 * W[:hi, lo:]
    R[lo:, :hi - lo] = W[lo:hi, lo:hi]
    return R


def hadamard_gram(Q, jac, W, lo, hi):
    """Matrix of pairings <Q^T J_i Q, W o (Q^T J_j Q)> over a Jacobian
    stack, for a symmetric table W that vanishes on the corner blocks
    [0, lo)^2 and [hi, k)^2 (lo <= hi): every pair that can carry weight
    has itself or its mirror image in the rectangle rows [0, hi) x
    columns [lo, k), so the product is ``problem._rectangle_gram`` over
    the :func:`rectangle_weights` of W."""
    return _rectangle_gram(Q, jac, rectangle_weights(W, lo, hi), lo)


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
    with einsum over the full tables.  ``group_tol`` is the relative kink
    window of both tables, and the ``*_choice`` arguments commit the free
    Hadamard blocks on the kinks it flags (see
    :func:`spectral.choice_table`); the library's element takes window 0
    and commits "zero" on each."""
    tau = 1.0 / c
    Yhat = grad_moreau_env(problem.F(x) + Y / c, tau) if problem.q \
        else np.zeros((0, 0))
    muhat = mu + c * problem.h(x) if problem.m else np.zeros(0)
    Ghat = project_psd(Gamma - c * problem.g(x)) if problem.p \
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
        J = problem.h_A
        A = A + c * (J.T @ J)
    if problem.p:
        M = Gamma - c * problem.g(x)
        scale = 1.0 + float(np.linalg.norm(M, 2)) if M.size else 1.0
        eig = spectral.eig_sym(M)
        theta = theta_table(eig, group_tol * scale, beta_choice)
        P = eig.basis
        Cs = np.einsum("ra,iab,bs->irs", P.T, problem.jac_g(x), P,
                       optimize=True)
        A = A + c * np.einsum("ikl,kl,jkl->ij", Cs, theta, Cs,
                              optimize=True)
    return 0.5 * (A + A.T)


def theta_dir_deriv(X, H):
    """Trace of H on the positive eigenspace of X, minus the trace on the
    negative one, plus the nuclear norm of H compressed to the null
    space."""
    eig = spectral.eig_sym(X)
    H = as_symmetric(H, "H")
    part = partition_by_sign(eig)
    Q = eig.basis
    val = 0.0
    if part.pos:
        Qa = Q[:, list(part.pos)]
        val += np.trace(Qa.T @ H @ Qa)
    if part.neg:
        Qc = Q[:, list(part.neg)]
        val -= np.trace(Qc.T @ H @ Qc)
    if part.zero:
        Qb = Q[:, list(part.zero)]
        val += nuclear_norm(Qb.T @ H @ Qb)
    return float(val)


def _second_order_block(Hh, Wh, blocks, k):
    """Compression of W - 2 H (X - value_k I)^+ H to block k, in the
    eigenbasis of X."""
    idx = list(blocks.blocks[k])
    d = _pinv_weights(blocks, k)
    cross = (Hh[idx, :] * d) @ Hh[:, idx]
    V = Wh[np.ix_(idx, idx)] - 2.0 * cross
    return 0.5 * (V + V.T)


def _compressions(X, H, W, group_tol):
    eig = spectral.eig_sym(X)
    H = as_symmetric(H, "H")
    W = as_symmetric(W, "W")
    blocks = group_distinct(eig, group_tol)
    return (blocks, eig.basis.T @ H @ eig.basis, eig.basis.T @ W @ eig.basis,
            eig.dim)


def theta_second_dir_deriv(X, H, W, group_tol=1e-8):
    """Signed traces of the curvature compressions over the nonzero
    blocks, plus a zero-block part split by the sign of the compressed
    direction: signed traces where it is definite and a nuclear norm
    where it vanishes."""
    blocks, Hh, Wh, _ = _compressions(X, H, W, group_tol)
    val = 0.0
    for k in range(len(blocks.blocks)):
        V = _second_order_block(Hh, Wh, blocks, k)
        if k == blocks.zero_block:
            idx = list(blocks.blocks[k])
            sub = 0.5 * (Hh[np.ix_(idx, idx)] + Hh[np.ix_(idx, idx)].T)
            inner = spectral.eig_sym(sub)
            split = partition_by_sign(inner)
            Vr = inner.basis.T @ V @ inner.basis
            p, z, n = list(split.pos), list(split.zero), list(split.neg)
            if p:
                val += np.trace(Vr[np.ix_(p, p)])
            if n:
                val -= np.trace(Vr[np.ix_(n, n)])
            if z:
                val += nuclear_norm(Vr[np.ix_(z, z)])
        elif blocks.values[k] > 0.0:
            val += np.trace(V)
        else:
            val -= np.trace(V)
    return float(val)


def eig_dir_derivs(X, H, group_tol=1e-8):
    """Eigenvalues of H compressed to each block of X, descending."""
    eig = spectral.eig_sym(X)
    H = as_symmetric(H, "H")
    blocks = group_distinct(eig, group_tol)
    Hh = eig.basis.T @ H @ eig.basis
    out = np.empty(eig.dim)
    for blk in blocks.blocks:
        idx = list(blk)
        sub = 0.5 * (Hh[np.ix_(idx, idx)] + Hh[np.ix_(idx, idx)].T)
        out[idx] = np.sort(np.linalg.eigvalsh(sub))[::-1]
    return out


def eig_second_dir_derivs(X, H, W, group_tol=1e-8):
    """Eigenvalues of the rotated curvature compression on each nested
    group of each block of X."""
    blocks, Hh, Wh, dim = _compressions(X, H, W, group_tol)
    out = np.empty(dim)
    for k, blk in enumerate(blocks.blocks):
        idx = list(blk)
        sub = 0.5 * (Hh[np.ix_(idx, idx)] + Hh[np.ix_(idx, idx)].T)
        inner = spectral.eig_sym(sub)
        nested = group_distinct(inner, group_tol)
        V = _second_order_block(Hh, Wh, blocks, k)
        Vr = inner.basis.T @ V @ inner.basis
        for nblk in nested.blocks:
            nidx = list(nblk)
            core = 0.5 * (Vr[np.ix_(nidx, nidx)] + Vr[np.ix_(nidx, nidx)].T)
            vals = np.sort(np.linalg.eigvalsh(core))[::-1]
            out[[idx[i] for i in nidx]] = vals
    return out
