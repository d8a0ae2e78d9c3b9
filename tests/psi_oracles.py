"""Single-direction closed forms of the nuclear-norm sigma term, as oracles.

``nuclear.psi_conjugate`` evaluates the conjugate of the second
directional derivative as the one-direction case of the batched
``nuclear.curvature_form``, the form the second-order matrix uses.  The
evaluators below are the independent closed forms it replaced:

- :func:`psi_full` verifies the effective-domain conditions on Y against
  the nested sign split of the compressed H and evaluates the
  signed-trace closed form;
- :func:`psi_critical` assumes Y is a subgradient and H is critical and
  evaluates through the saturated/interior split of the refined basis;
- :func:`psi_interior_cross` is the shortcut for directions that couple
  only the interior null rows to the nonzero blocks.

:func:`critical_cone_equality_gap` is the trace characterization of
critical-cone membership, an oracle for the blockwise test.
"""

import numpy as np

from sdnop.errors import DomainError
from sdnop.nuclear import (
    _pinv_weights,
    _subdiff_defect,
    _subdiff_structure,
    critical_cone_theta_contains,
    nuclear_norm,
    subdiff_partition,
)
from sdnop.spectral import (
    EigenDecomposition,
    as_symmetric,
    eig_sym,
    group_distinct,
    partition_by_sign,
)


def _cross_compressions(eig, blocks, H):
    """All block compressions K_k of H (X - value_k I)^+ H, in the hat basis."""
    Hh = eig.basis.T @ H @ eig.basis
    out = []
    for k in range(len(blocks.blocks)):
        idx = list(blocks.blocks[k])
        d = _pinv_weights(blocks, k)
        K = (Hh[idx, :] * d) @ Hh[:, idx]
        out.append(0.5 * (K + K.T))
    return out


def _setup(X, H, Y, tol, group_tol):
    X = as_symmetric(X, "X")
    H = as_symmetric(H, "H")
    Y = as_symmetric(Y, "Y")
    if tol is None:
        tol = 1e-7 * (1.0 + np.abs(Y).max(initial=0.0))
    eig = eig_sym(X)
    blocks = group_distinct(eig, group_tol)
    return X, H, Y, tol, eig, blocks, _cross_compressions(eig, blocks, H)


def _signed_traces(blocks, Ks):
    """Signed traces of the cross compressions over the nonzero blocks."""
    total = 0.0
    for k in range(len(blocks.blocks)):
        if k == blocks.zero_block:
            continue
        tr = float(np.trace(Ks[k]))
        total += tr if blocks.values[k] > 0.0 else -tr
    return total


def psi_critical(X, H, Y, tol=None, group_tol=1e-8):
    """Sigma term through the saturated/interior split (Y a subgradient,
    H critical); raises DomainError off that domain."""
    X, H, Y, tol, eig, blocks, Ks = _setup(X, H, Y, tol, group_tol)
    defect = _subdiff_defect(eig, eig.basis.T @ Y @ eig.basis)[0]
    if defect > tol:
        raise DomainError("subgradient", defect)
    sp = _subdiff_structure(eig, eig.basis.T @ Y @ eig.basis, tol)
    if not critical_cone_theta_contains(X, Y, H):
        raise DomainError("critical_cone", np.nan)
    total = _signed_traces(blocks, Ks)
    b = list(sp.partition.zero)
    if b:
        # zero-block compression of H X^+ H in the refined basis
        Hr = sp.basis.T @ H @ sp.basis
        d = np.zeros(eig.dim)
        nz = list(sp.partition.pos) + list(sp.partition.neg)
        d[nz] = 1.0 / sp.values[nz]
        Kt = (Hr[b, :] * d) @ Hr[:, b]
        Kt = 0.5 * (Kt + Kt.T)
        loc = {i: r for r, i in enumerate(b)}
        up = [loc[i] for i in sp.b_up]
        mid = [loc[i] for i in sp.b_mid]
        low = [loc[i] for i in sp.b_low]
        if up:
            total += np.trace(Kt[np.ix_(up, up)])
        if low:
            total -= np.trace(Kt[np.ix_(low, low)])
        if mid:
            wm = sp.w[list(sp.b_mid)]
            total += float(np.sum(wm * np.diag(Kt[np.ix_(mid, mid)])))
    return float(2.0 * total)


def psi_full(X, H, Y, tol=None, group_tol=1e-8):
    """Sigma term with the effective-domain conditions on Y verified
    directly against the nested split of H; raises DomainError naming the
    failed condition."""
    X, H, Y, tol, eig, blocks, Ks = _setup(X, H, Y, tol, group_tol)
    Yh = eig.basis.T @ Y @ eig.basis
    s = blocks.zero_block
    for k, blk in enumerate(blocks.blocks):
        idx = list(blk)
        for l in range(k + 1, len(blocks.blocks)):
            jdx = list(blocks.blocks[l])
            off = np.abs(Yh[np.ix_(idx, jdx)]).max(initial=0.0)
            if off > tol:
                raise DomainError("off_diagonal_block", off)
        if k == s:
            continue
        target = np.eye(len(idx)) if blocks.values[k] > 0.0 else -np.eye(len(idx))
        gap = np.abs(Yh[np.ix_(idx, idx)] - target).max()
        if gap > tol:
            side = "positive" if blocks.values[k] > 0.0 else "negative"
            raise DomainError(f"{side}_block_identity", gap)
    total = _signed_traces(blocks, Ks)
    if s is not None:
        b = list(blocks.blocks[s])
        Hs = eig.basis[:, b].T @ H @ eig.basis[:, b]
        inner = eig_sym(0.5 * (Hs + Hs.T))
        split = partition_by_sign(inner)
        G = inner.basis.T @ Yh[np.ix_(b, b)] @ inner.basis
        Kr = inner.basis.T @ Ks[s] @ inner.basis
        p, z, n = list(split.pos), list(split.zero), list(split.neg)
        for rows, cols in ((p, z), (p, n), (z, n)):
            if rows and cols:
                off = np.abs(G[np.ix_(rows, cols)]).max()
                if off > tol:
                    raise DomainError("null_block_coupling", off)
        if p:
            gap = np.abs(G[np.ix_(p, p)] - np.eye(len(p))).max()
            if gap > tol:
                raise DomainError("null_block_up_identity", gap)
            total += np.trace(Kr[np.ix_(p, p)])
        if n:
            gap = np.abs(G[np.ix_(n, n)] + np.eye(len(n))).max()
            if gap > tol:
                raise DomainError("null_block_down_identity", gap)
            total -= np.trace(Kr[np.ix_(n, n)])
        if z:
            Gz = G[np.ix_(z, z)]
            top = np.abs(np.linalg.eigvalsh(0.5 * (Gz + Gz.T))).max()
            if top > 1.0 + tol:
                raise DomainError("null_block_contraction", top - 1.0)
            total += np.sum(Gz * Kr[np.ix_(z, z)])
    return float(2.0 * total)


def psi_interior_cross(X, H, Y, group_tol=1e-8):
    """Interior-rows shortcut for the sigma term.

    Valid when the only nonvanishing cross couplings of H against the
    nonzero blocks run through the interior null rows (the saturated rows
    and the positive-negative couplings of H must vanish): a weighted sum
    of squared couplings between the interior rows and each nonzero block.
    """
    sp = subdiff_partition(X, Y)
    eig = EigenDecomposition(sp.values, sp.basis)
    blocks = group_distinct(eig, group_tol)
    Hh = sp.basis.T @ H @ sp.basis
    mid = list(sp.b_mid)
    if not mid:
        return 0.0
    wm = sp.w[mid]
    total = 0.0
    for k, blk in enumerate(blocks.blocks):
        if k == blocks.zero_block:
            continue
        G = Hh[np.ix_(mid, list(blk))]
        row_sq = np.sum(G * G, axis=1)
        if blocks.values[k] > 0.0:
            total += np.sum((1.0 - wm) * row_sq) / blocks.values[k]
        else:
            total += np.sum((1.0 + wm) * row_sq) / abs(blocks.values[k])
    return float(-2.0 * total)


def critical_cone_equality_gap(X, Y, H):
    """Gap in the trace characterization of critical-cone membership: the
    nuclear norm of the null-block compression of H minus its pairing with
    the subgradient weights there."""
    H = as_symmetric(H, "H")
    sp = subdiff_partition(X, Y)
    b = list(sp.partition.zero)
    if not b:
        return 0.0
    Hbb = sp.basis[:, b].T @ H @ sp.basis[:, b]
    return float(nuclear_norm(Hbb) - np.sum(sp.w[b] * np.diag(Hbb)))
