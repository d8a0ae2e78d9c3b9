"""The nuclear norm of a symmetric matrix and its variational machinery.

Value, subdifferential, first and second directional derivatives, critical
cone, proximal mapping, Moreau envelope, the soft-threshold
divided-difference table, and constructible generalized-Jacobian elements
of the prox and of the envelope gradient.  The prox, the envelope and
the table are functions of an eigendecomposition; the public matrix forms
validate and decompose their argument, then call them.  The eigenvalue
derivatives have one body, and the norm's directional derivatives are
the chain rule of |.| over them, since ||X||_* = sum |l_i(X)|.  Every
element is a :class:`spectral.HadamardElement`: the prox's table is that
of :func:`prox_divided_diff` with committed slope choices on its kink
blocks, the envelope's its complement.  At exact kinks (``group_tol``
0) that table is the pair rule of the eigenvalues themselves, since a
run of equal eigenvalues keeps its value as its block's representative,
so the solver's Newton element forms only the rectangle it reads,
straight from the spectrum (:func:`prox_support_table`).  The conjugate
of the second directional derivative (the curvature correction used by
second-order optimality conditions) has one evaluator, the bilinear
form :func:`curvature_form` over a stack of directions;
:func:`psi_conjugate` is its one-direction case, and every critical-cone
test is :func:`critical_blocks_contain`.
"""

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .errors import (
    DomainError,
    InvalidInput,
    NotASubgradient,
    require_nonnegative,
    require_positive,
)
from .psd_cone import project_psd
from .spectral import (
    GROUP_TOL,
    DistinctBlocks,
    EigenDecomposition,
    HadamardElement,
    SignPartition,
    as_symmetric,
    choice_table,
    compress,
    default_tol,
    eig_sym,
    eig_symmetrized,
    group_distinct,
    hadamard_image,
    partition_by_sign,
)

__all__ = [
    "nuclear_norm",
    "theta_dir_deriv",
    "SubgradientPartition",
    "subdiff_contains",
    "subdiff_partition",
    "soft_threshold",
    "envelope_value",
    "envelope_grad",
    "prox_nuclear",
    "moreau_env",
    "grad_moreau_env",
    "eig_dir_derivs",
    "eig_second_dir_derivs",
    "theta_second_dir_deriv",
    "soft_pair_table",
    "ProxDividedDiff",
    "prox_divided_diff",
    "prox_support_table",
    "prox_dir_deriv",
    "prox_bsub_element",
    "grad_env_bsub_element",
    "critical_blocks_contain",
    "critical_cone_theta_contains",
    "critical_cone_theta_project",
    "curvature_form",
    "psi_conjugate",
]

# null-row weights within this distance of +-1 count as saturated
_SPLIT_TOL = 1e-6


# ----------------------------------------------------------------------------
# value and first directional derivative
# ----------------------------------------------------------------------------

def nuclear_norm(X):
    """Sum of absolute eigenvalues of a symmetric matrix."""
    return float(np.abs(np.linalg.eigvalsh(as_symmetric(X, "X"))).sum())


def theta_dir_deriv(X, H):
    """Directional derivative of the nuclear norm at X along H.

    The chain rule of |.| over the eigenvalue derivatives of
    :func:`eig_dir_derivs`: sum sgn(l_i) l'_i off the zero block of X,
    plus sum |l'_i| on it, the nuclear norm of H compressed to the null
    space.  Linear in H exactly when X is nonsingular.
    """
    blocks, d1, _ = _eig_derivs(X, H)
    val = _block_signs(blocks) @ d1
    if blocks.zero_block is not None:
        val += np.abs(d1[list(blocks.blocks[blocks.zero_block])]).sum()
    return float(val)


# ----------------------------------------------------------------------------
# subdifferential
# ----------------------------------------------------------------------------

@dataclass(frozen=True)
class SubgradientPartition:
    """Structure of a subgradient Y of the nuclear norm at X.

    The eigenbasis of X is refined so that the null-space block of Y is
    diagonal with weights ``w`` (descending).  Weights are 1 on the
    positive rows, -1 on the negative rows, and in [-1, 1] on the null
    rows, which split into ``b_up`` (saturated at +1), ``b_mid`` (strict
    interior) and ``b_low`` (saturated at -1); a weight within 1e-6 of
    +-1 counts as saturated.
    """

    partition: SignPartition
    w: np.ndarray
    b_up: Tuple[int, ...]
    b_mid: Tuple[int, ...]
    b_low: Tuple[int, ...]
    basis: np.ndarray
    values: np.ndarray  # eigenvalues of X, aligned with basis columns


def _subdiff_defect(eig, Yh):
    """Largest violation of the subgradient characterization by a Y
    compressed into the eigenbasis ``eig`` of X (``Yh``), and the sign
    partition of X."""
    part = partition_by_sign(eig)
    pos, zero, neg = list(part.pos), list(part.zero), list(part.neg)
    defect = 0.0
    if pos:
        defect = max(defect, np.abs(Yh[np.ix_(pos, pos)] - np.eye(len(pos))).max())
    if neg:
        defect = max(defect, np.abs(Yh[np.ix_(neg, neg)] + np.eye(len(neg))).max())
    for rows, cols in ((pos, zero), (pos, neg), (zero, neg)):
        if rows and cols:
            defect = max(defect, np.abs(Yh[np.ix_(rows, cols)]).max())
    if zero:
        bb = Yh[np.ix_(zero, zero)]
        defect = max(defect, max(0.0, np.abs(np.linalg.eigvalsh(bb)).max() - 1.0))
    return defect, part


def subdiff_contains(X, Y):
    """Whether Y is a nuclear-norm subgradient at X, to within 1e-8."""
    eig = eig_sym(X)
    return _subdiff_defect(eig, compress(eig.basis, Y, "Y", "X"))[0] <= 1e-8


def subdiff_partition(X, Y):
    """Extract the weight structure of a subgradient Y at X.

    Raises
    ------
    NotASubgradient
        If Y fails the membership characterization beyond 1e-8.
    """
    eig = eig_sym(X)
    return _subdiff_structure(eig, compress(eig.basis, Y, "Y", "X"), 1e-8)


def _subdiff_structure(eig, Yh, tol):
    """:func:`subdiff_partition` at the X that ``eig`` decomposes, for a Y
    compressed into its basis (``Yh``)."""
    defect, part = _subdiff_defect(eig, Yh)
    if defect > tol:
        raise NotASubgradient(f"subgradient defect {defect:.3e} exceeds {tol:.1e}")
    q = eig.dim
    basis = eig.basis.copy()
    w = np.zeros(q)
    w[list(part.pos)] = 1.0
    w[list(part.neg)] = -1.0
    zero = list(part.zero)
    b_up, b_mid, b_low = [], [], []
    if zero:
        sub = eig_sym(Yh[np.ix_(zero, zero)])
        wb = np.clip(sub.values, -1.0, 1.0)
        w[zero] = wb
        basis[:, zero] = basis[:, zero] @ sub.basis
        for k, i in enumerate(zero):
            if wb[k] >= 1.0 - _SPLIT_TOL:
                b_up.append(i)
            elif wb[k] <= -1.0 + _SPLIT_TOL:
                b_low.append(i)
            else:
                b_mid.append(i)
    return SubgradientPartition(
        part,
        w,
        tuple(b_up),
        tuple(b_mid),
        tuple(b_low),
        basis,
        eig.values.copy(),
    )


# ----------------------------------------------------------------------------
# prox and Moreau envelope
# ----------------------------------------------------------------------------

def _shrink(vals, tau):
    return np.sign(vals) * np.maximum(np.abs(vals) - tau, 0.0)


def soft_threshold(eig, tau):
    """Nuclear-norm prox at level tau of the matrix Z that ``eig``
    decomposes.  The basis may have either sign in each column; tau > 0
    is not checked."""
    X = (eig.basis * _shrink(eig.values, tau)) @ eig.basis.T
    return 0.5 * (X + X.T)


def envelope_value(eig, tau):
    """Moreau envelope at Z, with ``eig`` and tau as in
    :func:`soft_threshold`."""
    p = _shrink(eig.values, tau)
    return float(np.abs(p).sum() + ((p - eig.values) ** 2).sum() / (2.0 * tau))


def envelope_grad(eig, Z, tau):
    """Envelope gradient at Z, given exactly symmetric, with ``eig`` and
    tau as in :func:`soft_threshold`."""
    return (Z - soft_threshold(eig, tau)) / tau


def prox_nuclear(Z, tau):
    """Proximal mapping of the nuclear norm: eigenvalue soft-thresholding.

    Returns the minimizer of ||X'||_* + ||X' - Z||^2/(2 tau) together with
    the eigendecomposition of Z used to form it.
    """
    require_positive("tau", tau)
    eig = eig_sym(Z)
    return soft_threshold(eig, tau), eig


def moreau_env(Z, tau):
    """Moreau envelope of the nuclear norm at Z.

    The quadratic penalty is ||X'-Z||^2/(2 tau).
    """
    require_positive("tau", tau)
    return envelope_value(eig_sym(Z), tau)


def grad_moreau_env(Z, tau):
    """Gradient of the Moreau envelope: the scaled prox residual."""
    require_positive("tau", tau)
    S = as_symmetric(Z)  # the gradient needs no column sign fix
    return envelope_grad(eig_symmetrized(S), S, tau)


# ----------------------------------------------------------------------------
# eigenvalue directional derivatives
# ----------------------------------------------------------------------------

def _pinv_weights(blocks, k):
    """Reciprocal gaps to block k's eigenvalue, zero on block k itself."""
    d = np.zeros(int(sum(len(b) for b in blocks.blocks)))
    for l, blk in enumerate(blocks.blocks):
        if l != k:
            d[list(blk)] = 1.0 / (blocks.values[l] - blocks.values[k])
    return d


def _second_order_block(Hh, Wh, blocks, k):
    """Compression V_k = (W - 2 H (X - value_k I)^+ H) to block k, in the
    eigenbasis of X."""
    blk = _span(blocks.blocks[k])
    d = _pinv_weights(blocks, k)
    cross = (Hh[blk, :] * d) @ Hh[:, blk]
    V = Wh[blk, blk] - 2.0 * cross
    return 0.5 * (V + V.T)


def _span(block):
    """The slice over a block of consecutive indices."""
    return slice(block[0], block[-1] + 1)


def _eig_derivs(X, H, W=None):
    """Distinct blocks of X, and the first and, given W, the second
    directional derivatives of its eigenvalues along (H, W), as
    :func:`eig_dir_derivs` and :func:`eig_second_dir_derivs` describe."""
    eig = eig_sym(X)
    Hh = compress(eig.basis, H, "H", "X")
    Wh = None if W is None else compress(eig.basis, W, "W", "X")
    blocks = group_distinct(eig)
    d1 = np.empty(eig.dim)
    d2 = None if W is None else np.empty(eig.dim)
    # blocks, and the nested groups within one, are runs of consecutive
    # indices, so slices reach them and d2[blk] is a view
    for k, blk in enumerate(map(_span, blocks.blocks)):
        inner = eig_sym(Hh[blk, blk])
        d1[blk] = inner.values
        if W is None:
            continue
        V = _second_order_block(Hh, Wh, blocks, k)
        Vr = inner.basis.T @ V @ inner.basis
        for nblk in map(_span, group_distinct(inner).blocks):
            core = 0.5 * (Vr[nblk, nblk] + Vr[nblk, nblk].T)
            d2[blk][nblk] = np.linalg.eigvalsh(core)[::-1]
    return blocks, d1, d2


def _block_signs(blocks):
    """Sign of each eigenvalue's block, 0 on the zero block."""
    signs = np.sign(blocks.values)
    if blocks.zero_block is not None:
        signs[blocks.zero_block] = 0.0
    return np.repeat(signs, [len(blk) for blk in blocks.blocks])


def eig_dir_derivs(X, H):
    """First directional derivatives of all eigenvalues of X along H.

    Within each block of equal eigenvalues the derivatives are the
    eigenvalues of the compressed direction, in descending order.
    """
    return _eig_derivs(X, H)[1]


def eig_second_dir_derivs(X, H, W):
    """Second directional derivatives of the eigenvalues of X along (H, W).

    Uses the nested decomposition: within each block of X, directions are
    grouped by the distinct eigenvalues of the compressed H-block, and on
    each nested group the second derivative is an eigenvalue of the rotated
    curvature compression.
    """
    return _eig_derivs(X, H, W)[2]


def theta_second_dir_deriv(X, H, W):
    """Second directional derivative of the nuclear norm at X along (H, W).

    The chain rule of |.| over :func:`eig_second_dir_derivs`: sgn(l_i) l''_i
    off the zero block of X; on it sgn(l'_i) l''_i, and |l''_i| where the
    first derivative l'_i vanishes too (within ``default_tol`` of the
    block's first derivatives).
    """
    blocks, d1, d2 = _eig_derivs(X, H, W)
    val = _block_signs(blocks) @ d2
    if blocks.zero_block is not None:
        idx = list(blocks.blocks[blocks.zero_block])
        first, second = d1[idx], d2[idx]
        tol = default_tol(first)
        val += np.where(np.abs(first) > tol, np.sign(first) * second,
                        np.abs(second)).sum()
    return float(val)


# ----------------------------------------------------------------------------
# divided differences and directional derivative of the prox
# ----------------------------------------------------------------------------

def soft_pair_table(vals, tau, lo=0, hi=None):
    """Difference-quotient table of the scalar soft threshold at level tau.

    Entry (i, j) pairs row value v_i, i in [0, hi), with column value
    v_j, j in [lo, r): (p(v_i) - p(v_j)) / (v_i - v_j) with p the soft
    threshold, and where v_i == v_j the slope of p there, 1 outside
    [-tau, tau] and 0 on or inside it.  So a value exactly on +-tau takes
    the committed zero of the kink, and a caller that wants the one-sided
    limit there snaps a value near the kink onto it first.  The defaults
    give the full square table.

    Returns
    -------
    ndarray, shape (hi, r - lo)
    """
    vals = np.asarray(vals, dtype=np.float64)
    rows, cols = vals[:hi], vals[lo:]
    pv = _shrink(vals, tau)
    den = np.subtract.outer(rows, cols)
    out = np.empty(den.shape)
    out[...] = (np.abs(rows) > tau)[:, None]
    np.divide(np.subtract.outer(pv[:hi], pv[lo:]), den, out=out,
              where=den != 0.0)
    return out


@dataclass(frozen=True)
class ProxDividedDiff:
    """Divided-difference table of the soft threshold over a spectrum.

    ``table`` pairs eigenvalue indices, each eigenvalue taking its
    block's representative; ``kink_blocks`` lists (block position, sign)
    for blocks sitting exactly on a threshold kink, where the scalar
    table cannot represent the one-sided derivative and the assembler
    substitutes a definite-part projection or a committed slope table
    (:meth:`committed_table`).
    """

    table: np.ndarray
    kink_blocks: Tuple[Tuple[int, int], ...]
    blocks: DistinctBlocks

    def committed_table(self, up_choice, low_choice):
        """Copy of ``table`` with the committed slope tables overlaid on
        the kink blocks: ``up_choice`` at +tau, ``low_choice`` at -tau
        (see :func:`spectral.choice_table`)."""
        T = self.table.copy()
        for k, sign in self.kink_blocks:
            idx = list(self.blocks.blocks[k])
            choice = up_choice if sign > 0 else low_choice
            name = "up_choice" if sign > 0 else "low_choice"
            T[np.ix_(idx, idx)] = choice_table(choice, len(idx), name)
        return T


def prox_divided_diff(eig, tau, group_tol=GROUP_TOL):
    """Soft-threshold divided-difference table over the spectrum ``eig``."""
    blocks = group_distinct(eig, group_tol)
    # the kink flags are read off a Python list: at the solver's sizes one
    # numpy call on this short array costs more than the whole loop
    reps = blocks.values.tolist()
    kink_tol = group_tol * (1.0 + max(map(abs, reps), default=0.0) + tau)
    flags = [-1 if abs(v + tau) <= kink_tol
             else 1 if abs(v - tau) <= kink_tol else 0 for v in reps]
    # a flagged block is snapped onto its kink, where the table takes the
    # committed zero, and each eigenvalue takes its block's value, so two
    # of one block pair by the slope rule
    snapped = [tau if f > 0 else -tau if f < 0 else v
               for v, f in zip(reps, flags)]
    table = soft_pair_table([v for v, blk in zip(snapped, blocks.blocks)
                             for _ in blk], tau)
    kinks = tuple((k, f) for k, f in enumerate(flags) if f)
    return ProxDividedDiff(table, kinks, blocks)


def prox_support_table(eig, tau):
    """The table of ``prox_divided_diff(eig, tau, 0.0)`` on the support
    rectangle of its complement, straight from the spectrum.

    At ``group_tol`` 0 a block is a run of equal eigenvalues, represented
    by their value, and a kink block sits exactly on +-tau, so the table
    is the pair rule of the eigenvalues (see :func:`soft_pair_table`):
    two equal ones take the slope, one on +-tau the committed zero.  Its
    complement 1 - T vanishes, to round-off, where both eigenvalues lie
    beyond the same kink, where the soft threshold has slope 1: on
    [0, lo)^2 for the lo eigenvalues above tau and on [hi, k)^2 for the
    k - hi below -tau.  One pair table over rows [0, hi) and columns
    [lo, k) is ``table[:hi, lo:]``; returns (that rectangle, lo).
    """
    vals = eig.values.tolist()
    lo = sum(v > tau for v in vals)
    hi = len(vals) - sum(v < -tau for v in vals)
    return soft_pair_table(eig.values, tau, lo, hi), lo


def prox_dir_deriv(Z, tau, H):
    """Directional derivative of the nuclear-norm prox at Z along H."""
    require_positive("tau", tau)
    eig = eig_sym(Z)
    dd = prox_divided_diff(eig, tau)
    Hh = compress(eig.basis, H, "H", "Z")
    kinks = [(list(dd.blocks.blocks[k]), sign) for k, sign in dd.kink_blocks]
    return hadamard_image(eig.basis, dd.table, Hh,
                          _signed_projections(Hh, kinks))


def _signed_projections(Hh, kinks):
    """(idx, sign Pi_+(sign Hh_idx,idx)) for each (idx, sign) of ``kinks``
    with idx nonempty: the projection of a diagonal block onto the PSD
    cone for sign +1, onto the NSD cone for sign -1."""
    return [(idx, sign * project_psd(sign * Hh[np.ix_(idx, idx)])[0])
            for idx, sign in kinks if idx]


# ----------------------------------------------------------------------------
# generalized Jacobian elements at structured points Z = X + tau Y
# ----------------------------------------------------------------------------

def _structured_values(sp, tau):
    """Spectrum of X + tau Y in the refined basis, descending; the
    saturated null rows sit exactly at +-tau."""
    q = sp.w.size
    vals = np.empty(q)
    for i in sp.partition.pos:
        vals[i] = sp.values[i] + tau
    for i in sp.partition.neg:
        vals[i] = sp.values[i] - tau
    for i in sp.partition.zero:
        vals[i] = tau * sp.w[i]
    vals[list(sp.b_up)] = tau
    vals[list(sp.b_low)] = -tau
    return vals


def prox_bsub_element(X, Y, tau, up_choice="zero", low_choice="zero"):
    """B-subdifferential element of the prox at the structured point X + tau Y.

    A :class:`spectral.HadamardElement` in the refined basis of the
    subgradient structure (:func:`subdiff_partition`); its table rows
    follow the five groups (positive, saturated-up, interior,
    saturated-down, negative).  ``up_choice`` / ``low_choice`` commit the
    free slope blocks where the shifted spectrum sits exactly on a
    threshold kink: any Hadamard table with entries in [0, 1] ("zero",
    "identity", or explicit).
    """
    require_positive("tau", tau)
    sp = subdiff_partition(X, Y)
    vals = _structured_values(sp, tau)
    # spectra closer than 1e-12 (1 + max |v|) are one group, so the two
    # saturated groups sit exactly on the kinks at +-tau
    dd = prox_divided_diff(EigenDecomposition(vals, sp.basis), tau,
                           group_tol=1e-12)
    return HadamardElement(sp.basis, dd.committed_table(up_choice, low_choice))


def grad_env_bsub_element(X, Y, tau, up_choice="zero", low_choice="zero"):
    """Generalized-Hessian element of the Moreau envelope at X + tau Y.

    The complement of :func:`prox_bsub_element`'s element with the same
    choices: the table (1 - T) / tau in the same basis, so tau * this +
    the prox element is the identity to round-off.
    """
    W = prox_bsub_element(X, Y, tau, up_choice, low_choice)
    return HadamardElement(W.basis, (1.0 - W.table) / tau)


# ----------------------------------------------------------------------------
# critical cone of the nuclear norm
# ----------------------------------------------------------------------------

def critical_blocks_contain(Hc, b_up, b_mid, b_low, tol):
    """Critical-cone membership of a direction compressed into the refined
    basis of a subgradient structure.

    ``b_up``/``b_mid``/``b_low`` index the saturated-up, interior and
    saturated-down null rows of that basis.  The interior rows of ``Hc``
    vanish against the whole null block, the two saturated groups
    decouple, and their diagonal blocks are PSD (up) and NSD (down), all
    within ``tol``.
    """
    tol = require_nonnegative("tol", tol)
    up, mid, low = list(b_up), list(b_mid), list(b_low)
    if mid and np.abs(Hc[np.ix_(mid, up + mid + low)]).max() > tol:
        return False
    if up and low and np.abs(Hc[np.ix_(up, low)]).max() > tol:
        return False
    if up and np.linalg.eigvalsh(Hc[np.ix_(up, up)])[0] < -tol:
        return False
    if low and np.linalg.eigvalsh(Hc[np.ix_(low, low)])[-1] > tol:
        return False
    return True


def _direction_setting(X, Y, H):
    """The decomposition of X, Y and H for a direction H at (X, Y): each
    validated once, under its own name, and H checked against X before
    anything tests Y."""
    eig = eig_sym(X, "X")
    H = as_symmetric(H, "H")
    Y = as_symmetric(Y, "Y")
    for name, M in (("H", H), ("Y", Y)):
        if M.shape != (eig.dim,) * 2:
            raise InvalidInput(f"{name} dimension does not match X")
    return eig, Y, H


def critical_cone_theta_contains(X, Y, H):
    """Whether H lies in the critical cone of the nuclear norm at (X, Y).

    The blockwise test of :func:`critical_blocks_contain` on H compressed
    into the refined basis, within 1e-8 (1 + max |H|).
    """
    eig, Y, H = _direction_setting(X, Y, H)
    sp = _subdiff_structure(eig, eig.basis.T @ Y @ eig.basis, 1e-8)
    return critical_blocks_contain(sp.basis.T @ H @ sp.basis,
                                   sp.b_up, sp.b_mid, sp.b_low,
                                   1e-8 * (1.0 + np.abs(H).max(initial=0.0)))


def critical_cone_theta_project(X, Y, H):
    """Metric projection of H onto the critical cone at (X, Y).

    The cone is a product of blockwise constraints in the refined basis, so
    projecting blockwise is exact: zero out the interior rows of the null
    block and the up-down coupling, and take definite parts of the two
    saturated diagonal blocks.
    """
    eig, Y, H = _direction_setting(X, Y, H)
    sp = _subdiff_structure(eig, eig.basis.T @ Y @ eig.basis, 1e-8)
    Hh = sp.basis.T @ H @ sp.basis
    b = list(sp.partition.zero)
    up, mid, low = list(sp.b_up), list(sp.b_mid), list(sp.b_low)
    for i in mid:
        Hh[i, b] = 0.0
        Hh[b, i] = 0.0
    if up and low:
        Hh[np.ix_(up, low)] = 0.0
        Hh[np.ix_(low, up)] = 0.0
    return hadamard_image(sp.basis, 1.0, Hh,
                          _signed_projections(Hh, ((up, 1), (low, -1))))


# ----------------------------------------------------------------------------
# conjugate of the second directional derivative (sigma-term)
# ----------------------------------------------------------------------------

def curvature_form(eig, Yc, J):
    """Bilinear form of the nuclear-norm curvature term ("sigma term").

    ``eig`` holds the descending spectrum of X and an eigenbasis;
    ``Yc`` is the multiplier and ``J`` (k, q, q) a stack of directions,
    both compressed into ``eig.basis``.  For one direction Hc in the
    critical cone the conjugate of the second directional derivative is

        2 sum_k < Y_kk, sum_{l != k} Hc_kl Hc_kl^T / (v_l - v_k) >,

    summed over the distinct eigenvalue groups of
    :func:`spectral.group_distinct` with representatives v_k (see
    :class:`spectral.DistinctBlocks`).  With
    W[a, c] = 1/(v_{g(c)} - v_{g(a)}) across groups (0 inside one) and
    Yhat the same-group diagonal blocks of Yc, this is
    2 <W o Hc, Yhat Hc>; its (k, k) matrix on the stack is returned
    unsymmetrized.
    """
    groups = group_distinct(eig)
    gid = np.empty(eig.dim, dtype=np.intp)
    for g, blk in enumerate(groups.blocks):
        gid[list(blk)] = g
    v = groups.values[gid]
    same = gid[:, None] == gid[None, :]
    W = np.where(same, 0.0, 1.0 / np.where(same, 1.0, v[None, :] - v[:, None]))
    Yhat = np.where(same, Yc, 0.0)
    return 2.0 * np.einsum("iab,jab->ij", J * W, Yhat @ J)


def psi_conjugate(X, H, Y):
    """Conjugate, at Y, of the second directional derivative of the
    nuclear norm at X along (H, .).

    This is the curvature correction ("sigma term") entering second-order
    optimality conditions.  On its domain, Y a subgradient at X and H in
    the critical cone at (X, Y), it is the one-direction case of
    :func:`curvature_form`: 2 sum_k <Y_kk, K_k> over the distinct
    eigenvalue groups of X, where K_k compresses H (X - v_k I)^+ H to
    group k.

    Raises
    ------
    DomainError
        Condition "subgradient" when Y fails the subgradient test beyond
        1e-7 (1 + max |Y|), "critical_cone" when H is not in the critical
        cone.
    """
    eig, Y, H = _direction_setting(X, Y, H)
    tol = 1e-7 * (1.0 + np.abs(Y).max(initial=0.0))
    Yh = eig.basis.T @ Y @ eig.basis
    try:
        sp = _subdiff_structure(eig, Yh, tol)
    except NotASubgradient:
        raise DomainError("subgradient", _subdiff_defect(eig, Yh)[0]) from None
    Q = sp.basis
    Hc = Q.T @ H @ Q
    if not critical_blocks_contain(Hc, sp.b_up, sp.b_mid, sp.b_low,
                                   1e-8 * (1.0 + np.abs(H).max(initial=0.0))):
        raise DomainError("critical_cone", np.nan)
    form = curvature_form(EigenDecomposition(sp.values, Q), Q.T @ Y @ Q,
                          Hc[None])
    return float(form[0, 0])
