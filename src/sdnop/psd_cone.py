"""Projection onto the positive semidefinite cone and its derivatives.

Provides the metric projection, the positive-part divided-difference
table over a spectrum (the Hadamard table behind every derivative of the
projection), its directional derivative, and constructible elements of
its B-subdifferential, each a :class:`spectral.HadamardElement` with
the theta table.  The projection and an element's table are functions
of a decomposition, which the public matrix forms take.
"""

import numpy as np

from .spectral import (
    HadamardElement,
    choice_table,
    compress,
    eig_sym,
    hadamard_image,
    partition_by_sign,
)

__all__ = [
    "positive_part",
    "project_psd",
    "psd_pair_table",
    "theta_matrix",
    "theta_support_table",
    "proj_dir_deriv",
    "proj_bsub_element",
]


def positive_part(eig):
    """PSD projection of the matrix that ``eig`` decomposes; the basis may
    have either sign in each column."""
    plus = (eig.basis * np.maximum(eig.values, 0.0)) @ eig.basis.T
    return 0.5 * (plus + plus.T)


def project_psd(M):
    """Metric projection of a symmetric matrix onto the PSD cone."""
    return positive_part(eig_sym(M))


def psd_pair_table(lam, hi=None):
    """Difference-quotient table of t -> max(t, 0) on eigenvalue pairs.

    Entry (i, j), for rows i in [0, hi) and every column j, is
    (max(lam_i,0) + max(lam_j,0)) / (|lam_i| + |lam_j|), the slope of the
    positive part between lam_i and -lam_j.  Pairs of two zeros get 0;
    a caller that treats small eigenvalues as zero snaps them to 0 first
    and overlays whatever element of the interval [0, 1] it has committed
    to on that block.

    Parameters
    ----------
    lam : ndarray, shape (p,)
        Eigenvalues.
    hi : int, optional
        Rows to form; all p by default.

    Returns
    -------
    ndarray, shape (hi, p)
    """
    lam = np.asarray(lam, dtype=np.float64)
    pos = np.maximum(lam, 0.0)
    mag = np.abs(lam)
    den = np.add.outer(mag[:hi], mag)
    out = np.zeros(den.shape)
    np.divide(np.add.outer(pos[:hi], pos), den, out=out, where=den > 0.0)
    return out


def theta_matrix(eig, beta_choice="zero"):
    """Theta table at the matrix that ``eig`` decomposes, with the sign
    split of :func:`spectral.partition_by_sign`: :func:`proj_bsub_element`'s
    table with the same ``beta_choice``: the positive-part difference
    quotients (max(l_i,0)+max(l_j,0))/(|l_i|+|l_j|) off the zero-zero
    block, and the element of [0, 1] ``beta_choice`` commits to on it."""
    part = partition_by_sign(eig)
    # the partition's zero rows, by the same comparison, snapped to 0
    table = psd_pair_table(np.where(np.abs(eig.values) <= part.tol, 0.0,
                                    eig.values))
    if part.zero:
        zero = list(part.zero)
        table[np.ix_(zero, zero)] = choice_table(beta_choice, len(zero),
                                                 "beta_choice")
    return table


def theta_support_table(eig):
    """The rows [0, hi) of the theta table split by sign at 0,
    straight from the spectrum, hi the number of nonnegative eigenvalues:
    the table is exactly zero on [hi, p)^2, where both positive parts
    vanish.  Split at 0, only exact zeros form the zero block, where the
    pair table and the committed zero choice both give 0, so one pair
    table over the hi nonnegative eigenvalues' rows is those rows."""
    hi = sum(v >= 0.0 for v in eig.values.tolist())
    return psd_pair_table(eig.values, hi)


def proj_dir_deriv(M, H):
    """Directional derivative of the PSD projection at M along H.

    Blockwise in the eigenbasis of M, split by sign at
    :func:`spectral.default_tol`: identity on the positive rows,
    difference-quotient damping on the positive-negative cross blocks, a
    nested PSD projection on the zero block, and zero elsewhere.
    """
    eig = eig_sym(M)
    Hh = compress(eig.basis, H, "H", "M")
    # the table is already 1 on the positive rows and 0 on everything
    # touching the negative rows except the damped positive-negative block
    zero = list(partition_by_sign(eig).zero)
    nested = [(zero, project_psd(Hh[np.ix_(zero, zero)]))] if zero else []
    return hadamard_image(eig.basis, theta_matrix(eig), Hh, nested)


def proj_bsub_element(M, beta_choice="zero"):
    """Construct an element of the B-subdifferential of the PSD projection.

    A :class:`spectral.HadamardElement` in the eigenbasis of M with the
    table of :func:`theta_matrix`: a self-adjoint positive operator that
    is also dominated by the identity.

    Parameters
    ----------
    M : array_like, symmetric
    beta_choice : {"zero", "identity"} or ndarray
        The Hadamard block on the zero-zero rows, a free choice inside
        [0, 1]: "zero" damps them out, "identity" passes them through, or
        give an explicit symmetric table with entries in [0, 1].  It is
        read, and validated, only when M has a zero block, the
        eigenvalues within :func:`spectral.default_tol` of 0.
    """
    eig = eig_sym(M)
    return HadamardElement(eig.basis, theta_matrix(eig, beta_choice))
