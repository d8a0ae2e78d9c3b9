"""Verification tools for reference solutions.

Given a KKT point of the composite problem, this module checks the two
structural assumptions behind the fast local convergence of the multiplier
method (constraint nondegeneracy and a strong second-order sufficient
condition on a reduced subspace), evaluates the constants entering the
contraction-rate bound, and runs empirical rate sweeps that measure the
contraction ratio of the fixed-penalty dual iteration as the penalty grows.

Everything is organized around the joint eigen-structure at the reference
point: the eigenbasis Q of the matrix-map value F(x) refined against the
multiplier Y, and the eigenbasis P of the gap matrix M = Gamma - g(x) whose
sign split encodes strict complementarity of the conic constraint.
"""

import math
from dataclasses import asdict, dataclass
from typing import Optional, Tuple

import numpy as np

from .errors import (
    InnerSolveError,
    InvalidInput,
    MaxIterations,
    NotAKKTPoint,
    NotASubgradient,
    require_positive,
    require_seed,
)
from .nuclear import curvature_form, subdiff_partition
from .problem import (
    KKTPoint,
    MultiplierTriple,
    _primal_point,
    check_multipliers,
    hess_xx_lagrangian,
    kkt_residual,
)
from .solver import (
    ALMConfig,
    InnerConfig,
    alm_solve,
    require_resolvable_penalty,
)
from .spectral import (
    GROUP_TOL,
    EigenDecomposition,
    eig_sym,
    partition_by_sign,
    pinv_sym,
    svec,
    symmetric_part,
)

# relative singular-value cutoffs: nondegeneracy needs
# sigma_min > _RANK_TOL sigma_max; the reduced subspace is the null space of
# its constraint rows above _BASIS_RANK_TOL times the largest
_RANK_TOL = 1e-8
_BASIS_RANK_TOL = 1e-10
# largest KKT residual at which the second-order check gives a verdict
_KKT_TOL = 1e-6
# smallest reduced eigenvalue above which second-order sufficiency holds
_SOSC_TOL = 1e-10
# penalties over which rate_constants brackets the curvature model
_ETA_GRID = (10.0, 100.0, 1000.0, 10000.0)
# and the model's base weight c0
_BASE_PENALTY = 10.0
# rate_sweep: each grid point runs to this KKT residual (or the round-off
# floor) within _SWEEP_MAX_OUTER outer iterations, and dual distances at or
# below _RATIO_FLOOR give no ratio
_SWEEP_TARGET = 1e-12
_SWEEP_MAX_OUTER = 60
_RATIO_FLOOR = 1e-11
# the sweep measures the contraction of the exact multiplier method, so
# every inner solve runs to grad_tol (or the floor), not to a forcing term
SWEEP_INNER = InnerConfig(grad_tol_rel=0.0)


# ----------------------------------------------------------------------------
# joint eigen-structure at a reference point
# ----------------------------------------------------------------------------

@dataclass(frozen=True)
class ConeBlocks:
    """Eigen-structure shared by every check in this module.

    ``basis_F`` diagonalizes F(x) with columns ordered by descending
    eigenvalue; inside the zero eigenspace the columns are refined so the
    multiplier compression is diagonal with weights ``w`` (descending).
    Index tuples ``a``/``b_up``/``b_mid``/``b_low``/``c_neg`` point into
    those columns.  ``basis_M`` diagonalizes M = Gamma - g(x) and
    ``alpha``/``beta``/``gamma`` split its spectrum by sign.

    ``jac_F_Q[l]`` is the l-th coordinate partial of F compressed into the
    F basis, ``jac_g_P[l]`` the same for g in the M basis.  ``jac_h`` is
    the problem's ``h_A`` itself, not a copy.

    ``multiplicity`` is informational: it is set when two consecutive
    columns of ``basis_F`` share eigenvalue and weight, or two of
    ``basis_M`` share an eigenvalue (within 1e-8 (1 + the largest
    magnitude), and 1e-8 for the weight), so that the bases are not
    unique.  No constant of this module depends on the choice.
    """

    basis_F: np.ndarray
    values_F: np.ndarray
    w: np.ndarray
    Y_Q: np.ndarray
    a: Tuple[int, ...]
    b_up: Tuple[int, ...]
    b_mid: Tuple[int, ...]
    b_low: Tuple[int, ...]
    c_neg: Tuple[int, ...]
    basis_M: np.ndarray
    values_M: np.ndarray
    alpha: Tuple[int, ...]
    beta: Tuple[int, ...]
    gamma: Tuple[int, ...]
    jac_F_Q: np.ndarray
    jac_g_P: np.ndarray
    jac_h: np.ndarray
    multiplicity: bool

    @property
    def b_all(self):
        return self.b_up + self.b_mid + self.b_low


def _repeats(keys, tols):
    """Whether two consecutive rows of ``keys`` agree within ``tols`` in
    every coordinate."""
    return bool((np.abs(np.diff(keys, axis=0)) <= tols).all(axis=1).any())


def cone_blocks(problem, x, multipliers):
    """Assemble the joint eigen-structure at (x, multipliers).

    Inside a run of equal eigenvalue (and, for F, equal weight) the basis
    columns are fixed only up to a rotation.  Every verdict and constant
    this module derives is invariant under such rotations, so the basis the
    eigensolver returns serves; ``multiplicity`` records whether such a
    run exists.

    Raises
    ------
    InvalidInput
        When x is not a finite vector of length n, or the multipliers do
        not fit the problem (see :func:`problem.check_multipliers`).
    NotASubgradient
        When Y is not a subgradient of the nuclear norm at F(x).
    """
    x = _primal_point(problem, x, "x")
    Y, mu, Gamma = multipliers.Y, multipliers.mu, multipliers.Gamma
    check_multipliers(problem, Y, mu, Gamma)
    part = subdiff_partition(problem.F(x), Y)
    Q = part.basis
    lam_F = part.values
    w = part.w
    M = Gamma - problem.g(x)
    eig_M = eig_sym(M)
    sign_M = partition_by_sign(eig_M)
    P = eig_M.basis

    scale_F = 1.0 + np.abs(lam_F).max(initial=0.0)
    scale_M = 1.0 + eig_M.norm
    multiplicity = (
        _repeats(np.column_stack([lam_F, w]),
                 np.array([GROUP_TOL * scale_F, GROUP_TOL]))
        or _repeats(eig_M.values.reshape(-1, 1),
                    np.array([GROUP_TOL * scale_M])))

    return ConeBlocks(
        basis_F=Q,
        values_F=lam_F,
        w=w,
        Y_Q=Q.T @ Y @ Q,
        a=part.partition.pos,
        b_up=part.b_up,
        b_mid=part.b_mid,
        b_low=part.b_low,
        c_neg=part.partition.neg,
        basis_M=P,
        values_M=eig_M.values,
        alpha=sign_M.pos,
        beta=sign_M.zero,
        gamma=sign_M.neg,
        # batched congruences Q^T J_l Q: two O(n q^3) products
        jac_F_Q=np.matmul(np.matmul(Q.T, problem.jac_F(x)), Q),
        jac_g_P=np.matmul(np.matmul(P.T, problem.jac_g(x)), P),
        jac_h=problem.h_A,
        multiplicity=multiplicity,
    )


# ----------------------------------------------------------------------------
# block families of the compressed jacobians
# ----------------------------------------------------------------------------

# Row families of the active-block matrix after the equality jacobian:
# (map, row set, column set or None for a principal block, weight of the
# family in the curvature model, None for the free table value).  The cone
# map enters negated ("-g").
_ACTIVE_FAMILIES = (
    ("F", "b_up", None, None),
    ("F", "b_up", "b_mid", 2.0),
    ("F", "b_up", "b_low", 2.0),
    ("F", "b_mid", None, 1.0),
    ("F", "b_mid", "b_low", 2.0),
    ("F", "b_low", None, None),
    ("-g", "alpha", None, 1.0),
    ("-g", "beta", None, None),
    ("-g", "alpha", "beta", 2.0),
)

# Cross-block families between the active and the inactive parts of the
# spectra: (key, map, row set, column set, factor of the squared table
# maximum in rho0, None for a family that enters rho0 only through the
# largest ratio over all families).
_CROSS_FAMILIES = (
    ("a_bS", "F", "a", "b_mid", 8.0),
    ("a_bL", "F", "a", "b_low", 16.0),
    ("a_c", "F", "a", "c_neg", 32.0),
    ("c_bU", "F", "c_neg", "b_up", 64.0),
    ("c_bS", "F", "c_neg", "b_mid", 128.0),
    ("al_ga", "-g", "alpha", "gamma", None),
)


def _family_rows(b, which, rows, cols):
    """Rows of one block family, one column per primal coordinate.

    ``which`` picks the compressed jacobian: "F", "g", or "-g" for the
    negated cone map of the active-block matrix.  ``rows`` and ``cols`` name
    index sets of ``b``: the (rows, cols) block of every partial is
    column-stacked, and with ``cols`` None the principal block on ``rows``
    is half-vectorized by :func:`svec`.  Each block is gathered in one
    indexing step; an empty family is a (0, n) block.
    """
    jac = b.jac_F_Q if which == "F" else b.jac_g_P
    n = jac.shape[0]
    r = getattr(b, rows)
    s = r if cols is None else getattr(b, cols)
    if not r or not s:
        return np.zeros((0, n))
    if cols is None:
        out = svec(jac[:, np.array(r)[:, None], r]).T
    else:
        # entry (k, a, b) is the (r[b], s[a]) entry of partial k: each
        # partial's block, column-stacked
        out = jac[:, r, np.array(s)[:, None]].reshape(n, -1).T
    return -out if which == "-g" else out


def _cross_rows(b):
    """The cross families' rows, stacked in :data:`_CROSS_FAMILIES` order."""
    return np.vstack([_family_rows(b, which, rows, cols)
                      for _, which, rows, cols, _ in _CROSS_FAMILIES])


# ----------------------------------------------------------------------------
# nondegeneracy: the stacked active-block matrix and its rank
# ----------------------------------------------------------------------------

def _active_rows(b):
    """The active-constraint block matrix in the paired eigenbases of one
    basis; the weight of each row in the curvature model; and the mask of
    the rows of the families whose table entries the generalized
    derivative leaves free (weight 0 there, the caller's ``free`` in the
    model).

    Row groups, in order: the equality jacobian; the six blocks of the
    compressed matrix-map jacobian touching the zero eigenspace of F(x)
    (principal blocks half-vectorized); and, negated, the three blocks of
    the compressed cone-map jacobian touching the active eigenspace of the
    conic constraint.  Full row rank of the matrix is the operational
    form of constraint nondegeneracy.
    """
    groups = [(b.jac_h, 1.0)] + [
        (_family_rows(b, which, rows, cols), weight)
        for which, rows, cols, weight in _ACTIVE_FAMILIES]
    A = np.vstack([R for R, _ in groups])
    free_rows = np.concatenate(
        [np.full(R.shape[0], wt is None) for R, wt in groups])
    omega = np.concatenate(
        [np.full(R.shape[0], 0.0 if wt is None else wt) for R, wt in groups])
    return A, omega, free_rows


@dataclass(frozen=True)
class NondegeneracyReport:
    holds: bool
    sigma_min: float
    sigma_max: float
    rows: int
    spectrum_multiplicity: bool

    def as_dict(self):
        return asdict(self)


def _nondegenerate(s, rows, n):
    """The nondegeneracy cutoff on the descending singular values ``s`` of
    a rows x n active-block matrix: rows <= n and s[-1] > 1e-8 s[0]."""
    return rows <= n and s[-1] > _RANK_TOL * s[0]


def nondegeneracy_check(problem, x, multipliers, blocks=None):
    """Test constraint nondegeneracy via the active-block matrix rank.

    The check holds on the cutoff of :func:`_nondegenerate`: with more
    rows than primal coordinates it fails outright, sigma_min reported 0.
    Zero rows hold vacuously.
    """
    b = blocks if blocks is not None else cone_blocks(problem, x, multipliers)
    A = _active_rows(b)[0]
    rows, n = A.shape
    if rows == 0:
        return NondegeneracyReport(True, float("inf"), 0.0, 0, b.multiplicity)
    s = np.linalg.svd(A, compute_uv=False)
    sigma_min = float(s[-1]) if rows <= n else 0.0
    return NondegeneracyReport(bool(_nondegenerate(s, rows, n)), sigma_min,
                               float(s[0]), rows, b.multiplicity)


# ----------------------------------------------------------------------------
# reduced second-order machinery
# ----------------------------------------------------------------------------

def app_cone_basis(problem, x, multipliers, blocks=None):
    """Orthonormal basis of the reduced second-order subspace.

    The subspace collects primal directions annihilated by the equality
    jacobian whose compressed matrix-map image lies in the affine hull of
    the residual cone of the nuclear norm (interior rows of the zero block
    vanish against the whole block, and the saturated corner blocks do not
    mix) and whose compressed cone-map image lies in the affine hull of
    the residual cone of the semidefinite constraint.
    """
    b = blocks if blocks is not None else cone_blocks(problem, x, multipliers)
    L = np.vstack([
        b.jac_h,
        _family_rows(b, "F", "b_mid", "b_all"),
        _family_rows(b, "F", "b_up", "b_low"),
        _family_rows(b, "g", "alpha", None),
        _family_rows(b, "g", "alpha", "beta"),
    ])
    n = L.shape[1]
    if L.shape[0] == 0:
        return np.eye(n)
    _, s, Vt = np.linalg.svd(L, full_matrices=True)
    top = s[0] if s.size and s[0] > 0.0 else 1.0
    rank = int(np.sum(s > _BASIS_RANK_TOL * top))
    return Vt[rank:].T


def _psd_curvature_matrix(problem, x, Gamma, D):
    """Bilinear form 2 <Gamma, G_i g(x)^+ G_j> of the cone curvature term
    on the columns of D, with G_i = Dg(x) D[:, i]; unsymmetrized."""
    G = np.tensordot(D.T, problem.jac_g(x), axes=1)
    GGp = Gamma @ G @ pinv_sym(problem.g(x))
    return 2.0 * np.einsum("iab,jba->ij", GGp, G)


def sosc_reduced_matrix(problem, x, multipliers, blocks=None):
    """Reduced symmetric matrix of the second-order test.

    The test value q(d) is a quadratic form, so on the columns B of the
    orthonormal :func:`app_cone_basis` of the reduced subspace its matrix
    is assembled in closed form,

        M = B^T (hess_L - Sigma_F + Sigma_g) B,

    where Sigma_F is the nuclear-norm curvature
    (:func:`nuclear.curvature_form`) and Sigma_g the cone curvature
    2 sym <Gamma, Dg b_i g(x)^+ Dg b_j>.  Returns (matrix, basis).
    """
    b = blocks if blocks is not None else cone_blocks(problem, x, multipliers)
    basis = app_cone_basis(problem, x, multipliers, blocks=b)
    return _reduced_matrix(problem, x, multipliers, b, basis), basis


def _reduced_matrix(problem, x, multipliers, b, basis):
    """:func:`sosc_reduced_matrix`'s M on the columns of ``basis``."""
    x = np.asarray(x, dtype=np.float64)
    hess_L = hess_xx_lagrangian(problem, x, multipliers.Y, multipliers.mu,
                                multipliers.Gamma)
    M = basis.T @ hess_L @ basis
    J = np.tensordot(basis.T, b.jac_F_Q, axes=1)
    M -= curvature_form(EigenDecomposition(b.values_F, b.basis_F), b.Y_Q, J)
    M += _psd_curvature_matrix(problem, x, multipliers.Gamma, basis)
    return symmetric_part(M, "reduced matrix")


@dataclass(frozen=True)
class SOSCReport:
    holds: bool
    min_value: float
    dimension: int

    def as_dict(self):
        return asdict(self)


def _roundoff(eigs):
    """Round-off of computed eigenvalues of a symmetric matrix,
    eps * dim * ||M||_2: within it of a threshold, a value has no sign."""
    return (np.finfo(np.float64).eps * eigs.size
            * float(np.abs(eigs).max()))


def strong_sosc_check(problem, x, multipliers):
    """Strong second-order sufficiency on the reduced subspace: the
    smallest eigenvalue of the reduced matrix exceeds 1e-10.

    Raises
    ------
    NotAKKTPoint
        When the KKT residual at (x, multipliers) exceeds 1e-6.
    InvalidInput
        When the smallest eigenvalue of the reduced matrix lies within its
        round-off, eps * dim * ||M||_2, of 1e-10: data near the float
        limit leave the verdict to rounding.

    The KKT residual is formed here.  ``rate_sweep`` and ``sdnop check``
    form it first for their own tests and pass it to the body,
    ``_strong_sosc_check``, so that it is formed once.
    """
    res = kkt_residual(problem, x, multipliers.Y, multipliers.mu,
                       multipliers.Gamma)
    return _strong_sosc_check(problem, x, multipliers, res, None)


def _strong_sosc_check(problem, x, multipliers, res, blocks):
    """:func:`strong_sosc_check` given ``res``, the KKT residual at
    (x, multipliers), for a caller that has formed it already."""
    if res.total > _KKT_TOL:
        raise NotAKKTPoint(
            f"KKT residual {res.total:.3e} exceeds {_KKT_TOL:.1e}")
    M, basis = sosc_reduced_matrix(problem, x, multipliers, blocks=blocks)
    if basis.shape[1] == 0:
        return SOSCReport(True, float("inf"), 0)
    eigs = np.linalg.eigvalsh(M)
    min_value = float(eigs[0])
    roundoff = _roundoff(eigs)
    if not abs(min_value - _SOSC_TOL) > roundoff:
        raise InvalidInput(
            f"second-order verdict below round-off: smallest reduced "
            f"eigenvalue {min_value:.3e}, resolution {roundoff:.1e}")
    return SOSCReport(min_value > _SOSC_TOL, min_value, basis.shape[1])


# ----------------------------------------------------------------------------
# rate constants
# ----------------------------------------------------------------------------

def _cross_tables(b, c=None):
    """The cross-family tables, by key: ratio tables nu, or with a penalty
    ``c`` the divided-difference tables delta of the curvature model.

    The F tables are one difference quotient over structured spectra:
    eigenvalues lam (0 on the zero block) and weights w (1 on a and b_up,
    the interior weights on b_mid, -1 on b_low and c_neg).  Entry (i, j)
    has dw = w_i - w_j, dl = lam_i - lam_j, nu = dw / dl and, with
    tau = 1/c, delta = tau dw / (dl + tau dw), so c delta tends to nu as
    the penalty grows.  The g table is alpha_i / (-gamma_j), and
    alpha_i / (alpha_i + c (-gamma_j)) with a penalty.  An empty family
    gives an empty table.  No denominator comes near zero: the sign
    partitions admit into a, c_neg and gamma only eigenvalues beyond
    1e-8 (1 + the largest magnitude).
    """
    lam = b.values_F.copy()
    lam[list(b.b_all)] = 0.0
    w = b.w.copy()
    w[list(b.a + b.b_up)] = 1.0
    w[list(b.b_low + b.c_neg)] = -1.0
    out = {}
    for key, which, rows, cols, _ in _CROSS_FAMILIES:
        r, s = list(getattr(b, rows)), list(getattr(b, cols))
        if which == "F":
            dw = w[r][:, None] - w[s][None, :]
            dl = lam[r][:, None] - lam[s][None, :]
            if c is None:
                out[key] = dw / dl
            else:
                tau = 1.0 / c
                out[key] = tau * dw / (dl + tau * dw)
        else:
            al = b.values_M[r][:, None]
            neg_ga = -b.values_M[s][None, :]
            out[key] = al / neg_ga if c is None else al / (al + c * neg_ga)
    return out


def _nu_tables(blocks):
    """The nonempty :func:`_cross_tables` ratio tables as (min, max)."""
    return {key: (t.min(), t.max())
            for key, t in _cross_tables(blocks).items() if t.size}


def _curvature_model(problem, x, multipliers, b):
    """Curvature model with separately weighted row and table terms, as a
    function of (c_base, c, free).

    With A the active-block rows (weights omega: 1 on the equality and
    principal blocks, 2 on the off-diagonal blocks, ``free`` on the
    principal blocks whose table entries the generalized derivative
    leaves unconstrained in [0, 1]) and C the cross-family rows with
    their divided-difference weights delta (:func:`_cross_tables` at
    penalty ``c``: tau dw / (dl + tau dw) over the structured spectra,
    tau = 1/c, and alpha / (alpha + c (-gamma)) for the cone family),

        hess_L + c_base A^T (omega o A) + 2 c C^T (delta o C).

    With ``c_base == c`` and ``free`` 0 or 1 it reproduces a regularized
    Newton matrix of the method at the reference point.  The Lagrangian
    Hessian, the active-block rows and the cross-family rows are built
    once; each call forms only the weights omega and delta.
    """
    x = np.asarray(x, dtype=np.float64)
    hess = hess_xx_lagrangian(problem, x, multipliers.Y, multipliers.mu,
                              multipliers.Gamma)
    A, fixed, free_rows = _active_rows(b)
    C = _cross_rows(b)

    def model(c_base, c, free):
        omega = np.where(free_rows, free, fixed)
        delta = np.concatenate(
            [t.flatten(order="F") for t in _cross_tables(b, c).values()])
        out = (hess + c_base * A.T @ (omega[:, None] * A)
               + 2.0 * c * C.T @ (delta[:, None] * C))
        return symmetric_part(out, "curvature model")

    return model


def _sigma_nu_at(blocks):
    """Singular-value and cross-block spectral brackets in float64, inf
    past the float range (under the caller's ``np.errstate``).

    The nu bracket is the spectrum of the Gram matrix C C^T of the
    cross-family rows, which is positive semidefinite: a smallest
    eigenvalue within its round-off (:func:`_roundoff`) of 0 is reported
    as 0.
    """
    A = _active_rows(blocks)[0]
    C = _cross_rows(blocks)
    n2, n = A.shape
    R_tilde = np.eye(n)
    sig_lo = sig_hi = np.float64(1.0)
    if n2:
        U, s, Vt = np.linalg.svd(A, full_matrices=True)
        if not _nondegenerate(s, n2, n):
            # nondegeneracy fails: the inverse-square bound does not exist
            sig_lo = np.minimum(1.0, s[0] ** -2.0)
            sig_hi = np.float64(np.inf)
            R_tilde = None
        else:
            inv2 = s ** -2.0
            sig_lo = np.minimum(1.0, inv2.min())
            sig_hi = np.maximum(1.0, inv2.max())
            top = (Vt.T[:, :n2] / s[None, :]) @ U.T
            R_tilde = np.hstack([top, Vt.T[:, n2:]])
    if C.shape[0] == 0:
        return sig_lo, sig_hi, 0.0, 0.0
    ev = np.linalg.eigvalsh(C @ C.T)
    nu_lo, nu_hi = _gram_floor(ev), float(ev[-1])
    if R_tilde is not None:
        Ct = C @ R_tilde
        evt = np.linalg.eigvalsh(Ct @ Ct.T)
        nu_lo = max(nu_lo, _gram_floor(evt))
        nu_hi = max(nu_hi, float(evt[-1]))
    return sig_lo, sig_hi, nu_lo, nu_hi


def _gram_floor(eigs):
    """Smallest of the ascending eigenvalues of a Gram matrix; 0 when it
    lies within their round-off of 0, where its sign is rounding's."""
    low = float(eigs[0])
    return 0.0 if abs(low) <= _roundoff(eigs) else low


def kappa0_constant(sigma_lower, sigma_upper, eta_lower, eta_upper):
    """Lipschitz-type constant sqrt(2)(s_hi + (s_lo e_lo)^-2 (s_hi e_hi)^2)
    in float64, inf past the float range; inf too for a zero s_lo e_lo or
    an infinite s_hi, where IEEE would give inf * 0 = NaN for e_hi = 0."""
    prod_lo = np.float64(sigma_lower) * eta_lower
    sigma_upper = np.float64(sigma_upper)
    if prod_lo == 0.0 or not np.isfinite(sigma_upper):
        return np.float64(np.inf)
    return np.sqrt(2.0) * (
        sigma_upper + prod_lo ** -2.0 * (sigma_upper * eta_upper) ** 2.0)


@dataclass(frozen=True)
class RateConstants:
    """Constants of the local contraction-rate bound.

    ``rho1`` bounds the primal distance ratio and scales like twice
    ``rho0``; the dual-side constant has no computable closed form, so
    it is fitted from an empirical sweep (``RateFit.rho2_proxy``).
    The nu_0, sigma and nu brackets do not depend on the choice of basis
    inside a repeated eigenvalue; ``spectrum_multiplicity`` only reports
    that one exists (see :class:`ConeBlocks`).
    """

    nu_lower_0: float
    nu_upper_0: float
    nu_lower: float
    nu_upper: float
    sigma_lower: float
    sigma_upper: float
    eta_lower: float
    eta_upper: float
    c0: float
    c_bar: float
    kappa0: float
    rho0: float
    rho1: float
    spectrum_multiplicity: bool

    def as_dict(self):
        return asdict(self)


def rate_constants(problem, x, multipliers, blocks=None):
    """Evaluate the constants entering the contraction-rate bound.

    The ratio brackets nu_0 are the extremes of the cross-family tables
    of :func:`_cross_tables`, difference quotients dw / dl of the
    structured weights over the structured eigenvalues (alpha / (-gamma)
    for the cone family); each family's squared maximum enters rho0 with
    its factor from ``_CROSS_FAMILIES``.  The singular-value bracket
    sigma comes from the active-block matrix and the spectral bracket nu
    from the cross-family rows.  All three are spectral functions of the
    blocks: a rotation inside a run of equal eigenvalue and weight maps
    each family's rows orthogonally, and the tables are constant on such
    runs, so they are exact whatever basis the eigensolver returns.  The
    uniform curvature bracket (eta) is estimated from the split-penalty
    curvature model (:func:`_curvature_model`) over c = 10, 100, 1e3,
    1e4 with the base weight c0 = 10, which the result reports; it is an
    estimate, not a certified constant.  All of it is IEEE float64 under
    one ``np.errstate``: a bound past the float range reads inf, as
    ``c_bar`` and ``kappa0`` do on data whose jacobians are scaled by
    1e-100 though nondegeneracy holds, and a curvature model past it is an
    InvalidInput.  Wherever nondegeneracy fails (:func:`_nondegenerate`),
    ``sigma_upper``, ``c_bar`` and ``kappa0`` are infinite and
    ``rho0``/``rho1`` NaN.  ``blocks`` is an optional :func:`cone_blocks`
    at (x, multipliers) to reuse.
    """
    if blocks is None:
        blocks = cone_blocks(problem, x, multipliers)
    with np.errstate(all="ignore"):
        nus = _nu_tables(blocks)
        if nus:
            nu_lower_0 = min(lo for lo, _ in nus.values())
            nu_upper_0 = max(hi for _, hi in nus.values())
        else:
            nu_lower_0 = nu_upper_0 = np.float64(0.0)
        c0 = _BASE_PENALTY
        model = _curvature_model(problem, x, multipliers, blocks)
        eta_lower = min(np.linalg.eigvalsh(model(c0, c, 0.0))[0]
                        for c in _ETA_GRID)
        eta_upper = max(np.linalg.eigvalsh(model(c0, c, 1.0))[-1]
                        for c in _ETA_GRID)
        sig_lo, sig_hi, nu_lo, nu_hi = _sigma_nu_at(blocks)
        c_bar = max(
            (2.0 + np.sqrt(2.0)) * c0,
            (sig_hi * eta_upper - c0) ** 2 / c0,
            (sig_lo * eta_lower / 2.0 - c0) ** 2 / c0,
        )
        kappa0 = kappa0_constant(sig_lo, sig_hi, eta_lower, eta_upper)
        terms = [128.0 * nu_upper_0 ** 2, 4.0 * kappa0 ** 2]
        for key, _, _, _, factor in _CROSS_FAMILIES:
            if factor is not None and key in nus:
                terms.append(factor * nus[key][1] ** 2)
        if eta_lower > 0.0 and np.isfinite(sig_hi):
            rho0 = np.sqrt(nu_hi * sig_hi * sig_lo ** -2.0
                           * eta_lower ** -2.0 * max(terms))
        else:
            rho0 = np.nan
        rho1 = 2.0 * rho0
    return RateConstants(
        nu_lower_0=float(nu_lower_0),
        nu_upper_0=float(nu_upper_0),
        nu_lower=float(nu_lo),
        nu_upper=float(nu_hi),
        sigma_lower=float(sig_lo),
        sigma_upper=float(sig_hi),
        eta_lower=float(eta_lower),
        eta_upper=float(eta_upper),
        c0=c0,
        c_bar=float(c_bar),
        kappa0=float(kappa0),
        rho0=float(rho0),
        rho1=float(rho1),
        spectrum_multiplicity=blocks.multiplicity,
    )


# ----------------------------------------------------------------------------
# empirical rate sweep
# ----------------------------------------------------------------------------

@dataclass(frozen=True)
class RateFit:
    """Measured contraction ratios over a penalty grid and their fit.

    ``ratios[j]`` is the median per-iteration contraction of the dual
    distance for grid point j (NaN when the run is excluded);
    ``predicted[j]`` is ``rho2_proxy / c_j`` with the proxy taken from the
    fit intercept.  ``slope`` is None when fewer than two grid points
    produced usable ratios.  ``stops[j]`` says how grid point j ended:
    "tol" (KKT residual below the target), "floor" (at the round-off
    floor; converged too), "max_outer" or "inner_failure".
    """

    penalties: Tuple[float, ...]
    ratios: Tuple[float, ...]
    iterations: Tuple[int, ...]
    converged: Tuple[bool, ...]
    stops: Tuple[str, ...]
    slope: Optional[float]
    intercept: Optional[float]
    r_squared: Optional[float]
    rho2_proxy: Optional[float]
    predicted: Tuple[float, ...]
    assumptions_unverified: bool

    @property
    def fit_points(self):
        """Grid indices whose ratios enter the fit."""
        return _fit_points(self.ratios, self.converged)

    def as_dict(self):
        return asdict(self)


def _fit_points(ratios, converged):
    """Indices of converged grid points with a finite positive ratio."""
    return tuple(
        j for j, (r, ok) in enumerate(zip(ratios, converged))
        if ok and math.isfinite(r) and r > 0.0)


def _unit_perturbation(problem, seed):
    """Deterministic unit-norm multiplier displacement for a given seed."""
    rng = np.random.RandomState(seed)
    q, m, p = problem.q, problem.m, problem.p
    DY = symmetric_part(rng.randn(q, q), "DY")
    dmu = rng.randn(m)
    DG = symmetric_part(rng.randn(p, p), "DG")
    norm = math.sqrt(
        float(np.sum(DY * DY)) + float(dmu @ dmu) + float(np.sum(DG * DG)))
    if norm == 0.0:
        raise InvalidInput("problem has no multiplier coordinates to perturb")
    return MultiplierTriple(DY / norm, dmu / norm, DG / norm)


def _contraction_ratios(dists, floor):
    """Per-step ratios of the dual distances while both lie above ``floor``,
    up to the first step that does not contract: from there on the run
    wanders at its round-off floor and the ratios measure noise."""
    ratios = []
    for e0, e1 in zip(dists, dists[1:]):
        if not (e0 > floor and e1 > floor):
            continue
        if e1 >= e0:
            break
        ratios.append(e1 / e0)
    return ratios


def _sweep_one(problem, reference, c, delta, u):
    """Run one fixed-penalty grid point; pure function of its arguments.

    Returns (median ratio, outer iterations, converged, stop reason).
    """
    ref_y = reference.multipliers
    y0 = MultiplierTriple(ref_y.Y + delta * u.Y, ref_y.mu + delta * u.mu,
                          ref_y.Gamma + delta * u.Gamma)
    config = ALMConfig(c0=c, outer_tol=_SWEEP_TARGET,
                       max_outer=_SWEEP_MAX_OUTER, inner=SWEEP_INNER,
                       c_max=c)
    converged = True
    try:
        _, trace = alm_solve(problem, y0, config,
                             np.array(reference.x, dtype=np.float64),
                             reference=reference)
        stop = trace.stop
    except MaxIterations as exc:
        trace, stop, converged = exc.trace, "max_outer", False
    except InnerSolveError as exc:
        trace, stop, converged = exc.trace, "inner_failure", False
    dists = [delta] + (list(trace.dist_y) if trace is not None else [])
    ratios = _contraction_ratios(dists, _RATIO_FLOOR)
    iterations = len(trace) if trace is not None else 0
    if converged and ratios:
        ratio = float(np.median(ratios))
    else:
        ratio = float("nan")
    return ratio, iterations, converged, stop


def rate_sweep(problem, reference, grid, delta=1e-2, seed=0):
    """Measure dual contraction ratios over an increasing penalty grid.

    Every grid value starts from the reference multipliers displaced by
    ``delta`` along the same deterministic unit direction derived from
    ``seed`` (an integer in [0, 2**32); see ``errors.require_seed``), so the
    direction-dependent part of the contraction
    constant cancels between grid points.  Each runs with the penalty
    held at its grid value until the KKT residual drops below 1e-12 or,
    at large penalties where 1e-12 lies below what the arithmetic
    resolves, until it reaches the solver's round-off floor
    (``alm_solve``); both count as converged, and ``RateFit.stops``
    records which.  A point still running after 60 outer iterations
    fails.  Per-iteration ratios of the dual distance are collected while
    it lies above 1e-11 and keeps contracting, and summarized by their
    median; a log-log line through the usable points gives the decay
    slope and the proxy constant for the predicted ratio.

    Non-convergent grid points are excluded from the fit and reported
    with a NaN ratio.  The ``assumptions_unverified`` flag is set when
    the nondegeneracy or second-order check fails (or cannot run) at the
    reference point.
    """
    if not isinstance(reference, KKTPoint):
        raise InvalidInput(f"reference must be a KKTPoint, got "
                           f"{type(reference).__name__}")
    _primal_point(problem, reference.x, "reference.x")
    try:
        grid = list(grid)
    except TypeError:
        raise InvalidInput(
            f"grid must be a sequence of penalties, got {grid!r}") from None
    grid = [require_positive("grid value", c) for c in grid]
    if not grid:
        raise InvalidInput("penalty grid is empty")
    for c in grid:
        require_resolvable_penalty("grid value", c)
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise InvalidInput("penalty grid must be strictly increasing")
    delta = require_positive("delta", delta)
    require_seed(seed)
    ref_res = kkt_residual(problem, reference.x, reference.multipliers.Y,
                           reference.multipliers.mu,
                           reference.multipliers.Gamma)
    if ref_res.total > 1e-10:
        raise InvalidInput(
            f"reference KKT residual {ref_res.total:.3e} exceeds 1e-10")

    try:
        blocks = cone_blocks(problem, reference.x, reference.multipliers)
        nondeg = nondegeneracy_check(problem, reference.x,
                                     reference.multipliers, blocks=blocks)
        sosc = _strong_sosc_check(problem, reference.x,
                                  reference.multipliers, ref_res, blocks)
        unverified = not (nondeg.holds and sosc.holds)
    except (NotAKKTPoint, NotASubgradient, InvalidInput):
        unverified = True

    u = _unit_perturbation(problem, seed)
    results = [_sweep_one(problem, reference, c, delta, u) for c in grid]
    ratios, iterations, converged, stops = (tuple(v) for v in zip(*results))

    usable = [(grid[j], ratios[j]) for j in _fit_points(ratios, converged)]
    slope = intercept = r_squared = rho2_proxy = None
    if len(usable) == 1:
        rho2_proxy = usable[0][1] * usable[0][0]
    elif len(usable) >= 2:
        log_c = np.log(np.array([c for c, _ in usable]))
        log_r = np.log(np.array([r for _, r in usable]))
        slope_v, intercept_v = np.polyfit(log_c, log_r, 1)
        slope = float(slope_v)
        intercept = float(intercept_v)
        fitted = slope_v * log_c + intercept_v
        ss_res = float(np.sum((log_r - fitted) ** 2))
        ss_tot = float(np.sum((log_r - log_r.mean()) ** 2))
        r_squared = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
        rho2_proxy = float(math.exp(intercept_v))
    predicted = tuple(
        rho2_proxy / c if rho2_proxy is not None else float("nan")
        for c in grid
    )
    return RateFit(
        penalties=tuple(grid),
        ratios=ratios,
        iterations=iterations,
        converged=converged,
        stops=stops,
        slope=slope,
        intercept=intercept,
        r_squared=r_squared,
        rho2_proxy=rho2_proxy,
        predicted=predicted,
        assumptions_unverified=unverified,
    )
