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
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .errors import (
    InnerSolveError,
    InvalidInput,
    MaxIterations,
    NotAKKTPoint,
    NotASubgradient,
)
from .nuclear import critical_blocks_contain, curvature_form, subdiff_partition
from .problem import (
    MultiplierTriple,
    hess_xx_lagrangian,
    kkt_residual,
)
from .solver import ALMConfig, alm_solve, require_resolvable_penalty
from .spectral import (
    EigenDecomposition,
    eig_sym,
    partition_by_sign,
    pinv_sym,
    svec,
)

# relative gap below which eigenvalues (and nuclear weights) form one group
_GROUP_TOL = 1e-8
# relative singular-value cutoffs: nondegeneracy needs
# sigma_min > _RANK_TOL sigma_max; the reduced subspace is the null space of
# its constraint rows above _BASIS_RANK_TOL times the largest
_RANK_TOL = 1e-8
_BASIS_RANK_TOL = 1e-10
# largest KKT residual at which the second-order check gives a verdict
_KKT_TOL = 1e-6
# penalties over which rate_constants brackets the curvature model
_ETA_GRID = (10.0, 100.0, 1000.0, 10000.0)
# rate_sweep: each grid point runs to this KKT residual (or the round-off
# floor) within _SWEEP_MAX_OUTER outer iterations, and dual distances at or
# below _RATIO_FLOOR give no ratio
_SWEEP_TARGET = 1e-12
_SWEEP_MAX_OUTER = 60
_RATIO_FLOOR = 1e-11


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
    F basis, ``jac_g_P[l]`` the same for g in the M basis.
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


def _equal_runs(keys, tols):
    """Consecutive index runs where every key coordinate stays within tol."""
    k = keys.shape[0]
    runs = []
    start = 0
    for i in range(1, k):
        if np.any(np.abs(keys[i] - keys[i - 1]) > tols):
            runs.append(tuple(range(start, i)))
            start = i
    if k:
        runs.append(tuple(range(start, k)))
    return runs


def _rotate_within(basis, runs, rng):
    out = basis.copy()
    for run in runs:
        if len(run) < 2:
            continue
        G = rng.randn(len(run), len(run))
        O, _ = np.linalg.qr(G)
        out[:, list(run)] = out[:, list(run)] @ O
    return out


def cone_blocks(problem, x, multipliers, rng=None):
    """Assemble the joint eigen-structure at (x, multipliers).

    Parameters
    ----------
    rng : numpy.random.RandomState, optional
        When given, the basis columns are rotated by random orthogonal
        blocks inside every eigen-group that leaves both decompositions
        invariant (equal eigenvalue and equal weight).  Used to bracket
        basis-dependent constants when the spectrum has multiplicities.

    Raises
    ------
    InvalidInput
        On dimension mismatches between the multipliers and the problem.
    NotASubgradient
        When Y is not a subgradient of the nuclear norm at F(x).
    """
    x = np.asarray(x, dtype=np.float64)
    Y, mu, Gamma = multipliers.Y, multipliers.mu, multipliers.Gamma
    if np.shape(mu) != (problem.m,):
        raise InvalidInput("mu dimension does not match the problem")
    if np.shape(Gamma) != (problem.p, problem.p):
        raise InvalidInput("Gamma dimension does not match the problem")
    part = subdiff_partition(problem.F(x), Y)
    Q = part.basis
    lam_F = part.values
    w = part.w
    M = Gamma - problem.g(x)
    eig_M = eig_sym(M)
    sign_M = partition_by_sign(eig_M)
    P = eig_M.basis

    scale_F = 1.0 + np.abs(lam_F).max(initial=0.0)
    runs_F = _equal_runs(
        np.column_stack([lam_F, w]),
        np.array([_GROUP_TOL * scale_F, _GROUP_TOL]),
    )
    scale_M = 1.0 + eig_M.norm
    runs_M = _equal_runs(
        eig_M.values.reshape(-1, 1), np.array([_GROUP_TOL * scale_M])
    )
    multiplicity = any(len(r) > 1 for r in runs_F + runs_M)
    if rng is not None:
        Q = _rotate_within(Q, runs_F, rng)
        P = _rotate_within(P, runs_M, rng)

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
        jac_h=problem.jac_h(x),
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
    is half-vectorized by :func:`svec`.
    """
    jac = b.jac_F_Q if which == "F" else b.jac_g_P
    n = jac.shape[0]
    r = list(getattr(b, rows))
    if cols is None:
        out = svec(jac[:, r][:, :, r]).T
    else:
        s = list(getattr(b, cols))
        sub = jac[:, r][:, :, s]
        out = np.transpose(sub, (0, 2, 1)).reshape(n, len(r) * len(s)).T
    return -out if which == "-g" else out


def _cross_rows(b):
    """The cross families' rows, stacked in :data:`_CROSS_FAMILIES` order."""
    return np.vstack([_family_rows(b, which, rows, cols)
                      for _, which, rows, cols, _ in _CROSS_FAMILIES])


# ----------------------------------------------------------------------------
# nondegeneracy: the stacked active-block matrix and its rank
# ----------------------------------------------------------------------------

@dataclass(frozen=True)
class AQPMatrix:
    """Active-constraint block matrix in the paired eigenbases.

    Row groups, in order: the equality jacobian; the six blocks of the
    compressed matrix-map jacobian touching the zero eigenspace of F(x)
    (principal blocks half-vectorized); and, negated, the three blocks of
    the compressed cone-map jacobian touching the active eigenspace of the
    conic constraint.  Full row rank of this matrix is the operational
    form of constraint nondegeneracy.
    """

    matrix: np.ndarray
    n1: int
    n2: int
    blocks: ConeBlocks


def _active_rows(b, free=0.0):
    """The row groups of :class:`AQPMatrix`, stacked, for one basis, and
    the weight of each row in the curvature model (``free`` for the
    families whose table entries the generalized derivative leaves
    free)."""
    groups = [(b.jac_h, 1.0)] + [
        (_family_rows(b, which, rows, cols),
         free if weight is None else weight)
        for which, rows, cols, weight in _ACTIVE_FAMILIES]
    A = np.vstack([R for R, _ in groups])
    omega = np.concatenate([np.full(R.shape[0], wt) for R, wt in groups])
    return A, omega


def build_AQP(problem, x, multipliers, blocks=None):
    """Assemble the active-constraint block matrix at a reference point."""
    b = blocks if blocks is not None else cone_blocks(problem, x, multipliers)
    A, _ = _active_rows(b)
    nb = len(b.b_all)
    nab = len(b.alpha) + len(b.beta)
    n1 = b.jac_h.shape[0] + nb * (nb + 1) // 2
    n2 = n1 + nab * (nab + 1) // 2
    return AQPMatrix(A, n1, n2, b)


@dataclass(frozen=True)
class NondegeneracyReport:
    holds: bool
    sigma_min: float
    sigma_max: float
    rows: int
    spectrum_multiplicity: bool

    def as_dict(self):
        return {
            "holds": bool(self.holds),
            "sigma_min": float(self.sigma_min),
            "sigma_max": float(self.sigma_max),
            "rows": int(self.rows),
            "spectrum_multiplicity": bool(self.spectrum_multiplicity),
        }


def nondegeneracy_check(problem, x, multipliers, blocks=None):
    """Test constraint nondegeneracy via the active-block matrix rank.

    The check holds when the smallest singular value of the stacked matrix
    exceeds 1e-8 times the largest; with more rows than primal
    coordinates it fails outright.  Zero rows hold vacuously.
    """
    A = build_AQP(problem, x, multipliers, blocks=blocks)
    mult = A.blocks.multiplicity
    if A.n2 == 0:
        return NondegeneracyReport(True, float("inf"), 0.0, 0, mult)
    s = np.linalg.svd(A.matrix, compute_uv=False)
    sigma_max = float(s[0])
    if A.n2 > A.matrix.shape[1]:
        return NondegeneracyReport(False, 0.0, sigma_max, A.n2, mult)
    sigma_min = float(s[-1])
    holds = sigma_min > _RANK_TOL * sigma_max
    return NondegeneracyReport(holds, sigma_min, sigma_max, A.n2, mult)


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


def sigma_term_psd(problem, x, Gamma, d):
    """Curvature contribution of the semidefinite constraint along d.

    Evaluates 2 <Gamma, (Dg d) g(x)^+ (Dg d)>, the one-direction case of
    the cone curvature term of :func:`sosc_reduced_matrix`; zero when the
    constraint is absent.
    """
    d = np.asarray(d, dtype=np.float64)
    return float(_psd_curvature_matrix(problem, x, Gamma, d[:, None])[0, 0])


def sosc_reduced_matrix(problem, x, multipliers, blocks=None, basis=None):
    """Reduced symmetric matrix of the second-order test.

    The test value q(d) is a quadratic form, so on the columns B of
    ``basis`` its matrix is assembled in closed form,

        M = B^T (hess_L - Sigma_F + Sigma_g) B,

    where Sigma_F is the nuclear-norm curvature
    (:func:`nuclear.curvature_form`) and Sigma_g the cone curvature
    2 sym <Gamma, Dg b_i g(x)^+ Dg b_j>.  The basis defaults to the
    orthonormal :func:`app_cone_basis` of the reduced subspace.  Returns
    (matrix, basis).
    """
    b = blocks if blocks is not None else cone_blocks(problem, x, multipliers)
    if basis is None:
        basis = app_cone_basis(problem, x, multipliers, blocks=b)
    x = np.asarray(x, dtype=np.float64)
    hess_L = hess_xx_lagrangian(problem, x, multipliers.Y, multipliers.mu,
                                multipliers.Gamma)
    M = basis.T @ hess_L @ basis
    J = np.tensordot(basis.T, b.jac_F_Q, axes=1)
    M -= curvature_form(EigenDecomposition(b.values_F, b.basis_F), b.Y_Q,
                        J, _GROUP_TOL)
    M += _psd_curvature_matrix(problem, x, multipliers.Gamma, basis)
    return 0.5 * (M + M.T), basis


@dataclass(frozen=True)
class SOSCReport:
    holds: bool
    min_value: float
    dimension: int

    def as_dict(self):
        return {
            "holds": bool(self.holds),
            "min_value": float(self.min_value),
            "dimension": int(self.dimension),
        }


def strong_sosc_check(problem, x, multipliers, tol=1e-10, blocks=None):
    """Strong second-order sufficiency on the reduced subspace.

    Raises
    ------
    NotAKKTPoint
        When the KKT residual at (x, multipliers) exceeds 1e-6.
    InvalidInput
        When the smallest eigenvalue of the reduced matrix lies within its
        round-off, eps * dim * ||M||_2, of ``tol``: data near the float
        limit leave the verdict to rounding.
    """
    res = kkt_residual(problem, x, multipliers.Y, multipliers.mu,
                       multipliers.Gamma)
    if res.total > _KKT_TOL:
        raise NotAKKTPoint(
            f"KKT residual {res.total:.3e} exceeds {_KKT_TOL:.1e}")
    M, basis = sosc_reduced_matrix(problem, x, multipliers, blocks=blocks)
    if basis.shape[1] == 0:
        return SOSCReport(True, float("inf"), 0)
    eigs = np.linalg.eigvalsh(M)
    min_value = float(eigs[0])
    roundoff = (np.finfo(np.float64).eps * eigs.size
                * float(np.abs(eigs).max()))
    if not abs(min_value - tol) > roundoff:
        raise InvalidInput(
            f"second-order verdict below round-off: smallest reduced "
            f"eigenvalue {min_value:.3e}, resolution {roundoff:.1e}")
    return SOSCReport(min_value > tol, min_value, basis.shape[1])


def _critical_member(blocks, d, member_tol):
    """Cone membership of a direction already inside the reduced subspace:
    the critical-cone test on its F image and the sign of its g image on
    the beta block (the other g blocks vanish on the subspace)."""
    Hc = np.einsum("lij,l->ij", blocks.jac_F_Q, d)
    if not critical_blocks_contain(Hc, blocks.b_up, blocks.b_mid,
                                   blocks.b_low, member_tol):
        return False
    Gc = np.einsum("lij,l->ij", blocks.jac_g_P, d)
    bt = list(blocks.beta)
    if bt and np.linalg.eigvalsh(Gc[np.ix_(bt, bt)])[0] < -member_tol:
        return False
    return True


def second_order_necessary_check(problem, x, multipliers, samples=200,
                                 tol=1e-8, seed=0):
    """Sampled second-order necessary condition over critical directions.

    Draws directions from the reduced subspace, keeps those inside the
    critical cone (corner blocks correctly signed), and requires the
    second-order test value to be at least -tol on each.  Vacuously true
    when no sampled direction is critical.
    """
    b = cone_blocks(problem, x, multipliers)
    M, basis = sosc_reduced_matrix(problem, x, multipliers, blocks=b)
    k = basis.shape[1]
    if k == 0:
        return True
    rng = np.random.RandomState(seed)
    for _ in range(samples):
        d = basis @ rng.randn(k)
        norm = np.linalg.norm(d)
        if norm == 0.0:
            continue
        d /= norm
        if not _critical_member(b, d, 1e-10):
            continue
        z = basis.T @ d
        if z @ M @ z < -tol:
            return False
    return True


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
    """The nonempty ratio tables of :func:`_cross_tables` as (min, max)
    pairs."""
    return {key: (float(t.min()), float(t.max()))
            for key, t in _cross_tables(blocks).items() if t.size}


def split_penalty_matrix(problem, x, multipliers, c_base, c, free=0.0,
                         blocks=None):
    """Curvature model with separately weighted row and table terms.

    With A the active-block rows (weights omega: 1 on the equality and
    principal blocks, 2 on the off-diagonal blocks, ``free`` on the
    principal blocks whose table entries the generalized derivative
    leaves unconstrained in [0, 1]) and C the cross-family rows with
    their divided-difference weights delta (:func:`_cross_tables` at
    penalty ``c``: tau dw / (dl + tau dw) over the structured spectra,
    tau = 1/c, and alpha / (alpha + c (-gamma)) for the cone family),

        hess_L + c_base A^T (omega o A) + 2 c C^T (delta o C).

    With ``c_base == c`` this reproduces the regularized Newton matrix of
    the method at the reference point.
    """
    if not 0.0 <= free <= 1.0:
        raise InvalidInput("free table entries must lie in [0, 1]")
    b = blocks if blocks is not None else cone_blocks(problem, x, multipliers)
    x = np.asarray(x, dtype=np.float64)
    A, omega = _active_rows(b, free)
    C = _cross_rows(b)
    delta = np.concatenate(
        [t.flatten(order="F") for t in _cross_tables(b, c).values()])
    out = hess_xx_lagrangian(problem, x, multipliers.Y, multipliers.mu,
                             multipliers.Gamma)
    out = (out + c_base * A.T @ (omega[:, None] * A)
           + 2.0 * c * C.T @ (delta[:, None] * C))
    return 0.5 * (out + out.T)


def _sigma_nu_at(blocks):
    """Singular-value and cross-block spectral brackets for one basis."""
    A, _ = _active_rows(blocks)
    C = _cross_rows(blocks)
    n = A.shape[1]
    n2 = A.shape[0]
    R_tilde = np.eye(n)
    sig_lo, sig_hi = 1.0, 1.0
    if n2:
        U, s, Vt = np.linalg.svd(A, full_matrices=True)
        if n2 > n or s[-1] <= _RANK_TOL * s[0]:
            # nondegeneracy fails: the inverse-square bound does not exist
            sig_lo = min(1.0, float(s[0] ** -2.0)) if s[0] > 0 else 1.0
            sig_hi = float("inf")
            R_tilde = None
        else:
            inv2 = s ** -2.0
            sig_lo = min(1.0, float(inv2.min()))
            sig_hi = max(1.0, float(inv2.max()))
            top = (Vt.T[:, :n2] / s[None, :]) @ U.T
            R_tilde = np.hstack([top, Vt.T[:, n2:]])
    if C.shape[0] == 0:
        return sig_lo, sig_hi, 0.0, 0.0
    ev = np.linalg.eigvalsh(C @ C.T)
    nu_lo, nu_hi = float(ev[0]), float(ev[-1])
    if R_tilde is not None:
        Ct = C @ R_tilde
        evt = np.linalg.eigvalsh(Ct @ Ct.T)
        nu_lo = max(nu_lo, float(evt[0]))
        nu_hi = max(nu_hi, float(evt[-1]))
    return sig_lo, sig_hi, nu_lo, nu_hi


def kappa0_constant(sigma_lower, sigma_upper, eta_lower, eta_upper):
    """Lipschitz-type constant sqrt(2)(s_hi + (s_lo e_lo)^-2 (s_hi e_hi)^2)."""
    prod_lo = sigma_lower * eta_lower
    if prod_lo == 0.0 or not math.isfinite(sigma_upper):
        return float("inf")
    return math.sqrt(2.0) * (
        sigma_upper + prod_lo ** -2.0 * (sigma_upper * eta_upper) ** 2.0)


@dataclass(frozen=True)
class RateConstants:
    """Constants of the local contraction-rate bound.

    ``rho1`` bounds the primal distance ratio and scales like twice
    ``rho0``; the dual-side constant has no computable closed form, so
    ``rho2_proxy`` is NaN here and gets fitted from an empirical sweep.
    Values are estimates when ``spectrum_multiplicity`` is set (the bases
    are then non-unique and the extrema are bracketed by sampling).
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
    rho2_proxy: float
    spectrum_multiplicity: bool

    def as_dict(self):
        return {
            "nu_lower_0": self.nu_lower_0,
            "nu_upper_0": self.nu_upper_0,
            "nu_lower": self.nu_lower,
            "nu_upper": self.nu_upper,
            "sigma_lower": self.sigma_lower,
            "sigma_upper": self.sigma_upper,
            "eta_lower": self.eta_lower,
            "eta_upper": self.eta_upper,
            "c0": self.c0,
            "c_bar": self.c_bar,
            "kappa0": self.kappa0,
            "rho0": self.rho0,
            "rho1": self.rho1,
            "rho2_proxy": self.rho2_proxy,
            "spectrum_multiplicity": self.spectrum_multiplicity,
        }


def rate_constants(problem, x, multipliers, c0=10.0, rotations=32, seed=0,
                   blocks=None):
    """Evaluate the constants entering the contraction-rate bound.

    The ratio brackets nu_0 are the extremes of the cross-family tables
    of :func:`_cross_tables`, difference quotients dw / dl of the
    structured weights over the structured eigenvalues (alpha / (-gamma)
    for the cone family); each family's squared maximum enters rho0 with
    its factor from ``_CROSS_FAMILIES``.  The singular-value bracket
    sigma comes from the active-block matrix and the spectral bracket nu
    from the cross-family rows.  Both are exact when the relevant spectra
    are simple; with multiplicities the bases are non-unique and
    ``rotations`` random intra-group rotations widen them (flagged in the
    result).  The uniform curvature bracket (eta) is estimated from the
    split-penalty curvature model (:func:`split_penalty_matrix`) over
    c = 10, 100, 1e3, 1e4 with the base weight ``c0``; it is an estimate,
    not a certified constant.  Wherever nondegeneracy fails (sigma_min of
    the active-block matrix at most 1e-8 sigma_max, the cutoff of
    :func:`nondegeneracy_check`), ``sigma_upper``, ``c_bar`` and
    ``kappa0`` are infinite and ``rho0``/``rho1`` NaN.  ``blocks`` is an
    optional :func:`cone_blocks` at (x, multipliers) to reuse; the rotated
    brackets build their own.
    """
    if blocks is None:
        blocks = cone_blocks(problem, x, multipliers)
    nus = _nu_tables(blocks)
    if nus:
        nu_lower_0 = min(lo for lo, _ in nus.values())
        nu_upper_0 = max(hi for _, hi in nus.values())
    else:
        nu_lower_0 = nu_upper_0 = 0.0

    sig_lo, sig_hi, nu_lo, nu_hi = _sigma_nu_at(blocks)
    if blocks.multiplicity and rotations > 0:
        rng = np.random.RandomState(seed)
        for _ in range(rotations):
            rotated = cone_blocks(problem, x, multipliers, rng=rng)
            s_lo, s_hi, n_lo, n_hi = _sigma_nu_at(rotated)
            sig_lo = min(sig_lo, s_lo)
            sig_hi = max(sig_hi, s_hi)
            nu_lo = min(nu_lo, n_lo)
            nu_hi = max(nu_hi, n_hi)

    eta_lower = float("inf")
    eta_upper = float("-inf")
    for c in _ETA_GRID:
        low = split_penalty_matrix(problem, x, multipliers, c0, c,
                                   free=0.0, blocks=blocks)
        high = split_penalty_matrix(problem, x, multipliers, c0, c,
                                    free=1.0, blocks=blocks)
        eta_lower = min(eta_lower, float(np.linalg.eigvalsh(low)[0]))
        eta_upper = max(eta_upper, float(np.linalg.eigvalsh(high)[-1]))

    c_bar = max(
        (2.0 + math.sqrt(2.0)) * c0,
        (sig_hi * eta_upper - c0) ** 2 / c0,
        (sig_lo * eta_lower / 2.0 - c0) ** 2 / c0,
    )
    kappa0 = kappa0_constant(sig_lo, sig_hi, eta_lower, eta_upper)
    terms = [128.0 * nu_upper_0 ** 2, 4.0 * kappa0 ** 2]
    for key, _, _, _, factor in _CROSS_FAMILIES:
        if factor is not None and key in nus:
            terms.append(factor * nus[key][1] ** 2)
    if eta_lower > 0.0 and math.isfinite(sig_hi):
        rho0 = math.sqrt(
            nu_hi * sig_hi * sig_lo ** -2.0 * eta_lower ** -2.0 * max(terms))
        rho1 = 2.0 * rho0
    else:
        rho0 = float("nan")
        rho1 = float("nan")
    return RateConstants(
        nu_lower_0=nu_lower_0,
        nu_upper_0=nu_upper_0,
        nu_lower=nu_lo,
        nu_upper=nu_hi,
        sigma_lower=sig_lo,
        sigma_upper=sig_hi,
        eta_lower=eta_lower,
        eta_upper=eta_upper,
        c0=float(c0),
        c_bar=float(c_bar),
        kappa0=float(kappa0),
        rho0=rho0,
        rho1=rho1,
        rho2_proxy=float("nan"),
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
        return {
            "penalties": list(self.penalties),
            "ratios": list(self.ratios),
            "iterations": list(self.iterations),
            "converged": list(self.converged),
            "stops": list(self.stops),
            "slope": self.slope,
            "intercept": self.intercept,
            "r_squared": self.r_squared,
            "rho2_proxy": self.rho2_proxy,
            "predicted": list(self.predicted),
            "assumptions_unverified": self.assumptions_unverified,
        }


def _fit_points(ratios, converged):
    """Indices of converged grid points with a finite positive ratio."""
    return tuple(
        j for j, (r, ok) in enumerate(zip(ratios, converged))
        if ok and math.isfinite(r) and r > 0.0)


def _unit_perturbation(problem, seed):
    """Deterministic unit-norm multiplier displacement for a given seed."""
    rng = np.random.RandomState(seed)
    q, m, p = problem.q, problem.m, problem.p
    DY = rng.randn(q, q)
    DY = 0.5 * (DY + DY.T)
    dmu = rng.randn(m)
    DG = rng.randn(p, p)
    DG = 0.5 * (DG + DG.T)
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
                       max_outer=_SWEEP_MAX_OUTER, c_max=c)
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
    dists = [float(delta)] + (list(trace.dist_y) if trace is not None else [])
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
    ``seed``, so the direction-dependent part of the contraction
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
    grid = [float(c) for c in grid]
    if not grid:
        raise InvalidInput("penalty grid is empty")
    for c in grid:
        if not (math.isfinite(c) and c > 0.0):
            raise InvalidInput(
                f"penalty grid values must be finite and positive, got {c!r}")
        require_resolvable_penalty("penalty grid values", c)
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise InvalidInput("penalty grid must be strictly increasing")
    if not (math.isfinite(delta) and delta > 0.0):
        raise InvalidInput(
            f"perturbation radius delta must be finite and positive, "
            f"got {delta!r}")
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
        sosc = strong_sosc_check(problem, reference.x, reference.multipliers,
                                 blocks=blocks)
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
