"""Shared instance builders for the test suite.

The mixed instance is constructed so that x = 0 with the stated multiplier
triple is an exact KKT point: F(0) is nonsingular diagonal (so its
subgradient is unique), g(0) and Gamma are complementary diagonal PSD
matrices, h is affine with h(0) = 0, and grad f(0) is back-solved from the
stationarity equation.
"""

from dataclasses import replace

import numpy as np
import pytest

from sdnop.diagnostics import cone_blocks, sosc_reduced_matrix
from sdnop.problem import (
    KKTPoint,
    MultiplierTriple,
    QuadraticMatrixMap,
    QuadraticProblem,
)
from sdnop.spectral import GROUP_TOL


def make_mixed_instance(quadratic=False):
    """3-variable instance with q=2, m=1, p=2 and a built-in KKT point."""
    n = 3
    F0 = np.diag([1.5, -1.2])
    E1 = np.array([[0.3, 0.1], [0.1, -0.2]])
    F_Ai = np.zeros((n, 2, 2))
    F_Ai[0] = E1
    F_Aij = None
    G0 = np.diag([0.8, 0.0])
    G3 = np.array([[0.2, 0.0], [0.0, 0.5]])
    g_Ai = np.zeros((n, 2, 2))
    g_Ai[2] = G3
    g_Aij = None
    if quadratic:
        F_Aij = np.zeros((n, n, 2, 2))
        F_Aij[0, 0] = 0.1 * np.eye(2)
        F_Aij[0, 1] = F_Aij[1, 0] = np.array([[0.0, 0.05], [0.05, 0.0]])
        g_Aij = np.zeros((n, n, 2, 2))
        g_Aij[0, 0] = np.diag([0.05, 0.0])
    h_A = np.array([[0.0, 1.0, 0.5]])
    h_r = np.array([0.0])
    Ybar = np.diag([1.0, -1.0])
    mubar = np.array([0.7])
    Gbar = np.diag([0.0, 0.6])
    grad_f0 = -(
        np.array([np.sum(E1 * Ybar), 0.0, 0.0])
        + h_A.T @ mubar
        - np.array([0.0, 0.0, np.sum(G3 * Gbar)])
    )
    reference = KKTPoint(np.zeros(n), MultiplierTriple(Ybar, mubar, Gbar))
    return QuadraticProblem(
        0.0, grad_f0, np.eye(n),
        QuadraticMatrixMap(F0, F_Ai, F_Aij),
        h_A, h_r,
        QuadraticMatrixMap(G0, g_Ai, g_Aij),
        reference=reference,
    )


def make_full_blocks_instance(profile="nondegen", seed=11):
    """12-variable instance where every index class is nonempty.

    F(0) has spectrum (1.5, 0, 0, 0, -1.2) with multiplier weights
    (1, 0.3, -1) on the zero eigenspace, so the saturated-up, interior,
    and saturated-down classes are all singletons; M = Gamma - g(0) has
    spectrum (0.8, 0, -1.1).  The quadratic part of f is a multiple of
    the identity tuned after the fact so the reduced second-order test
    holds ("nondegen", "degen") or fails ("saddle"); "degen" duplicates
    the equality row so the active-block matrix loses rank.
    """
    return make_block_instance([1.5, 0.0, 0.0, 0.0, -1.2],
                               [1.0, 1.0, 0.3, -1.0, -1.0],
                               [0.8, 0.0, -1.1], 12, profile, seed)


def make_block_instance(F_values, Y_values, M_values, n, profile="nondegen",
                        seed=11):
    """Instance with x = 0 a KKT point of the given spectra.

    F(0) and Ybar share a random eigenbasis with eigenvalues ``F_values``
    and ``Y_values`` (1 on the positive, -1 on the negative eigenvalues
    of F(0), any weight in [-1, 1] on its zeros); M = Gamma - g(0) has
    eigenvalues ``M_values``, its positive part in Gamma and its negative
    part in -g(0).  The partials of F and g are random, and the profiles
    are those of :func:`make_full_blocks_instance`.
    """
    rng = np.random.RandomState(seed)
    q, p = len(F_values), len(M_values)
    QF, _ = np.linalg.qr(rng.randn(q, q))
    F0 = QF @ np.diag(F_values) @ QF.T
    Ybar = QF @ np.diag(Y_values) @ QF.T
    PM, _ = np.linalg.qr(rng.randn(p, p))
    M_values = np.asarray(M_values, dtype=np.float64)
    Gbar = PM @ np.diag(np.maximum(M_values, 0.0)) @ PM.T
    G0 = PM @ np.diag(np.maximum(-M_values, 0.0)) @ PM.T
    F_Ai = np.zeros((n, q, q))
    g_Ai = np.zeros((n, p, p))
    for l in range(n):
        Z = rng.randn(q, q)
        F_Ai[l] = 0.25 * (Z + Z.T)
        W = rng.randn(p, p)
        g_Ai[l] = 0.25 * (W + W.T)
    row = rng.randn(n)
    if profile == "degen":
        h_A = np.vstack([row, row])
        mubar = np.array([0.2, 0.2])
    else:
        h_A = row.reshape(1, n)
        mubar = np.array([0.4])
    h_r = np.zeros(h_A.shape[0])
    grad_f0 = -(
        np.einsum("lij,ij->l", F_Ai, Ybar)
        + h_A.T @ mubar
        - np.einsum("lij,ij->l", g_Ai, Gbar)
    )
    reference = KKTPoint(np.zeros(n), MultiplierTriple(Ybar, mubar, Gbar))

    def build(f_H):
        return QuadraticProblem(
            0.0, grad_f0, f_H,
            QuadraticMatrixMap(F0, F_Ai),
            h_A, h_r,
            QuadraticMatrixMap(G0, g_Ai),
            reference=reference,
        )

    base = build(np.zeros((n, n)))
    M0, _ = sosc_reduced_matrix(base, reference.x, reference.multipliers)
    evals = np.linalg.eigvalsh(M0) if M0.size else np.array([0.0])
    if profile == "saddle":
        t = -(1.0 + max(float(evals[-1]), 0.0))
    else:
        t = 1.0 + max(0.0, -float(evals[0]))
    return build(t * np.eye(n))


def make_weighted_zero_instance():
    """Spectrum (2, 0, -1) with interior weight 0.5 on the zero eigenvalue."""
    n = 2
    rng = np.random.RandomState(5)
    F0 = np.diag([2.0, 0.0, -1.0])
    F_Ai = np.zeros((n, 3, 3))
    for l in range(n):
        Z = rng.randn(3, 3)
        F_Ai[l] = 0.3 * (Z + Z.T)
    Ybar = np.diag([1.0, 0.5, -1.0])
    f_b = -np.einsum("lij,ij->l", F_Ai, Ybar)
    reference = KKTPoint(
        np.zeros(n), MultiplierTriple(Ybar, np.zeros(0), np.zeros((0, 0))))
    return QuadraticProblem(
        0.0, f_b, np.eye(n),
        QuadraticMatrixMap(F0, F_Ai),
        np.zeros((0, n)), np.zeros(0),
        None,
        reference=reference,
    )


def make_repeated_eigenvalue_instance():
    """F(0) has a doubled positive eigenvalue, so the basis is non-unique."""
    n = 2
    rng = np.random.RandomState(9)
    F0 = np.diag([2.0, 2.0, -1.0])
    F_Ai = np.zeros((n, 3, 3))
    for l in range(n):
        Z = rng.randn(3, 3)
        F_Ai[l] = 0.3 * (Z + Z.T)
    Ybar = np.diag([1.0, 1.0, -1.0])
    f_b = -np.einsum("lij,ij->l", F_Ai, Ybar)
    reference = KKTPoint(
        np.zeros(n), MultiplierTriple(Ybar, np.zeros(0), np.zeros((0, 0))))
    return QuadraticProblem(
        0.0, f_b, np.eye(n),
        QuadraticMatrixMap(F0, F_Ai),
        np.zeros((0, n)), np.zeros(0),
        None,
        reference=reference,
    )


# spectra (F eigenvalues, weights, M eigenvalues) with a repeated group in
# every index class: a, b_up, b_mid, b_low, c_neg and alpha, beta, gamma
REPEATED_SPECTRA = {
    # every class doubled
    "doubled": ([1.5, 1.5, 0, 0, 0, 0, 0, 0, -1.2, -1.2],
                [1, 1, 1, 1, 0.3, 0.3, -1, -1, -1, -1],
                [0.8, 0.8, 0, 0, -1.1, -1.1], 40),
    # groups of unequal sizes beside simple eigenvalues; the interior
    # weights form two groups of one zero eigenvalue
    "mixed": ([2.0, 2.0, 1.0, 0, 0, 0, 0, 0, 0, 0, 0, 0, -0.5, -0.5, -2.0],
              [1, 1, 1, 1, 1, 1, 0.3, 0.3, -0.4, -0.4, -1, -1, -1, -1, -1],
              [0.5, 0.5, 0.5, 0, 0, -1.0, -1.0, -0.3], 72),
    # more active rows than coordinates: nondegeneracy fails
    "crowded": ([1.5, 1.5, 0, 0, 0, 0, 0, 0, -1.2, -1.2],
                [1, 1, 1, 1, 0.3, 0.3, -1, -1, -1, -1],
                [0.8, 0.8, 0, 0, -1.1, -1.1], 20),
}


def make_repeated_blocks_instance(name, seed=11):
    """:func:`make_block_instance` on ``REPEATED_SPECTRA[name]``."""
    F_values, Y_values, M_values, n = REPEATED_SPECTRA[name]
    return make_block_instance(F_values, Y_values, M_values, n, seed=seed)


def equal_runs(keys, tols):
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


def spectrum_runs(blocks):
    """Runs of equal (eigenvalue, weight) of F(x) and of equal eigenvalue
    of M, within the tolerances of ``ConeBlocks.multiplicity``."""
    lam_F, lam_M = blocks.values_F, blocks.values_M
    scale_F = 1.0 + np.abs(lam_F).max(initial=0.0)
    scale_M = 1.0 + np.abs(lam_M).max(initial=0.0)
    return (equal_runs(np.column_stack([lam_F, blocks.w]),
                       np.array([GROUP_TOL * scale_F, GROUP_TOL])),
            equal_runs(lam_M.reshape(-1, 1), np.array([GROUP_TOL * scale_M])))


def rotated_blocks(problem, x, multipliers, rng):
    """``cone_blocks`` with the bases rotated by random orthogonal blocks
    inside every run of :func:`spectrum_runs`, which leaves both
    decompositions valid: another basis the eigensolver could return."""
    b = cone_blocks(problem, x, multipliers)
    Q, P = b.basis_F.copy(), b.basis_M.copy()
    for basis, runs in zip((Q, P), spectrum_runs(b)):
        for run in runs:
            if len(run) > 1:
                O, _ = np.linalg.qr(rng.randn(len(run), len(run)))
                basis[:, list(run)] = basis[:, list(run)] @ O
    x = np.asarray(x, dtype=np.float64)
    return replace(
        b,
        basis_F=Q,
        Y_Q=Q.T @ multipliers.Y @ Q,
        basis_M=P,
        jac_F_Q=np.matmul(np.matmul(Q.T, problem.jac_F(x)), Q),
        jac_g_P=np.matmul(np.matmul(P.T, problem.jac_g(x)), P),
    )


def make_equality_instance():
    """2-variable equality-only instance (p = 0, F absent)."""
    return QuadraticProblem(
        0.0, np.array([1.0, -2.0]), np.diag([2.0, 3.0]),
        None,
        np.array([[1.0, 1.0]]), np.array([-1.0]),
        None,
    )


@pytest.fixture
def mixed_instance():
    return make_mixed_instance()


@pytest.fixture
def mixed_quadratic_instance():
    return make_mixed_instance(quadratic=True)


@pytest.fixture
def equality_instance():
    return make_equality_instance()
