"""Shared instance builders for the test suite.

The mixed instance is constructed so that x = 0 with the stated multiplier
triple is an exact KKT point: F(0) is nonsingular diagonal (so its
subgradient is unique), g(0) and Gamma are complementary diagonal PSD
matrices, h is affine with h(0) = 0, and grad f(0) is back-solved from the
stationarity equation.
"""

import numpy as np
import pytest

from sdnop.problem import (
    KKTPoint,
    MultiplierTriple,
    QuadraticMatrixMap,
    QuadraticProblem,
)


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
    rng = np.random.RandomState(seed)
    n, q, p = 12, 5, 3
    QF, _ = np.linalg.qr(rng.randn(q, q))
    F0 = QF @ np.diag([1.5, 0.0, 0.0, 0.0, -1.2]) @ QF.T
    Ybar = QF @ np.diag([1.0, 1.0, 0.3, -1.0, -1.0]) @ QF.T
    PM, _ = np.linalg.qr(rng.randn(p, p))
    Gbar = PM @ np.diag([0.8, 0.0, 0.0]) @ PM.T
    G0 = PM @ np.diag([0.0, 0.0, 1.1]) @ PM.T
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

    from sdnop.diagnostics import sosc_reduced_matrix

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
