"""Closed-form reduced second-order matrix against a polarization oracle.

``sosc_reduced_matrix`` assembles M = B^T (hess_L - Sigma_F + Sigma_g) B
in one batched pass, by its body ``_reduced_matrix``, which the tests
below call on given blocks and basis.  The oracle below is the
construction it replaced: the second-order test value q(d) evaluated
direction by direction, with the nuclear-norm curvature summed in a loop
over eigenvalue-group pairs, and the matrix recovered from the
polarization probes q(b_i + b_j).  The
last test checks that ``psi_conjugate`` along a critical direction is the
quadratic of the nuclear curvature form Sigma_F.
"""

import os
from dataclasses import replace

import numpy as np
import pytest

from sdnop.diagnostics import _reduced_matrix, app_cone_basis, cone_blocks
from sdnop.generator import generate_instance
from sdnop.nuclear import curvature_form, psi_conjugate
from sdnop.problem import hess_xx_lagrangian, load_instance
from sdnop.spectral import EigenDecomposition, group_distinct, pinv_sym

from conftest import (
    make_full_blocks_instance,
    make_mixed_instance,
    rotated_blocks,
)
from eval_oracles import apply_jac
from family_oracles import critical_member
from psi_oracles import psi_critical, psi_full

INSTANCES = os.path.join(os.path.dirname(os.path.dirname(__file__)),
                         "instances")
BUNDLED = ("nondegen_small", "degen_small", "saddle_small")


# ----------------------------------------------------------------------------
# oracle: direction-by-direction test value and polarization probes
# ----------------------------------------------------------------------------

def _value_groups(blocks, group_tol):
    """Index runs of the distinct eigenvalue groups of F(x)."""
    eig = EigenDecomposition(blocks.values_F, blocks.basis_F)
    return group_distinct(eig, group_tol).blocks


def _matrix_term_curvature(blocks, Hc, group_tol=1e-8):
    """2 sum_k <Y_kk, sum_{l != k} Hc_kl Hc_kl^T / (v_l - v_k)>."""
    lam = blocks.values_F
    if lam.size == 0:
        return 0.0
    runs = _value_groups(blocks, group_tol)
    reps = [float(lam[list(r)].mean()) for r in runs]
    total = 0.0
    for k, gk in enumerate(runs):
        ik = list(gk)
        K = np.zeros((len(ik), len(ik)))
        for l, gl in enumerate(runs):
            if l == k:
                continue
            Hkl = Hc[np.ix_(ik, list(gl))]
            K += (Hkl @ Hkl.T) / (reps[l] - reps[k])
        total += 2.0 * float(np.sum(blocks.Y_Q[np.ix_(ik, ik)] * K))
    return total


def _quadratic_probe(problem, x, multipliers, blocks, group_tol=1e-8):
    """Closure computing the second-order test value q(d)."""
    hess_L = hess_xx_lagrangian(problem, x, multipliers.Y, multipliers.mu,
                                multipliers.Gamma)
    jac_g = problem.jac_g(x) if problem.p else None
    pinv_g = pinv_sym(problem.g(x)) if problem.p else None

    def q_of(d):
        val = float(d @ hess_L @ d)
        if problem.q:
            Hc = np.einsum("lij,l->ij", blocks.jac_F_Q, d)
            val -= _matrix_term_curvature(blocks, Hc, group_tol)
        if problem.p:
            G = apply_jac(jac_g, d)
            val += 2.0 * float(np.sum(multipliers.Gamma * (G @ pinv_g @ G)))
        return val

    return q_of


def _polarization_matrix(q_of, basis):
    k = basis.shape[1]
    diag = [q_of(basis[:, i]) for i in range(k)]
    M = np.zeros((k, k))
    for i in range(k):
        M[i, i] = diag[i]
        for j in range(i + 1, k):
            val = 0.5 * (q_of(basis[:, i] + basis[:, j]) - diag[i] - diag[j])
            M[i, j] = M[j, i] = val
    return M


# ----------------------------------------------------------------------------
# cases
# ----------------------------------------------------------------------------

def _bundled(name):
    return load_instance(os.path.join(INSTANCES, name + ".json"))


def _rotate_value_groups(blocks, rng):
    """Rotate the F basis inside every eigenvalue group of F(x).

    ``rotated_blocks`` (conftest) rotates only inside runs of equal
    eigenvalue *and* equal multiplier weight, where the multiplier block
    is a multiple of the identity, so its same-group blocks of Y_Q stay
    diagonal.  Rotating across the whole group makes them full, which
    exercises the off-diagonal multiplier entries of the curvature term.
    """
    q = blocks.values_F.size
    R = np.eye(q)
    for run in _value_groups(blocks, 1e-8):
        idx = list(run)
        R[np.ix_(idx, idx)], _ = np.linalg.qr(rng.randn(len(idx), len(idx)))
    return replace(
        blocks,
        basis_F=blocks.basis_F @ R,
        Y_Q=R.T @ blocks.Y_Q @ R,
        jac_F_Q=np.einsum("lij,ia,jb->lab", blocks.jac_F_Q, R, R),
    )


CASES = {
    **{name: (lambda name=name: _bundled(name), None)
       for name in BUNDLED},
    "full_nondegen": (lambda: make_full_blocks_instance("nondegen"), None),
    "full_degen": (lambda: make_full_blocks_instance("degen"), None),
    "full_nondegen_rotated": (
        lambda: make_full_blocks_instance("nondegen"), "runs"),
    "full_degen_rotated": (
        lambda: make_full_blocks_instance("degen"), "runs"),
    "full_nondegen_group_rotated": (
        lambda: make_full_blocks_instance("nondegen"), "groups"),
    "full_degen_group_rotated": (
        lambda: make_full_blocks_instance("degen"), "groups"),
    "full_nondegen_cross_group_Y": (
        lambda: make_full_blocks_instance("nondegen"), "cross_Y"),
    "mixed_quadratic": (lambda: make_mixed_instance(True), None),
    "generated_24": (
        lambda: generate_instance(24, 10, 3, 8, "nondegen", seed=7), None),
}


def _setup(case):
    build, variant = CASES[case]
    problem = build()
    ref = problem.reference
    x = np.asarray(ref.x, dtype=np.float64)
    rng = np.random.RandomState(3)
    if variant == "runs":
        blocks = rotated_blocks(problem, x, ref.multipliers, rng)
    else:
        blocks = cone_blocks(problem, x, ref.multipliers)
    basis = app_cone_basis(problem, x, ref.multipliers, blocks=blocks)
    if variant == "groups":
        blocks = _rotate_value_groups(blocks, rng)
    elif variant == "cross_Y":
        # a multiplier that is no subgradient has entries between
        # eigenvalue groups; the curvature term must read only the
        # same-group blocks
        noise = rng.randn(*blocks.Y_Q.shape)
        blocks = replace(blocks, Y_Q=blocks.Y_Q + noise + noise.T)
    q_of = _quadratic_probe(problem, x, ref.multipliers, blocks)
    M = _reduced_matrix(problem, x, ref.multipliers, blocks, basis)
    return blocks, basis, q_of, M


@pytest.mark.parametrize("case", sorted(CASES))
def test_matches_polarization_oracle(case):
    _, basis, q_of, M = _setup(case)
    assert basis.shape[1] > 0
    oracle = _polarization_matrix(q_of, basis)
    scale = max(1.0, float(np.abs(oracle).max()))
    np.testing.assert_allclose(M, oracle, rtol=0.0, atol=1e-12 * scale)
    np.testing.assert_array_equal(M, M.T)


@pytest.mark.parametrize("case", sorted(CASES))
def test_quadratic_form_matches_probe(case):
    _, basis, q_of, M = _setup(case)
    rng = np.random.RandomState(5)
    for _ in range(5):
        d = basis @ rng.randn(basis.shape[1])
        z = basis.T @ d
        expected = q_of(d)
        scale = max(abs(expected), float(np.abs(M).max()) * float(z @ z))
        assert abs(z @ M @ z - expected) <= 1e-12 * scale


@pytest.mark.parametrize("case", ["full_nondegen_rotated",
                                  "full_nondegen_group_rotated"])
def test_rotation_reaches_group_blocks(case):
    # the zero eigenvalue of F(0) has multiplicity 3 with distinct weights
    # (1, 0.3, -1): only the group rotation fills its multiplier block
    blocks, _, _, _ = _setup(case)
    zero = list(blocks.b_all)
    Y_kk = blocks.Y_Q[np.ix_(zero, zero)]
    off = np.abs(Y_kk[~np.eye(len(zero), dtype=bool)]).max()
    if case == "full_nondegen_group_rotated":
        assert off > 1e-2
    else:
        assert off < 1e-12


# ----------------------------------------------------------------------------
# psi_conjugate is the one-direction case of the nuclear curvature form
# ----------------------------------------------------------------------------

@pytest.mark.parametrize("case", list(BUNDLED) + ["generated_24"])
def test_psi_conjugate_is_quadratic_of_sigma_F(case):
    # critical directions d of the reduced subspace, filtered by
    # critical_member: the sigma term of F along
    # DF(x) d equals z^T Sigma_F z, and so do the closed-form oracles
    problem = CASES[case][0]()
    ref = problem.reference
    x = np.asarray(ref.x, dtype=np.float64)
    Y = ref.multipliers.Y
    blocks = cone_blocks(problem, x, ref.multipliers)
    basis = app_cone_basis(problem, x, ref.multipliers, blocks=blocks)
    J = np.tensordot(basis.T, blocks.jac_F_Q, axes=1)
    eig = EigenDecomposition(blocks.values_F, blocks.basis_F)
    sigma_F = curvature_form(eig, blocks.Y_Q, J)
    X, jac_F = problem.F(x), problem.jac_F(x)
    rng = np.random.RandomState(5)
    critical = 0
    for _ in range(50):
        d = basis @ rng.randn(basis.shape[1])
        d /= np.linalg.norm(d)
        if not critical_member(blocks, d, 1e-10):
            continue
        critical += 1
        z = basis.T @ d
        expected = float(z @ sigma_F @ z)
        H = apply_jac(jac_F, d)
        scale = max(abs(expected), float(np.abs(sigma_F).max()))
        for psi in (psi_conjugate, psi_full, psi_critical):
            assert abs(psi(X, H, Y) - expected) <= 1e-12 * scale
    assert critical >= 10
