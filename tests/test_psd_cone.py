"""PSD projection tests: closed-form oracles and finite differences."""

import numpy as np
import pytest

from sdnop.errors import InvalidInput
from sdnop.psd_cone import proj_bsub_element, proj_dir_deriv, project_psd
from sdnop.spectral import eig_sym


def rand_sym(rng, k, scale=1.0):
    A = rng.randn(k, k) * scale
    return 0.5 * (A + A.T)


def rand_sym_with_kernel(rng, k, rank_zero):
    """Random symmetric matrix with an eigenvalue of 0 of multiplicity rank_zero."""
    Q = np.linalg.qr(rng.randn(k, k))[0]
    vals = rng.randn(k) * 2.0
    vals[:rank_zero] = 0.0
    rng.shuffle(vals)
    return (Q * vals) @ Q.T


class TestProjection:
    def test_known_values(self):
        P, _ = project_psd(np.diag([2.0, -3.0]))
        np.testing.assert_allclose(P, np.diag([2.0, 0.0]), atol=1e-14)
        P, _ = project_psd(np.array([[0.0, 2.0], [2.0, 0.0]]))
        np.testing.assert_allclose(P, np.ones((2, 2)), atol=1e-12)

    def test_psd_fixed_point(self):
        rng = np.random.RandomState(20)
        for _ in range(20):
            A = rng.randn(4, 4)
            M = A @ A.T
            P, _ = project_psd(M)
            np.testing.assert_allclose(P, M, atol=1e-10)

    def test_variational_characterization(self):
        rng = np.random.RandomState(21)
        for _ in range(100):
            M = rand_sym(rng, rng.randint(2, 7))
            P, _ = project_psd(M)
            assert np.linalg.eigvalsh(P).min() >= -1e-10
            # residual M - P is orthogonal to P and has no positive part
            assert abs(np.sum(P * (P - M))) <= 1e-8
            assert np.linalg.eigvalsh(M - P).max() <= 1e-10

    def test_one_lipschitz(self):
        rng = np.random.RandomState(22)
        for _ in range(100):
            k = rng.randint(2, 6)
            M1, M2 = rand_sym(rng, k), rand_sym(rng, k)
            P1, _ = project_psd(M1)
            P2, _ = project_psd(M2)
            assert np.linalg.norm(P1 - P2) <= np.linalg.norm(M1 - M2) + 1e-12


class TestDirDeriv:
    def test_positive_definite_is_identity_map(self):
        rng = np.random.RandomState(23)
        M = np.eye(3) * 2.0
        H = rand_sym(rng, 3)
        np.testing.assert_allclose(proj_dir_deriv(M, H), H, atol=1e-12)

    def test_known_cross_block_damping(self):
        M = np.diag([1.0, -1.0])
        H = np.array([[0.0, 1.0], [1.0, 0.0]])
        np.testing.assert_allclose(
            proj_dir_deriv(M, H), [[0.0, 0.5], [0.5, 0.0]], atol=1e-12
        )

    def test_at_zero_is_projection(self):
        rng = np.random.RandomState(24)
        for _ in range(20):
            H = rand_sym(rng, 4)
            expected, _ = project_psd(H)
            np.testing.assert_allclose(proj_dir_deriv(np.zeros((4, 4)), H), expected, atol=1e-10)

    def test_positive_homogeneity(self):
        rng = np.random.RandomState(25)
        M = rand_sym_with_kernel(rng, 5, 2)
        H = rand_sym(rng, 5)
        D1 = proj_dir_deriv(M, H)
        D3 = proj_dir_deriv(M, 3.0 * H)
        np.testing.assert_allclose(D3, 3.0 * D1, atol=1e-10)

    def test_finite_difference_consistency(self):
        # one-sided differences converge linearly, including rank-deficient M
        rng = np.random.RandomState(26)
        for trial in range(30):
            k = rng.randint(2, 7)
            M = rand_sym_with_kernel(rng, k, rng.randint(0, k))
            H = rand_sym(rng, k)
            D = proj_dir_deriv(M, H)
            errs = []
            for t in (1e-4, 1e-5, 1e-6):
                fd = (project_psd(M + t * H)[0] - project_psd(M)[0]) / t
                errs.append(np.linalg.norm(fd - D))
            scale = 1.0 + np.linalg.norm(H) ** 2
            assert errs[2] <= 1e-4 * scale
            assert errs[0] <= 1e-2 * scale


class TestBsubElement:
    def test_known_value(self):
        W = proj_bsub_element(np.diag([1.0, 0.0, -1.0]), beta_choice="zero")
        np.testing.assert_allclose(W.apply(np.eye(3)), np.diag([1.0, 0.0, 0.0]), atol=1e-12)

    def test_identity_choice_at_zero(self):
        rng = np.random.RandomState(27)
        W = proj_bsub_element(np.zeros((3, 3)), beta_choice="identity")
        H = rand_sym(rng, 3)
        np.testing.assert_allclose(W.apply(H), H, atol=1e-12)

    def test_no_zero_block_matches_dir_deriv(self):
        rng = np.random.RandomState(28)
        M = np.diag([2.0, 1.0, -1.0])
        W = proj_bsub_element(M)
        for _ in range(10):
            H = rand_sym(rng, 3)
            np.testing.assert_allclose(W.apply(H), proj_dir_deriv(M, H), atol=1e-10)

    def test_projector_operator_properties(self):
        # self-adjoint, positive, and dominated by the identity
        rng = np.random.RandomState(29)
        for trial in range(30):
            k = rng.randint(2, 7)
            M = rand_sym_with_kernel(rng, k, rng.randint(0, k))
            nz = len(partition_zero(M))
            omega_raw = np.abs(rand_sym(rng, nz)) if nz else np.zeros((0, 0))
            omega = omega_raw / (1.0 + omega_raw.max(initial=0.0))
            choice = ("zero", "identity", omega)[trial % 3]
            W = proj_bsub_element(M, beta_choice=choice)
            for _ in range(20):
                d1, d2 = rand_sym(rng, k), rand_sym(rng, k)
                Wd1, Wd2 = W.apply(d1), W.apply(d2)
                assert abs(np.sum(Wd1 * d2) - np.sum(d1 * Wd2)) <= 1e-10
                assert np.sum(d1 * Wd1) >= -1e-10
                assert np.sum(Wd1 * (d1 - Wd1)) >= -1e-10

    def test_mismatched_direction_rejected(self):
        W = proj_bsub_element(np.diag([1.0, 0.0, -1.0]))
        with pytest.raises(InvalidInput, match=r"^H dimension does not "
                                               r"match the element's basis$"):
            W.apply(np.eye(2))

    def test_bad_omega_rejected(self):
        M = np.diag([1.0, 0.0, 0.0])
        with pytest.raises(InvalidInput):
            proj_bsub_element(M, beta_choice=np.array([[2.0, 0.0], [0.0, 0.0]]))
        with pytest.raises(InvalidInput):
            proj_bsub_element(M, beta_choice=np.zeros((3, 3)))
        with pytest.raises(InvalidInput):
            proj_bsub_element(M, beta_choice="median")


def partition_zero(M):
    eig = eig_sym(M)
    tol = 1e-8 * (1.0 + np.abs(eig.values).max())
    return [i for i, v in enumerate(eig.values) if abs(v) <= tol]
