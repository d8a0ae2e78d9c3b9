"""Nuclear-norm machinery tests.

Oracles: finite differences for every directional derivative, a local grid
search for the prox/envelope variational characterizations, and a sampled
maximization for the conjugate curvature term, which is also compared with
the closed forms kept in ``psi_oracles``.  The chain-rule directional
derivatives are compared with the blockwise forms kept in
``eval_oracles``.
"""

import numpy as np
import pytest

from sdnop.errors import DomainError, InvalidInput, NotASubgradient
from sdnop.nuclear import (
    critical_cone_theta_contains,
    critical_cone_theta_project,
    eig_dir_derivs,
    eig_second_dir_derivs,
    grad_env_bsub_element,
    grad_moreau_env,
    moreau_env,
    nuclear_norm,
    prox_bsub_element,
    prox_dir_deriv,
    prox_divided_diff,
    prox_nuclear,
    psi_conjugate,
    subdiff_contains,
    subdiff_partition,
    theta_dir_deriv,
    theta_second_dir_deriv,
)
from sdnop.spectral import eig_sym

import eval_oracles as blockwise
from psi_oracles import (
    critical_cone_equality_gap,
    psi_critical,
    psi_full,
    psi_interior_cross,
)

# psi_conjugate and the two closed-form oracles it replaced
PSI_FORMS = (psi_conjugate, psi_full, psi_critical)


def rand_sym(rng, k, scale=1.0):
    A = rng.randn(k, k) * scale
    return 0.5 * (A + A.T)


def rand_orth(rng, k):
    return np.linalg.qr(rng.randn(k, k))[0]


def make_subgradient_pair(rng, pos, zero, neg, w_mid=None):
    """Random (X, Y) with Y in the subdifferential at X and a chosen split."""
    k = pos + zero + neg
    Q = rand_orth(rng, k)
    lam = np.concatenate(
        [
            np.sort(rng.rand(pos) + 0.5)[::-1],
            np.zeros(zero),
            -np.sort(rng.rand(neg) + 0.5),
        ]
    )
    w = np.concatenate(
        [
            np.ones(pos),
            w_mid if w_mid is not None else rng.uniform(-0.8, 0.8, zero),
            -np.ones(neg),
        ]
    )
    X = (Q * lam) @ Q.T
    Y = (Q * w) @ Q.T
    return 0.5 * (X + X.T), 0.5 * (Y + Y.T)


def make_saturated_pair(rng):
    """:func:`make_subgradient_pair` with both saturated groups: w_mid
    holds one or two +1 and one or two -1 beside up to two interior
    weights, so complementarity is not strict in the nuclear block."""
    w_mid = rng.permutation(np.concatenate([
        np.ones(rng.randint(1, 3)), -np.ones(rng.randint(1, 3)),
        rng.uniform(-0.8, 0.8, rng.randint(0, 3))]))
    return make_subgradient_pair(rng, rng.randint(0, 3), w_mid.size,
                                 rng.randint(0, 3), w_mid=w_mid)


def structured_table_oracle(sp, tau):
    """Prox Jacobian table at X + tau Y from its subgradient structure, one
    eigenvalue pair at a time: quotients of the soft threshold, slopes on
    equal pairs, and 0 inside each saturated group."""
    q = sp.w.size
    vals = np.empty(q)
    kind = np.zeros(q, dtype=np.int8)
    for i in sp.partition.pos:
        vals[i] = sp.values[i] + tau
    for i in sp.partition.neg:
        vals[i] = sp.values[i] - tau
    for i in sp.partition.zero:
        vals[i] = tau * sp.w[i]
    for i in sp.b_up:
        vals[i] = tau
        kind[i] = 1
    for i in sp.b_low:
        vals[i] = -tau
        kind[i] = -1
    p = np.sign(vals) * np.maximum(np.abs(vals) - tau, 0.0)
    eps = 1e-12 * (1.0 + np.abs(vals).max(initial=0.0))
    T = np.zeros((q, q))
    for i in range(q):
        for j in range(i, q):
            if kind[i] != 0 and kind[i] == kind[j]:
                entry = 0.0
            elif abs(vals[i] - vals[j]) <= eps:
                entry = 1.0 if abs(vals[i]) > tau else 0.0
            else:
                entry = (p[i] - p[j]) / (vals[i] - vals[j])
            T[i, j] = T[j, i] = entry
    return T


class TestValue:
    def test_known_values(self):
        assert nuclear_norm(np.diag([1.0, -2.0])) == pytest.approx(3.0)
        assert nuclear_norm(np.zeros((3, 3))) == 0.0
        assert nuclear_norm(np.array([[0.0, 3.0], [3.0, 0.0]])) == pytest.approx(6.0)

    def test_rotation_invariance(self):
        rng = np.random.RandomState(40)
        X = rand_sym(rng, 5)
        R = rand_orth(rng, 5)
        assert nuclear_norm(R @ X @ R.T) == pytest.approx(nuclear_norm(X), abs=1e-10)


class TestDirDeriv:
    def test_known_diagonal(self):
        rng = np.random.RandomState(41)
        X = np.diag([1.0, 0.0, -1.0])
        for _ in range(20):
            h = rng.randn(3)
            got = theta_dir_deriv(X, np.diag(h))
            assert got == pytest.approx(h[0] + abs(h[1]) - h[2], abs=1e-12)

    def test_at_zero_is_nuclear_norm(self):
        rng = np.random.RandomState(42)
        H = rand_sym(rng, 4)
        assert theta_dir_deriv(np.zeros((4, 4)), H) == pytest.approx(
            nuclear_norm(H), abs=1e-12
        )

    def test_positive_definite_is_trace(self):
        rng = np.random.RandomState(43)
        H = rand_sym(rng, 3)
        assert theta_dir_deriv(2.0 * np.eye(3), H) == pytest.approx(
            np.trace(H), abs=1e-12
        )

    def test_finite_difference(self):
        rng = np.random.RandomState(44)
        for _ in range(30):
            zero = rng.randint(0, 3)
            X, _ = make_subgradient_pair(rng, rng.randint(1, 3), zero, rng.randint(1, 3))
            H = rand_sym(rng, X.shape[0])
            d = theta_dir_deriv(X, H)
            errs = []
            for t in (1e-3, 5e-4, 2.5e-4):
                errs.append(abs((nuclear_norm(X + t * H) - nuclear_norm(X)) / t - d))
            assert errs[2] <= errs[0] / 3.0 + 1e-12

    def test_homogeneity_and_subgradient_inequality(self):
        rng = np.random.RandomState(45)
        for _ in range(50):
            X, Y = make_subgradient_pair(rng, 1, 2, 1)
            H = rand_sym(rng, 4)
            d1 = theta_dir_deriv(X, H)
            assert theta_dir_deriv(X, 2.5 * H) == pytest.approx(2.5 * d1, abs=1e-10)
            assert d1 >= np.sum(Y * H) - 1e-10
            assert nuclear_norm(X + H) >= nuclear_norm(X) + np.sum(Y * H) - 1e-8


class TestSubdifferential:
    def test_known_member_and_partition(self):
        X = np.diag([1.0, 0.0])
        Y = np.diag([1.0, 0.5])
        assert subdiff_contains(X, Y)
        sp = subdiff_partition(X, Y)
        assert sp.b_mid == (1,) and sp.b_up == () and sp.b_low == ()
        np.testing.assert_allclose(sp.w, [1.0, 0.5], atol=1e-12)

    def test_positive_definite_unique_subgradient(self):
        X = np.diag([2.0, 1.0])
        assert subdiff_contains(X, np.eye(2))
        assert not subdiff_contains(X, np.diag([1.0, 0.9]))

    def test_zero_matrix_ball(self):
        rng = np.random.RandomState(46)
        for _ in range(20):
            Y = rand_sym(rng, 3)
            norm = np.abs(np.linalg.eigvalsh(Y)).max()
            assert subdiff_contains(np.zeros((3, 3)), Y / (norm + 0.1))
            assert not subdiff_contains(np.zeros((3, 3)), Y * (1.2 / norm))

    def test_partition_refines_basis(self):
        rng = np.random.RandomState(47)
        R = rand_orth(rng, 2)
        Yb = R @ np.diag([0.5, -0.2]) @ R.T
        X = np.diag([1.0, 0.0, 0.0])
        Y = np.zeros((3, 3))
        Y[0, 0] = 1.0
        Y[1:, 1:] = Yb
        sp = subdiff_partition(X, Y)
        np.testing.assert_allclose(sp.w, [1.0, 0.5, -0.2], atol=1e-12)
        # refined basis diagonalizes Y on the null block
        Yh = sp.basis.T @ Y @ sp.basis
        np.testing.assert_allclose(Yh, np.diag([1.0, 0.5, -0.2]), atol=1e-10)

    def test_saturated_split(self):
        X = np.diag([1.0, 0.0, 0.0, 0.0])
        Y = np.diag([1.0, 1.0, 0.3, -1.0])
        sp = subdiff_partition(X, Y)
        assert sp.b_up == (1,) and sp.b_mid == (2,) and sp.b_low == (3,)

    def test_rejects_nonmember(self):
        with pytest.raises(NotASubgradient):
            subdiff_partition(np.diag([1.0, 0.0]), np.diag([0.5, 0.0]))


class TestProx:
    def test_known_soft_threshold(self):
        X = prox_nuclear(np.diag([3.0, -0.5]), 1.0)
        np.testing.assert_allclose(X, np.diag([2.0, 0.0]), atol=1e-14)

    def test_small_matrices_map_to_zero(self):
        rng = np.random.RandomState(48)
        Z = rand_sym(rng, 3)
        Z *= 0.5 / np.abs(np.linalg.eigvalsh(Z)).max()
        X = prox_nuclear(Z, 1.0)
        np.testing.assert_allclose(X, 0.0, atol=1e-14)

    def test_structured_fixed_point(self):
        X0 = np.diag([1.0, 0.0, -2.0])
        Y0 = np.diag([1.0, 0.3, -1.0])
        X = prox_nuclear(X0 + 0.7 * Y0, 0.7)
        np.testing.assert_allclose(X, X0, atol=1e-12)

    def test_optimality_via_subdifferential(self):
        rng = np.random.RandomState(49)
        for _ in range(100):
            k = rng.randint(2, 6)
            Z = rand_sym(rng, k, scale=2.0)
            tau = rng.rand() + 0.1
            X = prox_nuclear(Z, tau)
            assert subdiff_contains(X, (Z - X) / tau)

    def test_local_grid_optimality(self):
        # no sampled perturbation beats the prox objective value
        rng = np.random.RandomState(50)
        Z = rand_sym(rng, 2, scale=2.0)
        tau = 0.8
        X = prox_nuclear(Z, tau)
        best = nuclear_norm(X) + np.sum((X - Z) ** 2) / (2.0 * tau)
        for _ in range(500):
            D = rand_sym(rng, 2) * 10.0 ** rng.uniform(-3, 0)
            val = nuclear_norm(X + D) + np.sum((X + D - Z) ** 2) / (2.0 * tau)
            assert val >= best - 1e-12

    def test_rejects_bad_tau(self):
        with pytest.raises(InvalidInput):
            prox_nuclear(np.eye(2), 0.0)
        with pytest.raises(InvalidInput):
            moreau_env(np.eye(2), -1.0)


class TestMoreau:
    def test_known_value(self):
        assert moreau_env(np.diag([3.0, -0.5]), 1.0) == pytest.approx(2.625, abs=1e-12)

    def test_small_ball_branch(self):
        rng = np.random.RandomState(51)
        Z = rand_sym(rng, 3)
        Z *= 0.4 / np.abs(np.linalg.eigvalsh(Z)).max()
        assert moreau_env(Z, 1.0) == pytest.approx(np.sum(Z * Z) / 2.0, abs=1e-12)
        np.testing.assert_allclose(grad_moreau_env(Z, 1.0), Z, atol=1e-12)

    def test_infimum_property(self):
        rng = np.random.RandomState(52)
        Z = rand_sym(rng, 3, scale=2.0)
        tau = 0.6
        env = moreau_env(Z, tau)
        X = prox_nuclear(Z, tau)
        attained = nuclear_norm(X) + np.sum((X - Z) ** 2) / (2.0 * tau)
        assert env == pytest.approx(attained, abs=1e-12)
        for _ in range(100):
            Zp = rand_sym(rng, 3, scale=2.0)
            assert env <= nuclear_norm(Zp) + np.sum((Zp - Z) ** 2) / (2.0 * tau) + 1e-12

    def test_gradient_at_structured_point(self):
        rng = np.random.RandomState(53)
        X0, Y0 = make_subgradient_pair(rng, 1, 1, 1)
        tau = 0.5
        np.testing.assert_allclose(grad_moreau_env(X0 + tau * Y0, tau), Y0, atol=1e-10)

    def test_gradient_finite_difference(self):
        rng = np.random.RandomState(54)
        checked = 0
        while checked < 20:
            Z = rand_sym(rng, 4, scale=2.0)
            tau = 0.7
            vals = np.linalg.eigvalsh(Z)
            if np.min(np.abs(np.abs(vals) - tau)) < 0.05:
                continue  # stay away from the threshold kinks
            G = grad_moreau_env(Z, tau)
            t = 1e-6
            fd = np.zeros_like(G)
            for i in range(4):
                for j in range(i, 4):
                    E = np.zeros((4, 4))
                    E[i, j] = E[j, i] = 1.0
                    fd_val = (moreau_env(Z + t * E, tau) - moreau_env(Z - t * E, tau)) / (2 * t)
                    fd[i, j] = fd[j, i] = fd_val / (1.0 if i == j else 2.0)
            np.testing.assert_allclose(G, fd, rtol=1e-6, atol=1e-8)
            checked += 1


class TestEigDerivs:
    def test_simple_eigenvalues(self):
        rng = np.random.RandomState(56)
        X = np.diag([3.0, 1.0, -2.0])
        H = rand_sym(rng, 3)
        np.testing.assert_allclose(eig_dir_derivs(X, H), np.diag(H), atol=1e-12)

    def test_known_multiplicity(self):
        H = np.array([[0.0, 1.0], [1.0, 0.0]])
        np.testing.assert_allclose(eig_dir_derivs(np.eye(2), H), [1.0, -1.0], atol=1e-12)

    def test_known_second_order_zero(self):
        lpp = eig_second_dir_derivs(np.diag([2.0, 0.0]), np.eye(2), np.zeros((2, 2)))
        np.testing.assert_allclose(lpp, [0.0, 0.0], atol=1e-12)

    def test_first_order_fd_with_multiplicity(self):
        rng = np.random.RandomState(57)
        for _ in range(20):
            Q = rand_orth(rng, 4)
            lam = np.array([2.0, 2.0, 0.0, -1.0])
            X = (Q * lam) @ Q.T
            H = rand_sym(rng, 4)
            d = eig_dir_derivs(X, H)
            errs = []
            for t in (1e-3, 5e-4, 2.5e-4):
                fd = (np.sort(np.linalg.eigvalsh(X + t * H))[::-1] - np.sort(lam)[::-1]) / t
                errs.append(np.abs(fd - d).max())
            assert errs[1] <= errs[0] / 1.9 + 1e-10
            assert errs[2] <= errs[1] / 1.9 + 1e-10

    def test_second_order_fd_with_multiplicity(self):
        rng = np.random.RandomState(58)
        for _ in range(20):
            Q = rand_orth(rng, 4)
            lam = np.array([1.5, 1.5, 1.5, -0.5])
            X = (Q * lam) @ Q.T
            H = rand_sym(rng, 4)
            W = rand_sym(rng, 4)
            d1 = eig_dir_derivs(X, H)
            d2 = eig_second_dir_derivs(X, H, W)
            errs = []
            for t in (1e-3, 5e-4, 2.5e-4):
                vals = np.sort(np.linalg.eigvalsh(X + t * H + 0.5 * t * t * W))[::-1]
                model = np.sort(lam)[::-1] + t * d1 + 0.5 * t * t * d2
                errs.append(np.abs(vals - model).max())
            assert errs[2] <= errs[0] / 10.0 + 1e-13


class TestThetaSecondDirDeriv:
    def fd_error(self, X, H, W, t):
        d1 = theta_dir_deriv(X, H)
        d2 = theta_second_dir_deriv(X, H, W)
        val = nuclear_norm(X + t * H + 0.5 * t * t * W)
        model = nuclear_norm(X) + t * d1 + 0.5 * t * t * d2
        return abs(val - model)

    def test_zero_direction(self):
        assert theta_second_dir_deriv(np.diag([1.0, -1.0]), np.zeros((2, 2)), np.zeros((2, 2))) == 0.0

    def test_positive_definite_is_trace_of_w(self):
        rng = np.random.RandomState(59)
        X = np.diag([2.0, 1.0])
        H, W = rand_sym(rng, 2), rand_sym(rng, 2)
        assert theta_second_dir_deriv(X, H, W) == pytest.approx(np.trace(W), abs=1e-10)

    def test_fd_no_zero_block(self):
        rng = np.random.RandomState(60)
        X = np.diag([1.0, -1.0])
        for _ in range(10):
            H, W = rand_sym(rng, 2), rand_sym(rng, 2)
            errs = [self.fd_error(X, H, W, t) for t in (1e-3, 5e-4, 2.5e-4)]
            assert errs[2] <= errs[0] / 10.0 + 1e-12

    def test_fd_with_zero_block_and_multiplicity(self):
        rng = np.random.RandomState(61)
        for _ in range(20):
            Q = rand_orth(rng, 5)
            lam = np.array([2.0, 2.0, 0.0, 0.0, -1.0])
            X = (Q * lam) @ Q.T
            H, W = rand_sym(rng, 5), rand_sym(rng, 5)
            errs = [self.fd_error(X, H, W, t) for t in (1e-3, 5e-4, 2.5e-4)]
            assert errs[2] <= errs[0] / 10.0 + 1e-12

    def test_rotation_invariance(self):
        rng = np.random.RandomState(62)
        Q = rand_orth(rng, 4)
        X = (Q * np.array([1.0, 1.0, 0.0, -2.0])) @ Q.T
        H, W = rand_sym(rng, 4), rand_sym(rng, 4)
        R = rand_orth(rng, 4)
        a = theta_second_dir_deriv(X, H, W)
        b = theta_second_dir_deriv(R @ X @ R.T, R @ H @ R.T, R @ W @ R.T)
        assert a == pytest.approx(b, abs=1e-8)


class TestProxDirDeriv:
    def test_one_sided_spectrum_is_identity(self):
        rng = np.random.RandomState(63)
        H = rand_sym(rng, 2)
        np.testing.assert_allclose(prox_dir_deriv(np.diag([5.0, 3.0]), 1.0, H), H, atol=1e-12)
        # a pair spanning the dead zone still feels the kink
        got = prox_dir_deriv(np.diag([5.0, -5.0]), 1.0, H)
        assert got[0, 1] == pytest.approx(0.8 * H[0, 1], abs=1e-12)

    def test_inside_dead_zone_is_zero(self):
        rng = np.random.RandomState(64)
        H = rand_sym(rng, 2)
        np.testing.assert_allclose(
            prox_dir_deriv(np.diag([0.5, -0.5]), 1.0, H), 0.0, atol=1e-14
        )

    def test_known_cross_multiplier(self):
        H = np.array([[0.0, 1.0], [1.0, 0.0]])
        got = prox_dir_deriv(np.diag([2.0, -2.0]), 1.0, H)
        np.testing.assert_allclose(got, [[0.0, 0.5], [0.5, 0.0]], atol=1e-12)

    def test_kink_block_uses_definite_part(self):
        # spectrum sitting exactly on the threshold
        Z = np.diag([1.0, 1.0])
        H = np.array([[1.0, 0.0], [0.0, -1.0]])
        got = prox_dir_deriv(Z, 1.0, H)
        np.testing.assert_allclose(got, np.diag([1.0, 0.0]), atol=1e-12)
        got = prox_dir_deriv(-Z, 1.0, H)
        np.testing.assert_allclose(got, np.diag([0.0, -1.0]), atol=1e-12)

    def test_one_sided_fd(self):
        rng = np.random.RandomState(65)
        for trial in range(30):
            k = rng.randint(2, 6)
            if trial % 3 == 0:
                X0, Y0 = make_subgradient_pair(rng, 1, k - 2 if k > 2 else 0, 1)
                Z = X0 + 0.9 * Y0
                tau = 0.9
            else:
                Z = rand_sym(rng, k, scale=2.0)
                tau = rng.rand() + 0.2
            H = rand_sym(rng, k)
            D = prox_dir_deriv(Z, tau, H)
            errs = []
            for t in (1e-4, 1e-5, 1e-6):
                fd = (prox_nuclear(Z + t * H, tau) - prox_nuclear(Z, tau)) / t
                errs.append(np.linalg.norm(fd - D))
            scale = 1.0 + np.linalg.norm(H) ** 2
            assert errs[2] <= 1e-3 * scale

    def test_divided_diff_flags_kinks(self):
        dd = prox_divided_diff(eig_sym(np.diag([1.0, 0.2, -1.0])), 1.0)
        signs = dict(dd.kink_blocks)
        assert set(signs.values()) == {1, -1}


class TestBsubElements:
    def test_no_zero_block_matches_dir_deriv(self):
        rng = np.random.RandomState(66)
        X0 = np.diag([1.5, -0.7])
        Y0 = np.diag([1.0, -1.0])
        tau = 0.4
        W = prox_bsub_element(X0, Y0, tau)
        for _ in range(10):
            H = rand_sym(rng, 2)
            np.testing.assert_allclose(
                W.apply(H), prox_dir_deriv(X0 + tau * Y0, tau, H), atol=1e-10
            )

    def test_zero_point_interior_choice(self):
        rng = np.random.RandomState(67)
        W = prox_bsub_element(np.zeros((3, 3)), np.zeros((3, 3)), 1.0)
        H = rand_sym(rng, 3)
        np.testing.assert_allclose(W.apply(H), 0.0, atol=1e-14)

    def test_structured_table_values(self):
        lam, w, tau = 1.3, 0.25, 0.6
        X = np.diag([lam, 0.0])
        Y = np.diag([1.0, w])
        W = prox_bsub_element(X, Y, tau)
        expected = lam / (lam + tau * (1.0 - w))
        assert W.table[0, 1] == pytest.approx(expected, abs=1e-12)
        assert W.table[0, 0] == 1.0
        assert W.table[1, 1] == 0.0

    def test_saturated_blocks_use_choices(self):
        X = np.diag([1.0, 0.0, 0.0])
        Y = np.diag([1.0, 1.0, -1.0])
        Wz = prox_bsub_element(X, Y, 0.5, up_choice="zero", low_choice="zero")
        Wi = prox_bsub_element(X, Y, 0.5, up_choice="identity", low_choice="identity")
        assert Wz.table[1, 1] == 0.0 and Wi.table[1, 1] == 1.0
        assert Wz.table[2, 2] == 0.0 and Wi.table[2, 2] == 1.0
        # off-diagonal structure is fixed regardless of the choice
        assert Wz.table[0, 1] == pytest.approx(1.0)
        assert Wz.table[1, 2] == 0.0

    def test_complement_identity(self):
        rng = np.random.RandomState(68)
        for _ in range(20):
            X0, Y0 = make_subgradient_pair(rng, 2, 2, 1)
            tau = rng.rand() + 0.2
            W = prox_bsub_element(X0, Y0, tau)
            V = grad_env_bsub_element(X0, Y0, tau)
            for _ in range(5):
                H = rand_sym(rng, 5)
                np.testing.assert_allclose(tau * V.apply(H) + W.apply(H), H, atol=1e-12)

    def test_multipliers_within_unit_interval(self):
        rng = np.random.RandomState(69)
        for _ in range(20):
            X0, Y0 = make_subgradient_pair(rng, 1, 3, 1)
            W = prox_bsub_element(X0, Y0, 0.8)
            assert W.table.min() >= -1e-14
            assert W.table.max() <= 1.0 + 1e-14

    def test_self_adjoint(self):
        rng = np.random.RandomState(70)
        X0, Y0 = make_subgradient_pair(rng, 1, 2, 1)
        W = prox_bsub_element(X0, Y0, 0.7)
        for _ in range(10):
            d1, d2 = rand_sym(rng, 4), rand_sym(rng, 4)
            assert abs(np.sum(W.apply(d1) * d2) - np.sum(d1 * W.apply(d2))) <= 1e-10

    def test_rejects_nonmember(self):
        with pytest.raises(NotASubgradient):
            prox_bsub_element(np.diag([1.0, 0.0]), np.diag([0.2, 0.0]), 1.0)

    def test_rejects_bad_choice(self):
        X = np.diag([1.0, 0.0])
        Y = np.diag([1.0, 1.0])
        with pytest.raises(InvalidInput):
            prox_bsub_element(X, Y, 1.0, up_choice="other")
        with pytest.raises(InvalidInput):
            prox_bsub_element(X, Y, 1.0, up_choice=np.array([[1.5]]))

    def test_table_matches_pairwise_oracle(self):
        # random sign splits, saturated null rows and repeated eigenvalues;
        # off the two saturated blocks the table is the pairwise soft
        # threshold quotient, on them exactly the committed choice
        rng = np.random.RandomState(72)
        saturated = repeated = 0
        for _ in range(400):
            pos, zero, neg = (rng.randint(0, 4) for _ in range(3))
            if pos + zero + neg == 0:
                continue
            gaps = rng.uniform(0.05, 0.5, pos + neg)
            if pos > 1 and rng.rand() < 0.3:
                gaps[1] = 0.0  # a repeated positive eigenvalue
                repeated += 1
            lam = np.concatenate([
                0.2 + np.cumsum(gaps[:pos])[::-1],
                np.zeros(zero),
                -0.2 - np.cumsum(gaps[pos:]),
            ])
            w_mid = rng.uniform(-0.9, 0.9, zero)
            w_mid[rng.rand(zero) < 0.25] = 1.0
            w_mid[rng.rand(zero) < 0.25] = -1.0
            if zero and rng.rand() < 0.3:
                w_mid[0] = 1.0 - 1e-5  # interior, 1e-5 tau below the kink
            w_mid = np.sort(w_mid)[::-1]
            w = np.concatenate([np.ones(pos), w_mid, -np.ones(neg)])
            Q = rand_orth(rng, lam.size)
            X = (Q * lam) @ Q.T
            Y = (Q * w) @ Q.T
            tau = 10.0 ** rng.uniform(-3.0, 1.0)
            sp = subdiff_partition(X, Y)
            up, low = list(sp.b_up), list(sp.b_low)
            saturated += bool(up or low)
            up_t = rng.rand(len(up), len(up))
            low_t = rng.rand(len(low), len(low))
            up_t, low_t = 0.5 * (up_t + up_t.T), 0.5 * (low_t + low_t.T)
            W = prox_bsub_element(X, Y, tau, up_choice=up_t, low_choice=low_t)
            ref = structured_table_oracle(sp, tau)
            off = np.ones(ref.shape, dtype=bool)
            off[np.ix_(up, up)] = off[np.ix_(low, low)] = False
            np.testing.assert_allclose(W.table[off], ref[off], rtol=0,
                                       atol=1e-14)
            assert np.array_equal(W.table[np.ix_(up, up)], up_t)
            assert np.array_equal(W.table[np.ix_(low, low)], low_t)
        assert saturated > 100 and repeated > 20


class TestCriticalCone:
    def test_no_zero_block_everything_critical(self):
        rng = np.random.RandomState(71)
        X = np.diag([1.0, -1.0])
        Y = np.diag([1.0, -1.0])
        assert critical_cone_theta_contains(X, Y, rand_sym(rng, 2))

    def test_known_saturated_example(self):
        X = np.diag([1.0, 0.0])
        Y = np.diag([1.0, 1.0])
        assert critical_cone_theta_contains(X, Y, np.diag([0.0, 1.0]))
        assert not critical_cone_theta_contains(X, Y, np.diag([0.0, -1.0]))

    @staticmethod
    def _cross_check(X, Y, H):
        """Membership of H, checked against the equality characterization
        (a zero gap in the cone, a positive one outside it)."""
        member = critical_cone_theta_contains(X, Y, H)
        gap = critical_cone_equality_gap(X, Y, H)
        if member:
            assert abs(gap) <= 1e-6 * (1.0 + np.abs(H).max())
        else:
            assert gap > 0.0
        return member

    def test_equality_characterization_cross_check(self):
        rng = np.random.RandomState(72)
        members = []
        for _ in range(500):
            pos = rng.randint(0, 3)
            zero = rng.randint(1, 4)
            neg = rng.randint(0, 3)
            if pos + neg == 0:
                pos = 1
            X, Y = make_subgradient_pair(rng, pos, zero, neg)
            H = rand_sym(rng, pos + zero + neg)
            if rng.rand() < 0.5:
                H = critical_cone_theta_project(X, Y, H)
            members.append(self._cross_check(X, Y, H))
        # both saturated groups: the up-low coupling and the signs of the
        # two saturated blocks decide membership too.  A third of the
        # directions are projected, a third projected and then pushed out
        # of the cone by a definite bump on one saturated block alone
        rng = np.random.RandomState(74)
        saturated = []
        for _ in range(300):
            X, Y = make_saturated_pair(rng)
            H = rand_sym(rng, X.shape[0])
            kind = rng.randint(3)
            if kind:
                H = critical_cone_theta_project(X, Y, H)
            if kind == 2:
                sp = subdiff_partition(X, Y)
                idx, sign = ((sp.b_low, 1.0) if rng.rand() < 0.5
                             else (sp.b_up, -1.0))
                B = sp.basis[:, list(idx)]
                H = H + sign * (1.0 + np.linalg.norm(H)) * (B @ B.T)
            saturated.append(self._cross_check(X, Y, H))
        for found in (members, saturated):
            assert 50 < sum(found) < len(found) - 50

    def test_projection_lands_in_cone(self):
        # the second set has both saturated groups, whose coupling the
        # projection zeroes
        for seed, draw in ((73, lambda rng: make_subgradient_pair(
                rng, 1, rng.randint(1, 3), 1)), (75, make_saturated_pair)):
            rng = np.random.RandomState(seed)
            for _ in range(100):
                X, Y = draw(rng)
                H = rand_sym(rng, X.shape[0])
                P = critical_cone_theta_project(X, Y, H)
                assert critical_cone_theta_contains(X, Y, P)
                # projection is idempotent
                np.testing.assert_allclose(critical_cone_theta_project(X, Y, P), P, atol=1e-10)


class TestPsiConjugate:
    def theta_spp(self, X, H, W):
        return theta_second_dir_deriv(X, H, W)

    def test_worked_example_all_forms(self):
        X = np.diag([2.0, 0.0])
        Y = np.diag([1.0, 0.0])
        H = np.array([[0.0, 1.0], [1.0, 0.0]])
        for psi in PSI_FORMS:
            assert psi(X, H, Y) == pytest.approx(-1.0, abs=1e-10)

    def test_nonsingular_case(self):
        X = np.diag([1.0, -1.0])
        Y = np.diag([1.0, -1.0])
        H = np.array([[0.0, 1.0], [1.0, 0.0]])
        for psi in PSI_FORMS:
            assert psi(X, H, Y) == pytest.approx(-2.0, abs=1e-10)

    def test_saturated_example_all_forms(self):
        # hand-computed value with one saturated and one interior null row
        X = np.diag([1.0, 0.0, 0.0])
        Y = np.diag([1.0, 1.0, 0.3])
        H = np.array([[0.1, 0.5, 0.7], [0.5, 0.8, 0.0], [0.7, 0.0, 0.0]])
        for psi in PSI_FORMS:
            assert psi(X, H, Y) == pytest.approx(-0.686, abs=1e-10)

    def test_rotation_invariance(self):
        rng = np.random.RandomState(78)
        X, Y = make_subgradient_pair(rng, 1, 2, 1)
        H = critical_cone_theta_project(X, Y, rand_sym(rng, 4))
        R = rand_orth(rng, 4)
        a = psi_conjugate(X, H, Y)
        b = psi_conjugate(R @ X @ R.T, R @ H @ R.T, R @ Y @ R.T)
        assert a == pytest.approx(b, abs=1e-8)

    def test_zero_direction(self):
        X = np.diag([1.0, 0.0])
        Y = np.diag([1.0, 0.3])
        assert psi_conjugate(X, np.zeros((2, 2)), Y) == 0.0

    def test_sampled_sup_oracle_2x2(self):
        # the conjugate's defining maximization over a sampled direction grid
        rng = np.random.RandomState(74)
        X = np.diag([2.0, 0.0])
        Y = np.diag([1.0, 0.0])
        H = np.array([[0.0, 1.0], [1.0, 0.0]])
        val = psi_conjugate(X, H, Y)
        best = -np.inf
        for _ in range(2000):
            W = rand_sym(rng, 2, scale=3.0)
            best = max(best, np.sum(Y * W) - self.theta_spp(X, H, W))
        W_star = np.diag([0.0, 1.0])
        best = max(best, np.sum(Y * W_star) - self.theta_spp(X, H, W_star))
        assert best <= val + 1e-8
        assert best >= val - 1e-8  # the structured probe attains the value

    def test_sampled_sup_oracle_random_3x3(self):
        rng = np.random.RandomState(75)
        for _ in range(5):
            X, Y = make_subgradient_pair(rng, 1, 1, 1)
            H = critical_cone_theta_project(X, Y, rand_sym(rng, 3))
            val = psi_conjugate(X, H, Y)
            best = -np.inf
            for _ in range(3000):
                W = rand_sym(rng, 3, scale=4.0)
                best = max(best, np.sum(Y * W) - self.theta_spp(X, H, W))
            assert best <= val + 1e-7

    def test_forms_agree_on_random_critical_data(self):
        rng = np.random.RandomState(76)
        for _ in range(100):
            pos = rng.randint(1, 3)
            zero = rng.randint(0, 3)
            neg = rng.randint(1, 3)
            X, Y = make_subgradient_pair(rng, pos, zero, neg)
            H = critical_cone_theta_project(X, Y, rand_sym(rng, pos + zero + neg))
            a = psi_full(X, H, Y)
            b = psi_critical(X, H, Y)
            c = psi_conjugate(X, H, Y)
            assert a == pytest.approx(b, abs=1e-8)
            assert a == pytest.approx(c, abs=1e-8)
            assert a <= 1e-10  # the conjugate is nonpositive on its domain

    def test_interior_cross_shortcut(self):
        rng = np.random.RandomState(77)
        for _ in range(50):
            X, Y = make_subgradient_pair(rng, 1, 2, 1)
            sp = subdiff_partition(X, Y)
            # couple only the interior null rows to the nonzero blocks
            Hh = np.zeros((4, 4))
            for i in sp.b_mid:
                for j in list(sp.partition.pos) + list(sp.partition.neg):
                    Hh[i, j] = Hh[j, i] = rng.randn()
            H = sp.basis @ Hh @ sp.basis.T
            a = psi_conjugate(X, H, Y)
            b = psi_interior_cross(X, H, Y)
            assert a == pytest.approx(b, abs=1e-9)

    def test_domain_violation_raises(self):
        X = np.diag([2.0, 0.0])
        H = np.array([[0.0, 1.0], [1.0, 0.0]])
        bad_Y = np.diag([0.5, 0.0])  # not identity on the positive block
        with pytest.raises(DomainError) as exc:
            psi_conjugate(X, H, bad_Y)
        assert exc.value.condition == "subgradient"
        assert exc.value.violation == pytest.approx(0.5)
        with pytest.raises(DomainError) as exc:
            psi_full(X, H, bad_Y)
        assert exc.value.condition == "positive_block_identity"

    def test_noncritical_direction_raises(self):
        X = np.diag([1.0, 0.0, 0.0])
        Y = np.diag([1.0, 0.2, 0.2])
        H = np.zeros((3, 3))
        H[1, 2] = H[2, 1] = 1.0  # interior rows couple inside the null block
        with pytest.raises(DomainError) as exc:
            psi_conjugate(X, H, Y)
        assert exc.value.condition == "critical_cone"


def chain_rule_case(rng):
    """X with repeated eigenvalues and a null block of size 0 to 3, and
    directions H, W.  Half the time H's compression to the null block is
    rank deficient, or zero, so that some first derivatives there vanish
    and the |l''| branch of the chain rule runs.  Returns the number of
    zeros of X too."""
    levels = rng.choice([-2.0, -0.7, 0.4, 1.3, 2.5], size=rng.randint(1, 4),
                        replace=False)
    nonzero = np.repeat(levels, rng.randint(1, 3, size=levels.size))
    zero = rng.randint(0, 4)
    lam = np.concatenate([nonzero, np.zeros(zero)])
    dim = lam.size
    Q = rand_orth(rng, dim)
    X = (Q * lam) @ Q.T
    M = rand_sym(rng, dim)
    if zero and rng.rand() < 0.5:
        null = slice(dim - zero, dim)
        v = rng.randn(zero)
        M[null, null] = np.outer(v, v) * rng.randint(0, 2)
    H = Q @ M @ Q.T
    return 0.5 * (X + X.T), 0.5 * (H + H.T), rand_sym(rng, dim), zero


class TestChainRule:
    def test_theta_derivs_match_blockwise_forms(self):
        rng = np.random.RandomState(73)
        vanishing = 0
        for _ in range(1500):
            X, H, W, zero = chain_rule_case(rng)
            np.testing.assert_allclose(
                theta_dir_deriv(X, H), blockwise.theta_dir_deriv(X, H),
                rtol=1e-12, atol=1e-12)
            np.testing.assert_allclose(
                theta_second_dir_deriv(X, H, W),
                blockwise.theta_second_dir_deriv(X, H, W),
                rtol=1e-12, atol=1e-12)
            if zero:
                eig = eig_sym(X)
                Qb = eig.basis[:, np.abs(eig.values) <= 1e-8]
                first = np.linalg.eigvalsh(Qb.T @ H @ Qb)
                vanishing += bool(np.abs(first).min() <= 1e-8)
        assert vanishing > 400

    def test_eig_derivs_match_blockwise_forms(self):
        rng = np.random.RandomState(74)
        for _ in range(500):
            X, H, W, _ = chain_rule_case(rng)
            np.testing.assert_allclose(eig_dir_derivs(X, H),
                                       blockwise.eig_dir_derivs(X, H),
                                       rtol=1e-14, atol=1e-14)
            np.testing.assert_allclose(eig_second_dir_derivs(X, H, W),
                                       blockwise.eig_second_dir_derivs(X, H, W),
                                       rtol=1e-14, atol=1e-14)


class TestDirectionShape:
    # a direction of the wrong size is named in an InvalidInput, never a
    # matmul ValueError
    X = np.diag([1.0, 0.0, -1.0])
    Y = np.diag([1.0, 0.5, -1.0])
    S = np.eye(3)
    BAD = np.eye(2)

    @pytest.mark.parametrize("call, name", [
        pytest.param(lambda c: theta_dir_deriv(c.X, c.BAD), "H",
                     id="theta_dir_deriv"),
        pytest.param(lambda c: eig_dir_derivs(c.X, c.BAD), "H",
                     id="eig_dir_derivs"),
        pytest.param(lambda c: eig_second_dir_derivs(c.X, c.S, c.BAD), "W",
                     id="eig_second_dir_derivs"),
        pytest.param(lambda c: theta_second_dir_deriv(c.X, c.BAD, c.S), "H",
                     id="theta_second_dir_deriv"),
        pytest.param(lambda c: critical_cone_theta_project(c.X, c.Y, c.BAD),
                     "H", id="critical_cone_theta_project"),
        pytest.param(lambda c: critical_cone_theta_contains(c.X, c.Y, c.BAD),
                     "H", id="critical_cone_theta_contains"),
        pytest.param(lambda c: psi_conjugate(c.X, c.BAD, c.Y), "H",
                     id="psi_conjugate"),
    ])
    def test_direction_at_x(self, call, name):
        with pytest.raises(InvalidInput,
                           match=rf"^{name} dimension does not match X$"):
            call(self)

    @pytest.mark.parametrize("call", [
        pytest.param(lambda X, Y, H: psi_conjugate(X, H, Y),
                     id="psi_conjugate"),
        pytest.param(critical_cone_theta_contains,
                     id="critical_cone_theta_contains"),
        pytest.param(critical_cone_theta_project,
                     id="critical_cone_theta_project"),
    ])
    def test_direction_checked_before_subgradient_test(self, call):
        # Y is no subgradient at X (3 on the positive row), so a test of
        # Y ahead of H's size would raise DomainError or NotASubgradient
        Y = np.diag([3.0, 0.0, -1.0])
        with pytest.raises(InvalidInput,
                           match=r"^H dimension does not match X$"):
            call(self.X, Y, self.BAD)

    def test_prox_dir_deriv(self):
        with pytest.raises(InvalidInput,
                           match=r"^H dimension does not match Z$"):
            prox_dir_deriv(self.X, 0.5, self.BAD)

    @pytest.mark.parametrize("element", [prox_bsub_element,
                                         grad_env_bsub_element])
    def test_element_apply(self, element):
        W = element(self.X, self.Y, 0.5)
        with pytest.raises(InvalidInput, match=r"^H dimension does not "
                                               r"match the element's basis$"):
            W.apply(self.BAD)
