"""Tests for the reference-point verification tools."""

import math
import os

import numpy as np
import pytest

from sdnop.diagnostics import (
    app_cone_basis,
    cone_blocks,
    kappa0_constant,
    nondegeneracy_check,
    rate_constants,
    rate_sweep,
    sosc_reduced_matrix,
    strong_sosc_check,
    _ACTIVE_FAMILIES,
    _active_rows,
    _curvature_model,
    _family_rows,
    _nu_tables,
    _psd_curvature_matrix,
    _reduced_matrix,
    _sigma_nu_at,
)
from sdnop.errors import (
    InvalidInput,
    NotAKKTPoint,
)
from sdnop.generator import generate_instance
from sdnop.nuclear import subdiff_partition
from sdnop.problem import (
    KKTPoint,
    MultiplierTriple,
    QuadraticMatrixMap,
    QuadraticProblem,
    instance_from_dict,
    instance_to_dict,
    load_instance,
)
from sdnop.spectral import eig_sym, partition_by_sign, pinv_sym, svec
from conftest import (
    REPEATED_SPECTRA,
    make_full_blocks_instance,
    make_mixed_instance,
    make_repeated_blocks_instance,
    make_repeated_eigenvalue_instance,
    make_weighted_zero_instance,
    rotated_blocks,
)
from eval_oracles import apply_jac, newton_element_einsum


# ----------------------------------------------------------------------------
# small purpose-built instances
# ----------------------------------------------------------------------------

def make_strict_complementary_instance():
    """No equality rows, F(0) nonsingular, g(0) positive definite, Gamma=0.

    Every active index class is empty, so the block matrix has zero rows
    and the reduced subspace is all of R^n.
    """
    n = 2
    rng = np.random.RandomState(3)
    F0 = np.diag([1.5, -1.0])
    F_Ai = np.zeros((n, 2, 2))
    for l in range(n):
        Z = rng.randn(2, 2)
        F_Ai[l] = 0.3 * (Z + Z.T)
    G0 = np.diag([0.5, 0.9])
    g_Ai = np.zeros((n, 2, 2))
    for l in range(n):
        Z = rng.randn(2, 2)
        g_Ai[l] = 0.3 * (Z + Z.T)
    Ybar = np.diag([1.0, -1.0])
    f_b = -np.einsum("lij,ij->l", F_Ai, Ybar)
    reference = KKTPoint(
        np.zeros(n),
        MultiplierTriple(Ybar, np.zeros(0), np.zeros((2, 2))),
    )
    return QuadraticProblem(
        0.0, f_b, np.eye(n),
        QuadraticMatrixMap(F0, F_Ai),
        np.zeros((0, n)), np.zeros(0),
        QuadraticMatrixMap(G0, g_Ai),
        reference=reference,
    )


def make_diagonal_g_instance():
    """Dg maps the l-th coordinate to E_ll, with a diagonal gap matrix."""
    n = 3
    G0 = np.diag([0.0, 0.0, 1.0])
    g_Ai = np.zeros((n, 3, 3))
    for l in range(n):
        g_Ai[l, l, l] = 1.0
    Gbar = np.diag([0.8, 0.0, 0.0])
    f_b = np.einsum("lij,ij->l", g_Ai, Gbar)
    reference = KKTPoint(
        np.zeros(n), MultiplierTriple(np.zeros((0, 0)), np.zeros(0), Gbar))
    return QuadraticProblem(
        0.0, f_b, np.eye(n),
        None,
        np.zeros((0, n)), np.zeros(0),
        QuadraticMatrixMap(G0, g_Ai),
        reference=reference,
    )


def make_wide_zero_block_instance():
    """One primal coordinate against a 2x2 interior zero block of F."""
    n = 1
    F0 = np.zeros((2, 2))
    F_Ai = np.zeros((n, 2, 2))
    F_Ai[0] = np.array([[0.4, 0.1], [0.1, -0.3]])
    Ybar = np.diag([0.5, -0.5])
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


def make_full_rank_equality_instance():
    """h with square invertible jacobian, no matrix constraints."""
    n = 2
    h_A = np.eye(n)
    f_b = np.array([0.3, -0.7])
    mubar = -f_b
    reference = KKTPoint(
        np.zeros(n), MultiplierTriple(np.zeros((0, 0)), mubar,
                                      np.zeros((0, 0))))
    return QuadraticProblem(
        0.0, f_b, np.eye(n), None, h_A, np.zeros(n), None,
        reference=reference,
    )


# ----------------------------------------------------------------------------
# eigen-structure assembly
# ----------------------------------------------------------------------------

class TestConeBlocks:
    def test_index_classes_on_full_instance(self):
        prob = make_full_blocks_instance()
        ref = prob.reference
        b = cone_blocks(prob, ref.x, ref.multipliers)
        assert b.a == (0,)
        assert b.b_up == (1,)
        assert b.b_mid == (2,)
        assert b.b_low == (3,)
        assert b.c_neg == (4,)
        assert b.alpha == (0,)
        assert b.beta == (1,)
        assert b.gamma == (2,)
        assert not b.multiplicity

    def test_bases_diagonalize(self):
        prob = make_full_blocks_instance()
        ref = prob.reference
        b = cone_blocks(prob, ref.x, ref.multipliers)
        Fh = b.basis_F.T @ prob.F(ref.x) @ b.basis_F
        np.testing.assert_allclose(Fh, np.diag(b.values_F), atol=1e-12)
        M = ref.multipliers.Gamma - prob.g(ref.x)
        Mh = b.basis_M.T @ M @ b.basis_M
        np.testing.assert_allclose(Mh, np.diag(b.values_M), atol=1e-12)

    def test_compressed_jacobian_matches_direct(self):
        prob = make_full_blocks_instance()
        ref = prob.reference
        b = cone_blocks(prob, ref.x, ref.multipliers)
        jac = prob.jac_F(ref.x)
        for l in (0, 5, 11):
            direct = b.basis_F.T @ jac[l] @ b.basis_F
            np.testing.assert_allclose(b.jac_F_Q[l], direct, atol=1e-13)

    def test_dimension_mismatch_rejected(self):
        prob = make_full_blocks_instance()
        ref = prob.reference
        bad = MultiplierTriple(ref.multipliers.Y, np.zeros(3),
                               ref.multipliers.Gamma)
        with pytest.raises(InvalidInput):
            cone_blocks(prob, ref.x, bad)

    def test_rotations_preserve_diagonalization(self):
        prob = make_repeated_eigenvalue_instance()
        ref = prob.reference
        rng = np.random.RandomState(0)
        b = rotated_blocks(prob, ref.x, ref.multipliers, rng)
        assert b.multiplicity
        Fh = b.basis_F.T @ prob.F(ref.x) @ b.basis_F
        np.testing.assert_allclose(Fh, np.diag(b.values_F), atol=1e-12)
        np.testing.assert_allclose(b.basis_F.T @ b.basis_F, np.eye(3),
                                   atol=1e-12)


# ----------------------------------------------------------------------------
# active-block matrix and nondegeneracy
# ----------------------------------------------------------------------------

class TestBuildAQP:
    def test_constant_maps_give_zero_matrix(self):
        n = 3
        F0 = np.diag([1.5, -1.0])
        Ybar = np.diag([1.0, -1.0])
        G0 = np.diag([0.0, 0.7])
        Gbar = np.diag([0.4, 0.0])
        reference = KKTPoint(
            np.zeros(n), MultiplierTriple(Ybar, np.array([0.0]), Gbar))
        prob = QuadraticProblem(
            0.0, np.zeros(n), np.eye(n),
            QuadraticMatrixMap(F0, np.zeros((n, 2, 2))),
            np.zeros((1, n)), np.zeros(1),
            QuadraticMatrixMap(G0, np.zeros((n, 2, 2))),
            reference=reference,
        )
        A = _active_rows(
            cone_blocks(prob, reference.x, reference.multipliers))[0]
        # m = 1, b empty, alpha = {0}, beta empty
        assert A.shape == (2, n)
        np.testing.assert_array_equal(A, np.zeros_like(A))

    def test_row_counts_match_formulas(self):
        prob = make_full_blocks_instance()
        ref = prob.reference
        b = cone_blocks(prob, ref.x, ref.multipliers)
        A = _active_rows(b)[0]
        # m = 1, |b| = 3, |alpha| + |beta| = 2
        nb, nab = len(b.b_all), len(b.alpha) + len(b.beta)
        assert (prob.m, nb, nab) == (1, 3, 2)
        n_F = sum(_family_rows(b, which, rows, cols).shape[0]
                  for which, rows, cols, _ in _ACTIVE_FAMILIES if which == "F")
        assert prob.m + n_F == 1 + 6 == prob.m + nb * (nb + 1) // 2
        assert A.shape[0] == 1 + 6 + 3 == prob.m + n_F + nab * (nab + 1) // 2
        assert A.shape == (10, prob.n)

    def test_diagonal_g_rows_are_svec_blocks(self):
        prob = make_diagonal_g_instance()
        ref = prob.reference
        blocks = cone_blocks(prob, ref.x, ref.multipliers)
        A = _active_rows(blocks)[0]
        # alpha = {0}, beta = {1}: rows are -svec of the compressed blocks
        jac = prob.jac_g(ref.x)
        al, bt = list(blocks.alpha), list(blocks.beta)
        for l in range(prob.n):
            comp = blocks.basis_M.T @ jac[l] @ blocks.basis_M
            np.testing.assert_allclose(
                A[0, l], -svec(comp[np.ix_(al, al)])[0], atol=1e-12)
            np.testing.assert_allclose(
                A[1, l], -svec(comp[np.ix_(bt, bt)])[0], atol=1e-12)


class TestNondegeneracy:
    def test_constructed_instance_holds(self):
        prob = make_full_blocks_instance()
        ref = prob.reference
        rep = nondegeneracy_check(prob, ref.x, ref.multipliers)
        assert rep.holds
        assert rep.sigma_min > 1e-6
        assert rep.sigma_max >= rep.sigma_min
        assert rep.rows == 10
        assert not rep.spectrum_multiplicity

    def test_duplicate_equality_row_fails(self):
        prob = make_full_blocks_instance("degen")
        ref = prob.reference
        rep = nondegeneracy_check(prob, ref.x, ref.multipliers)
        assert not rep.holds
        assert rep.sigma_min < 1e-10

    def test_zero_rows_hold_vacuously(self):
        prob = make_strict_complementary_instance()
        ref = prob.reference
        rep = nondegeneracy_check(prob, ref.x, ref.multipliers)
        assert rep.holds
        assert rep.rows == 0
        assert rep.sigma_min == math.inf

    def test_more_rows_than_columns_fails(self):
        prob = make_wide_zero_block_instance()
        ref = prob.reference
        rep = nondegeneracy_check(prob, ref.x, ref.multipliers)
        assert not rep.holds
        assert rep.rows == 3
        assert rep.sigma_min == 0.0

    def test_unique_multiplier_recovery(self):
        # with a full-row-rank block matrix the stationarity system in the
        # multiplier parameters has a unique least-squares solution, and it
        # reproduces the reference triple
        prob = make_full_blocks_instance()
        ref = prob.reference
        x = np.asarray(ref.x, dtype=np.float64)
        blocks = cone_blocks(prob, x, ref.multipliers)
        A = _active_rows(blocks)[0]
        Q, P = blocks.basis_F, blocks.basis_M
        fixed = np.zeros(prob.q)
        fixed[list(blocks.a)] = 1.0
        fixed[list(blocks.c_neg)] = -1.0
        Y_fixed = Q @ np.diag(fixed) @ Q.T
        rhs = -(prob.grad_f(x)
                + np.einsum("lij,ij->l", prob.jac_F(x), Y_fixed))
        theta, *_ = np.linalg.lstsq(A.T, rhs, rcond=None)
        m = prob.m
        mu_rec = theta[:m]
        # zero-block parameters in the row order of the matrix
        bu, bs, bl = blocks.b_up, blocks.b_mid, blocks.b_low
        al, be = blocks.alpha, blocks.beta
        Yhat = np.diag(fixed.copy())
        Ghat = np.zeros((prob.p, prob.p))
        pos = m

        def take(k):
            nonlocal pos
            out = theta[pos:pos + k]
            pos += k
            return out

        def fill_diag(H, rows, vals):
            k = len(rows)
            idx = 0
            for j in range(k):
                for i in range(j):
                    H[rows[i], rows[j]] = H[rows[j], rows[i]] = \
                        vals[idx] / math.sqrt(2.0)
                    idx += 1
                H[rows[j], rows[j]] = vals[idx]
                idx += 1

        def fill_rect(H, rows, cols, vals):
            # vec rows carry the rectangle twice in the pairing, so the
            # recovered parameters are twice the entries
            V = vals.reshape(len(cols), len(rows)).T / 2.0
            for i, r in enumerate(rows):
                for j, s in enumerate(cols):
                    H[r, s] = H[s, r] = V[i, j]

        fill_diag(Yhat, bu, take(len(bu) * (len(bu) + 1) // 2))
        fill_rect(Yhat, bu, bs, take(len(bu) * len(bs)))
        fill_rect(Yhat, bu, bl, take(len(bu) * len(bl)))
        fill_diag(Yhat, bs, take(len(bs) * (len(bs) + 1) // 2))
        fill_rect(Yhat, bs, bl, take(len(bs) * len(bl)))
        fill_diag(Yhat, bl, take(len(bl) * (len(bl) + 1) // 2))
        fill_diag(Ghat, al, take(len(al) * (len(al) + 1) // 2))
        fill_diag(Ghat, be, take(len(be) * (len(be) + 1) // 2))
        fill_rect(Ghat, al, be, take(len(al) * len(be)))
        assert pos == A.shape[0]
        Y_rec = Q @ Yhat @ Q.T
        G_rec = P @ Ghat @ P.T
        np.testing.assert_allclose(mu_rec, ref.multipliers.mu, atol=1e-8)
        np.testing.assert_allclose(Y_rec, ref.multipliers.Y, atol=1e-8)
        np.testing.assert_allclose(G_rec, ref.multipliers.Gamma, atol=1e-8)


# ----------------------------------------------------------------------------
# reduced subspace
# ----------------------------------------------------------------------------

class TestAppConeBasis:
    def test_everything_inactive_gives_full_space(self):
        prob = make_strict_complementary_instance()
        ref = prob.reference
        basis = app_cone_basis(prob, ref.x, ref.multipliers)
        np.testing.assert_allclose(basis @ basis.T, np.eye(prob.n),
                                   atol=1e-12)

    def test_full_rank_equality_gives_empty_basis(self):
        prob = make_full_rank_equality_instance()
        ref = prob.reference
        basis = app_cone_basis(prob, ref.x, ref.multipliers)
        assert basis.shape == (2, 0)

    def test_block_conditions_hold_on_basis(self):
        prob = make_full_blocks_instance()
        ref = prob.reference
        x = np.asarray(ref.x, dtype=np.float64)
        basis = app_cone_basis(prob, ref.x, ref.multipliers)
        assert basis.shape[1] > 0
        np.testing.assert_allclose(basis.T @ basis,
                                   np.eye(basis.shape[1]), atol=1e-12)
        # recompute the structure through the public eigen APIs
        sp = subdiff_partition(prob.F(x), ref.multipliers.Y)
        Q = sp.basis
        b_all = list(sp.b_up) + list(sp.b_mid) + list(sp.b_low)
        M = ref.multipliers.Gamma - prob.g(x)
        eM = eig_sym(M)
        part = partition_by_sign(eM)
        P = eM.basis
        for j in range(basis.shape[1]):
            d = basis[:, j]
            assert np.linalg.norm(prob.h_A @ d) <= 1e-9
            H = Q.T @ apply_jac(prob.jac_F(x), d) @ Q
            assert np.abs(H[np.ix_(list(sp.b_mid), b_all)]).max() <= 1e-9
            assert np.abs(H[np.ix_(list(sp.b_up), list(sp.b_low))]).max() \
                <= 1e-9
            G = P.T @ apply_jac(prob.jac_g(x), d) @ P
            al, be = list(part.pos), list(part.zero)
            assert np.abs(G[np.ix_(al, al)]).max() <= 1e-9
            assert np.abs(G[np.ix_(al, be)]).max() <= 1e-9


# ----------------------------------------------------------------------------
# curvature pieces
# ----------------------------------------------------------------------------

def _sigma_term(problem, x, Gamma, d):
    """The cone curvature term 2 <Gamma, (Dg d) g(x)^+ (Dg d)> along one
    direction d."""
    return _psd_curvature_matrix(problem, x, Gamma, d[:, None])[0, 0]


class TestSigmaTerm:
    def test_zero_multiplier_gives_zero(self):
        prob = make_strict_complementary_instance()
        val = _sigma_term(prob, prob.reference.x, np.zeros((2, 2)),
                          np.array([0.7, -0.2]))
        assert val == 0.0

    def test_worked_two_by_two(self):
        g_Ai = np.zeros((1, 2, 2))
        g_Ai[0] = np.array([[0.0, 1.0], [1.0, 0.0]])
        prob = QuadraticProblem(
            0.0, np.zeros(1), np.eye(1),
            None,
            np.zeros((0, 1)), np.zeros(0),
            QuadraticMatrixMap(np.diag([0.0, 1.0]), g_Ai),
        )
        val = _sigma_term(prob, np.zeros(1), np.diag([1.0, 0.0]),
                          np.array([1.0]))
        np.testing.assert_allclose(val, 2.0, atol=1e-12)

    def test_absent_cone_gives_zero(self, equality_instance):
        assert _sigma_term(equality_instance, np.zeros(2),
                           np.zeros((0, 0)), np.array([1.0, 1.0])) == 0.0

    def test_nonnegative_on_feasible_data(self):
        prob = make_full_blocks_instance()
        ref = prob.reference
        rng = np.random.RandomState(2)
        for _ in range(50):
            d = rng.randn(prob.n)
            val = _sigma_term(prob, ref.x, ref.multipliers.Gamma, d)
            assert val >= -1e-10

    def test_matches_single_direction_formula(self):
        # the one-direction case of the batched cone curvature term against
        # 2 <Gamma, G g(x)^+ G> evaluated directly
        prob = make_full_blocks_instance()
        ref = prob.reference
        x = np.asarray(ref.x, dtype=np.float64)
        Gamma = ref.multipliers.Gamma
        g_pinv = pinv_sym(prob.g(x))
        rng = np.random.RandomState(4)
        for _ in range(20):
            d = rng.randn(prob.n)
            G = apply_jac(prob.jac_g(x), d)
            expected = 2.0 * float(np.sum(Gamma * (G @ g_pinv @ G)))
            val = _sigma_term(prob, x, Gamma, d)
            assert abs(val - expected) <= 1e-12 * max(1.0, abs(expected))


class TestStrongSOSC:
    def test_holds_at_constructed_minimizer(self):
        prob = make_full_blocks_instance()
        ref = prob.reference
        rep = strong_sosc_check(prob, ref.x, ref.multipliers)
        assert rep.holds
        assert rep.min_value > 1e-6
        assert rep.dimension == 5

    def test_fails_at_constructed_saddle(self):
        prob = make_full_blocks_instance("saddle")
        ref = prob.reference
        rep = strong_sosc_check(prob, ref.x, ref.multipliers)
        assert not rep.holds
        assert rep.min_value < 0.0

    def test_vacuous_subspace_gives_infinite_sentinel(self):
        prob = make_full_rank_equality_instance()
        ref = prob.reference
        rep = strong_sosc_check(prob, ref.x, ref.multipliers)
        assert rep.holds
        assert rep.min_value == math.inf
        assert rep.dimension == 0

    def test_identity_curvature_gives_unit_minimum(self, equality_instance):
        prob = equality_instance
        A = prob.h_A
        # identity curvature makes the reduced matrix exactly 1 on the
        # one-dimensional null space of h; solve the equality KKT system
        # for an exact stationary point first
        prob_id = QuadraticProblem(
            0.0, prob.f_b, np.eye(2), None, prob.h_A, prob.h_r, None)
        sol = np.linalg.solve(
            np.block([[np.eye(2), A.T], [A, np.zeros((1, 1))]]),
            np.concatenate([-prob.f_b, -prob.h_r]))
        x, mu = sol[:2], sol[2:]
        mult = MultiplierTriple(np.zeros((0, 0)), mu, np.zeros((0, 0)))
        rep = strong_sosc_check(prob_id, x, mult)
        assert rep.holds
        np.testing.assert_allclose(rep.min_value, 1.0, atol=1e-12)
        flipped = QuadraticProblem(
            0.0, prob.f_b, -np.eye(2), None, prob.h_A, prob.h_r, None)
        sol = np.linalg.solve(
            np.block([[-np.eye(2), A.T], [A, np.zeros((1, 1))]]),
            np.concatenate([-prob.f_b, -prob.h_r]))
        x2, mu2 = sol[:2], sol[2:]
        rep2 = strong_sosc_check(
            flipped, x2,
            MultiplierTriple(np.zeros((0, 0)), mu2, np.zeros((0, 0))))
        assert not rep2.holds

    def test_rejects_non_kkt_point(self):
        prob = make_full_blocks_instance()
        ref = prob.reference
        with pytest.raises(NotAKKTPoint):
            strong_sosc_check(prob, np.asarray(ref.x) + 0.1,
                              ref.multipliers)

    def test_no_verdict_inside_round_off(self):
        # x_ref[0] = 0, so a Hessian entry near the float limit keeps the
        # reference a KKT point but swamps the reduced matrix: its smallest
        # eigenvalue is rounding noise of magnitude 1e288 or so
        path = os.path.join(os.path.dirname(os.path.dirname(__file__)),
                            "instances", "nondegen_small.json")
        prob = load_instance(path)
        ref = prob.reference
        assert ref.x[0] == 0.0
        assert strong_sosc_check(prob, ref.x, ref.multipliers).holds
        prob.f_H = prob.f_H.copy()
        prob.f_H[0, 0] = 1e308
        with pytest.raises(InvalidInput, match="below round-off"):
            strong_sosc_check(prob, ref.x, ref.multipliers)

    def test_reduced_matrix_symmetric_and_consistent(self):
        prob = make_full_blocks_instance()
        ref = prob.reference
        M, basis = sosc_reduced_matrix(prob, ref.x, ref.multipliers)
        np.testing.assert_allclose(M, M.T, atol=1e-10)
        blocks = cone_blocks(prob, ref.x, ref.multipliers)
        # polarization consistency: probing with column differences must
        # reproduce the same off-diagonal entries
        for i, j in ((0, 1), (1, 3), (2, 4)):
            probe = (basis[:, i] - basis[:, j]).reshape(-1, 1)
            Mij = _reduced_matrix(prob, ref.x, ref.multipliers, blocks,
                                  probe)
            np.testing.assert_allclose(
                Mij[0, 0], M[i, i] + M[j, j] - 2.0 * M[i, j], atol=1e-9)


# ----------------------------------------------------------------------------
# penalty-split curvature model
# ----------------------------------------------------------------------------

class TestSplitPenaltyMatrix:
    def test_matches_newton_element_on_full_instance(self):
        prob = make_full_blocks_instance()
        ref = prob.reference
        x = np.asarray(ref.x, dtype=np.float64)
        mult = ref.multipliers
        pairs = (
            (0.0, "identity", "identity", "zero"),
            (1.0, "zero", "zero", "identity"),
        )
        model = _curvature_model(prob, x, mult,
                                 cone_blocks(prob, x, mult))
        for c in (10.0, 1000.0):
            for free, up, low, beta in pairs:
                B = model(c, c, free)
                N = newton_element_einsum(
                    prob, x, mult.Y, mult.mu, mult.Gamma, c,
                    up_choice=up, low_choice=low, beta_choice=beta)
                np.testing.assert_allclose(B, N, atol=1e-9 * c)

    def test_matches_newton_element_on_mixed_instance(self, mixed_instance):
        ref = mixed_instance.reference
        x = np.asarray(ref.x, dtype=np.float64)
        mult = ref.multipliers
        model = _curvature_model(mixed_instance, x, mult,
                                 cone_blocks(mixed_instance, x, mult))
        N = newton_element_einsum(
            mixed_instance, x, mult.Y, mult.mu, mult.Gamma, 100.0,
            up_choice="identity", low_choice="identity", beta_choice="zero")
        np.testing.assert_allclose(model(100.0, 100.0, 0.0), N, atol=1e-10)

    def test_growing_base_weight_increases_curvature(self):
        prob = make_full_blocks_instance()
        ref = prob.reference
        x = np.asarray(ref.x, dtype=np.float64)
        c0, c = 10.0, 1000.0
        model = _curvature_model(prob, x, ref.multipliers,
                                 cone_blocks(prob, x, ref.multipliers))
        low, high = model(c0, c, 0.0), model(c, c, 0.0)
        assert np.linalg.eigvalsh(high - low).min() >= -1e-8


# ----------------------------------------------------------------------------
# rate constants
# ----------------------------------------------------------------------------

class TestRateConstants:
    def test_ratio_table_worked_example(self):
        prob = make_weighted_zero_instance()
        ref = prob.reference
        blocks = cone_blocks(prob, ref.x, ref.multipliers)
        nus = _nu_tables(blocks)
        # spectrum (2, 0, -1) with interior weight 0.5:
        # (1 - 0.5)/2 = 0.25, 2/(2 - (-1)) = 2/3, (1 + 0.5)/1 = 1.5
        np.testing.assert_allclose(nus["a_bS"], (0.25, 0.25), atol=1e-12)
        np.testing.assert_allclose(nus["a_c"], (2.0 / 3.0, 2.0 / 3.0),
                                   atol=1e-12)
        np.testing.assert_allclose(nus["c_bS"], (1.5, 1.5), atol=1e-12)
        rc = rate_constants(prob, ref.x, ref.multipliers)
        np.testing.assert_allclose(rc.nu_lower_0, 0.25, atol=1e-12)
        np.testing.assert_allclose(rc.nu_upper_0, 1.5, atol=1e-12)

    def test_given_blocks_change_nothing(self):
        prob = make_full_blocks_instance()
        ref = prob.reference
        blocks = cone_blocks(prob, ref.x, ref.multipliers)
        own = rate_constants(prob, ref.x, ref.multipliers).as_dict()
        given = rate_constants(prob, ref.x, ref.multipliers,
                               blocks=blocks).as_dict()
        assert repr(given) == repr(own)

    def test_empty_families_are_skipped(self):
        # no negative eigenvalues of F and no cone constraint: only the
        # family over the positive block and the interior weight remains
        n = 2
        rng = np.random.RandomState(4)
        F0 = np.diag([2.0, 0.0])
        F_Ai = np.zeros((n, 2, 2))
        for l in range(n):
            Z = rng.randn(2, 2)
            F_Ai[l] = 0.3 * (Z + Z.T)
        Ybar = np.diag([1.0, 0.5])
        f_b = -np.einsum("lij,ij->l", F_Ai, Ybar)
        reference = KKTPoint(
            np.zeros(n),
            MultiplierTriple(Ybar, np.zeros(0), np.zeros((0, 0))))
        prob = QuadraticProblem(
            0.0, f_b, np.eye(n),
            QuadraticMatrixMap(F0, F_Ai),
            np.zeros((0, n)), np.zeros(0),
            None,
            reference=reference,
        )
        rc = rate_constants(prob, reference.x, reference.multipliers)
        np.testing.assert_allclose(rc.nu_lower_0, 0.25, atol=1e-12)
        np.testing.assert_allclose(rc.nu_upper_0, 0.25, atol=1e-12)

    def test_no_cross_rows_gives_zero_brackets(self):
        # generated nondegen (6, 1, 1, 1) seed 7 has no cross-family row:
        # every ratio table is empty and the cross-family matrix C has no
        # rows, so both nu brackets and the rate constants are 0
        prob = generate_instance(6, 1, 1, 1, "nondegen", seed=7)
        ref = prob.reference
        blocks = cone_blocks(prob, ref.x, ref.multipliers)
        assert _nu_tables(blocks) == {}
        rc = rate_constants(prob, ref.x, ref.multipliers, blocks=blocks)
        assert (rc.nu_lower_0, rc.nu_upper_0, rc.nu_lower,
                rc.nu_upper) == (0.0, 0.0, 0.0, 0.0)
        assert (rc.rho0, rc.rho1) == (0.0, 0.0)

    def test_no_bound_where_nondegeneracy_fails(self):
        # a 1e-10 nudge to the collinear equality row leaves the active
        # matrix at sigma_min / sigma_max ~ 7.6e-12: nondegeneracy fails,
        # so no inverse-square bound exists and rho0 has no value
        data = instance_to_dict(
            generate_instance(24, 10, 3, 8, "degen", seed=7))
        data["h"][-1][0] += 1e-10
        prob = instance_from_dict(data)
        ref = prob.reference
        assert not nondegeneracy_check(prob, ref.x, ref.multipliers).holds
        rc = rate_constants(prob, ref.x, ref.multipliers)
        assert rc.sigma_upper == math.inf
        assert rc.c_bar == math.inf
        assert rc.kappa0 == math.inf
        assert math.isnan(rc.rho0) and math.isnan(rc.rho1)

    def test_kappa0_plug_in(self):
        np.testing.assert_allclose(kappa0_constant(1.0, 1.0, 1.0, 1.0),
                                   2.0 * math.sqrt(2.0), atol=1e-14)

    def test_kappa0_without_curvature_is_infinite(self):
        # a zero eta bracket leaves no Lipschitz bound: inf, not the
        # inf * 0 = NaN of the formula
        assert kappa0_constant(1.0, 1.0, 0.0, 0.0) == math.inf

    def test_positivity_and_threshold_invariants(self):
        hand_built = [make_mixed_instance(), make_full_blocks_instance()]
        # the generated reference points have more cross-family rows than
        # rank: the smallest Gram eigenvalue is round-off there, and it must
        # not come out negative
        generated = [generate_instance(*dims, profile, seed=7)
                     for dims in ((24, 10, 3, 8), (40, 16, 4, 14))
                     for profile in ("nondegen", "degen", "saddle")]
        for k, prob in enumerate(hand_built + generated):
            ref = prob.reference
            rc = rate_constants(prob, ref.x, ref.multipliers)
            if k < len(hand_built):
                assert math.isfinite(rc.sigma_upper) and rc.eta_lower > 0.0
            if math.isfinite(rc.sigma_upper) and rc.eta_lower > 0.0:
                assert rc.rho0 > 0.0
                assert rc.rho1 == 2.0 * rc.rho0
            else:
                assert math.isnan(rc.rho0) and math.isnan(rc.rho1)
            assert rc.c_bar >= (2.0 + math.sqrt(2.0)) * rc.c0
            assert rc.sigma_lower <= 1.0 <= rc.sigma_upper
            assert rc.nu_upper >= rc.nu_lower >= 0.0
            assert rc.nu_upper_0 >= rc.nu_lower_0 >= 0.0
            assert rc.eta_upper >= rc.eta_lower

    def test_brackets_are_basis_invariant(self):
        # a rotation inside a run of equal eigenvalue and weight maps each
        # family's rows orthogonally, so no bracket depends on the basis
        # the eigensolver returns.  A Gram eigenvalue carries round-off
        # relative to the largest, so the nu brackets are measured
        # against nu_upper
        for name in sorted(REPEATED_SPECTRA):
            for seed in (11, 1, 2):
                prob = make_repeated_blocks_instance(name, seed)
                ref = prob.reference
                rc = rate_constants(prob, ref.x, ref.multipliers)
                assert rc.spectrum_multiplicity
                want = (rc.sigma_lower, rc.sigma_upper, rc.nu_lower,
                        rc.nu_upper)
                scale = (rc.sigma_lower, rc.sigma_upper, rc.nu_upper,
                         rc.nu_upper)
                for k in range(32):
                    rng = np.random.RandomState(k)
                    got = _sigma_nu_at(rotated_blocks(prob, ref.x,
                                                      ref.multipliers, rng))
                    for g, w, sc in zip(got, want, scale):
                        assert g == w or abs(g - w) <= 1e-13 * sc, \
                            (name, seed, k, got, want)


# ----------------------------------------------------------------------------
# empirical sweep
# ----------------------------------------------------------------------------

class TestRateSweep:
    def test_no_multiplier_coordinates_is_refused(self):
        # generated (4, 0, 0, 0) has no Y, mu or Gamma to perturb
        prob = generate_instance(4, 0, 0, 0, seed=7)
        with pytest.raises(InvalidInput) as info:
            rate_sweep(prob, prob.reference, (10.0, 100.0), seed=7)
        assert str(info.value) == ("problem has no multiplier coordinates "
                                   "to perturb")

    def test_contraction_follows_inverse_penalty(self, mixed_instance):
        ref = mixed_instance.reference
        fit = rate_sweep(mixed_instance, ref,
                         (10.0, 100.0, 1000.0, 10000.0))
        assert all(fit.converged)
        assert not fit.assumptions_unverified
        for r in fit.ratios:
            assert 0.0 < r < 1.0
        assert all(b < a for a, b in zip(fit.ratios, fit.ratios[1:]))
        assert -1.25 <= fit.slope <= -0.80
        assert fit.r_squared > 0.9
        assert fit.rho2_proxy > 0.0
        np.testing.assert_allclose(
            fit.predicted, [fit.rho2_proxy / c for c in fit.penalties])

    def test_single_grid_point(self, mixed_instance):
        ref = mixed_instance.reference
        fit = rate_sweep(mixed_instance, ref, (100.0,))
        assert fit.slope is None
        assert fit.r_squared is None
        np.testing.assert_allclose(fit.rho2_proxy, fit.ratios[0] * 100.0)

    def test_deterministic(self, mixed_instance):
        ref = mixed_instance.reference
        a = rate_sweep(mixed_instance, ref, (10.0, 100.0), seed=3)
        b = rate_sweep(mixed_instance, ref, (10.0, 100.0), seed=3)
        assert a.ratios == b.ratios
        assert a.iterations == b.iterations
        assert a.slope == b.slope

    def test_degenerate_reference_is_flagged(self):
        prob = make_full_blocks_instance("degen")
        ref = prob.reference
        fit = rate_sweep(prob, ref, (10.0, 100.0))
        assert fit.assumptions_unverified
        # runs still converge in residual; the dual distance to this
        # particular multiplier stalls, so the measured ratios approach 1
        assert all(fit.converged)
        for r in fit.ratios:
            assert 0.0 < r <= 1.0

    def test_invalid_grids_rejected(self, mixed_instance):
        ref = mixed_instance.reference
        with pytest.raises(InvalidInput):
            rate_sweep(mixed_instance, ref, ())
        with pytest.raises(InvalidInput):
            rate_sweep(mixed_instance, ref, (100.0, 10.0))
        with pytest.raises(InvalidInput):
            rate_sweep(mixed_instance, ref, (-5.0, 10.0))
        with pytest.raises(InvalidInput):
            rate_sweep(mixed_instance, ref, (10.0,), delta=0.0)
        with pytest.raises(InvalidInput, match="got 1e\\+16"):
            rate_sweep(mixed_instance, ref, (10.0, 1e16))

    def test_non_kkt_reference_rejected(self, mixed_instance):
        ref = mixed_instance.reference
        bad = KKTPoint(np.asarray(ref.x) + 0.05, ref.multipliers)
        with pytest.raises(InvalidInput):
            rate_sweep(mixed_instance, bad, (10.0,))
