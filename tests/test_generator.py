"""Tests for the synthetic instance generator."""

import os

import numpy as np
import pytest

from sdnop.diagnostics import (
    cone_blocks,
    nondegeneracy_check,
    rate_sweep,
    strong_sosc_check,
)
from sdnop.errors import InvalidInput
from sdnop.generator import block_matrix_rows, generate_instance
from sdnop.problem import kkt_residual, load_instance, save_instance

INSTANCES = os.path.join(os.path.dirname(os.path.dirname(__file__)),
                         "instances")


def _residual(problem):
    ref = problem.reference
    y = ref.multipliers
    return kkt_residual(problem, ref.x, y.Y, y.mu, y.Gamma).total


# ---------------------------------------------------------------------------
# profile contracts
# ---------------------------------------------------------------------------

class TestProfiles:
    def test_nondegen_round_trip(self):
        problem = generate_instance(8, 3, 1, 3, profile="nondegen", seed=7)
        assert _residual(problem) <= 1e-12
        ref = problem.reference
        nd = nondegeneracy_check(problem, ref.x, ref.multipliers)
        assert nd.holds
        assert nd.sigma_min > 1e-6
        so = strong_sosc_check(problem, ref.x, ref.multipliers)
        assert so.holds
        assert so.min_value > 1e-6

    def test_nondegen_rank_margin_is_by_design(self):
        # designed slots keep the active-block rows near-orthogonal, so
        # the margin is a fixed fraction of the slot weight, not luck
        problem = generate_instance(8, 3, 1, 3, profile="nondegen", seed=7)
        ref = problem.reference
        nd = nondegeneracy_check(problem, ref.x, ref.multipliers)
        assert nd.sigma_min > 0.1

    def test_degen_fails_rank(self):
        problem = generate_instance(8, 3, 1, 3, profile="degen", seed=7)
        assert _residual(problem) <= 1e-12
        ref = problem.reference
        nd = nondegeneracy_check(problem, ref.x, ref.multipliers)
        assert not nd.holds

    def test_degen_single_row_zeroed(self):
        problem = generate_instance(6, 2, 1, 0, profile="degen", seed=3)
        np.testing.assert_array_equal(problem.h_A[0], np.zeros(6))
        assert _residual(problem) <= 1e-12

    def test_saddle_fails_second_order(self):
        problem = generate_instance(8, 3, 1, 3, profile="saddle", seed=7)
        assert _residual(problem) <= 1e-12
        ref = problem.reference
        so = strong_sosc_check(problem, ref.x, ref.multipliers)
        assert not so.holds
        assert so.min_value < 0.0

    @pytest.mark.parametrize("profile", ["nondegen", "degen"])
    def test_mid_size(self, profile):
        # (40,16,4,14) is the benchmark's solve shape; the closed-form
        # reduced matrix makes generating it cheap enough to test
        problem = generate_instance(40, 16, 4, 14, profile=profile, seed=7)
        assert _residual(problem) <= 1e-12
        ref = problem.reference
        nd = nondegeneracy_check(problem, ref.x, ref.multipliers)
        assert nd.holds == (profile == "nondegen")
        so = strong_sosc_check(problem, ref.x, ref.multipliers)
        assert so.holds
        assert so.dimension > 30
        assert so.min_value > 0.5

    def test_large_nondegen(self):
        # the roadmap's largest ladder shape; the jacobian compression in
        # cone_blocks is two batched products, so this takes well under 1 s
        problem = generate_instance(120, 40, 10, 40, profile="nondegen",
                                    seed=7)
        assert _residual(problem) <= 1e-12
        ref = problem.reference
        blocks = cone_blocks(problem, ref.x, ref.multipliers)
        nd = nondegeneracy_check(problem, ref.x, ref.multipliers,
                                 blocks=blocks)
        assert nd.holds and nd.sigma_min > 1e-6
        so = strong_sosc_check(problem, ref.x, ref.multipliers)
        assert so.holds and so.min_value > 0.5

    def test_nondegen_shape_sweep(self):
        shapes = [(8, 3, 1, 3), (6, 2, 0, 2), (5, 0, 2, 3),
                  (4, 3, 1, 0), (3, 0, 1, 0), (2, 1, 0, 1)]
        for idx, (n, q, m, p) in enumerate(shapes):
            problem = generate_instance(n, q, m, p, seed=20 + idx)
            assert _residual(problem) <= 1e-12, (n, q, m, p)
            ref = problem.reference
            nd = nondegeneracy_check(problem, ref.x, ref.multipliers)
            assert nd.holds, (n, q, m, p)


# ---------------------------------------------------------------------------
# input validation
# ---------------------------------------------------------------------------

class TestValidation:
    def test_unknown_profile(self):
        with pytest.raises(InvalidInput):
            generate_instance(4, 2, 1, 2, profile="bogus", seed=0)

    def test_nondegen_needs_enough_columns(self):
        # rows = m + 1 + 3 = 4 > n = 1
        with pytest.raises(InvalidInput, match="full row rank"):
            generate_instance(1, 2, 0, 3, profile="nondegen", seed=0)

    def test_degen_needs_an_equality_row(self):
        with pytest.raises(InvalidInput):
            generate_instance(6, 2, 0, 2, profile="degen", seed=0)

    def test_saddle_needs_reduced_subspace(self):
        # square full-rank equality jacobian leaves no feasible directions
        with pytest.raises(InvalidInput, match="reduced subspace"):
            generate_instance(2, 0, 2, 0, profile="saddle", seed=1)

    # numpy's RandomState raises ValueError on -1 and 2**32 and TypeError
    # on 1.5, and draws fresh entropy for None; a bool is no seed either
    @pytest.mark.parametrize("seed", [-1, 2 ** 32, 1.5, None, True],
                             ids=["negative", "2**32", "float", "None",
                                  "bool"])
    @pytest.mark.parametrize("draw", ["generate", "sweep"])
    def test_seed_must_be_a_32_bit_integer(self, monkeypatch, draw, seed):
        def forbidden(*args, **kwargs):
            raise AssertionError("drew before the seed was checked")

        monkeypatch.setattr(np.random, "RandomState", forbidden)
        message = r"^seed must be an integer in \[0, 2\*\*32\)"
        with pytest.raises(InvalidInput, match=message):
            if draw == "generate":
                generate_instance(6, 2, 1, 2, seed=seed)
            else:
                problem = load_instance(
                    os.path.join(INSTANCES, "nondegen_small.json"))
                rate_sweep(problem, problem.reference, (10.0,), seed=seed)

    def test_numpy_integer_seeds_are_accepted(self):
        expected = generate_instance(6, 2, 1, 2, seed=7)
        for seed in (np.int64(7), np.uint32(7)):
            got = generate_instance(6, 2, 1, 2, seed=seed)
            assert np.array_equal(got.f_b, expected.f_b)
            assert np.array_equal(got.F_map.Ai, expected.F_map.Ai)

    def test_dimension_validation(self):
        with pytest.raises(InvalidInput):
            generate_instance(0, 1, 0, 1, seed=0)
        with pytest.raises(InvalidInput):
            generate_instance(4, -1, 0, 1, seed=0)
        with pytest.raises(InvalidInput):
            generate_instance(4, 1, 0, 1.5, seed=0)


# ---------------------------------------------------------------------------
# determinism and serialization
# ---------------------------------------------------------------------------

class TestDeterminism:
    def test_same_seed_same_instance(self):
        a = generate_instance(8, 3, 1, 3, seed=7)
        b = generate_instance(8, 3, 1, 3, seed=7)
        np.testing.assert_array_equal(a.f_b, b.f_b)
        np.testing.assert_array_equal(a.f_H, b.f_H)
        np.testing.assert_array_equal(a.F_map.A0, b.F_map.A0)
        np.testing.assert_array_equal(a.F_map.Ai, b.F_map.Ai)
        np.testing.assert_array_equal(a.h_A, b.h_A)
        np.testing.assert_array_equal(a.g_map.A0, b.g_map.A0)
        np.testing.assert_array_equal(a.g_map.Ai, b.g_map.Ai)
        np.testing.assert_array_equal(a.reference.multipliers.Y,
                                      b.reference.multipliers.Y)
        np.testing.assert_array_equal(a.reference.multipliers.mu,
                                      b.reference.multipliers.mu)
        np.testing.assert_array_equal(a.reference.multipliers.Gamma,
                                      b.reference.multipliers.Gamma)

    @pytest.mark.parametrize("profile", ["nondegen", "degen", "saddle"])
    def test_reproduces_bundled_instance(self, tmp_path, profile):
        problem = generate_instance(8, 3, 1, 3, profile=profile, seed=7)
        path = tmp_path / "instance.json"
        save_instance(problem, path)
        bundled = os.path.join(INSTANCES, f"{profile}_small.json")
        with open(path, "rb") as fresh, open(bundled, "rb") as kept:
            assert fresh.read() == kept.read()

    def test_different_seed_different_instance(self):
        a = generate_instance(8, 3, 1, 3, seed=7)
        b = generate_instance(8, 3, 1, 3, seed=8)
        assert not np.array_equal(a.h_A, b.h_A)

    def test_save_load_round_trip(self, tmp_path):
        problem = generate_instance(8, 3, 1, 3, seed=7)
        path = tmp_path / "instance.json"
        save_instance(problem, path)
        loaded = load_instance(path)
        np.testing.assert_array_equal(loaded.f_H, problem.f_H)
        np.testing.assert_array_equal(loaded.F_map.Ai, problem.F_map.Ai)
        np.testing.assert_array_equal(loaded.reference.multipliers.Gamma,
                                      problem.reference.multipliers.Gamma)
        assert _residual(loaded) <= 1e-12


# ---------------------------------------------------------------------------
# block matrix row budget
# ---------------------------------------------------------------------------

class TestRowBudget:
    def test_row_formula(self):
        # one zero eigenvalue once q >= 2; one boundary plus one
        # degenerate cone eigenvalue once p >= 3, a single boundary
        # eigenvalue for 1 <= p <= 2
        assert block_matrix_rows(8, 3, 1, 3) == 1 + 1 + 3
        assert block_matrix_rows(5, 0, 2, 3) == 2 + 0 + 3
        assert block_matrix_rows(4, 1, 0, 0) == 0
        assert block_matrix_rows(4, 2, 0, 1) == 1 + 1

    def test_matches_diagnostic_row_count(self):
        problem = generate_instance(8, 3, 1, 3, seed=7)
        ref = problem.reference
        nd = nondegeneracy_check(problem, ref.x, ref.multipliers)
        assert nd.rows == block_matrix_rows(8, 3, 1, 3)


# ---------------------------------------------------------------------------
# contraction rate on a generated instance
# ---------------------------------------------------------------------------

class TestGeneratedRate:
    def test_bundled_shape_rate_sweep(self):
        problem = generate_instance(8, 3, 1, 3, profile="nondegen", seed=7)
        fit = rate_sweep(problem, problem.reference,
                         [10.0, 1e2, 1e3, 1e4], delta=1e-2, seed=7)
        assert all(fit.converged)
        assert not fit.assumptions_unverified
        ratios = np.array(fit.ratios)
        assert np.all(ratios > 0.0)
        assert np.all(ratios < 1.0)
        assert np.all(np.diff(ratios) < 0.0)
        assert -1.25 <= fit.slope <= -0.80
        assert fit.r_squared > 0.9

    def test_penalty_doubling_halves_ratio(self):
        problem = generate_instance(8, 3, 1, 3, profile="nondegen", seed=7)
        fit = rate_sweep(problem, problem.reference, [1e3, 2e3],
                         delta=1e-2, seed=7)
        assert all(fit.converged)
        quotient = fit.ratios[1] / fit.ratios[0]
        assert 0.375 <= quotient <= 0.625
