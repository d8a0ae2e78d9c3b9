"""Spectral utility tests."""

import warnings

import numpy as np
import pytest

from sdnop.errors import InvalidInput
from sdnop.spectral import (
    as_symmetric,
    eig_sym,
    group_distinct,
    partition_by_sign,
    pinv_sym,
    smat,
    svec,
    svec_block,
)


def rand_sym(rng, k, scale=1.0):
    A = rng.randn(k, k) * scale
    return 0.5 * (A + A.T)


class TestSvec:
    def test_known_value(self):
        M = np.array([[1.0, 2.0], [2.0, 3.0]])
        np.testing.assert_allclose(svec(M), [1.0, 2.0 * np.sqrt(2.0), 3.0], atol=0)

    def test_column_stacking_order(self):
        # upper triangle stacked column by column
        M = np.array([[1.0, 4.0, 6.0], [4.0, 2.0, 5.0], [6.0, 5.0, 3.0]])
        r2 = np.sqrt(2.0)
        expected = [1.0, 4.0 * r2, 2.0, 6.0 * r2, 5.0 * r2, 3.0]
        np.testing.assert_allclose(svec(M), expected, atol=0)

    def test_isometry(self):
        rng = np.random.RandomState(0)
        for _ in range(200):
            k = rng.randint(1, 7)
            A = rand_sym(rng, k)
            B = rand_sym(rng, k)
            np.testing.assert_allclose(
                svec(A) @ svec(B), np.sum(A * B), atol=1e-12, rtol=1e-12
            )

    def test_roundtrip(self):
        rng = np.random.RandomState(1)
        for _ in range(50):
            A = rand_sym(rng, rng.randint(1, 8))
            np.testing.assert_allclose(smat(svec(A)), A, atol=1e-14)

    def test_stack_maps_each_matrix(self):
        rng = np.random.RandomState(4)
        for k in range(5):
            S = rng.randn(2, 3, k, k)
            out = svec(S)
            assert out.shape == (2, 3, k * (k + 1) // 2)
            for a in range(2):
                for b in range(3):
                    np.testing.assert_array_equal(out[a, b], svec(S[a, b]))

    def test_smat_rejects_bad_length(self):
        with pytest.raises(InvalidInput):
            smat(np.zeros(4))


def test_svec_block_matches_submatrix():
    rng = np.random.RandomState(2)
    M = rand_sym(rng, 5)
    rows = (1, 3, 4)
    np.testing.assert_allclose(
        svec_block(M, rows), svec(M[np.ix_(rows, rows)]), atol=0
    )


class TestEig:
    def test_reconstructs(self):
        rng = np.random.RandomState(3)
        for _ in range(100):
            M = rand_sym(rng, rng.randint(1, 9))
            eig = eig_sym(M)
            np.testing.assert_allclose(eig.reconstruct(), M, atol=1e-12)

    def test_descending_and_orthonormal(self):
        rng = np.random.RandomState(4)
        for _ in range(50):
            M = rand_sym(rng, 6)
            eig = eig_sym(M)
            assert np.all(np.diff(eig.values) <= 1e-14)
            np.testing.assert_allclose(eig.basis.T @ eig.basis, np.eye(6), atol=1e-12)

    def test_deterministic_and_sign_fixed(self):
        rng = np.random.RandomState(5)
        M = rand_sym(rng, 5)
        e1 = eig_sym(M)
        e2 = eig_sym(M.copy())
        assert np.array_equal(e1.values, e2.values)
        assert np.array_equal(e1.basis, e2.basis)
        anchor = np.argmax(np.abs(e1.basis), axis=0)
        assert np.all(e1.basis[anchor, np.arange(5)] > 0)

    def test_rejects_asymmetric(self):
        with pytest.raises(InvalidInput):
            eig_sym(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_rejects_nonfinite(self):
        with pytest.raises(InvalidInput):
            eig_sym(np.array([[np.nan, 0.0], [0.0, 1.0]]))

    def test_empty(self):
        eig = eig_sym(np.zeros((0, 0)))
        assert eig.dim == 0
        assert eig.norm == 0.0

    def test_norm_is_largest_magnitude(self):
        rng = np.random.RandomState(5)
        for k in (1, 2, 7):
            for shift in (-3.0, 0.0, 3.0):
                M = rand_sym(rng, k) + shift * np.eye(k)
                eig = eig_sym(M)
                assert eig.norm == np.abs(eig.values).max()
                assert eig.norm == pytest.approx(np.linalg.norm(M, 2),
                                                 rel=1e-12)


class TestPartition:
    def test_known(self):
        eig = eig_sym(np.diag([2.0, 1e-12, -3.0]))
        part = partition_by_sign(eig)
        assert part.pos == (0,)
        assert part.zero == (1,)
        assert part.neg == (2,)

    def test_negative_tol_rejected(self):
        eig = eig_sym(np.eye(2))
        with pytest.raises(InvalidInput):
            partition_by_sign(eig, tol=-1.0)

    def test_tolerance_scales(self):
        # 1e-6 is zero next to an eigenvalue of 1e6 under the relative default
        eig = eig_sym(np.diag([1e6, 1e-6]))
        part = partition_by_sign(eig)
        assert part.zero == (1,)


class TestGroupDistinct:
    def test_merges_close_values(self):
        eig = eig_sym(np.diag([2.0 + 1e-12, 2.0, 0.0, -1.0]))
        blocks = group_distinct(eig)
        assert blocks.blocks == ((0, 1), (2,), (3,))
        assert blocks.zero_block == 1
        np.testing.assert_allclose(blocks.values, [2.0, 0.0, -1.0], atol=1e-9)

    def test_no_zero_block(self):
        eig = eig_sym(np.diag([3.0, 1.0]))
        blocks = group_distinct(eig)
        assert blocks.zero_block is None
        assert blocks.blocks == ((0,), (1,))

    def test_representatives_are_block_means(self):
        for vals in ([3.0, 1.0, -2.0], [2.0 + 1e-12, 2.0, 2.0 - 1e-12, 0.5]):
            eig = eig_sym(np.diag(vals))
            blocks = group_distinct(eig)
            means = [eig.values[list(b)].mean() for b in blocks.blocks]
            np.testing.assert_array_equal(blocks.values, means)
            assert blocks.values is not eig.values

    def test_random_blocks_cover_all_indices(self):
        rng = np.random.RandomState(6)
        for _ in range(50):
            M = rand_sym(rng, rng.randint(2, 8))
            blocks = group_distinct(eig_sym(M))
            flat = [i for b in blocks.blocks for i in b]
            assert flat == list(range(M.shape[0]))


class TestPinv:
    def test_penrose_identities(self):
        rng = np.random.RandomState(7)
        for _ in range(50):
            k = rng.randint(2, 7)
            Q = np.linalg.qr(rng.randn(k, k))[0]
            vals = rng.randn(k)
            vals[rng.randint(k)] = 0.0
            M = (Q * vals) @ Q.T
            P = pinv_sym(M)
            np.testing.assert_allclose(M @ P @ M, M, atol=1e-10)
            np.testing.assert_allclose(P @ M @ P, P, atol=1e-10)
            np.testing.assert_allclose(P, P.T, atol=1e-12)

    def test_cutoff_zeroes_small_modes(self):
        M = np.diag([1.0, 1e-9])
        P = pinv_sym(M, cutoff=1e-6)
        np.testing.assert_allclose(P, np.diag([1.0, 0.0]), atol=1e-12)


def test_as_symmetric_averages():
    M = np.array([[1.0, 2.0 + 1e-12], [2.0, 3.0]])
    S = as_symmetric(M)
    np.testing.assert_allclose(S, S.T, atol=0)


def test_as_symmetric_near_float_limit():
    # finite entries near the float limit must not overflow while averaging
    M = np.diag([1e308, 1.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        S = as_symmetric(M)
    assert np.all(np.isfinite(S))
    np.testing.assert_array_equal(S, M)
