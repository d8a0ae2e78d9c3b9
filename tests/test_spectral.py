"""Spectral utility tests."""

import warnings

import numpy as np
import pytest

from sdnop.errors import InvalidInput
from sdnop.nuclear import envelope_grad, grad_moreau_env, prox_divided_diff
from sdnop.spectral import (
    EigenDecomposition,
    as_symmetric,
    eig_sym,
    group_distinct,
    partition_by_sign,
    pinv_sym,
    smat,
    svec,
    symmetric_part,
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


class TestEig:
    def test_reconstructs(self):
        rng = np.random.RandomState(3)
        for _ in range(100):
            M = rand_sym(rng, rng.randint(1, 9))
            eig = eig_sym(M)
            np.testing.assert_allclose((eig.basis * eig.values) @ eig.basis.T,
                                       M, atol=1e-12)

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

    def test_tolerance_scales(self):
        # 1e-6 is zero next to an eigenvalue of 1e6 under the relative default
        eig = eig_sym(np.diag([1e6, 1e-6]))
        part = partition_by_sign(eig)
        assert part.zero == (1,)


@pytest.mark.parametrize("tol", [float("nan"), -1.0], ids=["nan", "negative"])
@pytest.mark.parametrize("call, name", [
    (lambda eig, tol: group_distinct(eig, tol), "group_tol"),
    (lambda eig, tol: prox_divided_diff(eig, 0.5, tol), "group_tol"),
], ids=["group_distinct", "prox_divided_diff"])
def test_bad_tolerance_is_named(call, name, tol):
    # NaN compares false both ways: unchecked, it grouped the whole
    # spectrum into one block
    eig = eig_sym(np.diag([3.0, 1.0, 0.0, -2.0]))
    with pytest.raises(InvalidInput, match=f"^{name} must be a nonnegative"):
        call(eig, tol)


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

    def test_constant_run_keeps_its_value(self):
        # the mean of three copies of 0.1 is 0.10000000000000002, of three
        # of 0.7 0.6999999999999998; a run of equal eigenvalues is
        # represented by its value, within a merged block or alone
        for vals in ([0.1] * 3, [0.1] * 4, [0.7] * 3,
                     [0.7] * 3 + [0.1] * 4 + [-1.0]):
            eig = EigenDecomposition(np.array(vals), np.eye(len(vals)))
            for group_tol in (0.0, 1e-8):
                blocks = group_distinct(eig, group_tol)
                assert blocks.values.tolist() == sorted(set(vals),
                                                        reverse=True)

    def test_random_blocks_cover_all_indices(self):
        rng = np.random.RandomState(6)
        for _ in range(50):
            M = rand_sym(rng, rng.randint(2, 8))
            blocks = group_distinct(eig_sym(M))
            flat = [i for b in blocks.blocks for i in b]
            assert flat == list(range(M.shape[0]))


def _oracle_spectra(rng):
    """Descending spectra and a threshold tau: random ones, and ones drawn
    from a pool with exact and near ties, zeros and values on +-tau, some
    with blocks of more than eight equal eigenvalues."""
    for _ in range(200):
        tau = 10.0 ** rng.uniform(-3.0, 0.0)
        k = rng.randint(1, 20)
        yield tau, np.sort(rng.randn(k) * 10.0 ** rng.uniform(-1.0, 1.0))[::-1]
        pool = np.array([tau, -tau, 0.0, 1e-13, tau * (1.0 + 1e-10),
                         -tau * (1.0 + 1e-10), 0.5 * tau, 3.0 * tau,
                         3.0 * tau * (1.0 + 1e-9), -2.0, -2.0 - 1e-9])
        yield tau, np.sort(rng.choice(pool, size=k))[::-1]


class TestListLoopsMatchNumpy:
    """The sign partition, the grouping, the kink flags and the sign
    convention run as loops over Python lists or in fewer numpy calls;
    each must equal the numpy formulation it replaced, bit for bit."""

    def test_partition_by_sign(self):
        rng = np.random.RandomState(41)
        for _, vals in _oracle_spectra(rng):
            eig = EigenDecomposition(vals, np.eye(vals.size))
            part = partition_by_sign(eig)
            cut = 1e-8 * (1.0 + np.abs(vals).max())
            assert part.pos == tuple(np.flatnonzero(vals > cut))
            assert part.zero == tuple(np.flatnonzero(np.abs(vals) <= cut))
            assert part.neg == tuple(np.flatnonzero(vals < -cut))

    def test_group_distinct(self):
        rng = np.random.RandomState(42)
        for _, vals in _oracle_spectra(rng):
            eig = EigenDecomposition(vals, np.eye(vals.size))
            for group_tol in (0.0, 1e-12, 1e-8, 1e-3):
                got = group_distinct(eig, group_tol)
                gap_tol = group_tol * (1.0 + np.abs(vals).max())
                cuts = [0, *(np.flatnonzero(vals[:-1] - vals[1:] > gap_tol)
                             + 1), vals.size]
                blocks = tuple(tuple(range(a, b))
                               for a, b in zip(cuts[:-1], cuts[1:]))
                # the mean, or the value of a run of equal eigenvalues
                reps = np.array([
                    vals[b[0]] if np.all(vals[list(b)] == vals[b[0]])
                    else vals[b[0]:b[-1] + 1].mean() for b in blocks])
                zero = np.flatnonzero(np.abs(reps) <= gap_tol)
                assert got.blocks == blocks
                np.testing.assert_array_equal(got.values, reps)
                assert got.zero_block == (int(zero[0]) if zero.size else None)

    def test_prox_kink_flags(self):
        rng = np.random.RandomState(43)
        for tau, vals in _oracle_spectra(rng):
            eig = EigenDecomposition(vals, np.eye(vals.size))
            for group_tol in (0.0, 1e-8, 1e-3):
                dd = prox_divided_diff(eig, tau, group_tol)
                reps = dd.blocks.values
                kink_tol = group_tol * (1.0 + np.abs(reps).max() + tau)
                flags = np.zeros(reps.size, dtype=np.int8)
                flags[np.abs(reps - tau) <= kink_tol] = 1
                flags[np.abs(reps + tau) <= kink_tol] = -1
                assert dd.kink_blocks == tuple(
                    (int(k), int(flags[k])) for k in np.flatnonzero(flags))

    def test_eig_sign_convention(self):
        rng = np.random.RandomState(44)
        for _ in range(100):
            k = rng.randint(1, 17)
            U = np.linalg.qr(rng.randn(k, k))[0]
            vals = rng.choice([-1.0, 0.0, 2.0, rng.randn()], size=k)
            for M in (rand_sym(rng, k), (U * vals) @ U.T):
                eig = eig_sym(M)
                w, V = np.linalg.eigh(as_symmetric(M))
                V = V[:, ::-1]
                anchor = np.argmax(np.abs(V), axis=0)
                signs = np.sign(V[anchor, np.arange(k)])
                signs[signs == 0.0] = 1.0
                np.testing.assert_array_equal(eig.values, w[::-1])
                np.testing.assert_array_equal(eig.basis, V * signs)
                assert eig.basis.flags.f_contiguous


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
        # modes at most 1e-12 (1 + ||M||_2) count as zero
        P = pinv_sym(np.diag([1.0, 1e-13]))
        np.testing.assert_allclose(P, np.diag([1.0, 0.0]), atol=1e-12)
        P = pinv_sym(np.diag([1e6, 1e-7]))
        np.testing.assert_allclose(P, np.diag([1e-6, 0.0]), atol=1e-18)


def test_as_symmetric_averages():
    M = np.array([[1.0, 2.0 + 1e-12], [2.0, 3.0]])
    S = as_symmetric(M)
    np.testing.assert_allclose(S, S.T, atol=0)


def test_as_symmetric_near_float_limit():
    # finite entries near the float limit must not overflow while averaging
    M = np.diag([1e308, 1.0])
    big = 1.7e308
    A = np.array([[1.0, big], [np.nextafter(big, np.inf), 1.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        S = as_symmetric(M)
        T = as_symmetric(A)
    assert np.all(np.isfinite(S))
    np.testing.assert_array_equal(S, M)
    # the asymmetric pair is halved before it is added
    assert np.all(np.isfinite(T))
    np.testing.assert_array_equal(T, T.T)


def test_as_symmetric_keeps_exactly_symmetric_input():
    # halving would round the smallest subnormal to zero
    tiny = np.nextafter(0.0, 1.0)
    M = np.array([[1.0, tiny], [tiny, 1.0]])
    S = as_symmetric(M)
    assert S is not M
    np.testing.assert_array_equal(S, M)
    # so the validating envelope gradient keeps it too
    np.testing.assert_array_equal(
        grad_moreau_env(M, 0.5), envelope_grad(eig_sym(M), M, 0.5))


def test_symmetric_part_keeps_exactly_symmetric_input():
    # adding before halving: 2 a / 2 = a, where halving first would round
    # an odd multiple of the smallest subnormal
    least = np.nextafter(0.0, 1.0)
    for odd in (1, 3, 7):
        A = np.array([[1.0, odd * least], [odd * least, -2.0]])
        S = symmetric_part(A, "A")
        assert S is not A
        np.testing.assert_array_equal(S, A)


def test_symmetric_part_near_float_limit():
    # a sum that overflows is formed by halving first, without a warning;
    # a non-finite entry is an InvalidInput that names the matrix
    big = 1.7e308
    A = np.array([[big, big], [np.nextafter(big, np.inf), -big]])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        S = symmetric_part(A, "A")
    H = 0.5 * A
    np.testing.assert_array_equal(S, H + H.T)
    for bad in (np.nan, np.inf):
        B = np.eye(2)
        B[0, 1] = bad
        with pytest.raises(InvalidInput,
                           match=r"^B contains non-finite entries$"):
            symmetric_part(B, "B")


def _symmetric_part_errstate(A):
    """(A + A^T) / 2 by the one-path form: add under ``np.errstate``, then
    halve first wherever the sum overflowed."""
    with np.errstate(over="ignore", invalid="ignore"):
        S = A + A.T
    if np.isfinite(S).all():
        return S * 0.5
    H = 0.5 * A
    return H + H.T


class TestSymmetricPartGuard:
    """``symmetric_part`` adds directly when one scan shows no entry above
    DBL_MAX/2, and takes the ``errstate`` path otherwise; both give the
    bits of the one-path form."""

    HALF_MAX = np.finfo(np.float64).max / 2.0

    @staticmethod
    def _guarded_calls(monkeypatch, A):
        """symmetric_part(A) and how many times it entered np.errstate."""
        entered = []
        errstate = np.errstate

        def counting(*args, **kwargs):
            entered.append(kwargs)
            return errstate(*args, **kwargs)

        monkeypatch.setattr(np, "errstate", counting)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            S = symmetric_part(A, "A")
        monkeypatch.setattr(np, "errstate", errstate)
        return S, len(entered)

    def test_random_matrices(self):
        rng = np.random.RandomState(51)
        for _ in range(300):
            k = rng.randint(0, 9)
            A = rng.randn(k, k) * 10.0 ** rng.uniform(-300.0, 300.0)
            S = symmetric_part(A, "A")
            assert np.array_equal(S.view(np.uint64),
                                  _symmetric_part_errstate(A).view(np.uint64))

    def test_subnormal_entries(self):
        rng = np.random.RandomState(52)
        least = np.nextafter(0.0, 1.0)
        tiny = np.finfo(np.float64).tiny
        for _ in range(200):
            k = rng.randint(1, 6)
            A = rng.randint(-9, 10, size=(k, k)) * least
            A[rng.rand(k, k) < 0.3] = tiny * rng.rand()
            S = symmetric_part(A, "A")
            assert np.array_equal(S.view(np.uint64),
                                  _symmetric_part_errstate(A).view(np.uint64))

    def test_half_max_takes_the_direct_sum(self, monkeypatch):
        h = self.HALF_MAX
        A = np.array([[h, -h], [h, -h]])
        S, guarded = self._guarded_calls(monkeypatch, A)
        assert guarded == 0
        assert np.array_equal(S, _symmetric_part_errstate(A))
        assert np.array_equal(S, np.array([[h, 0.0], [0.0, -h]]))

    def test_next_float_above_takes_the_guarded_path(self, monkeypatch):
        h = self.HALF_MAX
        above = np.nextafter(h, np.inf)
        for A in (np.array([[1.0, h], [above, 1.0]]),
                  np.array([[above, 0.0], [0.0, 1.0]]),
                  np.array([[1.0, 2.0], [2.0, -above]])):
            S, guarded = self._guarded_calls(monkeypatch, A)
            assert guarded == 1
            assert np.all(np.isfinite(S))
            assert np.array_equal(S.view(np.uint64),
                                  _symmetric_part_errstate(A).view(np.uint64))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_nonfinite_named_without_warning(self, bad):
        for k in (1, 3):
            B = np.eye(k)
            B[k - 1, 0] = bad
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                with pytest.raises(InvalidInput,
                                   match=r"^B contains non-finite entries$"):
                    symmetric_part(B, "B")
