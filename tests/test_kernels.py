"""Pair-table tests: frozen values and agreement with elementwise loops.

The two Hadamard tables of divided differences over a spectrum, the
positive-part table of the PSD projection and the soft-threshold table of
the nuclear-norm prox, are built with vectorized numpy, over the full
square or a rectangle of it.  The double loops below spell out the same
entries one pair at a time and serve as oracles.  The tables are pair
rules; snapping values near a kink or near zero onto it is their
callers' work (``prox_divided_diff``, ``theta_matrix``), tested here
through them.
"""

import numpy as np

from sdnop.nuclear import prox_divided_diff, soft_pair_table
from sdnop.psd_cone import psd_pair_table, theta_matrix
from sdnop.spectral import EigenDecomposition


def psd_pair_table_loops(lam, hi=None):
    p = lam.size
    hi = p if hi is None else hi
    out = np.zeros((hi, p))
    for i in range(hi):
        for j in range(p):
            den = abs(lam[i]) + abs(lam[j])
            if den > 0.0:
                out[i, j] = (max(lam[i], 0.0) + max(lam[j], 0.0)) / den
    return out


def soft_pair_table_loops(vals, tau, lo=0, hi=None):
    r = vals.size
    hi = r if hi is None else hi
    pv = np.empty(r)
    for k in range(r):
        a = abs(vals[k]) - tau
        pv[k] = 0.0 if a <= 0.0 else (a if vals[k] > 0.0 else -a)
    out = np.zeros((hi, r - lo))
    for k in range(hi):
        for l in range(lo, r):
            den = vals[k] - vals[l]
            if den != 0.0:
                out[k, l - lo] = (pv[k] - pv[l]) / den
            elif abs(vals[k]) > tau:
                out[k, l - lo] = 1.0
    return out


def test_psd_table_known_values():
    lam = np.array([1.0, 0.0, -1.0])
    T = psd_pair_table(lam)
    expected = np.array(
        [
            [1.0, 1.0, 0.5],
            [1.0, 0.0, 0.0],
            [0.5, 0.0, 0.0],
        ]
    )
    np.testing.assert_allclose(T, expected, atol=0)
    np.testing.assert_array_equal(psd_pair_table(lam, 2), expected[:2])


def test_psd_table_masked_entries_treated_as_zero():
    # a tiny eigenvalue outside theta_matrix's zero tolerance, 1e-8 (1 +
    # max |l_i|) = 3e-8 here, uses the raw formula, one inside it is
    # snapped to 0 first
    eig = EigenDecomposition(np.array([2.0, 1e-7]), np.eye(2))
    raw = psd_pair_table(eig.values)
    assert raw[0, 1] == 1.0 and raw[1, 1] == 1.0
    np.testing.assert_array_equal(theta_matrix(eig).entries, raw)
    eig = EigenDecomposition(np.array([2.0, 1e-14]), np.eye(2))
    assert psd_pair_table(eig.values)[1, 1] == 1.0
    T = theta_matrix(eig).entries
    assert T[0, 1] == 1.0 and T[1, 1] == 0.0


def test_soft_table_known_values():
    vals = np.array([3.0, 1.0, 0.0, -1.0, -3.0])
    T = soft_pair_table(vals, 1.0)
    assert T[0, 0] == 1.0
    assert T[2, 2] == 0.0
    assert T[1, 1] == 0.0 and T[3, 3] == 0.0  # the committed zero on a kink
    np.testing.assert_allclose(T[0, 1], 1.0, atol=0)
    np.testing.assert_allclose(T[0, 2], 2.0 / 3.0, atol=1e-15)
    np.testing.assert_allclose(T[0, 4], 2.0 / 3.0, atol=1e-15)
    np.testing.assert_allclose(T[1, 3], 0.0, atol=0)
    np.testing.assert_allclose(T, T.T, atol=0)


def test_soft_table_equal_values_take_the_slope():
    vals = np.array([2.0, 2.0, 1.0, 1.0, 0.5, 0.5, -2.0, -2.0])
    T = soft_pair_table(vals, 1.0)
    for k in range(0, 8, 2):
        assert T[k, k + 1] == T[k + 1, k] == T[k, k]
    assert [T[k, k] for k in range(0, 8, 2)] == [1.0, 0.0, 0.0, 1.0]
    np.testing.assert_array_equal(soft_pair_table(vals, 1.0, 2, 6),
                                  T[:6, 2:])


def test_soft_table_snaps_kink_values():
    # a representative slightly off the kink is snapped before quotients
    # form
    eig = EigenDecomposition(np.array([2.0, 1.0 + 1e-9]), np.eye(2))
    T = prox_divided_diff(eig, 1.0).table
    assert T[0, 1] == 1.0 and T[1, 1] == 0.0


class TestPathAgreement:
    def test_psd_paths_agree(self):
        rng = np.random.RandomState(10)
        for _ in range(50):
            p = rng.randint(1, 12)
            lam = rng.randn(p) * 3.0
            lam[rng.rand(p) < 0.3] = 0.0
            for hi in (None, rng.randint(0, p + 1)):
                a = psd_pair_table(lam, hi)
                b = psd_pair_table_loops(lam, hi)
                np.testing.assert_allclose(a, b, rtol=0, atol=1e-15)

    def test_soft_paths_agree(self):
        rng = np.random.RandomState(11)
        for _ in range(50):
            r = rng.randint(1, 10)
            tau = rng.rand() + 0.1
            vals = rng.randn(r) * 2.0
            # values on the kinks and exactly equal pairs
            u = rng.rand(r)
            vals[u < 0.15] = tau
            vals[(u >= 0.15) & (u < 0.3)] = -tau
            vals[(u >= 0.3) & (u < 0.4)] = vals[0]
            vals = np.sort(vals)[::-1].copy()
            lo = rng.randint(0, r + 1)
            for lo, hi in ((0, None), (lo, rng.randint(lo, r + 1))):
                a = soft_pair_table(vals, tau, lo, hi)
                b = soft_pair_table_loops(vals, tau, lo, hi)
                np.testing.assert_allclose(a, b, rtol=0, atol=1e-15)
