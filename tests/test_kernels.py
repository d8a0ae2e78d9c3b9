"""Pair-table tests: frozen values and agreement with elementwise loops.

The two Hadamard tables of divided differences over a spectrum, the
positive-part table of the PSD projection and the soft-threshold table of
the nuclear-norm prox, are built with vectorized numpy.  The double loops
below spell out the same entries one pair at a time and serve as oracles.
"""

import numpy as np

from sdnop.nuclear import soft_pair_table
from sdnop.psd_cone import psd_pair_table


def psd_pair_table_loops(lam, zero_mask):
    p = lam.size
    out = np.zeros((p, p))
    for i in range(p):
        li = 0.0 if zero_mask[i] else lam[i]
        for j in range(p):
            lj = 0.0 if zero_mask[j] else lam[j]
            den = abs(li) + abs(lj)
            if den > 0.0:
                out[i, j] = (max(li, 0.0) + max(lj, 0.0)) / den
    return out


def soft_pair_table_loops(vals, tau, kink_flags):
    r = vals.size
    snapped = np.empty(r)
    pv = np.empty(r)
    for k in range(r):
        v = vals[k]
        if kink_flags[k] > 0:
            v = tau
        elif kink_flags[k] < 0:
            v = -tau
        snapped[k] = v
        a = abs(v) - tau
        pv[k] = 0.0 if a <= 0.0 else (a if v > 0.0 else -a)
    out = np.zeros((r, r))
    for k in range(r):
        for l in range(r):
            if k == l:
                if kink_flags[k] == 0 and abs(snapped[k]) > tau:
                    out[k, l] = 1.0
            else:
                den = snapped[k] - snapped[l]
                if den != 0.0:
                    out[k, l] = (pv[k] - pv[l]) / den
    return out


def test_psd_table_known_values():
    lam = np.array([1.0, 0.0, -1.0])
    mask = np.array([False, True, False])
    T = psd_pair_table(lam, mask)
    expected = np.array(
        [
            [1.0, 1.0, 0.5],
            [1.0, 0.0, 0.0],
            [0.5, 0.0, 0.0],
        ]
    )
    np.testing.assert_allclose(T, expected, atol=0)


def test_psd_table_masked_entries_treated_as_zero():
    # a tiny but unmasked eigenvalue uses the raw formula, a masked one is 0
    lam = np.array([2.0, 1e-14])
    T = psd_pair_table(lam, np.array([False, True]))
    np.testing.assert_allclose(T[0, 1], 1.0, atol=0)
    assert T[1, 1] == 0.0


def test_soft_table_known_values():
    vals = np.array([3.0, 1.0, 0.0, -1.0, -3.0])
    flags = np.array([0, 1, 0, -1, 0], dtype=np.int8)
    T = soft_pair_table(vals, 1.0, flags)
    assert T[0, 0] == 1.0
    assert T[2, 2] == 0.0
    assert T[1, 1] == 0.0 and T[3, 3] == 0.0  # kink slots left to the caller
    np.testing.assert_allclose(T[0, 1], 1.0, atol=0)
    np.testing.assert_allclose(T[0, 2], 2.0 / 3.0, atol=1e-15)
    np.testing.assert_allclose(T[0, 4], 2.0 / 3.0, atol=1e-15)
    np.testing.assert_allclose(T[1, 3], 0.0, atol=0)
    np.testing.assert_allclose(T, T.T, atol=0)


def test_soft_table_snaps_kink_values():
    # representative slightly off the kink is snapped before quotients form
    vals = np.array([2.0, 1.0 + 1e-9])
    flags = np.array([0, 1], dtype=np.int8)
    T = soft_pair_table(vals, 1.0, flags)
    np.testing.assert_allclose(T[0, 1], 1.0, atol=0)


class TestPathAgreement:
    def test_psd_paths_agree(self):
        rng = np.random.RandomState(10)
        for _ in range(50):
            p = rng.randint(1, 12)
            lam = rng.randn(p) * 3.0
            mask = rng.rand(p) < 0.3
            lam[mask] *= 1e-13
            a = psd_pair_table(lam, mask)
            b = psd_pair_table_loops(lam, mask)
            np.testing.assert_allclose(a, b, rtol=0, atol=1e-15)

    def test_soft_paths_agree(self):
        rng = np.random.RandomState(11)
        for _ in range(50):
            r = rng.randint(1, 10)
            vals = np.sort(rng.randn(r) * 2.0)[::-1].copy()
            flags = np.zeros(r, dtype=np.int8)
            for k in range(r):
                u = rng.rand()
                if u < 0.15:
                    flags[k] = 1
                elif u < 0.3:
                    flags[k] = -1
            tau = rng.rand() + 0.1
            a = soft_pair_table(vals, tau, flags)
            b = soft_pair_table_loops(vals, tau, flags)
            np.testing.assert_allclose(a, b, rtol=0, atol=1e-15)
