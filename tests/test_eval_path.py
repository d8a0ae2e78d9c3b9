"""The evaluation path's rewrites against the formulas they replaced.

Matrix-map contractions, the eigendecomposition's ordering and the
divided-difference expansion were rewritten to cut per-call overhead.
Each must agree bit for bit with its oracle in ``eval_oracles``.
"""

import numpy as np
import pytest

from sdnop.errors import InvalidInput
from sdnop.nuclear import prox_divided_diff
from sdnop.problem import QuadraticMatrixMap, adjoint_jac
from sdnop.spectral import as_symmetric, eig_sym

import eval_oracles as oracle


def _sym_stack(rng, *shape):
    A = rng.randn(*shape)
    return A + np.swapaxes(A, -2, -1)


def _map(rng, n, k, quadratic):
    Aij = None
    if quadratic:
        Aij = _sym_stack(rng, n, n, k, k)
        Aij = Aij + np.swapaxes(Aij, 0, 1)
    return QuadraticMatrixMap(_sym_stack(rng, k, k), _sym_stack(rng, n, k, k),
                              Aij)


def _rotated(vals, rng):
    Q, _ = np.linalg.qr(rng.randn(len(vals), len(vals)))
    return (Q * np.asarray(vals, dtype=float)) @ Q.T


@pytest.mark.parametrize("n, k", [(1, 1), (1, 4), (3, 0), (1, 0), (6, 5),
                                  (40, 16)])
@pytest.mark.parametrize("quadratic", (False, True))
def test_map_contractions_match_tensordot(n, k, quadratic):
    rng = np.random.RandomState(11 * n + k)
    mp = _map(rng, n, k, quadratic)
    for _ in range(3):
        x = rng.randn(n)
        S = _sym_stack(rng, k, k)
        np.testing.assert_array_equal(mp.value(x), oracle.map_value(mp, x))
        J = mp.jac(x)
        np.testing.assert_array_equal(J, oracle.map_jac(mp, x))
        np.testing.assert_array_equal(adjoint_jac(J, S),
                                      oracle.adjoint_jac(J, S))
        np.testing.assert_array_equal(mp.hess_contract(S),
                                      oracle.map_hess_contract(mp, S))


def test_flat_stacks_are_views():
    mp = _map(np.random.RandomState(0), 4, 3, True)
    assert np.shares_memory(mp._Ai_flat, mp.Ai)
    assert np.shares_memory(mp._Aij_flat, mp.Aij)


def _same_decomposition(new, old):
    np.testing.assert_array_equal(new.values, old.values)
    np.testing.assert_array_equal(new.basis, old.basis)
    assert new.basis.strides == old.basis.strides


@pytest.mark.parametrize("vals", [
    [2.0, 2.0, 2.0],
    [0.0, 0.0],
    [1.0, -1.0, 1.0, -1.0, 0.0],
    [5.0, 3.0, 3.0, 3.0, -2.0, -2.0, 7.0],
])
def test_eig_sym_matches_argsort_on_exact_ties(vals):
    rng = np.random.RandomState(len(vals))
    for M in (np.diag(vals), _rotated(vals, rng),
              np.kron(np.eye(2), _rotated(vals, rng))):
        _same_decomposition(eig_sym(M), oracle.eig_sym(M))


def test_eig_sym_matches_argsort_on_random_and_empty():
    rng = np.random.RandomState(5)
    for q in (0, 1, 2, 16, 40):
        M = _sym_stack(rng, q, q)
        _same_decomposition(eig_sym(M), oracle.eig_sym(M))


@pytest.mark.parametrize("group_tol", (0.0, 1e-8, 1e-3))
def test_prox_table_matches_loop_expansion(group_tol):
    rng = np.random.RandomState(9)
    # repeated eigenvalues in a rotated basis (ties up to round-off), blocks
    # on both kinks at tau = 1 and a repeated zero block
    spectra = ([3.0, 3.0, 1.0, 0.5, 0.5, 0.5, 0.0, 0.0, -1.0, -1.0, -2.0],
               [1.0, 1.0, 1.0, -1.0, -1.0], [0.2, 0.2], [4.0], [])
    for vals in spectra:
        Z = _rotated(vals, rng) if vals else np.zeros((0, 0))
        for tau in (1.0, 0.3):
            eig = eig_sym(Z)
            dd = prox_divided_diff(eig, tau, group_tol)
            np.testing.assert_array_equal(
                dd.table, oracle.prox_table(eig, tau, group_tol))
            kinks = oracle.kink_blocks(eig, tau, group_tol)
            assert dd.kink_blocks == kinks
            assert all(type(v) is int for pair in dd.kink_blocks
                       for v in pair)
            if group_tol and len(set(vals)) < len(vals):
                # the grouped case really expands a smaller block table
                assert len(dd.blocks.blocks) < eig.dim


@pytest.mark.parametrize("bad", (np.nan, np.inf, -np.inf))
def test_as_symmetric_names_non_finite_entries(bad):
    M = np.eye(3)
    M[1, 2] = bad
    with pytest.raises(InvalidInput, match=r"^M contains non-finite entries$"):
        as_symmetric(M, "M")


def test_as_symmetric_asymmetry_message():
    M = np.array([[1.0, 2.0], [3.0, 1.0]])
    with pytest.raises(InvalidInput,
                       match=r"^M is not symmetric \(asymmetry 1\.000e\+00\)$"):
        as_symmetric(M, "M")
