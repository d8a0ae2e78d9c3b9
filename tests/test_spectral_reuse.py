"""One eigendecomposition per shifted matrix per iterate.

The augmented Lagrangian's value, gradient, Newton element and multiplier
update all read the spectra of Z = F(x) + Y/c and M = Gamma - c g(x) from
one ShiftedPoint.  These tests check the batched Newton assembly against
the einsum formulation it replaced, that sharing a point changes no
result, that the bundled solves keep their iteration counts, and that a
solve stays within its eigendecomposition budget.
"""

import os

import numpy as np
import pytest

import sdnop.solver as solver
from sdnop.errors import InnerSolveError
from sdnop.nuclear import (
    grad_moreau_env,
    moreau_env,
    prox_divided_diff,
    prox_nuclear,
)
from sdnop.problem import (
    MultiplierTriple,
    ShiftedPoint,
    aug_lagrangian_grad,
    aug_lagrangian_value,
    hess_xx_lagrangian,
    load_instance,
    multiplier_maps,
    newton_matrix_element,
)
from sdnop.psd_cone import proj_bsub_element, project_psd
from sdnop.solver import ALMConfig, alm_solve
from sdnop.spectral import choice_table, eig_sym

INSTANCES = os.path.join(os.path.dirname(os.path.dirname(__file__)),
                         "instances")
BUNDLED = ("nondegen_small", "degen_small", "saddle_small")


def _load(name):
    return load_instance(os.path.join(INSTANCES, name + ".json"))


def newton_element_einsum(problem, x, Y, mu, Gamma, c, group_tol=1e-8):
    """Reference assembly: every operator decomposes its own argument and
    the curvature blocks are contracted with einsum."""
    tau = 1.0 / c
    Yhat = grad_moreau_env(problem.F(x) + Y / c, tau) if problem.q \
        else np.zeros((0, 0))
    muhat = mu + c * problem.h(x) if problem.m else np.zeros(0)
    Ghat = project_psd(Gamma - c * problem.g(x))[0] if problem.p \
        else np.zeros((0, 0))
    A = hess_xx_lagrangian(problem, x, Yhat, muhat, Ghat)
    if problem.q:
        dd = prox_divided_diff(problem.F(x) + Y / c, tau, group_tol)
        T = dd.table.copy()
        for k, _sign in dd.kink_blocks:
            idx = list(dd.blocks.blocks[k])
            T[np.ix_(idx, idx)] = choice_table("zero", len(idx), "choice")
        Gs = np.einsum("ra,iab,bs->irs", dd.eig.basis.T, problem.jac_F(x),
                       dd.eig.basis, optimize=True)
        A = A + c * np.einsum("ikl,kl,jkl->ij", Gs, 1.0 - T, Gs,
                              optimize=True)
    if problem.m:
        J = problem.jac_h(x)
        A = A + c * (J.T @ J)
    if problem.p:
        M = Gamma - c * problem.g(x)
        scale = 1.0 + float(np.linalg.norm(M, 2)) if M.size else 1.0
        elem = proj_bsub_element(M, "zero", tol=group_tol * scale)
        P = elem.basis
        Cs = np.einsum("ra,iab,bs->irs", P.T, problem.jac_g(x), P,
                       optimize=True)
        A = A + c * np.einsum("ikl,kl,jkl->ij", Cs, elem.theta.entries, Cs,
                              optimize=True)
    return 0.5 * (A + A.T)


def _random_points(problem, rng, count):
    ref = problem.reference
    for _ in range(count):
        x = ref.x + 0.3 * rng.randn(problem.n)
        E = rng.randn(problem.q, problem.q)
        Y = ref.multipliers.Y + 0.1 * (E + E.T)
        mu = ref.multipliers.mu + 0.1 * rng.randn(problem.m)
        E = rng.randn(problem.p, problem.p)
        Gamma = ref.multipliers.Gamma + 0.1 * (E + E.T)
        yield x, Y, mu, Gamma


@pytest.mark.parametrize("name", BUNDLED)
def test_newton_element_matches_einsum_oracle(name):
    problem = _load(name)
    rng = np.random.RandomState(31)
    for c in (1.0, 10.0, 1e3, 1e5):
        for x, Y, mu, Gamma in _random_points(problem, rng, 4):
            for group_tol in (0.0, 1e-8):
                A = newton_matrix_element(problem, x, Y, mu, Gamma, c,
                                          group_tol=group_tol)
                ref = newton_element_einsum(problem, x, Y, mu, Gamma, c,
                                            group_tol=group_tol)
                err = np.abs(A - ref).max()
                assert err <= 1e-12 * np.abs(ref).max(), (c, err)


@pytest.mark.parametrize("name", BUNDLED)
def test_shared_point_changes_nothing(name):
    problem = _load(name)
    rng = np.random.RandomState(32)
    c = 10.0
    for x, Y, mu, Gamma in _random_points(problem, rng, 3):
        pt = ShiftedPoint(problem, x, Y, mu, Gamma, c)
        args = (problem, x, Y, mu, Gamma, c)
        assert aug_lagrangian_value(*args, point=pt) == \
            aug_lagrangian_value(*args)
        np.testing.assert_array_equal(aug_lagrangian_grad(*args, point=pt),
                                      aug_lagrangian_grad(*args))
        np.testing.assert_array_equal(newton_matrix_element(*args, point=pt),
                                      newton_matrix_element(*args))
        shared = multiplier_maps(*args, point=pt)
        fresh = multiplier_maps(*args)
        for a, b in ((shared.Y, fresh.Y), (shared.mu, fresh.mu),
                     (shared.Gamma, fresh.Gamma)):
            np.testing.assert_array_equal(a, b)


def _solve_bundled(name):
    problem = _load(name)
    y0 = MultiplierTriple.zeros(problem)
    return alm_solve(problem, y0, ALMConfig(), np.zeros(problem.n))


@pytest.mark.parametrize("name, inner", [
    ("nondegen_small", [5, 4, 3, 3, 3, 2, 2, 2]),
    ("degen_small", [5, 3, 4, 4, 4, 2, 2, 1]),
])
def test_bundled_iteration_counts_pinned(name, inner):
    _point, trace = _solve_bundled(name)
    assert trace.inner_iterations == inner


def test_saddle_inner_failure_pinned():
    with pytest.raises(InnerSolveError) as info:
        _solve_bundled("saddle_small")
    assert len(info.value.trace) == 0
    assert info.value.stats.iterations == 100


def test_eigendecomposition_budget(monkeypatch):
    counts = {"eig": 0, "newton": 0}

    def counting(fn, key):
        def wrapped(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)
        return wrapped

    monkeypatch.setattr(np.linalg, "eigh", counting(np.linalg.eigh, "eig"))
    monkeypatch.setattr(np.linalg, "eigvalsh",
                        counting(np.linalg.eigvalsh, "eig"))
    monkeypatch.setattr(solver, "_newton_direction",
                        counting(solver._newton_direction, "newton"))
    _point, trace = _solve_bundled("nondegen_small")
    assert counts["newton"] == sum(trace.inner_iterations)
    assert counts["eig"] <= 4.5 * counts["newton"]


def test_operators_skip_decomposition_when_given_one(monkeypatch):
    rng = np.random.RandomState(33)
    E = rng.randn(5, 5)
    Z = E + E.T
    eig = eig_sym(Z)
    expected = (moreau_env(Z, 0.3), grad_moreau_env(Z, 0.3),
                prox_nuclear(Z, 0.3)[0], prox_divided_diff(Z, 0.3).table,
                project_psd(Z)[0], proj_bsub_element(Z).theta.entries)

    def forbidden(*args, **kwargs):
        raise AssertionError("decomposed a matrix whose spectrum was given")

    monkeypatch.setattr(np.linalg, "eigh", forbidden)
    got = (moreau_env(Z, 0.3, eig=eig), grad_moreau_env(Z, 0.3, eig=eig),
           prox_nuclear(Z, 0.3, eig=eig)[0],
           prox_divided_diff(Z, 0.3, eig=eig).table,
           project_psd(Z, eig=eig)[0],
           proj_bsub_element(Z, eig=eig).theta.entries)
    assert got[0] == expected[0]
    for a, b in zip(got[1:], expected[1:]):
        np.testing.assert_array_equal(a, b)
