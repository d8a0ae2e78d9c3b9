"""Instances with one or two of the blocks F, h and g absent.

An absent F or g is a 0x0 map and m = 0 gives a (0, n) h, and every
formula runs on them unchanged.  The solver, the checks and the sweep are
pinned on generated nondegen instances (n = 8, seed 7) with each block
dropped in turn; the formulas are checked against closed forms in which
the absent blocks do not appear at all.
"""

from functools import lru_cache

import numpy as np
import pytest

from sdnop.diagnostics import (
    cone_blocks,
    nondegeneracy_check,
    rate_sweep,
    sosc_reduced_matrix,
    strong_sosc_check,
    _psd_curvature_matrix,
)
from sdnop.generator import generate_instance
from sdnop.problem import (
    MultiplierTriple,
    ShiftedPoint,
    aug_lagrangian_grad,
    aug_lagrangian_value,
    instance_from_dict,
    instance_to_dict,
    kkt_residual,
    newton_matrix_element,
)
from sdnop.solver import ALMConfig, alm_solve

from eval_oracles import lagrangian

# (n, q, m, p) -> (inner iterations per outer iteration of a default solve
# from the origin, stop of each sweep grid point)
PINNED = {
    (8, 0, 3, 3): ([2, 1, 1, 2, 2, 2, 2, 2], ("tol", "tol", "tol", "tol")),
    (8, 3, 0, 3): ([2, 1, 2, 3, 3, 1, 1, 1], ("tol", "tol", "tol", "tol")),
    (8, 3, 3, 0): ([1, 1, 1, 2, 1, 1, 1, 1], ("tol", "tol", "tol", "tol")),
    (8, 0, 0, 3): ([2, 1, 2, 2, 2, 1, 1], ("tol", "tol", "tol", "tol")),
    (8, 3, 0, 0): ([1, 1, 1, 1, 1, 1, 1], ("tol", "tol", "tol", "floor")),
    (8, 0, 3, 0): ([1, 1, 1, 1, 1, 1, 1], ("tol", "tol", "tol", "tol")),
}
SHAPES = sorted(PINNED)
GRID = (10.0, 100.0, 1000.0, 10000.0)

@lru_cache(maxsize=None)
def _instance(dims):
    return generate_instance(*dims, profile="nondegen", seed=7)


def _ids(dims):
    return "n%d-q%d-m%d-p%d" % dims


@pytest.mark.parametrize("dims", SHAPES, ids=_ids)
def test_solve_from_origin_is_pinned(dims):
    problem = _instance(dims)
    inner, _ = PINNED[dims]
    point, trace = alm_solve(problem, MultiplierTriple.zeros(problem),
                             ALMConfig(), np.zeros(problem.n))
    assert trace.stop == "tol"
    assert len(trace) == len(inner)
    assert trace.inner_iterations == inner
    assert point.residual.total <= 1e-8


@pytest.mark.parametrize("dims", SHAPES, ids=_ids)
def test_reference_checks_hold(dims):
    problem = _instance(dims)
    ref = problem.reference
    blocks = cone_blocks(problem, ref.x, ref.multipliers)
    assert nondegeneracy_check(problem, ref.x, ref.multipliers,
                               blocks=blocks).holds
    assert strong_sosc_check(problem, ref.x, ref.multipliers).holds


@pytest.mark.parametrize("dims", SHAPES, ids=_ids)
def test_sweep_stops_are_pinned(dims):
    problem = _instance(dims)
    _, stops = PINNED[dims]
    fit = rate_sweep(problem, problem.reference, GRID, seed=7)
    assert fit.stops == stops
    assert all(fit.converged)
    assert not fit.assumptions_unverified


def _point(problem, seed=3):
    rng = np.random.RandomState(seed)
    Y = rng.randn(problem.q, problem.q)
    G = rng.randn(problem.p, problem.p)
    return (rng.randn(problem.n), 0.5 * (Y + Y.T), rng.randn(problem.m),
            0.5 * (G + G.T))


@pytest.mark.parametrize("dims", SHAPES, ids=_ids)
def test_absent_blocks_are_empty_and_contribute_zero(dims):
    problem = _instance(dims)
    x, Y, mu, Gamma = _point(problem)
    pt = ShiftedPoint(problem, x, Y, mu, Gamma, 10.0)
    assert pt.Z.shape == pt.Yhat.shape == (problem.q, problem.q)
    assert pt.hx.shape == pt.muhat.shape == (problem.m,)
    assert pt.M.shape == pt.Ghat.shape == (problem.p, problem.p)
    res = kkt_residual(problem, x, Y, mu, Gamma)
    if not problem.q:
        assert res.subgradient == 0.0
    if not problem.m:
        assert res.equality == 0.0
    if not problem.p:
        assert res.cone == res.dual == res.complementarity == 0.0
        d = np.ones((problem.n, 1))
        assert _psd_curvature_matrix(problem, x, Gamma, d)[0, 0] == 0.0


def test_equality_only_formulas_match_closed_forms():
    # h alone: the classical quadratic-penalty formulas, with no trace of
    # the empty F and g blocks
    problem = _instance((8, 0, 3, 0))
    x, Y, mu, Gamma = _point(problem)
    c = 10.0
    hx = problem.h(x)
    J = problem.h_A
    assert lagrangian(problem, x, Y, mu, Gamma) == \
        problem.f(x) + float(mu @ hx)
    assert aug_lagrangian_value(problem, x, Y, mu, Gamma, c) == \
        problem.f(x) + (float(mu @ hx) + 0.5 * c * float(hx @ hx))
    np.testing.assert_array_equal(
        aug_lagrangian_grad(problem, x, Y, mu, Gamma, c),
        problem.grad_f(x) + J.T @ (mu + c * hx))
    np.testing.assert_allclose(
        newton_matrix_element(problem, x, Y, mu, Gamma, c),
        problem.f_H + c * J.T @ J, rtol=0.0, atol=1e-13)
    ref = problem.reference
    M, basis = sosc_reduced_matrix(problem, ref.x, ref.multipliers)
    np.testing.assert_allclose(M, basis.T @ problem.f_H @ basis,
                               rtol=0.0, atol=1e-14)


@pytest.mark.parametrize("dims", SHAPES, ids=_ids)
def test_round_trip_keeps_absent_blocks_empty(dims):
    problem = _instance(dims)
    data = instance_to_dict(problem)
    if not problem.m:
        assert data["h"] == []
    if not problem.q:
        assert data["F"] is None
    if not problem.p:
        assert data["g"] is None
    again = instance_from_dict(data)
    assert (again.q, again.m, again.p) == (problem.q, problem.m, problem.p)
    assert again.F_map.Ai.shape == (problem.n, problem.q, problem.q)
    assert again.g_map.Ai.shape == (problem.n, problem.p, problem.p)
    assert again.h_A.shape == (problem.m, problem.n)
