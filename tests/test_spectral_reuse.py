"""One eigendecomposition per shifted matrix per iterate.

The augmented Lagrangian's value, gradient, Newton element and multiplier
update all read the spectra of Z = F(x) + Y/c and M = Gamma - c g(x) from
one ShiftedPoint.  These tests check the batched Newton assembly against
the full-table einsum formulation it replaced, that sharing a point
changes no result, that the bundled solves keep their iteration counts,
and that a solve stays within its eigendecomposition and validation
budgets.

The solver's path takes each matrix as formed: Yhat without a second
symmetrization, the residual's Y+ and Gamma+ without validation, the
multiplier norms of the value once per subproblem, the problem's
constant curvature blocks once, and bases whose column signs are left
as LAPACK returns them.  Each is checked to give the bits of the
validated, uncached path.

The assembly takes each Hadamard-weighted Gram product over the support
rectangle of its table: 1 - T vanishes, to round-off, on the corner
blocks where both eigenvalues shrink on the same side of the threshold,
and theta on the block where both are negative.  The oracle sums over
every entry, so it is checked at random points, at points whose spectra
sit on the kinks with the committed zero choice, at spectra that leave
the rectangle empty or without a middle block, and with F or g absent.
The bounds, counted here from the spectrum and the kink flags, are
checked against the tables directly.
"""

import os

import numpy as np
import pytest

import sdnop.problem as problem_module
import sdnop.solver as solver
import sdnop.spectral as spectral
from sdnop.diagnostics import SWEEP_INNER
from sdnop.errors import InnerSolveError
from sdnop.generator import generate_instance
from sdnop.nuclear import (
    critical_cone_theta_contains,
    critical_cone_theta_project,
    envelope_grad,
    envelope_value,
    grad_moreau_env,
    moreau_env,
    nuclear_norm,
    prox_divided_diff,
    prox_nuclear,
    psi_conjugate,
    soft_threshold,
)
from sdnop.problem import (
    MultiplierTriple,
    ShiftedPoint,
    aug_lagrangian_grad,
    aug_lagrangian_value,
    grad_x_lagrangian,
    hess_xx_lagrangian,
    kkt_residual,
    load_instance,
    multiplier_maps,
    newton_matrix_element,
)
from sdnop.psd_cone import (
    positive_part,
    proj_bsub_element,
    project_psd,
    theta_matrix,
)
from sdnop.solver import ALMConfig, alm_solve
from sdnop.spectral import (
    EigenDecomposition,
    HadamardElement,
    eig_sym,
    partition_by_sign,
)

from conftest import make_mixed_instance
from eval_oracles import (
    hadamard_gram,
    newton_element_einsum,
    prox_table,
    theta_table,
)

INSTANCES = os.path.join(os.path.dirname(os.path.dirname(__file__)),
                         "instances")
BUNDLED = ("nondegen_small", "degen_small", "saddle_small")


# generated nondegen shapes (n, q, m, p) with F absent and with g absent
ABSENT = {"n8-q0-m3-p3": (8, 0, 3, 3), "n8-q3-m3-p0": (8, 3, 3, 0)}


def _load(name):
    if name in ABSENT:
        return generate_instance(*ABSENT[name], profile="nondegen", seed=7)
    return load_instance(os.path.join(INSTANCES, name + ".json"))


def _complement_support(dd, tau):
    """Bounds (lo, hi) such that 1 - dd.table vanishes, to round-off, on
    [0, lo)^2 and [hi, k)^2: lo counts the eigenvalues in unflagged
    blocks above tau, k - hi those in unflagged blocks below -tau, where
    the soft threshold has slope 1.  At ``group_tol`` 0 they are the
    eigenvalues above tau and below -tau."""
    kinks = {k for k, _ in dd.kink_blocks}
    size = {-1: 0, 0: 0, 1: 0}
    for k, (v, blk) in enumerate(zip(dd.blocks.values.tolist(),
                                     dd.blocks.blocks)):
        side = 0 if k in kinks else (v > tau) - (v < -tau)
        size[side] += len(blk)
    return size[1], dd.table.shape[0] - size[-1]


def _theta_support(eig):
    """hi with the theta table exactly zero on [hi, p)^2, where both
    eigenvalues are negative: the count of the positive and zero rows."""
    part = partition_by_sign(eig)
    return len(part.pos) + len(part.zero)


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


def _assert_matches_oracle(problem, x, Y, mu, Gamma, c, choice="zero"):
    # the oracle flags exact kinks only, as the element does; ``choice``
    # commits its kink blocks
    A = newton_matrix_element(problem, x, Y, mu, Gamma, c)
    ref = newton_element_einsum(problem, x, Y, mu, Gamma, c, group_tol=0.0,
                                up_choice=choice, low_choice=choice,
                                beta_choice=choice)
    err = np.abs(A - ref).max()
    assert err <= 1e-12 * np.abs(ref).max(), (c, err)


def _with_spectrum(values, rng):
    """Symmetric matrix with the given spectrum in a random orthonormal
    basis."""
    k = values.size
    U = np.linalg.qr(rng.randn(k, k))[0] if k else np.zeros((0, 0))
    return (U * values) @ U.T


def _shifted_at(problem, x, c, Z, M):
    """Multipliers Y and Gamma that put F(x) + Y/c at Z and
    Gamma - c g(x) at M."""
    return c * (Z - problem.F(x)), M + c * problem.g(x)


@pytest.mark.parametrize("name", BUNDLED + tuple(ABSENT))
def test_newton_element_matches_einsum_oracle(name):
    problem = _load(name)
    rng = np.random.RandomState(31)
    for c in (1.0, 10.0, 1e3, 1e5):
        for x, Y, mu, Gamma in _random_points(problem, rng, 4):
            _assert_matches_oracle(problem, x, Y, mu, Gamma, c)


# the element commits the zero table on every kink block
@pytest.mark.parametrize("choice", ["zero"])
@pytest.mark.parametrize("name", BUNDLED + tuple(ABSENT))
def test_committed_kink_choices_match_einsum_oracle(name, choice):
    # double eigenvalues on +tau, on -tau and on 0 of M: the kink blocks
    # sit inside the rectangle and carry weight 1 in 1 - T.  The element
    # flags exact kinks only, so Z and M are diagonal and
    # tau = 1/c a power of two: F(x) + Y/c and Gamma - c g(x) then land
    # on them exactly, and so do their computed eigenvalues
    problem = _load(name)
    ref = problem.reference
    x, mu = ref.x, ref.multipliers.mu
    for c in (1.0, 4.0, 1024.0):
        tau = 1.0 / c
        z = np.array([tau, tau, -tau, -tau, 2.0, 0.3 * tau, -1.5])
        z = z[:problem.q]
        m = np.array([0.0, 0.0, -1.0, 1.5, -2.0])[:problem.p]
        Y, Gamma = _shifted_at(problem, x, c, np.diag(z), np.diag(m))
        pt = ShiftedPoint(problem, x, Y, mu, Gamma, c)
        dd = prox_divided_diff(pt.eig_Z, tau, 0.0)
        kinks = {sign: len(dd.blocks.blocks[k]) for k, sign in dd.kink_blocks}
        assert kinks == {sign: int(np.sum(z == sign * tau))
                         for sign in (1, -1) if np.any(z == sign * tau)}
        assert np.sum(pt.eig_M.values == 0.0) == np.sum(m == 0.0)
        _assert_matches_oracle(problem, x, Y, mu, Gamma, c, choice)


@pytest.mark.parametrize("layout", ["above", "below", "split"])
@pytest.mark.parametrize("name", BUNDLED + tuple(ABSENT))
def test_rectangle_edges_match_einsum_oracle(name, layout):
    # "above" and "below" put every eigenvalue of Z beyond one kink, an
    # empty rectangle for 1 - T, with M negative (an empty one for theta)
    # or positive (the full table); "split" puts them on both sides, so
    # neither table has a middle block
    problem = _load(name)
    rng = np.random.RandomState(35)
    ref = problem.reference
    x, mu = ref.x, ref.multipliers.mu
    for c in (1.0, 10.0, 1e3):
        tau = 1.0 / c
        signs = {"above": np.ones(7), "below": -np.ones(7),
                 "split": np.array([1.0, -1.0] * 4)[:7]}[layout]
        z = signs[:problem.q] * (tau + rng.uniform(0.5, 2.0, problem.q))
        m = -signs[:problem.p] * rng.uniform(0.5, 2.0, problem.p)
        Y, Gamma = _shifted_at(problem, x, c, _with_spectrum(z, rng),
                               _with_spectrum(m, rng))
        pt = ShiftedPoint(problem, x, Y, mu, Gamma, c)
        assert _theta_support(pt.eig_M) == int(np.sum(m > 0.0))
        above = int(np.sum(z > 0.0))
        for group_tol in (0.0, 1e-8, 1e-3):
            dd = prox_divided_diff(pt.eig_Z, tau, group_tol)
            assert _complement_support(dd, tau) == (above, above)
        _assert_matches_oracle(problem, x, Y, mu, Gamma, c)


def _test_spectra(rng):
    """Descending spectra with a threshold tau: random ones, and ones
    built from eigenvalues on +-tau, at 0, within 1e-10 of +-tau and in
    near-equal pairs."""
    for _ in range(60):
        tau = 10.0 ** rng.uniform(-3.0, 0.0)
        k = rng.randint(1, 12)
        E = rng.randn(k, k)
        yield tau, eig_sym(E + E.T).values * 10.0 ** rng.uniform(-1.0, 1.0)
        pool = np.array([tau, -tau, 0.0, tau * (1.0 + 1e-10),
                         -tau * (1.0 + 1e-10), 0.5 * tau, 3.0 * tau,
                         3.0 * tau * (1.0 + 1e-9), -2.0, -2.0 - 1e-9])
        yield tau, np.sort(rng.choice(pool, size=k))[::-1]


def test_tables_vanish_outside_their_support():
    # theta is exactly 0 on [hi, p)^2.  1 - T is 0 up to the round-off of
    # a difference quotient of two rounded differences, about
    # eps (|v_a| + |v_b|) / |v_a - v_b|, which exceeds 4 eps at close
    # eigenvalues; equal representatives give exactly 0
    eps = np.finfo(float).eps
    rng = np.random.RandomState(36)
    for tau, values in _test_spectra(rng):
        eig = EigenDecomposition(values, np.eye(values.size))
        for group_tol in (0.0, 1e-8, 1e-3):
            dd = prox_divided_diff(eig, tau, group_tol)
            lo, hi = _complement_support(dd, tau)
            assert 0 <= lo <= hi <= values.size
            v = np.repeat(dd.blocks.values, [len(b) for b in dd.blocks.blocks])
            gap = np.abs(v[:, None] - v[None, :])
            mag = np.abs(v)[:, None] + np.abs(v)[None, :]
            bound = 4.0 * eps * np.maximum(
                1.0, mag / np.where(gap > 0.0, gap, np.inf))
            for choice in ("zero", "identity"):
                W = 1.0 - dd.committed_table(choice, choice)
                for corner in (np.s_[:lo, :lo], np.s_[hi:, hi:]):
                    assert np.all(np.abs(W[corner]) <= bound[corner]), \
                        (tau, values, group_tol)
        for beta in ("zero", "identity"):
            hi = _theta_support(eig)
            assert not theta_matrix(eig, beta)[hi:, hi:].any()


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
        # the residual at the update reuses the point's gradient and values
        update = (problem, x, shared.Y, shared.mu, shared.Gamma)
        np.testing.assert_array_equal(pt.grad, grad_x_lagrangian(*update))
        assert kkt_residual(*update, point=pt) == kkt_residual(*update)


def _solve_bundled(name, config=None):
    problem = _load(name)
    y0 = MultiplierTriple.zeros(problem)
    return alm_solve(problem, y0, config or ALMConfig(), np.zeros(problem.n))


@pytest.mark.parametrize("name, inner", [
    ("nondegen_small", [2, 3, 2, 2, 2, 2, 2, 2]),
    ("degen_small", [2, 1, 2, 3, 3, 1, 1, 1]),
])
def test_bundled_iteration_counts_pinned(name, inner):
    _point, trace = _solve_bundled(name)
    assert trace.inner_iterations == inner


def test_saddle_inner_failure_pinned():
    with pytest.raises(InnerSolveError) as info:
        _solve_bundled("saddle_small")
    assert len(info.value.trace) == 0
    assert info.value.stats.iterations == 100


def _counted_solve(monkeypatch, config):
    """Decompositions, Newton steps, ShiftedPoints and KKT residuals of a
    solve of nondegen_small from the origin, with its trace."""
    counts = {"eig": 0, "newton": 0, "point": 0, "residual": 0}

    def counting(fn, key):
        def wrapped(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)
        return wrapped

    monkeypatch.setattr(np.linalg, "eigh", counting(np.linalg.eigh, "eig"))
    monkeypatch.setattr(np.linalg, "eigvalsh",
                        counting(np.linalg.eigvalsh, "eig"))
    for name, key in (("_newton_direction", "newton"),
                      ("ShiftedPoint", "point"), ("kkt_residual", "residual")):
        monkeypatch.setattr(solver, name,
                            counting(getattr(solver, name), key))
    _point, trace = _solve_bundled("nondegen_small", config)
    assert counts["newton"] == sum(trace.inner_iterations)
    assert counts["residual"] == len(trace) + 1
    return counts


def test_eigendecomposition_budget(monkeypatch):
    counts = _counted_solve(monkeypatch, ALMConfig(inner=SWEEP_INNER))
    assert counts["eig"] <= 4.5 * counts["newton"]


def test_eigendecomposition_count_under_forcing(monkeypatch):
    # the forcing default takes fewer Newton steps per outer iteration,
    # while each outer residual still makes its four calls, so the ratio
    # per step is no budget here; the count itself is exact: one
    # decomposition of Z and one of M per point, four per residual
    counts = _counted_solve(monkeypatch, ALMConfig())
    assert counts["eig"] == 2 * counts["point"] + 4 * counts["residual"]
    assert (counts["eig"], counts["point"], counts["residual"]) == \
        (86, 25, 9)


def test_operators_skip_decomposition_when_given_one(monkeypatch):
    # each decomposition form runs without an eigensolver and gives the
    # bits of its public matrix form; the divided-difference table, which
    # has no matrix form, those of its loop-expansion oracle
    rng = np.random.RandomState(33)
    E = rng.randn(5, 5)
    Z = E + E.T
    eig = eig_sym(Z)
    expected = (moreau_env(Z, 0.3), grad_moreau_env(Z, 0.3),
                prox_nuclear(Z, 0.3), prox_table(eig, 0.3, 1e-8),
                project_psd(Z), proj_bsub_element(Z).table)

    def forbidden(*args, **kwargs):
        raise AssertionError("decomposed a matrix whose spectrum was given")

    monkeypatch.setattr(np.linalg, "eigh", forbidden)
    monkeypatch.setattr(np.linalg, "eigvalsh", forbidden)
    got = (envelope_value(eig, 0.3), envelope_grad(eig, Z, 0.3),
           soft_threshold(eig, 0.3), prox_divided_diff(eig, 0.3).table,
           positive_part(eig), theta_matrix(eig))
    assert got[0] == expected[0]
    for a, b in zip(got[1:], expected[1:]):
        np.testing.assert_array_equal(a, b)


def test_public_operators_validate_once(monkeypatch):
    # each public operator validates its matrix once, with the message
    # it names it by, before it decomposes it
    counts = []
    check_symmetric = spectral.check_symmetric

    def counting(M, name="matrix"):
        counts.append(name)
        return check_symmetric(M, name)

    monkeypatch.setattr(spectral, "check_symmetric", counting)
    rng = np.random.RandomState(39)
    E = rng.randn(4, 4)
    Z = E + E.T
    for op, name in ((lambda: prox_nuclear(Z, 0.3), "matrix"),
                     (lambda: moreau_env(Z, 0.3), "matrix"),
                     (lambda: grad_moreau_env(Z, 0.3), "matrix"),
                     (lambda: nuclear_norm(Z), "X"),
                     (lambda: project_psd(Z), "matrix"),
                     (lambda: proj_bsub_element(Z), "matrix")):
        counts.clear()
        op()
        assert counts == [name]


def test_direction_functions_validate_once(monkeypatch):
    # the functions of a direction H at (X, Y) validate each of X, H and Y
    # once, under its own name, H before anything tests Y; the one other
    # matrix validated is the null block of Y that the refinement of the
    # subgradient structure decomposes
    counts = []
    check_symmetric = spectral.check_symmetric

    def counting(M, name="matrix"):
        counts.append(name)
        return check_symmetric(M, name)

    monkeypatch.setattr(spectral, "check_symmetric", counting)
    X, Y = np.diag([1.0, 0.0, -1.0]), np.diag([1.0, 0.5, -1.0])
    H = np.diag([1.0, 0.0, -0.5])  # critical: zero on the interior row
    for op in (lambda: psi_conjugate(X, H, Y),
               lambda: critical_cone_theta_contains(X, Y, H),
               lambda: critical_cone_theta_project(X, Y, H)):
        counts.clear()
        op()
        assert counts == ["X", "H", "Y", "matrix"]


def test_validation_budget(monkeypatch):
    # Y and Gamma are validated where they enter: once by the residual at
    # the start, which has no point, and once by the first inner solve.
    # Every other matrix of a solve is formed by the library: the later
    # inner solves test the multipliers alm_solve formed only for
    # finiteness, and the rest is checked finite where it is symmetrized
    counts = {"check": 0, "inner": 0, "finite": 0}

    def counting(fn, key):
        def wrapped(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)
        return wrapped

    problem = _load("nondegen_small")
    check = counting(spectral.check_symmetric, "check")
    for module in (spectral, problem_module):
        monkeypatch.setattr(module, "check_symmetric", check)
    monkeypatch.setattr(solver, "inner_minimize",
                        counting(solver.inner_minimize, "inner"))
    monkeypatch.setattr(solver, "_check_formed_multipliers",
                        counting(solver._check_formed_multipliers, "finite"))
    _point, trace = alm_solve(problem, MultiplierTriple.zeros(problem),
                              ALMConfig(), np.zeros(problem.n))
    assert counts["inner"] == len(trace)
    assert counts["finite"] == counts["inner"] - 1
    assert (counts["check"], counts["inner"]) == (4, 8)


def test_generation_validation_budget(monkeypatch):
    # a coefficient stack is checked in one pass, not one check_symmetric
    # call per slice: building an instance makes the same few calls
    # (A0, f_H and the diagnostics' matrices) whatever n is
    calls = []
    check_symmetric = spectral.check_symmetric

    def counting(M, name="matrix"):
        calls.append(name)
        return check_symmetric(M, name)

    for module in (spectral, problem_module):
        monkeypatch.setattr(module, "check_symmetric", counting)
    counts = []
    for n in (40, 80):
        calls.clear()
        generate_instance(n, 16, 4, 14, profile="nondegen", seed=1)
        counts.append(len(calls))
    assert counts[0] == counts[1] <= 13


# the bundled instances, the absent-block shapes, and F and g with Aij
QUADRATIC = "mixed-quadratic"


def _load_any(name):
    if name == QUADRATIC:
        return make_mixed_instance(quadratic=True)
    return _load(name)


def newton_element_uncached(problem, x, c, pt):
    """The Newton element (exact kinks, zero tables on them) from the full
    tables, with the Lagrangian curvature from ``hess_xx_lagrangian`` and
    Jh^T Jh formed at x, as before the problem kept them.  The support
    bounds are counted on the spectra: the eigenvalues of Z beyond +-tau,
    and the nonnegative ones of M."""
    A = hess_xx_lagrangian(problem, x, pt.Yhat, pt.muhat, pt.Ghat)
    z = pt.eig_Z.values
    dd = prox_divided_diff(pt.eig_Z, pt.tau, 0.0)
    A = A + c * hadamard_gram(pt.eig_Z.basis, pt.jac_F,
                              1.0 - dd.committed_table("zero", "zero"),
                              int(np.sum(z > pt.tau)),
                              z.size - int(np.sum(z < -pt.tau)))
    J = problem.h_A
    A = A + c * (J.T @ J)
    A = A + c * hadamard_gram(pt.eig_M.basis, pt.jac_g,
                              theta_table(pt.eig_M, 0.0), 0,
                              int(np.sum(pt.eig_M.values >= 0.0)))
    return 0.5 * (A + A.T)


@pytest.mark.parametrize("name", BUNDLED + tuple(ABSENT) + (QUADRATIC,))
def test_hot_path_equals_validated_path(name):
    problem = _load_any(name)
    rng = np.random.RandomState(37)
    for c in (10.0, 1e3):
        points = list(_random_points(problem, rng, 4))
        x0, Y, mu, Gamma = points[0]
        first = ShiftedPoint(problem, x0, Y, mu, Gamma, c)
        for x, _, _, _ in points[1:]:
            args = (problem, x, Y, mu, Gamma, c)
            # as inner_minimize builds its points: the norms of Y and
            # Gamma come from the subproblem's first point
            pt = ShiftedPoint(*args, sq_norms=first.sq_norms)
            assert np.array_equal(pt.Yhat, grad_moreau_env(pt.Z, 1.0 / c))
            assert aug_lagrangian_value(*args, point=pt) == \
                aug_lagrangian_value(*args)
            assert np.array_equal(
                newton_matrix_element(*args, point=pt),
                newton_element_uncached(problem, x, c, pt))
            up = multiplier_maps(*args, point=pt)
            update = (problem, x, up.Y, up.mu, up.Gamma)
            shared = kkt_residual(*update, point=pt).as_dict()
            fresh = kkt_residual(*update).as_dict()
            assert np.array_equal(list(shared.values()),
                                  list(fresh.values()))


def test_hot_path_keeps_subnormal_entries():
    # Z = F(0) + Y/c has a subnormal off-diagonal entry, and Yhat there
    # an odd multiple of the smallest subnormal, which halving would
    # round; Z is formed by adding before halving and as_symmetric leaves
    # an exactly symmetric matrix unchanged, so both keep it and the
    # validated path gives the same bits
    problem = make_mixed_instance()
    x = np.zeros(problem.n)
    ref = problem.reference.multipliers
    least = np.nextafter(0.0, 1.0)
    for y, c, odd in ((6, 2.5, 5), (6, 3.5, 7), (3, 1.0, 3)):
        Y = np.array([[0.3, y * least], [y * least, -0.2]])
        args = (problem, x, Y, ref.mu, ref.Gamma, c)
        pt = ShiftedPoint(*args)
        assert np.array_equal(pt.Z, problem.F(x) + Y / c)
        assert 0.0 < pt.Z[0, 1] < np.finfo(np.float64).tiny
        assert pt.Yhat[0, 1] == odd * least
        assert np.array_equal(pt.Yhat, grad_moreau_env(pt.Z, 1.0 / c))
        up = multiplier_maps(*args, point=pt)
        update = (problem, x, up.Y, up.mu, up.Gamma)
        shared = kkt_residual(*update, point=pt).as_dict()
        fresh = kkt_residual(*update).as_dict()
        assert np.array_equal(list(shared.values()), list(fresh.values()))


def _flipped(eig, rng):
    """``eig`` with random column signs, the first column always flipped,
    kept column-major."""
    signs = rng.choice((-1.0, 1.0), eig.dim)
    signs[:1] = -1.0
    return EigenDecomposition(eig.values,
                              np.multiply(eig.basis, signs, order="F"))


@pytest.mark.parametrize("name", BUNDLED + tuple(ABSENT) + (QUADRATIC,))
def test_column_signs_change_no_bit(name):
    # what the solver forms from a basis is even in each column, and IEEE
    # rounding is symmetric in sign, so the sign fix can be left out
    problem = _load_any(name)
    rng = np.random.RandomState(38)
    for c in (10.0, 1e3):
        tau = 1.0 / c
        for x, Y, mu, Gamma in _random_points(problem, rng, 3):
            pt = ShiftedPoint(problem, x, Y, mu, Gamma, c)
            flip = ShiftedPoint(problem, x, Y, mu, Gamma, c)
            flip.eig_Z = _flipped(pt.eig_Z, rng)
            flip.eig_M = _flipped(pt.eig_M, rng)
            for eig in (pt.eig_Z, pt.eig_M, flip.eig_Z, flip.eig_M):
                assert eig.basis.flags.f_contiguous
            H = rng.randn(problem.p, problem.p)
            H = H + H.T
            pairs = [
                (soft_threshold(e, tau) for e in (pt.eig_Z, flip.eig_Z)),
                (positive_part(e) for e in (pt.eig_M, flip.eig_M)),
                (prox_divided_diff(e, tau, 0.0).table for e in
                 (pt.eig_Z, flip.eig_Z)),
                (HadamardElement(e.basis, theta_table(e, 0.0)).apply(H)
                 for e in (pt.eig_M, flip.eig_M)),
                (p.Yhat for p in (pt, flip)),
                (p.Ghat for p in (pt, flip)),
                (newton_matrix_element(problem, x, Y, mu, Gamma, c, point=p)
                 for p in (pt, flip)),
            ]
            for a, b in pairs:
                assert np.array_equal(a, b)
