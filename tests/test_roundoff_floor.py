"""Round-off floor stops of the inner and the outer loop.

With penalty c the computed gradient of the augmented Lagrangian is only
resolved to about eps (||grad f|| + c ||DF|| ||Z||_2 + ||Jh|| ||muhat|| +
||Dg|| ||M||_2).  Once that floor lies above the absolute inner tolerance,
the inner loop stops there, and the outer loop counts a KKT residual within
a small multiple of it as converged.  On small data and small penalties the
floor lies below the tolerances, so nothing changes there.
"""

import json
import math
import os

import numpy as np
import pytest

from sdnop import cli, solver
from sdnop.diagnostics import (
    SWEEP_INNER,
    _contraction_ratios,
    _unit_perturbation,
    rate_sweep,
)
from sdnop.generator import generate_instance
from sdnop.problem import (
    MultiplierTriple,
    ShiftedPoint,
    aug_lagrangian_grad,
    load_instance,
    save_instance,
)
from sdnop.solver import (
    ALMConfig,
    InnerConfig,
    _STAGNATION_FACTOR,
    _inner_stop,
    alm_solve,
    inner_minimize,
)

NONDEGEN = os.path.join(os.path.dirname(os.path.dirname(__file__)),
                        "instances", "nondegen_small.json")
SWEEP_GRID = (10.0, 100.0, 1000.0, 10000.0)


@pytest.fixture(scope="module")
def sweep_instance():
    """The (24,10,3,8) nondegen seed-7 instance the benchmark sweeps."""
    return generate_instance(24, 10, 3, 8, profile="nondegen", seed=7)


def _perturbed_start(problem, delta=1e-2, seed=7):
    ref = problem.reference.multipliers
    u = _unit_perturbation(problem, seed)
    return MultiplierTriple(ref.Y + delta * u.Y, ref.mu + delta * u.mu,
                            ref.Gamma + delta * u.Gamma)


def _floor_oracle(problem, x0, x, y, c):
    """The floor from its definition: data norms at x0, spectra at x."""
    pt = ShiftedPoint(problem, x, y.Y, y.mu, y.Gamma, c)
    Z = problem.F(x) + y.Y / c
    M = y.Gamma - c * problem.g(x)
    return np.finfo(float).eps * (
        np.linalg.norm(problem.grad_f(x0))
        + c * np.linalg.norm(problem.jac_F(x0).ravel()) * np.linalg.norm(Z, 2)
        + np.linalg.norm(problem.h_A) * np.linalg.norm(pt.muhat)
        + np.linalg.norm(problem.jac_g(x0).ravel()) * np.linalg.norm(M, 2))


class TestInnerStop:
    def test_reasons(self):
        assert _inner_stop(1e-13, 1e-12, 5e-12) == "tol"
        assert _inner_stop(3e-12, 1e-12, 5e-12) == "floor"
        assert _inner_stop(6e-12, 1e-12, 5e-12) is None

    def test_floor_stop_needs_finite_numbers(self):
        # data near the float limit overflow the floor; no gradient meets it
        assert _inner_stop(1e300, 1e-12, math.inf) is None
        assert _inner_stop(math.inf, 1e-12, math.inf) is None
        assert _inner_stop(math.nan, 1e-12, 5e-12) is None
        assert _inner_stop(1e-13, 1e-12, math.inf) == "tol"

    def test_small_data_stop_on_tol(self):
        problem = load_instance(NONDEGEN)
        y = _perturbed_start(problem)
        x0 = problem.reference.x
        x, stats = inner_minimize(problem, y, 100.0, x0, InnerConfig())
        assert stats.stop == "tol"
        assert stats.grad_norm <= 1e-12
        assert stats.floor < 1e-12
        assert stats.floor == pytest.approx(
            _floor_oracle(problem, x0, x, y, 100.0), rel=1e-12)

    def test_large_penalty_stops_at_floor(self, sweep_instance):
        # at c=1e4 the gradient cannot get below about 2e-12, so the
        # absolute 1e-12 alone would run 100 steps and fail; the loop
        # stops where a step no longer halves a gradient within
        # _STAGNATION_FACTOR of the floor (see TestStagnationStop)
        problem = sweep_instance
        y = _perturbed_start(problem)
        x0 = problem.reference.x
        x, stats = inner_minimize(problem, y, 1e4, x0, InnerConfig())
        assert stats.stop == "floor"
        assert 1e-12 < stats.grad_norm <= _STAGNATION_FACTOR * stats.floor
        assert stats.iterations < 10
        assert stats.floor == pytest.approx(
            _floor_oracle(problem, x0, x, y, 1e4), rel=1e-12)


class TestStagnationStop:
    """A Newton step whose full step fails to halve a gradient norm
    already within ``_STAGNATION_FACTOR`` of the round-off floor ends the
    inner solve "floor" at the point it left from."""

    @staticmethod
    def _logged(monkeypatch):
        """Log each Newton step as (x, grad, d)."""
        steps = []
        element = solver.newton_matrix_element
        direction = solver._newton_direction

        def logging_element(problem, x, *args, **kwargs):
            steps.append([np.array(x)])
            return element(problem, x, *args, **kwargs)

        def logging_direction(A, grad, certified):
            out = direction(A, grad, certified)
            steps[-1] += [grad, out[0]]
            return out

        monkeypatch.setattr(solver, "newton_matrix_element", logging_element)
        monkeypatch.setattr(solver, "_newton_direction", logging_direction)
        return steps

    @staticmethod
    def _halved(problem, y, c, steps):
        """Whether each step's full step x + d halves the gradient norm."""
        return [np.linalg.norm(aug_lagrangian_grad(problem, x + d, y.Y, y.mu,
                                                   y.Gamma, c))
                <= 0.5 * np.linalg.norm(grad)
                for x, grad, d in steps]

    def test_large_penalty_stops_at_pre_step_point(self, sweep_instance,
                                                   monkeypatch):
        # the sweep's first inner solve at c=1e4: the second step's full
        # step takes the gradient norm only from 1.36e-11 to 7.4e-12, and
        # the norm already lies within 4 floors of 5.98e-12
        problem = sweep_instance
        y = _perturbed_start(problem)
        x0 = problem.reference.x
        steps = self._logged(monkeypatch)
        x, stats = inner_minimize(problem, y, 1e4, x0, SWEEP_INNER)
        assert self._halved(problem, y, 1e4, steps) == [True, False]
        assert stats.stop == "floor"
        assert stats.iterations == len(steps) - 1
        last_x, last_grad, _ = steps[-1]
        assert np.array_equal(x, last_x)
        assert stats.grad_norm == np.linalg.norm(last_grad)
        assert stats.floor < stats.grad_norm \
            <= _STAGNATION_FACTOR * stats.floor
        assert stats.floor == pytest.approx(
            _floor_oracle(problem, x0, x, y, 1e4), rel=1e-12)

    def test_idle_where_full_steps_halve(self, sweep_instance, monkeypatch):
        # every inner solve of the sweep's c=100 point halves the gradient
        # at each full step and stops on the tolerance
        problem = sweep_instance
        y = _perturbed_start(problem)
        steps = self._logged(monkeypatch)
        stops = []
        inner = solver.inner_minimize

        def logging_inner(problem, y, c, x0, cfg, outer_residual=None):
            start = len(steps)
            x, stats = inner(problem, y, c, x0, cfg, outer_residual)
            stops.append(stats.stop)
            assert all(self._halved(problem, y, c, steps[start:]))
            return x, stats

        monkeypatch.setattr(solver, "inner_minimize", logging_inner)
        config = ALMConfig(c0=100.0, c_max=100.0, outer_tol=1e-12,
                           max_outer=60, inner=SWEEP_INNER)
        _, trace = alm_solve(problem, y, config, problem.reference.x)
        assert trace.stop == "tol"
        assert stops == ["tol"] * len(trace) == ["tol"] * 8


class TestOuterStop:
    def test_bundled_solve_stops_on_tol(self):
        problem = load_instance(NONDEGEN)
        point, trace = alm_solve(problem, MultiplierTriple.zeros(problem),
                                 ALMConfig(), np.zeros(problem.n))
        assert trace.stop == "tol"
        assert point.residual.total <= 1e-8

    @pytest.mark.parametrize("c, iterations", [(1e3, 4), (1e4, 2)])
    def test_large_penalty_stops_at_floor(self, sweep_instance, c,
                                          iterations):
        # the 1e-12 target lies at the KKT residual's floor here: on the
        # target alone c=1e3 wanders 7 more outer iterations and c=1e4
        # never finishes its first inner solve.  The sweep's exact inner
        # solves are used: with the forcing default c=1e4 takes 3
        problem = sweep_instance
        config = ALMConfig(c0=c, c_max=c, outer_tol=1e-12, max_outer=60,
                           inner=SWEEP_INNER)
        point, trace = alm_solve(problem, _perturbed_start(problem), config,
                                 problem.reference.x,
                                 reference=problem.reference)
        assert trace.stop == "floor"
        assert len(trace) == iterations
        assert 1e-12 < point.residual.total < 1e-10


class TestSweep:
    def test_benchmark_sweep_instance(self, sweep_instance):
        problem = sweep_instance
        fit = rate_sweep(problem, problem.reference, SWEEP_GRID, seed=7)
        assert all(fit.converged)
        assert fit.stops == ("tol", "tol", "floor", "floor")
        assert fit.iterations == (27, 8, 4, 2)
        # the three smaller penalties keep the ratios of the tol-only rule
        assert fit.ratios[:3] == pytest.approx(
            (0.5555381806855726, 0.10285104885140617, 0.004753999564368182),
            rel=1e-9)
        ratios = np.array(fit.ratios)
        assert np.all((ratios > 0.0) & (ratios < 1.0))
        assert np.all(np.diff(ratios) < 0.0)
        assert -1.25 <= fit.slope <= -0.80
        assert fit.fit_points == (0, 1, 2, 3)

    @pytest.mark.parametrize("seed", [7, 11])
    def test_mid_size_sweep_keeps_every_point(self, seed):
        # c=1e3 and c=1e4 reach the round-off floor here; a stop on the
        # absolute tolerances alone loses both, and with seed 11 the slope
        # through the two points left (-0.73) falls outside the band
        problem = generate_instance(40, 16, 4, 14, profile="nondegen",
                                    seed=seed)
        fit = rate_sweep(problem, problem.reference, SWEEP_GRID, seed=7)
        assert all(fit.converged)
        assert fit.stops[-1] == "floor"
        ratios = np.array(fit.ratios)
        assert np.all((ratios > 0.0) & (ratios < 1.0))
        assert np.all(np.diff(ratios) < 0.0)
        assert -1.25 <= fit.slope <= -0.80
        assert fit.r_squared > 0.9

    def test_ratios_end_at_first_non_contracting_step(self):
        # a run at its round-off floor wanders; from the first step that
        # does not contract on, the ratios measure noise
        dists = [1e-2, 1e-4, 1e-6, 5e-7, 8e-7, 1e-7]
        assert _contraction_ratios(dists, 1e-11) == pytest.approx(
            [1e-2, 1e-2, 0.5])

    def test_ratios_skip_distances_below_floor(self):
        dists = [1e-2, 1e-6, 1e-10, 3e-12, 1e-12]
        assert _contraction_ratios(dists, 1e-11) == pytest.approx(
            [1e-4, 1e-4])


class TestCommandLine:
    def test_large_default_solve_converges(self, tmp_path):
        # the smallest generated shape whose default solve reaches the
        # floor: at c=100 its gradient cannot get below about 1.5e-12
        problem = generate_instance(140, 46, 10, 46, profile="nondegen",
                                    seed=7)
        path = str(tmp_path / "instance.json")
        save_instance(problem, path)
        out = str(tmp_path / "run")
        assert cli.main(["solve", path, "--out", out]) == cli.EXIT_OK
        with open(os.path.join(out, "solution.json")) as fh:
            solution = json.load(fh)
        assert solution["converged"] is True
        assert solution["stop"] in ("tol", "floor")
        assert solution["residual"]["total"] <= 1e-8

    def test_fit_names_stop_reasons(self, tmp_path):
        out = str(tmp_path / "run")
        code = cli.main(["rate-sweep", NONDEGEN, "--grid", "0.001,10,1e4",
                         "--seed", "7", "--out", out])
        assert code == cli.EXIT_OK
        with open(os.path.join(out, "fit.json")) as fh:
            fit = json.load(fh)
        assert fit["stops"] == ["max_outer", "tol", "floor"]
        assert fit["converged"] == [False, True, True]
        assert fit["flags"]["excluded"] == [0.001]
