"""Solver tests: inner Newton loop, penalty policy, outer ALM loop.

The equality-only path is checked iterate-for-iterate against a hand-rolled
classical multiplier-method loop whose inner minimizer is an exact linear
solve.
"""

import os
from types import SimpleNamespace

import numpy as np
import pytest

from sdnop import diagnostics, generator, solver
from sdnop.errors import InnerSolveError, InvalidInput, MaxIterations
from sdnop.problem import (
    MultiplierTriple,
    QuadraticProblem,
    ShiftedPoint,
    aug_lagrangian_value,
    check_multipliers,
    dual_value_and_grad,
    kkt_residual,
    load_instance,
    multiplier_maps,
)
from sdnop.solver import (
    MAX_PENALTY,
    ALMConfig,
    InnerConfig,
    alm_solve,
    inner_minimize,
    penalty_update,
)

INSTANCES = os.path.join(os.path.dirname(os.path.dirname(__file__)),
                         "instances")


class TestConfigs:
    def test_inner_validation(self):
        InnerConfig()  # defaults are valid
        with pytest.raises(InvalidInput):
            InnerConfig(grad_tol=0.0)
        with pytest.raises(InvalidInput):
            InnerConfig(max_iter=0)

    def test_alm_validation(self):
        ALMConfig()
        with pytest.raises(InvalidInput):
            ALMConfig(c0=-1.0)
        with pytest.raises(InvalidInput):
            ALMConfig(c0=10.0, c_max=1.0)

    @pytest.mark.parametrize("cls, key, value", [
        (InnerConfig, "max_iter", 2.5),
        (InnerConfig, "max_iter", True),
        (InnerConfig, "grad_tol", float("inf")),
        (InnerConfig, "grad_tol_rel", float("nan")),
        (ALMConfig, "max_outer", 2.5),
        (ALMConfig, "c0", "10"),
        (ALMConfig, "c0", float("inf")),
        (ALMConfig, "outer_tol", None),
        (ALMConfig, "outer_tol", float("inf")),
        (ALMConfig, "c_max", float("inf")),
    ])
    def test_type_and_finiteness_name_the_key(self, cls, key, value):
        with pytest.raises(InvalidInput, match=f"^{key} must be"):
            cls(**{key: value})

    def test_penalty_bound_is_one_over_eps(self):
        assert MAX_PENALTY == 1.0 / np.finfo(np.float64).eps
        ALMConfig(c0=MAX_PENALTY, c_max=MAX_PENALTY)
        above = float(np.nextafter(MAX_PENALTY, np.inf))
        with pytest.raises(InvalidInput, match="^c0 must be at most"):
            ALMConfig(c0=above, c_max=above)
        with pytest.raises(InvalidInput, match="^c_max must be at most"):
            ALMConfig(c_max=above)


class TestInnerMinimize:
    def test_quadratic_converges_in_few_steps(self, equality_instance):
        problem = equality_instance
        c = 10.0
        mu = np.array([0.3])
        y = MultiplierTriple(np.zeros((0, 0)), mu, np.zeros((0, 0)))
        x, stats = inner_minimize(problem, y, c, np.zeros(2), InnerConfig())
        # closed-form minimizer of the quadratic augmented Lagrangian
        A = problem.f_H + c * problem.h_A.T @ problem.h_A
        rhs = -(problem.f_b + problem.h_A.T @ (mu + c * problem.h_r))
        np.testing.assert_allclose(x, np.linalg.solve(A, rhs), atol=1e-12)
        assert stats.iterations <= 3
        assert stats.grad_norm <= 1e-12

    def test_exact_start_takes_zero_iterations(self, mixed_instance):
        problem = mixed_instance
        ref = problem.reference
        x, stats = inner_minimize(problem, ref.multipliers, 10.0, ref.x,
                                  InnerConfig())
        assert stats.iterations == 0
        np.testing.assert_allclose(x, ref.x, atol=0.0)

    def test_max_iter_exhaustion_carries_best_iterate(self, mixed_instance):
        problem = mixed_instance
        y = MultiplierTriple.zeros(problem)
        far = np.array([5.0, -3.0, 4.0])
        with pytest.raises(InnerSolveError) as info:
            inner_minimize(problem, y, 10.0, far, InnerConfig(max_iter=1))
        exc = info.value
        assert exc.best_x is not None
        # the single accepted step still decreased the value
        v0 = aug_lagrangian_value(problem, far, y.Y, y.mu, y.Gamma, 10.0)
        v1 = aug_lagrangian_value(problem, exc.best_x, y.Y, y.mu, y.Gamma, 10.0)
        assert v1 < v0

    def test_descent_at_every_accepted_step(self, mixed_instance):
        problem = mixed_instance
        y = MultiplierTriple.zeros(problem)
        cfg = InnerConfig()
        x = np.array([2.0, -1.0, 1.5])
        vals = [aug_lagrangian_value(problem, x, y.Y, y.mu, y.Gamma, 10.0)]
        # re-run the loop manually one step at a time via max_iter bumps
        for k in range(1, 6):
            try:
                xk, stats = inner_minimize(problem, y, 10.0, x,
                                           InnerConfig(max_iter=k))
                vals.append(stats.value)
                break
            except InnerSolveError as exc:
                vals.append(aug_lagrangian_value(
                    problem, exc.best_x, y.Y, y.mu, y.Gamma, 10.0))
        assert all(b <= a + 1e-12 for a, b in zip(vals, vals[1:]))

    def test_relative_tolerance_loosens_target(self, mixed_instance):
        problem = mixed_instance
        y = MultiplierTriple.zeros(problem)
        cfg = InnerConfig(grad_tol=1e-12, grad_tol_rel=0.1)
        x, stats = inner_minimize(problem, y, 10.0, np.array([1.0, 1.0, 1.0]),
                                  cfg, outer_residual=1.0)
        assert stats.grad_norm <= 0.1

    @pytest.mark.parametrize("residual", [float("inf"), float("nan")],
                             ids=["inf", "nan"])
    def test_nonfinite_outer_residual_keeps_absolute_tolerance(self,
                                                               residual):
        # a non-finite residual scales into no tolerance: the loop must
        # not accept the start (gradient 0.353 here) on an infinite target
        problem = load_instance(os.path.join(INSTANCES, "nondegen_small.json"))
        y = MultiplierTriple.zeros(problem)
        cfg = InnerConfig()
        x, stats = inner_minimize(problem, y, 10.0, np.zeros(problem.n), cfg,
                                  outer_residual=residual)
        _, exact = inner_minimize(problem, y, 10.0, np.zeros(problem.n), cfg)
        assert stats.iterations == exact.iterations > 0
        assert stats.stop == "tol"
        assert stats.grad_norm <= cfg.grad_tol


class TestDeferredValue:
    """The inner loop evaluates the value only where a test reads it: at
    Armijo trial points, and at the point a step leaves from when the
    step runs the Armijo search or its slope exceeds 1e-12.  Whatever
    point it ends at, ``InnerStats.value`` is the value there, bit for
    bit."""

    C = 10.0

    def _run(self, monkeypatch, problem, x0, cfg):
        """inner_minimize from x0 at the reference multipliers: the last
        point, its stats, the error if the loop failed, and whether the
        loop evaluated the value there itself."""
        evaluated = []
        value = solver.aug_lagrangian_value

        def recording(*args, **kwargs):
            evaluated.append(args[1])
            return value(*args, **kwargs)

        monkeypatch.setattr(solver, "aug_lagrangian_value", recording)
        y = problem.reference.multipliers
        try:
            x, stats = inner_minimize(problem, y, self.C, x0, cfg)
            exc = None
        except InnerSolveError as err:
            x, stats, exc = err.best_x, err.stats, err
        monkeypatch.setattr(solver, "aug_lagrangian_value", value)
        return x, stats, exc, any(z is x for z in evaluated)

    def _fresh_value(self, problem, x):
        y = problem.reference.multipliers
        return aug_lagrangian_value(problem, x, y.Y, y.mu, y.Gamma, self.C)

    def _ends(self, monkeypatch, problem, scale, cfg, seed):
        """Runs from 40 seeded starts at radius ``scale``, keyed by whether
        the loop failed and whether it evaluated the value at the end."""
        rng = np.random.RandomState(seed)
        ends = {}
        for _ in range(40):
            x0 = scale * rng.randn(problem.n)
            x, stats, exc, evaluated = self._run(monkeypatch, problem, x0,
                                                 cfg)
            if stats.iterations > 0:
                ends.setdefault((exc is not None, evaluated), (x, stats))
        return ends

    def test_stop_at_iteration_zero(self, monkeypatch, mixed_instance):
        problem = mixed_instance
        x, stats, exc, evaluated = self._run(
            monkeypatch, problem, problem.reference.x, InnerConfig())
        assert exc is None and stats.iterations == 0 and not evaluated
        assert stats.value == self._fresh_value(problem, x)

    def test_stop_after_contraction_and_armijo_steps(self, monkeypatch,
                                                     mixed_instance):
        # near the minimizer the predicted decrease sinks below value
        # noise and the loop steps on gradient contraction, whose end
        # point it never evaluates; farther out it ends on Armijo steps
        problem = mixed_instance
        ends = {**self._ends(monkeypatch, problem, 1e-7, InnerConfig(), 81),
                **self._ends(monkeypatch, problem, 1.0, InnerConfig(), 82)}
        for evaluated in (False, True):
            x, stats = ends[(False, evaluated)]
            assert stats.value == self._fresh_value(problem, x)

    def test_failures_keep_the_value_at_the_best_iterate(self, monkeypatch,
                                                        mixed_instance):
        # exhaustion after an Armijo step, and after a contraction step
        # with a tolerance below the round-off floor
        problem = mixed_instance
        ends = {**self._ends(monkeypatch, problem, 1.0,
                             InnerConfig(max_iter=1), 83),
                **self._ends(monkeypatch, problem, 1.0,
                             InnerConfig(grad_tol=1e-300, max_iter=3), 84)}
        for evaluated in (False, True):
            x, stats = ends[(True, evaluated)]
            assert stats.value == self._fresh_value(problem, x)

    def test_line_search_failure_keeps_the_value(self, monkeypatch,
                                                 mixed_instance):
        # an ascent direction fails every Armijo trial
        problem = mixed_instance
        monkeypatch.setattr(solver, "_newton_direction",
                            lambda A, grad, certified: (1e8 * grad, False,
                                                        False))
        x0 = np.array([0.5, -0.4, 0.3])
        x, stats, exc, evaluated = self._run(monkeypatch, problem, x0,
                                             InnerConfig())
        assert str(exc) == "line search failed at inner iteration 0"
        assert evaluated and np.array_equal(x, x0)
        assert stats.value == self._fresh_value(problem, x0)

    def test_nan_value_leaves_tiny_slope_steps_to_contraction(
            self, monkeypatch, mixed_instance):
        # a step whose slope is within 1e-12 takes the contraction branch
        # without reading the value, so a NaN value no longer fails it;
        # a larger slope reads the value, and NaN fails every Armijo trial
        problem = mixed_instance
        y = problem.reference.multipliers
        calls = []

        def nan_value(*args, **kwargs):
            calls.append(args[1])
            return float("nan")

        monkeypatch.setattr(solver, "aug_lagrangian_value", nan_value)
        rng = np.random.RandomState(85)
        near = problem.reference.x + 1e-7 * rng.randn(problem.n)
        _x, stats = inner_minimize(problem, y, self.C, near, InnerConfig())
        assert stats.stop == "tol" and stats.iterations > 0
        assert calls == []
        with pytest.raises(InnerSolveError) as info:
            inner_minimize(problem, y, self.C, np.array([0.5, -0.4, 0.3]),
                           InnerConfig())
        assert str(info.value) == "line search failed at inner iteration 0"
        assert len(calls) == 1 + 60


class TestSweepWork:
    """The work of the benchmark's rate sweep: generated nondegen
    (24, 10, 3, 8), seed 7, perturbation seed 7, c = 10 ... 1e4."""

    def _sweep(self, monkeypatch):
        """The sweep's eigendecomposition count and its inner loops' event
        log: ("point", key) per ShiftedPoint, ("step", point) per Newton
        element, ("slope", grad . d) per direction and ("value", point)
        per value evaluation."""
        problem = generator.generate_instance(24, 10, 3, 8, seed=7)
        eigs = [0]
        events = []

        def counting(fn):
            def wrapped(*args, **kwargs):
                eigs[0] += 1
                return fn(*args, **kwargs)
            return wrapped

        def logging(fn, kind):
            def wrapped(*args, **kwargs):
                events.append((kind, kwargs["point"]))
                return fn(*args, **kwargs)
            return wrapped

        def shifted(problem, x, Y, mu, Gamma, c, **kwargs):
            key = tuple(np.asarray(v).tobytes() for v in (x, Y, mu, Gamma))
            events.append(("point", key + (c,)))
            return ShiftedPoint(problem, x, Y, mu, Gamma, c, **kwargs)

        def direction(A, grad, certified, _fn=solver._newton_direction):
            out = _fn(A, grad, certified)
            events.append(("slope", float(grad @ out[0])))
            return out

        for name in ("eigh", "eigvalsh"):
            monkeypatch.setattr(np.linalg, name,
                                counting(getattr(np.linalg, name)))
        monkeypatch.setattr(solver, "ShiftedPoint", shifted)
        monkeypatch.setattr(solver, "_newton_direction", direction)
        for name, kind in (("newton_matrix_element", "step"),
                           ("aug_lagrangian_value", "value")):
            monkeypatch.setattr(solver, name,
                                logging(getattr(solver, name), kind))
        fit = diagnostics.rate_sweep(problem, problem.reference,
                                     (10.0, 100.0, 1000.0, 10000.0), seed=7)
        assert all(fit.converged)
        return eigs[0], events

    def test_work_is_pinned(self, monkeypatch):
        # each point is decomposed once (a full step that fails to halve
        # the gradient is the first Armijo trial), and so is the
        # reference residual
        eigs, events = self._sweep(monkeypatch)
        assert eigs == 240
        keys = [key for kind, key in events if kind == "point"]
        assert all(a != b for a, b in zip(keys, keys[1:]))

    def test_value_only_where_a_test_reads_it(self, monkeypatch):
        # every value at a trial point belongs to an Armijo search; a step
        # evaluates the value at its start for that search, or, with a
        # slope above 1e-12, for the test of the slope against value
        # noise.  A slope within 1e-12 skips that test: such a step reads
        # no value unless its full step fails to halve the gradient
        _eigs, events = self._sweep(monkeypatch)
        steps = []
        for kind, key in events:
            if kind == "step":
                steps.append([key, None, []])
            elif kind == "slope":
                steps[-1][1] = key
            elif kind == "value":
                steps[-1][2].append(key)
        searched = noise_tests = 0
        for start, slope, values in steps:
            if any(pt is not start for pt in values):
                searched += 1
            elif values:
                assert -slope > 1e-12
                noise_tests += 1
        tiny = sum(1 for _, slope, _ in steps if -slope <= 1e-12)
        assert (len(steps), tiny, searched, noise_tests) == (66, 46, 24, 1)


class TestForcingDefault:
    """A default solve stops each inner loop at 1e-2 times the previous KKT
    residual; the rate sweep keeps exact inner solves."""

    def test_default_relative_tolerance(self):
        assert InnerConfig().grad_tol_rel == 1e-2
        assert ALMConfig().inner.grad_tol_rel == 1e-2

    def test_rate_sweep_solves_exactly(self, monkeypatch):
        problem = load_instance(os.path.join(INSTANCES, "nondegen_small.json"))
        seen = []

        def recording(problem, y0, config, x0, reference=None):
            seen.append(config.inner.grad_tol_rel)
            return alm_solve(problem, y0, config, x0, reference=reference)

        monkeypatch.setattr(diagnostics, "alm_solve", recording)
        diagnostics.rate_sweep(problem, problem.reference, (10.0, 100.0),
                               seed=7)
        assert seen == [0.0, 0.0]

    @pytest.mark.parametrize("name", ["nondegen_small", "degen_small"])
    def test_fewer_newton_steps_than_exact(self, name):
        problem = load_instance(os.path.join(INSTANCES, name + ".json"))
        y0 = MultiplierTriple.zeros(problem)
        x0 = np.zeros(problem.n)
        exact_cfg = ALMConfig(inner=diagnostics.SWEEP_INNER)
        _, exact = alm_solve(problem, y0, exact_cfg, x0)
        point, forced = alm_solve(problem, y0, ALMConfig(), x0)
        assert sum(forced.inner_iterations) < sum(exact.inner_iterations)
        assert len(forced) == len(exact)
        assert forced.stop == exact.stop == "tol"
        assert point.residual.total <= 1e-8

    def test_first_inner_tolerance_forced_by_starting_residual(
            self, monkeypatch):
        problem = load_instance(os.path.join(INSTANCES, "nondegen_small.json"))
        y0 = MultiplierTriple.zeros(problem)
        x0 = np.zeros(problem.n)
        start = kkt_residual(problem, x0, y0.Y, y0.mu, y0.Gamma).total
        seen = []

        def recording(problem, y, c, x0, cfg, outer_residual=None):
            x, stats = inner_minimize(problem, y, c, x0, cfg,
                                      outer_residual=outer_residual)
            seen.append((outer_residual, stats))
            return x, stats

        monkeypatch.setattr(solver, "inner_minimize", recording)
        alm_solve(problem, y0, ALMConfig(), x0)
        residual, first = seen[0]
        assert residual == start
        # the target 1e-2 * start lies far above grad_tol and the floor
        assert 1e-2 * start > 1e6 * max(ALMConfig().inner.grad_tol,
                                        first.floor)
        assert first.stop == "tol"
        assert 1e-4 * start < first.grad_norm <= 1e-2 * start

    def test_sweep_first_solve_stays_exact(self, monkeypatch):
        problem = load_instance(os.path.join(INSTANCES, "nondegen_small.json"))
        events = []

        def solving(*args, **kwargs):
            events.append(None)
            return alm_solve(*args, **kwargs)

        def inner(*args, **kwargs):
            x, stats = inner_minimize(*args, **kwargs)
            events.append(stats)
            return x, stats

        monkeypatch.setattr(diagnostics, "alm_solve", solving)
        monkeypatch.setattr(solver, "inner_minimize", inner)
        diagnostics.rate_sweep(problem, problem.reference, (10.0, 100.0),
                               seed=7)
        firsts = [events[i + 1] for i, e in enumerate(events) if e is None]
        assert len(firsts) == 2
        for stats in firsts:
            assert stats.stop == "tol"
            assert stats.grad_norm <= diagnostics.SWEEP_INNER.grad_tol


class TestDeferredResidual:
    """With the penalty fixed and exact inner solves only the stop tests
    read a residual's total, and a row whose eigendecomposition-free
    components already rule out a stop keeps its spectral half pending.
    Whenever a row is read, it has the bits of the eager residual."""

    FIXED = ALMConfig(c0=100.0, c_max=100.0, inner=diagnostics.SWEEP_INNER)

    def _counting(self, monkeypatch):
        counts = {"eig": 0, "point": 0}

        def counting(fn, key):
            def wrapped(*args, **kwargs):
                counts[key] += 1
                return fn(*args, **kwargs)
            return wrapped

        monkeypatch.setattr(np.linalg, "eigh",
                            counting(np.linalg.eigh, "eig"))
        monkeypatch.setattr(np.linalg, "eigvalsh",
                            counting(np.linalg.eigvalsh, "eig"))
        monkeypatch.setattr(solver, "ShiftedPoint",
                            counting(solver.ShiftedPoint, "point"))
        return counts

    def _load(self, name):
        """An instance and the zero multipliers its runs start from."""
        problem = load_instance(os.path.join(INSTANCES, name + ".json"))
        return problem, MultiplierTriple.zeros(problem)

    def _assert_eager_bits(self, problem, y0, trace, residuals):
        # each row's residual as the eager run forms it: at the point the
        # inner solve ends on, built from the multipliers before the row
        before = [y0] + trace.multipliers[:-1]
        for x, y, prev, c, res in zip(trace.points, trace.multipliers,
                                      before, trace.penalties, residuals):
            pt = ShiftedPoint(problem, x, prev.Y, prev.mu, prev.Gamma, c)
            eager = kkt_residual(problem, x, y.Y, y.mu, y.Gamma, point=pt)
            assert res.as_dict() == eager.as_dict()

    # the nondegen run forms its last two rows: the second to last has
    # stationarity, equality and complementarity below outer_tol 1e-8,
    # but its cone component is 3.0e-8, so a stop test reads it
    @pytest.mark.parametrize("name, formed, rows", [
        ("nondegen_small", 2, 7), ("degen_small", 1, 6)])
    def test_only_rows_a_stop_test_reads_are_decomposed(
            self, monkeypatch, name, formed, rows):
        problem, y0 = self._load(name)
        counts = self._counting(monkeypatch)
        point, trace = alm_solve(problem, y0, self.FIXED, np.zeros(problem.n))
        assert trace.stop == "tol" and len(trace) == rows
        assert counts["eig"] == 2 * counts["point"] + 4 * formed
        # reading the trace forms every pending row, once
        trace.residuals
        trace.residuals
        assert counts["eig"] == 2 * counts["point"] + 4 * rows
        assert trace.residuals[-1] is point.residual

    @pytest.mark.parametrize("name", ["nondegen_small", "degen_small"])
    def test_rows_have_eager_bits(self, name):
        problem, y0 = self._load(name)
        point, trace = alm_solve(problem, y0, self.FIXED, np.zeros(problem.n))
        self._assert_eager_bits(problem, y0, trace, trace.residuals)
        assert point.residual.total <= self.FIXED.outer_tol

    def test_max_iterations_forms_the_last_row(self, monkeypatch):
        problem, y0 = self._load("nondegen_small")
        counts = self._counting(monkeypatch)
        config = ALMConfig(c0=100.0, c_max=100.0, max_outer=2,
                           inner=diagnostics.SWEEP_INNER)
        with pytest.raises(MaxIterations) as info:
            alm_solve(problem, y0, config, np.zeros(problem.n))
        assert counts["eig"] == 2 * counts["point"] + 4
        exc = info.value
        self._assert_eager_bits(problem, y0, exc.trace, exc.trace.residuals)
        assert exc.point.residual is exc.trace.residuals[-1]
        assert f"residual {exc.point.residual.total:.3e} >" in str(exc)

    @pytest.mark.parametrize("edit, message", [
        ({"Y": np.array([[1.0, 2.0, 0.0], [0.0, 1.0, 0.0],
                         [0.0, 0.0, 1.0]])}, "Y is not symmetric"),
        ({"Y": np.full((3, 3), np.nan)}, "Y contains non-finite entries"),
        ({"Gamma": np.full((3, 3), np.nan)},
         "Gamma contains non-finite entries"),
    ])
    def test_starting_residual_raises_as_eager(self, edit, message):
        problem, zeros = self._load("nondegen_small")
        y0 = MultiplierTriple(**{"Y": zeros.Y, "mu": zeros.mu,
                                 "Gamma": zeros.Gamma, **edit})
        raised = []
        for config in (ALMConfig(), self.FIXED):
            with pytest.raises(InvalidInput) as info:
                alm_solve(problem, y0, config, np.zeros(problem.n))
            raised.append(str(info.value))
        assert raised[0] == raised[1]
        assert raised[0].startswith(message)


    @pytest.mark.parametrize("bad", ["Y", "Gamma", "both"])
    def test_formed_multipliers_raise_as_checked(self, bad):
        # alm_solve tests the multipliers it formed only for finiteness,
        # with the message and the order of the full check
        Y, Gamma = np.eye(3), np.eye(2)
        if bad in ("Y", "both"):
            Y = np.full((3, 3), np.inf)
        if bad in ("Gamma", "both"):
            Gamma = np.diag([1.0, np.nan])
        def full_check(Y, Gamma):
            sizes = SimpleNamespace(q=3, m=0, p=2)
            check_multipliers(sizes, Y, np.zeros(0), Gamma)

        raised = []
        for check in (full_check, solver._check_formed_multipliers):
            with pytest.raises(InvalidInput) as info:
                check(Y, Gamma)
            raised.append(str(info.value))
        assert raised[0] == raised[1]
        assert raised[0].startswith("Gamma" if bad == "Gamma" else "Y")


class TestMultiplierShapes:
    # every entry point names a Y, mu or Gamma that does not fit the
    # problem; numpy's reshape and matmul errors used to reach the caller
    ENTRIES = {
        "alm_solve": lambda P, y: alm_solve(P, y, ALMConfig(),
                                            P.reference.x),
        "kkt_residual": lambda P, y: kkt_residual(P, P.reference.x, y.Y,
                                                  y.mu, y.Gamma),
        "dual_value_and_grad": lambda P, y: dual_value_and_grad(
            P, y.Y, y.mu, y.Gamma, 10.0, P.reference.x),
        "strong_sosc_check": lambda P, y: diagnostics.strong_sosc_check(
            P, P.reference.x, y),
    }

    @staticmethod
    def _edited(field, edit):
        problem = load_instance(os.path.join(INSTANCES,
                                             "nondegen_small.json"))
        y = problem.reference.multipliers
        fields = {"Y": y.Y, "mu": y.mu, "Gamma": y.Gamma}
        fields[field] = edit(fields[field])
        return problem, MultiplierTriple(**fields)

    @pytest.mark.parametrize("entry", sorted(ENTRIES))
    @pytest.mark.parametrize("field", ["Y", "mu", "Gamma"])
    @pytest.mark.parametrize("step", [-1, 1])
    def test_wrong_size_is_named(self, entry, field, step):
        def resized(value):
            size = value.shape[0] + step
            return np.eye(size) if value.ndim == 2 else np.zeros(size)

        problem, y = self._edited(field, resized)
        with pytest.raises(InvalidInput, match=rf"^{field} dimension does "
                                               r"not match the problem$"):
            self.ENTRIES[entry](problem, y)

    @pytest.mark.parametrize("entry", sorted(ENTRIES))
    def test_nan_mu_is_named(self, entry):
        # alm_solve reported it as "F(x) + Y/c contains non-finite entries"
        problem, y = self._edited("mu", lambda mu: np.full(mu.shape, np.nan))
        with pytest.raises(InvalidInput,
                           match=r"^mu contains non-finite entries$"):
            self.ENTRIES[entry](problem, y)


def _shift_rung(lmin):
    """Doublings of the initial Levenberg shift that clear the
    definiteness floor at the smallest eigenvalue ``lmin``."""
    k = 0
    while lmin + solver._SHIFT_INITIAL * 2.0 ** k < solver._PD_FLOOR:
        k += 1
    return k


class TestLevenbergShift:
    # the converging runs that take shifted Newton steps: no benchmark run
    # and no other test does, so these pin the ladder's live cases

    @staticmethod
    def _steps(monkeypatch):
        """Record (shifted, steepest, smallest eigenvalue) of each Newton
        direction; none of these elements may be certified definite."""
        steps = []
        newton_direction = solver._newton_direction

        def recording(A, grad, certified):
            assert not certified
            d, shifted, steepest = newton_direction(A, grad, certified)
            steps.append((shifted, steepest,
                          float(np.linalg.eigvalsh(A).min())))
            return d, shifted, steepest

        monkeypatch.setattr(solver, "_newton_direction", recording)
        return steps

    @staticmethod
    def _with_f_H(problem, f_H):
        return QuadraticProblem(problem.f_c0, problem.f_b, f_H,
                                problem.F_map, problem.h_A, problem.h_r,
                                problem.g_map, reference=problem.reference)

    @pytest.mark.parametrize("seed, steps_taken, outer",
                             [(0, 13, 10), (1, 13, 10), (2, 19, 9)])
    def test_linear_objective_takes_the_first_rung(self, monkeypatch, seed,
                                                   steps_taken, outer):
        # with f.H = 0 every Newton element is singular to round-off
        generated = generator.generate_instance(24, 10, 3, 8,
                                                profile="nondegen", seed=seed)
        problem = self._with_f_H(generated, np.zeros((24, 24)))
        steps = self._steps(monkeypatch)
        _, trace = alm_solve(problem, MultiplierTriple.zeros(problem),
                             ALMConfig(), np.zeros(24))
        assert trace.stop == "tol" and len(trace) == outer
        assert sum(trace.inner_iterations) == len(steps) == steps_taken
        for shifted, steepest, lmin in steps:
            assert shifted and not steepest
            assert _shift_rung(lmin) == 0

    def test_negative_curvature_takes_the_last_rung(self, monkeypatch):
        # ROADMAP item 9's nonconvex variant: f.H = t B B^T - s (I - B B^T)
        # with B the reduced-subspace basis at the reference, t = 1 and
        # s = 0.03, from a far start with zero multipliers
        generated = generator.generate_instance(24, 10, 3, 8,
                                                profile="nondegen", seed=3)
        ref = generated.reference
        _, B = diagnostics.sosc_reduced_matrix(generated, ref.x,
                                               ref.multipliers)
        BB = B @ B.T
        problem = self._with_f_H(generated,
                                 BB - 0.03 * (np.eye(24) - BB))
        x0 = 0.3 * np.random.RandomState(3007).randn(24) / np.sqrt(24)
        steps = self._steps(monkeypatch)
        _, trace = alm_solve(problem, MultiplierTriple.zeros(problem),
                             ALMConfig(), x0)
        assert trace.stop == "tol" and len(trace) == 10
        assert sum(trace.inner_iterations) == len(steps) == 19
        assert not any(steepest for _, steepest, _ in steps)
        shifted = [lmin for flag, _, lmin in steps if flag]
        assert len(shifted) == 1
        assert round(shifted[0], 5) == -9.90e-3
        assert _shift_rung(shifted[0]) == solver._MAX_SHIFT_DOUBLINGS


class TestDefinitenessCertificate:
    """Where the structural certificate holds, the Cholesky trial it skips
    would have passed: checked at every Newton step of the runs below."""

    @staticmethod
    def _checked(monkeypatch):
        """Count the certified and the uncertified Newton steps, and test
        the skipped definiteness trial at each certified one."""
        counts = {True: 0, False: 0}
        newton_direction = solver._newton_direction

        def checking(A, grad, certified):
            if certified:
                assert solver._eigenvalue_below_floor(
                    A, solver._PD_FLOOR) is None
            counts[certified] += 1
            return newton_direction(A, grad, certified)

        monkeypatch.setattr(solver, "_newton_direction", checking)
        return counts

    @staticmethod
    def _solve(problem, x0, config=None):
        """An adaptive solve from (x0, 0); a failed one counts too."""
        try:
            alm_solve(problem, MultiplierTriple.zeros(problem),
                      config or ALMConfig(), x0)
        except (InnerSolveError, MaxIterations):
            pass

    @pytest.mark.parametrize("name", ["nondegen_small", "degen_small"])
    def test_bundled(self, monkeypatch, name):
        problem = load_instance(os.path.join(INSTANCES, f"{name}.json"))
        counts = self._checked(monkeypatch)
        self._solve(problem, np.zeros(problem.n))
        assert counts[True] > 0 and counts[False] == 0

    def test_saddle_stays_uncertified(self, monkeypatch):
        problem = load_instance(os.path.join(INSTANCES, "saddle_small.json"))
        counts = self._checked(monkeypatch)
        with pytest.raises(InnerSolveError):
            alm_solve(problem, MultiplierTriple.zeros(problem), ALMConfig(),
                      np.zeros(problem.n))
        assert counts[True] == 0 and counts[False] == 100

    def test_quadratic_maps_stay_uncertified(self, monkeypatch,
                                             mixed_quadratic_instance):
        problem = mixed_quadratic_instance
        assert problem.curvature_bounds is None
        counts = self._checked(monkeypatch)
        self._solve(problem, np.ones(problem.n))
        assert counts[True] == 0 and counts[False] > 0

    @pytest.mark.parametrize("dims", [(24, 10, 3, 8), (40, 16, 4, 14)])
    @pytest.mark.parametrize("profile", ["nondegen", "degen", "saddle"])
    def test_generated(self, monkeypatch, dims, profile):
        problem = generator.generate_instance(*dims, profile=profile, seed=7)
        counts = self._checked(monkeypatch)
        self._solve(problem, np.zeros(problem.n))
        if profile == "saddle":
            assert counts[True] == 0 and counts[False] > 0
        else:
            assert counts[True] > 0 and counts[False] == 0

    def test_benchmark_inputs(self, monkeypatch):
        # the solve inputs of seed 1, drawn as the benchmark draws them,
        # and the sweep
        counts = self._checked(monkeypatch)
        for k, profile in enumerate(("nondegen", "degen") * 2):
            rng = np.random.RandomState([1, 0, k])
            seed = int(rng.randint(0, 2 ** 31 - 1))
            problem = generator.generate_instance(40, 16, 4, 14,
                                                  profile=profile, seed=seed)
            rng = np.random.RandomState([1, 1, k])
            u = rng.randn(problem.n)
            self._solve(problem, problem.reference.x
                        + rng.uniform(0.0, 1.0) * u / np.linalg.norm(u))
        assert counts == {True: 12 * 4, False: 0}
        problem = generator.generate_instance(24, 10, 3, 8, seed=7)
        diagnostics.rate_sweep(problem, problem.reference,
                               (10.0, 100.0, 1000.0, 10000.0), seed=7)
        assert counts == {True: 12 * 4 + 66, False: 0}

    def test_large_penalties(self, monkeypatch):
        # adaptive runs from large penalties near the reference: at
        # c = 1e8 the run converges; at c = 5e10, close to where the
        # certificate lapses on this instance (about 8.8e10), every step
        # is certified and an inner loop exhausts its 100 steps; at
        # c = 1e11 every step runs the trial
        problem = generator.generate_instance(24, 10, 3, 8, seed=7)
        rng = np.random.RandomState(5)
        x0 = [problem.reference.x + 1e-2 * rng.randn(problem.n)
              / np.sqrt(problem.n) for _ in range(3)]
        counts = self._checked(monkeypatch)
        alm_solve(problem, MultiplierTriple.zeros(problem),
                  ALMConfig(c0=1e8, outer_tol=1e-14), x0[0])
        assert counts[True] > 0
        certified = counts[True]
        for c0, x in ((5e10, x0[1]), (1e11, x0[2])):
            with pytest.raises(InnerSolveError):
                alm_solve(problem, MultiplierTriple.zeros(problem),
                          ALMConfig(c0=c0, outer_tol=1e-14), x)
        assert counts[True] >= certified + 100 and counts[False] >= 100
        assert solver._definiteness_certified(problem, 5e10)
        assert not solver._definiteness_certified(problem, 1e11)


class TestPenaltyUpdate:
    def test_fixed_mode_keeps_c(self):
        # a cap at c0 holds the penalty fixed
        cfg = ALMConfig(c0=10.0, c_max=10.0)
        assert penalty_update(1.0, 0.5, 10.0, cfg) == 10.0

    def test_stall_grows_c(self):
        cfg = ALMConfig()
        assert penalty_update(0.9, 1.0, 10.0, cfg) == 100.0

    def test_good_decrease_keeps_c(self):
        cfg = ALMConfig()
        assert penalty_update(0.01, 1.0, 10.0, cfg) == 10.0

    def test_first_iteration_keeps_c(self):
        cfg = ALMConfig()
        assert penalty_update(1.0, None, 10.0, cfg) == 10.0

    def test_cap(self):
        cfg = ALMConfig(c0=10.0, c_max=50.0)
        assert penalty_update(1.0, 1.0, 10.0, cfg) == 50.0


def reference_hestenes_powell(problem, mu0, c, outers):
    """Classical multiplier-method loop with exact inner linear solves."""
    H, b = problem.f_H, problem.f_b
    A, r = problem.h_A, problem.h_r
    mu = mu0.copy()
    xs, mus = [], []
    M = H + c * A.T @ A
    for _ in range(outers):
        x = np.linalg.solve(M, -(b + A.T @ (mu + c * r)))
        mu = mu + c * (A @ x + r)
        xs.append(x)
        mus.append(mu.copy())
    return xs, mus


class TestALM:
    def test_equality_only_matches_reference_loop(self, equality_instance):
        problem = equality_instance
        c = 10.0
        config = ALMConfig(c0=c, c_max=c, outer_tol=1e-300, max_outer=10)
        y0 = MultiplierTriple(np.zeros((0, 0)), np.array([0.3]), np.zeros((0, 0)))
        with pytest.raises(MaxIterations) as info:
            alm_solve(problem, y0, config, np.zeros(2))
        trace = info.value.trace
        xs, mus = reference_hestenes_powell(problem, y0.mu, c, 10)
        assert len(trace) == 10
        for k in range(10):
            np.testing.assert_allclose(trace.points[k], xs[k], atol=1e-12)
            np.testing.assert_allclose(trace.multipliers[k].mu, mus[k],
                                       atol=1e-12)

    def test_already_optimal_start_returns_immediately(self, mixed_instance):
        problem = mixed_instance
        ref = problem.reference
        point, trace = alm_solve(problem, ref.multipliers, ALMConfig(), ref.x)
        assert len(trace) == 0
        assert point.residual.total <= 1e-8
        np.testing.assert_allclose(point.x, ref.x, atol=0.0)

    def test_converges_from_cold_start(self, mixed_instance):
        problem = mixed_instance
        y0 = MultiplierTriple.zeros(problem)
        config = ALMConfig(outer_tol=1e-9, max_outer=40)
        point, trace = alm_solve(problem, y0, config, np.ones(3),
                                 reference=problem.reference)
        assert point.residual.total <= 1e-9
        np.testing.assert_allclose(point.x, problem.reference.x, atol=1e-6)
        # iterate invariants along the trace
        for y in trace.multipliers:
            assert np.linalg.eigvalsh(y.Gamma).min() >= -1e-10
            assert np.abs(np.linalg.eigvalsh(y.Y)).max() <= 1.0 + 1e-8
        # distances recorded and shrinking overall
        assert trace.dist_y[-1] < trace.dist_y[0]

    def test_max_iterations_carries_trace(self, mixed_instance):
        problem = mixed_instance
        y0 = MultiplierTriple.zeros(problem)
        config = ALMConfig(outer_tol=1e-14, max_outer=2, c0=1.0, c_max=1.0)
        with pytest.raises(MaxIterations) as info:
            alm_solve(problem, y0, config, np.ones(3))
        assert len(info.value.trace) == 2
        assert info.value.point is not None

    def test_cap_at_c0_holds_penalty_on_stalled_residual(self,
                                                         mixed_instance):
        # from this start the residual stalls at c=1, so the default cap
        # lets the penalty grow; a cap at c0 holds it at c0 throughout
        problem = mixed_instance
        traces = []
        for c_max in (1e12, 1.0):
            config = ALMConfig(c0=1.0, c_max=c_max, outer_tol=1e-9,
                               max_outer=6)
            with pytest.raises(MaxIterations) as info:
                alm_solve(problem, MultiplierTriple.zeros(problem), config,
                          np.ones(3))
            traces.append(info.value.trace)
        grown, held = traces
        assert max(grown.penalties) > 1.0
        assert len(held) == 6
        assert held.penalties == [1.0] * 6

    def test_inner_failure_attaches_partial_trace(self, mixed_instance):
        problem = mixed_instance
        y0 = MultiplierTriple.zeros(problem)
        config = ALMConfig(inner=InnerConfig(max_iter=1), outer_tol=1e-12)
        with pytest.raises(InnerSolveError) as info:
            alm_solve(problem, y0, config, np.array([5.0, -3.0, 4.0]))
        assert info.value.trace is not None

    def test_determinism(self, mixed_instance):
        problem = mixed_instance
        y0 = MultiplierTriple.zeros(problem)
        config = ALMConfig(outer_tol=1e-9, max_outer=40)
        p1, t1 = alm_solve(problem, y0, config, np.ones(3))
        p2, t2 = alm_solve(problem, y0, config, np.ones(3))
        assert np.array_equal(p1.x, p2.x)
        assert p1.residual.total == p2.residual.total
        for a, b in zip(t1.points, t2.points):
            assert np.array_equal(a, b)
        for a, b in zip(t1.multipliers, t2.multipliers):
            assert np.array_equal(a.Y, b.Y)
            assert np.array_equal(a.mu, b.mu)
            assert np.array_equal(a.Gamma, b.Gamma)

    def test_dual_ascent_identity_along_run(self, mixed_instance):
        problem = mixed_instance
        ref = problem.reference
        rng = np.random.RandomState(96)
        D = rng.randn(2, 2)
        y = MultiplierTriple(ref.multipliers.Y + 0.01 * (D + D.T),
                             ref.multipliers.mu + 0.01 * rng.randn(1),
                             ref.multipliers.Gamma)
        c = 10.0
        val, grad, xc = dual_value_and_grad(problem, y.Y, y.mu, y.Gamma, c, ref.x)
        plus = multiplier_maps(problem, xc, y.Y, y.mu, y.Gamma, c)
        np.testing.assert_allclose(y.Y + c * grad.Y, plus.Y, atol=1e-6)
        np.testing.assert_allclose(y.mu + c * grad.mu, plus.mu, atol=1e-6)
