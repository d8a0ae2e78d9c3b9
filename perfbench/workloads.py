"""The benchmark workloads: solve and sweep.

A workload owns its inputs and exposes one round of operations as a list
of keys.  ``op`` runs one operation and returns its ``perf_counter``
interval together with its result; ``check`` then
verifies that result with the independent code in ``checks`` and
reports how many operations it stands for and how many of them failed.
The benchmark calls ``op`` and ``check`` separately so that checking is
never timed or traced.

Every input is drawn from the benchmark seed through numpy's seeded
generator, except the sweep instance (see ``SweepWorkload``).  The
inputs of a key are the same in every round, so each round repeats the
same deterministic work and the benchmark can keep the fastest time of
each piece of it (see ``clock``).  sdnop is always reached through
module attributes so that the tracer can see the calls.
"""

from time import perf_counter

import numpy as np

import checks
from sdnop import diagnostics, errors, generator, problem, solver

# (n, q, m, p) of the generated instances
SOLVE_DIMS = (40, 16, 4, 14)
SWEEP_DIMS = (24, 10, 3, 8)
SWEEP_GRID = (10.0, 100.0, 1000.0, 10000.0)


def _draw_seed(*entropy):
    """A generator seed for one input, fixed by the benchmark seed."""
    return int(np.random.RandomState(list(entropy)).randint(0, 2 ** 31 - 1))


class SolveWorkload:
    """Adaptive-penalty ALM from seeded starts on nondegen and degen
    instances; the user's main pipeline.  It calls no diagnostics."""

    name = "solve"
    profiles = ("nondegen", "degen") * 2

    def __init__(self, seed):
        self.seed = seed
        self.config = solver.ALMConfig()
        self.instances = []
        self.starts = []

    def setup(self):
        self.instances = [
            generator.generate_instance(*SOLVE_DIMS, profile=prof,
                                        seed=_draw_seed(self.seed, 0, k))
            for k, prof in enumerate(self.profiles)
        ]
        self.starts = [self._start(k) for k in self.keys()]

    def keys(self):
        return range(len(self.instances))

    def _start(self, key):
        """Primal start at radius at most 1 from the reference point."""
        rng = np.random.RandomState([self.seed, 1, key])
        P = self.instances[key]
        u = rng.randn(P.n)
        return P.reference.x + rng.uniform(0.0, 1.0) * u / np.linalg.norm(u)

    def op(self, key, rnd):
        P = self.instances[key]
        y0 = problem.MultiplierTriple.zeros(P)
        x0 = self.starts[key].copy()
        t0 = perf_counter()
        try:
            result, _trace = solver.alm_solve(P, y0, self.config, x0)
        except errors.SDNOPError as exc:
            result = exc
        return (t0, perf_counter()), result

    def check(self, key, rnd, result):
        if isinstance(result, errors.SDNOPError):
            return 1, 1, []
        return 1, 0, checks.check_solution(
            self.instances[key], result, self.config.outer_tol,
            unique_multipliers=self.profiles[key] == "nondegen")


class SweepWorkload:
    """``rate_sweep`` over the penalty grid: fixed large penalties, warm
    starts at perturbed reference multipliers, a 1e-12 stopping target
    and the assumption pre-check.

    Each grid point counts as one operation.  The c=1e4 point stalls on
    this instance (the absolute inner gradient tolerance sits below the
    round-off floor there) and is counted as failed.  To keep that
    failure the same share of every run, the sweep input is fixed and
    does not depend on the benchmark seed.  It is a single instance, so
    that a run repeats each piece of the sweep as often as it can.
    """

    name = "sweep"
    instance_seed = 7
    perturbation_seed = 7

    def __init__(self, seed):
        self.instance = None

    def setup(self):
        self.instance = generator.generate_instance(
            *SWEEP_DIMS, profile="nondegen", seed=self.instance_seed)

    def keys(self):
        return range(1)

    def op(self, key, rnd):
        P = self.instance
        t0 = perf_counter()
        fit = diagnostics.rate_sweep(P, P.reference, SWEEP_GRID,
                                     seed=self.perturbation_seed)
        return (t0, perf_counter()), fit

    def check(self, key, rnd, fit):
        failed = sum(1 for ok in fit.converged if not ok)
        return len(fit.converged), failed, checks.check_sweep(
            fit.penalties, fit.ratios, fit.converged)


WORKLOADS = {w.name: w for w in (SolveWorkload, SweepWorkload)}
