"""The independent checkers must reject wrong outputs.

    python3 -m pytest perfbench/test_checks.py -q
"""

import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import checks  # noqa: E402
from sdnop import generator, problem  # noqa: E402


@pytest.fixture(scope="module")
def instance():
    return generator.generate_instance(8, 3, 1, 3, profile="nondegen", seed=7)


def _point(P, x, multipliers):
    return problem.KKTPoint(np.asarray(x, dtype=np.float64), multipliers)


def test_reference_solution_passes(instance):
    ref = instance.reference
    assert checks.check_solution(instance, _point(instance, ref.x,
                                                  ref.multipliers),
                                 1e-8, unique_multipliers=True) == []


def test_shifted_solution_rejected(instance):
    ref = instance.reference
    shifted = _point(instance, ref.x + 1e-3, ref.multipliers)
    problems = checks.check_solution(instance, shifted, 1e-8,
                                     unique_multipliers=True)
    assert any("KKT residual" in p for p in problems)
    assert any("x - x_ref" in p for p in problems)


def test_shifted_multipliers_rejected_only_when_unique(instance):
    ref = instance.reference
    y = ref.multipliers
    moved = problem.MultiplierTriple(y.Y, y.mu + 1e-3, y.Gamma)
    point = _point(instance, ref.x, moved)
    assert any("multiplier distance" in p for p in checks.check_solution(
        instance, point, 1.0, unique_multipliers=True))
    assert checks.check_solution(instance, point, 1.0,
                                 unique_multipliers=False) == []


def test_residual_matches_library(instance):
    ref = instance.reference
    y = ref.multipliers
    x = ref.x + 1e-4 * np.arange(instance.n)
    ours = checks.kkt_residual(instance, x, y.Y, y.mu, y.Gamma)
    theirs = problem.kkt_residual(instance, x, y.Y, y.mu, y.Gamma).total
    assert ours == pytest.approx(theirs, rel=1e-9)


GRID = (10.0, 100.0, 1000.0, 10000.0)


def test_inverse_c_ratios_pass():
    ratios = [4.0 / c for c in GRID[:3]] + [float("nan")]
    assert checks.check_sweep(GRID, ratios, (True, True, True, False)) == []


@pytest.mark.parametrize("ratios", [
    [0.9 / c ** 0.5 for c in GRID],          # slope -0.5
    [100.0 / c ** 1.5 for c in GRID],        # slope -1.5, first ratio > 1
    [0.01 / c ** 1.5 for c in GRID],         # slope -1.5, all in (0, 1)
    [0.3, 0.05, 0.06, 0.001],                # not decreasing
])
def test_wrong_slope_or_order_rejected(ratios):
    assert checks.check_sweep(GRID, ratios, (True,) * 4) != []


def test_fit_slope_is_least_squares():
    cs = np.array(GRID)
    rs = 3.0 * cs ** -0.9
    assert checks.fit_slope(cs, rs) == pytest.approx(-0.9, abs=1e-12)

