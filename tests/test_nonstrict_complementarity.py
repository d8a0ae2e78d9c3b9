"""Non-strict complementarity in the nuclear block.

The paper's rate holds without strict complementarity.  The generator's
zero eigenvalue of F(x*) carries the interior multiplier weight 0.3, so
the multiplier Y* is never on the boundary of the spectral-norm ball
there.  The fixture below gives that eigenvalue the weight +1 or -1
instead: the zero eigenvalue then sits in the saturated block ``b_up`` or
``b_low``, and Z = F(x*) + Y*/c has an eigenvalue exactly at the
soft-threshold kink 1/c (or -1/c).  On such instances ``check``, the
default ``alm_solve`` and ``rate_sweep`` must keep their verdicts and the
1/c law.
"""

import json

import numpy as np
import pytest

from sdnop import cli, generator
from sdnop.diagnostics import cone_blocks, rate_sweep
from sdnop.problem import MultiplierTriple, save_instance
from sdnop.solver import ALMConfig, alm_solve

SWEEP_GRID = (10.0, 100.0, 1000.0, 10000.0)


@pytest.fixture(params=[1.0, -1.0], ids=["plus", "minus"])
def zero_weight(request, monkeypatch):
    """The weight of F(x*)'s zero eigenvalue in Y*, for the instances the
    generator builds while the fixture is active."""
    f_spectrum = generator._f_spectrum

    def saturated(q):
        values, weights = f_spectrum(q)
        return values, np.where(values == 0.0, request.param, weights)

    monkeypatch.setattr(generator, "_f_spectrum", saturated)
    return request.param


@pytest.mark.parametrize("dims", [(24, 10, 3, 8), (40, 16, 4, 14)],
                         ids=["n24", "n40"])
def test_saturated_zero_eigenvalue(tmp_path, capsys, zero_weight, dims):
    problem = generator.generate_instance(*dims, seed=7)
    ref = problem.reference
    b = cone_blocks(problem, ref.x, ref.multipliers)
    assert b.b_mid == ()
    assert len(b.b_up if zero_weight > 0 else b.b_low) == 1

    path = str(tmp_path / "instance.json")
    save_instance(problem, path)
    assert cli.main(["check", path, "--out", str(tmp_path / "check")]) == 0
    capsys.readouterr()
    with open(tmp_path / "check" / "report.json") as fh:
        report = json.load(fh)
    assert report["nondegeneracy"]["holds"] is True
    assert report["second_order"]["holds"] is True

    _, trace = alm_solve(problem, MultiplierTriple.zeros(problem),
                         ALMConfig(), np.zeros(problem.n))
    assert trace.stop in ("tol", "floor")

    fit = rate_sweep(problem, ref, SWEEP_GRID, seed=7)
    assert all(fit.converged)
    assert not fit.assumptions_unverified
    assert -1.25 <= fit.slope <= -0.80
