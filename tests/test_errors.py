"""The scalar-argument checks in ``errors.py`` and the public entry points
that use them: a bad size, penalty, tolerance or grid value raises an
InvalidInput whose message starts with the argument's name."""

import os
import re
import warnings

import numpy as np
import pytest

from sdnop.diagnostics import (
    cone_blocks,
    nondegeneracy_check,
    rate_constants,
    rate_sweep,
    strong_sosc_check,
)
from sdnop.errors import (
    InvalidInput,
    require_int,
    require_nonnegative,
    require_positive,
    require_seed,
)
from sdnop.generator import generate_instance
from sdnop.nuclear import (
    critical_blocks_contain,
    grad_moreau_env,
    moreau_env,
    prox_bsub_element,
    prox_dir_deriv,
    prox_nuclear,
)
from sdnop.problem import (
    KKTPoint,
    MultiplierTriple,
    ShiftedPoint,
    aug_lagrangian_value,
    dual_value_and_grad,
    kkt_residual,
    load_instance,
)
from sdnop.solver import ALMConfig, InnerConfig, alm_solve, inner_minimize
from sdnop.spectral import eig_sym, group_distinct

from conftest import make_mixed_instance

REAL_BAD = [True, None, "1", float("nan"), float("inf")]
INT_BAD = REAL_BAD + [2.0]

_Z = np.diag([2.0, 0.5, -1.0])
_EIG = eig_sym(_Z)
# a point of the nuclear norm's graph: Y is a subgradient at X
_X, _Y = np.diag([1.0, 0.0]), np.diag([1.0, 0.5])
_GENERATE = {"n": 24, "q": 10, "m": 3, "p": 8}


def _generate(key, value):
    generate_instance(**dict(_GENERATE, **{key: value}))


def _sweep(**kwargs):
    problem = make_mixed_instance()
    rate_sweep(problem, problem.reference, **kwargs)


def _at_penalty(call, c):
    problem = make_mixed_instance()
    y = MultiplierTriple.zeros(problem)
    if call is dual_value_and_grad:
        call(problem, y.Y, y.mu, y.Gamma, c, np.zeros(problem.n))
    else:
        call(problem, np.zeros(problem.n), y.Y, y.mu, y.Gamma, c)


# (case id, argument name as the message gives it, bad values, call taking
# the bad value)
_CASES = [
    *((f"generate_instance-{key}", key, INT_BAD,
       lambda v, key=key: _generate(key, v)) for key in _GENERATE),
    ("rate_sweep-grid", "grid value", REAL_BAD,
     lambda v: _sweep(grid=[v])),
    ("rate_sweep-delta", "delta", REAL_BAD,
     lambda v: _sweep(grid=[10.0], delta=v)),
    ("prox_nuclear", "tau", REAL_BAD, lambda v: prox_nuclear(_Z, v)),
    ("moreau_env", "tau", REAL_BAD, lambda v: moreau_env(_Z, v)),
    ("grad_moreau_env", "tau", REAL_BAD, lambda v: grad_moreau_env(_Z, v)),
    ("prox_dir_deriv", "tau", REAL_BAD,
     lambda v: prox_dir_deriv(_Z, v, np.eye(3))),
    ("prox_bsub_element", "tau", REAL_BAD,
     lambda v: prox_bsub_element(_X, _Y, v)),
    *((call.__name__, "c", REAL_BAD, lambda v, call=call: _at_penalty(call, v))
      for call in (ShiftedPoint, aug_lagrangian_value, dual_value_and_grad)),
    ("group_distinct", "group_tol", REAL_BAD,
     lambda v: group_distinct(_EIG, v)),
    ("critical_blocks_contain", "tol", REAL_BAD,
     lambda v: critical_blocks_contain(np.zeros((2, 2)), [], [0], [], v)),
    *((f"InnerConfig-{key}", key, INT_BAD if key == "max_iter" else REAL_BAD,
       lambda v, key=key: InnerConfig(**{key: v}))
      for key in ("grad_tol", "grad_tol_rel", "max_iter")),
    *((f"ALMConfig-{key}", key, INT_BAD if key == "max_outer" else REAL_BAD,
       lambda v, key=key: ALMConfig(**{key: v}))
      for key in ("c0", "outer_tol", "max_outer", "c_max")),
]


@pytest.mark.parametrize("name, value, call", [
    pytest.param(name, value, call, id=f"{case}-{value!r}")
    for case, name, values, call in _CASES for value in values
])
def test_bad_scalar_argument_is_named(name, value, call):
    with pytest.raises(InvalidInput, match=rf"^{re.escape(name)} must be "):
        call(value)


class TestChecks:
    def test_values_come_back(self):
        assert require_int("n", 3) == 3
        n = require_int("n", np.int64(3), 1)
        assert n == 3 and type(n) is int
        assert require_positive("c", 10.0) == 10.0
        c = require_positive("c", np.float64(10.0))
        assert c == 10.0 and type(c) is float
        assert require_positive("c", 10) == 10.0
        assert require_nonnegative("tol", 0.0) == 0.0
        assert require_nonnegative("tol", 0) == 0.0
        assert require_seed(np.uint32(7)) == 7

    @pytest.mark.parametrize("check, value, message", [
        (require_int, -1, "n must be a nonnegative integer, got -1"),
        (require_positive, 0.0, "n must be a positive finite number, "
                                "got 0.0"),
        (require_positive, -np.inf, "n must be a positive finite number, "
                                    "got -inf"),
        (require_positive, 10 ** 400, "n must be a positive finite number"),
        (require_nonnegative, -1e-300, "n must be a nonnegative finite "
                                       "number, got -1e-300"),
        (require_nonnegative, np.bool_(True), "n must be a nonnegative "
                                              "finite number"),
    ])
    def test_messages(self, check, value, message):
        with pytest.raises(InvalidInput, match=f"^{re.escape(message)}"):
            check("n", value)

    def test_positive_lower_bound(self):
        assert require_int("max_iter", 1, 1) == 1
        with pytest.raises(InvalidInput,
                           match=r"^max_iter must be an integer of at "
                                 r"least 1, got 0$"):
            require_int("max_iter", 0, 1)


# ----------------------------------------------------------------------------
# malformed primal points
# ----------------------------------------------------------------------------

_NONDEGEN = os.path.join(os.path.dirname(os.path.dirname(__file__)),
                         "instances", "nondegen_small.json")


def _probe(call, x):
    """Call a public entry point on nondegen_small at the point x."""
    problem = load_instance(_NONDEGEN)
    y = problem.reference.multipliers
    if call is alm_solve:
        return call(problem, y, ALMConfig(), x)
    if call is inner_minimize:
        return call(problem, y, 10.0, x, InnerConfig())
    if call is dual_value_and_grad:
        return call(problem, y.Y, y.mu, y.Gamma, 10.0, x)
    if call is kkt_residual:
        return call(problem, x, y.Y, y.mu, y.Gamma)
    if call is aug_lagrangian_value:
        return call(problem, x, y.Y, y.mu, y.Gamma, 10.0)
    if call is rate_sweep:
        return call(problem, KKTPoint(x, y), (10.0,))
    return call(problem, x, y)


# each entry point, and the name its message gives the point
_POINT_CALLS = [
    (alm_solve, "x0"), (inner_minimize, "x0"), (dual_value_and_grad, "x0"),
    (kkt_residual, "x"), (aug_lagrangian_value, "x"), (cone_blocks, "x"),
    (nondegeneracy_check, "x"), (strong_sosc_check, "x"),
    (rate_constants, "x"), (rate_sweep, "reference.x"),
]
_BAD_POINTS = {
    "short": np.zeros(3),
    "nan": np.full(8, np.nan),
    "inf": np.full(8, np.inf),
    "text": "0",
    # finite, but f, F, h or g overflows at it
    "huge": np.full(8, 1e308),
}


@pytest.mark.parametrize("bad", sorted(_BAD_POINTS))
@pytest.mark.parametrize("call, name", _POINT_CALLS,
                         ids=[call.__name__ for call, _ in _POINT_CALLS])
def test_malformed_point_is_named(call, name, bad):
    # rejected where it enters, before any arithmetic on it can warn
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidInput,
                           match=rf"^{name} (must|contains|is) "):
            _probe(call, _BAD_POINTS[bad])


@pytest.mark.parametrize("kwargs, message", [
    ({"grid": 10.0}, "grid must be a sequence of penalties, got 10.0"),
    ({"grid": None}, "grid must be a sequence of penalties, got None"),
    ({"reference": None, "grid": (10.0,)},
     "reference must be a KKTPoint, got NoneType"),
], ids=["grid-float", "grid-None", "reference-None"])
def test_rate_sweep_arguments_are_named(kwargs, message):
    problem = make_mixed_instance()
    kwargs = dict({"reference": problem.reference}, **kwargs)
    with pytest.raises(InvalidInput, match=f"^{re.escape(message)}$"):
        rate_sweep(problem, **kwargs)
