"""Augmented Lagrangian method.

Outer loop: minimize the augmented Lagrangian in x, update the multiplier
triple through the closed-form maps, grow the penalty tenfold (up to
``c_max``) when the KKT residual stalls, stop on the KKT residual.  Inner
loop: Newton's method on the continuously differentiable (but not twice
differentiable) augmented Lagrangian, using generalized-Hessian elements
with a Levenberg shift and an Armijo line search, run by default only to
1e-2 times the last KKT residual (a forcing sequence; the first inner
solve is forced by the residual at the starting point).  Both loops also
stop at the round-off floor of the gradient,
eps (||grad f|| + c ||DF|| ||Z||_2 + ||Jh|| ||muhat|| + ||Dg|| ||M||_2),
where Z and M are the shifted matrices of the current point: with a large
penalty an absolute tolerance can lie below what the arithmetic resolves.
The inner loop also stops where a Newton step no longer halves a gradient
already within a few floors of it.
Everything here is deterministic: identical inputs produce bit-identical
traces at a fixed BLAS thread count.
"""

import math
from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from .errors import (
    InnerSolveError,
    InvalidInput,
    MaxIterations,
    require_int,
    require_nonnegative,
    require_positive,
)
from .problem import (
    KKTPoint,
    MultiplierTriple,
    ResidualHalves,
    ShiftedPoint,
    _primal_point,
    _vector_norm,
    aug_lagrangian_grad,
    aug_lagrangian_value,
    check_multipliers,
    kkt_residual,
    multiplier_maps,
    newton_matrix_element,
    triple_diff_norm,
)

__all__ = [
    "InnerConfig",
    "InnerStats",
    "ALMConfig",
    "ALMTrace",
    "MAX_PENALTY",
    "inner_minimize",
    "penalty_update",
    "alm_solve",
]

# Levenberg shift: start at _SHIFT_INITIAL and double until the generalized
# Hessian clears _PD_FLOOR; past _MAX_SHIFT_DOUBLINGS take steepest descent
_SHIFT_INITIAL = 1e-8
_PD_FLOOR = 1e-10
_MAX_SHIFT_DOUBLINGS = 20
# Armijo line search: sufficient-decrease slope and step contraction
_ARMIJO_SLOPE = 1e-4
_BACKTRACK = 0.5
_MAX_BACKTRACKS = 60
# the penalty grows tenfold when the KKT residual fails to drop below this
# fraction of the previous one
_PENALTY_GROWTH = 10.0
_RESIDUAL_DECREASE = 0.25
_EPS = float(np.finfo(np.float64).eps)
# largest penalty the arithmetic resolves: above 1/eps the shift Y/c and the
# prox threshold 1/c fall below the round-off of F(x)
MAX_PENALTY = 1.0 / _EPS
# the outer loop counts a KKT residual within this multiple of the last
# inner solve's round-off floor as converged
_OUTER_FLOOR_FACTOR = 10.0
# an inner solve also stops at the floor when a Newton step's full step
# fails to halve a gradient norm already within this multiple of it:
# progress has stagnated at round-off.  At most _OUTER_FLOOR_FACTOR, so a
# subproblem stopped this way can still pass the outer floor test
_STAGNATION_FACTOR = 4.0


def require_resolvable_penalty(name, c):
    """Reject a penalty above ``MAX_PENALTY``, naming it."""
    if c > MAX_PENALTY:
        raise InvalidInput(f"{name} must be at most 1/eps = "
                           f"{MAX_PENALTY:.4g}, got {c!r}")


@dataclass(frozen=True)
class InnerConfig:
    """Newton inner-loop parameters.

    ``grad_tol`` is absolute; ``grad_tol_rel`` scales the previous outer
    residual into a looser target, a forcing sequence that solves each
    subproblem only as accurately as the outer residual calls for
    (Rockafellar's inexact criteria).  ``alm_solve`` forces its first
    subproblem by the KKT residual at the starting point; a non-finite
    residual forces nothing, and ``grad_tol_rel = 0`` makes every solve
    exact, as rate experiments need.  The loop also
    stops once the gradient norm reaches its round-off floor, which
    large penalties can lift above ``grad_tol``, or stagnates just above
    it (see ``inner_minimize``).
    """

    grad_tol: float = 1e-12
    grad_tol_rel: float = 1e-2
    max_iter: int = 100

    def __post_init__(self):
        require_positive("grad_tol", self.grad_tol)
        require_nonnegative("grad_tol_rel", self.grad_tol_rel)
        require_int("max_iter", self.max_iter, 1)


@dataclass(frozen=True)
class InnerStats:
    """Inner-loop counters; ``point`` is the ShiftedPoint at the last x
    (the returned x, which the multiplier update reuses, or the failed
    loop's best iterate).

    ``stop`` says how the loop ended: "tol" when the gradient norm met the
    configured tolerance, "floor" when it met only the round-off floor or
    stagnated within ``_STAGNATION_FACTOR`` times it (see
    ``inner_minimize``), None when it failed.  ``floor`` is the round-off
    floor at the last point, and ``value`` the augmented Lagrangian
    there, read from ``point``: the loop evaluates the value only where a
    test reads it (see ``inner_minimize``), so a last point it did not
    evaluate is evaluated on the first read.
    """

    iterations: int
    grad_norm: float
    shifted_steps: int
    steepest_steps: int
    point: ShiftedPoint = field(compare=False, repr=False)
    stop: Optional[str] = None
    floor: float = 0.0

    @property
    def value(self):
        return self.point.value


@dataclass(frozen=True)
class ALMConfig:
    """Outer-loop parameters.

    The penalty starts at ``c0`` and grows tenfold whenever the KKT
    residual fails to drop to a quarter of the previous one, up to
    ``c_max``; ``c_max == c0`` holds it fixed, as rate experiments need.
    Neither may exceed ``MAX_PENALTY``.
    """

    c0: float = 10.0
    outer_tol: float = 1e-8
    max_outer: int = 50
    inner: InnerConfig = field(default_factory=InnerConfig)
    c_max: float = 1e12

    def __post_init__(self):
        require_positive("c0", self.c0)
        require_resolvable_penalty("c0", self.c0)
        require_positive("outer_tol", self.outer_tol)
        require_int("max_outer", self.max_outer, 1)
        require_positive("c_max", self.c_max)
        require_resolvable_penalty("c_max", self.c_max)
        if not self.c_max >= self.c0:
            raise InvalidInput(f"c_max must be at least c0, got c_max "
                               f"{self.c_max!r} and c0 {self.c0!r}")


@dataclass
class ALMTrace:
    """Per-outer-iteration record of an ALM run.

    Distances to the reference KKT point are NaN when no reference is
    supplied.  ``stop`` is "tol" when the run ended on ``outer_tol``,
    "floor" when it ended at the round-off floor, and None while it runs
    or after it failed.

    A row's residual may be left pending by ``alm_solve`` (see there) as
    its ResidualHalves; ``residuals`` forms each pending row on first
    read, with the bits an eager run gives it, and keeps it.
    """

    penalties: List[float] = field(default_factory=list)
    points: List[np.ndarray] = field(default_factory=list)
    multipliers: List[MultiplierTriple] = field(default_factory=list)
    _rows: List[object] = field(default_factory=list, repr=False)
    inner_iterations: List[int] = field(default_factory=list)
    dist_x: List[float] = field(default_factory=list)
    dist_y: List[float] = field(default_factory=list)
    stop: Optional[str] = None

    @property
    def residuals(self):
        """The KKTResidual of each row, pending rows formed here."""
        rows = self._rows
        for k, row in enumerate(rows):
            if isinstance(row, ResidualHalves):
                rows[k] = row.residual
        return rows

    def append_row(self, c, x, y, res, inner_iters, dx, dy):
        self.penalties.append(float(c))
        self.points.append(np.array(x))
        self.multipliers.append(y)
        self._rows.append(res)
        self.inner_iterations.append(int(inner_iters))
        self.dist_x.append(float(dx))
        self.dist_y.append(float(dy))

    def __len__(self):
        return len(self.penalties)


# ----------------------------------------------------------------------------
# inner Newton loop
# ----------------------------------------------------------------------------

def _eigenvalue_below_floor(A, floor):
    """Smallest eigenvalue of A if it lies below ``floor``, else None.

    One Cholesky attempt on A - floor I settles the usual positive-definite
    case; the spectrum is computed only when that attempt fails.
    """
    if A.size:
        # A - floor I, by a shift of the diagonal of a copy: off it,
        # a - 0 is a, signed zeros included
        B = A.copy()
        B.ravel()[::A.shape[0] + 1] -= floor
        try:
            np.linalg.cholesky(B)
            return None
        except np.linalg.LinAlgError:
            pass
    lmin = float(np.linalg.eigvalsh(A).min()) if A.size else 0.0
    return lmin if lmin < floor else None


def _definiteness_certified(problem, c):
    """Whether every Newton element at penalty c is certified to clear
    ``_PD_FLOOR`` by its structure, so that no step need test it.

    With F and g affine the element is the constant Lagrangian Hessian H
    plus c times three Gram products, each positive semidefinite up to
    its round-off: Jh^T Jh, and those of DF and Dg, whose rectangle
    weights (1 - T and theta, doubled off the middle block) lie in
    [0, 2] as computed.  So lambda_min(A) is at least the Gershgorin
    bound of H (``QuadraticProblem.curvature_bounds``) less

        kappa eps (||H||_F + c (2 ||DF||_F^2 + ||Jh||_F^2 + 2 ||Dg||_F^2)),

    and kappa = 4 (n^2 + q^2 + p^2 + m + 1) covers, with a factor 2 to
    spare, in units of eps = 2u: the rounding of the Gershgorin sums
    (n^1.5 u ||H||_F), each Gram product's accumulation over at most
    q^2, p^2 or m terms (gamma_L times the weighted squared norms), the
    scalings, sums, symmetrization and shift (a few u), and Cholesky's
    backward error: by Demmel's condition (Higham, *Accuracy and
    Stability of Numerical Algorithms*, 2nd ed., Section 10.1, Theorem
    10.7) Cholesky of the shifted element runs to completion once its
    smallest eigenvalue exceeds n gamma_{n+1} ||A||_2, and ||A||_2 is at
    most the bracket above.  Where the Gershgorin bound less ``_PD_FLOOR``
    exceeds the bound, the Cholesky trial of ``_newton_direction`` cannot
    fail.  False for F or g with ``Aij`` and for n = 0.
    """
    bounds = problem.curvature_bounds
    if bounds is None:
        return False
    lower, h_norm = bounds
    dF, jh, dg = problem.jac_norms
    kappa = 4.0 * (problem.n ** 2 + problem.q ** 2 + problem.p ** 2
                   + problem.m + 1)
    scale = h_norm + c * (2.0 * dF * dF + jh * jh + 2.0 * dg * dg)
    return lower - _PD_FLOOR > kappa * _EPS * scale


def _newton_direction(A, grad, certified):
    """Levenberg-shifted Newton direction; returns (d, shifted, steepest).

    ``certified`` (see ``_definiteness_certified``) skips the definiteness
    test: A is known to clear the floor."""
    shifted = False
    lmin = None if certified else _eigenvalue_below_floor(A, _PD_FLOOR)
    if lmin is not None:
        shift = _SHIFT_INITIAL
        doublings = 0
        while lmin + shift < _PD_FLOOR and doublings < _MAX_SHIFT_DOUBLINGS:
            shift *= 2.0
            doublings += 1
        if lmin + shift < _PD_FLOOR:
            return -grad, False, True
        shifted = True
        A = A + shift * np.eye(A.shape[0])
    d = np.linalg.solve(A, -grad)
    if grad @ d >= 0.0:
        return -grad, shifted, True
    return d, shifted, False


def _data_scales(problem, x, pt):
    """Norms of the data the gradient's summands scale with near x:
    ||grad f(x)|| and the Frobenius norms of the stacks DF, Jh and Dg
    (the problem's constants where they do not depend on x)."""
    dF, jh, dg = problem.jac_norms
    return (float(np.linalg.norm(problem.grad_f(x))),
            float(np.linalg.norm(pt.jac_F)) if dF is None else dF,
            jh,
            float(np.linalg.norm(pt.jac_g)) if dg is None else dg)


def _roundoff_floor(pt, c, scales):
    """Round-off floor of the computed gradient at the ShiftedPoint ``pt``.

    eps (||grad f|| + c ||DF|| ||Z||_2 + ||Jh|| ||muhat|| + ||Dg|| ||M||_2):
    the envelope gradient is c times a function of Z's spectrum and the
    projection a function of M's, each resolved to about eps times the
    spectral norm, which the cached spectra give for free.
    """
    grad_f, dF, jh, dg = scales
    return _EPS * (grad_f + c * dF * pt.eig_Z.norm
                   + jh * math.sqrt(float(pt.muhat @ pt.muhat))
                   + dg * pt.eig_M.norm)


def _inner_stop(gnorm, tol, floor):
    """Stop reason for a gradient norm: "tol", "floor", or None to go on.

    A floor stop needs a finite floor (and so a finite gradient norm):
    data near the float limit give an infinite floor that any finite
    gradient would meet.
    """
    if gnorm <= tol:
        return "tol"
    if gnorm <= floor < math.inf:
        return "floor"
    return None


@dataclass(frozen=True)
class _MultiplierUpdate(MultiplierTriple):
    """The multiplier update ``alm_solve`` formed at ``point``, passed to
    the next inner solve, which starts at the same x: Y and Gamma are
    square and exactly symmetric by construction."""

    point: ShiftedPoint = field(compare=False, repr=False)


def _check_formed_multipliers(Y, Gamma):
    """``check_multipliers`` for a Y and Gamma that a multiplier update
    formed exactly symmetric and of the problem's sizes: only their
    finiteness is left to test, with its message and in its order."""
    for name, M in (("Y", Y), ("Gamma", Gamma)):
        if not np.isfinite(M).all():
            raise InvalidInput(f"{name} contains non-finite entries")


def inner_minimize(problem, y, c, x0, cfg, outer_residual=None):
    """Minimize the augmented Lagrangian in x at the multiplier block y.

    Stops when the gradient norm falls below
    max(grad_tol, grad_tol_rel * outer_residual, floor), where floor is the
    gradient's round-off floor at the current point (see
    ``_roundoff_floor``; the data scales in it are taken once, at x0).
    An ``outer_residual`` that is None, infinite or NaN drops the middle
    term.  It also stops at the floor when progress stagnates at
    round-off: when a Newton step's full step fails to halve a gradient
    norm already within ``_STAGNATION_FACTOR`` times the floor, the point
    the step left from is returned (Nocedal & Wright, *Numerical
    Optimization*, 2nd ed., Sections 3.5 and 7.1, on stopping where the
    computed gradient no longer resolves progress).
    ``InnerStats.stop`` records which bound was met.  Raises
    InnerSolveError with the best iterate if max_iter is exhausted first,
    and InvalidInput if y.Y or y.Gamma is not a finite symmetric matrix
    or x0 is not a finite vector of length n.

    The value is evaluated only where a test reads it: at each Armijo
    trial point, and at the point a step leaves from when its slope
    -grad.d exceeds 1e-12 (the contraction branch's bound is
    1e-12 (1 + |val|)) or the Armijo search runs.  A slope within 1e-12
    takes the contraction branch whatever the value, so a NaN value no
    longer fails such a step when its full step halves the gradient
    norm; when it does not, that full step's point is the search's first
    trial.  ``InnerStats.value`` evaluates an unevaluated last point on
    first read.

    A y that ``alm_solve`` formed at x0 (a ``_MultiplierUpdate``) is
    exactly symmetric, so it is tested only for finiteness, x0 is its
    iterate and is not tested, and the F(x), h(x) and g(x) of the point
    it was formed at start the solve.
    """
    if isinstance(y, _MultiplierUpdate):
        _check_formed_multipliers(y.Y, y.Gamma)
        maps = (y.point.Fx, y.point.hx, y.point.gx)
    else:
        check_multipliers(problem, y.Y, y.mu, y.Gamma)
        x0 = _primal_point(problem, x0, "x0")
        maps = None
    x = np.array(x0, dtype=np.float64)
    tol = cfg.grad_tol
    if outer_residual is not None and math.isfinite(outer_residual):
        tol = max(tol, cfg.grad_tol_rel * outer_residual)
    shifted_steps = 0
    steepest_steps = 0

    # one ShiftedPoint per evaluated point; an accepted trial point's state
    # becomes the current one, so its gradient and Newton element reuse it.
    # The multiplier norms of the value are formed once, at the first
    pt = ShiftedPoint(problem, x, y.Y, y.mu, y.Gamma, c, _maps=maps)
    sq_norms = pt.sq_norms

    def at(z):
        return ShiftedPoint(problem, z, y.Y, y.mu, y.Gamma, c,
                            sq_norms=sq_norms)

    scales = _data_scales(problem, x, pt)
    certified = _definiteness_certified(problem, c)
    grad = aug_lagrangian_grad(problem, x, y.Y, y.mu, y.Gamma, c, point=pt)
    # the value at x, None until a test reads it
    val = None
    # max_iter steps, and a stop check at each of the max_iter + 1 points
    for it in range(cfg.max_iter + 1):
        gnorm = _vector_norm(grad)
        floor = _roundoff_floor(pt, c, scales)
        stop = _inner_stop(gnorm, tol, floor)
        if stop is not None:
            return x, InnerStats(it, gnorm, shifted_steps, steepest_steps,
                                 pt, stop, floor)
        if it == cfg.max_iter:
            break
        A = newton_matrix_element(problem, x, y.Y, y.mu, y.Gamma, c,
                                  point=pt)
        d, shifted, steepest = _newton_direction(A, grad, certified)
        shifted_steps += int(shifted)
        steepest_steps += int(steepest)
        slope = float(grad @ d)
        # a predicted decrease within value noise leaves the Armijo test
        # unable to measure progress; accept the full step on gradient
        # contraction instead.  1 + |val| >= 1, so a slope within 1e-12
        # decides that without the value
        tiny = -slope <= 1e-12
        if not tiny:
            if val is None:
                val = aug_lagrangian_value(problem, x, y.Y, y.mu, y.Gamma,
                                           c, point=pt)
            tiny = -slope <= 1e-12 * (1.0 + abs(val))
        tpt = None
        if tiny:
            trial = x + d
            tpt = at(trial)
            tgrad = aug_lagrangian_grad(problem, trial, y.Y, y.mu, y.Gamma, c,
                                        point=tpt)
            if _vector_norm(tgrad) <= 0.5 * gnorm:
                x, pt, grad, val = trial, tpt, tgrad, None
                continue
            # stagnation at round-off: a Newton step cannot halve a
            # gradient this close to its floor, so x is as good as it gets
            if gnorm <= _STAGNATION_FACTOR * floor < math.inf:
                return x, InnerStats(it, gnorm, shifted_steps,
                                     steepest_steps, pt, "floor", floor)
        if val is None:
            val = aug_lagrangian_value(problem, x, y.Y, y.mu, y.Gamma, c,
                                       point=pt)
        # absorb round-off: near the minimum the true decrease sinks below
        # the resolution of O(|val|) function values
        noise = 1e-14 * (1.0 + abs(val))
        t = 1.0
        accepted = False
        for _ in range(_MAX_BACKTRACKS):
            trial = x + t * d
            # a rejected full step is the first trial: x + 1.0 d is x + d
            if tpt is None:
                tpt = at(trial)
            tval = aug_lagrangian_value(problem, trial, y.Y, y.mu, y.Gamma, c,
                                        point=tpt)
            if tval <= val + _ARMIJO_SLOPE * t * slope + noise:
                accepted = True
                break
            t *= _BACKTRACK
            tpt = None
        if not accepted:
            raise InnerSolveError(
                f"line search failed at inner iteration {it}",
                best_x=x,
                stats=InnerStats(it, gnorm, shifted_steps, steepest_steps,
                                 pt, floor=floor),
            )
        x, pt, val = trial, tpt, tval
        grad = aug_lagrangian_grad(problem, x, y.Y, y.mu, y.Gamma, c, point=pt)
    raise InnerSolveError(
        f"inner loop exhausted {cfg.max_iter} iterations "
        f"(grad {gnorm:.3e} > {max(tol, floor):.1e})",
        best_x=x,
        stats=InnerStats(cfg.max_iter, gnorm, shifted_steps, steepest_steps,
                         pt, floor=floor),
    )


# ----------------------------------------------------------------------------
# outer loop
# ----------------------------------------------------------------------------

def penalty_update(residual_now, residual_prev, c_k, config):
    """Next penalty: tenfold, up to ``c_max``, when the residual stalls."""
    if residual_prev is not None and \
            residual_now > _RESIDUAL_DECREASE * residual_prev:
        return min(_PENALTY_GROWTH * c_k, config.c_max)
    return c_k


def _outer_residual(problem, x, y, point, defer, level):
    """KKT residual at (x, y) and its total; see ``kkt_residual`` for
    ``point``.  With ``defer`` set, the components that need no
    eigendecomposition come first, and when they already exceed
    ``level`` the spectral half is left pending: (ResidualHalves, None).
    """
    if defer:
        halves = ResidualHalves(problem, x, y.Y, y.mu, y.Gamma, point=point)
        if halves.exceeds(level):
            return halves, None
        res = halves.residual
    else:
        res = kkt_residual(problem, x, y.Y, y.mu, y.Gamma, point=point)
    return res, res.total


def alm_solve(problem, y0, config, x0, reference=None):
    """Run the augmented Lagrangian method from (x0, y0).

    A run converges when the KKT residual drops below ``outer_tol``, or
    when it is finite and within a small multiple of the last inner
    solve's round-off floor, which a large penalty can lift above
    ``outer_tol``; ``ALMTrace.stop`` records which.  Each inner solve is
    forced by the residual before it, the first by the residual at
    (x0, y0), while the penalty first grows after two outer residuals.
    Returns (KKTPoint, ALMTrace) on convergence.  Raises MaxIterations
    (carrying the trace and last iterate) if max_outer is exhausted, and
    propagates InnerSolveError (with the partial trace attached) if an
    inner solve stalls.

    A residual's spectral half (subgradient, cone and dual, four
    eigendecompositions) is formed only where something reads its total.
    With ``grad_tol_rel = 0`` and the penalty at ``c_max``, only the stop
    tests do.  A row whose stationarity, equality and complementarity
    are finite, with the largest above max(``outer_tol``, 10 x the inner
    floor), cannot pass them and keeps its spectral half pending; so
    does the residual at (x0, y0) when they exceed ``outer_tol``.  The trace, the
    returned point and MaxIterations form a pending row when read, with
    the bits of an eager run.  A forced or adaptive run forms every row.
    """
    trace = ALMTrace()
    x = np.array(_primal_point(problem, x0, "x0"))
    y = y0
    c = config.c0
    exact = config.inner.grad_tol_rel == 0.0
    res, total = _outer_residual(problem, x, y, None,
                                 exact and c == config.c_max,
                                 config.outer_tol)
    if total is not None and total <= config.outer_tol:
        trace.stop = "tol"
        return KKTPoint(x, y, res), trace
    res_prev = None
    for _k in range(config.max_outer):
        try:
            x, istats = inner_minimize(problem, y, c, x, config.inner,
                                       outer_residual=total)
        except InnerSolveError as exc:
            exc.trace = trace
            raise
        y_next = multiplier_maps(problem, x, y.Y, y.mu, y.Gamma, c,
                                 point=istats.point)
        res, total = _outer_residual(
            problem, x, y_next, istats.point, exact and c == config.c_max,
            max(config.outer_tol, _OUTER_FLOOR_FACTOR * istats.floor))
        dx = dy = float("nan")
        if reference is not None:
            dx = _vector_norm(x - reference.x)
            dy = triple_diff_norm(y_next, reference.multipliers)
        trace.append_row(c, x, y_next, res, istats.iterations, dx, dy)
        y = _MultiplierUpdate(y_next.Y, y_next.mu, y_next.Gamma,
                              istats.point)
        if total is None:
            # pending: no stop test can pass, and c is at its cap
            continue
        if total <= config.outer_tol:
            trace.stop = "tol"
        elif total <= _OUTER_FLOOR_FACTOR * istats.floor < math.inf:
            trace.stop = "floor"
        if trace.stop is not None:
            return KKTPoint(x, y_next, res), trace
        c = penalty_update(total, res_prev, c, config)
        res_prev = total
    if total is None:
        res = res.residual
    raise MaxIterations(
        f"outer loop exhausted {config.max_outer} iterations "
        f"(residual {res.total:.3e} > {config.outer_tol:.1e})",
        point=KKTPoint(x, y_next, res),
        trace=trace,
    )
