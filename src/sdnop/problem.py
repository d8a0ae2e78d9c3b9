"""Problem model for nuclear-norm composite matrix optimization.

A problem instance is

    minimize  f(x) + ||F(x)||_*
    subject to  h(x) = 0,  g(x) positive semidefinite,

with f scalar, F and g symmetric-matrix valued, and h vector valued.  This
module owns the evaluation oracles, the (augmented) Lagrangian and its
derivatives, KKT residuals, the multiplier update maps, generalized-Hessian
elements of the augmented Lagrangian, and the local dual function.
"""

import json
import math
from dataclasses import asdict, dataclass
from typing import Optional

import numpy as np

from .errors import InvalidInput, require_int, require_positive
from .nuclear import envelope_grad, envelope_value, prox_support_table
from .psd_cone import positive_part, theta_support_table
from .spectral import (
    SYM_TOL,
    as_symmetric,
    check_symmetric,
    eig_symmetrized,
    symmetric_part,
)
# not called here: perfbench/tracing.py looks these public forms up on
# this module and wraps them
from .nuclear import grad_moreau_env, moreau_env, nuclear_norm  # noqa: F401
from .nuclear import prox_divided_diff  # noqa: F401
from .psd_cone import proj_bsub_element, project_psd  # noqa: F401

__all__ = [
    "QuadraticMatrixMap",
    "QuadraticProblem",
    "MultiplierTriple",
    "KKTResidual",
    "KKTPoint",
    "ShiftedPoint",
    "check_multipliers",
    "triple_diff_norm",
    "grad_x_lagrangian",
    "hess_xx_lagrangian",
    "aug_lagrangian_value",
    "aug_lagrangian_grad",
    "multiplier_maps",
    "newton_matrix_element",
    "kkt_residual",
    "ResidualHalves",
    "dual_value_and_grad",
    "instance_from_dict",
    "instance_to_dict",
    "load_instance",
    "save_instance",
]


def _contract(a, b, shape):
    """Product of two operands flattened to at most two axes, reshaped to
    ``shape``: the product ``np.tensordot`` forms, without its per-call
    index bookkeeping.  Every contraction of a coefficient stack is this
    one call, so an overflowing one warns once, whichever map it is."""
    return np.dot(a, b).reshape(shape)


def _vector_norm(v):
    """Euclidean norm of a float vector: the body of ``np.linalg.norm``
    for one, sqrt(v . v), without the wrapper's dispatch."""
    return math.sqrt(v.dot(v))


def adjoint_jac(jac, S):
    """Adjoint of a stacked Jacobian: coordinate pairings <(d/dx_i), S>."""
    S = np.asarray(S)
    n = jac.shape[0]
    return _contract(jac.reshape(n, S.size), S.reshape(-1), n)


# ----------------------------------------------------------------------------
# quadratic maps and the problem oracle
# ----------------------------------------------------------------------------

def _array(value, name, shape, finite=True):
    """``value`` as a float64 array of ``shape``, in which an axis given by
    a letter may have any length, with finite entries unless ``finite`` is
    false (a symmetry test checks them); else InvalidInput naming ``name``."""
    try:
        A = np.asarray(value, dtype=np.float64)
    except (TypeError, ValueError, OverflowError) as exc:
        raise InvalidInput(f"{name} must be numeric: {exc}") from None
    if A.ndim != len(shape) or any(want != got for want, got in
                                   zip(shape, A.shape) if type(want) is int):
        text = ", ".join(map(str, shape)) + ("," if len(shape) == 1 else "")
        raise InvalidInput(f"{name} must have shape ({text}), got {A.shape}")
    if finite and not np.isfinite(A).all():
        raise InvalidInput(f"{name} contains non-finite entries")
    return A


def _primal_point(problem, x, name):
    """:func:`_array` for a point of length n, which also refuses, before
    any warning, a finite x at which f, its gradient, F, h or g overflows."""
    x = _array(x, name, (problem.n,))
    try:
        with np.errstate(over="raise", invalid="raise"):
            problem.f(x), problem.grad_f(x), problem.F(x), problem.h(x)
            problem.g(x)
    except FloatingPointError:
        raise InvalidInput(f"{name} is too large: the maps overflow") from None
    return x


class _lazy:
    """Attribute computed on first read, like ``functools.cached_property``
    but without the lock that one takes at every first read before Python
    3.12.  The result goes into the instance ``__dict__``, which shadows
    this descriptor from then on."""

    def __init__(self, fn):
        self.fn = fn
        self.name = fn.__name__
        self.__doc__ = fn.__doc__

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        value = obj.__dict__[self.name] = self.fn(obj)
        return value


def _sym_stack(A, name):
    """:func:`spectral.symmetric_part` of a stack (..., k, k), each slice
    checked first by the rule of :func:`spectral.check_symmetric` in one
    pass over the stack; that function names the first slice that fails."""
    top = np.abs(A).max(axis=(-2, -1), initial=0.0)
    with np.errstate(invalid="ignore"):  # inf - inf, in a failing slice
        gap = np.abs(A - np.swapaxes(A, -2, -1)).max(axis=(-2, -1),
                                                     initial=0.0)
    bad = ~np.isfinite(top) | (gap > SYM_TOL * (1.0 + top))
    if bad.any():
        check_symmetric(A[tuple(np.argwhere(bad)[0])], name)
    return symmetric_part(A, name)


class QuadraticMatrixMap:
    """Matrix-valued quadratic map x -> A0 + sum_i x_i A_i + (1/2) sum_ij x_i x_j A_ij.

    All coefficient matrices are symmetric k-by-k; ``Aij`` is optional
    (affine map) and must be symmetric under swapping i and j.  Quadratic
    maps have exact constant second derivatives, which keeps oracle error
    out of rate experiments.  The constructor checks each coefficient's
    shape, finiteness and symmetry once, naming it (``Ai``, ...).

    Each contraction with x or with a matrix is one product of a flat
    view of the stack, (n, k*k) for ``Ai`` and (n, n*k*k) or (n*n, k*k)
    for ``Aij``.
    """

    def __init__(self, A0, Ai, Aij=None):
        A0 = _array(A0, "A0", ("k", "k"), finite=False)
        self.A0 = as_symmetric(A0, "A0")
        k = self.A0.shape[0]
        self.Ai = _sym_stack(_array(Ai, "Ai", ("n", k, k), finite=False), "Ai")
        n = self.Ai.shape[0]
        if Aij is None:
            self.Aij = None
        else:
            Aij = _array(Aij, "Aij", (n, n, k, k), finite=False)
            self.Aij = _sym_stack(Aij, "Aij")
            if np.abs(self.Aij - np.swapaxes(self.Aij, 0, 1)).max(initial=0.0) > 1e-12:
                raise InvalidInput("Aij must be symmetric in the index pair")
            self._Aij_flat = self.Aij.reshape(n, n * k * k)
        self._Ai_flat = self.Ai.reshape(n, k * k)
        self.n = n
        self.k = k

    def value(self, x):
        n, k = self.n, self.k
        V = self.A0 + _contract(x, self._Ai_flat, (k, k))
        if self.Aij is not None:
            Jx = _contract(x, self._Aij_flat, (n, k * k))
            V = V + 0.5 * _contract(x, Jx, (k, k))
        return V

    def jac(self, x):
        J = self.Ai
        if self.Aij is not None:
            J = J + _contract(x, self._Aij_flat, (self.n, self.k, self.k))
        return J

    def hess_contract(self, S):
        """The (n, n) matrix of pairings of the multiplier S with the
        second partials: <S, A_ij>, zeros for an affine map."""
        n, k = self.n, self.k
        if self.Aij is None:
            return np.zeros((n, n))
        return _contract(self.Aij.reshape(n * n, k * k),
                         np.asarray(S).reshape(-1), (n, n))


class QuadraticProblem:
    """Serializable instance with quadratic f, F, g and affine h.

    ``f`` is c0 + b.x + (1/2) x.H.x; ``h`` rows are affine (A x + r); F and
    g are QuadraticMatrixMap.  An optional reference KKT point rides along
    for diagnostics and rate experiments.

    This constructor and :class:`QuadraticMatrixMap`'s are the one place
    that checks instance data: each field's shape (n from ``f_b``, m from
    ``h_r``), finiteness and symmetry, once, naming it as the JSON does
    (``f.b``, ``h.A``, ``reference_kkt.Y``, ...).

    The dimensions are ``n`` (primal), ``q`` (matrix size of F), ``m``
    (equality count) and ``p`` (matrix size of g).  Stacked Jacobians have
    shape (n, k, k).  The methods are the evaluations that vary with x;
    what does not is read from the data: the Hessian ``f_H``, the
    Jacobian ``h_A`` and the maps' ``hess_contract``.  Evaluations do
    not mutate the instance, so they may run concurrently; the only state
    they add is the constants of the data the solver caches on first use
    (``affine_curvature``, ``curvature_bounds``, ``jac_h_gram``,
    ``jac_norms``), which every
    evaluation computes alike.  So the data must not be changed after a
    solve has read them.

    Any block may be absent: ``F_map=None`` or ``g_map=None`` becomes a
    0x0 map (q or p is 0) and ``m = 0`` gives a (0, n) ``h_A``.  This
    constructor is the one place that knows; every formula downstream runs
    on the zero-size arrays unchanged, and they contribute exact zeros.
    """

    def __init__(self, f_c0, f_b, f_H, F_map, h_A, h_r, g_map, reference=None):
        self.f_c0 = float(_array(f_c0, "f.c0", ()))
        self.f_b = _array(f_b, "f.b", ("n",))
        n = self.f_b.size
        f_H = _array(f_H, "f.H", (n, n), finite=False)
        self.f_H = as_symmetric(f_H, "f.H")
        # formed only for an absent map, so a full instance checks no 0x0 one
        self.F_map, self.g_map = (
            QuadraticMatrixMap(np.zeros((0, 0)), np.zeros((n, 0, 0)))
            if qmap is None else qmap for qmap in (F_map, g_map))
        for name, qmap in (("F", self.F_map), ("g", self.g_map)):
            _array(qmap.Ai, f"{name}.Ai", (n, qmap.k, qmap.k), finite=False)
        self.h_r = _array(h_r, "h.r", ("m",))
        self.h_A = _array(h_A, "h.A", (self.h_r.size, n))
        self.n = n
        self.q = self.F_map.k
        self.m = self.h_r.size
        self.p = self.g_map.k
        if reference is not None:
            y = reference.multipliers
            for field, value, shape in (
                    ("x", reference.x, (n,)), ("Y", y.Y, (self.q,) * 2),
                    ("mu", y.mu, (self.m,)), ("Gamma", y.Gamma, (self.p,) * 2)):
                _array(value, f"reference_kkt.{field}", shape)
        self.reference = reference

    # -- constants of the data ------------------------------------------------
    # formed on first use by the same expressions the oracles evaluate, so
    # with the same bits, and kept: the solver reads them at every point
    @_lazy
    def affine_curvature(self):
        """Hessian in x of the Lagrangian when F and g have no ``Aij``:
        then it is the same at every point and multiplier.  None
        otherwise."""
        if self.F_map.Aij is not None or self.g_map.Aij is not None:
            return None
        y = MultiplierTriple.zeros(self)
        return hess_xx_lagrangian(self, np.zeros(self.n), y.Y, y.mu, y.Gamma)

    @_lazy
    def curvature_bounds(self):
        """(Gershgorin lower bound on the smallest eigenvalue, Frobenius
        norm) of ``affine_curvature``; None where that is None or n is
        0.  The solver's definiteness certificate reads them."""
        H = self.affine_curvature
        if H is None or not self.n:
            return None
        d = H.diagonal()
        radius = np.abs(H).sum(axis=1) - np.abs(d)
        return float((d - radius).min()), float(np.linalg.norm(H))

    @_lazy
    def jac_h_gram(self):
        """Jh^T Jh, the same at every x since h is affine."""
        return self.h_A.T @ self.h_A

    @_lazy
    def jac_norms(self):
        """Frobenius norms of the Jacobian stacks DF, Jh and Dg where they
        are the same at every x; None for a map with ``Aij``."""
        def stack_norm(qmap):
            if qmap.Aij is not None:
                return None
            return float(np.linalg.norm(qmap.Ai))
        return (stack_norm(self.F_map),
                float(np.linalg.norm(self.h_A)),
                stack_norm(self.g_map))

    # -- oracle implementation ------------------------------------------------
    def f(self, x):
        return float(self.f_c0 + self.f_b @ x + 0.5 * x @ self.f_H @ x)

    def grad_f(self, x):
        return self.f_b + self.f_H @ x

    def F(self, x):
        return self.F_map.value(x)

    def jac_F(self, x):
        return self.F_map.jac(x)

    def h(self, x):
        return self.h_A @ x + self.h_r

    def g(self, x):
        return self.g_map.value(x)

    def jac_g(self, x):
        return self.g_map.jac(x)


# ----------------------------------------------------------------------------
# multipliers and KKT bookkeeping
# ----------------------------------------------------------------------------

@dataclass(frozen=True)
class MultiplierTriple:
    """Multiplier block (Y, mu, Gamma) for the three constraint parts."""

    Y: np.ndarray
    mu: np.ndarray
    Gamma: np.ndarray

    @staticmethod
    def zeros(problem):
        return MultiplierTriple(
            np.zeros((problem.q, problem.q)),
            np.zeros(problem.m),
            np.zeros((problem.p, problem.p)),
        )


def triple_diff_norm(a, b):
    """Euclidean norm of the stacked difference of two multiplier triples.

    The root of the summed squares, except where that sum overflows on
    finite differences: then the largest difference scales them, so
    entries near the float limit give a finite norm and no warning.
    """
    with np.errstate(over="ignore"):
        diffs = (a.Y - b.Y, a.mu - b.mu, a.Gamma - b.Gamma)
        sq = (diffs[0] ** 2).sum() + (diffs[1] ** 2).sum() \
            + (diffs[2] ** 2).sum()
    if math.isfinite(sq):
        return float(np.sqrt(sq))
    scale = max(float(np.abs(d).max(initial=0.0)) for d in diffs)
    if not 0.0 < scale < math.inf:
        # an infinite or NaN difference, which no scale makes finite
        return float(np.sqrt(sq))
    with np.errstate(over="ignore"):
        return float(scale * np.sqrt(
            sum(((d / scale) ** 2).sum() for d in diffs)))


@dataclass(frozen=True)
class KKTResidual:
    """Componentwise first-order optimality residual (all nonnegative).

    ``total`` is the largest component, and NaN when any component is:
    a residual on NaN data never meets a tolerance.
    """

    stationarity: float
    subgradient: float
    equality: float
    cone: float
    dual: float
    complementarity: float

    @property
    def total(self):
        parts = (self.stationarity, self.subgradient, self.equality,
                 self.cone, self.dual, self.complementarity)
        if any(math.isnan(v) for v in parts):
            return math.nan
        return max(parts)

    def as_dict(self):
        return {**asdict(self), "total": self.total}


@dataclass(frozen=True)
class KKTPoint:
    x: np.ndarray
    multipliers: MultiplierTriple
    residual: Optional[KKTResidual] = None


# ----------------------------------------------------------------------------
# Lagrangian and augmented Lagrangian
# ----------------------------------------------------------------------------

def _lagrangian_grad(problem, x, jac_F, jac_g, Y, mu, Gamma):
    """Gradient in x of the Lagrangian, given the Jacobian stacks of F
    and g at x."""
    return (problem.grad_f(x) + adjoint_jac(jac_F, Y)
            + problem.h_A.T @ mu - adjoint_jac(jac_g, Gamma))


def grad_x_lagrangian(problem, x, Y, mu, Gamma):
    return _lagrangian_grad(problem, x, problem.jac_F(x), problem.jac_g(x),
                            Y, mu, Gamma)


def hess_xx_lagrangian(problem, x, Y, mu, Gamma):
    """Hessian in x of the Lagrangian, symmetrized by
    :func:`spectral.symmetric_part`.  ``mu`` does not enter, because h
    is affine."""
    return symmetric_part(problem.f_H + problem.F_map.hess_contract(Y)
                          - problem.g_map.hess_contract(Gamma),
                          "Hessian of the Lagrangian")


class ShiftedPoint:
    """Shifted spectra of the augmented Lagrangian at one point x.

    Everything the augmented Lagrangian and its derivatives need at x comes
    from two spectral operators: the nuclear-norm prox at
    Z = F(x) + Y/c and the PSD projection at M = Gamma - c g(x).  Each is a
    function of one eigendecomposition, taken here once (``eig_Z`` and
    ``eig_M``) and passed to the operators' decomposition forms by the
    value, the gradient, the Newton element and the multiplier update.
    ``Z`` and ``M`` are symmetrized by :func:`spectral.symmetric_part`,
    which keeps the bits of an exactly symmetric sum; a non-finite entry
    in either is an InvalidInput that names it, so a point proves F(x)
    and g(x) finite.  Y and Gamma are not tested for symmetry here: the
    callers check them once, where they enter (``check_multipliers``).
    ``sq_norms`` holds the terms fixed for a whole subproblem:
    (np.sum(Y * Y), np.sum(Gamma * Gamma)) for the value, the shift Y/c
    of Z, and the equality block c Jh^T Jh of the Newton element; a
    caller that evaluates many points of one subproblem takes it from the
    first point and passes it on.  The envelope gradient
    Yhat, the projection Ghat, the Jacobians, the gradient and the value
    are formed on first use, so a point whose value nobody reads never
    evaluates it.  F(x), h(x) and g(x) are kept for the KKT residual at
    the multiplier update and for the first point of the next
    subproblem, at the same x, which takes them as ``_maps`` instead of
    forming them again.  Every attribute is set for every problem: an
    absent F or g gives a 0x0 Z or M (whose decomposition calls no
    eigensolver) and m = 0 gives empty ``hx`` and ``muhat``.
    """

    def __init__(self, problem, x, Y, mu, Gamma, c, *, sq_norms=None,
                 _maps=None):
        require_positive("c", c)
        self.problem = problem
        self.x = x
        self.mu = mu
        self.c = c
        self.tau = 1.0 / c
        self.Fx = problem.F(x) if _maps is None else _maps[0]
        Y_shift = Y / c if sq_norms is None else sq_norms[2]
        self.Z = symmetric_part(self.Fx + Y_shift, "F(x) + Y/c")
        self.eig_Z = eig_symmetrized(self.Z)
        self.hx = problem.h(x) if _maps is None else _maps[1]
        self.muhat = mu + c * self.hx
        self.gx = problem.g(x) if _maps is None else _maps[2]
        self.M = symmetric_part(Gamma - c * self.gx, "Gamma - c g(x)")
        self.eig_M = eig_symmetrized(self.M)
        if sq_norms is None:
            sq_norms = (np.sum(Y * Y), np.sum(Gamma * Gamma), Y_shift,
                        c * problem.jac_h_gram)
        self.sq_norms = sq_norms

    @_lazy
    def Yhat(self):
        """Envelope gradient at Z: the updated nuclear-norm multiplier."""
        return envelope_grad(self.eig_Z, self.Z, self.tau)

    @_lazy
    def Ghat(self):
        """Projection of M onto the PSD cone: the updated cone multiplier."""
        return positive_part(self.eig_M)

    @_lazy
    def jac_F(self):
        return self.problem.jac_F(self.x)

    @_lazy
    def jac_g(self):
        return self.problem.jac_g(self.x)

    @_lazy
    def grad(self):
        """Gradient in x of the augmented Lagrangian, which is the
        Lagrangian gradient at the multiplier update (Yhat, muhat, Ghat)."""
        return _lagrangian_grad(self.problem, self.x, self.jac_F, self.jac_g,
                                self.Yhat, self.muhat, self.Ghat)

    @_lazy
    def value(self):
        """Augmented Lagrangian at x: the objective, the envelope at Z
        less ||Y||^2 / 2c, the equality terms, and the squared projection
        of M less ||Gamma||^2, over 2c."""
        c, hx, P = self.c, self.hx, self.Ghat
        Y_sq, Gamma_sq = self.sq_norms[:2]
        val = self.problem.f(self.x)
        val += envelope_value(self.eig_Z, self.tau) - Y_sq / (2.0 * c)
        val += float(self.mu @ hx) + 0.5 * c * float(hx @ hx)
        val += ((P * P).sum() - Gamma_sq) / (2.0 * c)
        return float(val)


def check_multipliers(problem, Y, mu, Gamma):
    """Reject, naming it, the first of Y, mu and Gamma that is not finite,
    of the problem's size and, for Y and Gamma, symmetric to round-off
    (see :func:`spectral.check_symmetric`)."""
    if check_symmetric(Y, "Y").shape != (problem.q,) * 2:
        raise InvalidInput("Y dimension does not match the problem")
    if np.shape(mu) != (problem.m,):
        raise InvalidInput("mu dimension does not match the problem")
    if not np.isfinite(mu).all():
        raise InvalidInput("mu contains non-finite entries")
    if check_symmetric(Gamma, "Gamma").shape != (problem.p,) * 2:
        raise InvalidInput("Gamma dimension does not match the problem")


def _shifted(problem, x, Y, mu, Gamma, c, point):
    """``point``, or a ShiftedPoint from arguments checked here: x a
    finite vector of length n, the multipliers by
    :func:`check_multipliers`."""
    if point is not None:
        return point
    x = _primal_point(problem, x, "x")
    check_multipliers(problem, Y, mu, Gamma)
    return ShiftedPoint(problem, x, Y, mu, Gamma, c)


def aug_lagrangian_value(problem, x, Y, mu, Gamma, c, *, point=None):
    """Augmented Lagrangian with penalty c.

    Objective plus the smoothed nuclear-norm term at the shifted argument
    F(x) + Y/c, the quadratic equality penalty, and the shifted projection
    penalty for the semidefinite constraint.  ``point`` is an optional
    ShiftedPoint built from the same arguments, to reuse its spectra.
    """
    return _shifted(problem, x, Y, mu, Gamma, c, point).value


def aug_lagrangian_grad(problem, x, Y, mu, Gamma, c, *, point=None):
    """Gradient in x of the augmented Lagrangian (continuously differentiable).

    ``point`` is an optional ShiftedPoint built from the same arguments.
    """
    return _shifted(problem, x, Y, mu, Gamma, c, point).grad


def multiplier_maps(problem, x, Y, mu, Gamma, c, *, point=None):
    """One multiplier update at the point x with penalty c.

    Y+ is the envelope gradient at the shifted argument, mu+ the shifted
    equality multiplier, Gamma+ the projection of the shifted semidefinite
    multiplier.  At an exact saddle point the map is a fixed point.
    ``point`` is an optional ShiftedPoint built from the same arguments.
    """
    pt = _shifted(problem, x, Y, mu, Gamma, c, point)
    return MultiplierTriple(pt.Yhat, pt.muhat, pt.Ghat)


# ----------------------------------------------------------------------------
# generalized Hessian of the augmented Lagrangian
# ----------------------------------------------------------------------------

def _rectangle_gram(Q, jac, R, lo):
    """Matrix of pairings <G_i, R o G_j> over a Jacobian stack, where
    G_i = Q[:, :hi]^T J_i Q[:, lo:] is the congruence of J_i to the
    rectangle rows [0, hi) x columns [lo, k) that the weights R cover:
    one batched congruence of the stack, then one Hadamard-weighted Gram
    product.  An empty rectangle gives zeros."""
    G = np.matmul(np.matmul(Q[:, :R.shape[0]].T, jac), Q[:, lo:])
    G = G.reshape(jac.shape[0], -1)
    return (G * R.reshape(-1)) @ G.T


def _mirror_weights(W, lo):
    """Rectangle weights of a symmetric table whose rows [0, hi) x
    columns [lo, k) are ``W``: twice each entry, except once on the
    middle block [lo, hi)^2.  Outside the middle block the rectangle
    holds one pair of each mirror pair, so its weights count twice."""
    R = 2.0 * W
    mid = W.shape[0] - lo
    R[lo:, :mid] = W[lo:, :mid]
    return R


def newton_matrix_element(problem, x, Y, mu, Gamma, c, *, point=None):
    """One element of the generalized Hessian of the augmented Lagrangian.

    Lagrangian curvature at the updated multipliers plus the three
    constraint-curvature blocks: the envelope generalized Hessian pushed
    through DF, the exact equality block c Jh^T Jh, and a projection
    B-subdifferential element pushed through Dg.  ``point`` is an
    optional ShiftedPoint built from the same arguments.

    Kinks are exact (``prox_support_table`` and
    ``theta_support_table``), and the element commits the zero
    table on them: the model must be the derivative of the gradient map
    as computed.  A positive window lets a near-zero eigenvalue take the
    zero branch while the projection it feeds takes the sign branch, a
    penalty-weighted rank-one model error that stalls the inner loop.

    Both constraint blocks are Hadamard-weighted Gram products taken over
    the support rectangle of their table, rows [0, hi) x columns [lo, k)
    (:func:`_rectangle_gram`): 1 - T vanishes, to round-off, on [0, lo)^2
    and [hi, k)^2, where both eigenvalues shrink on the same side of the
    threshold, and theta on [hi, p)^2, where both are negative.  Every
    pair that carries weight then has itself or its mirror image in the
    rectangle, weighted by :func:`_mirror_weights`.  At exact kinks both
    tables are pair rules of the eigenvalues, so only the rectangle is
    formed, from the spectrum (:func:`nuclear.prox_support_table`,
    :func:`psd_cone.theta_support_table`).
    The Lagrangian curvature of affine F and g is the problem's
    constant, and c Jh^T Jh the subproblem's (``ShiftedPoint.sq_norms``).
    """
    pt = _shifted(problem, x, Y, mu, Gamma, c, point)
    A = problem.affine_curvature
    if A is None:
        A = hess_xx_lagrangian(problem, x, pt.Yhat, pt.muhat, pt.Ghat)

    T, lo = prox_support_table(pt.eig_Z, pt.tau)
    R = _mirror_weights(1.0 - T, lo)
    A = A + c * _rectangle_gram(pt.eig_Z.basis, pt.jac_F, R, lo)

    A = A + pt.sq_norms[3]

    R = _mirror_weights(theta_support_table(pt.eig_M), 0)
    A = A + c * _rectangle_gram(pt.eig_M.basis, pt.jac_g, R, 0)
    return 0.5 * (A + A.T)


# ----------------------------------------------------------------------------
# KKT residual
# ----------------------------------------------------------------------------

def kkt_residual(problem, x, Y, mu, Gamma, *, point=None):
    """Componentwise KKT residual at (x, Y, mu, Gamma).

    The subgradient component uses the norm characterization of the
    nuclear-norm subdifferential (dual-ball feasibility plus the pairing
    gap), which is continuous in (x, Y); a blockwise eigenstructure test
    would jump when eigenvalues of F(x) cross zero.  F(x) and g(x) are
    symmetrized and decomposed as formed; a non-finite one is an
    InvalidInput that names it.

    ``point`` is an optional ShiftedPoint at x whose multiplier update
    (``multiplier_maps``) is (Y, mu, Gamma).  Its gradient is then the
    Lagrangian gradient here, and its F(x), h(x) and g(x) are reused.
    Y and Gamma are then taken as formed, exactly symmetric, and still
    decomposed: the spectra of Z and M give their eigenvalues only up to
    the round-off of forming them, which can decide a residual near the
    round-off floor.  Without a point, x is checked to be a finite vector
    of length n, Y, mu and Gamma are checked (see
    :func:`check_multipliers`), then Y and Gamma symmetrized (see
    :func:`spectral.symmetric_part`).

    The body is :class:`ResidualHalves`: the components that need no
    eigendecomposition, then the spectral half, each formed once.
    """
    return ResidualHalves(problem, x, Y, mu, Gamma, point=point).residual


class ResidualHalves:
    """The KKT residual at one point, split by cost.

    Built, it holds stationarity, equality and complementarity, which
    take no eigendecomposition, and it has validated every input in the
    order the full residual does, so it raises what ``kkt_residual``
    raises with the same message.  ``residual`` adds the spectral half
    (subgradient, cone and dual: four eigendecompositions) on first read
    and returns the KKTResidual, with the bits ``kkt_residual`` gives.
    The arguments are those of :func:`kkt_residual`.

    With a point, the finite Z and M it decomposed prove F(x) and g(x)
    finite, so their symmetric parts and the pairing <F(x), Y> are
    formed with the spectral half, and a row left pending never forms
    them.  Without one, x, the multipliers and then F(x) and g(x) are
    checked here, in order.
    """

    def __init__(self, problem, x, Y, mu, Gamma, *, point=None):
        if point is None:
            x = _primal_point(problem, x, "x")
            check_multipliers(problem, Y, mu, Gamma)
            grad = grad_x_lagrangian(problem, x, Y, mu, Gamma)
            self.Fx, hx, self.gx = problem.F(x), problem.h(x), problem.g(x)
            # no finite Z and M vouch for F(x) and g(x): check them now,
            # where the full residual names them
            self.Fs, self.gs
            self.Ys = symmetric_part(Y, "Y")
            self.Gs = symmetric_part(Gamma, "Gamma")
        else:
            grad, self.Fx, hx, self.gx = (point.grad, point.Fx, point.hx,
                                          point.gx)
            self.Ys, self.Gs = Y, Gamma
        self.stationarity = _vector_norm(grad)
        self.equality = _vector_norm(hx)
        self.complementarity = float(abs((self.gx * Gamma).sum()))

    @_lazy
    def Fs(self):
        return symmetric_part(self.Fx, "F(x)")

    @_lazy
    def gs(self):
        return symmetric_part(self.gx, "g(x)")

    def exceeds(self, level):
        """Whether the largest of the three formed components is finite
        and above ``level``: then so is the total, unless it is NaN, and
        no test of the total against ``level`` can pass."""
        parts = (self.stationarity, self.equality, self.complementarity)
        return all(map(math.isfinite, parts)) and max(parts) > level

    @_lazy
    def residual(self):
        """The full KKTResidual, formed on first read."""
        ball = max(0.0, float(np.abs(np.linalg.eigvalsh(self.Ys))
                              .max(initial=0.0)) - 1.0)
        # the gap: the nuclear norm of F(x) less its pairing <F(x), Y>
        pairing = float(np.sum(self.Fx * self.Ys))
        gap = abs(float(np.abs(np.linalg.eigvalsh(self.Fs)).sum())
                  - pairing)
        cone = float(np.linalg.norm(
            self.gx - positive_part(eig_symmetrized(self.gs))))
        dual = float(max(0.0, -np.linalg.eigvalsh(self.Gs).min(initial=0.0)))
        return KKTResidual(self.stationarity, max(ball, gap), self.equality,
                           cone, dual, self.complementarity)


# ----------------------------------------------------------------------------
# local dual function
# ----------------------------------------------------------------------------

def dual_value_and_grad(problem, Y, mu, Gamma, c, x0):
    """Local dual value and its gradient at the multiplier block (Y, mu, Gamma).

    Minimizes the augmented Lagrangian in x from x0 and differentiates the
    dual: the gradient components are the scaled multiplier moves, so one
    dual gradient-ascent step with stepsize c reproduces multiplier_maps
    exactly.  The inner solve, at the default :class:`solver.InnerConfig`
    and with no outer residual, runs to the absolute ``grad_tol`` (or the
    round-off floor).  Returns (value, gradient triple, inner minimizer).
    """
    from .solver import InnerConfig, inner_minimize

    require_positive("c", c)
    y = MultiplierTriple(np.asarray(Y, dtype=np.float64),
                         np.asarray(mu, dtype=np.float64),
                         np.asarray(Gamma, dtype=np.float64))
    xc, stats = inner_minimize(problem, y, c, x0, InnerConfig())
    val = aug_lagrangian_value(problem, xc, y.Y, y.mu, y.Gamma, c,
                               point=stats.point)
    plus = multiplier_maps(problem, xc, y.Y, y.mu, y.Gamma, c,
                           point=stats.point)
    grad = MultiplierTriple(
        (plus.Y - y.Y) / c,
        problem.h(xc),
        (plus.Gamma - y.Gamma) / c,
    )
    return val, grad, xc


# ----------------------------------------------------------------------------
# JSON instance schema
# ----------------------------------------------------------------------------

def _matrix_map_from_dict(d, name):
    """The map of the JSON block ``name`` (F or g), None where it is absent."""
    if d is None:
        return None
    try:
        A0, Ai, Aij = d["A0"], d["Ai"], d.get("Aij")
    except (KeyError, TypeError) as exc:
        raise InvalidInput(f"bad {name} block: {exc}")
    try:
        return QuadraticMatrixMap(A0, Ai, Aij)
    except InvalidInput as exc:
        raise InvalidInput(f"{name}.{exc}") from None


def instance_from_dict(data):
    """Build a QuadraticProblem from the JSON instance schema.

    The constructors check the data; this checks only what the JSON adds:
    the declared n, q, m and p, h as rows [A | r], and [] for an absent
    block's 0x0 reference multiplier."""
    if not isinstance(data, dict):
        raise InvalidInput("instance must be a JSON object")
    try:
        n, q, m, p = dims = tuple(require_int(key, data[key])
                                  for key in ("n", "q", "m", "p"))
        f = [data["f"][key] for key in ("c0", "b", "H")]
        rows = data.get("h", [])
    except (KeyError, TypeError) as exc:
        raise InvalidInput(f"malformed instance: {exc}")
    if not isinstance(rows, list):
        raise InvalidInput(f"h must be a list of rows, got {rows!r}")
    # [A | r]; an absent h, [], has no row to give its width n + 1
    h = _array(rows, "h", ("m", "n + 1"), finite=False) if rows \
        else np.zeros((0, n + 1))
    if not h.shape[1]:
        raise InvalidInput(f"h must have shape (m, n + 1), got {h.shape}")
    bad = ~np.isfinite(h).all(axis=1)
    if bad.any():
        raise InvalidInput(f"h row {bad.argmax()} contains non-finite entries")
    F_map = _matrix_map_from_dict(data.get("F"), "F")
    g_map = _matrix_map_from_dict(data.get("g"), "g")
    if q and F_map is None:
        raise InvalidInput("q > 0 but no F block")
    if p and g_map is None:
        raise InvalidInput("p > 0 but no g block")
    reference = None
    ref = data.get("reference_kkt")
    if ref is not None:
        try:
            x, Y, mu, Gamma = (np.asarray(ref[key], dtype=np.float64)
                               for key in ("x", "Y", "mu", "Gamma"))
        except (KeyError, TypeError, ValueError) as exc:
            raise InvalidInput(f"malformed reference_kkt: {exc}")
        # an absent block's 0x0 multiplier is written as []
        Y, Gamma = (M.reshape(0, 0) if k == 0 == M.size else M
                    for M, k in ((Y, q), (Gamma, p)))
        reference = KKTPoint(x, MultiplierTriple(Y, mu, Gamma))
    problem = QuadraticProblem(*f, F_map, h[:, :-1], h[:, -1], g_map,
                               reference)
    built = (problem.n, problem.q, problem.m, problem.p)
    if built != dims:
        raise InvalidInput(f"declared dims (n, q, m, p) = {dims} disagree "
                           f"with the data's {built}")
    return problem


def _matrix_map_to_dict(mp):
    if mp.k == 0:
        return None
    out = {"A0": mp.A0.tolist(), "Ai": mp.Ai.tolist()}
    out["Aij"] = mp.Aij.tolist() if mp.Aij is not None else None
    return out


def instance_to_dict(problem):
    """Serialize a QuadraticProblem to the JSON instance schema."""
    data = {
        "n": problem.n,
        "q": problem.q,
        "m": problem.m,
        "p": problem.p,
        "f": {
            "c0": problem.f_c0,
            "b": problem.f_b.tolist(),
            "H": problem.f_H.tolist(),
        },
        "F": _matrix_map_to_dict(problem.F_map),
        "h": np.hstack([problem.h_A, problem.h_r[:, None]]).tolist(),
        "g": _matrix_map_to_dict(problem.g_map),
    }
    if problem.reference is not None:
        ref = problem.reference
        data["reference_kkt"] = {
            "x": ref.x.tolist(),
            "Y": ref.multipliers.Y.tolist(),
            "mu": ref.multipliers.mu.tolist(),
            "Gamma": ref.multipliers.Gamma.tolist(),
        }
    return data


def load_instance(path):
    with open(path, "r") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise InvalidInput(f"not valid JSON: {exc}")
    return instance_from_dict(data)


def save_instance(problem, path):
    with open(path, "w") as fh:
        json.dump(instance_to_dict(problem), fh, indent=1, sort_keys=True)
        fh.write("\n")
