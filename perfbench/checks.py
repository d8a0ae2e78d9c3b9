"""Independent output checks for the benchmark workloads.

Nothing here calls into sdnop: the KKT residual and the rate-slope fit
are recomputed from the raw coefficient arrays with plain numpy, so a
fault in the library cannot vouch for itself.  Every checker returns a
list of problems; an empty list means the output passed.
"""

import math

import numpy as np

SLOPE_BAND = (-1.25, -0.80)


def _sym_eigvals(M):
    return np.linalg.eigvalsh(0.5 * (M + M.T)) if M.size else np.zeros(0)


def _map_value_and_jac(qmap, x):
    """Value and stacked partial derivatives of A0 + sum x_i A_i (+ quadratic)."""
    value = qmap.A0 + np.einsum("i,ijk->jk", x, qmap.Ai)
    jac = qmap.Ai
    if qmap.Aij is not None:
        value = value + 0.5 * np.einsum("i,j,ijkl->kl", x, x, qmap.Aij)
        jac = jac + np.einsum("j,ijkl->ikl", x, qmap.Aij)
    return value, jac


def kkt_residual(problem, x, Y, mu, Gamma):
    """Largest KKT violation at (x, Y, mu, Gamma), from the raw coefficients.

    Components: stationarity of the Lagrangian, nuclear-norm subgradient
    (dual-ball excess and pairing gap), equality, cone feasibility, dual
    feasibility and complementarity of the semidefinite constraint.
    """
    x = np.asarray(x, dtype=np.float64)
    grad = problem.f_b + problem.f_H @ x
    parts = []
    if problem.q:
        F, DF = _map_value_and_jac(problem.F_map, x)
        grad = grad + np.einsum("ijk,jk->i", DF, Y)
        ball = max(0.0, float(np.abs(_sym_eigvals(Y)).max()) - 1.0)
        gap = abs(float(np.abs(_sym_eigvals(F)).sum()) - float(np.sum(F * Y)))
        parts += [ball, gap]
    if problem.m:
        grad = grad + problem.h_A.T @ mu
        parts.append(float(np.linalg.norm(problem.h_A @ x + problem.h_r)))
    if problem.p:
        G, DG = _map_value_and_jac(problem.g_map, x)
        grad = grad - np.einsum("ijk,jk->i", DG, Gamma)
        neg = np.minimum(_sym_eigvals(G), 0.0)
        parts.append(float(np.sqrt(np.sum(neg * neg))))
        parts.append(max(0.0, -float(_sym_eigvals(Gamma).min())))
        parts.append(abs(float(np.sum(G * Gamma))))
    parts.append(float(np.linalg.norm(grad)))
    return max(parts)


def _triple_distance(a, b):
    return math.sqrt(float(np.sum((a.Y - b.Y) ** 2))
                     + float(np.sum((a.mu - b.mu) ** 2))
                     + float(np.sum((a.Gamma - b.Gamma) ** 2)))


def check_solution(problem, point, outer_tol, unique_multipliers,
                   residual_factor=10.0, dist_tol=1e-6):
    """A solve result must be a KKT point near the generator's reference.

    The multiplier distance is checked only when the multipliers are
    unique (nondegenerate instances); with a degenerate constraint the
    solver may converge to any multiplier in a whole face.
    """
    problems = []
    y = point.multipliers
    res = kkt_residual(problem, point.x, y.Y, y.mu, y.Gamma)
    if not res <= residual_factor * outer_tol:
        problems.append(f"KKT residual {res:.3e} exceeds "
                        f"{residual_factor:g} x {outer_tol:.1e}")
    ref = problem.reference
    dx = float(np.linalg.norm(point.x - ref.x))
    if not dx <= dist_tol:
        problems.append(f"|x - x_ref| = {dx:.3e} exceeds {dist_tol:.1e}")
    if unique_multipliers:
        dy = _triple_distance(y, ref.multipliers)
        if not dy <= dist_tol:
            problems.append(f"multiplier distance {dy:.3e} exceeds "
                            f"{dist_tol:.1e}")
    return problems


def fit_slope(penalties, ratios):
    """Least-squares slope of log(ratio) against log(c)."""
    lx = np.log(np.asarray(penalties, dtype=np.float64))
    ly = np.log(np.asarray(ratios, dtype=np.float64))
    dx = lx - lx.mean()
    return float(np.sum(dx * (ly - ly.mean())) / np.sum(dx * dx))


def check_sweep(penalties, ratios, converged, band=SLOPE_BAND):
    """Converged contraction ratios lie in (0, 1), fall as c grows, and
    their log-log slope lies in the acceptance band."""
    pts = [(c, r) for c, r, ok in zip(penalties, ratios, converged) if ok]
    problems = []
    if len(pts) < 2:
        return [f"only {len(pts)} converged grid points, need 2 for a slope"]
    cs = [c for c, _ in pts]
    rs = [r for _, r in pts]
    if not all(0.0 < r < 1.0 for r in rs):
        problems.append(f"ratios outside (0, 1): {rs}")
        return problems
    if not all(b < a for a, b in zip(rs, rs[1:])):
        problems.append(f"ratios do not decrease with c: {rs}")
    slope = fit_slope(cs, rs)
    if not band[0] <= slope <= band[1]:
        problems.append(f"slope {slope:.4f} outside [{band[0]}, {band[1]}]")
    return problems
