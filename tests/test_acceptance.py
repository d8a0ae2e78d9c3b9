"""End-to-end acceptance checks.

One test per criterion, each printing a single pass/fail line with its
measured margin; run ``pytest tests/test_acceptance.py -v -s`` to see the
lines.  Tolerances and time budgets are stated inline next to each
assertion.
"""

import json
import os
import time

import numpy as np
import pytest

from sdnop import cli
from sdnop.diagnostics import (
    nondegeneracy_check,
    rate_sweep,
    strong_sosc_check,
)
from sdnop.generator import generate_instance
from sdnop.nuclear import (
    critical_cone_theta_project,
    eig_dir_derivs,
    eig_second_dir_derivs,
    grad_env_bsub_element,
    grad_moreau_env,
    moreau_env,
    nuclear_norm,
    prox_bsub_element,
    prox_dir_deriv,
    prox_nuclear,
    psi_conjugate,
    subdiff_contains,
    theta_dir_deriv,
    theta_second_dir_deriv,
)
from sdnop.problem import (
    MultiplierTriple,
    aug_lagrangian_grad,
    aug_lagrangian_value,
    dual_value_and_grad,
    kkt_residual,
    load_instance,
    multiplier_maps,
    triple_diff_norm,
)
from sdnop.psd_cone import proj_bsub_element, proj_dir_deriv, project_psd
from sdnop.solver import ALMConfig, alm_solve
from sdnop.errors import MaxIterations

from psi_oracles import psi_critical, psi_full

INSTANCES = os.path.join(os.path.dirname(os.path.dirname(__file__)),
                         "instances")
BUNDLED = os.path.join(INSTANCES, "nondegen_small.json")


def _verdict(num, name, ok, detail):
    status = "PASS" if ok else "FAIL"
    print("[criterion %d] %s: %s (%s)" % (num, name, status, detail))
    assert ok, "criterion %d %s: %s" % (num, name, detail)


def rand_sym(rng, k, scale=1.0):
    A = rng.randn(k, k) * scale
    return 0.5 * (A + A.T)


def unit_sym(rng, k):
    H = rand_sym(rng, k)
    return H / np.linalg.norm(H)


def rand_orth(rng, k):
    return np.linalg.qr(rng.randn(k, k))[0]


def spaced_spectrum(rng, dim, n_zero, lo=0.4, hi=2.6, jitter=0.04):
    """Eigenvalues with exact zeros, the rest sign-mixed and separated.

    Evenly spaced magnitudes with small jitter keep every nonzero pair
    at least ~0.2 apart and every nonzero at least ~0.35 from zero, so
    divided-difference curvature constants stay small and the stated
    finite-difference error bounds have real margin.
    """
    k = dim - n_zero
    vals = np.zeros(dim)
    if k:
        base = np.linspace(lo, hi, k) if k > 1 else np.array([lo])
        signs = rng.choice([-1.0, 1.0], size=k)
        vals[:k] = signs * (base + rng.uniform(-jitter, jitter, size=k))
    return vals


def make_subgradient_pair(rng, pos, zero, neg, w_mid=None):
    k = pos + zero + neg
    Q = rand_orth(rng, k)
    lam = np.concatenate([
        np.sort(rng.rand(pos) + 0.5)[::-1],
        np.zeros(zero),
        -np.sort(rng.rand(neg) + 0.5),
    ])
    w = np.concatenate([
        np.ones(pos),
        w_mid if w_mid is not None else rng.uniform(-0.8, 0.8, zero),
        -np.ones(neg),
    ])
    X = (Q * lam) @ Q.T
    Y = (Q * w) @ Q.T
    return 0.5 * (X + X.T), 0.5 * (Y + Y.T)


@pytest.fixture(scope="module", autouse=True)
def warm_kernels():
    # run each operator once so first-call costs (lazy imports, BLAS
    # set-up) stay out of the timed sections
    M = np.diag([1.0, 0.0, -1.0])
    H = np.eye(3)
    proj_dir_deriv(M, H)
    proj_bsub_element(M).apply(H)
    prox_dir_deriv(M, 0.5, H)
    prox_nuclear(M, 0.5)


# ---------------------------------------------------------------------------
# criterion 1: projection operator suite
# ---------------------------------------------------------------------------

def test_criterion_1_projection_suite():
    rng = np.random.RandomState(101)
    start = time.perf_counter()
    worst_sa = worst_pos = worst_dom = worst_fd = 0.0
    t = 1e-6
    for _ in range(1000):
        dim = rng.randint(2, 9)
        n_zero = rng.randint(0, min(dim, 3))
        lam = spaced_spectrum(rng, dim, n_zero)
        Q = rand_orth(rng, dim)
        M = (Q * lam) @ Q.T
        M = 0.5 * (M + M.T)

        choices = ["zero", "identity"]
        if n_zero:
            T = rng.rand(n_zero, n_zero)
            choices.append(0.5 * (T + T.T))
        D1, D2 = unit_sym(rng, dim), unit_sym(rng, dim)
        for choice in choices:
            V = proj_bsub_element(M, beta_choice=choice)
            VD1, VD2 = V.apply(D1), V.apply(D2)
            worst_sa = max(worst_sa, abs(float(np.sum(VD1 * D2))
                                         - float(np.sum(D1 * VD2))))
            worst_pos = max(worst_pos, -float(np.sum(D1 * VD1)))
            worst_dom = max(worst_dom, -float(np.sum(VD1 * (D1 - VD1))))

        Hd = unit_sym(rng, dim)
        P1, _ = project_psd(M + t * Hd)
        P0, _ = project_psd(M)
        fd = (P1 - P0) / t
        worst_fd = max(worst_fd,
                       float(np.linalg.norm(fd - proj_dir_deriv(M, Hd))))
    elapsed = time.perf_counter() - start
    ok = (worst_sa <= 1e-10 and worst_pos <= 1e-10 and worst_dom <= 1e-10
          and worst_fd <= 10.0 * t and elapsed < 10.0)
    _verdict(1, "projection operator suite", ok,
             "self-adjoint %.1e, positivity %.1e, dominance %.1e "
             "(tol 1e-10); dir-deriv fd %.2e (bound %.0e); %.1f s"
             % (worst_sa, worst_pos, worst_dom, worst_fd, 10.0 * t, elapsed))


# ---------------------------------------------------------------------------
# criterion 2: prox and Moreau envelope suite
# ---------------------------------------------------------------------------

def test_criterion_2_prox_envelope_suite():
    rng = np.random.RandomState(102)
    start = time.perf_counter()

    worst_opt = 0.0
    opt_ok = True
    for _ in range(500):
        dim = rng.randint(2, 8)
        Z = rand_sym(rng, dim, scale=1.5)
        tau = rng.uniform(0.1, 1.5)
        P, _ = prox_nuclear(Z, tau)
        if not subdiff_contains(P, (Z - P) / tau):
            opt_ok = False

    worst_fix = 0.0
    for _ in range(200):
        pos = rng.randint(1, 3)
        zero = rng.randint(0, 3)
        neg = rng.randint(1, 3)
        X, Y = make_subgradient_pair(rng, pos, zero, neg)
        tau = rng.uniform(0.2, 2.0)
        P, _ = prox_nuclear(X + tau * Y, tau)
        worst_fix = max(worst_fix, float(np.linalg.norm(P - X)))

    worst_env = 0.0
    fd_t = 1e-5
    for _ in range(100):
        dim = rng.randint(2, 7)
        tau = 0.7
        # magnitudes split well above and well below tau keep the
        # spectrum away from the +-tau kinks
        n_small = rng.randint(0, dim + 1)
        mags = np.concatenate([
            np.linspace(1.0, 2.4, dim - n_small) if dim > n_small else [],
            np.linspace(0.12, 0.44, n_small) if n_small else [],
        ])
        lam = rng.choice([-1.0, 1.0], size=dim) * mags
        Q = rand_orth(rng, dim)
        Z = (Q * lam) @ Q.T
        Z = 0.5 * (Z + Z.T)
        H = unit_sym(rng, dim)
        d = float(np.sum(grad_moreau_env(Z, tau) * H))
        fd = (moreau_env(Z + fd_t * H, tau)
              - moreau_env(Z - fd_t * H, tau)) / (2.0 * fd_t)
        worst_env = max(worst_env, abs(fd - d) / (1.0 + abs(d)))

    worst_id = 0.0
    for _ in range(100):
        X, Y = make_subgradient_pair(rng, 1, rng.randint(0, 3), 1)
        tau = rng.uniform(0.3, 1.5)
        choice = ("zero", "identity")[rng.randint(2)]
        E = grad_env_bsub_element(X, Y, tau, up_choice=choice,
                                  low_choice=choice)
        W = prox_bsub_element(X, Y, tau, up_choice=choice,
                              low_choice=choice)
        H = unit_sym(rng, X.shape[0])
        resid = tau * E.apply(H) + W.apply(H) - H
        worst_id = max(worst_id, float(np.linalg.norm(resid)))

    elapsed = time.perf_counter() - start
    ok = (opt_ok and worst_fix <= 1e-10 and worst_env <= 1e-6
          and worst_id <= 1e-12 and elapsed < 10.0)
    _verdict(2, "prox and envelope suite", ok,
             "optimality %s (tol 1e-8); fixed point %.1e (tol 1e-10); "
             "envelope grad %.1e rel (tol 1e-6); complement identity %.1e "
             "(tol 1e-12); %.1f s"
             % (opt_ok, worst_fix, worst_env, worst_id, elapsed))


# ---------------------------------------------------------------------------
# criterion 3: directional derivative suite
# ---------------------------------------------------------------------------

def _halving_ratios(errors):
    out = []
    for a, b in zip(errors, errors[1:]):
        out.append(a / b if b > 1e-13 else np.inf)
    return out


def test_criterion_3_directional_derivatives():
    rng = np.random.RandomState(103)
    start = time.perf_counter()
    ts = (1e-3, 5e-4, 2.5e-4)
    worst_first = np.inf
    worst_second = np.inf
    for _ in range(20):
        Q = rand_orth(rng, 5)
        lam = np.array([2.0, 2.0, 0.0, 0.0, -1.0])  # multiplicities >= 2
        X = (Q * lam) @ Q.T
        X = 0.5 * (X + X.T)
        H = rand_sym(rng, 5)
        W = rand_sym(rng, 5)

        d_theta = theta_dir_deriv(X, H)
        errs = [abs((nuclear_norm(X + t * H) - nuclear_norm(X)) / t
                    - d_theta) for t in ts]
        worst_first = min(worst_first, min(_halving_ratios(errs)))

        lam_sorted = np.sort(lam)[::-1]
        d_lam = eig_dir_derivs(X, H)
        errs = [np.abs((np.sort(np.linalg.eigvalsh(X + t * H))[::-1]
                        - lam_sorted) / t - d_lam).max() for t in ts]
        worst_first = min(worst_first, min(_halving_ratios(errs)))

        d2_lam = eig_second_dir_derivs(X, H, W)
        errs = []
        for t in ts:
            vals = np.sort(np.linalg.eigvalsh(
                X + t * H + 0.5 * t * t * W))[::-1]
            model = lam_sorted + t * d_lam + 0.5 * t * t * d2_lam
            errs.append(np.abs(vals - model).max())
        worst_second = min(worst_second, min(_halving_ratios(errs)))

        d2_theta = theta_second_dir_deriv(X, H, W)
        errs = []
        for t in ts:
            val = nuclear_norm(X + t * H + 0.5 * t * t * W)
            model = (nuclear_norm(X) + t * d_theta
                     + 0.5 * t * t * d2_theta)
            errs.append(abs(val - model))
        worst_second = min(worst_second, min(_halving_ratios(errs)))
    elapsed = time.perf_counter() - start
    ok = worst_first >= 1.9 and worst_second >= 3.6 and elapsed < 20.0
    _verdict(3, "directional derivative suite", ok,
             "first-order halving ratio %.2f (need 1.9); second-order "
             "%.2f (need 3.6); %.1f s"
             % (worst_first, worst_second, elapsed))


# ---------------------------------------------------------------------------
# criterion 4: conjugate sigma-term cross-form equality
# ---------------------------------------------------------------------------

def test_criterion_4_sigma_term_forms():
    # psi_conjugate (the one-direction curvature form) against the full
    # and critical closed forms kept as test oracles
    rng = np.random.RandomState(104)
    start = time.perf_counter()
    worst_forms = 0.0
    for _ in range(300):
        pos = rng.randint(1, 3)
        zero = rng.randint(0, 3)
        neg = rng.randint(1, 3)
        X, Y = make_subgradient_pair(rng, pos, zero, neg)
        H = critical_cone_theta_project(X, Y, rand_sym(rng, X.shape[0]))
        a = psi_full(X, H, Y)
        b = psi_critical(X, H, Y)
        c = psi_conjugate(X, H, Y)
        worst_forms = max(worst_forms, abs(a - b), abs(a - c))

    # direct numeric conjugate oracle: sup over a 1e4-point W grid.  The
    # W-gradient of the second derivative has operator norm at most one,
    # so along each diagonal coordinate the objective is 2-Lipschitz and
    # a lattice sup must land within (number of axes) * L * spacing / 2
    # of the true supremum, which the attaining diagonal W makes sharp.
    X2 = np.diag([2.0, 0.0])
    Y2 = np.diag([1.0, 0.0])
    H2 = np.array([[0.0, 1.0], [1.0, 0.0]])
    val2 = psi_conjugate(X2, H2, Y2)
    axis = np.linspace(-4.0, 4.0, 100)
    best2 = -np.inf
    for a in axis:
        for b in axis:
            W = np.diag([a, b])
            best2 = max(best2, a * Y2[0, 0] + b * Y2[1, 1]
                        - theta_second_dir_deriv(X2, H2, W))
    bound2 = 2.0 * 2.0 * (axis[1] - axis[0]) / 2.0
    gap2 = val2 - best2

    X3 = np.diag([2.0, 0.0, -1.0])
    Y3 = np.diag([1.0, 0.0, -1.0])
    H3 = np.zeros((3, 3))
    H3[0, 1] = H3[1, 0] = 1.0
    val3 = psi_conjugate(X3, H3, Y3)
    axis3 = np.linspace(-4.0, 4.0, 22)  # 22^3 > 1e4 lattice points
    best3 = -np.inf
    for a in axis3:
        for b in axis3:
            for c3 in axis3:
                W = np.diag([a, b, c3])
                best3 = max(best3, float(np.sum(np.diag(Y3) * (a, b, c3)))
                            - theta_second_dir_deriv(X3, H3, W))
    bound3 = 3.0 * 2.0 * (axis3[1] - axis3[0]) / 2.0
    gap3 = val3 - best3

    elapsed = time.perf_counter() - start
    ok = (worst_forms <= 1e-8
          and -1e-8 <= gap2 <= bound2 and -1e-8 <= gap3 <= bound3
          and elapsed < 60.0)
    _verdict(4, "sigma-term conjugate forms", ok,
             "cross-form %.1e (tol 1e-8); grid sup gap %.3f of %.3f (2x2) "
             "and %.3f of %.3f (3x3); %.1f s"
             % (worst_forms, gap2, bound2, gap3, bound3, elapsed))


# ---------------------------------------------------------------------------
# criterion 5: gradient and dual identities
# ---------------------------------------------------------------------------

def test_criterion_5_gradient_dual_identities(mixed_instance):
    problem = mixed_instance
    rng = np.random.RandomState(105)
    start = time.perf_counter()
    c = 10.0

    worst_grad = 0.0
    h = 1e-6
    for _ in range(10):
        x = rng.randn(problem.n) * 0.5
        Y = rand_sym(rng, problem.q)
        mu = rng.randn(problem.m)
        Gamma = rand_sym(rng, problem.p)
        g = aug_lagrangian_grad(problem, x, Y, mu, Gamma, c)
        fd = np.zeros_like(g)
        for i in range(problem.n):
            e = np.zeros(problem.n)
            e[i] = h
            fd[i] = (aug_lagrangian_value(problem, x + e, Y, mu, Gamma, c)
                     - aug_lagrangian_value(problem, x - e, Y, mu, Gamma,
                                            c)) / (2.0 * h)
        worst_grad = max(worst_grad,
                         float(np.linalg.norm(fd - g))
                         / (1.0 + float(np.linalg.norm(g))))

    ref = problem.reference
    base = ref.multipliers
    y0 = MultiplierTriple(base.Y + 0.05 * rand_sym(rng, problem.q),
                          base.mu + 0.05 * rng.randn(problem.m),
                          base.Gamma + 0.05 * rand_sym(rng, problem.p))
    _, grad, xc = dual_value_and_grad(problem, y0.Y, y0.mu, y0.Gamma, c,
                                      ref.x)
    plus = multiplier_maps(problem, xc, y0.Y, y0.mu, y0.Gamma, c)
    ascent = MultiplierTriple(y0.Y + c * grad.Y, y0.mu + c * grad.mu,
                              y0.Gamma + c * grad.Gamma)
    update_err = triple_diff_norm(plus, ascent)

    worst_dual_fd = 0.0
    s = 1e-4
    for _ in range(5):
        DY, DG = rand_sym(rng, problem.q), rand_sym(rng, problem.p)
        dmu = rng.randn(problem.m)
        scale = np.sqrt(float(np.sum(DY * DY)) + float(dmu @ dmu)
                        + float(np.sum(DG * DG)))
        DY, dmu, DG = DY / scale, dmu / scale, DG / scale
        vp, _, _ = dual_value_and_grad(problem, y0.Y + s * DY,
                                       y0.mu + s * dmu, y0.Gamma + s * DG,
                                       c, xc)
        vm, _, _ = dual_value_and_grad(problem, y0.Y - s * DY,
                                       y0.mu - s * dmu, y0.Gamma - s * DG,
                                       c, xc)
        fd = (vp - vm) / (2.0 * s)
        pairing = (float(np.sum(grad.Y * DY)) + float(grad.mu @ dmu)
                   + float(np.sum(grad.Gamma * DG)))
        worst_dual_fd = max(worst_dual_fd, abs(fd - pairing))

    _, grad_ref, _ = dual_value_and_grad(problem, base.Y, base.mu,
                                         base.Gamma, c, ref.x)
    stationary = triple_diff_norm(grad_ref,
                                  MultiplierTriple.zeros(problem))

    elapsed = time.perf_counter() - start
    ok = (worst_grad <= 1e-6 and update_err <= 1e-6
          and worst_dual_fd <= 1e-6 and stationary <= 1e-8)
    _verdict(5, "gradient and dual identities", ok,
             "grad fd %.1e rel (tol 1e-6); ascent-step update %.1e "
             "(tol 1e-6); dual grad fd %.1e (tol 1e-6); grad at reference "
             "%.1e (tol 1e-8); %.1f s"
             % (worst_grad, update_err, worst_dual_fd, stationary, elapsed))


# ---------------------------------------------------------------------------
# criterion 6: contraction ratio proportional to 1/c
# ---------------------------------------------------------------------------

def test_criterion_6_rate_reproduction():
    problem = load_instance(BUNDLED)
    start = time.perf_counter()
    fit = rate_sweep(problem, problem.reference,
                     [10.0, 1e2, 1e3, 1e4], delta=1e-2, seed=7)
    elapsed = time.perf_counter() - start
    ratios = np.array(fit.ratios)
    monotone = bool(np.all(np.diff(ratios) < 0.0))
    contractive = bool(np.all(ratios < 1.0)) and bool(np.all(ratios > 0.0))
    in_band = fit.slope is not None and -1.25 <= fit.slope <= -0.80
    ok = (all(fit.converged) and monotone and contractive and in_band
          and elapsed < 60.0)
    _verdict(6, "rate reproduction", ok,
             "ratios %s; slope %.3f (band [-1.25, -0.80]); r^2 %.3f; "
             "%.1f s"
             % (np.array2string(ratios, precision=4), fit.slope,
                fit.r_squared, elapsed))


# ---------------------------------------------------------------------------
# criterion 7: generator profiles round-trip the assumption checkers
# ---------------------------------------------------------------------------

def test_criterion_7_assumption_checkers():
    residuals = {}
    verdicts = {}
    for profile in ("nondegen", "degen", "saddle"):
        problem = generate_instance(8, 3, 1, 3, profile=profile, seed=7)
        ref = problem.reference
        y = ref.multipliers
        residuals[profile] = kkt_residual(problem, ref.x, y.Y, y.mu,
                                          y.Gamma).total
        nd = nondegeneracy_check(problem, ref.x, y)
        so = strong_sosc_check(problem, ref.x, y)
        verdicts[profile] = (nd, so)
    nd0, so0 = verdicts["nondegen"]
    ok = (max(residuals.values()) <= 1e-12
          and nd0.holds and nd0.sigma_min > 1e-6
          and so0.holds and so0.min_value > 1e-6
          and not verdicts["degen"][0].holds
          and not verdicts["saddle"][1].holds)
    _verdict(7, "assumption checkers", ok,
             "residuals %.1e max (tol 1e-12); nondegen sigma_min %.2e, "
             "sosc min %.2e; degen rank holds %s; saddle sosc holds %s"
             % (max(residuals.values()), nd0.sigma_min, so0.min_value,
                verdicts["degen"][0].holds, verdicts["saddle"][1].holds))


# ---------------------------------------------------------------------------
# criterion 8: equality-only method matches the classical multiplier loop
# ---------------------------------------------------------------------------

def test_criterion_8_equality_only_regression(equality_instance):
    problem = equality_instance
    c = 10.0
    config = ALMConfig(c0=c, c_max=c, outer_tol=1e-300, max_outer=10)
    y0 = MultiplierTriple(np.zeros((0, 0)), np.array([0.3]),
                          np.zeros((0, 0)))
    with pytest.raises(MaxIterations) as info:
        alm_solve(problem, y0, config, np.zeros(problem.n))
    trace = info.value.trace

    H, b = problem.f_H, problem.f_b
    A, r = problem.h_A, problem.h_r
    mu = y0.mu.copy()
    M = H + c * A.T @ A
    worst = 0.0
    for k in range(10):
        x = np.linalg.solve(M, -(b + A.T @ (mu + c * r)))
        mu = mu + c * (A @ x + r)
        worst = max(worst,
                    float(np.abs(trace.points[k] - x).max()),
                    float(np.abs(trace.multipliers[k].mu - mu).max()))
    ok = len(trace.points) == 10 and worst <= 1e-12
    _verdict(8, "equality-only regression", ok,
             "iterate deviation %.1e over 10 outers (tol 1e-12)" % worst)


# ---------------------------------------------------------------------------
# criterion 9: pipeline determinism
# ---------------------------------------------------------------------------

def test_criterion_9_determinism(tmp_path):
    def pipeline(root):
        gen = str(root / "gen")
        assert cli.main(["generate", "--n", "8", "--q", "3", "--m", "1",
                         "--p", "3", "--seed", "7", "--out", gen]) == 0
        instance = os.path.join(gen, "instance.json")
        assert cli.main(["solve", instance, "--out", str(root)]) == 0
        assert cli.main(["rate-sweep", instance, "--seed", "7",
                         "--out", str(root)]) == 0
        out = {}
        for name in ("gen/instance.json", "solution.json", "trace.csv",
                     "rate.csv", "fit.json"):
            with open(root / name, "rb") as fh:
                out[name] = fh.read()
        return out

    first = pipeline(tmp_path / "a")
    second = pipeline(tmp_path / "b")
    mismatched = [name for name in first if first[name] != second[name]]
    ok = not mismatched
    _verdict(9, "pipeline determinism", ok,
             "byte-identical artifacts: %s"
             % ("all five" if ok else "mismatch in " + ", ".join(mismatched)))
