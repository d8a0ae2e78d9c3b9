"""Per-family block rows, cross tables and curvature model, as oracles.

``diagnostics`` states each block family once, in ``_ACTIVE_FAMILIES``
and ``_CROSS_FAMILIES``, and derives the active-block matrix, the
reduced-subspace rows, the cross-block tables and the curvature model
from those lists.  The functions below are the family-by-family
constructions those tables replaced: one explicit row builder per block,
one formula per ratio table, and one accumulation per family in the
curvature model.  The half-vectorization loops over the upper triangle
itself, so the oracle shares no index code with ``spectral.svec``.

``critical_member`` tests whether a direction of the reduced subspace
lies in the critical cone, block by block; tests use it to pick critical
directions.
"""

import numpy as np

from sdnop.nuclear import critical_blocks_contain
from sdnop.problem import hess_xx_lagrangian


def vec_rows(jac_Q, rows, cols):
    """Column-stacked (rows, cols) block of every coordinate partial, as a
    (len(rows)*len(cols)) x n matrix."""
    n = jac_Q.shape[0]
    r, s = len(rows), len(cols)
    if r == 0 or s == 0:
        return np.zeros((r * s, n))
    sub = jac_Q[:, list(rows), :][:, :, list(cols)]
    return np.transpose(sub, (0, 2, 1)).reshape(n, r * s).T


def svec_rows(jac_Q, rows):
    """Isometric half-vectorization of the principal block on ``rows`` of
    every coordinate partial, as a (len(rows)(len(rows)+1)/2) x n matrix."""
    n = jac_Q.shape[0]
    rows = list(rows)
    r = len(rows)
    out = np.zeros((r * (r + 1) // 2, n))
    for l in range(n):
        k = 0
        for j in range(r):
            for i in range(j):
                out[k, l] = np.sqrt(2.0) * jac_Q[l, rows[i], rows[j]]
                k += 1
            out[k, l] = jac_Q[l, rows[j], rows[j]]
            k += 1
    return out


def active_rows(b):
    """The stacked active-block matrix for one basis."""
    return np.vstack([
        b.jac_h,
        svec_rows(b.jac_F_Q, b.b_up),
        vec_rows(b.jac_F_Q, b.b_up, b.b_mid),
        vec_rows(b.jac_F_Q, b.b_up, b.b_low),
        svec_rows(b.jac_F_Q, b.b_mid),
        vec_rows(b.jac_F_Q, b.b_mid, b.b_low),
        svec_rows(b.jac_F_Q, b.b_low),
        -svec_rows(b.jac_g_P, b.alpha),
        -svec_rows(b.jac_g_P, b.beta),
        -vec_rows(b.jac_g_P, b.alpha, b.beta),
    ])


def app_cone_basis(b, basis_rank_tol=1e-10):
    """Null space of the affine-hull rows of the reduced subspace."""
    L = np.vstack([
        b.jac_h,
        vec_rows(b.jac_F_Q, b.b_mid, b.b_all),
        vec_rows(b.jac_F_Q, b.b_up, b.b_low),
        svec_rows(b.jac_g_P, b.alpha),
        vec_rows(b.jac_g_P, b.alpha, b.beta),
    ])
    n = L.shape[1]
    if L.shape[0] == 0:
        return np.eye(n)
    _, s, Vt = np.linalg.svd(L, full_matrices=True)
    top = s[0] if s.size and s[0] > 0.0 else 1.0
    rank = int(np.sum(s > basis_rank_tol * top))
    return Vt[rank:].T


def ratio_tables(b):
    """The six ratio tables, one formula each; empty families are
    omitted."""
    lam = b.values_F
    a_vals = lam[list(b.a)]
    c_vals = lam[list(b.c_neg)]
    wm = b.w[list(b.b_mid)]
    lam_M = b.values_M
    al_vals = lam_M[list(b.alpha)]
    ga_vals = lam_M[list(b.gamma)]
    out = {}
    if a_vals.size and wm.size:
        out["a_bS"] = (1.0 - wm[None, :]) / a_vals[:, None]
    if a_vals.size and b.b_low:
        out["a_bL"] = np.repeat((2.0 / a_vals)[:, None], len(b.b_low), axis=1)
    if a_vals.size and c_vals.size:
        out["a_c"] = 2.0 / (a_vals[:, None] - c_vals[None, :])
    if c_vals.size and b.b_up:
        out["c_bU"] = np.repeat((2.0 / (-c_vals))[:, None], len(b.b_up),
                                axis=1)
    if c_vals.size and wm.size:
        out["c_bS"] = (1.0 + wm[None, :]) / (-c_vals[:, None])
    if al_vals.size and ga_vals.size:
        out["al_ga"] = al_vals[:, None] / (-ga_vals[None, :])
    return out


def nu_tables(b):
    """The ratio tables as (min, max) pairs."""
    return {key: (float(t.min()), float(t.max()))
            for key, t in ratio_tables(b).items()}


def delta_tables(b, c):
    """The six penalty-dependent divided-difference tables, one formula
    each; empty families are omitted."""
    lam = b.values_F
    a_vals = lam[list(b.a)]
    c_vals = lam[list(b.c_neg)]
    wm = b.w[list(b.b_mid)]
    lam_M = b.values_M
    al_vals = lam_M[list(b.alpha)]
    ga_vals = lam_M[list(b.gamma)]
    inv = 1.0 / c
    out = {}
    if a_vals.size and wm.size:
        num = inv * (1.0 - wm)[None, :]
        out["a_bS"] = num / (a_vals[:, None] + num)
    if a_vals.size and b.b_low:
        col = (2.0 * inv) / (a_vals + 2.0 * inv)
        out["a_bL"] = np.repeat(col[:, None], len(b.b_low), axis=1)
    if a_vals.size and c_vals.size:
        den = a_vals[:, None] - c_vals[None, :] + 2.0 * inv
        out["a_c"] = (2.0 * inv) / den
    if c_vals.size and b.b_up:
        col = (2.0 * inv) / (-c_vals + 2.0 * inv)
        out["c_bU"] = np.repeat(col[:, None], len(b.b_up), axis=1)
    if c_vals.size and wm.size:
        num = inv * (1.0 + wm)[None, :]
        out["c_bS"] = num / (num - c_vals[:, None])
    if al_vals.size and ga_vals.size:
        out["al_ga"] = al_vals[:, None] / (
            al_vals[:, None] + c * (-ga_vals)[None, :])
    return out


_CROSS = (
    ("a_bS", "a", "b_mid", "F"),
    ("a_bL", "a", "b_low", "F"),
    ("a_c", "a", "c_neg", "F"),
    ("c_bU", "c_neg", "b_up", "F"),
    ("c_bS", "c_neg", "b_mid", "F"),
    ("al_ga", "alpha", "gamma", "g"),
)


def split_penalty_matrix(problem, x, multipliers, c_base, c, free, b):
    """Curvature model accumulated family by family."""
    x = np.asarray(x, dtype=np.float64)
    out = hess_xx_lagrangian(problem, x, multipliers.Y, multipliers.mu,
                             multipliers.Gamma)
    out = out + c_base * b.jac_h.T @ b.jac_h
    for rows, weight in ((b.b_up, free), (b.b_mid, 1.0), (b.b_low, free)):
        R = svec_rows(b.jac_F_Q, rows)
        if R.shape[0]:
            out += c_base * weight * R.T @ R
    for rows, cols in ((b.b_up, b.b_mid), (b.b_up, b.b_low),
                       (b.b_mid, b.b_low)):
        R = vec_rows(b.jac_F_Q, rows, cols)
        if R.shape[0]:
            out += 2.0 * c_base * R.T @ R
    for rows, weight in ((b.alpha, 1.0), (b.beta, free)):
        R = svec_rows(b.jac_g_P, rows)
        if R.shape[0]:
            out += c_base * weight * R.T @ R
    R = vec_rows(b.jac_g_P, b.alpha, b.beta)
    if R.shape[0]:
        out += 2.0 * c_base * R.T @ R
    tables = delta_tables(b, c)
    for key, row_name, col_name, which in _CROSS:
        if key not in tables:
            continue
        jac = b.jac_F_Q if which == "F" else b.jac_g_P
        R = vec_rows(jac, getattr(b, row_name), getattr(b, col_name))
        weights = tables[key].flatten(order="F")
        out += 2.0 * c * R.T @ (weights[:, None] * R)
    return 0.5 * (out + out.T)


def critical_member(blocks, d, member_tol):
    """Cone membership of a direction already inside the reduced subspace:
    the critical-cone test on its F image and the sign of its g image on
    the beta block (the other g blocks vanish on the subspace)."""
    Hc = np.einsum("lij,l->ij", blocks.jac_F_Q, d)
    if not critical_blocks_contain(Hc, blocks.b_up, blocks.b_mid,
                                   blocks.b_low, member_tol):
        return False
    Gc = np.einsum("lij,l->ij", blocks.jac_g_P, d)
    bt = list(blocks.beta)
    if bt and np.linalg.eigvalsh(Gc[np.ix_(bt, bt)])[0] < -member_tol:
        return False
    return True
