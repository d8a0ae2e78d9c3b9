"""Synthetic instances with a first-order point built in by construction.

The construction works backwards from the optimality system: fix the
primal point at the origin, choose eigen-structure templates for the
matrix constraint values and their multipliers, draw random quadratic
coefficient tensors, and then solve for the objective gradient so that
stationarity holds exactly.  The objective curvature is a scaled
identity tuned against the reduced second-order matrix, which lets one
profile satisfy the second-order condition with a unit margin and
another violate it outright.

Profiles
--------
nondegen
    Active-block matrix has full row rank and the reduced second-order
    matrix is positive definite.
degen
    One equality row is forced into the span of the others (duplicated,
    or zeroed when there is only one row), so the rank check fails and
    the multiplier is non-unique.
saddle
    Objective curvature flipped negative on the reduced subspace, so
    the second-order check fails while the first-order residual is
    still zero.
"""

import numpy as np

from .diagnostics import (
    cone_blocks,
    nondegeneracy_check,
    sosc_reduced_matrix,
)
from .errors import InvalidInput, require_int, require_seed
from .problem import (
    KKTPoint,
    MultiplierTriple,
    QuadraticMatrixMap,
    QuadraticProblem,
    kkt_residual,
)
from .spectral import symmetric_part

_PROFILES = ("nondegen", "degen", "saddle")
_MAX_ATTEMPTS = 40

# Magnitudes are deliberately small and the coefficient tensors sparse:
# the round-off floor of the augmented-Lagrangian gradient grows like
# c * eps * (data norm) * (jacobian mass), and the sweep needs residual
# 1e-12 at penalty 1e4.  Spectral gaps and the designed active-block
# entries stay large enough that the 1/c contraction regime is already
# visible at penalty 10.
_SLOT_SCALE = 0.45
_NOISE_SCALE = 0.05
_ROW_SCALE = 0.4


def _f_spectrum(q):
    """Eigenvalues of F(0) and multiplier weights, value-descending.

    For q >= 2 one eigenvalue sits at zero with an interior weight, so
    the zero block is nonempty without saturating either bound.
    """
    if q == 0:
        return np.zeros(0), np.zeros(0)
    if q == 1:
        return np.array([0.4]), np.array([1.0])
    n_pos = q // 2
    n_neg = q - 1 - n_pos
    pos = [0.4 + 0.15 * k for k in range(n_pos)][::-1]
    neg = [-0.32 - 0.15 * k for k in range(n_neg)]
    values = np.array(pos + [0.0] + neg)
    weights = np.array([1.0] * n_pos + [0.3] + [-1.0] * n_neg)
    return values, weights


def _g_spectrum(p):
    """Joint eigenvalues of the cone multiplier and of g(0).

    The gap matrix (multiplier minus constraint value) gets one
    positive eigenvalue for every p >= 1, one exact zero when p >= 3,
    and negatives elsewhere, which populates the boundary, degenerate
    and interior complementarity classes.
    """
    if p == 0:
        return np.zeros(0), np.zeros(0)
    gamma = np.zeros(p)
    gval = np.zeros(p)
    gamma[0] = 0.3
    free = range(2, p) if p >= 3 else range(1, p)
    for j, idx in enumerate(free):
        gval[idx] = 0.4 + 0.15 * j
    return gamma, gval


def _zero_block_count(q):
    return 1 if q >= 2 else 0


def _active_cone_count(p):
    if p == 0:
        return 0
    return 2 if p >= 3 else 1


def block_matrix_rows(n, q, m, p):
    """Row count of the active-block matrix for the generator templates."""
    b = _zero_block_count(q)
    ab = _active_cone_count(p)
    return m + b * (b + 1) // 2 + ab * (ab + 1) // 2


def _random_basis(rng, k):
    Q, _ = np.linalg.qr(rng.randn(k, k))
    return Q


def _designed_tensors(rng, n, k, frame, support, slots):
    """Coefficient tensor with prescribed active-block entries.

    Each entry of ``slots`` is an (i, j) position in the eigenframe;
    slot number r is written with weight ``_SLOT_SCALE`` into the slice
    of coordinate ``support[r]``, cycling if there are more slots than
    support coordinates.  On top of that every support slice gets small
    dense symmetric noise.  The slots make the rows of the active-block
    matrix orthogonal by construction, which pins its smallest singular
    value near ``_SLOT_SCALE``; keeping the noise small keeps the total
    jacobian mass (and with it the round-off floor of the augmented
    gradient at large penalties) low.
    """
    out = np.zeros((n, k, k))
    if not support:
        return out
    comp = {l: _NOISE_SCALE * symmetric_part(rng.randn(k, k), "noise")
            for l in support}
    for r, (i, j) in enumerate(slots):
        C = comp[support[r % len(support)]]
        C[i, j] += _SLOT_SCALE
        C[j, i] = C[i, j]
    for l, C in comp.items():
        out[l] = frame @ C @ frame.T
    return out


def _support_pools(n, q, p, f_need, g_need):
    """Disjoint-as-possible coordinate pools feeding F and g.

    Concentrating each constraint's dependence on a few coordinates
    keeps the accumulated jacobian mass low without shrinking the
    designed entries, which would spoil the rank margin of the
    active-block matrix.  Each side always gets at least as many
    coordinates as it has designed slots; one slot per coordinate slice
    is what makes the active-block rows orthogonal.  Pools overlap only
    when the needs do not fit side by side, which can happen for the
    profiles that skip the rank check.
    """
    width = max(1, (3 * n) // 8)
    f_w = max(width, f_need) if q else 0
    g_w = max(width, g_need) if p else 0
    if f_w + g_w > n:
        f_w = min(f_w, max(f_need, n - g_w))
        g_w = max(min(g_w, n - f_w), g_need)
    f_pool = tuple(range(min(n, f_w)))
    g_pool = tuple(range(max(0, n - g_w), n))
    return f_pool, g_pool


def generate_instance(n, q, m, p, profile="nondegen", seed=0):
    """Construct a quadratic instance whose reference point is exact.

    Parameters
    ----------
    n, q, m, p : int
        Primal dimension, nuclear-term matrix order, number of equality
        rows and cone matrix order.  All nonnegative, n >= 1.
    profile : str
        One of ``nondegen``, ``degen``, ``saddle``.
    seed : int
        Drives every random draw; the same seed reproduces the same
        instance bit for bit.  An integer in [0, 2**32).

    Returns
    -------
    QuadraticProblem
        Instance with ``reference`` attached; its first-order residual
        is zero up to round-off.

    Raises
    ------
    InvalidInput
        A seed outside [0, 2**32) or not an integer (None included).
        Dimension combination incompatible with the profile: the block
        matrix needs at most n rows for ``nondegen``, the reduced
        subspace must be nonempty for ``saddle``, and ``degen`` needs
        an equality row to make collinear.
    """
    if profile not in _PROFILES:
        raise InvalidInput(f"unknown profile {profile!r}")
    n, q, m, p = (require_int("n", n, 1), require_int("q", q),
                  require_int("m", m), require_int("p", p))
    require_seed(seed)
    rows = block_matrix_rows(n, q, m, p)
    if profile == "nondegen" and rows > n:
        raise InvalidInput(
            f"block matrix has {rows} rows but only {n} columns; "
            "full row rank is impossible, increase n or shrink q/m/p")
    if profile == "degen" and m == 0:
        raise InvalidInput("degen profile needs at least one equality row")

    f_values, f_weights = _f_spectrum(q)
    g_gamma, g_values = _g_spectrum(p)
    # designed entries: the diagonal of the zero block of F, and the
    # boundary/degenerate blocks of the complementarity gap matrix
    f_slots = [(q // 2, q // 2)] if q >= 2 else []
    if p >= 3:
        g_slots = [(0, 0), (1, 1), (0, 1)]
    elif p >= 1:
        g_slots = [(0, 0)]
    else:
        g_slots = []
    f_pool, g_pool = _support_pools(n, q, p, len(f_slots), len(g_slots))
    rng = np.random.RandomState(seed)
    last_reason = ""
    for _ in range(_MAX_ATTEMPTS):
        QF = _random_basis(rng, q)
        PM = _random_basis(rng, p)
        F0 = QF @ np.diag(f_values) @ QF.T
        Ybar = QF @ np.diag(f_weights) @ QF.T
        g0 = PM @ np.diag(g_values) @ PM.T
        Gbar = PM @ np.diag(g_gamma) @ PM.T
        F_Ai = _designed_tensors(rng, n, q, QF, f_pool, f_slots)
        g_Ai = _designed_tensors(rng, n, p, PM, g_pool, g_slots)
        h_A = _ROW_SCALE * rng.randn(m, n)
        mubar = _ROW_SCALE * rng.randn(m)
        if profile == "degen":
            if m >= 2:
                h_A[-1] = h_A[0]
            else:
                h_A[0] = 0.0
        grad = np.einsum("lij,ij->l", F_Ai, Ybar) + h_A.T @ mubar \
            - np.einsum("lij,ij->l", g_Ai, Gbar)
        reference = KKTPoint(np.zeros(n),
                             MultiplierTriple(Ybar, mubar, Gbar))
        F_map = QuadraticMatrixMap(F0, F_Ai)
        g_map = QuadraticMatrixMap(g0, g_Ai)

        def build(f_H):
            return QuadraticProblem(0.0, -grad, f_H, F_map, h_A, np.zeros(m),
                                    g_map, reference=reference)

        base = build(np.zeros((n, n)))
        # the blocks read F, h and g only, which base and problem share
        blocks = cone_blocks(base, reference.x, reference.multipliers)
        M0, basis = sosc_reduced_matrix(base, reference.x,
                                        reference.multipliers, blocks=blocks)
        if profile == "saddle" and basis.shape[1] == 0:
            raise InvalidInput(
                "reduced subspace is empty at these dimensions, so the "
                "second-order condition cannot fail; increase n")
        if M0.size:
            evals = np.linalg.eigvalsh(M0)
            if profile == "saddle":
                t = -(1.0 + max(float(evals[-1]), 0.0))
            else:
                t = 1.0 + max(0.0, -float(evals[0]))
        else:
            t = 1.0
        problem = build(t * np.eye(n))

        res = kkt_residual(problem, reference.x, reference.multipliers.Y,
                           reference.multipliers.mu,
                           reference.multipliers.Gamma)
        if res.total > 1e-12:
            last_reason = f"first-order residual {res.total:.2e}"
            continue
        if profile == "nondegen":
            rep = nondegeneracy_check(problem, reference.x,
                                      reference.multipliers, blocks=blocks)
            if not rep.holds or rep.sigma_min <= 1e-6:
                last_reason = f"rank margin {rep.sigma_min:.2e}"
                continue
        return problem
    raise RuntimeError(
        f"no verifying instance in {_MAX_ATTEMPTS} attempts "
        f"(last failure: {last_reason})")
