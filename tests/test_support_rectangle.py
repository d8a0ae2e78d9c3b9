"""The Newton element's tables on the support rectangle, bit for bit.

At exact kinks the soft-threshold and theta tables are pair rules of the
eigenvalues, so the Newton element forms only the rectangle its Gram
products read, straight from the spectrum (``prox_support_table``,
``theta_support_table``), and weights it by ``problem._mirror_weights``.
Here that is checked, byte for byte, against the grouped full tables
(``prox_divided_diff`` at ``group_tol`` 0, ``theta_matrix`` at ``tol``
0), cut and weighted by ``eval_oracles.rectangle_weights``: on the test
spectra of ``test_spectral_reuse`` (values on +-tau and at 0, near-equal
pairs, exact ties) and on spectra built from exact ties of two and of
three.  Where three or more eigenvalues are equal the grouped table pairs
the others with the run's mean, which can round off its value, so the
direct table is not formed (None) and the element takes the grouped one;
the element is checked on both paths against the full-table assembly.
"""

import numpy as np
import pytest

from sdnop.generator import generate_instance
from sdnop.nuclear import (
    prox_divided_diff,
    prox_support_table,
    soft_pair_table,
)
from sdnop.problem import ShiftedPoint, _mirror_weights, newton_matrix_element
from sdnop.psd_cone import theta_matrix, theta_support_table
from sdnop.spectral import EigenDecomposition

from eval_oracles import rectangle_weights
from test_spectral_reuse import (
    BUNDLED,
    _load,
    _shifted_at,
    _test_spectra,
    _with_spectrum,
    newton_element_uncached,
)


def _has_run_of_three(values):
    return any(a == b for a, b in zip(values, values[2:]))


def _tie_spectra(rng):
    """Spectra with exact ties of two and of three, on the kinks, at 0 and
    off them."""
    for _ in range(40):
        tau = 10.0 ** rng.uniform(-3.0, 0.0)
        pool = [tau, -tau, 0.0, 0.1 * tau, 3.0 * tau, -2.0, 0.7, -0.3 * tau]
        values = []
        for v in rng.choice(pool, size=rng.randint(1, 6), replace=False):
            values += [v] * rng.randint(1, 4)
        yield tau, np.sort(values)[::-1]


def _same_bits(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def test_rectangles_match_full_tables():
    rng = np.random.RandomState(38)
    seen = dict.fromkeys(("pair", "run", "rounded", "kink", "zero"), 0)
    spectra = list(_test_spectra(rng)) + list(_tie_spectra(rng))
    for tau, values in spectra:
        eig = EigenDecomposition(values, np.eye(values.size))
        vals = values.tolist()
        seen["pair"] += any(a == b for a, b in zip(vals, vals[1:]))
        seen["kink"] += tau in vals or -tau in vals
        seen["zero"] += 0.0 in vals
        dd = prox_divided_diff(eig, tau, 0.0)
        lo, hi = dd.complement_support
        rect = prox_support_table(eig, tau)
        if _has_run_of_three(vals):
            seen["run"] += 1
            assert rect is None
            # the pair rule on the eigenvalues themselves can miss the
            # grouped table's bits there
            seen["rounded"] += not _same_bits(
                soft_pair_table(values, tau, lo, hi), dd.table[:hi, lo:])
        else:
            T, got_lo = rect
            assert got_lo == lo and T.shape == (hi, values.size - lo)
            assert _same_bits(_mirror_weights(1.0 - T, lo),
                              rectangle_weights(1.0 - dd.table, lo, hi)), \
                (tau, values)
        theta = theta_matrix(eig, tol=0.0)
        lo, hi = theta.support
        table = theta_support_table(eig)
        assert _same_bits(table, theta.entries[:hi])
        assert _same_bits(_mirror_weights(table, 0),
                          rectangle_weights(theta.entries, 0, hi))
    assert min(seen.values()) >= 5, seen


def _instance(name):
    if name == "generated":
        return generate_instance(24, 10, 3, 8, seed=7)
    return _load(name)


@pytest.mark.parametrize("name", BUNDLED + ("generated",))
def test_element_on_ties_matches_full_table_assembly(name):
    # Z with exact double and triple eigenvalues on +-tau and off them,
    # M with a double zero; tau a power of two and Z, M diagonal, so the
    # computed spectra keep the ties.  A triple takes the grouped table
    problem = _instance(name)
    ref = problem.reference
    x, mu = ref.x, ref.multipliers.mu
    rng = np.random.RandomState(39)
    paths = set()
    for c in (1.0, 4.0, 1024.0):
        tau = 1.0 / c
        m = np.array([0.0, 0.0, -1.0, 1.5, 1.5, 0.7, -0.2, -0.2])[:problem.p]
        for z in ([2.0, 2.0, tau, tau, -tau, 0.5 * tau, -1.5, 0.9, 0.0, 0.0],
                  [2.0, 2.0, 2.0, tau, -tau, -tau, -tau, 0.0, 0.0, 0.0]):
            z = np.array(z)[:problem.q]
            Y, Gamma = _shifted_at(problem, x, c, np.diag(z), np.diag(m))
            pt = ShiftedPoint(problem, x, Y, mu, Gamma, c)
            grouped = _has_run_of_three(pt.eig_Z.values.tolist())
            assert (prox_support_table(pt.eig_Z, tau) is None) == grouped
            paths.add(grouped)
            A = newton_matrix_element(problem, x, Y, mu, Gamma, c, point=pt)
            assert _same_bits(A, newton_element_uncached(problem, x, c, pt))
        # and a random basis, where the ties are near-equal values
        Z = _with_spectrum(np.array([2.0, 2.0, 2.0, tau, -tau, 0.3, -1.0,
                                     0.0, 0.0, 0.0])[:problem.q], rng)
        Y, Gamma = _shifted_at(problem, x, c, Z, np.diag(m))
        pt = ShiftedPoint(problem, x, Y, mu, Gamma, c)
        A = newton_matrix_element(problem, x, Y, mu, Gamma, c, point=pt)
        assert _same_bits(A, newton_element_uncached(problem, x, c, pt))
    assert paths == {False, True}
