"""The Newton element's tables on the support rectangle, bit for bit.

At exact kinks the soft-threshold and theta tables are pair rules of the
eigenvalues, so the Newton element forms only the rectangle its Gram
products read, straight from the spectrum (``prox_support_table``,
``theta_support_table``), and weights it by ``problem._mirror_weights``.
Here that is checked, byte for byte, against the grouped full tables
(``prox_divided_diff`` at ``group_tol`` 0, ``eval_oracles.theta_table``
split at 0), cut and weighted by ``eval_oracles.rectangle_weights``: on
the test spectra of ``test_spectral_reuse`` (values on +-tau and at 0,
near-equal pairs, exact ties) and on spectra built from exact ties of
two, three and more.  A run of equal eigenvalues is represented by its own value
(``spectral.group_distinct``), which the run's mean can round off, so
the grouped table is the pair rule of the eigenvalues on runs of three
too.  The element is checked against the full-table assembly at points
whose spectra hold such runs.
"""

import numpy as np
import pytest

from sdnop.generator import generate_instance
from sdnop.nuclear import (
    prox_divided_diff,
    prox_support_table,
    soft_pair_table,
)
from sdnop.problem import (
    ShiftedPoint,
    _mirror_weights,
    instance_from_dict,
    instance_to_dict,
    newton_matrix_element,
)
from sdnop.psd_cone import theta_support_table
from sdnop.spectral import EigenDecomposition

from eval_oracles import rectangle_weights, theta_table
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
        seen["run"] += _has_run_of_three(vals)
        # a run whose mean rounds off its value
        seen["rounded"] += any(np.mean([v] * vals.count(v)) != v
                               for v in set(vals))
        seen["kink"] += tau in vals or -tau in vals
        seen["zero"] += 0.0 in vals
        # 1 - T vanishes where both eigenvalues lie above tau or below -tau
        lo = sum(v > tau for v in vals)
        hi = values.size - sum(v < -tau for v in vals)
        dd = prox_divided_diff(eig, tau, 0.0)
        T, got_lo = prox_support_table(eig, tau)
        assert got_lo == lo and T.shape == (hi, values.size - lo)
        assert _same_bits(T, dd.table[:hi, lo:]), (tau, values)
        assert _same_bits(dd.table, soft_pair_table(values, tau))
        assert _same_bits(_mirror_weights(1.0 - T, lo),
                          rectangle_weights(1.0 - dd.table, lo, hi)), \
            (tau, values)
        # theta vanishes where both eigenvalues are negative
        theta = theta_table(eig, 0.0)
        hi = sum(v >= 0.0 for v in vals)
        table = theta_support_table(eig)
        assert _same_bits(table, theta[:hi])
        assert _same_bits(_mirror_weights(table, 0),
                          rectangle_weights(theta, 0, hi))
    assert min(seen.values()) >= 5, seen


def _instance(name):
    if name == "generated":
        return generate_instance(24, 10, 3, 8, seed=7)
    return _load(name)


def _assert_element_is_full_table_assembly(problem, x, Y, mu, Gamma, c):
    # the point takes the rectangle of the full table, and the element is
    # the full-table assembly, bit for bit
    pt = ShiftedPoint(problem, x, Y, mu, Gamma, c)
    T, lo = prox_support_table(pt.eig_Z, pt.tau)
    dd = prox_divided_diff(pt.eig_Z, pt.tau, 0.0)
    assert _same_bits(T, dd.table[:T.shape[0], lo:])
    A = newton_matrix_element(problem, x, Y, mu, Gamma, c, point=pt)
    assert _same_bits(A, newton_element_uncached(problem, x, c, pt))
    return pt


@pytest.mark.parametrize("name", BUNDLED + ("generated",))
def test_element_on_ties_matches_full_table_assembly(name):
    # Z with exact double and triple eigenvalues on +-tau and off them,
    # M with a double zero; tau a power of two and Z, M diagonal, so the
    # computed spectra keep the ties.  Every point, runs of three
    # included, takes the rectangle
    problem = _instance(name)
    ref = problem.reference
    x, mu = ref.x, ref.multipliers.mu
    rng = np.random.RandomState(39)
    runs = 0
    for c in (1.0, 4.0, 1024.0):
        tau = 1.0 / c
        m = np.array([0.0, 0.0, -1.0, 1.5, 1.5, 0.7, -0.2, -0.2])[:problem.p]
        for z in ([2.0, 2.0, tau, tau, -tau, 0.5 * tau, -1.5, 0.9, 0.0, 0.0],
                  [2.0, 2.0, 2.0, tau, -tau, -tau, -tau, 0.0, 0.0, 0.0]):
            z = np.array(z)[:problem.q]
            Y, Gamma = _shifted_at(problem, x, c, np.diag(z), np.diag(m))
            pt = _assert_element_is_full_table_assembly(problem, x, Y, mu,
                                                        Gamma, c)
            runs += _has_run_of_three(pt.eig_Z.values.tolist())
        # and a random basis, where the ties are near-equal values
        Z = _with_spectrum(np.array([2.0, 2.0, 2.0, tau, -tau, 0.3, -1.0,
                                     0.0, 0.0, 0.0])[:problem.q], rng)
        Y, Gamma = _shifted_at(problem, x, c, Z, np.diag(m))
        _assert_element_is_full_table_assembly(problem, x, Y, mu, Gamma, c)
    assert runs > 0


def _instance_without_F0(profile):
    """A generated instance with F's constant term A0 set to 0: at x = 0
    the shifted matrix F(0) + Y/c is Y/c, exactly for c a power of two."""
    data = instance_to_dict(generate_instance(24, 10, 3, 8, profile=profile,
                                              seed=7))
    data["F"]["A0"] = np.zeros((10, 10)).tolist()
    return instance_from_dict(data)


@pytest.mark.parametrize("profile", ["nondegen", "degen"])
def test_element_on_constant_runs_is_the_pair_rule(profile):
    # three copies of 0.1 average to 0.10000000000000002 and three of 0.7
    # to 0.6999999999999998; each run keeps its value, so the element's
    # table pairs it with the other eigenvalues by the pair rule of the
    # spectrum.  Z is diagonal, so the computed spectrum is z
    problem = _instance_without_F0(profile)
    x = np.zeros(problem.n)
    mu = np.zeros(problem.m)
    c = 16.0
    tau = 1.0 / c
    m = np.diag([1.0, 0.5, 0.0, 0.0, -0.2, -1.0, -1.0, -3.0])
    for z in ([0.7] * 3 + [0.1] * 3 + [tau, 0.0, -0.5 * tau, -1.0],
              [0.7] * 3 + [0.1] * 4 + [0.0, -tau, -tau]):
        Y, Gamma = _shifted_at(problem, x, c, np.diag(z), m)
        pt = _assert_element_is_full_table_assembly(problem, x, Y, mu,
                                                    Gamma, c)
        assert pt.eig_Z.values.tolist() == sorted(z, reverse=True)
        T, lo = prox_support_table(pt.eig_Z, tau)
        full = soft_pair_table(pt.eig_Z.values, tau)
        assert _same_bits(T, full[:T.shape[0], lo:])
