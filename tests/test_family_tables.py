"""Block-family tables against the per-family constructions they replaced.

``diagnostics`` derives the active-block matrix, the reduced-subspace
basis, the cross-block tables and the curvature model from two family
lists.  The oracles in ``family_oracles`` build each family by its own
formula.  Rows, bases and tables must agree bit for bit; the curvature
model sums the same terms in another order, so it agrees to round-off.
"""

import os

import numpy as np
import pytest

from sdnop.diagnostics import (
    _active_rows,
    _cross_tables,
    _curvature_model,
    _nu_tables,
    app_cone_basis,
    cone_blocks,
)
from sdnop.generator import generate_instance
from sdnop.problem import load_instance

import family_oracles as oracle
from conftest import (
    REPEATED_SPECTRA,
    make_block_instance,
    make_full_blocks_instance,
    make_mixed_instance,
    make_repeated_blocks_instance,
    make_repeated_eigenvalue_instance,
    make_weighted_zero_instance,
    rotated_blocks,
    spectrum_runs,
)

INSTANCES = os.path.join(os.path.dirname(os.path.dirname(__file__)),
                         "instances")

CASES = {
    **{name: (lambda name=name: load_instance(
        os.path.join(INSTANCES, name + ".json")), None)
       for name in ("nondegen_small", "degen_small", "saddle_small")},
    "full_blocks": (make_full_blocks_instance, None),
    "mixed": (make_mixed_instance, None),
    "weighted_zero": (make_weighted_zero_instance, None),
    **{f"{profile}_{n}": (
        lambda shape=shape, profile=profile: generate_instance(
            *shape, profile=profile, seed=7), None)
       for profile in ("nondegen", "degen", "saddle")
       for n, shape in ((24, (24, 10, 3, 8)), (40, (40, 16, 4, 14)))},
    "repeated_rotated": (make_repeated_eigenvalue_instance, 3),
}
PENALTIES = (3.7, 10.0, 1e4)


def _setup(case):
    build, rotation_seed = CASES[case]
    problem = build()
    ref = problem.reference
    if rotation_seed is None:
        blocks = cone_blocks(problem, ref.x, ref.multipliers)
    else:
        blocks = rotated_blocks(problem, ref.x, ref.multipliers,
                                np.random.RandomState(rotation_seed))
    return problem, ref, blocks


def _assert_same_tables(new, old):
    """``old`` omits empty families; ``new`` gives them empty tables."""
    assert [k for k in new if np.size(new[k])] == list(old)
    for key, table in old.items():
        np.testing.assert_array_equal(new[key], table, err_msg=key)


@pytest.mark.parametrize("case", sorted(CASES))
def test_active_rows_match(case):
    _, _, blocks = _setup(case)
    np.testing.assert_array_equal(_active_rows(blocks)[0],
                                  oracle.active_rows(blocks))


@pytest.mark.parametrize("case", sorted(CASES))
def test_app_cone_basis_matches(case):
    problem, ref, blocks = _setup(case)
    np.testing.assert_array_equal(
        app_cone_basis(problem, ref.x, ref.multipliers, blocks=blocks),
        oracle.app_cone_basis(blocks))


@pytest.mark.parametrize("case", sorted(CASES))
def test_ratio_tables_match(case):
    _, _, blocks = _setup(case)
    _assert_same_tables(_cross_tables(blocks), oracle.ratio_tables(blocks))
    assert _nu_tables(blocks) == oracle.nu_tables(blocks)


@pytest.mark.parametrize("case", sorted(CASES))
@pytest.mark.parametrize("c", PENALTIES)
def test_delta_tables_match(case, c):
    _, _, blocks = _setup(case)
    _assert_same_tables(_cross_tables(blocks, c),
                        oracle.delta_tables(blocks, c))


@pytest.mark.parametrize("case", sorted(CASES))
@pytest.mark.parametrize("c", PENALTIES)
@pytest.mark.parametrize("free", (0.0, 1.0))
def test_curvature_model_matches(case, c, free):
    problem, ref, blocks = _setup(case)
    model = _curvature_model(problem, ref.x, ref.multipliers, blocks)
    for c_base in (10.0, c):
        new = model(c_base, c, free)
        old = oracle.split_penalty_matrix(problem, ref.x, ref.multipliers,
                                          c_base, c, free, blocks)
        scale = np.abs(old).max()
        assert np.abs(new - old).max() <= 1e-13 * scale


# ----------------------------------------------------------------------------
# the multiplicity flag against the run rule it replaced
# ----------------------------------------------------------------------------

def _run_rule(blocks):
    """Whether some run of ``spectrum_runs`` has two or more indices."""
    return any(len(run) > 1 for runs in spectrum_runs(blocks) for run in runs)


@pytest.mark.parametrize("case", sorted(CASES))
def test_multiplicity_matches_run_rule(case):
    _, _, blocks = _setup(case)
    assert blocks.multiplicity == _run_rule(blocks)


# one repeated group per index class on the spectra of
# make_full_blocks_instance: F eigenvalues, weights, M eigenvalues
_ONE_REPEAT = {
    "a": ([1.5, 1.5, 0, 0, 0, -1.2], [1, 1, 1, 0.3, -1, -1], [0.8, 0, -1.1]),
    "b_up": ([1.5, 0, 0, 0, 0, -1.2], [1, 1, 1, 0.3, -1, -1], [0.8, 0, -1.1]),
    "b_mid": ([1.5, 0, 0, 0, 0, -1.2], [1, 1, 0.3, 0.3, -1, -1],
              [0.8, 0, -1.1]),
    "b_low": ([1.5, 0, 0, 0, 0, -1.2], [1, 1, 0.3, -1, -1, -1],
              [0.8, 0, -1.1]),
    "c_neg": ([1.5, 0, 0, 0, -1.2, -1.2], [1, 1, 0.3, -1, -1, -1],
              [0.8, 0, -1.1]),
    "alpha": ([1.5, 0, 0, 0, -1.2], [1, 1, 0.3, -1, -1],
              [0.8, 0.8, 0, -1.1]),
    "beta": ([1.5, 0, 0, 0, -1.2], [1, 1, 0.3, -1, -1], [0.8, 0, 0, -1.1]),
    "gamma": ([1.5, 0, 0, 0, -1.2], [1, 1, 0.3, -1, -1],
              [0.8, 0, -1.1, -1.1]),
}


_FLAG_CASES = {
    **{family: (lambda spectra=spectra: make_block_instance(*spectra, 12),
                True)
       for family, spectra in _ONE_REPEAT.items()},
    # equal eigenvalue 0 of F with distinct weights: no repeat
    "equal_values": (make_full_blocks_instance, False),
    **{name: (lambda name=name: make_repeated_blocks_instance(name), True)
       for name in REPEATED_SPECTRA},
    "F_absent": (lambda: generate_instance(8, 0, 3, 3, seed=7), False),
    "g_absent": (lambda: generate_instance(8, 3, 3, 0, seed=7), False),
}


@pytest.mark.parametrize("case", sorted(_FLAG_CASES))
def test_multiplicity_on_constructed_spectra(case):
    build, expected = _FLAG_CASES[case]
    problem = build()
    ref = problem.reference
    blocks = cone_blocks(problem, ref.x, ref.multipliers)
    if case in _ONE_REPEAT:
        # the repeat lands in the class it is built for
        assert len(getattr(blocks, case)) == 2
    assert blocks.multiplicity == _run_rule(blocks) == expected
