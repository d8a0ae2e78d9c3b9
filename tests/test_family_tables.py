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
    _cross_tables,
    _nu_tables,
    app_cone_basis,
    build_AQP,
    cone_blocks,
    split_penalty_matrix,
)
from sdnop.generator import generate_instance
from sdnop.problem import load_instance

import family_oracles as oracle
from conftest import (
    make_full_blocks_instance,
    make_mixed_instance,
    make_repeated_eigenvalue_instance,
    make_weighted_zero_instance,
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
    rng = (np.random.RandomState(rotation_seed)
           if rotation_seed is not None else None)
    blocks = cone_blocks(problem, ref.x, ref.multipliers, rng=rng)
    return problem, ref, blocks


def _assert_same_tables(new, old):
    """``old`` omits empty families; ``new`` gives them empty tables."""
    assert [k for k in new if np.size(new[k])] == list(old)
    for key, table in old.items():
        np.testing.assert_array_equal(new[key], table, err_msg=key)


@pytest.mark.parametrize("case", sorted(CASES))
def test_active_rows_match(case):
    problem, ref, blocks = _setup(case)
    A = build_AQP(problem, ref.x, ref.multipliers, blocks=blocks)
    np.testing.assert_array_equal(A.matrix, oracle.active_rows(blocks))


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
    for c_base in (10.0, c):
        new = split_penalty_matrix(problem, ref.x, ref.multipliers, c_base,
                                   c, free=free, blocks=blocks)
        old = oracle.split_penalty_matrix(problem, ref.x, ref.multipliers,
                                          c_base, c, free, blocks)
        scale = np.abs(old).max()
        assert np.abs(new - old).max() <= 1e-13 * scale
