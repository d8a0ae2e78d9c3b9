"""Problem-model tests: oracles, Lagrangians, KKT residuals, multiplier
maps, Newton-matrix elements, JSON schema, and the local dual function."""

import os
import re
import warnings

import numpy as np
import pytest

from sdnop.errors import InvalidInput
from sdnop.generator import generate_instance
from sdnop.nuclear import nuclear_norm
from sdnop.problem import (
    _sym_stack,
    KKTPoint,
    KKTResidual,
    MultiplierTriple,
    QuadraticMatrixMap,
    QuadraticProblem,
    ShiftedPoint,
    adjoint_jac,
    aug_lagrangian_grad,
    aug_lagrangian_value,
    dual_value_and_grad,
    grad_x_lagrangian,
    hess_xx_lagrangian,
    instance_from_dict,
    instance_to_dict,
    kkt_residual,
    load_instance,
    multiplier_maps,
    newton_matrix_element,
    triple_diff_norm,
)

from sdnop.spectral import as_symmetric, symmetric_part

from conftest import make_mixed_instance
from eval_oracles import apply_jac, lagrangian, sym_stack_loop

NONDEGEN = os.path.join(os.path.dirname(os.path.dirname(__file__)),
                        "instances", "nondegen_small.json")


def rand_sym(rng, k, scale=1.0):
    A = rng.randn(k, k) * scale
    return 0.5 * (A + A.T)


def ref_point(problem):
    ref = problem.reference
    return ref.x, ref.multipliers


def central_grad(fun, x, t=1e-6):
    out = np.zeros_like(x)
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = 1.0
        out[i] = (fun(x + t * e) - fun(x - t * e)) / (2.0 * t)
    return out


class TestQuadraticMatrixMap:
    def test_known_value_and_jacobian(self):
        A0 = np.diag([1.0, -1.0])
        Ai = np.zeros((2, 2, 2))
        Ai[0] = np.eye(2)
        Aij = np.zeros((2, 2, 2, 2))
        Aij[1, 1] = 2.0 * np.eye(2)
        mp = QuadraticMatrixMap(A0, Ai, Aij)
        x = np.array([0.5, 2.0])
        np.testing.assert_allclose(mp.value(x), np.diag([1.5 + 4.0, -0.5 + 4.0]))
        np.testing.assert_allclose(mp.jac(x)[1], 4.0 * np.eye(2))

    def test_jacobian_matches_fd(self):
        rng = np.random.RandomState(80)
        n, k = 3, 2
        Ai = np.array([rand_sym(rng, k) for _ in range(n)])
        Aij = np.zeros((n, n, k, k))
        for i in range(n):
            for j in range(i, n):
                S = rand_sym(rng, k)
                Aij[i, j] = Aij[j, i] = S
        mp = QuadraticMatrixMap(rand_sym(rng, k), Ai, Aij)
        x = rng.randn(n)
        J = mp.jac(x)
        t = 1e-6
        for i in range(n):
            e = np.zeros(n)
            e[i] = 1.0
            fd = (mp.value(x + t * e) - mp.value(x - t * e)) / (2.0 * t)
            np.testing.assert_allclose(J[i], fd, atol=1e-8)

    def test_hess_contract_is_constant_and_symmetric(self):
        rng = np.random.RandomState(81)
        n, k = 3, 2
        Aij = np.zeros((n, n, k, k))
        for i in range(n):
            for j in range(i, n):
                S = rand_sym(rng, k)
                Aij[i, j] = Aij[j, i] = S
        mp = QuadraticMatrixMap(np.zeros((k, k)), np.zeros((n, k, k)), Aij)
        Y = rand_sym(rng, k)
        Hc = mp.hess_contract(Y)
        np.testing.assert_allclose(Hc, Hc.T, atol=1e-14)
        # contraction agrees with differentiating the Jacobian
        x = rng.randn(n)
        d = rng.randn(n)
        t = 1e-6
        fd = (mp.jac(x + t * d) - mp.jac(x - t * d)) / (2.0 * t)
        np.testing.assert_allclose(adjoint_jac(fd, Y), Hc @ d, atol=1e-8)

    def test_rejects_asymmetric_coefficients(self):
        with pytest.raises(InvalidInput):
            QuadraticMatrixMap(np.array([[0.0, 1.0], [0.0, 0.0]]),
                               np.zeros((1, 2, 2)))
        Aij = np.zeros((2, 2, 1, 1))
        Aij[0, 1] = 1.0
        with pytest.raises(InvalidInput):
            QuadraticMatrixMap(np.zeros((1, 1)), np.zeros((2, 1, 1)), Aij)

    def test_near_float_limit_stays_finite(self):
        # symmetrizing halves before adding, so finite data stay finite
        Ai = np.zeros((1, 2, 2))
        Ai[0, 1, 1] = -1e308
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            mp = QuadraticMatrixMap(np.diag([1e308, 1.0]), Ai)
        assert mp.A0[0, 0] == 1e308
        assert mp.Ai[0, 1, 1] == -1e308

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("name", ["Ai", "Aij"])
    def test_rejects_non_finite_coefficients(self, name, bad):
        # a non-finite slice passed the asymmetry test, whose gap is NaN
        stacks = {"Ai": np.zeros((2, 2, 2)), "Aij": np.zeros((2, 2, 2, 2))}
        stacks[name][1, ..., 0, 0] = bad
        with pytest.raises(InvalidInput,
                           match=rf"^{name} contains non-finite entries$"):
            QuadraticMatrixMap(np.eye(2), stacks["Ai"], stacks["Aij"])
        with pytest.raises(InvalidInput,
                           match=r"^Ai contains non-finite entries$"):
            QuadraticMatrixMap(np.eye(2), np.full((1, 2, 2), bad))

    def test_asymmetric_slice_is_named(self):
        Ai = np.zeros((2, 2, 2))
        Ai[1, 0, 1] = 1.0
        with pytest.raises(InvalidInput, match=r"^Ai is not symmetric "
                                               r"\(asymmetry 1\.000e\+00\)$"):
            QuadraticMatrixMap(np.eye(2), Ai)

    @pytest.mark.parametrize("name, Ai, Aij", [
        ("Ai", np.zeros(3), None), ("Ai", np.zeros(()), None),
        ("Ai", np.zeros((2, 3, 3)), None), ("Ai", [[["x"]]], None),
        ("Aij", np.zeros((2, 2, 2)), np.zeros((2, 2, 2))),
        ("A0", np.zeros((2, 2, 2)), None),
    ], ids=["Ai-1d", "Ai-0d", "Ai-k", "Ai-string", "Aij-3d", "A0-string"])
    def test_malformed_coefficients_are_named(self, name, Ai, Aij):
        # a 1-D or 0-D Ai raised IndexError from the symmetry loop
        A0 = "x" if name == "A0" else np.eye(2)
        with pytest.raises(InvalidInput, match=rf"^{name} must "):
            QuadraticMatrixMap(A0, Ai, Aij)


def _stack_outcome(check, A):
    """What a stack check makes of ``A``: its message, or its output's
    shape and bits."""
    try:
        out = check(A.copy(), "Ai")
    except InvalidInput as exc:
        return str(exc)
    return out.shape, out.tobytes()


def _symmetric_stack(rng, shape, scale=1.0):
    A = rng.uniform(-1.0, 1.0, shape) * scale
    return np.triu(A) + np.swapaxes(np.triu(A, 1), -2, -1)


class TestSymStack:
    # the one-pass check of a coefficient stack against the per-slice
    # check_symmetric loop it replaced
    SHAPES = [(5, 4, 4), (3, 3, 2, 2), (1, 1, 1), (0, 3, 3), (4, 0, 0),
              (0, 0, 2, 2), (2, 2, 0, 0)]

    @pytest.mark.parametrize("shape", SHAPES)
    @pytest.mark.parametrize("scale", [1.0, 1e-310, 1e308])
    def test_accepted_stacks_give_the_same_bits(self, shape, scale):
        rng = np.random.RandomState(61)
        A = _symmetric_stack(rng, shape, scale)
        # round-off asymmetry, within the tolerance
        A = A + 1e-12 * scale * rng.uniform(-1.0, 1.0, shape)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            got = _stack_outcome(_sym_stack, A)
        assert not isinstance(got, str), got
        assert got == _stack_outcome(sym_stack_loop, A)

    @pytest.mark.parametrize("shape", [(6, 3, 3), (3, 2, 4, 4)])
    def test_same_verdict_near_the_tolerance(self, shape):
        rng = np.random.RandomState(62)
        verdicts = set()
        for _ in range(200):
            A = _symmetric_stack(rng, shape, rng.choice([1.0, 1e3]))
            i = np.unravel_index(rng.randint(np.prod(shape[:-2])),
                                 shape[:-2])
            top = np.abs(A[i]).max()
            A[i][0, -1] += rng.choice([0.5, 0.999, 1.001, 2.0]) \
                * 1e-8 * (1.0 + top)
            got = _stack_outcome(_sym_stack, A)
            assert got == _stack_outcome(sym_stack_loop, A)
            verdicts.add(isinstance(got, str))
        assert verdicts == {True, False}

    @pytest.mark.parametrize("shape", [(7, 3, 3), (3, 3, 2, 2)])
    def test_same_first_bad_slice(self, shape):
        # one asymmetric, one NaN and one infinite slice, anywhere
        rng = np.random.RandomState(63)
        count = int(np.prod(shape[:-2]))
        named = set()
        for _ in range(60):
            A = _symmetric_stack(rng, shape)
            slices = A.reshape(-1, *shape[-2:])
            asym, nan, inf = rng.choice(count, 3, replace=False)
            slices[asym][0, 1] += 1.0 + rng.rand()
            slices[nan][rng.randint(shape[-1]), 0] = np.nan
            slices[inf][1, 1] = rng.choice([np.inf, -np.inf])
            got = _stack_outcome(_sym_stack, A)
            assert got == _stack_outcome(sym_stack_loop, A)
            named.add(got.split(" ")[1])
        assert named == {"is", "contains"}


def _add_then_halve(A):
    """(A + A^T) 0.5 of a matrix or of each slice of a stack, halved first
    only where the sum overflows."""
    At = np.swapaxes(A, -2, -1)
    with np.errstate(over="ignore"):
        S = (A + At) * 0.5
    return np.where(np.isfinite(S), S, 0.5 * A + 0.5 * At)


class TestOneSymmetrizationRule:
    def test_subnormal_coefficients_keep_their_bits(self):
        # halving first made the Ai entry 0.0
        qmap = QuadraticMatrixMap(np.full((1, 1), 5e-324),
                                  np.full((1, 1, 1), 5e-324))
        assert qmap.A0[0, 0] == 5e-324
        assert qmap.Ai[0, 0, 0] == 5e-324

    # the entries' scale and their round-off asymmetry: subnormal,
    # ordinary, large, and beyond DBL_MAX/2, where some sums overflow
    @pytest.mark.parametrize("scale, asym", [
        (1e-320, 1e-320), (1.0, 1e-12), (1e300, 1e288), (1.5e308, 1.5e296)])
    def test_every_path_adds_then_halves(self, scale, asym):
        rng = np.random.RandomState(71)
        n, k = 3, 4

        def near_symmetric(shape):
            return (_symmetric_stack(rng, shape, scale)
                    + asym * rng.uniform(-1.0, 1.0, shape))

        Ai = near_symmetric((n, k, k))
        Aij = near_symmetric((n, n, k, k))
        upper = np.triu_indices(n, 1)
        Aij[upper[::-1]] = Aij[upper]  # symmetric in the index pair
        f_H = near_symmetric((n, n))
        Y = 1e-3 / k ** 2 * rng.uniform(-1.0, 1.0, (k, k))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            qmap = QuadraticMatrixMap(Ai[0], Ai, Aij)
            problem = QuadraticProblem(0.0, np.zeros(n), f_H, qmap,
                                       np.zeros((0, n)), np.zeros(0), None)
            hess = hess_xx_lagrangian(problem, np.zeros(n), Y, np.zeros(0),
                                      np.zeros((0, 0)))
            pairs = [
                (symmetric_part(Ai, "Ai"), Ai),
                (as_symmetric(Ai[0], "A0"), Ai[0]),
                (qmap.A0, Ai[0]),
                (qmap.Ai, Ai),
                (qmap.Aij, Aij),
                (problem.f_H, f_H),
                (hess, problem.f_H + qmap.hess_contract(Y)),
            ]
        for got, A in pairs:
            assert got.tobytes() == _add_then_halve(A).tobytes()


class TestProblemData:
    @staticmethod
    def _data(**fields):
        data = {"f_c0": 0.0, "f_b": np.zeros(2), "f_H": np.eye(2),
                "F_map": None, "h_A": np.ones((1, 2)), "h_r": np.zeros(1),
                "g_map": None}
        return {**data, **fields}

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("field, name", [
        ("f_c0", "f.c0"), ("f_b", "f.b"), ("h_A", "h.A"), ("h_r", "h.r"),
    ])
    def test_non_finite_data_is_named(self, field, name, bad):
        # only the JSON loader looked: a NaN in f.b surfaced as a failed
        # line search, and one in h as a NaN residual
        data = self._data()
        data[field] = np.array(data[field], dtype=np.float64)
        data[field].flat[-1] = bad
        with pytest.raises(InvalidInput,
                           match=rf"^{re.escape(name)} contains non-finite "
                                 rf"entries$"):
            QuadraticProblem(**data)

    @pytest.mark.parametrize("field, value, name", [
        ("f_b", np.zeros((2, 2)), "f.b"),
        ("f_c0", "x", "f.c0"),
        ("f_H", np.eye(3), "f.H"),
        ("h_A", np.ones((1, 3)), "h.A"),
        ("h_r", np.zeros((1, 1)), "h.r"),
        ("reference", (np.zeros(3), np.zeros((0, 0)), np.zeros(1),
                       np.zeros((0, 0))), "reference_kkt.x"),
        ("reference", (np.zeros(2), np.zeros((1, 1)), np.zeros(1),
                       np.zeros((0, 0))), "reference_kkt.Y"),
        ("reference", (np.zeros(2), np.zeros((0, 0)), np.array([np.nan]),
                       np.zeros((0, 0))), "reference_kkt.mu"),
        ("reference", (np.zeros(2), np.zeros((0, 0)), np.zeros(1),
                       np.zeros(0)), "reference_kkt.Gamma"),
    ], ids=["f_b-2d", "f_c0-string", "f_H-n", "h_A-width", "h_r-2d",
            "ref-x-shape", "ref-Y-shape", "ref-mu-nan", "ref-Gamma-shape"])
    def test_malformed_data_is_named(self, field, value, name):
        # the constructor took a 2-D f_b, any reference, and raised a
        # bare ValueError on a wrong-width h_A or a non-numeric f_c0
        if field == "reference":
            x, Y, mu, Gamma = value
            value = KKTPoint(x, MultiplierTriple(Y, mu, Gamma))
        with pytest.raises(InvalidInput,
                           match=rf"^{re.escape(name)} (must|contains) "):
            QuadraticProblem(**self._data(**{field: value}))


class TestOracleConsistency:
    def test_adjoint_identity(self, mixed_quadratic_instance):
        problem = mixed_quadratic_instance
        rng = np.random.RandomState(82)
        for _ in range(50):
            x = rng.randn(problem.n)
            d = rng.randn(problem.n)
            Y = rand_sym(rng, problem.q)
            jac = problem.jac_F(x)
            lhs = np.sum(apply_jac(jac, d) * Y)
            rhs = d @ adjoint_jac(jac, Y)
            assert lhs == pytest.approx(rhs, abs=1e-10)
            G = rand_sym(rng, problem.p)
            jg = problem.jac_g(x)
            assert np.sum(apply_jac(jg, d) * G) == pytest.approx(
                d @ adjoint_jac(jg, G), abs=1e-10
            )

    def test_second_derivative_symmetry(self, mixed_quadratic_instance):
        problem = mixed_quadratic_instance
        rng = np.random.RandomState(83)
        Y = rand_sym(rng, problem.q)
        M = problem.F_map.hess_contract(Y)
        np.testing.assert_allclose(M, M.T, atol=1e-14)


class TestLagrangian:
    def test_zero_multipliers_is_objective(self, mixed_instance):
        problem = mixed_instance
        x = np.array([0.3, -0.2, 0.1])
        zero = MultiplierTriple.zeros(problem)
        assert lagrangian(problem, x, zero.Y, zero.mu, zero.Gamma) == \
            pytest.approx(problem.f(x), abs=1e-14)
        np.testing.assert_allclose(
            grad_x_lagrangian(problem, x, zero.Y, zero.mu, zero.Gamma),
            problem.grad_f(x), atol=1e-14)

    def test_linear_maps_leave_f_hessian(self, mixed_instance):
        problem = mixed_instance
        rng = np.random.RandomState(84)
        x = rng.randn(3)
        Y, G = rand_sym(rng, 2), rand_sym(rng, 2)
        H = hess_xx_lagrangian(problem, x, Y, np.array([0.4]), G)
        np.testing.assert_allclose(H, problem.f_H, atol=1e-14)

    def test_gradient_matches_fd(self, mixed_quadratic_instance):
        problem = mixed_quadratic_instance
        rng = np.random.RandomState(85)
        for _ in range(10):
            x = rng.randn(3)
            Y, G = rand_sym(rng, 2), rand_sym(rng, 2)
            mu = rng.randn(1)
            grad = grad_x_lagrangian(problem, x, Y, mu, G)
            fd = central_grad(lambda z: lagrangian(problem, z, Y, mu, G), x)
            np.testing.assert_allclose(grad, fd, atol=1e-7)

    def test_hessian_matches_fd(self, mixed_quadratic_instance):
        problem = mixed_quadratic_instance
        rng = np.random.RandomState(86)
        x = rng.randn(3)
        Y, G = rand_sym(rng, 2), rand_sym(rng, 2)
        mu = rng.randn(1)
        H = hess_xx_lagrangian(problem, x, Y, mu, G)
        t = 1e-6
        for i in range(3):
            e = np.zeros(3)
            e[i] = 1.0
            fd = (grad_x_lagrangian(problem, x + t * e, Y, mu, G)
                  - grad_x_lagrangian(problem, x - t * e, Y, mu, G)) / (2.0 * t)
            np.testing.assert_allclose(H[:, i], fd, atol=1e-7)

    def test_hessian_near_float_limit_stays_finite(self, mixed_instance):
        problem = mixed_instance
        problem.f_H = problem.f_H.copy()
        problem.f_H[0, 0] = 1e308
        y = problem.reference.multipliers
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            H = hess_xx_lagrangian(problem, problem.reference.x, y.Y, y.mu,
                                   y.Gamma)
        assert H[0, 0] == 1e308
        assert np.all(np.isfinite(H))


class TestAugmentedLagrangian:
    def test_rejects_bad_penalty(self, mixed_instance):
        problem = mixed_instance
        y = MultiplierTriple.zeros(problem)
        with pytest.raises(InvalidInput):
            aug_lagrangian_value(problem, np.zeros(3), y.Y, y.mu, y.Gamma, 0.0)
        with pytest.raises(InvalidInput):
            aug_lagrangian_grad(problem, np.zeros(3), y.Y, y.mu, y.Gamma, -1.0)

    def test_zero_multiplier_structure(self):
        # no matrix term: value = f + (1/2)||h||^2 + (1/2)||proj(-g)||^2 at c=1
        problem = QuadraticProblem(
            0.0, np.zeros(2), np.eye(2),
            None,
            np.array([[1.0, 0.0]]), np.array([0.5]),
            QuadraticMatrixMap(np.diag([1.0, -2.0]), np.zeros((2, 2, 2))),
        )
        x = np.array([0.7, -0.3])
        y = MultiplierTriple.zeros(problem)
        val = aug_lagrangian_value(problem, x, y.Y, y.mu, y.Gamma, 1.0)
        hx = problem.h(x)
        expected = problem.f(x) + 0.5 * hx @ hx + 0.5 * 4.0  # proj(-g) = diag(0,2)
        assert val == pytest.approx(expected, abs=1e-12)

    def test_gradient_matches_fd(self, mixed_quadratic_instance):
        problem = mixed_quadratic_instance
        rng = np.random.RandomState(87)
        c = 4.0
        checked = 0
        while checked < 10:
            x = rng.randn(3) * 0.5
            Y = rand_sym(rng, 2) * 0.5
            mu = rng.randn(1)
            G = rand_sym(rng, 2)
            Z = problem.F(x) + Y / c
            if np.min(np.abs(np.abs(np.linalg.eigvalsh(Z)) - 1.0 / c)) < 0.02:
                continue
            M = G - c * problem.g(x)
            if np.min(np.abs(np.linalg.eigvalsh(M))) < 0.02:
                continue
            grad = aug_lagrangian_grad(problem, x, Y, mu, G, c)
            fd = central_grad(
                lambda z: aug_lagrangian_value(problem, z, Y, mu, G, c), x)
            np.testing.assert_allclose(grad, fd, rtol=1e-6, atol=1e-6)
            checked += 1

    def test_zero_gradient_at_kkt(self, mixed_instance):
        problem = mixed_instance
        x, mult = ref_point(problem)
        for c in (1.0, 10.0, 100.0):
            g = aug_lagrangian_grad(problem, x, mult.Y, mult.mu, mult.Gamma, c)
            np.testing.assert_allclose(g, 0.0, atol=1e-10)

    def test_equality_only_reduces_to_quadratic_penalty(self, equality_instance):
        problem = equality_instance
        rng = np.random.RandomState(88)
        x = rng.randn(2)
        mu = rng.randn(1)
        c = 7.0
        y = MultiplierTriple(np.zeros((0, 0)), mu, np.zeros((0, 0)))
        grad = aug_lagrangian_grad(problem, x, y.Y, y.mu, y.Gamma, c)
        hx = problem.h(x)
        expect = problem.grad_f(x) + problem.h_A.T @ (mu + c * hx)
        np.testing.assert_allclose(grad, expect, atol=1e-13)

    def test_feasible_value_tends_to_composite_objective(self, mixed_instance):
        problem = mixed_instance
        x, mult = ref_point(problem)
        target = problem.f(x) + nuclear_norm(problem.F(x))
        vals = [aug_lagrangian_value(problem, x, mult.Y, mult.mu, mult.Gamma, c)
                for c in (1e2, 1e3, 1e4, 1e5, 1e6)]
        diffs = np.diff(vals)
        assert np.all(diffs >= -1e-12)
        assert vals[-1] == pytest.approx(target, abs=1e-6)

    def test_penalty_term_monotone_in_c(self, mixed_instance):
        problem = mixed_instance
        x = np.array([0.4, 0.8, -0.2])  # h(x) != 0 here
        hx = problem.h(x)
        assert hx @ hx > 1e-4
        for c1, c2 in ((1.0, 2.0), (5.0, 50.0)):
            assert 0.5 * c2 * (hx @ hx) >= 0.5 * c1 * (hx @ hx)


class TestMultiplierMaps:
    def test_fixed_point_at_kkt(self, mixed_instance):
        problem = mixed_instance
        x, mult = ref_point(problem)
        for c in (1.0, 10.0, 1000.0):
            plus = multiplier_maps(problem, x, mult.Y, mult.mu, mult.Gamma, c)
            assert triple_diff_norm(plus, mult) <= 1e-10

    def test_feasible_equality_keeps_mu(self, mixed_instance):
        problem = mixed_instance
        x = np.array([0.3, 0.2, -0.4])  # h(x) = 0.2 - 0.2 = 0
        assert abs(problem.h(x)[0]) < 1e-15
        mult = MultiplierTriple(np.diag([1.0, -1.0]), np.array([2.5]),
                                np.zeros((2, 2)))
        plus = multiplier_maps(problem, x, mult.Y, mult.mu, mult.Gamma, 10.0)
        np.testing.assert_allclose(plus.mu, mult.mu, atol=1e-14)

    def test_interior_g_zeroes_gamma(self, mixed_instance):
        problem = mixed_instance
        x = np.array([0.0, 0.0, 1.0])  # g(x) = diag(1.0, 0.5), positive definite
        plus = multiplier_maps(problem, x, np.diag([1.0, -1.0]), np.array([0.0]),
                               np.zeros((2, 2)), 10.0)
        np.testing.assert_allclose(plus.Gamma, 0.0, atol=1e-14)


class TestTripleDiffNorm:
    @staticmethod
    def _squares(a, b):
        # the plain form: the root of the summed squares
        return float(np.sqrt(
            np.sum((a.Y - b.Y) ** 2)
            + np.sum((a.mu - b.mu) ** 2)
            + np.sum((a.Gamma - b.Gamma) ** 2)
        ))

    @staticmethod
    def _triple(rng, q, m, p, scale):
        return MultiplierTriple(scale * rng.randn(q, q), scale * rng.randn(m),
                                scale * rng.randn(p, p))

    def test_finite_sums_keep_the_plain_bits(self):
        rng = np.random.RandomState(61)
        for q, m, p in ((3, 1, 3), (4, 0, 2), (0, 2, 0), (5, 3, 4)):
            for scale in (1e-300, 1e-8, 1.0, 1e8, 1e150):
                a = self._triple(rng, q, m, p, scale)
                b = self._triple(rng, q, m, p, scale)
                assert triple_diff_norm(a, b) == self._squares(a, b)

    @pytest.mark.parametrize("entry", [1e308, -1e308, 1.5e154])
    def test_entry_near_the_float_limit_is_finite(self, entry):
        ref = MultiplierTriple(np.eye(3), np.array([0.5]), np.eye(3))
        far = MultiplierTriple(ref.Y.copy(), ref.mu, ref.Gamma)
        far.Y[0, 0] = entry
        far.Y[1, 1] = entry
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            d = triple_diff_norm(far, ref)
        assert d == pytest.approx(np.sqrt(2.0) * abs(entry), rel=1e-14)

    def test_nonfinite_differences_stay_nonfinite(self):
        ref = MultiplierTriple(np.eye(2), np.zeros(1), np.eye(2))
        inf = MultiplierTriple(np.full((2, 2), np.inf), np.zeros(1),
                               np.eye(2))
        nan = MultiplierTriple(np.eye(2), np.array([np.nan]), np.eye(2))
        assert triple_diff_norm(inf, ref) == np.inf
        assert np.isnan(triple_diff_norm(nan, ref))


class TestNewtonMatrixElement:
    def test_symmetry(self, mixed_quadratic_instance):
        problem = mixed_quadratic_instance
        rng = np.random.RandomState(89)
        x = rng.randn(3) * 0.5
        A = newton_matrix_element(problem, x, rand_sym(rng, 2) * 0.5,
                                  rng.randn(1), rand_sym(rng, 2), 5.0)
        np.testing.assert_allclose(A, A.T, atol=1e-14)

    def test_equality_only_closed_form(self, equality_instance):
        problem = equality_instance
        x = np.array([0.2, -0.1])
        mu = np.array([0.4])
        c = 9.0
        A = newton_matrix_element(problem, x, np.zeros((0, 0)), mu,
                                  np.zeros((0, 0)), c)
        J = problem.h_A
        np.testing.assert_allclose(A, problem.f_H + c * J.T @ J, atol=1e-12)

    def test_directional_fd_consistency(self, mixed_quadratic_instance):
        problem = mixed_quadratic_instance
        rng = np.random.RandomState(90)
        c = 4.0
        checked = 0
        while checked < 10:
            x = rng.randn(3) * 0.5
            Y = rand_sym(rng, 2) * 0.5
            mu = rng.randn(1)
            G = rand_sym(rng, 2)
            Z = problem.F(x) + Y / c
            if np.min(np.abs(np.abs(np.linalg.eigvalsh(Z)) - 1.0 / c)) < 0.02:
                continue
            if np.min(np.abs(np.linalg.eigvalsh(G - c * problem.g(x)))) < 0.02:
                continue
            A = newton_matrix_element(problem, x, Y, mu, G, c)
            d = rng.randn(3)
            t = 1e-6
            fd = (aug_lagrangian_grad(problem, x + t * d, Y, mu, G, c)
                  - aug_lagrangian_grad(problem, x - t * d, Y, mu, G, c)) / (2.0 * t)
            np.testing.assert_allclose(A @ d, fd, rtol=1e-5, atol=1e-6)
            checked += 1

    def test_positive_definite_at_kkt(self, mixed_instance):
        problem = mixed_instance
        x, mult = ref_point(problem)
        for c in (10.0, 100.0):
            A = newton_matrix_element(problem, x, mult.Y, mult.mu, mult.Gamma, c)
            assert np.linalg.eigvalsh(A).min() > 0.5  # f-Hessian is the identity


_COMPONENTS = ("stationarity", "subgradient", "equality", "cone", "dual",
               "complementarity")


class TestKKTResidual:
    def test_constructed_point(self, mixed_instance):
        problem = mixed_instance
        x, mult = ref_point(problem)
        res = kkt_residual(problem, x, mult.Y, mult.mu, mult.Gamma)
        assert res.total <= 1e-10

    def test_infeasible_equality_component(self, mixed_instance):
        problem = mixed_instance
        x = np.array([0.0, 1.0, 0.0])  # h = 1
        x0, mult = ref_point(problem)
        res = kkt_residual(problem, x, mult.Y, mult.mu, mult.Gamma)
        assert res.equality == pytest.approx(1.0, abs=1e-12)

    def test_dual_feasibility_component(self, mixed_instance):
        problem = mixed_instance
        x, mult = ref_point(problem)
        bad = MultiplierTriple(mult.Y, mult.mu, np.diag([-0.3, 0.6]))
        res = kkt_residual(problem, x, bad.Y, bad.mu, bad.Gamma)
        assert res.dual == pytest.approx(0.3, abs=1e-12)

    def test_components_nonnegative(self, mixed_instance):
        problem = mixed_instance
        rng = np.random.RandomState(91)
        for _ in range(20):
            res = kkt_residual(problem, rng.randn(3), rand_sym(rng, 2),
                               rng.randn(1), rand_sym(rng, 2))
            for v in res.as_dict().values():
                assert v >= 0.0

    @pytest.mark.parametrize("component", _COMPONENTS)
    def test_total_is_nan_when_a_component_is(self, component):
        # Python's max keeps an earlier value over a later NaN, so a stop
        # test on the total could pass on NaN data
        parts = dict.fromkeys(_COMPONENTS, 1e-13)
        parts[component] = float("nan")
        res = KKTResidual(**parts)
        assert np.isnan(res.total)
        assert np.isnan(res.as_dict()["total"])
        assert not res.total <= 1e-12

    @staticmethod
    def _residual_names(problem, field, path):
        # a point's F(x) and g(x) are finite whenever its shifted matrices
        # are, so on the point path the kept matrix is made non-finite
        x = np.full(problem.n, np.nan)
        y = MultiplierTriple.zeros(problem)
        point = None
        if path == "point":
            point = ShiftedPoint(problem, np.zeros(problem.n), y.Y, y.mu,
                                 y.Gamma, 10.0)
            setattr(point, field, np.full_like(getattr(point, field), np.nan))
        else:
            # without a point x is checked finite where it enters, so the
            # map itself gives a non-finite value at a finite x
            x = np.zeros(problem.n)
            method = {"Fx": "F", "gx": "g"}[field]
            shape = getattr(problem, method)(x).shape
            setattr(problem, method, lambda x: np.full(shape, np.nan))
        name = {"Fx": "F(x)", "gx": "g(x)"}[field]
        with pytest.raises(InvalidInput,
                           match=rf"^{re.escape(name)} contains non-finite"):
            kkt_residual(problem, x, y.Y, y.mu, y.Gamma, point=point)

    @pytest.mark.parametrize("path", ["none", "point"])
    def test_names_non_finite_F_of_x(self, path):
        self._residual_names(load_instance(NONDEGEN), "Fx", path)

    @pytest.mark.parametrize("path", ["none", "point"])
    def test_names_non_finite_g_of_x(self, path):
        # F absent, so g(x) is the first matrix the residual forms
        problem = generate_instance(8, 0, 3, 3, profile="nondegen", seed=7)
        self._residual_names(problem, "gx", path)


class TestInstanceSchema:
    def test_round_trip(self, mixed_quadratic_instance):
        problem = mixed_quadratic_instance
        data = instance_to_dict(problem)
        back = instance_from_dict(data)
        rng = np.random.RandomState(92)
        for _ in range(5):
            x = rng.randn(3)
            assert back.f(x) == pytest.approx(problem.f(x), abs=1e-14)
            np.testing.assert_allclose(back.F(x), problem.F(x), atol=1e-14)
            np.testing.assert_allclose(back.g(x), problem.g(x), atol=1e-14)
            np.testing.assert_allclose(back.h(x), problem.h(x), atol=1e-14)
        assert back.reference is not None
        np.testing.assert_allclose(back.reference.x, problem.reference.x)

    def test_rejects_malformed(self):
        with pytest.raises(InvalidInput):
            instance_from_dict([])
        with pytest.raises(InvalidInput):
            instance_from_dict({"n": 2})
        good = instance_to_dict(make_mixed_instance())
        bad = dict(good)
        bad["h"] = [[1.0, 0.0]]  # wrong row length for n = 3
        with pytest.raises(InvalidInput):
            instance_from_dict(bad)
        bad2 = dict(good)
        bad2["q"] = 2
        bad2["F"] = None
        with pytest.raises(InvalidInput):
            instance_from_dict(bad2)


class TestDualFunction:
    def test_gradient_ascent_identity(self, mixed_instance):
        problem = mixed_instance
        x, mult = ref_point(problem)
        rng = np.random.RandomState(93)
        c = 10.0
        Y = mult.Y + 0.02 * rand_sym(rng, 2)
        mu = mult.mu + 0.02 * rng.randn(1)
        G = mult.Gamma + 0.02 * rand_sym(rng, 2)
        val, grad, xc = dual_value_and_grad(problem, Y, mu, G, c, x)
        plus = multiplier_maps(problem, xc, Y, mu, G, c)
        np.testing.assert_allclose(Y + c * grad.Y, plus.Y, atol=1e-6)
        np.testing.assert_allclose(mu + c * grad.mu, plus.mu, atol=1e-6)
        np.testing.assert_allclose(G + c * grad.Gamma, plus.Gamma, atol=1e-6)
        assert val == pytest.approx(
            aug_lagrangian_value(problem, xc, Y, mu, G, c), abs=1e-12)

    def test_zero_gradient_at_reference(self, mixed_instance):
        problem = mixed_instance
        x, mult = ref_point(problem)
        val, grad, xc = dual_value_and_grad(
            problem, mult.Y, mult.mu, mult.Gamma, 10.0, x)
        assert np.abs(grad.Y).max(initial=0.0) <= 1e-8
        assert np.abs(grad.mu).max(initial=0.0) <= 1e-8
        assert np.abs(grad.Gamma).max(initial=0.0) <= 1e-8

    def test_directional_fd(self, mixed_instance):
        problem = mixed_instance
        x, mult = ref_point(problem)
        rng = np.random.RandomState(94)
        c = 10.0
        Y = mult.Y + 0.05 * rand_sym(rng, 2)
        mu = mult.mu + 0.05 * rng.randn(1)
        G = mult.Gamma + 0.05 * rand_sym(rng, 2)
        val, grad, xc = dual_value_and_grad(problem, Y, mu, G, c, x)
        dY, dmu, dG = rand_sym(rng, 2), rng.randn(1), rand_sym(rng, 2)
        t = 1e-5
        up, _, _ = dual_value_and_grad(problem, Y + t * dY, mu + t * dmu,
                                       G + t * dG, c, xc)
        dn, _, _ = dual_value_and_grad(problem, Y - t * dY, mu - t * dmu,
                                       G - t * dG, c, xc)
        fd = (up - dn) / (2.0 * t)
        pairing = (np.sum(grad.Y * dY) + grad.mu @ dmu + np.sum(grad.Gamma * dG))
        assert fd == pytest.approx(pairing, abs=1e-5)

    def test_concavity_midpoint(self, mixed_instance):
        problem = mixed_instance
        x, mult = ref_point(problem)
        rng = np.random.RandomState(95)
        c = 10.0
        for _ in range(3):
            Y1 = mult.Y + 0.05 * rand_sym(rng, 2)
            Y2 = mult.Y + 0.05 * rand_sym(rng, 2)
            mu1 = mult.mu + 0.05 * rng.randn(1)
            mu2 = mult.mu + 0.05 * rng.randn(1)
            G1 = mult.Gamma + 0.05 * rand_sym(rng, 2)
            G2 = mult.Gamma + 0.05 * rand_sym(rng, 2)
            v1, _, _ = dual_value_and_grad(problem, Y1, mu1, G1, c, x)
            v2, _, _ = dual_value_and_grad(problem, Y2, mu2, G2, c, x)
            vm, _, _ = dual_value_and_grad(
                problem, 0.5 * (Y1 + Y2), 0.5 * (mu1 + mu2), 0.5 * (G1 + G2), c, x)
            assert vm >= 0.5 * (v1 + v2) - 1e-8
