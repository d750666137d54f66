import math
import random

import numpy as np
import pytest

import helpers
from helpers import MATRIX_STEPPERS, hat, matrix_integrate
from liebutcher.cli import _rigid_body
from liebutcher.sphere import (
    STEPPERS,
    ConvergenceError,
    _rotate,
    _slope,
    convergence_study,
    integrate,
    norm_defect,
    rigid_body_field,
    rot_exp,
    step_lie_euler,
    step_lie_midpoint,
    trajectory,
    unit_vector,
)

FIELD = rigid_body_field((1.0, 2.0, 3.0))
Y0 = np.array([1.0, 1.0, 1.0]) / math.sqrt(3.0)


class TestHat:
    def test_zero(self):
        assert np.array_equal(hat([0, 0, 0]), np.zeros((3, 3)))

    def test_cross_product_convention(self):
        assert np.allclose(hat([0, 0, 1]) @ [1, 0, 0], [0, 1, 0])

    def test_skew_symmetry(self):
        rng = np.random.default_rng(0)
        for _ in range(5):
            w = rng.uniform(-2, 2, 3)
            h = hat(w)
            assert np.array_equal(h + h.T, np.zeros((3, 3)))
            v = rng.uniform(-1, 1, 3)
            assert np.allclose(h @ v, np.cross(w, v))


class TestRotExp:
    def test_zero_gives_identity(self):
        assert np.array_equal(rot_exp([0, 0, 0]), np.eye(3))

    def test_orthogonal_with_unit_determinant(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            w = rng.uniform(-1, 1, 3)
            w = w / np.linalg.norm(w) * rng.uniform(0, math.pi)
            r = rot_exp(w)
            assert np.abs(r @ r.T - np.eye(3)).max() <= 1e-13
            assert abs(np.linalg.det(r) - 1.0) <= 1e-13

    def test_quarter_turn(self):
        r = rot_exp([0, 0, math.pi / 2])
        assert np.abs(r @ [1, 0, 0] - [0, 1, 0]).max() <= 1e-13

    def test_small_angle_branch_matches_closed_form(self):
        # just below the series threshold, compare against the sin/cos form
        w = np.array([1.0, -2.0, 0.5])
        w = w * (0.999e-6 / np.linalg.norm(w))
        theta = np.linalg.norm(w)
        k = hat(w)
        closed = np.eye(3) + math.sin(theta) / theta * k
        closed += (1 - math.cos(theta)) / theta**2 * (k @ k)
        assert np.abs(rot_exp(w) - closed).max() <= 1e-15

    @pytest.mark.parametrize("w", [[1e160, 0.0, 0.0], [1e154, 1e154, 1e154], [math.nan, 0.0, 0.0]])
    def test_angle_past_float_range_raises(self, w):
        with pytest.raises(OverflowError, match="rotation angle is not finite"):
            rot_exp(w)

    def test_largest_representable_angle_is_a_rotation(self):
        r = rot_exp([1e150, -2e150, 3e150])
        assert np.all(np.isfinite(r))
        assert np.allclose(r @ r.T, np.eye(3))

    def test_small_angle_first_order(self):
        w = np.array([1e-8, -2e-8, 3e-9])
        assert np.abs(rot_exp(w) - (np.eye(3) + hat(w))).max() <= 1e-15

    def test_columns_are_the_rotated_unit_vectors(self):
        # each column is _rotate of a unit vector, bit for bit, and the
        # matrix is within 1e-15 of the closed form
        rng = random.Random(5)
        units = (1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0)
        for _ in range(2000):
            w = _random_unit(rng, 10 ** rng.uniform(-9.0, 3.0))
            r = rot_exp(np.array(w))
            assert [tuple(c) for c in r.T.tolist()] == [_rotate(w, e) for e in units]
            assert np.abs(r - helpers.rot_exp(w)).max() <= 1e-15


class TestSteps:
    def test_zero_field_fixes_point(self):
        zero = lambda y: np.zeros(3)
        assert np.array_equal(step_lie_euler(zero, Y0, 0.1), Y0)
        assert np.array_equal(step_lie_midpoint(zero, Y0, 0.1), Y0)

    def test_full_turn_returns(self):
        h = 0.25
        field = lambda y: np.array([0.0, 0.0, 2 * math.pi / h])
        y1 = step_lie_euler(field, Y0, h)
        assert np.abs(y1 - Y0).max() <= 1e-12

    def test_midpoint_constant_field_is_exact_exponential(self):
        c = np.array([0.3, -0.2, 0.5])
        calls = []
        field = lambda y: calls.append(y) or c
        got = step_lie_midpoint(field, Y0, 0.1)
        assert len(calls) <= 3  # the start and at most two rounds
        assert np.allclose(got, helpers.rot_exp(0.1 * c) @ Y0, atol=1e-15)

    def test_midpoint_converges_quickly(self):
        # contraction for a small step: well under the iteration cap
        calls = []
        got = step_lie_midpoint(lambda y: calls.append(y) or FIELD(y), Y0, 1e-2)
        assert len(calls) <= 11  # the start and at most ten rounds
        assert norm_defect(got) <= 1e-14

    def test_midpoint_divergence_raises_with_residual(self):
        with pytest.raises(ConvergenceError) as err:
            step_lie_midpoint(FIELD, Y0, 1e3)
        assert err.value.residual > 0

    def test_midpoint_reversibility(self):
        y1 = step_lie_midpoint(FIELD, Y0, 1e-2)
        back = step_lie_midpoint(FIELD, y1, -1e-2)
        assert np.abs(back - Y0).max() <= 1e-10

    def test_sphere_preservation_long_run(self):
        for method in ("lie-euler", "lie-midpoint"):
            worst = max(
                norm_defect(y) for _, y in trajectory(FIELD, Y0, 0.02, 500, method)
            )
            assert worst <= 1e-12


class TestRigidBodyField:
    @pytest.mark.parametrize(
        "inertia", [(1, 0, 3), (1, 2, math.nan), (1, 2), (1, 2, 3, 4), (1, -2, 3), "abc"]
    )
    def test_bad_inertia_is_refused_when_the_field_is_built(self, inertia):
        with pytest.raises(ValueError, match="inertia must be three finite positive moments"):
            rigid_body_field(inertia)


class TestTrajectory:
    def test_shape_and_times(self):
        points = trajectory(FIELD, Y0, 0.1, 5, "lie-euler")
        assert len(points) == 6
        assert [round(t, 12) for t, _ in points] == [0.0, 0.1, 0.2, 0.3, 0.4, 0.5]

    def test_unknown_method(self):
        with pytest.raises(ValueError):
            trajectory(FIELD, Y0, 0.1, 2, "rk4")
        with pytest.raises(ValueError, match="unknown method"):
            integrate(FIELD, Y0, 0.1, 2, step_lie_euler)  # methods are STEPPERS names

    def test_integrate_returns_last_point(self):
        for method in ("lie-euler", "lie-midpoint"):
            final = integrate(FIELD, Y0, 0.1, 5, method)
            assert final == trajectory(FIELD, Y0, 0.1, 5, method)[-1][1]

    @pytest.mark.parametrize("h", [0.0, -0.1, math.nan, math.inf])
    def test_rejects_bad_step(self, h):
        with pytest.raises(ValueError, match="step size"):
            trajectory(FIELD, Y0, h, 2, "lie-euler")
        with pytest.raises(ValueError, match="step size"):
            integrate(FIELD, Y0, h, 2, "lie-euler")

    @pytest.mark.parametrize("method", ["lie-euler", "lie-midpoint"])
    def test_overflowing_step_names_h(self, method):
        with pytest.raises(ValueError, match=r"step size h=1e\+300 overflows the rotation angle at step 1"):
            integrate(FIELD, Y0, 1e300, 3, method)

    def test_rejects_negative_steps(self):
        with pytest.raises(ValueError, match="steps"):
            trajectory(FIELD, Y0, 0.1, -1, "lie-euler")
        with pytest.raises(ValueError, match="steps"):
            integrate(FIELD, Y0, 0.1, -1, "lie-euler")
        assert [t for t, _ in trajectory(FIELD, Y0, 0.1, 0, "lie-euler")] == [0.0]
        assert integrate(FIELD, Y0, 0.1, 0, "lie-euler") == tuple(Y0)

    @pytest.mark.parametrize("method", ["lie-euler", "lie-midpoint"])
    def test_points_are_float_tuples(self, method):
        # the array-valued field is read component by component
        for _, y in trajectory(FIELD, Y0, 0.1, 3, method):
            assert type(y) is tuple and [type(c) for c in y] == [float] * 3


class TestUnitVector:
    def test_accepts_unit(self):
        assert np.array_equal(unit_vector(Y0), Y0)

    def test_rejects_off_sphere(self):
        with pytest.raises(ValueError, match=r"^not a unit vector \(norm 1\.7320508075688772\)$"):
            unit_vector([1.0, 1.0, 1.0])
        with pytest.raises(ValueError):
            unit_vector([1.0, 0.0])

    @pytest.mark.parametrize(
        "y0, message",
        [
            ([math.nan, 0.0, 0.0], r"^not a unit vector \(norm nan\)$"),
            (5.0, r"R\^3, got shape \(\)$"),
            (np.eye(3), r"R\^3, got shape \(3, 3\)$"),
            ([[1.0, 0.0, 0.0]] * 3, r"R\^3, got shape \(3, 3\)$"),
            ([1.0, 0.0], r"R\^3, got shape \(2,\)$"),
            ([], r"R\^3, got shape \(0,\)$"),
            (np.array(5.0), r"R\^3, got shape \(\)$"),
            ("100", r"R\^3, got shape \(\)$"),
            (["a", 0.0, 0.0], "could not convert string to float"),
            ([1j, 0.0, 0.0], "components must be real numbers"),
        ],
    )
    def test_bad_points_are_value_errors(self, y0, message):
        with pytest.raises(ValueError, match=message):
            unit_vector(y0)

    @pytest.mark.parametrize(
        "y0, message",
        [
            ([1.0, 1.0, 1.0], "not a unit vector"),
            ([1.0, 0.0], r"R\^3, got shape \(2,\)"),
            ([math.nan, 0.0, 0.0], r"not a unit vector \(norm nan\)"),
        ],
    )
    def test_integrators_check_the_start_point(self, y0, message):
        for run in (
            lambda: trajectory(FIELD, y0, 0.1, 3, "lie-euler"),
            lambda: integrate(FIELD, y0, 0.1, 3, "lie-midpoint"),
            lambda: convergence_study(FIELD, y0, 0.4, "lie-euler", [0.1, 0.05, 0.025], 2),
        ):
            with pytest.raises(ValueError, match=message):
                run()


class TestConvergence:
    def test_euler_first_order_quick(self):
        slope = convergence_study(
            FIELD, Y0, 0.5, "lie-euler", [1 / 10, 1 / 20, 1 / 40], refine=16
        )["slope"]
        assert 0.8 <= slope <= 1.2

    def test_midpoint_second_order_quick(self):
        slope = convergence_study(
            FIELD, Y0, 0.5, "lie-midpoint", [1 / 10, 1 / 20, 1 / 40], refine=16
        )["slope"]
        assert 1.8 <= slope <= 2.2

    def test_slope_is_the_least_squares_fit(self):
        rng = random.Random(5)
        for n in (3, 4, 7):
            xs = [math.log(2.0 ** -k) for k in range(n)]
            ys = [2.0 * x + rng.uniform(-0.3, 0.3) for x in xs]
            assert abs(_slope(xs, ys) - np.polyfit(xs, ys, 1)[0]) <= 1e-12

    def test_reference_against_itself_is_exact(self):
        report = convergence_study(
            FIELD, Y0, 0.5, "lie-euler", [1 / 10, 1 / 20, 1 / 40], refine=1
        )
        assert report["slope"] is None
        assert report["exact"] is True
        assert report["errors"][-1] == 0.0

    def test_rejects_degenerate_step_lists(self):
        with pytest.raises(ValueError):
            convergence_study(FIELD, Y0, 1.0, "lie-euler", [0.1, 0.05], 64)
        with pytest.raises(ValueError):
            convergence_study(FIELD, Y0, 1.0, "lie-euler", [0.05, 0.1, 0.2], 64)
        with pytest.raises(ValueError):
            convergence_study(FIELD, Y0, 1.0, "lie-euler", [0.1, 0.05, 0.03], 64)
        with pytest.raises(ValueError, match="step size"):
            convergence_study(FIELD, Y0, 1.0, "lie-euler", [0.1, 0.05, 0.0], 64)

    @pytest.mark.parametrize("T", [1e-300, 1e-10, 0.04])
    def test_rejects_a_horizon_shorter_than_a_step(self, T):
        # T / h would round to 0 steps, and every error would read exactly 0
        with pytest.raises(ValueError, match=rf"step 0\.1 is longer than the horizon {T!r}"):
            convergence_study(FIELD, Y0, T, "lie-euler", [0.1, 0.05, 0.025], 64)

    @pytest.mark.parametrize("refine", [0, -4])
    def test_rejects_refine_below_one(self, refine):
        with pytest.raises(ValueError, match="refine"):
            convergence_study(FIELD, Y0, 0.5, "lie-euler", [0.1, 0.05, 0.025], refine=refine)

    @pytest.mark.parametrize("T", [0.0, -0.5, math.nan, math.inf])
    def test_rejects_bad_horizon(self, T):
        with pytest.raises(ValueError, match="horizon"):
            convergence_study(FIELD, Y0, T, "lie-euler", [0.1, 0.05, 0.025], 64)

    def test_rejects_a_vanishing_reference_step(self):
        with pytest.raises(ValueError, match="reference step 5e-324/2 is too small"):
            convergence_study(FIELD, Y0, 1.0, "lie-euler", [1.0, 0.5, 5e-324], refine=2)

    def test_report_keys(self):
        report = convergence_study(
            FIELD, Y0, 0.5, "lie-euler", [1 / 10, 1 / 20, 1 / 40], refine=8
        )
        assert list(report) == ["method", "h", "errors", "slope"]
        assert report["method"] == "lie-euler"


def _random_unit(rng, scale=1.0):
    v = [rng.gauss(0.0, 1.0) for _ in range(3)]
    n = math.hypot(*v)
    return tuple(scale * c / n for c in v)


class TestMatrixOracle:
    """The float steps against the matrix forms they replace."""

    def test_the_oracles_are_the_helpers_own(self):
        from liebutcher import postlie, sphere

        for name, layer in [("graft_attachments", postlie), ("hat", sphere), ("rot_exp", sphere)]:
            oracle = getattr(helpers, name)
            assert oracle.__module__ == "helpers"
            assert oracle is not getattr(layer, name, None)
        assert "hat" not in sphere.__all__ and not hasattr(sphere, "hat")

    def test_rotation_matches_the_matrix_form(self):
        rng = random.Random(3)
        small = 0
        for _ in range(3000):
            theta = 10 ** rng.uniform(-9.0, math.log10(30.0))
            small += theta < 1e-6
            w, v = _random_unit(rng, theta), _random_unit(rng)
            got = _rotate(w, v)
            want = helpers.rot_exp(w) @ np.array(v)
            assert max(abs(a - b) for a, b in zip(got, want)) <= 1e-15
        assert small >= 500  # the series branch is exercised
        assert _rotate((0.0, 0.0, 0.0), (0.6, 0.0, 0.8)) == (0.6, 0.0, 0.8)

    @pytest.mark.parametrize("method", ["lie-euler", "lie-midpoint"])
    def test_one_step_matches_the_oracle(self, method):
        rng = random.Random(4)
        step = STEPPERS[method]
        for _ in range(200):
            y0 = _random_unit(rng)
            h = rng.choice([0.004, 0.05, 0.2])
            got = step(FIELD, y0, h)
            want = MATRIX_STEPPERS[method](FIELD, y0, h)
            assert max(abs(a - b) for a, b in zip(got, want)) <= 1e-15

    @pytest.mark.parametrize("method, steps", [("lie-euler", 20000), ("lie-midpoint", 10000)])
    @pytest.mark.parametrize("h", [0.004, 0.005, 0.006, 0.008])
    def test_long_runs_match_the_oracle(self, method, steps, h):
        # the command-line problem: float field on the fast path, array field on the oracle
        field, y0 = _rigid_body()
        got = integrate(field, y0, h, steps, method)
        want = matrix_integrate(FIELD, y0, h, steps, method)
        assert max(abs(a - b) for a, b in zip(got, want)) <= 1e-12
