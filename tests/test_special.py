import cmath
import math

import numpy as np
import pytest

from jacspectra.errors import BracketError, ConvergenceError
from jacspectra.special import (
    bracket_root,
    erf_vec,
    gauss_normal_rule,
    lambert_w0,
    newton,
    norm_cdf,
    r_lambert,
)


def erf(x: float) -> float:
    """``erf_vec`` at one point: the elementwise erf that ``norm_cdf`` runs."""
    return float(erf_vec(x))


def erf_inv(y: float) -> float:
    """erf inverted by ``bracket_root``; no sign change on [-5, 5] unless |y| < 1."""
    return bracket_root(lambda x: erf(x) - y, -5.0, 5.0)


class TestElementwiseErf:
    @pytest.mark.parametrize(
        "x",
        [0.3, -2.0, 3, np.float64(1.5), np.array(0.7), [0.1, -0.4], np.linspace(-7.0, 7.0, 12).reshape(3, 4),
         np.array([]), [math.inf, -math.inf, 0.0], np.array([1, 2])],
    )
    def test_bitwise_math_erf(self, x):
        arr = np.asarray(x, dtype=float)
        got = erf_vec(x)
        assert type(got) is np.ndarray and got.dtype == np.float64 and got.shape == arr.shape
        assert got.tobytes() == np.array([math.erf(v) for v in arr.ravel()], dtype=float).tobytes()
        cdf = norm_cdf(x)
        if arr.ndim == 0:
            assert type(cdf) is np.float64
        else:
            assert type(cdf) is np.ndarray and cdf.dtype == np.float64 and cdf.shape == arr.shape
        expected = [0.5 * (1.0 + math.erf(v / math.sqrt(2.0))) for v in arr.ravel()]
        assert np.asarray(cdf).tobytes() == np.array(expected, dtype=float).tobytes()


class TestErf:
    def test_zero(self):
        assert erf(0.0) == 0.0

    def test_odd(self):
        assert erf(0.7) == -erf(-0.7)

    def test_series_oracle(self, oracles):
        # Maclaurin series with tail bound below 1e-15
        assert abs(erf(1.0) - oracles["erf_1_series"]) <= 1e-14
        assert abs(erf(0.7) - oracles["erf_0p7_series"]) <= 1e-14

    def test_bounded_monotone(self):
        # beyond |x| ~ 5.9 the double rounds to exactly +-1
        xs = np.linspace(-5, 5, 2001)
        vals = np.array([erf(x) for x in xs])
        assert np.all(np.diff(vals) > 0)
        assert np.all(np.abs(vals) < 1.0)


class TestErfInv:
    def test_zero(self):
        assert erf_inv(0.0) == 0.0

    def test_round_trip_point(self):
        assert abs(erf_inv(erf(0.5)) - 0.5) <= 1e-12

    def test_bisection_oracle(self, oracles):
        assert abs(erf_inv(0.9) - oracles["erf_inv_0p9_bisect"]) <= 1e-12

    @pytest.mark.parametrize("y", [1.0, -1.0, 1.5, -2.0])
    def test_domain_error(self, y):
        with pytest.raises(BracketError):
            erf_inv(y)

    def test_round_trip_sweep(self):
        ys = np.linspace(-0.999, 0.999, 1000)
        for y in ys:
            assert abs(erf(erf_inv(float(y))) - y) <= 1e-10


class TestElementwiseBisection:
    @staticmethod
    def counted(g):
        """g with a count of the elements it was called on."""
        calls = []

        def f(x, *args):
            calls.append(np.size(x))
            return g(x, *args)

        return f, calls

    def test_each_element_is_its_scalar_solve(self):
        # 0.0 is an iterate of the scalar solve on [-3, 0.5], where it stops on f = 0;
        # tanh(4x) is flat at float resolution near 3, so the solve on [0, 1] stops on f = 0 near 0.75
        targets = np.array([0.75, 0.3, -0.2, 1.0, 0.0])
        lo, hi = np.array([0.0, 0.0, -1.0, 0.0, -3.0]), np.array([1.0, 2.0, 1.0, 1.0, 0.5])
        def g(x, t):
            return np.tanh(4.0 * x) - np.tanh(4.0 * t)

        f, calls = self.counted(g)
        roots = bracket_root(f, lo, hi, (targets,))
        steps = []
        for k in range(targets.size):
            fk, ck = self.counted(lambda x, t=targets[k]: g(x, t))
            assert roots[k] == bracket_root(fk, lo[k], hi[k])
            steps.append(len(ck))
        assert roots[4] == 0.0 and roots[3] == 1.0
        assert g(roots[0], 0.75) == 0.0 and abs(roots[0] - 0.75) <= 4 * np.spacing(0.75)
        # every element keeps its own stopping rule: it leaves the calls when it stops
        assert len(calls) == max(steps)
        assert sum(calls) == sum(steps)

    def test_scalar_call_returns_float(self):
        root = bracket_root(lambda x: x * x - 2.0, 1.0, 2.0)
        assert type(root) is float and abs(root - math.sqrt(2.0)) <= 2.3e-16  # a float next to sqrt(2)

    def test_where_leaves_elements_unsolved(self):
        f, calls = self.counted(lambda x: x - 0.3)
        roots = bracket_root(f, [0.0, 0.0], [1.0, 1.0], where=np.array([True, False]))
        assert roots[0] == bracket_root(lambda x: x - 0.3, 0.0, 1.0) and math.isnan(roots[1])
        assert set(calls) == {1}

    def test_given_end_values_change_nothing(self):
        # f at the ends, handed in by a caller that holds it, gives the same float with two calls fewer
        targets = np.array([0.75, 0.3, -0.2, 1.0, 0.0])
        lo, hi = np.array([0.0, 0.0, -1.0, 0.0, -3.0]), np.array([1.0, 2.0, 1.0, 1.0, 0.5])

        def g(x, t):
            return np.tanh(4.0 * x) - np.tanh(4.0 * t)

        for where in (True, np.array([True, True, False, True, False])):
            f, calls = self.counted(g)
            ref, ref_calls = self.counted(g)
            got = bracket_root(f, lo, hi, (targets,), where, (g(lo, targets), g(hi, targets)))
            assert np.array_equal(got, bracket_root(ref, lo, hi, (targets,), where), equal_nan=True)
            assert sum(calls) == sum(ref_calls) - 2 * np.count_nonzero(np.broadcast_to(where, lo.shape))
        f, calls = self.counted(lambda x: x * x - 2.0)
        ref, ref_calls = self.counted(lambda x: x * x - 2.0)
        root = bracket_root(f, 1.0, 2.0, f_ends=(np.array(-1.0), 2.0))
        assert type(root) is float and root == bracket_root(ref, 1.0, 2.0)
        assert len(calls) == len(ref_calls) - 2
        with pytest.raises(BracketError, match=r"no sign change on \[1\.0, 2\.0\]"):
            bracket_root(f, 1.0, 2.0, f_ends=(1.0, 2.0))

    def test_one_bad_bracket_refuses_the_call(self):
        with pytest.raises(BracketError, match=r"no sign change on \[2\.0, 3\.0\]"):
            bracket_root(lambda x: x - 0.5, [0.0, 2.0], [1.0, 3.0])

    @pytest.mark.parametrize(
        "g,lo,hi",
        [
            (lambda x: x**9, -1.0, 2.0),  # flat at the root: plain regula falsi keeps one end for ever
            (lambda x: np.where(x < 0.3, -1.0, 1.0), 0.0, 1.0),  # a step: no secant point is better than the midpoint
            (lambda x: x**3 - 1e-30, -1.0, 1.0),
            (lambda x: np.exp(x) - 1e10, 0.0, 700.0),  # f spans 300 decades on the bracket
        ],
    )
    def test_at_most_three_times_bisection(self, g, lo, hi, bisection):
        f, calls = self.counted(g)
        ref, ref_calls = self.counted(g)
        root, expected = bracket_root(f, lo, hi), bisection(ref, lo, hi)
        assert len(calls) <= 3 * len(ref_calls)
        # both stop on f = 0 or on adjacent floats around a sign change
        for r in (root, expected):
            assert g(r) == 0.0 or g(np.nextafter(r, -math.inf)) * g(np.nextafter(r, math.inf)) <= 0.0

    def test_faster_than_bisection_on_a_smooth_root(self, bisection):
        f, calls = self.counted(lambda x: x * x - 2.0)
        ref, ref_calls = self.counted(lambda x: x * x - 2.0)
        assert bracket_root(f, 1.0, 2.0) == bisection(ref, 1.0, 2.0)
        assert len(calls) <= 12 < 50 <= len(ref_calls)


class TestNewton:
    def test_converged_point_with_no_finite_step_stays_put(self):
        # f' = 0 exactly at the double root: the step is not finite, yet the residual is already 0
        w, converged, iters = newton(lambda w: ((w - 1) ** 2, 2 * (w - 1)), np.array([1 + 0j]), np.array([0.0]))
        assert w[0] == 1 + 0j and converged[0] and iters[0] == 1


class TestLambertW:
    def test_fixed_points(self):
        assert lambert_w0(0) == 0
        assert abs(lambert_w0(math.e) - 1.0) <= 1e-14
        assert abs(lambert_w0(-1.0 / math.e) - (-1.0)) <= 1e-6  # double root

    def test_domain_error_below_branch_point(self):
        with pytest.raises(ValueError):
            lambert_w0(-0.5)

    def test_residual_right_half_plane(self):
        rng = np.random.default_rng(11)
        count = 0
        while count < 10_000:
            z = complex(rng.uniform(0, 10), rng.uniform(-10, 10))
            if abs(z) > 10 or z == 0:
                continue
            w = lambert_w0(z)
            assert abs(w * cmath.exp(w) - z) <= 1e-12 * (1 + abs(z))
            count += 1

    def test_near_cut_both_sides(self):
        for mag in np.geomspace(0.4, 50, 50):
            for eps in (1e-12, 1e-6):
                for sign in (1.0, -1.0):
                    x = complex(-mag, sign * eps)
                    w = lambert_w0(x)
                    assert abs(w * cmath.exp(w) - x) <= 1e-12 * (1 + abs(x))


class TestRLambert:
    def test_reduces_to_lambert_at_r0(self):
        assert abs(r_lambert(0, math.e) - 1.0) <= 1e-10

    def test_zero_target(self):
        assert r_lambert(3.7 - 1.2j, 0) == 0

    def test_scan_bisect_oracle(self, oracles):
        roots = oracles["r_lambert_r1_z2_scan_roots"]
        assert len(roots) == 1
        assert abs(r_lambert(1, 2) - roots[0]) <= 1e-10

    def test_residual_contract(self):
        rng = np.random.default_rng(5)
        for _ in range(300):
            r = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
            z = complex(rng.uniform(-5, 5), rng.uniform(0.1, 5))
            try:
                w = r_lambert(r, z)
            except ConvergenceError:
                continue  # reported failures are allowed; silent junk is not
            assert abs(w * cmath.exp(w) + r * w - z) <= 1e-10 * (1 + abs(z))

    def test_agrees_with_lambert_on_sample(self):
        rng = np.random.default_rng(7)
        count = 0
        while count < 500:
            z = complex(rng.uniform(0, 10), rng.uniform(-10, 10))
            if abs(z) > 10 or z == 0:
                continue
            assert abs(r_lambert(0, z) - lambert_w0(z)) <= 1e-10 * (1 + abs(z))
            count += 1


def integrate(rule, f) -> float:
    """sum_i weights[i] f(nodes[i]): the expectation under the standard normal that ``rule`` approximates."""
    return float(np.dot(rule.weights, f(rule.nodes)))


class TestQuadrature:
    def test_single_node(self):
        rule = gauss_normal_rule(1)
        assert rule.nodes.tolist() == [0.0]
        assert rule.weights.tolist() == [1.0]

    def test_variance_two_nodes(self):
        rule = gauss_normal_rule(2)
        assert abs(integrate(rule, lambda h: h**2) - 1.0) <= 1e-14

    def test_fourth_moment(self, oracles):
        rule = gauss_normal_rule(8)
        assert abs(integrate(rule, lambda h: h**4) - oracles["gauss_h4_moment"]) <= 1e-12

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 16, 32])
    def test_rule_invariants(self, n):
        rule = gauss_normal_rule(n)
        assert np.all(rule.weights > 0)
        assert abs(rule.weights.sum() - 1.0) <= 1e-12
        assert np.all(np.diff(rule.nodes) > 0)
        assert np.allclose(rule.nodes, -rule.nodes[::-1], atol=1e-13)

    @pytest.mark.parametrize("n", [2, 4, 8, 16, 32])
    def test_exactness_up_to_degree(self, n):
        rule = gauss_normal_rule(n)
        for k in range(0, 2 * n):
            got = integrate(rule, lambda h: h**k)
            if k % 2:
                scale = math.prod(range(k, 0, -2))  # odd moments vanish
                assert abs(got) <= 1e-10 * scale
            else:
                exact = math.prod(range(k - 1, 0, -2)) if k else 1.0
                assert abs(got - exact) <= 1e-10 * exact

    def test_high_moments_n32(self, oracles):
        rule = gauss_normal_rule(32)
        exact = oracles["gauss_moments_double_factorial"]
        for k in range(1, 16):
            got = integrate(rule, lambda h: h ** (2 * k))
            assert abs(got - exact[k - 1]) <= 1e-9 * exact[k - 1]

    @pytest.mark.parametrize("n", [0, 251])
    def test_rule_size_refused(self, n):
        # past 250 nodes the Hermite recurrence behind hermgauss overflows: no rule is given
        with pytest.raises(ValueError, match="1 to 250 nodes"):
            gauss_normal_rule(n)
