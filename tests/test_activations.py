import math

import numpy as np
import pytest

import jacspectra.activations as activations
from jacspectra.activations import (
    get_activation,
    mu_k,
    phi_sq_mean,
    registry_names,
    slope_distribution,
    slope_sq_law,
)
from jacspectra.special import QuadratureRule, default_rule, norm_cdf


def m_d2(spec, qstar, z):
    """M(z) = sum c t / (z - t) over ``slope_sq_law``, the sum the master residual evaluates."""
    t, c = slope_sq_law(spec, qstar)
    out = (c * t / (np.atleast_1d(np.asarray(z, dtype=complex))[:, None] - t)).sum(axis=1)
    return complex(out[0]) if np.ndim(z) == 0 else out


def unit_slope_mass(spec, qstar):
    """Mass of the squared slope at 1 in ``slope_distribution``."""
    vals, masses = slope_distribution(spec, qstar)
    return float(masses[vals == 1.0].sum())


def arctan_m_d2_closed(qstar: float, z):
    """Test-only reference: the exact squared-slope transform of the arctan unit.

    Written with the complex complementary error function (via the Faddeeva
    function); checks the quadrature behind ``slope_sq_law``.
    """
    from scipy.special import wofz

    def erfc_c(u):
        return np.exp(-u * u) * wofz(1j * u)

    z = np.asarray(z, dtype=complex)
    rz = np.sqrt(z)
    zp = 4.0 * (rz + 1.0) / (math.pi**2 * qstar * rz)
    zm = 4.0 * (rz - 1.0) / (math.pi**2 * qstar * rz)
    pref = -math.sqrt(2.0) / (math.pi**1.5 * qstar * rz)
    return complex(
        pref
        * (
            np.exp(zp / 2.0) / np.sqrt(zp) * erfc_c(np.sqrt(zp / 2.0))
            - np.exp(zm / 2.0) / np.sqrt(zm) * erfc_c(np.sqrt(zm / 2.0))
        )
    )


ALL_NAMES = registry_names()
PIECEWISE_NAMES = tuple(n for n in ALL_NAMES if get_activation(n).is_piecewise)


def _off_kink_points(spec, n=10_000):
    xs = np.linspace(-5.0, 5.0, n)
    for k in spec.kinks:
        xs = xs[np.abs(xs - k) > 1e-4]
    return xs


class TestRegistry:
    def test_names(self):
        assert set(ALL_NAMES) >= {
            "linear",
            "relu",
            "leaky_relu",
            "hard_tanh",
            "shifted_relu",
            "erf_main",
            "erf_sm",
            "tanh",
            "arctan",
            "silu",
        }

    def test_unknown_name(self):
        with pytest.raises(KeyError):
            get_activation("swishish")

    @pytest.mark.parametrize("name", ALL_NAMES)
    def test_derivative_matches_finite_difference(self, name):
        spec = get_activation(name)
        xs = _off_kink_points(spec)
        h = 1e-6
        fd = (spec.phi(xs + h) - spec.phi(xs - h)) / (2 * h)
        assert np.max(np.abs(fd - spec.dphi(xs))) <= 1e-6

    @pytest.mark.parametrize("name", ["hard_tanh", "shifted_relu"])
    def test_bernoulli_squared_slope(self, name):
        spec = get_activation(name)
        xs = _off_kink_points(spec)
        d2 = spec.dphi(xs) ** 2
        assert np.all((d2 == 0.0) | (d2 == 1.0))
        assert set(slope_distribution(spec, 1.0)[0]) <= {0.0, 1.0}

    def test_shifted_relu_definition(self):
        spec = get_activation("shifted_relu")
        xs = np.array([-2.0, -0.5, 0.0, 1.3])
        assert np.allclose(spec.phi(xs), np.maximum(xs + 0.5, 0.0) - 0.5)

    def test_silu_beta_parameter(self):
        spec = get_activation("silu", beta=2.0)
        assert dict(spec.params) == {"beta": 2.0}
        assert np.max(spec.dphi(np.linspace(-8.0, 8.0, 200001)) ** 2) > 1.0


# textbook phi and phi' of each piecewise unit at its default parameters; phi' at a kink is the smaller slope
_TEXTBOOK = {
    "linear": (lambda x: x, np.ones_like),
    "relu": (lambda x: np.maximum(x, 0.0), lambda x: (x > 0.0).astype(float)),
    "leaky_relu": (lambda x: np.where(x > 0.0, x, 0.3 * x), lambda x: np.where(x > 0.0, 1.0, 0.3)),
    "hard_tanh": (lambda x: np.clip(x, -1.0, 1.0), lambda x: (np.abs(x) < 1.0).astype(float)),
    "shifted_relu": (lambda x: np.maximum(x, -0.5), lambda x: (x > -0.5).astype(float)),
}


class TestPiecewiseUnits:
    def test_every_piecewise_unit_has_a_textbook_formula(self):
        assert set(_TEXTBOOK) == set(PIECEWISE_NAMES)

    @pytest.mark.parametrize("name", sorted(_TEXTBOOK))
    def test_phi_and_dphi_are_the_textbook_formulas(self, name):
        spec = get_activation(name)
        # every kink, +-inf, and points between and beyond them
        between = np.random.default_rng(3).normal(0.0, 2.0, 1000)
        xs = np.concatenate([np.linspace(-3.0, 3.0, 49), between, [-np.inf, np.inf]])
        assert set(spec.kinks) <= set(xs)
        phi, dphi = _TEXTBOOK[name]
        np.testing.assert_array_equal(spec.phi(xs), phi(xs))
        np.testing.assert_array_equal(spec.dphi(xs), dphi(xs))
        assert float(spec.phi(np.array(0.0))) == float(phi(np.array(0.0)))
        assert float(spec.dphi(np.array(0.0))) == float(dphi(np.array(0.0)))
        assert np.isnan(spec.phi(np.array([np.nan]))).all() and np.isnan(spec.dphi(np.array([np.nan]))).all()

    @pytest.mark.parametrize("name", PIECEWISE_NAMES)
    def test_adjacent_lines_meet_at_every_kink(self, name):
        pieces = get_activation(name).pieces
        assert pieces[0].lo == -math.inf and pieces[-1].hi == math.inf
        for below, above in zip(pieces, pieces[1:]):
            k = below.hi
            assert above.lo == k
            assert below.intercept + below.slope * k == above.intercept + above.slope * k


class TestMuK:
    def test_linear_is_one(self):
        spec = get_activation("linear")
        for q in (0.1, 1.0, 7.0):
            for k in (1, 2, 5):
                assert mu_k(spec, q, k) == pytest.approx(1.0, abs=1e-14)

    def test_relu_is_half(self):
        spec = get_activation("relu")
        for q in (0.2, 1.0):
            for k in (1, 3):
                assert mu_k(spec, q, k) == pytest.approx(0.5, abs=1e-14)

    def test_erf_main_closed_form(self):
        spec = get_activation("erf_main")
        got = mu_k(spec, 0.5, 2)
        assert got == pytest.approx(1.0 / math.sqrt(1.0 + math.pi * 2 * 0.5), abs=1e-14)

    @pytest.mark.parametrize("name", ["erf_main", "erf_sm"])
    def test_closed_vs_quadrature(self, name):
        spec = get_activation(name)
        rule = default_rule()
        for q in (0.1, 0.6, 2.0):
            for k in (1, 2, 3):
                closed = mu_k(spec, q, k)
                d = spec.dphi(math.sqrt(q) * rule.nodes)
                quad = float(np.dot(rule.weights, (d * d) ** k))
                assert closed == pytest.approx(quad, abs=1e-8)

    @pytest.mark.parametrize("name", ALL_NAMES)
    def test_moment_invariants(self, name):
        spec = get_activation(name)
        for q in (0.3, 1.0):
            values = np.array([mu_k(spec, q, k) for k in range(1, 5)])
            assert np.all(values > 0)
            assert values[1] >= values[0] ** 2 - 1e-12  # Jensen
            if slope_sq_law(spec, q)[0].max() <= 1.0:
                assert np.all(np.diff(values) <= 1e-12)

    @pytest.mark.parametrize("name", ALL_NAMES)
    def test_array_is_scalar_calls_elementwise(self, name):
        spec = get_activation(name)
        qs = np.array([1e-300, 1e-6, 0.3, 1.0, 7.0, 100.0, 1e3, 1e8])
        rule = default_rule()
        for k in (1, 2, 3):
            scalar = [mu_k(spec, float(q), k) for q in qs]
            assert all(type(v) is float for v in scalar)
            assert np.array_equal(mu_k(spec, qs, k), scalar)
            assert np.array_equal(mu_k(spec, qs[::-1].reshape(2, 4), k), np.reshape(scalar[::-1], (2, 4)))
            if spec.mu_closed is None:  # one dot per q, as a sum over the law or the rule
                for q, v in zip(qs, scalar):
                    if spec.is_piecewise:
                        vals, masses = slope_distribution(spec, q)
                        assert v == float(np.dot(masses, vals**k))
                    else:
                        d = spec.dphi(math.sqrt(q) * rule.nodes)
                        assert v == float(np.dot(rule.weights, (d * d) ** k))

    def test_bad_args(self):
        spec = get_activation("tanh")
        with pytest.raises(ValueError):
            mu_k(spec, -1.0, 1)
        with pytest.raises(ValueError):
            mu_k(spec, np.array([1.0, 0.0]), 1)
        with pytest.raises(ValueError):
            mu_k(spec, 1.0, 0)


class TestMD2:
    def test_linear(self):
        spec = get_activation("linear")
        assert m_d2(spec, 1.0, 3.0) == pytest.approx(0.5, abs=1e-14)

    def test_hard_tanh_closed(self):
        spec = get_activation("hard_tanh")
        z = 2.0 + 1.0j
        expected = math.erf(1.0 / math.sqrt(2 * 0.25)) / (z - 1.0)
        assert m_d2(spec, 0.25, z) == pytest.approx(expected, abs=1e-14)

    def test_leaky_relu_closed(self):
        spec = get_activation("leaky_relu", alpha=0.3)
        z = 2.0
        expected = 0.5 / (z - 1.0) + 0.5 / (z / 0.09 - 1.0)
        assert m_d2(spec, 1.0, z) == pytest.approx(expected, abs=1e-14)

    @pytest.mark.parametrize(
        "name",
        ["linear", "relu", "leaky_relu", "hard_tanh", "shifted_relu"],
    )
    def test_quadrature_path_matches_closed(self, name):
        # reference: split N(0, q) at the kinks with math.erf and give each
        # piece's squared slope its Gaussian mass
        spec = get_activation(name)
        q = 0.7
        cuts = [-math.inf, *spec.kinks, math.inf]
        cdf = [0.5 * (1.0 + math.erf(x / math.sqrt(2.0 * q))) for x in cuts]
        pieces = [(p.slope**2, hi - lo) for p, lo, hi in zip(spec.pieces, cdf, cdf[1:])]
        rng = np.random.default_rng(2)
        count = 0
        while count < 100:
            z = complex(rng.uniform(-3, 4), rng.uniform(-3, 3))
            if min(abs(z - t) for t, _ in pieces) < 0.1:
                continue
            direct = sum(m * t / (z - t) for t, m in pieces)
            assert abs(m_d2(spec, q, z) - direct) <= 1e-12
            count += 1

    @pytest.mark.parametrize("name", ALL_NAMES)
    def test_large_z_law(self, name):
        spec = get_activation(name)
        q = 0.8
        mu1, mu2 = mu_k(spec, q, 1), mu_k(spec, q, 2)
        for z in (100.0, 300.0 + 50.0j, -200.0 + 10.0j):
            val = m_d2(spec, q, z)
            assert abs(z * val - mu1) <= 2 * mu2 / abs(z)

    @pytest.mark.parametrize("name", ["linear", "hard_tanh", "erf_main", "silu"])
    def test_series_coefficients_from_large_z(self, name):
        # fit a 5-term tail expansion from values at |z| ~ 1e3 and compare
        # the first three coefficients (the longer fit keeps the truncation
        # bias of the fitted mu_3 below the tolerance)
        spec = get_activation(name)
        q = 0.5
        zs = np.array([1e3, 1.5e3, 2.25e3, 3.4e3, 5e3])
        vals = np.array([m_d2(spec, q, z) for z in zs])
        vander = np.vander(1.0 / zs, 5, increasing=True) * (1.0 / zs)[:, None]
        coef = np.linalg.solve(vander, vals).real
        for k in (1, 2, 3):
            assert coef[k - 1] == pytest.approx(mu_k(spec, q, k), abs=1e-6)

    def test_arctan_closed_form_flag(self, unpruned_slope_sq_law):
        from scipy.special import roots_hermitenorm

        spec = get_activation("arctan")
        nodes, weights = roots_hermitenorm(3001)  # slow slope decay needs many nodes
        rule = QuadratureRule(nodes, weights / weights.sum())
        rng = np.random.default_rng(4)
        for q in (0.3, 0.7, 1.5):
            t, c = unpruned_slope_sq_law(spec, q, rule)
            count = 0
            while count < 30:
                z = complex(rng.uniform(-2, 3), rng.uniform(-2, 2))
                if abs(z.imag) < 0.1 and -0.1 < z.real < 1.2:
                    continue
                quad = complex((c * t / (z - t)).sum())
                closed = arctan_m_d2_closed(q, z)
                assert abs(quad - closed) <= 1e-7
                count += 1

    @pytest.mark.parametrize("name", ["tanh", "erf_sm", "erf_main", "arctan", "silu"])
    def test_even_law_folds_exactly(self, name):
        # an even squared slope merges each Gauss node with its mirror, and
        # nodes of weight below 1e-30 are dropped: the 201-node sum and the
        # folded 51-node one (silu: 101 unfolded nodes) agree to rounding
        spec = get_activation(name)
        q = 0.8
        rule = default_rule()
        d = spec.dphi(math.sqrt(q) * rule.nodes)
        t_all, c_all = d * d, rule.weights
        t, c = slope_sq_law(spec, q)
        assert t.size == (101 if name == "silu" else 51)
        assert c.sum() == pytest.approx(1.0, abs=1e-15)
        rng = np.random.default_rng(6)
        w = rng.uniform(-2.0, 3.0, 200) + 1j * rng.choice([-1.0, 1.0], 200) * rng.uniform(0.01, 2.0, 200)
        full = (c_all * t_all / (w[:, None] - t_all)).sum(axis=1)
        folded = (c * t / (w[:, None] - t)).sum(axis=1)
        assert np.all(np.abs(folded - full) <= 1e-13 * np.abs(full))
        np.testing.assert_array_equal(m_d2(spec, q, w), folded)


class TestBernoulliP:
    def test_hard_tanh(self):
        spec = get_activation("hard_tanh")
        assert unit_slope_mass(spec, 0.5) == pytest.approx(math.erf(1.0), abs=1e-12)

    def test_shifted_relu_small_q(self):
        spec = get_activation("shifted_relu")
        assert unit_slope_mass(spec, 1e-8) == pytest.approx(1.0, abs=1e-12)

    def test_shifted_relu_cdf_oracle(self, oracles):
        spec = get_activation("shifted_relu")
        assert unit_slope_mass(spec, 1.0) == pytest.approx(
            oracles["shifted_relu_p_q1_cdf"], abs=1e-10
        )

    def test_monotone_decreasing_in_q(self):
        spec = get_activation("hard_tanh")
        # below q ~ 0.05 the slope-one mass rounds to exactly 1.0
        qs = np.geomspace(0.05, 10, 40)
        ps = [unit_slope_mass(spec, float(q)) for q in qs]
        assert np.all(np.diff(ps) < 0)


class TestPhiSqMean:
    def test_linear(self):
        assert phi_sq_mean(get_activation("linear"), 1.7) == pytest.approx(1.7, abs=1e-12)

    @pytest.mark.parametrize("name", registry_names())
    def test_array_is_scalar_calls_elementwise(self, name):
        spec = get_activation(name)
        qs = np.array([0.0, 1e-300, 1e-6, 1.0, 1e8])
        scalar = [phi_sq_mean(spec, float(q)) for q in qs]
        assert all(type(v) is float for v in scalar)
        assert np.array_equal(phi_sq_mean(spec, qs), scalar)
        assert np.array_equal(phi_sq_mean(spec, qs[::-1].reshape(5, 1)), np.reshape(scalar[::-1], (5, 1)))

    def test_hard_tanh_exact_vs_riemann(self):
        spec = get_activation("hard_tanh")
        h = np.linspace(-14, 14, 2_000_001)
        weight = np.exp(-0.5 * h * h) / math.sqrt(2 * math.pi)
        for q in (0.2, 0.9, 3.0):
            exact = phi_sq_mean(spec, q)
            ref = float(np.trapezoid(np.clip(math.sqrt(q) * h, -1, 1) ** 2 * weight, h))
            assert exact == pytest.approx(ref, abs=1e-10)


class TestPieceCdf:
    @pytest.mark.parametrize("name", PIECEWISE_NAMES)
    def test_infinite_ends_are_exact(self, name, monkeypatch):
        # the CDF is taken at the finite piece ends only; the old table took it at +-inf too, where it is 0 and 1
        qs = np.geomspace(1e-300, 1e8, 37)

        def laws(spec):
            out = [phi_sq_mean(spec, qs), *(mu_k(spec, qs, k) for k in (1, 2, 3)), *slope_distribution(spec, qs)]
            for q in qs[::6]:
                out += [phi_sq_mean(spec, float(q)), mu_k(spec, float(q), 2), *slope_distribution(spec, float(q))]
            return out

        new = laws(get_activation(name))
        monkeypatch.setattr(activations, "_piece_cdf", lambda spec, q: norm_cdf(spec.piece_table[0] / np.sqrt(q)))
        ref = laws(get_activation(name))
        assert all(np.asarray(a).tobytes() == np.asarray(b).tobytes() for a, b in zip(new, ref, strict=True))


class TestErfClosedForms:
    @pytest.mark.parametrize("name", ["erf_main", "erf_sm"])
    def test_phi_sq_mean_against_quad(self, name):
        from scipy.integrate import quad

        spec = get_activation(name)
        for q in np.geomspace(1e-4, 1e2, 25):
            def integrand(h):
                return 2.0 * float(spec.phi(math.sqrt(q) * h)) ** 2 * math.exp(-0.5 * h * h) / math.sqrt(2 * math.pi)

            ref = quad(integrand, 0.0, math.inf, epsabs=0.0, epsrel=2e-14, limit=200)[0]
            assert phi_sq_mean(spec, q) == pytest.approx(ref, rel=1e-13, abs=0.0)

    def test_fixed_point_at_large_q(self):
        # the 201-node rule missed E[phi^2] by 2 % at q = 100 and put q* at 91.14; the exact q* is 92.81
        from scipy.integrate import quad

        from jacspectra.propagation import qstar_fixed_point

        spec = get_activation("erf_main")
        fp = qstar_fixed_point(spec, 10.0, 0.5)
        c = math.sqrt(math.pi) / 2.0
        mean = quad(lambda h: 2.0 * math.erf(c * math.sqrt(fp.qstar) * h) ** 2 * math.exp(-0.5 * h * h),
                    0.0, math.inf, epsabs=0.0, epsrel=2e-14, limit=200)[0] / math.sqrt(2 * math.pi)
        assert fp.converged and fp.qstar == pytest.approx(100.0 * mean + 0.25, rel=1e-12)
        assert fp.qstar == pytest.approx(92.81, abs=0.01)
