import json
import math

import numpy as np
import pytest

from jacspectra.activations import get_activation
from jacspectra.density import SINGULAR, SpectralDensity, make_lambda_grid, to_singular_domain
from jacspectra.ensembles import gaussian, orthogonal
from jacspectra.errors import JacspectraError
from jacspectra.master import density
from jacspectra.propagation import NetworkConfig
from jacspectra.simulate import (
    EmpiricalSpectrum,
    TrialStreams,
    empirical_density,
    jacobian_singular_values,
    ks_distance,
    run_trials,
    sample_gaussian,
    sample_orthogonal,
    stream,
)


def _config(name, kind, sw, sb, depth, width, qstar=None):
    ens = orthogonal(sw) if kind == "orthogonal" else gaussian(sw)
    return NetworkConfig(get_activation(name), ens, sw, sb, depth=depth, width=width, qstar=qstar)


class TestSampleOrthogonal:
    def test_orthogonality_small(self):
        w = sample_orthogonal(4, 1.0, stream(1, 0, 1, "weights"))
        assert np.max(np.abs(w.T @ w - np.eye(4))) <= 1e-12

    def test_scaling(self):
        w = sample_orthogonal(4, 2.0, stream(2, 0, 1, "weights"))
        sv = np.linalg.svd(w, compute_uv=False)
        assert np.max(np.abs(sv - 2.0)) <= 1e-10

    def test_orthogonality_invariant_batch(self):
        for trial in range(20):
            w = sample_orthogonal(32, 1.3, stream(3, trial, 1, "weights"))
            assert np.max(np.abs(w.T @ w - 1.69 * np.eye(32))) <= 1e-10

    def test_haar_first_coordinate_marginal(self, oracles):
        # columns of a Haar matrix are uniform on the sphere; compare the
        # first coordinate's second moment against the direct sphere-sampling
        # oracle over 10^4 draws at N=200
        n, draws = 200, 10_000
        rng = stream(99, 0, 0, "weights")
        vals = np.empty(draws)
        for i in range(draws):
            g = rng.standard_normal((n, n))
            q, r = np.linalg.qr(g)
            w = q[:, 0] * np.sign(r[0, 0])
            vals[i] = w[0] ** 2
        mean = vals.mean()
        oracle_mean = oracles["sphere_first_coord_sq_mean_N200"]
        oracle_std = oracles["sphere_first_coord_sq_std_N200"]
        se = oracle_std * math.sqrt(2.0 / draws)  # both sides fluctuate
        assert abs(mean - oracle_mean) <= 5 * se


class TestSampleGaussian:
    def test_entry_variance(self):
        n = 1000
        w = sample_gaussian(n, 1.0, stream(4, 0, 1, "weights"))
        var = w.var()
        se = math.sqrt(2.0 / n**2)  # variance of the sample variance, iid normal
        assert abs(var - 1.0 / n) <= 3 * se / math.sqrt(n) * n  # 3 standard errors

    def test_zero_scale(self):
        w = sample_gaussian(2, 0.0, stream(5, 0, 1, "weights"))
        assert np.all(w == 0.0)

    def test_marchenko_pastur_histogram(self, mp_oracle):
        n = 1000
        w = sample_gaussian(n, 1.0, stream(6, 0, 1, "weights"))
        lam = np.linalg.svd(w, compute_uv=False) ** 2
        edges = np.array(mp_oracle["hist_edges"])
        hist, _ = np.histogram(lam, bins=edges, density=True)
        ref = np.array(mp_oracle["hist_density"])
        # single width-1000 draw against the pooled 2000x2000 oracle
        interior = (edges[:-1] > 0.15) & (edges[1:] < 3.9)
        assert np.max(np.abs(hist - ref)[interior]) <= 0.06


class TestJacobian:
    def test_orthogonal_linear_is_isometry(self):
        cfg = _config("linear", "orthogonal", 1.0, 0.0, depth=16, width=100)
        sv = jacobian_singular_values(cfg, TrialStreams(7, 0))
        assert np.max(np.abs(sv - 1.0)) <= 1e-8

    def test_mean_square_at_criticality(self):
        # var(lambda) = depth at criticality, so the pooled-mean standard
        # error at depth 4 over 8x500 values is ~0.032; allow ~3 sigma
        cfg = _config("relu", "orthogonal", math.sqrt(2), 0.0, depth=4, width=500, qstar=1.0)
        pooled = run_trials(cfg, 8, 11)
        assert abs(pooled.mean_squared() - 1.0) <= 0.12

    def test_relu_kernel_fraction(self):
        cfg = _config("relu", "orthogonal", math.sqrt(2), 0.0, depth=1, width=1000, qstar=1.0)
        sv = jacobian_singular_values(cfg, TrialStreams(9, 0))
        frac = np.mean(sv < 1e-10)
        assert abs(frac - 0.5) <= 0.05

    def test_requires_width(self):
        cfg = _config("relu", "orthogonal", math.sqrt(2), 0.0, depth=1, width=None, qstar=1.0)
        with pytest.raises(ValueError):
            jacobian_singular_values(cfg, TrialStreams(0, 0))

    def test_determinism_and_schedule_independence(self):
        cfg = _config("hard_tanh", "orthogonal", 1.05, 0.1, depth=3, width=64)
        a = run_trials(cfg, 4, 123)
        b = run_trials(cfg, 4, 123, threads=2)
        assert np.array_equal(a.singular_values, b.singular_values)
        c = run_trials(cfg, 4, 124)
        assert not np.array_equal(a.singular_values, c.singular_values)

    def test_spectrum_validation(self):
        with pytest.raises(ValueError):
            EmpiricalSpectrum(np.array([1.0, 0.5]), width=2, depth=1, trials=1, seed=0, config={})


class TestSpectrumFile:
    def test_round_trip(self, tmp_path):
        cfg = _config("hard_tanh", "orthogonal", 1.05, 0.1, depth=3, width=16)
        spec = run_trials(cfg, 2, 7)
        spec.write_csv(tmp_path / "sp.csv")
        (tmp_path / "sp.json").write_text(json.dumps(spec.sidecar()))
        back = EmpiricalSpectrum.read_csv(tmp_path / "sp.csv", tmp_path / "sp.json")
        np.testing.assert_array_equal(back.singular_values, spec.singular_values)
        assert back.sidecar() == json.loads(json.dumps(spec.sidecar()))

    def test_bad_header(self, tmp_path):
        (tmp_path / "sp.csv").write_text("sigma\n0.5\n")
        (tmp_path / "sp.json").write_text(json.dumps({"width": 1, "depth": 1, "trials": 1, "seed": 0, "config": {}}))
        with pytest.raises(JacspectraError, match="header 'sigma'"):
            EmpiricalSpectrum.read_csv(tmp_path / "sp.csv", tmp_path / "sp.json")


class TestEmpiricalDensity:
    def test_all_ones(self):
        spec = EmpiricalSpectrum(np.ones(100), width=50, depth=1, trials=2, seed=0, config={})
        d = empirical_density(spec, bins=10)
        assert d.total_mass() == pytest.approx(1.0, abs=1e-9)
        assert not d.atoms

    def test_relu_zero_atom(self):
        cfg = _config("relu", "orthogonal", math.sqrt(2), 0.0, depth=1, width=400, qstar=1.0)
        pooled = run_trials(cfg, 4, 21)
        d = empirical_density(pooled)
        assert d.atoms and d.atoms[0][0] == 0.0
        assert d.atoms[0][1] == pytest.approx(0.5, abs=0.05)

    def test_gaussian_linear_matches_mp_in_s(self):
        cfg = _config("linear", "gaussian", 1.0, 0.0, depth=1, width=1000, qstar=1.0)
        pooled = run_trials(cfg, 50, 404)
        theory = to_singular_domain(density(cfg, make_lambda_grid(4.4, lam_min=1e-6, n=500)))
        assert ks_distance(pooled, theory) <= 0.03


class TestKS:
    def test_exact_distribution_scale(self):
        # sample from the uniform density on [0,1] in s
        rng = np.random.default_rng(17)
        n = 4000
        sv = np.sort(rng.uniform(0, 1, n))
        grid = np.linspace(0.0, 1.0, 2001)
        theory = SpectralDensity(SINGULAR, grid, np.ones_like(grid), (), {})
        spec = EmpiricalSpectrum(sv, width=n, depth=1, trials=1, seed=0, config={})
        d = ks_distance(spec, theory)
        assert d <= 3.0 / math.sqrt(n)

    def test_all_ones_vs_atom(self):
        spec = EmpiricalSpectrum(np.ones(64), width=32, depth=1, trials=2, seed=0, config={})
        theory = SpectralDensity(SINGULAR, np.array([0.5, 2.0]), np.zeros(2), ((1.0, 1.0),), {})
        assert ks_distance(spec, theory) == 0.0

    def test_atom_snapping(self):
        vals = np.sort(np.full(64, 1.0 + 1e-9))
        spec = EmpiricalSpectrum(vals, width=32, depth=1, trials=2, seed=0, config={})
        theory = SpectralDensity(SINGULAR, np.array([0.5, 2.0]), np.zeros(2), ((1.0, 1.0),), {})
        assert ks_distance(spec, theory) == 0.0

    def test_domain_check(self):
        spec = EmpiricalSpectrum(np.ones(4), width=4, depth=1, trials=1, seed=0, config={})
        bad = SpectralDensity(SQUARED := "squared_singular", np.array([0.5, 2.0]), np.zeros(2), ((1.0, 1.0),), {})
        with pytest.raises(ValueError):
            ks_distance(spec, bad)

    def test_normalization_warning_propagates(self):
        spec = EmpiricalSpectrum(np.ones(4), width=4, depth=1, trials=1, seed=0, config={})
        grid = np.linspace(0.0, 2.0, 101)
        half = SpectralDensity(SINGULAR, grid, np.full(101, 0.25), (), {})
        with pytest.warns(UserWarning, match="mass"):
            ks_distance(spec, half)
