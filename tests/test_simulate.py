import json
import math
import tracemalloc

import numpy as np
import pytest

from jacspectra.activations import get_activation
from jacspectra.density import SINGULAR, SpectralDensity, make_lambda_grid, to_singular_domain
from jacspectra.ensembles import WeightEnsemble
from jacspectra.errors import JacspectraError
from jacspectra.master import density
from jacspectra.propagation import NetworkConfig, critical_config
from jacspectra.simulate import (
    EmpiricalSpectrum,
    _apply_householder,
    _householder_haar,
    empirical_density,
    jacobian_singular_values,
    ks_distance,
    run_trials,
    sample_gaussian,
    sample_orthogonal,
    stream,
)


def _config(name, kind, sw, sb, depth, width, qstar=None):
    return NetworkConfig(get_activation(name), WeightEnsemble(kind), sw, sb, depth=depth, width=width, qstar=qstar)


def _identity_start_reference(cfg, seed, trial):
    """Sorted singular values from the loop that started at J = I and took (D W) J in one product per layer."""
    n = cfg.width
    u = stream(seed, trial, 0, "input").standard_normal(n)
    x = u * (math.sqrt(n * (cfg.qstar - cfg.sigma_b**2) / cfg.sigma_w**2) / np.linalg.norm(u))
    jac = np.eye(n)
    for layer in range(1, cfg.depth + 1):
        rng = stream(seed, trial, layer, "weights")
        b = stream(seed, trial, layer, "bias").standard_normal(n) * cfg.sigma_b
        if cfg.ensemble.kind == "orthogonal":
            xj = _apply_householder(*_householder_haar(n, rng), np.column_stack((x, jac)))
            h = cfg.sigma_w * xj[:, 0] + b
            jac = (cfg.sigma_w * cfg.activation.dphi(h))[:, None] * xj[:, 1:]
        else:
            w = sample_gaussian(n, cfg.sigma_w, rng)
            h = w @ x + b
            jac = (cfg.activation.dphi(h)[:, None] * w) @ jac
        x = cfg.activation.phi(h)
    return np.sort(np.linalg.svd(jac, compute_uv=False))


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

    def test_orthogonality_at_simulation_width(self):
        w = sample_orthogonal(400, 1.3, stream(8, 0, 1, "weights"))
        assert np.max(np.abs(w.T @ w - 1.69 * np.eye(400))) <= 1e-12

    def test_haar_first_coordinate_marginal(self, oracles):
        # columns of a Haar matrix are uniform on the sphere; compare the
        # first coordinate's second moment of Q e_0 against the direct
        # sphere-sampling oracle over 10^4 draws at N=200
        n, draws = 200, 10_000
        rng = stream(99, 0, 0, "weights")
        vals = np.empty(draws)
        for i in range(draws):
            e0 = np.zeros((n, 1))
            e0[0] = 1.0
            w = _apply_householder(*_householder_haar(n, rng), e0)
            vals[i] = w[0, 0] ** 2
        mean = vals.mean()
        oracle_mean = oracles["sphere_first_coord_sq_mean_N200"]
        oracle_std = oracles["sphere_first_coord_sq_std_N200"]
        se = oracle_std * math.sqrt(2.0 / draws)  # both sides fluctuate
        assert abs(mean - oracle_mean) <= 5 * se

    @pytest.mark.parametrize("n", [1, 7, 48, 64, 65, 130])
    def test_blocked_product_matches_reflectors(self, n):
        # 48-reflector blocks: one partial block (1, 7), exactly one (48), a
        # full and a partial one (64, 65), and three blocks (130)
        u, d = _householder_haar(n, stream(12, 0, 1, "weights"))
        assert np.allclose(np.linalg.norm(u, axis=1), 1.0, rtol=0, atol=1e-14)
        assert np.all(np.tril(u, -1) == 0.0)
        m = np.random.default_rng(n).standard_normal((n, n + 1))
        ref = d[:, None] * m
        for k in reversed(range(n)):
            ref = (np.eye(n) - 2.0 * np.outer(u[k], u[k])) @ ref
        got = _apply_householder(u, d, m.copy())
        assert np.max(np.abs(got - ref)) <= 1e-13

    def test_haar_determinant_and_trace_moments(self):
        # Haar on O(n): det = +-1 with probability 1/2 each, and tr Q has the
        # N(0, 1) moments up to order n (Diaconis & Shahshahani 1994), so
        # E tr Q = 0, E (tr Q)^2 = 1 and var (tr Q)^2 = 2 at n = 6. Without the
        # sign correction d, det Q would always be (-1)^n = +1.
        n, draws = 6, 4000
        rng = stream(13, 0, 1, "weights")
        qs = np.array([sample_orthogonal(n, 1.0, rng) for _ in range(draws)])
        positive = np.mean(np.linalg.det(qs) > 0)
        tr = np.trace(qs, axis1=1, axis2=2)
        assert abs(positive - 0.5) <= 4 * 0.5 / math.sqrt(draws)
        assert abs(tr.mean()) <= 4 * 1.0 / math.sqrt(draws)
        assert abs(np.mean(tr**2) - 1.0) <= 4 * math.sqrt(2.0 / draws)


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
        sv = jacobian_singular_values(cfg, 7, 0)
        assert np.max(np.abs(sv - 1.0)) <= 1e-8

    def test_mean_square_at_criticality(self):
        # var(lambda) = depth at criticality, so the pooled-mean standard
        # error at depth 4 over 8x500 values is ~0.032; allow ~3 sigma
        cfg = _config("relu", "orthogonal", math.sqrt(2), 0.0, depth=4, width=500, qstar=1.0)
        pooled = run_trials(cfg, 8, 11)
        assert abs(pooled.mean_squared() - 1.0) <= 0.12

    def test_relu_kernel_fraction(self):
        cfg = _config("relu", "orthogonal", math.sqrt(2), 0.0, depth=1, width=1000, qstar=1.0)
        sv = jacobian_singular_values(cfg, 9, 0)
        frac = np.mean(sv < 1e-10)
        assert abs(frac - 0.5) <= 0.05

    def test_orthogonal_layers_match_explicit_weights(self):
        # reference: the explicit product with W = sample_orthogonal from the same streams
        cfg = _config("tanh", "orthogonal", 1.2, 0.3, depth=4, width=70, qstar=0.5)
        n = cfg.width
        u = stream(5, 0, 0, "input").standard_normal(n)
        x = u * math.sqrt(n * (cfg.qstar - cfg.sigma_b**2) / cfg.sigma_w**2) / np.linalg.norm(u)
        jac = np.eye(n)
        for layer in range(1, cfg.depth + 1):
            w = sample_orthogonal(n, cfg.sigma_w, stream(5, 0, layer, "weights"))
            h = w @ x + stream(5, 0, layer, "bias").standard_normal(n) * cfg.sigma_b
            jac = (cfg.activation.dphi(h)[:, None] * w) @ jac
            x = cfg.activation.phi(h)
        ref = np.sort(np.linalg.svd(jac, compute_uv=False))
        np.testing.assert_allclose(jacobian_singular_values(cfg, 5, 0), ref, rtol=1e-10)

    @pytest.mark.parametrize("kind", ["gaussian", "orthogonal"])
    @pytest.mark.parametrize("name,depth", [("tanh", 1), ("hard_tanh", 2), ("tanh", 8), ("relu", 8), ("tanh", 24)])
    def test_first_layer_matches_identity_start(self, kind, name, depth):
        cfg = _config(name, kind, 1.3, 0.2, depth=depth, width=60, qstar=0.7)
        ref = _identity_start_reference(cfg, 13, 2)
        sv = jacobian_singular_values(cfg, 13, 2)
        if kind == "gaussian":
            np.testing.assert_array_equal(sv, ref)
        else:
            assert np.max(np.abs(sv - ref)) <= 1e-12 * ref[-1]

    def test_gaussian_row_panels_match_one_product(self):
        # n = 250 writes (D W) J in three row panels (96, 96 and 58 rows); the reference takes one GEMM
        cfg = _config("tanh", "gaussian", 1.3, 0.2, depth=4, width=250, qstar=0.7)
        ref = _identity_start_reference(cfg, 13, 3)
        assert np.max(np.abs(jacobian_singular_values(cfg, 13, 3) - ref)) <= 1e-12 * ref[-1]

    def test_requires_width(self):
        cfg = _config("relu", "orthogonal", math.sqrt(2), 0.0, depth=1, width=None, qstar=1.0)
        with pytest.raises(ValueError):
            jacobian_singular_values(cfg, 0, 0)

    @pytest.mark.parametrize("kind", ["gaussian", "orthogonal"])
    def test_determinism_and_schedule_independence(self, kind):
        cfg = _config("hard_tanh", kind, 1.05, 0.1, depth=3, width=64)
        a = run_trials(cfg, 4, 123)
        for threads in (1, 2):
            assert np.array_equal(a.singular_values, run_trials(cfg, 4, 123, threads=threads).singular_values)
        c = run_trials(cfg, 4, 124)
        assert not np.array_equal(a.singular_values, c.singular_values)

    @pytest.mark.parametrize("kind", ["gaussian", "orthogonal"])
    def test_trial_working_set(self, kind):
        # a trial's numpy buffers (tracemalloc sees them) stay under 3 n^2 doubles plus a few n-vectors:
        # two n^2 arrays, [x | J] and the reflectors or W and J, and O(n) rows of panels
        n = 256
        cfg = _config("tanh", kind, 1.3, 0.2, depth=4, width=n, qstar=0.7)
        jacobian_singular_values(cfg, 1, 0)  # a first call imports modules (SeedSequence's secrets)
        tracemalloc.start()
        try:
            jacobian_singular_values(cfg, 1, 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 * (3 * n * n + 16 * n)

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

    def test_csv_bytes_match_scalar_formatter(self, tmp_path):
        # reference: each value formatted from float() of the numpy scalar
        sv = np.array([0.0, 5e-324, 2.2250738585072014e-308, 1e-300, 1.5e-17, 0.1, 1e16, 1.7976931348623157e308])
        spec = EmpiricalSpectrum(sv, width=4, depth=1, trials=2, seed=0, config={})
        spec.write_csv(tmp_path / "sp.csv")
        expected = "s\n" + "".join(f"{float(v)!r}\n" for v in sv)
        assert (tmp_path / "sp.csv").read_bytes() == expected.encode()

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

    @pytest.mark.parametrize("name,kind,bins", [("hard_tanh", "orthogonal", 200), ("tanh", "gaussian", 50)])
    def test_histogram_holds_all_its_mass(self, name, kind, bins):
        # the trapezoid over the bin centres and the two outer edges is exact for a histogram, the end bins and
        # hard_tanh's top atom (in the last bin) included; over the centres alone it read 0.756 and 0.794
        cfg = critical_config(get_activation(name), kind, 0.2, 4, width=100)
        d = empirical_density(run_trials(cfg, 4, 1), bins=bins)
        assert d.metadata["bins"] == bins and d.grid.size == bins + 2
        assert d.total_mass() == pytest.approx(1.0, abs=1e-14)

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

    def test_missing_mass_is_not_renormalised(self):
        # half the theory's mass is missing and nothing warns: at s = 1 its CDF reads 0.25 against the sample's
        # step from 0 to 1, where dividing by the total would read 0.5
        spec = EmpiricalSpectrum(np.ones(4), width=4, depth=1, trials=1, seed=0, config={})
        grid = np.linspace(0.0, 2.0, 101)
        half = SpectralDensity(SINGULAR, grid, np.full(101, 0.25), (), {})
        assert ks_distance(spec, half) == pytest.approx(0.75, abs=1e-12)

    def test_mass_below_the_grid_is_one_bin(self):
        # uniform on (0, 1) with its grid from 0.5: how the sample spreads under 0.5 does not matter, and
        # without the below-grid mass the theory misses half the sample
        n = 4000
        upper = np.sort(np.random.default_rng(5).uniform(0.5, 1.0, n // 2))
        grid = np.linspace(0.5, 1.0, 501)
        theory = SpectralDensity(SINGULAR, grid, np.ones_like(grid), below=0.5)
        ks = {}
        for name, lower in (("spread", np.linspace(0.0, 0.5, n // 2, endpoint=False)), ("packed", np.full(n // 2, 0.01))):
            spec = EmpiricalSpectrum(np.concatenate([lower, upper]), width=n, depth=1, trials=1, seed=0, config={})
            ks[name] = ks_distance(spec, theory)
        assert ks["spread"] == ks["packed"] <= 3.0 / math.sqrt(n)
        no_below = SpectralDensity(SINGULAR, grid, np.ones_like(grid))
        assert ks_distance(spec, no_below) >= 0.5
