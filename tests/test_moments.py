import math
from dataclasses import fields

import numpy as np
import pytest

from jacspectra.activations import get_activation, mu_k
from jacspectra.density import SQUARED_SINGULAR, SpectralDensity
from jacspectra.ensembles import WeightEnsemble
from jacspectra.errors import PoleError
from jacspectra.moments import jacobian_moments, moments_from_density
from jacspectra.propagation import NetworkConfig, critical_sigma_w


def _critical_config(name, ensemble_kind, depth, qstar):
    """Exactly-critical config built from a chosen fixed-point variance."""
    act = get_activation(name)
    sw = 1.0 / math.sqrt(mu_k(act, qstar, 1))
    return NetworkConfig(act, WeightEnsemble(ensemble_kind), sw, 0.0, depth=depth, qstar=qstar)


class TestSTransform:
    def test_gaussian_pole(self, master_residual):
        # the master residual, which evaluates S, refuses its pole at zG - 1 = -1
        cfg = NetworkConfig(get_activation("linear"), WeightEnsemble("gaussian"), 1.0, 0.0, depth=1, qstar=1.0)
        with pytest.raises(PoleError):
            master_residual(cfg, 0.0, 2.0)

    def test_s1_invariant(self):
        assert WeightEnsemble("orthogonal").s1 == 0.0
        assert WeightEnsemble("gaussian").s1 == -1.0
        with pytest.raises(ValueError):
            WeightEnsemble("uniform")

    def test_kind_is_the_only_field(self):
        # sigma_w is NetworkConfig's alone: a second argument is taken and dropped
        assert [f.name for f in fields(WeightEnsemble)] == ["kind"]
        assert WeightEnsemble("gaussian", 0.5) == WeightEnsemble("gaussian")
        assert not hasattr(WeightEnsemble("gaussian", 0.5), "sigma_w")


class TestJacobianMoments:
    def test_linear_gaussian_variance(self):
        for L in (1, 8, 64):
            cfg = NetworkConfig(get_activation("linear"), WeightEnsemble("gaussian"), 1.0, 0.0, depth=L, qstar=1.0)
            ms = jacobian_moments(cfg)
            assert ms.variance == pytest.approx(L, abs=1e-10 * L)

    def test_relu_orthogonal_variance(self):
        for L in (1, 8, 64):
            cfg = NetworkConfig(
                get_activation("relu"), WeightEnsemble("orthogonal"), math.sqrt(2), 0.0, depth=L, qstar=1.0
            )
            ms = jacobian_moments(cfg)
            assert ms.variance == pytest.approx(L, abs=1e-10 * L)

    def test_linear_orthogonal_degenerate(self):
        cfg = NetworkConfig(get_activation("linear"), WeightEnsemble("orthogonal"), 1.0, 0.0, depth=16, qstar=1.0)
        ms = jacobian_moments(cfg)
        assert ms.m1 == pytest.approx(1.0, abs=1e-12)
        assert ms.variance == pytest.approx(0.0, abs=1e-12)

    def test_hard_tanh_table_formula(self):
        q = 0.3
        for L in (1, 8, 64):
            cfg = _critical_config("hard_tanh", "orthogonal", L, q)
            ms = jacobian_moments(cfg)
            expected = 1.0 / math.erf(1.0 / math.sqrt(2 * q)) - 1.0
            assert ms.variance / L == pytest.approx(expected, abs=1e-10)

    def test_erf_table_formula(self):
        q = 0.6
        for L in (1, 8, 64):
            cfg = _critical_config("erf_main", "orthogonal", L, q)
            ms = jacobian_moments(cfg)
            expected = (1 + math.pi * q) / math.sqrt(1 + 2 * math.pi * q) - 1.0
            assert ms.variance / L == pytest.approx(expected, abs=1e-10)

    @pytest.mark.parametrize("name", ["linear", "relu", "hard_tanh", "erf_main", "erf_sm", "tanh"])
    @pytest.mark.parametrize("kind", ["orthogonal", "gaussian"])
    def test_m1_is_one_at_criticality(self, name, kind):
        if name in ("linear", "relu"):
            qstar = 1.0
            act = get_activation(name)
            sw = 1.0 / math.sqrt(mu_k(act, qstar, 1))
        else:
            act = get_activation(name)
            sw, qstar = critical_sigma_w(act, 0.2)
        for L in (1, 8, 64):
            cfg = NetworkConfig(act, WeightEnsemble(kind), sw, 0.2, depth=L, qstar=qstar)
            ms = jacobian_moments(cfg)
            assert abs(ms.chi - 1.0) <= 1e-10
            assert ms.m1 == pytest.approx(1.0, abs=1e-7)

    def test_gaussian_variance_growth_constant_rate(self):
        # variance/depth is depth-independent: any weight spread feeds a
        # strictly linear growth that orthogonality alone removes
        q = 0.4
        rates = []
        for L in (1, 4, 16, 64, 256):
            cfg = _critical_config("erf_main", "gaussian", L, q)
            rates.append(jacobian_moments(cfg).variance / L)
        assert np.ptp(rates) <= 1e-10
        orth_rate = jacobian_moments(_critical_config("erf_main", "orthogonal", 64, q)).variance / 64
        assert rates[0] - orth_rate == pytest.approx(1.0, abs=1e-10)  # the -s1 gap


class TestMomentsFromDensity:
    def test_single_atom(self):
        dens = SpectralDensity(
            SQUARED_SINGULAR, np.array([0.5, 2.0]), np.zeros(2), ((1.0, 1.0),), {}
        )
        assert moments_from_density(dens, 3) == pytest.approx(1.0)

    def test_mp_density_sampled_oracle(self, mp_oracle):
        lam = np.linspace(1e-8, 4.0, 400_001)
        rho = np.sqrt(np.clip(lam * (4.0 - lam), 0, None)) / (2 * math.pi * np.clip(lam, 1e-300, None))
        dens = SpectralDensity(SQUARED_SINGULAR, lam, rho, (), {})
        # the trapezoid reads mass 1.0144 across the 1/sqrt(lambda) singularity at 0
        m1 = moments_from_density(dens, 1)
        m2 = moments_from_density(dens, 2)
        assert m1 == pytest.approx(mp_oracle["sample_m1"], abs=0.01)
        assert m2 == pytest.approx(mp_oracle["sample_m2"], abs=0.03)
        assert m1 == pytest.approx(1.0, abs=2e-3)
        assert m2 == pytest.approx(2.0, abs=5e-3)
