import cmath
import math

import numpy as np
import pytest

from jacspectra import cli, limits
from jacspectra.activations import get_activation
from jacspectra.errors import ConvergenceError, PoleError
from jacspectra.limits import (
    bernoulli_G,
    bernoulli_density,
    bernoulli_edges_atoms,
    bernoulli_log_ratio,
    bernoulli_w,
    smooth_arch,
    smooth_G,
    smooth_density,
    smooth_edges,
    smooth_w,
)
from jacspectra.propagation import double_scaled_config


def _rho_bernoulli(s0sq, lam):
    return max(-bernoulli_G(s0sq, lam * (1 + 1e-9j)).imag / math.pi, 0.0)


def _bernoulli_mass_profile(s0sq, u_max=500.0, n=6000):
    """Continuum mass/moments of the deep {0,1}-slope limit.

    Two substitutions handle the integrable singularities: near the right
    edge lam1 a square-root variable v = sqrt(lam1 - lam) absorbs the
    edge divergence (which appears when the point mass at exp(s0sq) fades
    into the bulk at s0sq -> 1); toward the origin, where the density falls
    like 1/(lam log^2 lam), a log grid u = log(s0sq/lam) runs out to u_max
    with leftover tail ~ s0sq/u_max.
    """
    lam1 = math.e * s0sq
    cut = 0.5 * lam1
    moments = np.zeros(3)
    v = np.linspace(0.0, math.sqrt(lam1 - cut), n // 2)[1:]
    lam = lam1 - v * v
    rho = np.array([_rho_bernoulli(s0sq, l) for l in lam])
    for k in range(3):
        moments[k] += np.trapezoid(rho * lam**k * 2.0 * v, v)
    u = np.linspace(math.log(s0sq / cut), u_max, n)
    lam = s0sq * np.exp(-u)
    rho = np.array([_rho_bernoulli(s0sq, l) for l in lam])
    for k in range(3):
        moments[k] += np.trapezoid(rho * lam ** (k + 1), u)
    return tuple(moments)


class TestBernoulliG:
    def test_zero_variance_collapses_to_unit_atom(self):
        assert bernoulli_G(1e-12, 2.0) == pytest.approx(1.0, abs=1e-9)

    def test_pole_at_origin(self):
        with pytest.raises(PoleError):
            bernoulli_G(0.25, 0.0)

    def test_edge_behavior(self):
        lam1 = math.e * 0.25
        below = -bernoulli_G(0.25, (lam1 - 0.05) + 1e-9j).imag / math.pi
        above = -bernoulli_G(0.25, (lam1 + 0.05) + 1e-9j).imag / math.pi
        assert below > 0.05
        assert above <= 1e-6

    def test_deep_master_solve_cross_check(self, solve_G_at):
        cfg = double_scaled_config(get_activation("hard_tanh"), 4096, 0.25)
        for lam in (0.1, 0.4, 3.0):
            g_lim = bernoulli_G(0.25, lam + 1e-6j)
            g_mas = solve_G_at(cfg, lam)
            assert abs(g_lim - g_mas) <= 2e-3 * (1 + abs(g_lim))

    def test_limit_transform_composition(self):
        # plugging M = zG - 1 into the deep-limit multiplicative transform
        # S(m) = exp(-m s0sq/(1+m)) must reproduce z: (1+M)/(M S(M)) = z
        s0sq = 0.25
        rng = np.random.default_rng(12)
        count = 0
        while count < 100:
            z = complex(rng.uniform(-3, 4), rng.uniform(0.2, 3))
            m = z * bernoulli_G(s0sq, z) - 1.0
            if abs(m) < 1e-3 or abs(1 + m) < 1e-3:
                continue
            s = cmath.exp(-m * s0sq / (1.0 + m))
            assert abs((1.0 + m) / (m * s) - z) <= 1e-8 * abs(z)
            count += 1


class TestBernoulliEdgesAtoms:
    def test_sigma_half_edges(self):
        info = bernoulli_edges_atoms(0.25)
        assert math.sqrt(info["lambda1"]) == pytest.approx(math.sqrt(math.e) / 2, abs=1e-12)
        assert math.sqrt(info["lambda2"]) == pytest.approx(math.exp(0.125), abs=1e-12)

    def test_atom_mass_is_one_minus_variance(self):
        info = bernoulli_edges_atoms(0.25)
        atoms = dict(info["atoms"])
        assert atoms[info["lambda2"]] == pytest.approx(0.75, abs=1e-6)
        assert 0.0 not in atoms  # origin divergence is integrable, not a point mass

    def test_small_variance_limit(self):
        info = bernoulli_edges_atoms(1e-3)
        assert info["lambda1"] == pytest.approx(math.e * 1e-3)
        assert info["lambda2"] == pytest.approx(1.0, abs=2e-3)
        assert dict(info["atoms"])[info["lambda2"]] == pytest.approx(1.0, abs=2e-3)

    def test_no_top_atom_beyond_unit_sigma(self):
        info = bernoulli_edges_atoms(1.44)
        assert all(loc != info["lambda2"] for loc, _ in info["atoms"])

    def test_normalization_with_continuum(self):
        info = bernoulli_edges_atoms(0.25)
        mass, _, _ = _bernoulli_mass_profile(0.25)
        total = mass + sum(m for _, m in info["atoms"])
        assert total == pytest.approx(1.0, abs=1e-3)

    @pytest.mark.parametrize("s0sq", [0.1, 0.25, 1.0])
    def test_first_two_moments(self, s0sq):
        info = bernoulli_edges_atoms(s0sq)
        mass, m1, m2 = _bernoulli_mass_profile(s0sq)
        atom = sum(m for _, m in info["atoms"])
        atom1 = sum(m * loc for loc, m in info["atoms"])
        atom2 = sum(m * loc * loc for loc, m in info["atoms"])
        assert m1 + atom1 == pytest.approx(1.0, abs=1e-3)
        assert m2 + atom2 == pytest.approx(1.0 + s0sq, abs=1e-3)


class TestSmoothG:
    def test_zero_variance_collapses_to_unit_atom(self):
        assert smooth_G(1e-12, 2.0) == pytest.approx(1.0, abs=1e-9)

    def test_stieltjes_asymptotics(self):
        assert abs(smooth_G(0.25, 1e4) - 1e-4) <= 1e-3

    def test_deep_master_solve_cross_check(self, solve_G_at):
        cfg = double_scaled_config(get_activation("erf_sm"), 8192, 0.25)
        g_lim = smooth_G(0.25, 1.0 + 1e-6j)
        g_mas = solve_G_at(cfg, 1.0)
        # depth-8192 sits within its 1/sqrt(L) envelope of the limit
        assert abs(g_lim - g_mas) <= 2e-2 * (1 + abs(g_lim))

    def test_moments(self):
        for s0sq in (0.1, 0.25, 1.0):
            lo, hi = smooth_edges(s0sq)
            lam = np.linspace(lo, hi, 8001)
            rho = np.clip(
                [-smooth_G(s0sq, l + 1e-9j).imag / math.pi for l in lam], 0.0, None
            )
            assert np.trapezoid(rho, lam) == pytest.approx(1.0, abs=1e-3)
            assert np.trapezoid(rho * lam, lam) == pytest.approx(1.0, abs=1e-3)
            assert np.trapezoid(rho * lam * lam, lam) == pytest.approx(1.0 + s0sq, abs=1e-3)


class TestSmoothEdges:
    def test_sigma_half_values(self):
        lo, hi = np.sqrt(smooth_edges(0.25))
        assert lo == pytest.approx(0.57, abs=5e-3)
        assert hi == pytest.approx(1.56, abs=5e-3)

    def test_zero_variance_limit(self):
        lo, hi = np.sqrt(smooth_edges(1e-8))
        assert lo == pytest.approx(1.0, abs=1e-3)
        assert hi == pytest.approx(1.0, abs=1e-3)

    def test_support_detection_at_unit_sigma(self):
        s0sq = 1.0
        lo, hi = smooth_edges(s0sq)
        lam = np.linspace(lo * 0.8, hi * 1.1, 3000)
        rho = np.clip([-smooth_G(s0sq, l + 1e-9j).imag / math.pi for l in lam], 0.0, None)
        pos = lam[rho > 1e-3]
        assert pos[0] == pytest.approx(lo, abs=1e-2)
        assert pos[-1] == pytest.approx(hi, abs=1e-2)


class TestLimitDensities:
    def test_bernoulli_density_container(self):
        grid = np.geomspace(1e-8, 1.3, 800)
        d = bernoulli_density(0.25, grid)
        assert d.atoms and d.atoms[0][0] == pytest.approx(math.exp(0.25))
        assert d.metadata["class"] == "bernoulli"

    def test_smooth_density_container(self):
        lo, hi = smooth_edges(0.25)
        d = smooth_density(0.25, np.linspace(lo, hi, 500))
        assert not d.atoms
        assert d.continuum_mass() == pytest.approx(1.0, abs=5e-3)


def _readout(g_fn, s0sq, lam):
    """Reference: the offset readout -Im G(lambda + 1e-9 i)/pi through the resolvent."""
    return np.array([-g_fn(s0sq, l + 1e-9j).imag / math.pi for l in lam])


def _below_grid(density_fn, s0sq, lam):
    """The closed-form continuum mass below lambda, as the density's ``below`` carries it."""
    return density_fn(s0sq, np.array([lam])).below


def _smooth_mass_above(s0sq, lam):
    w = smooth_w(s0sq, lam)
    return (np.log(w - s0sq) - w**2 / (2.0 * s0sq)).imag / math.pi


def _away_from_edges(lo, hi, n=120):
    # the offset readout carries an eps/lambda bias below 1e-2 and smooths hard edges
    width = hi - lo
    return np.geomspace(max(1e-2, lo + 1e-3 * width), hi - 1e-3 * width, n)


class TestParametrisedReadout:
    @pytest.mark.parametrize("s0sq", [0.1, 0.25, 1.0, 4.0])
    def test_bernoulli_matches_offset_readout(self, s0sq):
        lam = _away_from_edges(0.0, math.e * s0sq)
        ref = _readout(bernoulli_G, s0sq, lam)
        assert np.allclose(bernoulli_density(s0sq, lam).rho, ref, rtol=1e-6, atol=0.0)

    @pytest.mark.parametrize("s0sq", [0.1, 0.25, 1.0, 4.0])
    def test_smooth_matches_offset_readout(self, s0sq):
        lam = _away_from_edges(*smooth_edges(s0sq))
        ref = _readout(smooth_G, s0sq, lam)
        assert np.allclose(smooth_density(s0sq, lam).rho, ref, rtol=1e-6, atol=0.0)

    @pytest.mark.parametrize("s0sq", [0.25, 1.0, 4.0])
    def test_zero_outside_support(self, s0sq):
        lam1, lam2 = math.e * s0sq, math.exp(s0sq)
        grid = np.array([lam1, lam1 * (1 + 1e-15), 1.5 * lam1, lam2, 2.0 * max(lam1, lam2)])
        assert np.all(bernoulli_density(s0sq, np.unique(grid)).rho == 0.0)
        lo, hi = smooth_edges(s0sq)
        grid = np.array([1e-3 * lo, 0.5 * lo, lo, hi, hi * (1 + 1e-15), 2.0 * hi])
        rho = smooth_density(s0sq, grid).rho
        assert np.all(rho == 0.0)
        inside = smooth_density(s0sq, np.array([lo * (1 + 1e-12), hi * (1 - 1e-12)])).rho
        assert np.all(inside > 0.0)

    def test_unconverged_point_raises(self, monkeypatch):
        newton = limits.newton
        monkeypatch.setattr(limits, "newton", lambda fdf, w, target: newton(fdf, w, target, max_iter=1))
        lo, hi = smooth_edges(0.25)
        with pytest.raises(ConvergenceError):
            smooth_density(0.25, np.linspace(lo, hi, 7))
        with pytest.raises(ConvergenceError):
            bernoulli_density(0.25, np.geomspace(1e-3, 0.6, 7))

    def test_bernoulli_needs_positive_grid(self):
        with pytest.raises(ValueError):
            bernoulli_density(0.25, np.array([0.0, 0.5]))

    def test_lambda_of_theta_is_monotone(self):
        # lambda(theta) / s0sq does not depend on s0sq
        theta = np.linspace(0.0, math.pi, 20001)[1:-1]
        log_ratio = bernoulli_log_ratio(theta)
        assert np.all(np.diff(log_ratio) < 0.0)
        assert log_ratio[0] == pytest.approx(1.0, abs=1e-7)  # lambda1 = e * s0sq

    @pytest.mark.parametrize("s0sq", [0.25, 1.0, 4.0])
    def test_smooth_arch_is_real_and_monotone(self, s0sq):
        w, lam = smooth_arch(s0sq, 20001)
        z = w * np.exp(w - s0sq) / (w - s0sq)
        assert np.all(w.imag > 0.0)
        assert np.max(np.abs(z.imag) / np.abs(z)) <= 1e-14
        assert np.all(np.diff(lam) > 0.0)
        lo, hi = smooth_edges(s0sq)
        assert lam[0] == pytest.approx(lo, rel=1e-6)
        assert lam[-1] == pytest.approx(hi, rel=1e-6)

    @pytest.mark.parametrize("s0sq", [1e-3, 0.1, 0.25, 0.5, 0.999])
    def test_atom_mass_is_exactly_one_minus_variance(self, s0sq):
        info = bernoulli_edges_atoms(s0sq)
        assert info["atoms"] == ((math.exp(s0sq), 1.0 - s0sq),)
        assert bernoulli_density(s0sq, np.array([0.5])).atoms == info["atoms"]

    @pytest.mark.parametrize("s0sq", [1.0, 1.44, 4.0])
    def test_no_atom_from_unit_variance_on(self, s0sq):
        assert bernoulli_edges_atoms(s0sq)["atoms"] == ()

    @pytest.mark.parametrize("s0sq", [0.25, 1.0, 4.0])
    def test_bernoulli_ledger_matches_theta_quadrature(self, s0sq):
        # mass below lambda(theta0) = integral over (theta0, pi) of rho * lambda * |d log lambda / d theta|,
        # where rho * lambda = s0sq theta / (pi |s0sq + w|^2); the integrand tends to s0sq/pi at pi
        for theta0 in (1e-3, 0.5, 1.5, 2.5, 3.0):
            theta = np.linspace(theta0, math.pi, 400001)[:-1]
            w = -theta / np.tan(theta) + 1j * theta
            dlog = 2.0 / np.tan(theta) - 1.0 / theta - theta / np.sin(theta) ** 2
            f = s0sq * theta / (math.pi * np.abs(s0sq + w) ** 2) * np.abs(dlog)
            f = np.append(f, s0sq / math.pi)
            quad = np.trapezoid(f, dx=(math.pi - theta0) / 400000)
            lam = s0sq * math.exp(bernoulli_log_ratio(theta0))
            assert _below_grid(bernoulli_density, s0sq, lam) == pytest.approx(quad, abs=1e-6)
        lam1 = math.e * s0sq
        assert _below_grid(bernoulli_density, s0sq, lam1) == min(s0sq, 1.0)
        assert _below_grid(bernoulli_density, s0sq, lam1 * (1 - 1e-12)) == pytest.approx(min(s0sq, 1.0), abs=1e-6)

    @pytest.mark.parametrize("s0sq", [0.25, 1.0, 4.0])
    def test_smooth_mass_above_runs_from_zero_to_one(self, s0sq):
        lo, hi = smooth_edges(s0sq)
        ends = _smooth_mass_above(s0sq, np.array([hi * (1 - 1e-12), lo * (1 + 1e-12)]))
        assert np.allclose(ends, [0.0, 1.0], rtol=0.0, atol=1e-6)
        lam = np.geomspace(lo, hi, 20001)[1:-1]
        above = _smooth_mass_above(s0sq, lam)
        assert np.all(np.diff(above) < 0.0)
        rho = smooth_density(s0sq, lam).rho
        tail = np.concatenate([np.cumsum((0.5 * (rho[1:] + rho[:-1]) * np.diff(lam))[::-1])[::-1], [0.0]])
        assert np.allclose(above - above[-1], tail, atol=1e-5)
        for i in (100, 10000):
            assert _below_grid(smooth_density, s0sq, lam[i]) == pytest.approx(1.0 - above[i], abs=1e-15)
        assert _below_grid(smooth_density, s0sq, lo) == 0.0 and _below_grid(smooth_density, s0sq, hi) == 1.0

    def test_ledger_in_metadata(self):
        # the ledger is the density's own fields, not a side entry in its metadata
        dens = bernoulli_density(0.25, np.geomspace(1e-100, 2.0, 50))
        assert dens.atom_mass() == 0.75 and "mass" not in dens.metadata
        assert 0.0 < dens.below < 2e-3
        lo, hi = smooth_edges(0.25)
        dens = smooth_density(0.25, np.linspace(0.8 * lo, hi, 50))
        assert dens.below == 0.0 and dens.atoms == () and "mass" not in dens.metadata


EPS = np.finfo(float).eps


def _bisect_w(s0sq, lam):
    """Reference: theta bisected on the cut until no float lies between the ends."""
    target = np.log(np.asarray(lam, dtype=float) / s0sq)
    lo, hi = np.zeros_like(target), np.full_like(target, math.pi)
    while True:
        mid = lo + 0.5 * (hi - lo)
        open_ = (lo < mid) & (mid < hi)
        if not open_.any():
            return -mid / np.tan(mid) + 1j * mid
        right = open_ & (bernoulli_log_ratio(mid) > target)
        lo, hi = np.where(right, mid, lo), np.where(open_ & ~right, mid, hi)


class TestBernoulliInverse:
    # Near lambda1, d log z / dw = -(1 + 1/w) ~ -i theta vanishes: a residual of a few ulps in log z, which both the
    # bisection and Newton leave, moves w by ~ eps / |1 + 1/w|.  That term passes 1e-12 |w| below theta ~ 1e-3;
    # at theta = 1e-4 the two differ by 1.95e-12 relative, and each lies within 1.6e-12 of a 40-digit root.

    @pytest.mark.parametrize("s0sq", [0.1, 0.25, 1.0, 4.0])
    def test_matches_bisection(self, s0sq):
        theta = np.geomspace(1e-4, math.pi - 0.01, 400)
        lam = np.append(s0sq * np.exp(bernoulli_log_ratio(theta)), 1e-300 * s0sq)
        ref = _bisect_w(s0sq, lam)
        err = np.abs(bernoulli_w(s0sq, lam) - ref)
        assert np.all(err <= 1e-12 * np.abs(ref) + 4.0 * EPS / np.abs(1.0 + 1.0 / ref))
        far = np.append(theta > 1e-3, True)
        assert np.all(err[far] <= 1e-12 * np.abs(ref[far]))

    @pytest.mark.parametrize("s0sq", [0.1, 0.25, 1.0, 4.0])
    def test_edge_within_conditioning(self, s0sq):
        # at lambda1 (1 - 1e-12), theta ~ 1.4e-6 and 1 - log(lambda/s0sq) = theta^2/2 + theta^4/36 + ...; a residual
        # of a few ulps moves theta^2 by as much, so theta^2 holds to ~8 eps / 2e-12 = 9e-4 relative, and w to 4 eps/theta
        lam = math.e * s0sq * (1.0 - 1e-12)
        w, ref = bernoulli_w(s0sq, lam)[0], _bisect_w(s0sq, np.array([lam]))[0]
        assert abs(w.imag**2 - 2.0 * (1.0 - math.log(lam / s0sq))) <= 8.0 * EPS
        assert abs(w - ref) <= 4.0 * EPS / abs(1.0 + 1.0 / ref)

    @pytest.mark.parametrize("klass", ["bernoulli", "smooth"])
    @pytest.mark.parametrize("s0sq", [0.25, 1.0, 4.0])
    def test_benchmark_grid_in_few_passes(self, klass, s0sq, monkeypatch, tmp_path):
        # the 1,200-point grids of the limit command: at most 8 Newton passes (the bisection took ~55 steps)
        passes, newton = [], limits.newton

        def counted(fdf, *rest):
            return newton(lambda w: passes.append(w.size) or fdf(w), *rest)

        monkeypatch.setattr(limits, "newton", counted)
        out = tmp_path / "limit.csv"
        assert cli.main(["limit", "--class", klass, "--sigma0-sq", str(s0sq), "--out.density_csv", str(out)]) == 0
        assert 0 < len(passes) <= 8 and passes[0] > 600
