import math
import warnings
from collections import Counter

import numpy as np
import pytest

from jacspectra.activations import get_activation
from jacspectra.density import make_lambda_grid
from jacspectra.ensembles import WeightEnsemble
from jacspectra.errors import BranchLossError, JacspectraError, PoleError
from jacspectra import master, special
from jacspectra.master import (
    default_lam_max,
    density,
    point_masses,
    probe_atom,
)
from jacspectra.moments import jacobian_moments, moments_from_density
from jacspectra.propagation import NetworkConfig, critical_config, double_scaled_config, resolve_qstar


def _linear_orth(depth=8):
    return NetworkConfig(get_activation("linear"), WeightEnsemble("orthogonal"), 1.0, 0.0, depth=depth, qstar=1.0)


def _linear_gauss(depth=1):
    return NetworkConfig(get_activation("linear"), WeightEnsemble("gaussian"), 1.0, 0.0, depth=depth, qstar=1.0)


def _relu_orth(depth=1):
    sw = math.sqrt(2.0)
    return NetworkConfig(get_activation("relu"), WeightEnsemble("orthogonal"), sw, 0.0, depth=depth, qstar=1.0)


def _leaky_relu(kind):
    return NetworkConfig(get_activation("leaky_relu"), WeightEnsemble(kind), 1.2, 0.0, depth=1, qstar=1.0)


def mp_density(lam):
    lam = np.asarray(lam, dtype=float)
    out = np.zeros_like(lam)
    m = (lam > 0) & (lam < 4)
    out[m] = np.sqrt(lam[m] * (4.0 - lam[m])) / (2 * math.pi * lam[m])
    return out


def _fc_log_sines(depth, phi):
    return np.log(np.sin(phi)), np.log(np.sin(depth * phi)), np.log(np.sin((depth + 1) * phi))


def _fc_phi(depth, lam):
    """(inside, phi): which lam lie below the Fuss-Catalan edge, and there the phi of the parametrisation below,
    bisected on log lam to the last float."""
    L = depth

    def log_lam(phi):
        s, s_l, s_l1 = _fc_log_sines(L, phi)
        return (L + 1) * s_l1 - s - L * s_l

    inside = np.log(lam) < (L + 1) * math.log(L + 1) - L * math.log(L)
    target = np.log(lam[inside])
    lo, hi = np.zeros_like(target), np.full_like(target, math.pi / (L + 1))
    while True:
        mid = 0.5 * (lo + hi)
        if np.all((mid <= lo) | (mid >= hi)):
            break
        right = log_lam(mid) > target  # lam falls with phi: the root lies right of mid
        lo, hi = np.where(right, mid, lo), np.where(right, hi, mid)
    return inside, 0.5 * (lo + hi)


def fuss_catalan_density(depth, lam):
    """The Fuss-Catalan density FC_L (moments C((L+1)k, k)/(Lk + 1)) of J J^T for L linear Gaussian layers.

    Haagerup and Moeller's parametrisation, phi in (0, pi/(L+1)):
        lam(phi) = sin^{L+1}((L+1) phi) / (sin(phi) sin^L(L phi)),
        rho(phi) = sin^2(phi) sin^{L-1}(L phi) / (pi sin^L((L+1) phi)),
    with lam falling from the edge (L+1)^{L+1}/L^L at phi = 0 to 0.  Each lam is bisected in phi on
    log lam, and rho formed from logs, so that L = 1024 does not underflow; 0 off the support.
    """
    L, lam = depth, np.asarray(lam, dtype=float)
    inside, phi = _fc_phi(L, lam)
    s, s_l, s_l1 = _fc_log_sines(L, phi)
    rho = np.zeros_like(lam)
    rho[inside] = np.exp(2.0 * s + (L - 1) * s_l - L * s_l1) / math.pi
    return rho


def fc_cdf(depth, lam):
    """The Fuss-Catalan CDF F(lam) for lam below the edge, by scipy.integrate.quad over phi in (phi(lam), pi/(L+1))
    of rho |d lam/d phi| = rho lam |d log lam/d phi|, which is

        sin(phi) / (pi sin(L phi)) [sin((L+1) phi) (L^2 cot(L phi) + cot(phi)) - (L+1)^2 cos((L+1) phi)],

    finite over the whole interval."""
    from scipy.integrate import quad

    L = depth
    inside, phi = _fc_phi(L, np.array([lam], dtype=float))
    assert inside[0]

    def integrand(p):
        a, b = (L + 1) * p, L * p
        bracket = math.sin(a) * (L * L / math.tan(b) + 1.0 / math.tan(p)) - (L + 1) ** 2 * math.cos(a)
        return math.sin(p) / (math.pi * math.sin(b)) * bracket

    value, err = quad(integrand, phi[0], math.pi / (L + 1), epsabs=1e-14, epsrel=1e-13, limit=200)
    assert err <= 1e-13
    return value


class TestMasterResidual:
    def test_orthogonal_identity_spectrum_is_exact_root(self, master_residual):
        z = 2.0 + 1.0j
        assert master_residual(_linear_orth(), 1.0 / (z - 1.0), z) == 0

    def test_mp_stieltjes_is_root(self, mp_oracle, master_residual):
        z = complex(*mp_oracle["stieltjes_z"])
        g_closed = (z - np.sqrt(z * (z - 4.0))) / (2.0 * z)
        # closed form agrees with the pooled-sample transform ...
        g_emp = complex(*mp_oracle["stieltjes_empirical"])
        assert abs(g_closed - g_emp) <= 1e-3
        # ... and solves the depth-1 gaussian master equation
        assert abs(master_residual(_linear_gauss(), g_closed, z)) <= 1e-8

    def test_asymptotic_residual(self, master_residual):
        z = 1e6 + 1.0j
        for cfg in (_linear_orth(), _linear_gauss(), _relu_orth()):
            assert abs(master_residual(cfg, 1.0 / z, z)) <= 1e-4

    def test_pole_error(self, master_residual):
        with pytest.raises(PoleError):
            master_residual(_linear_orth(), 1.0 / 2.0, 2.0)  # zG - 1 = 0


class TestSolveG:
    def test_off_support_resolvent_of_atom(self, solve_G_at):
        G = solve_G_at(_linear_orth(), 3.0)
        assert abs(G - 0.5) <= 1e-5

    def test_mp_density_point(self, solve_G_at):
        G = solve_G_at(_linear_gauss(), 2.0)
        rho = -G.imag / math.pi
        assert rho == pytest.approx(math.sqrt(2 * (4 - 2)) / (2 * math.pi * 2), abs=1e-6)

    def test_relu_between_atoms(self, solve_G_at):
        G = solve_G_at(_relu_orth(), 0.5)
        assert -G.imag / math.pi <= 1e-4  # no continuum between the point masses
        assert G.real == pytest.approx(0.5 / 0.5 + 0.5 / (0.5 - 2.0), abs=1e-6)

    def test_far_asymptotics(self, solve_G_at):
        for cfg in (_linear_gauss(), _relu_orth(4)):
            G = solve_G_at(cfg, 1e4)
            assert abs(G - 1e-4) <= 1e-3

    def test_branch_loss_reported(self, monkeypatch, solve_G_at):
        monkeypatch.setattr(master, "_NEWTON_ITERS", 0)  # every Newton fails
        with pytest.raises(BranchLossError) as err:
            solve_G_at(_linear_gauss(), 2.0)
        assert err.value.step_index >= 1
        assert err.value.last_iterate is not None


def _hard_tanh(kind, depth):
    return critical_config(get_activation("hard_tanh"), kind, 0.2, depth)


def _rule(config):
    return point_masses(config, resolve_qstar(config).qstar)


# configs whose non-zero atoms the probe reads
_PROBE_CONFIGS = [
    _linear_orth(),
    _relu_orth(1),
    _leaky_relu("orthogonal"),
    _hard_tanh("orthogonal", 4),
    double_scaled_config(get_activation("hard_tanh"), 16, 0.25),
    double_scaled_config(get_activation("hard_tanh"), 1024, 0.25),
]
_PROBE_IDS = ["linear-orth", "relu-orth-L1", "leaky_relu-orth-L1", "hard_tanh-orth-L4", "ds-L16", "ds-L1024"]


class TestAtoms:
    def test_free_convolution_rule(self):
        assert _rule(_linear_orth()) == ((1.0, 1.0),)
        assert _rule(_relu_orth(1)) == ((0.0, 0.5), (pytest.approx(2.0, rel=1e-15), 0.5))
        assert _rule(_relu_orth(4)) == ((0.0, 0.5),)  # top mass 1 - L/2 <= 0
        assert _rule(_linear_gauss()) == ()
        assert _rule(_linear_gauss(8)) == ()

    @pytest.mark.parametrize("kind", ["gaussian", "orthogonal"])
    def test_hard_tanh_zero_atom(self, kind):
        cfg = _hard_tanh(kind, 16)
        zero_slope = math.erfc(1.0 / math.sqrt(2.0 * resolve_qstar(cfg).qstar))  # P(|x| > 1)
        assert _rule(cfg) == ((0.0, pytest.approx(zero_slope, rel=1e-12)),)

    def test_leaky_relu_has_no_zero_atom(self):
        assert _rule(_leaky_relu("gaussian")) == ()
        a2 = (1.2 * dict(get_activation("leaky_relu").params)["alpha"]) ** 2
        expected = ((pytest.approx(a2, rel=1e-12), 0.5), (pytest.approx(1.44, rel=1e-12), 0.5))
        assert _rule(_leaky_relu("orthogonal")) == expected

    def test_smooth_units_have_no_atoms(self):
        for name in ("tanh", "erf_sm", "arctan"):
            assert _rule(critical_config(get_activation(name), "orthogonal", 0.2, 4)) == ()

    def test_deep_bernoulli_rule(self):
        cfg = double_scaled_config(get_activation("hard_tanh"), 1024, 0.25)
        p = 1024.0 / 1024.25
        (zero, zero_mass), (top, top_mass) = _rule(cfg)
        assert zero == 0.0 and zero_mass == pytest.approx(1.0 - p, rel=1e-9)
        assert top == pytest.approx(cfg.sigma_w ** (2 * 1024), rel=1e-12)
        assert top_mass == pytest.approx(1.0 - 1024 * (1.0 - p), rel=1e-9)

    @pytest.mark.parametrize("config", _PROBE_CONFIGS, ids=_PROBE_IDS)
    def test_rule_matches_probe_at_non_zero_atoms(self, config):
        # the probe accepts every non-zero atom of the rule and reads its mass
        # to 1e-6; so it does every atom at L = 1, where the law is all atoms
        for loc, mass in _rule(config):
            probed, ok = probe_atom(config, loc)
            if loc > 0.0 or config.depth == 1:
                assert ok and probed == pytest.approx(mass, abs=1e-6)

    @pytest.mark.parametrize(
        "config",
        [_relu_orth(4), _hard_tanh("orthogonal", 4), _hard_tanh("orthogonal", 16), _hard_tanh("gaussian", 4)],
        ids=["relu-orth-L4", "hard_tanh-orth-L4", "hard_tanh-orth-L16", "hard_tanh-gauss-L4"],
    )
    def test_probe_tends_to_rule_beside_a_divergence(self, config, monkeypatch):
        # a continuum diverging at 0 adds eps * integral rho eps/(lambda^2 + eps^2)
        # to the probe's reading there: above the rule's zero atom, shrinking
        # toward it as eps -> 0, and at eps = 1e-6 still 5e-3 to 8e-2 off even
        # where the probe accepts (relu-orth-L4, hard_tanh-orth-L4)
        zero_mass = _rule(config)[0][1]
        gaps = []
        for eps in (1e-2, 1e-4, 1e-6):
            monkeypatch.setattr(master, "_STOP_HEIGHT", eps)
            gaps.append(probe_atom(config, 0.0)[0] - zero_mass)
        assert 0.0 < gaps[2] < gaps[1] < gaps[0]

    def test_linear_orthogonal_unit_atom(self):
        mass, ok = probe_atom(_linear_orth(), 1.0)
        assert ok and mass == pytest.approx(1.0, abs=1e-6)
        mass, ok = probe_atom(_linear_orth(), 0.0)
        assert not ok

    def test_relu_half_half(self):
        for loc in (0.0, 2.0):
            mass, ok = probe_atom(_relu_orth(1), loc)
            assert ok and mass == pytest.approx(0.5, abs=1e-6)

    def test_deep_bernoulli_top_atom(self):
        cfg = double_scaled_config(get_activation("hard_tanh"), 1024, 0.25)
        loc = cfg.sigma_w ** (2 * 1024)
        p = 1024.0 / 1024.25
        mass, ok = probe_atom(cfg, loc)
        assert ok
        assert mass == pytest.approx(1.0 - 1024 * (1.0 - p), abs=1e-4)
        assert math.sqrt(loc) == pytest.approx(math.exp(0.125), abs=1e-3)


class TestDensity:
    def test_degenerate_linear_orthogonal(self):
        cfg = _linear_orth(depth=64)
        d = density(cfg, make_lambda_grid(3.0, lam_min=1e-4, n=200))
        assert d.atoms == ((1.0, pytest.approx(1.0, abs=1e-6)),)
        assert d.continuum_mass() <= 1e-3

    def test_mp_profile_and_flags(self):
        grid = make_lambda_grid(4.2, lam_min=1e-4, n=400)
        d = density(_linear_gauss(), grid)
        exact = mp_density(d.grid)
        interior = (d.grid > 0.1) & (d.grid < 3.9)
        assert np.max(np.abs(d.rho - exact)[interior]) <= 5e-4
        # no atom, so every grid point is kept, the hard edges included
        np.testing.assert_array_equal(d.grid, grid)

    @pytest.mark.parametrize("depth", [1, 4])
    def test_point_on_a_square_root_edge(self, depth):
        # the grid's top on the Fuss-Catalan edge (L+1)^{L+1}/L^L (4 at L = 1): dz/dG = 0 there, so
        # Newton on the axis converges only linearly, in 11 (L = 1) and 9 (L = 4) iterations
        edge = (depth + 1) ** (depth + 1) / depth**depth
        d = density(_linear_gauss(depth), make_lambda_grid(edge, n=600))
        assert d.grid[-1] == edge
        assert d.rho[-1] <= 1e-6 * d.rho.max()

    def test_fuss_catalan_oracle_at_depth_1(self):
        # FC_1 is the Marchenko-Pastur law
        lam = np.linspace(1e-6, 4.5, 1001)
        np.testing.assert_allclose(fuss_catalan_density(1, lam), mp_density(lam), rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("depth", [1, 4, 64, 256, 1024])
    def test_fuss_catalan_at_depth(self, depth):
        # an exact oracle at any depth: linear Gaussian layers at sigma_w = 1 give FC_L
        edge = (depth + 1) ** (depth + 1) / depth**depth
        d = density(_linear_gauss(depth), make_lambda_grid(1.2 * edge))
        exact = fuss_catalan_density(depth, d.grid)
        top = exact.max()
        bulk = exact > 1e-6 * top
        assert np.max(np.abs(d.rho[bulk] / exact[bulk] - 1.0)) <= 1e-8
        assert np.max(d.rho[d.grid > edge]) <= 1e-15 * top

    def test_normalization_and_first_moment(self):
        # grid adequacy is the caller's job: the depth-2 projection product
        # has a hard edge at 4 that wants geometric refinement from below,
        # and the gaussian product has a long right tail
        edge_refine = np.concatenate([4.0 - np.geomspace(1e-7, 1.0, 80), 4.0 + np.geomspace(1e-7, 0.5, 60)])
        grid_relu = np.unique(np.concatenate([make_lambda_grid(6.0, lam_min=1e-8, n=700), edge_refine]))
        grid_gauss = make_lambda_grid(28.0, lam_min=1e-8, n=800)
        for cfg, grid in [(_relu_orth(2), grid_relu), (_linear_gauss(2), grid_gauss)]:
            d = density(cfg, grid)
            assert abs(d.total_mass() - 1.0) <= 2e-2
            ms = jacobian_moments(cfg)
            assert moments_from_density(d, 1) == pytest.approx(ms.m1, abs=1e-2)

    @pytest.mark.parametrize("bad", [0.0, -1.0])
    def test_grid_must_be_positive(self, bad):
        # at z = 0, M = zG - 1 sits on the residual's pole -1
        cfg = _hard_tanh("orthogonal", 4)  # its zero atom does not make 0 a grid point
        with pytest.raises(ValueError, match="positive"):
            density(cfg, np.concatenate([[bad], make_lambda_grid(3.0, lam_min=5e-5, n=60)]))

    def test_point_at_an_atom_dropped(self):
        # M has a pole at an atom, so that point goes; its neighbours read the
        # continuum on the axis.  ds-hard_tanh L256, its default grid with the
        # top atom (mass 0.75) inserted: read at lambda + i eps, the atom's
        # Lorentzian tail put 5.4e-3 on the next point (1.2905) and 6.7e-3
        # into the mass, where the continuum is 0
        cfg = _THEORY_CONFIGS["ds-hard_tanh-L256"]()
        (_, _), (top, mass) = _rule(cfg)
        grid = make_lambda_grid(default_lam_max(jacobian_moments(cfg)), n=600)
        d = density(cfg, np.union1d(grid, [top]))
        np.testing.assert_array_equal(d.grid, grid)
        near = np.abs(grid - top) < 1e-2
        assert near.sum() >= 2 and mass > 0.7
        assert np.all(d.rho[near] <= 1e-12)

    def test_failure_budget_raises(self, monkeypatch):
        # any lost point raises, and the error names the first lost lambda
        grid = make_lambda_grid(4.0, n=100)
        with monkeypatch.context() as mp:
            mp.setattr(master, "_NEWTON_ITERS", 0)  # every Newton fails, at the march's first step
            with pytest.raises(BranchLossError, match=f"lambda={grid[0]:.6g} \\(step 1; 100 of 100") as err:
                density(_linear_gauss(), grid)
        assert err.value.step_index == 1 and err.value.last_iterate is not None
        # one lost point of 100 is enough, seeded (37) or an anchor (48)
        assert 37 % master._ANCHOR_STRIDE != 0 == 48 % master._ANCHOR_STRIDE
        solve = master._solve_grid
        for lost in (37, 48):

            def lose_one(*args):
                w, converged, fail_step = solve(*args)
                converged[lost], fail_step[lost] = False, 5
                return w, converged, fail_step

            monkeypatch.setattr(master, "_solve_grid", lose_one)
            with pytest.raises(BranchLossError, match=f"lambda={grid[lost]:.6g} \\(step 5; 1 of 100") as err:
                density(_linear_gauss(), grid)
            assert err.value.step_index == 5


# ---------------------------------------------------------------------------
# the analytic f' against a central difference, and the Newton it drives against one on that difference

_FD_STEP = 1e-6


def _central_difference(fdf):
    """fdf with f' replaced by a central difference of f along the real axis: three evaluations per point."""

    def cd(w):
        h = _FD_STEP * np.abs(w)
        return fdf(w)[0], (fdf(w + h)[0] - fdf(w - h)[0]) / (2.0 * h)

    return cd


def _solve(config, grid, fdf=None, **constants):
    """density() with each solver's fdf wrapped by ``fdf`` and the given module constants."""
    with pytest.MonkeyPatch.context() as mp:
        if fdf is not None:
            own = master._Solver.fdf
            mp.setattr(master._Solver, "fdf", lambda self, w: fdf(lambda v: own(self, v))(w))
        for name, value in constants.items():
            mp.setattr(master, name, value)
        with warnings.catch_warnings():
            # on the coarse or deep grids of these comparisons (12-150 points, some from 1e-30 or below) the
            # trapezoid misses the closed-form mass by more than MASS_TOL: not what is compared here
            warnings.simplefilter("ignore", UserWarning)
            return density(config, grid)


def _agree(new, ref, rel=1e-8):
    """Same grid and atoms, and rho within rel max rho, or where it is rounding noise far below the
    support (|rho| lambda <= 1e-10, a mass of that per unit of log lambda)."""
    if not (np.array_equal(new.grid, ref.grid) and new.atoms == ref.atoms):
        return False
    diff = np.abs(new.rho - ref.rho)
    return bool(np.all((diff <= rel * ref.rho.max()) | (diff * ref.grid <= 1e-10)))


def _resolved_rel_diff(new, ref):
    """Largest |rho - rho_ref| / rho_ref over the resolved points, rho_ref > 1e-6 max rho_ref."""
    resolved = ref.rho > 1e-6 * ref.rho.max()
    return float(np.max(np.abs(new.rho - ref.rho)[resolved] / ref.rho[resolved]))


_REFERENCE_CONFIGS = {
    "hard_tanh-orth-L16": lambda: critical_config(get_activation("hard_tanh"), "orthogonal", 0.2, 16),
    "tanh-gauss-L16": lambda: critical_config(get_activation("tanh"), "gaussian", 0.2, 16),
    "erf_sm-orth-L64": lambda: critical_config(get_activation("erf_sm"), "orthogonal", 0.2, 64),
    "ds-hard_tanh-L16": lambda: double_scaled_config(get_activation("hard_tanh"), 16, 0.25),
}


@pytest.fixture(scope="module", params=sorted(_REFERENCE_CONFIGS))
def both_solves(request):
    config = _REFERENCE_CONFIGS[request.param]()
    grid = make_lambda_grid(default_lam_max(jacobian_moments(config)), n=60)
    return _solve(config, grid), _solve(config, grid, _central_difference)


class TestAgainstCentralDifferenceNewton:
    def test_no_point_fails(self, both_solves):
        # density() raises on a lost point, so both solves returned every point
        for dens in both_solves:
            assert dens.rho.size > 0

    def test_density_within_noise_envelope(self, both_solves):
        # the same roots: a derivative off by the difference's 1e-10 only slows Newton down
        new, ref = both_solves
        assert _agree(new, ref, 1e-10)
        assert _resolved_rel_diff(new, ref) <= 1e-8

    def test_same_atoms(self, both_solves):
        new, ref = both_solves
        assert new.atoms == ref.atoms

    def test_fewer_residual_evaluations(self, both_solves):
        new, ref = both_solves
        assert new.metadata["residual_evals"] <= 0.4 * ref.metadata["residual_evals"]
        assert 0 < new.metadata["newton_iters"] <= new.metadata["residual_evals"]


@pytest.mark.parametrize("name", ["hard_tanh", "tanh", "silu"])
@pytest.mark.parametrize("ensemble", ["orthogonal", "gaussian"])
def test_analytic_derivative_matches_central_difference(name, ensemble):
    config = NetworkConfig(get_activation(name), WeightEnsemble(ensemble), 1.3, 0.1, depth=8, qstar=0.9)
    solver = master._Solver(config)
    rng = np.random.default_rng(5)
    w = rng.uniform(0.05, 3.0, 50) + 1j * rng.uniform(0.05, 2.0, 50)
    _, df = solver.fdf(w)
    h = 1e-5 * np.abs(w)
    df_cd = (solver.fdf(w + h)[0] - solver.fdf(w - h)[0]) / (2.0 * h)
    assert np.all(np.abs(df - df_cd) <= 1e-6 * np.abs(df))


# ---------------------------------------------------------------------------
# the seeded grid solve against a fixed ladder that shares none of its march: every point marched alone from a
# fixed height by factors of 1.5, each step by a plain Newton from the last root

_FIXED_RATIO = 1.5
_FIXED_TOP = 1.5**40  # every reference march starts at lambda + i 1.5^40, far above these configs' spectra
_FIXED_ITERS = 100


def _plain_newton(fdf, w, target):
    """Test-only Newton on f(w) = target, undamped, each iterate below the real axis replaced by its conjugate:
    the iterate of least residual within _FIXED_ITERS steps, and whether it is within 100 times master's
    tolerance.  Every point is evaluated at every step, so a stalled one costs no logic."""
    tol = master._NEWTON_TOL * (1.0 + np.abs(target))
    best, best_res = w.copy(), np.full(w.size, np.inf)
    with np.errstate(all="ignore"):
        for _ in range(_FIXED_ITERS):
            f, df = fdf(w)
            res = np.abs(f - target)
            better = res < best_res
            best[better], best_res[better] = w[better], res[better]
            if np.all(best_res <= tol):
                break
            w = w - (f - target) / df
            w = np.where(np.signbit(w.imag), w.conj(), w)
    return best, best_res <= 100.0 * tol


def _fixed_march(solver, lam, heights):
    """w at z = lam + i heights (rows; columns: points, marched alone), from the large-z limit w = z/(sigma_w^{2L}
    mu^{L-1}) at the first row, each next row by ``_plain_newton`` seeded with x held fixed (w scaled by
    (z'/z)^{1/L}).  Returns (w at every row, the row at which each column was lost or -1)."""
    L, z = solver.depth, lam + 1j * heights
    log_mu = math.log(float(np.sum(solver.c.real * solver.t)))
    w = np.exp(np.log(z[0]) - L * solver.log_sw2 - (L - 1) * log_mu)
    path, lost = np.empty(z.shape, dtype=complex), np.full(z.shape[1], -1)
    for k in range(z.shape[0]):
        if k:
            w = w * np.exp((np.log(z[k]) - np.log(z[k - 1])) / L)
        w, ok = _plain_newton(solver.fdf, w, np.log(z[k]) / L - solver.log_sw2)
        lost[(lost < 0) & ~ok] = k + 1
        path[k] = w
    return path, lost


def _fixed_ladder(solver, lams):
    """Test-only reference for ``master._solve_grid``: every point marched by ``_fixed_march`` from height 1.5^40
    down by factors of 1.5 to 1e-3 lambda (a point that reaches it stays there), then onto the axis, and no point
    seeded from another.  Same return as ``master._solve_grid``."""
    stop = 1e-3 * lams
    steps = math.ceil(math.log(_FIXED_TOP / stop.min()) / math.log(_FIXED_RATIO))
    heights = np.maximum(_FIXED_TOP * _FIXED_RATIO ** -np.arange(steps + 1.0)[:, None], stop)
    path, lost = _fixed_march(solver, lams, np.vstack([heights, np.zeros(lams.size)]))
    return path[-1], lost < 0, lost


_THEORY_CONFIGS = {
    "hard_tanh-orth-L16": lambda: critical_config(get_activation("hard_tanh"), "orthogonal", 0.2, 16),
    "tanh-gauss-L16": lambda: critical_config(get_activation("tanh"), "gaussian", 0.2, 16),
    "tanh-orth-L4": lambda: critical_config(get_activation("tanh"), "orthogonal", 0.2, 4),
    "erf_sm-orth-L64": lambda: critical_config(get_activation("erf_sm"), "orthogonal", 0.2, 64),
    "ds-erf_sm-L256": lambda: double_scaled_config(get_activation("erf_sm"), 256, 0.25),
    "ds-hard_tanh-L256": lambda: double_scaled_config(get_activation("hard_tanh"), 256, 0.25),
}


@pytest.fixture(scope="module", params=sorted(_THEORY_CONFIGS))
def against_fixed(request):
    config = _THEORY_CONFIGS[request.param]()
    grid = make_lambda_grid(default_lam_max(jacobian_moments(config)), n=120)
    return _solve(config, grid), _solve(config, grid, _solve_grid=_fixed_ladder)


class TestAgainstFixedLadder:
    def test_no_point_fails(self, against_fixed):
        # density() raises on a lost point, so both solves returned every point
        new, ref = against_fixed
        np.testing.assert_array_equal(new.grid, ref.grid)

    def test_density_within_noise_envelope(self, against_fixed):
        new, ref = against_fixed
        assert _agree(new, ref, 1e-9)
        assert _resolved_rel_diff(new, ref) <= 1e-7  # 8e-13 measured

    def test_same_atoms(self, against_fixed):
        new, ref = against_fixed
        assert new.atoms == ref.atoms

    def test_fewer_residual_evaluations(self, against_fixed):
        new, ref = against_fixed
        assert new.metadata["residual_evals"] < ref.metadata["residual_evals"]


@pytest.mark.parametrize("name", ["hard_tanh-orth-L16", "tanh-gauss-L16", "tanh-orth-L4", "erf_sm-orth-L64"])
def test_roots_solve_the_master_equation(name, master_residual, monkeypatch):
    # the roots w that density() reads rho at give G = (1 + x(w))/lambda, which solves the paper's equation in G
    config, seen = _THEORY_CONFIGS[name](), []
    solve = master._solve_grid

    def spy(solver, lams):
        out = solve(solver, lams)
        seen.append((solver, lams, out[0]))
        return out

    monkeypatch.setattr(master, "_solve_grid", spy)
    density(config, make_lambda_grid(default_lam_max(jacobian_moments(config)), n=200))
    (solver, lams, w), = seen
    x, one_x, _ = solver.x(w)
    residual = master_residual(config, one_x / lams, lams)
    assert np.all(np.abs(residual) <= 1e-12 * np.abs(x))  # 1.5e-15 |x| measured


def _eps_G(solver, location, h, w):
    """eps |Im G| at z = location + i h from the roots w, with G = (1 + x)/z and 1 + x = w sum c/(w - t)."""
    one_x = w * np.sum(solver.c.real / (w[:, None] - solver.t), axis=1)
    return h * np.abs((one_x / (location + 1j * h)).imag)


def _probe_readings(config, location):
    """probe_atom's verdict, its last five heights and its readings eps |Im G| there, through a spy on its march."""
    marches, march = [], master._Solver.march

    def spy(self, lam, heights, read=1):
        out = march(self, lam, heights, read)
        marches.append((self, heights[-5:, 0], out[0][-5:, 0]))
        return out

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(master._Solver, "march", spy)
        verdict = probe_atom(config, location)
    (solver, h, w), = marches
    return verdict, h, _eps_G(solver, location, h, w)


def _probe_reference(config, location, h):
    """The readings at the heights h from ``_fixed_march``, down by factors of 1.5 from 1.5^40 to h[0] and then
    through h, and the verdict probe_atom's rule gives them."""
    solver = master._Solver(config)
    steps = math.ceil(math.log(_FIXED_TOP / h[0]) / math.log(_FIXED_RATIO))
    heights = np.append(_FIXED_TOP * _FIXED_RATIO ** -np.arange(steps), h)[:, None]
    w, lost = _fixed_march(solver, np.array([location]), heights)
    assert lost[0] < 0
    vals = _eps_G(solver, location, h, w[-h.size:, 0])
    mass = min(float(vals[-1]), 1.0)
    return (mass, bool((vals.max() - vals.min()) / vals.mean() <= 0.02 and mass >= 1e-3)), vals


@pytest.mark.parametrize("config", _PROBE_CONFIGS, ids=_PROBE_IDS)
def test_probe_matches_fixed_ladder(config):
    # every reading, and the mass and verdict, agree to 1e-9 or within the noise of both: a residual of 1e-14
    # in f = (log z)/L + ... moves z by L 1e-14 lambda, and eps |G| ~ mass lambda/eps by mass L 1e-14 lambda/eps
    # (1e-5 at the top atom of ds-L1024 at eps = 1e-6)
    for loc, mass in _rule(config):
        (probed, ok), h, vals = _probe_readings(config, loc)
        (ref_mass, ref_ok), ref_vals = _probe_reference(config, loc, h)
        noise = np.maximum(1e-9, mass * config.depth * 1e-14 * loc / h)
        assert ok == ref_ok
        assert np.all(np.abs(vals - ref_vals) <= noise)
        assert abs(probed - ref_mass) <= noise[-1]


@pytest.mark.parametrize(
    "config,lam_min",
    [
        (critical_config(get_activation("erf_sm"), "orthogonal", 0.2, 2), 1e-4),
        (double_scaled_config(get_activation("erf_sm"), 4, 0.25), 1e-4),
        (_THEORY_CONFIGS["tanh-orth-L4"](), 1e-30),
        (double_scaled_config(get_activation("erf_sm"), 1024, 4.0), 1e-30),
    ],
    ids=["erf_sm-orth-L2", "ds-erf_sm-L4", "tanh-orth-L4-deep", "ds-erf_sm-L1024-s4-deep"],
)
def test_step_sign_check(config, lam_min):
    # Newton reflects its iterates into Im w >= 0, where the physical root lies, and marches from above the
    # spectrum: so the seeded solve agrees with the fixed ladder on grids where the ladder's G-space steps,
    # without their Im M < 0 check, landed on roots off the physical branch (the density then read negative)
    grid = make_lambda_grid(default_lam_max(jacobian_moments(config)), lam_min=lam_min, n=150)
    new, ref = _solve(config, grid), _solve(config, grid, _solve_grid=_fixed_ladder)
    assert _agree(new, ref, 1e-9)
    assert _resolved_rel_diff(new, ref) <= 1e-7  # 6e-12 measured


# ---------------------------------------------------------------------------
# the readout on the real axis against the readout off it


def _readout_at_height(config, grid, scale):
    """Test-only: the offset readout rho = -Im G / pi at z = lambda + i scale*min(1e-6, 1e-3 lambda).

    Newton at z from the root on the axis, to the axis tolerance, stays on its branch.
    """
    solver = master._Solver(config)
    w, converged, _ = master._solve_grid(solver, grid)
    z = grid + 1j * scale * np.minimum(1e-6, 1e-3 * grid)
    w, ok = solver.solve(w, z)
    assert converged.all() and ok.all()
    return -(solver.x(w)[1] / z).imag / math.pi


def _default_density(config):
    """The config's default 600-point grid and density() on it."""
    grid = make_lambda_grid(default_lam_max(jacobian_moments(config)), n=600)
    return grid, density(config, grid)


@pytest.fixture(scope="module", params=sorted(_THEORY_CONFIGS))
def on_axis(request):
    config = _THEORY_CONFIGS[request.param]()
    return config, *_default_density(config)


class TestOnAxisReadout:
    def test_is_the_limit_of_the_offset_readout(self, on_axis):
        # where the continuum is resolved and no atom lies within 1e-2, the
        # readout at height eps is biased linearly in eps (gaps of 9e-5 to
        # 7e-3 relative at eps = min(1e-6, 1e-3 lambda)): a tenth of the
        # height leaves a tenth of the gap to the axis
        config, grid, dens = on_axis
        np.testing.assert_array_equal(dens.grid, grid)
        gap, gap_tenth = (np.abs(dens.rho - _readout_at_height(config, grid, scale)) for scale in (1.0, 0.1))
        resolved = dens.rho > 1e-3 * dens.rho.max()
        for loc, _ in dens.atoms:
            resolved &= np.abs(grid - loc) > 1e-2
        gap, gap_tenth = gap[resolved], gap_tenth[resolved]
        assert np.max(gap / dens.rho[resolved]) >= 5e-5
        assert gap.max() / gap_tenth.max() == pytest.approx(10.0, rel=2e-2)
        assert np.median(gap / gap_tenth) == pytest.approx(10.0, rel=1e-3)

    @pytest.mark.parametrize("scale", [10.0, 0.1])
    def test_independent_of_the_stop_height(self, on_axis, scale, monkeypatch):
        # the march's last height before the axis, 0.1 lambda, at lambda and at 0.01 lambda
        config, grid, dens = on_axis
        monkeypatch.setattr(master, "_MARCH_END", master._MARCH_END * scale)
        moved = _default_density(config)[1]
        assert np.max(np.abs(moved.rho - dens.rho)) <= 1e-9 * dens.rho.max()

    def test_report_counts_the_solve_on_the_axis(self, on_axis, monkeypatch):
        # every point ends with one Newton at z = lambda, a fallback point with two, and only marched points
        # (anchors and fallback) are solved off the axis; each solve evaluates f at least once, at its seed
        config, grid, dens = on_axis
        at_lam, off_axis, solve = [], [], master._Solver.solve

        def spy(self, w, z, *args):
            (off_axis if np.any(np.imag(z)) else at_lam).append(np.real(z))
            return solve(self, w, z, *args)

        monkeypatch.setattr(master._Solver, "solve", spy)
        meta = _default_density(config)[1].metadata
        assert meta == dens.metadata
        solved = np.concatenate(at_lam)
        np.testing.assert_array_equal(np.unique(solved), grid)
        assert solved.size == grid.size + meta["fallback_points"]
        assert np.unique(np.concatenate(off_axis)).size == meta["anchor_points"] + meta["fallback_points"]
        assert meta["residual_evals"] >= solved.size + np.concatenate(off_axis).size

    def test_tails_outside_the_support_read_zero(self):
        # ds-erf_sm L256 below its bulk and above its top edge: the root on
        # the axis is real there, where the readout at height min(1e-6, 1e-3
        # lambda) leaves an offset tail of 1.3e-6 to 2.2e-6
        config = _THEORY_CONFIGS["ds-erf_sm-L256"]()
        grid, dens = _default_density(config)
        tail = ((grid >= 0.116) & (grid <= 0.130)) | (np.abs(grid - 2.3155) < 1e-3)
        assert tail.sum() == 4
        assert np.all(dens.rho[tail] <= 1e-12)
        assert np.all(_readout_at_height(config, grid, 1.0)[tail] >= 1e-6)


# ---------------------------------------------------------------------------
# the closed-form mass: F(lam) = 1 - Im H(w(lam))/pi (module docstring), the density's below plus its atoms


def _closed_form_cdf(config, lam):
    """F(lam) from density() on the one-point grid [lam]: its cdf there, below plus the atoms at or under lam."""
    with warnings.catch_warnings():
        # a one-point grid holds no continuum, so its total mass is F(lam), not one: not what is read here
        warnings.simplefilter("ignore", UserWarning)
        dens = density(config, np.array([lam]))
    assert dens.cdf(lam)[0] == dens.below + sum(m for loc, m in dens.atoms if loc <= lam)
    return float(dens.cdf(lam)[0])


# every piecewise unit of the registry at L = 4 with orthogonal weights (critical where the unit has a critical
# line, else at q* = 1), and ds-hard_tanh L256, whose top atom of 0.75 sits on the continuum's edge
_ATOM_JUMP_CONFIGS = {
    "linear-orth-L4": lambda: _linear_orth(4),
    "relu-orth-L4": lambda: _relu_orth(4),
    "leaky_relu-orth-L4": lambda: NetworkConfig(
        get_activation("leaky_relu"), WeightEnsemble("orthogonal"), 1.2, 0.0, depth=4, qstar=1.0
    ),
    "hard_tanh-orth-L4": lambda: _hard_tanh("orthogonal", 4),
    "shifted_relu-orth-L4": lambda: critical_config(get_activation("shifted_relu"), "orthogonal", 0.2, 4),
    "ds-hard_tanh-L256": _THEORY_CONFIGS["ds-hard_tanh-L256"],
}


class TestClosedFormMass:
    @pytest.mark.parametrize("depth", [1, 4, 64, 1024])
    def test_fc_cdf_runs_from_zero_to_one(self, depth):
        edge = (depth + 1) ** (depth + 1) / depth**depth
        assert fc_cdf(depth, edge * (1.0 - 1e-12)) == pytest.approx(1.0, abs=1e-12)
        assert fc_cdf(depth, 1e-300) < fc_cdf(depth, 1e-4) < fc_cdf(depth, 1.0) < 1.0
        if depth == 1:  # Marchenko-Pastur, whose mass below lam is 2 sqrt(lam)/pi to leading order
            assert fc_cdf(1, 1e-12) == pytest.approx(2e-6 / math.pi, rel=1e-6)

    @pytest.mark.parametrize("depth", [4, 64, 1024])
    def test_is_fuss_catalan_at_depth(self, depth):
        # measured within 8e-14 of the quadrature at L = 1024; the zero atom is absent, so F is below alone
        for lam in (1e-4, 1e-2, 1.0):
            assert _closed_form_cdf(_linear_gauss(depth), lam) == pytest.approx(fc_cdf(depth, lam), abs=1e-12)

    def test_every_piecewise_unit_is_covered(self):
        from jacspectra.activations import registry_names

        piecewise = {name for name in registry_names() if get_activation(name).is_piecewise}
        assert {name.split("-")[0] for name in _ATOM_JUMP_CONFIGS if not name.startswith("ds-")} == piecewise
        with_top_atom = {name for name, make in _ATOM_JUMP_CONFIGS.items() if any(loc > 0 for loc, _ in _rule(make()))}
        assert with_top_atom == {"linear-orth-L4", "hard_tanh-orth-L4", "shifted_relu-orth-L4", "ds-hard_tanh-L256"}

    @pytest.mark.parametrize("name", sorted(_ATOM_JUMP_CONFIGS))
    def test_atom_jumps_are_point_masses(self, name):
        # F(a (1 + d)) - F(a (1 - d)) is Belinschi's mass at each non-zero atom a: 1.4e-14 measured at worst
        config = _ATOM_JUMP_CONFIGS[name]()
        for loc, mass in _rule(config):
            for delta in (1e-3, 1e-6) if loc > 0 else ():
                jump = _closed_form_cdf(config, loc * (1 + delta)) - _closed_form_cdf(config, loc * (1 - delta))
                assert jump == pytest.approx(mass, abs=1e-12)

    @pytest.mark.parametrize("name", ["ds-hard_tanh-L256", "hard_tanh-orth-L4", "shifted_relu-orth-L4"])
    def test_no_continuum_under_an_atom(self, name):
        # rho at a (1 - 10^-k), k = 3..6, added to the default grid: 4.4e-23 at most, where f with log(1 + x) - log x
        # read 7.6e-12 to 2.9e-3 there, a continuum growing like 1/delta^2 toward the atom
        config = _ATOM_JUMP_CONFIGS[name]()
        ((loc, _),) = [atom for atom in _rule(config) if atom[0] > 0]
        below = loc * (1.0 - 10.0 ** -np.arange(3.0, 7.0))
        dens = density(config, np.union1d(make_lambda_grid(default_lam_max(jacobian_moments(config))), below))
        assert np.all(dens.rho[np.isin(dens.grid, below)] < 1e-20)

    def test_deep_bernoulli_continuum_ends_at_lambda_1(self):
        # the last of 3,000 points in [0.05, 3] with rho > 1e-12 max rho reads 0.6736 at L = 64 and 0.6786 at
        # L = 1024, toward the Bernoulli limit's edge lambda_1 = e sigma0^2 = 0.6796; a continuum leaking under the
        # top atom at 1.2839 read 1.2825 and 1.2835
        grid, lam1 = np.linspace(0.05, 3.0, 3000), math.e * 0.25
        tops = []
        for depth in (64, 1024):
            dens = density(double_scaled_config(get_activation("hard_tanh"), depth, 0.25), grid)
            tops.append(dens.grid[dens.rho > 1e-12 * dens.rho.max()][-1])
        assert lam1 - 0.01 < tops[0] < tops[1] < lam1 < tops[1] + 2.0 * (grid[1] - grid[0])

    def test_zero_atom_from_far_below(self):
        # F(1e-100) is the zero atom alone: 0.5 for relu orth L4 (sigma_w = sqrt 2, q* = 1), P(|h| > 1) for hard_tanh
        assert _closed_form_cdf(_relu_orth(4), 1e-100) == pytest.approx(0.5, abs=1e-12)
        (zero, mass), _ = _rule(_hard_tanh("orthogonal", 4))
        assert zero == 0.0 and _closed_form_cdf(_hard_tanh("orthogonal", 4), 1e-100) == pytest.approx(mass, abs=1e-12)

    @pytest.mark.parametrize(
        "config",
        [
            _THEORY_CONFIGS["tanh-orth-L4"](),
            _THEORY_CONFIGS["ds-erf_sm-L256"](),
            double_scaled_config(get_activation("erf_sm"), 1024, 4.0),
        ],
        ids=["tanh-orth-L4", "ds-erf_sm-L256", "ds-erf_sm-L1024-s4"],
    )
    def test_nothing_far_below_the_support(self, config):
        # F stays at 0 from 1e-300 to 1e-24, within the 4e-14 of its rounding
        for lam in (1e-300, 1e-100, 1e-24):
            assert 0.0 <= _closed_form_cdf(config, lam) <= 1e-12

    def test_mass_ledger_closes(self, on_axis):
        # on the six theory configs' default grids, below (0.008-0.63 of the mass), the atoms and the trapezoid on
        # the grid sum to one within 2.5e-4
        _, grid, dens = on_axis
        assert abs(dens.total_mass() - 1.0) <= 1e-3
        assert dens.cdf(grid[0])[0] == dens.below + sum(m for loc, m in dens.atoms if loc <= grid[0])


# ---------------------------------------------------------------------------
# density() raises on any lost point: sweeps that must lose none

_CRITICAL_UNITS = ("tanh", "hard_tanh", "erf_sm", "erf_main", "arctan", "shifted_relu")
# scale-free units within 1% of their critical sigma_w (sqrt 2, sqrt(2/1.09), 1): chi^256 is 8.1, 0.18 and 161
_SCALE_FREE_SIGMA_W = {"relu": 1.42, "leaky_relu": 1.35, "linear": 1.01}


def _sweep_configs():
    for kind in ("orthogonal", "gaussian"):
        for depth in (1, 16, 256):
            for name in _CRITICAL_UNITS:
                yield f"{name}-{kind}-L{depth}", critical_config(get_activation(name), kind, 0.2, depth)
            for name, sw in _SCALE_FREE_SIGMA_W.items():
                config = NetworkConfig(get_activation(name), WeightEnsemble(kind), sw, 0.0, depth=depth, qstar=1.0)
                yield f"{name}-{kind}-L{depth}", config


# the sweep's L = 1 orthogonal smooth units, whose law the quadrature makes discrete: density() refuses them
_REFUSED = [f"{name}-orthogonal-L1" for name in ("tanh", "erf_sm", "erf_main", "arctan")]


def _sweep_grid(config):
    return make_lambda_grid(default_lam_max(jacobian_moments(config)), lam_min=1e-30, n=100)


def test_no_point_lost_across_units():
    lost, refused = [], []
    for name, config in _sweep_configs():
        grid = _sweep_grid(config)
        try:
            with warnings.catch_warnings():
                # on these 100 points from 1e-30 the trapezoid misses the closed-form mass by 0.02-0.37 in 45 of the
                # 50 configs solved: not what is checked here
                warnings.simplefilter("ignore", UserWarning)
                density(config, grid)
        except BranchLossError as err:
            lost.append(f"{name}: {err}")
        except JacspectraError as err:
            refused.append(name)
            assert "at L = 1 with orthogonal weights" in str(err)
    assert not lost
    assert refused == _REFUSED


# chi^L far from 1 at q* = 1: every march starts above its own point and the spectrum's scale chi^L, where the
# ladder's one start height lost 97, 78, 97, 6 and 23 of these 100 points
_FAR_CHI = {
    "relu-orth-1.3": ("relu", "orthogonal", 1.3, 256),
    "relu-orth-1.02sqrt2": ("relu", "orthogonal", 1.02 * math.sqrt(2.0), 256),
    "relu-gauss-1.3": ("relu", "gaussian", 1.3, 256),
    "linear-gauss-1.2": ("linear", "gaussian", 1.2, 256),
    "linear-gauss-1-L64": ("linear", "gaussian", 1.0, 64),
}


@pytest.mark.parametrize("name", sorted(_FAR_CHI))
def test_no_point_lost_far_from_chi_one(name):
    act, kind, sw, depth = _FAR_CHI[name]
    config = NetworkConfig(get_activation(act), WeightEnsemble(kind), sw, 0.0, depth=depth, qstar=1.0)
    grid = np.geomspace(1e-30, 1e30, 100)
    with warnings.catch_warnings():
        # 100 points over 60 decades: the trapezoid over-counts the mass by 2-24 %, not what is checked here
        warnings.simplefilter("ignore", UserWarning)
        dens = density(config, grid)  # raises BranchLossError on a lost point
    np.testing.assert_array_equal(dens.grid, grid)
    if act == "linear":
        # sigma_w^{-2L} J J^T is Fuss-Catalan
        scale = sw ** (2 * depth)
        exact = fuss_catalan_density(depth, grid / scale) / scale
        bulk = exact > 1e-6 * exact.max()
        assert bulk.sum() >= 10
        assert np.max(np.abs(dens.rho[bulk] / exact[bulk] - 1.0)) <= 1e-8


# ---------------------------------------------------------------------------
# the pruned squared-slope law against the one on every node of the rule

# the theory-spectrum configs of the benchmark's theory and mc workloads,
# with their grid sizes
_WORKLOAD_CONFIGS = {
    "hard_tanh-orth-L16": (lambda: critical_config(get_activation("hard_tanh"), "orthogonal", 0.2, 16), 600),
    "tanh-gauss-L16": (lambda: critical_config(get_activation("tanh"), "gaussian", 0.2, 16), 600),
    "tanh-orth-L4": (lambda: critical_config(get_activation("tanh"), "orthogonal", 0.2, 4), 600),
    "erf_sm-orth-L64": (lambda: critical_config(get_activation("erf_sm"), "orthogonal", 0.2, 64), 600),
    "ds-erf_sm-L256": (lambda: double_scaled_config(get_activation("erf_sm"), 256, 0.25), 600),
    "ds-hard_tanh-L256": (lambda: double_scaled_config(get_activation("hard_tanh"), 256, 0.25), 600),
    "mc-hard_tanh-orth-L16": (lambda: critical_config(get_activation("hard_tanh"), "orthogonal", 0.2, 16), 300),
    "mc-tanh-gauss-L16": (lambda: critical_config(get_activation("tanh"), "gaussian", 0.2, 16), 300),
    "mc-erf_sm-orth-L64": (lambda: critical_config(get_activation("erf_sm"), "orthogonal", 0.2, 64), 300),
}


class TestPrunedSlopeLaw:
    @pytest.mark.parametrize("name", sorted(_WORKLOAD_CONFIGS))
    def test_density_is_unchanged(self, name, unpruned_slope_sq_law, monkeypatch):
        make, points = _WORKLOAD_CONFIGS[name]
        config = make()
        grid = make_lambda_grid(default_lam_max(jacobian_moments(config)), n=points)
        new = density(config, grid)
        monkeypatch.setattr(master, "slope_sq_law", unpruned_slope_sq_law)
        ref = density(config, grid)
        np.testing.assert_array_equal(new.grid, ref.grid)
        np.testing.assert_array_equal(new.rho, ref.rho)
        assert new.atoms == ref.atoms
        for key in ("residual_evals", "newton_iters"):
            assert new.metadata[key] == ref.metadata[key]
        smooth = not config.activation.is_piecewise
        assert new.metadata["slope_nodes"] == (51 if smooth else ref.metadata["slope_nodes"])
        assert ref.metadata["slope_nodes"] == (101 if smooth else 2)

    @pytest.mark.parametrize("name", ["tanh", "erf_sm", "erf_main", "arctan", "silu"])
    @pytest.mark.parametrize("ensemble", ["orthogonal", "gaussian"])
    def test_residual_within_rounding(self, name, ensemble, unpruned_slope_sq_law, monkeypatch):
        # (f, f') with and without the dropped nodes, at random w above the axis and at w within 1e-6 of a
        # dropped node, where a dropped term is largest
        config = NetworkConfig(get_activation(name), WeightEnsemble(ensemble), 1.3, 0.1, depth=8, qstar=0.9)
        solver = master._Solver(config)
        with monkeypatch.context() as mp:
            mp.setattr(master, "slope_sq_law", unpruned_slope_sq_law)
            ref = master._Solver(config)
        assert solver.nodes < ref.nodes
        t_all, c_all = unpruned_slope_sq_law(config.activation, 0.9)
        dropped = t_all[c_all < 1e-30]
        rng = np.random.default_rng(9)
        w = rng.uniform(1e-3, 2.0, 400) + 1j * rng.uniform(1e-6, 2.0, 400)
        w[:200] = rng.choice(dropped, 200) + 1e-6 * rng.uniform(0.0, 1.0, 200) * np.exp(1j * rng.uniform(0.01, 3.1, 200))
        (f, df), (f_ref, df_ref) = solver.fdf(w), ref.fdf(w)
        assert np.all(np.isfinite(f_ref)) and np.all(np.isfinite(df_ref))
        assert np.all(np.abs(f - f_ref) <= 1e-15 * (1.0 + np.abs(f_ref)))
        assert np.all(np.abs(df - df_ref) <= 1e-15 * np.abs(df_ref))


# ---------------------------------------------------------------------------
# the seeded grid solve against one march over the whole grid


def _seeded_and_full(config, grid):
    """The seeded density, the one that marches every point (a stride of 1), and whether they agree."""
    new, ref = _solve(config, grid), _solve(config, grid, _ANCHOR_STRIDE=1)
    return new, ref, _agree(new, ref, 1e-9)


# coarse grids (lam_min None: linear) where seeds from one side, or from ends more than a factor 4
# away, took spurious roots: M = -1 far below the support, or a real M inside it
_COARSE_GRIDS = [
    ("erf_main-gaussian-L1", 12, 1e-30),
    ("erf_sm-gaussian-L1", 12, 1e-4),
    ("erf_main-gaussian-L1", 20, None),
    ("tanh-gaussian-L1", 50, 1e-30),
    ("tanh-orthogonal-L16", 20, 1e-30),
    ("leaky_relu-orthogonal-L16", 20, 1e-30),
]


def _coarse_grid(name, points, lam_min):
    """(config, grid) of one of ``_COARSE_GRIDS``."""
    config = dict(_sweep_configs())[name]
    lam_max = default_lam_max(jacobian_moments(config))
    if lam_min is None:
        return config, np.linspace(lam_max / points, lam_max, points)
    return config, make_lambda_grid(lam_max, lam_min=lam_min, n=points)


class TestSeededGrid:
    def test_matches_full_ladder_across_units(self):
        sweep = [(name, config) for name, config in _sweep_configs() if name not in _REFUSED]
        differ = [name for name, config in sweep if not _seeded_and_full(config, _sweep_grid(config))[2]]
        assert not differ

    @pytest.mark.parametrize("name", sorted(_WORKLOAD_CONFIGS))
    def test_matches_full_ladder_on_workloads(self, name):
        make, points = _WORKLOAD_CONFIGS[name]
        config = make()
        new, ref, same = _seeded_and_full(config, make_lambda_grid(default_lam_max(jacobian_moments(config)), n=points))
        assert same
        meta = new.metadata
        assert meta["anchor_points"] + meta["seeded_points"] == points
        assert 0 <= meta["fallback_points"] <= meta["seeded_points"]
        # 0.18-0.225 measured: a regression of the seeding shows without timing
        assert meta["residual_evals"] <= 0.23 * ref.metadata["residual_evals"]

    @pytest.mark.parametrize("name,points,lam_min", _COARSE_GRIDS)
    def test_matches_full_ladder_on_coarse_grids(self, name, points, lam_min):
        assert _seeded_and_full(*_coarse_grid(name, points, lam_min))[2]


def test_report_tallies_every_residual_evaluation(monkeypatch):
    # the metadata's count is that of the evaluations of x(w) behind f, less the readout's one per point
    make, points = _WORKLOAD_CONFIGS["mc-hard_tanh-orth-L16"]
    config = make()
    grid = make_lambda_grid(default_lam_max(jacobian_moments(config)), n=points)
    evaluated, x = Counter(), master._Solver.x

    def counted(self, w):
        evaluated["points"] += w.size
        return x(self, w)

    monkeypatch.setattr(master._Solver, "x", counted)
    meta = density(config, grid).metadata
    assert meta["anchor_points"] > 0 and meta["seeded_points"] > 0
    assert meta["residual_evals"] == evaluated["points"] - grid.size > 0


def test_failed_seeds_are_marched(monkeypatch):
    # a seeded point whose Newton fails is marched in height like an anchor, to the same root
    make, points = _WORKLOAD_CONFIGS["mc-tanh-gauss-L16"]
    config = make()
    grid = make_lambda_grid(default_lam_max(jacobian_moments(config)), n=points)
    ref = _solve(config, grid)
    solve = master._Solver.solve

    def seeds_fail(self, w, z, *args):
        w, ok = solve(self, w, z, *args)
        return w, ok & (bool(args) | (w.size < 50))  # the two widest levels fail (a march passes its tolerance)

    monkeypatch.setattr(master._Solver, "solve", seeds_fail)
    new = _solve(config, grid)
    assert new.metadata["fallback_points"] == 149 + 75  # strides 1 and 2; the last point is an anchor
    assert _agree(new, ref, 1e-9)


# ---------------------------------------------------------------------------
# special.newton against a plain reference: the same arithmetic on every point, so the same bits


def _assert_same_bits(config, grid, reference):
    with pytest.MonkeyPatch.context() as mp:
        new = _solve(config, grid)
        mp.setattr(master, "newton", reference)
        ref = _solve(config, grid)
    np.testing.assert_array_equal(new.grid, ref.grid)
    assert new.rho.tobytes() == ref.rho.tobytes()
    assert new.atoms == ref.atoms
    assert {k: new.metadata[k] for k in master.WORK_COUNTS} == {k: ref.metadata[k] for k in master.WORK_COUNTS}


class TestLeanNewtonBatch:
    @pytest.mark.parametrize("name", sorted(_WORKLOAD_CONFIGS))
    def test_bit_identical_on_workloads(self, name, newton_reference):
        make, points = _WORKLOAD_CONFIGS[name]
        config = make()
        grid = make_lambda_grid(default_lam_max(jacobian_moments(config)), n=points)
        _assert_same_bits(config, grid, newton_reference)

    @pytest.mark.parametrize("name,points,lam_min", _COARSE_GRIDS)
    def test_bit_identical_on_coarse_grids(self, name, points, lam_min, newton_reference):
        _assert_same_bits(*_coarse_grid(name, points, lam_min), newton_reference)

    def test_one_batch_with_halvings_and_stalls(self, newton_reference):
        # 40 points on the axis, seeded 30% off their roots, under an f with a floor: points halve their
        # steps, converge, stall at the floor, die, or run out of iterations
        config = _THEORY_CONFIGS["tanh-orth-L4"]()
        solver = master._Solver(config)
        lam = make_lambda_grid(8.0, n=40)
        root, solved, _ = master._solve_grid(solver, lam)
        assert solved.all()
        rng = np.random.default_rng(1)
        seed = root * (1.0 + 0.3 * (rng.standard_normal(40) + 1j * rng.standard_normal(40)))
        seed = seed.real + 1j * np.abs(seed.imag)
        target, tol, max_iter = np.log(lam) / config.depth - solver.log_sw2, 1e-14, 6
        # f rounded to a quantum set by the point's root, then moved half a quantum off it: a floor |f - target|
        # cannot pass.  1e-16 lies below the tolerance, so points converge; 1e-13 lies above it but within the 100x
        # at which a stalled point counts as converged; at 1e-6 a stalled point dies
        quantum = np.select([root.real > np.median(root.real), np.arange(40) % 3 == 0], [1e-6, 1e-13], 1e-16)
        calls = []

        def floored(w):
            calls.append(w.size)
            f, df = solver.fdf(w)
            j = np.argmin(np.abs(w[:, None] - root), axis=1)  # the point w belongs to
            q, r = quantum[j], f - target[j]
            f = target[j] + q * (np.round(r.real / q) + 0.5 + 1j * (np.round(r.imag / q) + 0.5))
            # NaN within 1e-6 |w| of two seeds, as at a pole: their first step is the nudge off it
            return np.where(np.isin(j, [5, 25]) & (np.abs(w - seed[j]) < 1e-6 * np.abs(w)), np.nan, f), df

        new = special.newton(floored, seed, target, tol, max_iter, master._DAMPING_HALVINGS)
        new_calls, calls[:] = calls[:], []
        ref = newton_reference(floored, seed, target, tol, max_iter, master._DAMPING_HALVINGS)
        for a, b in zip(new, ref):  # w, converged, iterations
            assert a.tobytes() == b.tobytes()
        assert new_calls == calls
        w, converged, iters = new
        assert len(calls) > 1 + iters.max()  # some steps were halved
        assert np.all(iters[[5, 25]] > 1)  # past the nudge
        floor = quantum[np.argmin(np.abs(w[:, None] - root), axis=1)] > tol
        assert np.any(converged & ~floor) and np.any(converged & floor)
        assert np.any(~converged & (iters < max_iter)) and np.any(~converged & (iters == max_iter))

    @pytest.mark.parametrize(
        "name,res_calls,batches",
        [
            ("hard_tanh-orth-L16", 80, 20),
            ("tanh-gauss-L16", 113, 25),
            ("tanh-orth-L4", 90, 21),
            ("erf_sm-orth-L64", 131, 26),
            ("ds-erf_sm-L256", 102, 21),
            ("ds-hard_tanh-L256", 70, 18),
        ],
    )
    def test_call_budget(self, name, res_calls, batches, monkeypatch):
        # the solve is bound by numpy calls, not by points: calls of f and Newton batches per density() stay
        # within the counts of the G-space ladder and Newton batch this one replaced, and no batch is empty
        make, points = _WORKLOAD_CONFIGS[name]
        config = make()
        grid = make_lambda_grid(default_lam_max(jacobian_moments(config)), n=points)
        sizes, calls, fdf, newton = [], Counter(), master._Solver.fdf, master.newton

        def counting_fdf(self, w):
            calls["f"] += 1
            return fdf(self, w)

        def counting_newton(fdf, w, *args):
            sizes.append(w.size)
            return newton(fdf, w, *args)

        monkeypatch.setattr(master._Solver, "fdf", counting_fdf)
        monkeypatch.setattr(master, "newton", counting_newton)
        meta = density(config, grid).metadata
        assert meta["fallback_points"] == 0
        assert calls["f"] <= res_calls and len(sizes) <= batches
        assert min(sizes) > 0
