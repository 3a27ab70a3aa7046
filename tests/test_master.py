import math
import warnings
from collections import Counter

import numpy as np
import pytest

from jacspectra.activations import get_activation
from jacspectra.density import make_lambda_grid
from jacspectra.ensembles import WeightEnsemble
from jacspectra.errors import BranchLossError, PoleError
from jacspectra import master
from jacspectra.master import (
    default_lam_max,
    density,
    master_residual,
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


def fuss_catalan_density(depth, lam):
    """The Fuss-Catalan density FC_L (moments C((L+1)k, k)/(Lk + 1)) of J J^T for L linear Gaussian layers.

    Haagerup and Moeller's parametrisation, phi in (0, pi/(L+1)):
        lam(phi) = sin^{L+1}((L+1) phi) / (sin(phi) sin^L(L phi)),
        rho(phi) = sin^2(phi) sin^{L-1}(L phi) / (pi sin^L((L+1) phi)),
    with lam falling from the edge (L+1)^{L+1}/L^L at phi = 0 to 0.  Each lam is bisected in phi on
    log lam to the last float, and rho formed from logs, so that L = 1024 does not underflow; 0 off
    the support.
    """
    L, lam = depth, np.asarray(lam, dtype=float)

    def log_sines(phi):
        return np.log(np.sin(phi)), np.log(np.sin(L * phi)), np.log(np.sin((L + 1) * phi))

    def log_lam(phi):
        s, s_l, s_l1 = log_sines(phi)
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
    s, s_l, s_l1 = log_sines(0.5 * (lo + hi))
    rho = np.zeros_like(lam)
    rho[inside] = np.exp(2.0 * s + (L - 1) * s_l - L * s_l1) / math.pi
    return rho


class TestMasterResidual:
    def test_orthogonal_identity_spectrum_is_exact_root(self):
        z = 2.0 + 1.0j
        assert master_residual(_linear_orth(), 1.0 / (z - 1.0), z) == 0

    def test_mp_stieltjes_is_root(self, mp_oracle):
        z = complex(*mp_oracle["stieltjes_z"])
        g_closed = (z - np.sqrt(z * (z - 4.0))) / (2.0 * z)
        # closed form agrees with the pooled-sample transform ...
        g_emp = complex(*mp_oracle["stieltjes_empirical"])
        assert abs(g_closed - g_emp) <= 1e-3
        # ... and solves the depth-1 gaussian master equation
        assert abs(master_residual(_linear_gauss(), g_closed, z)) <= 1e-8

    def test_asymptotic_residual(self):
        z = 1e6 + 1.0j
        for cfg in (_linear_orth(), _linear_gauss(), _relu_orth()):
            assert abs(master_residual(cfg, 1.0 / z, z)) <= 1e-4

    def test_pole_error(self):
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
        monkeypatch.setattr(master, "_STEP_MAX_ITERS", 0)  # every step that needs Newton is rejected
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
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # mass lost below the grid at L = 4: not what is checked here
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
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # mass lost below the grid's 1e-4: not what is checked here
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
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # mass lost below the grid: not what is checked here
            d = density(cfg, np.union1d(grid, [top]))
        np.testing.assert_array_equal(d.grid, grid)
        near = np.abs(grid - top) < 1e-2
        assert near.sum() >= 2 and mass > 0.7
        assert np.all(d.rho[near] <= 1e-12)

    def test_failure_budget_raises(self, monkeypatch):
        # any lost point raises, and the error names the first lost lambda
        grid = make_lambda_grid(4.0, n=100)
        with monkeypatch.context() as mp:
            mp.setattr(master, "_STEP_MAX_ITERS", 0)
            with pytest.raises(BranchLossError, match=f"lambda={grid[0]:.6g} ") as err:
                density(_linear_gauss(), grid)
        assert err.value.step_index >= 1
        # one lost point of 100 is enough, seeded (37) or an anchor (40), at a ladder step or on the axis (-1)
        assert 37 % master._ANCHOR_STRIDE != 0 == 40 % master._ANCHOR_STRIDE
        solve = master._solve_grid
        for lost, step, where in ((37, 5, "step 5"), (40, 5, "step 5"), (37, -1, "on the real axis")):

            def lose_one(*args):
                G, converged, fail_step = solve(*args)
                converged[lost], fail_step[lost] = False, step
                return G, converged, fail_step

            monkeypatch.setattr(master, "_solve_grid", lose_one)
            with pytest.raises(BranchLossError, match=f"lambda={grid[lost]:.6g} \\({where}; 1 of 100") as err:
                density(_linear_gauss(), grid)
            assert err.value.step_index == (None if step < 0 else step)


# ---------------------------------------------------------------------------
# the analytic-derivative Newton against the central-difference one it replaced

_FD_STEP = 1e-4


def _central_difference_newton(res_fn, z, z_root, G, tol, max_iter):
    """Test-only reference: the damped Newton with a central-difference dR/dG.

    It evaluates the residual afresh at every iterate, twice more for the
    difference and again in the line search; only R of ``res_fn``'s
    (R, dR/dG) is used.
    """

    def res(G, idx):
        return res_fn(G, z[idx], z_root[idx])[0]

    n = G.shape[0]
    converged = np.zeros(n, dtype=bool)
    alive = np.ones(n, dtype=bool)
    iters = np.zeros(n, dtype=int)
    G = G.copy()
    for _ in range(max_iter):
        idx = np.nonzero(alive & ~converged)[0]
        if idx.size == 0:
            break
        Gi, zi = G[idx], z[idx]
        R = res(Gi, idx)
        absM = np.abs(zi * Gi - 1.0)
        tol_eff = tol * absM + 64.0 * np.finfo(float).eps * (1.0 + absM) ** 2
        ok = np.abs(R) <= tol_eff
        converged[idx[ok]] = True
        idx = idx[~ok]
        if idx.size == 0:
            continue
        Gi, zi, R, tol_eff = G[idx], z[idx], R[~ok], tol_eff[~ok]
        # difference along the direction that moves M = zG - 1 parallel to
        # the real axis, so the probes stay off the (1+M)/M branch cut
        h = _FD_STEP * (np.abs(zi * Gi - 1.0) + 1e-12) / np.abs(zi)
        dh = h * np.conj(zi) / np.abs(zi)
        dR = (res(Gi + dh, idx) - res(Gi - dh, idx)) / (2.0 * dh)
        with np.errstate(all="ignore"):
            step = -R / dR
        step = np.where(np.isfinite(step), step, h)
        absR = np.abs(R)
        absR[~np.isfinite(absR)] = np.inf
        settled = np.zeros(idx.size, dtype=bool)
        G_new = Gi.copy()
        factor = np.ones(idx.size)
        for _ in range(9):
            trial = np.nonzero(~settled)[0]
            if trial.size == 0:
                break
            cand = Gi[trial] + step[trial] * factor[trial]
            Rc = res(cand, idx[trial])
            better = (np.abs(Rc) < absR[trial]) & np.isfinite(Rc)
            G_new[trial[better]] = cand[better]
            settled[trial[better]] = True
            factor[trial[~better]] *= 0.5
        stuck = ~settled
        noise_ok = stuck & (absR <= 100.0 * tol_eff)
        converged[idx[noise_ok]] = True
        alive[idx[stuck & ~noise_ok]] = False
        G[idx[settled]] = G_new[settled]
        iters[idx] += 1
    return G, converged, iters


def _noise_envelope(lams, heights, G):
    """Noise of the readout rho = -Im G / pi from a solve at z = lams + i heights.

    Newton stops at a residual ~ tol*(1+|M|) (or 100x that when stagnating
    at the cancellation floor); the induced G noise is that divided by |z|.
    """
    absM = np.abs((lams + 1j * heights) * G - 1.0)
    return 1e-8 + 200.0 * (
        master._NEWTON_TOL * (1.0 + absM) + 64.0 * np.finfo(float).eps * (1.0 + absM) ** 2
    ) / np.maximum(lams, heights)


def _solve(config, grid, newton=master._newton_batch, ladder=None):
    """density() with the given Newton, and the noise envelope of its grid solve.

    With a ladder, that ladder solves the whole grid down to the stop heights in place of the
    seeded grid solve, and one Newton at z = lambda finishes it, as the grid solve finishes
    a laddered point.
    """
    solves = []
    grid_solve = master._solve_grid

    def spy(res_fn, depth, lams, targets, m1, atoms, work):
        if ladder is None:
            out = grid_solve(res_fn, depth, lams, targets, m1, atoms, work)
        else:
            G, converged, fail_step = ladder(res_fn, depth, lams, targets, m1, work)
            M = (lams + 1j * targets) * G - 1.0
            G, on_axis, _ = master._step(res_fn, depth, lams, M, work, master._AXIS_TOL, drift=False)
            out = G, converged & on_axis, fail_step
        solves.append((lams, targets, out[0]))
        return out

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(master, "_newton_batch", newton)
        mp.setattr(master, "_solve_grid", spy)
        dens = density(config, grid)
    (lams, targets, G), = solves  # one solve of the whole grid
    return dens, _noise_envelope(lams, targets, G)


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
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # mass lost below the grid: not what is compared here
        return _solve(config, grid), _solve(config, grid, _central_difference_newton)


class TestAgainstCentralDifferenceNewton:
    def test_no_point_fails(self, both_solves):
        # density() raises on a lost point, so both solves returned every point
        for dens, _ in both_solves:
            assert dens.rho.size > 0

    def test_density_within_noise_envelope(self, both_solves):
        (new, new_noise), (ref, ref_noise) = both_solves
        np.testing.assert_array_equal(new.grid, ref.grid)
        diff = np.abs(new.rho - ref.rho)
        assert np.all(diff <= np.minimum(new_noise, ref_noise))
        resolved = ref.rho > 1e-6 * ref.rho.max()
        assert np.all(diff[resolved] <= 1e-8 * ref.rho[resolved])

    def test_same_atoms(self, both_solves):
        (new, _), (ref, _) = both_solves
        assert [loc for loc, _ in new.atoms] == [loc for loc, _ in ref.atoms]
        for (_, m_new), (_, m_ref) in zip(new.atoms, ref.atoms):
            assert m_new == pytest.approx(m_ref, rel=1e-6)

    def test_fewer_residual_evaluations(self, both_solves):
        (new, _), (ref, _) = both_solves
        assert new.metadata["residual_evals"] <= 0.4 * ref.metadata["residual_evals"]
        assert 0 < new.metadata["newton_iters"] < new.metadata["residual_evals"]


@pytest.mark.parametrize("name", ["hard_tanh", "tanh", "silu"])
@pytest.mark.parametrize("ensemble", ["orthogonal", "gaussian"])
def test_analytic_derivative_matches_central_difference(name, ensemble):
    sw = 1.3
    config = NetworkConfig(get_activation(name), WeightEnsemble(ensemble), sw, 0.1, depth=8, qstar=0.9)
    res, _ = master._residual_factory(config, 0.9)
    rng = np.random.default_rng(5)
    z = rng.uniform(0.1, 5.0, 50) + 1j * rng.uniform(0.05, 2.0, 50)
    z_root = z ** (1.0 / 8)
    # M = zG - 1 off the real axis, clear of the (1+M)/M cut on (-1, 0)
    M = rng.uniform(-2.0, 2.0, 50) + 1j * rng.choice([-1.0, 1.0], 50) * rng.uniform(0.2, 2.0, 50)
    G = (1.0 + M) / z
    _, dR = res(G, z, z_root)
    h = 1e-5 * np.abs(G)
    dR_cd = (res(G + h, z, z_root)[0] - res(G - h, z, z_root)[0]) / (2.0 * h)
    assert np.all(np.abs(dR - dR_cd) <= 1e-6 * np.abs(dR))


# ---------------------------------------------------------------------------
# step control against the fixed geometric ladder it replaced

_JUMP_FACTOR = 10.0
_JUMP_G_CAP = 10.0
_FIXED_BASE = 1.5
_FIXED_RUNGS = 40
_FIXED_NEWTON_ITERS = 100
_FIXED_SUB_STEPS = 8


def _fixed_ladder(res_fn, depth, lams, eps_targets, m1, work):
    """Test-only reference: the fixed ladder that per-point step control replaced.

    Every point walks the rungs z_k = lambda + i b^{N-k} (b = 1.5, N = 40)
    down to its target, Newton (up to 100 iterations) seeded with the previous
    rung's M = zG - 1.  A root that moves more than 10x the z step (from
    |G| <= 10) re-walks the rung in 8 sub-steps.  Returns (G, converged,
    fail_step) and tallies its work into ``work``, as ``master._run_ladder`` does.
    """
    lams = np.asarray(lams, dtype=float)
    eps_targets = np.asarray(eps_targets, dtype=float)
    n = lams.size
    b = _FIXED_BASE
    N = _FIXED_RUNGS
    k_max = N + int(math.ceil(math.log(1.0 / float(eps_targets.min()), b))) + 1
    z0 = lams + 1j * b**N
    G = (1.0 + m1 / z0) / z0
    z_prev = z0
    done = np.zeros(n, dtype=bool)
    failed = np.zeros(n, dtype=bool)
    fail_step = np.full(n, -1, dtype=int)

    def counted_res(G, z, z_root):
        work["residual_evals"] += G.size
        return res_fn(G, z, z_root)

    def newton(z, seed):
        G, conv, iters = master._newton_batch(
            counted_res, z, z ** (1.0 / depth), seed, master._NEWTON_TOL, _FIXED_NEWTON_ITERS
        )
        work["newton_iters"] += int(iters.sum())
        return G, conv

    for k in range(1, k_max + 1):
        rung = b ** (N - k)
        eff = np.maximum(rung, eps_targets)
        finishing = rung <= eps_targets
        idx = np.nonzero(~done & ~failed)[0]
        if idx.size == 0:
            break
        z_k = lams[idx] + 1j * eff[idx]
        G_prev = G[idx]
        G_new, conv = newton(z_k, ((z_prev[idx] * G_prev - 1.0) + 1.0) / z_k)
        dz = np.abs(z_k - z_prev[idx])
        jumped = conv & (np.abs(G_new - G_prev) > _JUMP_FACTOR * dz) & (np.abs(G_prev) <= _JUMP_G_CAP)
        if np.any(jumped):
            sub = np.nonzero(jumped)[0]
            G_sub, z_sub = G_prev[sub], z_prev[idx][sub]
            ok_sub = np.ones(sub.size, dtype=bool)
            for t in range(1, _FIXED_SUB_STEPS + 1):
                frac = t / _FIXED_SUB_STEPS
                eps_t = eff[idx][sub] * (np.imag(z_sub) / eff[idx][sub]) ** (1.0 - frac)
                z_t = lams[idx][sub] + 1j * eps_t
                G_t, conv_t = newton(z_t, (z_sub * G_sub) / z_t)
                ok_sub &= conv_t
                G_sub = np.where(conv_t, G_t, G_sub)
                z_sub = z_t
            G_new[sub] = G_sub
            conv[sub] &= ok_sub
        failed[idx[~conv]] = True
        fail_step[idx[~conv]] = k
        ok = idx[conv]
        G[ok] = G_new[conv]
        z_prev[ok] = z_k[conv]
        work["continuation_steps"] += ok.size
        done[idx[finishing[idx]]] = True
    return G, ~failed, fail_step


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
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # mass lost below the grid: not what is compared here
        return request.param, _solve(config, grid), _solve(config, grid, ladder=_fixed_ladder)


class TestAgainstFixedLadder:
    def test_no_point_fails(self, against_fixed):
        # density() raises on a lost point, so both ladders returned every point
        _, (new, _), (ref, _) = against_fixed
        np.testing.assert_array_equal(new.grid, ref.grid)

    def test_density_within_noise_envelope(self, against_fixed):
        name, (new, new_noise), (ref, ref_noise) = against_fixed
        np.testing.assert_array_equal(new.grid, ref.grid)
        diff = np.abs(new.rho - ref.rho)
        assert np.all(diff <= np.minimum(new_noise, ref_noise))
        if name != "ds-erf_sm-L256":  # its readout there is noise on both ladders
            resolved = ref.rho > 1e-6 * ref.rho.max()
            assert np.all(diff[resolved] <= 1e-7 * ref.rho[resolved])

    def test_same_atoms(self, against_fixed):
        _, (new, _), (ref, _) = against_fixed
        assert new.atoms == ref.atoms

    def test_fewer_residual_evaluations(self, against_fixed):
        _, (new, _), (ref, _) = against_fixed
        assert new.metadata["residual_evals"] < ref.metadata["residual_evals"]
        assert new.metadata["continuation_steps"] < ref.metadata["continuation_steps"]


def _probe_readings(config, location, ladder):
    """probe_atom through the given ladder: its verdict, its readings eps |Im G| and their noise."""
    ladders = []

    def spy(res_fn, depth, lams, heights, m1, work):
        out = ladder(res_fn, depth, lams, heights, m1, work)
        ladders.append((lams, heights, out[0]))
        return out

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(master, "_run_ladder", spy)
        verdict = probe_atom(config, location)
    (lams, heights, G), = ladders
    return verdict, heights * np.abs(G.imag), math.pi * heights * _noise_envelope(lams, heights, G)


@pytest.mark.parametrize("config", _PROBE_CONFIGS, ids=_PROBE_IDS)
def test_probe_matches_fixed_ladder(config):
    # every reading agrees to 1e-9, or within the Newton noise of both ladders
    # where |M| ~ mass/eps is large: at the atom of linear-orth (4e-9 at one
    # height; the masses are equal) and at the top atoms of ds-L16 (4e-8) and
    # ds-L1024 (7e-7), against a noise of 6e-6 at eps = 1e-6
    for loc, _ in _rule(config):
        (mass, ok), vals, noise = _probe_readings(config, loc, master._run_ladder)
        (ref_mass, ref_ok), ref_vals, ref_noise = _probe_readings(config, loc, _fixed_ladder)
        assert ok == ref_ok
        assert np.all(np.abs(vals - ref_vals) <= np.maximum(1e-9, np.minimum(noise, ref_noise)))
        assert abs(mass - ref_mass) <= max(1e-9, min(noise[-1], ref_noise[-1]))


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
    # without the Im M < 0 check a step lands on a root off the physical
    # branch on the first two (the density then reads negative); far below
    # the support M -> -1, where the spurious root sits, and Im M ~ -eps
    # E[1/x] sinks under Newton's noise, so the check must allow for it
    grid = make_lambda_grid(default_lam_max(jacobian_moments(config)), lam_min=lam_min, n=150)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        (new, new_noise), (ref, ref_noise) = _solve(config, grid), _solve(config, grid, ladder=_fixed_ladder)
    assert np.all(np.abs(new.rho - ref.rho) <= np.minimum(new_noise, ref_noise))


# ---------------------------------------------------------------------------
# the readout on the real axis against the readout at the stop height


def _readout_at_height(config, grid, scale):
    """Test-only: the offset readout rho = -Im G / pi at z = lambda + i scale*min(1e-6, 1e-3 lambda).

    The ladder over the whole grid reaches z; one Newton there at the axis tolerance takes the
    readout's noise below the offset measured against it (at the ladder's tolerance the ratio of
    the offsets at two heights strayed by 1% on ds-hard_tanh L256).
    """
    _, res_fn, _, m1 = master._prepare(config)
    z = grid + 1j * scale * np.minimum(master._STOP_HEIGHT, master._STOP_HEIGHT_REL * grid)
    G, converged, _ = master._run_ladder(res_fn, config.depth, grid, z.imag, m1, Counter())
    G, polished, _ = master._step(res_fn, config.depth, z, z * G - 1.0, Counter(), master._AXIS_TOL, drift=False)
    assert converged.all() and polished.all()
    return -G.imag / math.pi


def _default_density(config):
    """The config's default 600-point grid and density() on it."""
    grid = make_lambda_grid(default_lam_max(jacobian_moments(config)), n=600)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # mass lost below the grid: not what is checked here
        return grid, density(config, grid)


@pytest.fixture(scope="module", params=sorted(_THEORY_CONFIGS))
def on_axis(request):
    config = _THEORY_CONFIGS[request.param]()
    return config, *_default_density(config)


class TestOnAxisReadout:
    def test_is_the_limit_of_the_offset_readout(self, on_axis):
        # where the continuum is resolved and no atom lies within 1e-2, the
        # readout at height eps is biased linearly in eps (gaps of 9e-5 to
        # 7e-3 relative at the stop height): a tenth of the height leaves a
        # tenth of the gap to the axis
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
        config, grid, dens = on_axis
        monkeypatch.setattr(master, "_STOP_HEIGHT", master._STOP_HEIGHT * scale)
        monkeypatch.setattr(master, "_STOP_HEIGHT_REL", master._STOP_HEIGHT_REL * scale)
        moved = _default_density(config)[1]
        assert np.max(np.abs(moved.rho - dens.rho)) <= 1e-9 * dens.rho.max()

    def test_report_counts_the_solve_on_the_axis(self, on_axis, monkeypatch):
        # every point ends with one Newton at z = lambda, and only laddered points (anchors and
        # fallback) step off the axis; each solve evaluates the residual at least once, at its seed
        config, grid, dens = on_axis
        at_lam, off_axis, step = [], [], master._step

        def spy(res_fn, depth, z, M_seed, work, *args, **kwargs):
            (off_axis if np.any(np.imag(z)) else at_lam).append(np.real(z))
            return step(res_fn, depth, z, M_seed, work, *args, **kwargs)

        monkeypatch.setattr(master, "_step", spy)
        meta = _default_density(config)[1].metadata
        assert meta == dens.metadata
        solved = np.concatenate(at_lam)
        np.testing.assert_array_equal(np.unique(solved), grid)
        assert solved.size == grid.size + meta["fallback_points"]
        assert np.unique(np.concatenate(off_axis)).size == meta["anchor_points"] + meta["fallback_points"]
        assert meta["residual_evals"] >= solved.size + np.concatenate(off_axis).size

    def test_tails_outside_the_support_read_zero(self):
        # ds-erf_sm L256 below its bulk and above its top edge: the root on
        # the axis is real there, where the readout at the stop height left
        # an offset tail of 1.3e-6 to 2.2e-6
        config = _THEORY_CONFIGS["ds-erf_sm-L256"]()
        grid, dens = _default_density(config)
        tail = ((grid >= 0.116) & (grid <= 0.130)) | (np.abs(grid - 2.3155) < 1e-3)
        assert tail.sum() == 4
        assert np.all(dens.rho[tail] <= 1e-12)
        assert np.all(_readout_at_height(config, grid, 1.0)[tail] >= 1e-6)


# ---------------------------------------------------------------------------
# density() raises on any lost point: a sweep that must lose none

_CRITICAL_UNITS = ("tanh", "hard_tanh", "erf_sm", "erf_main", "arctan", "shifted_relu")
# scale-free units within 1% of their critical sigma_w (sqrt 2, sqrt(2/1.09), 1):
# chi^256 is 8.1, 0.18 and 161.  Further off, where chi^L leaves about
# 1e-4..1e2, points are lost at the first step from the fixed start height
_SCALE_FREE_SIGMA_W = {"relu": 1.42, "leaky_relu": 1.35, "linear": 1.01}


def _sweep_configs():
    for kind in ("orthogonal", "gaussian"):
        for depth in (1, 16, 256):
            for name in _CRITICAL_UNITS:
                yield f"{name}-{kind}-L{depth}", critical_config(get_activation(name), kind, 0.2, depth)
            for name, sw in _SCALE_FREE_SIGMA_W.items():
                config = NetworkConfig(get_activation(name), WeightEnsemble(kind), sw, 0.0, depth=depth, qstar=1.0)
                yield f"{name}-{kind}-L{depth}", config


def _sweep_grid(config):
    return make_lambda_grid(default_lam_max(jacobian_moments(config)), lam_min=1e-30, n=100)


def test_no_point_lost_across_units():
    lost = []
    for name, config in _sweep_configs():
        grid = _sweep_grid(config)
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")  # mass below the grid: not what is checked here
                density(config, grid)
        except BranchLossError as err:
            lost.append(f"{name}: {err}")
    assert not lost


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
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # mass lost below the grid: not what is compared here
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
        # (R, dR/dG) with and without the dropped nodes, at random (G, z) and,
        # for orthogonal weights, at G placing w within 1e-6 of a dropped node
        sw, q, L = 1.3, 0.9, 8
        config = NetworkConfig(get_activation(name), WeightEnsemble(ensemble), sw, 0.1, depth=L, qstar=q)
        res, nodes = master._residual_factory(config, q)
        with monkeypatch.context() as mp:
            mp.setattr(master, "slope_sq_law", unpruned_slope_sq_law)
            ref, ref_nodes = master._residual_factory(config, q)
        assert nodes < ref_nodes
        t_all, c_all = unpruned_slope_sq_law(config.activation, q)
        dropped = t_all[c_all < 1e-30]
        rng = np.random.default_rng(9)
        z = rng.uniform(0.1, 5.0, 400) + 1j * rng.uniform(1e-6, 2.0, 400)
        z_root = z ** (1.0 / L)
        M = rng.uniform(-2.0, 2.0, 400) + 1j * rng.choice([-1.0, 1.0], 400) * rng.uniform(1e-3, 2.0, 400)
        if ensemble == "orthogonal":
            # w = z^{1/L} S ((1+M)/M)^p solved for M at w = t + delta, |delta| <= 1e-6
            p = 1.0 - 1.0 / L
            t = rng.choice(dropped, 200)
            w = t + 1e-6 * rng.uniform(0.0, 1.0, 200) * np.exp(1j * rng.uniform(-3, 3, 200))
            M[:200] = 1.0 / ((w * sw**2 / z_root[:200]) ** (1.0 / p) - 1.0)
            assert np.all(np.abs(z_root[:200] * ((1.0 + M[:200]) / M[:200]) ** p / sw**2 - t) <= 1e-6)
        G = (1.0 + M) / z
        (R, dR), (R_ref, dR_ref) = res(G, z, z_root), ref(G, z, z_root)
        assert np.all(np.isfinite(R_ref)) and np.all(np.isfinite(dR_ref))
        scale = 1e-15 * (1.0 + np.abs(M))
        assert np.all(np.abs(R - R_ref) <= scale)
        assert np.all(np.abs(dR - dR_ref) <= scale)


# ---------------------------------------------------------------------------
# the seeded grid solve against one ladder over the whole grid


def _seeded_and_full(config, grid):
    """The seeded density, the full-grid ladder's, and whether they agree: rho within both noise envelopes, same atoms."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # mass lost below the grid: not what is compared here
        (new, new_noise), (ref, ref_noise) = _solve(config, grid), _solve(config, grid, ladder=master._run_ladder)
    same = np.array_equal(new.grid, ref.grid) and new.atoms == ref.atoms
    return new, ref, same and bool(np.all(np.abs(new.rho - ref.rho) <= np.minimum(new_noise, ref_noise)))


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
        differ = [name for name, config in _sweep_configs() if not _seeded_and_full(config, _sweep_grid(config))[2]]
        assert not differ

    @pytest.mark.parametrize("name", sorted(_WORKLOAD_CONFIGS))
    def test_matches_full_ladder_on_workloads(self, name):
        make, points = _WORKLOAD_CONFIGS[name]
        config = make()
        new, ref, same = _seeded_and_full(config, make_lambda_grid(default_lam_max(jacobian_moments(config)), n=points))
        assert same
        meta = new.metadata
        assert meta["anchor_points"] + meta["seeded_points"] + meta["fallback_points"] == points
        # 0.17-0.22 measured, 0.19-0.26 when a seeded point was solved twice: a regression of the seeding
        # shows without timing
        if not name.startswith("mc-"):
            assert meta["residual_evals"] <= 0.23 * ref.metadata["residual_evals"]

    @pytest.mark.parametrize("name,points,lam_min", _COARSE_GRIDS)
    def test_matches_full_ladder_on_coarse_grids(self, name, points, lam_min):
        assert _seeded_and_full(*_coarse_grid(name, points, lam_min))[2]


def test_report_tallies_every_residual_evaluation(monkeypatch):
    # the metadata's count is the residual's own: over anchors, seeded points, the one
    # fallback point (lambda = 5.968) and the solve on the axis
    make, points = _WORKLOAD_CONFIGS["mc-hard_tanh-orth-L16"]
    config = make()
    grid = make_lambda_grid(default_lam_max(jacobian_moments(config)), n=points)
    evaluated = Counter()
    factory = master._residual_factory

    def counting_factory(config, qstar):
        res, nodes = factory(config, qstar)

        def counted(G, z, z_root):
            evaluated["points"] += G.size
            return res(G, z, z_root)

        return counted, nodes

    monkeypatch.setattr(master, "_residual_factory", counting_factory)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # mass lost below the grid: not what is checked here
        meta = density(config, grid).metadata
    assert meta["anchor_points"] > 0 and meta["seeded_points"] > 0 and meta["fallback_points"] == 1
    assert meta["residual_evals"] == evaluated["points"] > 0


# ---------------------------------------------------------------------------
# the lean Newton batch against the one it replaced: the same arithmetic on every point, so the same bits


def _assert_same_bits(config, grid, reference):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # mass lost below the grid: not what is compared here
        (new, _), (ref, _) = _solve(config, grid), _solve(config, grid, reference)
    np.testing.assert_array_equal(new.grid, ref.grid)
    assert new.rho.tobytes() == ref.rho.tobytes()
    assert new.atoms == ref.atoms
    assert {k: new.metadata[k] for k in master.WORK_COUNTS} == {k: ref.metadata[k] for k in master.WORK_COUNTS}


def _floored(res_fn):
    """res_fn with R rounded to a quantum set by Re z, then moved half a quantum off 0: a floor |R| cannot pass.

    A quantum of 1e-14 lies below Newton's tolerance, so points converge; 1e-11 lies above it but within the
    100x at which a stalled point counts as converged at the noise floor; at 1e-6 a stalled point dies.
    """

    def res(G, z, z_root):
        R, dR = res_fn(G, z, z_root)
        q = np.select([z.real > 7.0, z.real > 1.0], [1e-6, 1e-11], 1e-14)
        return q * (np.round(R.real / q) + 0.5 + 1j * (np.round(R.imag / q) + 0.5)), dR

    return res


class TestLeanNewtonBatch:
    @pytest.mark.parametrize("name", sorted(_WORKLOAD_CONFIGS))
    def test_bit_identical_on_workloads(self, name, newton_batch_reference):
        make, points = _WORKLOAD_CONFIGS[name]
        config = make()
        grid = make_lambda_grid(default_lam_max(jacobian_moments(config)), n=points)
        _assert_same_bits(config, grid, newton_batch_reference)

    @pytest.mark.parametrize("name,points,lam_min", _COARSE_GRIDS)
    def test_bit_identical_on_coarse_grids(self, name, points, lam_min, newton_batch_reference):
        _assert_same_bits(*_coarse_grid(name, points, lam_min), newton_batch_reference)

    def test_one_batch_with_halvings_and_stalls(self, newton_batch_reference):
        # 40 points on the axis, seeded 30% off their roots, under a residual with a floor: points
        # halve their steps, converge, stall at the floor, die, or run out of iterations
        config = _THEORY_CONFIGS["tanh-orth-L4"]()
        _, res_fn, _, m1 = master._prepare(config)
        lam = make_lambda_grid(8.0, n=40)
        G_root, solved, _ = master._solve_grid(res_fn, 4, lam, master._STOP_HEIGHT_REL * lam, m1, (), Counter())
        assert solved.all()
        rng = np.random.default_rng(1)
        seed = G_root * (1.0 + 0.3 * (rng.standard_normal(40) + 1j * rng.standard_normal(40)))
        z, res, tol, max_iter = lam.astype(complex), _floored(res_fn), master._AXIS_TOL, 17
        # NaN left of a cut just right of two seeds, as beside a pole: their first step is the nudge off it
        cut = np.full(40, -np.inf)
        cut[[5, 25]] = seed[[5, 25]].real + 1e-6 * np.abs(seed[[5, 25]])
        calls = []

        def counted(G, z, z_root):
            calls.append(G.size)
            R, dR = res(G, z, z_root)
            return np.where(G.real < cut[np.searchsorted(lam, z.real)], np.nan, R), dR

        new = master._newton_batch(counted, z, z**0.25, seed, tol, max_iter)
        new_calls, calls[:] = calls[:], []
        ref = newton_batch_reference(counted, z, z**0.25, seed, tol, max_iter)
        for a, b in zip(new, ref):  # G, converged, iterations
            assert a.tobytes() == b.tobytes()
        assert new_calls == calls
        G, converged, iters = new
        with np.errstate(all="ignore"):
            floor = np.abs(res(G, z, z**0.25)[0]) > master._newton_tol(np.abs(z * G - 1.0), tol)
        assert len(calls) > 1 + iters.max()  # some steps were halved
        assert np.all(iters[[5, 25]] > 1)  # past the nudge
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
        # the solve is bound by numpy calls, not by points: residual calls and Newton batches per
        # density() stay within the counts of the batch this one replaced, and no batch is empty
        make, points = _WORKLOAD_CONFIGS[name]
        config = make()
        grid = make_lambda_grid(default_lam_max(jacobian_moments(config)), n=points)
        sizes, calls, factory, newton = [], Counter(), master._residual_factory, master._newton_batch

        def counting_factory(config, qstar):
            res, nodes = factory(config, qstar)

            def counted(G, z, z_root):
                calls["residual"] += 1
                return res(G, z, z_root)

            return counted, nodes

        def counting_newton(res_fn, z, z_root, G, tol, max_iter):
            sizes.append(G.size)
            return newton(res_fn, z, z_root, G, tol, max_iter)

        monkeypatch.setattr(master, "_residual_factory", counting_factory)
        monkeypatch.setattr(master, "_newton_batch", counting_newton)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # mass lost below the grid: not what is checked here
            meta = density(config, grid).metadata
        assert meta["fallback_points"] == 0
        assert calls["residual"] <= res_calls and len(sizes) <= batches
        assert min(sizes) > 0
