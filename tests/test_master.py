import math
import warnings
from dataclasses import asdict

import numpy as np
import pytest

from jacspectra.activations import get_activation
from jacspectra.density import make_lambda_grid
from jacspectra.ensembles import gaussian, orthogonal
from jacspectra.errors import BranchLossError, PoleError
from jacspectra import master
from jacspectra.master import (
    SolverSettings,
    default_lam_max,
    density,
    master_residual,
    point_masses,
    probe_atom,
    solve_G_at,
)
from jacspectra.moments import jacobian_moments, moments_from_density
from jacspectra.propagation import NetworkConfig, critical_config, double_scaled_config, resolve_qstar


def _linear_orth(depth=8):
    return NetworkConfig(get_activation("linear"), orthogonal(1.0), 1.0, 0.0, depth=depth, qstar=1.0)


def _linear_gauss(depth=1):
    return NetworkConfig(get_activation("linear"), gaussian(1.0), 1.0, 0.0, depth=depth, qstar=1.0)


def _relu_orth(depth=1):
    sw = math.sqrt(2.0)
    return NetworkConfig(get_activation("relu"), orthogonal(sw), sw, 0.0, depth=depth, qstar=1.0)


def _leaky_relu(ensemble):
    return NetworkConfig(get_activation("leaky_relu"), ensemble(1.2), 1.2, 0.0, depth=1, qstar=1.0)


def mp_density(lam):
    lam = np.asarray(lam, dtype=float)
    out = np.zeros_like(lam)
    m = (lam > 0) & (lam < 4)
    out[m] = np.sqrt(lam[m] * (4.0 - lam[m])) / (2 * math.pi * lam[m])
    return out


class TestSolverSettings:
    def test_defaults_valid(self):
        assert asdict(SolverSettings()) == {"newton_tol": 1e-11, "final_epsilon": 1e-6}

    def test_validation(self):
        for bad in ({"final_epsilon": 0.0}, {"final_epsilon": 1.5**40}, {"newton_tol": 0.0}):
            with pytest.raises(ValueError):
                SolverSettings(**bad)
        SolverSettings(final_epsilon=1e-9)  # any height under the start is reachable


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
    def test_off_support_resolvent_of_atom(self):
        G = solve_G_at(_linear_orth(), 3.0)
        assert abs(G - 0.5) <= 1e-5

    def test_mp_density_point(self):
        G = solve_G_at(_linear_gauss(), 2.0)
        rho = -G.imag / math.pi
        assert rho == pytest.approx(math.sqrt(2 * (4 - 2)) / (2 * math.pi * 2), abs=1e-6)

    def test_relu_between_atoms(self):
        G = solve_G_at(_relu_orth(), 0.5)
        assert -G.imag / math.pi <= 1e-4  # no continuum between the point masses
        assert G.real == pytest.approx(0.5 / 0.5 + 0.5 / (0.5 - 2.0), abs=1e-6)

    def test_far_asymptotics(self):
        for cfg in (_linear_gauss(), _relu_orth(4)):
            G = solve_G_at(cfg, 1e4)
            assert abs(G - 1e-4) <= 1e-3

    def test_branch_loss_reported(self, monkeypatch):
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
    _leaky_relu(orthogonal),
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
        assert _rule(_leaky_relu(gaussian)) == ()
        a2 = (1.2 * dict(get_activation("leaky_relu").params)["alpha"]) ** 2
        expected = ((pytest.approx(a2, rel=1e-12), 0.5), (pytest.approx(1.44, rel=1e-12), 0.5))
        assert _rule(_leaky_relu(orthogonal)) == expected

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
    def test_probe_tends_to_rule_beside_a_divergence(self, config):
        # a continuum diverging at 0 adds eps * integral rho eps/(lambda^2 + eps^2)
        # to the probe's reading there: above the rule's zero atom, shrinking
        # toward it as eps -> 0, and at eps = 1e-6 still 5e-3 to 8e-2 off even
        # where the probe accepts (relu-orth-L4, hard_tanh-orth-L4)
        zero_mass = _rule(config)[0][1]
        gaps = [probe_atom(config, 0.0, SolverSettings(final_epsilon=eps))[0] - zero_mass for eps in (1e-2, 1e-4, 1e-6)]
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

    def test_zero_atom_prunes_by_own_offset(self):
        # a grid point within 100 of its own readout offsets min(final_epsilon,
        # 1e-3 lambda) of an atom is dropped: lambda = 0 goes, 5e-5 stays
        # (100 final_epsilon = 1e-4 would drop it)
        cfg = _hard_tanh("orthogonal", 4)
        grid = np.concatenate([[0.0], make_lambda_grid(3.0, lam_min=5e-5, n=60)])
        d = density(cfg, grid)
        assert d.atoms == _rule(cfg) and d.atoms[0][0] == 0.0
        np.testing.assert_array_equal(d.grid, grid[1:])

    def test_failure_budget_raises(self, monkeypatch):
        # any lost point raises, and the error names the first lost lambda
        grid = make_lambda_grid(4.0, n=100)
        with monkeypatch.context() as mp:
            mp.setattr(master, "_STEP_MAX_ITERS", 0)
            with pytest.raises(BranchLossError, match=f"lambda={grid[0]:.6g} ") as err:
                density(_linear_gauss(), grid)
        assert err.value.step_index >= 1
        # one lost point of 100 is enough
        run = master._run_ladder

        def lose_one(*args):
            out = run(*args)
            out.converged[37], out.fail_step[37] = False, 5
            return out

        monkeypatch.setattr(master, "_run_ladder", lose_one)
        with pytest.raises(BranchLossError, match=f"lambda={grid[37]:.6g} .*1 of 100") as err:
            density(_linear_gauss(), grid)
        assert err.value.step_index == 5


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


def _solve(config, grid, newton=master._newton_batch, ladder=master._run_ladder):
    """density() with the given Newton and ladder, and the noise envelope at its grid points."""
    ladders = []

    def spy(res_fn, depth, lams, targets, settings, m1):
        out = ladder(res_fn, depth, lams, targets, settings, m1)
        ladders.append((lams, targets, settings, out.G))
        return out

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(master, "_newton_batch", newton)
        mp.setattr(master, "_run_ladder", spy)
        dens = density(config, grid)
    (lams, targets, settings, G), = ladders  # the grid is the only ladder
    return dens, master._rho_noise(lams, targets, G, settings)[np.isin(lams, dens.grid)]


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
@pytest.mark.parametrize("ensemble", [orthogonal, gaussian])
def test_analytic_derivative_matches_central_difference(name, ensemble):
    sw = 1.3
    config = NetworkConfig(get_activation(name), ensemble(sw), sw, 0.1, depth=8, qstar=0.9)
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


def _fixed_ladder(res_fn, depth, lams, eps_targets, settings, m1):
    """Test-only reference: the fixed ladder that per-point step control replaced.

    Every point walks the rungs z_k = lambda + i b^{N-k} (b = 1.5, N = 40)
    down to its target, Newton (up to 100 iterations) seeded with the previous
    rung's M = zG - 1.  A root that moves more than 10x the z step (from
    |G| <= 10) re-walks the rung in 8 sub-steps.
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
    work = {"evals": 0, "iters": 0, "steps": 0}

    def counted_res(G, z, z_root):
        work["evals"] += G.size
        return res_fn(G, z, z_root)

    def newton(z, seed):
        G, conv, iters = master._newton_batch(
            counted_res, z, z ** (1.0 / depth), seed, settings.newton_tol, _FIXED_NEWTON_ITERS
        )
        work["iters"] += int(iters.sum())
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
        work["steps"] += ok.size
        done[idx[finishing[idx]]] = True
    return master._LadderResult(G, ~failed, fail_step, work["evals"], work["iters"], work["steps"], 0)


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

    def spy(res_fn, depth, lams, heights, settings, m1):
        out = ladder(res_fn, depth, lams, heights, settings, m1)
        ladders.append((lams, heights, settings, out.G))
        return out

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(master, "_run_ladder", spy)
        verdict = probe_atom(config, location)
    (lams, heights, settings, G), = ladders
    return verdict, heights * np.abs(G.imag), math.pi * heights * master._rho_noise(lams, heights, G, settings)


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
# density() raises on any lost point: a sweep that must lose none

_CRITICAL_UNITS = ("tanh", "hard_tanh", "erf_sm", "erf_main", "arctan", "shifted_relu")
# scale-free units within 1% of their critical sigma_w (sqrt 2, sqrt(2/1.09), 1):
# chi^256 is 8.1, 0.18 and 161.  Further off, where chi^L leaves about
# 1e-4..1e2, points are lost at the first step from the fixed start height
_SCALE_FREE_SIGMA_W = {"relu": 1.42, "leaky_relu": 1.35, "linear": 1.01}


def _sweep_configs():
    for kind, ensemble in (("orthogonal", orthogonal), ("gaussian", gaussian)):
        for depth in (1, 16, 256):
            for name in _CRITICAL_UNITS:
                yield f"{name}-{kind}-L{depth}", critical_config(get_activation(name), kind, 0.2, depth)
            for name, sw in _SCALE_FREE_SIGMA_W.items():
                config = NetworkConfig(get_activation(name), ensemble(sw), sw, 0.0, depth=depth, qstar=1.0)
                yield f"{name}-{kind}-L{depth}", config


def test_no_point_lost_across_units():
    lost = []
    for name, config in _sweep_configs():
        grid = make_lambda_grid(default_lam_max(jacobian_moments(config)), lam_min=1e-30, n=100)
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
    @pytest.mark.parametrize("ensemble", [orthogonal, gaussian])
    def test_residual_within_rounding(self, name, ensemble, unpruned_slope_sq_law, monkeypatch):
        # (R, dR/dG) with and without the dropped nodes, at random (G, z) and,
        # for orthogonal weights, at G placing w within 1e-6 of a dropped node
        sw, q, L = 1.3, 0.9, 8
        config = NetworkConfig(get_activation(name), ensemble(sw), sw, 0.1, depth=L, qstar=q)
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
        if ensemble is orthogonal:
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
