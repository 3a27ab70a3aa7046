import math

import numpy as np
import pytest

import jacspectra.activations as activations
import jacspectra.propagation as propagation
from jacspectra.activations import get_activation, mu_k, phi_sq_mean, registry_names
from jacspectra.ensembles import WeightEnsemble
from jacspectra.errors import ActivationClassError, BracketError, ConvergenceError, JacspectraError
from jacspectra.master import density
from jacspectra.moments import jacobian_moments
from jacspectra.propagation import (
    NetworkConfig,
    chi,
    critical_sigma_w,
    double_scaling_qstar,
    fixed_point_is_degenerate,
    phase_grid,
    qstar_fixed_point,
    resolve_qstar,
)
from jacspectra.simulate import jacobian_singular_values
from jacspectra.special import bracket_root


class TestFixedPoint:
    def test_linear_affine_solution(self):
        fp = qstar_fixed_point(get_activation("linear"), 0.9, 0.3)
        assert fp.converged
        assert fp.qstar == pytest.approx(0.09 / 0.19, abs=1e-10)

    def test_relu_forced_value(self):
        fp = qstar_fixed_point(get_activation("relu"), 1.0, 0.5)
        assert fp.converged
        assert fp.qstar == pytest.approx(0.5, abs=1e-10)

    def test_tanh_brute_force_oracle(self, oracles):
        fp = qstar_fixed_point(get_activation("tanh"), 1.5, 0.1)
        assert fp.converged
        assert fp.qstar == pytest.approx(oracles["tanh_qstar_sw1p5_sb0p1"], abs=1e-9)

    @pytest.mark.parametrize(
        "name,sw,sb",
        [("tanh", 1.5, 0.1), ("hard_tanh", 1.2, 0.4), ("erf_main", 1.3, 0.2), ("silu", 0.9, 0.5)],
    )
    def test_self_consistency_residual(self, name, sw, sb):
        act = get_activation(name)
        fp = qstar_fixed_point(act, sw, sb)
        assert fp.converged
        mapped = sw * sw * phi_sq_mean(act, fp.qstar) + sb * sb
        assert abs(fp.qstar - mapped) <= 1e-12 * (1 + fp.qstar)
        assert fp.chi == pytest.approx(sw * sw * mu_k(act, fp.qstar, 1), abs=1e-12)

    def test_divergence_flag(self):
        fp = qstar_fixed_point(get_activation("linear"), 2.0, 1.0)
        assert not fp.converged


def damped_reference(act, sw, sb, *, damping=0.5, tol=1e-12, max_iter=10_000, ceiling=1e8):
    """Damped iteration of the variance map from q = 1: (q, converged).

    Independent of the bracketed solver; it stops once the residual is below
    tol, at the iteration cap, or when the iterate exceeds the ceiling.
    """
    q = 1.0
    for _ in range(max_iter):
        t = sw * sw * phi_sq_mean(act, q) + sb * sb
        if abs(t - q) <= tol * (1.0 + abs(q)):
            return t, True
        q = (1.0 - damping) * q + damping * t
        if q > ceiling or not math.isfinite(q):
            return q, False
    return q, False


class TestAgainstDampedIteration:
    @pytest.mark.parametrize("name", registry_names())
    def test_phase_grid_cells(self, name, monkeypatch):
        act = get_activation(name)
        slope0 = abs(float(act.dphi(np.array(0.0))))
        calls = []

        def counted_phi_sq_mean(*args):
            calls.append(args)
            return phi_sq_mean(*args)

        monkeypatch.setattr(propagation, "phi_sq_mean", counted_phi_sq_mean)
        for sw in np.linspace(0.5, 3.0, 11):
            for sb in np.linspace(0.0, 1.0, 6):
                calls.clear()
                fp = qstar_fixed_point(act, sw, sb)
                # the work is bounded by a count of variance-map evaluations
                assert fp.iterations == len(calls) <= 200
                q_ref, ok = damped_reference(act, sw, sb)
                if ok:
                    assert fp.converged
                    assert abs(fp.qstar - q_ref) <= 1e-9 * (1.0 + q_ref), (sw, sb)
                elif q_ref < 1.0:  # crept towards 0 until the cap: a marginal cell
                    assert sb == 0.0 and sw * slope0 == 1.0, (sw, sb)
                    assert fp.converged and fp.qstar == 0.0
                else:  # grew without bound
                    assert not fp.converged


def outcome(solve, *args):
    """solve(*args), or the type and message of the JacspectraError it raises."""
    try:
        return solve(*args)
    except JacspectraError as exc:
        return type(exc), str(exc)


def assert_same_root(root, ref, f, scale):
    """root and ref are one root of f: within 4 floats, or within the band where f has no sign.

    f is known to a few eps of the size ``scale`` of its terms, so near a
    root with slope f' its sign is noise over about eps * scale / |f'| (a
    thousand floats for the double-scaled q* at L = 1024); any float there
    is a root at float resolution.
    """
    step = 1e-6 * ref
    slope = (f(ref + step) - f(ref - step)) / (2.0 * step)
    band = 16.0 * np.finfo(float).eps * scale / abs(slope)
    assert abs(root - ref) <= 4.0 * np.spacing(ref) + band, (root, ref, band)


class TestAgainstBisection:
    """The regula falsi solves find the roots that bisection found."""

    @pytest.mark.parametrize("name", registry_names())
    def test_critical_points(self, name, bisection, monkeypatch):
        act = get_activation(name)
        for sb in (0.1, 0.2, 0.5, 1.0):
            new = outcome(critical_sigma_w, act, sb)
            with monkeypatch.context() as m:
                m.setattr(propagation, "bracket_root", bisection)
                ref = outcome(critical_sigma_w, act, sb)
            if isinstance(ref[0], type):
                assert new == ref
                continue

            def excess(q):
                return q - phi_sq_mean(act, q) / mu_k(act, q, 1) - sb * sb

            assert_same_root(new[1], ref[1], excess, ref[1])
            assert new[0] == 1.0 / math.sqrt(mu_k(act, new[1], 1))

    @pytest.mark.parametrize("name", registry_names())
    def test_double_scaling(self, name, bisection, monkeypatch):
        act = get_activation(name)
        for depth in (16, 256, 1024):
            new = outcome(double_scaling_qstar, act, depth, 0.25)
            with monkeypatch.context() as m:
                m.setattr(propagation, "bracket_root", bisection)
                ref = outcome(double_scaling_qstar, act, depth, 0.25)
            if isinstance(ref[0], type):
                assert new == ref
                continue

            def ratio(q):
                return mu_k(act, q, 2) / mu_k(act, q, 1) ** 2 - (1.0 + 0.25 / depth)

            assert_same_root(new[0], ref[0], ratio, 1.0)

    @pytest.mark.parametrize("name", registry_names())
    def test_phase_grid(self, name, bisection, monkeypatch):
        act = get_activation(name)
        axes = np.linspace(0.5, 3.0, 26), np.linspace(0.0, 1.0, 11)
        new = phase_grid(act, *axes)
        with monkeypatch.context() as m:
            m.setattr(propagation, "bracket_root", bisection)
            ref = phase_grid(act, *axes)
        assert np.array_equal(new.converged, ref.converged)
        assert np.array_equal(new.qstar == 0.0, ref.qstar == 0.0)
        for sw, sb, q, q_ref, c, c_ref in zip(new.sigma_w, new.sigma_b, new.qstar, ref.qstar, new.chi, ref.chi):
            if q == q_ref:
                assert c == c_ref or math.isnan(c) and math.isnan(c_ref)
            else:
                assert_same_root(q, q_ref, lambda x: sw * sw * phi_sq_mean(act, x) + sb * sb - x, q_ref)
                assert c == chi(act, sw, q)


class TestChi:
    def test_linear(self):
        assert chi(get_activation("linear"), 1.0, 3.3) == pytest.approx(1.0, abs=1e-14)

    def test_relu_critical(self):
        assert chi(get_activation("relu"), math.sqrt(2), 0.7) == pytest.approx(1.0, abs=1e-14)

    def test_erf_critical_scaling(self):
        q = 0.8
        sw = (1 + math.pi * q) ** 0.25
        assert chi(get_activation("erf_main"), sw, q) == pytest.approx(1.0, abs=1e-12)


class TestCriticalLine:
    @pytest.mark.parametrize("name", ["hard_tanh", "shifted_relu"])
    def test_piece_cdfs_once_per_step(self, name, monkeypatch):
        # each step evaluates phi_sq_mean and mu_1 at one q; they share the Gaussian CDF at the piece ends
        cdf_calls, steps = [], []
        norm_cdf, phi = activations.norm_cdf, propagation.phi_sq_mean
        monkeypatch.setattr(activations, "norm_cdf", lambda x: cdf_calls.append(x) or norm_cdf(x))
        monkeypatch.setattr(propagation, "phi_sq_mean", lambda *a: steps.append(a) or phi(*a))
        critical_sigma_w(get_activation(name), 0.2)
        assert len(cdf_calls) <= len(steps) + 1  # and mu_1 at q* for sigma_w

    def test_relu(self):
        sw, _ = critical_sigma_w(get_activation("relu"), 0.0)
        assert sw == pytest.approx(math.sqrt(2), abs=1e-6)

    def test_linear(self):
        sw, _ = critical_sigma_w(get_activation("linear"), 0.0)
        assert sw == pytest.approx(1.0, abs=1e-6)

    def test_hard_tanh_grid_oracle(self, oracles):
        sw, q = critical_sigma_w(get_activation("hard_tanh"), 0.2)
        assert sw == pytest.approx(oracles["htanh_critical_sw_sb0p2"], abs=1e-8)
        assert q == pytest.approx(oracles["htanh_critical_qstar_sb0p2"], abs=1e-8)

    @pytest.mark.parametrize(
        "name,sb", [("hard_tanh", 0.1), ("erf_main", 0.3), ("tanh", 0.2), ("silu", 1.0)]
    )
    def test_round_trip_chi_is_one(self, name, sb):
        act = get_activation(name)
        sw, q = critical_sigma_w(act, sb)
        assert chi(act, sw, q) == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize("name,sb", [("hard_tanh", 0.2), ("tanh", 0.2), ("arctan", 0.5), ("silu", 1.0)])
    def test_critical_point_is_where_the_recursion_settles(self, name, sb):
        act = get_activation(name)
        sw, q = critical_sigma_w(act, sb)
        fp = qstar_fixed_point(act, sw, sb)
        assert fp.converged
        assert fp.qstar == pytest.approx(q, rel=1e-9)

    @pytest.mark.parametrize("sb", [0.1, 0.2, 0.5])
    def test_unstable_critical_point_refused(self, sb):
        # silu's chi = 1 point has V'(q*) > 1 here: the recursion from q = 1 runs away from it
        act = get_activation("silu")
        with pytest.raises(BracketError, match="silu at sigma_b=.*is unstable"):
            critical_sigma_w(act, sb)

    @pytest.mark.parametrize("name", ["linear", "relu", "leaky_relu"])
    def test_scale_free_with_bias_refused(self, name):
        # q* diverges as chi -> 1: there is no finite critical fixed point
        with pytest.raises(BracketError, match=f"{name} is scale-free"):
            critical_sigma_w(get_activation(name), 0.2)

    @pytest.mark.parametrize("name", ["tanh", "hard_tanh"])
    def test_zero_bias_limit_refused(self, name):
        # the critical point is the q* -> 0 limit, not a fixed point
        with pytest.raises(BracketError, match=r"limit q\* -> 0"):
            critical_sigma_w(get_activation(name), 0.0)


class TestDoubleScaling:
    def test_hard_tanh_closed_form(self):
        q, sw = double_scaling_qstar(get_activation("hard_tanh"), 1024, 0.25)
        from scipy.special import erfinv

        expected = 1.0 / (2.0 * erfinv(1024.0 / 1024.25) ** 2)
        assert q == pytest.approx(expected, abs=1e-9)
        assert sw * sw * mu_k(get_activation("hard_tanh"), q, 1) == pytest.approx(1.0, abs=1e-10)

    def test_erf_sm_quadratic_root_oracle(self, oracles):
        q, sw = double_scaling_qstar(get_activation("erf_sm"), 100, 0.25)
        assert q == pytest.approx(oracles["erf_sm_double_scaling_L100_s0p25"], abs=1e-12)
        assert sw * sw == pytest.approx(math.sqrt(1 + 2 * q), abs=1e-12)

    def test_variance_residual_invariant(self):
        act = get_activation("erf_sm")
        for L in (8, 128, 2048):
            q, sw = double_scaling_qstar(act, L, 0.5)
            ratio = mu_k(act, q, 2) / mu_k(act, q, 1) ** 2
            assert L * (ratio - 1.0) == pytest.approx(0.5, rel=1e-8)
            assert sw * sw * mu_k(act, q, 1) == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize("name", registry_names())
    def test_walk_finds_the_fixed_bracket_root(self, name):
        # the walk out of q = 1 finds the root that regula falsi found on the fixed bracket [1e-12, 1e2]
        act = get_activation(name)
        for depth in (1, 4, 16, 64, 256, 1024, 4096):
            for s0sq in (0.25, 1.0, 4.0):
                def ratio(q, target=1.0 + s0sq / depth):
                    return mu_k(act, q, 2) / mu_k(act, q, 1) ** 2 - target

                new = outcome(double_scaling_qstar, act, depth, s0sq)
                if act.is_scale_free:
                    assert new[0] is ActivationClassError
                    continue
                ref = outcome(bracket_root, ratio, 1e-12, 1e2)
                if isinstance(ref, tuple):
                    assert new[0] is ref[0] is BracketError, (depth, s0sq)
                    continue
                assert_same_root(new[0], ref, ratio, 1.0)

    def test_hard_tanh_work_guard(self, monkeypatch):
        # one mu_k pair per walk and regula falsi step (the fixed bracket [1e-12, 1e2] took 83 calls)
        calls = []
        counted = propagation.mu_k
        monkeypatch.setattr(propagation, "mu_k", lambda *a: calls.append(a) or counted(*a))
        double_scaling_qstar(get_activation("hard_tanh"), 256, 0.25)
        assert len(calls) <= 30

    def test_relu_scale_degenerate(self):
        with pytest.raises(ActivationClassError):
            double_scaling_qstar(get_activation("relu"), 8, 0.25)

    @pytest.mark.parametrize("name", ["hard_tanh", "erf_main"])
    def test_monotone_in_depth(self, name):
        act = get_activation(name)
        depths = [2**k for k in range(1, 13)]
        qs, sws = zip(*(double_scaling_qstar(act, L, 0.25) for L in depths))
        assert np.all(np.diff(qs) < 0)
        # q* -> 0 and sigma_w -> 1, slowly (logarithmic for saturating units)
        assert qs[-1] < qs[0] / 3
        assert abs(sws[-1] - 1.0) < abs(sws[0] - 1.0) / 3


class TestPhaseGrid:
    def test_linear_critical_cell(self):
        grid = phase_grid(get_activation("linear"), [0.5, 1.0], [0.0, 0.3])
        rows = {(sw, sb): (q, c, ok) for sw, sb, q, c, ok in grid.rows()}
        q, c, ok = rows[(1.0, 0.0)]
        assert c == pytest.approx(1.0, abs=1e-12)

    def test_tanh_phases(self):
        grid = phase_grid(get_activation("tanh"), [0.5, 2.0], [0.5])
        rows = {(sw, sb): c for sw, sb, q, c, ok in grid.rows()}
        assert rows[(2.0, 0.5)] > 1.0  # chaotic side
        assert rows[(0.5, 0.5)] < 1.0  # ordered side

    def test_all_cells_flagged(self):
        grid = phase_grid(get_activation("tanh"), [0.8, 1.2], [0.1, 0.2])
        assert grid.converged.shape == (4,)
        assert grid.converged.all()

    @pytest.mark.parametrize("name", registry_names())
    def test_grid_is_its_cells_bit_for_bit(self, name, monkeypatch):
        act = get_activation(name)
        sigma_w = [0.5, 1.0, 1.2, math.sqrt(2), 2.0, 3.0]
        if act.is_scale_free:
            sigma_w.append(1.0 / math.sqrt(mu_k(act, 1.0, 1)))  # chi = 1: degenerate at sigma_b = 0
        sigma_b = [0.0, 0.2, 0.5, 1.0]
        bracketed = []

        def spy(f, lo, hi, args=(), where=True, f_ends=None):  # records the cells that the root solve runs on
            bracketed.append(np.broadcast_to(where, np.shape(lo)))
            return bracket_root(f, lo, hi, args, where, f_ends)

        monkeypatch.setattr(propagation, "bracket_root", spy)
        grid = phase_grid(act, sigma_w, sigma_b)
        monkeypatch.undo()
        cells = [qstar_fixed_point(act, sw, sb) for sb in sigma_b for sw in sigma_w]
        assert np.array_equal(grid.sigma_w, np.tile(sigma_w, len(sigma_b)))
        assert np.array_equal(grid.sigma_b, np.repeat(sigma_b, len(sigma_w)))
        assert np.array_equal(grid.qstar, [fp.qstar for fp in cells])
        assert np.array_equal(grid.chi, [fp.chi for fp in cells], equal_nan=True)
        assert np.array_equal(grid.converged, [fp.converged for fp in cells])
        # the grid reaches every branch the unit has
        degenerate = fixed_point_is_degenerate(act, grid.sigma_w, grid.sigma_b)
        iterations = np.array([fp.iterations for fp in cells])
        reached = {
            "ordered": (grid.qstar == 0.0) & ~degenerate,
            "degenerate": degenerate,
            "diverged": ~grid.converged,
            "closed form": (iterations == 1) & (grid.qstar > 0.0) & ~degenerate,
            "bracketed": np.any(bracketed, axis=0),  # no call where every cell is closed form
        }
        expected = {"ordered", "bracketed"}
        if act.is_scale_free:
            expected = {"ordered", "degenerate", "diverged", "closed form"}
        assert expected <= {branch for branch, cell in reached.items() if cell.any()}
        if name == "relu":  # relu at (2, 0.5) has chi = 2: q* runs past 1e8
            assert not grid.converged[(grid.sigma_w == 2.0) & (grid.sigma_b == 0.5)].any()

    def test_work_guard(self, monkeypatch):
        act = get_activation("hard_tanh")
        calls = []

        def counted_phi_sq_mean(*args):
            calls.append(args)
            return phi_sq_mean(*args)

        monkeypatch.setattr(propagation, "phi_sq_mean", counted_phi_sq_mean)
        grid = phase_grid(act, np.linspace(0.5, 3.0, 26), np.linspace(0.0, 1.0, 11))
        assert grid.qstar.size == 286 and grid.converged.all()
        assert len(calls) <= 35  # one array call per solver stage and step, not one per cell and step
        calls.clear()
        fp = qstar_fixed_point(act, 1.3, 0.2)
        assert fp.iterations == len(calls) <= 30
        assert max(qstar_fixed_point(act, w, b).iterations for w, b in zip(grid.sigma_w, grid.sigma_b)) <= 30


class TestDegeneracy:
    def test_linear_at_unit_point(self):
        assert fixed_point_is_degenerate(get_activation("linear"), 1.0, 0.0)

    def test_relu_at_critical_point(self):
        assert fixed_point_is_degenerate(get_activation("relu"), math.sqrt(2), 0.0)

    def test_hard_tanh_not_degenerate(self):
        assert not fixed_point_is_degenerate(get_activation("hard_tanh"), 1.0, 0.0)


class TestNetworkConfig:
    def test_validation(self):
        act, orth = get_activation("linear"), WeightEnsemble("orthogonal")
        with pytest.raises(ValueError):
            NetworkConfig(act, orth, 1.0, 0.0, depth=0)
        with pytest.raises(ValueError):
            NetworkConfig(act, orth, 1.0, -0.1, depth=2)
        with pytest.raises(ValueError):
            NetworkConfig(act, orth, 1.0, 0.0, depth=2, width=1)
        for sigma_w in (0.0, -1.0, float("nan")):
            with pytest.raises(ValueError, match="sigma_w must be positive"):
                NetworkConfig(act, orth, sigma_w, 0.0, depth=2)


class TestResolveQstar:
    """``resolve_qstar`` refuses, for every spectral path, a fixed point with no spectrum."""

    @staticmethod
    def _config(name, sigma_w, sigma_b, qstar=None):
        return NetworkConfig(get_activation(name), WeightEnsemble("orthogonal"), sigma_w, sigma_b, depth=2, width=8, qstar=qstar)

    @pytest.mark.parametrize(
        "run",
        [
            lambda cfg: density(cfg, np.array([0.5, 1.0])),
            jacobian_moments,
            lambda cfg: jacobian_singular_values(cfg, 0, 0),
        ],
        ids=["density", "jacobian_moments", "jacobian_singular_values"],
    )
    def test_diverging_fixed_point_refused(self, run):
        # relu at sigma_w = 2 has chi = 2 for every q: with a bias, q* diverges
        with pytest.raises(ConvergenceError, match="did not converge for relu"):
            run(self._config("relu", 2.0, 0.5))

    @pytest.mark.parametrize("qstar", [None, 0.0])
    def test_ordered_phase_refused(self, qstar):
        # tanh at sigma_w = 0.5, sigma_b = 0 settles at q* = 0; an override can ask for it too
        cfg = self._config("tanh", 0.5, 0.0, qstar)
        with pytest.raises(JacspectraError, match="tanh .* ordered phase"):
            resolve_qstar(cfg)
