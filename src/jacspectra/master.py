"""Self-consistent resolvent solver for the depth-L Jacobian spectrum.

The resolvent G(z) of the squared-singular-value distribution of the
depth-L Jacobian satisfies the implicit equation

    z G - 1 = M(z^{1/L} * F(z G - 1)),     F(x) = S(x) ((1+x)/x)^{1-1/L},

where M is the squared-slope transform of the nonlinearity at the fixed
point and S is the weight ensemble's S-transform.  Principal branches are
used for both fractional powers; the choice is validated against Monte Carlo
spectra rather than argued analytically.

For each real lambda the root is tracked from the asymptotic regime down to
the real axis: starting at z0 = lambda + i b^N with G0 = 1/z0, each rung
z_k = lambda + i b^{N-k} is solved by damped Newton seeded at the previous
root, ending at lambda + i eps_final where the density is read off as
rho = -Im G / pi.  Distinct lambdas are independent and are marched in
lockstep as one vectorized ladder.

Newton uses the analytic dR/dG = z (1 - M'(w) w dlog w/dx) at x = zG - 1: one
pass over the squared-slope nodes gives M(w) = sum c t/(w - t) and M'(w)
together, and the accepted line-search candidate hands its residual and
derivative on to the next iteration, so an undamped step costs one
evaluation.  M(w) sums over ``slope_sq_law`` at the default Gauss rule, the
rule behind q* and chi too.  A squared slope even in the pre-activation
(tanh, erf, arctan) folds that symmetric rule exactly onto its non-negative
nodes (201 -> 101).

Point masses are not read from the ladder: they follow in closed form from
the atom rule for free multiplicative convolution (Belinschi 2003, "The
atoms of the free multiplicative convolution of two probability
distributions"), applied to the discrete squared-slope law of a piecewise
unit; see ``point_masses``.  ``probe_atom`` reads eps * |Im G| at a location
as a numerical check of that rule.
"""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import asdict, dataclass
from typing import Callable

import numpy as np

from .activations import slope_distribution, slope_sq_law
from .density import MASS_TOL, SQUARED_SINGULAR, SpectralDensity
from .ensembles import ORTHOGONAL
from .errors import BranchLossError, PoleError
from .moments import MomentSummary
from .propagation import NetworkConfig, resolve_qstar

__all__ = [
    "SolverSettings",
    "master_residual",
    "solve_G_at",
    "density",
    "default_lam_max",
    "point_masses",
    "probe_atom",
]

_NUDGE = 1e-4  # step off a pole or NaN, relative to |M|/|z|
_DAMPING_HALVINGS = 8
_JUMP_FACTOR = 10.0
_JUMP_G_CAP = 10.0  # heuristic only meaningful away from atoms/divergences
_JUMP_REFINE_STEPS = 8
_ADAPTIVE_EPS_REL = 1e-3
_ATOM_SPREAD_TOL = 0.02
_ATOM_MASS_MIN = 1e-3
_ATOM_PRUNE_EPS_FACTOR = 100.0
_ATOM_PROBE_EPS_FLOOR = 1e-6
_FAILURE_BUDGET = 0.05


@dataclass(frozen=True)
class SolverSettings:
    step_base: float = 1.5
    half_steps: int = 40
    newton_tol: float = 1e-11
    newton_max_iter: int = 100
    final_epsilon: float = 1e-6

    def __post_init__(self):
        if not self.step_base > 1.0:
            raise ValueError("step_base must exceed 1")
        if self.half_steps < 1:
            raise ValueError("half_steps must be positive")
        if not (self.step_base**-self.half_steps <= self.final_epsilon <= self.step_base**self.half_steps):
            raise ValueError("final_epsilon must lie within [b^-N, b^N]")
        if self.newton_tol <= 0 or self.newton_max_iter < 1:
            raise ValueError("bad Newton settings")


def _residual_factory(config: NetworkConfig, qstar: float) -> Callable:
    """(G, z) -> (R, dR/dG); with M = zG - 1, dlog w/dM = -p/(M(1+M)), less 1/(1+M) for gaussian S."""
    t, c = slope_sq_law(config.activation, qstar)
    ct = c * t
    inv_sw2 = config.sigma_w**-2.0
    gaussian = config.ensemble.kind != ORTHOGONAL
    L = config.depth
    p = 1.0 - 1.0 / L
    inv_L = 1.0 / L

    def res(G, z):
        M = z * G - 1.0
        with np.errstate(all="ignore"):
            S = inv_sw2 / (1.0 + M) if gaussian else inv_sw2
            dlog_w = -p / (M * (1.0 + M)) - (1.0 / (1.0 + M) if gaussian else 0.0)
            w = z**inv_L * (S * ((1.0 + M) / M) ** p)
            r = w[..., None] - t
            np.reciprocal(r, out=r)
            m = r @ ct
            np.square(r, out=r)
            return M - m, z * (1.0 + (r @ ct) * w * dlog_w)

    return res


def _prepare(config: NetworkConfig):
    """(q*, residual, m1) for one config; m1 = chi^L, with overflow guards, only seeds the ladder."""
    fp = resolve_qstar(config)
    log_m1 = config.depth * math.log(max(fp.chi, 1e-300))
    m1 = math.exp(min(max(log_m1, -300.0), 300.0))
    return fp.qstar, _residual_factory(config, fp.qstar), m1


def master_residual(config: NetworkConfig, G, z):
    """Residual of the implicit resolvent equation at (G, z).

    Zero exactly when G solves the equation.  Raises PoleError at the
    excluded points zG - 1 in {0, -1}.
    """
    res = _prepare(config)[1]
    G = np.asarray(G, dtype=complex)
    z = np.asarray(z, dtype=complex)
    M = z * G - 1.0
    if np.any(M == 0) or np.any(M == -1.0):
        raise PoleError("master residual evaluated at a pole (zG-1 in {0,-1})")
    out = res(G, z)[0]
    return complex(out) if out.ndim == 0 else out


# ---------------------------------------------------------------------------
# vectorized Newton continuation


def _newton_batch(res_fn, z, G, tol, max_iter):
    """Damped Newton on a batch of (z, G); res_fn gives (R, dR/dG).  Returns (G, converged, niter)."""
    n = G.shape[0]
    converged = np.zeros(n, dtype=bool)
    alive = np.ones(n, dtype=bool)
    iters = np.zeros(n, dtype=int)
    G = G.copy()
    R, dR = res_fn(G, z)
    for it in range(max_iter):
        idx = np.nonzero(alive & ~converged)[0]
        if idx.size == 0:
            break
        Gi, zi, Ri = G[idx], z[idx], R[idx]
        # tolerance relative to |M| = |zG-1|: the equation admits a pseudo
        # zone near M = 0 where the absolute residual ~ |M|^(1-1/L) becomes
        # arbitrarily small without M being a root; only the residual
        # measured against M's own scale separates the physical branch.
        # The (1+|M|)^2 term is the cancellation floor near atoms, where
        # both sides of the equation blow up together.
        absM = np.abs(zi * Gi - 1.0)
        tol_eff = tol * absM + 64.0 * np.finfo(float).eps * (1.0 + absM) ** 2
        ok = np.abs(Ri) <= tol_eff
        converged[idx[ok]] = True
        idx = idx[~ok]
        if idx.size == 0:
            continue
        Gi, zi, Ri, tol_eff = Gi[~ok], zi[~ok], Ri[~ok], tol_eff[~ok]
        with np.errstate(all="ignore"):
            step = -Ri / dR[idx]
        nudge = _NUDGE * (absM[~ok] + 1e-12) / np.abs(zi)
        step = np.where(np.isfinite(step), step, nudge)  # off poles/NaNs
        # damped line search along the Newton direction
        absR = np.abs(Ri)
        absR[~np.isfinite(absR)] = np.inf
        settled = np.zeros(idx.size, dtype=bool)
        factor = np.ones(idx.size)
        for _ in range(_DAMPING_HALVINGS + 1):
            trial = np.nonzero(~settled)[0]
            if trial.size == 0:
                break
            cand = Gi[trial] + step[trial] * factor[trial]
            Rc, dRc = res_fn(cand, zi[trial])
            better = np.abs(Rc) < absR[trial]
            better &= np.isfinite(Rc)
            won = idx[trial[better]]
            G[won], R[won], dR[won] = cand[better], Rc[better], dRc[better]
            settled[trial[better]] = True
            factor[trial[~better]] *= 0.5
        stuck = ~settled
        # stagnation at the noise floor counts as converged, not branch loss
        noise_ok = stuck & (absR <= 100.0 * tol_eff)
        converged[idx[noise_ok]] = True
        alive[idx[stuck & ~noise_ok]] = False  # no descent within 8 halvings
        iters[idx] += 1
    return G, converged, iters


@dataclass
class _LadderResult:
    G: np.ndarray
    converged: np.ndarray
    fail_step: np.ndarray
    jump_flags: np.ndarray
    residual_evals: int  # point-evaluations of the residual
    newton_iters: int  # Newton iterations summed over points and rungs


def _run_ladder(res_fn, lams, eps_targets, settings: SolverSettings, m1: float = 1.0) -> _LadderResult:
    lams = np.asarray(lams, dtype=float)
    eps_targets = np.asarray(eps_targets, dtype=float)
    n = lams.size
    b = settings.step_base
    N = settings.half_steps
    min_target = float(eps_targets.min())
    # rungs b^{N-1}, b^{N-2}, ... extended far enough to reach every target
    k_max = N + int(math.ceil(math.log(1.0 / min_target, b))) + 1
    z0 = lams + 1j * b**N
    # seed on the physical branch: G ~ (1 + m1/z)/z.  M = zG - 1 = 0 solves
    # the equation identically (w -> infinity), so seeding at exactly 1/z
    # would hand Newton the spurious branch
    G = (1.0 + m1 / z0) / z0
    z_prev = z0
    done = np.zeros(n, dtype=bool)
    failed = np.zeros(n, dtype=bool)
    fail_step = np.full(n, -1, dtype=int)
    jump_flags = np.zeros(n, dtype=bool)
    residual_evals = newton_iters = 0

    def counted_res(G, z):
        nonlocal residual_evals
        residual_evals += G.size
        return res_fn(G, z)

    def newton(z, seed):
        nonlocal newton_iters
        G, conv, iters = _newton_batch(counted_res, z, seed, settings.newton_tol, settings.newton_max_iter)
        newton_iters += int(iters.sum())
        return G, conv

    for k in range(1, k_max + 1):
        rung = b ** (N - k)
        eff = np.maximum(rung, eps_targets)
        finishing = rung <= eps_targets
        active = ~done & ~failed
        idx = np.nonzero(active)[0]
        if idx.size == 0:
            break
        z_k = lams[idx] + 1j * eff[idx]
        G_prev = G[idx]
        # seed preserving M = zG - 1 across the rung: the root scales like
        # 1/z in the asymptotic regime, so carrying G directly would throw
        # the seed across the (1+M)/M branch cut
        seed = ((z_prev[idx] * G_prev - 1.0) + 1.0) / z_k
        G_new, conv = newton(z_k, seed)
        # heuristic: successive roots should move no faster than ~10x the z
        # step; a violation near moderate |G| signals a root hop (physical
        # and mirror roots nearly collide close to hard spectral edges), so
        # re-walk the rung in sub-steps to track the root through the pinch
        dz = np.abs(z_k - z_prev[idx])
        dG = np.abs(G_new - G_prev)
        jumped = conv & (dG > _JUMP_FACTOR * dz) & (np.abs(G_prev) <= _JUMP_G_CAP)
        if np.any(jumped):
            sub = np.nonzero(jumped)[0]
            G_sub = G_prev[sub]
            z_sub_prev = z_prev[idx][sub]
            ok_sub = np.ones(sub.size, dtype=bool)
            for t in range(1, _JUMP_REFINE_STEPS + 1):
                frac = t / _JUMP_REFINE_STEPS
                eps_t = eff[idx][sub] * (np.imag(z_sub_prev) / eff[idx][sub]) ** (1.0 - frac)
                z_t = lams[idx][sub] + 1j * eps_t
                seed_t = (z_sub_prev * G_sub) / z_t
                G_t, conv_t = newton(z_t, seed_t)
                ok_sub &= conv_t
                G_sub = np.where(conv_t, G_t, G_sub)
                z_sub_prev = z_t
            G_new[sub] = G_sub
            conv[sub] &= ok_sub
            jump_flags[idx[sub]] = True
        newly_failed = ~conv
        failed[idx[newly_failed]] = True
        fail_step[idx[newly_failed]] = k
        ok = idx[conv]
        G[ok] = G_new[conv]
        z_prev[ok] = z_k[conv]
        done[idx[finishing[idx]]] = True
        if np.all(done | failed):
            break
    return _LadderResult(G, ~failed, fail_step, jump_flags, residual_evals, newton_iters)


def solve_G_at(config: NetworkConfig, lam: float, settings: SolverSettings | None = None) -> complex:
    """Resolvent at lambda + i final_epsilon by branch-tracked continuation."""
    settings = settings or SolverSettings()
    _, res_fn, m1 = _prepare(config)
    out = _run_ladder(res_fn, np.array([lam]), np.array([settings.final_epsilon]), settings, m1)
    if not out.converged[0]:
        raise BranchLossError(
            f"continuation lost the branch at lambda={lam} (step {out.fail_step[0]})",
            step_index=int(out.fail_step[0]),
            last_iterate=complex(out.G[0]),
        )
    return complex(out.G[0])


def probe_atom(config: NetworkConfig, location: float, settings: SolverSettings | None = None):
    """Residue probe at a location: a numerical check of ``point_masses``.

    eps * |Im G(location + i eps)| tends to the atom mass as eps -> 0.  It is
    read at the last five heights of the ladder down to eps = max(final_epsilon,
    1e-6), and returns (mass, is_atom): the values must agree to a relative
    spread of 2% on a mass above 1e-3 for the point to count as an atom;
    drifting values indicate an integrable divergence.  Beside a continuum
    that diverges at the location the reading stays above the mass by
    eps * integral rho eps / (lambda^2 + eps^2), which can pass the test.
    """
    settings = settings or SolverSettings()
    _, res_fn, m1 = _prepare(config)
    # below eps ~ 1e-6 the residual noise eps_mach*|M| ~ eps_mach*mass/eps
    # overwhelms the equation at an atom; the probe has converged long before
    eps = max(settings.final_epsilon, _ATOM_PROBE_EPS_FLOOR)
    b, N = settings.step_base, settings.half_steps
    k = next(k for k in itertools.count(1) if b ** (N - k) <= eps)  # the rung that finishes at eps
    heights = np.array([b ** (N - j) for j in range(k - 4, k)] + [eps])
    out = _run_ladder(res_fn, np.full(5, float(location)), heights, settings, m1)
    vals = heights * np.abs(out.G.imag)
    if not out.converged.all() or np.any(vals <= 0.0):
        return 0.0, False
    spread = (vals.max() - vals.min()) / vals.mean()
    mass = min(float(vals[-1]), 1.0)  # finite-eps probe bias can overshoot by O(eps)
    return mass, bool(spread <= _ATOM_SPREAD_TOL and mass >= _ATOM_MASS_MIN)


def point_masses(config: NetworkConfig, qstar: float) -> tuple:
    """Atoms (location, mass) of the J J^T law, ascending in location.

    That law is the free multiplicative convolution of L squared-slope laws
    sigma_w^2 phi'^2 (with L atomless Marchenko-Pastur laws for gaussian
    weights).  By Belinschi's atom rule it has an atom at 0 of mass
    P(phi' = 0) for either ensemble, and for orthogonal weights each non-zero
    atom a of mass m of the slope law gives an atom at a^L of mass
    1 - L(1 - m) where that is positive.  Smooth units have no atoms.
    """
    if not config.activation.is_piecewise:
        return ()
    L = config.depth
    orthogonal = config.ensemble.kind == ORTHOGONAL
    atoms = []
    for t, m in zip(*slope_distribution(config.activation, qstar)):
        if t == 0.0:
            loc, mass = 0.0, m
        else:
            loc, mass = (config.sigma_w**2 * t) ** L, (1.0 - L * (1.0 - m) if orthogonal else 0.0)
        if mass > 0.0 and math.isfinite(loc):
            atoms.append((float(loc), float(mass)))
    return tuple(atoms)


def _rho_noise(grid, targets, G, settings: SolverSettings) -> np.ndarray:
    """Noise envelope of the readout rho = -Im G / pi at z = grid + i targets.

    Newton stops at a residual ~ tol*(1+|M|) (or 100x that when stagnating
    at the cancellation floor); the induced G noise is that divided by |z|.
    """
    absM = np.abs((grid + 1j * targets) * G - 1.0)
    eps_mach = np.finfo(float).eps
    return 1e-8 + 200.0 * (
        settings.newton_tol * (1.0 + absM) + 64.0 * eps_mach * (1.0 + absM) ** 2
    ) / np.maximum(grid, targets)


def density(config: NetworkConfig, grid, settings: SolverSettings | None = None) -> SpectralDensity:
    """Squared-singular-value density of J J^T on the given lambda grid.

    The continuum is read at the per-point offset min(final_epsilon,
    1e-3 * lambda) (tiny lambdas need a proportionally small offset to
    resolve heavy bottom tails); the rung count is extended automatically to
    reach it.  The atoms are ``point_masses`` in closed form, and grid points
    within 100 offsets of an atom are dropped, since there the readout is the
    atom's own 1/(z - a) tail.  Points whose continuation fails are flagged
    in the metadata (the call only raises when more than 5% fail).
    """
    settings = settings or SolverSettings()
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or np.any(np.diff(grid) <= 0) or np.any(grid < 0):
        raise ValueError("grid must be a strictly increasing nonnegative 1-D array")
    qstar, res_fn, m1 = _prepare(config)
    targets = np.minimum(settings.final_epsilon, np.maximum(grid * _ADAPTIVE_EPS_REL, 1e-280))

    out = _run_ladder(res_fn, grid, targets, settings, m1)
    failed_frac = float((~out.converged).mean())
    if failed_frac > _FAILURE_BUDGET:
        worst = int(np.nonzero(~out.converged)[0][0])
        raise BranchLossError(
            f"{failed_frac:.1%} of grid points lost the branch (budget {_FAILURE_BUDGET:.0%})",
            step_index=int(out.fail_step[worst]),
            last_iterate=complex(out.G[worst]),
        )
    rho = -out.G.imag / math.pi
    rho[~out.converged] = 0.0
    # Where the true Im G is ~0 (off support, next to atoms) the readout can
    # come out slightly negative within the noise envelope; clamp it, and fail
    # on anything larger, which would mean a lost branch rather than noise.
    noise = _rho_noise(grid, targets, out.G, settings)
    too_negative = rho < -noise
    if np.any(too_negative):
        worst = int(np.argmin(rho + noise))
        raise BranchLossError(
            f"negative density {rho[worst]:.3e} at lambda={grid[worst]} exceeds the noise envelope",
            last_iterate=complex(out.G[worst]),
        )
    rho = np.maximum(rho, 0.0)

    atoms = point_masses(config, qstar)
    keep = np.ones(grid.size, dtype=bool)
    for loc, _ in atoms:
        keep &= np.abs(grid - loc) > _ATOM_PRUNE_EPS_FACTOR * targets
    keep |= ~out.converged  # keep failed points in place (rho zeroed, flagged)

    meta = {
        "qstar": qstar,
        "depth": config.depth,
        "sigma_w": config.sigma_w,
        "sigma_b": config.sigma_b,
        "activation": config.activation.name,
        "activation_params": dict(config.activation.params),
        "ensemble": config.ensemble.kind,
        "settings": asdict(settings),
        "failed_points": [int(i) for i in np.nonzero(~out.converged)[0]],
        "jump_flagged_points": [int(i) for i in np.nonzero(out.jump_flags)[0]],
        "residual_evals": out.residual_evals,
        "newton_iters": out.newton_iters,
    }
    dens = SpectralDensity(
        domain=SQUARED_SINGULAR,
        grid=grid[keep],
        rho=rho[keep],
        atoms=atoms,
        metadata=meta,
    )
    total = dens.total_mass()
    meta["total_mass"] = total
    if abs(total - 1.0) > MASS_TOL:
        warnings.warn(
            f"density mass {total:.4f} off by more than {MASS_TOL}; grid may not cover the support",
            stacklevel=2,
        )
    return dens


def default_lam_max(ms: MomentSummary) -> float:
    """Top of the default lambda grid: 1.5x the edge guess max(4 m2/m1, 4 m1, 1)."""
    return 1.5 * max(4.0 * ms.m2 / max(ms.m1, 1e-12), 4.0 * ms.m1, 1.0)
