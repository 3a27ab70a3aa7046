"""Self-consistent resolvent solver for the depth-L Jacobian spectrum.

The resolvent G(z) of the squared-singular-value distribution of the
depth-L Jacobian satisfies the implicit equation

    z G - 1 = M(z^{1/L} * F(z G - 1)),     F(x) = S(x) ((1+x)/x)^{1-1/L},

where M is the squared-slope transform of the nonlinearity at the fixed
point and S is the weight ensemble's S-transform.  Principal branches are
used for both fractional powers; the choice is validated against Monte Carlo
spectra rather than argued analytically.

For each real lambda the root is tracked from z = lambda + i 1.5^40 down to
lambda + i eps, where the density is read off as rho = -Im G / pi.  Each
lambda has its own height and step ratio (Allgower & Georg, "Numerical
Continuation Methods"): a step divides the height by the ratio, predicts
M = zG - 1 by extrapolating 1/M linearly in z, and corrects by damped Newton.
It is accepted when Newton converges within 8 iterations, within 25% of the
predicted M, with Im M < 0 up to Newton's noise.  An easy step (at most 3
iterations) squares the ratio, up to 100; a rejected one retries at its
square root, down to 1.5; a step rejected at 1.5 loses its point, and
``density`` and ``solve_G_at`` raise BranchLossError on a lost point.  All
lambdas march as one vectorized batch.

Newton uses the analytic dR/dG = z (1 - M'(w) w dlog w/dx) at x = zG - 1: one
pass over the squared-slope nodes gives M(w) = sum c t/(w - t) and M'(w)
together, and the accepted line-search candidate hands its residual and
derivative on to the next iteration, so an undamped step costs one
evaluation.  z^{1/L} is taken once per continuation step, since z is fixed
through its Newton iterations.  M(w) sums over ``slope_sq_law`` at the
default Gauss rule, the rule behind q* and chi too.  A squared slope even in
the pre-activation (tanh, erf, arctan) folds that symmetric rule exactly
onto its non-negative nodes (201 -> 101), and the nodes of weight below
1e-30 are dropped (101 -> 51; 201 -> 101 for silu): a dropped term is at
most c t / |Im w|, below the rounding of a sum of order one.

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
_EPS = float(np.finfo(float).eps)
_DAMPING_HALVINGS = 8
_RATIO_MIN = 1.5  # smallest step ratio: a step rejected at it loses its point
_START_RUNGS = 40  # every continuation starts at height _RATIO_MIN ** _START_RUNGS
_STEP_GROW_ITERS = 3  # a step solved in this many Newton iterations squares its ratio
_STEP_MAX_ITERS = 8  # a step needing more is rejected, so Newton stops one iteration later
_STEP_DRIFT = 0.25  # a step is rejected when |M - M_pred| > 0.25 |M_pred|
_STEP_RATIO_MAX = 100.0
_ADAPTIVE_EPS_REL = 1e-3
_ATOM_SPREAD_TOL = 0.02
_ATOM_MASS_MIN = 1e-3
_ATOM_PRUNE_EPS_FACTOR = 100.0
_ATOM_PROBE_EPS_FLOOR = 1e-6


@dataclass(frozen=True)
class SolverSettings:
    newton_tol: float = 1e-11
    final_epsilon: float = 1e-6

    def __post_init__(self):
        if not 0.0 < self.final_epsilon < _RATIO_MIN**_START_RUNGS:
            raise ValueError("final_epsilon must lie in (0, 1.5^40)")
        if not self.newton_tol > 0.0:
            raise ValueError("newton_tol must be positive")


def _residual_factory(config: NetworkConfig, qstar: float) -> tuple[Callable, int]:
    """(residual, node count of M's sum).

    The residual maps (G, z, z^{1/L}) to (R, dR/dG); with M = zG - 1,
    dlog w/dM = -p/(M(1+M)), less 1/(1+M) for gaussian S.
    """
    t, c = slope_sq_law(config.activation, qstar)
    t, ct = t.astype(complex), (c * t).astype(complex)  # cast once, not per call
    inv_sw2 = config.sigma_w**-2.0
    gaussian = config.ensemble.kind != ORTHOGONAL
    L = config.depth
    p = 1.0 - 1.0 / L

    def res(G, z, z_root):
        M = z * G - 1.0
        with np.errstate(all="ignore"):
            S = inv_sw2 / (1.0 + M) if gaussian else inv_sw2
            dlog_w = -p / (M * (1.0 + M)) - (1.0 / (1.0 + M) if gaussian else 0.0)
            w = z_root * (S * ((1.0 + M) / M) ** p)
            r = w[..., None] - t
            np.reciprocal(r, out=r)
            m = r @ ct
            np.square(r, out=r)
            return M - m, z * (1.0 + (r @ ct) * w * dlog_w)

    return res, t.size


def _prepare(config: NetworkConfig):
    """(q*, residual, node count, m1) for one config; m1 = chi^L, with overflow guards, only seeds the ladder."""
    fp = resolve_qstar(config)
    log_m1 = config.depth * math.log(max(fp.chi, 1e-300))
    m1 = math.exp(min(max(log_m1, -300.0), 300.0))
    return fp.qstar, *_residual_factory(config, fp.qstar), m1


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
    out = res(G, z, z ** (1.0 / config.depth))[0]
    return complex(out) if out.ndim == 0 else out


# ---------------------------------------------------------------------------
# vectorized Newton continuation


def _newton_tol(absM, tol):
    """Residual at which Newton stops: tol relative to |M|, plus the cancellation floor near atoms."""
    return tol * absM + 64.0 * _EPS * (1.0 + absM) ** 2


def _newton_batch(res_fn, z, z_root, G, tol, max_iter):
    """Damped Newton on a batch of (z, G); res_fn(G, z, z_root) gives (R, dR/dG).  Returns (G, converged, niter)."""
    n = G.shape[0]
    converged = np.zeros(n, dtype=bool)
    alive = np.ones(n, dtype=bool)
    iters = np.zeros(n, dtype=int)
    G = G.copy()
    R, dR = res_fn(G, z, z_root)
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
        tol_eff = _newton_tol(absM, tol)
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
            Rc, dRc = res_fn(cand, zi[trial], z_root[idx[trial]])
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
    residual_evals: int  # point-evaluations of the residual
    newton_iters: int  # Newton iterations summed over points and steps
    continuation_steps: int  # accepted steps summed over points
    rejected_steps: int  # steps retried at a smaller ratio, or that lost their point


def _run_ladder(res_fn, depth: int, lams, eps_targets, settings: SolverSettings, m1: float) -> _LadderResult:
    lams = np.asarray(lams, dtype=float)
    eps_targets = np.asarray(eps_targets, dtype=float)
    n = lams.size
    z = lams + 1j * _RATIO_MIN**_START_RUNGS
    # seed on the physical branch: G ~ (1 + m1/z)/z.  M = zG - 1 = 0 solves
    # the equation identically (w -> infinity), so seeding at exactly 1/z
    # would hand Newton the spurious branch
    G = (1.0 + m1 / z) / z
    slope = 1.0 / (z * (z * G - 1.0))  # d(1/M)/dz, 1/m1 as z -> infinity
    ratio = np.full(n, _RATIO_MIN)
    steps = np.zeros(n, dtype=int)
    failed = np.zeros(n, dtype=bool)
    fail_step = np.full(n, -1, dtype=int)
    residual_evals = newton_iters = rejected = 0

    def counted_res(G, z, z_root):
        nonlocal residual_evals
        residual_evals += G.size
        return res_fn(G, z, z_root)

    while True:
        idx = np.nonzero((z.imag > eps_targets) & ~failed)[0]
        if idx.size == 0:
            break
        z_from, z_to = z[idx], lams[idx] + 1j * np.maximum(z.imag[idx] / ratio[idx], eps_targets[idx])
        # predictor: 1/M extrapolated linearly in z along the secant of the
        # last step, exact for a single atom (M = m a/(z - a)), ~z/m1 as
        # z -> infinity, ~constant near the real axis.  Seeding M, not G,
        # keeps the seed off the (1+M)/M branch cut
        M_from = z_from * G[idx] - 1.0
        M_pred = 1.0 / (1.0 / M_from + (z_to - z_from) * slope[idx])
        G_to, conv, iters = _newton_batch(
            counted_res, z_to, z_to ** (1.0 / depth), (1.0 + M_pred) / z_to, settings.newton_tol, _STEP_MAX_ITERS + 1
        )
        newton_iters += int(iters.sum())
        # a hard solve, or a root far from the predictor, has hopped: to a
        # spurious root (M -> 0 or -1), or to a mirror root near a hard edge.
        # The physical M = integral x/(z - x) dmu(x) has Im M < 0, up to
        # Newton's noise: below the support M -> -1 merges with the spurious
        # root there, and a residual tol leaves M uncertain by sqrt(tol)
        M = z_to * G_to - 1.0
        near = np.abs(M - M_pred) <= _STEP_DRIFT * np.abs(M_pred)
        lower = M.imag < np.sqrt(_newton_tol(np.abs(M), settings.newton_tol))
        ok = conv & (iters <= _STEP_MAX_ITERS) & near & lower
        rejected += int((~ok).sum())
        retry = ~ok & (ratio[idx] > _RATIO_MIN)
        ratio[idx[retry]] = np.maximum(np.sqrt(ratio[idx[retry]]), _RATIO_MIN)
        lost = idx[~ok & ~retry]
        failed[lost] = True
        fail_step[lost] = steps[lost] + 1
        done = idx[ok]
        G[done], z[done] = G_to[ok], z_to[ok]
        slope[done] = ((1.0 / M - 1.0 / M_from) / (z_to - z_from))[ok]
        steps[done] += 1
        grow = idx[ok & (iters <= _STEP_GROW_ITERS)]
        ratio[grow] = np.minimum(ratio[grow] ** 2, _STEP_RATIO_MAX)
    return _LadderResult(G, ~failed, fail_step, residual_evals, newton_iters, int(steps.sum()), rejected)


def _require_branch(out: _LadderResult, lams) -> None:
    """Raise BranchLossError naming the first lambda whose continuation lost the branch."""
    lost = np.nonzero(~out.converged)[0]
    if lost.size:
        i = lost[0]
        raise BranchLossError(
            f"continuation lost the branch at lambda={lams[i]:.6g} (step {out.fail_step[i]}; "
            f"{lost.size} of {out.converged.size} points lost)",
            step_index=int(out.fail_step[i]),
            last_iterate=complex(out.G[i]),
        )


def solve_G_at(config: NetworkConfig, lam: float, settings: SolverSettings | None = None) -> complex:
    """Resolvent at lambda + i final_epsilon by branch-tracked continuation."""
    settings = settings or SolverSettings()
    _, res_fn, _, m1 = _prepare(config)
    lams = np.array([lam], dtype=float)
    out = _run_ladder(res_fn, config.depth, lams, np.array([settings.final_epsilon]), settings, m1)
    _require_branch(out, lams)
    return complex(out.G[0])


def probe_atom(config: NetworkConfig, location: float, settings: SolverSettings | None = None):
    """Residue probe at a location: a numerical check of ``point_masses``.

    eps * |Im G(location + i eps)| tends to the atom mass as eps -> 0.  It is
    read at eps = max(final_epsilon, 1e-6) and at the four heights 1.5^{40-j}
    just above it, and returns (mass, is_atom): the values must agree to a
    relative spread of 2% on a mass above 1e-3 for the point to count as an atom;
    drifting values indicate an integrable divergence.  Beside a continuum
    that diverges at the location the reading stays above the mass by
    eps * integral rho eps / (lambda^2 + eps^2), which can pass the test.
    """
    settings = settings or SolverSettings()
    _, res_fn, _, m1 = _prepare(config)
    # below eps ~ 1e-6 the residual noise eps_mach*|M| ~ eps_mach*mass/eps
    # overwhelms the equation at an atom; the probe has converged long before
    eps = max(settings.final_epsilon, _ATOM_PROBE_EPS_FLOOR)
    b, N = _RATIO_MIN, _START_RUNGS
    k = next(k for k in itertools.count(1) if b ** (N - k) <= eps)  # b^{N-k} is the first at or below eps
    heights = np.array([b ** (N - j) for j in range(k - 4, k)] + [eps])
    out = _run_ladder(res_fn, config.depth, np.full(5, float(location)), heights, settings, m1)
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
    return 1e-8 + 200.0 * (
        settings.newton_tol * (1.0 + absM) + 64.0 * _EPS * (1.0 + absM) ** 2
    ) / np.maximum(grid, targets)


def density(config: NetworkConfig, grid, settings: SolverSettings | None = None) -> SpectralDensity:
    """Squared-singular-value density of J J^T on the given lambda grid.

    The continuum is read at the per-point offset min(final_epsilon,
    1e-3 * lambda) (tiny lambdas need a proportionally small offset to
    resolve heavy bottom tails); each point's continuation ends exactly
    there.  The atoms are ``point_masses`` in closed form, and grid points
    within 100 offsets of an atom are dropped, since there the readout is the
    atom's own 1/(z - a) tail.  A point whose continuation loses the branch
    raises BranchLossError naming its lambda.  The metadata holds the
    solver's work summed over points: ``residual_evals``, ``newton_iters``,
    ``continuation_steps`` (accepted steps) and ``rejected_steps``; and
    ``slope_nodes``, the terms of M(w) in each residual evaluation.
    """
    settings = settings or SolverSettings()
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or np.any(np.diff(grid) <= 0) or np.any(grid < 0):
        raise ValueError("grid must be a strictly increasing nonnegative 1-D array")
    qstar, res_fn, slope_nodes, m1 = _prepare(config)
    targets = np.minimum(settings.final_epsilon, np.maximum(grid * _ADAPTIVE_EPS_REL, 1e-280))

    out = _run_ladder(res_fn, config.depth, grid, targets, settings, m1)
    _require_branch(out, grid)
    rho = -out.G.imag / math.pi
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

    meta = {
        "qstar": qstar,
        "depth": config.depth,
        "sigma_w": config.sigma_w,
        "sigma_b": config.sigma_b,
        "activation": config.activation.name,
        "activation_params": dict(config.activation.params),
        "ensemble": config.ensemble.kind,
        "settings": asdict(settings),
        "residual_evals": out.residual_evals,
        "slope_nodes": slope_nodes,
        "newton_iters": out.newton_iters,
        "continuation_steps": out.continuation_steps,
        "rejected_steps": out.rejected_steps,
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
