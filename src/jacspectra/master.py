"""Self-consistent resolvent solver for the depth-L Jacobian spectrum.

The resolvent G(z) of the squared-singular-value distribution of the
depth-L Jacobian satisfies the implicit equation

    z G - 1 = M(z^{1/L} * F(z G - 1)),     F(x) = S(x) ((1+x)/x)^{1-1/L},

where M is the squared-slope transform of the nonlinearity at the fixed
point and S is the weight ensemble's S-transform.  Principal branches are
used for both fractional powers; the choice is validated against Monte Carlo
spectra rather than argued analytically.

The ladder tracks the root of each lambda from z = lambda + i 1.5^40 down to
the stop height lambda + i min(1e-6, 1e-3 lambda).  Each lambda has its own
height and step ratio (Allgower & Georg, "Numerical Continuation Methods"):
a step divides the height by the ratio, predicts
M = zG - 1 by extrapolating 1/M linearly in z, and corrects by damped Newton.
The step test accepts it when Newton converges within 8 iterations, within
25% of the predicted M, with Im M < 0 up to Newton's noise.  An easy step (at
most 3 iterations) squares the ratio, up to 100; a rejected one retries at
its square root, down to 1.5; a step rejected at 1.5 loses its point.  All
lambdas march as one vectorized batch.

On a grid, ``density`` ladders every 8th point, the last, and any whose
level's neighbours lie beyond a factor 4, then takes each to the real axis by
one Newton at z = lambda + 0i.  The rest go at strides 4, 2, 1, one Newton
batch per level at z = lambda, seeded in log lambda between points already on
the axis (atom poles aside), under the step test; failures take the ladder
(BranchLossError if lost).  So each point ends with one solve on the axis,
where the density is read as rho = -Im G(lambda + i0) / pi: no offset biases
it, and atoms leave no tail on their neighbours.  Newton converges only
linearly at a square-root edge, where dz/dG = 0, so the solve after the ladder
(no drift test) may take twice the step's 8 iterations.

A ladder step, a seeded level and the solve after the ladder are each one
``_step``: seed G = (1 + M)/z, Newton, step test.  Their work goes into one
``collections.Counter`` that ``density`` makes and writes into its metadata:
residual evaluations, Newton iterations and steps from ``_step``, points per
path from the grid solve.

A density's time goes per numpy call more than per point: about 20 Newton
batches and 100 residual calls, of about 50 points each.  So a Newton
iteration gathers its open points once, evaluates all their full steps in one
residual call, and halves only the steps that did not descend; the residual
runs under the one np.errstate of its batch.  Newton uses the analytic
dR/dG = z (1 - M'(w) w dlog w/dx) at x = zG - 1: one pass over the
squared-slope nodes gives M(w) = sum c t/(w - t) and M'(w) together, and the
accepted candidate hands its residual and derivative on to the next
iteration, so an undamped step costs one evaluation.  z^{1/L} is taken once
per batch, since z is fixed through it.  M(w) sums over ``slope_sq_law`` at the
default Gauss rule, the rule behind q* and chi too.  A squared slope even in
the pre-activation (tanh, erf, arctan) folds that symmetric rule exactly
onto its non-negative nodes (201 -> 101), and the nodes of weight below
1e-30 are dropped (101 -> 51; 201 -> 101 for silu): a dropped term is at
most c t / |Im w|, below the rounding of a sum of order one.

Point masses are not read from the ladder: they follow in closed form from
the atom rule for free multiplicative convolution (Belinschi 2003, "The
atoms of the free multiplicative convolution of two probability
distributions"), applied to the discrete squared-slope law of a piecewise
unit; see ``point_masses``.  ``probe_atom`` reads eps * |Im G| at a location,
off the axis, as a numerical check of that rule.
"""

from __future__ import annotations

import itertools
import math
import warnings
from collections import Counter
from typing import Callable

import numpy as np

from .activations import slope_distribution, slope_sq_law
from .density import MASS_TOL, SQUARED_SINGULAR, SpectralDensity
from .ensembles import ORTHOGONAL
from .errors import BranchLossError, PoleError
from .moments import MomentSummary
from .propagation import NetworkConfig, resolve_qstar

__all__ = [
    "master_residual",
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
_ANCHOR_STRIDE = 8  # density() ladders every 8th grid point and seeds the rest from solved neighbours
_SEED_REACH = 4.0  # a seed's two solved ends lie within this factor of its lambda
_NEWTON_TOL = 1e-11  # a ladder step stops at a residual of this times |M|, plus _newton_tol's floor
# a laddered grid point stops at height min(_STOP_HEIGHT, _STOP_HEIGHT_REL * lambda) on its way to the axis,
# and probe_atom reads at _STOP_HEIGHT: below ~1e-6 the residual noise eps_mach |M| ~ eps_mach mass / eps swamps an atom
_STOP_HEIGHT = 1e-6
_STOP_HEIGHT_REL = 1e-3  # tiny lambdas stop proportionally lower, to resolve heavy bottom tails
# Newton's tol on the real axis, where it sets rho's noise: at _NEWTON_TOL, a tenfold
# change of the stop height moved rho by up to 2.4e-9 max rho, at 1e-13 by 2e-10
_AXIS_TOL = 1e-13
_ATOM_SPREAD_TOL = 0.02
_ATOM_MASS_MIN = 1e-3
# density()'s work, summed over points, in its metadata and the theory-spectrum report
WORK_COUNTS = ("residual_evals", "newton_iters", "continuation_steps", "rejected_steps",
               "anchor_points", "seeded_points", "fallback_points")


def _residual_factory(config: NetworkConfig, qstar: float) -> tuple[Callable, int]:
    """(residual, node count of M's sum).

    The residual maps (G, z, z^{1/L}) to (R, dR/dG); with M = zG - 1,
    dlog w/dM = -p/(M(1+M)), less 1/(1+M) for gaussian S.  Its caller opens
    np.errstate, since poles and NaNs are the caller's to handle.
    """
    t, c = slope_sq_law(config.activation, qstar)
    t, ct = t.astype(complex), (c * t).astype(complex)  # cast once, not per call
    inv_sw2 = config.sigma_w**-2.0
    gaussian = config.ensemble.kind != ORTHOGONAL
    L = config.depth
    p = 1.0 - 1.0 / L

    def res(G, z, z_root):
        M = z * G - 1.0
        M1 = 1.0 + M
        dlog_w = -p / (M * M1)
        if gaussian:
            dlog_w -= 1.0 / M1
        w = z_root * ((inv_sw2 / M1 if gaussian else inv_sw2) * (M1 / M) ** p)
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
    with np.errstate(all="ignore"):
        out = res(G, z, z ** (1.0 / config.depth))[0]
    return complex(out) if out.ndim == 0 else out


# ---------------------------------------------------------------------------
# vectorized Newton continuation


def _newton_tol(absM, tol):
    """Residual at which Newton stops: tol relative to |M|, plus the cancellation floor near atoms."""
    return tol * absM + 64.0 * _EPS * (1.0 + absM) ** 2


def _newton_batch(res_fn, z, z_root, G, tol, max_iter):
    """Damped Newton on a batch (module docstring); res_fn(G, z, z_root) gives (R, dR/dG).  Returns (G, converged, niter)."""
    n = G.shape[0]
    G, converged, iters = G.copy(), np.zeros(n, dtype=bool), np.zeros(n, dtype=int)
    idx, Gi, zi, zr = np.arange(n), G, z, z_root  # the open points and their state
    with np.errstate(all="ignore"):
        R, dR = res_fn(G, z, z_root)
        for _ in range(max_iter):
            # tolerance relative to |M| = |zG-1|: the equation admits a pseudo
            # zone near M = 0 where the absolute residual ~ |M|^(1-1/L) becomes
            # arbitrarily small without M being a root; only the residual
            # measured against M's own scale separates the physical branch.
            # The (1+|M|)^2 term is the cancellation floor near atoms, where
            # both sides of the equation blow up together.
            tol_eff = _newton_tol(np.abs(zi * Gi - 1.0), tol)
            absR = np.abs(R)
            ok = absR <= tol_eff
            if ok.any():
                converged[idx[ok]], G[idx], keep = True, Gi, ~ok
                idx, Gi, zi, zr, R, dR, absR, tol_eff = (a[keep] for a in (idx, Gi, zi, zr, R, dR, absR, tol_eff))
            if idx.size == 0:
                break
            step = -R / dR
            finite = np.isfinite(step)
            if not finite.all():  # off poles/NaNs
                step = np.where(finite, step, _NUDGE * (np.abs(zi * Gi - 1.0) + 1e-12) / np.abs(zi))
            absR = np.fmin(absR, np.inf)  # any finite residual descends from a NaN one
            cand = Gi + step
            Rc, dRc = res_fn(cand, zi, zr)
            better = np.abs(Rc) < absR
            h, scale = (~better).nonzero()[0], 1.0  # damped line search along the Newton direction
            for _ in range(_DAMPING_HALVINGS if h.size else 0):
                scale *= 0.5
                cand_h = Gi[h] + step[h] * scale
                Rh, dRh = res_fn(cand_h, zi[h], zr[h])
                won = np.abs(Rh) < absR[h]
                cand[h[won]], Rc[h[won]], dRc[h[won]], better[h[won]] = cand_h[won], Rh[won], dRh[won], True
                h = h[~won]
                if h.size == 0:
                    break
            iters[idx] += 1
            if h.size:  # no descent within 8 halvings: stagnation at the noise floor counts as converged
                converged[idx[h[absR[h] <= 100.0 * tol_eff[h]]]], G[idx] = True, Gi
                idx, zi, zr, cand, Rc, dRc = (a[better] for a in (idx, zi, zr, cand, Rc, dRc))
            Gi, R, dR = cand, Rc, dRc
        G[idx] = Gi
    return G, converged, iters


def _step(res_fn, depth: int, z, M_seed, work: Counter, tol=_NEWTON_TOL, drift=True):
    """Newton from M_seed at each z, z^{1/L} taken once, its work added to ``work``: (G, step test passed, iters).

    Failing the step test, a root has hopped to a spurious or mirror root.  ``drift=False``, the solve after the
    ladder, skips the drift test (at an edge its root lies rightly far from its seed) and allows twice the iterations.
    """

    def counted(G, z, z_root):
        work["residual_evals"] += G.size
        return res_fn(G, z, z_root)

    max_iters = _STEP_MAX_ITERS if drift else 2 * _STEP_MAX_ITERS
    G, conv, iters = _newton_batch(counted, z, z ** (1.0 / depth), (1.0 + M_seed) / z, tol, max_iters + 1)
    work["newton_iters"] += int(iters.sum())
    M = z * G - 1.0
    ok = conv & (iters <= max_iters) & (M.imag < np.sqrt(_newton_tol(np.abs(M), _NEWTON_TOL)))
    if drift:  # a ladder step or seeded point: one continuation step, accepted or rejected
        ok &= np.abs(M - M_seed) <= _STEP_DRIFT * np.abs(M_seed)
        accepted = int(np.count_nonzero(ok))
        work.update(continuation_steps=accepted, rejected_steps=ok.size - accepted)
    return G, ok, iters


def _run_ladder(res_fn, depth: int, lams, eps_targets, m1: float, work: Counter):
    """(G, converged, fail_step) at z = lams + i eps_targets, the ladder's work added to ``work``."""
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
    fail_step = np.full(n, -1, dtype=int)
    idx = np.flatnonzero(z.imag > eps_targets)  # the points still above their targets and not lost
    while idx.size:
        z_from, ri, ei = z[idx], ratio[idx], eps_targets[idx]
        z_to = lams[idx] + 1j * np.maximum(z_from.imag / ri, ei)
        # predictor: 1/M extrapolated linearly in z along the secant of the
        # last step, exact for a single atom (M = m a/(z - a)), ~z/m1 as
        # z -> infinity, ~constant near the real axis.  Seeding M, not G,
        # keeps the seed off the (1+M)/M branch cut
        M_from = z_from * G[idx] - 1.0
        M_pred = 1.0 / (1.0 / M_from + (z_to - z_from) * slope[idx])
        G_to, ok, iters = _step(res_fn, depth, z_to, M_pred, work)
        retry = ~ok & (ri > _RATIO_MIN)
        ratio[idx[retry]] = np.maximum(np.sqrt(ri[retry]), _RATIO_MIN)
        lost = idx[~(ok | retry)]
        fail_step[lost] = steps[lost] + 1
        done = idx[ok]
        G[done], z[done] = G_to[ok], z_to[ok]
        slope[done] = ((1.0 / (z_to * G_to - 1.0) - 1.0 / M_from) / (z_to - z_from))[ok]
        steps[done] += 1
        grow = idx[ok & (iters <= _STEP_GROW_ITERS)]
        ratio[grow] = np.minimum(ratio[grow] ** 2, _STEP_RATIO_MAX)
        idx = idx[retry | ok & (z_to.imag > ei)]
    return G, fail_step < 0, fail_step


def _require_branch(lams, converged, G, fail_step) -> None:
    """Raise BranchLossError naming the first lambda whose solve lost the branch: at a ladder step, else on the axis."""
    lost = np.flatnonzero(~converged)
    if lost.size:
        i = lost[0]
        step = int(fail_step[i]) if fail_step[i] >= 0 else None
        where = "on the real axis" if step is None else f"step {step}"
        raise BranchLossError(
            f"continuation lost the branch at lambda={lams[i]:.6g} "
            f"({where}; {lost.size} of {converged.size} points lost)",
            step_index=step, last_iterate=complex(G[i]),
        )


def probe_atom(config: NetworkConfig, location: float):
    """Residue probe at a location: a numerical check of ``point_masses``.

    eps * |Im G(location + i eps)| tends to the atom mass as eps -> 0.  It is
    read off the axis, at the ladder's stop height eps = 1e-6 and at the four
    heights 1.5^{40-j} just above it, and returns (mass, is_atom): the values
    must agree to a relative spread of 2% on a mass above 1e-3 for the point
    to count as an atom; drifting values indicate an integrable divergence.
    Beside a continuum that diverges at the location the reading stays above
    the mass by eps * integral rho eps / (lambda^2 + eps^2), which can pass
    the test.
    """
    _, res_fn, _, m1 = _prepare(config)
    eps = _STOP_HEIGHT
    b, N = _RATIO_MIN, _START_RUNGS
    k = next(k for k in itertools.count(1) if b ** (N - k) <= eps)  # b^{N-k} is the first at or below eps
    heights = np.array([b ** (N - j) for j in range(k - 4, k)] + [eps])
    G, converged, _ = _run_ladder(res_fn, config.depth, np.full(5, float(location)), heights, m1, Counter())
    vals = heights * np.abs(G.imag)
    if not converged.all() or np.any(vals <= 0.0):
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


def _solve_grid(res_fn, depth: int, lams, targets, m1: float, atoms, work: Counter):
    """(G, converged, fail_step) at z = lams + 0i, points per path in ``work``; fail_step -1: lost on the axis."""
    n, z = lams.size, lams + 1j * targets  # z: where the ladder stops
    log_lam = np.log(np.maximum(lams, 1e-300)) / math.log(_SEED_REACH)  # log base _SEED_REACH
    poles = sum((mass * loc / (lams - loc) for loc, mass in atoms), np.zeros(n))  # M's atom part on the axis
    G, solved, fail_step = np.zeros(n, dtype=complex), np.zeros(n, dtype=bool), np.full(n, -1)

    def ladder(idx):
        G[idx], ok, fail_step[idx] = _run_ladder(res_fn, depth, lams[idx], targets[idx], m1, work)
        idx = idx[ok]  # on to the axis
        G[idx], solved[idx], _ = _step(res_fn, depth, lams[idx], z[idx] * G[idx] - 1.0, work, _AXIS_TOL, drift=False)

    def seeded(idx):
        """Newton at idx from M interpolated in log lambda between the nearest solved points on either side."""
        done = np.flatnonzero(solved)
        j = np.searchsorted(done, idx)
        lo, hi = done[np.maximum(j - 1, 0)], done[np.minimum(j, done.size - 1)]
        # one-sided or wider seeds took spurious roots on coarse grids: M = -1 below the support, real M in it
        use = (lo < idx) & (idx < hi) & (np.maximum(log_lam[idx] - log_lam[lo], log_lam[hi] - log_lam[idx]) <= 1.0)
        idx, lo, hi = idx[use], lo[use], hi[use]
        M_free = lams * G - 1.0 - poles
        t = (log_lam[idx] - log_lam[lo]) / (log_lam[hi] - log_lam[lo])
        M_seed = M_free[lo] + t * (M_free[hi] - M_free[lo]) + poles[idx]
        G_new, ok, _ = _step(res_fn, depth, lams[idx], M_seed, work, _AXIS_TOL)
        G[idx[ok]], solved[idx[ok]] = G_new[ok], True

    i = np.arange(n)
    level = i & -i  # largest power of 2 dividing i: below _ANCHOR_STRIDE, the stride i is seeded at
    gap = np.maximum(log_lam - log_lam[i - level], log_lam[np.minimum(i + level, n - 1)] - log_lam)
    anchors = np.flatnonzero((level % _ANCHOR_STRIDE == 0) | (i == n - 1) | (gap > 1.0))  # out of reach too
    ladder(anchors)
    rest = np.setdiff1d(i, anchors)
    if solved.any():
        for stride in _ANCHOR_STRIDE >> np.arange(1, _ANCHOR_STRIDE.bit_length()):  # 4, 2, 1
            seeded(rest[level[rest] == stride])
        rest = rest[~solved[rest]]
    if rest.size:  # a point fell back
        ladder(rest)
    work.update(anchor_points=anchors.size, seeded_points=n - anchors.size - rest.size, fallback_points=rest.size)
    return G, solved, fail_step


def density(config: NetworkConfig, grid) -> SpectralDensity:
    """Squared-singular-value density of J J^T on the given lambda grid.

    The continuum is read on the real axis, rho = -Im G(lambda + i0) / pi,
    after one Newton per point at z = lambda (module docstring).  The
    atoms are ``point_masses`` in closed form; a grid point at an atom is
    dropped, since M has a pole there.  A point lost on the ladder, or a
    root on the axis off the physical branch (Newton unconverged, or Im M
    above Newton's noise), raises BranchLossError naming its lambda.  The
    metadata holds ``qstar``, the config, ``slope_nodes`` (terms of M(w)
    per residual evaluation), ``total_mass`` and the work tally summed
    over points, ``WORK_COUNTS``: ``residual_evals``, ``newton_iters``,
    ``continuation_steps`` (a seeded point is one), ``rejected_steps``,
    ``anchor_points``, ``seeded_points`` and
    ``fallback_points``.
    """
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or np.any(np.diff(grid) <= 0) or np.any(grid <= 0):
        raise ValueError("grid must be a strictly increasing positive 1-D array")  # M = -1, a pole, at z = 0
    qstar, res_fn, slope_nodes, m1 = _prepare(config)
    atoms = point_masses(config, qstar)
    grid = grid[~np.isin(grid, [loc for loc, _ in atoms])]
    targets = np.minimum(_STOP_HEIGHT, np.maximum(grid * _STOP_HEIGHT_REL, 1e-280))

    work = Counter()
    G, converged, fail_step = _solve_grid(res_fn, config.depth, grid, targets, m1, atoms, work)
    _require_branch(grid, converged, G, fail_step)

    meta = {
        "qstar": qstar,
        "depth": config.depth,
        "sigma_w": config.sigma_w,
        "sigma_b": config.sigma_b,
        "activation": config.activation.name,
        "activation_params": dict(config.activation.params),
        "ensemble": config.ensemble.kind,
        "slope_nodes": slope_nodes,
        **{key: work[key] for key in WORK_COUNTS},
    }
    dens = SpectralDensity(
        domain=SQUARED_SINGULAR,
        grid=grid,
        rho=np.maximum(-G.imag, 0.0) / math.pi,
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
