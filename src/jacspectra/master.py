"""Self-consistent resolvent solver for the depth-L Jacobian spectrum.

The resolvent G(z) of the squared-singular-value distribution of the
depth-L Jacobian satisfies the implicit equation

    z G - 1 = M(z^{1/L} * F(z G - 1)),     F(x) = S(x) ((1+x)/x)^{1-1/L},

where M is the squared-slope transform of the nonlinearity at the fixed
point and S is the weight ensemble's S-transform.  Principal branches are
used for both fractional powers; the choice is validated against Monte Carlo
spectra rather than argued analytically.

The equation is explicit in w = z^{1/L} F(x): x = zG - 1 = M(w) = sum c t/(w - t)
over the squared-slope law, and

    f(w) = log w + g log(1 + x) - p Log((1 + x)/x) = (log z)/L - 2 log sigma_w,

with p = 1 - 1/L, and g = 1 for gaussian weights (S = 1/(sigma_w^2 (1 + x)))
and 0 for orthogonal ones.  So each point is the root of one analytic
function of one variable, with f' = 1/w + (g - p) x'/(1 + x) + p x'/x in
closed form, and lambda enters only as (log lambda)/L: a chi^L far from 1 is
a shift.  1 + x is formed as w sum c/(w - t) (sum c = 1), which does not
cancel far below the support, and the logs take their arguments on the
physical side of the cuts, Im w >= +0 and Im x <= -0 with signed zeros kept;
Log((1 + x)/x) is one log, since two would cap Im f near 4e-16 and read a
continuum below an orthogonal atom.  At L = 1 the p term is left out, since
p = 0 would meet Log((1 + x)/x) = inf, and a smooth unit with orthogonal
weights is refused: the quadrature makes its law sigma_w^2 phi'(h)^2
discrete, without a continuum.

Every root is found by ``special.newton``, the damped Newton that ``limits``
uses too: f has real coefficients, so an iterate below the real axis is
replaced by its conjugate.  ``density`` solves a grid in four steps:

  1. The anchors, every 16th point, the last, and any whose level's
     neighbours lie beyond a factor 4 in lambda, are marched down in height
     in one batch: z = lambda + i h, with h geometric from 100 max(lambda,
     e (L+1) chi^L) down to 0.1 lambda by factors of at most 16, then h = 0.
     Each step's Newton is seeded by extrapolating log w in log z from up
     to three roots above it, the first by the large-z limit w = z /
     (sigma_w^{2L} mu^{L-1}), mu = sum c t (x ~ chi^L/z).  Above the axis a
     root only seeds the next step, so it is solved to 1e-4; on the axis to
     1e-14.  Each march starts above its own point and above the spectrum's
     scale chi^L, so a chi^L far from 1 costs steps, not points.
  2. The rest are seeded level by level (strides 8, 4, 2, 1, one Newton
     batch each) by log w interpolated in log lambda between the solved
     points on either side.
  3. A point whose seed fails is marched in height, as an anchor is.
  4. rho = -Im x / (pi lambda) at each root.

The mass above lambda, atoms included, is Im H(w(lambda))/pi, where H is the
antiderivative of x d log z (log z is real on the axis) that is 0 at infinity,

    H(w) = L [sum c (log(w - t) - log w) + g (x - log(1 + x)) + p log(1 + x)].

A seed between two real roots is real, and Newton from it stays on the real
line: where the support has an island between the two, the seed fails and
the point is marched.  On a square-root edge, where f' = 0, Newton converges
only linearly, so it may take 24 iterations.  A point lost on its march
raises BranchLossError.

Point masses are not read from the march: they follow in closed form from
the atom rule for free multiplicative convolution (Belinschi 2003, "The
atoms of the free multiplicative convolution of two probability
distributions"), applied to the discrete squared-slope law of a piecewise
unit; see ``point_masses``.  ``probe_atom`` reads eps * |Im G| at a location,
off the axis on the same march, as a numerical check of that rule.
"""

from __future__ import annotations

import math
import warnings
from collections import Counter

import numpy as np

from .activations import slope_distribution, slope_sq_law
from .density import SQUARED_SINGULAR, SpectralDensity
from .ensembles import ORTHOGONAL
from .errors import BranchLossError, JacspectraError
from .moments import MomentSummary
from .propagation import NetworkConfig, resolve_qstar
from .special import newton, one_blas_thread

__all__ = [
    "density",
    "default_lam_max",
    "point_masses",
    "probe_atom",
]

MASS_TOL = 1e-2  # a density whose total mass strays from one by more than this is warned about
_NEWTON_TOL = 1e-14  # |f - target| <= 1e-14 (1 + |target|)
_MARCH_TOL = 1e-4  # a march's tolerance above the heights it reads, where a root only seeds the next
_NEWTON_ITERS = 24  # a root on a square-root edge, where f' = 0, converges only linearly
_DAMPING_HALVINGS = 8
_MARCH_RATIO = 16.0  # a march divides the height by at most this per step, from start_height down to _MARCH_END lambda
_MARCH_END = 0.1
_ANCHOR_STRIDE = 16  # density() marches every 16th grid point and seeds the rest from solved neighbours
_SEED_REACH = 4.0  # a seed's two solved ends lie within this factor of its lambda
# probe_atom reads at _STOP_HEIGHT: below ~1e-6 the rounding of x ~ mass / eps swamps an atom
_STOP_HEIGHT = 1e-6
_PROBE_RATIO = 1.5
_ATOM_SPREAD_TOL = 0.02
_ATOM_MASS_MIN = 1e-3
# density()'s work, summed over points, in its metadata and the theory-spectrum report
WORK_COUNTS = ("residual_evals", "newton_iters", "anchor_points", "seeded_points", "fallback_points")


class _Solver:
    """f(w) of the module docstring for one config, and the Newton, march and readout on it."""

    def __init__(self, config: NetworkConfig):
        fp = resolve_qstar(config)
        self.qstar, self.depth = fp.qstar, config.depth
        t, c = slope_sq_law(config.activation, fp.qstar)
        self.nodes, self.t = t.size, t
        self.c, self.ct = c.astype(complex), (c * t).astype(complex)  # cast once, not per call
        self.log_sw2 = 2.0 * math.log(config.sigma_w)
        # log chi^L and the first seed's log(sigma_w^{2L} mu^{L-1})
        log_mu = math.log(math.fsum(c * t))  # correctly rounded: the same with or without the nodes below 1e-30
        self.log_m1 = config.depth * (self.log_sw2 + log_mu)
        self.log_seed = self.log_m1 - log_mu
        self.gaussian = config.ensemble.kind != ORTHOGONAL
        self.work = Counter()

    def x(self, w):
        """(x, 1 + x, 1/(w - t)): x = sum c t/(w - t) and 1 + x = w sum c/(w - t), both with Im <= -0."""
        r = w[:, None] - self.t
        np.reciprocal(r, out=r)
        s, x = r @ self.c, r @ self.ct
        one_x = w * s
        x.imag, one_x.imag = -np.abs(x.imag), -np.abs(one_x.imag)
        return x, one_x, r

    def fdf(self, w):
        """(f, f') at w, taken with Im w >= +0."""
        self.work["residual_evals"] += w.size
        x, one_x, r = self.x(w)
        dx = -(np.square(r, out=r) @ self.ct)
        d_1x = dx / one_x
        f, df = np.log(w), 1.0 / w
        if self.gaussian:
            f, df = f + np.log(one_x), df + d_1x
        if self.depth > 1:
            p = 1.0 - 1.0 / self.depth
            f, df = f - p * np.log(one_x / x), df - p * (d_1x - dx / x)
        return f, df

    def solve(self, w, z, tol=_NEWTON_TOL):
        """Newton at z from the seeds w: (w, accepted)."""
        w, ok, iters = newton(self.fdf, w, np.log(z) / self.depth - self.log_sw2, tol, _NEWTON_ITERS, _DAMPING_HALVINGS)
        self.work["newton_iters"] += int(iters.sum())
        return w, ok

    def march(self, lam, heights, read=1):
        """w down the heights (rows) at each lam (columns), one Newton batch per row, each seeded by extrapolating
        log w in log z from up to three roots above it, the first from the large-z limit w = z/(sigma_w^{2L}
        mu^{L-1}); the last ``read`` rows are solved to _NEWTON_TOL.  Returns (w at every height, the row at which
        each column was lost or -1)."""
        z = lam + 1j * heights
        log_z, log_w = np.log(z), np.log(z) - self.log_seed
        lost, live = np.full(z.shape[1], -1), np.arange(z.shape[1])
        for k in range(z.shape[0]):
            if k:
                above = slice(max(k - 3, 0), k)
                log_w[k, live] = _lagrange(log_z[k, live], log_z[above, live], log_w[above, live])
            w, ok = self.solve(np.exp(log_w[k, live]), z[k, live], _NEWTON_TOL if k >= z.shape[0] - read else _MARCH_TOL)
            log_w[k:, live] = np.log(w)  # a lost column keeps its last iterate to the end
            lost[live[~ok]] = k + 1
            live = live[ok]
        return np.exp(log_w), lost

    def start_height(self, lam):
        """100 max(lam, e (L+1) chi^L): far enough above the spectrum for the large-z seed."""
        log_top = np.maximum(np.log(lam), 1.0 + math.log(self.depth + 1.0) + self.log_m1)
        return np.exp(np.minimum(math.log(100.0) + log_top, 690.0))


def _lagrange(u, us, vs):
    """Value at u of the polynomial through the points (us[j], vs[j]); through one point, the line of slope 1
    (log w = log z + const, w's large-z form)."""
    if len(us) == 1:
        return vs[0] + u - us[0]
    return sum(v * math.prod((u - uk) / (uj - uk) for k, uk in enumerate(us) if k != j) for j, (uj, v) in enumerate(zip(us, vs)))


def _heights(start, stop, steps: int):
    """steps + 1 heights per column, geometric from start down to stop."""
    return start * (stop / start) ** (np.arange(steps + 1.0)[:, None] / steps)


def _require_branch(lams, converged, w, fail_step) -> None:
    """Raise BranchLossError naming the first lambda whose march lost the branch, and the step it was lost at."""
    lost = np.flatnonzero(~converged)
    if lost.size:
        i = lost[0]
        raise BranchLossError(
            f"march lost the branch at lambda={lams[i]:.6g} (step {fail_step[i]}; {lost.size} of {converged.size} points lost)",
            step_index=int(fail_step[i]), last_iterate=complex(w[i]),
        )


def probe_atom(config: NetworkConfig, location: float):
    """Residue probe at a location: a numerical check of ``point_masses``.

    eps * |Im G(location + i eps)| tends to the atom mass as eps -> 0.  It is
    read off the axis, on the march in height that ``density`` takes to its
    anchors, here by factors of 1.5 down to eps = 1e-6, at the last five
    heights.  It returns (mass, is_atom): the values must agree to a relative
    spread of 2% on a mass above 1e-3 for the point to count as an atom;
    drifting values indicate an integrable divergence.  Beside a continuum
    that diverges at the location the reading stays above the mass by
    eps * integral rho eps / (lambda^2 + eps^2), which can pass the test.
    """
    solver = _Solver(config)
    loc = float(location)
    start = solver.start_height(max(loc, _STOP_HEIGHT))
    heights = _heights(start, _STOP_HEIGHT, math.ceil(math.log(start / _STOP_HEIGHT) / math.log(_PROBE_RATIO)))
    w, lost = solver.march(np.array([loc]), heights, read=5)
    if lost[0] >= 0:
        return 0.0, False
    w, h = w[-5:, 0], heights[-5:, 0]
    vals = h * np.abs((solver.x(w)[1] / (loc + 1j * h)).imag)
    if np.any(vals <= 0.0):
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


def _solve_grid(solver: _Solver, lams):
    """(w, converged, fail_step) at z = lams + 0i, points per path in the solver's work; fail_step: the march step
    at which a point was lost, -1 where solved."""
    n = lams.size
    log_lam = np.log(lams)
    reach = log_lam / math.log(_SEED_REACH)
    w, solved, fail_step = np.zeros(n, dtype=complex), np.zeros(n, dtype=bool), np.full(n, -1)

    def march(idx):
        """March the points idx down in height, then onto the axis."""
        start, stop = solver.start_height(lams[idx]), _MARCH_END * lams[idx]
        steps = math.ceil(np.log(start / stop).max() / math.log(_MARCH_RATIO))
        heights = np.vstack([_heights(start, stop, steps), np.zeros(idx.size)])
        path, fail_step[idx] = solver.march(lams[idx], heights)
        w[idx], solved[idx] = path[-1], fail_step[idx] < 0

    i = np.arange(n)
    level = i & -i  # largest power of 2 dividing i: below _ANCHOR_STRIDE, the stride i is seeded at
    gap = np.maximum(reach - reach[i - level], reach[np.minimum(i + level, n - 1)] - reach)
    anchors = np.flatnonzero((level % _ANCHOR_STRIDE == 0) | (i == n - 1) | (gap > 1.0))  # out of reach too
    march(anchors)
    rest = np.setdiff1d(i, anchors)
    for stride in _ANCHOR_STRIDE >> np.arange(1, _ANCHOR_STRIDE.bit_length() if solved.any() else 0):  # 8, 4, 2, 1
        idx = rest[level[rest] == stride]
        done = np.flatnonzero(solved)
        j = np.searchsorted(done, idx)
        lo, hi = done[np.maximum(j - 1, 0)], done[np.minimum(j, done.size - 1)]
        use = (lo < idx) & (idx < hi) & (np.maximum(reach[idx] - reach[lo], reach[hi] - reach[idx]) <= 1.0)
        idx, lo, hi = idx[use], lo[use], hi[use]  # the others are marched
        seed = _lagrange(log_lam[idx], (log_lam[lo], log_lam[hi]), (np.log(w[lo]), np.log(w[hi])))
        w[idx], solved[idx] = solver.solve(np.exp(seed), lams[idx])
    fallback = rest[~solved[rest]]
    if fallback.size:
        march(fallback)
    solver.work.update(anchor_points=anchors.size, seeded_points=rest.size, fallback_points=fallback.size)
    return w, solved, fail_step


@one_blas_thread()
def density(config: NetworkConfig, grid) -> SpectralDensity:
    """Squared-singular-value density of J J^T on the given lambda grid.

    The continuum is read on the real axis, rho = -Im x(w) / (pi lambda) at
    the root w of f(w) = (log lambda)/L - 2 log sigma_w (module docstring),
    whose one log reads none below an atom.  The atoms are ``point_masses`` in
    closed form; a grid point at an atom is dropped, since x has a pole there.
    ``below`` is 1 - Im H(w_0)/pi at grid[0]'s root, less the atoms at or
    under grid[0].  A point lost on its march in height (the axis is the
    march's last step) raises BranchLossError naming its lambda and the step,
    and a smooth unit at L = 1 with orthogonal weights raises JacspectraError.
    The metadata holds the config's ``settings()`` with ``qstar`` resolved,
    ``slope_nodes`` (terms of x(w) per residual evaluation) and the work tally
    summed over points, ``WORK_COUNTS``: ``residual_evals`` (points at which f
    and f' were evaluated), ``newton_iters``, ``anchor_points`` (points
    marched in height), ``seeded_points`` (the rest) and ``fallback_points``
    (seeded points marched after their seed failed).
    """
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or np.any(np.diff(grid) <= 0) or np.any(grid <= 0):
        raise ValueError("grid must be a strictly increasing positive 1-D array")  # x = -1, a pole, at z = 0
    if config.depth == 1 and config.ensemble.kind == ORTHOGONAL and not config.activation.is_piecewise:
        name = config.activation.name
        raise JacspectraError(f"{name} at L = 1 with orthogonal weights: the quadrature makes its law discrete")
    solver, L = _Solver(config), config.depth
    atoms = point_masses(config, solver.qstar)
    grid = grid[~np.isin(grid, [loc for loc, _ in atoms])]

    w, converged, fail_step = _solve_grid(solver, grid)
    _require_branch(grid, converged, w, fail_step)
    x, one_x, _ = solver.x(w)
    # H(w_0)/L at grid[0]'s root, taken with Im w_0 >= +0.  Its first-order error from the root's residual,
    # x (f - target), stays under 1e-12 down to a relative 1e-8 from an atom, where |x| reaches 1e8, as f is one log
    w0, x0, log_1x = complex(w[0].real, abs(w[0].imag)), x[0], np.log(one_x[0])
    h = np.log(w0 - solver.t) @ solver.c - np.log(w0) + (1 - 1 / L) * log_1x + solver.gaussian * (x0 - log_1x)

    meta = {
        **config.settings(),
        "qstar": solver.qstar,
        "slope_nodes": solver.nodes,
        **{key: solver.work[key] for key in WORK_COUNTS},
    }
    dens = SpectralDensity(
        domain=SQUARED_SINGULAR,
        grid=grid,
        rho=np.maximum(-x.imag, 0.0) / (math.pi * grid),
        atoms=atoms,
        metadata=meta,
        below=1.0 - L * h.imag / math.pi - sum(m for loc, m in atoms if loc <= grid[0]),
    )
    if abs(dens.total_mass() - 1.0) > MASS_TOL:
        warnings.warn(f"density mass {dens.total_mass():.4f} off by more than {MASS_TOL}; grid misses mass", stacklevel=2)
    return dens


def default_lam_max(ms: MomentSummary) -> float:
    """Top of the default lambda grid: 1.5x the edge guess max(4 m2/m1, 4 m1, 1)."""
    return 1.5 * max(4.0 * ms.m2 / max(ms.m1, 1e-12), 4.0 * ms.m1, 1.0)
