"""Closed-form infinite-depth limits of the Jacobian spectrum.

In the variance-matched deep limit (spectral variance pinned to s0sq,
orthogonal weights) the squared-singular-value law converges to one of two
universal laws, fixed by the squared-slope law of the nonlinearity as
q* -> 0.  ``bernoulli_G`` and ``smooth_G`` give the resolvents off the real
axis; the densities solve exact parametrisations log z(w) = log lambda by
``special.newton``, the Newton that solves ``master``'s equation for w.

  * {0,1}-valued squared slope ("Bernoulli" class, e.g. saturating units):
    G(z) = s0sq / (z (s0sq + W(-s0sq/z))), W the principal Lambert W.  On
    its cut W = w = -theta cot(theta) + i theta, theta in (0, pi) (Corless
    et al. 1996), so lambda(theta) = s0sq sin(theta) e^{theta cot(theta)} /
    theta falls from lambda1 = e*s0sq to 0, and rho = s0sq theta /
    (pi lambda |s0sq + w|^2).  The continuum mass below lambda(theta) is
    [arg w + (s0sq - 1) arg(w + s0sq)] / pi, of total min(s0sq, 1); the rest,
    1 - s0sq for s0sq < 1, is an atom at lambda2 = exp(s0sq).

  * squared slope concentrating smoothly at 1 (e.g. erf-like units):
    G(z) = w / (z s0sq), z = w e^{w - s0sq} / (w - s0sq), on the branch
    through w = 0 at z = 0.  z is real on the arch w = x + i y,
    (x - s0sq/2)^2 = s0sq^2/4 + s0sq y cot(y) - y^2, and rises along it
    between the edges at the roots of w^2 - s0sq w - s0sq.  There
    rho = Im w / (pi s0sq lambda), the mass above lambda is
    Im[log(w - s0sq) - w^2 / (2 s0sq)] / pi, and there are no atoms.

A density's ``below`` (the continuum mass under grid[0]) is that closed form.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from .density import SQUARED_SINGULAR, SpectralDensity
from .errors import ConvergenceError, PoleError
from .special import _newton_rlambert, bracket_root, lambert_w0, newton, r_lambert

BERNOULLI = "bernoulli"
SMOOTH = "smooth"


def bernoulli_G(sigma0_sq: float, z) -> complex:
    """Limit resolvent for {0,1}-slope nonlinearities."""
    if sigma0_sq <= 0:
        raise ValueError("sigma0_sq must be positive")
    z = complex(z)
    if z == 0:
        raise PoleError("bernoulli_G has a pole at z = 0")
    w = lambert_w0(-sigma0_sq / z)
    return (1.0 / z) * sigma0_sq / (sigma0_sq + w)


def smooth_G(sigma0_sq: float, z) -> complex:
    """Limit resolvent for smoothly-concentrating squared slopes."""
    if sigma0_sq <= 0:
        raise ValueError("sigma0_sq must be positive")
    z = complex(z)
    if z == 0:
        raise PoleError("smooth_G has a pole at z = 0")
    r = -cmath.exp(sigma0_sq) * z
    target = -sigma0_sq * z * cmath.exp(sigma0_sq)
    try:
        w = r_lambert(r, target)
    except ConvergenceError:
        # reroute through the upper half plane when the straight segment
        # stalls near the negative real axis
        w = r_lambert(r, target, via=1j * abs(target))
    G = w / (z * sigma0_sq)
    if z.imag > 0.0 and G.imag > 0.0:
        # on the support the roots come in a near-conjugate pair and the
        # origin-connected continuation may surface on either side; the
        # physical resolvent has Im G <= 0 for Im z > 0, so polish the
        # mirrored root and keep it when it lands on that side
        w2, _ = _newton_rlambert(r, target, w.conjugate(), 1e-13 * abs(target))
        if w2 is not None:
            G2 = w2 / (z * sigma0_sq)
            if G2.imag < G.imag:
                G = G2
    return G


def bernoulli_edges_atoms(sigma0_sq: float) -> dict:
    """Edges lambda0 = 0, lambda1 = e*s0sq, lambda2 = exp(s0sq) and the atoms of the Bernoulli limit."""
    lambda2 = math.exp(sigma0_sq)
    atoms = ((lambda2, 1.0 - sigma0_sq),) if sigma0_sq < 1.0 else ()
    return {"lambda0": 0.0, "lambda1": math.e * sigma0_sq, "lambda2": lambda2, "atoms": atoms}


def bernoulli_log_ratio(theta) -> np.ndarray:
    """log(lambda(theta) / s0sq), falling from 1 at theta -> 0 to -inf at theta -> pi."""
    return np.log(np.sin(theta) / theta) + theta / np.tan(theta)


# Seeds on the cut: theta uniform over the bulk, 1/(pi - theta) over the tail, where log lambda ~ -pi/(pi - theta).
# The abscissa sqrt(1 - log(lambda/s0sq)) ~ theta/sqrt(2) keeps them linear across the branch point at lambda1.
_THETA = np.append(np.linspace(0, 2.5, 64, endpoint=False)[1:], math.pi - 1 / np.linspace(1 / (math.pi - 2.5), 250, 64))
_BERNOULLI_SEEDS = (np.sqrt(1.0 - np.append(1.0, bernoulli_log_ratio(_THETA))),
                    np.append(-1.0, -_THETA / np.tan(_THETA) + 1j * _THETA))


def _solve(fdf, log_lam, x, seeds) -> np.ndarray:
    """w with log z(w) = log_lam, by ``special.newton`` from np.interp(x, *seeds); fdf gives (log z, its w-derivative)."""
    w, ok, _ = newton(fdf, np.interp(x, *seeds), log_lam)
    if not ok.all():
        raise ConvergenceError(f"{np.count_nonzero(~ok)} of {w.size} points unsolved by Newton", last_iterate=w[~ok])
    return w


def bernoulli_w(sigma0_sq: float, lam) -> np.ndarray:
    """W(-s0sq/lambda) above its cut for lambda in (0, lambda1), by Newton on log(z/s0sq) = -w - log(-w)."""
    target = np.log(np.atleast_1d(np.asarray(lam, dtype=float)) / sigma0_sq)
    return _solve(lambda w: (-w - np.log(-w), -1.0 - 1.0 / w), target, np.sqrt(1.0 - target), _BERNOULLI_SEEDS)


def smooth_edges(sigma0_sq: float) -> tuple[float, float]:
    """Sorted support edges (1/2) exp(-sg^2/2) (2 + sg'^2), {sg^2, sg'^2} = {s0 (s0 +- sqrt(s0^2+4))}."""
    s0 = math.sqrt(sigma0_sq)
    root = math.sqrt(sigma0_sq + 4.0)
    sg_p = s0 * (s0 + root)
    sg_m = s0 * (s0 - root)
    lam_a = 0.5 * math.exp(-0.5 * sg_p) * (2.0 + sg_m)
    lam_b = 0.5 * math.exp(-0.5 * sg_m) * (2.0 + sg_p)
    return (min(lam_a, lam_b), max(lam_a, lam_b))


def smooth_arch(sigma0_sq: float, n: int = 256) -> tuple[np.ndarray, np.ndarray]:
    """n points w along the smooth support arch, left to right, and lambda = Re z(w)."""
    half = 0.5 * sigma0_sq

    def r2(y):
        return half * half + sigma0_sq * y / np.tan(y) - y * y  # falls to -inf at pi

    t = np.linspace(0.0, math.pi, n + 2)[1:-1]
    y = bracket_root(r2, 1e-12, math.pi) * np.sin(t)
    w = half - np.sign(np.cos(t)) * np.sqrt(np.maximum(r2(y), 0.0)) + 1j * y
    return w, (w * np.exp(w - sigma0_sq) / (w - sigma0_sq)).real


def smooth_w(sigma0_sq: float, lam) -> np.ndarray:
    """Arch point w with z(w) = lambda in (lambda_-, lambda_+), by Newton on log z from an arch seed."""
    arch, arch_lam = smooth_arch(sigma0_sq)
    log_lam = np.log(np.atleast_1d(np.asarray(lam, dtype=float)))
    return _solve(lambda w: (w - sigma0_sq + np.log(w) - np.log(w - sigma0_sq), 1.0 + 1.0 / w - 1.0 / (w - sigma0_sq)),
                  log_lam, log_lam, (np.log(arch_lam), arch))


def bernoulli_density(sigma0_sq: float, grid) -> SpectralDensity:
    """Bernoulli-class limit density on a positive grid; ``below`` is the closed-form continuum mass under grid[0]."""
    grid = np.asarray(grid, dtype=float)
    if grid[0] <= 0.0:
        raise ValueError("the Bernoulli limit density diverges at 0; the grid must be positive")
    info = bernoulli_edges_atoms(sigma0_sq)
    inside = np.log(grid / sigma0_sq) < 1.0  # lambda < lambda1, decided on bernoulli_w's own target
    w = bernoulli_w(sigma0_sq, grid[inside])
    rho = np.zeros_like(grid)
    rho[inside] = sigma0_sq * w.imag / (math.pi * grid[inside] * np.abs(sigma0_sq + w) ** 2)
    below = min(sigma0_sq, 1.0)  # continuum mass below grid[0]
    if inside[0]:
        below = (np.angle(w[0]) + (sigma0_sq - 1.0) * np.angle(w[0] + sigma0_sq)) / math.pi
    meta = {"class": BERNOULLI, "sigma0_sq": sigma0_sq, **{k: info[k] for k in ("lambda0", "lambda1", "lambda2")}}
    return SpectralDensity(SQUARED_SINGULAR, grid, rho, atoms=info["atoms"], metadata=meta, below=below)


def smooth_density(sigma0_sq: float, grid) -> SpectralDensity:
    """Smooth-class limit density on a grid; ``below`` is the closed-form continuum mass under grid[0]."""
    grid = np.asarray(grid, dtype=float)
    lo, hi = smooth_edges(sigma0_sq)
    inside = (grid > lo) & (grid < hi)
    w = smooth_w(sigma0_sq, grid[inside])
    rho = np.zeros_like(grid)
    rho[inside] = w.imag / (math.pi * sigma0_sq * grid[inside])
    below = float(grid[0] >= hi)
    if inside[0]:
        below = 1.0 - (np.log(w[0] - sigma0_sq) - w[0] ** 2 / (2.0 * sigma0_sq)).imag / math.pi
    meta = {"class": SMOOTH, "sigma0_sq": sigma0_sq, "lambda_minus": lo, "lambda_plus": hi}
    return SpectralDensity(SQUARED_SINGULAR, grid, rho, metadata=meta, below=below)
