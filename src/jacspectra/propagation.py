"""Forward signal-propagation statistics.

The pre-activation variance of a wide random network obeys the depth
recursion q^l = V(q^{l-1}) with the variance map

    V(q) = sigma_w^2 * integral Dh phi(sqrt(q) h)^2 + sigma_b^2,

whose fixed point q* sets the Gaussian at which all slope statistics are
evaluated.  Criticality is the curve chi = sigma_w^2 * mu_1(q*) = 1 in the
(sigma_w, sigma_b) plane; on it the mean squared singular value of the
depth-L Jacobian stays at one for every L.

Each question here is one root solve by ``special.bracket_root``, which
solves every element of an array at once: the fixed point V(q) = q, for a
whole (sigma_w, sigma_b) grid in one solve; the critical line, parametrised
by q* (Poole et al. 2016, arXiv 1606.05340) as sigma_w(q)^2 = 1/mu_1(q) and
sigma_b(q)^2 = q - integral Dh phi(sqrt(q) h)^2 / mu_1(q); and the
variance-matched depth schedule mu_2(q*)/mu_1(q*)^2 = 1 + s0sq/L, which pins
the Jacobian spectral variance to s0sq at every depth (orthogonal weights)
and drives q* -> 0, sigma_w -> 1 as L grows.  All three walk a factor-2
bracket out of q = 1 and hand the root solve f at the bracket's ends, which
it then does not evaluate again.  Scale-free units (every kink at 0, zero
intercepts) have V(q) = chi q + sigma_b^2 with chi independent of q, so their
fixed point and critical point are closed forms.  Gaussian expectations are
those of ``activations``, at its one default Gauss rule.  ``resolve_qstar``
hands every spectral computation its q* and is the one place that refuses a
q* with no spectrum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .activations import ActivationSpec, mu_k, phi_sq_mean
from .ensembles import ORTHOGONAL, WeightEnsemble
from .errors import ActivationClassError, BracketError, ConvergenceError, JacspectraError
from .special import bracket_root, eval_where


@dataclass(frozen=True)
class FixedPoint:
    """q* and chi there; ``iterations`` counts evaluations of the variance map."""

    qstar: float
    chi: float
    iterations: int
    converged: bool
    residual: float


@dataclass(frozen=True)
class NetworkConfig:
    """A random network: depth, scales, nonlinearity, weight ensemble.

    ``width`` is only needed for simulation.  ``qstar`` pins the
    pre-activation variance explicitly (used by variance-matched depth
    schedules); when None it is resolved from (sigma_w, sigma_b) by
    ``resolve_qstar``.
    """

    activation: ActivationSpec
    ensemble: WeightEnsemble
    sigma_w: float
    sigma_b: float
    depth: int
    width: Optional[int] = None
    qstar: Optional[float] = None

    def __post_init__(self):
        if self.depth < 1:
            raise ValueError("depth must be >= 1")
        if not self.sigma_w > 0:  # nan too
            raise ValueError("sigma_w must be positive")
        if self.sigma_b < 0:
            raise ValueError("sigma_b must be nonnegative")
        if self.width is not None and self.width < 2:
            raise ValueError("width must be >= 2 for simulation")


def _variance_map(activation, sigma_w, sigma_b, q):
    return sigma_w * sigma_w * phi_sq_mean(activation, q) + sigma_b * sigma_b


def chi(activation: ActivationSpec, sigma_w: float, qstar: float) -> float:
    """Mean squared singular value of one D W layer factor at the fixed point."""
    return sigma_w * sigma_w * mu_k(activation, qstar, 1)


_Q_CEILING = 1e8  # a walk up past this reports divergence
_TINY_Q = 1e-300


def _walk(f, f1, up, live=True, args=()):
    """Factor-2 steps out of q = 1, where f = f1, until f changes sign; elementwise over ``live``.

    Returns brackets (lo, hi) and f at their ends, for ``bracket_root``; where
    a walk leaves [1e-300, 1e8], hi is nan and lo its last q.
    """
    q, fq = np.ones(np.shape(f1)), f1
    step, sign = np.where(up, 2.0, 0.5), np.copysign(1.0, f1)
    lo, hi = q, np.full(q.shape, math.nan)
    flo, fhi = hi, hi
    while True:
        live = live & (_TINY_Q <= q) & (q <= _Q_CEILING)
        if not live.any():
            return np.where(np.isnan(hi), q, lo), hi, flo, fhi
        nxt = step * q
        fnxt = eval_where(f, nxt, live, args)
        hit = live & (sign * fnxt <= 0.0)
        lo, hi = np.where(hit, np.minimum(q, nxt), lo), np.where(hit, np.maximum(q, nxt), hi)
        flo, fhi = np.where(hit, np.where(up, fq, fnxt), flo), np.where(hit, np.where(up, fnxt, fq), fhi)
        live = live & ~hit
        q, fq = np.where(live, nxt, q), np.where(live, fnxt, fq)


def _solve_out_of_one(f, no_bracket: str) -> float:
    """Root of the scalar f on the bracket that ``_walk`` finds out of q = 1; BracketError(no_bracket) if none."""
    f1 = f(1.0)
    lo, hi, flo, fhi = _walk(f, f1, f1 < 0.0)
    if np.isnan(hi):
        raise BracketError(no_bracket)
    return bracket_root(f, lo, hi, f_ends=(flo, fhi))


def _fixed_points(activation: ActivationSpec, sigma_w, sigma_b):
    """``qstar_fixed_point`` on every cell of (sigma_w, sigma_b) at once, as arrays of the cells' shape.

    Each stage makes one call of the variance map on the cells it concerns.
    """
    sw, sb = np.broadcast_arrays(np.asarray(sigma_w, dtype=float), np.asarray(sigma_b, dtype=float))
    cells = np.arange(sw.size).reshape(sw.shape)
    evals = np.zeros(sw.size, dtype=int)

    def gap(q, cell):
        evals[cell] += 1
        return _variance_map(activation, sw.flat[cell], sb.flat[cell], q) - q

    q = np.zeros(sw.shape)
    walk = np.ones(sw.shape, dtype=bool)
    if activation.is_scale_free:
        c = chi(activation, sw, 1.0)  # the same at every q
        degenerate = _is_degenerate(c, sb)
        closed = ~degenerate & (sb * sb < (1.0 - c) * _Q_CEILING)  # chi < 1 and q* below the ceiling
        q[degenerate] = 1.0
        np.divide(sb * sb, 1.0 - c, out=q, where=closed)
        walk = ~(degenerate | closed)
    g1 = eval_where(gap, np.ones(sw.shape), walk, (cells,))
    up = g1 > 0.0
    down = walk & ~up
    slope0 = float(activation.dphi(np.array(0.0)))
    ordered = down & (eval_where(gap, np.zeros(sw.shape), down, (cells,)) == 0.0) & ((sw * slope0) ** 2 <= 1.0)
    walk = walk & ~ordered
    lo, hi, flo, fhi = _walk(gap, g1, up, walk, (cells,))
    left = walk & np.isnan(hi)  # past the ceiling, or below 1e-300: the ordered phase
    converged = ~(left & up)
    inside = walk & ~left
    solved = bracket_root(gap, lo, hi, (cells,), inside, (flo, fhi)) if inside.any() else q
    q = np.where(inside, solved, np.where(left & up, lo, q))
    residual = np.abs(gap(q, cells))
    if not activation.is_scale_free:  # chi at q*, one call for every converged cell
        c = np.full(sw.shape, math.nan)
        c[converged] = chi(activation, sw[converged], np.maximum(q[converged], _TINY_Q))
    return q, np.where(converged, c, math.nan), evals.reshape(sw.shape), converged, residual


def qstar_fixed_point(activation: ActivationSpec, sigma_w: float, sigma_b: float) -> FixedPoint:
    """Fixed point that the variance recursion started at q = 1 tends to.

    Scale-free units with chi < 1 take the closed form sigma_b^2/(1 - chi),
    and q* = 1 where every q is a fixed point (``fixed_point_is_degenerate``).
    Otherwise a factor-2 bracket walks out of q = 1 in the direction of
    sign(V(1) - 1) and V(q) - q is solved in it.  A walk down with V(0) = 0
    and sigma_w^2 phi'(0)^2 <= 1 ends at the ordered phase q* = 0; a walk up
    past 1e8 returns converged=False, chi = nan and the last q of the walk.
    This is the one-cell case of the array solver behind ``phase_grid``.
    """
    q, c, evals, converged, residual = _fixed_points(activation, sigma_w, sigma_b)
    return FixedPoint(float(q), float(c), int(evals), bool(converged), float(residual))


def fixed_point_is_degenerate(activation: ActivationSpec, sigma_w, sigma_b):
    """True where the variance map is the identity (every q is a fixed point); elementwise.

    That is a scale-free unit at sigma_b = 0 and chi = 1, such as the linear
    network at (1, 0); the fixed point then carries no information and the
    commands report q* = 0.
    """
    if not activation.is_scale_free:
        return np.zeros(np.broadcast(sigma_w, sigma_b).shape, dtype=bool)
    return _is_degenerate(chi(activation, np.asarray(sigma_w, dtype=float), 1.0), sigma_b)


def _is_degenerate(chi_scale_free, sigma_b):
    return (np.asarray(sigma_b) == 0.0) & (np.abs(chi_scale_free - 1.0) <= 1e-12)


def critical_sigma_w(activation: ActivationSpec, sigma_b: float) -> tuple[float, float]:
    """Point (sigma_w, q*) of the critical line chi = 1 at the given sigma_b.

    Solves sigma_b(q) = sigma_b for q* by ``bracket_root`` on a factor-2
    bracket walked out of q = 1, then sigma_w = mu_1(q*)^{-1/2}.  For
    scale-free units sigma_b(q) = 0 for every q, so at sigma_b = 0 the point
    is sigma_w = mu_1^{-1/2} with the degenerate q* = 1.

    Raises BracketError where the critical point is no finite fixed point:
    scale-free units at sigma_b > 0 (q* diverges as chi -> 1), other units
    at sigma_b = 0 (the critical point is the limit q* -> 0), when no q* in
    [1e-300, 1e8] solves, and when the q* found is unstable (silu at small
    sigma_b): V'(q*) >= 1, so the recursion never settles there.
    """
    name = activation.name
    if activation.is_scale_free and sigma_b > 0.0:
        raise BracketError(f"{name} is scale-free: at sigma_b={sigma_b} q* diverges as chi -> 1")
    if activation.is_scale_free:
        return 1.0 / math.sqrt(mu_k(activation, 1.0, 1)), 1.0
    if sigma_b == 0.0:
        raise BracketError(f"{name} at sigma_b=0: the critical point is the limit q* -> 0")

    def excess(q: float) -> float:  # sigma_b(q)^2 - sigma_b^2; piecewise units evaluate their piece CDFs once
        return q - phi_sq_mean(activation, q) / mu_k(activation, q, 1) - sigma_b * sigma_b

    q = _solve_out_of_one(excess, f"no critical point for {name} at sigma_b={sigma_b} with q* in [1e-300, 1e8]")
    sigma_w = 1.0 / math.sqrt(mu_k(activation, q, 1))
    # chi = 1 gives V'(q*) = 1 + sigma_w^2 E[phi phi'']; the recursion settles at q* only if V'(q*) < 1
    d = 1e-4 * q
    rise = _variance_map(activation, sigma_w, sigma_b, q + np.array([-d, d]))
    if rise[1] - rise[0] >= 2.0 * d:
        raise BracketError(f"{name} at sigma_b={sigma_b}: the critical fixed point q*={q:.7g} is unstable")
    return sigma_w, q


def double_scaling_qstar(activation: ActivationSpec, depth: int, sigma0_sq: float) -> tuple[float, float]:
    """q*(L) pinning the Jacobian spectral variance to sigma0_sq (orthogonal).

    Solves mu_2(q*)/mu_1(q*)^2 = 1 + sigma0_sq/depth by ``bracket_root`` on a
    factor-2 bracket walked out of q = 1, as the fixed point and the critical
    line do; returns (q*, critical sigma_w = mu_1(q*)^{-1/2}).  The ratio is
    flat near its root at large depth, so q* is defined only to about
    eps/|d ratio/dq| (some thousand floats at depth 1024).  Raises
    BracketError when no q* in [1e-300, 1e8] solves.
    """
    if activation.is_scale_free:
        raise ActivationClassError(
            f"{activation.name} has a scale-free slope distribution; "
            "no q* can hold the spectral variance fixed across depth"
        )
    target = 1.0 + sigma0_sq / depth

    def h(q: float) -> float:
        return mu_k(activation, q, 2) / mu_k(activation, q, 1) ** 2 - target

    q = _solve_out_of_one(h, f"{activation.name}: no q* in [1e-300, 1e8] gives the variance ratio {target}")
    return q, 1.0 / math.sqrt(mu_k(activation, q, 1))


def resolve_qstar(config: NetworkConfig) -> FixedPoint:
    """Fixed point for a config, honoring an explicit qstar override.

    Raises ConvergenceError when q* diverges, and JacspectraError when
    q* = 0 (the ordered phase): neither has a Jacobian spectrum.
    """
    act, sigma_w, sigma_b = config.activation, config.sigma_w, config.sigma_b
    where = f"{act.name} (sigma_w={sigma_w}, sigma_b={sigma_b})"
    if config.qstar is not None:
        qstar, fp = config.qstar, None
    else:
        fp = qstar_fixed_point(act, sigma_w, sigma_b)
        if not fp.converged:
            raise ConvergenceError(f"fixed point did not converge for {where}", fp.qstar, fp.residual)
        qstar = fp.qstar
    if not qstar > 0.0:
        raise JacspectraError(f"q*={qstar} for {where}: the spectrum needs q* > 0 (q* = 0 is the ordered phase)")
    return fp or FixedPoint(qstar=qstar, chi=chi(act, sigma_w, qstar), iterations=0, converged=True, residual=0.0)


@dataclass(frozen=True)
class PhaseGrid:
    sigma_w: np.ndarray
    sigma_b: np.ndarray
    qstar: np.ndarray
    chi: np.ndarray
    converged: np.ndarray

    def rows(self):
        """(sigma_w, sigma_b, q*, chi, converged) per cell, as Python floats and bools."""
        return zip(*(a.tolist() for a in (self.sigma_w, self.sigma_b, self.qstar, self.chi, self.converged)))


def phase_grid(activation: ActivationSpec, sigma_w_values, sigma_b_values) -> PhaseGrid:
    """Fixed point and chi on the product grid (sigma_w fastest) in one array solve; non-converged cells flagged."""
    grid = np.meshgrid(np.asarray(sigma_w_values, dtype=float), np.asarray(sigma_b_values, dtype=float))
    sw, sb = (a.ravel() for a in grid)
    qstar, chis, _, converged, _ = _fixed_points(activation, sw, sb)
    return PhaseGrid(sigma_w=sw, sigma_b=sb, qstar=qstar, chi=chis, converged=converged)


def critical_config(
    activation: ActivationSpec,
    ensemble_kind: str,
    sigma_b: float,
    depth: int,
    *,
    width: Optional[int] = None,
) -> NetworkConfig:
    """Config on the critical line at the given sigma_b."""
    sigma_w, qstar = critical_sigma_w(activation, sigma_b)
    return NetworkConfig(
        activation=activation,
        ensemble=WeightEnsemble(ensemble_kind),
        sigma_w=sigma_w,
        sigma_b=sigma_b,
        depth=depth,
        width=width,
        qstar=qstar,
    )


def double_scaled_config(
    activation: ActivationSpec,
    depth: int,
    sigma0_sq: float,
    *,
    width: Optional[int] = None,
) -> NetworkConfig:
    """Orthogonal config at depth with variance-matched q*(depth)."""
    qstar, sigma_w = double_scaling_qstar(activation, depth, sigma0_sq)
    return NetworkConfig(
        activation=activation,
        ensemble=WeightEnsemble(ORTHOGONAL),
        sigma_w=sigma_w,
        sigma_b=0.0,
        depth=depth,
        width=width,
        qstar=qstar,
    )
