"""Pointwise nonlinearities with their slope statistics.

For a nonlinearity phi applied at pre-activation variance q (h ~ N(0, q)),
the spectral inputs needed downstream are the moments of the squared slope

    mu_k(q) = integral Dh  phi'(sqrt(q) h)^(2k),

and the squared-slope moment generating transform

    M(q, z) = integral Dh  phi'(sqrt(q) h)^2 / (z - phi'(sqrt(q) h)^2),

which the master solver evaluates as a finite sum over the law returned by
``slope_sq_law``.

A piecewise-linear unit is given once, by its kinks and one line
(intercept, slope) per piece between them; phi, phi' and the squared-slope
law all follow from those.  At a kink phi' is the smaller of the two slopes.
The law is discrete, so both quantities are evaluated exactly by splitting
the Gaussian at the kinks (Gaussian CDF masses per piece); smooth activations
use the one Gauss rule ``special.default_rule``, except for the two erf
scalings, whose mu_k and integral Dh phi^2 have closed forms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Optional

import numpy as np

from .errors import ActivationClassError
from .special import default_rule, erf_vec, norm_cdf, norm_pdf


@dataclass(frozen=True)
class AffinePiece:
    """phi(x) = intercept + slope * x on (lo, hi), in phi's own coordinate."""

    lo: float
    hi: float
    intercept: float
    slope: float


@dataclass(frozen=True)
class ActivationSpec:
    name: str
    phi: Callable[[np.ndarray], np.ndarray]
    dphi: Callable[[np.ndarray], np.ndarray]
    params: tuple = ()
    pieces: Optional[tuple] = None
    mu_closed: Optional[Callable[[np.ndarray, int], np.ndarray]] = None
    phi_sq_closed: Optional[Callable[[np.ndarray], np.ndarray]] = None
    # (q.tobytes(), CDF) of the last _piece_cdf: phi_sq_mean and mu_k at one q evaluate it once
    _last_cdf: list = field(default_factory=lambda: [(None, None)], init=False, repr=False, compare=False)

    @property
    def is_piecewise(self) -> bool:
        return self.pieces is not None

    @property
    def kinks(self) -> tuple:
        """Interior boundaries of the affine pieces, where phi' jumps."""
        return tuple(p.hi for p in self.pieces[:-1]) if self.pieces else ()

    @cached_property
    def piece_table(self):
        """Piece ends as a column, the same with infinite ends at 0, and c^2, 2cs, s^2 per piece (c + s x)."""
        edges = np.array([self.pieces[0].lo] + [p.hi for p in self.pieces])[:, None]
        coef = np.array([(c * c, 2.0 * c * s, s * s) for c, s in ((p.intercept, p.slope) for p in self.pieces)])
        return edges, np.where(np.isfinite(edges), edges, 0.0), *(coef[:, k : k + 1] for k in range(3))

    @property
    def is_scale_free(self) -> bool:
        """phi(c x) = c phi(x) for c > 0 (kinks at 0, no intercepts): mu_k is q-free."""
        if self.pieces is None:
            return False
        return all(k == 0.0 for k in self.kinks) and all(p.intercept == 0.0 for p in self.pieces)


# ---------------------------------------------------------------------------
# piecewise machinery


def _piece_cdf(spec: ActivationSpec, q: np.ndarray) -> np.ndarray:
    """Gaussian CDF at the piece ends over sqrt(q): a row per end, a column per q > 0 of a 1-D array."""
    key, last = q.tobytes(), spec._last_cdf[0]
    if last[0] != key:
        edges = spec.piece_table[0]
        finite = np.isfinite(edges[:, 0])
        cdf = np.repeat((edges > 0.0).astype(float), q.size, axis=1)  # exactly 0 at -inf and 1 at +inf
        if finite.any():
            cdf[finite] = norm_cdf(edges[finite] / np.sqrt(q))
        last = spec._last_cdf[0] = (key, cdf)
    return last[1]


def slope_distribution(spec: ActivationSpec, qstar):
    """Discrete squared-slope law: (values, masses), merged over pieces; masses[i] has the shape of qstar."""
    if spec.pieces is None:
        raise ActivationClassError(f"{spec.name} has no piecewise representation")
    q = np.asarray(qstar, dtype=float)
    cdf = _piece_cdf(spec, q.ravel())
    s2 = [p.slope * p.slope for p in spec.pieces]
    values = sorted(set(s2))
    masses = np.zeros((len(values),) + q.shape)
    for v, m in zip(s2, cdf[1:] - cdf[:-1]):  # the mass of each piece in order, for x = sqrt(q) h, h ~ N(0, 1)
        masses[values.index(v)] += m.reshape(q.shape)
    return np.array(values), masses


def phi_sq_mean(spec: ActivationSpec, qstar):
    """integral Dh phi(sqrt(q) h)^2, exact for piecewise-affine phi; elementwise, a float for a scalar q."""
    q = np.asarray(qstar, dtype=float)
    pos = q != 0.0
    x = q[pos]
    rq = np.sqrt(x)
    if spec.pieces is not None:
        edges, finite_edges, cc, cs2, ss = spec.piece_table
        z = edges / rq  # piece ends in units of sqrt(q): one row per end, one column per q
        cdf, pdf = _piece_cdf(spec, x), norm_pdf(z)
        zpdf = finite_edges / rq * pdf  # z phi(z), and 0 at an infinite end
        mass = cdf[1:] - cdf[:-1]
        e1 = pdf[:-1] - pdf[1:]  # integral h dN over each piece
        e2 = mass + zpdf[:-1] - zpdf[1:]  # integral h^2 dN over each piece
        total = sum(cc * mass + cs2 * rq * e1 + ss * x * e2, 0.0)  # pieces added in order
    elif spec.phi_sq_closed is not None:
        total = spec.phi_sq_closed(x)
    else:
        rule = default_rule()
        vals = np.asarray(spec.phi(rq[:, None] * rule.nodes), dtype=float)
        total = np.matmul((vals * vals)[:, None, :], rule.weights)[:, 0]  # a dot per q: a scalar call's sum order
    out = np.empty(q.shape)
    out[pos] = total
    if x.size < q.size:
        phi0 = float(np.asarray(spec.phi(np.array(0.0))))
        out[~pos] = phi0 * phi0
    return float(out) if out.ndim == 0 else out


# ---------------------------------------------------------------------------
# squared-slope moments


def mu_k(spec: ActivationSpec, qstar, k: int):
    """k-th moment of the squared slope at pre-activation variance qstar; elementwise, a float for a scalar q."""
    q = np.asarray(qstar, dtype=float)
    x = q.ravel()
    if x.min(initial=math.inf) <= 0.0:
        raise ValueError("qstar must be positive")
    if k < 1:
        raise ValueError("k must be a positive integer")
    if spec.mu_closed is not None:
        out = spec.mu_closed(x, k)
    elif spec.pieces is not None:
        values, masses = slope_distribution(spec, x)
        out = np.matmul(np.ascontiguousarray(masses.T)[:, None, :], values**k)[:, 0]  # a dot per q, as np.dot
    else:
        rule = default_rule()
        d = np.asarray(spec.dphi(np.sqrt(x)[:, None] * rule.nodes), dtype=float)
        out = np.matmul(((d * d) ** k)[:, None, :], rule.weights)[:, 0]  # a dot per q, as np.dot
    return float(out[0]) if q.ndim == 0 else out.reshape(q.shape)


# ---------------------------------------------------------------------------
# squared-slope transform M(z)


def slope_sq_law(spec: ActivationSpec, qstar: float):
    """Squared-slope law as nodes and weights (t, c): M(z) = sum c t / (z - t).

    Piecewise activations give their exact discrete law; smooth ones the
    quadrature rule at t = phi'(sqrt(q) h)^2.  When t is even in h (t equals
    its own reverse) each node is merged with its mirror, an exact fold of
    the symmetric rule onto its non-negative nodes.  Quadrature nodes whose
    weight is below 1e-30 (of a total of 1) are then dropped: a dropped term
    is at most c t / |Im z|, too small to move a double sum of order one
    (201 -> 51 nodes folded, 101 unfolded, at the default rule).
    """
    if spec.pieces is not None:
        return slope_distribution(spec, qstar)
    rule = default_rule()
    d = np.asarray(spec.dphi(math.sqrt(qstar) * rule.nodes), dtype=float)
    t, c = d * d, rule.weights
    if np.array_equal(t, t[::-1]):
        half = t.size // 2
        t, c = t[half:], c[half:] + c[::-1][half:]
        if rule.nodes.size % 2:
            c[0] = rule.weights[half]  # the middle node is its own mirror
    keep = c >= 1e-30
    return t[keep], c[keep]


# ---------------------------------------------------------------------------
# registry

_SQRT2 = math.sqrt(2.0)


def _sigmoid(x):
    return 0.5 * (1.0 + np.tanh(0.5 * x))


def _piecewise(name: str, kinks: tuple, lines, **params) -> ActivationSpec:
    """A piecewise-affine unit from its kinks k_1 < ... < k_n and one line (c, s) per piece.

    phi = c + s x on each of [-inf, k_1], ..., (k_n, inf]; a flat piece (s = 0) is its c, never c + 0 x,
    so phi stays finite at +-inf.  phi' is s inside a piece and, at a kink, the smaller of the two slopes.
    NaN sorts past +inf, onto a last line of NaNs.  A line with a non-finite intercept or slope raises ValueError.
    """
    ends = (-math.inf, *kinks, math.inf)
    pieces = tuple(AffinePiece(lo, hi, float(c), float(s)) for lo, hi, (c, s) in zip(ends, ends[1:], lines))
    if not all(math.isfinite(p.intercept) and math.isfinite(p.slope) for p in pieces):
        raise ValueError(f"{name} needs a finite intercept and slope on every piece")
    cuts = np.array(ends[1:])
    c, s = np.array([(p.intercept, p.slope) for p in pieces] + [(math.nan, math.nan)]).T

    def phi(x):
        i = np.searchsorted(cuts, x)  # phi is continuous: a kink may take the line below it
        return c[i] + s[i] * np.where(s[i] == 0.0, 0.0, x)

    def dphi(x):
        return np.fmin(s[np.searchsorted(cuts, x)], s[np.searchsorted(cuts, x, side="right")])

    return ActivationSpec(name, phi, dphi, params=tuple((k, float(v)) for k, v in params.items()), pieces=pieces)


def _erf_sq_mean(a2):
    """E[erf(a h)^2] for h ~ N(0, 1) at a^2 = a2: (2/pi) arcsin(2a^2/(1 + 2a^2)), taken as an arctan (Williams 1997)."""
    return (2.0 / math.pi) * np.arctan(2.0 * a2 / np.sqrt(1.0 + 4.0 * a2))


def _make_erf_main() -> ActivationSpec:
    c = math.sqrt(math.pi) / 2.0
    return ActivationSpec(
        name="erf_main",
        phi=lambda x: erf_vec(c * np.asarray(x, dtype=float)),
        dphi=lambda x: np.exp(-math.pi * np.asarray(x, dtype=float) ** 2 / 4.0),
        mu_closed=lambda q, k: 1.0 / np.sqrt(1.0 + math.pi * k * q),
        phi_sq_closed=lambda q: _erf_sq_mean(0.25 * math.pi * q),
    )


def _make_erf_sm() -> ActivationSpec:
    amp = math.sqrt(math.pi / 2.0)
    return ActivationSpec(
        name="erf_sm",
        phi=lambda x: amp * erf_vec(np.asarray(x, dtype=float) / _SQRT2),
        dphi=lambda x: np.exp(-0.5 * np.asarray(x, dtype=float) ** 2),
        mu_closed=lambda q, k: 1.0 / np.sqrt(1.0 + 2.0 * k * q),
        phi_sq_closed=lambda q: 0.5 * math.pi * _erf_sq_mean(0.5 * q),
    )


def _tanh_dphi(x):
    with np.errstate(over="ignore"):  # cosh(x)^2 is inf past |x| ~ 355: 1/cosh^2 reads 0, not a subnormal
        return 1.0 / np.cosh(np.asarray(x, dtype=float)) ** 2


def _make_tanh() -> ActivationSpec:
    return ActivationSpec(name="tanh", phi=np.tanh, dphi=_tanh_dphi)


def _make_arctan() -> ActivationSpec:
    return ActivationSpec(
        name="arctan",
        phi=lambda x: (2.0 / math.pi) * np.arctan(0.5 * math.pi * np.asarray(x, dtype=float)),
        dphi=lambda x: 1.0 / (1.0 + (math.pi * np.asarray(x, dtype=float) / 2.0) ** 2),
    )


def _make_silu(beta: float = 1.0) -> ActivationSpec:
    b = float(beta)

    def phi(x):
        x = np.asarray(x, dtype=float)
        return x * _sigmoid(b * x)

    def dphi(x):
        x = np.asarray(x, dtype=float)
        s = _sigmoid(b * x)
        return s * (1.0 + b * x * (1.0 - s))

    return ActivationSpec(
        name="silu",
        phi=phi,
        dphi=dphi,
        params=(("beta", b),),
    )


_REGISTRY: dict[str, Callable[..., ActivationSpec]] = {
    "linear": lambda: _piecewise("linear", (), [(0.0, 1.0)]),
    "relu": lambda: _piecewise("relu", (0.0,), [(0.0, 0.0), (0.0, 1.0)]),
    "leaky_relu": lambda alpha=0.3: _piecewise("leaky_relu", (0.0,), [(0.0, alpha), (0.0, 1.0)], alpha=alpha),
    "hard_tanh": lambda: _piecewise("hard_tanh", (-1.0, 1.0), [(-1.0, 0.0), (0.0, 1.0), (1.0, 0.0)]),
    "shifted_relu": lambda: _piecewise("shifted_relu", (-0.5,), [(-0.5, 0.0), (0.0, 1.0)]),
    "erf_main": _make_erf_main,
    "erf_sm": _make_erf_sm,
    "tanh": _make_tanh,
    "arctan": _make_arctan,
    "silu": _make_silu,
}


def registry_names() -> tuple:
    return tuple(_REGISTRY)


def get_activation(name: str, **params) -> ActivationSpec:
    try:
        factory = _REGISTRY[name]
    except KeyError:
        raise KeyError(f"unknown activation {name!r}; known: {sorted(_REGISTRY)}") from None
    return factory(**params)
