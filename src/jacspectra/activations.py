"""Pointwise nonlinearities with their slope statistics.

For a nonlinearity phi applied at pre-activation variance q (h ~ N(0, q)),
the spectral inputs needed downstream are the moments of the squared slope

    mu_k(q) = integral Dh  phi'(sqrt(q) h)^(2k),

and the squared-slope moment generating transform

    M(q, z) = integral Dh  phi'(sqrt(q) h)^2 / (z - phi'(sqrt(q) h)^2).

Piecewise-linear activations have a discrete squared-slope distribution, so
both quantities are evaluated exactly by splitting the Gaussian at the kink
locations (Gaussian CDF masses per constant-slope piece); smooth activations
use Gauss quadrature, with closed-form mu_k for the two erf scalings.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import ActivationClassError, SupportError
from .special import (
    QuadratureRule,
    default_rule,
    erf_vec,
    norm_cdf,
    norm_pdf,
)

CLOSED_FORMS = (
    "Linear",
    "ReLU",
    "LeakyReLU",
    "HardTanh",
    "ShiftedReLU",
    "Erf",
    "ErfSMScaled",
    "Tanh",
    "ArcTan",
    "SiLU",
    "None",
)

_ON_SUPPORT_TOL = 1e-12


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
    closed_form: str
    phi: Callable[[np.ndarray], np.ndarray]
    dphi: Callable[[np.ndarray], np.ndarray]
    params: tuple = ()
    pieces: Optional[tuple] = None
    mu_closed: Optional[Callable[[float, int], float]] = None
    slope_sq_max: float = 1.0
    kinks: tuple = ()

    @property
    def param_dict(self) -> dict:
        return dict(self.params)

    @property
    def is_piecewise(self) -> bool:
        return self.pieces is not None

    @property
    def is_bernoulli(self) -> bool:
        """True when the squared slope takes values in {0, 1} only."""
        if self.pieces is None:
            return False
        return all(abs(p.slope) in (0.0, 1.0) for p in self.pieces)

    @property
    def is_scale_free(self) -> bool:
        """phi(c x) = c phi(x) for c > 0 (kinks at 0, no intercepts): mu_k is q-free."""
        if self.pieces is None:
            return False
        return all(k == 0.0 for k in self.kinks) and all(p.intercept == 0.0 for p in self.pieces)


# ---------------------------------------------------------------------------
# piecewise machinery


def _piece_masses(pieces, qstar):
    """Gaussian mass of each piece when x = sqrt(q) h with h ~ N(0,1)."""
    rq = math.sqrt(qstar)
    lo = np.array([p.lo for p in pieces]) / rq
    hi = np.array([p.hi for p in pieces]) / rq
    return norm_cdf(hi) - norm_cdf(lo)


def slope_distribution(spec: ActivationSpec, qstar: float):
    """Discrete squared-slope law: (values, masses), merged over pieces."""
    if spec.pieces is None:
        raise ActivationClassError(f"{spec.name} has no piecewise representation")
    masses = _piece_masses(spec.pieces, qstar)
    acc: dict[float, float] = {}
    for p, m in zip(spec.pieces, masses):
        s2 = p.slope * p.slope
        acc[s2] = acc.get(s2, 0.0) + float(m)
    vals = np.array(sorted(acc))
    return vals, np.array([acc[v] for v in vals])


def bernoulli_p(spec: ActivationSpec, qstar: float) -> float:
    """Probability of unit slope for activations with squared slope in {0,1}."""
    if not spec.is_bernoulli:
        raise ActivationClassError(
            f"{spec.name} is not Bernoulli-class (squared slope not in {{0,1}})"
        )
    vals, masses = slope_distribution(spec, qstar)
    return float(masses[np.isclose(vals, 1.0)].sum())


def phi_sq_mean(spec: ActivationSpec, qstar: float, rule: QuadratureRule | None = None) -> float:
    """integral Dh phi(sqrt(q) h)^2, exact for piecewise-affine phi."""
    if qstar == 0.0:
        v = float(np.asarray(spec.phi(np.array(0.0))))
        return v * v
    if spec.pieces is not None:
        rq = math.sqrt(qstar)
        total = 0.0
        for p in spec.pieces:
            a, b = p.lo / rq, p.hi / rq
            mass = float(norm_cdf(b) - norm_cdf(a))
            na, nb = float(norm_pdf(a)), float(norm_pdf(b))
            e1 = na - nb  # integral h dN over (a,b)
            lo_term = a * na if np.isfinite(a) else 0.0
            hi_term = b * nb if np.isfinite(b) else 0.0
            e2 = mass + lo_term - hi_term  # integral h^2 dN over (a,b)
            c, s = p.intercept, p.slope
            total += c * c * mass + 2.0 * c * s * rq * e1 + s * s * qstar * e2
        return total
    rule = rule or default_rule()
    x = math.sqrt(qstar) * rule.nodes
    vals = np.asarray(spec.phi(x), dtype=float)
    return float(np.dot(rule.weights, vals * vals))


# ---------------------------------------------------------------------------
# squared-slope moments


def mu_k(spec: ActivationSpec, qstar: float, k: int, rule: QuadratureRule | None = None) -> float:
    """k-th moment of the squared slope at pre-activation variance qstar."""
    if qstar <= 0.0:
        raise ValueError("qstar must be positive")
    if k < 1:
        raise ValueError("k must be a positive integer")
    if spec.mu_closed is not None:
        return spec.mu_closed(qstar, k)
    if spec.pieces is not None:
        vals, masses = slope_distribution(spec, qstar)
        return float(np.dot(masses, vals**k))
    rule = rule or default_rule()
    d = np.asarray(spec.dphi(math.sqrt(qstar) * rule.nodes), dtype=float)
    return float(np.dot(rule.weights, (d * d) ** k))


@dataclass(frozen=True)
class D2Moments:
    """First K squared-slope moments mu_1..mu_K at a given qstar."""

    qstar: float
    values: tuple

    def __getitem__(self, k: int) -> float:
        return self.values[k - 1]


def d2_moments(spec: ActivationSpec, qstar: float, K: int = 2, rule=None) -> D2Moments:
    return D2Moments(qstar=qstar, values=tuple(mu_k(spec, qstar, k, rule) for k in range(1, K + 1)))


# ---------------------------------------------------------------------------
# squared-slope transform M(z)


def _support_distance(z: np.ndarray, lo: float, hi: float) -> np.ndarray:
    re = np.real(z)
    im = np.imag(z)
    dre = np.where(re < lo, lo - re, np.where(re > hi, re - hi, 0.0))
    return np.hypot(dre, im)


def _check_off_support(spec: ActivationSpec, z: np.ndarray) -> None:
    if spec.pieces is not None:
        vals = np.unique([p.slope * p.slope for p in spec.pieces])
        dist = np.min(np.abs(np.subtract.outer(np.atleast_1d(z), vals)), axis=-1)
    else:
        dist = _support_distance(np.atleast_1d(z), 0.0, spec.slope_sq_max)
    if np.any(dist < _ON_SUPPORT_TOL):
        raise SupportError(
            f"M_D2 evaluation within {_ON_SUPPORT_TOL} of the squared-slope support of {spec.name}"
        )


def slope_sq_law(spec: ActivationSpec, qstar: float, rule: QuadratureRule | None = None):
    """Squared-slope law as nodes and weights (t, c): M(z) = sum c t / (z - t).

    Piecewise activations give their exact discrete law; smooth ones the
    quadrature rule at t = phi'(sqrt(q) h)^2.  When t is even in h (t equals
    its own reverse) each node is merged with its mirror, an exact fold of
    the symmetric rule onto its non-negative nodes.
    """
    if spec.pieces is not None:
        return slope_distribution(spec, qstar)
    rule = rule or default_rule()
    d = np.asarray(spec.dphi(math.sqrt(qstar) * rule.nodes), dtype=float)
    t, c = d * d, rule.weights
    if np.array_equal(t, t[::-1]):
        half = t.size // 2
        t, c = t[half:], c[half:] + c[::-1][half:]
        if rule.nodes.size % 2:
            c[0] = rule.weights[half]  # the middle node is its own mirror
    return t, c


def m_d2(spec: ActivationSpec, qstar: float, z, rule: QuadratureRule | None = None):
    """integral Dh t/(z - t) with t = phi'(sqrt(q) h)^2.

    Piecewise activations use the exact discrete-slope form (equivalently the
    kink-split Gaussian-CDF evaluation); smooth ones use quadrature.  Scalar
    in, scalar out; array in, array out.
    """
    scalar = np.isscalar(z) or np.asarray(z).ndim == 0
    zz = np.atleast_1d(np.asarray(z, dtype=complex))
    _check_off_support(spec, zz)
    t, c = slope_sq_law(spec, qstar, rule)
    out = ((c * t)[None, :] / (zz[:, None] - t[None, :])).sum(axis=1)
    return complex(out[0]) if scalar else out


# ---------------------------------------------------------------------------
# registry

_INF = math.inf
_SQRT2 = math.sqrt(2.0)


def _sigmoid(x):
    return 0.5 * (1.0 + np.tanh(0.5 * x))


def _make_linear() -> ActivationSpec:
    return ActivationSpec(
        name="linear",
        closed_form="Linear",
        phi=lambda x: np.asarray(x, dtype=float),
        dphi=lambda x: np.ones_like(np.asarray(x, dtype=float)),
        pieces=(AffinePiece(-_INF, _INF, 0.0, 1.0),),
    )


def _make_relu() -> ActivationSpec:
    return ActivationSpec(
        name="relu",
        closed_form="ReLU",
        phi=lambda x: np.maximum(x, 0.0),
        dphi=lambda x: (np.asarray(x) > 0).astype(float),
        pieces=(AffinePiece(-_INF, 0.0, 0.0, 0.0), AffinePiece(0.0, _INF, 0.0, 1.0)),
        kinks=(0.0,),
    )


def _make_leaky_relu(alpha: float = 0.3) -> ActivationSpec:
    a = float(alpha)
    return ActivationSpec(
        name="leaky_relu",
        closed_form="LeakyReLU",
        phi=lambda x: np.where(np.asarray(x) > 0, x, a * np.asarray(x)),
        dphi=lambda x: np.where(np.asarray(x) > 0, 1.0, a),
        params=(("alpha", a),),
        pieces=(AffinePiece(-_INF, 0.0, 0.0, a), AffinePiece(0.0, _INF, 0.0, 1.0)),
        slope_sq_max=max(1.0, a * a),
        kinks=(0.0,),
    )


def _make_hard_tanh() -> ActivationSpec:
    return ActivationSpec(
        name="hard_tanh",
        closed_form="HardTanh",
        phi=lambda x: np.clip(x, -1.0, 1.0),
        dphi=lambda x: (np.abs(np.asarray(x)) < 1.0).astype(float),
        pieces=(
            AffinePiece(-_INF, -1.0, -1.0, 0.0),
            AffinePiece(-1.0, 1.0, 0.0, 1.0),
            AffinePiece(1.0, _INF, 1.0, 0.0),
        ),
        kinks=(-1.0, 1.0),
    )


def _make_shifted_relu() -> ActivationSpec:
    return ActivationSpec(
        name="shifted_relu",
        closed_form="ShiftedReLU",
        phi=lambda x: np.maximum(np.asarray(x) + 0.5, 0.0) - 0.5,
        dphi=lambda x: (np.asarray(x) > -0.5).astype(float),
        pieces=(AffinePiece(-_INF, -0.5, -0.5, 0.0), AffinePiece(-0.5, _INF, 0.0, 1.0)),
        kinks=(-0.5,),
    )


def _make_erf_main() -> ActivationSpec:
    c = math.sqrt(math.pi) / 2.0
    return ActivationSpec(
        name="erf_main",
        closed_form="Erf",
        phi=lambda x: erf_vec(c * np.asarray(x, dtype=float)),
        dphi=lambda x: np.exp(-math.pi * np.asarray(x, dtype=float) ** 2 / 4.0),
        mu_closed=lambda q, k: 1.0 / math.sqrt(1.0 + math.pi * k * q),
    )


def _make_erf_sm() -> ActivationSpec:
    amp = math.sqrt(math.pi / 2.0)
    return ActivationSpec(
        name="erf_sm",
        closed_form="ErfSMScaled",
        phi=lambda x: amp * erf_vec(np.asarray(x, dtype=float) / _SQRT2),
        dphi=lambda x: np.exp(-0.5 * np.asarray(x, dtype=float) ** 2),
        mu_closed=lambda q, k: 1.0 / math.sqrt(1.0 + 2.0 * k * q),
    )


def _make_tanh() -> ActivationSpec:
    return ActivationSpec(
        name="tanh",
        closed_form="Tanh",
        phi=np.tanh,
        dphi=lambda x: 1.0 / np.cosh(np.asarray(x, dtype=float)) ** 2,
    )


def _make_arctan() -> ActivationSpec:
    return ActivationSpec(
        name="arctan",
        closed_form="ArcTan",
        phi=lambda x: (2.0 / math.pi) * np.arctan(0.5 * math.pi * np.asarray(x, dtype=float)),
        dphi=lambda x: 1.0 / (1.0 + (math.pi * np.asarray(x, dtype=float) / 2.0) ** 2),
    )


def _silu_slope_sq_max(beta: float) -> float:
    # sup over x of phi'(x)^2; the overshoot lives near beta*x ~ +-2.4
    u = np.linspace(-8.0, 8.0, 200001)
    s = _sigmoid(u)
    d = s * (1.0 + u * (1.0 - s))
    return float(np.max(d * d))


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
        closed_form="SiLU",
        phi=phi,
        dphi=dphi,
        params=(("beta", b),),
        slope_sq_max=_silu_slope_sq_max(b),
    )


_REGISTRY: dict[str, Callable[..., ActivationSpec]] = {
    "linear": _make_linear,
    "relu": _make_relu,
    "leaky_relu": _make_leaky_relu,
    "hard_tanh": _make_hard_tanh,
    "shifted_relu": _make_shifted_relu,
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
