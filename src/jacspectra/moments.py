"""Exact low moments of the depth-L Jacobian spectrum.

With chi = sigma_w^2 mu_1 evaluated at the fixed point, the first two moments
of the squared-singular-value distribution are

    m1 = chi^L
    m2 = chi^{2L} * L * (mu_2/mu_1^2 + 1/L - 1 - s1)

so the variance at criticality (chi = 1) is  L * (mu_2/mu_1^2 - 1 - s1):
linear depth growth unless the weights are orthogonal (s1 = 0) and the slope
distribution concentrates (mu_2/mu_1^2 -> 1).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .activations import mu_k
from .density import SpectralDensity
from .errors import JacspectraError
from .propagation import NetworkConfig, resolve_qstar


@dataclass(frozen=True)
class MomentSummary:
    m1: float
    m2: float
    variance: float
    chi: float
    qstar: float


def jacobian_moments(config: NetworkConfig) -> MomentSummary:
    """First two spectral moments of J J^T for the given network.

    Raises JacspectraError when chi^{2L} overflows a float.
    """
    fp = resolve_qstar(config)
    q, chi = fp.qstar, fp.chi
    mu1 = chi / config.sigma_w**2
    mu2 = mu_k(config.activation, q, 2)
    L = config.depth
    s1 = config.ensemble.s1
    try:
        m1 = chi**L
        m2 = chi ** (2 * L) * L * (mu2 / mu1**2 + 1.0 / L - 1.0 - s1)
    except OverflowError:
        raise JacspectraError(f"chi^(2L) overflows for {config.activation.name}: chi={chi:.6g}, L={L}") from None
    return MomentSummary(m1=m1, m2=m2, variance=m2 - m1 * m1, chi=chi, qstar=q)


def moments_from_density(density: SpectralDensity, k: int) -> float:
    """k-th moment of a density: trapezoid over the grid plus atom terms."""
    if k < 1:
        raise ValueError("k must be a positive integer")
    cont = float(np.trapezoid(density.rho * density.grid**k, density.grid))
    return cont + sum(mass * loc**k for loc, mass in density.atoms)
