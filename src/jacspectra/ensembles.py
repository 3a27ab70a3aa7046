"""Random weight ensembles and their multiplicative spectral transforms.

Both ensembles are scaled so the squared singular values of W have mean
sigma_w^2.  The quantity that enters every downstream formula is the
S-transform of W^T W:

    orthogonal:  S(z) = sigma_w^{-2}
    gaussian:    S(z) = sigma_w^{-2} / (1 + z)

together with its first series coefficient s1 (0 and -1 respectively), which
controls the depth growth of the Jacobian spectral variance.  The master
residual (``master._residual_factory``) evaluates S itself; an ensemble only
carries its kind, sigma_w and s1.
"""

from __future__ import annotations

from dataclasses import dataclass

ORTHOGONAL = "orthogonal"
GAUSSIAN = "gaussian"

_S1 = {ORTHOGONAL: 0.0, GAUSSIAN: -1.0}


@dataclass(frozen=True)
class WeightEnsemble:
    kind: str
    sigma_w: float

    def __post_init__(self):
        if self.kind not in _S1:
            raise ValueError(f"unknown ensemble kind {self.kind!r}")
        if not self.sigma_w > 0:
            raise ValueError("sigma_w must be positive")

    @property
    def s1(self) -> float:
        return _S1[self.kind]


def orthogonal(sigma_w: float = 1.0) -> WeightEnsemble:
    return WeightEnsemble(ORTHOGONAL, float(sigma_w))


def gaussian(sigma_w: float = 1.0) -> WeightEnsemble:
    return WeightEnsemble(GAUSSIAN, float(sigma_w))
