"""Random weight ensembles and their multiplicative spectral transforms.

Both ensembles are scaled so the squared singular values of W have mean
sigma_w^2.  The quantity that enters every downstream formula is the
S-transform of W^T W:

    orthogonal:  S(z) = sigma_w^{-2}
    gaussian:    S(z) = sigma_w^{-2} / (1 + z)

together with its first series coefficient s1 (0 and -1 respectively), which
controls the depth growth of the Jacobian spectral variance.  The master
equation's f(w) (``master._Solver.fdf``) evaluates S itself; an ensemble only
carries its kind and s1.  sigma_w is a network setting: ``NetworkConfig``
holds it.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass

ORTHOGONAL = "orthogonal"
GAUSSIAN = "gaussian"

_S1 = {ORTHOGONAL: 0.0, GAUSSIAN: -1.0}


@dataclass(frozen=True)
class WeightEnsemble:
    kind: str
    # taken, never stored, from callers that still pass sigma_w second (bench/checks.py)
    _sigma_w: InitVar[object] = None

    def __post_init__(self, _sigma_w):
        if self.kind not in _S1:
            raise ValueError(f"unknown ensemble kind {self.kind!r}")

    @property
    def s1(self) -> float:
        return _S1[self.kind]
