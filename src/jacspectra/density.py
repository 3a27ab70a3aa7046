"""Spectral density container with atoms, CDF evaluation, and CSV/JSON I/O.

A density lives either over squared singular values (lambda) or singular
values (s = sqrt(lambda)); the two are related by rho_s(s) = 2 s rho(s^2)
with atoms mapped location-wise, total mass preserved.

CSV layout (one file per density; ``below`` is the continuum mass under grid[0]):

    domain,x,rho
    below,<grid[0]>,<below>
    squared_singular,<x>,<rho>
    ...
    atom,<location>,<mass>

JSON mirrors carry the same data plus a metadata block.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

SQUARED_SINGULAR = "squared_singular"
SINGULAR = "singular"

_CLAMP = 1e-8
_ROUND_OFF = 1e-9  # a below-grid mass outside [0, 1] by at most this is rounding, and is clamped

# default lambda grid: lowest point and number of points
GRID_LAM_MIN = 1e-4
GRID_POINTS = 600


@dataclass
class SpectralDensity:
    domain: str
    grid: np.ndarray
    rho: np.ndarray
    atoms: tuple = ()
    metadata: dict = field(default_factory=dict)
    below: float = 0.0

    def __post_init__(self):
        self.grid = np.asarray(self.grid, dtype=float)
        self.rho = np.asarray(self.rho, dtype=float)
        if self.domain not in (SQUARED_SINGULAR, SINGULAR):
            raise ValueError(f"unknown domain {self.domain!r}")
        if self.grid.ndim != 1 or self.grid.shape != self.rho.shape:
            raise ValueError("grid and rho must be 1-D arrays of equal length")
        if np.any(np.diff(self.grid) <= 0):
            raise ValueError("grid must be strictly increasing")
        low = self.rho.min(initial=0.0)
        if low < -_CLAMP:
            raise ValueError(f"density has negative values below -{_CLAMP}: min={low}")
        self.rho = np.maximum(self.rho, 0.0)
        self.atoms = tuple((float(a), float(m)) for a, m in self.atoms)
        for loc, mass in self.atoms:
            if loc < 0 or not 0.0 <= mass <= 1.0:
                raise ValueError(f"bad atom ({loc}, {mass})")
        if not -_ROUND_OFF <= self.below <= 1.0 + _ROUND_OFF:
            raise ValueError(f"below-grid mass {self.below} outside [0, 1]")
        self.below = min(max(float(self.below), 0.0), 1.0)

    # -- mass and moments ---------------------------------------------------

    def continuum_mass(self) -> float:
        return float(np.trapezoid(self.rho, self.grid))

    def atom_mass(self) -> float:
        return float(sum(m for _, m in self.atoms))

    def total_mass(self) -> float:
        return self.continuum_mass() + self.atom_mass() + self.below

    # -- CDF ------------------------------------------------------------

    def _cum(self) -> np.ndarray:
        dx = np.diff(self.grid)
        seg = 0.5 * (self.rho[1:] + self.rho[:-1]) * dx
        return np.concatenate([[0.0], np.cumsum(seg)])

    def cdf(self, x, *, side: str = "right") -> np.ndarray:
        """The below-grid mass, the continuum trapezoid from grid[0], and atom steps.

        Defined from grid[0] up; below it the continuum reads ``below``.
        side="right" includes the mass of an atom located exactly at x;
        side="left" gives the limit from below.
        """
        x = np.atleast_1d(np.asarray(x, dtype=float))
        out = np.interp(x, self.grid, self.below + self._cum())
        for loc, mass in self.atoms:
            if side == "right":
                out = out + mass * (x >= loc)
            else:
                out = out + mass * (x > loc)
        return out

    # -- I/O --------------------------------------------------------------

    def write_csv(self, path) -> None:
        lines = ["domain,x,rho", f"below,{float(self.grid[0])!r},{self.below!r}"]
        lines += [f"{self.domain},{x!r},{r!r}" for x, r in zip(self.grid.tolist(), self.rho.tolist())]
        for loc, mass in self.atoms:
            lines.append(f"atom,{float(loc)!r},{float(mass)!r}")
        with open(path, "w") as fh:
            fh.write("\n".join(lines) + "\n")

    def write_json(self, path) -> None:
        doc = {
            "domain": self.domain,
            "grid": list(map(float, self.grid)),
            "rho": list(map(float, self.rho)),
            "atoms": [[loc, mass] for loc, mass in self.atoms],
            "below": self.below,
            "metadata": self.metadata,
        }
        with open(path, "w") as fh:
            json.dump(doc, fh, sort_keys=True)


def read_csv(path) -> SpectralDensity:
    grid, rho, atoms = [], [], []
    domain, below, x0 = None, 0.0, None
    with open(path) as fh:
        header = fh.readline()
        if header.strip() != "domain,x,rho":
            raise ValueError(f"unexpected density CSV header: {header.strip()!r}")
        for line in fh:
            tag, x, r = line.strip().split(",")
            if tag == "atom":
                atoms.append((float(x), float(r)))
            elif tag == "below":
                x0, below = float(x), float(r)
            else:
                domain = tag
                grid.append(float(x))
                rho.append(float(r))
    if domain is None:
        raise ValueError("density CSV has no grid rows")
    if x0 not in (None, grid[0]):
        raise ValueError(f"density CSV's below row is at {x0!r}, not at its first grid point {grid[0]!r}")
    return SpectralDensity(domain=domain, grid=np.array(grid), rho=np.array(rho), atoms=tuple(atoms), below=below)


def read_json(path) -> SpectralDensity:
    with open(path) as fh:
        doc = json.load(fh)
    atoms = tuple((a, m) for a, m in doc["atoms"])
    return SpectralDensity(doc["domain"], doc["grid"], doc["rho"], atoms, doc.get("metadata", {}), doc.get("below", 0))


def to_singular_domain(density: SpectralDensity) -> SpectralDensity:
    """Map a squared-singular-value density to singular values s = sqrt(x)."""
    if density.domain != SQUARED_SINGULAR:
        raise ValueError("to_singular_domain expects a squared-singular-value density")
    s = np.sqrt(density.grid)
    atoms = tuple((math.sqrt(loc), mass) for loc, mass in density.atoms)
    return SpectralDensity(SINGULAR, s, 2.0 * s * density.rho, atoms, dict(density.metadata), density.below)


def make_lambda_grid(lam_max: float, *, lam_min: float = GRID_LAM_MIN, n: int = GRID_POINTS) -> np.ndarray:
    """Hybrid grid: geometric spacing near zero, linear through the bulk.

    Resolves both the near-origin divergences of heavy-bottomed spectra and
    smooth bulk structure with the same point budget.
    """
    if not 0 < lam_min < lam_max:
        raise ValueError("need 0 < lam_min < lam_max")
    n_geo = n // 2
    geo = np.geomspace(lam_min, lam_max, n_geo)
    # the linear points sit at an irrational fraction of the spacing, so they miss round-number spectral
    # edges; lam_max and the geometric points can still fall on an edge
    n_lin = n - n_geo
    step = (lam_max - lam_min) / n_lin
    lin = lam_min + step * (np.arange(n_lin) + 0.5 * (math.sqrt(5.0) - 1.0))
    return np.unique(np.concatenate([geo, lin, [lam_max]]))
