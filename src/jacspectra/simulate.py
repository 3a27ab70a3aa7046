"""Monte Carlo ground truth: sample networks, extract Jacobian spectra.

A trial draws fresh weights and biases per layer, starts the input on the
sphere that puts the pre-activation variance exactly at its fixed point
(q^1 = q*), propagates, and accumulates the Jacobian as an explicit matrix
product D^L W^L ... D^1 W^1 followed by one SVD. An orthogonal layer never
forms W: it applies the Householder reflectors of a sign-corrected Gaussian QR,
which is Haar (Stewart 1980, SINUM 17; Mezzadri 2007), in compact-WY blocks to
the one n x (n+1) buffer [x | J] that the trial keeps, and scales J by sigma_w D
in place; J starts at I, and Q^1 acts on x alone as sigma(J Q^1) = sigma(J). A
Gaussian layer scales its drawn W to D W in place and writes (D W) J over it in
row panels. So a trial holds two n^2 arrays, [x | J] and the reflectors U or W
and J, plus O(n) rows of panels and blocks: at n = 256 it peaks at 2.6 n^2
doubles with orthogonal weights and 2.4 n^2 with Gaussian ones. Per seed,
orthogonal draws differ from the earlier QR sampler's (same law); Gaussian ones
are bit-identical.

Randomness is counter-based: every (trial, layer, purpose) tuple maps to its
own Philox stream derived from the master seed, so results are independent
of execution order and identical under any parallel schedule.
"""

from __future__ import annotations

import json
import math
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .density import MASS_TOL, SINGULAR, SpectralDensity
from .ensembles import ORTHOGONAL
from .errors import JacspectraError
from .propagation import NetworkConfig, resolve_qstar

_PURPOSES = {"input": 0, "weights": 1, "bias": 2}
_ATOM_THRESHOLD = 1e-8
_OVERFLOW_GUARD = 1e100
_WY_BLOCK = 48  # reflectors per compact-WY block: of 32, 48, 64 and 80, 48 ran fastest at N = 400
# rows of (D W) J per GEMM, the last panel taking a remainder under half a panel: of 48, 64, 96 and 128,
# only 96 rounded as one whole GEMM does for every n < 1100 (OpenBLAS 0.3.31, one thread)
_GEMM_PANEL = 96


def stream(seed: int, trial: int, layer: int, purpose: str) -> np.random.Generator:
    """Independent Philox stream for one (trial, layer, purpose) tuple."""
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(trial, layer, _PURPOSES[purpose]))
    return np.random.Generator(np.random.Philox(ss))


@dataclass(frozen=True)
class TrialStreams:
    """All randomness of one trial, addressed by layer and purpose."""

    seed: int
    trial: int

    def input(self) -> np.random.Generator:
        return stream(self.seed, self.trial, 0, "input")

    def layer(self, layer: int, purpose: str) -> np.random.Generator:
        return stream(self.seed, self.trial, layer, purpose)


@dataclass(frozen=True)
class EmpiricalSpectrum:
    singular_values: np.ndarray  # sorted ascending, pooled over trials
    width: int
    depth: int
    trials: int
    seed: int
    config: dict

    def __post_init__(self):
        sv = np.asarray(self.singular_values, dtype=float)
        if sv.size != self.width * self.trials:
            raise ValueError("expected width * trials singular values")
        if np.any(sv < 0) or np.any(np.diff(sv) < 0):
            raise ValueError("singular values must be sorted and nonnegative")

    def squared(self) -> np.ndarray:
        return self.singular_values**2

    def mean_squared(self) -> float:
        return float(np.mean(self.squared()))

    def var_squared(self) -> float:
        return float(np.var(self.squared()))

    def write_csv(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("s\n")
            fh.writelines(f"{v!r}\n" for v in np.asarray(self.singular_values, dtype=float).tolist())

    def sidecar(self) -> dict:
        return {
            "width": self.width,
            "depth": self.depth,
            "trials": self.trials,
            "seed": self.seed,
            "config": self.config,
        }

    @classmethod
    def read_csv(cls, csv_path, sidecar_path) -> "EmpiricalSpectrum":
        """The spectrum that ``write_csv`` and ``sidecar`` wrote; raises JacspectraError on a bad header."""
        with open(csv_path) as fh:
            header = fh.readline().strip()
            if header != "s":
                raise JacspectraError(f"unexpected spectrum CSV header {header!r} in {csv_path}")
            values = [float(line) for line in fh if line.strip()]
        with open(sidecar_path) as fh:
            side = json.load(fh)
        return cls(singular_values=np.array(values), **side)


def _householder_haar(n: int, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Reflector rows u_k of U and signs d, Haar Q = H_0 ... H_{n-1} diag(d), H_k = I - 2 u_k u_k^T."""
    u = np.zeros((n, n))
    for k in range(0, n, _WY_BLOCK):  # step k meets n - k fresh normals g, drawn a block of rows at a time
        upper = np.arange(n) >= np.arange(n)[k : k + _WY_BLOCK, None]
        u[k : k + _WY_BLOCK][upper] = rng.standard_normal(np.count_nonzero(upper))
    head = u.diagonal().copy()
    d = np.where(head < 0.0, 1.0, -1.0)  # d_k = sign(R_kk); R_kk = -sign(g_0)|g| avoids cancellation in u_k
    norm = np.sqrt(np.einsum("ij,ij->i", u, u))
    np.fill_diagonal(u, head - d * norm)
    return np.divide(u, np.sqrt(2.0 * norm * (norm + np.abs(head)))[:, None], out=u), d


def _apply_householder(u: np.ndarray, d: np.ndarray, m: np.ndarray) -> np.ndarray:
    """m <- Q m in place and returned; a block is I - Y T Y^T with T^{-1} = striu(Y^T Y) + I/2.

    A block forms Z = T Y m[j:], _WY_BLOCK rows, then subtracts Y^T Z from m[j:] one panel of
    _WY_BLOCK rows at a time, so beside u and m it holds O(_WY_BLOCK m.shape[1]) doubles.
    """
    m *= d[:, None]
    for j in range((len(u) - 1) // _WY_BLOCK * _WY_BLOCK, -1, -_WY_BLOCK):
        y = u[j : j + _WY_BLOCK, j:]
        t = np.linalg.inv(np.triu(y @ y.T, 1) + 0.5 * np.eye(y.shape[0]))  # 1/3 the time of solve
        z = t @ (y @ m[j:])
        for r in range(j, len(u), _WY_BLOCK):
            m[r : r + _WY_BLOCK] -= u[j : j + _WY_BLOCK, r : r + _WY_BLOCK].T @ z
    return m


def sample_orthogonal(n: int, sigma_w: float, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed orthogonal matrix scaled so W^T W = sigma_w^2 I.

    sigma_w Q I from the Householder reflectors (Stewart 1980) that an orthogonal layer draws
    from ``rng`` and applies without forming Q; per seed it differs from the earlier QR sampler's, same law.
    """
    w = _apply_householder(*_householder_haar(n, rng), np.eye(n))
    w *= sigma_w
    return w


def sample_gaussian(n: int, sigma_w: float, rng: np.random.Generator) -> np.ndarray:
    """IID Gaussian matrix with entry variance sigma_w^2 / n."""
    w = rng.standard_normal((n, n))
    w *= sigma_w / math.sqrt(n)
    return w


def jacobian_singular_values(config: NetworkConfig, streams: TrialStreams) -> np.ndarray:
    """Singular values of the input-output Jacobian of one sampled network."""
    if config.width is None:
        raise ValueError("config.width is required for simulation")
    n = config.width
    qstar = resolve_qstar(config).qstar
    radius_sq = n * max(qstar - config.sigma_b**2, 0.0) / config.sigma_w**2
    u = streams.input().standard_normal(n)
    x = u * (math.sqrt(radius_sq) / np.linalg.norm(u)) if radius_sq > 0 else np.zeros(n)

    phi, dphi = config.activation.phi, config.activation.dphi
    orthogonal = config.ensemble.kind == ORTHOGONAL
    xj = np.eye(n, n + 1, 1) if orthogonal else None  # the one buffer [x | J] of orthogonal layers, J = I
    jac = xj[:, 1:] if orthogonal else None  # a Gaussian J is set by the first layer
    for layer in range(1, config.depth + 1):
        rng = streams.layer(layer, "weights")
        b = streams.layer(layer, "bias").standard_normal(n) * config.sigma_b
        if orthogonal:  # Q acts on [x | J] in place, never formed; Q_1 on x alone, as sigma(J Q_1) = sigma(J)
            xj[:, 0] = x
            _apply_householder(*_householder_haar(n, rng), xj if layer > 1 else xj[:, :1])
            h = config.sigma_w * xj[:, 0] + b
        else:
            w = sample_gaussian(n, config.sigma_w, rng)
            h = w @ x + b
        if np.max(np.abs(h)) > _OVERFLOW_GUARD:
            raise FloatingPointError(f"pre-activations exceeded {_OVERFLOW_GUARD} at layer {layer}")
        slope = np.asarray(dphi(h), dtype=float)
        if orthogonal:
            jac *= (config.sigma_w * slope)[:, None]
        else:
            w *= slope[:, None]  # D W in place, then (D W) J written over it one row panel at a time
            if jac is not None:
                rows = [*range(0, max(n - _GEMM_PANEL // 2, 1), _GEMM_PANEL), n]
                for r, e in zip(rows, rows[1:]):
                    w[r:e] = w[r:e] @ jac
            jac = w
        x = np.asarray(phi(h), dtype=float)
    return np.sort(np.linalg.svd(jac, compute_uv=False))


def run_trials(
    config: NetworkConfig,
    trials: int,
    seed: int,
    *,
    threads: int | None = None,
) -> EmpiricalSpectrum:
    """Pool Jacobian singular values over independent trials.

    Trials are independent work units, run on a pool of ``threads`` workers
    (one if None); results are merged by trial index so the outcome does not
    depend on the execution schedule.
    """
    def one(trial: int) -> np.ndarray:
        return jacobian_singular_values(config, TrialStreams(seed, trial))

    with ThreadPoolExecutor(max_workers=threads or 1) as pool:
        pooled = np.sort(np.concatenate(list(pool.map(one, range(trials)))))
    return EmpiricalSpectrum(
        singular_values=pooled,
        width=config.width,
        depth=config.depth,
        trials=trials,
        seed=seed,
        config=config.settings(),
    )


def empirical_density(spectrum: EmpiricalSpectrum, bins=200) -> SpectralDensity:
    """Normalized histogram over singular values.

    Values below 1e-8 are pooled into a point mass at zero (exact kernel
    directions produce numerically-zero singular values).
    """
    sv = spectrum.singular_values
    tiny = sv <= _ATOM_THRESHOLD
    atom_mass = float(tiny.mean())
    body = sv[~tiny]
    atoms = ((0.0, atom_mass),) if atom_mass > 0 else ()
    if body.size == 0:
        grid = np.array([0.5, 1.0])
        return SpectralDensity(SINGULAR, grid, np.zeros(2), atoms, {"bins": 0})
    lo, hi = float(body.min()), float(body.max())
    if hi - lo < 1e-9 * (1.0 + hi):  # all mass at one spot (e.g. pure isometries)
        pad = max(1e-6, 1e-9 * (1.0 + hi))
        hist, edges = np.histogram(body, bins=bins, range=(lo - pad, hi + pad), density=True)
    else:
        hist, edges = np.histogram(body, bins=bins, density=True)
    centers = 0.5 * (edges[:-1] + edges[1:])
    rho = hist * (1.0 - atom_mass)
    return SpectralDensity(
        domain=SINGULAR,
        grid=centers,
        rho=rho,
        atoms=atoms,
        metadata={"bins": int(np.size(hist)), "n_values": int(sv.size)},
    )


def ks_distance(spectrum: EmpiricalSpectrum, theory: SpectralDensity) -> float:
    """Two-sided sup distance between the empirical CDF and a theory CDF.

    The theory CDF combines the trapezoid of the continuum with atom steps.
    Sample values within a relative 1e-6 of a theory atom are snapped onto
    it (matrix intersections produce the atom locations only up to rounding).
    Evaluates both one-sided limits at every breakpoint, which handles atoms
    shared by both distributions exactly.
    """
    if theory.domain != SINGULAR:
        raise ValueError("theory density must live over singular values")
    total = theory.total_mass()
    if abs(total - 1.0) > MASS_TOL:
        warnings.warn(f"theory density mass {total:.4f} is off by more than {MASS_TOL}", stacklevel=2)
    sv = np.array(spectrum.singular_values, dtype=float)
    for loc, _ in theory.atoms:
        snap = np.abs(sv - loc) <= 1e-6 * (1.0 + abs(loc))
        sv[snap] = loc
    sv.sort()
    n = sv.size
    points = np.unique(np.concatenate([sv, theory.grid, [loc for loc, _ in theory.atoms]]))
    f_emp_right = np.searchsorted(sv, points, side="right") / n
    f_emp_left = np.searchsorted(sv, points, side="left") / n
    f_th_right = theory.cdf(points, side="right") / total
    f_th_left = theory.cdf(points, side="left") / total
    d = np.maximum(np.abs(f_emp_right - f_th_right), np.abs(f_emp_left - f_th_left))
    return float(d.max())
