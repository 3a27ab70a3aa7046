# jacspectra first: importing it pins BLAS to one thread, which holds only if numpy is not loaded yet
from jacspectra import master

import json
import math
from pathlib import Path

import numpy as np
import pytest

from jacspectra.activations import slope_distribution, slope_sq_law
from jacspectra.ensembles import ORTHOGONAL
from jacspectra.errors import BracketError, PoleError
from jacspectra.propagation import resolve_qstar
from jacspectra.special import default_rule, eval_where

DATA = Path(__file__).parent / "data"


@pytest.fixture(scope="session")
def oracles():
    """Frozen values produced by tests/oracles/gen_scalar_oracles.py."""
    with open(DATA / "scalar_oracles.json") as fh:
        return json.load(fh)


@pytest.fixture(scope="session")
def mp_oracle():
    """Pooled 2000x2000 Wishart sample statistics (gen_mp_oracle.py)."""
    with open(DATA / "mp_oracle.json") as fh:
        return json.load(fh)


def _pick(cond, a, b):
    return np.where(cond, a, b) if getattr(cond, "ndim", 0) else (a if cond else b)


def _bisect_reference(f, lo, hi, args=(), where=True, f_ends=None):
    """Bisection until no float lies between the ends: the package's root solver before regula falsi.

    Same contract as ``special.bracket_root``: ``lo``, ``hi``, ``where`` and
    ``args`` broadcast, one call f(x, *args) per step on the open elements,
    ``f_ends`` (f at the ends, where the caller holds it) saves the first two
    calls, and each returns a midpoint where f is 0, or else the end with the
    smaller |f|.
    """
    arrays = np.broadcast_arrays(np.asarray(lo, dtype=float), np.asarray(hi, dtype=float), where, *args)
    lo, hi, where, *args = (a if a.ndim else a.item() for a in arrays)
    flo, fhi = f_ends if f_ends is not None else (eval_where(f, lo, where, args), eval_where(f, hi, where, args))
    bad = where & ((flo > 0.0) == (fhi > 0.0)) & (flo != 0.0) & (fhi != 0.0)
    if bad.any() if getattr(bad, "ndim", 0) else bad:
        ends = (float(np.ravel(a)[np.argmax(bad)]) for a in (lo, hi, flo, fhi))
        raise BracketError("no sign change on [{!r}, {!r}]: f = {!r}, {!r}".format(*ends))
    open_ = where & (flo != 0.0) & (fhi != 0.0)
    while True:
        mid = lo + 0.5 * (hi - lo)
        open_ = open_ & (lo < mid) & (mid < hi)
        if not (open_.any() if getattr(open_, "ndim", 0) else open_):
            break
        fmid = eval_where(f, mid, open_, args)
        lower = open_ & ((fmid > 0.0) == (flo > 0.0))
        upper = open_ ^ lower
        lo, flo = _pick(lower, mid, lo), _pick(lower, fmid, flo)
        hi, fhi = _pick(upper, mid, hi), _pick(upper, fmid, fhi)
        open_ = open_ & (fmid != 0.0)
    root = _pick(where, _pick(abs(flo) <= abs(fhi), lo, hi), math.nan)
    return float(root) if not np.ndim(root) else root


@pytest.fixture(scope="session")
def bisection():
    """Reference root solver for ``special.bracket_root`` (same signature)."""
    return _bisect_reference


def _unpruned_slope_sq_law(spec, qstar, rule=None):
    """``activations.slope_sq_law`` before it dropped the nodes of weight below 1e-30 (same signature).

    Piecewise units give their discrete law; smooth ones every node of the
    Gauss rule, folded onto the non-negative nodes when t is even in h.
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


@pytest.fixture(scope="session")
def unpruned_slope_sq_law():
    """Reference squared-slope law for ``activations.slope_sq_law``: every node of the rule."""
    return _unpruned_slope_sq_law


def _master_residual(config, G, z):
    """Residual of the paper's implicit resolvent equation at (G, z), in G:

        zG - 1 - M(z^{1/L} S(zG - 1) ((zG)/(zG - 1))^{1 - 1/L}),   S(x) = 1/(sigma_w^2 (1 + x)) or 1/sigma_w^2,

    with M the sum over ``slope_sq_law``.  Zero exactly when G solves the equation.  Raises PoleError at the
    excluded points zG - 1 in {0, -1}.
    """
    t, c = slope_sq_law(config.activation, resolve_qstar(config).qstar)
    G = np.asarray(G, dtype=complex)
    z = np.asarray(z, dtype=complex)
    M = z * G - 1.0
    if np.any(M == 0) or np.any(M == -1.0):
        raise PoleError("master residual evaluated at a pole (zG-1 in {0,-1})")
    M1, inv_sw2, p = 1.0 + M, config.sigma_w**-2.0, 1.0 - 1.0 / config.depth
    with np.errstate(all="ignore"):
        w = z ** (1.0 / config.depth) * ((inv_sw2 / M1 if config.ensemble.kind != ORTHOGONAL else inv_sw2) * (M1 / M) ** p)
        out = M - (1.0 / (w[..., None] - t.astype(complex))) @ (c * t).astype(complex)
    return complex(out) if out.ndim == 0 else out


@pytest.fixture(scope="session")
def master_residual():
    """The G-space master equation (same signature as ``_master_residual``): the reference the solver's roots meet."""
    return _master_residual


def _newton_reference(fdf, w, target, tol=1e-14, max_iter=50, halvings=0):
    """``special.newton`` without its bookkeeping (same signature and arithmetic).

    Every iteration finds the open points afresh and evaluates its candidates at all of them, and the line
    search tries each unsettled point at its own factor 1/2, 1/4, ...  Conjugates are taken where the sign
    bit of Im w is set.
    """

    def upper(v):
        return np.where(np.signbit(v.imag), v.conj(), v)

    w, target = upper(np.array(w, dtype=complex)), np.asarray(target)
    converged, alive, iters = np.zeros(w.size, dtype=bool), np.ones(w.size, dtype=bool), np.full(w.size, max_iter)
    tol_all = tol * (1.0 + np.abs(target))
    with np.errstate(all="ignore"):
        f, df = fdf(w)
        for k in range(1, max_iter + 1):
            idx = np.flatnonzero(alive)
            res = f[idx] - target[idx]
            absr = np.abs(res)
            absr[np.isnan(absr)] = np.inf
            step = -res / df[idx]
            done = absr <= tol_all[idx]
            bad = ~np.isfinite(step)
            step[bad & ~done] = 1e-4j * np.abs(w[idx][bad & ~done])
            step[bad & done] = 0.0  # a converged point stays where it is
            cand = upper(w[idx] + step)
            w[idx[done]], converged[idx[done]], iters[idx[done]], alive[idx[done]] = cand[done], True, k, False
            idx, step, absr, cand = idx[~done], step[~done], absr[~done], cand[~done]
            if idx.size == 0:
                break
            f[idx], df[idx] = fdf(cand)
            settled = (np.abs(f[idx] - target[idx]) < absr) if halvings else np.ones(idx.size, dtype=bool)
            factor = np.ones(idx.size)
            for _ in range(halvings):
                trial = np.flatnonzero(~settled)
                if trial.size == 0:
                    break
                factor[trial] *= 0.5
                cand[trial] = upper(w[idx[trial]] + step[trial] * factor[trial])
                f[idx[trial]], df[idx[trial]] = fdf(cand[trial])
                settled[trial] = np.abs(f[idx[trial]] - target[idx[trial]]) < absr[trial]
            stuck = ~settled  # no descent: stop where it is
            converged[idx[stuck]], iters[idx[stuck]], alive[idx[stuck]] = absr[stuck] <= 100.0 * tol_all[idx[stuck]], k, False
            w[idx[settled]] = cand[settled]
    return w, converged, iters


@pytest.fixture(scope="session")
def newton_reference():
    """Reference for ``special.newton`` (same signature): the same arithmetic, with more bookkeeping."""
    return _newton_reference


def _solve_G_at(config, lam):
    """Resolvent at lambda + i0 by ``master.density``'s solve of a one-point grid (a march in height).

    Raises BranchLossError, as ``master.density`` does, when the march loses the branch.
    """
    solver, lams = master._Solver(config), np.array([lam], dtype=float)
    w, converged, fail_step = master._solve_grid(solver, lams)
    master._require_branch(lams, converged, w, fail_step)
    return complex(solver.x(w)[1][0] / lam)


@pytest.fixture(scope="session")
def solve_G_at():
    """Single-point resolvent solve (same signature as ``_solve_G_at``)."""
    return _solve_G_at
