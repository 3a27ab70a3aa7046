# jacspectra first: importing it pins BLAS to one thread, which holds only if numpy is not loaded yet
from jacspectra import master

import json
import math
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from jacspectra.activations import slope_distribution
from jacspectra.errors import BracketError
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


def _newton_batch_reference(res_fn, z, z_root, G, tol, max_iter):
    """``master._newton_batch`` before it kept the open points' state between iterations (same signature).

    Every iteration finds the open points afresh, and the line search tries each unsettled point at its own
    factor 1, 1/2, ..., 1/256; each residual call ran under its own np.errstate, here one for the batch.
    """
    n = G.shape[0]
    converged = np.zeros(n, dtype=bool)
    alive = np.ones(n, dtype=bool)
    iters = np.zeros(n, dtype=int)
    G = G.copy()
    with np.errstate(all="ignore"):
        R, dR = res_fn(G, z, z_root)
        for it in range(max_iter):
            idx = np.nonzero(alive & ~converged)[0]
            if idx.size == 0:
                break
            Gi, zi, Ri = G[idx], z[idx], R[idx]
            absM = np.abs(zi * Gi - 1.0)
            tol_eff = master._newton_tol(absM, tol)
            ok = np.abs(Ri) <= tol_eff
            converged[idx[ok]] = True
            idx = idx[~ok]
            if idx.size == 0:
                continue
            Gi, zi, Ri, tol_eff = Gi[~ok], zi[~ok], Ri[~ok], tol_eff[~ok]
            step = -Ri / dR[idx]
            nudge = master._NUDGE * (absM[~ok] + 1e-12) / np.abs(zi)
            step = np.where(np.isfinite(step), step, nudge)  # off poles/NaNs
            absR = np.abs(Ri)
            absR[~np.isfinite(absR)] = np.inf
            settled = np.zeros(idx.size, dtype=bool)
            factor = np.ones(idx.size)
            for _ in range(master._DAMPING_HALVINGS + 1):
                trial = np.nonzero(~settled)[0]
                if trial.size == 0:
                    break
                cand = Gi[trial] + step[trial] * factor[trial]
                Rc, dRc = res_fn(cand, zi[trial], z_root[idx[trial]])
                better = np.abs(Rc) < absR[trial]
                better &= np.isfinite(Rc)
                won = idx[trial[better]]
                G[won], R[won], dR[won] = cand[better], Rc[better], dRc[better]
                settled[trial[better]] = True
                factor[trial[~better]] *= 0.5
            stuck = ~settled
            noise_ok = stuck & (absR <= 100.0 * tol_eff)  # stagnation at the noise floor counts as converged
            converged[idx[noise_ok]] = True
            alive[idx[stuck & ~noise_ok]] = False
            iters[idx] += 1
    return G, converged, iters


@pytest.fixture(scope="session")
def newton_batch_reference():
    """Reference for ``master._newton_batch`` (same signature): the same arithmetic, with more bookkeeping."""
    return _newton_batch_reference


def _solve_G_at(config, lam):
    """Resolvent at lambda + i (the stop height) by branch-tracked continuation: one point of ``master._run_ladder``.

    The ladder's work tally is dropped.  Raises BranchLossError, as ``master.density`` does, when the
    continuation loses the branch.
    """
    _, res_fn, _, m1 = master._prepare(config)
    lams = np.array([lam], dtype=float)
    G, converged, fail_step = master._run_ladder(res_fn, config.depth, lams, [master._STOP_HEIGHT], m1, Counter())
    master._require_branch(lams, converged, G, fail_step)
    return complex(G[0])


@pytest.fixture(scope="session")
def solve_G_at():
    """Single-point resolvent solve (same signature as ``_solve_G_at``)."""
    return _solve_G_at
