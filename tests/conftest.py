import json
import math
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


def _bisect_reference(f, lo, hi, args=(), where=True):
    """Bisection until no float lies between the ends: the package's root solver before regula falsi.

    Same contract as ``special.bracket_root``: ``lo``, ``hi``, ``where`` and
    ``args`` broadcast, one call f(x, *args) per step on the open elements,
    and each returns a midpoint where f is 0, or else the end with the
    smaller |f|.
    """
    arrays = np.broadcast_arrays(np.asarray(lo, dtype=float), np.asarray(hi, dtype=float), where, *args)
    lo, hi, where, *args = (a if a.ndim else a.item() for a in arrays)
    flo, fhi = eval_where(f, lo, where, args), eval_where(f, hi, where, args)
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
