"""Special functions and Gaussian quadrature primitives.

Everything downstream integrates against the standard normal measure

    Dh = dh/sqrt(2 pi) * exp(-h^2/2),

so the quadrature rule returned here is normalized for that measure: weights
sum to one and an n-node rule integrates polynomials up to degree 2n-1
exactly.

The solvers are kept self-contained:

  * ``bracket_root`` -- regula falsi, elementwise over arrays, behind every
    solve in ``propagation`` and ``limits.smooth_arch``.
  * ``newton`` -- Newton on an analytic f(w) = target, elementwise over
    arrays, with the conjugate taken of any iterate below the real axis and
    an optional damped line search: the one root tracker of ``master`` and
    ``limits``.
  * ``lambert_w0`` -- principal branch of W, where W(x) e^{W(x)} = x,
    by Halley iteration from a seed chosen by region (Maclaurin series for
    small argument, branch-point series near -1/e, log asymptotics for large
    argument).
  * ``r_lambert`` -- the generalized root W_r of  w e^w + r w = z,  pinned to
    the branch that passes through w = 0 at z = 0 and followed from there by
    damped-Newton continuation along a path in z, one point at a time by its
    own scalar Newton: ``newton`` costs 25 times as much on one point.
"""

from __future__ import annotations

import cmath
import contextlib
import ctypes
import functools
import math
import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from numpy.polynomial.hermite import hermgauss

from .errors import BracketError, ConvergenceError

_INV_E = math.exp(-1.0)
_SQRT2 = math.sqrt(2.0)


def erf_vec(x) -> np.ndarray:
    """``math.erf`` elementwise, as a float array of the input's shape."""
    x = np.asarray(x, dtype=float)
    return np.array(list(map(math.erf, x.ravel().tolist())), dtype=float).reshape(x.shape)


def norm_cdf(x):
    """Standard normal CDF, elementwise; a scalar goes straight to ``math.erf``."""
    if np.ndim(x) == 0:
        return np.float64(0.5 * (1.0 + math.erf(float(x) / _SQRT2)))
    return 0.5 * (1.0 + erf_vec(np.asarray(x, dtype=float) / _SQRT2))


def norm_pdf(x):
    x = np.asarray(x, dtype=float)
    return np.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)


def _pick(cond, a, b):
    """np.where(cond, a, b); a plain choice for a scalar cond, where np.where costs microseconds."""
    return np.where(cond, a, b) if getattr(cond, "ndim", 0) else (a if cond else b)


def eval_where(f, x, where, args=()):
    """f(x, *args) at the elements ``where`` (``args`` cut to match), nan elsewhere; a scalar call stays scalar."""
    if not getattr(where, "ndim", 0):
        return np.float64(f(x, *args) if where else math.nan)
    out = np.full(x.shape, math.nan)
    if where.any():
        out[where] = f(x[where], *(a[where] for a in args))
    return out


def bracket_root(f, lo, hi, args=(), where=True, f_ends=None):
    """Root of f on [lo, hi] by regula falsi until no float lies between the ends.

    A step takes the secant point through weighted f at the ends and scales
    the weight of the end it keeps by m = 1 - f(x)/f(replaced end), or 1/2
    where m <= 0 (Anderson & Bjorck 1973, who scale only an end kept twice
    in a row).  The point is clamped one float inside the bracket, and it is
    the midpoint after two steps in a row that did not halve the bracket, so
    no solve takes more than about three times the steps of bisection.

    Elementwise over ``lo``, ``hi``, ``where`` and ``args`` broadcast together,
    with one call f(x, *args) per step on the elements still open; each
    element takes the steps of its own scalar solve and returns an iterate
    where f is 0, or else the end with the smaller |f| (nan outside
    ``where``).  A scalar call is the 0-d case and returns a float.  A caller
    that holds f at the ends, as a bracket search does, passes them as
    ``f_ends`` = (f(lo), f(hi)) and saves two calls; the steps are the same.
    Raises BracketError when f has one strict sign at both ends.
    """
    arrays = np.broadcast_arrays(np.asarray(lo, dtype=float), np.asarray(hi, dtype=float), where, *args)
    lo, hi, where, *args = (a if a.ndim else a.item() for a in arrays)  # Python scalars for a scalar call
    array = np.ndim(lo) > 0
    flo, fhi = f_ends if f_ends is not None else (eval_where(f, lo, where, args), eval_where(f, hi, where, args))
    bad = where & ((flo > 0.0) == (fhi > 0.0)) & (flo != 0.0) & (fhi != 0.0)
    if bad.any() if array else bad:
        ends = (float(np.ravel(a)[np.argmax(bad)]) for a in (lo, hi, flo, fhi))
        raise BracketError("no sign change on [{!r}, {!r}]: f = {!r}, {!r}".format(*ends))
    open_ = where & (flo != 0.0) & (fhi != 0.0)
    nextafter = np.nextafter if array else math.nextafter
    glo, ghi, slow = flo, fhi, 0  # weighted f at the ends, steps in a row that did not halve the bracket
    while True:
        mid = lo + 0.5 * (hi - lo)
        open_ = open_ & (lo < mid) & (mid < hi)
        if not (open_.any() if array else open_):
            break
        with np.errstate(all="ignore") if array else contextlib.nullcontext():  # closed elements may hold 0 or nan
            x = lo - (hi - lo) * (glo / (ghi - glo))  # glo / (ghi - glo) lies in [-1, 0]
        inner_lo, inner_hi = nextafter(lo, hi), nextafter(hi, lo)
        x = _pick(x > inner_lo, x, inner_lo)  # also where x is nan
        x = _pick(slow >= 2, mid, _pick(x < inner_hi, x, inner_hi))
        fx = eval_where(f, x, open_, args)
        lower = open_ & ((fx > 0.0) == (flo > 0.0))  # the root lies above x
        upper = open_ ^ lower
        m = 1.0 - fx / _pick(lower, flo, fhi)  # nan where closed: fx is
        m = _pick(m > 0.0, m, 0.5)
        glo, ghi = _pick(lower, fx, m * glo), _pick(upper, fx, m * ghi)
        width = hi - lo
        lo, flo = _pick(lower, x, lo), _pick(lower, fx, flo)
        hi, fhi = _pick(upper, x, hi), _pick(upper, fx, fhi)
        slow = _pick((slow < 2) & (hi - lo > 0.5 * width), slow + 1, 0)
        open_ = open_ & (fx != 0.0)  # x is now an end with f = 0, the one returned
    root = _pick(where, _pick(abs(flo) <= abs(fhi), lo, hi), math.nan)
    return root if array else float(root)


def _upper(w):
    """w in place, with its conjugate where Im w < 0 or is -0."""
    return np.conjugate(w, out=w, where=np.signbit(w.imag))


def newton(fdf, w, target, tol=1e-14, max_iter=50, halvings=0):
    """Roots of f(w) = target by Newton, elementwise over the 1-D arrays ``w`` (the seeds) and ``target``.

    ``fdf(w)`` gives (f, f') at an array of points, one call per iteration on the points still open.  f has
    real coefficients, so an iterate below the real axis is replaced by its conjugate: each root is taken
    with Im w >= +0.  A point stops after the step on which |f - target| <= tol (1 + |target|), so its last
    step costs no call.  With ``halvings`` > 0, a step that does not lower |f - target| is halved up to that
    many times; a point that still finds no descent stops where it is, converged if its residual is within
    100 times its tolerance (the rounding floor) and failed otherwise.  A step that is not finite (at a pole
    or NaN) is replaced by a nudge of 1e-4 |w| up the imaginary axis, except at a point already within its
    tolerance (f' = 0 at a double root), which is returned as it is.  Returns (w, converged, iterations).
    """
    w = _upper(np.array(w, dtype=complex))
    converged, iters = np.zeros(w.size, dtype=bool), np.full(w.size, max_iter)
    idx, wi, ti = np.arange(w.size), w.copy(), np.asarray(target)  # the open points and their state
    tol_i = tol * (1.0 + np.abs(ti))
    with np.errstate(all="ignore"):
        f, df = fdf(wi)
        for k in range(1, max_iter + 1):
            res = f - ti
            absr = np.fmin(np.abs(res), np.inf)  # any finite residual descends from a NaN one
            step, done = -res / df, absr <= tol_i
            if not np.isfinite(step).all():
                bad = ~np.isfinite(step)
                step[bad] = np.where(done[bad], 0.0, 1e-4j * np.abs(wi[bad]))
            cand = _upper(wi + step)
            if done.any():  # these stop after this step
                w[idx[done]], converged[idx[done]], iters[idx[done]], keep = cand[done], True, k, ~done
                idx, wi, ti, tol_i, absr, step, cand = (a[keep] for a in (idx, wi, ti, tol_i, absr, step, cand))
                if idx.size == 0:
                    break
            f, df = fdf(cand)
            h = np.flatnonzero(~(np.abs(f - ti) < absr)) if halvings else idx[:0]
            for _ in range(halvings if h.size else 0):  # damped line search along the Newton step
                step[h] *= 0.5
                cand[h] = _upper(wi[h] + step[h])
                f[h], df[h] = fdf(cand[h])
                h = h[~(np.abs(f[h] - ti[h]) < absr[h])]
                if h.size == 0:
                    break
            if h.size:  # no descent: these stop where they are
                w[idx[h]], converged[idx[h]], iters[idx[h]] = wi[h], absr[h] <= 100.0 * tol_i[h], k
                keep = np.ones(idx.size, dtype=bool)
                keep[h] = False
                idx, ti, tol_i, cand, f, df = (a[keep] for a in (idx, ti, tol_i, cand, f, df))
            wi = cand
            if idx.size == 0:
                break
        w[idx] = wi
    return w, converged, iters


def _w0_seed(z: complex) -> complex:
    if abs(z + _INV_E) < 0.25:
        # branch-point series in p = sqrt(2(e z + 1)); the principal sqrt
        # picks the upper side for arguments approaching the cut from above
        p = cmath.sqrt(2.0 * (math.e * z + 1.0))
        return -1.0 + p - p * p / 3.0 + 11.0 / 72.0 * p**3
    if abs(z) <= 0.3:  # Maclaurin series converges for |z| < 1/e
        return z * (1.0 - z + 1.5 * z * z - (8.0 / 3.0) * z**3)
    L1 = cmath.log(z)
    L2 = cmath.log(L1)
    return L1 - L2 + L2 / L1


def _w0_f(w: complex, z: complex) -> complex:
    if w.real > 700.0:
        return complex(math.inf, 0.0)
    return w * cmath.exp(w) - z


def lambert_w0(z) -> complex:
    """Principal branch of the Lambert-W function for complex argument.

    Raises ValueError for real arguments below the branch point -1/e; complex
    arguments on the cut are resolved toward the upper side.
    """
    z = complex(z)
    if z.imag == 0.0 and z.real < -_INV_E:
        raise ValueError(f"lambert_w0 principal branch needs z >= -1/e on the reals, got {z.real}")
    if z == 0:
        return 0j
    if abs(z) > 1e290:
        # solve w + log(w) = log(z) instead; w e^w would overflow
        lz = cmath.log(z)
        w = lz - cmath.log(lz)
        for _ in range(50):
            g = w + cmath.log(w) - lz
            if abs(g) <= 1e-15 * (1.0 + abs(lz)):
                break
            w -= g / (1.0 + 1.0 / w)
        return w
    if 0.3 < abs(z) < 6.0 and abs(z + _INV_E) >= 0.25:
        # mid-range annulus: no series seed is reliable here, so follow the
        # branch down a ray from the asymptotic regime (the ray never meets
        # the cut, which lies on the negative reals only)
        w = None
        for mag in (6.0, 4.0, 2.5, 1.6, 1.0, 0.65, 0.42):
            if mag < abs(z):
                break
            zk = z * (mag / abs(z))
            w = _halley_w0(zk, _w0_seed(zk) if w is None else w)
        return _halley_w0(z, w)
    return _halley_w0(z, _w0_seed(z))


def _halley_w0(z: complex, w: complex) -> complex:
    tol = 1e-13 * (1.0 + abs(z))
    f = _w0_f(w, z)
    for _ in range(50):
        if abs(f) <= tol:
            break
        # Halley step, damped so mediocre mid-range seeds cannot blow up
        ew = cmath.exp(w) if w.real <= 700.0 else complex(math.inf)
        fp = ew * (w + 1.0)
        denom = fp - f * (w + 2.0) / (2.0 * (w + 1.0))
        if denom == 0 or not cmath.isfinite(denom):
            denom = fp if fp != 0 else 1.0
        step = -f / denom
        for _ in range(9):
            w_new = w + step
            f_new = _w0_f(w_new, z)
            if abs(f_new) < abs(f):
                w, f = w_new, f_new
                break
            step *= 0.5
        else:
            break
    return w


def _rlam_f(w: complex, r: complex, z: complex) -> complex:
    if w.real > 700.0:  # exp would overflow; certainly not on our branch
        return complex(math.inf, 0.0)
    return w * cmath.exp(w) + r * w - z


def _newton_rlambert(r: complex, z: complex, w0: complex, tol: float, max_iter: int = 60):
    w = w0
    f = _rlam_f(w, r, z)
    for _ in range(max_iter):
        if abs(f) <= tol:
            return w, f
        fp = cmath.exp(w) * (w + 1.0) + r
        if fp == 0:
            break
        step = -f / fp
        # damped: halve until residual decreases
        for _ in range(9):
            w_new = w + step
            f_new = _rlam_f(w_new, r, z)
            if abs(f_new) < abs(f):
                w, f = w_new, f_new
                break
            step *= 0.5
        else:
            break
    return None, f


def r_lambert(r, z, *, steps: int = 32, via=None) -> complex:
    """Root of  w e^w + r w = z  on the branch continuous with w=0 at z=0.

    The root is tracked by damped Newton along a straight-line path in z
    (optionally routed through the waypoint ``via``), subdividing segments
    where the tracking stalls.  ``r_lambert(0, z)`` agrees with
    ``lambert_w0(z)``.
    """
    r = complex(r)
    z = complex(z)
    if z == 0:
        return 0j
    waypoints = [0j]
    if via is not None:
        waypoints.append(complex(via))
    waypoints.append(z)

    w = 0j
    z_prev = 0j
    for wp in waypoints[1:]:
        seg = [z_prev + (wp - z_prev) * k / steps for k in range(1, steps + 1)]
        k = 0
        depth = 0
        while k < len(seg):
            zt = seg[k]
            # relative tolerance: for tiny targets the root scales with z
            # and an absolute floor would accept w = 0 for everything
            tol = 1e-13 * abs(zt)
            root, res = _newton_rlambert(r, zt, w, tol)
            if root is None:
                if depth >= 6:
                    raise ConvergenceError(
                        f"r_lambert continuation stalled at z={zt}",
                        last_iterate=w,
                        residual=abs(res),
                    )
                # subdivide the failing segment
                start = z_prev if k == 0 else seg[k - 1]
                seg[k:k + 1] = [start + (zt - start) * j / 8 for j in range(1, 9)]
                depth += 1
                continue
            w = root
            z_prev = zt
            k += 1
    return w


@dataclass(frozen=True)
class QuadratureRule:
    """Nodes and weights for expectations under the standard normal measure.

    integral f(h) Dh  ~=  sum_i weights[i] * f(nodes[i]),  sum weights = 1.
    """

    nodes: np.ndarray
    weights: np.ndarray


@functools.cache
def _openblas_threads():
    """(get, set) of the thread count of the OpenBLAS that numpy bundles, or None where numpy links another BLAS."""
    libs = sorted((Path(np.__file__).resolve().parent.parent / "numpy.libs").glob("libscipy_openblas*"))
    if not libs:
        return None
    lib = ctypes.CDLL(str(libs[0]))  # the copy numpy loaded; its calls take and return an int
    for suffix in ("64_", ""):  # the 64- and 32-bit integer builds
        get, put = (getattr(lib, f"scipy_openblas_{op}_num_threads{suffix}", None) for op in ("get", "set"))
        if get and put:
            return get, put
    return None


@contextlib.contextmanager
def one_blas_thread():
    """Run a block, or each call of a function it decorates, on one thread of numpy's bundled OpenBLAS, then restore
    the thread count: importing the package before numpy pins one thread, and this holds it in any import order.
    It does nothing where numpy links another BLAS, or where the caller chose a count: OPENBLAS_NUM_THREADS or
    OMP_NUM_THREADS reads other than 1."""
    chosen = any(os.environ.get(var, "1") != "1" for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"))
    threads = None if chosen else _openblas_threads()
    if threads is None:
        yield
        return
    get, put = threads
    before = get()
    put(1)
    try:
        yield
    finally:
        put(before)


@one_blas_thread()
def gauss_normal_rule(n: int) -> QuadratureRule:
    """Gauss rule with ``n`` nodes, 1 <= n <= 250, exact for polynomials of degree <= 2n-1.

    Gauss-Hermite nodes (weight e^{-x^2}) rescaled by h = sqrt(2) x to the
    unit-variance normal measure; past 250 nodes their polynomial evaluation
    overflows, so a larger ``n`` raises ValueError.
    """
    if not 1 <= n <= 250:
        raise ValueError(f"a Gauss rule takes 1 to 250 nodes, got {n}")
    x, w = hermgauss(n)
    nodes = _SQRT2 * x
    weights = w / math.sqrt(math.pi)
    weights = weights / weights.sum()
    nodes.flags.writeable = False
    weights.flags.writeable = False
    return QuadratureRule(nodes=nodes, weights=weights)


@functools.cache
def default_rule() -> QuadratureRule:
    """The one 201-node Gauss rule that every smooth unit's expectations use."""
    return gauss_normal_rule(201)
