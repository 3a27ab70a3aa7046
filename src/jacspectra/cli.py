"""Command-line driver: reproducible runs from JSON configs.

``main`` reads a single JSON config (``--config``) once, applies dotted
flag overrides (``--grid.min 1e-8`` targets config["grid"]["min"]), and
hands it to the command.  Every setting is read through one reader,
``_setting``: a number, a whole number, true/false, or a string (a path or
a name; a number given for one is refused, not opened as a file
descriptor).  A command materializes its defaults, runs, writes its
CSV/JSON outputs, and ends in one ``_emit``: a command that has a report
(every one but phase-grid) writes it to ``out.report_json`` where one is
named, and the fully resolved provenance document goes to stdout.  The
network settings are echoed as ``NetworkConfig.settings()`` writes them.

Subcommands: fixed-point, phase-grid, theory-spectrum, simulate, compare,
limit, moments.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from dataclasses import asdict, replace

import numpy as np

from . import __version__
from .activations import get_activation
from .density import GRID_LAM_MIN, GRID_POINTS, make_lambda_grid, read_csv, read_json, to_singular_domain
from .ensembles import ORTHOGONAL, WeightEnsemble
from .errors import JacspectraError
from .limits import BERNOULLI, SMOOTH, bernoulli_density, bernoulli_edges_atoms, smooth_density, smooth_edges
from .master import WORK_COUNTS, default_lam_max, density
from .moments import jacobian_moments, moments_from_density
from .propagation import (
    NetworkConfig,
    critical_sigma_w,
    double_scaling_qstar,
    fixed_point_is_degenerate,
    phase_grid,
    qstar_fixed_point,
)
from .simulate import EmpiricalSpectrum, empirical_density, ks_distance, run_trials

THREADS_ENV = "JACSPECTRA_THREADS"


def _thread_count(text: str, source: str = "--threads") -> int:
    """A worker cap: a positive integer, else JacspectraError naming its source."""
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise JacspectraError(f"{source} must be a positive integer, got {text!r}")
    return value


def _threads(args) -> int:
    """--threads, else $JACSPECTRA_THREADS, else the CPU count."""
    if args.threads is not None:
        return args.threads
    env = os.environ.get(THREADS_ENV)
    return _thread_count(env, THREADS_ENV) if env else os.cpu_count() or 1


def _load_config(args, extra) -> dict:
    """The --config document with each --a.b-c VALUE set at config[a][b_c], VALUE read as JSON where it parses."""
    cfg = {}
    if args.config:
        try:
            with open(args.config) as fh:
                cfg = json.load(fh)
        except (OSError, ValueError) as exc:
            raise JacspectraError(f"cannot read config {args.config!r}: {exc}") from None
    for i in range(0, len(extra), 2):
        if not extra[i].startswith("--"):
            raise JacspectraError(f"unexpected argument {extra[i]!r}")
        if i + 1 == len(extra):
            raise JacspectraError(f"flag {extra[i]!r} needs a value")
        try:
            value = json.loads(extra[i + 1])
        except json.JSONDecodeError:
            value = extra[i + 1]
        *sections, name = (p.replace("-", "_") for p in extra[i][2:].split("."))
        section = cfg
        for key in sections:
            section = section.setdefault(key, {})
            if not isinstance(section, dict):
                raise JacspectraError(f"config['{key}'] must be a section of keys, got {section!r}")
        section[name] = value
    for key in ("ensemble", "double_scaling", "grid", "out", "empirical", "theory"):
        if not isinstance(cfg.get(key, {}), dict):
            raise JacspectraError(f"config['{key}'] must be a section of keys, got {cfg[key]!r}")
    return cfg


def _setting(cfg: dict, key: str, default=None, kind=float, least=None):
    """The config value at a dotted key: a float, a whole int >= ``least``, JSON true/false for kind=bool, or a string.

    ``default`` where the key is absent; null counts as absent only where the default is None.
    """
    raw = cfg
    for name in key.split("."):
        raw = raw.get(name, default) if isinstance(raw, dict) else default
    if raw is None and default is None:
        return None
    try:
        value = kind(raw)
        # a flag is true or false, not "no" read by truthiness; a number is not true, an integer not 1.5;
        # a path or a name is a string, not a number (a number opens as a file descriptor)
        ok = isinstance(raw, bool) == (kind is bool) and (kind is not int or isinstance(raw, str) or value == raw)
        ok = isinstance(raw, str) if kind is str else ok
    except (TypeError, ValueError, OverflowError):
        ok = False
    if not ok:
        what = {bool: "true or false", int: "an integer", str: "a string"}.get(kind, "a number")
        raise JacspectraError(f"{key} must be {what}, got {raw!r}")
    if least is not None and value < least:
        raise JacspectraError(f"{key} must be >= {least}, got {raw!r}")
    return value


def _activation_from(cfg: dict):
    spec = cfg.get("activation", {})
    name = spec.get("name", "linear") if isinstance(spec, dict) else str(spec)
    params = spec.get("params", {}) if isinstance(spec, dict) else {}
    try:
        return get_activation(name, **params)
    except (KeyError, TypeError, ValueError) as exc:
        raise JacspectraError(f"bad activation {spec!r}: {exc.args[0]}") from None


def _network_from(cfg: dict) -> NetworkConfig:
    activation = _activation_from(cfg)
    kind = _setting(cfg, "ensemble.kind", ORTHOGONAL, str)
    depth = _setting(cfg, "depth", 1, int, least=1)
    sigma_b = _setting(cfg, "sigma_b", 0.0)
    qstar = _setting(cfg, "qstar")
    width = _setting(cfg, "width", kind=int)
    ds = _setting(cfg, "double_scaling.sigma0_sq")
    critical = _setting(cfg, "critical", False, bool)
    # a setting that another one would override is refused, not dropped; only sigma_w is left beside critical
    # and double scaling, because the echo carries the resolved sigma_w and a replayed document must still run
    if ds is not None:
        if critical:
            raise JacspectraError("critical and double_scaling.sigma0_sq each set sigma_w and q*; give one of them")
        if sigma_b != 0.0:
            raise JacspectraError(f"double scaling runs at sigma_b = 0, got sigma_b {sigma_b!r}")
        if kind != ORTHOGONAL:  # its q* pins the variance of orthogonal layers only
            raise JacspectraError(f"double scaling runs on {ORTHOGONAL} weights, got ensemble.kind {kind!r}")
        qstar, sigma_w = double_scaling_qstar(activation, depth, ds)
    elif critical:
        sigma_w, qstar = critical_sigma_w(activation, sigma_b)
    else:
        sigma_w = _setting(cfg, "sigma_w", 1.0)
    try:
        config = NetworkConfig(activation, WeightEnsemble(kind), sigma_w, sigma_b, depth, width, qstar)
    except ValueError as exc:
        raise JacspectraError(f"bad network config: {exc}") from None
    cfg.update(config.settings())
    return config


def _grid_from(cfg: dict, lam_max_default: float) -> np.ndarray:
    lam_max, lam_min = _setting(cfg, "grid.max", lam_max_default), _setting(cfg, "grid.min", GRID_LAM_MIN)
    points = _setting(cfg, "grid.points", GRID_POINTS, int, least=1)
    cfg["grid"] = {"min": lam_min, "max": lam_max, "points": points}  # echoed as used
    try:
        return make_lambda_grid(lam_max, lam_min=lam_min, n=points)
    except ValueError as exc:
        raise JacspectraError(f"bad grid {cfg['grid']}: {exc}") from None


def _emit(command: str, cfg: dict, outputs: dict, report=None) -> None:
    """Write ``report`` to out.report_json where one is named, then print the provenance document."""
    doc = {
        "command": command,
        "version": __version__,
        "config": cfg,
        "outputs": outputs,
    }
    if report is not None:
        path = _setting(cfg, "out.report_json", kind=str)
        if path:
            with open(path, "w") as fh:
                json.dump(report, fh, sort_keys=True, default=str)
        doc["outputs"], doc["report"] = {**outputs, "report_json": path}, report
    sys.stdout.write(json.dumps(doc, sort_keys=True, default=str) + "\n")  # the C encoder: json.dump's bytes


def _write_density(cfg: dict, dens, default_csv: str) -> dict:
    """Write ``dens`` to out.density_csv (``default_csv`` if unnamed) and to out.density_json if named."""
    paths = {
        "density_csv": _setting(cfg, "out.density_csv", default_csv, str),
        "density_json": _setting(cfg, "out.density_json", kind=str),
    }
    dens.write_csv(paths["density_csv"])
    if paths["density_json"]:
        dens.write_json(paths["density_json"])
    return paths


# ---------------------------------------------------------------------------
# commands


def cmd_fixed_point(args, cfg: dict) -> int:
    activation = _activation_from(cfg)
    sigma_w = _setting(cfg, "sigma_w", 1.0)
    sigma_b = _setting(cfg, "sigma_b", 0.0)
    fp = qstar_fixed_point(activation, sigma_w, sigma_b)
    degenerate = bool(fixed_point_is_degenerate(activation, sigma_w, sigma_b))
    report = {
        "qstar": 0.0 if degenerate else fp.qstar,  # every q is a fixed point: the commands write 0
        "chi": fp.chi,
        "iterations": fp.iterations,
        "converged": fp.converged,
        "residual": fp.residual,
        "critical_degenerate": degenerate,
    }
    _emit("fixed-point", cfg, {}, report)
    return 0 if fp.converged else 1


def _grid_axis(cfg: dict, key: str, default: list, positive: bool) -> np.ndarray:
    """np.linspace over config[key] = [start, stop, count]; the ends must be > 0 if ``positive``, else >= 0."""
    spec = cfg.setdefault(key, default)
    numbers = isinstance(spec, list) and len(spec) == 3 and all(type(v) in (int, float) for v in spec)
    ends_ok = numbers and all(math.isfinite(v) and (v > 0.0 if positive else v >= 0.0) for v in spec[:2])
    if not (ends_ok and type(spec[2]) is int and spec[2] >= 1):
        rule = f"finite ends {'> 0' if positive else '>= 0'} and an integer count >= 1"
        raise JacspectraError(f"{key} must be [start, stop, count] with {rule}, got {spec!r}")
    return np.linspace(float(spec[0]), float(spec[1]), spec[2])


def cmd_phase_grid(args, cfg: dict) -> int:
    activation = _activation_from(cfg)
    sigma_w = _grid_axis(cfg, "sigma_w_range", [0.5, 3.0, 26], positive=True)
    sigma_b = _grid_axis(cfg, "sigma_b_range", [0.0, 1.0, 11], positive=False)
    path = _setting(cfg, "out.grid_csv", "phase_grid.csv", str)
    grid = phase_grid(activation, sigma_w, sigma_b)
    degenerate = fixed_point_is_degenerate(activation, grid.sigma_w, grid.sigma_b)
    grid = replace(grid, qstar=np.where(degenerate, 0.0, grid.qstar))  # as the fixed-point command writes it
    rows = (f"{sw!r},{sb!r},{q!r},{c!r},{str(ok).lower()}\n" for sw, sb, q, c, ok in grid.rows())
    with open(path, "w") as fh:
        fh.write("".join(["sigma_w,sigma_b,qstar,chi,converged\n", *rows]))
    _emit("phase-grid", cfg, {"grid_csv": path})
    return 0


def cmd_theory_spectrum(args, cfg: dict) -> int:
    if "solver" in cfg:  # refused, so that an old config cannot run on the defaults without a word
        raise JacspectraError(f"the solver takes no settings; remove config['solver'] (got {cfg['solver']})")
    config = _network_from(cfg)
    singular = _setting(cfg, "singular_domain", True, bool)
    grid = _grid_from(cfg, default_lam_max(jacobian_moments(config)))
    dens = density(config, grid)
    dens_out = to_singular_domain(dens) if singular else dens
    _emit(
        "theory-spectrum",
        cfg,
        _write_density(cfg, dens_out, "theory_spectrum.csv"),
        {
            "grid_points": dens.grid.size,  # a point at an atom is dropped
            "below": dens.below, "total_mass": dens.total_mass(),
            "atoms": [list(a) for a in dens_out.atoms],
            **{k: dens.metadata[k] for k in WORK_COUNTS},
        },
    )
    return 0


def cmd_simulate(args, cfg: dict) -> int:
    config = _network_from(cfg)
    if config.width is None:
        raise JacspectraError("simulate requires config['width']")
    trials = _setting(cfg, "trials", 30, int, least=1)
    seed = _setting(cfg, "seed", 0, int)
    cfg["trials"], cfg["seed"] = trials, seed
    csv_path = _setting(cfg, "out.spectrum_csv", "spectrum.csv", str)
    paths = {
        "spectrum_csv": csv_path,
        "sidecar_json": _setting(cfg, "out.sidecar_json", csv_path.rsplit(".", 1)[0] + ".json", str),
        "histogram_csv": _setting(cfg, "out.histogram_csv", kind=str),
    }
    bins = _setting(cfg, "bins", 200, int, least=1)
    spectrum = run_trials(config, trials, seed, threads=_threads(args))
    spectrum.write_csv(csv_path)
    with open(paths["sidecar_json"], "w") as fh:
        json.dump(spectrum.sidecar(), fh, sort_keys=True)
    if paths["histogram_csv"]:
        empirical_density(spectrum, bins=bins).write_csv(paths["histogram_csv"])
    _emit(
        "simulate",
        cfg,
        paths,
        {
            "mean_squared": spectrum.mean_squared(),
            "var_squared": spectrum.var_squared(),
            "n_values": int(spectrum.singular_values.size),
        },
    )
    return 0


def _read(reader, *paths):
    """reader(*paths), with a file that cannot be read or does not parse refused as JacspectraError naming it."""
    try:
        return reader(*paths)
    except OSError as exc:
        raise JacspectraError(f"cannot read {exc.filename!r}: {exc.strerror}") from None
    except (ValueError, KeyError, TypeError) as exc:
        detail = f"no key {exc}" if isinstance(exc, KeyError) else str(exc)
        raise JacspectraError(f"cannot read {' with '.join(map(repr, paths))}: {detail}") from None


def cmd_compare(args, cfg: dict) -> int:
    keys = ("empirical.spectrum_csv", "empirical.sidecar_json", "theory.density")
    spectrum_csv, sidecar_json, theory_path = (_setting(cfg, key, kind=str) for key in keys)
    if None in (spectrum_csv, sidecar_json, theory_path):
        raise JacspectraError(f"compare requires config keys {', '.join(keys)}")
    spectrum = _read(EmpiricalSpectrum.read_csv, spectrum_csv, sidecar_json)
    theory = _read(read_json if theory_path.endswith(".json") else read_csv, theory_path)
    if theory.domain != "singular":
        theory = to_singular_domain(theory)
    ks = ks_distance(spectrum, theory)
    mean_sq = spectrum.mean_squared()
    th_m1 = moments_from_density(theory, 2)
    report = {
        "ks": ks,
        "empirical_mean_squared": mean_sq,
        "empirical_var_squared": spectrum.var_squared(),
        "theory_mean_squared": th_m1,
        "mean_squared_delta": mean_sq - th_m1,
    }
    _emit("compare", cfg, {}, report)
    return 0


def cmd_limit(args, cfg: dict) -> int:
    klass = _setting(cfg, "class", BERNOULLI, str)
    s0sq = _setting(cfg, "sigma0_sq", 0.25)
    if not 0.0 < s0sq < math.inf:
        raise JacspectraError(f"sigma0_sq must be positive and finite, got {s0sq!r}")
    if set(cfg.get("grid", {})) - {"points"}:
        raise JacspectraError(f"limit sets its own grid from grid.points alone, got grid {cfg['grid']}")
    half = _setting(cfg, "grid.points", 1200, int, least=4) // 2
    cfg["class"], cfg["sigma0_sq"], cfg["grid"] = klass, s0sq, {"points": 2 * half}  # echoed as used
    if klass == BERNOULLI:
        info = bernoulli_edges_atoms(s0sq)
        # rho ~ 1/(lambda log^2 lambda) near 0: reach far down; the report has the mass below
        geo = np.geomspace(1e-100, info["lambda1"], half)
        lin = np.linspace(1e-6, max(info["lambda1"], info["lambda2"]) * 1.1, half)
        dens = bernoulli_density(s0sq, np.unique(np.concatenate([geo, lin])))
        edges = {k: info[k] for k in ("lambda0", "lambda1", "lambda2")}
    elif klass == SMOOTH:
        lo, hi = smooth_edges(s0sq)
        # geometric points resolve a lower edge near 0
        grid = np.concatenate([np.geomspace(lo, hi, half), np.linspace(0.8 * lo, 1.05 * hi, half)])
        dens = smooth_density(s0sq, np.unique(grid))
        edges = {"lambda_minus": lo, "lambda_plus": hi}
    else:
        raise JacspectraError(f"unknown limit class {klass!r}; classes are {BERNOULLI}, {SMOOTH}")
    dens_s = to_singular_domain(dens)
    _emit(
        "limit",
        cfg,
        _write_density(cfg, dens_s, "limit.csv"),
        {"edges": edges, "atoms": [list(a) for a in dens_s.atoms],
         "below": dens.below, "total_mass": dens.total_mass()},
    )
    return 0


def cmd_moments(args, cfg: dict) -> int:
    config = _network_from(cfg)
    _emit("moments", cfg, {}, asdict(jacobian_moments(config)))
    return 0


_COMMANDS = {
    "fixed-point": cmd_fixed_point,
    "phase-grid": cmd_phase_grid,
    "theory-spectrum": cmd_theory_spectrum,
    "simulate": cmd_simulate,
    "compare": cmd_compare,
    "limit": cmd_limit,
    "moments": cmd_moments,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="jacspectra",
        description="Singular-value spectra of deep random-network Jacobians.",
    )
    parser.add_argument("command", choices=sorted(_COMMANDS))
    parser.add_argument("--config", help="path to a JSON config document")
    parser.add_argument(
        "--threads",
        type=_thread_count,
        help=f"worker cap for independent trials (default: ${THREADS_ENV} or cpu count)",
    )
    return parser


_parser = functools.cache(build_parser)  # argparse keeps no state between parses: one parser serves the process


def main(argv=None) -> int:
    try:
        args, extra = _parser().parse_known_args(argv)
        return _COMMANDS[args.command](args, _load_config(args, extra))
    except JacspectraError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
