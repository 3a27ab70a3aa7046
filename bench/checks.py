"""Output checks and output digests for one CLI operation.

Every op is checked after the pass that ran it, outside the timed region:
the exit code, the provenance JSON on stdout, and every file it wrote (a
density is re-read with ``density.read_csv`` and must be finite and
non-negative).  A failed check marks the op as failed; it never aborts the
run.

The digest hashes the op's outputs printed to 10 significant digits, so a
change that claims unchanged outputs can be diffed against it.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field

import numpy as np


class CheckError(Exception):
    pass


@dataclass
class Outcome:
    op: str
    ok: bool = True
    error: str | None = None
    digest: str = ""
    mass_err: float | None = None
    m1_err: float | None = None
    ks: float | None = None
    lost_points: int = 0
    warnings: int = 0
    extra: dict = field(default_factory=dict)


def _g(x) -> str:
    return f"{float(x):.10g}"


def _require(cond, message: str) -> None:
    if not cond:
        raise CheckError(message)


def _finite(values, what: str) -> np.ndarray:
    arr = np.asarray(values, dtype=float)
    _require(np.all(np.isfinite(arr)), f"{what} has non-finite values")
    return arr


def provenance(stdout: str, command: str) -> dict:
    lines = [line for line in stdout.splitlines() if line.strip()]
    _require(lines, "no provenance JSON on stdout")
    try:
        doc = json.loads(lines[-1])
    except json.JSONDecodeError as exc:
        raise CheckError(f"provenance is not JSON: {exc}") from None
    _require(isinstance(doc, dict), "provenance is not a JSON object")
    for key in ("command", "version", "config", "outputs"):
        _require(key in doc, f"provenance lacks {key!r}")
    _require(doc["command"] == command, f"provenance command {doc['command']!r} != {command!r}")
    return doc


def _density_text(dens) -> str:
    rows = [f"{dens.domain}"]
    rows += [f"{_g(x)},{_g(r)}" for x, r in zip(dens.grid, dens.rho)]
    rows += [f"atom,{_g(loc)},{_g(mass)}" for loc, mass in dens.atoms]
    return "\n".join(rows)


def _check_density(js, path: str):
    dens = js.density.read_csv(path)
    _finite(dens.grid, "density grid")
    rho = _finite(dens.rho, "density rho")
    _require(np.all(rho >= 0.0), "density has negative values")
    for loc, mass in dens.atoms:
        _require(math.isfinite(loc) and math.isfinite(mass), "density atom is not finite")
    # first moment of the squared singular value lambda
    x2 = dens.grid**2 if dens.domain == js.density.SINGULAR else dens.grid
    a2 = (lambda loc: loc * loc) if dens.domain == js.density.SINGULAR else (lambda loc: loc)
    m1 = float(np.trapezoid(dens.rho * x2, dens.grid)) + sum(m * a2(loc) for loc, m in dens.atoms)
    return dens, float(dens.total_mass()), m1


def _exact_m1(js, cfg: dict) -> float:
    """jacobian_moments(config).m1 for the config as the CLI resolved it."""
    spec = cfg["activation"]
    activation = js.activations.get_activation(spec["name"], **spec.get("params", {}))
    sigma_w = float(cfg["sigma_w"])
    config = js.propagation.NetworkConfig(
        activation=activation,
        ensemble=js.ensembles.WeightEnsemble(cfg["ensemble"]["kind"], sigma_w),
        sigma_w=sigma_w,
        sigma_b=float(cfg["sigma_b"]),
        depth=int(cfg["depth"]),
        qstar=cfg["qstar"],
    )
    return js.moments.jacobian_moments(config).m1


def _check(js, op, doc: dict, out: Outcome) -> str:
    report = doc.get("report") or {}
    outputs = doc["outputs"]
    if op.command in ("theory-spectrum", "limit"):
        dens, mass, m1 = _check_density(js, outputs["density_csv"])
        ref = _exact_m1(js, doc["config"]) if op.m1_ref == "moments" else float(op.m1_ref)
        out.mass_err = abs(mass - 1.0)
        out.m1_err = abs(m1 / ref - 1.0)
        out.lost_points = int(report.get("failed_points", 0))
        out.extra = {"mass": mass, "m1": m1, "m1_ref": ref}
        return _density_text(dens)
    if op.command == "simulate":
        with open(outputs["spectrum_csv"]) as fh:
            _require(fh.readline().strip() == "s", "spectrum CSV header")
            sv = _finite([float(line) for line in fh if line.strip()], "spectrum")
        cfg = doc["config"]
        _require(sv.size == int(cfg["width"]) * int(cfg["trials"]), "spectrum has wrong length")
        _require(np.all(sv >= 0.0) and np.all(np.diff(sv) >= 0.0), "spectrum not sorted/non-negative")
        _require(int(report["n_values"]) == sv.size, "report n_values disagrees with the CSV")
        with open(outputs["sidecar_json"]) as fh:
            side = json.load(fh)
        _require(side["seed"] == cfg["seed"], "sidecar seed disagrees with the config")
        return "\n".join(_g(v) for v in sv)
    if op.command == "compare":
        ks = float(report["ks"])
        _require(math.isfinite(ks) and 0.0 <= ks <= 1.0, f"KS {ks} outside [0, 1]")
        out.ks = ks
        return f"ks,{_g(ks)}"
    if op.command == "moments":
        vals = {k: float(report[k]) for k in ("m1", "m2", "variance", "chi", "qstar")}
        _finite(list(vals.values()), "moments report")
        out.m1_err = abs(vals["m1"] / float(op.m1_ref) - 1.0)
        return "\n".join(f"{k},{_g(v)}" for k, v in sorted(vals.items()))
    if op.command == "fixed-point":
        vals = {k: float(report[k]) for k in ("qstar", "chi", "residual")}
        _finite(list(vals.values()), "fixed-point report")
        _require(report["converged"] is True, "fixed point did not converge")
        vals["iterations"] = int(report["iterations"])
        return "\n".join(f"{k},{_g(v)}" for k, v in sorted(vals.items()))
    if op.command == "phase-grid":
        sw, sb = doc["config"]["sigma_w_range"], doc["config"]["sigma_b_range"]
        with open(outputs["grid_csv"]) as fh:
            _require(fh.readline().strip() == "sigma_w,sigma_b,qstar,chi,converged", "phase-grid header")
            rows = [line.strip().split(",") for line in fh if line.strip()]
        _require(len(rows) == int(sw[2]) * int(sb[2]), "phase grid has wrong size")
        lines = []
        for row in rows:
            _require(row[4] in ("true", "false"), "converged flag")
            w, b, q, c = (float(v) for v in row[:4])
            _require(math.isfinite(w) and math.isfinite(b), "phase-grid coordinates")
            if row[4] == "true":
                _require(math.isfinite(q) and math.isfinite(c), "converged cell not finite")
            lines.append(f"{_g(w)},{_g(b)},{_g(q)},{_g(c)},{row[4]}")
        out.extra = {"converged": sum(r[4] == "true" for r in rows) / len(rows)}
        return "\n".join(lines)
    raise CheckError(f"no check for command {op.command!r}")


def check(js, op, rc, stdout: str, error: str | None, n_warnings: int) -> Outcome:
    out = Outcome(op=op.name, warnings=n_warnings)
    try:
        _require(error is None, error or "")
        _require(rc == 0, f"exit code {rc}")
        text = _check(js, op, provenance(stdout, op.command), out)
        out.digest = hashlib.sha256(text.encode()).hexdigest()[:16]
    except Exception as exc:  # any fault in an op's outputs fails that op, not the run
        out.ok = False
        out.error = f"{type(exc).__name__}: {exc}"
    return out
