"""Where the tracer hooks into jacspectra, and the per-layer metrics.

Layers are the modules of ``src/jacspectra``.  ``ensembles`` and ``errors``
do no measurable work of their own.  ``activations`` and ``special`` are
entered ~1e5-1e6 times per pass, so they get counters, and their time shows
as self time of the span that calls them (``propagation`` on ``critical``,
``limits`` on ``limits``).
"""

from __future__ import annotations

import os
from collections import defaultdict

import numpy as np

# Work model of one Monte Carlo trial, in floating-point operations, from
# array sizes alone (labelled "computed": no hardware counter is read):
# per layer the product (D W) @ J is 2 N^3 and W @ x is 2 N^2; a Haar sample
# is a Householder QR with Q formed, 8/3 N^3; the closing values-only SVD
# is a bidiagonalisation, 8/3 N^3.
def trial_flops(width: int, depth: int, orthogonal: bool) -> float:
    n = float(width)
    per_layer = 2.0 * n**3 + 2.0 * n**2 + (8.0 / 3.0 * n**3 if orthogonal else 0.0)
    return depth * per_layer + 8.0 / 3.0 * n**3


def _fixed_point_info(tracer, args, kwargs, result):
    return {"iterations": int(result.iterations), "converged": bool(result.converged)}


def _density_info(tracer, args, kwargs, result):
    meta = result.metadata
    return {
        "grid_points": int(np.size(args[1])),
        "lost": len(meta.get("failed_points", ())),
        "jump": len(meta.get("jump_flagged_points", ())),
    }


def _probe_info(tracer, args, kwargs, result):
    return {"atom": bool(result[1])}


def _limit_info(tracer, args, kwargs, result):
    return {"points": int(np.size(args[1]))}


def _run_trials_info(tracer, args, kwargs, result):
    config, trials = args[0], int(args[1])
    threads = kwargs.get("threads") or 1
    return {
        "width": int(config.width),
        "depth": int(config.depth),
        "trials": trials,
        "threads": int(min(threads, trials)),
        "orthogonal": config.ensemble.kind == "orthogonal",
    }


def _write_info(tracer, args, kwargs, result):
    return {"bytes": os.path.getsize(args[1])}


def install(tracer, js) -> None:
    """Wrap the public functions of the freshly imported modules ``js``."""
    cli, prop, act, mom, master, limits, sim, dens = (
        js.cli,
        js.propagation,
        js.activations,
        js.moments,
        js.master,
        js.limits,
        js.simulate,
        js.density,
    )
    span = tracer.install
    span(cli, "critical_sigma_w", "propagation.critical_sigma_w")
    span(cli, "double_scaling_qstar", "propagation.double_scaling_qstar")
    span(cli, "phase_grid", "propagation.phase_grid")
    for module in (cli, prop):  # the fixed-point command calls it directly
        span(module, "qstar_fixed_point", "propagation.qstar_fixed_point", hook=_fixed_point_info)
    span(cli, "fixed_point_is_degenerate", "propagation.fixed_point_is_degenerate")
    span(cli, "jacobian_moments", "moments.jacobian_moments")
    span(cli, "density", "master.density", hook=_density_info)
    span(master, "probe_atom", "master.probe_atom", hook=_probe_info)
    span(cli, "bernoulli_density", "limits.bernoulli_density", hook=_limit_info)
    span(cli, "smooth_density", "limits.smooth_density", hook=_limit_info)
    span(cli, "run_trials", "simulate.run_trials", hook=_run_trials_info)
    span(sim, "jacobian_singular_values", "simulate.trial")
    span(sim, "sample_orthogonal", "simulate.sample")
    span(sim, "sample_gaussian", "simulate.sample")
    span(cli, "ks_distance", "simulate.ks_distance")
    span(cli, "to_singular_domain", "density.to_singular_domain")
    span(cli, "read_csv", "density.io")
    span(cli, "read_json", "density.io")
    span(dens.SpectralDensity, "write_csv", "density.io", hook=_write_info)
    span(dens.SpectralDensity, "write_json", "density.io", hook=_write_info)

    count = tracer.install
    count(prop, "phi_sq_mean", "activations.phi_sq_mean", kind="counter")
    for module in (prop, mom, act):  # master imports mu_k from activations at call time
        count(module, "mu_k", "activations.mu_k", kind="counter")
    count(act, "norm_cdf", "special.norm_cdf", kind="counter")
    count(limits, "smooth_G", "limits.smooth_G", kind="counter")
    count(limits, "r_lambert", "special.r_lambert", kind="counter")
    count(limits, "lambert_w0", "special.lambert_w0", kind="counter")


# metrics that are ratios of the traced passes, not sums over them
PER_PASS_AS_IS = frozenset(
    {
        "propagation.fixed_point_unconverged",
        "simulate.trial_imbalance",
        "simulate.gflops_computed",
    }
)


def per_layer(tracer, passes: int) -> tuple[dict, dict]:
    """Per-layer metrics per traced pass, and self seconds per layer."""
    selfs = tracer.self_times()
    total = defaultdict(float)  # inclusive seconds by span name
    own = defaultdict(float)  # self seconds by span name
    calls = defaultdict(int)
    info = defaultdict(lambda: defaultdict(float))
    for span, self_s in zip(tracer.spans, selfs):
        total[span.name] += span.end - span.start
        own[span.name] += self_s
        calls[span.name] += 1
        for key, value in (span.info or {}).items():
            info[span.name][key] += float(value)

    fp = info["propagation.qstar_fixed_point"]
    fp_calls = calls["propagation.qstar_fixed_point"]
    runs = [s.info for s in tracer.spans if s.name == "simulate.run_trials" and s.info]
    flops = sum(
        r["trials"] * trial_flops(r["width"], r["depth"], r["orthogonal"]) for r in runs
    )
    run_trials_s = total["simulate.run_trials"]
    trial_s = total["simulate.trial"]
    busy = sum(
        (s.end - s.start) * s.info["threads"]
        for s in tracer.spans
        if s.name == "simulate.run_trials" and s.info
    )
    counts = tracer.totals()
    m = {
        "propagation.critical_sigma_w_s": total["propagation.critical_sigma_w"],
        "propagation.fixed_point_calls": fp_calls,
        "propagation.fixed_point_iters": fp["iterations"],
        "propagation.fixed_point_unconverged": (fp_calls - fp["converged"]) / fp_calls if fp_calls else 0.0,
        "propagation.phase_grid_s": total["propagation.phase_grid"],
        "propagation.double_scaling_qstar_s": total["propagation.double_scaling_qstar"],
        "activations.phi_sq_mean_calls": counts["activations.phi_sq_mean"],
        "activations.mu_k_calls": counts["activations.mu_k"],
        "special.norm_cdf_calls": counts["special.norm_cdf"],
        "moments.jacobian_moments_s": total["moments.jacobian_moments"],
        "master.density_s": own["master.density"],
        "master.grid_points": info["master.density"]["grid_points"],
        "master.jump_points": info["master.density"]["jump"],
        "master.lost_points": info["master.density"]["lost"],
        "master.probe_atom_s": total["master.probe_atom"],
        "master.probe_atom_calls": calls["master.probe_atom"],
        "master.atoms_found": info["master.probe_atom"]["atom"],
        "limits.smooth_density_s": total["limits.smooth_density"],
        "limits.bernoulli_density_s": total["limits.bernoulli_density"],
        "limits.points": info["limits.smooth_density"]["points"] + info["limits.bernoulli_density"]["points"],
        "limits.smooth_G_calls": counts["limits.smooth_G"],
        "special.r_lambert_calls": counts["special.r_lambert"],
        "special.lambert_w0_calls": counts["special.lambert_w0"],
        "simulate.run_trials_s": run_trials_s,
        "simulate.trial_s": trial_s,
        "simulate.sample_s": total["simulate.sample"],
        "simulate.product_svd_s": own["simulate.trial"],
        "simulate.trial_imbalance": busy / trial_s if trial_s else 0.0,
        "simulate.flop_computed": flops,
        "simulate.gflops_computed": flops / run_trials_s / 1e9 if run_trials_s else 0.0,
        "simulate.ks_distance_s": total["simulate.ks_distance"],
        "density.io_s": total["density.io"],
        "density.bytes_written": info["density.io"]["bytes"],
        "density.to_singular_domain_s": total["density.to_singular_domain"],
        "cli.self_s": own["cli.main"],
    }
    per_pass = {k: (v if k in PER_PASS_AS_IS else v / passes) for k, v in m.items()}
    by_layer = defaultdict(float)
    for span, self_s in zip(tracer.spans, selfs):
        by_layer[span.name.split(".", 1)[0]] += self_s / passes
    return per_pass, dict(by_layer)
