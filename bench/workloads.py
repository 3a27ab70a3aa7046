"""The four workloads: fixed lists of CLI operations run in order.

Each workload is a closed loop with one client: the next operation starts
when the previous one has returned.  Only ``mc`` depends on the seed (it is
the ``seed`` of every ``simulate`` op); the others are deterministic.

``tiny=True`` gives the same shape of work on small inputs; it is the
warm-up inside every set-up and the input of ``--smoke``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

SIGMA_B = 0.2
MC_WIDTH = 400
MC_TRIALS = 4
# grid of mc's theory densities: KS against them agrees with the default
# 600-point grid to 1e-4, and they take 3 s to make instead of 8 s
MC_THEORY_POINTS = 300


@dataclass
class Op:
    name: str
    command: str
    config: dict
    threads: int | None = None
    # what the output check compares the first moment of a density with:
    # "moments" -> jacobian_moments of the resolved config, a float -> that
    m1_ref: object = None
    outputs: dict = field(default_factory=dict)


def _critical(act: str, kind: str, depth: int, sigma_b: float = SIGMA_B) -> dict:
    return {
        "activation": {"name": act},
        "ensemble": {"kind": kind},
        "critical": True,
        "sigma_b": sigma_b,
        "depth": depth,
    }


def _double_scaled(act: str, depth: int, sigma0_sq: float) -> dict:
    return {
        "activation": {"name": act},
        "ensemble": {"kind": "orthogonal"},
        "double_scaling": {"sigma0_sq": sigma0_sq},
        "depth": depth,
    }


def theory_configs(tiny: bool) -> list[tuple[str, dict]]:
    if tiny:
        return [
            ("hard_tanh-orth-L4", dict(_critical("hard_tanh", "orthogonal", 4), grid={"points": 40})),
            ("ds-hard_tanh-L16", dict(_double_scaled("hard_tanh", 16, 0.25), grid={"points": 40})),
        ]
    return [
        ("hard_tanh-orth-L16", _critical("hard_tanh", "orthogonal", 16)),
        ("tanh-gauss-L16", _critical("tanh", "gaussian", 16)),
        ("tanh-orth-L4", _critical("tanh", "orthogonal", 4)),
        ("erf_sm-orth-L64", _critical("erf_sm", "orthogonal", 64)),
        ("ds-erf_sm-L256", _double_scaled("erf_sm", 256, 0.25)),
        ("ds-hard_tanh-L256", _double_scaled("hard_tanh", 256, 0.25)),
    ]


def mc_configs(tiny: bool) -> list[tuple[str, dict]]:
    if tiny:
        return [
            ("hard_tanh-orth-L4", dict(_critical("hard_tanh", "orthogonal", 4), grid={"points": 40})),
            ("tanh-gauss-L4", dict(_critical("tanh", "gaussian", 4), grid={"points": 40})),
        ]
    grid = {"points": MC_THEORY_POINTS}
    return [
        ("hard_tanh-orth-L16", dict(_critical("hard_tanh", "orthogonal", 16), grid=grid)),
        ("tanh-gauss-L16", dict(_critical("tanh", "gaussian", 16), grid=grid)),
        ("erf_sm-orth-L64", dict(_critical("erf_sm", "orthogonal", 64), grid=grid)),
    ]


def theory_ops(seed: int, tiny: bool, threads: int) -> tuple[list[Op], list[Op]]:
    ops = [
        Op(f"theory-spectrum:{name}", "theory-spectrum", dict(cfg), m1_ref="moments",
           outputs={"density_csv": f"theory-{name}.csv"})
        for name, cfg in theory_configs(tiny)
    ]
    return [], ops


def mc_ops(seed: int, tiny: bool, threads: int) -> tuple[list[Op], list[Op]]:
    """Set-up ops (theory densities for compare) and the timed ops."""
    width, trials = (16, 2) if tiny else (MC_WIDTH, MC_TRIALS)
    setup, ops = [], []
    for name, cfg in mc_configs(tiny):
        theory_csv = f"mc-theory-{name}.csv"
        spectrum_csv = f"mc-spectrum-{name}.csv"
        sidecar = f"mc-spectrum-{name}.json"
        setup.append(
            Op(f"theory-spectrum:{name}", "theory-spectrum", dict(cfg), m1_ref="moments",
               outputs={"density_csv": theory_csv})
        )
        sim_cfg = {k: v for k, v in cfg.items() if k != "grid"}
        sim_cfg.update(width=width, trials=trials, seed=seed)
        ops.append(
            Op(f"simulate:{name}", "simulate", sim_cfg, threads=threads,
               outputs={"spectrum_csv": spectrum_csv, "sidecar_json": sidecar})
        )
        ops.append(
            Op(f"compare:{name}", "compare",
               {"empirical": {"spectrum_csv": spectrum_csv, "sidecar_json": sidecar},
                "theory": {"density": theory_csv}})
        )
    return setup, ops


CRITICAL_ACTIVATIONS = ("tanh", "hard_tanh", "erf_sm", "erf_main", "arctan", "shifted_relu")
RELU_NEAR_CRITICAL_SIGMA_W = 1.41  # critical point: sqrt(2)


def critical_ops(seed: int, tiny: bool, threads: int) -> tuple[list[Op], list[Op]]:
    acts = CRITICAL_ACTIVATIONS[:2] if tiny else CRITICAL_ACTIVATIONS
    ops = [
        Op(f"moments:{act}", "moments", _critical(act, "orthogonal", 16), m1_ref=1.0)
        for act in acts
    ]
    # relu's critical line at sigma_b = 0 is one ~10 s op whose time swings
    # by 20-30% between runs on a shared machine; one fixed-point solve next
    # to that critical point runs the same damped iteration (7.5k steps)
    sigma_w = 1.2 if tiny else RELU_NEAR_CRITICAL_SIGMA_W
    ops.append(
        Op("fixed-point:relu-near-critical", "fixed-point",
           {"activation": {"name": "relu"}, "sigma_w": sigma_w, "sigma_b": 0.0})
    )
    shape = (4, 3) if tiny else (26, 11)
    ops.append(
        Op("phase-grid:hard_tanh", "phase-grid",
           {"activation": {"name": "hard_tanh"},
            "sigma_w_range": [0.5, 3.0, shape[0]], "sigma_b_range": [0.0, 1.0, shape[1]]},
           outputs={"grid_csv": "phase-grid-hard_tanh.csv"})
    )
    return [], ops


def limits_ops(seed: int, tiny: bool, threads: int) -> tuple[list[Op], list[Op]]:
    levels = (0.25,) if tiny else (0.25, 1.0, 4.0)
    points = 40 if tiny else 1200
    ops = [
        Op(f"limit:{klass}-{s0sq:g}", "limit",
           {"class": klass, "sigma0_sq": s0sq, "grid": {"points": points}},
           m1_ref=1.0, outputs={"density_csv": f"limit-{klass}-{s0sq:g}.csv"})
        for klass in ("bernoulli", "smooth")
        for s0sq in levels
    ]
    return [], ops


WORKLOADS = {
    "theory": theory_ops,
    "mc": mc_ops,
    "critical": critical_ops,
    "limits": limits_ops,
}
