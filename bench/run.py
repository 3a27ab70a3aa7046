"""jacspectra benchmark: four CLI workloads, end-to-end and per-layer metrics.

    python3 bench/run.py --workload {theory,mc,critical,limits} --seed N \
        --seconds S --trace {0,1}
    python3 bench/run.py --smoke

Run from the root of a source checkout; the package is imported from
``src/`` of that checkout and from nowhere else.  Every operation is a call
of the public CLI entry point ``jacspectra.cli.main`` in this process.

A run sets up (fresh import of the package, config files, a warm-up pass
on tiny inputs, ``mc``'s theory densities) before and again after its timed
passes, at least ``SETUPS_MIN`` times and until the set-ups have taken
``SETUP_BUDGET_S`` (at most ``SETUPS_MAX`` times), half on each side, and
reports the median as ``setup_s``.  In between it repeats timed passes over
the workload's op list until the next pass would overrun ``--seconds`` (at
least ``MIN_PASSES``) and reports ``wall_s``, the pass time with every op
at its fastest over those passes.  Outputs are checked after each pass,
outside the timed region.

``--trace 1`` sets up before its passes only, runs untraced passes for
half the time and traced passes for the other half, and reports the per-layer metrics of the traced passes and
the tracing overhead.  The last line of stdout is the result JSON.  Files go
to ``.bench_out/`` in the checkout.  Notes and baseline: ``bench/NOTES.md``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import types
import warnings
from pathlib import Path

from workloads import WORKLOADS

# BLAS/OpenMP pools are pinned before numpy is first imported (numpy is only
# imported below this point): with simulate's two pool threads each also
# running two BLAS threads, the three mc configs took about 2.5x longer on a
# 2-CPU machine.
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
for _var in THREAD_VARS:
    os.environ[_var] = "1"

# numpy is first imported by these, after the pinning above
import layers  # noqa: E402
from checks import check  # noqa: E402
from tracing import Tracer  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

# cheap set-ups are repeated more often, so that their median is steady;
# mc's (three theory densities) is repeated the minimum number of times.
# Set-ups on both sides of the passes span the whole run, so that a change
# in the host's load during the run shows in their median as a whole.
SETUPS_MIN, SETUPS_MAX, SETUP_BUDGET_S = 3, 16, 6.0
# the per-op minimum needs two samples of every op, also for theory, whose
# pass (12-16 s) is longer than half of the run time
MIN_PASSES = 2
SIM_THREADS = 2
# Errors below this are within tolerance and are reported as the floor, as
# is a workload with no output of that kind: the metrics must never be 0.
ERR_FLOOR = 1e-6
MODULES = (
    "cli",
    "propagation",
    "activations",
    "moments",
    "master",
    "limits",
    "simulate",
    "density",
    "ensembles",
)


def fresh_import() -> types.SimpleNamespace:
    """Import jacspectra from ``src/`` anew, dropping any earlier import."""
    for name in [m for m in sys.modules if m == "jacspectra" or m.startswith("jacspectra.")]:
        del sys.modules[name]
    pkg = importlib.import_module("jacspectra")
    if not Path(pkg.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"jacspectra imported from {pkg.__file__}, not from {SRC}")
    return types.SimpleNamespace(**{m: importlib.import_module(f"jacspectra.{m}") for m in MODULES})


def environment(threads: int) -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, AttributeError):
        blas_name = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_name,
        "nproc": os.cpu_count(),
        "thread_env": {v: os.environ.get(v) for v in THREAD_VARS},
        "simulate_threads": threads,
        "commit": git_commit(),
    }


def git_commit() -> str | None:
    """HEAD of the checkout, or None where it is not a git work tree."""
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def benchmark_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def src_lines() -> int:
    return sum(len(p.read_text().splitlines()) for p in sorted(SRC.rglob("*.py")))


class Runner:
    def __init__(self, workload: str, seed: int, tiny: bool, threads: int):
        self.workload = workload
        self.seed = seed
        self.tiny = tiny
        self.threads = threads
        self.make_ops = WORKLOADS[workload]
        self.min_passes = 1 if tiny else MIN_PASSES
        self.tracer = None
        self.js = None

    def write_configs(self, ops, directory: Path) -> list[list[str]]:
        directory.mkdir(parents=True, exist_ok=True)
        argvs = []
        for i, op in enumerate(ops):
            cfg = dict(op.config)
            if op.outputs:
                cfg["out"] = {k: str(directory / v) for k, v in op.outputs.items()}
            if op.command == "compare":
                cfg["empirical"] = {k: str(directory / v) for k, v in cfg["empirical"].items()}
                cfg["theory"] = {"density": str(directory / cfg["theory"]["density"])}
            path = directory / f"op{i:02d}-{op.command}.json"
            path.write_text(json.dumps(cfg, sort_keys=True))
            argv = [op.command, "--config", str(path)]
            if op.threads is not None:
                argv += ["--threads", str(op.threads)]
            argvs.append(argv)
        return argvs

    def call(self, op, argv):
        """One op through jacspectra.cli.main: (rc, stdout, error, warnings)."""
        buf = io.StringIO()
        rc, error = None, None
        tracer = self.tracer
        idx = None
        if tracer is not None:
            tracer.op = op.name
            idx = tracer.open("cli.main")
        try:
            with warnings.catch_warnings(record=True) as caught, contextlib.redirect_stdout(buf):
                warnings.simplefilter("always")
                try:
                    rc = self.js.cli.main(argv)
                except SystemExit as exc:
                    rc = exc.code if isinstance(exc.code, int) else 1
                    error = f"SystemExit: {exc.code}"
                except Exception as exc:  # an op that raises is a failed op, not a failed run
                    error = f"{type(exc).__name__}: {exc}"
        finally:
            if idx is not None:
                tracer.close(idx)
        return rc, buf.getvalue(), error, len(caught)

    def run_ops(self, ops, argvs):
        """Run ops in order: per-op seconds and call results."""
        seconds, results = [], []
        for op, argv in zip(ops, argvs):
            t0 = time.perf_counter()
            results.append(self.call(op, argv))
            seconds.append(time.perf_counter() - t0)
        return seconds, results

    def check(self, ops, results):
        tracer = self.tracer
        if tracer is not None:
            tracer.enabled = False
        try:
            return [check(self.js, op, *res) for op, res in zip(ops, results)]
        finally:
            if tracer is not None:
                tracer.enabled = True

    def setup_once(self):
        """Import, configs, warm-up on tiny inputs, mc's theory densities."""
        t0 = time.perf_counter()
        self.js = fresh_import()
        base = OUT / self.workload
        setup_ops, ops = self.make_ops(self.seed, self.tiny, self.threads)
        setup_argvs = self.write_configs(setup_ops, base)
        argvs = self.write_configs(ops, base)
        if not self.tiny:
            w_setup, w_ops = self.make_ops(self.seed, True, self.threads)
            for op, (rc, _, error, _) in zip(
                w_setup + w_ops,
                self.run_ops(w_setup + w_ops, self.write_configs(w_setup + w_ops, base / "warmup"))[1],
            ):
                if rc != 0 or error:
                    raise RuntimeError(f"warm-up op {op.name} failed: rc={rc} {error or ''}")
        setup_results = self.run_ops(setup_ops, setup_argvs)[1]
        elapsed = time.perf_counter() - t0
        outcomes = self.check(setup_ops, setup_results)
        bad = [o for o in outcomes if not o.ok]
        if bad:
            raise RuntimeError(f"set-up op {bad[0].op} failed: {bad[0].error}")
        return elapsed, ops, argvs, outcomes

    def set_up(self, setups: list, count: int, budget: float, most: int):
        """Append set-up times to ``setups`` until it holds ``count`` of them and
        also ``budget`` seconds or ``most`` of them; return the last set-up's
        ops, argvs and outcomes."""
        while len(setups) < count or (len(setups) < most and sum(setups) < budget):
            elapsed, *state = self.setup_once()
            setups.append(elapsed)
        return state

    def timed_passes(self, ops, argvs, budget: float):
        """Passes until the next one would overrun ``budget`` seconds.

        Makes at least ``min_passes`` passes, even if that overruns.

        Returns per pass the seconds of each op, and the check outcomes.
        """
        op_seconds, outcomes = [], []
        t_start = time.perf_counter()
        while True:
            seconds, results = self.run_ops(ops, argvs)
            op_seconds.append(seconds)
            outcomes.append(self.check(ops, results))
            elapsed = time.perf_counter() - t_start
            if len(op_seconds) >= self.min_passes and elapsed + best_pass(op_seconds) > budget:
                return op_seconds, outcomes


def best_pass(op_seconds) -> float:
    """Pass time with every op at its fastest over the run's passes.

    Interference from other tenants of a shared machine only ever adds time,
    and part of it comes and goes within seconds, so the per-op minimum over
    passes varies far less between runs than the median pass does (on a
    2-CPU shared VM, 7% against 20% interquartile spread for ``limits``).
    """
    return sum(min(col) for col in zip(*op_seconds))


def error_metrics(outcomes) -> dict:
    def worst(values):
        return max([ERR_FLOOR] + [v for v in values if v is not None])

    return {
        "mass_err_max": worst(o.mass_err for o in outcomes),
        "m1_err_max": worst(o.m1_err for o in outcomes),
        "ks_max": worst(o.ks for o in outcomes),
    }


def score(pass_outcomes) -> tuple[int, int, list, dict]:
    """attempted, failed, failure messages, and the first pass's digests."""
    attempted = failed = 0
    failures = []
    digests = {o.op: o.digest for o in pass_outcomes[0]}
    for i, outcomes in enumerate(pass_outcomes):
        for o in outcomes:
            attempted += 1
            if o.ok and o.digest != digests[o.op]:
                o.ok, o.error = False, f"digest {o.digest} differs from pass 0 ({digests[o.op]})"
            if not o.ok:
                failed += 1
                failures.append({"pass": i, "op": o.op, "error": o.error})
    return attempted, failed, failures, digests


def run(args) -> tuple[dict, dict]:
    threads = max(1, min(SIM_THREADS, os.cpu_count() or 1))
    runner = Runner(args.workload, args.seed, args.tiny, threads)
    setups = []
    ops, argvs, setup_outcomes = runner.set_up(
        setups, SETUPS_MIN - 1, SETUP_BUDGET_S / 2, SETUPS_MAX // 2
    )

    traced = bool(args.trace)
    budget = args.seconds / 2.0 if traced else float(args.seconds)
    op_seconds, pass_outcomes = runner.timed_passes(ops, argvs, budget)
    wall = best_pass(op_seconds)
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": int(traced),
        "tiny": args.tiny,
        "environment": environment(threads),
        "src_lines": src_lines(),
        "setup_s_each": setups,
        "op_s_each": op_seconds,
        "op_min_s": {op.name: min(col) for op, col in zip(ops, zip(*op_seconds))},
    }
    if traced:
        runner.tracer = Tracer()
        layers.install(runner.tracer, runner.js)
        traced_seconds, traced_outcomes = runner.timed_passes(ops, argvs, budget)
        traced_passes = len(traced_seconds)
        runner.tracer.uninstall()
        span_path = OUT / "results" / f"{args.workload}-seed{args.seed}-spans.jsonl"
        span_path.parent.mkdir(parents=True, exist_ok=True)
        runner.tracer.write_jsonl(span_path)
        pass_outcomes += traced_outcomes
        metrics_raw, by_layer = layers.per_layer(runner.tracer, traced_passes)
        tops = [s for s in runner.tracer.spans if s.parent is None]
        op_wall = {}
        for s in tops:
            op_wall[s.op] = op_wall.get(s.op, 0.0) + (s.end - s.start) / traced_passes
        op_counts = {}
        for (name, op), n in runner.tracer.counts.items():
            op_counts.setdefault(op, {})[name] = n / traced_passes
        traced_wall = best_pass(traced_seconds)
        info.update(
            traced_op_s_each=traced_seconds,
            trace_overhead_s=traced_wall - wall,
            trace_overhead_frac=traced_wall / wall - 1.0,
            coverage=sum(s.end - s.start for s in tops) / sum(map(sum, traced_seconds)),
            op_wall_s=op_wall,
            op_counts=op_counts,
            layer_self_s=by_layer,
            spans=str(span_path.relative_to(ROOT)),
        )
        units = {m["name"]: m["unit"] for m in benchmark_spec()["per_layer"]}
        metrics = {k: {"value": v, "unit": units[k]} for k, v in metrics_raw.items()}
    else:
        runner.set_up(setups, SETUPS_MIN, SETUP_BUDGET_S, SETUPS_MAX)
        all_outcomes = setup_outcomes + [o for p in pass_outcomes for o in p]
        metrics = {
            "wall_s": {"value": wall, "unit": "s"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {
                "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "unit": "MB",
            },
        }
        metrics.update({k: {"value": v, "unit": "ratio"} for k, v in error_metrics(all_outcomes).items()})

    attempted, failed, failures, digests = score(pass_outcomes)
    ops_info = {}
    for o in setup_outcomes + pass_outcomes[0]:
        ops_info[o.op] = {
            "digest": o.digest,
            "mass_err": o.mass_err,
            "m1_err": o.m1_err,
            "ks": o.ks,
            "lost_points": o.lost_points,
            "warnings": o.warnings,
            **o.extra,
        }
    info.update(
        ops=ops_info,
        digest=hashlib.sha256("".join(digests.values()).encode()).hexdigest()[:16],
        lost_points=sum(o.lost_points for o in pass_outcomes[0]),
        failures=failures,
    )
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    return info, result


def print_report(info: dict, result: dict) -> None:
    print(f"workload {info['workload']}  seed {info['seed']}  trace {info['trace']}  "
          f"attempted {result['attempted']}  failed {result['failed']}  correct {result['correct']}")
    for f in info["failures"]:
        print(f"  FAILED pass {f['pass']} {f['op']}: {f['error']}")
    for name, m in result["metrics"].items():
        print(f"  {name:40s} {m['value']:>16.6g} {m['unit']}")
    if info["trace"]:
        total = sum(info["layer_self_s"].values())
        print("  layer self time per traced pass (all threads):")
        for layer, s in sorted(info["layer_self_s"].items(), key=lambda kv: -kv[1]):
            print(f"    {layer:14s} {s:10.4f} s  {s / total:6.1%}")
        print("    (activations and special have counters only; their time is in the caller's self time)")
        print(f"  coverage of traced pass by op spans: {info['coverage']:.1%}")
        print(f"  tracing overhead: {info['trace_overhead_s']:+.4f} s per pass "
              f"({info['trace_overhead_frac']:+.1%})")


def smoke() -> int:
    """Each workload once traced and once untraced on tiny inputs."""
    spec = benchmark_spec()
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []
    for w in spec["workloads"]:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", w["name"],
                   "--seed", "1", "--seconds", "1", "--trace", str(trace), "--tiny"]
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=170, cwd=ROOT)
            tag = f"{w['name']} trace={trace}"
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                problems.append(f"{tag}: exit {proc.returncode}: {proc.stderr.strip()[-400:]}")
                continue
            res = json.loads(lines[-1])
            if set(res) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{tag}: result keys {sorted(res)}")
            if not res.get("correct") or res.get("failed") or res.get("attempted", 0) < 1:
                problems.append(f"{tag}: correct={res.get('correct')} failed={res.get('failed')}")
            got = {k: v.get("unit") for k, v in res.get("metrics", {}).items()}
            if got != expected[trace]:
                missing = sorted(set(expected[trace]) - set(got))
                extra = sorted(set(got) - set(expected[trace]))
                wrong = sorted(k for k in got if k in expected[trace] and got[k] != expected[trace][k])
                problems.append(f"{tag}: missing {missing} extra {extra} wrong unit {wrong}")
            print(f"smoke {tag}: exit {proc.returncode}, {len(got)} metrics", flush=True)
    for p in problems:
        print(f"SMOKE FAILURE {p}")
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="tiny inputs (self-test)")
    parser.add_argument("--smoke", action="store_true", help="self-test every workload on tiny inputs")
    args = parser.parse_args(argv)
    if not (SRC / "jacspectra" / "__init__.py").is_file():
        print(f"error: no jacspectra package under {SRC}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.smoke:
        return smoke()
    if args.workload is None:
        parser.error("--workload is required")
    info, result = run(args)
    print_report(info, result)
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}{'-tiny' if args.tiny else ''}.json"
    (results / name).write_text(json.dumps({"info": info, "result": result}, indent=1, default=str))
    print(json.dumps({"info": info}, default=str, sort_keys=True))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
