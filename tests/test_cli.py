import ast
import ctypes
import importlib
import importlib.util
import inspect
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import jacspectra
from jacspectra.density import SINGULAR, SQUARED_SINGULAR, SpectralDensity, read_csv

PY = [sys.executable, "-m", "jacspectra"]

# The CLI runs in a scratch directory so that relative paths in its
# arguments resolve there; a relative PYTHONPATH entry (such as ``src``)
# would resolve there too. Put the directory holding the package this
# process imported first, so the child loads the very same copy.
PKG_PARENT = str(Path(jacspectra.__file__).resolve().parent.parent)


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [PKG_PARENT, env.get("PYTHONPATH")]))
    return env


def _openblas_threads():
    """(get, set) of the thread count of numpy's bundled OpenBLAS, or None where numpy is not linked to it."""
    libs = sorted((Path(np.__file__).resolve().parent.parent / "numpy.libs").glob("libscipy_openblas*"))
    if not libs:
        return None
    lib = ctypes.CDLL(str(libs[0]))  # the copy numpy loaded
    get = getattr(lib, "scipy_openblas_get_num_threads64_", None) or lib.openblas_get_num_threads
    put = getattr(lib, "scipy_openblas_set_num_threads64_", None) or lib.openblas_set_num_threads
    get.argtypes, get.restype, put.argtypes = [], ctypes.c_int, [ctypes.c_int]
    return get, put


def _blas_outputs():
    """The bytes of density, run_trials and gauss_normal_rule on small inputs, in hex."""
    from jacspectra import master, simulate, special
    from jacspectra.activations import get_activation
    from jacspectra.density import make_lambda_grid
    from jacspectra.ensembles import WeightEnsemble
    from jacspectra.moments import jacobian_moments
    from jacspectra.propagation import NetworkConfig, critical_config

    cfg = critical_config(get_activation("tanh"), "gaussian", 0.2, 16)
    grid = make_lambda_grid(master.default_lam_max(jacobian_moments(cfg)))
    trials = NetworkConfig(get_activation("tanh"), WeightEnsemble("orthogonal"), 1.1, 0.0, depth=2, width=8)
    return {
        "density": master.density(cfg, grid).rho.tobytes().hex(),
        "run_trials": simulate.run_trials(trials, 2, 0).singular_values.tobytes().hex(),
        "gauss_normal_rule": special.gauss_normal_rule(7).nodes.tobytes().hex(),
    }


def run_cli(args, cwd):
    return subprocess.run(PY + args, cwd=cwd, env=child_env(), capture_output=True, text=True)


def provenance(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


class TestFixedPoint:
    def test_relu_critical(self, tmp_path):
        doc = provenance(
            run_cli(
                ["fixed-point", "--activation.name", "relu", "--sigma-w", repr(math.sqrt(2)), "--sigma-b", "0.0"],
                tmp_path,
            )
        )
        assert doc["report"]["chi"] == pytest.approx(1.0, abs=1e-12)

    def test_linear_degenerate_reported_as_zero(self, tmp_path):
        doc = provenance(
            run_cli(["fixed-point", "--activation.name", "linear", "--sigma-w", "1.0"], tmp_path)
        )
        assert doc["report"]["critical_degenerate"] is True
        assert doc["report"]["qstar"] == 0.0

    def test_matches_library_bit_for_bit(self, tmp_path):
        from jacspectra.activations import get_activation
        from jacspectra.propagation import qstar_fixed_point

        doc = provenance(
            run_cli(
                ["fixed-point", "--activation.name", "tanh", "--sigma-w", "1.2", "--sigma-b", "0.05"],
                tmp_path,
            )
        )
        fp = qstar_fixed_point(get_activation("tanh"), 1.2, 0.05)
        assert doc["report"]["qstar"] == fp.qstar
        assert doc["report"]["chi"] == fp.chi


class TestPhaseGrid:
    def test_csv_contract_and_determinism(self, tmp_path):
        args = [
            "phase-grid",
            "--activation.name", "tanh",
            "--sigma-w-range", "[0.5,2.0,4]",
            "--sigma-b-range", "[0.0,0.5,2]",
            "--out.grid_csv", "grid.csv",
        ]
        provenance(run_cli(args, tmp_path))
        first = (tmp_path / "grid.csv").read_bytes()
        header, *rows = first.decode().strip().splitlines()
        assert header == "sigma_w,sigma_b,qstar,chi,converged"
        assert len(rows) == 8
        assert all(r.endswith(("true", "false")) for r in rows)
        provenance(run_cli(args, tmp_path))
        assert (tmp_path / "grid.csv").read_bytes() == first

    @pytest.mark.parametrize("name,sigma_w", [("linear", 1.0), ("relu", math.sqrt(2))])
    def test_degenerate_cell_written_as_zero_by_both_commands(self, tmp_path, name, sigma_w):
        from jacspectra.activations import get_activation
        from jacspectra.propagation import qstar_fixed_point

        grid_args = ["--sigma-w-range", f"[{sigma_w!r},3.0,2]", "--sigma-b-range", "[0.0,0.5,2]", "--out.grid_csv", "g.csv"]
        provenance(run_cli(["phase-grid", "--activation.name", name, *grid_args], tmp_path))
        rows = [r.split(",") for r in (tmp_path / "g.csv").read_text().splitlines()[1:]]
        doc = provenance(run_cli(["fixed-point", "--activation.name", name, "--sigma-w", repr(sigma_w)], tmp_path))
        fp = qstar_fixed_point(get_activation(name), sigma_w, 0.0)
        assert rows[0][:2] == [repr(sigma_w), "0.0"]
        assert float(rows[0][2]) == doc["report"]["qstar"] == 0.0
        assert float(rows[0][3]) == doc["report"]["chi"] == fp.chi  # chi as the solver gives it
        assert doc["report"]["critical_degenerate"] is True
        assert all(float(r[2]) > 0.0 for r in rows[1:] if r[4] == "true")  # only that cell is degenerate


class TestMoments:
    def test_report_keys_and_values(self, tmp_path):
        doc = provenance(
            run_cli(
                [
                    "moments",
                    "--activation.name", "relu",
                    "--ensemble.kind", "orthogonal",
                    "--sigma-w", repr(math.sqrt(2)),
                    "--depth", "8",
                    "--qstar", "1.0",
                ],
                tmp_path,
            )
        )
        assert set(doc["report"]) == {"m1", "m2", "variance", "chi", "qstar"}
        assert doc["report"]["variance"] == pytest.approx(8.0, abs=1e-9)

    def test_critical_echo_replays(self, tmp_path):
        # sigma_w beside critical stays allowed: the echo carries the resolved sigma_w, and it must run again
        doc = provenance(
            run_cli(["moments", "--activation.name", "tanh", "--critical", "true", "--sigma-b", "0.2",
                     "--depth", "4"], tmp_path)
        )
        assert doc["config"]["critical"] is True and doc["config"]["sigma_w"] > 1.0
        (tmp_path / "echo.json").write_text(json.dumps(doc["config"]))
        assert provenance(run_cli(["moments", "--config", "echo.json"], tmp_path)) == doc


class TestInProcess:
    ARGV = ["moments", "--activation.name", "hard_tanh", "--critical", "true", "--sigma-b", "0.2", "--depth", "4"]

    def test_repeat_calls_print_the_same_bytes(self, capsys):
        from jacspectra import cli

        assert cli.main(self.ARGV) == 0
        first = capsys.readouterr()
        assert first.err == ""
        assert cli.main(["moments", "--depth", "0"]) == 1
        assert capsys.readouterr().err.startswith("error: depth must be >= 1")
        assert cli.main(self.ARGV) == 0
        assert capsys.readouterr() == first
        with pytest.raises(SystemExit) as exit_:
            cli.main(["spectralize"])
        assert exit_.value.code == 2 and "invalid choice" in capsys.readouterr().err
        assert cli.main(self.ARGV) == 0
        assert capsys.readouterr() == first

    def test_emit_writes_json_dump_bytes(self, capsys):
        from jacspectra import cli

        cfg = {"sigma_w": np.float64(1.5), "depth": 4, "name": "tanh", "nested": {"b": [1.0, math.inf], "a": None}}
        report = {"path": Path("x.csv"), "count": np.int64(3), "flag": np.bool_(True), "value": 0.1 + 0.2}
        doc = {"command": "moments", "version": jacspectra.__version__, "config": cfg,
               "outputs": {"report_json": None}, "report": report}
        expected = io.StringIO()
        json.dump(doc, expected, sort_keys=True, default=str)  # the pure-Python encoder
        cli._emit("moments", cfg, {"report_json": None}, report)
        assert capsys.readouterr().out == expected.getvalue() + "\n"


class TestLimitCommand:
    def test_bernoulli_outputs(self, tmp_path):
        doc = provenance(
            run_cli(
                ["limit", "--class", "bernoulli", "--sigma0-sq", "0.25", "--out.density_csv", "b.csv"],
                tmp_path,
            )
        )
        atoms = doc["report"]["atoms"]
        assert len(atoms) == 1
        assert atoms[0][0] == pytest.approx(math.exp(0.125), abs=1e-9)
        lines = (tmp_path / "b.csv").read_text().strip().splitlines()
        assert lines[0] == "domain,x,rho"
        assert lines[-1].startswith("atom,")

    def test_bernoulli_unit_variance_closes_mass(self, tmp_path):
        # sigma0^2 = 1 is where the atom at exp(sigma0^2) meets the bulk edge e*sigma0^2
        doc = provenance(
            run_cli(["limit", "--class", "bernoulli", "--sigma0-sq", "1", "--out.density_csv", "b.csv"], tmp_path)
        )
        dens = read_csv(tmp_path / "b.csv")
        m1 = np.trapezoid(dens.rho * dens.grid**2, dens.grid) + sum(m * loc**2 for loc, m in dens.atoms)
        assert dens.total_mass() == pytest.approx(1.0, abs=2e-2)
        assert m1 == pytest.approx(1.0, abs=5e-2)
        report = doc["report"]
        assert report["atoms"] == [] and report["below"] == dens.below
        assert 0.0 < report["below"] < 1e-2
        assert report["total_mass"] == pytest.approx(dens.total_mass(), abs=2e-2)

    def test_smooth_edges_report(self, tmp_path):
        doc = provenance(run_cli(["limit", "--class", "smooth", "--sigma0-sq", "0.25"], tmp_path))
        assert doc["config"]["grid"] == {"points": 1200}  # the default, echoed as used
        edges = doc["report"]["edges"]
        assert math.sqrt(edges["lambda_minus"]) == pytest.approx(0.567, abs=2e-3)
        assert math.sqrt(edges["lambda_plus"]) == pytest.approx(1.557, abs=2e-3)


class TestCompare:
    def test_theory_mean_squared_is_second_moment(self, tmp_path):
        # over singular values s, E[s^2]: the trapezoid of rho s^2 plus the atoms' mass * loc^2
        grid = np.linspace(0.0, 2.0, 41)
        theory = SpectralDensity(SINGULAR, grid, 0.7 * 0.75 * grid * (2.0 - grid), atoms=((1.5, 0.3),))
        theory.write_json(tmp_path / "th.json")
        (tmp_path / "sp.csv").write_text("s\n0.5\n1.0\n1.5\n")
        sidecar = {"width": 3, "depth": 1, "trials": 1, "seed": 0, "config": {}}
        (tmp_path / "sp.json").write_text(json.dumps(sidecar))
        doc = provenance(
            run_cli(
                [
                    "compare",
                    "--empirical.spectrum_csv", "sp.csv",
                    "--empirical.sidecar_json", "sp.json",
                    "--theory.density", "th.json",
                ],
                tmp_path,
            )
        )
        expected = float(np.trapezoid(theory.rho * grid**2, grid)) + sum(m * l * l for l, m in theory.atoms)
        assert abs(doc["report"]["theory_mean_squared"] - expected) <= 1e-15 * expected


class TestPipeline:
    @pytest.fixture(scope="class")
    def workdir(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("pipeline")
        cfg = {
            "activation": {"name": "relu"},
            "ensemble": {"kind": "orthogonal"},
            "sigma_w": math.sqrt(2),
            "sigma_b": 0.0,
            "depth": 4,
            "width": 200,
            "qstar": 1.0,
            "trials": 6,
            "seed": 99,
            "grid": {"min": 1e-6, "max": 40.0, "points": 400},
            "out": {
                "density_csv": "th.csv",
                "density_json": "th.json",
                "spectrum_csv": "sp.csv",
                "sidecar_json": "sp.json",
            },
        }
        (path / "cfg.json").write_text(json.dumps(cfg))
        return path

    @pytest.fixture(scope="class")
    def theory_doc(self, workdir):
        """Provenance of the first ``theory-spectrum`` run, which writes th.csv/th.json."""
        return provenance(run_cli(["theory-spectrum", "--config", "cfg.json"], workdir))

    def test_theory_then_simulate_then_compare(self, workdir, theory_doc):
        doc = theory_doc
        assert "solver" not in doc["config"]  # the solver has no settings to echo
        doc = provenance(run_cli(["simulate", "--config", "cfg.json"], workdir))
        assert doc["report"]["n_values"] == 6 * 200
        doc = provenance(
            run_cli(
                [
                    "compare",
                    "--empirical.spectrum_csv", "sp.csv",
                    "--empirical.sidecar_json", "sp.json",
                    "--theory.density", "th.json",
                ],
                workdir,
            )
        )
        assert doc["report"]["ks"] <= 0.08
        assert doc["report"]["empirical_mean_squared"] == pytest.approx(1.0, abs=0.15)

    def test_report_counts_solver_work(self, theory_doc):
        report = theory_doc["report"]
        # every Newton iteration evaluates f once, at its start, and every point takes at least one
        assert report["grid_points"] <= report["newton_iters"] <= report["residual_evals"]
        assert "continuation_steps" not in report and "rejected_steps" not in report
        # every point is an anchor or seeded from its neighbours, and a seeded point whose seed failed is marched
        assert report["anchor_points"] + report["seeded_points"] == report["grid_points"]
        assert 0 <= report["fallback_points"] <= report["seeded_points"]

    def test_density_csv_byte_stable(self, workdir, theory_doc):
        first = (workdir / "th.csv").read_bytes()
        provenance(run_cli(["theory-spectrum", "--config", "cfg.json"], workdir))
        assert (workdir / "th.csv").read_bytes() == first

    def test_flag_overrides_echoed(self, workdir):
        doc = provenance(
            run_cli(
                ["theory-spectrum", "--config", "cfg.json", "--grid.min", "1e-7",
                 "--out.density_csv", "th2.csv", "--out.density_json", "th2.json"],
                workdir,
            )
        )
        assert doc["config"]["grid"] == {"min": 1e-7, "max": 40.0, "points": 400}

    def test_provenance_lists_only_settings_used(self, workdir):
        # the solver has no settings, so any solver section is refused: a
        # config that sets one would otherwise run on the defaults without a word
        for flag, key in (("--solver.final-epsilon", "final_epsilon"), ("--solver.newton-tol", "newton_tol"),
                          ("--solver.quad-nodes", "quad_nodes")):
            proc = run_cli(
                ["theory-spectrum", "--config", "cfg.json", flag, "3", "--out.density_csv", "th3.csv"], workdir
            )
            assert proc.returncode == 1
            assert proc.stderr == f"error: the solver takes no settings; remove config['solver'] (got {{{key!r}: 3}})\n"
            assert not (workdir / "th3.csv").exists()


class TestRecords:
    """One network through every command that has a report, each naming out.report_json."""

    NETWORK = ("activation", "ensemble", "sigma_w", "sigma_b", "depth", "width", "qstar")
    RUNS = {
        "fixed-point": [],
        "moments": [],
        "theory-spectrum": ["--out.density-csv", "th.csv", "--out.density-json", "th.json"],
        "simulate": ["--out.spectrum-csv", "sp.csv"],
        "compare": ["--empirical.spectrum-csv", "sp.csv", "--empirical.sidecar-json", "sp.json",
                    "--theory.density", "th.json"],
        "limit": ["--class", "smooth", "--sigma0-sq", "0.25", "--grid.points", "40"],
    }

    @pytest.fixture(scope="class")
    def runs(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("records")
        cfg = {"activation": {"name": "tanh"}, "critical": True, "sigma_b": 0.2, "depth": 4, "width": 16,
               "trials": 2, "seed": 3, "grid": {"points": 100}}
        (path / "cfg.json").write_text(json.dumps(cfg))
        docs = {}
        for command, args in self.RUNS.items():
            config = [] if command in ("compare", "limit") else ["--config", "cfg.json"]
            argv = [command, *config, *args, "--out.report-json", f"{command}.report.json"]
            docs[command] = provenance(run_cli(argv, path))
        return path, docs

    def test_report_json_is_the_provenance_report(self, runs):
        path, docs = runs
        for command, doc in docs.items():
            assert doc["outputs"]["report_json"] == f"{command}.report.json"
            assert json.loads((path / f"{command}.report.json").read_text()) == doc["report"], command

    def test_one_network_record(self, runs):
        # the CLI echo, the density JSON metadata and the sidecar all write NetworkConfig.settings()
        path, docs = runs
        record = {key: docs["theory-spectrum"]["config"][key] for key in self.NETWORK}
        assert record["activation"] == {"name": "tanh", "params": {}} and record["qstar"] > 0.0
        assert {key: docs["simulate"]["config"][key] for key in self.NETWORK} == record
        metadata = json.loads((path / "th.json").read_text())["metadata"]
        assert {key: metadata[key] for key in self.NETWORK} == record
        assert json.loads((path / "sp.json").read_text())["config"] == record


class TestZeroAtom:
    """hard_tanh's flat pieces give J J^T a point mass at 0 of mass P(|x| > 1)."""

    def test_theory_reports_zero_atom_and_it_lowers_ks(self, tmp_path):
        cfg = {
            "activation": {"name": "hard_tanh"},
            "ensemble": {"kind": "orthogonal"},
            "critical": True,
            "sigma_b": 0.2,
            "depth": 4,
            "width": 100,
            "trials": 4,
            "seed": 7,
            "grid": {"points": 300},
            "out": {"density_json": "th.json", "density_csv": "th.csv", "spectrum_csv": "sp.csv", "sidecar_json": "sp.json"},
        }
        (tmp_path / "cfg.json").write_text(json.dumps(cfg))
        doc = provenance(run_cli(["theory-spectrum", "--config", "cfg.json"], tmp_path))
        zero_slope = math.erfc(1.0 / math.sqrt(2.0 * doc["config"]["qstar"]))
        assert [0.0, pytest.approx(zero_slope, rel=1e-12)] in doc["report"]["atoms"]
        provenance(run_cli(["simulate", "--config", "cfg.json"], tmp_path))
        theory = json.loads((tmp_path / "th.json").read_text())
        theory["atoms"] = [atom for atom in theory["atoms"] if atom[0] != 0.0]
        (tmp_path / "th_no_zero.json").write_text(json.dumps(theory))
        ks = {}
        for path in ("th.json", "th_no_zero.json"):
            args = ["compare", "--empirical.spectrum_csv", "sp.csv", "--empirical.sidecar_json", "sp.json"]
            ks[path] = provenance(run_cli(args + ["--theory.density", path], tmp_path))["report"]["ks"]
        assert ks["th.json"] < ks["th_no_zero.json"]


    def test_report_counts_the_points_solved(self, tmp_path):
        # the top atom of critical hard_tanh orth L4 is the last of 60 grid points; density() drops
        # that point, since M has a pole there, so the report and the CSV hold 59
        top = 1.7003961470866042
        args = ["theory-spectrum", "--activation.name", "hard_tanh", "--ensemble.kind", "orthogonal",
                "--critical", "true", "--sigma-b", "0.2", "--depth", "4", "--grid.max", repr(top),
                "--grid.points", "60", "--singular-domain", "false", "--out.density_csv", "th.csv"]
        report = provenance(run_cli(args, tmp_path))["report"]
        assert report["atoms"][-1][0] == top
        assert report["grid_points"] == report["anchor_points"] + report["seeded_points"]
        written = read_csv(tmp_path / "th.csv")
        assert report["grid_points"] == written.grid.size == 59
        assert written.domain == SQUARED_SINGULAR  # --singular-domain false


# compare's input files in test_refused_without_traceback: a good spectrum, and one input wrong in each other file
_GOOD_SPECTRUM = ["--empirical.spectrum_csv", "sv.csv", "--empirical.sidecar_json", "sv.json"]
_COMPARE_INPUTS = {
    "sv.csv": "s\n0.5\n",
    "sv.json": json.dumps({"width": 1, "depth": 1, "trials": 1, "seed": 0, "config": {}}),
    "sv_two.json": json.dumps({"width": 2, "depth": 1, "trials": 1, "seed": 0, "config": {}}),
    "theory.json": json.dumps({"domain": "singular", "grid": [0.5, 1.0], "rho": [1.0, 1.0], "atoms": []}),
    "header.csv": "x,rho\n0.5,1.0\n",
    "backwards.csv": "domain,x,rho\nsingular,1.0,0.5\nsingular,0.5,0.5\n",
    "no_atoms.json": json.dumps({"domain": "singular", "grid": [0.5, 1.0], "rho": [1.0, 1.0]}),
}


class TestErrors:
    def test_unknown_command(self, tmp_path):
        proc = run_cli(["spectralize"], tmp_path)
        assert proc.returncode == 2, proc.stderr
        assert "invalid choice" in proc.stderr

    def test_simulate_requires_width(self, tmp_path):
        proc = run_cli(["simulate", "--activation.name", "relu", "--qstar", "1.0"], tmp_path)
        assert proc.returncode != 0
        assert "requires config['width']" in proc.stderr

    def test_critical_line_without_fixed_point(self, tmp_path):
        proc = run_cli(
            ["moments", "--activation.name", "leaky_relu", "--critical", "true", "--sigma-b", "0.2"], tmp_path
        )
        assert proc.returncode == 1
        assert "leaky_relu is scale-free" in proc.stderr

    def test_unstable_critical_point(self, tmp_path):
        proc = run_cli(["moments", "--activation.name", "silu", "--critical", "true", "--sigma-b", "0.2"], tmp_path)
        assert proc.returncode == 1
        assert "q*=0.6894525 is unstable" in proc.stderr

    @pytest.mark.parametrize(
        "command,args,cause",
        [
            ("moments", ["--sigma-w", "0.5"], "ordered phase"),  # q* = 0
            ("theory-spectrum", ["--sigma-w", "0.5"], "ordered phase"),
            ("moments", ["--sigma-w", "4", "--sigma-b", "0.2", "--depth", "2000"], "overflows"),  # chi^L
            ("theory-spectrum", ["--critical", "true", "--sigma-b", "0.2", "--solver.final-epsilon", "0"], "final_epsilon"),
            ("limit", ["--sigma0-sq", "0"], "sigma0_sq must be positive"),
            ("limit", ["--sigma0-sq", "-1"], "sigma0_sq must be positive"),
            ("limit", ["--class", "smooth", "--sigma0-sq", "0"], "sigma0_sq must be positive"),
            ("theory-spectrum", ["--critical", "true", "--sigma-b", "0.2", "--grid.min", "0"], "lam_min"),
            ("simulate", ["--qstar", "1.0"], "requires config['width']"),
            ("limit", ["--class", "gumbel"], "unknown limit class 'gumbel'"),
            ("moments", ["--depth"], "flag '--depth' needs a value"),
            ("moments", ["stray"], "unexpected argument 'stray'"),
            ("limit", ["--sigma0-sq", "abc"], "sigma0_sq must be a number, got 'abc'"),
            ("limit", ["--grid.points", "abc"], "grid.points must be an integer, got 'abc'"),
            ("moments", ["--depth", "two"], "depth must be an integer, got 'two'"),
            ("moments", ["--depth", "2.5"], "depth must be an integer, got 2.5"),
            ("moments", ["--sigma-w", "abc"], "sigma_w must be a number, got 'abc'"),
            ("fixed-point", ["--sigma-w", "abc"], "sigma_w must be a number, got 'abc'"),
            ("moments", ["--depth", "0"], "depth must be >= 1"),
            ("moments", ["--sigma-w", "-1"], "sigma_w must be positive"),
            ("moments", ["--ensemble.kind", "nope"], "unknown ensemble kind 'nope'"),
            ("moments", ["--activation.name", "nope"], "unknown activation 'nope'"),
            ("moments", ["--config", "nofile.json"], "cannot read config 'nofile.json'"),
            ("simulate", ["--qstar", "0.5", "--width", "8", "--trials", "x"], "trials must be an integer, got 'x'"),
            ("simulate", ["--qstar", "0.5", "--width", "abc"], "width must be an integer, got 'abc'"),
            ("simulate", ["--qstar", "0.5", "--width", "8", "--seed", "1.5"], "seed must be an integer, got 1.5"),
            ("compare", [], "compare requires config keys"),
            ("compare", ["--empirical.spectrum_csv", "sp.csv", "--empirical.sidecar_json", "sp.json",
                         "--theory.density", "th.csv"], "cannot read 'sp.csv'"),
            ("simulate", ["--qstar", "0.5", "--width", "8", "--trials", "0"], "trials must be >= 1, got 0"),
            ("limit", ["--grid.points", "-4"], "grid.points must be >= 4, got -4"),
            ("limit", ["--grid.points", "1"], "grid.points must be >= 4, got 1"),
            ("moments", ["--double-scaling.sigma0-sq", "0.25", "--depth", "0"], "depth must be >= 1, got 0"),
            ("moments", ["--double-scaling", "true"], "config['double_scaling'] must be a section of keys, got True"),
            ("moments", ["--ensemble", "orthogonal"], "config['ensemble'] must be a section of keys, got 'orthogonal'"),
            ("limit", ["--grid.min", "5", "--grid.max", "6"], "from grid.points alone, got grid {'min': 5"),
            ("limit", ["--grid.points", "40", "--grid.max", "6"], "from grid.points alone, got grid {'points': 40"),
            ("theory-spectrum", ["--depth", "true"], "depth must be an integer, got True"),  # not depth 1
            ("theory-spectrum", ["--sigma-b", "true"], "sigma_b must be a number, got True"),  # not 1.0
            ("theory-spectrum", ["--depth", "4", "--sigma-w", "1.1", "--grid.points", "true"],
             "grid.points must be an integer, got True"),  # not a 2-point grid
            ("theory-spectrum", ["--depth", "4", "--sigma-w", "1.1", "--grid.max", "true"],
             "grid.max must be a number, got True"),  # not lambda_max = 1
            ("theory-spectrum", ["--depth", "4", "--sigma-w", "1.1", "--singular-domain", "no"],
             "singular_domain must be true or false, got 'no'"),  # not read as true
            ("moments", ["--critical", "yes"], "critical must be true or false, got 'yes'"),
            ("theory-spectrum", ["--depth", "4", "--sigma-w", "1.1", "--grid.points", "0"],
             "grid.points must be >= 1, got 0"),
            ("moments", ["--sigma-w", "null"], "sigma_w must be a number, got None"),
            ("moments", ["--critical", "true", "--sigma-b", "0.2", "--double-scaling.sigma0-sq", "0.25",
                         "--depth", "4"], "critical and double_scaling.sigma0_sq each set sigma_w"),
            ("moments", ["--sigma-b", "0.2", "--double-scaling.sigma0-sq", "0.25", "--depth", "4"],
             "double scaling runs at sigma_b = 0, got sigma_b 0.2"),
            # its q* pins the variance of orthogonal layers only: with gaussian ones it read sigma0^2 + L
            ("moments", ["--ensemble.kind", "gaussian", "--double-scaling.sigma0-sq", "0.25", "--depth", "64"],
             "double scaling runs on orthogonal weights, got ensemble.kind 'gaussian'"),
            # a number given for a path is refused, not opened as a file descriptor (1 is stdout, 0 stdin)
            ("limit", ["--out.density-csv", "1"], "out.density_csv must be a string, got 1"),
            ("compare", ["--empirical.spectrum-csv", "0", "--empirical.sidecar-json", "sp.json",
                         "--theory.density", "th.csv"], "empirical.spectrum_csv must be a string, got 0"),
            ("simulate", ["--qstar", "0.5", "--width", "8", "--out.sidecar-json", "2"],
             "out.sidecar_json must be a string, got 2"),
            ("moments", ["--activation.name", "leaky_relu", "--activation.params.alpha", "abc", "--depth", "2"],
             "bad activation {'name': 'leaky_relu', 'params': {'alpha': 'abc'}}: could not convert"),
            ("fixed-point", ["--activation.name", "leaky_relu", "--activation.params.alpha", "NaN",
                             "--sigma-w", "1.2", "--sigma-b", "0.1"],
             "leaky_relu needs a finite intercept and slope on every piece"),
            ("moments", ["--double-scaling", "true", "--double-scaling.sigma0-sq", "0.25"],
             "config['double_scaling'] must be a section of keys, got True"),
            ("moments", ["--activation", "x", "--activation.params.alpha", "1"],
             "config['activation'] must be a section of keys, got 'x'"),
            # L = 1 and orthogonal weights by default: the quadrature makes a smooth unit's law discrete
            ("theory-spectrum", ["--critical", "true", "--sigma-b", "0.2"], "tanh at L = 1 with orthogonal weights"),
            # malformed compare inputs, written from _COMPARE_INPUTS, are refused naming the file
            ("compare", [*_GOOD_SPECTRUM, "--theory.density", "header.csv"],
             "cannot read 'header.csv': unexpected density CSV header: 'x,rho'"),
            ("compare", [*_GOOD_SPECTRUM, "--theory.density", "backwards.csv"],
             "cannot read 'backwards.csv': grid must be strictly increasing"),
            ("compare", [*_GOOD_SPECTRUM, "--theory.density", "no_atoms.json"],
             "cannot read 'no_atoms.json': no key 'atoms'"),
            ("compare", ["--empirical.spectrum_csv", "sv.csv", "--empirical.sidecar_json", "sv_two.json",
                         "--theory.density", "theory.json"],
             "cannot read 'sv.csv' with 'sv_two.json': expected width * trials singular values"),
            # bins is read before the trials run, so a bad one writes no spectrum
            ("simulate", ["--qstar", "0.5", "--width", "8", "--out.histogram-csv", "h.csv", "--bins", "0"],
             "bins must be >= 1, got 0"),
            ("simulate", ["--qstar", "0.5", "--width", "8", "--out.histogram-csv", "h.csv", "--bins", "-3"],
             "bins must be >= 1, got -3"),
        ],
    )
    def test_refused_without_traceback(self, tmp_path, command, args, cause):
        inputs = [name for name in args if name in _COMPARE_INPUTS]
        for name in inputs:
            (tmp_path / name).write_text(_COMPARE_INPUTS[name])
        proc = run_cli([command, "--activation.name", "tanh", *args], tmp_path)
        assert proc.returncode == 1
        assert proc.stderr.startswith("error:") and cause in proc.stderr
        assert "Traceback" not in proc.stderr
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(inputs)  # a refused run writes no file

    @pytest.mark.parametrize(
        "key,value",
        [
            ("sigma-w-range", "[3.0]"),
            ("sigma-w-range", "[0.5,3.0,-2]"),
            ("sigma-w-range", "[0.5,3.0,0]"),
            ("sigma-w-range", "[0.5,3.0,2.5]"),
            ("sigma-w-range", "[0.0,3.0,4]"),
            ("sigma-w-range", "3.0"),
            ("sigma-b-range", "[-0.1,1.0,3]"),
        ],
    )
    def test_phase_grid_range_refused(self, tmp_path, key, value):
        proc = run_cli(["phase-grid", f"--{key}", value, "--out.grid_csv", "g.csv"], tmp_path)
        assert proc.returncode == 1
        assert proc.stderr.startswith(f"error: {key.replace('-', '_')} must be [start, stop, count]")
        assert "Traceback" not in proc.stderr
        assert not (tmp_path / "g.csv").exists()

    @pytest.mark.parametrize(
        "flag,env,source,value",
        [
            ("two", None, "--threads", "two"),
            ("-4", None, "--threads", "-4"),
            ("0", None, "--threads", "0"),
            (None, "two", "JACSPECTRA_THREADS", "two"),
            (None, "-4", "JACSPECTRA_THREADS", "-4"),
            (None, "0", "JACSPECTRA_THREADS", "0"),
        ],
    )
    def test_thread_count_refused(self, tmp_path, flag, env, source, value):
        args = ["simulate", "--activation.name", "tanh", "--width", "8", "--depth", "2", "--trials", "1",
                "--qstar", "0.5", "--out.spectrum_csv", "sp.csv"]
        proc = subprocess.run(
            PY + args + (["--threads", flag] if flag else []), cwd=tmp_path, capture_output=True, text=True,
            env={**child_env(), "JACSPECTRA_THREADS": env or ""},
        )
        assert proc.returncode == 1
        assert proc.stderr == f"error: {source} must be a positive integer, got {value!r}\n"
        assert not (tmp_path / "sp.csv").exists()

    def test_thread_env_read_by_simulate_alone(self, tmp_path):
        # only simulate runs trials: a bad JACSPECTRA_THREADS leaves the other commands alone
        args = ["moments", "--activation.name", "tanh", "--critical", "true", "--sigma-b", "0.2"]
        env = {**child_env(), "JACSPECTRA_THREADS": "two"}
        proc = subprocess.run(PY + args, cwd=tmp_path, env=env, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        proc = subprocess.run(PY + args + ["--threads", "-4"], cwd=tmp_path, env=env, capture_output=True, text=True)
        assert proc.returncode == 1
        assert proc.stderr == "error: --threads must be a positive integer, got '-4'\n"

    def test_compare_refuses_bad_spectrum_header(self, tmp_path):
        SpectralDensity(SINGULAR, np.linspace(0.0, 2.0, 5), np.full(5, 0.5)).write_json(tmp_path / "th.json")
        (tmp_path / "sp.csv").write_text("sigma\n0.5\n")
        (tmp_path / "sp.json").write_text(json.dumps({"width": 1, "depth": 1, "trials": 1, "seed": 0, "config": {}}))
        args = ["compare", "--empirical.spectrum_csv", "sp.csv", "--empirical.sidecar_json", "sp.json",
                "--theory.density", "th.json"]
        proc = run_cli(args, tmp_path)
        assert proc.returncode == 1
        assert proc.stderr.startswith("error: unexpected spectrum CSV header 'sigma'")


class TestImports:
    def test_no_package_module_imports_scipy(self):
        # scipy is a test-only dependency: every module must run without it
        offenders = []
        for path in sorted(Path(jacspectra.__file__).parent.glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
                if isinstance(node, ast.Import):
                    names = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom) and node.level == 0:
                    names = [node.module]
                else:
                    continue
                offenders += [f"{path.name}:{node.lineno}" for name in names if name.split(".")[0] == "scipy"]
        assert offenders == []

    def test_no_unused_imports(self):
        # the names __init__.py imports are its public re-exports
        offenders = []
        for path in sorted(Path(jacspectra.__file__).parent.glob("*.py")):
            if path.name == "__init__.py":
                continue
            tree = ast.parse(path.read_text(), filename=str(path))
            imported = {}
            for node in ast.walk(tree):
                if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__":
                    for alias in node.names:
                        imported[(alias.asname or alias.name).split(".")[0]] = node.lineno
            used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
            offenders += [f"{path.name}:{line} {name}" for name, line in imported.items() if name not in used]
        assert offenders == []

    def test_solver_paths_load_no_scipy(self):
        # importing scipy.special alone adds about 23 MB of resident memory
        code = "\n".join(
            [
                "import sys",
                "import numpy as np",
                "import jacspectra",
                "from jacspectra.activations import get_activation",
                "from jacspectra.limits import bernoulli_density, smooth_density",
                "from jacspectra.density import make_lambda_grid",
                "from jacspectra.master import default_lam_max, density",
                "from jacspectra.moments import jacobian_moments",
                "from jacspectra.propagation import critical_config, critical_sigma_w",
                "cfg = critical_config(get_activation('tanh'), 'orthogonal', 0.2, 4)",
                "grid = make_lambda_grid(default_lam_max(jacobian_moments(cfg)), n=20)",
                "density(cfg, grid)",
                "critical_sigma_w(get_activation('hard_tanh'), 0.2)",
                "bernoulli_density(0.25, np.linspace(0.1, 2.0, 5))",
                "smooth_density(0.25, np.linspace(0.5, 2.0, 5))",
                "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))",
            ]
        )
        proc = subprocess.run([sys.executable, "-c", code], env=child_env(), capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    @pytest.mark.parametrize("preset", [None, "3"])
    def test_blas_threads_pinned_unless_set(self, preset):
        # importing the package pins every BLAS pool the benchmark pins, and
        # keeps a value the caller chose
        run_py = Path(__file__).resolve().parent.parent / "bench" / "run.py"
        assign = next(
            node for node in ast.parse(run_py.read_text()).body
            if isinstance(node, ast.Assign) and getattr(node.targets[0], "id", None) == "THREAD_VARS"
        )
        names = ast.literal_eval(assign.value)
        env = child_env()
        for name in names:
            env.pop(name, None)
            if preset is not None:
                env[name] = preset
        code = f"import json, os, jacspectra; print(json.dumps([os.environ.get(v) for v in {list(names)!r}]))"
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout) == [preset or "1"] * len(names)

    def test_blas_one_thread_in_the_suite(self):
        # conftest imports jacspectra before numpy, so the suite runs BLAS at
        # the one thread every user path runs it at
        threads = _openblas_threads()
        if threads is None:
            pytest.skip("numpy is not linked to its bundled OpenBLAS")
        assert threads[0]() == 1

    @pytest.mark.parametrize("preset", [None, "2"])
    def test_blas_one_thread_whatever_the_import_order(self, preset):
        # a process that imports numpy first keeps the thread count OpenBLAS started with, here set to two: density,
        # run_trials and gauss_normal_rule run at one thread and restore two after, with the bits the suite's
        # one-thread BLAS gives, unless the caller chose a thread count
        if _openblas_threads() is None:
            pytest.skip("numpy is not linked to its bundled OpenBLAS")
        code = "\n".join(
            [
                "import ctypes, json",
                "from pathlib import Path",
                "import numpy as np",
                inspect.getsource(_openblas_threads),
                inspect.getsource(_blas_outputs),
                "get, put = _openblas_threads()",
                "put(2)",
                "import jacspectra",
                "from jacspectra import master, simulate, special",
                "seen = {}",
                "def probe(owner, attr, key):",
                "    fn = getattr(owner, attr)",
                "    def counted(*args, **kwargs):",
                "        seen.setdefault(key, set()).add(get())",
                "        return fn(*args, **kwargs)",
                "    setattr(owner, attr, counted)",
                "probe(master._Solver, 'fdf', 'density')",
                "probe(simulate, 'jacobian_singular_values', 'run_trials')",
                "probe(special, 'hermgauss', 'gauss_normal_rule')",
                "outputs = _blas_outputs()",
                "print(json.dumps({'during': {k: sorted(v) for k, v in seen.items()}, 'after': get(), **outputs}))",
            ]
        )
        env = {key: value for key, value in child_env().items() if "THREADS" not in key}
        if preset is not None:
            env["OPENBLAS_NUM_THREADS"] = preset
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        out = json.loads(proc.stdout)
        threads = 1 if preset is None else 2
        assert out.pop("during") == {key: [threads] for key in ("density", "run_trials", "gauss_normal_rule")}
        assert out.pop("after") == 2
        if preset is None:
            assert out == _blas_outputs()

    @staticmethod
    def _bench_modules(*names):
        """The bench/ modules ``names`` and the package modules bench/run.py hands to them."""
        bench = Path(__file__).resolve().parent.parent / "bench"
        mods = {}
        for name in names:
            spec = importlib.util.spec_from_file_location(f"_bench_{name}", bench / f"{name}.py")
            mods[name] = sys.modules[spec.name] = importlib.util.module_from_spec(spec)  # dataclasses look it up
            try:
                spec.loader.exec_module(mods[name])
            finally:
                del sys.modules[spec.name]
        names = ("cli", "propagation", "activations", "moments", "master", "limits", "simulate", "density",
                 "ensembles")
        return mods, SimpleNamespace(**{m: importlib.import_module(f"jacspectra.{m}") for m in names})

    def test_benchmark_hooks_resolve(self):
        # bench/layers.py wraps package functions by name; a renamed or
        # deleted one must fail here, not only in a benchmark run
        mods, ns = self._bench_modules("tracing", "layers")
        tracer = mods["tracing"].Tracer()
        try:
            mods["layers"].install(tracer, ns)
            assert hasattr(ns.master.probe_atom, "__wrapped__")
        finally:
            tracer.uninstall()
        assert not hasattr(ns.master.probe_atom, "__wrapped__")

    def test_benchmark_smoke(self):
        # the one check that runs the benchmark's traced hooks and its output checks end to end, on tiny inputs
        root = Path(__file__).resolve().parent.parent
        spec = json.loads((root / "BENCHMARK.json").read_text())
        proc = subprocess.run([sys.executable, "bench/run.py", "--smoke"], cwd=root, capture_output=True, text=True,
                              timeout=300)
        assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
        counts = {0: len(spec["end_to_end"]), 1: len(spec["per_layer"])}
        expected = [f"smoke {w['name']} trace={t}: exit 0, {counts[t]} metrics" for w in spec["workloads"] for t in (0, 1)]
        assert proc.stdout.splitlines() == expected

    @pytest.mark.parametrize("kind", ["orthogonal", "gaussian"])
    def test_benchmark_reads_the_network_config(self, kind):
        # the traced benchmark reads the ensemble kind off a config, and its checks rebuild the
        # config the CLI echoed; a change to NetworkConfig or WeightEnsemble must fail here first
        mods, ns = self._bench_modules("layers", "checks")
        config = ns.propagation.NetworkConfig(
            ns.activations.get_activation("tanh"), ns.ensembles.WeightEnsemble(kind), 1.1, 0.0, depth=4, width=8
        )
        info = mods["layers"]._run_trials_info(None, (config, 3), {"threads": 2}, None)
        assert info == {"width": 8, "depth": 4, "trials": 3, "threads": 2, "orthogonal": kind == "orthogonal"}
        echoed = {"activation": {"name": "tanh"}, "ensemble": {"kind": kind}, "sigma_w": 1.1, "sigma_b": 0.0,
                  "depth": 4, "qstar": None}
        assert mods["checks"]._exact_m1(ns, echoed) == ns.moments.jacobian_moments(config).m1
