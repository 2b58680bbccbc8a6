import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from bsmoduli import ModuliPoint, cli, omega_matrix
from bsmoduli.cli import (
    EXIT_CONFIG,
    EXIT_NUMERIC,
    EXIT_OK,
    EXIT_USAGE,
    build_density,
    build_loop,
    main,
)

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"
GOLDEN_DIR = Path(__file__).resolve().parent / "golden"


def run(command, config, tmp_path, extra=()):
    if isinstance(config, dict):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
    else:
        path = config
    return main([command, "--config", str(path), "--out", str(tmp_path), *extra])


def run_module(command, config_text, tmp_path, timeout=120):
    """Run ``python -m bsmoduli.cli`` in a fresh process on a config given as JSON text."""
    path = tmp_path / "cfg.json"
    path.write_text(config_text)
    src = Path(__file__).resolve().parent.parent / "src"
    return subprocess.run(
        [sys.executable, "-m", "bsmoduli.cli", command, "--config", str(path),
         "--out", str(tmp_path)],
        env=dict(os.environ, PYTHONPATH=str(src)),
        capture_output=True, text=True, timeout=timeout,
    )


def read_rows(path):
    lines = [ln for ln in path.read_text().splitlines() if not ln.startswith("#")]
    header = lines[0].split(",")
    return [dict(zip(header, ln.split(","))) for ln in lines[1:]]


class TestExitCodes:
    def test_unknown_command_is_usage_error(self, capsys):
        assert main(["frobnicate", "--config", "x.json"]) == EXIT_USAGE

    def test_missing_command_is_usage_error(self):
        assert main([]) == EXIT_USAGE

    def test_missing_config_flag_is_usage_error(self):
        assert main(["bracket-check"]) == EXIT_USAGE

    def test_malformed_json(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("not json {{{")
        assert run("bracket-check", bad, tmp_path) == EXIT_CONFIG

    def test_missing_file(self, tmp_path):
        assert run("bracket-check", tmp_path / "nope.json", tmp_path) == EXIT_CONFIG

    def test_non_object_config(self, tmp_path):
        path = tmp_path / "arr.json"
        path.write_text("[1, 2, 3]")
        assert run("bracket-check", path, tmp_path) == EXIT_CONFIG

    def test_bad_expression(self, tmp_path):
        cfg = {"mode": "classical", "field": "x+*y", "t_final": 0.1, "step": 0.01}
        assert run("flow", cfg, tmp_path) == EXIT_CONFIG

    def test_unknown_loop_type(self, tmp_path):
        cfg = {
            "pairs": [["x", "y"]],
            "loops": [{"type": "hexagon"}],
            "n_samples": 32,
        }
        assert run("bracket-check", cfg, tmp_path) == EXIT_CONFIG

    def test_bad_last_pair_fails_before_numerics(self, tmp_path, monkeypatch):
        calls = []
        real = cli.omega_matrix

        def counted(p):
            calls.append(p)
            return real(p)

        monkeypatch.setattr(cli, "omega_matrix", counted)
        cfg = json.loads((CONFIG_DIR / "bracket_check.json").read_text())
        cfg["n_samples"] = 32
        cfg["pairs"].append(["x", "x+*y"])
        assert run("bracket-check", cfg, tmp_path) == EXIT_CONFIG
        assert not (tmp_path / "bracket_check.csv").exists()
        assert calls == []

    def test_identity_check_bad_last_pair_fails_before_numerics(self, tmp_path, monkeypatch):
        calls = []
        real = cli.restriction_identity_residual

        def counted(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(cli, "restriction_identity_residual", counted)
        cfg = json.loads((CONFIG_DIR / "identity_check.json").read_text())
        cfg["pairs"].append(["x", "x+*y"])
        assert run("identity-check", cfg, tmp_path) == EXIT_CONFIG
        assert not (tmp_path / "identity_check.csv").exists()
        assert calls == []

    def test_identity_check_bad_last_loop_fails_before_numerics(self, tmp_path, monkeypatch):
        calls = []
        real = cli.restriction_identity_residual

        def counted(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(cli, "restriction_identity_residual", counted)
        cfg = json.loads((CONFIG_DIR / "identity_check.json").read_text())
        cfg["loops"].append({"type": "hexagon"})
        assert run("identity-check", cfg, tmp_path) == EXIT_CONFIG
        assert not (tmp_path / "identity_check.csv").exists()
        assert calls == []

    @pytest.mark.parametrize("command,path,key,value,what", [
        ("bracket-check", "bracket_check.json", "loops", ["circle"], "loop"),
        ("bracket-check", "bracket_check.json", "surface", "plane", "surface"),
        ("flow", "flow_moduli.json", "density", "uniform", "density"),
        ("bs-scan", "bs_scan.json", "loop", [1, 2], "loop"),
    ])
    def test_non_object_spec_is_config_error(self, tmp_path, capsys, command, path, key,
                                             value, what):
        cfg = json.loads((CONFIG_DIR / path).read_text())
        cfg[key] = value
        assert run(command, cfg, tmp_path) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert f"config error: {what} spec must be a JSON object" in err
        assert "Traceback" not in err

    def test_empty_task_lists_pass(self, tmp_path):
        assert run("bracket-check", {"pairs": [], "loops": [], "n_samples": 32}, tmp_path) == EXIT_OK
        rows = read_rows(tmp_path / "bracket_check.csv")
        assert rows == []

    def test_tolerance_failure_is_numeric_exit(self, tmp_path):
        cfg = {
            "tolerance": 1e-20,
            "n_samples": 64,
            "pairs": [["x^2", "y"]],
            "loops": [{"type": "circle", "radius": 0.5641895835477563, "center": [0.3, -0.2]}],
            "densities": [{"type": "cosine"}],
        }
        assert run("bracket-check", cfg, tmp_path) == EXIT_NUMERIC

    def test_numeric_failure_from_geometry(self, tmp_path):
        cfg = {
            "mode": "classical",
            "field": "(x^2+y^2)^3",
            "initial": [5.0, 0.0],
            "t_final": 100.0,
            "step": 100.0,
        }
        assert run("flow", cfg, tmp_path) == EXIT_NUMERIC

    def test_diverging_classical_flow_names_the_step(self, tmp_path, capsys):
        # the absolute Newton tolerance is out of reach once the orbit has grown
        cfg = {
            "mode": "classical",
            "field": "x*y+0.3*x^2",
            "initial": [1.0, 0.2],
            "t_final": 20.0,
            "step": 0.01,
        }
        assert run("flow", cfg, tmp_path) == EXIT_NUMERIC
        err = capsys.readouterr().err
        assert re.search(r"step \d+ of 2000 \(t = ", err)
        assert "failed to converge" in err
        assert not (tmp_path / "flow_classical.csv").exists()

    @pytest.mark.parametrize("initial", [
        [[1.0, 0.0], [0.0, 1.0]], [1.0], [1.0, float("nan")], [True, 0.0], "1,0", [1.0, None],
    ])
    def test_classical_initial_must_be_two_finite_numbers(
        self, tmp_path, monkeypatch, capsys, initial
    ):
        calls = []
        monkeypatch.setattr(cli, "flow_classical", lambda *args: calls.append(args))
        cfg = {"mode": "classical", "field": "x*y", "initial": initial,
               "t_final": 0.1, "step": 0.01}
        assert run("flow", cfg, tmp_path) == EXIT_CONFIG
        assert "initial must be two finite numbers" in capsys.readouterr().err
        assert calls == []
        assert not (tmp_path / "flow_classical.csv").exists()

    def test_diverging_moduli_flow_is_numeric_exit(self, tmp_path):
        cfg = json.loads((CONFIG_DIR / "flow_moduli.json").read_text())
        cfg.update(field="x^4+y^4", step=0.5, t_final=20.0)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        src = Path(__file__).resolve().parent.parent / "src"
        out = subprocess.run(
            [sys.executable, "-m", "bsmoduli.cli", "flow", "--config", str(path),
             "--out", str(tmp_path)],
            env=dict(os.environ, PYTHONPATH=str(src)),
            capture_output=True, text=True, timeout=120,
        )
        assert out.returncode == EXIT_NUMERIC
        assert "numeric failure" in out.stderr and "step 1 of 40" in out.stderr
        assert "RuntimeWarning" not in out.stderr
        assert not (tmp_path / "flow_moduli.csv").exists()

    def test_zero_moduli_step_is_a_config_error(self, tmp_path):
        cfg = json.loads((CONFIG_DIR / "flow_moduli.json").read_text())
        cfg.update(step=0)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        src = Path(__file__).resolve().parent.parent / "src"
        out = subprocess.run(
            [sys.executable, "-m", "bsmoduli.cli", "flow", "--config", str(path),
             "--out", str(tmp_path)],
            env=dict(os.environ, PYTHONPATH=str(src)),
            capture_output=True, text=True, timeout=120,
        )
        assert out.returncode == EXIT_CONFIG
        assert out.stderr == "bsq: config error: step must be nonzero\n"
        assert not (tmp_path / "flow_moduli.csv").exists()

    def test_infinite_t_final_is_a_config_error(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text('{"mode": "classical", "field": "x*y", "t_final": 1e400, "step": 0.01}')
        src = Path(__file__).resolve().parent.parent / "src"
        out = subprocess.run(
            [sys.executable, "-m", "bsmoduli.cli", "flow", "--config", str(path),
             "--out", str(tmp_path)],
            env=dict(os.environ, PYTHONPATH=str(src)),
            capture_output=True, text=True, timeout=120,
        )
        assert out.returncode == EXIT_CONFIG
        assert out.stderr == "bsq: config error: t_final must be finite, got inf\n"
        assert not (tmp_path / "flow_classical.csv").exists()

    def test_nan_moduli_step_is_a_config_error(self, tmp_path, capsys):
        cfg = json.loads((CONFIG_DIR / "flow_moduli.json").read_text())
        cfg.update(step=float("nan"))
        assert run("flow", cfg, tmp_path) == EXIT_CONFIG
        assert "step must be finite, got nan" in capsys.readouterr().err
        assert not (tmp_path / "flow_moduli.csv").exists()

    def test_moduli_step_failure_names_the_step(self, tmp_path):
        # a weighted-torus flow whose weight blows up: the volume overflows in step 53
        cfg = {
            "mode": "moduli",
            "surface": {"kind": "torus", "periods": [2.0, 2.0],
                        "omega_density": "1+0.5*cos(2*pi*x)",
                        "potential": ["0", "x+sin(2*pi*x)/(4*pi)"]},
            "field": "0.3*cos(pi*x)+0.2*sin(pi*y)",
            "loop": {"type": "ellipse", "a": 0.7, "b": 0.5, "center": [1.0, 1.0],
                     "angle": 0.4, "project": True},
            "density": {"type": "cosine", "amplitude": 0.3, "harmonic": 2},
            "n_samples": 128,
            "t_final": 0.1,
            "step": 1.25e-3,
        }
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        src = Path(__file__).resolve().parent.parent / "src"
        out = subprocess.run(
            [sys.executable, "-m", "bsmoduli.cli", "flow", "--config", str(path),
             "--out", str(tmp_path)],
            env=dict(os.environ, PYTHONPATH=str(src)),
            capture_output=True, text=True, timeout=120,
        )
        assert out.returncode == EXIT_NUMERIC
        assert "RuntimeWarning" not in out.stderr
        assert re.search(r"step \d+ of 80 \(t = ", out.stderr)
        assert not (tmp_path / "flow_moduli.csv").exists()

    def test_bracket_check_rejects_scale(self, tmp_path, capsys):
        cfg = json.loads((CONFIG_DIR / "bracket_check.json").read_text())
        cfg["scale"] = 2.0
        assert run("bracket-check", cfg, tmp_path) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert '"scale"' in err and '"2*x"' in err
        assert not (tmp_path / "bracket_check.csv").exists()

    @pytest.mark.parametrize("periods", [[1], None, [1.0, float("inf")]])
    def test_torus_periods_must_be_two_finite_numbers(self, tmp_path, capsys, periods):
        cfg = json.loads((CONFIG_DIR / "bs_scan.json").read_text())
        cfg["surface"] = {"kind": "torus", "periods": periods}
        assert run("bs-scan", cfg, tmp_path) == EXIT_CONFIG
        assert capsys.readouterr().err == (
            "bsq: config error: torus surface requires periods [Lx, Ly], "
            f"two finite numbers, got {periods!r}\n"
        )
        assert not (tmp_path / "bs_scan.csv").exists()

    def test_matching_potential_passes_the_curl_check(self, tmp_path):
        cfg = {
            "surface": {"kind": "torus", "periods": [2.0, 2.0],
                        "omega_density": "1+0.5*cos(2*pi*x)",
                        "potential": ["0", "x+sin(2*pi*x)/(4*pi)"]},
            "n_samples": 64,
            "loop": {"type": "circle", "center": [1.0, 1.0]},
            "radii": {"start": 0.2, "stop": 0.6, "count": 5},
        }
        assert run("bs-scan", cfg, tmp_path) == EXIT_OK
        assert len(read_rows(tmp_path / "bs_scan.csv")) == 5

    def test_mismatched_potential_is_config_error(self, tmp_path, capsys):
        # curl of (0, x) is 1, not w
        cfg = {
            "surface": {"kind": "torus", "periods": [2.0, 1.0],
                        "omega_density": "1+0.5*cos(pi*x)", "potential": ["0", "x"]},
            "n_samples": 64,
            "loop": {"type": "circle", "center": [1.0, 0.5]},
            "radii": {"start": 0.1, "stop": 0.4, "count": 4},
        }
        assert run("bs-scan", cfg, tmp_path) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "potential does not match omega_density: relative curl defect" in err
        defect = float(re.search(r"= (\S+) exceeds", err).group(1))
        assert 0.3 < defect < 0.34
        assert not (tmp_path / "bs_scan.csv").exists()

    @pytest.mark.parametrize("text,message", [
        ('{"step": 0}', "step must be nonzero"),
        ('{"t_final": 1e400}', "t_final must be finite, got inf"),
    ])
    def test_qm_check_bad_step_is_a_config_error(self, tmp_path, text, message):
        out = run_module("qm-check", text, tmp_path)
        assert out.returncode == EXIT_CONFIG
        assert out.stderr == f"bsq: config error: {message}\n"
        assert not (tmp_path / "qm_check.csv").exists()

    @pytest.mark.parametrize("text,message", [
        # one-dimensional observables commute, so no instance gives a kappa ratio
        ('{"dimension": 1}', '"dimension" must be at least 2, got 1'),
        ('{"dimension": 0}', '"dimension" must be at least 2, got 0'),
        ('{"instances": 0}', '"instances" must be at least 1, got 0'),
    ])
    def test_qm_check_degenerate_size_is_a_config_error(self, tmp_path, text, message):
        out = run_module("qm-check", text, tmp_path, timeout=60)
        assert out.returncode == EXIT_CONFIG
        # the whole of stderr, so no RuntimeWarning leaked before the error
        assert out.stderr == f"bsq: config error: {message}\n"
        assert not (tmp_path / "qm_check.csv").exists()

    def test_qm_check_negative_step_flows_backwards(self, tmp_path):
        out = run_module("qm-check", '{"step": -0.001}', tmp_path)
        assert out.returncode == EXIT_OK, out.stderr
        rows = {row["check"]: row for row in read_rows(tmp_path / "qm_check.csv")}
        # 1000 backward RK4 steps, compared with the exact flow at t = -1
        assert float(rows["flow_vs_exponential"]["value"]) <= 1e-8
        assert all(row["status"] == "pass" for row in rows.values())


class TestReports:
    def test_bracket_check_default_config_passes(self, tmp_path):
        cfg = json.loads((CONFIG_DIR / "bracket_check.json").read_text())
        cfg["n_samples"] = 128
        assert run("bracket-check", cfg, tmp_path) == EXIT_OK
        rows = read_rows(tmp_path / "bracket_check.csv")
        assert len(rows) == 5 * 3 * 2
        assert all(row["status"] == "pass" for row in rows)
        assert all(float(row["sigma"]) == -1.0 for row in rows)
        spreads = [float(row["rel_spread"]) for row in rows]
        assert max(spreads) <= 1e-6

    def test_header_carries_conventions(self, tmp_path):
        run("convergence", CONFIG_DIR / "convergence.json", tmp_path)
        text = (tmp_path / "convergence.csv").read_text()
        head = [ln for ln in text.splitlines() if ln.startswith("#")]
        assert any("sigma = -1.0" in ln for ln in head)
        assert any("kappa_qm = 1.0" in ln for ln in head)
        assert any("tolerance" in ln for ln in head)

    def test_identity_check_default_config(self, tmp_path):
        assert run("identity-check", CONFIG_DIR / "identity_check.json", tmp_path) == EXIT_OK
        rows = read_rows(tmp_path / "identity_check.csv")
        assert all(row["status"] == "pass" for row in rows)

    def test_identity_check_loop_diagnostics(self, tmp_path):
        cfg = json.loads((CONFIG_DIR / "identity_check.json").read_text())
        cfg["dump_loop_diagnostics"] = True
        assert run("identity-check", cfg, tmp_path) == EXIT_OK
        path = tmp_path / "loop_diagnostics.csv"
        header = [ln for ln in path.read_text().splitlines() if not ln.startswith("#")][0]
        assert header == "loop,i,s,x,y,dxds,dyds,speed"
        rows = read_rows(path)
        n = max(cfg["sample_counts"])
        assert len(rows) == 2 * n
        assert [r["loop"] for r in rows] == ["circle"] * n + ["ellipse"] * n
        assert [int(r["i"]) for r in rows] == list(range(n)) * 2
        dx, dy, speed = (np.array([float(r[c]) for r in rows]) for c in ("dxds", "dyds", "speed"))
        assert np.array_equal(speed, np.sqrt(dx * dx + dy * dy))
        assert np.max(np.abs(speed[:n] - 2 * np.pi)) <= 1e-12

    def test_qm_check_default_config(self, tmp_path):
        assert run("qm-check", CONFIG_DIR / "qm_check.json", tmp_path) == EXIT_OK
        rows = read_rows(tmp_path / "qm_check.csv")
        checks = {row["check"] for row in rows}
        assert "flow_vs_exponential" in checks
        assert "kappa_mean" in checks

    def test_bs_scan_locates_levels(self, tmp_path):
        assert run("bs-scan", CONFIG_DIR / "bs_scan.json", tmp_path) == EXIT_OK
        rows = read_rows(tmp_path / "bs_scan.csv")
        hits = [float(r["radius"]) for r in rows if r["bs_hit"] == "1"]
        for level in (1, 2, 3, 4):
            target = np.sqrt(level / np.pi)
            assert any(abs(r - target) < 0.01 for r in hits)

    def test_bs_scan_builds_its_base_loop_once(self, tmp_path, monkeypatch):
        calls = []
        real = cli.build_loop

        def counted(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(cli, "build_loop", counted)
        cfg = {
            "n_samples": 64,
            "loop": {"type": "ellipse", "a": 1.3, "b": 0.8, "angle": 0.4, "project": True},
            "radii": {"start": 0.5, "stop": 1.5, "count": 21},
        }
        assert run("bs-scan", cfg, tmp_path) == EXIT_OK
        assert len(calls) == 1
        assert len(read_rows(tmp_path / "bs_scan.csv")) == 21

    def test_flow_moduli_snapshots(self, tmp_path):
        cfg = json.loads((CONFIG_DIR / "flow_moduli.json").read_text())
        cfg["n_samples"] = 32
        cfg["t_final"] = 0.02
        cfg["step"] = 0.01
        cfg["snapshot_every"] = 1
        assert run("flow", cfg, tmp_path) == EXIT_OK
        rows = read_rows(tmp_path / "flow_moduli.csv")
        assert len(rows) == 3
        snaps = json.loads((tmp_path / "flow_moduli_snapshots.json").read_text())
        assert len(snaps) == 3
        assert "points" in snaps[0]["state"] and "theta" in snaps[0]["state"]
        assert list(tmp_path.glob("*.tmp")) == []

    def test_outputs_get_umask_mode(self, tmp_path):
        cfg = json.loads((CONFIG_DIR / "flow_moduli.json").read_text())
        cfg.update(n_samples=32, t_final=0.01, step=0.01, snapshot_every=1)
        old = os.umask(0o027)
        try:
            assert run("flow", cfg, tmp_path) == EXIT_OK
        finally:
            os.umask(old)
        for name in ("flow_moduli.csv", "flow_moduli_snapshots.json"):
            assert (tmp_path / name).stat().st_mode & 0o777 == 0o640

    def test_bracket_check_singular_value_dump(self, tmp_path, plane):
        n = 32
        loop_spec = {"id": "c", "type": "circle", "radius": 0.5641895835477563, "center": [0.3, -0.2]}
        densities = [{"id": "u", "type": "uniform"}, {"id": "cos", "type": "cosine"}]
        cfg = {
            "n_samples": n,
            "pairs": [["x", "y"]],
            "loops": [loop_spec],
            "densities": densities,
            "dump_singular_values": True,
        }
        assert run("bracket-check", cfg, tmp_path) == EXIT_OK
        rows = read_rows(tmp_path / "omega_singular_values.csv")
        loop = build_loop(loop_spec, n, plane)
        for dspec in densities:
            sigma = [float(r["sigma_k"]) for r in rows if r["density"] == dspec["id"]]
            assert len(sigma) == 2 * (n - 1)
            point = ModuliPoint(plane, loop, build_density(dspec, n))
            assert min(sigma) == omega_matrix(point).min_singular

    def test_classical_flow_report(self, tmp_path):
        assert run("flow", CONFIG_DIR / "flow_classical.json", tmp_path) == EXIT_OK
        rows = read_rows(tmp_path / "flow_classical.csv")
        values = [float(r["f"]) for r in rows]
        assert max(values) - min(values) < 1e-10


class TestDeterminism:
    def test_byte_identical_reruns(self, tmp_path):
        # the moduli flow's second run reuses cached derivative multipliers and kernels
        runs = [
            ("convergence", "convergence.json", ["convergence.csv"]),
            ("flow", "flow_moduli.json", ["flow_moduli.csv", "flow_moduli_snapshots.json"]),
        ]
        for command, config, outputs in runs:
            out1 = tmp_path / command / "a"
            out2 = tmp_path / command / "b"
            for out in (out1, out2):
                out.mkdir(parents=True)
                assert main([
                    command, "--config", str(CONFIG_DIR / config), "--out", str(out),
                ]) == EXIT_OK
            for name in outputs:
                assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    @pytest.mark.parametrize("pair_count", [1, 5])
    def test_two_solves_per_instance(self, tmp_path, monkeypatch, pair_count):
        counts = {"solve": 0, "svd": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(np.linalg, "solve", counted("solve", np.linalg.solve))
        monkeypatch.setattr(np.linalg, "svd", counted("svd", np.linalg.svd))
        cfg = json.loads((CONFIG_DIR / "bracket_check.json").read_text())
        cfg["n_samples"] = 64
        cfg["pairs"] = cfg["pairs"][:pair_count]
        assert run("bracket-check", cfg, tmp_path) == EXIT_OK
        instances = len(cfg["loops"]) * len(cfg["densities"])
        assert counts == {"solve": 2 * instances, "svd": instances}

    def test_seed_override_changes_qm_report(self, tmp_path):
        out1 = tmp_path / "s1"
        out2 = tmp_path / "s2"
        out1.mkdir()
        out2.mkdir()
        cfg = {"dimension": 3, "instances": 5, "t_final": 0.1, "step": 0.01}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        main(["qm-check", "--config", str(path), "--out", str(out1), "--seed", "1"])
        main(["qm-check", "--config", str(path), "--out", str(out2), "--seed", "2"])
        rows1 = read_rows(out1 / "qm_check.csv")
        rows2 = read_rows(out2 / "qm_check.csv")
        v1 = [float(r["value"]) for r in rows1 if r["check"] == "flow_vs_exponential"]
        v2 = [float(r["value"]) for r in rows2 if r["check"] == "flow_vs_exponential"]
        assert v1 != v2


class TestGoldenFiles:
    @pytest.mark.parametrize("command,config,output", [
        ("convergence", "convergence.json", "convergence.csv"),
        ("bs-scan", "bs_scan.json", "bs_scan.csv"),
    ])
    def test_default_config_matches_golden(self, tmp_path, command, config, output):
        assert run(command, CONFIG_DIR / config, tmp_path) == EXIT_OK
        golden = GOLDEN_DIR / output
        assert golden.exists(), f"golden file {output} missing"
        assert (tmp_path / output).read_bytes() == golden.read_bytes()
