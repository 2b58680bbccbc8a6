import copy
import errno
import inspect
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from bsmoduli import (
    Loop, ModuliPoint, SymplecticSurface, action_integral, cli, loops, moduli, omega_matrix,
)
from bsmoduli.cli import (
    EXIT_CONFIG,
    EXIT_NUMERIC,
    EXIT_OK,
    EXIT_USAGE,
    build_density,
    build_loop,
    main,
)
from bsmoduli.errors import GeometryError

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"
GOLDEN_DIR = Path(__file__).resolve().parent / "golden"


# A circle spec for the loop-center checks; each test sets its own "center".
LOOP = {"type": "circle", "radius": 0.56}

# A moduli flow whose field constant makes the RK4 substep count overflow.
MODULI_OVERFLOW = (
    '{"mode": "moduli", "field": "%s", "step": 0.01, "t_final": 0.02,'
    ' "loop": {"type": "ellipse", "a": 1.3, "b": 0.8, "project": true}}'
)


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

    def test_usage_errors_repeat_across_calls_on_one_parser(self, tmp_path, capsys, monkeypatch):
        built = []
        real = cli.build_parser

        def counted():
            built.append(1)
            return real()

        monkeypatch.setattr(cli, "build_parser", counted)
        cli._parser.cache_clear()
        argvs = [["frobnicate", "--config", "x.json"], [], ["bracket-check"],
                 ["bs-scan", "--config", "x.json", "--tol", "nan"]]
        want = []
        for argv in argvs:
            with pytest.raises(SystemExit) as exc:
                real().parse_args(argv)
            assert exc.value.code == EXIT_USAGE
            want.append(capsys.readouterr().err)
        assert all(err.startswith("usage: bsq") for err in want)
        for _ in range(2):
            for argv, err in zip(argvs, want):
                assert main(argv) == EXIT_USAGE
                assert capsys.readouterr().err == err
            assert run("convergence", {"cases": ["derivative_bandlimited"], "sample_counts": [16]},
                       tmp_path) == EXIT_OK
        assert built == [1]
        cli._parser.cache_clear()

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

    def test_bad_last_pair_fails_before_numerics(self, tmp_path, pairings_built):
        cfg = json.loads((CONFIG_DIR / "bracket_check.json").read_text())
        cfg["n_samples"] = 32
        cfg["pairs"].append(["x", "x+*y"])
        assert run("bracket-check", cfg, tmp_path) == EXIT_CONFIG
        assert not (tmp_path / "bracket_check.csv").exists()
        assert pairings_built == []

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
        # the target route's discretization error at N = 16 (a spread of
        # 2.3e-11) fails the tolerance whatever the roundoff of the pairing
        cfg = {
            "tolerance": 1e-20,
            "n_samples": 16,
            "pairs": [["sin(3*x)", "y"]],
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

    @pytest.mark.parametrize("command, text, message", [
        ("flow", '{"mode": "classical", "field": "x", "t_final": 1e300, "step": 1e-300}',
         "config error: |t_final| / |step| must be finite, got inf"),
        ("qm-check", '{"t_final": 1e300, "step": 1e-300}',
         "config error: |t_final| / |step| must be finite, got inf"),
        ("flow", MODULI_OVERFLOW % "1e300*x",
         "numeric failure: moduli flow failed in step 1 of 2 (t = 0.01, first RK4 stage): "
         "RK4 substep count out of range (z = 1.643658298568959e+300)"),
        ("flow", MODULI_OVERFLOW % "1e400*x",
         "numeric failure: moduli flow failed in step 1 of 2 (t = 0.01, first RK4 stage): "
         "RK4 substep count out of range (z = nan)"),
    ])
    def test_counts_that_overflow_exit_with_a_message(self, tmp_path, command, text, message):
        out = run_module(command, text, tmp_path)
        # the whole of stderr: no traceback and no raw RuntimeWarning
        assert out.stderr == f"bsq: {message}\n"
        assert out.returncode == (EXIT_NUMERIC if "numeric" in message else EXIT_CONFIG)
        assert os.listdir(tmp_path) == ["cfg.json"]

    @pytest.mark.parametrize("command, text", [
        ("bracket-check", '{"pairs": [["x", "y"]], "n_samples": 32,'
         ' "loops": [{"type": "circle", "radius": 1e155, "project": true}]}'),
        ("bracket-check", '{"pairs": [["x", "y"]], "n_samples": 32,'
         ' "loops": [{"type": "circle", "radius": 1e155}]}'),
        ("bs-scan", '{"radii": {"start": 1e150, "stop": 1e160, "count": 3}, "n_samples": 32}'),
    ], ids=["projected", "strict", "scan"])
    def test_an_action_that_is_not_finite_is_a_numeric_exit(self, tmp_path, command, text):
        out = run_module(command, text, tmp_path)
        # the whole of stderr: no traceback and no raw RuntimeWarning
        assert out.stderr == (
            "bsq: numeric failure: action inf is not finite, so the loop lies on no level\n"
        )
        assert out.returncode == EXIT_NUMERIC
        assert os.listdir(tmp_path) == ["cfg.json"]

    @pytest.mark.filterwarnings("error")
    def test_a_bracket_that_is_not_finite_is_a_numeric_exit(self, tmp_path, capsys):
        config = {"pairs": [["x", "y"], ["1e160*x", "1e160*y"]], "n_samples": 32,
                  "loops": [{"type": "circle", "radius": 0.5641895835477563}]}
        assert run("bracket-check", config, tmp_path) == EXIT_NUMERIC
        # the whole of stderr: one line naming the loop, the density and the pair
        assert capsys.readouterr().err == (
            "bsq: numeric failure: bracket-check on loop loop0, density uniform0: "
            "pairs[1]: the matrix bracket is -inf, not finite\n"
        )
        assert os.listdir(tmp_path) == ["config.json"]

    def test_a_singular_pairing_is_a_numeric_exit_naming_min_theta0(self, tmp_path, capsys):
        # cosine(1, 1) vanishes at s = 1/2, a grid point for even N
        config = {"pairs": [["x", "y"]], "n_samples": 32,
                  "densities": [{"type": "cosine", "amplitude": 1.0, "harmonic": 1}],
                  "loops": [{"type": "circle", "radius": 0.5641895835477563}]}
        assert run("bracket-check", config, tmp_path) == EXIT_NUMERIC
        assert capsys.readouterr().err == (
            "bsq: numeric failure: bracket-check on loop loop0, density cosine0: "
            "pairing min |theta0| 0.000e+00 below 1.0e-10\n"
        )
        assert os.listdir(tmp_path) == ["config.json"]

    @pytest.mark.parametrize("command, config, text, message", [
        ("bracket-check", {"pairs": [["x/0", "y"]], "loops": [], "n_samples": 32}, "x/0",
         "division by a constant zero"),
        ("identity-check", {"pairs": [["x", "y/(2-2)"]], "loops": []}, "y/(2-2)",
         "division by a constant zero"),
        ("flow", {"mode": "classical", "field": "x/0"}, "x/0", "division by a constant zero"),
        ("flow", {"mode": "classical", "field": "x+0^-1"}, "x+0^-1",
         "division by a constant zero"),
        ("flow", {"mode": "classical", "field": "x*1e200^2"}, "x*1e200^2",
         "constant 1e+200^2 overflows"),
        ("flow", {"mode": "classical", "field": "sin(x/0)"}, "sin(x/0)",
         "division by a constant zero"),
        ("flow", {"mode": "classical", "field": "x^1e400"}, "x^1e400",
         "exponent must be an integer in 'x^1e400'"),
        ("flow", {"mode": "classical", "field": "sin(1e400)*x"}, "sin(1e400)*x",
         "constant sin(inf) is not defined"),
        ("bracket-check", {"pairs": [["x", "cos(-1e400)+y"]], "loops": [], "n_samples": 32},
         "cos(-1e400)+y", "constant cos(-inf) is not defined"),
    ])
    def test_constant_arithmetic_is_a_config_error(self, tmp_path, capsys, command, config,
                                                   text, message):
        assert run(command, config, tmp_path) == EXIT_CONFIG
        assert capsys.readouterr().err == (
            f"bsq: config error: bad field expression {text!r}: {message}\n"
        )
        assert os.listdir(tmp_path) == ["config.json"]

    @pytest.mark.parametrize("text", ["+".join(["x"] * 1200), "(" * 400 + "x" + ")" * 400,
                                      "+".join(["x"] * 100000), "-" * 100000 + "x"],
                             ids=["sum", "parentheses", "long-sum", "unary-minus"])
    def test_too_deep_an_expression_is_a_config_error(self, tmp_path, text):
        config = {"pairs": [[text, "y"]], "loops": [{"type": "circle", "radius": 0.5}]}
        out = run_module("bracket-check", json.dumps(config), tmp_path)
        # the whole of stderr: no traceback
        assert out.stderr == (
            f"bsq: config error: bad field expression {text!r}: expression nested too deeply\n"
        )
        assert out.returncode == EXIT_CONFIG
        assert os.listdir(tmp_path) == ["cfg.json"]

    @pytest.mark.parametrize("command, config, k", [
        ("bracket-check", {"pairs": [["x^2", "y"]], "n_samples": 32,
                           "loops": [{"type": "perturbed_circle", "radius": 0.56,
                                      "harmonics": [[2.5, 0.1, 0.0]]}],
                           "densities": [{"type": "cosine", "harmonic": 1.5}]}, 2.5),
        ("flow", {"mode": "moduli", "field": "x", "n_samples": 32, "t_final": 0.01,
                  "step": 0.01, "loop": LOOP, "density": {"type": "cosine", "harmonic": 0.5}},
         0.5),
    ], ids=["loop", "density"])
    def test_a_non_integer_harmonic_is_a_config_error(self, tmp_path, capsys, command, config, k):
        # cos(2 pi k s) is periodic on the parameter circle only for an integer k
        assert run(command, config, tmp_path) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err == f"bsq: config error: harmonic must be an integer, got {k}\n"
        assert os.listdir(tmp_path) == ["config.json"]

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
        ('{"hbar": Infinity}', "hbar must be finite and positive"),
        ('{"hbar": NaN}', "hbar must be finite and positive"),
    ])
    def test_qm_check_bad_step_or_hbar_is_a_config_error(self, tmp_path, text, message):
        out = run_module("qm-check", text, tmp_path)
        assert out.returncode == EXIT_CONFIG
        # the whole of stderr, so no RuntimeWarning leaked before the error
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

    @pytest.mark.parametrize("command,config", [
        ("bracket-check", {"pairs": [["x", "y"]], "n_samples": 32, "loops": [LOOP]}),
        ("identity-check", {"pairs": [["x", "y"]], "sample_counts": [32], "loops": [LOOP]}),
        ("flow", {"mode": "moduli", "field": "x", "n_samples": 32, "t_final": 0.01,
                  "step": 0.01, "loop": LOOP}),
        ("bs-scan", {"n_samples": 32, "loop": {"type": "circle"}}),
        ("bs-scan", {"n_samples": 32, "loop": {"type": "ellipse", "a": 1.3, "b": 0.8}}),
    ])
    @pytest.mark.parametrize("center", [[0.3], [0.3, float("inf")], [True, 0.0]])
    def test_loop_center_must_be_two_finite_numbers(self, tmp_path, capsys, command, config,
                                                    center):
        config = copy.deepcopy(config)
        spec = config["loops"][0] if "loops" in config else config["loop"]
        spec["center"] = center
        assert run(command, config, tmp_path) == EXIT_CONFIG
        assert capsys.readouterr().err == (
            f"bsq: config error: loop center must be two finite numbers [x, y], got {center!r}\n"
        )
        assert os.listdir(tmp_path) == ["config.json"]

    def test_identity_check_without_counts_dumps_no_diagnostics(self, tmp_path):
        cfg = json.loads((CONFIG_DIR / "identity_check.json").read_text())
        cfg.update(sample_counts=[], dump_loop_diagnostics=True)
        assert run("identity-check", cfg, tmp_path) == EXIT_OK
        assert read_rows(tmp_path / "identity_check.csv") == []
        assert not (tmp_path / "loop_diagnostics.csv").exists()

    def test_out_that_cannot_be_written_is_a_usage_error(self, tmp_path, capsys):
        taken = tmp_path / "taken"
        taken.write_text("")
        argv = ["convergence", "--config", str(CONFIG_DIR / "convergence.json"),
                "--out", str(taken)]
        assert main(argv) == EXIT_USAGE
        assert capsys.readouterr().err == (
            f"bsq: cannot write {taken / 'convergence.csv'}: {os.strerror(errno.EEXIST)}\n"
        )
        assert taken.read_text() == ""

    def test_a_command_that_raises_writes_nothing(self, tmp_path, monkeypatch):
        def broken(loop):
            raise GeometryError("no diagnostics")

        monkeypatch.setattr(cli, "sample_diagnostics", broken)
        cfg = json.loads((CONFIG_DIR / "identity_check.json").read_text())
        cfg.update(sample_counts=[32], dump_loop_diagnostics=True)
        assert run("identity-check", cfg, tmp_path) == EXIT_NUMERIC
        assert os.listdir(tmp_path) == ["config.json"]

    @pytest.mark.parametrize("command,config,code", [
        ("identity-check", "identity_check.json", EXIT_NUMERIC),
        ("qm-check", "qm_check.json", EXIT_NUMERIC),
        ("flow", "flow_classical.json", EXIT_OK),
        ("flow", "flow_moduli.json", EXIT_OK),
        ("bs-scan", "bs_scan.json", EXIT_OK),
        ("convergence", "convergence.json", EXIT_OK),
    ])
    def test_one_exit_rule(self, tmp_path, command, config, code):
        # exit 3 iff a written row has status fail; tables with no status never fail
        assert run(command, CONFIG_DIR / config, tmp_path, extra=("--tol", "1e-300")) == code
        rows = [row for path in tmp_path.glob("*.csv") for row in read_rows(path)]
        assert rows
        assert any(row.get("status") == "fail" for row in rows) == (code == EXIT_NUMERIC)

    def test_commands_return_their_tables(self):
        for runner in cli.COMMANDS.values():
            assert list(inspect.signature(runner).parameters) == ["config", "seed", "tolerance"]


# One small config per command that runs with no tolerance, count or flag of its own.
SMALL = {
    "bracket-check": {"pairs": [["x", "y"]], "n_samples": 32,
                      "loops": [{"type": "circle", "radius": 0.5641895835477563}]},
    "identity-check": {"pairs": [["x", "y"]], "sample_counts": [32], "loops": [LOOP]},
    "flow": {"mode": "moduli", "field": "x", "n_samples": 32, "t_final": 0.01, "step": 0.01,
             "loop": {"type": "ellipse", "a": 1.3, "b": 0.8, "project": True}},
    "bs-scan": {"n_samples": 32, "radii": {"start": 0.3, "stop": 1.3, "count": 3}},
    "qm-check": {"dimension": 2, "instances": 2, "t_final": 0.01, "step": 0.01},
    "convergence": {"cases": ["quadrature_analytic"], "sample_counts": [16]},
}


def assert_config_error(tmp_path, capsys, command, config, message):
    assert run(command, config, tmp_path) == EXIT_CONFIG
    assert capsys.readouterr().err == f"bsq: config error: {message}\n"
    assert os.listdir(tmp_path) == ["config.json"]


class TestConfigValues:
    @pytest.mark.parametrize("command,key", [
        ("bracket-check", "tolerance"),
        ("identity-check", "tolerance"),
        ("identity-check", "tolerance_compat"),
        ("bs-scan", "tolerance"),
        ("qm-check", "tolerance"),
    ])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -1e-6, None, True, "1e-6"])
    def test_a_tolerance_is_a_finite_number_at_least_zero(
            self, tmp_path, capsys, pairings_built, command, key, value):
        config = dict(SMALL[command], **{key: value})
        shown = json.loads(json.dumps(value))
        message = f'"{key}" must be a finite number >= 0, got {shown!r}'
        assert_config_error(tmp_path, capsys, command, config, message)
        assert pairings_built == []

    def test_a_zero_tolerance_is_a_tolerance(self, tmp_path):
        assert run("bs-scan", dict(SMALL["bs-scan"], tolerance=0), tmp_path) == EXIT_OK
        assert "# tolerance = 0\n" in (tmp_path / "bs_scan.csv").read_text()

    @pytest.mark.parametrize("text", ["nan", "inf", "-0.5", "tiny"])
    def test_the_tol_flag_is_a_finite_number_at_least_zero(self, tmp_path, capsys, text):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(SMALL["bs-scan"]))
        argv = ["bs-scan", "--config", str(path), "--out", str(tmp_path), "--tol", text]
        assert main(argv) == EXIT_USAGE
        err = capsys.readouterr().err
        assert f"argument --tol: must be a finite number >= 0, got {text!r}\n" in err
        assert "Traceback" not in err
        assert os.listdir(tmp_path) == ["config.json"]

    @pytest.mark.parametrize("command,update,key,value", [
        ("bracket-check", {"sample_counts": [64.5]}, "sample_counts", 64.5),
        ("bracket-check", {"n_samples": 64.7}, "n_samples", 64.7),
        ("bracket-check", {"n_samples": True}, "n_samples", True),
        ("identity-check", {"sample_counts": [64, 64.5]}, "sample_counts", 64.5),
        ("identity-check", {"sample_counts": ["64"]}, "sample_counts", "64"),
        ("flow", {"n_samples": 64.7}, "n_samples", 64.7),
        ("flow", {"snapshot_every": 2.5}, "snapshot_every", 2.5),
        ("bs-scan", {"n_samples": 64.7}, "n_samples", 64.7),
        ("bs-scan", {"radii": {"start": 0.3, "stop": 1.3, "count": 2.7}}, "radii.count", 2.7),
        ("qm-check", {"instances": 3.9}, "instances", 3.9),
        ("qm-check", {"dimension": 2.5}, "dimension", 2.5),
        ("qm-check", {"dimension": None}, "dimension", None),
        ("convergence", {"sample_counts": [16.5]}, "sample_counts", 16.5),
        ("convergence", {"seed": 1.5}, "seed", 1.5),
    ])
    def test_a_count_is_an_integer(self, tmp_path, capsys, pairings_built, command, update,
                                   key, value):
        config = dict(SMALL[command], **update)
        assert_config_error(tmp_path, capsys, command, config,
                            f'"{key}" must be an integer, got {value!r}')
        assert pairings_built == []

    @pytest.mark.parametrize("command", ["bracket-check", "bs-scan"])
    @pytest.mark.parametrize("value", ["cw", 0, 0.5, True])
    def test_a_circle_orientation_is_one_or_minus_one(self, tmp_path, capsys, pairings_built,
                                                      command, value):
        config = copy.deepcopy(SMALL[command])
        spec = {"type": "circle", "radius": 0.5641895835477563, "orientation": value}
        if command == "bs-scan":
            config["loop"] = spec
        else:
            config["loops"] = [spec]
        assert_config_error(tmp_path, capsys, command, config,
                            f'"orientation" must be 1 or -1, got {value!r}')
        assert pairings_built == []

    @pytest.mark.parametrize("orientation", [1, -1])
    def test_a_circle_loop_keeps_its_orientation(self, orientation):
        plane = SymplecticSurface.plane()
        spec = {"type": "circle", "radius": 0.5, "orientation": orientation}
        loop = cli.build_loop(spec, 64, plane)
        assert np.array_equal(loop.points, Loop.circle(0.5, n=64, orientation=orientation).points)
        assert abs(action_integral(loop, plane) - orientation * np.pi / 4) <= 1e-12

    @pytest.mark.parametrize("cases", ["action_circle", ["action_circle", 3], None])
    def test_convergence_cases_is_a_list_of_strings(self, tmp_path, capsys, cases):
        config = dict(SMALL["convergence"], cases=cases)
        assert_config_error(tmp_path, capsys, "convergence", config,
                            f'"cases" must be a list of strings, got {cases!r}')

    @pytest.mark.parametrize("count", [-3, 0])
    def test_radii_count_is_at_least_one(self, tmp_path, capsys, count):
        config = dict(SMALL["bs-scan"], radii={"start": 0.3, "stop": 1.3, "count": count})
        assert_config_error(tmp_path, capsys, "bs-scan", config,
                            f'"radii.count" must be at least 1, got {count}')

    @pytest.mark.parametrize("radii,message", [
        (5, "radii spec must be a JSON object, got 5"),
        ([0.3, 1.3, 3], "radii spec must be a JSON object, got [0.3, 1.3, 3]"),
        ({"stop": 1.3, "count": 3}, '"radii.start" is missing'),
        ({"start": 0.3, "count": 3}, '"radii.stop" is missing'),
        ({"start": 0.3, "stop": 1.3}, '"radii.count" is missing'),
        ({"start": "a", "stop": 1.3, "count": 3}, "\"radii.start\" must be a finite number, got 'a'"),
        ({"start": 0.3, "stop": None, "count": 3}, '"radii.stop" must be a finite number, got None'),
        ({"start": 0.3, "stop": True, "count": 3}, '"radii.stop" must be a finite number, got True'),
        ({"start": 0.3, "stop": 1e400, "count": 3}, '"radii.stop" must be a finite number, got inf'),
    ])
    def test_radii_is_read_before_any_numerics(self, tmp_path, capsys, monkeypatch, radii,
                                                message):
        def no_numerics(*args):
            raise AssertionError("an action integral ran")

        monkeypatch.setattr(cli, "_level_offset", no_numerics)
        config = dict(SMALL["bs-scan"], radii=radii)
        assert_config_error(tmp_path, capsys, "bs-scan", config, message)

    @pytest.mark.parametrize("command", ["bracket-check", "identity-check", "convergence"])
    def test_sample_counts_is_a_list(self, tmp_path, capsys, command):
        config = dict(SMALL[command], sample_counts=32)
        assert_config_error(tmp_path, capsys, command, config,
                            '"sample_counts" must be a list of integers, got 32')

    def test_an_integral_float_is_a_count(self, tmp_path):
        config = dict(SMALL["bracket-check"], n_samples=32.0)
        assert run("bracket-check", config, tmp_path) == EXIT_OK
        assert [row["n"] for row in read_rows(tmp_path / "bracket_check.csv")] == ["32"]

    @pytest.mark.parametrize("command,update,key,value", [
        ("bracket-check", {"dump_singular_values": "no"}, "dump_singular_values", "no"),
        ("bracket-check", {"loops": [{"type": "circle", "radius": 0.56, "project": "no"}]},
         "project", "no"),
        ("identity-check", {"dump_loop_diagnostics": 1}, "dump_loop_diagnostics", 1),
        ("flow", {"loop": {"type": "ellipse", "a": 1.3, "b": 0.8, "project": 1}}, "project", 1),
    ])
    def test_a_flag_is_a_json_boolean(self, tmp_path, capsys, pairings_built, command, update,
                                      key, value):
        config = dict(SMALL[command], **update)
        assert_config_error(tmp_path, capsys, command, config,
                            f'"{key}" must be true or false, got {value!r}')
        assert pairings_built == []


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

    @pytest.mark.parametrize("orientation", [1, -1])
    def test_bs_scan_keeps_the_circle_orientation(self, tmp_path, orientation):
        cfg = {
            "n_samples": 64,
            "loop": {"type": "circle", "center": [0.2, -0.1], "orientation": orientation},
            "radii": {"start": 0.5, "stop": 0.5, "count": 1},
        }
        assert run("bs-scan", cfg, tmp_path) == EXIT_OK
        (row,) = read_rows(tmp_path / "bs_scan.csv")
        loop = Loop.circle(0.5, center=(0.2, -0.1), n=64, orientation=orientation)
        assert float(row["action"]) == action_integral(loop, SymplecticSurface.plane())
        assert abs(float(row["action"]) - orientation * np.pi / 4) <= 1e-12

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

    def test_bs_scan_takes_one_action_per_radius(self, tmp_path, monkeypatch):
        # the action and the defect columns share one holonomy integral
        calls = []
        real = loops.action_integral

        def counted(loop, surface):
            calls.append(loop)
            return real(loop, surface)

        monkeypatch.setattr(loops, "action_integral", counted)
        monkeypatch.setattr(cli, "action_integral", counted)
        assert run("bs-scan", CONFIG_DIR / "bs_scan.json", tmp_path) == EXIT_OK
        rows = read_rows(tmp_path / "bs_scan.csv")
        assert len(rows) == 201 and len(calls) == 201
        assert [float(row["radius"]) for row in rows] == [loop.points[0, 0] for loop in calls]

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
        slack = n * np.finfo(float).eps
        for dspec in densities:
            sigma = [float(r["sigma_k"]) for r in rows if r["density"] == dspec["id"]]
            om = omega_matrix(ModuliPoint(plane, loop, build_density(dspec, n)))
            assert sigma == sorted(om.singular_values().tolist(), reverse=True)
            assert min(sigma) >= om.sigma_lower_bound - slack * om.sigma_upper_bound
            assert max(sigma) <= om.sigma_upper_bound + slack * om.sigma_upper_bound

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

    @staticmethod
    def count_linalg(monkeypatch):
        """Count np.linalg.solve, np.linalg.svd and Krylov pairing solves from here on."""
        counts = {"solve": 0, "svd": 0, "krylov": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(np.linalg, "solve", counted("solve", np.linalg.solve))
        monkeypatch.setattr(np.linalg, "svd", counted("svd", np.linalg.svd))
        monkeypatch.setattr(moduli, "_krylov_brackets", counted("krylov", moduli._krylov_brackets))
        return counts

    @pytest.mark.parametrize("pair_count", [1, 5])
    def test_one_solve_per_instance(self, tmp_path, monkeypatch, pairings_built, pair_count):
        # the pairing is certified by its closed-form enclosure, with no SVD, and built
        # once; every bracket of an instance comes from one solve of its K block: at
        # N = 64 the rule takes a certified Krylov solve for uniform theta0 (1 step)
        # and the LU for cosine(0.3, 1) (32 steps cost more than the LU there)
        counts = self.count_linalg(monkeypatch)
        cfg = json.loads((CONFIG_DIR / "bracket_check.json").read_text())
        cfg["n_samples"] = 64
        cfg["pairs"] = cfg["pairs"][:pair_count]
        assert run("bracket-check", cfg, tmp_path) == EXIT_OK
        loops = len(cfg["loops"])
        assert cfg["densities"][0]["type"] == "uniform" and len(cfg["densities"]) == 2
        assert counts == {"solve": loops, "svd": 0, "krylov": loops}
        assert len(pairings_built) == 2 * loops

    def test_one_svd_per_instance_when_dumping_singular_values(self, tmp_path, monkeypatch,
                                                               pairings_built):
        # the dump builds a second pairing for its SVD
        counts = self.count_linalg(monkeypatch)
        n = 32
        cfg = json.loads((CONFIG_DIR / "bracket_check.json").read_text())
        cfg.update(n_samples=n, dump_singular_values=True)
        assert run("bracket-check", cfg, tmp_path) == EXIT_OK
        instances = len(cfg["loops"]) * len(cfg["densities"])
        assert counts == {"solve": instances // 2, "svd": instances, "krylov": instances // 2}
        assert len(pairings_built) == 2 * instances
        rows = read_rows(tmp_path / "omega_singular_values.csv")
        assert len(rows) == instances * 2 * (n - 1)

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
        ("bracket-check", "bracket_check.json", "bracket_check.csv"),
    ])
    def test_default_config_matches_golden(self, tmp_path, command, config, output):
        assert run(command, CONFIG_DIR / config, tmp_path) == EXIT_OK
        golden = GOLDEN_DIR / output
        assert golden.exists(), f"golden file {output} missing"
        assert (tmp_path / output).read_bytes() == golden.read_bytes()
