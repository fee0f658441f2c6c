import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy import integrate

from halfspace import BoundaryData, wrap_bound
from halfspace.cli import build_parser, main
from halfspace.containers import load_field, load_kernel


def run(args):
    return main(args)


def test_kernel_command(tmp_path):
    out = tmp_path / "k"
    code = run(["kernel", "--system", "laplacian", "--n", "2",
                "--N", "1024", "--out", str(out)])
    assert code == 0
    kernel = load_kernel(out / "kernel.bin")
    assert kernel.grid.N == 1024
    manifest = json.loads((out / "manifest.json").read_text())
    assert "kernel.bin" in manifest["artifacts"]
    assert manifest["timings"]["total"] > 0


def test_solve_constant_datum(tmp_path):
    out = tmp_path / "s"
    code = run(["solve", "--datum", "constant", "--levels", "0.5,1.0",
                "--N", "512", "--R", "32", "--out", str(out)])
    assert code == 0
    field, system = load_field(out / "field.bin")
    assert np.abs(field.values - 1.0).max() < 1e-12


def test_solve_alias_risk_exit(tmp_path):
    code = run(["solve", "--datum", "wide", "--wrap-tol", "1e-9",
                "--N", "512", "--R", "16", "--out", str(tmp_path / "w")])
    assert code == 2


def test_invalid_system_exit(tmp_path):
    code = run(["kernel", "--system", "lame", "--mu", "1,0",
                "--lambda", "-3,0", "--N", "256",
                "--out", str(tmp_path / "bad")])
    assert code == 2


def test_kernel_window_too_small_exit(tmp_path, capsys):
    code = run(["kernel", "--system", "laplacian", "--n", "2",
                "--N", "128", "--out", str(tmp_path / "small")])
    assert code == 2
    err = capsys.readouterr().err
    assert "OutOfDomain" in err and "raise N" in err


def test_verify_pass_and_exit_codes(tmp_path):
    out = tmp_path / "v"
    code = run(["verify", "counterexample_linear", "--out", str(out)])
    assert code == 0
    rep = json.loads((out / "counterexample_linear.json").read_text())
    assert rep["passed"] is True


def test_verify_unknown_experiment(tmp_path):
    assert run(["verify", "bogus", "--out", str(tmp_path / "b")]) == 2


def test_verify_deterministic_bytes(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert run(["verify", "counterexample_linear", "--out", str(a)]) == 0
    assert run(["verify", "counterexample_linear", "--out", str(b)]) == 0
    assert (a / "counterexample_linear.json").read_bytes() \
        == (b / "counterexample_linear.json").read_bytes()
    assert (a / "counterexample_linear.csv").read_bytes() \
        == (b / "counterexample_linear.csv").read_bytes()


def test_spaces_command(tmp_path):
    out = tmp_path / "n"
    code = run(["spaces", "--datum", "gaussian", "--N", "512", "--R", "32",
                "--out", str(out)])
    assert code == 0
    norms = json.loads((out / "norms.json").read_text())
    assert abs(norms["l2"] - (np.pi / 2) ** 0.25) < 1e-4
    assert norms["bmo"] > 0


def test_manifest_records_every_setting_of_the_artifacts(tmp_path):
    # runs that differ only in --p write different norms.json, so their
    # recorded configs must differ too; solve records its --wrap-tol
    configs = []
    for p in ("2", "3"):
        out = tmp_path / ("p" + p)
        assert run(["spaces", "--datum", "log", "--N", "256", "--R", "16",
                    "--p", p, "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        configs.append(manifest["config"])
    assert configs[0] != configs[1]
    assert (configs[0]["p"], configs[1]["p"]) == (2.0, 3.0)
    assert configs[0]["theta"] == 0.5
    out = tmp_path / "solve"
    assert run(["solve", "--datum", "gaussian", "--N", "256", "--R", "16",
                "--wrap-tol", "1e3", "--out", str(out)]) == 0
    config = json.loads((out / "manifest.json").read_text())["config"]
    assert config["wrap_tol"] == 1e3


def test_package_imports_numpy_only():
    # scipy is a test dependency only: the package and its CLI load none
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = ("import sys, halfspace, halfspace.cli; print(sorted("
            "m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=120)
    assert out.stdout.strip() == "[]"


def test_usage_error():
    assert run(["kernel", "--system", "unknown"]) == 2


def test_all_command(tmp_path):
    out = tmp_path / "all"
    code = run(["all", "--N", "512", "--R", "32", "--out", str(out)])
    assert code == 0
    assert (out / "kernel" / "kernel.bin").exists()
    assert (out / "solve" / "field.bin").exists()
    assert (out / "lp_wellposed" / "lp_wellposed.json").exists()
    # a config file may hold the keys of the experiments that all runs
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"h": 0.25, "seed": 2, "theta": 0.5,
                               "params": {}, "tolerances": {}}))
    out = tmp_path / "all_cfg"
    code = run(["all", "--N", "512", "--R", "32", "--config", str(cfg),
                "--out", str(out)])
    assert code == 0
    for name in ("lp_wellposed", "linfty_maximum", "counterexample_linear"):
        got = json.loads((out / name / "manifest.json").read_text())
        assert got["config"]["config"]["h"] == 0.25
        assert got["config"]["config"]["seed"] == 2


def test_config_file_system(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(
        {"system": {"kind": "lame", "mu": [1, 0], "lambda": [1, 0], "n": 2}}))
    out = tmp_path / "cfgout"
    code = run(["solve", "--config", str(cfg), "--datum", "constant",
                "--levels", "1.0", "--N", "256", "--R", "16",
                "--out", str(out)])
    assert code == 0
    field, system = load_field(out / "field.bin")
    assert system.M == 2


def test_solve_gaussian_oracle_inline(tmp_path):
    # centre value of the written field against a quadrature of the
    # classical Poisson integral at the first height
    out = tmp_path / "g"
    code = run(["solve", "--datum", "gaussian", "--levels", "0.5,1.0",
                "--N", "4096", "--R", "512", "--out", str(out)])
    assert code == 0
    field, system = load_field(out / "field.bin")
    t = float(field.heights[0])
    oracle, _ = integrate.quad(
        lambda y: (t / np.pi) / (t * t + y * y) * np.exp(-y * y),
        -np.inf, np.inf, limit=200)
    got = float(field.values[0, field.grid.N // 2, 0].real)
    datum = BoundaryData(grid=field.grid,
                         samples=np.exp(-field.grid.radii() ** 2)[:, None])
    wrap = wrap_bound(system, datum, field.heights[-1])
    assert abs(got - oracle) <= max(1e-6, 3.0 * wrap)


# every option each subcommand accepts, -h and verify's experiment aside;
# a new flag joins this table on purpose
SYSTEM_OPTIONS = {"--system", "--n", "--mu", "--lambda", "--A", "--config",
                  "--out"}
ACCEPTED = {
    "kernel": SYSTEM_OPTIONS | {"--N", "--seed"},
    "solve": SYSTEM_OPTIONS | {"--N", "--R", "--levels", "--datum",
                               "--wrap-tol", "--seed"},
    "spaces": SYSTEM_OPTIONS | {"--N", "--R", "--datum", "--p", "--theta",
                                "--seed"},
    "verify": SYSTEM_OPTIONS | {"--N", "--kappa", "--theta", "--seed"},
    "all": SYSTEM_OPTIONS | {"--N", "--R", "--levels", "--wrap-tol",
                             "--kappa", "--theta", "--seed"},
}


def test_each_subcommand_accepts_only_its_options():
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    got = {name: {flag for action in p._actions
                  for flag in action.option_strings
                  if flag not in ("-h", "--help")}
           for name, p in sub.choices.items()}
    assert got == ACCEPTED
    assert sum(len(flags) for flags in got.values()) == 60


REMOVED = [("kernel", flag) for flag in ("--R", "--levels", "--kappa",
                                         "--epsilon", "--p", "--theta")] \
    + [("solve", flag) for flag in ("--kappa", "--epsilon", "--p", "--theta")] \
    + [("spaces", flag) for flag in ("--levels", "--kappa", "--epsilon")] \
    + [("verify", flag) for flag in ("--R", "--levels", "--p", "--epsilon")] \
    + [("all", flag) for flag in ("--p", "--epsilon", "--datum")]


@pytest.mark.parametrize("command,flag", REMOVED,
                         ids=["%s%s" % pair for pair in REMOVED])
def test_removed_flag_is_usage_error(command, flag, tmp_path, capsys):
    head = [command] + (["counterexample_linear"] if command == "verify"
                        else [])
    value = "gaussian" if flag == "--datum" else "1"
    out = tmp_path / "o"
    assert run(head + [flag, value, "--out", str(out)]) == 2
    assert "unrecognized arguments: %s" % flag in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv,entry", [
    (["verify", "counterexample_linear"], {"epsilon": 0.1}),
    (["kernel"], {"seed": 1}),
], ids=["verify-epsilon", "kernel-seed"])
def test_config_key_the_command_does_not_read(argv, entry, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(entry))
    out = tmp_path / "o"
    assert run(argv + ["--config", str(cfg), "--out", str(out)]) == 2
    assert "no use for %s" % next(iter(entry)) in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("system,names", [
    ({"kind": "lame", "n": 2, "mu": [1, 0]}, "'lame': missing 'lambda'"),
    ({"kind": "lame", "n": 2, "mu": [1, 0], "lam": [1, 0]},
     "'lame': missing 'lambda'; does not read 'lam'"),
    ({"kind": "laplacian", "n": 2, "mu": [1, 0]},
     "'laplacian': does not read 'mu'"),
    ({"kind": "scalar", "n": 2}, "'scalar': missing 'A'"),
], ids=["lame-missing", "lame-misnamed", "laplacian-unread", "scalar-missing"])
def test_config_system_names_its_keys(system, names, tmp_path, capsys):
    """A config system missing a key its kind reads, or holding one it does
    not read, is a named error: exit 2, one error line, no traceback."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"system": system}))
    out = tmp_path / "o"
    assert run(["verify", "lp_wellposed", "--config", str(cfg),
                "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.splitlines() == ["error: BadShape: system kind %s" % names]


@pytest.mark.parametrize("argv", [
    ["verify", "lp_wellposed"], ["solve", "--N", "64"],
    ["kernel", "--N", "256"], ["spaces", "--N", "64"]],
    ids=["verify", "solve", "kernel", "spaces"])
def test_failed_command_leaves_no_out_directory(argv, tmp_path, capsys):
    """A command that fails on its input writes nothing, not even --out."""
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"system": {"kind": "lame", "n": 2,
                                          "mu": [1, 0]}}))
    out = tmp_path / "o"
    assert run(argv + ["--config", str(cfg), "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error: BadShape")
    assert not out.exists()


@pytest.mark.parametrize("system", [[], ["--mu", "1,0.3", "--lambda", "2,-0.5"]],
                         ids=["laplacian", "lame-complex"])
def test_counterexample_linear_n3(system, tmp_path):
    """The linear field's heights broadcast over both tangential axes."""
    argv = ["verify", "counterexample_linear", "--system",
            "lame" if system else "laplacian", "--n", "3", "--N", "64"]
    assert run(argv + system + ["--out", str(tmp_path / "o")]) == 0


@pytest.mark.parametrize("name,band", [("h1_atoms", "[6.55, 1.62]"),
                                       ("counterexample_dipole", "[18, 0.5]")])
def test_empty_slope_band_is_named(name, band, tmp_path, capsys):
    """In n = 3 at N = 64 the box is too small for the far-field slope band:
    EmptyWindow names the band and R, and says to raise N."""
    assert run(["verify", name, "--n", "3", "--N", "64",
                "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: EmptyWindow: slope "
                                               "band %s" % band)
    assert "on the grid of R = " in err[0] and err[0].endswith("raise N")


@pytest.mark.parametrize(
    "entry", [{"N": 64.0}, {"h": "0.1"}, {"kappa": "1"}, {"kappa": 0},
              {"theta": 0}, {"seed": -1}],
    ids=["N-float", "h-string", "kappa-string", "kappa-zero", "theta-zero",
         "seed-negative"])
def test_config_value_of_wrong_type_is_usage_error(entry, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(entry))
    out = tmp_path / "o"
    assert run(["verify", "counterexample_linear", "--config", str(cfg),
                "--out", str(out)]) == 2
    assert "config %s must be" % next(iter(entry)) in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("flags,want", [
    ([], {"seed": 5, "N": 256, "kappa": 2.0}),
    (["--seed", "3"], {"seed": 3, "N": 256, "kappa": 2.0}),
    (["--N", "512", "--kappa", "1.5"], {"seed": 5, "N": 512, "kappa": 1.5}),
], ids=["file", "flag-seed", "flag-N-kappa"])
def test_verify_flag_beats_file_beats_default(flags, want, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"seed": 5, "N": 256, "kappa": 2.0}))
    out = tmp_path / "v"
    run(["verify", "counterexample_linear", "--config", str(cfg),
         "--out", str(out)] + flags)
    got = json.loads((out / "manifest.json").read_text())["config"]["config"]
    assert {key: got[key] for key in want} == want
    assert got["theta"] == 0.5 and got["h"] == 0.125
