import json

import numpy as np
from scipy import integrate

from halfspace import BoundaryData, poisson_extend
from halfspace.cli import main
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


def test_usage_error():
    assert run(["kernel", "--system", "unknown"]) == 2


def test_all_command(tmp_path):
    out = tmp_path / "all"
    code = run(["all", "--N", "512", "--R", "32", "--out", str(out)])
    assert code == 0
    assert (out / "kernel" / "kernel.bin").exists()
    assert (out / "solve" / "field.bin").exists()
    assert (out / "lp_wellposed" / "lp_wellposed.json").exists()


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
    wrap = poisson_extend(system, datum, field.heights).meta["wrap_bound"]
    assert abs(got - oracle) <= max(1e-6, 3.0 * wrap)
