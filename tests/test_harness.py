from pathlib import Path

import numpy as np
import pytest

from halfspace import (UnknownExperiment, build_poisson_kernel, build_system,
                       verify_kernel_properties)
from halfspace.containers import write_report
from halfspace.harness import (ExperimentConfig, default_config,
                               experiment_names, parse_complex,
                               run_experiment, system_from_spec)


def test_registry_lists_all_experiments():
    names = experiment_names()
    assert len(names) == 13
    assert "lp_wellposed" in names
    assert "counterexample_dipole" in names


def test_unknown_experiment():
    with pytest.raises(UnknownExperiment):
        run_experiment(ExperimentConfig(name="bogus"))
    with pytest.raises(UnknownExperiment):
        default_config("bogus")


def test_parse_complex_pairs():
    assert parse_complex([1, -2]) == 1 - 2j
    assert parse_complex(3.5) == 3.5 + 0j
    with pytest.raises(Exception):
        parse_complex("nope")


def test_system_from_spec_lame():
    sys_ = system_from_spec({"kind": "lame", "mu": [1, 0], "lambda": [1, 0],
                             "n": 2})
    assert sys_.M == 2
    assert sys_.ellipticity_margin > 0.9


def test_reports_deterministic():
    cfg = default_config("counterexample_linear", seed=11)
    r1 = run_experiment(cfg)
    r2 = run_experiment(default_config("counterexample_linear", seed=11))
    assert r1.to_json() == r2.to_json()


def test_seed_changes_fingerprint():
    r1 = run_experiment(default_config("counterexample_linear", seed=1))
    r2 = run_experiment(default_config("counterexample_linear", seed=2))
    assert r1.fingerprint["seed"] != r2.fingerprint["seed"]


def test_linear_counterexample_content():
    rep = run_experiment(default_config("counterexample_linear"))
    assert rep.passed
    assert rep.value("trace_sup") < 1e-10
    assert rep.value("representation_failure") > 0.99


def test_lp_wellposed_small_config():
    cfg = default_config("lp_wellposed", N=512, h=0.25, refine=False)
    rep = run_experiment(cfg)
    assert rep.passed
    assert rep.value("ratio_lower") >= 0.999
    assert np.isfinite(rep.value("ratio_upper"))


def test_lame_linfty_finite_constant(shared_lame_report):
    rep = shared_lame_report
    assert rep.passed
    assert rep.value("sup_ratio_upper") >= 1.0 - 1e-6


@pytest.fixture(scope="module")
def shared_lame_report():
    cfg = default_config(
        "linfty_maximum", N=512, h=0.25, refine=False,
        system={"kind": "lame", "mu": [1, 0], "lambda": [1, 0], "n": 2})
    return run_experiment(cfg)


@pytest.mark.parametrize("name", ["lp_wellposed", "linfty_maximum"])
@pytest.mark.parametrize("moduli", [([1, 0], [1, 0]), ([1, 0.3], [2, -0.5])],
                         ids=["real", "complex"])
def test_lame3_wellposedness_small_config(name, moduli):
    """The L^p and L^infinity experiments on an n = 3 matrix system."""
    mu, lam = moduli
    cfg = default_config(name, N=32, h=0.25, refine=False,
                         system={"kind": "lame", "mu": mu, "lambda": lam,
                                 "n": 3})
    rep = run_experiment(cfg)
    assert rep.passed, "\n".join(rep.summary_lines())


def test_tolerance_overrides_respected():
    cfg = default_config("counterexample_linear",
                         tolerances={"trace": 1e-30})
    rep = run_experiment(cfg)
    # the override flows into the config snapshot
    assert rep.fingerprint["tolerances"]["trace"] == 1e-30


# one row per experiment at test scale, refinement on wherever the
# experiment refines; tests/golden/ pins each row's JSON and CSV report
GOLDEN_ROWS = [
    ("weighted_l1_wellposed", {"N": 512, "h": 0.25}),
    ("classical_continuity", {"N": 1024, "h": 0.125}),
    ("scg_local_max", {"N": 512, "h": 0.25}),
    ("slg_wellposed", {"N": 512, "h": 0.25}),
    ("holder_wellposed", {"N": 512, "h": 0.25}),
    ("bmo_carleson", {"N": 512, "h": 0.25}),
    ("h1_atoms", {"N": 512, "h": 0.25, "params": {"atoms": 6}}),
    ("fatou_trace_recovery", {"N": 512, "h": 0.25}),
    ("counterexample_kernel_column", {"N": 512, "h": 0.125}),
    ("counterexample_dipole", {"N": 2048, "h": 0.0625}),
    ("lp_wellposed", {"N": 512, "h": 0.25}),
    ("linfty_maximum", {"N": 512, "h": 0.25}),
    ("counterexample_linear", {"N": 512, "h": 0.25}),
]
GOLDEN = Path(__file__).parent / "golden"

# seed sweeps of slg_wellposed (test scale) and h1_atoms (default grid);
# they missed their tolerances at 9 and 6 of these seeds, and the
# extra h1_atoms seeds are ones the benchmark runs
SEED_ROWS = [
    pytest.param("slg_wellposed",
                 {"N": 512, "h": 0.25, "refine": False, "seed": s},
                 id="slg_wellposed-seed%d" % s) for s in range(20)
] + [
    pytest.param("h1_atoms", {"refine": False, "seed": s},
                 id="h1_atoms-seed%d" % s)
    for s in list(range(20)) + [2000, 2002, 4000, 4004]
]


@pytest.mark.parametrize("name,kw", GOLDEN_ROWS + SEED_ROWS)
def test_every_experiment_passes_at_small_scale(name, kw, tmp_path):
    rep = run_experiment(default_config(name, **kw))
    assert rep.passed, "\n".join(rep.summary_lines())
    if (name, kw) in GOLDEN_ROWS:
        for path in write_report(tmp_path, rep)[:2]:
            assert path.read_bytes() == (GOLDEN / path.name).read_bytes(), \
                "%s differs from its golden report" % path.name


def test_experiment_table_covered():
    assert sorted(name for name, _ in GOLDEN_ROWS) == experiment_names()


# the kernel report, PDE check included, at seed 0 on the N = 4096 session
# kernels lap2_kernel and lame2_kernel; tests/golden/ pins its JSON and CSV
KERNEL_GOLDEN_SYSTEMS = {"lap2": ("laplacian", {"n": 2}),
                         "lame2": ("lame", {"n": 2, "mu": 1.0, "lam": 1.0})}


def write_kernel_report(outdir, name, system, built):
    table, kernel = built
    return write_report(outdir, verify_kernel_properties(
        system, kernel, table, seed=0), "kernel_properties_" + name)


@pytest.mark.parametrize("name", sorted(KERNEL_GOLDEN_SYSTEMS))
def test_kernel_report_matches_golden(name, request, tmp_path):
    kind, kw = KERNEL_GOLDEN_SYSTEMS[name]
    system = request.getfixturevalue(name)
    assert system.key() == build_system(kind, **kw).key()
    built = request.getfixturevalue(name + "_kernel")
    for path in write_kernel_report(tmp_path, name, system, built)[:2]:
        assert path.read_bytes() == (GOLDEN / path.name).read_bytes(), \
            "%s differs from its golden report" % path.name


if __name__ == "__main__":
    # rewrite the golden reports: python tests/test_harness.py
    for name, kw in GOLDEN_ROWS:
        for path in write_report(GOLDEN, run_experiment(
                default_config(name, **kw)))[2:]:
            path.unlink()
    for name, (kind, kw) in KERNEL_GOLDEN_SYSTEMS.items():
        system = build_system(kind, **kw)
        built = build_poisson_kernel(system, N=4096)
        for path in write_kernel_report(GOLDEN, name, system, built)[2:]:
            path.unlink()
