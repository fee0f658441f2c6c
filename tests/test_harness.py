from pathlib import Path

import numpy as np
import pytest

from halfspace import (Grid, HalfSpaceField, UnknownExperiment,
                       build_poisson_kernel, build_system, kernels,
                       verify_kernel_properties)
from halfspace.containers import write_report
from halfspace.harness import (ExperimentConfig, _cone_holder,
                               _kernel_column_field, default_config,
                               experiment_names, parse_complex,
                               run_experiment, system_from_spec)


@pytest.mark.parametrize("shift", [None, (0.75, -0.5)])
@pytest.mark.parametrize("row", ["lap2", "lame2", "lame3_complex"])
def test_kernel_column_field_keeps_its_bits(row, shift, request):
    """The column's block carries the shift signs, so its unshifted inverse
    has the bits of the shifted inverse of the unsigned spectrum."""
    system = request.getfixturevalue(row)
    grid = Grid(n=system.n, N=64, h=0.25)
    levels = [0.1, 0.4, 1.6]
    a = np.eye(system.M, dtype=complex)[0]
    shift = None if shift is None else shift[:grid.d]
    nodes = grid.freq_nodes_fftorder()
    block = np.broadcast_to(a[:, None], (system.M, len(nodes)))
    spec = kernels.prepared_symbol(system, nodes).action(levels)(block)[0]
    if shift is not None:
        spec *= 1.0 - np.exp(-1j * nodes @ np.asarray(shift, float))
    sp = tuple(range(2, 2 + grid.d))
    want = np.moveaxis(np.fft.fftshift(np.fft.ifftn(
        spec.reshape(spec.shape[:2] + grid.shape), axes=sp)
        / grid.cell_volume, axes=sp), 1, -1)
    u = _kernel_column_field(system, grid, levels, a, shift=shift)
    assert np.array_equal(u.values, want)


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


def per_vertex_cone_holder(u, kappa, theta, seed):
    """The earlier _cone_holder: one cone at a time, quotients per cone."""
    rng = np.random.default_rng(seed)
    grid = u.grid
    pts = np.stack([m.ravel() for m in grid.meshes()], axis=-1)
    best = 0.0
    vidx = rng.integers(0, grid.node_count, 16)
    values = u.values.reshape(len(u.heights), -1, u.M)
    for v in vidx:
        dist = np.linalg.norm(pts - pts[v], axis=1)
        coords = []
        vals = []
        for li, t in enumerate(u.heights):
            take = np.flatnonzero(dist < kappa * t)
            if len(take) > 64:
                take = rng.choice(take, 64, replace=False)
            coords.append(np.column_stack([pts[take], np.full(len(take), t)]))
            vals.append(values[li, take])
        coords = np.concatenate(coords)
        vals = np.concatenate(vals)
        if len(coords) < 2:
            continue
        i = rng.integers(0, len(coords), 4000)
        j = rng.integers(0, len(coords), 4000)
        keep = i != j
        i, j = i[keep], j[keep]
        dv = np.linalg.norm(vals[i] - vals[j], axis=-1)
        dx = np.linalg.norm(coords[i] - coords[j], axis=-1)
        best = max(best, float((dv / dx ** theta).max()))
    return best


@pytest.mark.parametrize("seed", [0, 7, 12345])
@pytest.mark.parametrize("n,M", [(2, 1), (2, 3), (3, 1), (3, 3)])
def test_cone_holder_equals_per_vertex_loop(n, M, seed, monkeypatch):
    grid = Grid(n=n, N=128 if n == 2 else 24, h=0.25)
    rng = np.random.default_rng([n, M, seed])
    # from a lone vertex per level up to cones wider than 64 points
    hts = np.geomspace(0.1, grid.R, 14)
    shape = (len(hts),) + grid.shape + (M,)
    u = HalfSpaceField(grid=grid, heights=hts,
                       values=rng.standard_normal(shape)
                       + 1j * rng.standard_normal(shape))
    made = []
    real_rng = np.random.default_rng

    def recorded(seed):
        made.append(real_rng(seed))
        return made[-1]

    monkeypatch.setattr(np.random, "default_rng", recorded)
    got = _cone_holder(u, 1.0, 0.5, seed)
    want = per_vertex_cone_holder(u, 1.0, 0.5, seed)
    assert got.hex() == want.hex()
    assert made[0].bit_generator.state == made[1].bit_generator.state
    # a single level below h: every cone holds its vertex alone
    lone = HalfSpaceField(grid=grid, heights=[0.1],
                          values=u.values[:1].copy())
    assert _cone_holder(lone, 1.0, 0.5, seed) \
        == per_vertex_cone_holder(lone, 1.0, 0.5, seed) == 0.0
    assert made[2].bit_generator.state == made[3].bit_generator.state


def test_lp_wellposed_small_config():
    cfg = default_config("lp_wellposed", N=512, h=0.25, refine=False)
    rep = run_experiment(cfg)
    assert rep.passed
    assert rep.value("ratio_lower") >= 0.999
    assert np.isfinite(rep.value("ratio_upper"))


def test_lp_battery_takes_one_symbol_pass_per_grid(monkeypatch):
    """A default lp_wellposed run solves its seven data on each of its two
    grids (N and the refinement 2N) with one PreparedSymbol.levels call."""
    calls = []
    inner = kernels.PreparedSymbol.levels

    def counting(self, heights):
        calls.append((len(self.xi), len(heights)))
        return inner(self, heights)

    monkeypatch.setattr(kernels.PreparedSymbol, "levels", counting)
    rep = run_experiment(default_config("lp_wellposed"))
    assert rep.passed
    assert [nodes for nodes, _ in calls] == [1024, 2048]


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
@pytest.mark.parametrize("moduli", [([1, 0], [1, 0])], ids=["real"])
def test_lame3_wellposedness_small_config(name, moduli):
    """The L^p and L^infinity experiments on an n = 3 matrix system; the
    complex moduli are golden rows (GOLDEN_LAME3_ROWS)."""
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
# the n = 3 golden rows: complex Lame at N = 32, each pinned under its own
# stem, golden_stem(name, kw)
LAME3 = {"kind": "lame", "mu": [1, 0.3], "lambda": [2, -0.5], "n": 3}
GOLDEN_LAME3_ROWS = [
    (name, {"N": 32, "h": 0.25, "refine": False, "system": LAME3})
    for name in ("lp_wellposed", "linfty_maximum")]
GOLDEN = Path(__file__).parent / "golden"


def golden_stem(name, kw):
    return name + "_lame3" if kw.get("system") == LAME3 else name


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


@pytest.mark.parametrize("name,kw", GOLDEN_ROWS + SEED_ROWS + [
    pytest.param(*row, id=golden_stem(*row)) for row in GOLDEN_LAME3_ROWS])
def test_every_experiment_passes_at_small_scale(name, kw, tmp_path):
    rep = run_experiment(default_config(name, **kw))
    assert rep.passed, "\n".join(rep.summary_lines())
    if (name, kw) in GOLDEN_ROWS + GOLDEN_LAME3_ROWS:
        for path in write_report(tmp_path, rep, golden_stem(name, kw))[:2]:
            assert path.read_bytes() == (GOLDEN / path.name).read_bytes(), \
                "%s differs from its golden report" % path.name


def test_experiment_table_covered():
    assert sorted(name for name, _ in GOLDEN_ROWS) == experiment_names()


# the kernel report, PDE check included, at seed 0 on the session kernels
# lap2_kernel, lame2_kernel and lap3_kernel, built at N; tests/golden/ pins
# its JSON and CSV
KERNEL_GOLDEN_SYSTEMS = {
    "lap2": ("laplacian", {"n": 2}, 4096),
    "lame2": ("lame", {"n": 2, "mu": 1.0, "lam": 1.0}, 4096),
    "lap3": ("laplacian", {"n": 3}, 256)}


def write_kernel_report(outdir, name, system, built):
    table, kernel = built
    return write_report(outdir, verify_kernel_properties(
        system, kernel, table, seed=0), "kernel_properties_" + name)


@pytest.mark.parametrize("name", sorted(KERNEL_GOLDEN_SYSTEMS))
def test_kernel_report_matches_golden(name, request, tmp_path):
    kind, kw, N = KERNEL_GOLDEN_SYSTEMS[name]
    system = request.getfixturevalue(name)
    assert system.key() == build_system(kind, **kw).key()
    built = request.getfixturevalue(name + "_kernel")
    assert built[0].N == N
    for path in write_kernel_report(tmp_path, name, system, built)[:2]:
        assert path.read_bytes() == (GOLDEN / path.name).read_bytes(), \
            "%s differs from its golden report" % path.name


if __name__ == "__main__":
    # rewrite the golden reports: python tests/test_harness.py [stem ...],
    # every report, or those of the given stems (kernel_properties_lap2, ...)
    import sys
    rows = {golden_stem(name, kw): (name, kw)
            for name, kw in GOLDEN_ROWS + GOLDEN_LAME3_ROWS}
    kernel_rows = {"kernel_properties_" + name: name
                   for name in KERNEL_GOLDEN_SYSTEMS}
    known = list(rows) + list(kernel_rows)
    stems = sys.argv[1:] or known
    unknown = sorted(set(stems) - set(known))
    if unknown:
        sys.exit("unknown golden stems %s; known: %s"
                 % (", ".join(unknown), ", ".join(known)))
    for stem in stems:
        if stem in rows:
            name, kw = rows[stem]
            paths = write_report(GOLDEN, run_experiment(
                default_config(name, **kw)), stem)
        else:
            name = kernel_rows[stem]
            kind, kw, N = KERNEL_GOLDEN_SYSTEMS[name]
            system = build_system(kind, **kw)
            paths = write_kernel_report(GOLDEN, name, system,
                                        build_poisson_kernel(system, N=N))
        for path in paths[2:]:
            path.unlink()
