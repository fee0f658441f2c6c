import numpy as np
import pytest

from halfspace import Grid, BoundaryData, build_system, poisson_extend
from halfspace.containers import (field_csv, kernel_slices_csv, load_field,
                                  load_kernel, load_symbol_table, save_field,
                                  save_kernel, save_symbol_table, write_report)
from halfspace.errors import BadShape
from halfspace.report import VerificationReport, make_metric


def test_kernel_roundtrip_bit_identical(tmp_path, lap2_kernel):
    table, kernel = lap2_kernel
    path = tmp_path / "k.bin"
    save_kernel(path, kernel)
    back = load_kernel(path)
    assert np.array_equal(back.values, kernel.values)
    assert back.grid == kernel.grid
    assert back.tail_constant == kernel.tail_constant
    assert back.normalization_residual == kernel.normalization_residual
    assert np.array_equal(back.system.coeffs, kernel.system.coeffs)
    # second save produces identical bytes
    path2 = tmp_path / "k2.bin"
    save_kernel(path2, back)
    assert path.read_bytes() == path2.read_bytes()


def test_symbol_roundtrip(tmp_path, lap2_kernel):
    table, _ = lap2_kernel
    path = tmp_path / "s.bin"
    save_symbol_table(path, table)
    back = load_symbol_table(path)
    assert np.array_equal(back.values, table.values)
    assert back.freq_extent == table.freq_extent
    assert back.decay_rate == table.decay_rate


def test_field_roundtrip(tmp_path, lap2):
    grid = Grid(n=2, N=256, h=0.25)
    f = BoundaryData(grid=grid,
                     samples=np.exp(-grid.axis() ** 2)[:, None].astype(complex))
    u = poisson_extend(lap2, f, [0.5, 1.0], gradient=True)
    path = tmp_path / "f.bin"
    save_field(path, u, lap2)
    back, system = load_field(path)
    assert np.array_equal(back.values, u.values)
    assert np.array_equal(back.gradient, u.gradient)
    assert np.array_equal(back.heights, u.heights)
    assert system.label == lap2.label


def test_magic_rejected(tmp_path):
    path = tmp_path / "junk.bin"
    path.write_bytes(b"NOTMAGIC" + b"\x00" * 64)
    with pytest.raises(BadShape):
        load_kernel(path)


def test_csv_exports(tmp_path, lap2, lap2_kernel):
    _, kernel = lap2_kernel
    kernel_slices_csv(tmp_path / "slices.csv", kernel)
    text = (tmp_path / "slices.csv").read_text().splitlines()
    assert text[0].startswith("x,absP_00")
    assert len(text) == kernel.grid.N + 1

    grid = Grid(n=2, N=64, h=0.25)
    f = BoundaryData(grid=grid,
                     samples=np.exp(-grid.axis() ** 2)[:, None].astype(complex))
    u = poisson_extend(lap2, f, [0.5])
    field_csv(tmp_path / "field.csv", u)
    rows = (tmp_path / "field.csv").read_text().splitlines()
    assert rows[0] == "node,t,re_0,im_0"
    assert len(rows) == 64 + 1


def test_report_emission(tmp_path):
    rep = VerificationReport(experiment="demo", fingerprint={"seed": 0})
    rep.metrics.append(make_metric("alpha", 0.5, 1.0, "le", "demo claim"))
    rep.plot_data["series"] = np.array([[1.0, 2.0], [3.0, 4.0]])
    paths = write_report(tmp_path, rep)
    names = {p.name for p in paths}
    assert names == {"demo.json", "demo.csv", "demo_series.dat"}
    assert "alpha" in (tmp_path / "demo.json").read_text()
    dat = (tmp_path / "demo_series.dat").read_text().splitlines()
    assert len(dat) == 2


def _saved_container(kind, tmp_path, lap2_kernel, lame2):
    """A container of ``kind`` written to tmp_path, with its save and load;
    the field is a Lame n = 2 one, with or without its gradient."""
    table, kernel = lap2_kernel
    path = tmp_path / (kind + ".bin")
    if kind == "kernel":
        save_kernel(path, kernel)
        return path, save_kernel, load_kernel
    if kind == "symbol":
        save_symbol_table(path, table)
        return path, save_symbol_table, load_symbol_table
    grid = Grid(n=2, N=64, h=0.25)
    f = BoundaryData(grid=grid, samples=np.exp(-grid.axis() ** 2)[:, None]
                     * np.array([1.0, 0.5j]))
    u = poisson_extend(lame2, f, [0.5, 1.0],
                       gradient=kind == "field_gradient")
    save_field(path, u, lame2)
    return path, lambda p, c: save_field(p, *c), load_field


CONTAINER_KINDS = ["kernel", "symbol", "field", "field_gradient"]


@pytest.mark.parametrize("kind", CONTAINER_KINDS)
def test_save_load_save_bytes_identical(kind, tmp_path, lap2_kernel, lame2):
    path, save, load = _saved_container(kind, tmp_path, lap2_kernel, lame2)
    again = tmp_path / "again.bin"
    save(again, load(path))
    assert again.read_bytes() == path.read_bytes()


@pytest.mark.parametrize("kind", CONTAINER_KINDS)
@pytest.mark.parametrize("cut", ["to12", "to40", "short8", "junk4"])
def test_bad_length_raises_bad_shape(kind, cut, tmp_path, lap2_kernel, lame2):
    path, _, load = _saved_container(kind, tmp_path, lap2_kernel, lame2)
    data = path.read_bytes()
    path.write_bytes({"to12": data[:12], "to40": data[:40],
                      "short8": data[:-8], "junk4": data + b"\0" * 4}[cut])
    with pytest.raises(BadShape, match=str(path)):
        load(path)


def test_long_label_roundtrip(tmp_path):
    rng = np.random.default_rng(7)
    mu, lam = rng.uniform(0.5, 1.5, 2) + 1j * rng.uniform(-0.3, 0.3, 2)
    system = build_system("lame", n=2, mu=mu, lam=lam)
    assert len(system.label.encode()) > 64
    grid = Grid(n=2, N=64, h=0.25)
    f = BoundaryData(grid=grid, samples=np.exp(-grid.axis() ** 2)[:, None]
                     * np.array([1.0, 0.0]))
    path = tmp_path / "long.bin"
    save_field(path, poisson_extend(system, f, [0.5]), system)
    field, back = load_field(path)
    assert back.label == system.label
    assert field.provenance["system"] == system.label
    assert np.array_equal(back.coeffs, system.coeffs)
