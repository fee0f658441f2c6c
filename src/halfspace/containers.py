"""Flat binary containers and CSV/plot exports for kernels and fields.

Layout: eight-byte magic, the system (header, full label, tensor), a struct
header carrying the geometry, then raw row-major arrays, all little-endian.
Round-trips are bit-identical; a short or over-long file raises BadShape.
"""
from __future__ import annotations

import csv
import struct
from pathlib import Path

import numpy as np

from .errors import BadShape
from .grids import Grid
from .kernels import PoissonKernelGrid, PoissonSymbolTable
from .solver import HalfSpaceField
from .systems import EllipticSystem

__all__ = [
    "save_kernel", "load_kernel", "save_symbol_table", "load_symbol_table",
    "save_field", "load_field", "kernel_slices_csv", "field_csv",
    "write_plot_data", "write_report",
]

_MAGIC = {"kernel": b"HSPKERN1", "symbol": b"HSPSYMB1", "field": b"HSPFELD1"}
_SYSTEM = "<II d I"     # n, M, ellipticity margin, label length


def _save(path, kind: str, system: EllipticSystem, head_fmt: str, head,
          arrays):
    """Write the one layout: magic, system header, label, tensor, the
    struct header ``head``, then each array as raw row-major bytes."""
    label = system.label.encode()
    with open(path, "wb") as fh:
        fh.write(_MAGIC[kind])
        fh.write(struct.pack(_SYSTEM, system.n, system.M,
                             system.ellipticity_margin, len(label)))
        fh.write(label)
        fh.write(np.ascontiguousarray(system.coeffs, dtype=complex).tobytes())
        fh.write(struct.pack(head_fmt, *head))
        for arr in arrays:
            fh.write(np.ascontiguousarray(arr).tobytes())


def _load(path, kind: str, head_fmt: str, layout):
    """Read the layout ``_save`` writes; ``layout(system, head)`` lists the
    (dtype, shape) of each array.  A wrong magic, a short file or bytes
    left after the last array raise BadShape."""
    data = Path(path).read_bytes()
    if data[:8] != _MAGIC[kind]:
        raise BadShape("not a %s container: %s" % (kind, path))
    pos = 8

    def take(size: int) -> bytes:
        nonlocal pos
        if pos + size > len(data):
            raise BadShape("%s container %s is cut short" % (kind, path))
        pos += size
        return data[pos - size:pos]

    def array(dtype, shape):
        size = int(np.prod(shape)) * np.dtype(dtype).itemsize
        return np.frombuffer(take(size), dtype=dtype).reshape(shape).copy()

    n, M, margin, lab_len = struct.unpack(_SYSTEM, take(20))
    label = take(lab_len).decode()
    system = EllipticSystem(n=n, M=M, coeffs=array(complex, (M, M, n, n)),
                            ellipticity_margin=margin, label=label)
    head = struct.unpack(head_fmt, take(struct.calcsize(head_fmt)))
    arrays = [array(dtype, shape) for dtype, shape in layout(system, head)]
    if pos != len(data):
        raise BadShape("%s container %s has %d bytes after its payload"
                       % (kind, path, len(data) - pos))
    return system, head, arrays


def _table_layout(system: EllipticSystem, head) -> list:
    """A kernel's or symbol's values: (N,)^(n-1) nodes of M x M blocks."""
    return [(complex, (head[0],) * (system.n - 1) + (system.M, system.M))]


def save_kernel(path, kernel: PoissonKernelGrid):
    extent = float(kernel.meta.get("freq_extent", np.pi / kernel.grid.h))
    _save(path, "kernel", kernel.system, "<I dddddd",
          (kernel.grid.N, extent, kernel.grid.R, kernel.grid.h,
           kernel.tail_constant, kernel.normalization_residual,
           kernel.normalization_residual_full), [kernel.values])


def load_kernel(path) -> PoissonKernelGrid:
    system, (N, extent, R, h, tail_c, res, res_full), (values,) = _load(
        path, "kernel", "<I dddddd", _table_layout)
    return PoissonKernelGrid(system=system, grid=Grid(n=system.n, N=N, h=h),
                             values=values, tail_constant=tail_c,
                             normalization_residual=res,
                             normalization_residual_full=res_full,
                             meta={"freq_extent": extent})


def save_symbol_table(path, table: PoissonSymbolTable):
    _save(path, "symbol", table.system, "<I dd",
          (table.N, table.freq_extent, table.decay_rate), [table.values])


def load_symbol_table(path) -> PoissonSymbolTable:
    system, (N, extent, rate), (values,) = _load(
        path, "symbol", "<I dd", _table_layout)
    return PoissonSymbolTable(system=system, freq_extent=extent, N=N,
                              values=values, decay_rate=rate)


def save_field(path, field: HalfSpaceField, system: EllipticSystem):
    grad = [] if field.gradient is None else [field.gradient]
    _save(path, "field", system, "<I d I I",
          (field.grid.N, field.grid.h, len(field.heights), len(grad)),
          [np.asarray(field.heights, dtype=float), field.values] + grad)


def _field_layout(system: EllipticSystem, head) -> list:
    N, _, L, has_grad = head
    values = (L,) + (N,) * (system.n - 1) + (system.M,)
    layout = [(float, (L,)), (complex, values)]
    if has_grad:
        layout.append((complex, values[:-1] + (system.n, system.M)))
    return layout


def load_field(path):
    system, (N, h, _, _), (heights, values, *grad) = _load(
        path, "field", "<I d I I", _field_layout)
    field = HalfSpaceField(grid=Grid(n=system.n, N=N, h=h), heights=heights,
                           values=values, gradient=grad[0] if grad else None,
                           provenance={"system": system.label})
    return field, system


def kernel_slices_csv(path, kernel: PoissonKernelGrid):
    """Axis slices of |P| entries for plotting."""
    ax = kernel.grid.axis()
    M = kernel.system.M
    centre = (kernel.grid.N // 2,) * (kernel.grid.d - 1)
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["x"] + ["absP_%d%d" % (i, j)
                            for i in range(M) for j in range(M)])
        for k, x in enumerate(ax):
            if kernel.grid.d == 1:
                block = kernel.values[k]
            else:
                block = kernel.values[(k,) + centre]
            w.writerow([repr(float(x))] +
                       [repr(float(abs(block[i, j])))
                        for i in range(M) for j in range(M)])


def field_csv(path, field: HalfSpaceField):
    """(index, t, re/im per component) rows for every node and level."""
    M = field.M
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["node", "t"] + ["re_%d" % b for b in range(M)]
                   + ["im_%d" % b for b in range(M)])
        flat = field.values.reshape(len(field.heights), -1, M)
        for li, t in enumerate(field.heights):
            for node in range(flat.shape[1]):
                v = flat[li, node]
                w.writerow([node, repr(float(t))]
                           + [repr(float(x.real)) for x in v]
                           + [repr(float(x.imag)) for x in v])


def write_plot_data(outdir, report):
    """Two-column gnuplot-ready .dat files from a report's plot series."""
    outdir = Path(outdir)
    written = []
    for name, arr in report.plot_data.items():
        arr = np.asarray(arr, dtype=float)
        path = outdir / ("%s_%s.dat" % (report.experiment, name))
        with open(path, "w") as fh:
            for row in arr:
                fh.write("%r %r\n" % (float(row[0]), float(row[1])))
        written.append(path)
    return written


def write_report(outdir, report, stem: str | None = None):
    """Emit a report as canonical JSON and CSV; returns the paths."""
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    stem = stem or report.experiment
    jpath = outdir / (stem + ".json")
    jpath.write_text(report.to_json())
    cpath = outdir / (stem + ".csv")
    with open(cpath, "w", newline="") as fh:
        csv.writer(fh).writerows(report.csv_rows())
    paths = [jpath, cpath]
    paths.extend(write_plot_data(outdir, report))
    return paths
