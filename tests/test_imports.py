"""Source guards on the package, by stdlib ``ast`` alone.

Every name a package module imports is used in that module.
``__init__.py`` re-exports what it imports, so it is exempt.  A name counts
as used when it appears as an identifier anywhere in the module (a call,
an annotation, an attribute root or a base class).  Every module-level
private name is read somewhere in the package besides its own definition,
or is named by the benchmark in ``perfbench/``.  The package reads the
environment in one place only, and runs its Fourier transforms in
``grids.py`` only, so that there is one path from spectrum to field.
A field's magnitudes have one home, ``HalfSpaceField.magnitude``.
"""
import ast
import re
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "halfspace"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


def test_detects_an_unused_import():
    assert unused_imports("import json\nimport os\nos.getcwd()\n") \
        == [(1, "json")]
    assert unused_imports("from a import b as c, d\nd()\n") == [(1, "c")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_uses_every_import(path):
    assert unused_imports(path.read_text()) == [], path.name


PERFBENCH = PACKAGE.parents[1] / "perfbench"


def _sources(paths) -> dict:
    return {p.stem: p.read_text() for p in paths}


def unread_private_names(sources: dict, outside: str = "") -> list:
    """``module._name`` for every module-level ``_name`` (not dunder) that
    no top-level statement of ``sources`` reads, other than the one that
    defines it, and that ``outside`` does not name.  A read is a loaded
    identifier, an attribute or an imported name."""
    defined, reads = [], []
    for module, source in sources.items():
        for stmt in ast.parse(source).body:
            names = set()
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                names.add(stmt.name)
            for target in (stmt.targets if isinstance(stmt, ast.Assign)
                           else [getattr(stmt, "target", None)]):
                if isinstance(target, ast.Name):
                    names.add(target.id)
            read = set()
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    read.add(node.id)
                elif isinstance(node, ast.Attribute):
                    read.add(node.attr)
                elif isinstance(node, ast.ImportFrom):
                    read.update(alias.name for alias in node.names)
            reads.append((module, stmt, read))
            defined += [(module, stmt, name) for name in names
                        if name.startswith("_") and not name.startswith("__")]
    return sorted("%s.%s" % (module, name) for module, stmt, name in defined
                  if not any(name in read for m, s, read in reads
                             if (m, s) != (module, stmt))
                  and not re.search(r"\b%s\b" % name, outside))


def environment_reads(sources: dict) -> list:
    """(module, top-level definition or None, key or None) for every use of
    ``environ`` or ``getenv``; the key is the constant that it is indexed
    or called with."""
    found = []
    for module, source in sources.items():
        for stmt in ast.parse(source).body:
            parent = {child: node for node in ast.walk(stmt)
                      for child in ast.iter_child_nodes(node)}
            for node in ast.walk(stmt):
                if not ((isinstance(node, ast.Attribute)
                         and node.attr in ("environ", "getenv"))
                        or (isinstance(node, ast.Name)
                            and node.id in ("environ", "getenv"))):
                    continue
                up = parent.get(node)
                if isinstance(up, ast.Attribute):       # environ.get(...)
                    up = parent.get(up)
                arg = (up.slice if isinstance(up, ast.Subscript)
                       else up.args[0] if isinstance(up, ast.Call) and up.args
                       else None)
                key = arg.value if isinstance(arg, ast.Constant) else None
                found.append((module, getattr(stmt, "name", None), key))
    return found


def test_detects_an_unread_private_name():
    source = ("_x = 1\n_y: int = 2\n__all__ = []\n"
              "def _f():\n    return _f()\n"
              "class _C:\n    pass\n"
              "print(_y)\n")
    other = "from m import _C\n"
    assert unread_private_names({"m": source}) == ["m._C", "m._f", "m._x"]
    assert unread_private_names({"m": source, "n": other}, "m._x") \
        == ["m._f"]


def test_every_private_name_is_read():
    assert unread_private_names(
        _sources(PACKAGE.glob("*.py")),
        "\n".join(_sources(PERFBENCH.glob("*.py")).values())) == []


def test_detects_environment_reads():
    source = ("import os\nfrom os import environ\n"
              "def f():\n    return os.environ.get('A')\n"
              "def g():\n    return os.getenv('B'), environ['C']\n"
              "X = os.environ\n")
    assert environment_reads({"m": source}) == [
        ("m", "f", "A"), ("m", "g", "B"), ("m", "g", "C"), ("m", None, None)]


def test_environment_read_in_one_place():
    assert environment_reads(_sources(PACKAGE.glob("*.py"))) == [
        ("solver", "worker_count", "HSP_THREADS")]


TRANSFORM = re.compile(r"i?[rh]?fft[2n]?")


def fft_transform_calls(source: str) -> list:
    """(line, name) for every call of a ``numpy.fft`` transform (fft, ifftn,
    rfft2, ihfft, ...; not fftfreq or fftshift), as ``np.fft.name(...)``,
    ``fft.name(...)`` or a name imported from ``numpy.fft``."""
    tree = ast.parse(source)
    imported = {alias.asname or alias.name
                for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom)
                and node.module == "numpy.fft"
                for alias in node.names if TRANSFORM.fullmatch(alias.name)}
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        fn = node.func
        root = getattr(fn, "value", None)
        in_fft = "fft" in (getattr(root, "attr", None),
                           getattr(root, "id", None))
        if isinstance(fn, ast.Attribute) and in_fft \
                and TRANSFORM.fullmatch(fn.attr):
            found.append((node.lineno, fn.attr))
        elif isinstance(fn, ast.Name) and fn.id in imported:
            found.append((node.lineno, fn.id))
    return sorted(found)


def test_detects_fft_transform_calls():
    source = ("import numpy as np\nfrom numpy import fft\n"
              "from numpy.fft import ifftn as inv, fftshift\n"
              "np.fft.fftfreq(4)\nfftshift(x)\nnp.fft.rfft2(x)\n"
              "fft.ihfft(x)\ninv(x)\nnp.fft.fftshift(np.fft.ifft(x))\n")
    assert fft_transform_calls(source) == [
        (6, "rfft2"), (7, "ihfft"), (8, "inv"), (9, "ifft")]


def test_transforms_run_in_grids_only():
    assert {p.name for p in PACKAGE.glob("*.py")
            if fft_transform_calls(p.read_text())} == {"grids.py"}


def values_norm_calls(source: str) -> list:
    """(line, enclosing class and function) for every ``np.linalg.norm``
    call (or a ``norm`` imported from ``numpy.linalg``) whose first argument
    is ``<expr>.values`` or a subscript of it; a difference such as
    ``u.values[i] - f.samples`` is not one."""
    tree = ast.parse(source)
    imported = {alias.asname or alias.name
                for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom)
                and node.module == "numpy.linalg"
                for alias in node.names if alias.name == "norm"}
    found = []

    def is_norm(fn):
        if isinstance(fn, ast.Name):
            return fn.id in imported
        root = getattr(fn, "value", None)
        return isinstance(fn, ast.Attribute) and fn.attr == "norm" \
            and "linalg" in (getattr(root, "attr", None),
                             getattr(root, "id", None))

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            scope = scope + (node.name,)
        if isinstance(node, ast.Call) and is_norm(node.func) and node.args:
            arg = node.args[0]
            while isinstance(arg, ast.Subscript):
                arg = arg.value
            if isinstance(arg, ast.Attribute) and arg.attr == "values":
                found.append((node.lineno, ".".join(scope)))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(tree, ())
    return sorted(found)


def test_detects_field_value_norms():
    source = ("import numpy as np\nfrom numpy.linalg import norm as nrm\n"
              "class F:\n    def magnitude(self):\n"
              "        return np.linalg.norm(self.values, axis=-1)\n"
              "def g(u, f):\n    np.linalg.norm(u.values[1:][0], axis=-1)\n"
              "    nrm(u.values)\n    np.linalg.norm(u.values[0] - f.samples)\n"
              "    np.linalg.norm(f.samples)\n    np.abs(u.values)\n")
    assert values_norm_calls(source) == [
        (5, "F.magnitude"), (7, "g"), (8, "g")]


def test_field_magnitudes_have_one_home():
    """No module takes the norm of a field's values outside
    HalfSpaceField.magnitude (which itself sums squares, with no norm)."""
    assert [(p.name, scope) for p in MODULES
            for _, scope in values_norm_calls(p.read_text())
            if scope != "HalfSpaceField.magnitude"] == []
