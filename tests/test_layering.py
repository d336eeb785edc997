"""The package's layering, read from its source with ``ast``.

File I/O lives in ``modelvault._files`` alone: its ``_atomic_output`` is
the one place that creates a temp file and renames it over an output,
and its ``_open_input`` the one place that opens a model or an artifact.
No other module calls a file method such as ``Path.write_text`` either.
No module reaches into the private names of ``sealer`` or ``unsealer``,
so unsealing does not depend on the seal loop. No module but
``__init__``, which re-exports, imports a name it never uses, so a
helper that a refactor retires does not linger in an import list.
Importing the package loads neither the standard library's HTTP modules
nor ``ssl``.
"""

from __future__ import annotations

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import modelvault

PACKAGE = Path(modelvault.__file__).parent
MODULES = sorted(PACKAGE.glob("*.py"))
# (module, function) pairs that only _files may call.
FILE_CALLS = {("tempfile", "mkstemp"), ("os", "replace"), ("os", "open"), (None, "open")}
# Methods that only _files may call, on any receiver, as pathlib's I/O is
# called on a Path: ``(out_dir / "bench.md").write_text(...)``.
FILE_METHODS = {"open", "read_bytes", "write_bytes", "read_text", "write_text"}


def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def _called(tree: ast.Module):
    """``(module, function)`` of every call of a name or of a module's attribute."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Name):
                yield None, func.id
            elif isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name):
                yield func.value.id, func.attr


def _methods(tree: ast.Module):
    """The name of every method called, whatever its receiver is."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            yield node.func.attr


def _private_imports(tree: ast.Module):
    """``(module, name)`` of every underscore name imported from sealer or unsealer."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module:
            module = node.module.rpartition(".")[2]
            if module in ("sealer", "unsealer") and (node.level or
                                                    node.module.startswith("modelvault.")):
                yield from ((module, alias.name) for alias in node.names
                            if alias.name.startswith("_"))


def _unused_imports(tree: ast.Module) -> list[str]:
    """Every name that ``tree`` imports and never reads, ``__future__`` features aside."""
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported += [alias.asname or alias.name.partition(".")[0] for alias in node.names
                         if alias.name != "*"]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in read]


def test_the_package_is_found():
    names = {path.stem for path in MODULES}
    assert {"_files", "sealer", "unsealer", "cli", "bench"} <= names


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.stem)
def test_no_module_imports_private_names_of_sealer_or_unsealer(path):
    assert list(_private_imports(_tree(path))) == []


@pytest.mark.parametrize("path", [p for p in MODULES if p.stem != "_files"],
                         ids=lambda path: path.stem)
def test_only_files_opens_creates_or_renames(path):
    assert set(_called(_tree(path))) & FILE_CALLS == set()
    assert set(_methods(_tree(path))) & FILE_METHODS == set()


@pytest.mark.parametrize("path", [p for p in MODULES if p.stem != "__init__"],
                         ids=lambda path: path.stem)
def test_no_module_imports_a_name_it_never_uses(path):
    assert _unused_imports(_tree(path)) == []


def test_files_holds_the_calls_it_is_checked_for():
    # A check that finds nothing anywhere would pass on any source.
    assert set(_called(_tree(PACKAGE / "_files.py"))) >= FILE_CALLS


def test_the_checks_catch_what_they_look_for():
    tree = ast.parse("from .sealer import _atomic_output, seal\n"
                     "from modelvault.unsealer import _read_whole\n"
                     "from .crypto import _wipe\n"
                     "fd, name = tempfile.mkstemp()\n"
                     "os.replace(name, 'x')\n"
                     "open('x', 'rb')\n"
                     "(out_dir / 'bench.md').write_text('x')\n"
                     "Path('x').read_bytes()\n"
                     "case['out_path'].write_bytes(b'')\n"
                     "self.path.read_text()\n"
                     "path.open('rb')\n")
    assert list(_private_imports(tree)) == [("sealer", "_atomic_output"),
                                           ("unsealer", "_read_whole")]
    assert set(_called(tree)) & FILE_CALLS == {("tempfile", "mkstemp"), ("os", "replace"),
                                               (None, "open")}
    assert set(_methods(tree)) & FILE_METHODS == FILE_METHODS


def test_the_unused_import_check_sees_every_kind_of_use():
    tree = ast.parse("from __future__ import annotations\n"
                     "import os.path, struct as st, zlib\n"
                     "from .container import HEADER_SIZE, decode, header_len\n"
                     "from .crypto import *\n"
                     "def f(head: HEADER_SIZE) -> None:\n"
                     "    return decode(head, os.path.getsize(st))\n")
    assert _unused_imports(tree) == ["zlib", "header_len"]


def test_importing_the_package_loads_no_stdlib_http_or_tls():
    # The key flow speaks its own HTTP/1.1, and ssl loads only for an https URL.
    heavy = ("http.client", "http.server", "email.parser", "ssl")
    code = f"import sys, modelvault; print([m for m in {heavy!r} if m in sys.modules])"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")])))
    loaded = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                            text=True, timeout=60, check=True)
    assert loaded.stdout.strip() == "[]"
