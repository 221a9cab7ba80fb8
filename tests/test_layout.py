"""Module boundaries of the package.

- no src module takes a private name (one with a leading underscore,
  dunders aside) from another src module: neither by `from .<module> import
  _name` (or its absolute form) nor as `<module>._name` on a module it
  imported.  A module shares a helper by making it public.
- the cold import of hardsquares.cli stays cheap: a child started without
  site loads none of dataclasses, inspect, fractions, decimal or json, and
  no src module imports dataclasses or fractions.  The child still loads
  graphs, patterns, genfun, polynomials and necklaces, which the
  benchmark's tracer reaches through the cli module.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import hardsquares

SRC = Path(hardsquares.__file__).resolve().parent


def _private(name: str) -> bool:
    return name.startswith("_") and not name.endswith("__")


def _source_module(node: ast.ImportFrom):
    """The src module an import reads from ("" for the package itself), or
    None when it reads from outside the package."""
    if node.level:
        return node.module or ""
    head, _, rest = (node.module or "").partition(".")
    return rest if head == "hardsquares" else None


def private_crossings(path: Path):
    """(line, text) of every private name this module takes from another."""
    here = path.stem
    tree = ast.parse(path.read_text(), str(path))
    modules = {}  # local name -> the src module it is bound to
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            source = _source_module(node)
            if source is None:
                continue
            for alias in node.names:
                if source == "":  # from . import graphs
                    modules[alias.asname or alias.name] = alias.name
                elif source != here and _private(alias.name):
                    found.append((node.lineno, f"from {source} import {alias.name}"))
        elif isinstance(node, ast.Import):
            for alias in node.names:
                head, _, rest = alias.name.partition(".")
                if head == "hardsquares" and rest and alias.asname:
                    modules[alias.asname] = rest
                elif head == "hardsquares":
                    modules["hardsquares"] = ""
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Attribute) and _private(node.attr)):
            continue
        owner = node.value
        if isinstance(owner, ast.Name) and owner.id in modules:
            source = modules[owner.id]
        elif (isinstance(owner, ast.Attribute) and isinstance(owner.value, ast.Name)
              and modules.get(owner.value.id) == ""):
            source = owner.attr  # hardsquares.graphs._name
        else:
            continue
        if source not in ("", here):
            found.append((node.lineno, f"{source}.{node.attr}"))
    return sorted(found)


def test_no_src_module_takes_a_private_name_from_another():
    paths = sorted(SRC.glob("*.py"))
    assert {p.stem for p in paths} >= {"cli", "genfun", "graphs", "necklaces",
                                       "patterns", "polynomials", "reduction"}
    crossings = {p.stem: private_crossings(p) for p in paths}
    assert {m: c for m, c in crossings.items() if c} == {}


def test_the_guard_sees_every_import_form(tmp_path):
    probe = tmp_path / "necklaces.py"
    probe.write_text(
        "from .patterns import _parse, is_proper\n"
        "from hardsquares.graphs import _orbits\n"
        "from . import polynomials as poly\n"
        "import hardsquares.genfun\n"
        "from ._own import helper\n"
        "from .necklaces import _self_is_fine\n"
        "def f():\n"
        "    from .patterns import _block_count\n"
        "    return poly._prime_divisors(6), hardsquares.genfun._is_unit, poly.__name__\n")
    assert private_crossings(probe) == [
        (1, "from patterns import _parse"),
        (2, "from graphs import _orbits"),
        (8, "from patterns import _block_count"),
        (9, "genfun._is_unit"),
        (9, "polynomials._prime_divisors"),
    ]


def test_no_src_module_imports_dataclasses_or_fractions():
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            found += [(path.stem, name) for name in names
                      if name.partition(".")[0] in ("dataclasses", "fractions")]
    assert found == []


def test_cold_cli_import_loads_no_heavy_stdlib_module():
    heavy = ("dataclasses", "inspect", "fractions", "decimal", "json")
    traced = tuple(f"hardsquares.{m}" for m in
                   ("graphs", "patterns", "genfun", "polynomials", "necklaces"))
    probe = (f"import sys, hardsquares.cli; m = sys.modules; "
             f"print([n for n in {heavy!r} if n in m], all(n in m for n in {traced!r}))")
    proc = subprocess.run([sys.executable, "-S", "-c", probe], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": str(SRC.parent)})
    assert proc.returncode == 0 and proc.stdout == "[] True\n", proc.stderr
