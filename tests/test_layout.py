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
- the "schema" key of a JSON document has one owner, cli._emit_json: the
  src modules that spell "schema" as a dict key (in a dict display, a
  subscript or a dict() keyword) are exactly cli and necklaces, whose
  per-class key waits on ROADMAP item 6.
- every behaviour has one public path: each public top-level function,
  class or assignment (a constant) of a src module, and each public method
  of a src class, is named somewhere outside its own body or statement (an
  identifier, attribute, import alias or string constant that is a dotted
  name, in src or in perfbench/*.py; docstrings and comments do not
  count), or it is on KEEP with its reason.  KEEP holds exactly the names
  the scan would flag, so an entry that gains a caller leaves it.
  Test-only fixtures and oracles live in tests/helpers.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import hardsquares

SRC = Path(hardsquares.__file__).resolve().parent
BENCH = Path(__file__).resolve().parent.parent / "perfbench"

# Public names that nothing names outside their own body, kept for a reason
# the code does not show.  Names that only perfbench names need no entry:
# the tracer wraps patterns.is_proper by name, though no src code calls it
# (test_cli pins that every traced name resolves), and perfbench/sweep.py
# drives residue_edge, simplify, replay_trace and ReductionState.witten;
# they stay while the benchmark reads them.
KEEP = {
    "patterns.masked_graph":
        "the brute route for pattern series, a paper claim: "
        "z_pattern_series is checked against witten_brute on it",
    "graphs.Graph.without_edge":
        "the index form of edge removal, Z(G - e) = Z(G) + Z(residue); the "
        "edge rule of ROADMAP item 3 gives it a src caller",
    "reduction.detect_configuration":
        "the one-step contractibility certificates of the paper's part 1, "
        "which the edge rule builds on",
}


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


def spells_schema_key(path: Path) -> bool:
    """Does the module spell "schema" as a dict key?"""
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Dict):
            keys = node.keys
        elif isinstance(node, ast.Subscript):
            keys = [node.slice]
        elif isinstance(node, ast.keyword):
            if node.arg == "schema":
                return True
            continue
        else:
            continue
        if any(isinstance(k, ast.Constant) and k.value == "schema" for k in keys):
            return True
    return False


def test_only_cli_and_necklaces_spell_a_schema_key():
    spellers = {p.stem for p in sorted(SRC.glob("*.py")) if spells_schema_key(p)}
    assert spellers == {"cli", "necklaces"}


def test_the_schema_guard_sees_every_key_form(tmp_path):
    forms = {"display": 'doc = {"n": 1, "schema": 1}\n',
             "subscript": 'doc = {}\ndoc["schema"] = 1\n',
             "keyword": 'doc = dict(schema=1)\n',
             "prose": '"""Every document gets "schema": 1 from cli."""\n'
                      'doc = {"n": "schema"}\n'}
    for name, text in forms.items():
        (tmp_path / f"{name}.py").write_text(text)
    seen = {name for name in forms if spells_schema_key(tmp_path / f"{name}.py")}
    assert seen == {"display", "subscript", "keyword"}


def _definitions(tree: ast.Module):
    """(qualified name, node) of each public top-level function, class and
    assignment, and each public method of a top-level class."""
    for node in tree.body:
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name) and not name.id.startswith("_"):
                        yield name.id, node
            continue
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            continue
        if not node.name.startswith("_"):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    yield f"{node.name}.{item.name}", item


def _uses(tree: ast.Module):
    """(name, line) of every identifier, attribute and import alias in the
    tree, and the last part of every string constant that is a dotted
    name (a docstring is not)."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, ast.alias):
            yield node.name.rpartition(".")[2], node.lineno
            if node.asname:
                yield node.asname, node.lineno
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and all(part.isidentifier() for part in node.value.split("."))):
            yield node.value.rpartition(".")[2], node.lineno


def unreferenced(src_paths, bench_paths):
    """module.name of every public src definition that no src or bench file
    names outside the definition's own body.  Names match by spelling, so
    a name that shares its spelling with a used one is never reported."""
    trees = {path: ast.parse(path.read_text(), str(path))
             for path in (*src_paths, *bench_paths)}
    seen = {}  # name -> the (path, line) places it is named
    for path, tree in trees.items():
        for name, line in _uses(tree):
            seen.setdefault(name, []).append((path, line))
    found = []
    for path in src_paths:
        for qualified, node in _definitions(trees[path]):
            name = qualified.rpartition(".")[2]
            if not any(where != path or not node.lineno <= line <= node.end_lineno
                       for where, line in seen.get(name, ())):
                found.append(f"{path.stem}.{qualified}")
    return sorted(found)


def test_every_public_src_name_has_a_use_outside_its_body():
    src, bench = sorted(SRC.glob("*.py")), sorted(BENCH.glob("*.py"))
    assert {p.stem for p in bench} >= {"tracer", "sweep"}
    assert unreferenced(src, bench) == sorted(KEEP)


def test_the_use_guard_sees_every_reference_form(tmp_path):
    (tmp_path / "src").mkdir()
    (tmp_path / "bench").mkdir()
    shape = tmp_path / "src" / "shape.py"
    shape.write_text(
        'def imported(): pass\n'
        'def aliased(): pass\n'
        'def called(): pass\n'
        'def recursive(n):\n'
        '    return recursive(n - 1)\n'
        'def only_in_a_docstring(): pass\n'
        'def traced(): pass\n'
        'def dotted(): pass\n'
        'def commented(): pass\n'
        'def _private(): pass\n'
        'LIMIT = 3\n'
        'SPARE: int = LIMIT\n'
        'PAIR, _HIDDEN = SELF = (SELF, 0)\n'
        'class Box:\n'
        '    def read(self): return self.write()\n'
        '    def write(self): return Box()\n'
        '    def spare(self): pass\n'
        '    def __len__(self): return 0\n')
    user = tmp_path / "src" / "user.py"
    user.write_text(
        '"""Not a use: shape.only_in_a_docstring"""\n'
        'from .shape import imported, aliased as other\n'
        'from . import shape\n'
        'def main():\n'
        '    return shape.called(), shape.Box().read(), shape.LIMIT\n')
    bench = tmp_path / "bench" / "tracer.py"
    bench.write_text('TRACED = {"shape": {"traced": {}}}  # commented\n'
                     'DISTINCT = ("shape.dotted",)\n')
    assert unreferenced([shape, user], [bench]) == [
        "shape.Box.spare",
        "shape.PAIR",
        "shape.SELF",
        "shape.SPARE",
        "shape.commented",
        "shape.only_in_a_docstring",
        "shape.recursive",
        "user.main",
    ]
