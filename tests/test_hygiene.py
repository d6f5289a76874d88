"""Source-level checks on the package itself."""

import ast
import os
import subprocess
import sys
from functools import lru_cache
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "qkneser"


def test_no_bare_assert_in_package():
    # python -O strips assert statements, so invariants must raise explicitly
    files = sorted(SRC.glob("*.py"))
    assert files, f"no sources found under {SRC}"
    found = [
        f"{path.name}:{node.lineno}"
        for path in files
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


# names a raise may use besides the classes of errors.py: control flow
# caught inside the package, GF.inv(0), gauss's exact-division invariant,
# and argparse's protocol for a bad option value (exit 2)
ALLOWED_RAISES = {"BudgetExhausted", "ZeroDivisionError", "ArithmeticError",
                  "argparse.ArgumentTypeError"}


def test_every_raise_names_a_package_error():
    # input errors reach callers as typed QKneserErrors, never as bare
    # built-ins; a bare `raise` re-raises what was caught and is not checked
    errors = {node.name for node in ast.parse((SRC / "errors.py").read_text()).body
              if isinstance(node, ast.ClassDef)}
    assert "QKneserError" in errors
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Raise) and node.exc is not None:
                name = ast.unparse(node.exc.func if isinstance(node.exc, ast.Call) else node.exc)
                if name not in errors | ALLOWED_RAISES:
                    found.append(f"{path.name}:{node.lineno}: {name}")
    assert found == []


@lru_cache(maxsize=None)
def _loaded_by(module: str) -> tuple[str, ...]:
    """The modules a fresh interpreter loads to import `module`, sorted."""
    probe = (f"import sys; before = set(sys.modules); import {module}; "
             "print(' '.join(sorted(set(sys.modules) - before)))")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC.parent)] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    return tuple(subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                                env=env, timeout=60, check=True).stdout.split())


def test_cli_imports_only_the_standard_library():
    # the package declares dependencies = []: importing the CLI in a fresh
    # interpreter may load nothing outside the standard library and qkneser
    out = _loaded_by("qkneser.cli")
    assert "qkneser.cli" in out
    outside = [m for m in out if m.split(".")[0] not in sys.stdlib_module_names | {"qkneser"}]
    assert outside == []


def test_cli_start_up_loads_neither_dataclasses_nor_inspect():
    # every CLI call pays for its imports: the records are named tuples and
    # slotted classes, and verify imports inspect only to check an option
    out = _loaded_by("qkneser.cli")
    assert sorted({"qkneser.cli", "dataclasses", "inspect"} & set(out)) == ["qkneser.cli"]


def test_no_dataclasses_import_in_package():
    files = sorted(SRC.glob("*.py"))
    assert files, f"no sources found under {SRC}"
    found = [
        f"{path.name}:{node.lineno}"
        for path in files
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Import) and any(a.name == "dataclasses" for a in node.names)
        or isinstance(node, ast.ImportFrom) and node.module == "dataclasses"
    ]
    assert found == []


# the modules behind the counting formulas, the graphs, the decompositions
# and the independent-set certificates work in exact integers
FORMULA_MODULES = ("qcount.py", "gf.py", "subspace.py", "graph.py", "td.py", "ekr.py", "cliques.py")


def test_no_float_arithmetic_in_formula_paths():
    found = [
        f"{name}:{node.lineno}"
        for name in FORMULA_MODULES
        for node in ast.walk(ast.parse((SRC / name).read_text(), filename=name))
        if isinstance(node, ast.Div)
        or isinstance(node, ast.Constant) and isinstance(node.value, (float, complex))
    ]
    assert found == []


def test_package_parses_as_python_3_10():
    # pyproject.toml promises requires-python >= 3.10; newer syntax (except*,
    # PEP 695 generics) would break that floor without failing on 3.11+
    pyproject = (SRC.parents[1] / "pyproject.toml").read_text()
    assert 'requires-python = ">=3.10"' in pyproject
    files = sorted(SRC.glob("*.py"))
    assert files, f"no sources found under {SRC}"
    for path in files:
        ast.parse(path.read_text(), filename=str(path), feature_version=(3, 10))


def _names_used(path: Path) -> set[str]:
    return {node.id if isinstance(node, ast.Name) else node.attr
            for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
            if isinstance(node, (ast.Name, ast.Attribute))}


def test_every_public_name_has_a_caller():
    # reference code that only tests call lives in tests/, not in the
    # package: each public top-level function and class must be read as a
    # name somewhere in the package or in bench/*.py (a def is not a use
    # of itself)
    modules = sorted(SRC.glob("*.py"))
    used = set().union(*map(_names_used, modules + sorted((SRC.parents[1] / "bench").glob("*.py"))))
    unused = [f"{path.name}:{node.name}"
              for path in modules
              for node in ast.parse(path.read_text(), filename=str(path)).body
              if isinstance(node, (ast.FunctionDef, ast.ClassDef))
              and not node.name.startswith("_") and node.name not in used]
    assert unused == []


def _bound_names(tree: ast.Module) -> set[str]:
    # the names a module binds at top level by a def, a class or an
    # assignment; an import binds none here
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name))
    return names


def test_init_binds_only_the_version():
    # each name has one import route: from the module that defines it
    tree = ast.parse((SRC / "__init__.py").read_text())
    assert [node.lineno for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom))] == []
    assert _bound_names(tree) == {"__version__"}


def test_a_module_loads_only_what_it_imports():
    # with no re-exports in __init__.py the counting formulas load without
    # the graph and solver modules; the CLI imports every module itself,
    # which bench/spans.py relies on when it wraps them after that import
    loaded = {module: [m for m in _loaded_by(module) if m.partition(".")[0] == "qkneser"]
              for module in ("qkneser.qcount", "qkneser.cli")}
    assert loaded["qkneser.qcount"] == ["qkneser", "qkneser.errors", "qkneser.qcount"]
    assert loaded["qkneser.cli"] == sorted(
        "qkneser" if path.stem == "__init__" else f"qkneser.{path.stem}"
        for path in SRC.glob("*.py"))


def test_every_import_names_the_defining_module():
    # `from .graph import gauss` would reach qcount's gauss through graph,
    # and `from qkneser import Params` through the package root; a name is
    # imported, or read off an imported module, from the module whose def,
    # class or assignment binds it.  Checked in the package and in every
    # script that imports it.
    root = SRC.parents[1]
    defined = {path.stem: _bound_names(ast.parse(path.read_text())) for path in SRC.glob("*.py")}
    files = sorted(SRC.glob("*.py")) + sorted(
        path for folder in ("demos", "tests", "bench") for path in (root / folder).glob("*.py"))
    assert "qcount" in defined and len(files) > len(defined)
    found = []
    for path in files:
        tree = ast.parse(path.read_text(), filename=str(path))
        where = f"{path.relative_to(root)}:"
        modules = {}  # local name -> the package module imported under it
        for node in ast.walk(tree):
            if not isinstance(node, ast.ImportFrom):
                continue
            if node.level == 1 and path.parent == SRC:
                module = node.module or "__init__"
            elif node.level == 0 and (node.module or "").partition(".")[0] == "qkneser":
                module = node.module.partition(".")[2] or "__init__"
            else:
                continue
            for alias in node.names:
                if module == "__init__" and alias.name in defined:
                    modules[alias.asname or alias.name] = alias.name
                elif alias.name not in defined.get(module, ()):
                    found.append(f"{where}{node.lineno}: {alias.name} from {module}")
        found += [f"{where}{node.lineno}: {node.value.id}.{node.attr}"
                  for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                  and node.value.id in modules
                  and node.attr not in defined[modules[node.value.id]]]
    assert found == []
