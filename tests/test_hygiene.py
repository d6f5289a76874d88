"""Source-level checks on the package itself."""

import ast
import os
import subprocess
import sys
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


def test_cli_imports_only_the_standard_library():
    # the package declares dependencies = []: importing the CLI in a fresh
    # interpreter may load nothing outside the standard library and qkneser
    probe = (
        "import sys; before = set(sys.modules); import qkneser.cli; "
        "print('\\n'.join(sorted(set(sys.modules) - before)))"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC.parent)] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                         env=env, timeout=60, check=True).stdout.split()
    assert "qkneser.cli" in out
    outside = [m for m in out if m.split(".")[0] not in sys.stdlib_module_names | {"qkneser"}]
    assert outside == []


def test_cli_start_up_loads_neither_dataclasses_nor_inspect():
    # every CLI call pays for its imports: the records are named tuples and
    # slotted classes, and verify imports inspect only to check an option
    probe = (
        "import sys; before = set(sys.modules); import qkneser.cli; "
        "print(sorted({'qkneser.cli', 'dataclasses', 'inspect'} & (set(sys.modules) - before)))"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC.parent)] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                         env=env, timeout=60, check=True).stdout.strip()
    assert out == "['qkneser.cli']"


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
    # name somewhere in the package or in bench/*.py (an import in
    # __init__.py reads no name, and a def is not a use of itself)
    modules = sorted(SRC.glob("*.py"))
    used = set().union(*map(_names_used, modules + sorted((SRC.parents[1] / "bench").glob("*.py"))))
    unused = [f"{path.name}:{node.name}"
              for path in modules if path.name != "__init__.py"
              for node in ast.parse(path.read_text(), filename=str(path)).body
              if isinstance(node, (ast.FunctionDef, ast.ClassDef))
              and not node.name.startswith("_") and node.name not in used]
    assert unused == []
