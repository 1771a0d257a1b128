"""Every module-level import in the package is used by its module, no module
imports another inside a function, and no module relies on ``assert``, which
``python -O`` strips."""

import ast
import os
import pathlib
import subprocess
import sys

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "coxdescent"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
ALL_MODULES = sorted(SRC.glob("*.py"))


def unused_imports(source):
    """Names bound by module-level imports that the module never reads."""
    tree = ast.parse(source)
    bound = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [a.asname or a.name for a in node.names]
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [name for name in bound if name not in used]


def test_detects_an_unused_import():
    assert unused_imports("import os\nfrom a import b, c as d\nprint(d)\n") == ["os", "b"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_module_imports(path):
    assert unused_imports(path.read_text()) == []


def local_package_imports(source):
    """Line numbers of the relative imports below module level."""
    tree = ast.parse(source)
    top = {id(n) for n in tree.body}
    return [n.lineno for n in ast.walk(tree)
            if isinstance(n, ast.ImportFrom) and n.level >= 1 and id(n) not in top]


def test_detects_a_local_package_import():
    source = "from . import a\ndef f():\n    from .b import c\n    import os\n"
    assert local_package_imports(source) == [3]


@pytest.mark.parametrize("path", ALL_MODULES, ids=lambda p: p.name)
def test_no_function_local_package_imports(path):
    # modules reach each other only through module-level imports, so the
    # import graph is the layering
    assert local_package_imports(path.read_text()) == []


def bare_asserts(source):
    """Line numbers of the assert statements in a module."""
    return [n.lineno for n in ast.walk(ast.parse(source)) if isinstance(n, ast.Assert)]


def test_detects_a_bare_assert():
    assert bare_asserts("def f(x):\n    assert x\n    raise AssertionError\n") == [2]


@pytest.mark.parametrize("path", ALL_MODULES, ids=lambda p: p.name)
def test_no_bare_asserts(path):
    assert bare_asserts(path.read_text()) == []


def cli_imports(names):
    """The named modules that ``import coxdescent.cli`` loads in a fresh interpreter."""
    code = ("import sys, coxdescent.cli\n"
            "print(sorted(m for m in %r if m in sys.modules))" % (names,))
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=60, env=env)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_cli_imports_no_fractions_or_decimal():
    # gradings are solved on integers; fractions (and the decimal module it
    # imports) cost every CLI process about 4 ms
    assert cli_imports(("fractions", "decimal")) == "[]\n"


def test_cli_imports_no_dataclasses_or_inspect():
    # the result types are namedtuples; dataclasses (and the inspect, ast and
    # dis modules it imports) cost every CLI process about 14 ms
    assert cli_imports(("dataclasses", "inspect")) == "[]\n"
