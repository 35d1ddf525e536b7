"""Source hygiene checks that stand in for a linter.

Every name a module in src/perivir imports must be used in that module,
listed in its __all__, or come from __future__. Every module-level private
name (a _-prefixed function, class or constant) must be read somewhere in
src/perivir. `perivir r0` must run without importing scipy or numpy.fft.
Every function perfbench/tracer.py wraps by name must exist in perivir.
"""

import ast
import importlib
import importlib.util
import math
import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "perivir"


def unused_imports(source: str) -> list[str]:
    """Names bound by import statements that the module never reads or exports."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used |= {elt.value for elt in node.value.elts
                     if isinstance(elt, ast.Constant) and isinstance(elt.value, str)}
    return sorted(f"line {line}: {name}" for name, line in imported.items()
                  if name not in used)


def unreferenced_private_names(sources: dict[str, str]) -> list[str]:
    """Module-level _-prefixed definitions that no module of `sources` reads.

    sources maps a module name to its text. A read is a loaded name, an
    attribute or an imported name; dunders are not private names.
    """
    defined = []
    used = set()
    for module, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            else:
                continue
            defined += [(module, node.lineno, name) for name in names
                        if name.startswith("_") and not name.startswith("__")]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.name)
    return [f"{module} line {line}: {name}" for module, line, name in defined
            if name not in used]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_detector_flags_unused_and_honours_all_and_future():
    source = ("from __future__ import annotations\n"
              "import math\nimport os\nfrom json import dumps, loads\n"
              "__all__ = ['dumps']\n"
              "x = math.pi\n")
    assert unused_imports(source) == ["line 3: os", "line 4: loads"]


def test_no_unreferenced_private_names():
    sources = {path.name: path.read_text() for path in sorted(SRC.glob("*.py"))}
    assert unreferenced_private_names(sources) == []


def test_private_name_detector_flags_unread_definitions():
    sources = {
        "a.py": ("__version__ = '1'\n"
                 "_USED, _UNUSED = 1, 2\n"
                 "def _helper():\n    return _USED\n"
                 "def _imported():\n    pass\n"
                 "def _orphan():\n    pass\n"
                 "class _Cls:\n    pass\n"
                 "class Box:\n    _slot: int = 0\n"),
        "b.py": "from a import _imported\nimport a\nx = a._helper()\n",
    }
    assert unreferenced_private_names(sources) == [
        "a.py line 2: _UNUSED", "a.py line 7: _orphan", "a.py line 9: _Cls"]


def test_r0_imports_neither_scipy_nor_numpy_fft():
    # start-up time and memory of every run pay for each module imported
    probe = ("import sys\n"
             "from perivir.cli import main\n"
             "assert main(['r0', '--config', 'configs/persistence.ini']) == 0\n"
             "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'"
             " or m.startswith('numpy.fft')))\n")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run([sys.executable, "-c", probe], cwd=ROOT, env=env,
                         capture_output=True, text=True, timeout=120, check=True)
    assert out.stdout.strip().splitlines()[-1] == "[]"


def _perfbench_tracer():
    """perfbench/tracer.py as a module; perfbench is a directory of scripts, not a package."""
    spec = importlib.util.spec_from_file_location("perfbench_tracer",
                                                  ROOT / "perfbench" / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_names_resolve_in_perivir():
    tracer = _perfbench_tracer()
    missing = [f"{mod}.{attr}" for mod, attr in [*tracer.SPANS, *tracer.LEAVES]
               if not callable(getattr(importlib.import_module(f"perivir.{mod}"), attr, None))]
    assert missing == []


def test_tracer_counts_monodromy_steps(monkeypatch):
    import perivir.cli  # noqa: F401  the tracer wraps names in every perivir module
    from perivir import reproduction

    from .helpers import persistence_params

    monkeypatch.setattr(reproduction, "_hill_r0", lambda lin, tol: math.nan)
    tracer = _perfbench_tracer().Tracer()
    tracer.install()
    try:
        reproduction.r0_periodic(persistence_params())
    finally:
        tracer.uninstall()
    assert tracer.snapshot()["counts"]["integrate.integrate_matrix.steps"] > 0
