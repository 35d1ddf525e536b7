"""Source hygiene checks that stand in for a linter.

Every name a module in src/perivir imports must be used in that module,
listed in its __all__, or come from __future__. Every module-level private
name (a _-prefixed function, class or constant) and every module-level
UPPER_CASE constant must be read somewhere in src/perivir. Every field of
a dataclass in src/perivir must be read as an attribute somewhere in
src/perivir, tests, demos or perfbench. `perivir r0`
must run without importing scipy or numpy.fft.
Every exception class defined in src/perivir must be one that `perivir.cli.main`
maps to an exit code: a NumericalFailure (3) or a config-clause type (2).
No code in src/perivir calls isinstance(..., State): a State converts itself
through np.asarray and State.from_array, so no caller switches on its type.
Imports run one way: a module imports only perivir modules below it in
model < integrate < periodic < reproduction < analysis < cli, and
svgplot imports none, inside functions as at the top.
Every function perfbench/tracer.py wraps by name must exist in perivir, and
`integrate` must keep the signature the tracer's wrapper assumes. Every
`integrate` call of the warm start and of Newton shooting starts from an
ndarray, since the tracer takes the state width as len(y0).
The float stepping loop, the step kernels and field forms it generates and
the float field formulas call neither builtin `sum` nor `math.fsum`: since
Python 3.12 float `sum` is compensated, so a result would depend on the
interpreter version.
No docstring or comment in src/perivir states a timing or a memory figure
(a number followed by µs, us, ms, KB or MB): README's numerical notes are
their one home, so a performance change edits them in one place.
Every functools.cache or lru_cache in src/perivir is one of the process
caches named here: whatever is held for the process is held on purpose.
No module that pytest collects or loads imports mpmath or
tests/mp_references.py, since CI installs mpmath only for the step that
runs that module.
"""

import ast
import importlib
import importlib.util
import inspect
import io
import math
import os
import pathlib
import re
import subprocess
import sys
import tokenize

import numpy as np
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


def _unread_definitions(sources: dict[str, str], chosen) -> list[str]:
    """Module-level definitions chosen(node, name) selects that no module of `sources` reads.

    sources maps a module name to its text; node is the defining statement.
    A read is a loaded name, an attribute or an imported name.
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
            defined += [(module, node.lineno, name) for name in names if chosen(node, name)]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.name)
    return [f"{module} line {line}: {name}" for module, line, name in defined
            if name not in used]


def unreferenced_private_names(sources: dict[str, str]) -> list[str]:
    """Module-level _-prefixed definitions that no module of `sources` reads; dunders are not private."""
    return _unread_definitions(
        sources, lambda node, name: name.startswith("_") and not name.startswith("__"))


def unread_constants(sources: dict[str, str]) -> list[str]:
    """Module-level UPPER_CASE assignments that no module of `sources` reads."""
    return _unread_definitions(sources, lambda node, name: (
        isinstance(node, (ast.Assign, ast.AnnAssign)) and name.isupper()))


def _is_dataclass(node: ast.ClassDef) -> bool:
    for dec in node.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        if (isinstance(target, ast.Name) and target.id == "dataclass") or (
                isinstance(target, ast.Attribute) and target.attr == "dataclass"):
            return True
    return False


def unread_dataclass_fields(sources: dict[str, str], readers: list[str]) -> list[str]:
    """Dataclass fields in `sources` that no text in `readers` reads as an attribute.

    sources maps a module name to its text; readers are the texts searched
    for reads. A read is any `<expr>.<field>` in load context, matched by
    name alone, so a field counts as read when any object's attribute of
    that name is read.
    """
    read = {node.attr for text in readers for node in ast.walk(ast.parse(text))
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    unread = []
    for module, source in sources.items():
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.ClassDef) and _is_dataclass(node):
                unread += [f"{module} {node.name}.{item.target.id}" for item in node.body
                           if isinstance(item, ast.AnnAssign)
                           and isinstance(item.target, ast.Name)
                           and item.target.id not in read]
    return unread


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_detector_flags_unused_and_honours_all_and_future():
    source = ("from __future__ import annotations\n"
              "import math\nimport os\nfrom json import dumps, loads\n"
              "__all__ = ['dumps']\n"
              "x = math.pi\n")
    assert unused_imports(source) == ["line 3: os", "line 4: loads"]


LAYERS = ("model", "integrate", "periodic", "reproduction", "analysis", "cli")


def perivir_imports(source: str) -> list[tuple[int, str]]:
    """(line, module) for each perivir module an import anywhere in source names, nested too."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level:  # from .x import y, from . import x
            names = ["perivir." + name for name in
                     ([node.module] if node.module else [alias.name for alias in node.names])]
        elif isinstance(node, ast.ImportFrom):
            names = ([f"perivir.{alias.name}" for alias in node.names]
                     if node.module == "perivir" else [node.module])
        else:
            continue
        found += [(node.lineno, name.split(".")[1]) for name in names
                  if name.startswith("perivir.")]
    return found


def layering_violations(sources: dict[str, str]) -> list[str]:
    """Imports of perivir modules that a module's layer does not allow.

    sources maps a module's name to its text. A module of LAYERS may import
    the modules before it and svgplot; svgplot imports none. Any other name
    raises ValueError, so a new module has to be given its place.
    """
    bad = []
    for module, source in sources.items():
        allowed = set() if module == "svgplot" else {"svgplot", *LAYERS[:LAYERS.index(module)]}
        bad += [f"{module} line {line}: {name}" for line, name in perivir_imports(source)
                if name not in allowed]
    return bad


def test_imports_follow_the_layers():
    # model < integrate < periodic < reproduction < analysis < cli: a module
    # reads only those below it, so moving a helper up a layer is the fix
    # for a cycle, never an import inside a function
    sources = {path.stem: path.read_text() for path in sorted(SRC.glob("*.py"))
               if path.stem != "__init__"}
    assert set(sources) == {*LAYERS, "svgplot"}
    assert layering_violations(sources) == []


def test_layering_detector_flags_lazy_and_upward_imports():
    assert layering_violations({
        "periodic": "from .integrate import integrate\n"
                    "def t_star():\n    from .reproduction import _hill_basis\n",
        "svgplot": "from . import model\n",
        "model": "import perivir.integrate\nfrom perivir import cli\n",
        "cli": "from perivir.analysis import sweep\nfrom .svgplot import Panel\nimport json\n",
    }) == ["periodic line 3: reproduction", "svgplot line 1: model",
           "model line 1: integrate", "model line 2: cli"]


def state_isinstance_checks(source: str) -> list[str]:
    """isinstance calls whose class argument names State, alone or in a tuple."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "isinstance" and len(node.args) == 2):
            names = {n.id if isinstance(n, ast.Name) else n.attr
                     for n in ast.walk(node.args[1])
                     if isinstance(n, (ast.Name, ast.Attribute))}
            if "State" in names:
                found.append(f"line {node.lineno}")
    return found


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_isinstance_state_switches(path):
    # a State converts itself (np.asarray, State.from_array), so no caller
    # switches on "State or array"
    assert state_isinstance_checks(path.read_text()) == []


def test_state_switch_detector_flags_every_spelling():
    source = ("def f(x, y, z):\n"
              "    a = isinstance(x, State)\n"
              "    b = isinstance(y, (np.ndarray, model.State))\n"
              "    return isinstance(z, StateLike) or isinstance(z, float)\n")
    assert state_isinstance_checks(source) == ["line 2", "line 3"]


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


def test_no_unread_constants():
    sources = {path.name: path.read_text() for path in sorted(SRC.glob("*.py"))}
    assert unread_constants(sources) == []


def test_constant_detector_flags_unread_constants():
    sources = {
        "a.py": ("MAX_ROUNDS = 40\nLADDER_STEP = 0.1\nSTEP: float = 0.5\n"
                 "_PRIVATE = 1\nlower = 2\n"
                 "def SHOUT():\n    pass\n"
                 "def search():\n    return MAX_ROUNDS\n"),
        "b.py": "import a\nfrom a import _PRIVATE\nx = a.STEP\n",
    }
    assert unread_constants(sources) == ["a.py line 2: LADDER_STEP"]


def test_every_dataclass_field_is_read():
    sources = {path.name: path.read_text() for path in sorted(SRC.glob("*.py"))}
    readers = [path.read_text() for folder in ("src/perivir", "tests", "demos", "perfbench")
               for path in sorted((ROOT / folder).glob("*.py"))]
    assert unread_dataclass_fields(sources, readers) == []


def test_dataclass_field_detector_flags_unread_fields():
    sources = {"a.py": ("import dataclasses\n"
                        "from dataclasses import dataclass\n"
                        "@dataclass(frozen=True)\n"
                        "class Result:\n    value: float\n    spare: int = 0\n"
                        "    def twice(self):\n        return 2 * self.value\n"
                        "@dataclasses.dataclass\n"
                        "class Log:\n    hits: int\n    note: str\n"
                        "class Plain:\n    untracked: int = 0\n")}
    readers = [sources["a.py"], "def f(log):\n    log.note = 'x'\n    return log.hits\n"]
    assert unread_dataclass_fields(sources, readers) == [
        "a.py Result.spare", "a.py Log.note"]


def summing_calls(source: str, functions=None) -> list[str]:
    """Uses of builtin sum and of fsum in source, or in its named top-level defs and classes."""
    nodes = ast.parse(source).body
    if functions is not None:
        nodes = [n for n in nodes
                 if isinstance(n, (ast.FunctionDef, ast.ClassDef)) and n.name in functions]
        assert sorted(n.name for n in nodes) == sorted(functions)
    found = []
    for node in (sub for n in nodes for sub in ast.walk(n)):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "sum"):
            found.append(f"line {node.lineno}: sum")
        elif (isinstance(node, ast.Name) and node.id == "fsum") or (
                isinstance(node, ast.Attribute) and node.attr == "fsum") or (
                isinstance(node, ast.alias) and node.name == "fsum"):
            found.append(f"line {node.lineno}: fsum")
    return found


def _is_literal_zero(node) -> bool:
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.UAdd)):
        node = node.operand
    return isinstance(node, ast.Constant) and node.value == 0


def zero_products(source: str) -> list[str]:
    """Products in source with a literal zero factor, which only cost time (and a zero's sign)."""
    found = [node for node in ast.walk(ast.parse(source))
             if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult)
             and (_is_literal_zero(node.left) or _is_literal_zero(node.right))]
    return [f"line {node.lineno}: {ast.unparse(node)}"
            for node in sorted(found, key=lambda node: (node.lineno, node.col_offset))]


# the modules, and the functions of them, whose float sums must run left to right;
# the model's generated field forms are checked on their sources below
_FLOAT_FORMULAS = {
    "integrate.py": None,
    "model.py": ["ModelParameters", "incidence", "incidence_partials"],
    "periodic.py": ["_augmented_field"],
    # F's entry on T*'s nodes, a member's (1, 10) field and the (m, 10) stack of them
    "reproduction.py": ["LinearizedSystem", "_combined_field", "_monodromy_field"],
}


@pytest.mark.parametrize("module", sorted(_FLOAT_FORMULAS))
def test_float_sums_are_written_out(module):
    assert summing_calls((SRC / module).read_text(), _FLOAT_FORMULAS[module]) == []


@pytest.mark.parametrize("n, width", [(4, 4), (10, 10), (12, 4), (20, 20), (60, 10), (64, 4)])
def test_generated_step_sums_are_written_out(n, width):
    integrate = importlib.import_module("perivir.integrate")
    assert summing_calls(integrate._step_source(n, width)) == []
    # a zero tableau weight gets no term: stage 2 is in neither y_new nor err
    assert zero_products(integrate._step_source(n, width)) == []
    # a traceback through a kernel names its shape
    assert integrate._step_kernel(n, width).__code__.co_filename == (
        f"<perivir step kernel {n}x{width}>")


@pytest.mark.parametrize("members", [1, 3, 4, 16])
def test_generated_field_sums_are_written_out(members):
    model = importlib.import_module("perivir.model")
    assert summing_calls(model._field_source(members)) == []
    # a traceback through a field names its member count
    assert model._field_kernel(members).__code__.co_filename == f"<perivir field {members}>"


def test_summing_detector_flags_sum_and_fsum():
    source = ("import math\nfrom math import fsum\n"
              "def f(xs):\n    return sum(xs) + math.fsum(xs) + xs.sum()\n"
              "def g(xs):\n    return sum(xs)\n"
              "class C:\n    def h(self, xs):\n        return sum(xs)\n")
    assert summing_calls(source) == [
        "line 2: fsum", "line 4: sum", "line 4: fsum", "line 6: sum", "line 9: sum"]
    assert summing_calls(source, ["g"]) == ["line 6: sum"]
    assert summing_calls(source, ["C"]) == ["line 9: sum"]


def test_zero_product_detector_flags_literal_zero_factors():
    source = ("def f(p, q):\n    return 0.5 * p + 0.0 * q + q * 0 + p * 0.25 + 0\n"
              "def g(p):\n    return -0.0 * p + p * -2.0\n")
    assert zero_products(source) == ["line 2: 0.0 * q", "line 2: q * 0", "line 4: -0.0 * p"]


_TIMING = re.compile(r"\d+(?:\.\d+)?\s*(?:µs|us|ms|[kKM]B)\b")


def timings(source: str) -> list[str]:
    """Figures with a time or memory unit in source's docstrings and comments."""
    texts = [(tok.start[0], tok.string)
             for tok in tokenize.generate_tokens(io.StringIO(source).readline)
             if tok.type == tokenize.COMMENT]
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
                and ast.get_docstring(node, clean=False) is not None):
            texts.append((node.body[0].lineno, node.body[0].value.value))
    found = sorted((line + text.count("\n", 0, m.start()), m.start(), m.group())
                   for line, text in texts for m in _TIMING.finditer(text))
    return [f"line {line}: {figure}" for line, _, figure in found]


def test_src_holds_no_timings():
    found = {path.name: timings(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    assert {name: lines for name, lines in found.items() if lines} == {}


def test_timing_detector_flags_figures_in_docstrings_and_comments():
    source = ('"""Module.\n\nA step costs 5.5 µs; a build 1.7 ms and 0.9 MB."""\n'
              "def f():\n"
              '    """3 KB, and 2 us."""\n'
              "    x = '4 ms'  # 12 us a call; 16 members, 2 msgs\n"
              "    return x\n")
    assert timings(source) == ["line 3: 5.5 µs", "line 3: 1.7 ms", "line 3: 0.9 MB",
                               "line 5: 3 KB", "line 5: 2 us", "line 6: 12 us"]


def process_caches(source: str) -> list[str]:
    """Functions source decorates with functools.cache or lru_cache, and each other use of them.

    A decorated function is named; any other use, a call such as
    cache(f) included, is given as its line.
    """
    def caching(node) -> bool:
        node = node.func if isinstance(node, ast.Call) else node
        return (node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)) in (
            "cache", "lru_cache")

    tree, found, decorators = ast.parse(source), [], set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for dec in filter(caching, node.decorator_list):
                found.append((dec.lineno, node.name))
                decorators |= {id(sub) for sub in ast.walk(dec)}
    found += [(node.lineno, f"line {node.lineno}: {ast.unparse(node)}")
              for node in ast.walk(tree) if isinstance(node, (ast.Name, ast.Attribute))
              and caching(node) and id(node) not in decorators]
    return [name for _, name in sorted(found)]


# each module's caches held for the process: Hill's trig tables, the
# generated step kernels and model fields, and the CLI's parser
PROCESS_CACHES = {"periodic.py": ["_hill_basis"], "integrate.py": ["_step_kernel"],
                  "model.py": ["_field_kernel"], "cli.py": ["_build_parser"]}


def test_every_process_cache_is_named():
    found = {path.name: process_caches(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    assert {name: caches for name, caches in found.items() if caches} == PROCESS_CACHES


def test_process_cache_detector_flags_every_spelling():
    source = ("import functools\nfrom functools import cache, cached_property, lru_cache\n"
              "@cache\ndef _table(n):\n    return n\n"
              "@functools.lru_cache(maxsize=None)\ndef _kernel(n):\n    return n\n"
              "class C:\n    @functools.cache\n    def m(self):\n        return 1\n"
              "    @cached_property\n    def p(self):\n        return 2\n"
              "_held = lru_cache(lambda: 1)\n_other = functools.cache(len)\n")
    assert process_caches(source) == ["_table", "_kernel", "m", "line 16: lru_cache",
                                      "line 17: functools.cache"]


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


def _imported_names(source: str) -> set[str]:
    """Every module an import statement in source names, and every name it imports."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update(alias.name for alias in node.names)
        if isinstance(node, ast.ImportFrom) and node.module:
            names.add(node.module)
    return names


def test_no_tier1_module_imports_mpmath():
    # tests/mp_references.py is the one module that does, and no test_*.py
    # name makes pytest collect it
    tests = ROOT / "tests"
    loaded = sorted(tests.glob("test_*.py")) + [tests / "helpers.py", tests / "conftest.py"]
    assert len(loaded) >= 11 and "mpmath" in _imported_names((tests / "mp_references.py")
                                                              .read_text())
    assert [path.name for path in loaded
            if any({"mpmath", "mp_references"} & set(name.split("."))
                   for name in _imported_names(path.read_text()))] == []


def test_every_exception_class_has_an_exit_code():
    # cli.main's numerical clause catches NumericalFailure; anything else
    # outside its config clause would escape as a traceback with exit 1
    from perivir.cli import ParseError, ValidationError
    from perivir.integrate import NumericalFailure

    mapped = (NumericalFailure, ParseError, ValidationError, ValueError, OSError)
    modules = [importlib.import_module(f"perivir.{path.stem}")
               for path in sorted(SRC.glob("*.py")) if path.stem != "__init__"]
    classes = [cls for module in modules for cls in vars(module).values()
               if isinstance(cls, type) and issubclass(cls, BaseException)
               and cls.__module__ == module.__name__]
    assert len(classes) >= 10  # the ten of today, so the scan does see them
    assert [cls.__qualname__ for cls in classes if not issubclass(cls, mapped)] == []


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


def test_integrate_signature_matches_tracer_wrapper():
    # the tracer wraps integrate as run(f, t0, t1, y0, cfg, t_eval=None)
    params = inspect.signature(importlib.import_module("perivir.integrate").integrate).parameters
    assert list(params) == ["f", "t0", "t1", "y0", "cfg", "t_eval"]
    assert all(p.kind is p.POSITIONAL_OR_KEYWORD for p in params.values())
    assert [p.default for p in params.values()] == [inspect.Parameter.empty] * 5 + [None]


def test_orbit_integrations_start_from_arrays(monkeypatch):
    # inside find_periodic_orbit the tracer reads len(y0), which a State
    # lacks: a State start would pass untraced and fail under --trace 1
    from perivir import IntegratorConfig, State, periodic

    from .helpers import persistence_params

    starts = []
    original = periodic.integrate

    def spy(f, t0, t1, y0, cfg, t_eval=None):
        starts.append(type(y0))
        return original(f, t0, t1, y0, cfg, t_eval=t_eval)

    monkeypatch.setattr(periodic, "integrate", spy)
    params, cfg = persistence_params(), IntegratorConfig.spectral()
    guess = periodic.warm_start_guess(params, State(10.0, 1.0, 1.0, 1.0), 2000.0, cfg)
    passes = len(starts)
    # newton_tol = 0 runs the trials of a stall as well as a converging step
    periodic.find_periodic_orbit(params, guess, cfg, newton_tol=0.0)
    assert passes >= 2 and len(starts) - passes >= 10
    assert set(starts) == {np.ndarray}


def test_tracer_counts_monodromy_steps(monkeypatch):
    import perivir.cli  # noqa: F401  the tracer wraps names in every perivir module
    from perivir import reproduction

    from .helpers import persistence_params

    def traced_counts():
        tracer = _perfbench_tracer().Tracer()
        tracer.install()
        try:
            reproduction.r0_periodic(persistence_params())
        finally:
            tracer.uninstall()
        return tracer.snapshot()["counts"]

    def integrate_steps(counts):
        # as perfbench/run.py reads them: one field call to start, six a step
        return (counts["integrate.integrate.fcalls"] - counts["integrate.integrate.calls"]) / 6

    alone = integrate_steps(traced_counts())  # certified: the lambda = 1 monodromy alone
    # with Hill unconverged the search's stacks reach the tracer through integrate too
    monkeypatch.setattr(reproduction, "_hill_r0", lambda lin, tol: (math.nan, None))
    searched = traced_counts()
    assert integrate_steps(searched) > alone > 0
    assert searched.get("integrate.integrate_matrix.steps", 0) == 0
