import ast
import functools
import importlib
import json
import os
import subprocess
import sys
import threading
from collections import Counter
from pathlib import Path

import pytest

import dirichlet_ops
from dirichlet_ops import series
from dirichlet_ops.series import _KERNEL_MIN_PAIRS, _Record

SUBMODULES = [
    "abscissa", "dynamics", "errors", "evaluation", "operators", "series", "spectral", "volterra"
]
# the modules that call numpy, each through the np that series holds
NUMPY_MODULES = ["abscissa", "dynamics", "evaluation", "operators", "series", "spectral"]


def test_exports_are_the_submodules_exports():
    modules = [importlib.import_module(f"dirichlet_ops.{name}") for name in SUBMODULES]
    union = set().union(*(m.__all__ for m in modules))
    assert len(dirichlet_ops.__all__) == len(set(dirichlet_ops.__all__))
    assert set(dirichlet_ops.__all__) == union
    for m in modules:
        for name in m.__all__:
            assert getattr(dirichlet_ops, name) is getattr(m, name)
    assert "SIGMA_U_NOTE" in union
    assert len(union) == 65


def test_import_starts_no_thread():
    # neither the import, so a cold `dseries` run pays for no thread, nor a
    # streamed partial_sum off the real axis, which runs on its caller's
    # thread, starts a thread or imports concurrent.futures
    probe = (
        "import sys, threading, dirichlet_ops; "
        "print('concurrent.futures' in sys.modules, threading.active_count()); "
        "dirichlet_ops.partial_sum(dirichlet_ops.eta_rule(), 0.5 + 14j, 3 * 2**16); "
        "dirichlet_ops.partial_sum(dirichlet_ops.moebius_rule(), 0.5 + 14j, 3 * 2**16); "
        "print('concurrent.futures' in sys.modules, threading.active_count())"
    )
    src = str(Path(dirichlet_ops.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                         check=True, timeout=60, env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.split() == ["False", "1", "False", "1"]


# small inputs for the subcommands that build no array, eval and dynamics
# among them on polynomials of the benchmark's size (4 terms, indices up to
# 64), and inputs for the three that do, eval too on a polynomial of
# _ARRAY_MIN_TERMS terms or more
_P = '{"kind":"poly","terms":[{"n":2,"re":1.5,"im":-0.5},{"n":6,"re":0.25},{"n":35,"re":-2,"im":1}]}'
_Q = '{"kind":"poly","terms":[{"n":1,"re":1},{"n":3,"re":0.5,"im":2}]}'
_P4 = ('{"kind":"poly","terms":[{"n":3,"re":0.75,"im":-1.25},{"n":17,"re":-2},'
       '{"n":40,"re":0.5,"im":0.5},{"n":64,"re":1,"im":-3}]}')
_WIDE = json.dumps({"kind": "poly", "terms": [{"n": n, "re": 1.0 / n, "im": 0.5} for n in range(1, 101)]})
NUMPY_FREE_SUBCOMMANDS = {
    "eval": ["--series", _P4, "--s=1.2,3.4"],
    "diff": ["--series", _P],
    "integrate": ["--series", _P],
    "mul": ["--f", _P, "--g", _Q],
    "resolvent": ["--series", _Q, "--lambda=0.3,1.5", "--space", "full"],
    "classify": ["--lambda=0.3,1.5", "--space", "full"],
    "reciprocal": ["--mu=0.4,-1.2"],
    "volterra": ["--g", _P, "--f", _Q],
    "dynamics": ["--op", "d", "--series", _P4, "--epsilon", "0.3"],
}
ARRAY_SUBCOMMANDS = {
    "eval": ["--series", _WIDE, "--s=1.2,3.4"],
    "seminorm": ["--series", _P, "--epsilon", "0.3"],
    "abscissa": ["--series", '{"kind":"rule","name":"eta"}', "--n", "200", "--probe-eps", "0.5"],
    "bv-check": ["--lambda=0.3,1.5", "--delta", "0.5", "--n", "1000"],
}


# modules a cold start should not pay for: numpy, and dataclasses with the
# inspect, ast, dis and tokenize it pulls in
WATCHED = ("numpy", "dataclasses", "inspect")
COLD_COMMANDS = {"import": ("-c", "import dirichlet_ops"), "help": ("-m", "dirichlet_ops", "--help")} | {
    f"{sub}-{fmt}": ("-m", "dirichlet_ops", "--format", fmt, sub, *NUMPY_FREE_SUBCOMMANDS[sub])
    for sub in sorted(NUMPY_FREE_SUBCOMMANDS) for fmt in ("json", "csv")
}


@functools.lru_cache(maxsize=None)
def _loads(*args):
    """Which of WATCHED `python *args` imports, read off -X importtime; the
    run must succeed.  Each command runs once per test run."""
    src = str(Path(dirichlet_ops.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-X", "importtime", *args], capture_output=True, text=True,
                         timeout=60, env={**os.environ, "PYTHONPATH": src})
    assert out.returncode == 0, out.stderr[-500:]
    names = {line.split("|")[-1].strip() for line in out.stderr.splitlines() if line.startswith("import time:")}
    return names.intersection(WATCHED)


def test_import_and_help_leave_numpy_out():
    # numpy is imported at the first array call, so neither the import nor
    # `dseries --help` pays for it
    assert "numpy" not in _loads("-c", "import dirichlet_ops")
    assert "numpy" not in _loads("-m", "dirichlet_ops", "--help")


def test_hashing_a_dict_form_polynomial_leaves_numpy_out():
    # hash reads the form a polynomial holds; below _ARRAY_MIN_TERMS that is the dict
    code = "import dirichlet_ops as d; f = d.monomial(2, 1.5) + d.monomial(3, -1j); hash(f); {f, d.ZERO}"
    assert "numpy" not in _loads("-c", code)


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize("sub", sorted(NUMPY_FREE_SUBCOMMANDS))
def test_subcommands_without_arrays_leave_numpy_out(sub, fmt):
    assert "numpy" not in _loads("-m", "dirichlet_ops", "--format", fmt, sub, *NUMPY_FREE_SUBCOMMANDS[sub])


def test_mul_below_the_kernel_leaves_numpy_out():
    # 9 x 9 terms, the benchmark chains' largest product: 81 pairs take the
    # per-pair loop, below series._KERNEL_MIN_PAIRS
    f, g = ([{"n": n, "re": 1.0 / n, "im": 0.5} for n in range(k, k + 9)] for k in (1, 4))
    assert 81 < _KERNEL_MIN_PAIRS
    argv = ["-m", "dirichlet_ops", "mul", "--f", json.dumps({"kind": "poly", "terms": f}),
            "--g", json.dumps({"kind": "poly", "terms": g})]
    assert "numpy" not in _loads(*argv)


@pytest.mark.parametrize("command", sorted(COLD_COMMANDS))
def test_cold_starts_leave_dataclasses_and_inspect_out(command):
    # the records are built without dataclasses, so the import, --help and
    # every subcommand that builds no array load neither it nor inspect
    assert _loads(*COLD_COMMANDS[command]) == set()


@pytest.mark.parametrize("sub", sorted(ARRAY_SUBCOMMANDS))
def test_array_subcommands_load_numpy(sub):
    # the probe sees numpy when it is imported: without this the test above
    # would pass on a probe that never finds it; numpy imports inspect
    assert _loads("-m", "dirichlet_ops", sub, *ARRAY_SUBCOMMANDS[sub]) >= {"numpy", "inspect"}


def test_probe_sees_dataclasses():
    assert _loads("-c", "import dataclasses") == {"dataclasses", "inspect"}


def _dataclasses_imports(tree):
    """Lines that import dataclasses, at any depth of a module."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import) and any(alias.name.split(".")[0] == "dataclasses" for alias in node.names):
            yield node.lineno
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "dataclasses":
            yield node.lineno


def test_no_module_imports_dataclasses():
    # the records derive from series._Record; one import of dataclasses,
    # even inside a function, would put its import back on a cold start
    found = []
    for path in sorted(Path(dirichlet_ops.__file__).parent.glob("*.py")):
        found += [f"{path.name}:{line}" for line in _dataclasses_imports(ast.parse(path.read_text()))]
    assert found == []


def test_dataclasses_guard_sees_each_import():
    flagged = (
        "import dataclasses\n",
        "import dataclasses as dc\n",
        "from dataclasses import dataclass, field\n",
        "def f(m):\n    from dataclasses import replace\n    return replace(m)\n",
        "class A:\n    import dataclasses\n",
    )
    for source in flagged:
        assert list(_dataclasses_imports(ast.parse(source))) != [], source
    assert list(_dataclasses_imports(ast.parse("from .series import replace\nimport dataclasses_json\n"))) == []


def test_import_compiles_no_record_init():
    # a record class gets its __init__ at its first construction, so the
    # import compiles none: only the two written out are there
    probe = (
        "import dirichlet_ops\n"
        "from dirichlet_ops.series import _Record\n"
        "records = [getattr(dirichlet_ops, name) for name in dirichlet_ops.__all__]\n"
        "records = [r for r in records if isinstance(r, type) and issubclass(r, _Record)]\n"
        "print(len(records), sorted(r.__name__ for r in records if '__init__' in vars(r)))\n"
    )
    src = str(Path(dirichlet_ops.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                         check=True, timeout=60, env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.split(maxsplit=1) == ["15", "['HalfPlanePoint', 'Multiplier']\n"]


def _fresh_record():
    class Fresh(_Record):
        first: int
        second: str = "b"

    return Fresh


def test_record_init_is_compiled_once(monkeypatch):
    compiles = []
    monkeypatch.setattr(series, "exec", lambda *args: compiles.append(args) or exec(*args), raising=False)
    Fresh = _fresh_record()
    assert "__init__" not in vars(Fresh)
    assert vars(Fresh(1)) == {"first": 1, "second": "b"} and len(compiles) == 1
    init = vars(Fresh)["__init__"]
    assert init.__qualname__ == "_fresh_record.<locals>.Fresh.__init__"
    assert Fresh(2, second="c") == Fresh(first=2, second="c")
    assert Fresh.__init__ is init and len(compiles) == 1
    with pytest.raises(TypeError, match=r"^_fresh_record.<locals>.Fresh.__init__\(\) missing 1 required"):
        Fresh()


def test_first_constructions_race():
    # eight threads build a never-built record type at once: each may
    # compile its __init__, and every record comes out the same
    Fresh = _fresh_record()
    barrier = threading.Barrier(8, timeout=10)
    built = [None] * 8

    def build(k):
        barrier.wait()
        built[k] = Fresh(7, second="x")

    threads = [threading.Thread(target=build, args=(k,)) for k in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert all(record == Fresh(7, "x") for record in built)
    assert [vars(record) for record in built] == [{"first": 7, "second": "x"}] * 8


@pytest.mark.parametrize("built", [False, True], ids=["before-construction", "after-construction"])
def test_record_subclass_rejected(built):
    # a subclass would bind by whichever __init__ it met first, its own
    # before the base's first construction and the base's after it
    Fresh = _fresh_record()
    if built:
        Fresh(1)
    assert ("__init__" in vars(Fresh)) == built
    with pytest.raises(TypeError, match=r"^test_record_subclass_rejected.<locals>.Sub cannot subclass a record class$"):
        class Sub(Fresh):
            extra: int = 0
    with pytest.raises(TypeError, match=r"^test_record_subclass_rejected.<locals>.G cannot subclass a record class$"):
        class G(dirichlet_ops.GridSpec):
            extra: int = 0


def test_numpy_imported_after_the_package():
    # numpy values made after the package's import pass its gates, and the
    # first array call leaves every module of the package holding numpy
    # itself, not the accessor
    probe = (
        "import sys, dirichlet_ops\n"
        "assert 'numpy' not in sys.modules\n"
        "import numpy as np\n"
        "f = dirichlet_ops.DirichletPolynomial({np.int64(2): np.float32(1.5)})\n"
        "assert f.coeffs == {2: 1.5}\n"
        "v = dirichlet_ops.evaluate(f, np.complex64(2 + 1j))\n"
        "assert v == dirichlet_ops.evaluate(f, 2 + 1j)\n"
        "dirichlet_ops.truncate(dirichlet_ops.eta_rule(), 200)\n"
        "mods = [m for name, m in sys.modules.items() if name.startswith('dirichlet_ops.')]\n"
        "print(sorted(m.__name__ for m in mods if hasattr(m, 'np') and m.np is not np))\n"
        "print(sorted(m.__name__ for m in mods if getattr(m, 'np', None) is np))\n"
    )
    src = str(Path(dirichlet_ops.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                         check=True, timeout=60, env={**os.environ, "PYTHONPATH": src})
    stale, rebound = out.stdout.splitlines()
    assert stale == "[]"
    assert rebound == str([f"dirichlet_ops.{name}" for name in NUMPY_MODULES])


def _import_time_numpy(tree):
    """Lines of a module's import-time code that import numpy or read an
    attribute of np: its top level and class bodies, and the defaults and
    decorators of its functions, but no function or lambda body, nor, under
    `from __future__ import annotations`, an annotation."""
    lazy_annotations = any(
        isinstance(node, ast.ImportFrom) and node.module == "__future__"
        and any(alias.name == "annotations" for alias in node.names)
        for node in tree.body
    )
    stack = list(tree.body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            args = node.args
            stack += args.defaults + [d for d in args.kw_defaults if d is not None]
            stack += getattr(node, "decorator_list", [])
            if not lazy_annotations and not isinstance(node, ast.Lambda):
                every = args.posonlyargs + args.args + args.kwonlyargs + [args.vararg, args.kwarg]
                stack += [a.annotation for a in every if a is not None and a.annotation is not None]
                stack += [node.returns] if node.returns is not None else []
            continue
        if isinstance(node, ast.Import) and any(alias.name.split(".")[0] == "numpy" for alias in node.names):
            yield node.lineno
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "numpy":
            yield node.lineno
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "np":
            yield node.lineno
        for name, value in ast.iter_fields(node):
            if lazy_annotations and name in ("annotation", "returns"):
                continue
            stack += [v for v in (value if isinstance(value, list) else [value]) if isinstance(v, ast.AST)]


def test_no_numpy_at_import_time():
    # an import-time read of np, or a module-level numpy import, would bring
    # numpy back into every dseries run; series holds the one accessor
    found = []
    for path in sorted(Path(dirichlet_ops.__file__).parent.glob("*.py")):
        found += [f"{path.name}:{line}" for line in _import_time_numpy(ast.parse(path.read_text()))]
    assert found == []


def test_numpy_guard_sees_each_import_time_read():
    flagged = (
        "import numpy as np\n",
        "import numpy.linalg\n",
        "from numpy import ndarray\n",
        "_REALS = (float, int, np.floating, np.integer)\n",
        "class A:\n    kind = np.float64\n",
        "def f(x=np.zeros(3)):\n    pass\n",
        "@np.vectorize\ndef f(x):\n    return x\n",
        "x: np.ndarray = None\n",
        "def f(x: np.ndarray):\n    pass\n",
        "TYPES = [getattr(np, k) for k in ('integer', 'floating')] if True else np.generic\n",
    )
    for source in flagged:
        assert list(_import_time_numpy(ast.parse(source))) != [], source
    quiet = (
        "def f(n):\n    import numpy\n    return np.zeros(n)\n",
        "from __future__ import annotations\nclass A:\n    x: np.ndarray\n"
        "def f(a: np.ndarray) -> np.ndarray:\n    return a\n",
        "f = lambda n: np.ones(n)\n",
    )
    for source in quiet:
        assert list(_import_time_numpy(ast.parse(source))) == [], source


def test_no_unused_imports():
    # no linter is a test dependency; a name imported into a module of the
    # package must be used there or re-exported through __all__
    unused = []
    for path in sorted(Path(dirichlet_ops.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", "") != "__future__":
                for alias in node.names:
                    if alias.name != "*":
                        imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        used |= {
            elt.value
            for node in ast.walk(tree)
            if isinstance(node, ast.Assign) and isinstance(node.value, ast.List)
            and any(getattr(t, "id", "") == "__all__" for t in node.targets)
            for elt in node.value.elts
        }
        unused += [f"{path.name}:{line} {name}" for name, line in imported.items() if name not in used]
    assert unused == []


def test_polynomial_carrier_stays_in_series():
    # DirichletPolynomial keeps its dict and array forms in private slots
    # that only series.py may read; every other module goes through the
    # accessors, so the carrier can change in one place
    slots = set(dirichlet_ops.DirichletPolynomial.__slots__)
    readers = []
    for path in sorted(Path(dirichlet_ops.__file__).parent.glob("*.py")):
        if path.name == "series.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute) and node.attr in slots:
                readers.append(f"{path.name}:{node.lineno} .{node.attr}")
    assert slots and readers == []



def _module_level_names(tree):
    """(name, defining node) for each name a module binds at its top level,
    in try blocks too, but not inside functions or classes."""
    stack = list(tree.body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        yield name.id, node
        elif isinstance(node, ast.Try):
            stack += node.body + node.orelse + node.finalbody
            stack += [line for handler in node.handlers for line in handler.body]


def _reads(tree):
    """Every name a tree reads: loads, attribute reads and imports."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.ImportFrom):
            yield from (alias.name for alias in node.names)


def test_no_unreferenced_private_names():
    # a private helper or constant that nothing in the package reads any
    # more, other than its own definition (a recursive call), is dead code
    # left behind by a refactor
    trees = {path.name: ast.parse(path.read_text())
             for path in sorted(Path(dirichlet_ops.__file__).parent.glob("*.py"))}
    reads = Counter(name for tree in trees.values() for name in _reads(tree))
    unreferenced = [
        f"{file_name}:{node.lineno} {name}"
        for file_name, tree in trees.items()
        for name, node in _module_level_names(tree)
        if name.startswith("_") and not name.startswith("__")
        and reads[name] == Counter(_reads(node))[name]
    ]
    assert unreferenced == []


def _libm_misuses(tree):
    """Lines that map math.log or math.exp over many values: the function
    handed on as a value (map, np.vectorize, np.frompyfunc), imported bare
    from math, or called inside a comprehension over an array's .tolist()."""
    def is_libm(node):
        return (isinstance(node, ast.Attribute) and node.attr in ("log", "exp")
                and isinstance(node.value, ast.Name) and node.value.id == "math")

    called = {id(node.func) for node in ast.walk(tree) if isinstance(node, ast.Call)}
    for node in ast.walk(tree):
        if is_libm(node) and id(node) not in called:
            yield node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module == "math":
            if any(alias.name in ("log", "exp") for alias in node.names):
                yield node.lineno
        elif isinstance(node, (ast.ListComp, ast.GeneratorExp, ast.SetComp)):
            over_array = any(
                isinstance(gen.iter, ast.Call) and getattr(gen.iter.func, "attr", "") == "tolist"
                for gen in node.generators
            )
            if over_array and any(is_libm(sub) for sub in ast.walk(node.elt)):
                yield node.lineno


def test_log_n_and_decay_take_one_route():
    # log n and n^(-epsilon) of an array go through series._log and _exp,
    # whose bits are math.log's and math.exp's under every numpy SIMD level,
    # and only series defines them
    misuses, defined = [], []
    for path in sorted(Path(dirichlet_ops.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        misuses += [f"{path.name}:{line}" for line in _libm_misuses(tree)]
        defined += [path.name for name, _ in _module_level_names(tree) if name in ("_log", "_exp")]
    assert misuses == []
    assert defined == ["series.py", "series.py"]


def test_libm_guard_sees_each_mapping():
    # the guard above flags each way the library used to map math over arrays
    flagged = (
        "import math\nx = np.fromiter(map(math.log, idx.tolist()), dtype=float)\n",
        "import math\nx = [math.exp(-e * v) for v in logn.tolist()]\n",
        "import numpy as np\nf = np.vectorize(math.exp)\n",
        "from math import log\n",
    )
    for source in flagged:
        assert list(_libm_misuses(ast.parse(source))) != [], source
    assert list(_libm_misuses(ast.parse("import math\ny = math.log(n) + math.exp(x)\n"))) == []


def _tag_reads(tree):
    """Lines that read a .tag for anything but the text of a message (an
    f-string field): a comparison, a condition, a match, a lookup key or a
    name bound to it could key a path on a rule's name."""
    in_text = {id(sub) for node in ast.walk(tree) if isinstance(node, ast.FormattedValue)
               for sub in ast.walk(node)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr == "tag" and id(node) not in in_text:
            yield node.lineno


def test_no_path_keys_on_a_rule_tag():
    # partial_sum's Euler-Maclaurin sums follow the private description on
    # a rule's function, which only the built-in constructors set, never its
    # tag: a user's rule tagged "eta" must take the generic path
    reads = []
    for path in sorted(Path(dirichlet_ops.__file__).parent.glob("*.py")):
        reads += [f"{path.name}:{line}" for line in _tag_reads(ast.parse(path.read_text()))]
    assert reads == []


def test_tag_guard_sees_each_use():
    flagged = (
        "if rule.tag == 'eta':\n    pass\n",
        "fast = rule.tag in ('ones', 'eta')\n",
        "x = a if rule.tag.startswith('zeta') else b\n",
        "match rule.tag:\n    case 'eta':\n        pass\n",
        "kernel = KERNELS[rule.tag]\n",
        "kernel = KERNELS.get(rule.tag)\n",
        "name = rule.tag\n",
    )
    for source in flagged:
        assert list(_tag_reads(ast.parse(source))) != [], source
    assert list(_tag_reads(ast.parse("raise DomainError(f'rule {self.tag!r} failed')\n"))) == []


def _floor_reads(tree):
    """Lines that read _FLOOR outside a function named _floor, or import
    it: each would be a second copy of partial_sum's floor formula."""
    owner = {id(sub) for node in ast.walk(tree) if isinstance(node, ast.FunctionDef) and node.name == "_floor"
             for sub in ast.walk(node)}
    for node in ast.walk(tree):
        read = (isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) and node.id == "_FLOOR"
                or isinstance(node, ast.Attribute) and node.attr == "_FLOOR"
                or isinstance(node, ast.ImportFrom) and any(alias.name == "_FLOOR" for alias in node.names))
        if read and id(node) not in owner:
            yield node.lineno


def test_the_floor_has_one_owner():
    # F = ceil(_FLOOR (|s| + 16) _BLOCK) is written once, in
    # evaluation._floor; the package and its tests call that, so a copy
    # that drifts from it (abs for hypot, no cap) cannot pick another floor
    reads = []
    for path in [*Path(dirichlet_ops.__file__).parent.glob("*.py"), *Path(__file__).parent.glob("*.py")]:
        reads += [f"{path.name}:{line}" for line in _floor_reads(ast.parse(path.read_text()))]
    assert reads == []


def test_floor_guard_sees_each_copy():
    flagged = (
        "F = math.ceil(_FLOOR * (abs(s) + 16) * _BLOCK)\n",
        "floor = math.ceil(evaluation._FLOOR * (abs(s) + 16) * evaluation._BLOCK)\n",
        "def _block_order(s, lo):\n    return lo < _FLOOR * (abs(s) + 16) * _BLOCK\n",
        "from dirichlet_ops.evaluation import _FLOOR\n",
    )
    for source in flagged:
        assert list(_floor_reads(ast.parse(source))) != [], source
    assert list(_floor_reads(ast.parse("def _floor(s):\n    return math.ceil(_FLOOR * (abs(s) + 16))\n"))) == []


# each private speed hint and the one function that may write it: each
# rides on the function it describes (a multiplier's symbol, a rule's
# vectorized), never on a record
HINT_OWNERS = {"_description": "_described", "_array_symbol": "_with_array_symbol"}


def _hint_writes(tree):
    """Lines that write a hint of HINT_OWNERS outside its owner: an
    attribute assignment, a setattr or __setattr__ naming it, or a keyword
    of that name (replace, a constructor), spelled out or as a constant key
    of a dict unpacked into the call; and every call of an __setattr__ by
    attribute (object.__setattr__), the one way to write a frozen record
    after its construction, in any function."""
    owned = {id(sub): node.name for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)
             for sub in ast.walk(node)}
    for node in ast.walk(tree):
        hints = []
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, (ast.Store, ast.Del)):
            hints = [node.attr]
        elif isinstance(node, ast.Call):
            if isinstance(node.func, ast.Attribute) and node.func.attr == "__setattr__":
                yield node.lineno
                continue
            hints = [keyword.arg for keyword in node.keywords]
            unpacked = [keyword.value for keyword in node.keywords if keyword.arg is None]
            hints += [key.value for value in unpacked if isinstance(value, ast.Dict)
                      for key in value.keys if isinstance(key, ast.Constant)]
            name = getattr(node.func, "attr", getattr(node.func, "id", ""))
            if name == "setattr" and len(node.args) > 1 and isinstance(node.args[1], ast.Constant):
                hints.append(node.args[1].value)
        if any(hint in HINT_OWNERS and owned.get(id(node)) != HINT_OWNERS[hint] for hint in hints):
            yield node.lineno


def test_hints_have_one_writer_each():
    # the array symbol and the description are speed hints the package
    # attaches to the functions it built; written anywhere else, a hint
    # could outlive the symbol or the values it stands for.  No record is
    # written after its construction, so none carries state beside its fields
    writes = []
    for path in [*Path(dirichlet_ops.__file__).parent.glob("*.py"), *Path(__file__).parent.glob("*.py")]:
        writes += [f"{path.name}:{line}" for line in _hint_writes(ast.parse(path.read_text()))]
    assert writes == []


def test_hint_guard_sees_each_write():
    flagged = (
        "object.__setattr__(m, '_array_symbol', fn)\n",
        "object.__setattr__(rule, '_description', ((1.0,), 0))\n",
        "setattr(m, '_array_symbol', fn)\n",
        "monkeypatch.setattr(m, '_array_symbol', fn)\n",
        "m = dataclasses.replace(D, _array_symbol=fn)\n",
        "m = replace(D, _array_symbol=fn)\n",
        "rule = dirichlet_ops.replace(eta_rule(), _description=((1.0,), 0))\n",
        "m = series.replace(D, **{'_array_symbol': fn})\n",
        "m = Multiplier(f, 'x', _array_symbol=fn)\n",
        "m._array_symbol = fn\n",
        "m.symbol._array_symbol = fn\n",
        "rule.vectorized._description = ((1.0,), 0)\n",
        "def _described(m, fn):\n    m._array_symbol = fn\n",
        "def _described(m, fn):\n    object.__setattr__(m, '_array_symbol', fn)\n",
        # a record written after construction, whatever the name, wherever
        "object.__setattr__(record, 'label', 'd')\n",
        "def _with_array_symbol(m, fn):\n    object.__setattr__(m, '_array_symbol', fn)\n",
        "def _described(rule, c, k):\n    object.__setattr__(rule, '_description', (c, k))\n",
        "super().__setattr__('x', 1)\n",
    )
    for source in flagged:
        assert list(_hint_writes(ast.parse(source))) != [], source
    owned = ("def _with_array_symbol(symbol, fn):\n    symbol._array_symbol = fn\n    return symbol\n",
             "def _described(values, c, k):\n    values._description = (c, k)\n    return values\n",
             "fn = getattr(m.symbol, '_array_symbol', None)\nc, k = rule.vectorized._description or ((), 0)\n",
             "class R:\n    def __setattr__(self, name, value):\n        raise AttributeError(name)\n",
             "m = replace(D, label='d', **{'symbol': f})\n",
             "rule = CoefficientRule('x', f, known_abscissas={'_description': 0.0})\n")
    for source in owned:
        assert list(_hint_writes(ast.parse(source))) == [], source
