import ast
import importlib
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import dirichlet_ops

SUBMODULES = [
    "abscissa", "dynamics", "errors", "evaluation", "operators", "series", "spectral", "volterra"
]


def test_exports_are_the_submodules_exports():
    modules = [importlib.import_module(f"dirichlet_ops.{name}") for name in SUBMODULES]
    union = set().union(*(m.__all__ for m in modules))
    assert len(dirichlet_ops.__all__) == len(set(dirichlet_ops.__all__))
    assert set(dirichlet_ops.__all__) == union
    for m in modules:
        for name in m.__all__:
            assert getattr(dirichlet_ops, name) is getattr(m, name)
    assert "SIGMA_U_NOTE" in union
    assert len(union) == 64


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
    # partial_sum's Euler-Maclaurin sums follow a rule's private description,
    # which only the built-in constructors set, never its tag: a user's rule
    # tagged "eta" must take the generic path
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
