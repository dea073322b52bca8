import importlib
import os
import subprocess
import sys
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
    # partial_sum's pool and concurrent.futures wait for the first pooled
    # call, so a cold `dseries` run pays for neither
    probe = (
        "import sys, threading, dirichlet_ops; "
        "print('concurrent.futures' in sys.modules, threading.active_count())"
    )
    src = str(Path(dirichlet_ops.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                         check=True, timeout=60, env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.split() == ["False", "1"]
