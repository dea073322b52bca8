"""Bits that do not follow numpy's SIMD level.

A fixed corpus runs once in this process and once in a subprocess whose
numpy has its dispatched loops above the x86-64 baseline turned off
(NPY_DISABLE_CPU_FEATURES, set in the child's environment only), and the
two must agree float.hex for float.hex.  The corpus holds the `eval` and
`dynamics` golden replays, evaluate on both of its paths, the direct chunks
of a complex rule's partial_sum (whose products numpy would fuse on an FMA
CPU), the rate fit of ergodicity_diagnostic and the fit of check_growth.
numpy ignores the names of features a CPU lacks, so on such a CPU both
sides run the same loops and the test passes trivially.
"""

import cmath
import math
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

from dirichlet_ops import (
    CoefficientRule,
    DirichletPolynomial,
    Multiplier,
    check_growth,
    derivative_multiplier,
    ergodicity_diagnostic,
    eta_rule,
    evaluate,
    integration_multiplier,
    partial_sum,
    truncate,
)

BASELINE = "X86_V3 X86_V4 AVX512_ICL AVX512_SPR"


def _hex(z) -> list:
    z = complex(z)
    return [z.real.hex(), z.imag.hex()]


def corpus() -> dict:
    """Each value of the corpus as text: float.hex of numbers, the bytes of
    a replayed golden record's stdout."""
    from test_cli import GOLDEN, capture

    out = {}
    for case in GOLDEN:
        argv = case["argv"]
        if {"eval", "dynamics"} & set(argv) and case["code"] == 0 and "--help" not in argv:
            out[" ".join(argv)] = capture(argv)["stdout"]
    small = DirichletPolynomial({3: 0.75 - 1.25j, 17: -2.0, 40: 0.5 + 0.5j, 64: 1 - 3j})
    wide = DirichletPolynomial({n: cmath.exp(0.3j * n) / n for n in range(1, 201)})
    for s in (0.7 + 3.25j, -0.4 + 61j, 2.0):
        out[f"evaluate 4 terms at {s}"] = _hex(evaluate(small, s))
        out[f"evaluate 200 terms at {s}"] = _hex(evaluate(wide, s))
    rule = CoefficientRule("c", lambda ns: np.exp(0.7j * ns) / np.sqrt(ns))
    out["partial_sum of a complex rule"] = _hex(partial_sum(rule, 0.3 + 40j, 3000))
    for m, f, eps in ((derivative_multiplier(), small, 0.3), (derivative_multiplier(), truncate(eta_rule(), 200), 0.4),
                      (integration_multiplier(), truncate(eta_rule(), 120) - truncate(eta_rule(), 1), 0.1)):
        report = ergodicity_diagnostic(m, f, eps)
        out[f"fitted_rate {m.label} {f.term_count} terms"] = report.fitted_rate.hex()
    growth = check_growth(Multiplier(lambda n: n**0.3 * math.log(n) ** 2, "n^0.3 log^2 n"), 10**6)
    out["check_growth fit"] = [growth.limit_estimate.hex(), growth.fit_residual.hex()]
    return out


def test_corpus_bits_do_not_follow_numpy_simd():
    here = Path(__file__).parent
    src = Path(evaluate.__code__.co_filename).parents[1]
    env = {**os.environ, "NPY_DISABLE_CPU_FEATURES": BASELINE, "COLUMNS": "80",
           "PYTHONPATH": os.pathsep.join([str(src), str(here)])}
    code = "import json, test_simd_level; print(json.dumps(test_simd_level.corpus()))"
    child = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                           check=True, timeout=300, env=env, cwd=here)
    here_values = corpus()
    assert len(here_values) >= 12
    assert json.loads(child.stdout) == here_values
