"""Bits that do not follow numpy's SIMD level.

A fixed corpus runs once in this process and once in a subprocess whose
numpy has its dispatched loops above the x86-64 baseline turned off
(NPY_DISABLE_CPU_FEATURES, set in the child's environment only), and the
two must agree float.hex for float.hex.  The corpus holds the `eval` and
`dynamics` golden replays, evaluate on both of its paths, the direct chunks
of a complex rule's partial_sum (whose products numpy would fuse on an FMA
CPU), the rate fit of ergodicity_diagnostic, the fit of check_growth, a
log_index_array read from the log table, two sums of nonnegative terms
taken on arrays (normalized_power_norm's on an array orbit and seminorm's
upper), the boundary-grid kernel's maxima (seminorm's lower of a complex
polynomial on its default two-sided grid and the bracket_sigma_u probes of
a complex table_rule), boundary_values of a one-term polynomial,
summation_by_parts, and six bv_check reports at random lambda and delta
with the `dseries bv-check` output of each (the CLI's scalar form).
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
    boundary_values,
    bracket_sigma_u,
    bv_check,
    check_growth,
    derivative_multiplier,
    ergodicity_diagnostic,
    eta_rule,
    evaluate,
    integration_multiplier,
    normalized_power_norm,
    partial_sum,
    seminorm,
    summation_by_parts,
    table_rule,
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
    # log n read from the log table (and past it), the array orbit's sum and
    # seminorm's upper, both taken on arrays
    spread = DirichletPolynomial({n: complex(math.cos(n), 1 / n) for n in (*range(1, 3001), 2**40, 2**62)})
    out["log_index_array from the table"] = [x.hex() for x in spread.log_index_array().tolist()]
    orbit = DirichletPolynomial({n: cmath.exp(0.7j * n) / n**0.5 for n in range(2, 5001)})
    norm = normalized_power_norm(derivative_multiplier(), orbit, 0.3, 40)
    out["normalized_power_norm on an array orbit"] = norm.hex()
    out["seminorm upper"] = seminorm(spread, 0.25, t_max=5.0).upper.hex()
    # the boundary-grid kernel: products unfused, moduli by np.hypot
    rng = np.random.default_rng(3)
    idx = np.sort(rng.choice(np.arange(1, 601), 40, replace=False)).tolist()
    f = DirichletPolynomial({n: complex(a, b) for n, a, b in zip(idx, rng.normal(size=40), rng.normal(size=40))})
    out["seminorm lower on the default two-sided grid"] = seminorm(f, 0.25).lower.hex()
    rng = np.random.default_rng(100)
    idx = np.sort(rng.choice(np.arange(1, 301), 30, replace=False)).tolist()
    rule = table_rule({n: complex(a, b) for n, a, b in zip(idx, rng.normal(size=30), rng.normal(size=30))})
    out["bracket_sigma_u probes of a complex table"] = [p.sup_abs.hex() for p in
                                                        bracket_sigma_u(rule, 300, [0.1, 0.5]).probes]
    one = DirichletPolynomial({7: 0.3 - 1.7j})
    out["boundary_values of one term"] = [_hex(z) for z in boundary_values(one, 0.45, np.linspace(-300.0, 250.0, 1110))]
    rng = np.random.default_rng(200)
    x, y = (rng.normal(size=5000) + 1j * rng.normal(size=5000) for _ in range(2))
    out["summation_by_parts"] = _hex(summation_by_parts(x, y))
    # bv_check: each report's scalar fields, its partial sums' bytes and the CLI's output
    rng = np.random.default_rng(7)
    for k in range(6):
        lam, delta = complex(rng.uniform(-0.5, 3.0), rng.uniform(-2.0, 2.0)), float(rng.uniform(0.05, 0.95))
        r = bv_check(lam, delta, 2000)
        fields = (r.gap, r.variation, r.fitted_constant, r.majorant_ratio, r.certified_variation)
        out[f"bv_check {k}"] = [*(v.hex() for v in fields), r.verdict, r.partial_sums.tobytes().hex()]
        argv = ["bv-check", f"--lambda={lam.real!r},{lam.imag!r}", "--delta", repr(delta), "--n", "2000"]
        out[" ".join(argv)] = capture(argv)["stdout"]
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
