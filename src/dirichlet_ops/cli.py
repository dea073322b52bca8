"""Command-line front end.

Series enter as JSON descriptors, inline or via @file indirection:

    {"kind": "poly", "terms": [{"n": 2, "re": 1, "im": 0}, ...]}
    {"kind": "rule", "name": "ones|eta|moebius|zeta_shift", "k": int?, "truncate": N?}

Rules must carry "truncate" except for `abscissa`, which consumes the rule
natively.  Complex flags are "re,im" pairs.  Output is JSON by default or
CSV with --format csv, written deterministically: fixed key order, floats
in shortest round-trip decimal form (integral values print as integers).

Each subcommand has one handler, bound with set_defaults, that returns its
output once as a triple (json_payload, csv_header, csv_rows); `_poly` and
`_record` build the common shapes, and `_fields` names the attributes a
record copies from a result.  `_emit` writes the triple in the chosen
format, so no handler knows which format was asked for.

Exit status: 0 success, 1 usage/parse error, 2 domain or spectral error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from functools import partial

from . import abscissa as _abscissa
from . import dynamics as _dynamics
from . import evaluation as _evaluation
from . import operators as _operators
from . import spectral as _spectral
from . import volterra as _volterra
from .errors import DomainError, SpectralError
from .series import (
    DirichletPolynomial,
    dirichlet_multiply,
    eta_rule,
    moebius_rule,
    monomial,
    ones_rule,
    table_rule,
    truncate,
    zeta_shift_rule,
)

__all__ = ["run", "main"]


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad usage; the contract here is 1
    def error(self, message):
        raise UsageError(message)


def _diag(message: str) -> None:
    text = f"error: {message}"
    if sys.stderr.isatty() and not os.environ.get("NO_COLOR"):
        text = f"\x1b[31m{text}\x1b[0m"
    print(text, file=sys.stderr)


def _jnum(x: float):
    x = float(x)
    if math.isfinite(x) and x == int(x) and abs(x) < 1e15:
        return int(x)
    return x


def _parse_complex_flag(text: str, flag: str) -> complex:
    parts = text.split(",")
    if len(parts) not in (1, 2):
        raise UsageError(f"{flag}: expected 're' or 're,im', got {text!r}")
    try:
        re = float(parts[0])
        im = float(parts[1]) if len(parts) == 2 else 0.0
    except ValueError:
        raise UsageError(f"{flag}: expected numeric 're,im', got {text!r}") from None
    return complex(re, im)


_RULES = {
    "ones": lambda k: ones_rule(),
    "eta": lambda k: eta_rule(),
    "moebius": lambda k: moebius_rule(),
    "zeta_shift": lambda k: zeta_shift_rule(k),
}


def _load_descriptor(text: str, flag: str):
    if text.startswith("@"):
        try:
            with open(text[1:], "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise UsageError(f"{flag}: cannot read {text[1:]!r}: {exc}") from None
    try:
        desc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise UsageError(f"{flag}: invalid JSON ({exc})") from None
    if not isinstance(desc, (dict, list)):
        raise UsageError(f"{flag}: descriptor must be a JSON object or a terms list")
    return desc


def _parse_terms(terms, flag: str) -> DirichletPolynomial:
    if not isinstance(terms, list):
        raise UsageError(f"{flag}.terms: must be a list")
    coeffs = []
    for i, term in enumerate(terms):
        if not isinstance(term, dict):
            raise UsageError(f"{flag}.terms[{i}]: must be an object")
        n = term.get("n")
        if isinstance(n, bool) or not isinstance(n, int) or n < 1:
            raise UsageError(f"{flag}.terms[{i}].n: must be an integer >= 1, got {n!r}")
        re = term.get("re", 0)
        im = term.get("im", 0)
        for key, val in (("re", re), ("im", im)):
            if isinstance(val, bool) or not isinstance(val, (int, float)):
                raise UsageError(f"{flag}.terms[{i}].{key}: must be a number, got {val!r}")
        coeffs.append((n, complex(_json_float(re), _json_float(im))))
    return DirichletPolynomial(coeffs)


def _json_float(x) -> float:
    # json reads 1e400 as inf but a 400-digit integer as an int, which
    # complex() cannot take: both become inf, which the library names
    try:
        return float(x)
    except OverflowError:
        return math.inf if x > 0 else -math.inf


def _parse_series(text: str, flag: str, allow_rule: bool = False):
    """Returns a DirichletPolynomial, or a CoefficientRule when allow_rule
    and the descriptor is an untruncated rule."""
    desc = _load_descriptor(text, flag)
    if isinstance(desc, list):
        # bare terms array, as emitted by poly-valued subcommands
        return _parse_terms(desc, flag)
    kind = desc.get("kind")
    if kind == "poly":
        return _parse_terms(desc.get("terms", []), flag)
    if kind == "rule":
        name = desc.get("name")
        if name not in _RULES:
            raise UsageError(f"{flag}.name: unknown rule {name!r}, expected one of {sorted(_RULES)}")
        k = desc.get("k")
        if name == "zeta_shift":
            if isinstance(k, bool) or not isinstance(k, int) or k < 0:
                raise UsageError(f"{flag}.k: zeta_shift needs an integer k >= 0, got {k!r}")
        rule = _RULES[name](k)
        trunc = desc.get("truncate")
        if trunc is None:
            if allow_rule:
                return rule
            raise UsageError(f"{flag}.truncate: required for rule descriptors here")
        if isinstance(trunc, bool) or not isinstance(trunc, int) or trunc < 1:
            raise UsageError(f"{flag}.truncate: must be an integer >= 1, got {trunc!r}")
        return truncate(rule, trunc)
    raise UsageError(f"{flag}.kind: must be 'poly' or 'rule', got {kind!r}")


def _poly(f: DirichletPolynomial) -> tuple:
    terms, rows = [], []
    for n, a in f.items():
        re, im = _jnum(a.real), _jnum(a.imag)
        terms.append({"n": n, "re": re, "im": im} if a.imag != 0.0 else {"n": n, "re": re})
        rows.append([n, re, im])
    return terms, ["n", "re", "im"], rows


def _record(pairs: list[tuple[str, object]]) -> tuple:
    # only floats take the number rule: ints (classify's n reaches ~4.7e18)
    # and bools pass as they are
    pairs = [(k, _jnum(v) if isinstance(v, float) else v) for k, v in pairs]
    return dict(pairs), [k for k, _ in pairs], [[v for _, v in pairs]]


def _fields(obj, *names: str) -> list[tuple[str, object]]:
    return [(name, getattr(obj, name)) for name in names]


def _csv_cell(v) -> str:
    # str of a float is its shortest round-trip repr
    if isinstance(v, bool):
        return "true" if v else "false"
    return str(v)


def _emit(out: tuple, fmt: str) -> None:
    payload, header, rows = out
    if fmt == "csv":
        text = "\n".join(",".join(_csv_cell(v) for v in row) for row in [header, *rows])
    else:
        text = json.dumps(payload, separators=(",", ":"))
    sys.stdout.write(text + "\n")


_SPACES = {"zero": _spectral.ZERO_SUBSPACE, "zero_subspace": _spectral.ZERO_SUBSPACE, "full": _spectral.FULL}

_MULTIPLIERS = {
    "derivative": _operators.derivative_multiplier,
    "d": _operators.derivative_multiplier,
    "integration": _operators.integration_multiplier,
    "j": _operators.integration_multiplier,
    "identity": _operators.identity_multiplier,
}


def _eval(args):
    series = _parse_series(args.series, "--series")
    value = _evaluation.evaluate(series, _parse_complex_flag(args.s, "--s"))
    return _record([("re", value.real), ("im", value.imag)])


def _termwise(op, args):
    return _poly(op(_parse_series(args.series, "--series")))


def _mul(args):
    f = _parse_series(args.f, "--f")
    return _poly(dirichlet_multiply(f, _parse_series(args.g, "--g")))


def _seminorm(args):
    f = _parse_series(args.series, "--series")
    est = _evaluation.seminorm(f, args.epsilon, t_max=args.t_max, step=args.step)
    return _record(
        _fields(est, "epsilon", "lower", "upper") + _fields(est.grid, "t_max", "step", "two_sided")
    )


def _abscissa_cmd(args):
    series = _parse_series(args.series, "--series", allow_rule=True)
    if isinstance(series, DirichletPolynomial):
        series = table_rule(dict(series.items()))
    try:
        probe_eps = [float(tok) for tok in args.probe_eps.split(",") if tok.strip()]
    except ValueError:
        raise UsageError(f"--probe-eps: expected comma-separated numbers, got {args.probe_eps!r}") from None
    est = _abscissa.bracket_sigma_u(series, args.n, probe_eps)
    payload: dict = {"N": est.N}
    rows = []
    for name, fit in (("sigma_c", est.sigma_c), ("sigma_a", est.sigma_a)):
        value, uncertainty = _jnum(fit.value), _jnum(fit.uncertainty)
        payload[name] = {"value": value, "uncertainty": uncertainty, "shift": fit.shift}
        rows += [[name, value], [f"{name}_uncertainty", uncertainty], [f"{name}_shift", fit.shift]]
    low, high = _jnum(est.sigma_u_bracket[0]), _jnum(est.sigma_u_bracket[1])
    payload["sigma_u_bracket"] = [low, high]
    payload["sigma_u_note"] = est.note
    payload["probes"] = [{"epsilon": _jnum(p.epsilon), "sup_abs": _jnum(p.sup_abs)} for p in est.probes]
    rows += [["sigma_u_low", low], ["sigma_u_high", high]]
    rows += [[f"probe_sup_eps_{_jnum(p.epsilon)}", _jnum(p.sup_abs)] for p in est.probes]
    return payload, ["field", "value"], rows


def _resolvent(args):
    f = _parse_series(args.series, "--series")
    lam = _parse_complex_flag(args.lmbda, "--lambda")
    return _poly(_spectral.resolvent_apply(lam, f, _SPACES[args.space]))


def _classify(args):
    cls = _spectral.classify_point(_parse_complex_flag(args.lmbda, "--lambda"), _SPACES[args.space])
    pairs: list[tuple[str, object]] = [("verdict", cls.kind)]
    if cls.n is not None:
        pairs.append(("n", cls.n))
    return _record(pairs)


def _bv_check(args):
    # bv_check's scalar form up to _SCALAR_SCAN_MAX, so a cold run there skips numpy's import
    scan = _spectral._scan if args.n <= _spectral._SCALAR_SCAN_MAX else _spectral._scan_array
    report = _spectral._variation(_parse_complex_flag(args.lmbda, "--lambda"), args.delta, args.n, scan)
    return _record(
        _fields(report, "verdict", "N", "delta", "gap", "variation", "fitted_constant", "majorant_ratio")
    )


def _reciprocal(args):
    report = _spectral.reciprocal_spectrum_check(_parse_complex_flag(args.mu, "--mu"))
    return _record(_fields(report, "in_rho_d", "in_rho_j_reciprocal", "consistent", "gap_d", "gap_j"))


def _volterra_cmd(args):
    g = _parse_series(args.g, "--g")
    if args.check:
        report = _volterra.volterra_identity_check(g)
        payload = {"match": report.match, "lhs": _poly(report.lhs)[0], "rhs": _poly(report.rhs)[0]}
        return payload, ["field", "value"], [["match", report.match]]
    f = monomial(1) if args.f is None else _parse_series(args.f, "--f")
    return _poly(_volterra.volterra_apply(g, f))


def _dynamics_cmd(args):
    f = _parse_series(args.series, "--series")
    report = _dynamics.ergodicity_diagnostic(_MULTIPLIERS[args.op](), f, args.epsilon, args.k_max)
    payload = {
        "verdict": report.verdict,
        "fitted_rate": _jnum(report.fitted_rate),
        "samples": [[k, _jnum(v)] for k, v in report.samples],
    }
    # CSV keeps repr(float) for every sample, integral ones too ("1,1.0")
    return payload, ["k", "value"], [[k, float(v)] for k, v in report.samples]


def _build_parser() -> _Parser:
    parser = _Parser(prog="dseries", description="Dirichlet series operator toolkit")
    parser.add_argument("--format", choices=["json", "csv"], default="json")
    sub = parser.add_subparsers(dest="command", metavar="command")

    p = sub.add_parser("eval", help="evaluate a series at a point")
    p.add_argument("--series", required=True)
    p.add_argument("--s", required=True, help="evaluation point 're,im'")
    p.set_defaults(handler=_eval)

    for name, op, help_text in (
        ("diff", _operators.differentiate, "termwise derivative"),
        ("integrate", _operators.integrate, "termwise antiderivative (needs zero constant term)"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--series", required=True)
        p.set_defaults(handler=partial(_termwise, op))

    p = sub.add_parser("mul", help="coefficient convolution of two series")
    p.add_argument("--f", required=True)
    p.add_argument("--g", required=True)
    p.set_defaults(handler=_mul)

    p = sub.add_parser("seminorm", help="bracketed sup over a right half-plane")
    p.add_argument("--series", required=True)
    p.add_argument("--epsilon", type=float, required=True)
    p.add_argument("--t-max", type=float, default=None)
    p.add_argument("--step", type=float, default=1e-2)
    p.set_defaults(handler=_seminorm)

    p = sub.add_parser("abscissa", help="convergence abscissa estimates for a rule")
    p.add_argument("--series", required=True)
    p.add_argument("--n", type=int, default=10**5, help="partial-sum window length")
    p.add_argument("--probe-eps", default="0.1,0.5", help="comma-separated epsilons")
    p.set_defaults(handler=_abscissa_cmd)

    p = sub.add_parser("resolvent", help="apply (lambda I - D)^(-1)")
    p.add_argument("--series", required=True)
    p.add_argument("--lambda", dest="lmbda", required=True)
    p.add_argument("--space", choices=sorted(_SPACES), default="zero")
    p.set_defaults(handler=_resolvent)

    p = sub.add_parser("classify", help="locate lambda relative to the spectrum")
    p.add_argument("--lambda", dest="lmbda", required=True)
    p.add_argument("--space", choices=sorted(_SPACES), default="zero")
    p.set_defaults(handler=_classify)

    p = sub.add_parser("bv-check", help="bounded-variation check of the damped resolvent symbol")
    p.add_argument("--lambda", dest="lmbda", required=True)
    p.add_argument("--delta", type=float, required=True)
    p.add_argument("--n", type=int, default=10**4)
    p.set_defaults(handler=_bv_check)

    p = sub.add_parser("reciprocal", help="inverse-pair spectral consistency at mu")
    p.add_argument("--mu", required=True)
    p.set_defaults(handler=_reciprocal)

    p = sub.add_parser("volterra", help="apply V_g(f) = integrate(g' * f)")
    p.add_argument("--g", required=True)
    p.add_argument("--f", default=None, help="defaults to the constant series 1")
    p.add_argument("--check", action="store_true", help="report the V_g(1) = g - a_1 identity")
    p.set_defaults(handler=_volterra_cmd)

    p = sub.add_parser("dynamics", help="iterate-growth diagnostic for a named multiplier")
    p.add_argument("--op", choices=sorted(_MULTIPLIERS), required=True)
    p.add_argument("--series", required=True)
    p.add_argument("--epsilon", type=float, required=True)
    p.add_argument("--k-max", type=int, default=40)
    p.set_defaults(handler=_dynamics_cmd)

    return parser


def run(argv) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command is None:
            raise UsageError("a subcommand is required (see --help)")
        _emit(args.handler(args), args.format)
        return 0
    except UsageError as exc:
        _diag(str(exc))
        return 1
    except (DomainError, SpectralError) as exc:
        _diag(str(exc))
        return 2


def main() -> None:
    sys.exit(run(sys.argv[1:]))
