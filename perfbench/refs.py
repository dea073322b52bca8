"""Reference computations that share no code with dirichlet_ops.

Every check the benchmark makes compares a library result against numpy
and math.fsum arithmetic written here, so a bug in the library cannot
hide in its own oracle.  Results are read through their public accessors
(`items`, `index_array`, `coefficient_array`) and nothing else.
"""

from __future__ import annotations

import hashlib
import math
import struct

import numpy as np


def poly_arrays(f) -> tuple[np.ndarray, np.ndarray]:
    """Sorted index array and matching complex coefficients of a result."""
    return (np.asarray(f.index_array(), dtype=np.int64),
            np.asarray(f.coefficient_array(), dtype=np.complex128))


def terms_arrays(terms: dict) -> tuple[np.ndarray, np.ndarray]:
    """The same arrays for a plain {index: coefficient} input, dropping zeros."""
    keys = sorted(n for n, a in terms.items() if a != 0)
    return (np.array(keys, dtype=np.int64),
            np.array([complex(terms[n]) for n in keys], dtype=np.complex128))


def fsum_complex(values: np.ndarray) -> complex:
    return complex(math.fsum(values.real.tolist()), math.fsum(values.imag.tolist()))


def evaluate(idx: np.ndarray, coeffs: np.ndarray, s: complex) -> complex:
    """sum a_n exp(-s log n), each term rounded once and the sum exactly rounded."""
    if idx.size == 0:
        return 0j
    return fsum_complex(coeffs * np.exp(-s * np.log(idx.astype(np.float64))))


def abs_mass(idx: np.ndarray, coeffs: np.ndarray, sigma: float) -> float:
    """sum |a_n| n^(-sigma): the scale against which evaluation error is judged."""
    if idx.size == 0:
        return 0.0
    return math.fsum((np.abs(coeffs) * np.exp(-sigma * np.log(idx.astype(np.float64)))).tolist())


def eta_values(ns: np.ndarray) -> np.ndarray:
    return np.where(ns % 2 == 1, 1.0, -1.0)


def streamed_sum(values_fn, s: complex, N: int, chunk: int = 1 << 20) -> tuple[complex, float]:
    """sum_{n<=N} values_fn(n) n^(-s) as an fsum of numpy chunk sums.

    Also returns sum |term|, the scale of the rounding error."""
    parts_re, parts_im, mass = [], [], []
    for lo in range(1, N + 1, chunk):
        ns = np.arange(lo, min(N, lo + chunk - 1) + 1, dtype=np.int64)
        terms = values_fn(ns) * np.exp(-s * np.log(ns.astype(np.float64)))
        parts_re.append(float(np.sum(terms.real)))
        parts_im.append(float(np.sum(terms.imag)))
        mass.append(float(np.sum(np.abs(terms))))
    return complex(math.fsum(parts_re), math.fsum(parts_im)), math.fsum(mass)


def convolve(fi: np.ndarray, fc: np.ndarray, gi: np.ndarray, gc: np.ndarray):
    """Dirichlet convolution by outer product and bucketed fsum.

    Returns (indices, coefficients, per-bucket sum of |products|); buckets
    whose products cancel exactly are kept, as zeros."""
    prod_idx = np.multiply.outer(fi, gi).ravel()
    prod = np.multiply.outer(fc, gc).ravel()
    order = np.argsort(prod_idx, kind="stable")
    prod_idx, prod = prod_idx[order], prod[order]
    idx, starts = np.unique(prod_idx, return_index=True)
    ends = np.append(starts[1:], prod_idx.size)
    re, im = prod.real.tolist(), prod.imag.tolist()
    coeffs = np.array([complex(math.fsum(re[a:b]), math.fsum(im[a:b]))
                       for a, b in zip(starts.tolist(), ends.tolist())], dtype=np.complex128)
    scale = np.add.reduceat(np.abs(prod), starts) if prod.size else np.zeros(0)
    return idx, coeffs, scale


def bucket_count(fi: np.ndarray, gi: np.ndarray) -> int:
    """Distinct products n1*n2: the number of convolution buckets."""
    return int(np.unique(np.multiply.outer(fi, gi)).size)


def close_to(got_idx, got, want_idx, want, rtol: float, want_scale=None) -> str | None:
    """None when two coefficient maps agree termwise, else the first difference.

    Indices missing from one side count as zero.  The tolerance at each
    index is rtol * want_scale (when given, aligned with want_idx) or
    rtol * max(|got|, |want|)."""
    union = np.union1d(got_idx, want_idx)
    g = np.zeros(union.size, dtype=np.complex128)
    w = np.zeros(union.size, dtype=np.complex128)
    g[np.searchsorted(union, got_idx)] = got
    w[np.searchsorted(union, want_idx)] = want
    if want_scale is None:
        ref = np.maximum(np.abs(g), np.abs(w))
    else:
        ref = np.zeros(union.size)
        ref[np.searchsorted(union, want_idx)] = want_scale
    err = np.abs(g - w)
    bad = err > rtol * ref
    if np.any(bad):
        i = int(np.flatnonzero(bad)[0])
        return f"coefficient at n={int(union[i])}: {g[i]!r} vs reference {w[i]!r} (rtol {rtol})"
    return None


def digest_poly(f) -> str:
    idx, coeffs = poly_arrays(f)
    return hashlib.sha256(idx.tobytes() + coeffs.tobytes()).hexdigest()


def digest_values(*values) -> str:
    """Hash of floats, ints, complex numbers, strings and polynomials, in order."""
    h = hashlib.sha256()
    for v in values:
        if isinstance(v, complex):
            h.update(struct.pack("<dd", v.real, v.imag))
        elif isinstance(v, float):
            h.update(struct.pack("<d", v))
        elif isinstance(v, (bool, int, str)) or v is None:
            h.update(repr(v).encode())
        elif hasattr(v, "index_array"):
            h.update(digest_poly(v).encode())
        else:
            raise TypeError(f"cannot digest {type(v).__name__}")
    return h.hexdigest()


def spectral_gap(lam: complex, n_max: int = 10**5) -> float:
    """min(|lambda|, min_{2<=n<=n_max} |log n + lambda|) by brute force.

    Exact for the lambdas the benchmark draws (Re lambda >= -5, so the
    minimizing n is far below n_max)."""
    logs = np.log(np.arange(2, n_max + 1, dtype=np.float64))
    return float(min(abs(lam), np.min(np.abs(logs + lam))))
