#!/usr/bin/env python3
"""Benchmark of dirichlet_ops, as imported from this checkout's src/.

    python3 perfbench/run.py --workload stream --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --smoke

One run is a closed loop with one client: a fixed list of jobs (a pass)
runs back to back, the next job starting when the previous one returns.
The number of passes is round(seconds / nominal pass time), so a given
--seconds means the same work on every commit.  Untimed, every result is
checked against perfbench/refs.py, hashed, and turned into work counts.

--trace 0 prints the end-to-end metrics of BENCHMARK.json; --trace 1
interleaves untraced and traced passes and prints the per-layer metrics,
taken from spans the benchmark records around each call into a layer.
The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
A results file with provenance, digests, counts and the raw samples goes
to perfbench/results/.  --smoke runs every workload at tiny sizes, traced
and untraced, and fails unless all checks pass, counts repeat exactly and
every metric of BENCHMARK.json is emitted with its unit and direction.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
PYCACHE = RESULTS / "pycache"

import numpy as np  # noqa: E402

import spans as spans_mod  # noqa: E402
import workloads as wl  # noqa: E402

# nominal seconds per pass on a 2-core x86-64 box at the seed commit
NOMINAL_PASS_S = {"library": 2.6, "cli": 6.5}
MIN_PASSES = 3
TINY_PASSES = 2
SETUP_REPEATS = 5
# end-to-end timings use each job's fastest share of samples (see quiet)
QUIET_SHARE = 0.15
# the calibration loop's quiet time on the reference box (2-core x86-64,
# Python 3.11, numpy 2.4); timings are reported at that machine speed
CALIBRATION_REF_S = 0.6e-3
CALIBRATE_EVERY_S = 0.05
_CAL_X = np.linspace(1.0, 2.0, 1 << 15)

# span name -> (its work count, its ns-per-unit figure); every span also
# gives "<name>_s", its self time per pass
SPAN_METRICS = {
    "evaluation.partial_sum": ("evaluation.partial_sum_terms", "evaluation.partial_sum_ns_per_term"),
    "evaluation.tail_ladder": ("evaluation.tail_ladder_rungs", None),
    "abscissa.window_fit": ("abscissa.window_fit_shifts", None),
    "abscissa.bracket": ("abscissa.probe_grid_points", "abscissa.probe_ns_per_point"),
    "series.construct": ("series.construct_terms", "series.construct_ns_per_term"),
    "series.convolve_dense": ("series.convolve_dense_pairs", "series.convolve_dense_ns_per_pair"),
    "series.convolve_sparse": ("series.convolve_sparse_pairs", "series.convolve_sparse_ns_per_pair"),
    "operators.apply": ("operators.apply_terms", "operators.apply_ns_per_term"),
    "evaluation.evaluate": (None, None),
    "evaluation.seminorm": ("evaluation.seminorm_grid_points", "evaluation.seminorm_ns_per_point"),
    "spectral.classify": ("spectral.classify_calls", None),
    "spectral.resolvent": ("spectral.resolvent_terms", None),
    "spectral.reciprocal": (None, None),
    "volterra.apply": (None, None),
    "volterra.identity_check": (None, None),
    "dynamics.power": (None, None),
    "dynamics.norm": ("dynamics.norm_terms_k", None),
}
# counts reported beside a span's own count, from the same passes
EXTRA_COUNTS = {"series.convolve_dense": ("series.convolve_dense_buckets",),
                "series.convolve_sparse": ("series.convolve_sparse_buckets",)}
CLI_SPANS = [f"cli.{sub}" for sub in wl.CLI_SUBCOMMANDS] + ["cli.interpreter", "cli.import"]


class BenchError(Exception):
    """The benchmark cannot run here (no library source, no BENCHMARK.json)."""


def load_contract() -> dict:
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        raise BenchError(f"{path} not found")
    return json.loads(path.read_text())


def calibrate() -> float:
    """Time a fixed loop, half interpreter work and half numpy arithmetic,
    the two kinds of work the library does."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(6000):
        acc += i * i
    np.exp(-0.5 * np.log(_CAL_X)).sum()
    return time.perf_counter() - t0


def library_env() -> dict:
    """Environment of dseries subprocesses: the library from src/, bytecode
    cached under perfbench/results/ whatever PYTHONDONTWRITEBYTECODE says."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
    return {**env, "PYTHONPATH": str(SRC), "PYTHONPYCACHEPREFIX": str(PYCACHE)}


def fresh_import():
    """Import dirichlet_ops from this checkout's src/, dropping any earlier import."""
    if not (SRC / "dirichlet_ops" / "__init__.py").is_file():
        raise BenchError(f"no library source at {SRC}/dirichlet_ops")
    if sys.path[0] != str(SRC):
        sys.path.insert(0, str(SRC))
    for name in [m for m in sys.modules if m == "dirichlet_ops" or m.startswith("dirichlet_ops.")]:
        del sys.modules[name]
    lib = importlib.import_module("dirichlet_ops")
    if Path(lib.__file__).resolve().parent != (SRC / "dirichlet_ops").resolve():
        raise BenchError(f"dirichlet_ops imported from {lib.__file__}, not from {SRC}")
    return lib


def setup(workload: str, seed: int, size: str):
    """Import the package and generate the inputs, SETUP_REPEATS times.

    Returns the library, the last plan and the median set-up time."""
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        lib = fresh_import()
        plan = wl.PLANNERS[workload](lib, np.random.default_rng(seed), size, library_env())
        times.append(time.perf_counter() - t0)
    return lib, plan, statistics.median(times), times


# ---------------------------------------------------------------- running


class Run:
    """Outcomes of one run: latencies, checks, digests, counts, spans."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[dict] = []
        self.first_digest: dict[str, str] = {}
        self.first_ok: dict[str, bool] = {}
        self.unstable_digests: set[str] = set()
        self.gate_samples: dict[str, list[float]] = {}
        self.job_latency: dict[str, list[float]] = {}
        self.stat_latencies: list[float] = []
        self.pass_walls: dict[str, list[float]] = {"untraced": [], "traced": []}
        self.pass_counts: list[dict] = []
        self.traced_passes: list[tuple[spans_mod.Spans, dict]] = []
        self.census: tuple[spans_mod.Spans, dict] | None = None
        self.calibration: list[float] = []
        self.calibrated_at = -1.0

    def fail(self, job_id: str, problems: list[str]) -> None:
        self.failed += 1
        self.problems.append({"job": job_id, "problems": problems[:5]})

    def execute(self, job: wl.Job, state: dict, sp, job_id: str, key: str):
        """Run one job and verify it; returns (latency, counts), or None on failure.

        `key` names the job's output across passes: outputs under one key
        must repeat bit for bit."""
        self.attempted += 1
        sp.job = job_id
        if time.perf_counter() - self.calibrated_at >= CALIBRATE_EVERY_S:
            self.calibration.append(calibrate())
            self.calibrated_at = time.perf_counter()
        try:
            t0 = time.perf_counter()
            with sp.span("job"):
                result = job.run(state, sp)
            latency = time.perf_counter() - t0
        except Exception:  # a job that raises is a failed job; the run goes on
            self.fail(job_id, [traceback.format_exc(limit=3)])
            return None
        state[job.name] = result
        try:
            problems = self._verify(job, result, key)
            counts = dict(job.counts(result))
        except Exception:
            problems, counts = [traceback.format_exc(limit=3)], {}
        if problems:
            self.fail(job_id, problems)
        self.job_latency.setdefault(key, []).append(latency)
        if job.gate and not sp.traced:
            self.gate_samples.setdefault(job.gate, []).append(latency)
        return latency, counts

    def _verify(self, job: wl.Job, result, key: str) -> list[str]:
        # a full check on a job's first output; later passes must repeat it bit for bit
        digest = job.digest(result)
        if key not in self.first_digest:
            problems = job.check(result)
            self.first_digest[key], self.first_ok[key] = digest, not problems
            return problems
        if digest == self.first_digest[key]:
            return [] if self.first_ok[key] else ["repeats an output that failed its check"]
        self.unstable_digests.add(key)
        return job.check(result)

    def run_pass(self, plan: wl.Plan, label: str, sp) -> None:
        state: dict = {}
        wall, counts = 0.0, {}
        for job in plan.jobs:
            out = self.execute(job, state, sp, f"{label}.{job.name}", job.name)
            if out is None:
                continue
            latency, job_counts = out
            wall += latency
            if job.stat:
                self.stat_latencies.append(latency)
            for key, v in job_counts.items():
                counts[key] = counts.get(key, 0) + int(v)
        self.pass_walls["traced" if sp.traced else "untraced"].append(wall)
        self.pass_counts.append(counts)
        if sp.traced:
            self.traced_passes.append((sp, counts))


def passes_for(workload: str, seconds: float, size: str) -> int:
    if size == "tiny":
        return TINY_PASSES
    return max(MIN_PASSES, round(seconds / NOMINAL_PASS_S[workload]))


def run_workload(workload: str, seed: int, seconds: float, traced: bool, size: str = "full") -> dict:
    lib, plan, setup_s, setup_times = setup(workload, seed, size)
    run = Run()
    passes = passes_for(workload, seconds, size)
    if not traced:
        for i in range(passes):
            run.run_pass(plan, f"p{i}", spans_mod.NoSpans())
    else:
        side = max(TINY_PASSES // 2 if size == "tiny" else 2, math.ceil(passes / 2))
        for i in range(side):
            run.run_pass(plan, f"p{2 * i}", spans_mod.NoSpans())
            run.run_pass(plan, f"p{2 * i + 1}", spans_mod.Spans())
        reached = {name for sp, _ in run.traced_passes for name, _, _ in sp.self_times()}
        if not set(SPAN_METRICS) | set(CLI_SPANS) <= reached:
            run.census = run_census(run, seed)
    self_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    child_rss = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    return {"workload": workload, "seed": seed, "size": size, "traced": traced, "passes": passes,
            "lib": lib, "plan": plan, "run": run, "setup_s": setup_s, "setup_times": setup_times,
            "peak_rss_mb": child_rss if workload == "cli" else self_rss}


def run_census(run: Run, seed: int) -> tuple[spans_mod.Spans, dict]:
    """One traced pass over both workloads at tiny size, so that each layer
    a workload's own passes never call still gets a measured figure; and
    one untraced run of each timed gate."""
    sp, counts = spans_mod.Spans(), {}
    lib = fresh_import()
    for name, job in wl.gate_jobs(lib).items():
        run.execute(job, {}, spans_mod.NoSpans(), f"census.gate.{name}", f"census.gate.{name}")
    for workload in wl.WORKLOADS:
        lib = fresh_import()
        plan = wl.PLANNERS[workload](lib, np.random.default_rng(seed), "tiny", library_env())
        state: dict = {}
        for job in plan.jobs:
            key = f"census.{workload}.{job.name}"
            out = run.execute(job, state, sp, key, key)
            if out is not None:
                for name, v in out[1].items():
                    counts[name] = counts.get(name, 0) + int(v)
    return sp, counts


# ---------------------------------------------------------------- metrics


def tail(samples: list[float]) -> tuple[float, float, int]:
    """The highest percentile with at least ten samples beyond it:
    (value, percentile, sample count).  Below 11 samples, the maximum."""
    xs = sorted(samples)
    n = len(xs)
    if n < 11:
        return xs[-1], 100.0, n
    return xs[n - 11], 100.0 * (n - 10) / n, n


def quiet(xs: list[float]) -> list[float]:
    """The fastest QUIET_SHARE of the samples (at least one): those least
    slowed by other tenants of the host."""
    return sorted(xs)[:max(1, math.ceil(QUIET_SHARE * len(xs)))]


def end_to_end(res: dict) -> tuple[dict, dict]:
    """Timings from each job's quiet samples, scaled to the reference machine
    speed by the run's quiet calibration readings."""
    run: Run = res["run"]
    per_job = {j.name: quiet(run.job_latency[j.name]) for j in res["plan"].jobs if j.stat}
    kept = [x for xs in per_job.values() for x in xs]
    value, pct, n = tail(kept)
    speed = statistics.median(quiet(run.calibration)) / CALIBRATION_REF_S
    raw = {"wall_s": sum(statistics.median(xs) for xs in per_job.values()),
           "job_p50_ms": 1e3 * statistics.median(kept), "job_tail_ms": 1e3 * value}
    metrics = {"setup_s": res["setup_s"], **{k: v / speed for k, v in raw.items()},
               "peak_rss_mb": res["peak_rss_mb"]}
    walls = run.pass_walls["untraced"]
    all_tail = tail(run.stat_latencies)
    detail = {"job_tail": {"percentile": pct, "samples": n}, "gates": gate_detail(run),
              "speed": {"factor": speed, "readings_s": run.calibration, "unscaled": raw},
              "all_samples": {"pass_median_s": statistics.median(walls), "pass_walls_s": walls,
                              "job_p50_ms": 1e3 * statistics.median(run.stat_latencies),
                              "job_tail_ms": 1e3 * all_tail[0], "job_tail_percentile": all_tail[1]}}
    return metrics, detail


def gate_detail(run: Run) -> dict:
    """Each timed gate's median, budget and headroom (negative when over
    budget, which is reported, not counted as a failure)."""
    out = {}
    for gate, samples in run.gate_samples.items():
        med = statistics.median(samples)
        budget = wl.GATE_BUDGETS[gate]
        out[gate] = {"median_s": med, "budget_s": budget, "headroom_s": budget - med, "samples_s": samples}
    return out


def _source(run: Run, name: str) -> tuple[list, str]:
    """The traced passes that reached a span, else the census."""
    hit = [(sp, c) for sp, c in run.traced_passes if any(r["name"] == name for r in sp.records)]
    if hit:
        return hit, "passes"
    if run.census and any(r["name"] == name for r in run.census[0].records):
        return [run.census], "census"
    raise RuntimeError(f"no span {name!r} in the traced passes or the census")


def per_layer(res: dict) -> tuple[dict, dict]:
    run: Run = res["run"]
    metrics, sources = {}, {}
    for name, (count_key, ns_key) in SPAN_METRICS.items():
        src, sources[name] = _source(run, name)
        per_pass = [spans_mod.self_time_totals(sp).get(name, 0.0) for sp, _ in src]
        metrics[f"{name}_s"] = statistics.median(per_pass)
        for key in (count_key, *EXTRA_COUNTS.get(name, ())):
            if key:
                metrics[key] = src[0][1].get(key, 0)
        if ns_key:
            units = sum(c.get(count_key, 0) for _, c in src)
            if units == 0:
                raise RuntimeError(f"span {name!r} ran but counted no {count_key}")
            metrics[ns_key] = 1e9 * sum(per_pass) / units
    for name in CLI_SPANS:
        src, sources[name] = _source(run, name)
        durations = [d for sp, _ in src for n, d, _ in sp.self_times() if n == name]
        metrics[f"{name}_ms"] = 1e3 * statistics.median(durations)
    for gate in wl.GATE_BUDGETS:
        metrics[f"gate.{gate}_s"] = statistics.median(run.gate_samples[gate])
    walls = run.pass_walls
    metrics["trace.overhead_s"] = statistics.median(walls["traced"]) - statistics.median(walls["untraced"])
    detail = {"sources": sources, "gates": gate_detail(run), "pass_walls_s": walls}
    return metrics, detail


# ---------------------------------------------------------------- provenance


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
                         timeout=30, check=False)
    return out.stdout.strip() or None


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def provenance(lib, seed: int, traced: bool) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (KeyError, TypeError, ValueError):
        blas = None
    thread_vars = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
    return {
        "git_commit": git_commit(),
        "src_sha256": source_digest(),
        "dirichlet_ops_file": lib.__file__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": sys.version,
        "numpy": np.__version__,
        "blas": blas,
        "blas_thread_env": {k: os.environ.get(k) for k in thread_vars},
        "platform": platform.platform(),
        "seed": seed,
        "traced": traced,
        "clients": 1,
        "loop": "closed",
    }


def unit_of(name: str, contract: dict) -> tuple[str, str]:
    for m in contract["end_to_end"] + contract["per_layer"]:
        if m["name"] == name:
            return m["unit"], m["better"]
    raise RuntimeError(f"metric {name!r} is not declared in BENCHMARK.json")


def report(res: dict, contract: dict, out_dir: Path) -> dict:
    """Metrics for stdout, plus the results file."""
    run: Run = res["run"]
    traced = res["traced"]
    metrics, detail = per_layer(res) if traced else end_to_end(res)
    declared = [m["name"] for m in contract["per_layer" if traced else "end_to_end"]]
    if sorted(metrics) != sorted(declared):
        raise RuntimeError(f"emitted {sorted(set(metrics) ^ set(declared))} differ from BENCHMARK.json")
    described = {}
    for name, value in metrics.items():
        unit, better = unit_of(name, contract)
        described[name] = {"value": value, "unit": unit, "better": better}
    counts_repeat = all(c == run.pass_counts[0] for c in run.pass_counts)
    if not counts_repeat:
        run.fail("counts", ["work counts differ between passes"])
    body = {
        "provenance": provenance(res["lib"], res["seed"], traced),
        "workload": res["workload"], "size": res["size"], "passes": res["passes"],
        "inputs": res["plan"].inputs,
        "correct": run.failed == 0, "attempted": run.attempted, "failed": run.failed,
        "fail_ratio": run.failed / run.attempted,
        "metrics": described, "detail": detail,
        "setup_samples_s": res["setup_times"],
        "work_counts_per_pass": run.pass_counts[0], "counts_repeat": counts_repeat,
        "digests": run.first_digest, "unstable_digests": sorted(run.unstable_digests),
        "job_latency_s": run.job_latency,
        "problems": run.problems,
    }
    out_dir.mkdir(parents=True, exist_ok=True)
    stem = f"{res['workload']}-{res['size']}-seed{res['seed']}-trace{int(traced)}"
    (out_dir / f"{stem}.json").write_text(json.dumps(body, indent=1, default=str) + "\n")
    if traced:
        with open(out_dir / f"{stem}-spans.jsonl", "w") as fh:
            for i, (sp, _) in enumerate(run.traced_passes):
                sp.write(fh, f"traced{i}")
            if run.census:
                run.census[0].write(fh, "census")
    return {"correct": run.failed == 0, "attempted": run.attempted, "failed": run.failed,
            "metrics": {k: {"value": v["value"], "unit": v["unit"]} for k, v in described.items()},
            "body": body}


# ---------------------------------------------------------------- entry points


def smoke(contract: dict) -> int:
    """Both workloads at tiny size, untraced then traced, same seed."""
    bad = []
    layer_map = json.loads((HERE / "contract.json").read_text())["per_layer"]
    if set(layer_map) != {m["name"] for m in contract["per_layer"]}:
        bad.append("contract.json does not map exactly the per-layer metrics of BENCHMARK.json")
    declared = {m["name"] for m in contract["end_to_end"] + contract["per_layer"]}
    for name, entry in layer_map.items():
        for move in entry["should_move"]:
            if move["metric"] not in declared or move["workload"] not in wl.WORKLOADS:
                bad.append(f"contract.json: {name} should move an undeclared {move}")
    for workload in wl.WORKLOADS:
        counts = []
        for traced in (False, True):
            out = report(run_workload(workload, 7, 0, traced, size="tiny"), contract, RESULTS / "smoke")
            body = out["body"]
            declared = contract["per_layer" if traced else "end_to_end"]
            missing = [m["name"] for m in declared
                       if not {"unit", "better"} <= set(body["metrics"].get(m["name"], {}))]
            if body["fail_ratio"] != 0:
                bad.append(f"{workload} trace={int(traced)}: fail_ratio {body['fail_ratio']}: {body['problems']}")
            if missing:
                bad.append(f"{workload} trace={int(traced)}: metrics not emitted: {missing}")
            if not body["counts_repeat"]:
                bad.append(f"{workload} trace={int(traced)}: counts differ between passes")
            counts.append(body["work_counts_per_pass"])
            print(f"smoke {workload} trace={int(traced)}: attempted {out['attempted']}, "
                  f"failed {out['failed']}", flush=True)
        if counts[0] != counts[1]:
            bad.append(f"{workload}: counts differ between two runs of seed 7")
    for line in bad:
        print("SMOKE FAIL", line, file=sys.stderr)
    print("smoke ok" if not bad else f"smoke failed: {len(bad)} problems")
    return 1 if bad else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=wl.WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="tiny sizes, all workloads, self-checks")
    args = ap.parse_args(argv)
    # the in-process imports cache bytecode where the subprocesses do
    sys.pycache_prefix, sys.dont_write_bytecode = str(PYCACHE), False
    try:
        contract = load_contract()
        fresh_import()
        if args.smoke:
            return smoke(contract)
        if not args.workload:
            ap.error("--workload is required unless --smoke is given")
        res = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
        out = report(res, contract, RESULTS)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps({k: out[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
