"""Runs one workload in a fresh process and prints its raw results as JSON.

``run.py`` starts this script with thread-count variables pinned to 1 and
``PYTHONPATH`` pointing at the checkout's ``src``.  The worker imports
hypercut, builds the workload's inputs (that is the set-up ``--setup-only``
stops after), then runs passes over the job list until ``--seconds`` would
be exceeded.  Untraced runs time every pass with no wrapper installed.
Traced runs alternate untraced and traced passes, so that the tracing
overhead is the difference of two medians taken in the same process.

After each pass every job's output is observed; the first pass is checked
against the invariants and the reference, and later passes must reproduce
the first pass's observations exactly.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import resource
import statistics
import sys
import time
import traceback
from collections import Counter, defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

import tracer as tracing  # noqa: E402  (sibling module of this script)
import workloads  # noqa: E402

def _arg(args, kwargs, pos: int, name: str):
    return kwargs[name] if name in kwargs else args[pos]


def _file_bytes(pos: int):
    def hook(args, kwargs, result):
        return {"bytes": Path(_arg(args, kwargs, pos, "path")).stat().st_size}
    return hook


def _table_hook(args, kwargs, table):
    cells = table.cells

    def max_bits():
        return max(max(v.numerator.bit_length(), v.denominator.bit_length())
                   for v in cells.values())

    return {"gamma": table.params.gamma, "cells": len(cells),
            "max_bits": max_bits}


#: Attributes computed from a call's arguments and result, per span name.
HOOKS = {
    "exact_distribution.cutsize_table": _table_hook,
    "exact_distribution.write_table_csv": _file_bytes(1),
    "exact_distribution.write_balanced_csv": _file_bytes(2),
    "core.min_cutsize_bruteforce":
        lambda a, k, r: {"assignments": _arg(a, k, 1, "parts")
                         ** _arg(a, k, 0, "h").vertex_count},
    "oracle.count_bipartitions":
        lambda a, k, r: {"assignments": 1 << _arg(a, k, 0, "h").vertex_count},
}


def run_pass(wl: workloads.Workload, tracer=None):
    """Run every job once; returns (per-job seconds, per-job (raw, error))."""
    times, results = [], []
    for job in wl.jobs:
        t0 = time.perf_counter()
        try:
            raw, err = job.execute(), None
        except Exception:
            raw, err = None, traceback.format_exc(limit=4)
        times.append(time.perf_counter() - t0)
        results.append((raw, err))
        if tracer is not None:
            tracer.finalize()
    return times, results


class Checker:
    """Checks observations; remembers the first pass to compare later ones."""

    def __init__(self, wl, reference, seed):
        self.wl = wl
        self.refs = reference["jobs"] if reference else {}
        self.ref_seed = reference["seed"] if reference else None
        self.seed = seed
        self.first: dict[str, tuple[dict, list[str]]] = {}
        self.devs: dict[str, float] = {}
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def check(self, results) -> None:
        for job, (raw, err) in zip(self.wl.jobs, results):
            self.attempted += 1
            if err is not None:
                self._fail(job, f"raised {err.strip().splitlines()[-1]}")
                continue
            try:
                obs = workloads.observe(job, raw, self.wl.outdir)
                if job.name not in self.first:
                    self.first[job.name] = (obs, self._first_check(job, obs, raw))
            except Exception as exc:  # malformed output: the job failed
                self._fail(job, f"unreadable output: {exc!r}")
                continue
            first_obs, bad = self.first[job.name]
            if obs != first_obs:
                bad = bad + ["output differs from the first pass"]
            if bad:
                self._fail(job, "; ".join(bad))

    def _first_check(self, job, obs: dict, raw) -> list[str]:
        bad = workloads.invariants(job, obs, raw, self.wl.outdir)
        if job.seeded and self.seed != self.ref_seed:
            return bad
        ref = self.refs.get(job.name)
        if ref is None:
            return bad + ["no reference observation recorded"]
        diff, devs = workloads.compare(job, obs, ref)
        for key, dev in devs.items():
            self.devs[key] = max(self.devs.get(key, 0.0), dev)
        return bad + diff

    def _fail(self, job, why: str) -> None:
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(f"{job.name}: {why}")


def layer_metrics(tr: tracing.Tracer, wall: float) -> tuple[dict, dict]:
    """Per-layer metrics of one traced pass: (timings and rates, counts)."""
    calls: Counter = Counter()
    total: defaultdict = defaultdict(float)
    self_s: defaultdict = defaultdict(float)
    layer_self: defaultdict = defaultdict(float)
    extra_sum: Counter = Counter()
    table_self_by_gamma: defaultdict = defaultdict(float)
    max_bits = 0
    cap_exceeded = 0
    root_time = 0.0
    tmc = "asymptotics.typical_min_cutsize"
    under_tmc = bytearray(len(tr))
    evals_under_tmc = 0
    for idx in range(len(tr)):
        name = tr.name(idx)
        extra = tr.extra.get(idx, {})
        dur, own = tr.duration(idx), tr.self_time(idx)
        parent = tr.parent[idx]
        if parent < 0:
            root_time += dur
        if name == tmc or (parent >= 0 and under_tmc[parent]):
            under_tmc[idx] = 1
        if name == "asymptotics.growth_rate" and under_tmc[idx]:
            evals_under_tmc += 1
        if not extra.get("stop"):
            calls[name] += 1
        total[name] += dur
        self_s[name] += own
        layer_self[name.split(".")[0]] += own
        for key in ("cells", "bytes", "assignments"):
            if key in extra:
                extra_sum[f"{name}.{key}"] += extra[key]
        if "max_bits" in extra:
            max_bits = max(max_bits, extra["max_bits"])
        if "gamma" in extra:
            table_self_by_gamma[extra["gamma"]] += own
        if tr.error.get(idx) == "CapExceeded" and name == "core.max_parallel_degree":
            cap_exceeded += 1

    ed, asy = "exact_distribution", "asymptotics"
    counts = {
        f"{ed}.cutsize_table.calls": calls[f"{ed}.cutsize_table"],
        f"{ed}.cutsize_table.cells": extra_sum[f"{ed}.cutsize_table.cells"],
        f"{ed}.cutsize_table.max_bits": max_bits,
        f"{tracing.VALIDATE}.calls": calls[tracing.VALIDATE],
        f"{ed}.log2_expected_bipartitions.calls":
            calls[f"{ed}.log2_expected_bipartitions"],
        f"{ed}.constellation_coeff.calls": calls[f"{ed}.constellation_coeff"],
        f"{ed}.write_table_csv.bytes": extra_sum[f"{ed}.write_table_csv.bytes"],
        f"{ed}.write_balanced_csv.bytes":
            extra_sum[f"{ed}.write_balanced_csv.bytes"],
        f"{asy}.verdict.calls": calls[f"{asy}.verdict"],
        f"{asy}.typical_min_cutsize.calls": calls[tmc],
        f"{asy}.typical_min_cutsize.evals_per_root":
            evals_under_tmc / calls[tmc] if calls[tmc] else 0,
        f"{asy}.balanced_growth_rate.calls": calls[f"{asy}.balanced_growth_rate"],
        f"{asy}.growth_rate.calls": calls[f"{asy}.growth_rate"],
        f"{asy}.inner_infimum.calls": calls[f"{asy}.inner_infimum"],
        "core.min_cutsize_bruteforce.calls": calls["core.min_cutsize_bruteforce"],
        "core.min_cutsize_bruteforce.assignments":
            extra_sum["core.min_cutsize_bruteforce.assignments"],
        "core.max_parallel_degree.calls": calls["core.max_parallel_degree"],
        "core.max_parallel_degree.cap_exceeded": cap_exceeded,
        "core.check_block_diagonalizable.calls":
            calls["core.check_block_diagonalizable"],
        "oracle.count_bipartitions.calls": calls["oracle.count_bipartitions"],
        "ensemble.enumerate_all.instances": calls["ensemble.enumerate_all"],
        "ensemble.sample_with_rng.calls": calls["ensemble.sample_with_rng"],
    }

    def rate(work: str, span: str) -> float:
        return extra_sum[work] / self_s[span] if self_s[span] > 0 else 0.0

    times = {
        f"{ed}.cutsize_table.self_s": self_s[f"{ed}.cutsize_table"],
        f"{ed}.cutsize_table.self_s.g2": table_self_by_gamma[2],
        f"{ed}.cutsize_table.self_s.g3": table_self_by_gamma[3],
        f"{tracing.VALIDATE}.self_s": self_s[tracing.VALIDATE],
        f"{ed}.log2_expected_bipartitions.self_s":
            self_s[f"{ed}.log2_expected_bipartitions"],
        f"{ed}.constellation_coeff.self_s": self_s[f"{ed}.constellation_coeff"],
        f"{ed}.write_table_csv.self_s": self_s[f"{ed}.write_table_csv"],
        f"{ed}.write_balanced_csv.self_s": self_s[f"{ed}.write_balanced_csv"],
        f"{asy}.verdict.total_s": total[f"{asy}.verdict"],
        f"{asy}.typical_min_cutsize.total_s": total[tmc],
        f"{asy}.balanced_growth_rate.self_s": self_s[f"{asy}.balanced_growth_rate"],
        f"{asy}.growth_rate.self_s": self_s[f"{asy}.growth_rate"],
        f"{asy}.inner_infimum.self_s": self_s[f"{asy}.inner_infimum"],
        f"{asy}.curve.total_s": total[f"{asy}.curve"],
        "core.min_cutsize_bruteforce.self_s": self_s["core.min_cutsize_bruteforce"],
        "core.min_cutsize_bruteforce.assignments_per_s":
            rate("core.min_cutsize_bruteforce.assignments",
                 "core.min_cutsize_bruteforce"),
        "core.max_parallel_degree.total_s": total["core.max_parallel_degree"],
        "core.check_block_diagonalizable.self_s":
            self_s["core.check_block_diagonalizable"],
        "oracle.count_bipartitions.self_s": self_s["oracle.count_bipartitions"],
        "oracle.count_bipartitions.assignments_per_s":
            rate("oracle.count_bipartitions.assignments",
                 "oracle.count_bipartitions"),
        "oracle.exact_ensemble_average.total_s":
            total["oracle.exact_ensemble_average"],
        "oracle.monte_carlo_average.total_s": total["oracle.monte_carlo_average"],
        "ensemble.enumerate_all.self_s": self_s["ensemble.enumerate_all"],
        "ensemble.sample_with_rng.self_s": self_s["ensemble.sample_with_rng"],
        "formats.read_alist.self_s": self_s["formats.read_alist"],
        "formats.write_alist.self_s": self_s["formats.write_alist"],
        "formats.read_partition.self_s": self_s["formats.read_partition"],
        "trace.coverage": root_time / wall if wall > 0 else 0.0,
    }
    for sub in ("dist", "growth", "tables", "sample", "check", "oracle"):
        times[f"cli.cmd_{sub}.self_s"] = self_s[f"cli.cmd_{sub}"]
    for layer in tracing.MODULES:
        times[f"layer.{layer}.share"] = layer_self[layer] / wall if wall > 0 else 0.0
    return times, counts


def provenance(seed: int) -> dict:
    import importlib.util

    import numpy

    import hypercut
    from hypercut.ensemble import RNG_ALGORITHM
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "hypercut": hypercut.__version__,
        "rng_algorithm": RNG_ALGORITHM,
        "seed": seed,
        "gmpy2": importlib.util.find_spec("gmpy2") is not None,
        "python_flint": importlib.util.find_spec("flint") is not None,
        "threads": {k: os.environ.get(k) for k in
                    ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                     "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--workdir", type=Path, required=True)
    ap.add_argument("--spawned-at", type=float, required=True,
                    help="time.monotonic() just before this process started")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--trace-file", type=Path)
    args = ap.parse_args(argv)

    import hypercut
    if Path(hypercut.__file__).resolve().parent != ROOT / "src" / "hypercut":
        print(f"error: imported hypercut from {hypercut.__file__}, "
              f"not from this checkout", file=sys.stderr)
        return 2
    outdir = args.workdir / "out"
    outdir.mkdir(parents=True, exist_ok=True)
    os.environ["HYPERCUT_OUTDIR"] = str(outdir)
    wl = workloads.build(args.workload, args.seed, outdir)
    ref_path = HERE / "reference.json"
    reference = (json.loads(ref_path.read_text())["workloads"][args.workload]
                 if ref_path.exists() else None)
    setup_s = time.monotonic() - args.spawned_at
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    checker = Checker(wl, reference, args.seed)
    walls: dict[str, list[float]] = {"untraced": [], "traced": []}
    job_times: dict[str, list[float]] = defaultdict(list)
    layer_times: dict[str, list[float]] = defaultdict(list)
    layer_counts: list[dict] = []
    last_trace = None
    kinds = ["untraced", "traced"] if args.trace else ["untraced"]
    start = time.perf_counter()
    for i in itertools.count():
        kind = kinds[i % len(kinds)]
        tr = tracing.Tracer(HOOKS) if kind == "traced" else None
        if tr is None:
            times, results = run_pass(wl)
        else:
            with tr.installed():
                times, results = run_pass(wl, tr)
        wall = sum(times)
        walls[kind].append(wall)
        if tr is not None:
            timed, counts = layer_metrics(tr, wall)
            for key, value in timed.items():
                layer_times[key].append(value)
            layer_counts.append(counts)
            last_trace = tr
        for job, t in zip(wl.jobs, times):
            job_times[f"{kind}:{job.name}"].append(t)
        checker.check(results)
        del results
        elapsed = time.perf_counter() - start
        nxt = kinds[(i + 1) % len(kinds)]
        if all(walls[k] for k in kinds) and (
                elapsed + statistics.median(walls[nxt]) > args.seconds):
            break

    result = {
        "workload": args.workload,
        "seed": args.seed,
        "setup_s": setup_s,
        "wall_s": statistics.median(walls["untraced"]),
        "walls": walls,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "problems": checker.problems,
        "jobs": {k: statistics.median(v) for k, v in job_times.items()},
        "provenance": provenance(args.seed),
    }
    if args.trace:
        per_layer = {k: statistics.median(v) for k, v in layer_times.items()}
        per_layer.update(layer_counts[0])
        per_layer["trace.overhead_s"] = (statistics.median(walls["traced"])
                                         - result["wall_s"])
        per_layer["asymptotics.beta_star.max_abs_dev"] = checker.devs.get(
            "beta_star", 0.0)
        per_layer["asymptotics.curve.max_abs_dev"] = checker.devs.get("curve", 0.0)
        result["per_layer"] = per_layer
        result["counts_repeat"] = all(c == layer_counts[0] for c in layer_counts)
        if args.trace_file is not None and last_trace is not None:
            args.trace_file.parent.mkdir(parents=True, exist_ok=True)
            with args.trace_file.open("w") as fh:
                last_trace.write_jsonl(fh, workload=args.workload,
                                       provenance=result["provenance"])
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
