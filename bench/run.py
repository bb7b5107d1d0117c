"""hypercut benchmark: one workload, end-to-end or per-layer metrics.

Usage, from the root of a checkout:

    python3 bench/run.py --workload exact-table --seed 0 --seconds 30 --trace 0

With ``--trace 0`` it prints the end-to-end metrics (``setup_s``, ``wall_s``,
``peak_rss_mib``) and the failed-job ratio with its base; with ``--trace 1``
the per-layer metrics of a traced run.  The last line of stdout is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
See README.md in this directory for the workloads and metric definitions.

This script only orchestrates: it starts fresh interpreters (``worker.py``)
with thread-count variables pinned to 1, waits for each, and removes its
scratch directory.  It imports nothing from hypercut itself.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import DEFAULT_SEED, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: Scratch space inside the checkout (ignored by git).
WORKDIR = ".bench_work"
#: Fresh interpreters whose start-up is measured for ``setup_s``; the
#: measuring worker adds one more sample.
SETUP_PROBES = 8
#: Every process this script starts must be done by then (seconds).
DEADLINE = 170.0

PINNED_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}

def unit_of(metric: str) -> str:
    """Unit of a per-layer metric, from its name."""
    if metric.endswith("_per_s"):
        return "1/s"
    if metric.endswith((".share", ".coverage")):
        return "ratio"
    if metric.endswith(".bytes"):
        return "B"
    if metric.endswith(".max_bits"):
        return "bits"
    if metric == "asymptotics.curve.max_abs_dev":
        return "bits"
    if metric == "asymptotics.beta_star.max_abs_dev":
        return "ratio"
    if metric.endswith("_s") or "_s." in metric:
        return "s"
    return "count"


def git_commit(root: Path) -> str | None:
    """Commit of a git checkout at ``root``, read without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


class Failure(Exception):
    """The benchmark could not produce a result."""


def spawn_worker(args: list[str], env: dict, deadline: float) -> dict:
    """Run worker.py to completion and return its JSON result line."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise Failure("time budget exhausted before starting a worker")
    spawned_at = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), *args,
             "--spawned-at", repr(spawned_at)],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise Failure(f"worker exceeded the {DEADLINE:.0f} s budget") from exc
    if proc.returncode != 0:
        raise Failure(f"worker exited with code {proc.returncode}:\n"
                      f"{proc.stderr.strip()[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise Failure("worker printed no result")
    return json.loads(lines[-1])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=35.0,
                    help="measuring time of the run")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    deadline = time.monotonic() + DEADLINE

    if not (ROOT / "src" / "hypercut" / "__init__.py").is_file():
        print(f"error: {ROOT / 'src' / 'hypercut'} not found; run from a "
              f"checkout of the hypercut repository", file=sys.stderr)
        return 2

    env = dict(os.environ, **PINNED_ENV)
    env["PYTHONPATH"] = str(ROOT / "src")
    (ROOT / WORKDIR).mkdir(exist_ok=True)
    workdir = ROOT / WORKDIR / f"run-{os.getpid()}-{time.time_ns()}"
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    try:
        probes = []
        if not args.trace:
            for i in range(SETUP_PROBES):
                probes.append(spawn_worker(
                    common + ["--seconds", "0", "--setup-only",
                              "--workdir", str(workdir / f"probe-{i}")],
                    env, deadline)["setup_s"])
        trace_file = ROOT / WORKDIR / "traces" / f"{args.workload}.jsonl"
        res = spawn_worker(
            common + ["--seconds", str(args.seconds), "--trace", str(args.trace),
                      "--workdir", str(workdir / "main"),
                      "--trace-file", str(trace_file)],
            env, deadline)
    except Failure as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    prov = dict(res["provenance"], nproc=nproc(), cpu_model=cpu_model(),
                git_commit=git_commit(ROOT), workload=args.workload)
    attempted, failed = res["attempted"], res["failed"]
    print(f"workload {args.workload}, seed {args.seed}")
    for kind, walls in res["walls"].items():
        if walls:
            print(f"  {kind} passes (s): " + " ".join(f"{w:.4f}" for w in walls))
    for name, secs in res["jobs"].items():
        print(f"  job {name:<40} {secs:9.4f} s (median)")
    for problem in res["problems"]:
        print(f"  FAILED {problem}")
    print(f"  failed_ratio {failed}/{attempted} = {failed / attempted:.4g} "
          f"(jobs failed / jobs attempted)")
    if args.trace:
        metrics = {k: {"value": v, "unit": unit_of(k)}
                   for k, v in sorted(res["per_layer"].items())}
        if not res["counts_repeat"]:
            print("  note: per-layer counts differed between traced passes; "
                  "the first traced pass is reported")
        print(f"  trace written to {trace_file.relative_to(ROOT)}")
    else:
        setup = statistics.median(probes + [res["setup_s"]])
        metrics = {
            "setup_s": {"value": setup, "unit": "s"},
            "wall_s": {"value": res["wall_s"], "unit": "s"},
            "peak_rss_mib": {"value": res["peak_rss_mib"], "unit": "MiB"},
        }
    for name, m in metrics.items():
        print(f"  {name:<58} {m['value']:>16.6g} {m['unit']}")
    print("provenance " + json.dumps(prov, sort_keys=True))
    print(json.dumps({"correct": failed == 0 and attempted > 0,
                      "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
