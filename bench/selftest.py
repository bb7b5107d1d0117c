"""Self-test of the benchmark.  Run from the root of a checkout:

    python3 bench/selftest.py [workload ...]

It checks that
* the tracer puts every original function back, so untraced passes run the
  package unwrapped;
* two traced runs of the same workload and seed report identical
  deterministic counts (calls, cells, max_bits, assignments, instances,
  cap_exceeded, bytes, evaluations per root);
* every metric the runs print is declared in BENCHMARK.json with the same
  unit, and every declared metric is printed;
* each workload's primary layers hold more than half of its traced time and
  every layer it bypasses holds under 5%;
* every job passes its output checks.
"""

from __future__ import annotations

import inspect
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

COUNT_SUFFIXES = (".calls", ".cells", ".max_bits", ".assignments",
                  ".instances", ".cap_exceeded", ".bytes", ".evals_per_root")

#: Layers that must hold more than half of a workload's traced time, and
#: layers it bypasses (under 5% each).
PRIMARY = {
    "exact-table": ("exact_distribution",),
    "asymptotic": ("asymptotics",),
    "instance": ("core", "oracle", "ensemble"),
}
BYPASSED = {
    "exact-table": ("asymptotics", "core", "oracle", "ensemble", "formats"),
    "asymptotic": ("core", "oracle", "ensemble", "formats"),
    "instance": ("asymptotics",),
}


def run(workload: str, trace: int, seconds: str = "1") -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(workloads.DEFAULT_SEED), "--seconds", seconds,
         "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    if proc.returncode != 0:
        raise AssertionError(f"run.py failed on {workload}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_restore() -> None:
    import importlib

    import hypercut
    from hypercut.exact_distribution import CutsizeTable

    spaces = [importlib.import_module(f"hypercut.{m}")
              for m in tracing.MODULES] + [hypercut]

    def snapshot():
        return {(ns.__name__, k): v for ns in spaces
                for k, v in vars(ns).items() if inspect.isfunction(v)}

    before = snapshot()
    validate = CutsizeTable.validate
    tr = tracing.Tracer()
    with tr.installed():
        wrapped = snapshot()
        assert CutsizeTable.validate is not validate
        assert wrapped[("hypercut.cli", "check_block_diagonalizable")] is \
            wrapped[("hypercut.core", "check_block_diagonalizable")]
        assert wrapped[("hypercut.oracle", "enumerate_all")] is not \
            before[("hypercut.oracle", "enumerate_all")]
    assert snapshot() == before, "tracer left a wrapper installed"
    assert CutsizeTable.validate is validate
    print("ok: tracer restores every original")


def main(argv: list[str]) -> int:
    names = argv or list(workloads.WORKLOADS)
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m["unit"] for m in declared["end_to_end"]}
    layer = {m["name"]: m["unit"] for m in declared["per_layer"]}
    check_restore()
    for name in names:
        first, second = run(name, 1), run(name, 1)
        for res in (first, second):
            assert res["correct"] and res["failed"] == 0, res
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            assert got == layer, f"{name}: per-layer metrics differ from " \
                f"BENCHMARK.json: {sorted(set(got) ^ set(layer))}"
        counts = [{k: v["value"] for k, v in r["metrics"].items()
                   if k.endswith(COUNT_SUFFIXES)} for r in (first, second)]
        diff = {k for k in counts[0] if counts[0][k] != counts[1][k]}
        assert not diff, f"{name}: counts differ between runs: {sorted(diff)}"
        share = {k.split(".")[1]: v["value"] for k, v in first["metrics"].items()
                 if k.startswith("layer.")}
        primary = sum(share[m] for m in PRIMARY[name])
        assert primary > 0.5, f"{name}: primary layers hold {primary:.3f}"
        for m in BYPASSED[name]:
            assert share[m] < 0.05, f"{name}: bypassed {m} holds {share[m]:.3f}"
        print(f"ok: {name}: {len(counts[0])} counts repeat, primary share "
              f"{primary:.3f}")
        res = run(name, 0)
        assert res["correct"], res
        got = {k: v["unit"] for k, v in res["metrics"].items()}
        assert got == e2e, f"{name}: end-to-end metrics differ: {got}"
        print(f"ok: {name}: end-to-end metrics match BENCHMARK.json")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
