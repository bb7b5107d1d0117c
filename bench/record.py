"""Record ``reference.json``: every job's observation at the default seed.

Run from the root of a checkout whose outputs are trusted:

    python3 bench/record.py

Each workload runs once, untraced; a job that raises or breaks an invariant
stops the recording.  The benchmark compares every later run against this
file (see ``workloads.compare``).
"""

from __future__ import annotations

import json
import os
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402


def main() -> int:
    work = ROOT / run.WORKDIR
    work.mkdir(exist_ok=True)
    recorded = {}
    for name in workloads.WORKLOADS:
        with tempfile.TemporaryDirectory(dir=work) as tmp:
            outdir = Path(tmp)
            os.environ["HYPERCUT_OUTDIR"] = str(outdir)
            wl = workloads.build(name, workloads.DEFAULT_SEED, outdir)
            _, results = worker.run_pass(wl)
            jobs = {}
            for job, (raw, err) in zip(wl.jobs, results):
                if err is not None:
                    print(f"{name}/{job.name} raised:\n{err}", file=sys.stderr)
                    return 1
                obs = workloads.observe(job, raw, outdir)
                bad = workloads.invariants(job, obs, raw, outdir)
                if bad:
                    print(f"{name}/{job.name}: {bad}", file=sys.stderr)
                    return 1
                jobs[job.name] = obs
        recorded[name] = {"seed": workloads.DEFAULT_SEED, "jobs": jobs}
        print(f"recorded {len(jobs)} jobs of {name}")
    doc = {"commit": run.git_commit(ROOT), "workloads": recorded}
    (HERE / "reference.json").write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
