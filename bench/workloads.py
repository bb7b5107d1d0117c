"""The benchmark's workloads: their jobs and how each job's output is checked.

Every job is an in-process call to ``hypercut.cli.main(argv)`` or to a public
library function, looked up on its module at call time so that the tracer's
wrappers apply when installed.  A job returns a raw result; ``observe`` turns
it into a small JSON-able observation, outside the timed region.  An
observation is checked two ways:

* invariants that hold for every seed (exit codes, oracle ``EXACT MATCH``,
  the table identities, "feasible => cutsize <= n - m", ...);
* equality with the reference observation recorded at the seed commit
  (``reference.json``): SHA-256 digests of exact tables, floats to 5e-5
  (the acceptance tolerance of the C01-C03 tests), log2 cells to 1e-9
  relative.  Jobs whose inputs depend on the workload seed are compared
  only at the seed the reference was recorded with.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import io
import math
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Callable, Iterable, Iterator

WORKLOADS = ("exact-table", "asymptotic", "instance")
DEFAULT_SEED = 0

#: Float tolerance on beta* and curve values (tests C01-C03).
FLOAT_TOL = 5e-5
#: Relative tolerance on log2 cells (the log2 evaluator's documented accuracy).
LOG2_RTOL = 1e-9

EXACT_TABLES = ((300, 2, 4), (240, 3, 6), (300, 2, 6))
STDOUT_TABLE = (120, 2, 4)
LOG2_CELLS = ((2000, 2, 4), (1200, 3, 6))
INSTANCES = (32, 36)
MC_SAMPLES = 20000


@dataclass
class Job:
    name: str
    kind: str
    execute: Callable[[], object]
    params: dict = field(default_factory=dict)
    #: True when the job's inputs depend on the workload seed.
    seeded: bool = False


@dataclass
class Workload:
    jobs: list[Job]
    outdir: Path


def run_cli(argv: list[str]) -> dict:
    """Run ``hypercut.cli.main(argv)`` with stdout and stderr captured."""
    from hypercut import cli
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:  # argparse rejected the arguments
            rc = exc.code if isinstance(exc.code, int) else 2
    return {"rc": rc, "stdout": out.getvalue(), "stderr": err.getvalue()}


def log2_cell(n: int, gamma: int, delta: int, s: int, m1: int) -> dict:
    """One large-n log2 cell next to its asymptotic estimate n*g(sigma, mu1)."""
    from hypercut import asymptotics, ensemble, exact_distribution
    params = ensemble.validate(n, gamma, delta)
    value = exact_distribution.log2_expected_bipartitions(params, s, m1)
    rate = asymptotics.growth_rate(s / n, m1 / params.m, (gamma, delta))
    return {"value": value, "ng": n * rate.value}


def _cli_job(name, kind, argv, seeded=False, **params) -> Job:
    return Job(name, kind, lambda: run_cli(argv), params, seeded)


def build(workload: str, seed: int, outdir: Path) -> Workload:
    """Job list of ``workload``; inputs that need files are written to ``outdir``."""
    jobs: list[Job] = []
    if workload == "exact-table":
        for n, g, d in EXACT_TABLES:
            tag = f"{n}-{g}-{d}"
            jobs.append(_cli_job(
                f"dist-{tag}", "dist-files",
                ["dist", "-n", str(n), "-g", str(g), "-d", str(d),
                 "-e", "0.1", "-o", f"A-{tag}.csv", "--b-out", f"B-{tag}.csv"],
                n=n, gamma=g, delta=d, epsilon="0.1",
                a=f"A-{tag}.csv", b=f"B-{tag}.csv"))
        n, g, d = STDOUT_TABLE
        jobs.append(_cli_job(
            f"dist-{n}-{g}-{d}-stdout", "dist-stdout",
            ["dist", "-n", str(n), "-g", str(g), "-d", str(d), "-e", "0"],
            n=n, gamma=g, delta=d, epsilon="0"))
    elif workload == "asymptotic":
        jobs.append(_cli_job(
            "tables-eps0", "tables",
            ["tables", "-g", "2,3,5", "-d", "6,10,21", "-o", "verdicts-eps0.csv"],
            out="verdicts-eps0.csv"))
        jobs.append(_cli_job(
            "tables-eps0.1", "tables",
            ["tables", "-g", "2", "-d", "4,5", "-e", "0.1",
             "-o", "verdicts-eps0.1.csv"],
            out="verdicts-eps0.1.csv"))
        jobs.append(_cli_job(
            "growth-2-5", "growth",
            ["growth", "-g", "2", "-d", "5", "-e", "0.05", "--step", "0.01",
             "-o", "curve-2-5.csv"],
            out="curve-2-5.csv", points=101))
        for n, g, d in LOG2_CELLS:
            m1 = (g * n // d) // 2
            for s in (n // 10, n // 5):
                jobs.append(Job(f"log2-{n}-{g}-{d}-s{s}", "log2",
                                functools.partial(log2_cell, n, g, d, s, m1),
                                dict(n=n, gamma=g, delta=d, s=s, m1=m1)))
    elif workload == "instance":
        for n in INSTANCES:
            m = 2 * n // 4
            part = outdir / f"half-{m}.txt"
            part.write_text("".join("1\n" if v < m // 2 else "2\n"
                                    for v in range(m)))
            alist = f"inst-{n}.alist"
            jobs.append(_cli_job(
                f"sample-{n}", "sample",
                ["sample", "-n", str(n), "-g", "2", "-d", "4",
                 "--seed", str(seed), "-o", alist],
                seeded=True, out=alist))
            jobs.append(_cli_job(
                f"check-{n}", "check",
                ["check", "--alist", str(outdir / alist),
                 "--partition", str(part)],
                seeded=True, n=n, m=m, alist=alist))
        jobs.append(_cli_job("oracle-exhaustive-4", "oracle-exhaustive",
                             ["oracle", "-n", "4", "-g", "2", "-d", "4"]))
        jobs.append(_cli_job(
            "oracle-montecarlo-8", "oracle-montecarlo",
            ["oracle", "-n", "8", "-g", "2", "-d", "4", "--mode", "montecarlo",
             "--samples", str(MC_SAMPLES), "--seed", str(seed),
             "-o", "estimate-8.csv"],
            seeded=True, out="estimate-8.csv"))
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return Workload(jobs, outdir)


# --- observing -------------------------------------------------------------

def _csv_rows(lines: Iterable[str]) -> Iterator[str]:
    """CSV data lines from the header row on, skipping ``#`` comments."""
    for line in lines:
        line = line.rstrip("\n")
        if line and not line.startswith("#"):
            yield line


def _digest(lines: Iterable[str]) -> str:
    h = hashlib.sha256()
    for line in _csv_rows(lines):
        h.update(line.encode())
        h.update(b"\n")
    return h.hexdigest()


def _stdout_section(stdout: str, header: str) -> list[str]:
    """Lines of the CSV block that starts with ``header`` in CLI stdout."""
    lines = stdout.splitlines()
    try:
        start = lines.index(header)
    except ValueError:
        return []
    block = [header]
    for line in lines[start + 1:]:
        if not line or not line[0].isdigit():
            break
        block.append(line)
    return block


def _file_digest(path: Path) -> str | None:
    if not path.exists():
        return None
    with path.open() as fh:
        return _digest(fh)


def _read_csv(path: Path) -> list[list[str]]:
    with path.open() as fh:
        rows = list(_csv_rows(fh))
    return [r.split(",") for r in rows[1:]]


def observe(job: Job, raw: dict, outdir: Path) -> dict:
    """Small JSON-able summary of one job's output."""
    p = job.params
    if job.kind == "log2":
        return {"value": raw["value"], "ng": raw["ng"]}
    obs = {"rc": raw["rc"]}
    out = raw["stdout"]
    if job.kind == "dist-files":
        obs["A"] = _file_digest(outdir / p["a"])
        obs["B"] = _file_digest(outdir / p["b"])
    elif job.kind == "dist-stdout":
        obs["A"] = _digest(_stdout_section(out, "s,m1,A_num,A_den"))
        obs["B"] = _digest(_stdout_section(out, "s,B_num,B_den"))
    elif job.kind == "tables":
        path = outdir / p["out"]
        obs["rows"] = [[int(r[0]), int(r[1]), float(r[2]), float(r[3]),
                        r[4] == "true", float(r[5])]
                       for r in _read_csv(path)] if path.exists() else []
    elif job.kind == "growth":
        path = outdir / p["out"]
        obs["points"] = ([[float(a), float(b)] for a, b in _read_csv(path)]
                         if path.exists() else [])
    elif job.kind == "sample":
        obs["alist"] = _file_digest(outdir / p["out"])
    elif job.kind == "check":
        obs.update(_parse_check(out))
    elif job.kind == "oracle-exhaustive":
        obs["match"] = "EXACT MATCH" in out.splitlines()
        obs["table"] = _digest(_stdout_section(out, "s,m1,A_num,A_den"))
    elif job.kind == "oracle-montecarlo":
        bad = [line for line in out.splitlines()
               if line.startswith("cells beyond 4 standard errors:")]
        obs["bad"] = (int(bad[0].split(":")[1].split("/")[0]) if bad else None)
        obs["estimate"] = _file_digest(outdir / p["out"])
    return obs


def _parse_check(out: str) -> dict:
    """Fields of ``hypercut check`` stdout that the checks use."""
    res: dict = {}
    for line in out.splitlines():
        key, _, val = line.partition(": ")
        if key == "matrix":
            dims = val.split(",")[0].split()
            res["rows"], res["cols"] = int(dims[0]), int(dims[3])
        elif key.startswith("balanced"):
            res["balanced"] = val == "yes"
        elif key == "cutsize":
            res["cutsize"] = int(val)
        elif key.startswith("per-part"):
            res["per_part"] = val
        elif key.startswith("block-diagonal encodable"):
            res["feasible"] = val == "yes"
        elif key.startswith("min cutsize over"):
            res["min_cut"] = int(val)
    return res


# --- checking --------------------------------------------------------------

def check_a_table(rows: Iterable[str], n: int, gamma: int, delta: int) -> list[str]:
    """Structural identities of an A table given as ``s,m1,num,den`` lines.

    Every cell avg(s, m1) is an integer over C(delta*m, delta*m1), so the row
    sums ``C(m, m1)`` (and with them the total 2^m) are checked in integers.
    Symmetry m1 <-> m - m1 and the support condition are checked per s.
    """
    m = gamma * n // delta
    den_full = [math.comb(delta * m, delta * m1) for m1 in range(m + 1)]
    acc = [0] * (m + 1)
    it = iter(rows)
    if next(it, None) != "s,m1,A_num,A_den":
        return ["A table header missing"]
    cells: list[tuple[int, int]] = []
    s_expect = 0
    for line in it:
        s, m1, num, den = (int(x) for x in line.split(","))
        if s != s_expect or m1 != len(cells):
            return [f"A table cell ({s}, {m1}) out of order"]
        if num < 0 or den <= 0 or den_full[m1] % den:
            return [f"A table cell ({s}, {m1}) = {num}/{den} is not a "
                    f"value over C(delta*m, delta*m1)"]
        if num and (s > delta * m1 or s > delta * (m - m1)):
            return [f"A table support violated at ({s}, {m1})"]
        acc[m1] += num * (den_full[m1] // den)
        cells.append((num, den))
        if m1 == m:
            if cells != cells[::-1]:
                return [f"A table symmetry broken at s = {s}"]
            cells = []
            s_expect += 1
    if s_expect != n + 1:
        return [f"A table has {s_expect} cutsize rows, expected {n + 1}"]
    for m1 in range(m + 1):
        if acc[m1] != math.comb(m, m1) * den_full[m1]:
            return [f"A table row sum at m1 = {m1} is not C(m, m1)"]
    return []


def check_b_table(a_rows: Iterable[str], b_rows: Iterable[str], n: int,
                  gamma: int, delta: int, epsilon: str) -> list[str]:
    """The balanced column equals the A table summed over the balanced m1."""
    m = gamma * n // delta
    eps = Fraction(epsilon)
    lo = max(0, math.ceil(Fraction(m, 2) * (1 - eps)))
    hi = min(m, math.floor(Fraction(m, 2) * (1 + eps)))
    want = [Fraction(0)] * (n + 1)
    a_it, b_it = iter(a_rows), iter(b_rows)
    if next(a_it, None) != "s,m1,A_num,A_den" or next(b_it, None) != "s,B_num,B_den":
        return ["A or B table header missing"]
    for line in a_it:
        s, m1, num, den = (int(x) for x in line.split(","))
        if lo <= m1 <= hi:
            want[s] += Fraction(num, den)
    got = [Fraction(int(r.split(",")[1]), int(r.split(",")[2])) for r in b_it]
    if got != want:
        return ["B table differs from the balanced sum of the A table"]
    return []


def half_cutsize(alist: Path, m: int) -> int:
    """Columns of an alist matrix that meet both halves of its rows."""
    lines = [line for line in alist.read_text().splitlines() if line.strip()]
    n = int(lines[0].split()[0])
    cut = 0
    for line in lines[4:4 + n]:
        rows = {int(x) - 1 < m // 2 for x in line.split() if x != "0"}
        cut += len(rows) == 2
    return cut


def invariants(job: Job, obs: dict, raw: dict, outdir: Path) -> list[str]:
    """Checks that hold at every seed; ``raw`` and files are still current."""
    p = job.params
    if job.kind == "log2":
        v, ng = obs["value"], obs["ng"]
        if not (math.isfinite(v) and math.isfinite(ng)):
            return [f"non-finite log2 cell {v} or estimate {ng}"]
        # The finite-n value sits O(log n) bits from n*g(sigma, mu1).
        if abs(v - ng) > 2 * math.log2(p["n"]):
            return [f"log2 cell {v} is {v - ng:+.3f} bits from n*g"]
        return []
    if obs["rc"] != 0:
        return [f"exit code {obs['rc']}: {raw['stderr'].strip()[:200]}"]
    if job.kind == "dist-files":
        # Streamed from disk: holding a 5 MB table in memory here would
        # show up in the workload's peak RSS.
        with (outdir / p["a"]).open() as fa:
            bad = check_a_table(_csv_rows(fa), p["n"], p["gamma"], p["delta"])
        if bad:
            return bad
        with (outdir / p["a"]).open() as fa, (outdir / p["b"]).open() as fb:
            return check_b_table(_csv_rows(fa), _csv_rows(fb), p["n"],
                                 p["gamma"], p["delta"], p["epsilon"])
    if job.kind == "dist-stdout":
        a_rows = _stdout_section(raw["stdout"], "s,m1,A_num,A_den")
        b_rows = _stdout_section(raw["stdout"], "s,B_num,B_den")
        return (check_a_table(a_rows, p["n"], p["gamma"], p["delta"])
                or check_b_table(a_rows, b_rows, p["n"], p["gamma"],
                                 p["delta"], p["epsilon"]))
    if job.kind == "tables":
        for g, d, rate, beta, ok, margin in obs["rows"]:
            if not 0 < beta < 1:
                return [f"beta* = {beta} outside (0, 1) at ({g}, {d})"]
            if abs(rate - beta - margin) > 1e-8 or ok != (margin >= 0):
                return [f"verdict row ({g}, {d}) is inconsistent"]
        return [] if obs["rows"] else ["no verdict rows written"]
    if job.kind == "growth":
        if len(obs["points"]) != p["points"]:
            return [f"{len(obs['points'])} curve points, expected {p['points']}"]
        return []
    if job.kind == "check":
        need = ("rows", "cols", "balanced", "cutsize", "feasible", "min_cut")
        if any(k not in obs for k in need):
            return ["check output is missing a field"]
        if (obs["rows"], obs["cols"]) != (p["m"], p["n"]):
            return [f"matrix is {obs['rows']} x {obs['cols']}"]
        if obs["cutsize"] != half_cutsize(outdir / p["alist"], p["m"]):
            return ["cutsize differs from the half/half cut of the alist"]
        if obs["feasible"] and obs["cutsize"] > obs["cols"] - obs["rows"]:
            return ["feasible but cutsize > n - m"]
        # The half/half partition is balanced, so it bounds the minimum.
        if not obs["balanced"] or obs["min_cut"] > obs["cutsize"]:
            return ["min cutsize exceeds the half/half partition's cutsize"]
        return []
    if job.kind == "oracle-exhaustive":
        return [] if obs["match"] else ["oracle did not report EXACT MATCH"]
    if job.kind == "oracle-montecarlo":
        return [] if obs["bad"] is not None else ["no Monte Carlo summary"]
    if job.kind == "sample":
        return [] if obs["alist"] else ["no alist written"]
    return []


def compare(job: Job, obs: dict, ref: dict) -> tuple[list[str], dict]:
    """Differences from the reference observation, and measured deviations."""
    if job.kind == "tables":
        want = {(r[0], r[1]): r for r in ref["rows"]}
        got = {(r[0], r[1]): r for r in obs["rows"]}
        if set(want) != set(got):
            return ["verdict rows differ from the reference"], {}
        dev = max(abs(got[k][3] - want[k][3]) for k in want)
        bad = [f"beta* at {k} is {got[k][3]} vs {want[k][3]}" for k in want
               if abs(got[k][3] - want[k][3]) > FLOAT_TOL
               or got[k][4] != want[k][4]]
        return bad, {"beta_star": dev}
    if job.kind == "growth":
        want, got = ref["points"], obs["points"]
        if [s for s, _ in want] != [s for s, _ in got]:
            return ["curve grid differs from the reference"], {}
        devs = [0.0 if a == b else abs(a - b)
                for (_, a), (_, b) in zip(got, want)]
        dev = max(devs, default=0.0)
        return ([] if dev <= FLOAT_TOL else
                [f"curve deviates by {dev} from the reference"]), {"curve": dev}
    if job.kind == "log2":
        v, w = obs["value"], ref["value"]
        if abs(v - w) > LOG2_RTOL * abs(w):
            return [f"log2 cell {v} vs reference {w}"], {}
        return [], {}
    if job.kind == "check":
        keys = ("rows", "cols", "balanced", "cutsize", "per_part",
                "feasible", "min_cut")
        bad = [f"{k}: {obs.get(k)!r} vs {ref.get(k)!r}" for k in keys
               if obs.get(k) != ref.get(k)]
        return bad, {}
    bad = [f"{k}: {obs.get(k)!r} vs reference {v!r}" for k, v in ref.items()
           if obs.get(k) != v]
    return bad, {}
