"""Command-line interface.

Subcommands: dist, growth, tables, sample, check, oracle.  Exit codes:
0 success, 1 a requested check failed, 2 usage or validation error.  The
environment variable HYPERCUT_OUTDIR, when set, prefixes relative output
paths.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from . import asymptotics, exact_distribution, oracle
from .core import (DEFAULT_ENUM_CAP, CapExceeded, _min_cut_scan, as_ratio,
                   check_block_diagonalizable, matrix_from_hypergraph)
from .ensemble import RNG_ALGORITHM, sample, validate
from .formats import alist_text, read_alist, read_partition, write_alist

#: Most sigma-grid points ``growth`` evaluates.  A point costs about 0.5 ms,
#: so the largest grid, ``--step 0.0001``, runs for about 5 s.
_GROWTH_POINT_BUDGET = 10_001


def _outpath(arg: str | None) -> Path | None:
    if arg is None:
        return None
    path = Path(arg)
    outdir = os.environ.get("HYPERCUT_OUTDIR")
    if outdir and not path.is_absolute():
        path = Path(outdir) / path
    return path


def cmd_dist(args) -> int:
    params = validate(args.n, args.gamma, args.delta)
    eps = args.epsilon
    if eps is not None:  # checked before the table is built
        lo, hi = exact_distribution.balanced_first_part_range(params.m, eps)
    table = exact_distribution.cutsize_table(params)  # checks total = 2^m
    print(f"ensemble: n={params.n} gamma={params.gamma} delta={params.delta} "
          f"m={params.m} xi={params.xi}")
    print(f"sum identity: total = {2 ** params.m} vs 2^m = {2 ** params.m} "
          "PASS")

    out = _outpath(args.out)
    if out is not None:
        rows = exact_distribution.write_table_csv(table, out,
                                                  args.suppress_zeros)
        print(f"wrote {rows} rows to {out}")
    else:
        sys.stdout.write(exact_distribution.table_csv_text(
            table, args.suppress_zeros))

    if eps is not None:
        if lo > hi:
            print(f"note: no exactly balanced bipartition exists "
                  f"(m = {params.m}, epsilon = {eps}); B is identically zero")
        bout = _outpath(args.b_out)
        if bout is not None:
            rows = exact_distribution.write_balanced_csv(table, eps, bout,
                                                         args.suppress_zeros)
            print(f"wrote {rows} balanced rows to {bout}")
        else:
            sys.stdout.write(exact_distribution.balanced_csv_text(
                table, eps, args.suppress_zeros))

    if args.check_oracle:
        avg = oracle.exact_ensemble_average(params, cap=args.cap)
        match = avg == table
        print(f"oracle equality: {'EXACT MATCH PASS' if match else 'MISMATCH FAIL'}")
        if not match:
            return 1
    return 0


def cmd_growth(args) -> int:
    inverse = 1.0 / args.step if args.step > 0 else 0.0
    if inverse + 1 > _GROWTH_POINT_BUDGET + 0.5:
        raise ValueError(f"grid step {args.step} gives {inverse + 1:.0f} "
                         f"points, over the budget of {_GROWTH_POINT_BUDGET}")
    points = round(inverse)
    if points < 1 or abs(inverse - points) > 1e-9:
        raise ValueError(f"grid step must be 1/k for a positive integer k, "
                         f"got {args.step}")
    grid = [i / points for i in range(points + 1)]
    pts = asymptotics.curve((args.gamma, args.delta), args.epsilon, grid)
    out = _outpath(args.out)
    if out is not None:
        asymptotics.write_curve_csv(pts, out)
        print(f"wrote {len(pts)} points to {out}")
    else:
        sys.stdout.write(asymptotics.curve_csv_text(pts))
    return 0


def cmd_tables(args) -> int:
    gammas = [int(x) for x in args.gamma.split(",")]
    deltas = [int(x) for x in args.delta.split(",")]
    rows = [asymptotics.verdict((g, d), args.epsilon)
            for g in gammas for d in deltas]
    print("gamma delta design_rate beta_star satisfied margin")
    for r in rows:
        print(f"{r.gamma:5d} {r.delta:5d} {r.design_rate:11.4f} "
              f"{r.beta_star:9.4f} {'yes' if r.satisfied else 'no':>9} "
              f"{r.margin:+8.4f}")
    out = _outpath(args.out)
    if out is not None:
        asymptotics.write_verdict_csv(rows, out)
        print(f"wrote {len(rows)} rows to {out}")
    return 0


def cmd_sample(args) -> int:
    params = validate(args.n, args.gamma, args.delta)
    h = sample(params, args.seed)
    mat = matrix_from_hypergraph(h)
    out = _outpath(args.out)
    if out is not None:
        write_alist(mat, out)
        print(f"wrote {mat.rows} x {mat.cols} instance to {out}")
        print(f"rng: {RNG_ALGORITHM}, seed: {args.seed}")
    else:
        print(f"rng: {RNG_ALGORITHM}, seed: {args.seed}", file=sys.stderr)
        sys.stdout.write(alist_text(mat))
    return 0


def cmd_check(args) -> int:
    mat = read_alist(args.alist)
    part = read_partition(args.partition, args.parts)
    eps = as_ratio(args.epsilon)
    n, m = mat.cols, mat.rows

    v = check_block_diagonalizable(mat, part, eps)
    print(f"matrix: {m} rows x {n} cols, partition: K={part.k}, "
          f"sizes {part.part_sizes()}")
    print(f"balanced (eps={eps}): {'yes' if v.balanced else 'no'}")
    print(f"cutsize: {v.cutsize}")
    print("per-part (size, exclusive-column rank): "
          + ", ".join(f"({s}, {r})" for s, r in v.per_part_rank))
    print(f"block-diagonal encodable with this partition: "
          f"{'yes' if v.feasible else 'no'}")
    if v.feasible and n - m < v.cutsize:
        print("consistency violated: feasible but n - m < cutsize")
        return 1

    # One scan over K serves both the partition's own K and the max degree.
    kmax, k = 1, 0
    try:
        for k, mincut, kmax in _min_cut_scan(mat, eps, args.cap):
            if k == part.k:
                if mincut is None:
                    raise ValueError(f"no {eps}-balanced partition into {k} "
                                     f"non-empty parts exists for {m} vertices")
                print(f"min cutsize over eps-balanced {k}-way partitions: "
                      f"{mincut}")
                print(f"necessary condition n - m >= min cutsize: "
                      f"{n} - {m} = {n - m} vs {mincut} -> "
                      f"{'SATISFIED' if n - m >= mincut else 'NOT SATISFIED'}")
    except CapExceeded as exc:
        print(f"brute force stopped at K = {k + 1}: {exc}")
        print(f"max parallel degree over K <= {k}: {kmax}")
    else:
        print(f"max parallel degree: {kmax}")
    return 0


def cmd_oracle(args) -> int:
    params = validate(args.n, args.gamma, args.delta)
    table = exact_distribution.cutsize_table(params)
    out = _outpath(args.out)

    if args.mode == "exhaustive":
        avg = oracle.exact_ensemble_average(params, cap=args.cap)
        sys.stdout.write(exact_distribution.table_csv_text(
            avg, suppress_zeros=True))
        if out is not None:
            exact_distribution.write_table_csv(avg, out)
            print(f"wrote table to {out}")
        match = avg == table
        print("EXACT MATCH" if match else "MISMATCH")
        return 0 if match else 1

    est = oracle.monte_carlo_average(params, args.samples, args.seed,
                                     cap=args.cap)
    bad = 0
    for s in range(params.n + 1):
        for m1 in range(params.m + 1):
            diff = abs(est.mean[s, m1] - float(table.value(s, m1)))
            se = est.stderr[s, m1]
            if (se == 0 and diff != 0) or (se > 0 and diff > 4 * se):
                bad += 1
    cells = (params.n + 1) * (params.m + 1)
    print(f"samples: {args.samples}, seed: {args.seed}, rng: {RNG_ALGORITHM}")
    print(f"cells beyond 4 standard errors: {bad}/{cells}")
    if out is not None:
        oracle.write_estimate_csv(est, out)
        print(f"wrote estimate to {out}")
    return 0 if bad <= 1 else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hypercut",
        description="Cutsize distributions, growth rates and block-diagonal "
                    "encodability checks for regular hypergraph ensembles.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_cap(p):
        p.add_argument("--cap", type=int, default=DEFAULT_ENUM_CAP,
                       help="enumeration budget (assignments)")

    def add_seed(p):
        p.add_argument("--seed", type=int, default=0, help="RNG seed")

    p = sub.add_parser("dist", help="exact cutsize distribution table")
    p.add_argument("-n", type=int, required=True)
    p.add_argument("-g", "--gamma", type=int, required=True)
    p.add_argument("-d", "--delta", type=int, required=True)
    p.add_argument("-e", "--epsilon", help="imbalance ratio for the balanced "
                   "column (exact; e.g. 0, 0.1, 1/3)")
    p.add_argument("-o", "--out", help="A-table CSV path")
    p.add_argument("--b-out", help="balanced-table CSV path")
    p.add_argument("--check-oracle", action="store_true",
                   help="verify against the exhaustive average over all "
                        "socket permutations, walked by instance class")
    p.add_argument("--suppress-zeros", action="store_true")
    add_cap(p)
    p.set_defaults(func=cmd_dist)

    p = sub.add_parser("growth", help="balanced growth-rate curve")
    p.add_argument("-g", "--gamma", type=int, required=True)
    p.add_argument("-d", "--delta", type=int, required=True)
    p.add_argument("-e", "--epsilon", default="0")
    p.add_argument("--step", type=float, default=1e-3, help="sigma grid step")
    p.add_argument("-o", "--out", help="curve CSV path")
    p.set_defaults(func=cmd_growth)

    p = sub.add_parser("tables", help="design rate vs typical minimum cutsize")
    p.add_argument("-g", "--gamma", required=True,
                   help="comma-separated gamma values")
    p.add_argument("-d", "--delta", required=True,
                   help="comma-separated delta values")
    p.add_argument("-e", "--epsilon", default="0")
    p.add_argument("-o", "--out", help="verdict CSV path")
    p.set_defaults(func=cmd_tables)

    p = sub.add_parser("sample", help="sample one instance to alist")
    p.add_argument("-n", type=int, required=True)
    p.add_argument("-g", "--gamma", type=int, required=True)
    p.add_argument("-d", "--delta", type=int, required=True)
    p.add_argument("-o", "--out", help="alist output path")
    add_seed(p)
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("check", help="check a partitioned instance")
    p.add_argument("--alist", required=True, help="alist matrix file")
    p.add_argument("--partition", required=True, help="partition label file")
    p.add_argument("-e", "--epsilon", default="0")
    p.add_argument("-K", "--parts", type=int,
                   help="expected part count (default: max label)")
    add_cap(p)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("oracle",
                       help="brute-force validation of the distribution")
    p.add_argument("-n", type=int, required=True)
    p.add_argument("-g", "--gamma", type=int, required=True)
    p.add_argument("-d", "--delta", type=int, required=True)
    p.add_argument("--mode", choices=("exhaustive", "montecarlo"),
                   default="exhaustive")
    p.add_argument("--samples", type=int, default=100_000)
    p.add_argument("-o", "--out", help="CSV output path")
    add_cap(p)
    add_seed(p)
    p.set_defaults(func=cmd_oracle)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, CapExceeded, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
