import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from hypercut import asymptotics, core
from hypercut.cli import main
from hypercut.core import BinaryMatrix, Partition
from hypercut.ensemble import validate
from hypercut.exact_distribution import cutsize_table, write_table_csv
from hypercut.formats import read_alist, write_alist, write_partition


def run(*args):
    return main([str(a) for a in args])


def _identity_instance(tmp_path, labels):
    """Identity matrix and a partition of its rows, written as check input."""
    alist, part = tmp_path / "id.alist", tmp_path / "p.txt"
    k = len(labels)
    write_alist(BinaryMatrix(k, k, frozenset((i, i) for i in range(k))), alist)
    write_partition(Partition(labels), part)
    return alist, part


class TestDist:
    def test_full_table_to_stdout(self, capsys):
        assert run("dist", "-n", 4, "-g", 2, "-d", 4) == 0
        out = capsys.readouterr().out
        assert "sum identity: total = 4 vs 2^m = 4 PASS" in out
        assert "2,1,48,35" in out
        # full grid: (n+1) * (m+1) = 15 data rows
        rows = [l for l in out.splitlines() if l and l[0].isdigit()]
        assert len(rows) == 15

    def test_suppress_zeros(self, capsys):
        assert run("dist", "-n", 4, "-g", 2, "-d", 4, "--suppress-zeros") == 0
        out = capsys.readouterr().out
        rows = [l for l in out.splitlines() if l and l[0].isdigit()]
        assert len(rows) == 5  # (0,0), (0,1), (2,1), (4,1), (0,2)

    def test_suppress_zeros_drops_zero_balanced_rows(self, capsys):
        assert run("dist", "-n", 4, "-g", 2, "-d", 4, "-e", "0",
                   "--suppress-zeros") == 0
        out = capsys.readouterr().out.splitlines()
        assert out[out.index("s,B_num,B_den"):] == [
            "s,B_num,B_den", "0,6,35", "2,48,35", "4,16,35"]

    def test_invalid_params_exit_2(self, capsys):
        assert run("dist", "-n", 3, "-g", 2, "-d", 4) == 2
        assert "divisible" in capsys.readouterr().err

    def test_csv_files(self, tmp_path, capsys):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        assert run("dist", "-n", 4, "-g", 2, "-d", 4, "-e", "0",
                   "-o", a, "--b-out", b) == 0
        assert a.read_text().splitlines()[0] == "s,m1,A_num,A_den"
        assert "2,48,35" in b.read_text().splitlines()

    def test_check_oracle(self, capsys):
        assert run("dist", "-n", 2, "-g", 2, "-d", 2, "--check-oracle") == 0
        assert "EXACT MATCH PASS" in capsys.readouterr().out

    @pytest.mark.parametrize("n, delta", [(8, 4), (9, 3)])
    def test_check_oracle_beyond_permutation_range(self, capsys, n, delta):
        # xi! = 16! and 18!: reachable only by walking instance classes
        assert run("dist", "-n", n, "-g", 2, "-d", delta,
                   "--check-oracle") == 0
        assert "EXACT MATCH PASS" in capsys.readouterr().out

    def test_odd_m_note(self, capsys):
        assert run("dist", "-n", 3, "-g", 2, "-d", 2, "-e", "0") == 0
        assert "no exactly balanced bipartition" in capsys.readouterr().out

    @pytest.mark.parametrize("eps, message", [
        ("1", "epsilon must lie in [0, 1)"),
        ("1/0", "'1/0' has a zero denominator")])
    def test_epsilon_checked_before_table(self, capsys, eps, message):
        assert run("dist", "-n", 4, "-g", 2, "-d", 4, "-e", eps) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert message in captured.err


class TestGrowth:
    def test_curve_values(self, capsys):
        assert run("growth", "-g", 2, "-d", 5, "-e", "0", "--step", 0.01) == 0
        out = capsys.readouterr().out
        lines = out.splitlines()
        assert lines[0] == "sigma,h"
        table = {l.split(",")[0]: float(l.split(",")[1]) for l in lines[1:]}
        assert table["0.5"] == pytest.approx(0.4, abs=1e-9)
        assert max(table.values()) == pytest.approx(0.4, abs=1e-9)

    def test_zero_step_rejected(self, capsys):
        assert run("growth", "-g", 2, "-d", 5, "--step", 0) == 2
        assert "step" in capsys.readouterr().err

    @pytest.mark.parametrize("step", ["2", "0.3"])
    def test_step_not_reciprocal_of_integer_rejected(self, capsys, step):
        assert run("growth", "-g", 2, "-d", 5, "--step", step) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"got {float(step)}" in captured.err

    def test_step_over_point_budget_rejected_at_once(self, capsys,
                                                     monkeypatch):
        def evaluate(*args):
            raise AssertionError("a grid point was evaluated")

        monkeypatch.setattr(asymptotics, "curve", evaluate)
        assert run("growth", "-g", 2, "-d", 5, "--step", "1e-6") == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "1000001 points" in captured.err
        assert "budget of 10001" in captured.err

    def test_largest_grid_within_point_budget(self, monkeypatch):
        grids = []
        monkeypatch.setattr(asymptotics, "curve",
                            lambda regime, eps, grid: grids.append(grid) or [])
        assert run("growth", "-g", 2, "-d", 5, "--step", "0.0001") == 0
        assert len(grids[0]) == 10_001

    def test_half_step_grid(self, capsys):
        assert run("growth", "-g", 2, "-d", 5, "--step", 0.5) == 0
        sigmas = [l.split(",")[0]
                  for l in capsys.readouterr().out.splitlines()[1:]]
        assert sigmas == ["0", "0.5", "1"]

    def test_rational_epsilon_matches_decimal(self, capsys):
        outs = []
        for eps in ("1/20", "0.05"):
            assert run("growth", "-g", 2, "-d", 5, "-e", eps,
                       "--step", 0.5) == 0
            outs.append(capsys.readouterr().out)
        assert outs[0] == outs[1]

    def test_epsilon_too_large_for_a_float_rejected(self, capsys):
        assert run("growth", "-g", 2, "-d", 5, "-e", "1e400",
                   "--step", 0.5) == 2
        assert "epsilon must lie in [0, 1)" in capsys.readouterr().err

    def test_csv_out(self, tmp_path):
        out = tmp_path / "c.csv"
        assert run("growth", "-g", 3, "-d", 4, "--step", 0.01, "-o", out) == 0
        assert out.read_text().splitlines()[0] == "sigma,h"

    def test_seed_is_not_an_option(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run("growth", "-g", 2, "-d", 5, "--step", 0.01, "--seed", 1)
        assert exc.value.code == 2
        assert "--seed" in capsys.readouterr().err


class TestTables:
    def test_table_row_values(self, capsys):
        assert run("tables", "-g", 2, "-d", "3,4,5,6,7,8") == 0
        out = capsys.readouterr().out
        for beta in ("0.0615", "0.1100", "0.1461", "0.1740", "0.1962",
                     "0.2145"):
            assert beta in out
        assert out.count("yes") == 6

    def test_mixed_verdicts(self, capsys):
        assert run("tables", "-g", 5, "-d", "20,21") == 0
        out = capsys.readouterr().out
        assert "no" in out and "yes" in out

    def test_invalid_regime(self, capsys):
        assert run("tables", "-g", 1, "-d", 3) == 2

    def test_rational_epsilon_matches_decimal(self, capsys):
        outs = []
        for eps in ("1/10", "0.1"):
            assert run("tables", "-g", 2, "-d", 4, "-e", eps) == 0
            outs.append(capsys.readouterr().out)
        assert outs[0] == outs[1]

    def test_tol_is_not_an_option(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run("tables", "-g", 2, "-d", 4, "--tol", 1e-6)
        assert exc.value.code == 2
        assert "--tol" in capsys.readouterr().err

    def test_csv(self, tmp_path):
        out = tmp_path / "v.csv"
        assert run("tables", "-g", 2, "-d", "3,4", "-o", out) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "gamma,delta,design_rate,beta_star,satisfied,margin"
        assert len(lines) == 3


class TestSampleAndCheck:
    def test_sample_writes_alist(self, tmp_path, capsys):
        out = tmp_path / "inst.alist"
        assert run("sample", "-n", 4, "-g", 2, "-d", 4, "--seed", 7,
                   "-o", out) == 0
        msg = capsys.readouterr().out
        assert "mt19937" in msg and "seed: 7" in msg
        mat = read_alist(out)
        assert (mat.rows, mat.cols) == (2, 4)

    def test_sample_to_stdout(self, capsys):
        assert run("sample", "-n", 4, "-g", 2, "-d", 4, "--seed", 7) == 0
        captured = capsys.readouterr()
        assert captured.out.splitlines()[0] == "4 2"
        assert "mt19937" in captured.err

    def test_sample_deterministic(self, tmp_path):
        a, b = tmp_path / "a.alist", tmp_path / "b.alist"
        run("sample", "-n", 6, "-g", 2, "-d", 3, "--seed", 5, "-o", a)
        run("sample", "-n", 6, "-g", 2, "-d", 3, "--seed", 5, "-o", b)
        assert a.read_text() == b.read_text()

    def test_check_identity(self, tmp_path, capsys):
        alist = tmp_path / "id.alist"
        part = tmp_path / "p.txt"
        write_alist(BinaryMatrix.from_dense([[1, 0], [0, 1]]), alist)
        write_partition(Partition((1, 2)), part)
        assert run("check", "--alist", alist, "--partition", part,
                   "-e", "0") == 0
        out = capsys.readouterr().out
        assert "balanced (eps=0): yes" in out
        assert "cutsize: 0" in out
        assert "block-diagonal encodable with this partition: yes" in out
        assert "SATISFIED" in out
        assert "max parallel degree: 2" in out

    def test_check_sampled_instance(self, tmp_path, capsys):
        alist = tmp_path / "inst.alist"
        part = tmp_path / "p.txt"
        run("sample", "-n", 4, "-g", 2, "-d", 4, "--seed", 3, "-o", alist)
        part.write_text("1\n2\n")
        assert run("check", "--alist", alist, "--partition", part,
                   "-e", "0") == 0
        out = capsys.readouterr().out
        assert "min cutsize over eps-balanced 2-way partitions:" in out

    def test_check_reports_solved_degrees_at_cap(self, tmp_path, capsys):
        alist, part = _identity_instance(tmp_path, (1, 1, 2, 2))
        # 2^4 = 16 assignments fit the cap, 3^4 = 81 do not.
        assert run("check", "--alist", alist, "--partition", part,
                   "-e", "0", "--cap", 16) == 0
        out = capsys.readouterr().out
        assert "min cutsize over eps-balanced 2-way partitions: 0" in out
        assert "brute force stopped at K = 3: 3^4 assignments exceed cap 16" \
            in out
        assert "max parallel degree over K <= 2: 2" in out

    def test_check_scans_each_k_once(self, tmp_path, capsys, monkeypatch):
        calls = []
        original = core.min_cutsize_bruteforce

        def counted(h, parts, *args, **kwargs):
            calls.append(parts)
            return original(h, parts, *args, **kwargs)

        monkeypatch.setattr(core, "min_cutsize_bruteforce", counted)
        alist, part = _identity_instance(tmp_path, (1, 1, 2, 2))
        assert run("check", "--alist", alist, "--partition", part) == 0
        assert calls == [1, 2, 3, 4]
        assert "max parallel degree: 4" in capsys.readouterr().out

    def test_check_no_balanced_partition_exit_2(self, tmp_path, capsys):
        alist, part = _identity_instance(tmp_path, (1, 1, 2))
        assert run("check", "--alist", alist, "--partition", part,
                   "-e", "0") == 2
        assert "no 0-balanced partition into 2" in capsys.readouterr().err

    def test_check_empty_column(self, tmp_path, capsys):
        # an empty column is never cut; it still counts in n
        alist, part = tmp_path / "z.alist", tmp_path / "p.txt"
        write_alist(BinaryMatrix.from_columns([(0,), (), (0, 1)], 2), alist)
        write_partition(Partition((1, 2)), part)
        assert run("check", "--alist", alist, "--partition", part) == 0
        out = capsys.readouterr().out
        assert "matrix: 2 rows x 3 cols" in out
        assert "cutsize: 1" in out
        assert "min cutsize over eps-balanced 2-way partitions: 1" in out
        assert "3 - 2 = 1 vs 1 -> SATISFIED" in out
        assert "max parallel degree: 2" in out

    def test_check_empty_part_rejected(self, tmp_path, capsys):
        alist = tmp_path / "id.alist"
        part = tmp_path / "p.txt"
        write_alist(BinaryMatrix.from_dense([[1, 0], [0, 1]]), alist)
        part.write_text("1\n1\n")
        assert run("check", "--alist", alist, "--partition", part,
                   "-K", 2) == 2
        assert "parts must be non-empty" in capsys.readouterr().err

    def test_check_dimension_mismatch(self, tmp_path, capsys):
        alist = tmp_path / "id.alist"
        part = tmp_path / "p.txt"
        write_alist(BinaryMatrix.from_dense([[1, 0], [0, 1]]), alist)
        part.write_text("1\n2\n1\n")
        assert run("check", "--alist", alist, "--partition", part) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "dimension mismatch: partition covers 3 vertices, matrix has " \
            "2 rows" in captured.err

    @pytest.mark.parametrize("eps, message", [
        ("1/0", "epsilon '1/0' has a zero denominator"),
        ("-0.1", "epsilon must be non-negative")])
    def test_check_bad_epsilon_exit_2(self, tmp_path, capsys, eps, message):
        alist, part = _identity_instance(tmp_path, (1, 2))
        assert run("check", "--alist", alist, "--partition", part,
                   "-e", eps) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert message in captured.err

    def test_parse_error_reports_line(self, tmp_path, capsys):
        bad = tmp_path / "bad.alist"
        bad.write_text("2 2\n1 1\nbogus 1\n1 1\n1\n2\n1\n2\n")
        part = tmp_path / "p.txt"
        part.write_text("1\n2\n")
        assert run("check", "--alist", bad, "--partition", part) == 2
        assert ":3:" in capsys.readouterr().err


class TestEpsilonAcrossSubcommands:
    """Every subcommand reads -e with the one reader the library uses."""

    BIPARTITION = {"dist": ("dist", "-n", 4, "-g", 2, "-d", 4),
                   "growth": ("growth", "-g", 2, "-d", 5, "--step", 0.5),
                   "tables": ("tables", "-g", 2, "-d", 5)}

    def _commands(self, tmp_path):
        alist, part = _identity_instance(tmp_path, (1, 2))
        return {**self.BIPARTITION,
                "check": ("check", "--alist", alist, "--partition", part)}

    @pytest.mark.parametrize("command", ["dist", "growth", "tables", "check"])
    def test_negative_rejected(self, tmp_path, capsys, command):
        args = self._commands(tmp_path)[command]
        assert run(*args, "--epsilon=-1/10") == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: epsilon must be non-negative\n"

    @pytest.mark.parametrize("command", ["dist", "growth", "tables"])
    @pytest.mark.parametrize("eps", ["1", "1e400"])
    def test_one_or_more_rejected_for_bipartitions(self, capsys, command,
                                                   eps):
        assert run(*self.BIPARTITION[command], "-e", eps) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"error: epsilon must lie in [0, 1), "
                                f"got {eps}\n")

    def test_check_accepts_one_or_more(self, tmp_path, capsys):
        # eps >= 1 is a legal imbalance for K-way partitions
        assert run(*self._commands(tmp_path)["check"], "-e", "3/2") == 0
        assert "balanced (eps=3/2): yes" in capsys.readouterr().out


class TestOracle:
    def test_exhaustive_match(self, capsys):
        assert run("oracle", "-n", 4, "-g", 2, "-d", 4,
                   "--mode", "exhaustive") == 0
        out = capsys.readouterr().out
        assert "EXACT MATCH" in out
        assert "0,1,6,35" in out and "2,1,48,35" in out and "4,1,16,35" in out

    def test_exhaustive_csv_is_the_table_csv(self, tmp_path, capsys):
        out, ref = tmp_path / "a.csv", tmp_path / "ref.csv"
        assert run("oracle", "-n", 4, "-g", 2, "-d", 4, "-o", out) == 0
        write_table_csv(cutsize_table(validate(4, 2, 4)), ref)
        assert out.read_bytes() == ref.read_bytes()

    def test_montecarlo_csv(self, tmp_path, capsys):
        out = tmp_path / "m.csv"
        assert run("oracle", "-n", 4, "-g", 2, "-d", 4, "--mode", "montecarlo",
                   "--samples", 200, "--seed", 1, "-o", out) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "s,m1,mean,stderr"
        assert len(lines) - 1 == (4 + 1) * (2 + 1)

    def test_cap_exceeded(self, capsys):
        # 15 classes of 2^3 assignments each; the walk stops past 64
        assert run("oracle", "-n", 6, "-g", 2, "-d", 4,
                   "--mode", "exhaustive", "--cap", 64) == 2
        assert "cap" in capsys.readouterr().err

    def test_montecarlo(self, capsys):
        assert run("oracle", "-n", 4, "-g", 2, "-d", 4, "--mode", "montecarlo",
                   "--samples", 3000, "--seed", 11) == 0
        out = capsys.readouterr().out
        assert "cells beyond 4 standard errors" in out


def test_outdir_env_redirects_relative_paths(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("HYPERCUT_OUTDIR", str(tmp_path))
    monkeypatch.chdir(tmp_path)
    assert run("growth", "-g", 2, "-d", 4, "--step", 0.5,
               "-o", "sub.csv") == 0
    assert (tmp_path / "sub.csv").exists()


def test_runs_without_numpy(tmp_path):
    # The child blocks the module: importing it raises ImportError.
    script = textwrap.dedent("""
        import sys
        sys.modules["numpy"] = None
        import hypercut
        from hypercut.cli import main
        assert main(["dist", "-n", "8", "-g", "2", "-d", "4", "-e", "0"]) == 0
        assert main(["sample", "-n", "8", "-g", "2", "-d", "4",
                     "-o", "s.alist"]) == 0
        with open("p.txt", "w") as f:
            f.write("1\\n1\\n2\\n2\\n")
        assert main(["check", "--alist", "s.alist",
                     "--partition", "p.txt"]) == 0
        assert main(["oracle", "-n", "4", "-g", "2", "-d", "4", "--mode",
                     "montecarlo", "--samples", "3000", "--seed", "11"]) == 0
        """)
    src = str(Path(__file__).resolve().parent.parent / "src")
    pythonpath = os.pathsep.join(filter(None, [src,
                                               os.environ.get("PYTHONPATH")]))
    env = {k: v for k, v in os.environ.items() if k != "HYPERCUT_OUTDIR"}
    proc = subprocess.run([sys.executable, "-c", script], cwd=tmp_path,
                          env=dict(env, PYTHONPATH=pythonpath),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
