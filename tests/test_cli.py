"""Command-line interface: flags, defaults, tables, exit codes."""

import csv

import numpy as np
import pytest

from trifem.cli import build_parser, emit_table, main, validate
from trifem.system import RateReport


def run_args(extra):
    return build_parser().parse_args(["run"] + extra)


class TestValidate:
    def test_default_quad_order_tracks_degree(self):
        spec = validate(run_args(["--problem", "poisson", "--degree", "2"]))
        assert spec.order == 4

    def test_explicit_quad_order(self):
        spec = validate(run_args(["--problem", "poisson", "--degree", "1",
                                  "--quad-order", "6"]))
        assert spec.order == 6

    def test_degree_four_rejected(self):
        from trifem.cli import UsageError
        with pytest.raises(UsageError):
            validate(run_args(["--problem", "poisson", "--degree", "4"]))

    def test_mesh_and_square_conflict(self):
        from trifem.cli import UsageError
        with pytest.raises(UsageError):
            validate(run_args(["--problem", "ns-newton", "--mesh", "m.msh",
                               "--square", "0,1,0,1"]))

    def test_selectors_collected(self):
        spec = validate(run_args(["--problem", "poisson",
                                  "--bdstr", "x==0", "--bdstr", "y==0"]))
        assert spec.selectors == ("x==0", "y==0")

    def test_stokes_degree_pinned(self):
        from trifem.cli import UsageError
        spec = validate(run_args(["--problem", "stokes"]))
        assert spec.degree == 2 and spec.order == 5
        with pytest.raises(UsageError):
            validate(run_args(["--problem", "stokes", "--degree", "1"]))


class TestExitCodes:
    def test_mesh_info_success(self, capsys):
        code = main(["mesh", "--square", "0,1,0,1", "--h", "0.5", "--info"])
        out = capsys.readouterr().out
        assert code == 0
        assert "N=9 NT=8 NE=16" in out

    def test_usage_error_is_2(self, capsys):
        assert main(["run", "--problem", "nonsense"]) == 2
        assert main(["run", "--problem", "poisson", "--degree", "7"]) == 2

    def test_runtime_error_is_1(self, capsys):
        code = main(["convert", "--mesh", "/no/such/file.msh",
                     "--out", "/tmp/x.csv"])
        assert code == 1

    def test_refine_zero_rejected(self):
        assert main(["run", "--problem", "poisson", "--refine", "0"]) == 2


class TestRunCommand:
    def test_poisson_table_and_csv(self, tmp_path, capsys):
        out = tmp_path / "poisson.csv"
        code = main(["run", "--problem", "poisson", "--degree", "1",
                     "--refine", "2", "--out", str(out)])
        assert code == 0
        printed = capsys.readouterr().out
        assert "Table: Error" in printed
        assert "#Dof" in printed and "rate" in printed

        with open(out) as f:
            rows = list(csv.reader(f))
        assert rows[0] == ["#Dof", "h", "L2", "H1"]
        assert len(rows) == 3
        # table and CSV agree value for value
        table_rows = [l.split() for l in printed.splitlines()
                      if l.strip() and l.split()[0].isdigit()]
        for csv_row, tab_row in zip(rows[1:], table_rows):
            assert csv_row[0] == tab_row[0]
            assert csv_row[2] == tab_row[2]

    def test_stokes_has_three_error_columns(self, capsys):
        code = main(["run", "--problem", "stokes", "--refine", "1"])
        assert code == 0
        header = [l for l in capsys.readouterr().out.splitlines()
                  if "u_L2" in l][0]
        assert "u_H1" in header and "p_L2" in header

    def test_ns_newton_reports_increments(self, capsys):
        code = main(["run", "--problem", "ns-newton", "--refine", "1",
                     "--max-iter", "4"])
        assert code == 0
        out = capsys.readouterr().out
        assert "Newton iterations" in out
        assert "increment" in out
        assert "stopped on max_iter" in out

    def test_ns_newton_accepts_msh_mesh(self, tmp_path, capsys):
        msh = tmp_path / "square.msh"
        assert main(["mesh", "--square", "0,1,0,1", "--h", "0.125",
                     "--out", str(msh)]) == 0
        code = main(["run", "--problem", "ns-newton", "--mesh", str(msh),
                     "--max-iter", "3"])
        assert code == 0
        assert "Newton iterations" in capsys.readouterr().out

    def test_mesh_flag_rejected_for_ladder_problems(self):
        assert main(["run", "--problem", "poisson", "--mesh", "x.msh"]) == 2

    @pytest.mark.parametrize("problem, flags, field", [
        ("stokes", ["--degree", "1"], "degree"),
        ("stokes", ["--bdstr", "x==0"], "selectors"),
        ("biharmonic-vector", ["--bdstr", "x==0"], "selectors"),
        ("poisson", ["--mesh", "x.msh"], "mesh_path"),
    ])
    def test_fixed_field_override_is_a_usage_error(self, problem, flags,
                                                   field, capsys):
        assert main(["run", "--problem", problem] + flags) == 2
        assert field in capsys.readouterr().err

    def test_heat_with_fixed_dt(self, capsys):
        code = main(["run", "--problem", "heat", "--degree", "1",
                     "--refine", "2", "--dt", "0.05", "--t-end", "0.2"])
        assert code == 0
        assert "Table: Error" in capsys.readouterr().out

    def test_repeated_runs_emit_identical_csv_bytes(self, tmp_path, capsys):
        paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
        for p in paths:
            assert main(["run", "--problem", "poisson", "--degree", "2",
                         "--refine", "2", "--out", str(p)]) == 0
        assert paths[0].read_bytes() == paths[1].read_bytes()


class TestMeshCommand:
    def test_refine_counts(self, capsys):
        code = main(["mesh", "--square", "0,1,0,1", "--h", "0.5",
                     "--refine", "1", "--info"])
        assert code == 0
        assert "N=25 NT=32" in capsys.readouterr().out

    def test_write_and_convert_round_trip(self, tmp_path, capsys):
        msh = tmp_path / "m.msh"
        assert main(["mesh", "--square", "0,2,0,1", "--h", "0.5",
                     "--out", str(msh)]) == 0
        csv_out = tmp_path / "verts.csv"
        assert main(["convert", "--mesh", str(msh), "--out", str(csv_out)]) == 0
        with open(csv_out) as f:
            rows = list(csv.reader(f))
        assert rows[0] == ["x", "y", "label"]
        assert len(rows) == 16   # 15 vertices + header


class TestEmitTable:
    def test_single_level_no_rate_row(self, capsys):
        rep = RateReport(problem="x", h=np.array([0.25]),
                         num_elems=np.array([32]),
                         columns={"L2": [1.5e-3]})
        emit_table(rep)
        out = capsys.readouterr().out
        assert "rate" not in out
        assert "1.50000e-03" in out

    def test_rate_row_present_with_levels(self, capsys):
        rep = RateReport(problem="x", h=np.array([0.5, 0.25]),
                         num_elems=np.array([8, 32]),
                         columns={"L2": [4e-2, 1e-2]}).fit()
        emit_table(rep)
        out = capsys.readouterr().out
        assert "rate" in out
        assert "2.00" in out
