import json
import os
import re

import numpy as np
import pytest

from trace_bounds import cli, config as C, geometry as G
from trace_bounds.fields import ScalarField
from trace_bounds.ld_trace import harmonic_ek_tensor
from trace_bounds.laplace import solve_dirichlet, divergence
from trace_bounds.fields import VectorField

DISK_CONFIG = """
# unit disk quick run
kind = disk
radius = 1.0
h = 0.04
norm = vec2
tasks = sobolev
seed = 1234
"""


class TestConfigParsing:
    def test_parse_minimal(self):
        cfg = C.parse_config(DISK_CONFIG)
        assert cfg.domain.kind == "disk"
        assert cfg.h_levels == (0.04,)
        assert cfg.tasks == ("sobolev",)
        assert cfg.seed == 1234

    def test_multi_level_and_tasks(self):
        cfg = C.parse_config("""
kind = ellipse
a = 2
b = 1
h = 0.08, 0.04
tasks = sobolev, ld, battery
norm = vecInf
""")
        assert cfg.h_levels == (0.08, 0.04)
        assert cfg.norm == "vecInf"
        assert cfg.domain_at(0.04).h == 0.04

    def test_levelset_config(self):
        cfg = C.parse_config("""
kind = levelset
expression = x^2+y^2-1
dim = 2
bbox = -1.5, 1.5
h = 0.1
""")
        assert cfg.domain.expression == "x^2+y^2-1"
        assert cfg.domain.bbox == (-1.5, 1.5)

    @pytest.mark.parametrize("text", [
        "radius = 1.0\nh = 0.1",                     # missing kind
        "kind = disk\nradius = 1.0",                 # missing h
        "kind = disk\nradius = 1.0\nh = 0.1\nh = 0.2",   # duplicate
        "kind = disk\nradius = 1.0\nh = 0.1, 0.2",   # ascending levels
        "kind = disk\nradius = 1.0\nh = 0.1\ntasks = fly",  # unknown task
        "kind = disk\nradius = 1.0\nh = 0.1\nwhat = 1",     # unknown key
        "kind = disk\nradius = 1.0\nh = 0.1\nnorm = op9",   # bad norm
        "kind = disk\nradius = -1\nh = 0.1",         # invalid shape
        "just some words",                            # not key = value
        "kind = disk\nradius = abc\nh = 0.1",        # non-numeric shape number
        "kind = disk\nradius = inf\nh = 0.1",        # non-finite shape number
        "kind = levelset\nexpression = x^2+y^2-1\ndim = three\nh = 0.1",
        "kind = disk\nradius = 1.0\nh = inf",        # non-finite h
        "kind = disk\nradius = 1.0\nh = 0.1, nan",   # non-finite finer h
        "kind = disk\nradius = 1.0\nh = 0.1, 0",     # non-positive finer h
        "kind = disk\nradius = 1.0\nh = 0.1\nsamples = 0",
        "kind = disk\nradius = 1.0\nh = 0.1\nsteps = 0",
    ])
    def test_rejects_malformed(self, text):
        with pytest.raises(C.ConfigError):
            C.parse_config(text)


class TestRun:
    def test_run_disk_sobolev(self, tmp_path):
        cfg = C.parse_config(DISK_CONFIG)
        code, report = cli.run_config(cfg, outdir=str(tmp_path))
        assert code == cli.EXIT_OK
        level = report["tasks"]["sobolev"]["levels"][0]
        assert abs(level["B"] - 2.0) < 0.05
        assert (tmp_path / "report.json").exists()
        on_disk = json.loads((tmp_path / "report.json").read_text())
        assert on_disk["all_passed"] is True
        assert on_disk["config"]["domain"] == {"radius": 1.0}

    def test_levelset_bbox_recorded(self, tmp_path):
        # the bbox sets the grid, so two runs that differ only in it differ in B
        reports = []
        for bbox in ("-1.5, 1.5", "-3, 3"):
            cfg = C.parse_config(f"kind = levelset\nexpression = x^2/1.2+y^2-1\n"
                                 f"bbox = {bbox}\nh = 0.1\ntasks = sobolev")
            out = tmp_path / bbox
            assert cli.run_config(cfg, outdir=str(out))[0] == cli.EXIT_OK
            reports.append(json.loads((out / "report.json").read_text()))
        assert [r["config"]["domain"]["bbox"] for r in reports] == [[-1.5, 1.5],
                                                                   [-3.0, 3.0]]
        B = [r["tasks"]["sobolev"]["levels"][0]["B"] for r in reports]
        assert B[0] != B[1]

    def test_run_two_levels_richardson(self, tmp_path):
        cfg = C.parse_config("""
kind = disk
radius = 1.0
h = 0.08, 0.04
tasks = sobolev
""")
        code, report = cli.run_config(cfg, outdir=str(tmp_path))
        assert code == cli.EXIT_OK
        assert report["tasks"]["sobolev"]["richardson_B"] is not None
        assert abs(report["tasks"]["sobolev"]["richardson_B"] - 2.0) < 0.05

    def test_checks_carry_tolerance_and_h(self, tmp_path):
        cfg = C.parse_config(DISK_CONFIG)
        _, report = cli.run_config(cfg, outdir=str(tmp_path))
        for check in report["checks"]:
            assert "tolerance" in check and "h" in check and "name" in check

    def test_report_determinism(self, tmp_path):
        cfg = C.parse_config(DISK_CONFIG)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        cli.run_config(cfg, outdir=str(out1))
        cli.run_config(cfg, outdir=str(out2))
        strip = lambda p: re.sub(r'^\s*"generated_at".*$', "",
                                 (p / "report.json").read_text(), flags=re.M)
        assert strip(out1) == strip(out2)

    def test_matnorm_task(self, tmp_path):
        cfg = C.parse_config("""
kind = disk
radius = 1.0
h = 0.1
tasks = matnorm-verify
samples = 500
""")
        code, report = cli.run_config(cfg, outdir=str(tmp_path))
        assert code == cli.EXIT_OK
        assert (tmp_path / "matnorm_equivalence_dim2.csv").exists()
        assert (tmp_path / "matnorm_equivalence_dim3.csv").exists()
        # no domain, no solves
        assert report["solver_stats"] == {"solves": 0, "iterations": 0,
                                          "max_residual": 0.0,
                                          "max_principle_violation": 0.0}
        assert not any(c["name"] == "laplace.max_principle_all_solves"
                       for c in report["checks"])

    def test_run_3d_pipeline(self, tmp_path):
        cfg = C.parse_config("""
kind = ball
radius = 1.0
h = 0.15
tasks = sobolev, ld
norm = vec2
""")
        code, report = cli.run_config(cfg, outdir=str(tmp_path))
        assert code == cli.EXIT_OK
        assert abs(report["tasks"]["sobolev"]["levels"][0]["B"] - 3.0) < 0.15
        ld_level = report["tasks"]["ld"]["levels"][0]
        assert ld_level["A"] == 3 * np.sqrt(2)
        assert abs(ld_level["B"] - 13.2) < 0.05 * 13.2
        assert report["solver_stats"]["iterations"] > 0

    def test_ld_task_writes_csv(self, tmp_path):
        cfg = C.parse_config("""
kind = disk
radius = 1.0
h = 0.04
tasks = ld
""")
        code, report = cli.run_config(cfg, outdir=str(tmp_path))
        assert code == cli.EXIT_OK
        lines = (tmp_path / "ld_bounds.csv").read_text().splitlines()
        assert lines[0].startswith("kind,dim,h,norm,A,B")
        assert len(lines) == 2
        assert lines[1].startswith("disk,2,")

    def test_solver_failure_exits_3(self, tmp_path, monkeypatch):
        from trace_bounds import laplace

        def boom(self, boundary_values):
            raise cli.SolverError("forced failure", residual=1.0)

        monkeypatch.setattr(laplace._Operator, "solve", boom)
        cfg = C.parse_config(DISK_CONFIG)
        code, report = cli.run_config(cfg, outdir=str(tmp_path))
        assert code == cli.EXIT_SOLVER
        assert report["error"]["type"] == "solver"
        assert report["error"]["residual"] == 1.0

    def test_solver_stats_scoped_to_run(self, tmp_path, monkeypatch):
        build = cli.build_domain
        built = []

        def keep(spec):
            built.append(build(spec))
            return built[-1]

        monkeypatch.setattr(cli, "build_domain", keep)
        cfg = C.parse_config("kind = disk\nradius = 1.0\nh = 0.08, 0.04\n"
                             "tasks = sobolev, ld, battery")
        first = cli.run_config(cfg, outdir=str(tmp_path / "a"))[1]["solver_stats"]
        # library solves on an unrelated domain between the runs
        other = build(G.DomainSpec.disk(1.0, 0.04))
        for j in range(2):
            solve_dirichlet(other, other.boundary_normal[:, j])
        second = cli.run_config(cfg, outdir=str(tmp_path / "b"))[1]["solver_stats"]
        assert first == second
        assert first["solves"] == 12
        assert len(built) == 4
        assert all(list(dom._cache) == ["laplace_operator"] for dom in built)

    def test_failed_check_names_position(self, tmp_path, monkeypatch):
        from trace_bounds import laplace
        real = laplace.tensor_divergence
        spikes = []

        def spiked(field):
            div = real(field)
            first = div.components[0]
            node = first.interior.size // 3
            spikes.append(field.domain.interior_coords[node].tolist())
            interior = first.interior.copy()
            interior[node] = 100.0 * np.abs(first.boundary).max()
            return VectorField((ScalarField(first.domain, interior, first.boundary),)
                               + div.components[1:])

        monkeypatch.setattr(laplace, "tensor_divergence", spiked)
        cfg = C.parse_config("kind = disk\nradius = 1.0\nh = 0.04\ntasks = ld")
        code, report = cli.run_config(cfg, outdir=str(tmp_path))
        assert code == cli.EXIT_CHECK_FAILED
        assert report["error"]["type"] == "check"
        assert "not attained on the boundary" in report["error"]["message"]
        assert f"at {spikes[0]}" in report["error"]["message"]

    def test_programming_error_propagates(self, tmp_path, monkeypatch):
        def slip(*args, **kwargs):
            raise AssertionError("a slip, not a failed check")

        monkeypatch.setattr(cli.optimal_bc, "sweep_theta", slip)
        cfg = C.parse_config("kind = disk\nradius = 1.0\nh = 0.1\n"
                             "tasks = optimal-bc-sweep")
        with pytest.raises(AssertionError, match="a slip"):
            cli.run_config(cfg, outdir=str(tmp_path))

    def test_sweep_task(self, tmp_path):
        cfg = C.parse_config("""
kind = ball
radius = 1.0
h = 0.5
tasks = optimal-bc-sweep
steps = 31
""")
        code, report = cli.run_config(cfg, outdir=str(tmp_path))
        assert code == cli.EXIT_OK
        sweep = report["tasks"]["optimal_bc_sweep"]
        assert abs(sweep["vec2"]["max_closed_form"] - np.sqrt(2)) < 1e-12
        assert sweep["vec2"]["max_entry_gap"] <= 1e-3
        lines = (tmp_path / "theta_sweep_vec2.csv").read_text().splitlines()
        assert lines[0] == "theta,closed_form,brute_force"
        # plain float cells, so the sweep reads back exactly
        rows = np.array([[float(c) for c in line.split(",")] for line in lines[1:]])
        assert rows.shape == (31, 3)
        assert rows[:, 1].max() == sweep["vec2"]["max_closed_form"]


class TestMain:
    def test_run_exit_codes(self, tmp_path):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text(DISK_CONFIG + f"output = {tmp_path}/out\n")
        assert cli.main(["run", str(cfg_file)]) == cli.EXIT_OK

    def test_krylov_failure_exits_3(self, tmp_path, monkeypatch):
        from trace_bounds import laplace
        monkeypatch.setattr(laplace.spla, "bicgstab",
                            lambda A, b, **kwargs: (np.zeros_like(b), 417))
        cfg_file = tmp_path / "ball.cfg"
        cfg_file.write_text("kind = ball\nradius = 1.0\nh = 0.25\n"
                            f"tasks = sobolev\noutput = {tmp_path}/out\n")
        assert cli.main(["run", str(cfg_file)]) == cli.EXIT_SOLVER
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["error"]["type"] == "solver"
        assert "417 iterations" in report["error"]["message"]

    def test_factorization_failure_exits_3(self, tmp_path, monkeypatch):
        from trace_bounds import laplace

        def singular(*args, **kwargs):
            raise RuntimeError("Factor is exactly singular")

        monkeypatch.setattr(laplace.spla, "splu", singular)
        cfg_file = tmp_path / "disk.cfg"
        cfg_file.write_text("kind = disk\nradius = 1.0\nh = 0.1\n"
                            f"tasks = sobolev\noutput = {tmp_path}/out\n")
        assert cli.main(["run", str(cfg_file)]) == cli.EXIT_SOLVER
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["error"]["type"] == "solver"
        assert "sparse factorization failed" in report["error"]["message"]

    def test_malformed_config_exits_2(self, tmp_path):
        cfg_file = tmp_path / "bad.cfg"
        cfg_file.write_text("kind = nosuchshape\nh = 0.1\n")
        assert cli.main(["run", str(cfg_file)]) == cli.EXIT_CONFIG

    def test_missing_config_exits_2(self, tmp_path):
        assert cli.main(["run", str(tmp_path / "nope.cfg")]) == cli.EXIT_CONFIG

    def test_count_flags_must_be_positive(self, capsys):
        assert cli.main(["verify-matnorm", "--dim", "2", "--samples", "0"]) == cli.EXIT_CONFIG
        assert cli.main(["sweep-theta", "--norm", "vec2", "--steps", "0"]) == cli.EXIT_CONFIG
        assert capsys.readouterr().err.count("must be a positive integer") == 2

    def test_verify_matnorm_subcommand(self, tmp_path, capsys):
        out = tmp_path / "table.csv"
        code = cli.main(["verify-matnorm", "--dim", "2", "--samples", "200",
                         "--seed", "9", "--output", str(out)])
        assert code == cli.EXIT_OK
        assert out.exists()
        assert "op2/op1" in capsys.readouterr().out

    def test_sweep_theta_subcommand(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        code = cli.main(["sweep-theta", "--norm", "vec2", "--steps", "11",
                         "--output", str(out)])
        assert code == cli.EXIT_OK
        assert len(out.read_text().splitlines()) == 12
        assert "1.414" in capsys.readouterr().out


class TestExportPlotData:
    def test_scalar_field_rows(self, tmp_path, disk):
        nf = VectorField(tuple(
            solve_dirichlet(disk, disk.boundary_normal[:, j]) for j in range(2)))
        div = divergence(nf)
        path = tmp_path / "div.csv"
        cli.export_plot_data(div, path)
        lines = path.read_text().splitlines()
        # about pi / h^2 interior rows
        expected = np.pi / disk.h ** 2
        assert abs(len(lines) - 1 - expected) < 0.05 * expected

    def test_tensor_field_rows(self, tmp_path, disk_coarse):
        sigma, _ = harmonic_ek_tensor(disk_coarse, 0)
        path = tmp_path / "sigma.csv"
        cli.export_plot_data(sigma, path)
        lines = path.read_text().splitlines()
        assert len(lines) == 1 + disk_coarse.n_boundary

    def test_empty_field_header_only(self, tmp_path):
        path = tmp_path / "empty.csv"
        cli.export_plot_data(None, path)
        assert path.read_text().splitlines() == ["x,y,value"]

    def test_unwritable_path(self, tmp_path, disk_coarse):
        f = ScalarField.constant(disk_coarse, 1.0)
        with pytest.raises(OSError):
            cli.export_plot_data(f, tmp_path / "no_dir" / "x.csv")
