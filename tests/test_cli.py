import gc
import json
import os
import re
import subprocess
import sys
import threading
import weakref
from functools import cached_property

import numpy as np
import pytest

from trace_bounds import cli, config as C, geometry as G
from trace_bounds.geometry import Field
from trace_bounds.laplace import solve_dirichlet

DISK_CONFIG = """
# unit disk quick run
kind = disk
radius = 1.0
h = 0.04
norm = vec2
tasks = sobolev
seed = 1234
"""


# malformed configs and the message that must name the offending key: one
# left out or left empty, a count below its least value, a negative seed or
# a norm without a worst case D; or the level-set expression's unknown
# symbol or syntax error
MESSAGE = {
    "radius = 1.0\nh = 0.1": "missing required key 'kind'",
    "kind = disk\nradius = 1.0": "missing required key 'h'",
    "kind = disk\nh = 0.1": "missing required key 'radius'",
    "kind = disk\nradius =\nh = 0.1": "missing required key 'radius'",
    "kind = annulus\nr_in = 0.5\nh = 0.1": "missing required key 'r_out'",
    "kind = disk\nradius = 1.0\nh = 0.1\nsamples = 0": "samples must be at least 1",
    "kind = disk\nradius = 1.0\nh = 0.1\nsteps = 0": "steps must be at least 2",
    "kind = disk\nradius = 1.0\nh = 0.1\nseed = -1": "seed must be non-negative",
    "kind = disk\nradius = 1.0\nh = 0.1\nnorm = op2": "norm must be one of",
    "kind = disk\nradius = 1.0\nh = 0.1\ntasks = sobolev, ld, sobolev": "duplicate task 'sobolev'",
    "kind = levelset\nexpression = x^2 + w^2 - 1\nh = 0.1": "unknown symbol 'w'",
    "kind = levelset\nexpression = x^2 + z^2 - 1\ndim = 2\nh = 0.1": "unknown symbol 'z'",
    "kind = levelset\nexpression = x^2 +\nh = 0.1": "invalid level-set expression",
}


class TestConfigParsing:
    def test_parse_minimal(self):
        cfg = C.parse_config(DISK_CONFIG)
        assert cfg.domain.kind == "disk"
        assert cfg.h_levels == (0.04,)
        assert cfg.tasks == ("sobolev",)
        assert cfg.seed == 1234
        # a key the config leaves out takes RunConfig's default
        cfg = C.parse_config("kind = disk\nradius = 1.0\nh = 0.1\n")
        assert cfg == C.RunConfig(domain=G.DomainSpec.disk(1.0, 0.1), h_levels=(0.1,))

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
        assert cfg.domain.sizes == (("expression", "x^2+y^2-1"), ("bbox", (-1.5, 1.5)))
        # without dim and bbox, a level set takes DomainSpec.levelset's
        cfg = C.parse_config("kind = levelset\nexpression = x^2+y^2-1\nh = 0.1\n")
        spec = G.DomainSpec.levelset("x^2+y^2-1", 0.1)
        assert (cfg.domain.dim, cfg.domain.sizes) == (spec.dim, spec.sizes)

    @pytest.mark.parametrize("text", [
        "radius = 1.0\nh = 0.1",                     # missing kind
        "kind = disk\nradius = 1.0",                 # missing h
        "kind = disk\nradius = 1.0\nh = 0.1\nh = 0.2",   # duplicate
        "kind = disk\nradius = 1.0\nh = 0.1, 0.2",   # ascending levels
        "kind = disk\nradius = 1.0\nh = 0.1\ntasks = fly",  # unknown task
        "kind = disk\nradius = 1.0\nh = 0.1\ntasks = sobolev, ld, sobolev",
        "kind = disk\nradius = 1.0\nh = 0.1\nwhat = 1",     # unknown key
        "kind = disk\nradius = 1.0\nh = 0.1\nnorm = op9",   # bad norm
        "kind = disk\nradius = 1.0\nh = 0.1\nnorm = op2",   # a norm without D
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
        "kind = disk\nradius = 1.0\nh = 0.1\nseed = -1",   # numpy rejects it later
        "kind = disk\nh = 0.1",                      # missing shape size
        "kind = disk\nradius =\nh = 0.1",            # empty shape size
        "kind = annulus\nr_in = 0.5\nh = 0.1",       # one of two sizes missing
        "kind = levelset\nexpression = x^2 + w^2 - 1\nh = 0.1",   # unknown symbol
        "kind = levelset\nexpression = x^2 + z^2 - 1\ndim = 2\nh = 0.1",  # z in 2D
        "kind = levelset\nexpression = x^2 +\nh = 0.1",   # syntax error
    ])
    def test_rejects_malformed(self, text):
        with pytest.raises(C.ConfigError, match=MESSAGE.get(text)):
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
        # the bbox sets the grid's extent: two runs that differ only in it
        # record their own bbox and build grids of different shapes
        reports, shapes = [], []
        for bbox in ("-1.5, 1.5", "-3, 3"):
            cfg = C.parse_config(f"kind = levelset\nexpression = x^2/1.2+y^2-1\n"
                                 f"bbox = {bbox}\nh = 0.1\ntasks = sobolev")
            out = tmp_path / bbox
            assert cli.run_config(cfg, outdir=str(out))[0] == cli.EXIT_OK
            reports.append(json.loads((out / "report.json").read_text()))
            shapes.append(G.build_domain(cfg.domain_at(0.1)).phi.shape)
        assert [r["config"]["domain"]["bbox"] for r in reports] == [[-1.5, 1.5],
                                                                   [-3.0, 3.0]]
        assert shapes[0] != shapes[1]

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

    def test_run_two_levels_ld(self, tmp_path):
        cfg = C.parse_config("kind = disk\nradius = 1.0\nh = 0.08, 0.04\ntasks = ld")
        code, report = cli.run_config(cfg, outdir=str(tmp_path))
        assert code == cli.EXIT_OK
        ld_block = report["tasks"]["ld"]
        assert [level["h"] for level in ld_block["levels"]] == [0.08, 0.04]
        assert abs(ld_block["richardson_B"] - 7.0) < 0.05 * 7.0
        names = [c["name"] for c in report["checks"]]
        assert names.count("ld.B_refinement_agreement") == 1
        assert len((tmp_path / "ld_bounds.csv").read_text().splitlines()) == 3

    def test_task_order_is_the_run_order(self, tmp_path):
        # the tasks run in config.TASKS order whatever order the config lists
        # them in, so only the recorded list differs
        text = ("kind = disk\nradius = 1.0\nh = 0.1, 0.05\nsamples = 200\nsteps = 5\n"
                "tasks = {}\n")
        outs, reports = [tmp_path / "a", tmp_path / "b"], []
        for out, tasks in zip(outs, (", ".join(C.TASKS),
                                     "optimal-bc-sweep, battery, matnorm-verify, ld, sobolev")):
            code, report = cli.run_config(C.parse_config(text.format(tasks)), outdir=str(out))
            assert code == cli.EXIT_OK
            assert report["config"].pop("tasks") == [t.strip() for t in tasks.split(",")]
            report.pop("generated_at")
            reports.append(report)
        assert reports[0] == reports[1]
        assert list(reports[0]["tasks"]) == [t.replace("-", "_") for t in C.TASKS]
        files = sorted(p.name for p in outs[0].iterdir())
        assert files == sorted(p.name for p in outs[1].iterdir())
        for name in files:
            if name != "report.json":
                assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()

    def test_battery_reuses_the_finest_results(self, tmp_path, monkeypatch):
        from trace_bounds import ld_trace, sobolev_trace
        calls = []
        for module, name in ((sobolev_trace, "harmonic_normal_field"),
                             (ld_trace, "ld_bounds")):
            real = getattr(module, name)
            monkeypatch.setattr(module, name, lambda *a, real=real, name=name, **k:
                                calls.append(name) or real(*a, **k))
        cfg = C.parse_config("kind = disk\nradius = 1.0\nh = 0.08, 0.04\n"
                             "tasks = sobolev, ld, battery")
        assert cli.run_config(cfg, outdir=str(tmp_path))[0] == cli.EXIT_OK
        # one call per level each, level by level
        assert calls == ["harmonic_normal_field", "ld_bounds"] * 2

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

    @staticmethod
    def report_in_subprocess(cfg, out, threads: str, cpus=None) -> str:
        """report.json less its generated_at line, from a run in a new process
        at the given BLAS thread count and, if ``cpus``, bound to those CPUs."""
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": threads,
               "OMP_NUM_THREADS": threads, "MKL_NUM_THREADS": threads}
        bind = f"import os; os.sched_setaffinity(0, {set(cpus)}); " if cpus else ""
        subprocess.run([sys.executable, "-c",
                        bind + "from trace_bounds.cli import main; raise SystemExit(main())",
                        "run", str(cfg), "--output", str(out)],
                       env=env, check=True, capture_output=True)
        return re.sub(r'^\s*"generated_at".*$', "", (out / "report.json").read_text(),
                      flags=re.M)

    def test_report_does_not_depend_on_blas_threads(self, tmp_path):
        # disk h 0.01 has more interior nodes (31 K) than the 10 K terms past
        # which OpenBLAS splits a dot product across its threads
        cfg = tmp_path / "battery.cfg"
        cfg.write_text("kind = disk\nradius = 1.0\nh = 0.01\ntasks = battery\n")
        reports = [self.report_in_subprocess(cfg, tmp_path / f"threads{threads}", threads)
                   for threads in ("1", "2")]
        assert reports[0] == reports[1]

    @pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="Linux only")
    def test_3d_report_does_not_depend_on_blas_threads_or_workers(self, tmp_path):
        # ball h 0.05 has 16,644 black nodes, past OpenBLAS's 10 K split; one
        # CPU gives the basis solves one worker, and every CPU one each
        cfg = tmp_path / "ball.cfg"
        cfg.write_text("kind = ball\nradius = 1.0\nh = 0.05\ntasks = sobolev, ld\n")
        cpus = sorted(os.sched_getaffinity(0))
        reports = [self.report_in_subprocess(cfg, tmp_path / f"run{i}", threads, bound)
                   for i, (threads, bound) in enumerate(
                       [("1", cpus), ("2", cpus), ("2", cpus[:1])])]
        assert reports[0] == reports[1]
        assert reports[0] == reports[2]

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
        on_disk = json.loads((tmp_path / "report.json").read_text())
        assert on_disk["solver_stats"] == report["solver_stats"]

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
        # per level: H[nu_0], H[nu_1] and two of the four cubic monomials
        assert first["solves"] == 8
        assert len(built) == 4
        assert all(list(dom._cache) == ["laplace_operator"] for dom in built)

    def test_failed_check_names_position(self, tmp_path, monkeypatch):
        from trace_bounds import laplace
        real = laplace.tensor_divergence
        spikes = []

        def spiked(field):
            div = real(field)
            node = len(div.interior) // 3
            spikes.append(field.domain.interior_coords[node].tolist())
            interior = div.interior.copy()
            interior[node, 0] = 100.0 * np.abs(div.boundary[:, 0]).max()
            return Field(div.domain, interior, div.boundary)

        monkeypatch.setattr(laplace, "tensor_divergence", spiked)
        cfg = C.parse_config("kind = disk\nradius = 1.0\nh = 0.04\ntasks = ld")
        code, report = cli.run_config(cfg, outdir=str(tmp_path))
        assert code == cli.EXIT_CHECK_FAILED
        assert report["error"]["type"] == "check"
        assert "not attained on the boundary" in report["error"]["message"]
        assert f"at {spikes[0]}" in report["error"]["message"]
        # the solves made before the check failed are still reported: H[nu_0^3],
        # H[nu_0], H[nu_0^2 nu_1] and H[nu_1]; H[nu_0 nu_1^2] = H[nu_0] - H[nu_0^3]
        # is derived, not solved
        assert report["solver_stats"]["solves"] == 4
        assert report["solver_stats"]["max_residual"] <= 1e-10

    def test_failed_task_keeps_the_tasks_before_it(self, tmp_path, monkeypatch):
        # the levels run coarsest first, each through every per-level task: an
        # ld check failing on the coarse level leaves the sobolev block of that
        # level, whose one level has no refinement summary
        from trace_bounds import laplace
        real = laplace.tensor_divergence

        def spiked(field):
            div = real(field)
            interior = div.interior.copy()
            interior[len(interior) // 3, 0] = 100.0 * np.abs(div.boundary[:, 0]).max()
            return Field(div.domain, interior, div.boundary)

        monkeypatch.setattr(laplace, "tensor_divergence", spiked)
        cfg = C.parse_config("kind = disk\nradius = 1.0\nh = 0.08, 0.04\n"
                             "tasks = sobolev, ld")
        code, report = cli.run_config(cfg, outdir=str(tmp_path))
        assert code == cli.EXIT_CHECK_FAILED
        assert report["error"]["type"] == "check"
        assert list(report["tasks"]) == ["sobolev"]
        sobolev = report["tasks"]["sobolev"]
        assert [level["h"] for level in sobolev["levels"]] == [0.08]
        assert sobolev["richardson_B"] is None
        assert [c["name"] for c in report["checks"]] == [
            "sobolev.B_above_isoperimetric", "laplace.max_principle_all_solves"]

    def test_failed_finest_level_keeps_the_completed_levels(self, tmp_path, monkeypatch):
        from trace_bounds import laplace
        build, splu = cli.build_domain, laplace.spla.splu
        built = []
        monkeypatch.setattr(cli, "build_domain",
                            lambda spec: built.append(spec.h) or build(spec))

        def splu_but_finest(*args, **kwargs):
            if built[-1] == 0.03:
                raise RuntimeError("Factor is exactly singular")
            return splu(*args, **kwargs)

        monkeypatch.setattr(laplace.spla, "splu", splu_but_finest)
        cfg = C.parse_config("kind = disk\nradius = 1.0\nh = 0.08, 0.04, 0.03\n"
                             "tasks = sobolev, ld")
        code, report = cli.run_config(cfg, outdir=str(tmp_path))
        assert code == cli.EXIT_SOLVER
        assert report["error"]["type"] == "solver"
        # 4 per completed level; the finest failed on its first
        assert report["solver_stats"]["solves"] == 8
        for task in ("sobolev", "ld"):
            levels = report["tasks"][task]["levels"]
            assert [level["h"] for level in levels] == [0.08, 0.04]
            # extrapolated with the completed levels' own h, not the ladder's
            # two finest (0.04, 0.03)
            assert report["tasks"][task]["richardson_B"] == cli._richardson(
                [0.08, 0.04], [level["B"] for level in levels])
        # the ld refinement check and CSV need every level
        assert "ld.B_refinement_agreement" not in [c["name"] for c in report["checks"]]
        assert not (tmp_path / "ld_bounds.csv").exists()

    def test_failed_normal_field_names_position(self, tmp_path, monkeypatch):
        from trace_bounds import laplace, sobolev_trace
        real = laplace.divergence
        spikes = []

        def spiked(field):
            div = real(field)
            node = div.interior.size // 3
            spikes.append(field.domain.interior_coords[node].tolist())
            interior = div.interior.copy()
            interior[node] = 100.0 * np.abs(div.boundary).max()
            return Field(div.domain, interior, div.boundary)

        monkeypatch.setattr(laplace, "divergence", spiked)
        cfg = C.parse_config("kind = disk\nradius = 1.0\nh = 0.04\ntasks = sobolev")
        code, report = cli.run_config(cfg, outdir=str(tmp_path))
        assert code == cli.EXIT_CHECK_FAILED
        assert report["error"]["type"] == "check"
        assert "not attained on the boundary" in report["error"]["message"]
        assert f"at {spikes[0]}" in report["error"]["message"]
        with pytest.raises(G.CheckError):
            sobolev_trace.harmonic_normal_field(
                G.build_domain(G.DomainSpec.disk(1.0, 0.04)))

    def test_norm_equivalence_violation_is_a_failed_check(self, tmp_path, monkeypatch,
                                                          capsys):
        # an interval no ratio meets: a run reports a failed check, exit 4,
        # and names the CheckError on stderr
        monkeypatch.setattr(cli.matnorm, "_bounds", lambda n: [("op2", "op1", 10.0, 11.0)])
        cfg = C.parse_config("kind = disk\nradius = 1.0\nh = 0.1\nsamples = 100\n"
                             "tasks = matnorm-verify")
        code, report = cli.run_config(cfg, outdir=str(tmp_path))
        assert code == cli.EXIT_CHECK_FAILED
        assert report["error"]["type"] == "check"
        assert report["error"]["message"].startswith("op2/op1 = ")
        named = f"check error: {report['error']['message']}\n"
        assert capsys.readouterr().err == named
        cfg_file = tmp_path / "matnorm.cfg"
        cfg_file.write_text("kind = disk\nradius = 1.0\nh = 0.1\nsamples = 100\n"
                            f"tasks = matnorm-verify\noutput = {tmp_path}/out\n")
        assert cli.main(["run", str(cfg_file)]) == cli.EXIT_CHECK_FAILED
        assert capsys.readouterr().err == named

    def test_programming_error_propagates(self, tmp_path, monkeypatch):
        def slip(*args, **kwargs):
            raise AssertionError("a slip, not a failed check")

        monkeypatch.setattr(cli.optimal_bc, "sweep_theta", slip)
        cfg = C.parse_config("kind = disk\nradius = 1.0\nh = 0.1\n"
                             "tasks = optimal-bc-sweep")
        with pytest.raises(AssertionError, match="a slip"):
            cli.run_config(cfg, outdir=str(tmp_path))

    @pytest.mark.parametrize("shape, block", [
        ("kind = disk\nradius = 1.5", {"radius": 1.5}),
        ("kind = ball\nradius = 0.5", {"radius": 0.5}),
        ("kind = ellipse\na = 2\nb = 1", {"a": 2.0, "b": 1.0}),
        ("kind = ellipsoid\na = 1.5\nb = 1\nc = 0.8",
         {"a": 1.5, "b": 1.0, "c": 0.8}),
        ("kind = annulus\nr_in = 0.5\nr_out = 1", {"r_in": 0.5, "r_out": 1.0}),
        ("kind = levelset\ndim = 3\nexpression = x^2+y^2+z^2-1\nbbox = -1.5, 1.5",
         {"expression": "x^2+y^2+z^2-1", "bbox": [-1.5, 1.5]}),
    ], ids=lambda v: v.split()[2] if isinstance(v, str) else "")
    def test_report_domain_block(self, tmp_path, shape, block):
        cfg = C.parse_config(f"{shape}\nh = 0.1\ntasks = matnorm-verify\nsamples = 10")
        assert cli.run_config(cfg, outdir=str(tmp_path))[0] == cli.EXIT_OK
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["config"]["domain"] == block

    def test_sweep_task(self, tmp_path):
        # each norm defined in the domain's dimension is swept, and no other
        for shape, norms in [("kind = ball\nradius = 1.0", {"vec2", "vecInf"}),
                             ("kind = disk\nradius = 1.0", {"vec2", "vecInf", "op2"})]:
            out = tmp_path / shape.split()[2]
            cfg = C.parse_config(f"{shape}\nh = 0.5\ntasks = optimal-bc-sweep\nsteps = 31\n")
            code, report = cli.run_config(cfg, outdir=str(out))
            assert code == cli.EXIT_OK
            sweep = report["tasks"]["optimal_bc_sweep"]
            assert set(sweep) == norms
            assert {p.name for p in out.glob("theta_sweep_*.csv")} == {
                f"theta_sweep_{norm}.csv" for norm in norms}
            assert abs(sweep["vec2"]["max_closed_form"] - np.sqrt(2)) < 1e-12
            assert sweep["vec2"]["max_entry_gap"] <= 1e-3
            lines = (out / "theta_sweep_vec2.csv").read_text().splitlines()
            assert lines[0] == "theta,closed_form,brute_force"
            # plain float cells, so the sweep reads back exactly
            rows = np.array([[float(c) for c in line.split(",")] for line in lines[1:]])
            assert rows.shape == (31, 3)
            assert rows[:, 1].max() == sweep["vec2"]["max_closed_form"]


@pytest.fixture
def no_cyclic_gc():
    """Reference counting alone frees what the test drops."""
    enabled = gc.isenabled()
    gc.disable()
    yield
    if enabled:
        gc.enable()


class TestLevelByLevel:
    """The ladder is evaluated one level at a time, coarsest first: a level
    is built only if a task reads it, and freed, by reference counting
    alone, before the next one is built; in 3D, before the one after it."""

    def _watch_builds(self, monkeypatch) -> tuple[list, list]:
        """Patch cli.build_domain; returns the weak references to the domains
        built so far, and per build which of the earlier ones were alive."""
        build = cli.build_domain
        built, alive = [], []

        def watched(spec):
            alive.append([ref() is not None for ref in built])
            domain = build(spec)
            built.append(weakref.ref(domain))
            return domain

        monkeypatch.setattr(cli, "build_domain", watched)
        return built, alive

    def test_each_level_is_freed_before_the_next_is_built(
            self, tmp_path, monkeypatch, no_cyclic_gc):
        built, alive = self._watch_builds(monkeypatch)
        cfg = C.parse_config("kind = disk\nradius = 1.0\nh = 0.08, 0.04, 0.02\n"
                             "tasks = sobolev, ld, battery")
        assert cli.run_config(cfg, outdir=str(tmp_path))[0] == cli.EXIT_OK
        assert alive == [[], [False], [False, False]]

    @pytest.mark.parametrize("tasks, alive_at_builds", [
        ("sobolev, ld, battery", [[], [True], [False, True]]),
        # nothing to hand off: one level at a time, as in 2D
        ("sobolev", [[], [False], [False, False]]),
    ], ids=["basis", "sobolev_alone"])
    def test_3d_builds_one_level_ahead(self, tmp_path, monkeypatch, no_cyclic_gc,
                                       tasks, alive_at_builds):
        # level k + 1 is built while level k is alive, and level k is freed
        # before level k + 2 is built
        built, alive = self._watch_builds(monkeypatch)
        cfg = C.parse_config("kind = ball\nradius = 1.0\nh = 0.15, 0.125, 0.1\n"
                             f"tasks = {tasks}")
        assert cli.run_config(cfg, outdir=str(tmp_path))[0] == cli.EXIT_OK
        assert alive == alive_at_builds

    def test_no_domain_outlives_the_run(self, tmp_path, monkeypatch, no_cyclic_gc):
        built, _ = self._watch_builds(monkeypatch)
        cfg = C.parse_config("kind = ball\nradius = 1.0\nh = 0.15, 0.1\n"
                             "tasks = sobolev, ld, battery")
        code, report = cli.run_config(cfg, outdir=str(tmp_path))
        assert code == cli.EXIT_OK
        assert len(built) == 2
        assert [ref() is None for ref in built] == [True, True]

    @pytest.mark.parametrize("shape, h_levels, solves", [
        ("kind = disk\nradius = 1.0", "0.08, 0.04", 4),
        ("kind = ball\nradius = 1.0", "0.15, 0.1", 10),
    ], ids=["disk", "ball"])
    def test_each_level_drops_its_backend_before_its_tasks_difference(
            self, tmp_path, monkeypatch, shape, h_levels, solves):
        from trace_bounds import laplace
        # per level, when its first difference stencil is built: whether it
        # holds its backend, and the solves it has made
        seen = []
        build = laplace._Operator.stencils.func

        def watched(op):
            seen.append(("backend" in vars(op), op.record["solves"]))
            return build(op)

        stencils = cached_property(watched)
        stencils.__set_name__(laplace._Operator, "stencils")
        monkeypatch.setattr(laplace._Operator, "stencils", stencils)
        cfg = C.parse_config(f"{shape}\nh = {h_levels}\ntasks = sobolev, ld")
        code, report = cli.run_config(cfg, outdir=str(tmp_path))
        assert code == cli.EXIT_OK
        assert seen == [(False, solves)] * 2
        assert report["solver_stats"]["solves"] == 2 * solves

    def test_battery_alone_builds_only_the_finest_level(self, tmp_path, monkeypatch):
        built, _ = self._watch_builds(monkeypatch)
        cfg = C.parse_config("kind = disk\nradius = 1.0\nh = 0.08, 0.04\ntasks = battery")
        code, report = cli.run_config(cfg, outdir=str(tmp_path))
        assert code == cli.EXIT_OK
        assert len(built) == 1
        assert report["tasks"]["battery"]["h"] == 0.04
        # the normal field's 2 and the e_k stresses' 2 more, on that level only
        assert report["solver_stats"]["solves"] == 4


BALL_LADDER = "kind = ball\nradius = 1.0\nh = 0.15, 0.1\ntasks = sobolev, ld"


def _fail_coarse_ld(monkeypatch):
    """A CheckError from the ld task on the ball ladder's coarse level."""
    from trace_bounds import laplace
    real = laplace.tensor_divergence

    def failing(field):
        if field.domain.h == 0.15:
            raise G.CheckError("forced check failure on the coarse level")
        return real(field)

    monkeypatch.setattr(laplace, "tensor_divergence", failing)


def _fail_fine_build(monkeypatch):
    """A GeometryError from the build of the ball ladder's fine level: its
    grid exceeds the node cap, the coarse one's does not."""
    monkeypatch.setattr(G, "DEFAULT_NODE_CAP", 20_000)


def _coarse_unknowns() -> int:
    """The size of the ball ladder's coarse reduced system: the fine
    level's is larger."""
    from trace_bounds import laplace
    return laplace._operator(G.build_domain(G.DomainSpec.ball(1.0, 0.15))).black.size


def _fail_fine_solve(monkeypatch):
    """A SolverError from a Krylov solve on the fine level's data."""
    from trace_bounds import laplace
    coarse, loop = _coarse_unknowns(), laplace._bicgstab
    monkeypatch.setattr(laplace, "_bicgstab", lambda A, M, b: (
        (np.zeros_like(b), 417, 417) if b.size > coarse else loop(A, M, b)))


def _fail_fine_backend(monkeypatch):
    """A SolverError from the build of the fine level's multigrid backend."""
    from trace_bounds import laplace
    coarse, multigrid = _coarse_unknowns(), laplace._Multigrid.__init__

    def failing(self, matrix, ijk):
        if matrix.shape[0] > coarse:
            raise laplace.SolverError("forced backend failure")
        multigrid(self, matrix, ijk)

    monkeypatch.setattr(laplace._Multigrid, "__init__", failing)


# failure -> (inject it, the exit code, a part of the message)
FINE_FAILURES = {"node_cap": (_fail_fine_build, cli.EXIT_CHECK_FAILED, "cap 20000"),
                 "krylov": (_fail_fine_solve, cli.EXIT_SOLVER, "417 iterations"),
                 "backend": (_fail_fine_backend, cli.EXIT_SOLVER, "forced backend failure")}


def _stripped(report: dict) -> dict:
    return {key: value for key, value in report.items() if key != "generated_at"}


class TestLookAhead:
    """In 3D the level after the current one is built and its basis solves
    handed off early, but its failures are raised at its turn: the report
    and the exit code are those of running the levels one after another,
    and the run's worker threads are gone when it returns."""

    @pytest.mark.parametrize("fail_fine", FINE_FAILURES, ids=list(FINE_FAILURES))
    def test_a_fine_level_failure_waits_for_its_turn(self, tmp_path, monkeypatch,
                                                     fail_fine):
        inject, exit_code, message = FINE_FAILURES[fail_fine]
        inject(monkeypatch)
        code, report = cli.run_config(C.parse_config(BALL_LADDER), outdir=str(tmp_path))
        assert code == exit_code
        assert message in report["error"]["message"]
        # the coarse level ran every task and kept its record
        for task in ("sobolev", "ld"):
            assert [level["h"] for level in report["tasks"][task]["levels"]] == [0.15]
        assert report["solver_stats"]["solves"] == 10
        assert "ld.B_refinement_agreement" not in [c["name"] for c in report["checks"]]

    @pytest.mark.parametrize("fail_fine", FINE_FAILURES, ids=list(FINE_FAILURES))
    def test_a_coarse_failure_wins_over_the_fine_level_failure(
            self, tmp_path, monkeypatch, fail_fine):
        cfg = C.parse_config(BALL_LADDER)
        _fail_coarse_ld(monkeypatch)
        alone = cli.run_config(cfg, outdir=str(tmp_path / "coarse"))
        FINE_FAILURES[fail_fine][0](monkeypatch)
        both = cli.run_config(cfg, outdir=str(tmp_path / "both"))
        assert alone[0] == both[0] == cli.EXIT_CHECK_FAILED
        assert both[1]["error"]["message"] == "forced check failure on the coarse level"
        assert _stripped(both[1]) == _stripped(alone[1])

    @pytest.mark.parametrize("failure", [None, "coarse_check", *FINE_FAILURES])
    def test_no_worker_outlives_the_run(self, tmp_path, monkeypatch, failure):
        if failure == "coarse_check":
            _fail_coarse_ld(monkeypatch)
        elif failure:
            FINE_FAILURES[failure][0](monkeypatch)
        before = set(threading.enumerate())
        code, _ = cli.run_config(C.parse_config(BALL_LADDER + ", battery"),
                                 outdir=str(tmp_path))
        assert (code == cli.EXIT_OK) == (failure is None)
        assert set(threading.enumerate()) == before


class TestMain:
    def test_run_exit_codes(self, tmp_path):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text(DISK_CONFIG + f"output = {tmp_path}/out\n")
        assert cli.main(["run", str(cfg_file)]) == cli.EXIT_OK

    def test_krylov_failure_exits_3(self, tmp_path, monkeypatch, capsys):
        from trace_bounds import laplace
        monkeypatch.setattr(laplace, "_bicgstab",
                            lambda A, M, b: (np.zeros_like(b), 417, 417))
        cfg_file = tmp_path / "ball.cfg"
        cfg_file.write_text("kind = ball\nradius = 1.0\nh = 0.25\n"
                            f"tasks = sobolev\noutput = {tmp_path}/out\n")
        assert cli.main(["run", str(cfg_file)]) == cli.EXIT_SOLVER
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["error"]["type"] == "solver"
        assert "417 iterations" in report["error"]["message"]
        assert capsys.readouterr().err == f"solver error: {report['error']['message']}\n"

    def test_factorization_failure_exits_3(self, tmp_path, monkeypatch, capsys):
        from trace_bounds import laplace

        def singular(*args, **kwargs):
            raise RuntimeError("Factor is exactly singular")

        monkeypatch.setattr(laplace.spla, "splu", singular)
        cfg_file = tmp_path / "disk.cfg"
        cfg_file.write_text("kind = disk\nradius = 1.0\nh = 0.1\n"
                            f"tasks = sobolev\noutput = {tmp_path}/out\n")
        assert cli.main(["run", str(cfg_file)]) == cli.EXIT_SOLVER
        # strict JSON: the residual the error did not measure is null, not NaN
        text = (tmp_path / "out" / "report.json").read_text()

        def no_constant(name):
            raise ValueError(f"{name} is not JSON")

        report = json.loads(text, parse_constant=no_constant)
        assert report["error"]["type"] == "solver"
        assert "sparse factorization failed" in report["error"]["message"]
        assert report["error"]["residual"] is None
        assert capsys.readouterr().err == f"solver error: {report['error']['message']}\n"

    def test_non_finite_levelset_exits_4(self, tmp_path, capsys):
        cfg_file = tmp_path / "sqrt.cfg"
        cfg_file.write_text("kind = levelset\ndim = 2\nh = 0.1\ntasks = sobolev\n"
                            f"expression = sqrt(x) + y^2 - 1\noutput = {tmp_path}/out\n")
        assert cli.main(["run", str(cfg_file)]) == cli.EXIT_CHECK_FAILED
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["error"]["type"] == "check"
        assert "produced non-finite values" in report["error"]["message"]
        assert "RuntimeWarning" not in capsys.readouterr().err

    def test_run_is_the_one_command(self, capsys):
        assert cli.main(["--help"]) == cli.EXIT_OK
        assert "{run}" in capsys.readouterr().out
        assert cli.main(["sweep-theta", "--norm", "vec2"]) == cli.EXIT_CONFIG

    def test_python_m_trace_bounds_runs_without_a_warning(self, tmp_path):
        # the package's __main__, so runpy does not find trace_bounds.cli
        # already imported by the package and warn
        cfg_file = tmp_path / "disk.cfg"
        cfg_file.write_text(f"kind = disk\nradius = 1.0\nh = 0.1\noutput = {tmp_path}/out\n")
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        proc = subprocess.run([sys.executable, "-m", "trace_bounds", "run", str(cfg_file)],
                              env={**os.environ, "PYTHONPATH": src},
                              capture_output=True, text=True)
        assert proc.returncode == cli.EXIT_OK, proc.stderr
        assert "RuntimeWarning" not in proc.stderr
        assert json.loads(proc.stdout)["all_passed"] is True

    def test_malformed_config_exits_2(self, tmp_path):
        cfg_file = tmp_path / "bad.cfg"
        cfg_file.write_text("kind = nosuchshape\nh = 0.1\n")
        assert cli.main(["run", str(cfg_file)]) == cli.EXIT_CONFIG

    def test_missing_config_exits_2(self, tmp_path):
        assert cli.main(["run", str(tmp_path / "nope.cfg")]) == cli.EXIT_CONFIG

    def test_count_flags_must_be_positive(self, tmp_path, capsys):
        for key, message in (("samples", "samples must be at least 1"),
                             ("steps", "steps must be at least 2")):
            cfg_file = tmp_path / f"{key}.cfg"
            cfg_file.write_text(f"kind = disk\nradius = 1.0\nh = 0.1\n{key} = 0\n"
                                "tasks = matnorm-verify, optimal-bc-sweep\n")
            assert cli.main(["run", str(cfg_file)]) == cli.EXIT_CONFIG
            assert message in capsys.readouterr().err

    def test_negative_seed_is_a_config_error(self, tmp_path, capsys):
        # unchecked, np.random.default_rng(-1) raises ValueError: a traceback, exit 1
        cfg_file = tmp_path / "seed.cfg"
        text = ("kind = disk\nradius = 1.0\nh = 0.1\nseed = -1\nsamples = 10\n"
                f"tasks = matnorm-verify\noutput = {tmp_path}/out\n")
        cfg_file.write_text(text)
        assert cli.main(["run", str(cfg_file)]) == cli.EXIT_CONFIG
        assert "seed must be non-negative" in capsys.readouterr().err
        cfg_file.write_text(text.replace("seed = -1", "seed = 0"))
        assert cli.main(["run", str(cfg_file)]) == cli.EXIT_OK

    def test_one_sweep_step_is_a_config_error(self, tmp_path, capsys):
        # one step samples only theta = 0, and the vec2 worst case sqrt(2) is
        # attained only at theta = pi/2: a correct run would fail its check
        text = ("kind = disk\nradius = 1.0\nh = 0.1\ntasks = optimal-bc-sweep\n"
                f"output = {tmp_path}/out\nsteps = 1\n")
        with pytest.raises(C.ConfigError, match="samples theta = pi/2, not 1"):
            C.parse_config(text)
        cfg_file = tmp_path / "one_step.cfg"
        cfg_file.write_text(text)
        assert cli.main(["run", str(cfg_file)]) == cli.EXIT_CONFIG
        assert "samples theta = pi/2, not 1" in capsys.readouterr().err
        cfg_file.write_text(text.replace("steps = 1", "steps = 2"))
        assert cli.main(["run", str(cfg_file)]) == cli.EXIT_OK

    def _sweep_run(self, tmp_path, capsys) -> tuple[int, dict, str]:
        """A 2D optimal-bc-sweep run at 5 steps through main: its exit code,
        report and stderr."""
        cfg_file = tmp_path / "sweep.cfg"
        cfg_file.write_text("kind = disk\nradius = 1.0\nh = 0.1\nsteps = 5\n"
                            f"tasks = optimal-bc-sweep\noutput = {tmp_path}/out\n")
        code = cli.main(["run", str(cfg_file)])
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        return code, report, capsys.readouterr().err

    @pytest.mark.parametrize("norm", ["vec2", "vecInf"])
    def test_sweep_theta_checks_its_oracle(self, tmp_path, capsys, monkeypatch, norm):
        assert self._sweep_run(tmp_path, capsys)[0] == cli.EXIT_OK
        exact = cli.optimal_bc.brute_force_optimal
        monkeypatch.setattr(cli.optimal_bc, "brute_force_optimal",
                            lambda nu, t, norm: exact(nu, t, norm) + 0.5)
        code, report, err = self._sweep_run(tmp_path, capsys)
        assert code == cli.EXIT_CHECK_FAILED
        assert abs(report["tasks"]["optimal_bc_sweep"][norm]["max_entry_gap"] - 0.5) <= 1e-3
        failed = {c["name"] for c in report["checks"] if not c["passed"]}
        assert failed == {"sweep.oracle_gap.vec2", "sweep.oracle_gap.vecInf"}
        assert "FAILED check: sweep.oracle_gap.vec2" in err
        # the CSV is still written, as a failed run still writes its report
        lines = (tmp_path / "out" / f"theta_sweep_{norm}.csv").read_text().splitlines()
        assert len(lines) == 6

    def test_sweep_theta_checks_the_worst_case(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cli.optimal_bc, "worst_case_D", lambda norm: 1.5)
        code, report, err = self._sweep_run(tmp_path, capsys)
        assert code == cli.EXIT_CHECK_FAILED
        assert "FAILED check: sweep.worst_case.vec2" in err
        failed = {c["name"] for c in report["checks"] if not c["passed"]}
        assert failed == {"sweep.worst_case.vec2", "sweep.worst_case.vecInf"}
        # op2 has no worst case D, so its sweep is swept and written unchecked
        assert "op2" in report["tasks"]["optimal_bc_sweep"]
        assert not any(c["name"].endswith(".op2") for c in report["checks"])

    @pytest.mark.parametrize("argv", [
        ["run", "{cfg}", "--output", "{cfg}/out"],
    ], ids=["run"])
    def test_unwritable_output_is_a_config_error(self, tmp_path, capsys, argv):
        # an output directory under a regular file: one stderr line that
        # names the path, no traceback
        cfg_file = tmp_path / "disk.cfg"
        cfg_file.write_text(DISK_CONFIG)
        argv = [arg.format(cfg=cfg_file) for arg in argv]
        assert cli.main(argv) == cli.EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.err.startswith("output error: ")
        assert captured.err.count("\n") == 1
        assert repr(argv[-1]) in captured.err
