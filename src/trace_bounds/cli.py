"""Pipeline orchestration, report emission, and the command-line interface.

This module alone formats and writes a run's outputs: the numerics modules
return dataclasses and arrays, and the report blocks, ``report.json`` and
every CSV (``ld_bounds.csv``, the matnorm equivalence tables and the theta
sweeps, all through ``_write_csv``) are made here.

One command::

    trace-bounds run <config> [--output DIR]   # or: python -m trace_bounds run ...

Tasks run in ``config.TASKS`` order. One level loop takes the h levels in
turn, coarsest first. It builds a level only if a task reads it (the
per-level tasks sobolev and ld read every level, the battery the finest
only), runs those tasks on it, and keeps their report blocks and checks and
the level's solve record: the level's domain and solver state are freed
when its turn ends. A level that ld or the battery reads takes its whole
normal-monomial basis before any task runs on it, so its solver backend is
freed before any task post-processes. A run owns one pool of worker
threads, one per CPU it may run on. In 3D the loop builds level k + 1 and
hands its basis solves to the pool before it takes level k's, so the build
overlaps level k's solves and level k's tasks overlap level k + 1's solves,
with at most two levels alive; an error in preparing level k + 1 is raised
at its turn, so reports and exit codes are those of one level at a time.
2D runs, and 3D runs that hand off no basis (sobolev alone) run, one level
at a time. Each per-level task's refinement summary
follows the loop. A run that fails keeps every check added so far and each
per-level task's blocks of the levels it completed, extrapolated over those
levels' own h (null below two); the ld refinement check and ld_bounds.csv
need every level.
Exit codes: 0 all checks passed; 2 configuration error, an output path that
cannot be created or written included ("output error: ..." on stderr); 3
solver failure ("solver error: ..." on stderr); 4 at least one verification
check failed: a failed report check ("FAILED check: <name>" on stderr) or an
error raised inside a task ("check error: ..." on stderr, the report's
``error``).
Reports are JSON with sorted keys; identical config + seed reproduce them
byte-for-byte except for the ``generated_at`` line. Every reported check
carries its tolerance and the grid spacing it was computed at.
"""

from __future__ import annotations

import argparse
import datetime
import functools
import json
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, astuple

import numpy as np

from . import __version__
from . import laplace, matnorm, optimal_bc, sobolev_trace as st, ld_trace as ld
from .config import TASKS, ConfigError, RunConfig, load_config
from .geometry import CheckError, Domain, Field, GeometryError, build_domain
from .laplace import SolverError

__all__ = ["run_config", "main"]

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SOLVER = 3
EXIT_CHECK_FAILED = 4


# ---------------------------------------------------------------------------
# CSV output
# ---------------------------------------------------------------------------

def _write_csv(path, header, rows) -> None:
    """The CSV format of every export: a comma-joined header line, then one
    line per row; string cells are written as they are, numbers as
    repr(float), so values round-trip exactly."""
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(c if isinstance(c, str) else repr(float(c))
                              for c in row) + "\n")


# ---------------------------------------------------------------------------
# verification batteries
# ---------------------------------------------------------------------------

def w11_battery_fields(domain: Domain) -> list[tuple[str, Field]]:
    """Constant, polynomials to degree 3, a radial bump, a sign-changing field,
    and a near-boundary-concentrated field."""
    r2 = lambda p: np.sum(p * p, axis=1)
    phi_fn = domain.spec.levelset_function()
    phi_scale = max(1.0, float(np.abs(domain.phi).max()))
    fields = [
        ("constant", Field.constant(domain, 1.0)),
        ("linear_x", Field.from_function(domain, lambda p: p[:, 0])),
        ("cubic_x3", Field.from_function(domain, lambda p: p[:, 0] ** 3)),
        ("radial_bump", Field.from_function(
            domain, lambda p: np.exp(-4.0 * r2(p)))),
        ("sign_changing", Field.from_function(
            domain, lambda p: p[:, 0] ** 2 - p[:, 1] ** 2)),
        ("boundary_layer", Field.from_function(
            domain, lambda p: np.exp(np.asarray(phi_fn(p)) / (0.1 * phi_scale)))),
    ]
    return fields


def ld_battery_fields(domain: Domain) -> list[tuple[str, Field]]:
    """Rigid, linear, pure shear, radial, and sign-changing vector fields."""
    dim = domain.dim
    zeros = lambda p: np.zeros((len(p), dim - 1))
    # a + b x p; in 2D the rotation rate b = 1 turns p into (-y, x)
    if dim == 2:
        rigid = lambda p: np.array([0.3, -0.2]) + np.stack([-p[:, 1], p[:, 0]], axis=1)
    else:
        rigid = lambda p: np.array([0.3, -0.2, 0.1]) + np.cross([0.2, -0.3, 1.0], p)
    return [(name, Field.from_function(domain, fn)) for name, fn in (
            ("rigid", rigid),
            ("linear", lambda p: np.column_stack([p[:, 0], zeros(p)])),
            ("pure_shear", lambda p: np.column_stack([p[:, 1], zeros(p)])),
            ("radial", lambda p: p),
            # (x^2 - y^2, xy[, zx]): the zx column is empty in 2D
            ("sign_changing", lambda p: np.column_stack(
                [p[:, 0] ** 2 - p[:, 1] ** 2, p[:, 0] * p[:, 1], p[:, 2:] * p[:, :1]])),
        )]


# ---------------------------------------------------------------------------
# task runners
# ---------------------------------------------------------------------------

class _Checks:
    def __init__(self, entries: list[dict] | None = None):
        self.entries: list[dict] = entries or []

    def add(self, name: str, passed: bool, value: float, tolerance: float,
            h: float | None, detail: str = "") -> None:
        self.entries.append({
            "name": name,
            "passed": bool(passed),
            "value": float(value),
            "tolerance": float(tolerance),
            "h": h,
            "detail": detail,
        })

    def first_failure(self) -> str | None:
        for e in self.entries:
            if not e["passed"]:
                return e["name"]
        return None


def _richardson(h_levels, values) -> float | None:
    """First-order Richardson extrapolation from the two finest levels."""
    if len(values) < 2:
        return None
    r = h_levels[-2] / h_levels[-1]
    return (r * values[-1] - values[-2]) / (r - 1.0)


def _sobolev_level(domain: Domain, checks: _Checks) -> tuple[dict, st.NormalField]:
    h = domain.h
    nf = st.harmonic_normal_field(domain)
    B = nf.sup_div_boundary
    # the discrete quotient |bnd| / |Omega|: the continuum one bounds B from
    # below, this one exceeds the discrete B by about 0.7 (h/r)^2 on spheres
    iso_bound = domain.area / domain.volume
    checks.add("sobolev.B_above_isoperimetric", B >= iso_bound * 0.98,
               value=B - iso_bound, tolerance=0.02 * iso_bound, h=h,
               detail="B >= |bnd|/|Omega| up to 2% equality tolerance")
    return {"h": h, "B": B, "isoperimetric_lower_bound": iso_bound,
            "sup_div_closure": nf.sup_div_closure, "volume": domain.volume,
            "area": domain.area}, nf


def _ld_level(domain: Domain, checks: _Checks,
              norm: str) -> tuple[dict, ld.LDBoundReport]:
    h = domain.h
    rep = ld.ld_bounds(domain, norm)
    a_exact = domain.dim * optimal_bc.worst_case_D(norm)
    checks.add("ld.A_formula", abs(rep.A - a_exact) < 1e-12,
               value=rep.A, tolerance=1e-12, h=h,
               detail=f"A = dim * D for norm {norm}")
    for d in rep.per_k:
        checks.add(f"ld.frame_inf_equals_Dinf.k{d.k}",
                   abs(d.sup_frame_inf_boundary - 1.0) <= 0.02,
                   value=d.sup_frame_inf_boundary, tolerance=0.02, h=h,
                   detail="frame-relative boundary sup = D_inf = 1")
    return {**asdict(rep), "trace_norm_bound": rep.trace_norm_bound}, rep


def _ld_summary(levels: list[dict], config: RunConfig, checks: _Checks,
                outdir: str) -> None:
    """The ld task once it has completed every level: the refinement check
    and ld_bounds.csv, one row per level with the boundary divergence sup of
    each sigma^k (blank for k = 2 in 2D)."""
    if len(levels) >= 2:
        b1, b2 = levels[-2]["B"], levels[-1]["B"]
        drift = abs(b2 - b1) / max(abs(b2), 1e-300)
        checks.add("ld.B_refinement_agreement", drift <= 0.10,
                   value=drift, tolerance=0.10, h=config.h_levels[-1],
                   detail="B at h and h/2 agree within 10%")
    keys = ("h", "norm", "A", "B", "trace_norm_bound")
    _write_csv(os.path.join(outdir, "ld_bounds.csv"),
               ("kind", "dim", *keys, "div_sup_k0", "div_sup_k1", "div_sup_k2"),
               ([config.domain.kind, str(level["dim"]), *(level[key] for key in keys),
                 *(d["div_sup_boundary"] for d in level["per_k"]),
                 *[""] * (3 - len(level["per_k"]))] for level in levels))


def _task_battery(domain: Domain, checks: _Checks, norm: str, finest: dict) -> dict:
    """Batteries on the finest level, reusing the finest results of the sobolev
    and ld tasks (``finest``, keyed by task name) when those tasks ran."""
    h = domain.h
    B = (finest.get("sobolev") or st.harmonic_normal_field(domain)).sup_div_boundary
    ld_rep = finest.get("ld") or ld.ld_bounds(domain, norm)
    out = {"h": h, "B": B, "A": ld_rep.A, "B_ld": ld_rep.B}
    # every name is looked up when called, so a wrapper put on the module
    # attribute (as perfbench's tracer does) sees each call
    for kind, fields, inequality, verify in (
            ("w11", w11_battery_fields, "trace inequality",
             lambda phi: st.verify_trace_inequality(domain, phi, B=B)),
            ("ld", ld_battery_fields, "LD trace inequality",
             lambda w: ld.verify_ld_trace_inequality(domain, w, ld_rep))):
        out[kind] = []
        for name, field in fields(domain):
            rep = verify(field)
            out[kind].append({"field": name, **asdict(rep)})
            checks.add(f"battery.{kind}.{name}", rep.slack >= -rep.eps_disc,
                       value=rep.slack, tolerance=rep.eps_disc, h=h,
                       detail=f"{inequality} slack >= -eps_disc")
    return out


def _task_matnorm(config: RunConfig, checks: _Checks, outdir: str) -> dict:
    out = {}
    for dim in (2, 3):
        rows = matnorm.verify_equivalence_constants(dim, config.samples,
                                                    seed=config.seed)
        out[f"dim{dim}"] = [asdict(row) for row in rows]
        # one line per row: the ratio, its exact bounds and the observed extremes
        _write_csv(os.path.join(outdir, f"matnorm_equivalence_dim{dim}.csv"),
                   ("ratio", "exact_lower", "exact_upper", "observed_min",
                    "observed_max"), map(astuple, rows))
        checks.add(f"matnorm.no_violations.dim{dim}", True, value=0.0,
                   tolerance=0.0, h=None,
                   detail=f"{config.samples} samples, seed {config.seed}")
    return out


def _task_sweep(config: RunConfig, checks: _Checks, outdir: str) -> dict:
    """optimal_bc.sweep_theta, with its brute force, for each norm defined in
    the domain's dimension, written to theta_sweep_<norm>.csv; for a norm with
    a worst case D, checks the brute force and that the maximum is D."""
    out = {}
    dim = config.domain.dim
    for norm, (dims, D) in optimal_bc.NORMS.items():
        if dim not in dims:
            continue
        sweep = optimal_bc.sweep_theta(norm, config.steps, dim)
        cols = ("theta", "closed_form", "brute_force")
        _write_csv(os.path.join(outdir, f"theta_sweep_{norm}.csv"), cols,
                   zip(*(sweep[c] for c in cols)))
        if D is not None:
            checks.add(f"sweep.oracle_gap.{norm}",
                       sweep["max_entry_gap"] <= 1e-3,
                       value=sweep["max_entry_gap"], tolerance=1e-3, h=None,
                       detail="closed form matches brute force entrywise")
            expect = optimal_bc.worst_case_D(norm)
            checks.add(f"sweep.worst_case.{norm}",
                       abs(sweep["max_closed_form"] - expect) < 1e-12,
                       value=sweep["max_closed_form"], tolerance=1e-12, h=None,
                       detail="sweep maximum reproduces D exactly")
        out[norm] = {key: sweep[key] for key in ("max_closed_form", "max_entry_gap")}
    return out


# ---------------------------------------------------------------------------
# run + report
# ---------------------------------------------------------------------------

def run_config(config: RunConfig, outdir: str | None = None) -> tuple[int, dict]:
    """Execute the configured tasks; returns (exit_code, report)."""
    outdir = outdir or config.output
    os.makedirs(outdir, exist_ok=True)

    report: dict = {
        "version": __version__,
        "generated_at": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "config": {
            "kind": config.domain.kind,
            "dim": config.domain.dim,
            "h_levels": list(config.h_levels),
            "norm": config.norm,
            "tasks": list(config.tasks),
            "seed": config.seed,
            "samples": config.samples,
            "steps": config.steps,
            "domain": dict(config.domain.sizes),
        },
        "tasks": {},
    }

    # each configured task's checks, in run order
    checks = {task: _Checks() for task in TASKS if task in config.tasks}
    # the per-level tasks, in run order: each evaluates one level's domain
    # into its checks, bound to the config values it reads
    level_tasks = {"sobolev": _sobolev_level,
                   "ld": functools.partial(_ld_level, norm=config.norm)}
    # per-level task -> the report blocks of the levels it completed
    levels = {task: [] for task in level_tasks if task in checks}
    tasks = {}     # task -> its report block
    records = []   # the solve record of every level run

    def prepare(h: float, battery: bool) -> Domain | Exception:
        """Build level h and, if a task reads its whole basis, hand the
        basis solves to the workers. An error is returned, not raised:
        ``run_level`` raises it at the level's turn, after every level
        before it has run, so the report and exit code are those of running
        the levels one after another."""
        try:
            domain = build_domain(config.domain_at(h))
            if "ld" in levels or battery:
                laplace.hand_off_basis(domain, workers)
            return domain
        except Exception as exc:   # raised by run_level, with its traceback
            return exc

    def run_level(level: Domain | Exception, battery: bool) -> None:
        """The one level loop's body: take the prepared level's
        normal-monomial basis if a task reads all of it, and run on it every
        per-level task, then the battery if ``battery``. Only the blocks,
        the checks and the solve record outlive this call: the domain and
        every result on it are freed when it returns."""
        if isinstance(level, Exception):
            raise level
        domain = level
        try:
            if "ld" in levels or battery:
                # the whole basis before any task: its completion drops the
                # backend, so no check or difference operator runs beside it
                laplace.solve_basis(domain)
            results = {}
            for task, blocks in levels.items():
                block, results[task] = level_tasks[task](domain, checks[task])
                blocks.append(block)
            if battery:
                tasks["battery"] = _task_battery(
                    domain, checks["battery"], config.norm, results)
        finally:
            records.append(laplace.solver_stats(domain))

    # the levels a task reads, coarsest first; the battery reads the finest
    plan = [(h, "battery" in checks and h == config.h_levels[-1])
            for h in config.h_levels]
    plan = [(h, battery) for h, battery in plan if levels or battery]
    # In 3D level i + 1 is built and handed off before level i is taken, so
    # its build overlaps level i's solves and its solves level i's tasks; at
    # most two levels are alive. A run that hands off no basis (sobolev
    # alone) would gain nothing, and 2D runs one level at a time, since the
    # LU factorization, its one long step, holds the GIL.
    ahead = int(config.domain.dim == 3 and ("ld" in levels or "battery" in checks))
    prepared = {}   # plan index -> its level, built and handed off
    # one worker per CPU this process may run on; sched_getaffinity is Linux only
    workers = ThreadPoolExecutor(len(os.sched_getaffinity(0))
                                 if hasattr(os, "sched_getaffinity") else os.cpu_count())
    code = EXIT_OK
    try:
        for i, (_, battery) in enumerate(plan):
            for j in range(i, min(i + 1 + ahead, len(plan))):
                if j not in prepared:
                    prepared[j] = prepare(*plan[j])
            run_level(prepared.pop(i), battery)
        for task, run in (("matnorm-verify", _task_matnorm),
                          ("optimal-bc-sweep", _task_sweep)):
            if task in checks:
                tasks[task] = run(config, checks[task], outdir)
    except SolverError as exc:
        # a residual the error did not measure (NaN) is null: JSON has no NaN
        report["error"] = {"type": "solver", "message": str(exc),
                           "residual": exc.residual if np.isfinite(exc.residual) else None}
        code = EXIT_SOLVER
    except (GeometryError, CheckError) as exc:
        report["error"] = {"type": "check", "message": str(exc)}
        code = EXIT_CHECK_FAILED
    finally:
        # after a failure: cancel the solves not started, and wait for the
        # running ones
        workers.shutdown(cancel_futures=True)

    # the refinement summary of each per-level task, over the levels it
    # completed, also when the run failed part way
    for task, blocks in levels.items():
        if blocks:
            tasks[task] = {"levels": blocks, "richardson_B": _richardson(
                config.h_levels[:len(blocks)], [block["B"] for block in blocks])}
    if len(levels.get("ld", ())) == len(config.h_levels):
        _ld_summary(levels["ld"], config, checks["ld"], outdir)
    report["tasks"] = {task.replace("-", "_"): tasks[task] for task in checks if task in tasks}

    stats = laplace.merge_records(*records)
    report["solver_stats"] = stats
    run_checks = _Checks([e for task_checks in checks.values() for e in task_checks.entries])
    if stats["solves"]:
        run_checks.add("laplace.max_principle_all_solves",
                       stats["max_principle_violation"] <= laplace.MAX_PRINCIPLE_TOL,
                       value=stats["max_principle_violation"],
                       tolerance=laplace.MAX_PRINCIPLE_TOL,
                       h=None, detail=f"over {stats['solves']} Dirichlet solves")

    failure = run_checks.first_failure()
    report["checks"] = run_checks.entries
    report["all_passed"] = failure is None and "error" not in report
    with open(os.path.join(outdir, "report.json"), "w") as fh:
        json.dump(report, fh, sort_keys=True, indent=2)
        fh.write("\n")
    if "error" in report:
        # "solver error: ..." (exit 3) or "check error: ..." (exit 4)
        print(f"{report['error']['type']} error: {report['error']['message']}",
              file=sys.stderr)
    elif failure is not None:
        print(f"FAILED check: {failure}", file=sys.stderr)
        code = EXIT_CHECK_FAILED
    return code, report


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="trace-bounds",
        description="Trace-inequality constants via harmonic extensions.")
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", help="run tasks from a config file")
    p_run.add_argument("config", help="path to a key = value config file")
    p_run.add_argument("--output", help="override the output directory")
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors already
        return int(exc.code or 0)

    try:
        config = load_config(args.config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        print("usage: trace-bounds run <config-file>", file=sys.stderr)
        return EXIT_CONFIG
    try:
        code, report = run_config(config, outdir=args.output)
    except OSError as exc:
        # an output directory or file that cannot be created or written is a
        # configuration error; the OSError names the path
        print(f"output error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    print(json.dumps({"all_passed": report.get("all_passed"),
                      "output": args.output or config.output},
                     sort_keys=True))
    return code


if __name__ == "__main__":
    raise SystemExit(main())
