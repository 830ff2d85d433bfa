"""Pipeline orchestration, report emission, and the command-line interface.

Subcommands::

    trace-bounds run <config>                  # tasks from a config file
    trace-bounds verify-matnorm --dim {2,3} --samples N --seed S
    trace-bounds sweep-theta --norm {vec2,vecInf,op2} --steps N [--dim {2,3}]

sweep-theta's ``--dim`` defaults to the largest dimension the norm is defined
in; a dimension the norm lacks is a configuration error.
Tasks run in ``config.TASKS`` order. One level loop takes the h levels one
at a time, coarsest first. It builds a level only if a task reads it (the
per-level tasks sobolev and ld read every level, the battery the finest
only), runs those tasks on it, and keeps their report blocks and checks and
the level's solve record: the level's domain and solver state are freed
before the next level is built. A level that ld or the battery reads solves
its whole normal-monomial basis before any task runs on it, so its solver
backend is freed before any task post-processes. Each per-level task's
refinement summary follows the loop. A run that fails keeps every check
added so far and each per-level task's blocks of the levels it completed,
extrapolated over those levels' own h (null below two); the ld refinement
check and ld_bounds.csv need every level.
Exit codes: 0 all checks passed; 2 configuration error, an output path that
cannot be created or written included ("output error: ..." on stderr); 3
solver failure; 4 at least one verification check failed (the report names
the first).
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

import numpy as np

from . import __version__
from . import laplace, matnorm, optimal_bc, sobolev_trace as st, ld_trace as ld
from .config import MIN_STEPS, STEPS_RULE, TASKS, ConfigError, RunConfig, load_config
from .fields import Field, write_csv
from .geometry import CheckError, Domain, GeometryError, build_domain
from .laplace import SolverError

__all__ = ["run_config", "main"]

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SOLVER = 3
EXIT_CHECK_FAILED = 4


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
    B = st.sobolev_B(domain, nf)
    iso_bound = st.isoperimetric_lower_bound(domain)
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
    return rep.as_dict(), rep


def _ld_summary(levels: list[dict], config: RunConfig, checks: _Checks,
                outdir: str) -> None:
    """The ld task once it has completed every level: the refinement check
    and ld_bounds.csv."""
    if len(levels) >= 2:
        b1, b2 = levels[-2]["B"], levels[-1]["B"]
        drift = abs(b2 - b1) / max(abs(b2), 1e-300)
        checks.add("ld.B_refinement_agreement", drift <= 0.10,
                   value=drift, tolerance=0.10, h=config.h_levels[-1],
                   detail="B at h and h/2 agree within 10%")
    write_csv(os.path.join(outdir, "ld_bounds.csv"), ld.LD_CSV_HEADER,
              [ld.ld_report_csv_row(level, kind=config.domain.kind) for level in levels])


def _task_battery(domain: Domain, checks: _Checks, norm: str, finest: dict) -> dict:
    """Batteries on the finest level, reusing the finest results of the sobolev
    and ld tasks (``finest``, keyed by task name) when those tasks ran."""
    h = domain.h
    nf = finest.get("sobolev") or st.harmonic_normal_field(domain)
    B = st.sobolev_B(domain, nf)
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
            out[kind].append({"field": name, **rep.as_dict()})
            checks.add(f"battery.{kind}.{name}", rep.slack >= -rep.eps_disc,
                       value=rep.slack, tolerance=rep.eps_disc, h=h,
                       detail=f"{inequality} slack >= -eps_disc")
    return out


def _task_matnorm(config: RunConfig, checks: _Checks, outdir: str) -> dict:
    out = {}
    for dim in (2, 3):
        rows = matnorm.verify_equivalence_constants(dim, config.samples,
                                                    seed=config.seed)
        out[f"dim{dim}"] = [row.__dict__ for row in rows]
        path = os.path.join(outdir, f"matnorm_equivalence_dim{dim}.csv")
        matnorm.equivalence_table_csv(rows, path)
        checks.add(f"matnorm.no_violations.dim{dim}", True, value=0.0,
                   tolerance=0.0, h=None,
                   detail=f"{config.samples} samples, seed {config.seed}")
    return out


def _checked_sweep(checks: _Checks, norm: str, steps: int, dim: int | None,
                   brute_force: bool, path: str | None) -> dict:
    """optimal_bc.sweep_theta, written to ``path`` as CSV if given; for a norm with
    a worst case D, checks the brute force (if run) and that the maximum is D."""
    sweep = optimal_bc.sweep_theta(norm, steps=steps, dim=dim, brute_force=brute_force)
    if path:
        cols = ["theta", "closed_form"] + (["brute_force"] if brute_force else [])
        write_csv(path, cols, zip(*(sweep[c] for c in cols)))
    if optimal_bc.NORMS[norm][1] is not None:
        if brute_force:
            checks.add(f"sweep.oracle_gap.{norm}",
                       sweep["max_entry_gap"] <= 1e-3,
                       value=sweep["max_entry_gap"], tolerance=1e-3, h=None,
                       detail="closed form matches brute force entrywise")
        expect = optimal_bc.worst_case_D(norm)
        checks.add(f"sweep.worst_case.{norm}",
                   abs(sweep["max_closed_form"] - expect) < 1e-12,
                   value=sweep["max_closed_form"], tolerance=1e-12, h=None,
                   detail="sweep maximum reproduces D exactly")
    return sweep


def _task_sweep(config: RunConfig, checks: _Checks, outdir: str) -> dict:
    out = {}
    dim = config.domain.dim
    for norm in (norm for norm, (dims, _) in optimal_bc.NORMS.items() if dim in dims):
        sweep = _checked_sweep(checks, norm, config.steps, dim, True,
                               os.path.join(outdir, f"theta_sweep_{norm}.csv"))
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
    records = []   # the solve record of every level built

    def run_level(h: float, battery: bool) -> None:
        """The one level loop's body: build level h, solve its normal-monomial
        basis if a task reads all of it, and run on it every per-level task,
        then the battery if ``battery``. Only the blocks, the checks and the
        solve record outlive this call: the domain and every result on it are
        freed when it returns."""
        domain = build_domain(config.domain_at(h))
        try:
            if "ld" in levels or battery:
                # the whole basis before any task: its completion drops the
                # backend, so no check or difference operator runs beside it.
                # Asked for in the order the tasks ask for it (the normal
                # field's H[nu_a] first, unless ld reads first), so the same
                # members are solved and derived as when the tasks ask
                order = ld.monomial_order(domain.dim)
                if "sobolev" in levels or "ld" not in levels:
                    order = [(a,) for a in range(domain.dim)] + order
                for axes in order:
                    laplace._normal_monomial(domain, axes)
            results = {}
            for task, blocks in levels.items():
                block, results[task] = level_tasks[task](domain, checks[task])
                blocks.append(block)
            if battery:
                tasks["battery"] = _task_battery(
                    domain, checks["battery"], config.norm, results)
        finally:
            records.append(laplace.solver_stats(domain))

    code = EXIT_OK
    try:
        for h in config.h_levels:
            # the battery reads only the finest level
            battery = "battery" in checks and h == config.h_levels[-1]
            if levels or battery:
                run_level(h, battery)
        for task, run in (("matnorm-verify", _task_matnorm),
                          ("optimal-bc-sweep", _task_sweep)):
            if task in checks:
                tasks[task] = run(config, checks[task], outdir)
    except SolverError as exc:
        # a residual the error did not measure (NaN) is null: JSON has no NaN
        report["error"] = {"type": "solver", "message": str(exc),
                           "residual": exc.residual if np.isfinite(exc.residual) else None}
        code = EXIT_SOLVER
    except (GeometryError, matnorm.NormEquivalenceError, CheckError) as exc:
        report["error"] = {"type": "check", "message": str(exc)}
        code = EXIT_CHECK_FAILED

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
    if code == EXIT_OK and failure is not None:
        print(f"FAILED check: {failure}", file=sys.stderr)
        code = EXIT_CHECK_FAILED
    return code, report


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, not {value}")
    return value


def _seed(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"seed must be non-negative, not {value}")
    return value


def _sweep_steps(text: str) -> int:
    value = _positive_int(text)
    if value < MIN_STEPS:
        raise argparse.ArgumentTypeError(f"{STEPS_RULE}, not {value}")
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="trace-bounds",
        description="Trace-inequality constants via harmonic extensions.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run tasks from a config file")
    p_run.add_argument("config", help="path to a key = value config file")
    p_run.add_argument("--output", help="override the output directory")

    p_mat = sub.add_parser("verify-matnorm",
                           help="verify the matrix-norm equivalence constants")
    p_mat.add_argument("--dim", type=int, choices=(2, 3), required=True)
    p_mat.add_argument("--samples", type=_positive_int, default=RunConfig.samples)
    p_mat.add_argument("--seed", type=_seed, default=RunConfig.seed)
    p_mat.add_argument("--output", help="CSV output path")

    p_sweep = sub.add_parser("sweep-theta",
                             help="sweep the optimal-stress angle")
    p_sweep.add_argument("--norm", choices=tuple(optimal_bc.NORMS), required=True)
    p_sweep.add_argument("--steps", type=_sweep_steps, default=RunConfig.steps)
    p_sweep.add_argument("--dim", type=int, choices=(2, 3),
                         help="default: the norm's largest (optimal_bc.sweep_theta)")
    p_sweep.add_argument("--output", help="CSV output path")
    p_sweep.add_argument("--brute-force", action="store_true",
                         help="also run the grid-search oracle")
    return parser


def _output_error(exc: OSError) -> int:
    """An output directory or file that cannot be created or written is a
    configuration error; the OSError names the path."""
    print(f"output error: {exc}", file=sys.stderr)
    return EXIT_CONFIG


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors already
        return int(exc.code or 0)

    if args.command == "run":
        try:
            config = load_config(args.config)
        except ConfigError as exc:
            print(f"config error: {exc}", file=sys.stderr)
            print("usage: trace-bounds run <config-file>", file=sys.stderr)
            return EXIT_CONFIG
        try:
            code, report = run_config(config, outdir=args.output)
        except OSError as exc:
            return _output_error(exc)
        print(json.dumps({"all_passed": report.get("all_passed"),
                          "output": args.output or config.output},
                         sort_keys=True))
        return code

    if args.command == "verify-matnorm":
        try:
            rows = matnorm.verify_equivalence_constants(
                args.dim, args.samples, seed=args.seed)
        except matnorm.NormEquivalenceError as exc:
            print(f"violation: {exc}", file=sys.stderr)
            return EXIT_CHECK_FAILED
        if args.output:
            try:
                matnorm.equivalence_table_csv(rows, args.output)
            except OSError as exc:
                return _output_error(exc)
        for r in rows:
            print(f"{r.ratio}: bounds [{r.lower:.6f}, {r.upper:.6f}] "
                  f"observed [{r.observed_min:.6f}, {r.observed_max:.6f}]")
        return EXIT_OK

    if args.command == "sweep-theta":
        dims = optimal_bc.NORMS[args.norm][0]
        if args.dim is not None and args.dim not in dims:
            print(f"config error: norm {args.norm} is defined in "
                  f"{', '.join(f'{d}D' for d in dims)}, not {args.dim}D", file=sys.stderr)
            return EXIT_CONFIG
        checks = _Checks()
        try:
            sweep = _checked_sweep(checks, args.norm, args.steps, args.dim,
                                   args.brute_force, args.output)
        except OSError as exc:
            return _output_error(exc)
        print(f"max closed-form value: {sweep['max_closed_form']!r}")
        if args.brute_force:
            print(f"max entrywise gap vs brute force: {sweep['max_entry_gap']!r}")
        failure = checks.first_failure()
        if failure is not None:
            print(f"FAILED check: {failure}", file=sys.stderr)
            return EXIT_CHECK_FAILED
        return EXIT_OK

    return EXIT_CONFIG


if __name__ == "__main__":
    raise SystemExit(main())
