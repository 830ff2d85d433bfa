"""Pipeline orchestration, report emission, and the command-line interface.

Subcommands::

    trace-bounds run <config>                  # tasks from a config file
    trace-bounds verify-matnorm --dim {2,3} --samples N --seed S
    trace-bounds sweep-theta --norm {vec2,vecInf,op2} --steps N [--dim {2,3}]

Exit codes: 0 all checks passed; 2 configuration error; 3 solver failure;
4 at least one verification check failed (the report names the first).
Reports are JSON with sorted keys; identical config + seed reproduce them
byte-for-byte except for the ``generated_at`` line. Every reported check
carries its tolerance and the grid spacing it was computed at.
"""

from __future__ import annotations

import argparse
import datetime
import json
import math
import os
import sys

import numpy as np

from . import __version__
from . import laplace, matnorm, optimal_bc, sobolev_trace as st, ld_trace as ld
from .config import ConfigError, RunConfig, load_config
from .fields import ScalarField, SymTensorField, VectorField, sym_index_pairs, write_csv
from .geometry import CheckError, Domain, GeometryError, build_domain
from .laplace import SolverError

__all__ = ["run_config", "export_plot_data", "main"]

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SOLVER = 3
EXIT_CHECK_FAILED = 4


# ---------------------------------------------------------------------------
# verification batteries
# ---------------------------------------------------------------------------

def w11_battery_fields(domain: Domain) -> list[tuple[str, ScalarField]]:
    """Constant, polynomials to degree 3, a radial bump, a sign-changing field,
    and a near-boundary-concentrated field."""
    r2 = lambda p: np.sum(p * p, axis=1)
    phi_fn = domain.spec.levelset_function()
    phi_scale = max(1.0, float(np.abs(domain.phi).max()))
    fields = [
        ("constant", ScalarField.constant(domain, 1.0)),
        ("linear_x", ScalarField.from_function(domain, lambda p: p[:, 0])),
        ("cubic_x3", ScalarField.from_function(domain, lambda p: p[:, 0] ** 3)),
        ("radial_bump", ScalarField.from_function(
            domain, lambda p: np.exp(-4.0 * r2(p)))),
        ("sign_changing", ScalarField.from_function(
            domain, lambda p: p[:, 0] ** 2 - p[:, 1] ** 2)),
        ("boundary_layer", ScalarField.from_function(
            domain, lambda p: np.exp(np.asarray(phi_fn(p)) / (0.1 * phi_scale)))),
    ]
    return fields


def ld_battery_fields(domain: Domain) -> list[tuple[str, VectorField]]:
    """Rigid, linear, pure shear, radial, and sign-changing vector fields."""
    dim = domain.dim
    if dim == 2:
        rigid = ld.RigidField(a=np.array([0.3, -0.2]), b=1.0)
    else:
        rigid = ld.RigidField(a=np.array([0.3, -0.2, 0.1]),
                              b=np.array([0.2, -0.3, 1.0]))

    def padded(fn):
        def wrap(p):
            out = np.zeros_like(p)
            fn(p, out)
            return out
        return wrap

    def linear(p, out):
        out[:, 0] = p[:, 0]

    def shear(p, out):
        out[:, 0] = p[:, 1]

    def radial(p, out):
        out[:] = p

    def signchg(p, out):
        out[:, 0] = p[:, 0] ** 2 - p[:, 1] ** 2
        out[:, 1] = p[:, 0] * p[:, 1]
        if out.shape[1] == 3:
            out[:, 2] = p[:, 2] * p[:, 0]

    return [
        ("rigid", rigid.as_vector_field(domain)),
        ("linear", VectorField.from_function(domain, padded(linear))),
        ("pure_shear", VectorField.from_function(domain, padded(shear))),
        ("radial", VectorField.from_function(domain, padded(radial))),
        ("sign_changing", VectorField.from_function(domain, padded(signchg))),
    ]


# ---------------------------------------------------------------------------
# task runners
# ---------------------------------------------------------------------------

class _Checks:
    def __init__(self):
        self.entries: list[dict] = []

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
    h1, h2 = h_levels[-2], h_levels[-1]
    v1, v2 = values[-2], values[-1]
    r = h1 / h2
    return (r * v2 - v1) / (r - 1.0)


def _task_sobolev(domains, config: RunConfig,
                  checks: _Checks) -> tuple[dict, st.NormalField]:
    out = {"levels": []}
    b_values = []
    for h, domain in domains:
        nf = st.harmonic_normal_field(domain)
        B = st.sobolev_B(domain, nf)
        iso_bound = st.isoperimetric_lower_bound(domain)
        b_values.append(B)
        out["levels"].append({
            "h": h,
            "B": B,
            "isoperimetric_lower_bound": iso_bound,
            "sup_div_closure": nf.sup_div_closure,
            "volume": domain.volume,
            "area": domain.area,
        })
        checks.add("sobolev.B_above_isoperimetric", B >= iso_bound * 0.98,
                   value=B - iso_bound, tolerance=0.02 * iso_bound, h=h,
                   detail="B >= |bnd|/|Omega| up to 2% equality tolerance")
    out["richardson_B"] = _richardson([h for h, _ in domains], b_values)
    return out, nf


def _task_ld(domains, config: RunConfig, checks: _Checks,
             outdir: str) -> tuple[dict, ld.LDBoundReport]:
    out = {"levels": []}
    b_values = []
    csv_rows = []
    for h, domain in domains:
        rep = ld.ld_bounds(domain, config.norm)
        b_values.append(rep.B)
        out["levels"].append(rep.as_dict())
        csv_rows.append(ld.ld_report_csv_row(rep, kind=config.domain.kind))
        a_exact = domain.dim * optimal_bc.worst_case_D(config.norm)
        checks.add("ld.A_formula", abs(rep.A - a_exact) < 1e-12,
                   value=rep.A, tolerance=1e-12, h=h,
                   detail=f"A = dim * D for norm {config.norm}")
        for d in rep.per_k:
            checks.add(f"ld.frame_inf_equals_Dinf.k{d.k}",
                       abs(d.sup_frame_inf_boundary - 1.0) <= 0.02,
                       value=d.sup_frame_inf_boundary, tolerance=0.02, h=h,
                       detail="frame-relative boundary sup = D_inf = 1")
    if len(b_values) >= 2:
        drift = abs(b_values[-1] - b_values[-2]) / max(abs(b_values[-1]), 1e-300)
        checks.add("ld.B_refinement_agreement", drift <= 0.10,
                   value=drift, tolerance=0.10, h=domains[-1][0],
                   detail="B at h and h/2 agree within 10%")
    out["richardson_B"] = _richardson([h for h, _ in domains], b_values)
    write_csv(os.path.join(outdir, "ld_bounds.csv"), ld.LD_CSV_HEADER, csv_rows)
    return out, rep


def _task_battery(domains, config: RunConfig, checks: _Checks,
                  nf: st.NormalField | None, ld_rep: ld.LDBoundReport | None) -> dict:
    """Batteries on the finest level, reusing its sobolev and ld task results
    (nf, ld_rep) when those tasks ran."""
    h, domain = domains[-1]
    nf = nf or st.harmonic_normal_field(domain)
    B = st.sobolev_B(domain, nf)
    w11 = []
    for name, phi in w11_battery_fields(domain):
        rep = st.verify_trace_inequality(domain, phi, B=B)
        w11.append({"field": name, **rep.as_dict()})
        checks.add(f"battery.w11.{name}", rep.slack >= -rep.eps_disc,
                   value=rep.slack, tolerance=rep.eps_disc, h=h,
                   detail="trace inequality slack >= -eps_disc")
    ld_rep = ld_rep or ld.ld_bounds(domain, config.norm)
    vec = []
    for name, w in ld_battery_fields(domain):
        rep = ld.verify_ld_trace_inequality(domain, w, ld_rep)
        vec.append({"field": name, **rep.as_dict()})
        checks.add(f"battery.ld.{name}", rep.slack >= -rep.eps_disc,
                   value=rep.slack, tolerance=rep.eps_disc, h=h,
                   detail="LD trace inequality slack >= -eps_disc")
    return {"h": h, "B": B, "A": ld_rep.A, "B_ld": ld_rep.B,
            "w11": w11, "ld": vec}


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


def _task_sweep(config: RunConfig, checks: _Checks, outdir: str) -> dict:
    out = {}
    dim = config.domain.dim
    sweeps = [("vec2", 3), ("vecInf", 3)] if dim == 3 else \
             [("vec2", 2), ("vecInf", 2), ("op2", 2)]
    for norm, d in sweeps:
        sweep = optimal_bc.sweep_theta(norm, steps=config.steps, dim=d,
                                       brute_force=True)
        write_csv(os.path.join(outdir, f"theta_sweep_{norm}.csv"),
                  ["theta", "closed_form", "brute_force"],
                  zip(sweep["theta"], sweep["closed_form"], sweep["brute_force"]))
        out[norm] = {
            "max_closed_form": sweep["max_closed_form"],
            "max_entry_gap": sweep["max_entry_gap"],
        }
        if norm in ("vec2", "vecInf"):
            checks.add(f"sweep.oracle_gap.{norm}",
                       sweep["max_entry_gap"] <= 1e-3,
                       value=sweep["max_entry_gap"], tolerance=1e-3, h=None,
                       detail="closed form matches brute force entrywise")
            expect = math.sqrt(2.0) if norm == "vec2" else 1.0
            checks.add(f"sweep.worst_case.{norm}",
                       abs(sweep["max_closed_form"] - expect) < 1e-12,
                       value=sweep["max_closed_form"], tolerance=1e-12, h=None,
                       detail="sweep maximum reproduces D exactly")
    return out


# ---------------------------------------------------------------------------
# run + report
# ---------------------------------------------------------------------------

def run_config(config: RunConfig, outdir: str | None = None) -> tuple[int, dict]:
    """Execute the configured tasks; returns (exit_code, report)."""
    outdir = outdir or config.output
    os.makedirs(outdir, exist_ok=True)
    checks = _Checks()

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
            "domain": {
                k: v for k, v in (
                    ("radius", config.domain.radius),
                    ("a", config.domain.a),
                    ("b", config.domain.b),
                    ("c", config.domain.c),
                    ("r_in", config.domain.r_in),
                    ("r_out", config.domain.r_out),
                    ("expression", config.domain.expression),
                    # the bbox sets a level set's grid; canonical kinds ignore it
                    ("bbox", config.domain.kind == "levelset"
                     and list(config.domain.bbox)),
                ) if v
            },
        },
        "tasks": {},
    }

    needs_domain = any(t in config.tasks for t in ("sobolev", "ld", "battery"))
    try:
        domains = []
        if needs_domain:
            for h in config.h_levels:
                domains.append((h, build_domain(config.domain_at(h))))
        nf = ld_rep = None
        if "sobolev" in config.tasks:
            report["tasks"]["sobolev"], nf = _task_sobolev(domains, config, checks)
        if "ld" in config.tasks:
            report["tasks"]["ld"], ld_rep = _task_ld(domains, config, checks, outdir)
        if "battery" in config.tasks:
            report["tasks"]["battery"] = _task_battery(domains, config, checks,
                                                       nf, ld_rep)
        if "matnorm-verify" in config.tasks:
            report["tasks"]["matnorm_verify"] = _task_matnorm(config, checks, outdir)
        if "optimal-bc-sweep" in config.tasks:
            report["tasks"]["optimal_bc_sweep"] = _task_sweep(config, checks, outdir)
    except SolverError as exc:
        report["error"] = {"type": "solver", "message": str(exc),
                           "residual": getattr(exc, "residual", None)}
        _write_report(report, checks, outdir)
        return EXIT_SOLVER, report
    except (GeometryError, matnorm.NormEquivalenceError, CheckError) as exc:
        report["error"] = {"type": "check", "message": str(exc)}
        _write_report(report, checks, outdir)
        return EXIT_CHECK_FAILED, report

    stats = laplace.solver_stats(*(domain for _, domain in domains))
    report["solver_stats"] = stats
    if stats["solves"]:
        checks.add("laplace.max_principle_all_solves",
                   stats["max_principle_violation"] <= 1e-8,
                   value=stats["max_principle_violation"], tolerance=1e-8,
                   h=None, detail=f"over {stats['solves']} Dirichlet solves")

    _write_report(report, checks, outdir)
    failure = checks.first_failure()
    if failure is not None:
        print(f"FAILED check: {failure}", file=sys.stderr)
        return EXIT_CHECK_FAILED, report
    return EXIT_OK, report


def _write_report(report: dict, checks: _Checks, outdir: str) -> None:
    report["checks"] = checks.entries
    report["all_passed"] = checks.first_failure() is None and "error" not in report
    path = os.path.join(outdir, "report.json")
    with open(path, "w") as fh:
        json.dump(report, fh, sort_keys=True, indent=2)
        fh.write("\n")


# ---------------------------------------------------------------------------
# plot-data export
# ---------------------------------------------------------------------------

def export_plot_data(field, path) -> None:
    """Write a CSV suitable for external plotting.

    ScalarField: one row per interior node (coordinates + value).
    VectorField / SymTensorField: one row per boundary node.
    None or empty: header-only file.
    """
    if field is None:
        write_csv(path, ["x", "y", "value"], [])
        return
    if isinstance(field, ScalarField):
        domain = field.domain
        cols = list("xyz"[: domain.dim]) + ["value"]
        write_csv(path, cols, np.column_stack([domain.interior_coords, field.interior]))
        return
    if isinstance(field, (VectorField, SymTensorField)):
        domain = field.domain
        if isinstance(field, VectorField):
            names = [f"v{k}" for k in range(domain.dim)]
        else:
            names = [f"sigma_{i}{j}" for i, j in sym_index_pairs(field.dim)]
        values = np.stack([c.boundary for c in field.components], axis=1)
        cols = list("xyz"[: domain.dim]) + names
        write_csv(path, cols, np.hstack([domain.boundary_pos, values]))
        return
    raise TypeError(f"cannot export {type(field).__name__}")


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, not {value}")
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
    p_mat.add_argument("--samples", type=_positive_int, default=10000)
    p_mat.add_argument("--seed", type=int, default=20240401)
    p_mat.add_argument("--output", help="CSV output path")

    p_sweep = sub.add_parser("sweep-theta",
                             help="sweep the optimal-stress angle")
    p_sweep.add_argument("--norm", choices=("vec2", "vecInf", "op2"),
                         required=True)
    p_sweep.add_argument("--steps", type=_positive_int, default=91)
    p_sweep.add_argument("--dim", type=int, choices=(2, 3), default=3)
    p_sweep.add_argument("--output", help="CSV output path")
    p_sweep.add_argument("--brute-force", action="store_true",
                         help="also run the grid-search oracle")
    return parser


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
        code, report = run_config(config, outdir=args.output)
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
            matnorm.equivalence_table_csv(rows, args.output)
        for r in rows:
            print(f"{r.ratio}: bounds [{r.lower:.6f}, {r.upper:.6f}] "
                  f"observed [{r.observed_min:.6f}, {r.observed_max:.6f}]")
        return EXIT_OK

    if args.command == "sweep-theta":
        dim = 2 if args.norm == "op2" else args.dim
        sweep = optimal_bc.sweep_theta(args.norm, steps=args.steps, dim=dim,
                                       brute_force=args.brute_force)
        if args.output:
            cols = ["theta", "closed_form"] + (["brute_force"] if args.brute_force else [])
            write_csv(args.output, cols, zip(*(sweep[c] for c in cols)))
        print(f"max closed-form value: {sweep['max_closed_form']!r}")
        if args.brute_force:
            print(f"max entrywise gap vs brute force: {sweep['max_entry_gap']!r}")
        return EXIT_OK

    return EXIT_CONFIG


if __name__ == "__main__":
    raise SystemExit(main())
