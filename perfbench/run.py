"""The trace-bounds benchmark.

    python3 perfbench/run.py --workload {disk2d,ball3d,torus3d} --seed N \
        --seconds S --trace {0,1}

Run from the root of a source checkout: the program under test is imported
from ``src/``, nothing needs installing. Each workload is a config generated
from the seed and run through the public pipeline (``cli.run_config``), one
fresh process per run (see perfbench/child.py). Every run's report is checked
(``check_report``). ``--trace 0`` prints the end-to-end metrics of
BENCHMARK.json; ``--trace 1`` adds one traced run and prints the per-layer
metrics. The last line of stdout is the result as one JSON object. A full
record of the run (B per level, work counters per level, every sample, the
environment) goes to ``.perfbench/results/``; scratch outputs go to a
temporary directory under ``.perfbench/`` that is removed at the end.
``torus3d`` runs the same way but is not listed in BENCHMARK.json: its
``run_s`` spreads too widely for the bound in the time a run may take.
perfbench/DESIGN.md explains the workloads, metrics and tolerances.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
from dataclasses import dataclass

from child import now

HERE = os.path.dirname(os.path.abspath(__file__))
CHILD = os.path.join(HERE, "child.py")
STATE_DIR = ".perfbench"

# a run must finish within this many seconds of the benchmark's start
HARD_LIMIT_S = 170.0
# set-up-only processes launched before the timed runs, for a steady setup_s
SETUP_PROBES = 3
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS")

# The existing solver gates of the pipeline (laplace.SOLVER_TOL and the
# maximum-principle slack), checked again on report.json.
RESIDUAL_GATE = 1e-10
MAX_PRINCIPLE_GATE = 1e-8
# |B - closed form| for the scalar constant (2 on the disk, 3 on the ball).
# The harmonic normal field is linear on a disk or ball and the stencils are
# exact on linear data, so LU gives B to ~1e-12. Solving every system by
# Jacobi-preconditioned CG instead, to a max residual of 1.2e-11, moves the
# disk's B by 3.7e-8 (the ball's by 3.6e-9 at 1.4e-11); scaled up to the
# 1e-10 residual gate that is ~3e-7. 1e-5 leaves a 30x margin for any solver
# that meets the gate and fails an error in the fifth decimal.
SCALAR_B_TOL = 1e-5
# |B_LD - 7| on the disk. At h = 0.005 the discretization error is 7.4e-5;
# the CG solve above moves it by 4e-9 (~4e-8 at the gate). 2e-4 fails a
# change that loses one digit (a 10x larger error, 7.4e-4).
LD_B_TOL = 2e-4
# |B(h=0.08) - B(h=0.05)| / B on the torus, where no closed form exists. Over
# the centre shifts tried the two levels agree to 6.5e-4 .. 1.1e-3, and a CG
# solve at a 1e-11 residual moves B by 3e-9. 3e-3 fails a level that loses a
# digit (an error of ~1e-2).
REFINEMENT_TOL = 3e-3


@dataclass(frozen=True)
class Workload:
    h_levels: str
    tasks: str
    shape: str                       # config lines of the domain
    closed_forms: tuple = ()         # (task, closed-form B at the finest h, tol)
    refinement_tol: float = 0.0      # relative agreement of the last two B


WORKLOADS = {
    "disk2d": Workload(
        h_levels="0.02, 0.01, 0.005",
        tasks="sobolev, ld, matnorm-verify, optimal-bc-sweep, battery",
        shape="kind = disk\nradius = 1.0\n",
        closed_forms=(("sobolev", 2.0, SCALAR_B_TOL), ("ld", 7.0, LD_B_TOL))),
    "ball3d": Workload(
        h_levels="0.1, 0.05",
        tasks="sobolev, ld, battery",
        shape="kind = ball\nradius = 1.0\n",
        closed_forms=(("sobolev", 3.0, SCALAR_B_TOL),)),
    "torus3d": Workload(
        h_levels="0.08, 0.05",
        tasks="sobolev",
        shape=("kind = levelset\ndim = 3\nbbox = -1.6, 1.6\n"
               "expression = (sqrt((x{:+.6f})^2 + (y{:+.6f})^2) - 1)^2"
               " + (z{:+.6f})^2 - 0.16\n"),
        refinement_tol=REFINEMENT_TOL),
}


def make_config(workload: Workload, seed: int) -> str:
    """Config text for one run. The seed sets the matnorm sampling seed and,
    for the torus, shifts its centre by up to half a finest grid cell per axis."""
    rng = random.Random(seed)
    shift = [-0.5 * 0.05 + 0.05 * rng.random() for _ in range(3)]
    return (workload.shape.format(*(-c for c in shift))
            + f"h = {workload.h_levels}\nnorm = vec2\ntasks = {workload.tasks}\n"
            + f"seed = {seed % 2 ** 32}\n")


def b_values(report: dict) -> dict:
    tasks = report.get("tasks", {})
    return {task: [level["B"] for level in tasks[task]["levels"]]
            for task in ("sobolev", "ld") if task in tasks}


def check_report(workload: Workload, code: int, report: dict) -> list[str]:
    """Why the run fails the correctness gate; empty if it passes."""
    problems = []
    if code != 0 or report.get("all_passed") is not True:
        problems.append(f"exit code {code}, all_passed {report.get('all_passed')}")
    stats = report.get("solver_stats", {})
    if not stats.get("max_residual", math.inf) <= RESIDUAL_GATE:
        problems.append(f"solver residual {stats.get('max_residual')}")
    if not stats.get("max_principle_violation", math.inf) <= MAX_PRINCIPLE_GATE:
        problems.append(f"max-principle violation {stats.get('max_principle_violation')}")
    values = b_values(report)
    for task, exact, tol in workload.closed_forms:
        finest = values.get(task, [math.nan])[-1]
        if not abs(finest - exact) <= tol:
            problems.append(f"{task} B = {finest!r}, closed form {exact} +- {tol}")
    if workload.refinement_tol:
        levels = values.get("sobolev", [])
        drift = (abs(levels[-1] - levels[-2]) / abs(levels[-1])
                 if len(levels) >= 2 else math.nan)
        if not drift <= workload.refinement_tol:
            problems.append(f"sobolev B refinement drift {drift!r}")
    return problems


def strip_timestamp(text: str) -> str:
    return "\n".join(line for line in text.splitlines()
                     if not line.lstrip().startswith('"generated_at"'))


class Bench:
    def __init__(self, workload: Workload, config_path: str, tmp: str,
                 env: dict, deadline: float):
        self.workload = workload
        self.config_path = config_path
        self.tmp = tmp
        self.env = env
        self.deadline = deadline
        self.runs: list[dict] = []
        self.setup_s: list[float] = []
        self.versions: dict = {}

    def launch(self, name: str, *flags: str) -> dict | None:
        """Start one child, wait for it, and return its result (None if it died)."""
        outdir = os.path.join(self.tmp, name)
        result_path = outdir + ".json"
        cmd = [sys.executable, CHILD, self.config_path, outdir, result_path, *flags]
        launched = now()
        proc = subprocess.Popen(cmd, env=self.env, stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, text=True)
        try:
            _, err = proc.communicate(timeout=max(1.0, self.deadline - now()))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            print(f"{name}: killed at the time limit", file=sys.stderr)
            return None
        if proc.returncode != 0 or not os.path.exists(result_path):
            print(f"{name}: child exited {proc.returncode}\n{err}", file=sys.stderr)
            return None
        with open(result_path) as fh:
            result = json.load(fh)
        result["setup_s"] = result["ready"] - launched
        self.setup_s.append(result["setup_s"])
        return result

    def pipeline_run(self, traced: bool = False) -> dict:
        name = f"run{len(self.runs)}"
        flags = ("--trace", os.path.join(self.tmp, name + ".spans.json")) if traced else ()
        result = self.launch(name, *flags) or {}
        run = {"traced": traced, "result": result, "problems": []}
        report_path = os.path.join(self.tmp, name, "report.json")
        if "code" not in result or not os.path.exists(report_path):
            run["problems"].append("no result or no report.json")
        else:
            with open(report_path) as fh:
                run["report_text"] = fh.read()
            report = json.loads(run["report_text"])
            run["report"] = report
            run["problems"] += check_report(self.workload, result["code"], report)
            run["B"] = b_values(report)
            run["report_bytes"] = sum(
                os.path.getsize(os.path.join(self.tmp, name, f))
                for f in os.listdir(os.path.join(self.tmp, name)))
            self.versions = result["versions"]
            if traced:
                self.check_traced(run, self.runs[0])
        for problem in run["problems"]:
            print(f"{name} FAILED check: {problem}", file=sys.stderr)
        self.runs.append(run)
        return run

    def check_traced(self, run: dict, untraced: dict) -> None:
        """A wrapper that missed a call path shows as a count that disagrees."""
        layers = run["result"]["layers"]
        report = run["report"]
        solves = report.get("solver_stats", {}).get("solves")
        if layers.get("laplace.solves") != solves:
            run["problems"].append(
                f"traced {layers.get('laplace.solves')} solves, report says {solves}")
        levels = len(report["config"]["h_levels"])
        if layers.get("cli.build_domain_calls") != levels:
            run["problems"].append(
                f"traced {layers.get('cli.build_domain_calls')} build_domain "
                f"calls for {levels} h levels")
        if "report_text" in untraced and (strip_timestamp(run["report_text"])
                                          != strip_timestamp(untraced["report_text"])):
            run["problems"].append("traced report.json differs from the untraced one")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not os.path.isfile(os.path.join("src", "trace_bounds", "__init__.py")):
        print("run from the root of a trace-bounds checkout: src/trace_bounds "
              "is missing", file=sys.stderr)
        return 2
    with open("BENCHMARK.json") as fh:
        bench_spec = json.load(fh)

    start = now()
    nproc = len(os.sched_getaffinity(0))
    env = dict(os.environ, PYTHONHASHSEED="0")
    env.update({var: str(nproc) for var in THREAD_VARS})
    results_dir = os.path.join(STATE_DIR, "results")
    os.makedirs(results_dir, exist_ok=True)
    tmp = tempfile.mkdtemp(dir=STATE_DIR)
    try:
        workload = WORKLOADS[args.workload]
        config_path = os.path.join(tmp, "run.cfg")
        with open(config_path, "w") as fh:
            fh.write(make_config(workload, args.seed))
        bench = Bench(workload, config_path, tmp, env, start + HARD_LIMIT_S)

        if not args.trace:
            for i in range(SETUP_PROBES):
                bench.launch(f"setup{i}", "--setup-only")
        # runs fill --seconds; with --trace 1 half of that, as the overhead
        # estimate needs fewer untraced runs. A run starts only if at least
        # half of it (judged by the last one) fits, so a slow workload ends
        # near --seconds instead of up to a whole run past it.
        measure_end = now() + args.seconds / (2 if args.trace else 1)
        while True:
            started = now()
            run = bench.pipeline_run()
            if ("run_s" not in run["result"]
                    or now() + 0.5 * (now() - started) >= measure_end):
                break
        untraced = list(bench.runs)
        if args.trace:
            traced = bench.pipeline_run(traced=True)

        run_s = [r["result"]["run_s"] for r in untraced if "run_s" in r["result"]]
        if not run_s:
            print("no run produced a timing", file=sys.stderr)
            return 1
        attempted = len(bench.runs)
        failed = sum(1 for r in bench.runs if r["problems"])
        if args.trace:
            layers = dict(traced["result"].get("layers", {}))
            layers["trace.overhead_s"] = (traced["result"].get("run_s", math.nan)
                                          - statistics.median(run_s))
            layers["cli.report_bytes"] = traced.get("report_bytes", 0)
            wanted = bench_spec["per_layer"]
            values = layers
        else:
            wanted = bench_spec["end_to_end"]
            values = {
                "run_s": statistics.median(run_s),
                "setup_s": statistics.median(bench.setup_s),
                "peak_rss_mb": statistics.median(
                    r["result"]["peak_rss_mb"] for r in untraced
                    if "peak_rss_mb" in r["result"]),
                "pass_frac": (attempted - failed) / attempted,
            }
        missing = [m["name"] for m in wanted
                   if not math.isfinite(values.get(m["name"], math.nan))]
        if missing:
            print(f"not measured: {missing}", file=sys.stderr)
            return 1
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                   for m in wanted}

        record = {
            "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "config": make_config(workload, args.seed),
            "environment": {"nproc": nproc, **bench.versions,
                            **{var: env[var] for var in THREAD_VARS}},
            "metrics": metrics,
            "setup_s": bench.setup_s,
            "runs": [{"traced": r["traced"], "problems": r["problems"],
                      "B": r.get("B"),
                      **{k: v for k, v in r["result"].items()
                         if k in ("code", "run_s", "peak_rss_mb", "setup_s",
                                  "levels", "layers")}}
                     for r in bench.runs],
        }
        if args.trace:
            with open(os.path.join(tmp, f"run{len(untraced)}.spans.json")) as fh:
                record["spans"] = json.load(fh)   # present: the traced run has layers
        record_path = os.path.join(
            results_dir, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
        with open(record_path, "w") as fh:
            json.dump(record, fh, indent=1)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    print(f"record: {record_path}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
