"""One timed pipeline run in a fresh process.

    python3 perfbench/child.py CONFIG OUTDIR RESULT [--setup-only] [--trace SPANS]

Imports ``trace_bounds`` from ``src/`` of the current directory, parses the
config and stamps the moment it is ready (CLOCK_MONOTONIC, which every process
on the machine shares, so the parent can subtract its launch time). Unless
``--setup-only``, it then runs ``cli.run_config`` and writes RESULT as JSON:
the exit code, the run's wall time, the process's peak RSS and library
versions. With ``--trace`` it first wraps the public functions the pipeline
calls (each under the name the pipeline calls it by), keeps one span per call
in memory, and at the end writes the spans to SPANS and per-layer metrics and
work counters into RESULT.

Every run is its own process because ``laplace.solver_stats``, each domain's
``_cache`` and ``ru_maxrss`` would otherwise carry over from run to run.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time


def now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


# span name -> per-layer metric that receives the span's self time
SELF_TIME_METRIC = {
    "cli.run_config": "cli.self_s",
    "cli.build_domain": "geometry.build_s",
    "cli.w11_battery_fields": "fields.battery_s",
    "cli.ld_battery_fields": "fields.battery_s",
    "laplace.gradient": "laplace.diffops_s",
    "laplace.divergence": "laplace.diffops_s",
    "laplace.tensor_divergence": "laplace.diffops_s",
    "laplace.extrapolate_to_boundary": "laplace.diffops_s",
    "sobolev_trace.harmonic_normal_field": "sobolev_trace.normal_field_self_s",
    "sobolev_trace.verify_trace_inequality": "sobolev_trace.verify_s",
    "ld_trace.ld_bounds": "ld_trace.ek_tensor_self_s",
    "ld_trace.harmonic_ek_tensor": "ld_trace.ek_tensor_self_s",
    "ld_trace.verify_ld_trace_inequality": "ld_trace.verify_s",
    "optimal_bc.worst_case_D": "optimal_bc.worst_case_D_s",
    "optimal_bc.sweep_theta": "optimal_bc.sweep_s",
    "matnorm.verify_equivalence_constants": "matnorm.verify_s",
}
TIME_METRICS = sorted(set(SELF_TIME_METRIC.values())
                      | {"laplace.first_solve_s", "laplace.solve_s"})


class Tracer:
    """Spans (name, start, end, parent) kept in memory; one thread only."""

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self.levels: dict[int, int] = {}   # id(domain) -> index of its h level
        self.level_counts: list[dict] = []

    def call(self, name: str, fn, *args, **kwargs):
        span = {"name": name, "parent": self._stack[-1] if self._stack else None}
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span["start"] = now()
        try:
            return fn(*args, **kwargs)
        finally:
            span["end"] = now()
            self._stack.pop()

    def wrap(self, module, attr: str, name: str) -> None:
        fn = getattr(module, attr)
        setattr(module, attr, lambda *a, **k: self.call(name, fn, *a, **k))

    def wrap_build_domain(self, cli) -> None:
        build = cli.build_domain

        def traced(spec, *args, **kwargs):
            domain = self.call("cli.build_domain", build, spec, *args, **kwargs)
            self.levels[id(domain)] = len(self.level_counts)
            self.level_counts.append({
                "h": domain.h,
                "geometry.n_interior": domain.n_interior,
                "geometry.n_boundary": domain.n_boundary,
                "geometry.grid_nodes": int(domain.phi.size),
                # N diagonal entries plus one per interior-to-interior arm
                "laplace.nnz": domain.n_interior
                + int((domain.arm_interior >= 0).sum()),
                "laplace.solves": 0,
            })
            return domain

        cli.build_domain = traced

    def wrap_solve(self, laplace) -> None:
        solve = laplace.solve_dirichlet

        def traced(domain, *args, **kwargs):
            counts = self.level_counts[self.levels[id(domain)]]
            # the operator and its LU are built lazily inside the first solve
            # on each domain: that span is the solver set-up
            first = counts["laplace.solves"] == 0
            counts["laplace.solves"] += 1
            span_index = len(self.spans)
            try:
                return self.call("laplace.solve_dirichlet", solve, domain,
                                 *args, **kwargs)
            finally:
                self.spans[span_index]["first"] = first

        laplace.solve_dirichlet = traced

    def install(self) -> None:
        from trace_bounds import (cli, laplace, ld_trace, matnorm, optimal_bc,
                                  sobolev_trace)
        self.wrap_build_domain(cli)
        self.wrap_solve(laplace)
        for module, prefix, names in (
            (cli, "cli", ("w11_battery_fields", "ld_battery_fields")),
            (laplace, "laplace", ("gradient", "divergence", "tensor_divergence",
                                  "extrapolate_to_boundary")),
            (sobolev_trace, "sobolev_trace", ("harmonic_normal_field",
                                              "verify_trace_inequality")),
            (ld_trace, "ld_trace", ("ld_bounds", "harmonic_ek_tensor",
                                    "verify_ld_trace_inequality")),
            (optimal_bc, "optimal_bc", ("worst_case_D", "sweep_theta")),
            (matnorm, "matnorm", ("verify_equivalence_constants",)),
        ):
            for attr in names:
                self.wrap(module, attr, f"{prefix}.{attr}")

    def layer_metrics(self) -> dict:
        """Self time per layer metric, and the work counters summed over levels."""
        child_time = [0.0] * len(self.spans)
        for span in self.spans:
            if span["parent"] is not None:
                child_time[span["parent"]] += span["end"] - span["start"]
        metrics = dict.fromkeys(TIME_METRICS, 0.0)
        for span, covered in zip(self.spans, child_time):
            self_s = span["end"] - span["start"] - covered
            name = span["name"]
            if name == "laplace.solve_dirichlet":
                key = "laplace.first_solve_s" if span["first"] else "laplace.solve_s"
            elif (name == "optimal_bc.sweep_theta" and span["parent"] is not None
                  and self.spans[span["parent"]]["name"] == "optimal_bc.worst_case_D"):
                key = "optimal_bc.worst_case_D_s"   # the sweep inside worst_case_D
            else:
                key = SELF_TIME_METRIC[name]
            metrics[key] += self_s

        def count(name):
            return sum(1 for s in self.spans if s["name"] == name)

        for key in ("geometry.n_interior", "geometry.n_boundary",
                    "geometry.grid_nodes", "laplace.nnz"):
            metrics[key] = sum(c[key] for c in self.level_counts)
        metrics["laplace.solves"] = count("laplace.solve_dirichlet")
        operators = sum(1 for s in self.spans if s.get("first"))
        metrics["laplace.rhs_per_operator"] = (
            metrics["laplace.solves"] / operators if operators else 0.0)
        metrics["optimal_bc.worst_case_D_calls"] = count("optimal_bc.worst_case_D")
        metrics["cli.build_domain_calls"] = count("cli.build_domain")
        return metrics


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("config")
    parser.add_argument("outdir")
    parser.add_argument("result")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace", metavar="SPANS")
    args = parser.parse_args()

    src = os.path.abspath("src")
    sys.path.insert(0, src)
    import trace_bounds as tb
    if not os.path.abspath(tb.__file__).startswith(src + os.sep):
        raise SystemExit(f"trace_bounds imported from {tb.__file__}, not {src}")
    config = tb.load_config(args.config)
    result = {"ready": now()}

    if not args.setup_only:
        import numpy
        import scipy
        tracer = Tracer() if args.trace else None
        if tracer:
            tracer.install()
            run = lambda: tracer.call("cli.run_config", tb.cli.run_config,
                                      config, outdir=args.outdir)
        else:
            run = lambda: tb.cli.run_config(config, outdir=args.outdir)
        start = now()
        code, _ = run()
        result.update(
            code=code,
            run_s=now() - start,
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            versions={"python": sys.version.split()[0],
                      "numpy": numpy.__version__, "scipy": scipy.__version__},
        )
        if tracer:
            metrics = tracer.layer_metrics()
            # each verify call samples config.samples matrices
            metrics["matnorm.matrices"] = config.samples * sum(
                1 for s in tracer.spans
                if s["name"] == "matnorm.verify_equivalence_constants")
            result.update(layers=metrics, levels=tracer.level_counts)
            with open(args.trace, "w") as fh:
                json.dump(tracer.spans, fh)

    with open(args.result, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
