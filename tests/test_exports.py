import importlib
import inspect
import pkgutil
import sys

import pytest

import trace_bounds
from trace_bounds import cli, laplace

MODULES = ["trace_bounds"] + [f"trace_bounds.{m.name}"
                              for m in pkgutil.iter_modules(trace_bounds.__path__)]

# functions no run calls that stay public: perfbench's tracer looks gradient up
# by name and wraps it (perfbench/child.py, Tracer.install)
NOT_RUN = {laplace.gradient}


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    assert module.__all__
    missing = [n for n in module.__all__ if not hasattr(module, n)]
    assert missing == []


def test_every_public_function_runs_in_the_pipeline(tmp_path):
    # every task in 2D and 3D, and both subcommands; a public function that
    # none of them calls is library surface that only tests run
    disk = tmp_path / "disk.cfg"
    disk.write_text("kind = disk\nradius = 1.0\nh = 0.1\nsamples = 100\nsteps = 5\n"
                    "tasks = sobolev, ld, battery, matnorm-verify, optimal-bc-sweep\n")
    ball = tmp_path / "ball.cfg"
    ball.write_text("kind = ball\nradius = 1.0\nh = 0.1\nsteps = 5\n"
                    "tasks = sobolev, ld, battery, optimal-bc-sweep\n")
    runs = [["run", str(disk), "--output", str(tmp_path / "disk")],
            ["run", str(ball), "--output", str(tmp_path / "ball")],
            ["verify-matnorm", "--dim", "2", "--samples", "100",
             "--output", str(tmp_path / "m.csv")],
            ["sweep-theta", "--norm", "op2", "--steps", "5", "--brute-force"]]
    called = set()
    sys.setprofile(lambda frame, event, arg: event == "call" and called.add(frame.f_code))
    try:
        codes = [cli.main(argv) for argv in runs]
    finally:
        sys.setprofile(None)
    assert codes == [cli.EXIT_OK] * len(runs)

    uncalled = set()
    for name in MODULES:
        module = importlib.import_module(name)
        for attr in module.__all__:
            fn = getattr(module, attr)
            if inspect.isfunction(fn) and fn not in NOT_RUN and fn.__code__ not in called:
                uncalled.add(f"{fn.__module__}.{fn.__qualname__}")
    assert sorted(uncalled) == []
