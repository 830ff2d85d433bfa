import ast
import importlib
import inspect
import math
import pathlib
import pkgutil
import re
import sys

import pytest

import trace_bounds
from trace_bounds import cli, config, laplace

# the library modules: __main__ is the command-line entry script, with no
# public names
MODULES = ["trace_bounds"] + [f"trace_bounds.{m.name}"
                              for m in pkgutil.iter_modules(trace_bounds.__path__)
                              if m.name != "__main__"]

# functions no run calls that stay public: perfbench's tracer looks gradient up
# by name and wraps it (perfbench/child.py, Tracer.install)
NOT_RUN = {laplace.gradient}


README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def test_each_public_name_has_one_import_path():
    # every name is imported from its module, but for the two that
    # perfbench/child.py reads off the package
    assert trace_bounds.__all__ == ["load_config"]
    assert trace_bounds.cli is cli
    assert trace_bounds.load_config is config.load_config
    public = {attr for name in MODULES[1:] for attr in importlib.import_module(name).__all__}
    assert sorted(n for n in public - {"load_config"} if hasattr(trace_bounds, n)) == []


def test_readme_library_example(capsys):
    # the README block as written, run against the package's import paths
    section = README.read_text().split("## Library example", 1)[1]
    example = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(example, str(README), "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    assert abs(float(lines[0]) - 2.0) <= 1e-12
    assert float(lines[2].split()[0]) == 2.0 * math.sqrt(2.0)


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    assert module.__all__
    missing = [n for n in module.__all__ if not hasattr(module, n)]
    assert missing == []


def test_run_settings_have_no_library_default():
    # RunConfig owns every run setting: a library default would be a second
    # value that a call leaving the argument out silently reads
    owned = {"norm", "seed", "samples", "steps"}
    defaulted = []
    for name in MODULES:
        module = importlib.import_module(name)
        for attr in module.__all__:
            fn = getattr(module, attr)
            if inspect.isfunction(fn):
                defaulted += [f"{fn.__module__}.{fn.__qualname__}({p.name})"
                              for p in inspect.signature(fn).parameters.values()
                              if p.name in owned and p.default is not p.empty]
    assert sorted(defaulted) == []


def test_only_cli_and_load_config_open_files():
    # cli alone writes a run's outputs, and config.load_config reads the
    # config: every other module returns values and opens no file
    openers = set()
    for path in pathlib.Path(trace_bounds.__file__).parent.glob("*.py"):
        for top in ast.parse(path.read_text()).body:
            where = getattr(top, "name", "<module>")
            openers.update((path.stem, where) for node in ast.walk(top)
                           if isinstance(node, ast.Call)
                           and getattr(node.func, "id", getattr(node.func, "attr", None)) == "open")
    assert {opener for opener in openers if opener[0] != "cli"} == {("config", "load_config")}
    assert ("cli", "_write_csv") in openers


def test_every_public_function_runs_in_the_pipeline(tmp_path):
    # every task in 2D and 3D; a public function that neither run calls is
    # library surface that only tests run
    disk = tmp_path / "disk.cfg"
    disk.write_text("kind = disk\nradius = 1.0\nh = 0.1\nsamples = 100\nsteps = 5\n"
                    "tasks = sobolev, ld, battery, matnorm-verify, optimal-bc-sweep\n")
    ball = tmp_path / "ball.cfg"
    ball.write_text("kind = ball\nradius = 1.0\nh = 0.1\nsteps = 5\n"
                    "tasks = sobolev, ld, battery, optimal-bc-sweep\n")
    runs = [["run", str(disk), "--output", str(tmp_path / "disk")],
            ["run", str(ball), "--output", str(tmp_path / "ball")]]
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
