"""Run configuration: a flat key = value text format.

Example::

    # unit disk, two grid levels
    kind = disk
    radius = 1.0
    h = 0.04, 0.02
    norm = vec2
    tasks = sobolev, battery
    output = out
    seed = 1234

Keys: ``kind`` (disk|ball|ellipse|ellipsoid|annulus|levelset) with its shape
parameters (radius | a,b[,c] | r_in,r_out | expression,dim,bbox), ``h``
(descending list), ``norm`` (vec2|vecInf, the norms with a worst case D),
``tasks`` (comma list of sobolev, ld, battery, matnorm-verify,
optimal-bc-sweep, each at most once; they run in that order, ``TASKS``),
``output`` (directory), ``seed`` (int >= 0), ``samples`` (matnorm sample
count), ``steps`` (theta sweep). ``kind``, ``h`` and a canonical kind's
sizes are required; the defaults are ``RunConfig``'s, and a level set's
``DomainSpec.levelset``'s. They are required whatever the tasks: a config
that lists only the domain-free tasks builds no level, optimal-bc-sweep
reads only the domain's dimension, and matnorm-verify reads nothing of the
domain.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from .geometry import SHAPES, DomainSpec
from .optimal_bc import NORMS

__all__ = ["ConfigError", "RunConfig", "parse_config", "load_config"]

# the order the tasks run in, whatever order a config lists them in
TASKS = ("sobolev", "ld", "battery", "matnorm-verify", "optimal-bc-sweep")


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class RunConfig:
    domain: DomainSpec
    h_levels: tuple[float, ...]
    norm: str = "vec2"
    tasks: tuple[str, ...] = ("sobolev",)
    output: str = "out"
    seed: int = 20240401
    samples: int = 10000
    steps: int = 91

    def __post_init__(self):
        if not self.tasks:
            raise ConfigError("at least one task is required")
        for i, t in enumerate(self.tasks):
            if t not in TASKS:
                raise ConfigError(f"unknown task {t!r} (choose from {TASKS})")
            if t in self.tasks[:i]:
                raise ConfigError(f"duplicate task {t!r}")
        if not self.h_levels:
            raise ConfigError("at least one grid level h is required")
        if any(b >= a for a, b in zip(self.h_levels, self.h_levels[1:])):
            raise ConfigError("h levels must be strictly descending")
        if not all(math.isfinite(h) and h > 0 for h in self.h_levels):
            raise ConfigError("h levels must be positive and finite")
        if NORMS.get(self.norm, ((), None))[1] is None:
            with_D = [norm for norm, (_, D) in NORMS.items() if D is not None]
            raise ConfigError(f"norm must be one of {with_D}, not {self.norm!r}")
        if self.samples < 1:
            raise ConfigError("samples must be at least 1")
        if self.seed < 0:
            raise ConfigError(f"seed must be non-negative, not {self.seed}")
        # one point samples only theta = 0, and the vec2 worst case is
        # attained at theta = pi/2
        if self.steps < 2:
            raise ConfigError("steps must be at least 2, so that the sweep "
                              f"samples theta = pi/2, not {self.steps}")

    def domain_at(self, h: float) -> DomainSpec:
        return replace(self.domain, h=h)


def _parse_pairs(text: str) -> dict[str, str]:
    pairs: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, value = line.split("=", 1)
        key = key.strip().lower()
        if key in pairs:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        pairs[key] = value.strip()
    return pairs


def _floats(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(v) for v in text.split(",") if v.strip())
    except ValueError as exc:
        raise ConfigError(f"expected a comma list of numbers, got {text!r}") from exc


def _names(text: str) -> tuple[str, ...]:
    return tuple(v.strip() for v in text.split(",") if v.strip())


def _given(pairs: dict[str, str], **parsers) -> dict:
    """The keys of ``parsers`` that the config gives, parsed and taken out of pairs."""
    return {key: parse(pairs.pop(key)) for key, parse in parsers.items() if key in pairs}


def parse_config(text: str) -> RunConfig:
    pairs = _parse_pairs(text)
    kind = pairs.pop("kind", None)
    if kind is None:
        raise ConfigError("missing required key 'kind'")
    h_levels = _floats(pairs.pop("h", ""))
    if not h_levels:
        raise ConfigError("missing required key 'h'")

    # float/int parse errors and GeometryError are ValueErrors too
    try:
        if kind not in SHAPES:
            raise ConfigError(f"unknown kind {kind!r}")
        if kind == "levelset":
            domain = DomainSpec.levelset(
                pairs.pop("expression", ""), h_levels[0],
                **_given(pairs, dim=int, bbox=_floats))
        else:
            dim, keys, _ = SHAPES[kind]
            missing = [key for key in keys if not pairs.get(key)]
            if missing:
                raise ConfigError(f"missing required key {missing[0]!r}")
            sizes = tuple((key, float(pairs.pop(key))) for key in keys)
            domain = DomainSpec(kind=kind, h=h_levels[0], dim=dim, sizes=sizes)
        config = RunConfig(domain=domain, h_levels=h_levels, **_given(
            pairs, norm=str, tasks=_names, output=str, seed=int, samples=int, steps=int))
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    if pairs:
        raise ConfigError(f"unknown config keys: {sorted(pairs)}")
    return config


def load_config(path) -> RunConfig:
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return parse_config(text)
