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
(descending list), ``norm`` (vec2|vecInf), ``tasks`` (comma list of sobolev,
ld, matnorm-verify, optimal-bc-sweep, battery), ``output`` (directory),
``seed`` (int), ``samples`` (matnorm sample count), ``steps`` (theta sweep).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from .geometry import SHAPES, DomainSpec

__all__ = ["ConfigError", "RunConfig", "parse_config", "load_config"]

TASKS = ("sobolev", "ld", "matnorm-verify", "optimal-bc-sweep", "battery")


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
        for t in self.tasks:
            if t not in TASKS:
                raise ConfigError(f"unknown task {t!r} (choose from {TASKS})")
        if not self.h_levels:
            raise ConfigError("at least one grid level h is required")
        if any(b >= a for a, b in zip(self.h_levels, self.h_levels[1:])):
            raise ConfigError("h levels must be strictly descending")
        if not all(math.isfinite(h) and h > 0 for h in self.h_levels):
            raise ConfigError("h levels must be positive and finite")
        if self.norm not in ("vec2", "vecInf"):
            raise ConfigError(f"norm must be vec2 or vecInf, not {self.norm!r}")
        if self.samples < 1 or self.steps < 1:
            raise ConfigError("samples and steps must be at least 1")

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


def parse_config(text: str) -> RunConfig:
    pairs = _parse_pairs(text)

    def take(key, default=None):
        return pairs.pop(key, default)

    kind = take("kind")
    if kind is None:
        raise ConfigError("missing required key 'kind'")
    h_levels = _floats(take("h", ""))
    if not h_levels:
        raise ConfigError("missing required key 'h'")

    # float/int parse errors and GeometryError are ValueErrors too
    try:
        if kind not in SHAPES:
            raise ConfigError(f"unknown kind {kind!r}")
        dim, keys, _ = SHAPES[kind]
        spec_kwargs = dict(kind=kind, h=h_levels[0], dim=dim)
        if kind == "levelset":
            bbox = _floats(take("bbox", "-2, 2"))
            if len(bbox) != 2:
                raise ConfigError("bbox must be 'lo, hi'")
            spec_kwargs.update(expression=take("expression", ""),
                               dim=int(take("dim", "2")), bbox=bbox)
        else:
            spec_kwargs.update((key, float(take(key, 0) or 0)) for key in keys)

        tasks = tuple(t.strip() for t in take("tasks", "sobolev").split(",") if t.strip())
        config = RunConfig(
            domain=DomainSpec(**spec_kwargs),
            h_levels=h_levels,
            norm=take("norm", "vec2"),
            tasks=tasks,
            output=take("output", "out"),
            seed=int(take("seed", "20240401")),
            samples=int(take("samples", "10000")),
            steps=int(take("steps", "91")),
        )
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
