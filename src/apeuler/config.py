"""Experiment configuration: a flat key=value text format, defaults,
validation, canonical rendering, and a content hash for output provenance.

The format is one ``key = value`` assignment per line; ``#`` starts a
comment and blank lines are ignored.  List-valued keys take comma-separated
entries.  Unknown keys and malformed values are rejected with the offending
line number, so a stale config fails loudly instead of silently running
with defaults.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, fields, replace
from typing import get_type_hints

from .compressible import CompConfig, SchemeConfig
from .incompressible import IncompConfig

__all__ = [
    "ConfigError",
    "ExperimentConfig",
    "MODES",
    "value_reads_back",
    "parse_config_text",
    "load_config",
    "render_config",
    "config_hash",
    "eps_tag",
    "comp_config",
    "incomp_config",
]

MODES = ("compressible", "incompressible", "convergence_study")


class ConfigError(ValueError):
    """Raised for unparseable files and violated config invariants."""


def eps_tag(eps: float) -> str:
    """An eps value in output paths and run labels: six significant digits."""
    return f"{eps:g}"


def value_reads_back(text: str) -> bool:
    """Whether ``text`` parses back unchanged as a config value: no ``#``
    (a comment), no line break (``str.splitlines``), no surrounding space."""
    return ("#" not in text and "".join(text.splitlines()) == text
            and text == text.strip())


@dataclass(frozen=True)
class ExperimentConfig:
    """What defines a study, plus where it is written and on how many
    processes.  How a run is stepped is fixed by the schemes: the
    stabilization margin and the time-step fraction are
    ``compressible.ETA_MARGIN`` and ``CFL_FRACTION``, and each run's step
    cap is its config's default ``dt_max = t_final / 50``."""

    mode: str = "compressible"
    grids: tuple[int, ...] = (32, 64, 128)
    eps: tuple[float, ...] = (1.0, 1e-1, 1e-2, 1e-3, 1e-4)
    gamma: float = CompConfig.gamma
    t_final: float = SchemeConfig.t_final
    ref_grid: int = 512
    output_count: int = 10
    outdir: str = "out"
    workers: int = 1

    def __post_init__(self) -> None:
        if self.mode not in MODES:
            raise ConfigError(
                f"mode must be one of {', '.join(MODES)}; got {self.mode!r}")
        if not self.grids:
            raise ConfigError("grids must be nonempty")
        g0 = self.grids[0]
        for g in self.grids:
            if g < 2:
                raise ConfigError(f"grid sizes must be at least 2, got {g}")
            ratio, rem = divmod(g, g0)
            if rem or ratio & (ratio - 1):
                raise ConfigError(
                    f"grid {g} is not a power-of-two multiple of {g0}")
        if list(self.grids) != sorted(set(self.grids)):
            raise ConfigError("grids must be strictly increasing")
        ratio, rem = divmod(self.ref_grid, g0)
        if self.ref_grid < self.grids[-1] or rem or ratio & (ratio - 1):
            raise ConfigError(
                f"ref_grid {self.ref_grid} must be a power-of-two multiple "
                f"of {g0}, at least {self.grids[-1]}")
        if not self.eps:
            raise ConfigError("eps list must be nonempty")
        tags = [eps_tag(eps) for eps in self.eps]
        if len(set(tags)) < len(tags):
            raise ConfigError(f"eps entries must differ in six significant "
                              f"digits, their output tags: {', '.join(tags)}")
        if self.output_count < 2:
            raise ConfigError("output_count must be at least 2")
        if self.workers < 1:
            raise ConfigError("workers must be at least 1")
        if not value_reads_back(self.outdir):
            raise ConfigError(f"outdir must hold no '#', line break or "
                              f"surrounding whitespace; got {self.outdir!r}")
        # gamma, each eps and t_final are checked by the per-run configs
        # themselves
        try:
            for eps in self.eps:
                comp_config(self, eps)
            incomp_config(self)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None


#: value parser per field type; list values are comma-separated
_TYPE_PARSERS = {
    int: int,
    float: float,
    str: str,
    tuple[int, ...]: lambda text: tuple(int(tok) for tok in text.split(",")),
    tuple[float, ...]: lambda text: tuple(float(tok) for tok in text.split(",")),
}

_PARSERS = {name: _TYPE_PARSERS[hint]
            for name, hint in get_type_hints(ExperimentConfig).items()}


def parse_config_text(text: str, base: ExperimentConfig | None = None,
                      source: str = "<config>") -> ExperimentConfig:
    """Parse assignments on top of ``base`` (package defaults when omitted)."""
    updates: dict[str, object] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(
                f"{source}:{lineno}: expected 'key = value', got {raw.strip()!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        parser = _PARSERS.get(key)
        if parser is None:
            raise ConfigError(f"{source}:{lineno}: unknown key {key!r}")
        try:
            updates[key] = parser(value)
        except ValueError as exc:
            raise ConfigError(
                f"{source}:{lineno}: bad value for {key!r}: {exc}") from None
    cfg = base if base is not None else ExperimentConfig()
    try:
        return replace(cfg, **updates)
    except ConfigError as exc:
        raise ConfigError(f"{source}: {exc}") from None


def load_config(path) -> ExperimentConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    return parse_config_text(text, source=str(path))


def _render_value(value) -> str:
    if isinstance(value, tuple):
        return ",".join(_render_value(v) for v in value)
    if isinstance(value, float):
        return repr(value)
    return str(value)


def render_config(cfg: ExperimentConfig) -> str:
    """Canonical textual form: every field, declaration order, one per line.
    Parsing the rendering reproduces the config exactly."""
    lines = [f"{f.name} = {_render_value(getattr(cfg, f.name))}"
             for f in fields(cfg)]
    return "\n".join(lines) + "\n"


def config_hash(cfg: ExperimentConfig) -> str:
    """Hex digest of the fields that can change a result, stamped into every
    output file: ``outdir`` and ``workers`` are left out, so the same study
    written elsewhere or on more processes gives byte-identical files."""
    text = "".join(line for line in render_config(cfg).splitlines(True)
                   if line.split(" = ", 1)[0] not in ("outdir", "workers"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def comp_config(cfg: ExperimentConfig, eps: float) -> CompConfig:
    return CompConfig(t_final=cfg.t_final, gamma=cfg.gamma, eps=eps)


def incomp_config(cfg: ExperimentConfig) -> IncompConfig:
    return IncompConfig(t_final=cfg.t_final)
