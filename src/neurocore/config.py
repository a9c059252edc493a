"""Run configuration: a sectioned key-value text file.

Sections:

    [simulation]              duration, seed, backend, analysis window ...
    [population <name>]       size plus the neuron parameters
    [generator <name>]        Poisson source: size, rate, targets, weight, prob
    [connection <pre> -> <post>]   weight and connection probability

The shipped default (``data/bg_default.cfg``) is the one definition of the
basal ganglia circuit.  :class:`RunConfig` is the one type for run settings
and validates itself on construction, so a config read from a file and one
changed with ``dataclasses.replace`` are checked alike.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

from .network import BACKENDS, MAX_IDS, ConfigError, ConnectionSpec, PopulationSpec, config_errors
from .neuron import DT_MS, NeuronParams
from .synapse import PoissonSource, require_key

DEFAULT_CONFIG_RESOURCE = "bg_default.cfg"


@dataclass(frozen=True)
class GeneratorSpec:
    name: str
    size: int
    rate_hz: float
    targets: tuple[str, ...]
    weight: float
    prob: float


@dataclass
class RunConfig:
    populations: dict[str, tuple[int, NeuronParams]]
    generators: list[GeneratorSpec]
    connections: list[ConnectionSpec]
    duration_ms: float = 1000.0
    settle_ms: float = 200.0
    seed: int = 1
    backend: str = "fixed"
    record: tuple[str, ...] | None = None
    out_dir: str = "out"

    def __post_init__(self) -> None:
        check_duration(self.duration_ms)
        if not 0 <= self.settle_ms < self.duration_ms:
            raise ConfigError(
                f"settle_ms must satisfy 0 <= settle_ms < duration_ms "
                f"({self.duration_ms:g}), got {self.settle_ms:g}"
            )
        with config_errors():
            require_key("seed", self.seed)
        if self.backend not in BACKENDS:
            raise ConfigError(f"backend must be {'|'.join(BACKENDS)}, got {self.backend!r}")

    @property
    def steps(self) -> int:
        return round(self.duration_ms / DT_MS)

    def population_specs(self) -> list[PopulationSpec]:
        specs = [
            PopulationSpec(name=name, size=size, params=params)
            for name, (size, params) in self.populations.items()
        ]
        specs.extend(
            PopulationSpec(name=g.name, size=g.size, rate_hz=g.rate_hz)
            for g in self.generators
        )
        return specs

    def connection_specs(self) -> list[ConnectionSpec]:
        conns = list(self.connections)
        for g in self.generators:
            conns.extend(
                ConnectionSpec(pre=g.name, post=target, weight=g.weight, prob=g.prob)
                for target in g.targets
            )
        return conns


def check_duration(duration_ms: float) -> None:
    """A simulated duration must be finite and last at least one timestep
    once rounded to whole steps, as every run rounds it."""
    steps = duration_ms / DT_MS
    if not (math.isfinite(steps) and round(steps) > 0):
        raise ConfigError(
            f"duration_ms must be finite and round to at least one {DT_MS:g} ms "
            f"timestep, got {duration_ms:g}"
        )


def default_config_text() -> str:
    return (
        resources.files("neurocore").joinpath(f"data/{DEFAULT_CONFIG_RESOURCE}").read_text()
    )


def load_default_config() -> RunConfig:
    return parse_config_text(default_config_text(), source="<default>")


def parse_config(path: str | Path) -> RunConfig:
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"{path}: {exc.strerror or exc}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text ({exc.reason})") from None
    return parse_config_text(text, source=str(path))


def parse_config_text(text: str, source: str = "<config>") -> RunConfig:
    parser = configparser.ConfigParser(interpolation=None)
    parser.optionxform = str
    try:
        parser.read_string(text, source=source)
    except configparser.ParsingError as exc:  # its message spans lines
        # the first line rejected: one before any section, or one without '='
        lineno = exc.lineno if hasattr(exc, "lineno") else exc.errors[0][0]
        line = text.split("\n")[lineno - 1].strip()
        message = f"{line!r} is not 'key = value' in a [section]"
        raise ConfigError(f"{source}: line {lineno}: {message}") from exc
    except configparser.Error as exc:
        raise ConfigError(str(exc)) from exc

    populations: dict[str, tuple[int, NeuronParams]] = {}
    generators: list[GeneratorSpec] = []
    connections: list[ConnectionSpec] = []
    sim: dict = {}

    for section in parser.sections():
        items = dict(parser.items(section))
        if section == "simulation":
            sim = _parse_simulation(items, source)
        elif section.startswith("population "):
            name = section[len("population "):].strip()
            populations[name] = _parse_population(name, items, source)
        elif section.startswith("generator "):
            name = section[len("generator "):].strip()
            generators.append(_parse_generator(name, items, source))
        elif section.startswith("connection "):
            connections.append(_parse_connection(section, items, source))
        else:
            raise ConfigError(f"{source}: unknown section [{section}]")

    if not populations:
        raise ConfigError(f"{source}: no [population ...] sections")
    with config_errors(f"{source}: [simulation] "):
        config = RunConfig(
            populations=populations, generators=generators, connections=connections, **sim
        )
    _check_references(config, source)
    return config


def _get(items: dict, key: str, section: str, source: str) -> str:
    if key not in items:
        raise ConfigError(f"{source}: [{section}] is missing {key!r}")
    return items[key]


def _check_keys(items: dict, known, section: str, source: str) -> None:
    for key in items:
        if key not in known:
            raise ConfigError(f"{source}: [{section}] has unknown key {key!r}")


def _number(items, key, section, source, cast=float):
    value = _get(items, key, section, source)
    try:
        number = cast(value)
    except ValueError as exc:
        raise ConfigError(f"{source}: [{section}] {key} = {value!r} is not a number") from exc
    if cast is float and not math.isfinite(number):
        raise ConfigError(f"{source}: [{section}] {key} = {value!r} is not finite")
    return number


def _size(items, section, source) -> int:
    if not 0 < (size := _number(items, "size", section, source, int)) <= MAX_IDS:
        raise ConfigError(f"{source}: [{section}] size {size} outside [1, {MAX_IDS}]")
    return size


def _parse_simulation(items: dict, source: str) -> dict:
    numbers = {"duration_ms": float, "settle_ms": float, "seed": int}
    _check_keys(items, (*numbers, "backend", "out", "record"), "simulation", source)
    sim = {key: _number(items, key, "simulation", source, cast)
           for key, cast in numbers.items() if key in items}
    if "backend" in items:
        sim["backend"] = items["backend"].strip()
    if "out" in items:
        sim["out_dir"] = items["out"].strip()
    if "record" in items:
        sim["record"] = tuple(v.strip() for v in items["record"].split(",") if v.strip())
    return sim


def _parse_population(name: str, items: dict, source: str) -> tuple[int, NeuronParams]:
    section = f"population {name}"
    _check_keys(items, ("size", "a", "b", "c", "d", "i_const", "beta", "v_peak"), section, source)
    size = _size(items, section, source)
    kwargs = {key: _number(items, key, section, source) for key in ("a", "b", "c", "d")}
    kwargs["i_const"] = _number(items, "i_const", section, source) if "i_const" in items else 0.0
    kwargs["beta"] = _number(items, "beta", section, source) if "beta" in items else 0.0
    if "v_peak" in items:
        kwargs["v_peak"] = _number(items, "v_peak", section, source)
    with config_errors(f"{source}: [{section}] "):
        params = NeuronParams(**kwargs)
    return size, params


def _parse_generator(name: str, items: dict, source: str) -> GeneratorSpec:
    section = f"generator {name}"
    _check_keys(items, ("size", "rate_hz", "targets", "weight", "prob"), section, source)
    targets = tuple(
        t.strip() for t in _get(items, "targets", section, source).split(",") if t.strip()
    )
    if not targets:
        raise ConfigError(f"{source}: [{section}] has an empty target list")
    generator = GeneratorSpec(
        name=name,
        size=_size(items, section, source),
        rate_hz=_number(items, "rate_hz", section, source),
        targets=targets,
        weight=_number(items, "weight", section, source),
        prob=_number(items, "prob", section, source),
    )
    with config_errors(f"{source}: [{section}] "):
        PoissonSource(name, generator.rate_hz, generator.size)
        ConnectionSpec(name, targets[0], generator.weight, generator.prob)
    return generator


def _parse_connection(section: str, items: dict, source: str) -> ConnectionSpec:
    route = section[len("connection "):]
    if "->" not in route:
        raise ConfigError(f"{source}: [{section}] must be named 'connection PRE -> POST'")
    pre, _, post = route.partition("->")
    _check_keys(items, ("weight", "prob"), section, source)
    weight = _number(items, "weight", section, source)
    prob = _number(items, "prob", section, source)
    with config_errors(f"{source}: [{section}] "):
        return ConnectionSpec(pre=pre.strip(), post=post.strip(), weight=weight, prob=prob)


def _check_references(config: RunConfig, source: str) -> None:
    known = set(config.populations) | {g.name for g in config.generators}
    for conn in config.connections:
        for endpoint in (conn.pre, conn.post):
            if endpoint not in known:
                raise ConfigError(
                    f"{source}: connection {conn.pre} -> {conn.post} references "
                    f"unknown population {endpoint!r}"
                )
    for g in config.generators:
        for target in g.targets:
            if target not in config.populations:
                raise ConfigError(
                    f"{source}: generator {g.name} targets unknown population {target!r}"
                )
    if config.record:
        for name in config.record:
            if name not in known:
                raise ConfigError(f"{source}: record filter names unknown population {name!r}")
