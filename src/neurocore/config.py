"""Run configuration: a sectioned key-value text file.

``KEYS`` maps each kind of section, ``[simulation]``, ``[population NAME]``,
``[generator NAME]`` and ``[connection PRE -> POST]``, to its keys with their
casts and defaults; every section is read through it, and README's "Config
file" table lists it.  The shipped default (``data/bg_default.cfg``) is the
one definition of the basal ganglia circuit.  :class:`RunConfig` is the one
type for run settings and validates itself on construction, so a config read
from a file and one changed with ``dataclasses.replace`` are checked alike.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import MISSING, dataclass, fields
from importlib import resources
from pathlib import Path

from .network import BACKENDS, MAX_IDS, ConfigError, ConnectionSpec, PopulationSpec, config_errors
from .neuron import DT_MS, NeuronParams
from .synapse import PoissonSource, require_key


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
        if self.record is not None:
            if not self.record:
                raise ConfigError("record must name at least one population")
            known = {*self.populations, *(g.name for g in self.generators)}
            if unknown := [name for name in self.record if name not in known]:
                raise ConfigError(f"record filter names unknown population {unknown[0]!r}")

    @property
    def recorded(self) -> dict[str, int]:
        """Each recorded population's size, in ``record`` order: every
        ``[population]`` by default, a generator only when named."""
        sizes = {spec.name: spec.size for spec in self.population_specs()}
        return {name: sizes[name] for name in self.record or self.populations}

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
    return resources.files("neurocore").joinpath("data/bg_default.cfg").read_text()


def load_default_config() -> RunConfig:
    return parse_config_text(default_config_text(), source="<default>")


def read_text(path: str | Path, error: type[Exception] = ConfigError) -> str:
    """The UTF-8 text of an input file; one that cannot be read raises
    ``error`` naming the file, in one line."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise error(f"{path}: {exc.strerror or exc}") from None
    except UnicodeDecodeError as exc:
        raise error(f"{path}: not UTF-8 text ({exc.reason})") from None


def parse_config(path: str | Path) -> RunConfig:
    return parse_config_text(read_text(path), source=str(path))


def _names(value: str) -> tuple[str, ...]:
    return tuple(name.strip() for name in value.split(",") if name.strip())


REQUIRED = MISSING
# each key's (cast, default or REQUIRED); a float must be finite, a size an id count
KEYS = {
    "simulation": {
        "duration_ms": (float, RunConfig.duration_ms),
        "settle_ms": (float, RunConfig.settle_ms),
        "seed": (int, RunConfig.seed),
        "backend": (str, RunConfig.backend),
        "out": (str, RunConfig.out_dir),
        "record": (_names, RunConfig.record),
    },
    "population": {
        "size": (int, REQUIRED),
        **{f.name: (float, f.default) for f in fields(NeuronParams)},
    },
    "generator": {
        "targets": (_names, REQUIRED),
        "size": (int, REQUIRED),
        **dict.fromkeys(("rate_hz", "weight", "prob"), (float, REQUIRED)),
    },
    "connection": dict.fromkeys(("weight", "prob"), (float, REQUIRED)),
}


def _values(items: dict, keys: dict, where: str) -> dict:
    """Every key of ``keys``, cast from ``items`` or defaulted; ``where``
    (``FILE: [section]``) starts each rejection."""
    for key in items:
        if key not in keys:
            raise ConfigError(f"{where} has unknown key {key!r}")
    values = {}
    for key, (cast, default) in keys.items():
        text = items.get(key)
        if text is None and default is REQUIRED:
            raise ConfigError(f"{where} is missing {key!r}")
        try:
            value = values[key] = default if text is None else cast(text)
        except ValueError as exc:
            raise ConfigError(f"{where} {key} = {text!r} is not a number") from exc
        if cast is float and not math.isfinite(value):
            raise ConfigError(f"{where} {key} = {text!r} is not finite")
        if key == "size" and not 0 < value <= MAX_IDS:
            raise ConfigError(f"{where} size {value} outside [1, {MAX_IDS}]")
    return values


def parse_config_text(text: str, source: str = "<config>") -> RunConfig:
    # "" names no section a header can open, so [DEFAULT] is an ordinary, unknown one
    parser = configparser.ConfigParser(interpolation=None, default_section="")
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
        kind, space, name = section.partition(" ")
        if kind not in KEYS or (kind == "simulation") == bool(space):
            raise ConfigError(f"{source}: unknown section [{section}]")
        name = name.strip()
        # messages name a population or generator as it is stored: name stripped
        label = f"{kind} {name}" if kind in ("population", "generator") else section
        where = f"{source}: [{label}]"
        pre, arrow, post = name.partition("->")
        if kind == "connection" and not arrow:
            raise ConfigError(f"{where} must be named 'connection PRE -> POST'")
        values = _values(dict(parser.items(section)), KEYS[kind], where)
        if kind == "generator" and not values["targets"]:
            raise ConfigError(f"{where} has an empty target list")
        with config_errors(f"{where} "):
            if kind == "simulation":
                values["out_dir"] = values.pop("out")
                sim = values
            elif kind == "population":
                populations[name] = values.pop("size"), NeuronParams(**values)
            elif kind == "connection":
                connections.append(ConnectionSpec(pre.strip(), post.strip(), **values))
            else:
                generators.append(GeneratorSpec(name, **values))
                PoissonSource(name, values["rate_hz"], values["size"])
                ConnectionSpec(name, values["targets"][0], values["weight"], values["prob"])

    if not populations:
        raise ConfigError(f"{source}: no [population ...] sections")
    with config_errors(f"{source}: [simulation] "):
        config = RunConfig(
            populations=populations, generators=generators, connections=connections, **sim
        )
    _check_references(config, source)
    return config


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
