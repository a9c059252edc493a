"""Population specs, connection building, and the one simulation engine.

All Izhikevich neurons share one struct-of-arrays state, populations
concatenated in spec order and named by slices.  All synapses share one CSR
table: a row per pre id, ids in event order (sources, then neurons), each
row in connection order.  Each step runs strictly ordered phases:

  1. deliver the previous step's spikes: join their rows' slot ranges, cut
     once at the build, and sum the weights per neuron with one
     ``np.bincount``; a step with nothing pending skips all of it and passes
     a kept zero input instead,
  2. Poisson sources draw this step's spikes, each served from a block of
     steps its one kept generator draws at a time,
  3. one state update advances every neuron (synaptic decay, dopamine
     modulation, membrane update, threshold/reset); on the fixed backend it
     runs the array form of the schedule compiled, once at import, for the
     input ranges the build enforces,
  4. one ``nonzero`` over the whole spike mask, cut at the population
     bounds when any neuron spiked, gives the (population, indices) events,
     which are recorded and delivered on the next step.

Spikes therefore take exactly one step of axonal delay at dt = 1/8 ms.
Integer sums do not depend on order and float sums follow table order, so a
(config, seed) pair always produces the identical spike record.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from . import synapse as syn
from .fxp import DA_FMT, DDOP_FMT, WEIGHT_FMT, encode_checked, quantize_raw, require_finite
from .neuron import (
    CompartmentFields,
    NeuronParams,
    SimulationError,
    encode_neuron,
    float_update,
    step_fixed_batch,
)
from .schedule import (
    ARRAYS,
    FIELD_LAYOUT,
    INPUTS,
    compile_schedule,
    izhikevich_schedule,
)

BACKENDS = ("fixed", "float")
_NO_IDS = np.empty(0, dtype=np.int64)
_DRAW_BLOCK = 1 << 20  # random numbers one connection draws at a time
# The ranges of the schedule inputs every step passes: the one decay raw,
# beta as ``neuron.encode_neuron`` encodes it, DA from ``quantize_raw`` and
# v_peak in v's field.  The array form compiled for them keeps only the
# clips that can bind here.
STEP_INPUTS = INPUTS | {"@alpha": syn.alpha_fixed().raw, "@beta": DDOP_FMT}
step_fields_network = compile_schedule(izhikevich_schedule(), ARRAYS, inputs=STEP_INPUTS)


class ConfigError(ValueError):
    """Invalid network configuration."""


@contextmanager
def config_errors(prefix: str = ""):
    """Report a configured value that is rejected, one that is out of range,
    not finite or that its fixed-point field cannot hold, as a
    ``ConfigError`` that starts with ``prefix``."""
    try:
        yield
    except ValueError as exc:
        raise ConfigError(f"{prefix}{exc}") from exc


@dataclass(frozen=True)
class PopulationSpec:
    """A named neuron group: Izhikevich dynamics or a Poisson source."""

    name: str
    size: int
    params: NeuronParams | None = None
    rate_hz: float | None = None

    def __post_init__(self) -> None:
        if self.size <= 0:
            raise ConfigError(f"population {self.name!r}: size must be positive")
        if (self.params is None) == (self.rate_hz is None):
            raise ConfigError(
                f"population {self.name!r}: exactly one of params/rate_hz required"
            )

    @property
    def kind(self) -> str:
        return "izhikevich" if self.params is not None else "poisson"


@dataclass(frozen=True)
class ConnectionSpec:
    pre: str
    post: str
    weight: float
    prob: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.prob <= 1.0:
            raise ConfigError(
                f"connection {self.pre} -> {self.post}: prob {self.prob} outside [0, 1]"
            )
        if not math.isfinite(self.weight):
            raise ConfigError(
                f"connection {self.pre} -> {self.post}: weight {self.weight} is not finite"
            )


def build_connections(
    spec: ConnectionSpec,
    pre_size: int,
    post_size: int,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray]:
    """Draw the (pre, post) index pairs of one connection group, row-major.

    Every pair is included independently with probability ``spec.prob``;
    self-pairs are excluded when a population projects onto itself.  The
    numbers are drawn in blocks of whole rows from the one stream, so the
    pairs and the generator state afterwards equal those of a single
    ``rng.random((pre_size, post_size))``, at a bounded memory cost.
    """
    rows = max(1, _DRAW_BLOCK // max(post_size, 1))
    flat = []
    for first in range(0, pre_size, rows):
        mask = rng.random((min(rows, pre_size - first), post_size)) < spec.prob
        if spec.pre == spec.post:
            np.fill_diagonal(mask[:, first:], False)
        flat.append(np.flatnonzero(mask) + first * post_size)
    return np.divmod(np.concatenate([_NO_IDS, *flat]), post_size)


class SynapseGroup:
    """Every synapse of a network as one CSR table: the synapses of pre id
    ``i`` are slots ``indptr[i]:indptr[i + 1]``, each a post index and a weight."""

    def __init__(self, indptr: np.ndarray, post_idx: np.ndarray, weight: np.ndarray):
        self.indptr, self.post_idx, self.weight = indptr, post_idx, weight
        # each row's slots, a view of one range
        slots, bounds = np.arange(len(post_idx), dtype=np.int64), indptr.tolist()
        self._rows = [slots[lo:hi] for lo, hi in zip(bounds, bounds[1:])]

    def targets_of(self, spiking: np.ndarray) -> np.ndarray:
        """Synapse slots of the given pre ids, row after row."""
        rows = self._rows
        return np.concatenate([_NO_IDS, *[rows[i] for i in spiking.tolist()]])


class SpikeRecord:
    """Append-only record of (step, population, neuron) spike events."""

    def __init__(self) -> None:
        self.events: list[tuple[int, str, int]] = []

    def append(self, step: int, population: str, indices) -> None:
        self.events.extend((step, population, int(i)) for i in indices)

    def __len__(self) -> int:
        return len(self.events)


def _slices(specs: list[PopulationSpec]) -> dict[str, slice]:
    """Consecutive index ranges of the given populations, in order."""
    ends = np.cumsum([0] + [s.size for s in specs]).tolist()
    return {s.name: slice(start, end) for s, start, end in zip(specs, ends, ends[1:])}


def _per_neuron(values: list, specs: list[PopulationSpec], dtype) -> np.ndarray:
    """One value per population, repeated over its neurons."""
    return np.repeat(np.array(values, dtype=dtype), [s.size for s in specs])


class _FloatPop:
    """Float64 reference dynamics of every neuron, with per-neuron parameters:
    ``neuron.float_update`` on arrays."""

    def __init__(self, specs: list[PopulationSpec]):
        for name in ("a", "b", "c", "d", "v_peak", "beta", "i_const"):
            setattr(self, name, _per_neuron([vars(s.params)[name] for s in specs], specs, float))
        self.v = self.c.copy()
        self.u = self.b * self.v
        self.isyn = np.zeros(len(self.v))
        self.delta_dop = 0.0
        self.alpha = syn.alpha_factor()

    def step(self, acc: np.ndarray) -> np.ndarray:
        # an overflow would otherwise reach the reset as inf and read as a
        # spike; a delivered sum past float64 is inf without raising
        try:
            with np.errstate(over="raise", invalid="raise"):
                self.isyn = self.alpha * self.isyn + acc
                if not np.all(np.isfinite(self.isyn)):
                    raise SimulationError("float backend: synaptic input overflowed float64")
                current = self.i_const + self.isyn * (1.0 + self.beta * self.delta_dop)
                self.v, self.u, spiked = float_update(self, self.v, self.u, current, np.where)
        except FloatingPointError as exc:
            raise SimulationError(f"float backend: {exc}") from exc
        return spiked


def _fixed_state(specs: list[PopulationSpec]) -> tuple[CompartmentFields, tuple]:
    """The fixed-point state of the given populations, concatenated, and the
    alpha, beta and v_peak raws of its update.  Values never clip silently."""
    rows = []
    for spec in specs:
        with config_errors(f"population {spec.name!r}: "):
            fields, beta, v_peak = encode_neuron(spec.params)
        rows.append(dict(vars(fields), beta=beta, v_peak=v_peak))
    column = lambda name: _per_neuron([row[name] for row in rows], specs, np.int64)
    return (
        CompartmentFields(*map(column, FIELD_LAYOUT)),
        (STEP_INPUTS["@alpha"], column("beta"), column("v_peak")),
    )


def _weight_raw(weight: float, route: str) -> int:
    with config_errors(f"{route}: "):
        raw = encode_checked("weight", weight, WEIGHT_FMT)
        if weight != 0.0 and raw == 0:
            raise ValueError(
                f"weight {weight} quantises to zero (below {WEIGHT_FMT.lsb} resolution)"
            )
    return raw


class Network:
    """A built network: one neuron state, one synapse table, the step engine."""

    def __init__(
        self,
        populations: list[PopulationSpec],
        connections: list[ConnectionSpec],
        seed: int = 1,
        backend: str = "fixed",
    ):
        if backend not in BACKENDS:
            raise ConfigError(f"unknown backend {backend!r}, expected one of {BACKENDS}")
        with config_errors():
            syn.require_key("seed", seed)
        specs = {p.name: p for p in populations}
        if len(specs) != len(populations):
            raise ConfigError("duplicate population names")
        self.seed = seed
        self.backend = backend
        self.step_index = 0

        self.sources = {
            p.name: syn.PoissonSource(p.name, p.rate_hz, p.size, stream_id=i)
            for i, p in enumerate(populations) if p.kind == "poisson"
        }
        neurons = [p for p in populations if p.kind == "izhikevich"]
        self.slices = _slices(neurons)
        self.size = sum(p.size for p in neurons)
        # pre ids follow event order: the sources, then the neurons
        self._ids = _slices([specs[name] for name in self.sources] + neurons)
        self._first_neuron_id = sum(specs[name].size for name in self.sources)
        # where each population starts, then where the last one ends
        self._bounds = np.array([0] + [s.stop for s in self.slices.values()])
        if backend == "fixed":
            self.state, self._constants = _fixed_state(neurons)
        else:
            self.state = _FloatPop(neurons)

        pre_ids, post_ids, weights = [], [], []
        for index, conn in enumerate(connections):
            route = f"connection {conn.pre} -> {conn.post}"
            unknown = [name for name in (conn.pre, conn.post) if name not in specs]
            if unknown:
                raise ConfigError(f"{route}: unknown population {unknown[0]!r}")
            if conn.post in self.sources:
                raise ConfigError(f"{route}: sources cannot receive input")
            weights.append(_weight_raw(conn.weight, route) if backend == "fixed" else conn.weight)
            rng = np.random.default_rng([seed, 0x5EED, index])
            pre, post = build_connections(conn, specs[conn.pre].size, specs[conn.post].size, rng)
            pre_ids.append(np.add(pre, self._ids[conn.pre].start, dtype=np.int32))
            post_ids.append(np.add(post, self.slices[conn.post].start, dtype=np.int32))
        # one stable sort by pre id makes the rows; each temporary is dropped
        # as soon as it is used, which keeps the build's peak memory low
        counts = [len(pre) for pre in pre_ids]
        pre_idx = np.concatenate([_NO_IDS, *pre_ids], dtype=np.int32)
        del pre_ids
        order = np.argsort(pre_idx, kind="stable")
        indptr = np.zeros(sum(p.size for p in populations) + 1, dtype=np.int64)
        np.cumsum(np.bincount(pre_idx, minlength=len(indptr) - 1), out=indptr[1:])
        del pre_idx
        post_idx = np.concatenate([_NO_IDS, *post_ids], dtype=np.int32)[order]
        del post_ids
        weights = np.array(weights, dtype=np.int32 if backend == "fixed" else np.float64)
        self.synapses = SynapseGroup(indptr, post_idx, np.repeat(weights, counts)[order])
        self._pending = _NO_IDS
        # the input of a step with nothing to deliver: what an empty
        # delivery gives, a zero DA or a float +0.0 per neuron
        self._no_input = np.zeros(self.size, dtype=np.int64 if backend == "fixed" else float)
        self._no_input.flags.writeable = False

    def set_dopamine(self, delta_dop: float) -> None:
        """Broadcast the dopamine deviation to every neuron; it must be
        finite, and on the fixed backend fit its field."""
        with config_errors("dopamine: "):
            if self.backend == "fixed":
                raw = encode_checked("delta_dop", delta_dop, DDOP_FMT)
                delta_dop = np.full(self.size, raw, dtype=np.int64)
            else:
                require_finite("delta_dop", delta_dop)
        self.state.delta_dop = delta_dop

    def synapse_count(self) -> int:
        return len(self.synapses.post_idx)

    def step(self) -> list[tuple[str, np.ndarray]]:
        """Advance one timestep; returns this step's (population, indices) events."""
        # phase 1: deliver last step's spikes, if there are any
        if len(self._pending):
            table = self.synapses
            slots = table.targets_of(self._pending)
            acc = np.bincount(table.post_idx[slots], table.weight[slots], minlength=self.size)
            if self.backend == "fixed":
                acc = quantize_raw(acc.astype(np.int64), DA_FMT)
        else:
            acc = self._no_input

        # phase 2: sources draw
        events: list[tuple[str, np.ndarray]] = []
        for source in self.sources.values():
            indices = source.spikes_at(self.step_index, self.seed)
            if len(indices):
                events.append((source.name, indices))

        # phase 3: one update of every neuron
        if self.backend == "fixed":
            spiked = step_fixed_batch(
                self.state, acc, *self._constants, compiled=step_fields_network
            )
        else:
            spiked = self.state.step(acc)

        # phase 4: cut the spiking neurons at the population bounds into
        # events, and hand every spike to the next step
        spiking = spiked.nonzero()[0]
        ids = [indices + self._ids[name].start for name, indices in events]
        if len(spiking):
            cuts = np.searchsorted(spiking, self._bounds).tolist()
            for (name, where), lo, hi in zip(self.slices.items(), cuts, cuts[1:]):
                if hi > lo:
                    events.append((name, spiking[lo:hi] - where.start))
            ids.append(spiking + self._first_neuron_id)
        self._pending = np.concatenate([_NO_IDS, *ids])
        self.step_index += 1
        return events

    def run(
        self,
        steps: int,
        record: set[str] | None = None,
        into: SpikeRecord | None = None,
    ) -> SpikeRecord:
        """Run ``steps`` timesteps, recording events of the selected populations.

        ``record=None`` records every Izhikevich population (sources are
        excluded unless named explicitly).
        """
        if steps < 0:
            raise ConfigError(f"steps must be >= 0, got {steps}")
        recorded = set(self.slices) if record is None else set(record)
        out = into if into is not None else SpikeRecord()
        for _ in range(steps):
            step_now = self.step_index
            for name, indices in self.step():
                if name in recorded:
                    out.append(step_now, name, indices)
        return out
