"""Population specs, connection building, and the one simulation engine.

All Izhikevich neurons share one struct-of-arrays state, populations
concatenated in spec order and named by slices.  All synapses share one CSR
table: a row per pre id, ids in event order (sources, then neurons), each
row in connection order.  Each step runs strictly ordered phases:

  1. deliver the previous step's spikes: gather their rows and sum the
     weights per neuron with one ``np.bincount``,
  2. Poisson sources draw this step's spikes,
  3. one state update advances every neuron (synaptic decay, dopamine
     modulation, membrane update, threshold/reset),
  4. the spikes are split into (population, indices) events, which are
     recorded and delivered on the next step.

Spikes therefore take exactly one step of axonal delay at dt = 1/8 ms.
Integer sums do not depend on order and float sums follow table order, so a
(config, seed) pair always produces the identical spike record.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import synapse as syn
from .fxp import DA_FMT, DDOP_FMT, WEIGHT_FMT, encode, quantize_raw
from .neuron import (
    DT_MS,
    QUAD_BIAS_DEFAULT,
    FixedBatch,
    NeuronParams,
    SimulationError,
    step_fixed_batch,
)
from .schedule import FIELD_FORMATS, FIELD_LAYOUT

BACKENDS = ("fixed", "float")
_NO_IDS = np.empty(0, dtype=np.int64)
# the format each configured neuron value is encoded into; the schedule
# compares v_peak with v, so v_peak must fit v's field
_PARAM_FORMATS = {name: FIELD_FORMATS[name] for name in "abcd"} | dict(
    i_const=FIELD_FORMATS["iconst"], v0=FIELD_FORMATS["v"], beta=DDOP_FMT,
    v_peak=FIELD_FORMATS["v"],
)


class ConfigError(ValueError):
    """Invalid network configuration."""


@dataclass(frozen=True)
class PopulationSpec:
    """A named neuron group: Izhikevich dynamics or a Poisson source."""

    name: str
    size: int
    params: NeuronParams | None = None
    rate_hz: float | None = None
    v0: float | None = None  # initial membrane potential, default c

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


def build_connections(
    spec: ConnectionSpec,
    pre_size: int,
    post_size: int,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray]:
    """Draw the (pre, post) index pairs of one connection group, row-major.

    Every pair is included independently with probability ``spec.prob``;
    self-pairs are excluded when a population projects onto itself.
    """
    mask = rng.random((pre_size, post_size)) < spec.prob
    if spec.pre == spec.post:
        np.fill_diagonal(mask, False)
    return np.divmod(np.flatnonzero(mask), post_size)


class SynapseGroup:
    """Every synapse of a network as one CSR table: the synapses of pre id
    ``i`` are slots ``indptr[i]:indptr[i + 1]``, each a post index and a weight."""

    def __init__(self, indptr: np.ndarray, post_idx: np.ndarray, weight: np.ndarray):
        self.indptr, self.post_idx, self.weight = indptr, post_idx, weight

    def targets_of(self, spiking: np.ndarray) -> np.ndarray:
        """Synapse slots of the given pre ids, row after row."""
        starts = self.indptr[spiking]
        counts = self.indptr[spiking + 1] - starts
        ends = np.cumsum(counts)
        # the k-th slot out is its row's start plus k less the row's first output position
        return np.arange(counts.sum()) + np.repeat(starts - ends + counts, counts)


class SpikeRecord:
    """Append-only record of (step, population, neuron) spike events."""

    def __init__(self) -> None:
        self.events: list[tuple[int, str, int]] = []

    def append(self, step: int, population: str, indices) -> None:
        self.events.extend((step, population, int(i)) for i in indices)

    def __len__(self) -> int:
        return len(self.events)

    def __eq__(self, other) -> bool:
        return isinstance(other, SpikeRecord) and self.events == other.events

    def populations(self) -> list[str]:
        seen = dict.fromkeys(pop for _, pop, _ in self.events)
        return list(seen)


def _slices(specs: list[PopulationSpec]) -> dict[str, slice]:
    """Consecutive index ranges of the given populations, in order."""
    ends = np.cumsum([0] + [s.size for s in specs]).tolist()
    return {s.name: slice(start, end) for s, start, end in zip(specs, ends, ends[1:])}


def _per_neuron(values: list, specs: list[PopulationSpec], dtype) -> np.ndarray:
    """One value per population, repeated over its neurons."""
    return np.repeat(np.array(values, dtype=dtype), [s.size for s in specs])


def _encode(value: float, fmt, what: str) -> int:
    """The raw encoding of a configured value, which must not saturate."""
    low, high = fmt.min_raw * fmt.lsb, fmt.max_raw * fmt.lsb
    if not low <= value <= high:
        raise ConfigError(
            f"{what} = {value:g} saturates its {fmt.width}-bit field, range [{low}, {high}]"
        )
    return encode(value, fmt).raw


class _FloatPop:
    """Float64 reference dynamics of every neuron, with per-neuron parameters."""

    def __init__(self, specs: list[PopulationSpec]):
        for name in ("a", "b", "c", "d", "v_peak", "beta", "i_const"):
            setattr(self, name, _per_neuron([vars(s.params)[name] for s in specs], specs, float))
        self.v = _per_neuron([s.params.c if s.v0 is None else s.v0 for s in specs], specs, float)
        self.u = self.b * self.v
        self.isyn = np.zeros(len(self.v))
        self.delta_dop = 0.0
        self.alpha = syn.alpha_factor()

    def step(self, acc: np.ndarray) -> np.ndarray:
        self.isyn = self.alpha * self.isyn + acc
        current = self.i_const + self.isyn * (1.0 + self.beta * self.delta_dop)
        v, u = self.v, self.u
        if not np.all(np.isfinite(v)):
            raise SimulationError("membrane potential diverged on the float backend")
        pre_spiked = v > self.v_peak
        v_new = v + (0.04 * v * v + 5.0 * v + QUAD_BIAS_DEFAULT - u + current) * DT_MS
        u_new = u + self.a * (self.b * v - u) * DT_MS
        post_spiked = ~pre_spiked & (v_new > self.v_peak)
        v_new = np.where(post_spiked, self.c, v_new)
        u_new = np.where(post_spiked, u_new + self.d, u_new)
        v_new = np.where(pre_spiked, self.c, v_new)
        u_new = np.where(pre_spiked, u + self.d, u_new)
        self.v, self.u = v_new, u_new
        return pre_spiked | post_spiked


def _fixed_state(specs: list[PopulationSpec]) -> tuple[FixedBatch, tuple]:
    """The fixed-point state of the given populations, concatenated, and the
    alpha, beta and v_peak raws of its update.  Values never clip silently."""
    raws = []
    for spec in specs:
        values = {**vars(spec.params), "v0": spec.params.c if spec.v0 is None else spec.v0}
        what = f"population {spec.name!r}"
        raws.append({k: _encode(values[k], f, f"{what}: {k}") for k, f in _PARAM_FORMATS.items()})
    parts = [vars(FixedBatch.from_params(s.params, s.size, v0=s.v0)) for s in specs]
    columns = {n: np.concatenate([_NO_IDS, *(p[n] for p in parts)]) for n in FIELD_LAYOUT}
    beta, v_peak = (_per_neuron([r[k] for r in raws], specs, np.int64) for k in ("beta", "v_peak"))
    return FixedBatch(**columns), (syn.alpha_fixed().raw, beta, v_peak)


def _weight_raw(weight: float, route: str) -> int:
    _encode(weight, WEIGHT_FMT, f"{route}: weight")
    try:
        return syn.encode_weight(weight).raw
    except syn.WeightError as exc:
        raise ConfigError(f"{route}: {exc}") from exc


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

    def set_dopamine(self, delta_dop: float) -> None:
        """Broadcast the dopamine deviation to every neuron; on the fixed
        backend it must fit its field."""
        if self.backend == "fixed":
            raw = _encode(delta_dop, DDOP_FMT, "delta_dop")
            delta_dop = np.full(self.size, raw, dtype=np.int64)
        self.state.delta_dop = delta_dop

    def synapse_count(self) -> int:
        return len(self.synapses.post_idx)

    def step(self) -> list[tuple[str, np.ndarray]]:
        """Advance one timestep; returns this step's (population, indices) events."""
        # phase 1: deliver last step's spikes
        table = self.synapses
        slots = table.targets_of(self._pending)
        acc = np.bincount(table.post_idx[slots], table.weight[slots], minlength=self.size)

        # phase 2: sources draw
        events: list[tuple[str, np.ndarray]] = []
        for source in self.sources.values():
            indices = source.spikes_at(self.step_index, self.seed)
            if len(indices):
                events.append((source.name, indices))

        # phase 3: one update of every neuron
        if self.backend == "fixed":
            da_raw = quantize_raw(acc.astype(np.int64), DA_FMT)
            spiked = step_fixed_batch(self.state, da_raw, *self._constants)
        else:
            spiked = self.state.step(acc)

        # phase 4: split the spikes into events, hand them to the next step
        for name, where in self.slices.items():
            indices = np.flatnonzero(spiked[where])
            if len(indices):
                events.append((name, indices))
        ids = [indices + self._ids[name].start for name, indices in events]
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
