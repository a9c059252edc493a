"""Population containers, probabilistic connection building, and the
phase-ordered simulation engine.

Each step runs strictly ordered phases:

  1. deliver the previous step's spikes into per-neuron accumulators,
  2. Poisson sources draw this step's spikes,
  3. every neuron population advances one timestep (synaptic decay,
     dopamine modulation, membrane update, threshold/reset),
  4. the step's spike events are collected for recording and for delivery
     on the next step.

Spikes therefore take exactly one step of axonal delay.  Time is a pure
step counter at dt = 1/8 ms.  Delivery accumulates integers on the fixed
backend and runs in a fixed traversal order on the float backend, so a
(config, seed) pair always produces the identical spike record.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import synapse as syn
from .fxp import DA_FMT, DDOP_FMT, REG_FMT, encode, quantize_raw
from .neuron import (
    DT_MS,
    QUAD_BIAS_DEFAULT,
    FixedBatch,
    NeuronParams,
    SimulationError,
    step_fixed_batch,
)

BACKENDS = ("fixed", "float")


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
                f"connection {self.pre}->{self.post}: prob {self.prob} outside [0, 1]"
            )


def build_connections(
    spec: ConnectionSpec,
    pre_size: int,
    post_size: int,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray]:
    """Draw the (pre, post) index pairs of one connection group.

    Every pair is included independently with probability ``spec.prob``;
    self-pairs are excluded when a population projects onto itself.
    """
    if pre_size <= 0 or post_size <= 0:
        raise ConfigError("population sizes must be positive")
    mask = rng.random((pre_size, post_size)) < spec.prob
    if spec.pre == spec.post:
        np.fill_diagonal(mask, False)
    pre_idx, post_idx = np.nonzero(mask)
    return pre_idx.astype(np.int64), post_idx.astype(np.int64)


class SynapseGroup:
    """All synapses of one ConnectionSpec, indexed by pre neuron."""

    def __init__(
        self, spec: ConnectionSpec, pre_idx: np.ndarray, post_idx: np.ndarray, pre_size: int
    ):
        self.spec = spec
        order = np.argsort(pre_idx, kind="stable")
        self.pre_idx = pre_idx[order]
        self.post_idx = post_idx[order]
        self.indptr = np.searchsorted(self.pre_idx, np.arange(pre_size + 1))
        self.weight_raw = syn.encode_weight(spec.weight).raw
        self.weight = spec.weight

    def __len__(self) -> int:
        return len(self.pre_idx)

    def targets_of(self, spiking: np.ndarray) -> np.ndarray:
        """Post indices hit by the given spiking pre neurons (with repeats)."""
        if len(self.pre_idx) == 0 or len(spiking) == 0:
            return np.empty(0, dtype=np.int64)
        chunks = [
            self.post_idx[self.indptr[i]: self.indptr[i + 1]] for i in spiking
        ]
        return np.concatenate(chunks) if chunks else np.empty(0, dtype=np.int64)


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


class _FloatPop:
    """Float64 reference dynamics of one population."""

    def __init__(self, spec: PopulationSpec):
        p = spec.params
        n = spec.size
        v0 = p.c if spec.v0 is None else spec.v0
        self.params = p
        self.size = n
        self.v = np.full(n, float(v0))
        self.u = np.full(n, p.b * float(v0))
        self.isyn = np.zeros(n)
        self.delta_dop = 0.0
        self.alpha = syn.alpha_factor()

    def set_dopamine(self, delta_dop: float) -> None:
        self.delta_dop = delta_dop

    def step(self, acc: np.ndarray) -> np.ndarray:
        p = self.params
        self.isyn = self.alpha * self.isyn + acc
        current = p.i_const + self.isyn * (1.0 + p.beta * self.delta_dop)
        v, u = self.v, self.u
        if not np.all(np.isfinite(v)):
            raise SimulationError("membrane potential diverged on the float backend")
        pre_spiked = v > p.v_peak
        v_new = v + (0.04 * v * v + 5.0 * v + QUAD_BIAS_DEFAULT - u + current) * DT_MS
        u_new = u + p.a * (p.b * v - u) * DT_MS
        post_spiked = ~pre_spiked & (v_new > p.v_peak)
        v_new = np.where(post_spiked, p.c, v_new)
        u_new = np.where(post_spiked, u_new + p.d, u_new)
        v_new = np.where(pre_spiked, p.c, v_new)
        u_new = np.where(pre_spiked, u + p.d, u_new)
        self.v, self.u = v_new, u_new
        return pre_spiked | post_spiked


class _FixedPop:
    """Fixed-point dynamics of one population (raw int64 state)."""

    def __init__(self, spec: PopulationSpec):
        p = spec.params
        self.params = p
        self.size = spec.size
        self.batch = FixedBatch.from_params(p, spec.size, v0=spec.v0)
        self.alpha_raw = syn.alpha_fixed().raw
        self.beta_raw = encode(p.beta, DDOP_FMT).raw
        self.v_peak_raw = encode(p.v_peak, REG_FMT).raw

    def set_dopamine(self, delta_dop: float) -> None:
        raw = encode(delta_dop, DDOP_FMT).raw
        self.batch.delta_dop = np.full(self.size, raw, dtype=np.int64)

    def step(self, acc_raw: np.ndarray) -> np.ndarray:
        acc_q3 = quantize_raw(acc_raw, DA_FMT)
        return step_fixed_batch(
            self.batch,
            acc_q3,
            self.alpha_raw,
            self.beta_raw,
            v_peak_raw=self.v_peak_raw,
        )


class Network:
    """A built network: populations, synapse groups, and the step engine."""

    def __init__(
        self,
        populations: list[PopulationSpec],
        connections: list[ConnectionSpec],
        seed: int = 1,
        backend: str = "fixed",
    ):
        if backend not in BACKENDS:
            raise ConfigError(f"unknown backend {backend!r}, expected one of {BACKENDS}")
        names = [p.name for p in populations]
        if len(set(names)) != len(names):
            raise ConfigError("duplicate population names")
        self.specs = {p.name: p for p in populations}
        self.seed = seed
        self.backend = backend
        self.step_index = 0
        self.delta_dop = 0.0

        self.sources = {}
        self.pops = {}
        for stream_id, spec in enumerate(populations):
            if spec.kind == "poisson":
                self.sources[spec.name] = syn.PoissonSource(
                    spec.name, spec.rate_hz, spec.size, stream_id=stream_id
                )
            else:
                cls = _FixedPop if backend == "fixed" else _FloatPop
                self.pops[spec.name] = cls(spec)

        self.groups: list[SynapseGroup] = []
        self._groups_by_pre: dict[str, list[SynapseGroup]] = {n: [] for n in names}
        for index, conn in enumerate(connections):
            for endpoint in (conn.pre, conn.post):
                if endpoint not in self.specs:
                    raise ConfigError(
                        f"connection {conn.pre}->{conn.post}: unknown population {endpoint!r}"
                    )
            if conn.post in self.sources:
                raise ConfigError(
                    f"connection {conn.pre}->{conn.post}: sources cannot receive input"
                )
            rng = np.random.default_rng([seed, 0x5EED, index])
            pre_idx, post_idx = build_connections(
                conn, self.specs[conn.pre].size, self.specs[conn.post].size, rng
            )
            group = SynapseGroup(conn, pre_idx, post_idx, self.specs[conn.pre].size)
            self.groups.append(group)
            self._groups_by_pre[conn.pre].append(group)

        self._pending: list[tuple[str, np.ndarray]] = []

    def set_dopamine(self, delta_dop: float) -> None:
        """Broadcast the dopamine deviation to every neuron."""
        self.delta_dop = delta_dop
        for pop in self.pops.values():
            pop.set_dopamine(delta_dop)

    def synapse_count(self) -> int:
        return sum(len(g) for g in self.groups)

    def _zero_accumulators(self) -> dict[str, np.ndarray]:
        dtype = np.int64 if self.backend == "fixed" else np.float64
        return {name: np.zeros(pop.size, dtype=dtype) for name, pop in self.pops.items()}

    def step(self) -> list[tuple[str, np.ndarray]]:
        """Advance one timestep; returns this step's (population, indices) events."""
        # phase 1: deliver last step's spikes
        acc = self._zero_accumulators()
        for pre_name, spiking in self._pending:
            for group in self._groups_by_pre[pre_name]:
                targets = group.targets_of(spiking)
                if len(targets) == 0:
                    continue
                if self.backend == "fixed":
                    np.add.at(acc[group.spec.post], targets, group.weight_raw)
                else:
                    np.add.at(acc[group.spec.post], targets, group.weight)

        # phase 2: sources draw
        events: list[tuple[str, np.ndarray]] = []
        for source in self.sources.values():
            indices = source.spikes_at(self.step_index, self.seed)
            if len(indices):
                events.append((source.name, indices))

        # phase 3: neuron updates (independent per population)
        for name, pop in self.pops.items():
            idx = np.flatnonzero(pop.step(acc[name]))
            if len(idx):
                events.append((name, idx))

        # phases 4-5: hand events to the next step and advance the counter
        self._pending = events
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
        recorded = set(self.pops) if record is None else set(record)
        out = into if into is not None else SpikeRecord()
        for _ in range(steps):
            step_now = self.step_index
            for name, indices in self.step():
                if name in recorded:
                    out.append(step_now, name, indices)
        return out
