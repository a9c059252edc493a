"""Population specs, connection building, and the one simulation engine.

All Izhikevich neurons share one struct-of-arrays state, populations
concatenated in spec order and named by slices.  All synapses share one CSR
table: a row per pre id, ids in event order (sources, then neurons), each
row in connection order.  Each step runs strictly ordered phases:

  1. deliver the previous step's spikes: sum the float64 weights of their
     rows, each read as a slice, per neuron with one ``np.bincount``, on the
     fixed backend the Q12 ``DA`` input that the schedule rounds (clipped to
     ``DA_PORT`` where the build cannot bound it there); a step with nothing
     pending passes a kept read-only zero input instead,
  2. Poisson sources draw this step's spikes, each served from a block of
     steps its one kept generator draws at a time,
  3. one state update advances every neuron (synaptic decay, dopamine
     modulation, membrane update, threshold/reset); on the fixed backend it
     runs the array form of the schedule compiled, once at import, for the
     input ranges the build enforces,
  4. the sources' spikes and one ``nonzero`` over the whole spike mask
     become one array of pre ids, which the next step delivers and ``run``
     appends to its ``SpikeRecord`` as it is; only reading the record cuts
     ids into (step, population, neuron) events.

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
from .compiler import ARRAYS, compile_schedule
# quantize_raw has no caller here; the benchmark's probes wrap it by this name
from .fxp import DA_PORT, DDOP_FMT, WEIGHT_FMT, encode_checked, quantize_raw, require_finite
from .neuron import (
    CompartmentFields,
    NeuronParams,
    SimulationError,
    encode_neuron,
    float_update_batch,
    step_fixed_batch,
)
from .schedule import FIELD_LAYOUT, INPUTS, izhikevich_schedule

BACKENDS = ("fixed", "float")
_NO_IDS = np.empty(0, dtype=np.int64)
_DRAW_BLOCK = 1 << 20  # random numbers one connection draws at a time
MAX_IDS = (1 << 31) - 1  # pre and post ids are int32 in the synapse table
# The ranges of the schedule inputs every step passes: the one decay raw,
# beta as ``neuron.encode_neuron`` encodes it, DA in ``DA_PORT`` and v_peak
# in v's field.  The array form compiled for them keeps only the
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
        if not 0 < self.size <= MAX_IDS:
            raise ConfigError(f"population {self.name!r}: size {self.size} outside [1, {MAX_IDS}]")
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

    Every pair is included independently with probability ``spec.prob``: a
    raw draw at most its ``synapse._raw_limit``, the sources' one Bernoulli
    rule; self-pairs are excluded when a population projects onto itself.  The
    raws come in blocks of whole rows from the one stream, so the pairs and the
    generator state afterwards equal those of ``rng.random((pre, post)) < p``.
    """
    rows, limit = max(1, _DRAW_BLOCK // max(post_size, 1)), syn._raw_limit(spec.prob)
    flat = []
    for first in range(0, pre_size, rows):
        n = min(rows, pre_size - first)
        mask = (rng.bit_generator.random_raw(n * post_size) <= limit).reshape(n, post_size)
        if spec.pre == spec.post:
            np.fill_diagonal(mask[:, first:], False)
        flat.append(np.flatnonzero(mask) + first * post_size)
    return np.divmod(np.concatenate([_NO_IDS, *flat]), post_size)


class SynapseGroup:
    """Every synapse of a network as one CSR table: the synapses of pre id
    ``i`` are slots ``indptr[i]:indptr[i + 1]``, each a post index and a
    float64 weight (a raw Q12 integer on the fixed backend)."""

    def __init__(self, indptr: np.ndarray, post_idx: np.ndarray, weight: np.ndarray):
        self.indptr, self.post_idx, self.weight = indptr, post_idx, weight
        self._bounds = indptr.tolist()

    def targets_of(self, spiking: np.ndarray) -> np.ndarray:
        """Synapse slots of the given pre ids, row after row."""
        b = self._bounds
        return np.concatenate([_NO_IDS, *(np.arange(b[i], b[i + 1]) for i in spiking.tolist())])

    def summed(self, spiking: np.ndarray, size: int) -> np.ndarray:
        """Given pre ids' weights summed per post index, rows read as slices."""
        bounds, post, weight = self._bounds, self.post_idx, self.weight
        rows = [slice(bounds[i], bounds[i + 1]) for i in spiking.tolist()]
        return np.bincount(np.concatenate([post[r] for r in rows]),
                           np.concatenate([weight[r] for r in rows]), minlength=size)


class SpikeRecord:
    """Append-only record of (step, population, neuron) spike events, the one
    place where ids become events.  ``append(step, (names, starts), ids)``
    keeps ids that must not change after: id ``i`` is neuron ``i - starts[k]``
    of ``names[k]``, ``k`` the last with ``starts[k] <= i``, and a name None is
    not recorded.  Reading ``events`` cuts every array appended since with one
    ``searchsorted`` into its one list of Python ints, in append order."""

    def __init__(self) -> None:
        self._events, self._appended = [], []

    def append(self, step: int, table: tuple, indices) -> None:
        self._appended.append((step, table, indices))

    @property
    def events(self) -> list[tuple[int, str, int]]:
        if self._appended:
            steps, tables, indices = zip(*self._appended)
            self._appended.clear()
            # each table's ids moved 2**32 apart, so that one searchsorted cuts all
            unique = {id(t): t for t in tables}
            shift = {key: k << 32 for k, key in enumerate(unique)}
            names = [name for group, _ in unique.values() for name in group]
            starts = np.array([shift[key] + x for key, (_, s) in unique.items() for x in s])
            lengths = [len(x) for x in indices]
            ids = np.concatenate([_NO_IDS, *(np.asarray(x, dtype=np.int64) for x in indices)])
            ids += np.repeat([shift[id(t)] for t in tables], lengths)
            where = starts.searchsorted(ids, "right") - 1
            self._events.extend(event for event in zip(
                np.repeat(steps, lengths).tolist(), [names[i] for i in where.tolist()],
                (ids - starts[where]).tolist()) if event[1] is not None)
        return self._events

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
    ``neuron.float_update_batch``."""

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
                self.v, self.u, spiked = float_update_batch(self, self.v, self.u, current)
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
        if (total := sum(p.size for p in populations)) > MAX_IDS:
            raise ConfigError(f"{total} sources and neurons, more than the {MAX_IDS} ids indexed")
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
        self._source_starts = [(s, self._ids[name].start) for name, s in self.sources.items()]
        self._first_neuron_id = sum(specs[name].size for name in self.sources)
        # the table of each set of names ``run`` has recorded, None its default
        self._tables = {None: self._table(self.slices)}
        if backend == "fixed":
            self.state, self._constants = _fixed_state(neurons)
        else:
            self.state = _FloatPop(neurons)

        pre_ids, post_ids, weights = [], [], []
        reach = dict.fromkeys(self.slices, (0, 0))  # each population's least and most input
        for index, conn in enumerate(connections):
            route = f"connection {conn.pre} -> {conn.post}"
            unknown = [name for name in (conn.pre, conn.post) if name not in specs]
            if unknown:
                raise ConfigError(f"{route}: unknown population {unknown[0]!r}")
            if conn.post in self.sources:
                raise ConfigError(f"{route}: sources cannot receive input")
            weights.append(_weight_raw(conn.weight, route) if backend == "fixed" else conn.weight)
            low, high, summed = *reach[conn.post], weights[-1] * specs[conn.pre].size
            reach[conn.post] = (low + min(summed, 0), high + max(summed, 0))
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
        indptr = np.zeros(total + 1, dtype=np.int64)
        np.cumsum(np.bincount(pre_idx, minlength=len(indptr) - 1), out=indptr[1:])
        del pre_idx
        post_idx = np.concatenate([_NO_IDS, *post_ids], dtype=np.int32)[order]
        del post_ids
        weights = np.array(weights, dtype=np.int32 if backend == "fixed" else np.float64)
        weights, order = np.repeat(weights, counts)[order], None  # gathered before it widens
        self.synapses = SynapseGroup(indptr, post_idx, weights.astype(np.float64, copy=False))
        self._pending = _NO_IDS
        self._saturates = backend == "fixed" and any(
            low < DA_PORT.min_raw or high > DA_PORT.max_raw for low, high in reach.values())
        # the input of a step with nothing to deliver: what an empty
        # delivery gives, a zero DA or a float +0.0 per neuron
        self._no_input = np.zeros(self.size, dtype=np.int64 if backend == "fixed" else float)
        self._no_input.flags.writeable = False
        self.set_dopamine(0.0)

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
        if self.backend == "fixed":  # the form, and its ops that read only the build and the level
            fields = (getattr(self.state, name) for name in FIELD_LAYOUT)
            self._form = step_fields_network, step_fields_network.hoist(*fields, *self._constants)

    def synapse_count(self) -> int:
        return len(self.synapses.post_idx)

    def _table(self, recorded) -> tuple:
        """A ``SpikeRecord`` table of every pre id, naming only ``recorded``."""
        return (tuple(name if name in recorded else None for name in self._ids),
                tuple(where.start for where in self._ids.values()))

    def step(self) -> None:
        """Advance one timestep.  Its spikes, the sources' and then the
        neurons', become ``_pending``: one array of pre ids, which the next
        step delivers and ``run`` records."""
        # phase 1: deliver last step's spikes, if there are any
        if len(self._pending):
            acc = self.synapses.summed(self._pending, self.size)
            if self.backend == "fixed":  # the Q12 sum, which the schedule rounds
                acc = acc.astype(np.int64)
                if self._saturates:  # rounding is monotone: past the port, as at its ends
                    acc = acc.clip(DA_PORT.min_raw, DA_PORT.max_raw)
        else:
            acc = self._no_input

        # phase 2: sources draw, as pre ids
        ids = [indices + start for source, start in self._source_starts
               if len(indices := source.spikes_at(self.step_index, self.seed))]

        # phase 3: one update of every neuron
        if self.backend == "fixed":
            spiked = step_fixed_batch(self.state, acc, *self._constants, *self._form)
        else:
            spiked = self.state.step(acc)

        # phase 4: the spiking neurons' pre ids follow the sources'
        spiking = spiked.nonzero()[0]
        if len(spiking):
            ids.append(np.add(spiking, self._first_neuron_id, out=spiking))
        self._pending = np.concatenate(ids) if len(ids) > 1 else ids[0] if ids else _NO_IDS
        self.step_index += 1

    def run(self, steps: int, record=None, into: SpikeRecord | None = None) -> SpikeRecord:
        """Run ``steps`` timesteps, appending each step's pre ids as delivered
        to ``into`` (a new record by default) with a table that names the
        populations in ``record``: by default every Izhikevich population, a
        source only when named.  Each set of names has one table, kept across
        runs.  A name the network lacks, or a ``str`` for ``record``, is a
        ``ConfigError``."""
        if steps < 0:
            raise ConfigError(f"steps must be >= 0, got {steps}")
        if isinstance(record, str):
            raise ConfigError(f"record must be a collection of population names, not {record!r}")
        if record is not None:
            record = frozenset(record)
            if unknown := record.difference(self._ids):
                raise ConfigError(f"record names unknown population {min(unknown)!r}")
        if record not in self._tables:
            self._tables[record] = self._table(record)
        table, out = self._tables[record], into if into is not None else SpikeRecord()
        for _ in range(steps):
            self.step()
            if len(self._pending):
                out.append(self.step_index - 1, table, self._pending)
        return out
