"""The basal ganglia Go/No-Go experiment.

The circuit is defined by the shipped ``data/bg_default.cfg``: six 100-neuron
Izhikevich populations (two striatal projection groups, the striatal
fast-spiking interneurons, external pallidum, subthalamic nucleus and the
output nucleus) driven by four Poisson generator groups.  Only the striatal
projection neurons carry a dopamine sensitivity: the direct pathway (STR_D1,
beta > 0) is amplified by dopamine while the indirect pathway (STR_D2,
beta < 0) is suppressed, so raising the dopamine level quiets the output
nucleus (action released) and lowering it drives the output up (action
suppressed).

The experiment builds the network once and runs a copy of it under each of
three dopamine deviations (0, +1, -1); it reports per-population mean rates
over the post-transient analysis window.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass

import numpy as np

from .config import RunConfig
from .network import ConfigError, Network, SpikeRecord
from .neuron import DT_MS

DELTA_DOP_BY_CONDITION = {"baseline": 0.0, "high": 1.0, "low": -1.0}


@dataclass
class ConditionResult:
    delta_dop: float
    record: SpikeRecord
    rates: dict[str, float]
    spike_counts: dict[str, int]


def build_bg(cfg: RunConfig) -> Network:
    """Build the configured circuit with its seed and backend."""
    return Network(
        cfg.population_specs(), cfg.connection_specs(), seed=cfg.seed, backend=cfg.backend
    )


def measure_rates(
    record: SpikeRecord,
    populations: dict[str, int],
    window_ms: tuple[float, float],
) -> tuple[dict[str, float], dict[str, int]]:
    """Mean per-neuron firing rate (Hz) of each population over the window [start, end) ms."""
    start, end = window_ms
    if not start < end:
        raise ValueError(f"rate window {window_ms} ms is empty: its start must lie below its end")
    times, codes = record.columns[0] * DT_MS, record.columns[1]
    inside = np.bincount(codes[(start <= times) & (times < end)], minlength=len(record.names))
    counted = dict(zip(record.names, inside.tolist()))
    counts, seconds = {pop: counted.get(pop, 0) for pop in populations}, (end - start) / 1000.0
    return {pop: counts[pop] / (size * seconds) for pop, size in populations.items()}, counts


def run_gonogo(net: Network, cfg: RunConfig) -> dict[str, ConditionResult]:
    """Run each condition in turn on a copy of ``net``, built from ``cfg`` and never stepped."""
    if net.step_index:
        raise ConfigError(f"the network has run {net.step_index} steps: a copy would start there")
    results, recorded = {}, cfg.recorded
    for condition, delta_dop in DELTA_DOP_BY_CONDITION.items():
        twin = copy.deepcopy(net)
        twin.set_dopamine(delta_dop)
        record = twin.run(cfg.steps, record=recorded)
        del twin  # so that no two copies are alive at once
        rates, counts = measure_rates(record, recorded, (cfg.settle_ms, cfg.duration_ms))
        results[condition] = ConditionResult(delta_dop, record, rates, counts)
    return results
