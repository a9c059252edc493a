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

The experiment runs the same network, same seed, under three dopamine
deviations (0, +1, -1) and reports per-population mean rates over the
post-transient analysis window.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .config import RunConfig
from .network import Network, SpikeRecord
from .neuron import DT_MS

DELTA_DOP_BY_CONDITION = {"baseline": 0.0, "high": 1.0, "low": -1.0}
CONDITIONS = tuple(DELTA_DOP_BY_CONDITION)


@dataclass
class ConditionResult:
    condition: str
    delta_dop: float
    record: SpikeRecord
    rates: dict[str, float]
    spike_counts: dict[str, int] = field(default_factory=dict)


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
    """Mean per-neuron firing rate (Hz) of each population over the window."""
    start, end = window_ms
    seconds = (end - start) / 1000.0
    counts = dict.fromkeys(populations, 0)
    for step, pop, _ in record.events:
        t = step * DT_MS
        if pop in counts and start <= t < end:
            counts[pop] += 1
    rates = {
        pop: counts[pop] / (size * seconds) for pop, size in populations.items()
    }
    return rates, counts


def run_condition(cfg: RunConfig, condition: str, delta_dop: float) -> ConditionResult:
    """Build the network fresh, apply the dopamine level, run, and measure."""
    net = build_bg(cfg)
    net.set_dopamine(delta_dop)
    record = cfg.record
    spike_record = net.run(cfg.steps, record=set(record) if record is not None else None)
    sizes = {
        name: size
        for name, (size, _) in cfg.populations.items()
        if record is None or name in record
    }
    rates, counts = measure_rates(spike_record, sizes, (cfg.settle_ms, cfg.duration_ms))
    return ConditionResult(condition, delta_dop, spike_record, rates, counts)


def run_gonogo(cfg: RunConfig) -> dict[str, ConditionResult]:
    """Run the three dopamine conditions with an identical seed and inputs."""
    return {
        condition: run_condition(cfg, condition, delta_dop)
        for condition, delta_dop in DELTA_DOP_BY_CONDITION.items()
    }
