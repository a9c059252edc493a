"""Spike-train metrics and raster/summary export.

The timing-accuracy measure compares the interval between the first two
spikes of a test train against a reference train (first spikes treated as
synchronised):

    ERRt = |dt_test - dt_ref| / dt_ref * 100

Times are in milliseconds at the timestep resolution (0.125 ms); nothing
is interpolated below the step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

from .neuron import DT_MS
from .network import SpikeRecord


class InsufficientSpikesError(ValueError):
    """Fewer than two spikes in a train handed to the timing metric."""


class DegenerateReferenceError(ValueError):
    """Reference train with a zero first interval."""


@dataclass(frozen=True)
class SpikeTrain:
    """Strictly increasing spike times in milliseconds."""

    times: tuple[float, ...]

    def __post_init__(self) -> None:
        if any(b <= a for a, b in zip(self.times, self.times[1:])):
            raise ValueError("spike times must be strictly increasing")

    @classmethod
    def from_steps(cls, steps) -> "SpikeTrain":
        return cls(tuple(step * DT_MS for step in steps))

    def __len__(self) -> int:
        return len(self.times)

    def intervals(self) -> list[float]:
        return [b - a for a, b in zip(self.times, self.times[1:])]


def errt(reference: SpikeTrain, test: SpikeTrain) -> float:
    """Relative first-interval error of ``test`` against ``reference``, in %."""
    if len(reference) < 2 or len(test) < 2:
        raise InsufficientSpikesError(
            f"need at least 2 spikes per train, got {len(reference)} and {len(test)}"
        )
    gap_ref, gap_test = reference.intervals()[0], test.intervals()[0]
    if gap_ref == 0:
        raise DegenerateReferenceError("reference inter-spike interval is zero")
    return abs(gap_test - gap_ref) / gap_ref * 100.0


def cv_isi(train: SpikeTrain, after_ms: float = 0.0) -> float:
    """Coefficient of variation of the inter-spike intervals after a cutoff."""
    times = [t for t in train.times if t >= after_ms]
    if len(times) < 3:
        return math.inf
    gaps = [b - a for a, b in zip(times, times[1:])]
    mean = sum(gaps) / len(gaps)
    var = sum((g - mean) ** 2 for g in gaps) / len(gaps)
    return math.sqrt(var) / mean if mean > 0 else math.inf


# ---------------------------------------------------------------------------
# Raster export
# ---------------------------------------------------------------------------

CSV_HEADER = "step,time_ms,population,neuron"


def export_raster_csv(record: SpikeRecord, path: str | Path) -> Path:
    """Write the record as CSV (one event per line, LF endings)."""
    path = Path(path)
    lines = [CSV_HEADER]
    lines.extend(
        f"{step},{step * DT_MS:g},{pop},{neuron}"
        for step, pop, neuron in record.events
    )
    path.write_text("\n".join(lines) + "\n", newline="\n")
    return path


def export_raster_svg(
    record: SpikeRecord,
    path: str | Path,
    populations: list[str] | None = None,
    population_sizes: dict[str, int] | None = None,
) -> Path:
    """Write a static scatter raster: x = time (ms), y = neuron index,
    one labelled band per population."""
    path = Path(path)
    pops = populations if populations is not None else record.populations()
    sizes = population_sizes or {}
    for _, pop, neuron in record.events:
        sizes[pop] = max(sizes.get(pop, 1), neuron + 1)
    last_step = max((step for step, _, _ in record.events), default=1)
    t_max = max(last_step * DT_MS, DT_MS)

    width, band_height, margin_left, margin_top = 900, 80, 90, 24
    plot_w = width - margin_left - 20
    height = margin_top + band_height * max(len(pops), 1) + 40

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
    ]
    band_of = {pop: i for i, pop in enumerate(pops)}
    for pop, band in band_of.items():
        y0 = margin_top + band * band_height
        parts.append(
            f'<rect x="{margin_left}" y="{y0}" width="{plot_w}" height="{band_height}" '
            'fill="none" stroke="#ccc"/>'
        )
        parts.append(
            f'<text x="{margin_left - 6}" y="{y0 + band_height / 2:.0f}" '
            'text-anchor="end" font-size="11" font-family="sans-serif">'
            f"{_svg_escape(pop)}</text>"
        )
    for step, pop, neuron in record.events:
        if pop not in band_of:
            continue
        x = margin_left + (step * DT_MS) / t_max * plot_w
        y0 = margin_top + band_of[pop] * band_height
        y = y0 + band_height - (neuron + 0.5) / sizes[pop] * band_height
        parts.append(f'<circle cx="{x:.1f}" cy="{y:.1f}" r="0.8" fill="#1f3c88"/>')
    axis_y = margin_top + band_height * max(len(pops), 1)
    parts.append(
        f'<line x1="{margin_left}" y1="{axis_y}" x2="{margin_left + plot_w}" '
        f'y2="{axis_y}" stroke="black"/>'
    )
    for frac in (0.0, 0.25, 0.5, 0.75, 1.0):
        x = margin_left + frac * plot_w
        parts.append(
            f'<text x="{x:.0f}" y="{axis_y + 16}" text-anchor="middle" '
            f'font-size="11" font-family="sans-serif">{frac * t_max:.0f}</text>'
        )
    parts.append(
        f'<text x="{margin_left + plot_w / 2:.0f}" y="{axis_y + 32}" '
        'text-anchor="middle" font-size="11" font-family="sans-serif">time (ms)</text>'
    )
    parts.append("</svg>")
    path.write_text("\n".join(parts) + "\n", newline="\n")
    return path


def _svg_escape(text: str) -> str:
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
