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

import numpy as np

from .neuron import DT_MS
from .network import SpikeRecord


class InsufficientSpikesError(ValueError):
    """Fewer than two spikes in a train handed to the timing metric."""


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
    return abs(gap_test - gap_ref) / gap_ref * 100.0


def cv_isi(train: SpikeTrain, after_ms: float = 0.0) -> float:
    """Coefficient of variation of the inter-spike intervals after a cutoff."""
    times = [t for t in train.times if t >= after_ms]
    if len(times) < 3:
        return math.inf
    gaps = [b - a for a, b in zip(times, times[1:])]
    mean = sum(gaps) / len(gaps)
    var = sum((g - mean) ** 2 for g in gaps) / len(gaps)
    return math.sqrt(var) / mean


# ---------------------------------------------------------------------------
# Raster export
# ---------------------------------------------------------------------------

CSV_HEADER = "step,time_ms,population,neuron"


def write_csv(path: str | Path, header: str, row: str, columns: list[np.ndarray]) -> Path:
    """Write ``header``, then the ``%`` template ``row`` per row of ``columns``, LF-ended."""
    path, width, rows = Path(path), len(columns), len(columns[0])
    fields = [None] * (width * rows)  # each row's fields in turn
    for i, column in enumerate(columns):
        fields[i::width] = column.tolist()
    path.write_text(f"{header}\n" + row * rows % tuple(fields), newline="\n")
    return path


def export_raster_csv(record: SpikeRecord, path: str | Path) -> Path:
    """Write the record as CSV (one event per line, LF endings)."""
    steps, codes, neurons = record.columns
    names = np.array(record.names, dtype=object)[codes]
    return write_csv(path, CSV_HEADER, "%d,%.17g,%s,%d\n", [steps, steps * DT_MS, names, neurons])


def export_raster_svg(
    record: SpikeRecord,
    path: str | Path,
    populations: list[str],
    population_sizes: dict[str, int],
) -> Path:
    """Write a static scatter raster: x = time (ms), y = neuron index,
    one labelled band per named population, in order, scaled to its size."""
    path = Path(path)
    steps, codes, neurons = record.columns
    t_max = int(steps.max(initial=1)) * DT_MS  # one step at least
    width, band_height, margin_left, margin_top = 900, 80, 90, 24
    plot_w = width - margin_left - 20
    axis_y = margin_top + band_height * max(len(populations), 1)
    height, font = axis_y + 40, 'font-size="11" font-family="sans-serif"'
    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
             f'viewBox="0 0 {width} {height}">',
             f'<rect width="{width}" height="{height}" fill="white"/>']
    band_of = {pop: i for i, pop in enumerate(populations)}
    for pop, band in band_of.items():
        y0 = margin_top + band * band_height
        parts += [f'<rect x="{margin_left}" y="{y0}" width="{plot_w}" height="{band_height}" '
                  'fill="none" stroke="#ccc"/>',
                  f'<text x="{margin_left - 6}" y="{y0 + band_height / 2:.0f}" text-anchor="end" '
                  f'{font}>{_svg_escape(pop)}</text>']
    # each drawn event's x and y, in the operation order of one event's Python floats
    band, size = np.array([(band_of[name], population_sizes[name]) if name in band_of else (-1, 1)
                           for name in record.names], dtype=np.int64).reshape(-1, 2)[codes].T
    drawn = band >= 0
    x = margin_left + (steps[drawn] * DT_MS) / t_max * plot_w
    y = (margin_top + band[drawn] * band_height + band_height
         - (neurons[drawn] + 0.5) / size[drawn] * band_height)
    circles = ('<circle cx="%.1f" cy="%.1f" r="0.8" fill="#1f3c88"/>\n' * len(x)
               % tuple(np.column_stack((x, y)).ravel().tolist()))
    parts.append(f'{circles}<line x1="{margin_left}" y1="{axis_y}" x2="{margin_left + plot_w}" '
                 f'y2="{axis_y}" stroke="black"/>')
    parts += [f'<text x="{margin_left + frac * plot_w:.0f}" y="{axis_y + 16}" text-anchor="middle" '
              f'{font}>{frac * t_max:.0f}</text>' for frac in (0.0, 0.25, 0.5, 0.75, 1.0)]
    parts += [f'<text x="{margin_left + plot_w / 2:.0f}" y="{axis_y + 32}" text-anchor="middle" '
              f'{font}>time (ms)</text>', "</svg>"]
    path.write_text("\n".join(parts) + "\n", newline="\n")
    return path


def _svg_escape(text: str) -> str:
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
