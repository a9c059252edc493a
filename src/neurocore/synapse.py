"""Synaptic weights, the synaptic decay factor, and Poisson spike sources.

The per-step synaptic input of a neuron is the sum of the weights of all
pre-synaptic spikes delivered that step.  On the fixed-point backend the
weights are held at 12 fraction bits and the network requantises the sum
onto the 3-fraction-bit dendrite-accumulator grid
(:func:`neurocore.fxp.quantize_raw`) before it enters the neuron.  The
synaptic current then decays exponentially and is modulated by dopamine:

    I_syn[t+dt] = alpha * I_syn[t] + (accumulated input)
    I[t]        = I_const + I_syn[t] * (1 + beta * delta_dop)

with alpha = 1 - dt/tau.  On the fixed backend these two lines are blocks of
the shipped block schedule (:mod:`neurocore.schedule`), run by
:mod:`neurocore.neuron`.  Poisson sources draw from counter-based random
streams keyed by (seed, source, step), so spike trains are reproducible
under any execution order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fxp import ISYN_FMT, WEIGHT_FMT, Fixed, FixedFormat, encode
from .neuron import DT_MS

SYNAPTIC_TAU_MS = 15.0


class WeightError(ValueError):
    """A nonzero weight that quantises to zero in the weight format."""


def encode_weight(weight: float, fmt: FixedFormat = WEIGHT_FMT) -> Fixed:
    encoded = encode(weight, fmt)
    if weight != 0.0 and encoded.raw == 0:
        raise WeightError(
            f"weight {weight} quantises to zero (below {fmt.lsb} resolution)"
        )
    return encoded


def alpha_factor() -> float:
    """Synaptic decay per step, 1 - dt/tau."""
    return 1.0 - DT_MS / SYNAPTIC_TAU_MS


def alpha_fixed() -> Fixed:
    return encode(alpha_factor(), ISYN_FMT)


# ---------------------------------------------------------------------------
# Poisson spike sources
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PoissonSource:
    """Independent per-neuron Bernoulli firing at rate*dt per step."""

    name: str
    rate_hz: float
    size: int
    stream_id: int = 0

    def __post_init__(self) -> None:
        if self.rate_hz < 0:
            raise ValueError(f"rate must be >= 0, got {self.rate_hz}")
        if self.size <= 0:
            raise ValueError(f"size must be positive, got {self.size}")
        if self.spike_probability() > 1.0:
            raise ValueError(f"rate {self.rate_hz} Hz exceeds one spike per step")

    def spike_probability(self) -> float:
        return self.rate_hz * DT_MS / 1000.0

    def spikes_at(self, step: int, seed: int) -> np.ndarray:
        """Indices of neurons firing this step.

        The draw is a pure function of (seed, stream_id, step, neuron index):
        a fresh counter-based generator is keyed per source and positioned at
        the step, so no sequential state is carried between calls.
        """
        p = self.spike_probability()
        if p == 0.0:
            return np.empty(0, dtype=np.int64)
        bitgen = np.random.Philox(
            key=np.array([seed, self.stream_id], dtype=np.uint64),
            counter=np.array([0, 0, 0, step], dtype=np.uint64),
        )
        draws = np.random.Generator(bitgen).random(self.size)
        return np.flatnonzero(draws < p)
