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
streams keyed by (seed, source, step): each source keeps one generator,
re-keyed and repositioned on every call, so spike trains are reproducible
under any execution order.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .fxp import ISYN_FMT, Fixed, encode
from .neuron import DT_MS

SYNAPTIC_TAU_MS = 15.0


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
    _philox: np.random.Philox = field(init=False, repr=False, compare=False)
    _generator: np.random.Generator = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.rate_hz < 0:
            raise ValueError(f"rate must be >= 0, got {self.rate_hz}")
        if self.size <= 0:
            raise ValueError(f"size must be positive, got {self.size}")
        if self.spike_probability() > 1.0:
            raise ValueError(f"rate {self.rate_hz} Hz exceeds one spike per step")
        philox = np.random.Philox(0)  # every draw sets its whole state
        object.__setattr__(self, "_philox", philox)
        object.__setattr__(self, "_generator", np.random.Generator(philox))

    def spike_probability(self) -> float:
        return self.rate_hz * DT_MS / 1000.0

    def spikes_at(self, step: int, seed: int) -> np.ndarray:
        """Indices of neurons firing this step.

        The draw is a pure function of (seed, stream_id, step, neuron index):
        the source's one kept generator is re-keyed with (seed, stream_id)
        and repositioned at the step, with its whole state reset, so nothing
        carries over between calls.  Two threads must not draw from one
        source at once.
        """
        p = self.spike_probability()
        if p == 0.0:
            return np.empty(0, dtype=np.int64)
        self._philox.state = {
            "bit_generator": "Philox",
            "state": {"counter": [0, 0, 0, step], "key": [seed, self.stream_id]},
            "buffer": [0, 0, 0, 0],
            "buffer_pos": 4,  # empty: the next draw runs the counter
            "has_uint32": 0,
            "uinteger": 0,
        }
        return np.flatnonzero(self._generator.random(self.size) < p)
