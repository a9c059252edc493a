"""Synaptic weights, the synaptic decay factor, and Poisson spike sources.

The per-step synaptic input of a neuron is the sum of the weights of all
pre-synaptic spikes delivered that step.  On the fixed-point backend the
weights are held at 12 fraction bits and the network passes their Q12 sum
to the neuron; the first op of the shipped block schedule requantises it
onto the 3-fraction-bit dendrite-accumulator grid.  The synaptic current
then decays exponentially and is modulated by dopamine:

    I_syn[t+dt] = alpha * I_syn[t] + (accumulated input)
    I[t]        = I_const + I_syn[t] * (1 + beta * delta_dop)

with alpha = 1 - dt/tau.  On the fixed backend these two lines are blocks of
the shipped block schedule (:mod:`neurocore.schedule`), run by
:mod:`neurocore.neuron`.  Poisson sources draw from counter-based random
streams keyed by (seed, source, step): each source keeps one generator,
keyed and set at the step with its whole state reset for every step it
draws, so spike trains are reproducible under any execution order.  A
source draws a block of steps at a time, a fixed count of random numbers,
and serves each step's spikes from it as a view kept at the draw.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .fxp import ISYN_FMT, Fixed, encode, require_finite
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

_BLOCK_NUMBERS = 4096  # random numbers one refill of a source draws, in whole steps
_LAST_COUNTER = 2**64 - 1  # the largest step a Philox counter word holds


def require_key(name: str, value: int) -> None:
    """Raise ``ValueError`` naming ``name`` unless ``value`` fits a 64-bit
    Philox key word, as a seed and a stream id must."""
    if not 0 <= value < 2**64:
        raise ValueError(f"{name} must lie in [0, 2**64), got {value}")


def _raw_limit(p: float) -> int:
    """The largest raw draw whose ``Generator.random()`` is below ``p``.

    numpy makes a double of one raw of Philox or PCG64 as ``(raw >> 11) *
    2**-53``, exactly, so for 0 <= p <= 1 it is below ``p`` exactly when
    ``raw >> 11`` is below ``ceil(p * 2**53)``, when ``raw`` is at most this
    limit, which lies in [-1, 2**64 - 1]: the compare runs on uint64 as is.
    """
    return math.ceil(p * 2**53) * 2**11 - 1


class _StepDraws:
    """A source's one kept generator and its block of drawn steps: the spikes
    of step ``first + k`` are ``rows[k]``, read-only views of one array."""

    def __init__(self, stream_id: int):
        self.philox = np.random.Philox(0)  # every row sets its whole state
        # one state dict for every row: only the seed and the step change
        self.state = {
            "bit_generator": "Philox",
            "state": {"counter": [0, 0, 0, 0], "key": [0, stream_id]},
            "buffer": [0, 0, 0, 0],
            "buffer_pos": 4,  # empty: the next draw runs the counter
            "has_uint32": 0,
            "uinteger": 0,
        }
        self.seed, self.first, self.rows = None, 0, []

    def refill(self, step: int, seed: int, size: int, p: float) -> None:
        """Draw the steps from ``step`` on, ``_BLOCK_NUMBERS`` numbers' worth,
        at least one step and none past the counter's last."""
        # the first row always runs, so a step outside the counter's range
        # raises from the state setter as it would alone
        rows = max(1, min(_BLOCK_NUMBERS // size, _LAST_COUNTER - step + 1))
        counter = self.state["state"]["counter"]
        self.state["state"]["key"][0] = seed
        raws = []
        for row in range(rows):
            counter[3] = step + row
            self.philox.state = self.state
            raws.append(self.philox.random_raw(size))
        spikes = (np.concatenate(raws) <= _raw_limit(p)).nonzero()[0]
        cuts = spikes.searchsorted(np.arange(0, rows * size + 1, size)).tolist()
        spikes %= size
        spikes.flags.writeable = False  # callers share the served rows
        self.seed, self.first = seed, step
        self.rows = [spikes[lo:hi] for lo, hi in zip(cuts, cuts[1:])]


@dataclass(frozen=True)
class PoissonSource:
    """Independent per-neuron Bernoulli firing at rate*dt per step."""

    name: str
    rate_hz: float
    size: int
    stream_id: int = 0
    _draws: _StepDraws = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        require_finite("rate_hz", self.rate_hz)
        if self.rate_hz < 0:
            raise ValueError(f"rate must be >= 0, got {self.rate_hz}")
        if self.size <= 0:
            raise ValueError(f"size must be positive, got {self.size}")
        if self.spike_probability() > 1.0:
            raise ValueError(f"rate {self.rate_hz} Hz exceeds one spike per step")
        require_key("stream_id", self.stream_id)
        object.__setattr__(self, "_draws", _StepDraws(self.stream_id))

    def spike_probability(self) -> float:
        return self.rate_hz * DT_MS / 1000.0

    def spikes_at(self, step: int, seed: int) -> np.ndarray:
        """Indices of neurons firing this step, read-only.

        The draw is a pure function of (seed, stream_id, step, neuron index):
        the numbers of a step come from the source's one kept generator,
        keyed with (seed, stream_id) and set at the step, with its whole
        state reset, so nothing carries over between steps.  A step outside
        the cached block, or another seed, draws a new block from that step
        on, a fixed count of numbers in whole steps.  Two threads must not
        draw from one source at once.
        """
        draws = self._draws
        row = step - draws.first
        if seed == draws.seed and 0 <= row < len(draws.rows):
            return draws.rows[row]
        p = self.spike_probability()
        if p == 0.0:
            return np.empty(0, dtype=np.int64)
        draws.refill(step, seed, self.size, p)
        return draws.rows[0]
