"""Izhikevich neuron in two interchangeable arithmetics.

``step_float`` is the floating-point reference implementation of the
discrete Euler update.  The fixed-point arithmetic is defined in one place,
the shipped block schedule ``data/izhikevich_schedule.txt`` (see
:mod:`neurocore.schedule`), compiled once at import: ``step_fixed`` runs it
on one compartment's unpacked state words with Python ints, and
``step_fixed_batch`` runs it on whole populations of int64 arrays.

Update rule, with dt = DT_MS = 1/8 ms:

    v' = v + (0.04 v^2 + 5 v + 140 - u + I) * dt
    u' = u + a (b v - u) * dt
    stored v past the peak  =>  v' = c, u' = u + d  (and the step spikes)

A freshly computed v' past the peak is reset within the same step, so the
returned state always satisfies v <= v_peak; the spike is stamped on the
step in which the crossing happened.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .fxp import (
    DDOP_FMT,
    ISYN_FMT,
    Q12,
    REG_FMT,
    U_FMT,
    V_FMT,
    Fixed,
    encode,
    sat_raw,
)
from .schedule import (
    FIELD_FORMATS,
    FIELD_LAYOUT,
    KQ_FRAC,
    compile_schedule,
    izhikevich_schedule,
)

V_PEAK_DEFAULT = 30.0
QUAD_BIAS_DEFAULT = 140.0
DT_MS = 0.125  # the schedule's timestep multiply is >> 3

# quadratic and linear coefficients of the membrane equation
_K_QUAD = 0.04
_K_LIN = 5.0

_KQ_WIDE = round(_K_QUAD * (1 << KQ_FRAC))


class SimulationError(RuntimeError):
    """Numerical blow-up in the floating-point backend."""


@dataclass(frozen=True)
class NeuronParams:
    """Izhikevich parameters plus the bias current and dopamine sensitivity."""

    a: float
    b: float
    c: float
    d: float
    v_peak: float = V_PEAK_DEFAULT
    beta: float = 0.0
    i_const: float = 0.0

    def __post_init__(self) -> None:
        if self.a <= 0:
            raise ValueError(f"a must be positive, got {self.a}")
        if self.v_peak <= self.c:
            raise ValueError(f"v_peak must exceed c ({self.v_peak} <= {self.c})")


@dataclass(frozen=True)
class NeuronState:
    v: float
    u: float
    i_syn: float = 0.0
    delta_dop: float = 0.0


def initial_state(params: NeuronParams, v0: float | None = None) -> NeuronState:
    """Deterministic parameter-consistent rest: u = b*v, v defaulting to c."""
    v = params.c if v0 is None else v0
    return NeuronState(v=v, u=params.b * v)


def step_float(
    params: NeuronParams, state: NeuronState, i_input: float
) -> tuple[NeuronState, bool]:
    """One Euler step of DT_MS of the reference model under total current
    ``i_input``."""
    v, u = state.v, state.u
    if not (np.isfinite(v) and np.isfinite(u) and np.isfinite(i_input)):
        raise SimulationError(f"non-finite neuron state: v={v}, u={u}, I={i_input}")
    if v > params.v_peak:
        return replace(state, v=params.c, u=u + params.d), True
    v_new = v + (_K_QUAD * v * v + _K_LIN * v + QUAD_BIAS_DEFAULT - u + i_input) * DT_MS
    u_new = u + params.a * (params.b * v - u) * DT_MS
    spiked = v_new > params.v_peak
    if spiked:
        v_new = params.c
        u_new = u_new + params.d
    return replace(state, v=v_new, u=u_new), spiked


# ---------------------------------------------------------------------------
# Compartment-state memory words
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CompartmentFields:
    """Raw fixed-point field values of one compartment."""

    a: int
    b: int
    c: int
    d: int
    isyn: int
    iconst: int
    delta_dop: int
    v: int
    u: int


@dataclass(frozen=True)
class CompartmentWords:
    """The three packed state words of one compartment."""

    word0: int
    word1: int
    word2: int


# (name, word, offset, mask, sign bit) of each field of FIELD_LAYOUT
_FIELD_BITS = tuple(
    (name, word, offset, (1 << width) - 1, 1 << (width - 1))
    for name, (word, offset, width) in FIELD_LAYOUT.items()
)


def pack(fields: CompartmentFields) -> CompartmentWords:
    """Pack raw field values into the three state words (bit-exact)."""
    words = [0, 0, 0]
    for name, word, offset, mask, sign in _FIELD_BITS:
        raw = getattr(fields, name)
        if not -sign <= raw < sign:
            raise ValueError(
                f"field {name!r} raw {raw} does not fit in {mask.bit_length()} bits"
            )
        words[word] |= (raw & mask) << offset
    return CompartmentWords(*words)


def unpack(words: CompartmentWords) -> CompartmentFields:
    packed = (words.word0, words.word1, words.word2)
    # (raw ^ sign) - sign sign-extends the field
    return CompartmentFields(**{
        name: (((packed[word] >> offset) & mask) ^ sign) - sign
        for name, word, offset, mask, sign in _FIELD_BITS
    })


def _raw_fields(params: NeuronParams, state: NeuronState) -> dict[str, int]:
    values = dict(
        a=params.a, b=params.b, c=params.c, d=params.d, isyn=state.i_syn,
        iconst=params.i_const, delta_dop=state.delta_dop, v=state.v, u=state.u,
    )
    return {name: encode(x, FIELD_FORMATS[name]).raw for name, x in values.items()}


def encode_compartment(params: NeuronParams, state: NeuronState) -> CompartmentWords:
    """Encode parameters and dynamic state into packed compartment words."""
    return pack(CompartmentFields(**_raw_fields(params, state)))


def decode_state(words: CompartmentWords) -> NeuronState:
    f = unpack(words)
    return NeuronState(
        v=f.v / V_FMT.scale,
        u=f.u / U_FMT.scale,
        i_syn=f.isyn / ISYN_FMT.scale,
        delta_dop=f.delta_dop / DDOP_FMT.scale,
    )


# ---------------------------------------------------------------------------
# Fixed-point pipeline
# ---------------------------------------------------------------------------

_VPEAK_RAW = encode(V_PEAK_DEFAULT, V_FMT).raw
# the schedule's fixed group constants; @alpha, @beta and @vpeak come per call
_CONSTANTS = {
    "@one": 1 << Q12,
    "@kquad": _KQ_WIDE,
    "@klin": encode(_K_LIN, REG_FMT).raw,
    "@kbias": encode(QUAD_BIAS_DEFAULT, REG_FMT).raw,
}


def _saturate_array(fmt):
    return lambda x: sat_raw(x, fmt)


_SCHEDULE = izhikevich_schedule()
# Python ints are the faster values for one compartment, int64 arrays for a
# population; the two runs differ only in how they clip and select.
_run_ints = compile_schedule(_SCHEDULE)
_run_arrays = compile_schedule(_SCHEDULE, _saturate_array, np.where)


def step_fixed(
    words: CompartmentWords,
    da_input: Fixed,
    alpha: Fixed,
    *,
    beta: Fixed | None = None,
    v_peak: Fixed | None = None,
) -> tuple[CompartmentWords, bool]:
    """One step of the shipped block schedule on one compartment.

    ``da_input`` is the dendrite-accumulator value (3 fraction bits),
    ``alpha`` the synaptic decay factor; ``beta`` and ``v_peak`` are
    group-level constants shared by all compartments of a neuron group.
    Everything else lives in the packed state words.
    """
    env = _run_ints({
        **vars(unpack(words)),
        **_CONSTANTS,
        "@alpha": alpha.raw,
        "@beta": beta.raw if beta is not None else 0,
        "@vpeak": v_peak.raw if v_peak is not None else _VPEAK_RAW,
        "DA": da_input.raw,
    })
    fields = CompartmentFields(**{name: env[name] for name in FIELD_LAYOUT})
    return pack(fields), env["$spk"]


@dataclass
class FixedBatch:
    """Unpacked per-neuron raw state of one population (int64 arrays)."""

    a: np.ndarray
    b: np.ndarray
    c: np.ndarray
    d: np.ndarray
    isyn: np.ndarray
    iconst: np.ndarray
    delta_dop: np.ndarray
    v: np.ndarray
    u: np.ndarray

    @classmethod
    def from_params(
        cls, params: NeuronParams, size: int, v0: float | None = None
    ) -> "FixedBatch":
        """Rest state at v0 (default c); u is derived from the stored b and v
        with the core's own multiply, not encoded host-side."""
        raw = _raw_fields(params, NeuronState(v=params.c if v0 is None else v0, u=0.0))
        raw["u"] = U_FMT.saturate((raw["b"] * raw["v"]) >> Q12)
        return cls(**{name: np.full(size, x, dtype=np.int64) for name, x in raw.items()})

    def words(self, i: int) -> CompartmentWords:
        fields = {name: int(getattr(self, name)[i]) for name in FIELD_LAYOUT}
        return pack(CompartmentFields(**fields))


def step_fixed_batch(
    batch: FixedBatch,
    da_raw,
    alpha_raw: int,
    beta_raw: int = 0,
    v_peak_raw: int = _VPEAK_RAW,
) -> np.ndarray:
    """One step of the shipped block schedule on a whole population; mutates
    ``batch`` in place.

    ``da_raw`` is the per-neuron accumulator value at 3 fraction bits; each
    field of ``batch`` must hold values of its format.  Returns the boolean
    spike mask.
    """
    env = _run_arrays({
        **vars(batch),
        **_CONSTANTS,
        "@alpha": alpha_raw,
        "@beta": beta_raw,
        "@vpeak": v_peak_raw,
        "DA": da_raw,
    })
    for name in FIELD_LAYOUT:
        setattr(batch, name, env[name])
    return env["$spk"]
