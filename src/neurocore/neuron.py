"""Izhikevich neuron in two interchangeable arithmetics.

``float_update`` is the floating-point reference of the discrete Euler
update, written once: ``step_float`` and the regime runs run it on one
neuron's floats, the network's float backend on per-neuron arrays.  The
fixed-point arithmetic is defined in one place, the shipped block schedule
``data/izhikevich_schedule.txt`` (see :mod:`neurocore.schedule`), compiled
at import (:mod:`neurocore.compiler`) into two generated functions of the
same source but for how they clip and select: ``step_fields`` on one
compartment's field values as Python ints, which ``step_fixed`` wraps in an
unpack and a pack of the state words and whose ``loop`` runs many steps to
a call, and ``step_fields_batch`` on whole populations of int64 arrays,
which ``step_fixed_batch`` runs.  ``encode_neuron`` is the one map from a
configured neuron to the raw field values both run on.

Update rule, with dt = DT_MS = 1/8 ms:

    v' = v + (0.04 v^2 + 5 v + 140 - u + I) * dt
    u' = u + a (b v - u) * dt
    stored v past the peak  =>  v' = c, u' = u + d  (and the step spikes)

A freshly computed v' past the peak is reset within the same step, so the
returned state always satisfies v <= v_peak; the spike is stamped on the
step in which the crossing happened.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, make_dataclass
from operator import attrgetter

import numpy as np

from .compiler import ARRAYS, compile_schedule
# sat_raw has no caller here; the benchmark's probes wrap it by this name
from .fxp import (
    DDOP_FMT,
    Q12,
    U_FMT,
    V_FMT,
    Fixed,
    encode,
    encode_checked,
    require_finite,
    sat_raw,
)
from .schedule import (FIELD_FORMATS, FIELD_LAYOUT, INPUTS, K_BIAS, K_LIN, K_QUAD,
                       izhikevich_schedule)

V_PEAK_DEFAULT = 30.0
DT_MS = 0.125  # the schedule's timestep multiply is >> 3


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
        for name, value in vars(self).items():
            require_finite(name, value)
        if self.a <= 0:
            raise ValueError(f"a must be positive, got {self.a}")
        if self.v_peak <= self.c:
            raise ValueError(f"v_peak must exceed c ({self.v_peak} <= {self.c})")


@dataclass(frozen=True)
class NeuronState:
    v: float
    u: float


def initial_state(params: NeuronParams, v0: float | None = None) -> NeuronState:
    """Deterministic parameter-consistent rest: u = b*v, v defaulting to c."""
    v = params.c if v0 is None else v0
    return NeuronState(v=v, u=params.b * v)


def _pick(condition, if_true, if_false):
    return if_true if condition else if_false


def float_update(p, v, u, current, select=_pick):
    """One Euler step of DT_MS and both resets, on floats or on arrays.

    ``p`` holds ``a b c d v_peak``: a ``NeuronParams`` or per-neuron arrays.
    ``select(condition, if_true, if_false)`` is a conditional expression for
    floats, ``np.where`` for arrays.  A stored ``v`` past the peak resets to
    ``c`` with ``u + d``; a fresh crossing, a finite ``v'`` past the peak,
    resets to ``c`` with ``u' + d``; a ``v'`` that overflowed stays inf, for
    the caller's check.  Returns ``(v', u', spiked)``.
    """
    pre_spiked = v > p.v_peak
    v_new = v + (K_QUAD * v * v + K_LIN * v + K_BIAS - u + current) * DT_MS
    u_new = u + p.a * (p.b * v - u) * DT_MS
    spiked = pre_spiked | ((v_new > p.v_peak) & (v_new < math.inf))
    u_new = select(pre_spiked, u + p.d, select(spiked, u_new + p.d, u_new))
    return select(spiked, p.c, v_new), u_new, spiked


def step_float(
    params: NeuronParams, state: NeuronState, i_input: float
) -> tuple[NeuronState, bool]:
    """One Euler step of DT_MS of the reference model under total current
    ``i_input``."""
    v, u = state.v, state.u
    if not (math.isfinite(v) and math.isfinite(u) and math.isfinite(i_input)):
        raise SimulationError(f"non-finite neuron state: v={v}, u={u}, I={i_input}")
    v, u, spiked = float_update(params, v, u, i_input)
    return NeuronState(v, u), spiked


# ---------------------------------------------------------------------------
# Compartment-state memory words
# ---------------------------------------------------------------------------

CompartmentFields = make_dataclass(
    "CompartmentFields",
    list(FIELD_LAYOUT),
    namespace={
        "__module__": __name__,
        "__doc__": "Raw fixed-point field values, in ``FIELD_LAYOUT`` order: Python "
        "ints for one compartment, int64 arrays for a population.",
    },
)


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


# The format each configured value is encoded into: its field's, beta's as
# the steps pass it, and v's for v_peak, which the schedule compares with v.
_VALUE_FORMATS = {name: FIELD_FORMATS[name] for name in "abcd"} | dict(
    i_const=FIELD_FORMATS["iconst"], v0=FIELD_FORMATS["v"], beta=DDOP_FMT,
    v_peak=FIELD_FORMATS["v"],
)


def encode_neuron(
    params: NeuronParams, v0: float | None = None
) -> tuple[CompartmentFields, int, int]:
    """The rest state of a configured neuron at ``v0`` (default ``c``) as raw
    fields, and the raw ``beta`` and ``v_peak`` its steps pass.

    ``isyn`` and ``delta_dop`` start at 0, and ``u`` is ``b * v`` by the
    core's own multiply, not encoded host-side.  A value that would saturate
    its field raises ``ValueError`` naming it.
    """
    values = {**vars(params), "v0": params.c if v0 is None else v0}
    raw = {name: encode_checked(name, values[name], fmt) for name, fmt in _VALUE_FORMATS.items()}
    fields = CompartmentFields(
        a=raw["a"], b=raw["b"], c=raw["c"], d=raw["d"], isyn=0, iconst=raw["i_const"],
        delta_dop=0, v=raw["v0"], u=U_FMT.saturate((raw["b"] * raw["v0"]) >> Q12),
    )
    return fields, raw["beta"], raw["v_peak"]


# ---------------------------------------------------------------------------
# Fixed-point pipeline
# ---------------------------------------------------------------------------

_VPEAK_RAW = encode(V_PEAK_DEFAULT, V_FMT).raw
_field_values = attrgetter(*FIELD_LAYOUT)

_SCHEDULE = izhikevich_schedule()
# step(*fields, DA, alpha, beta, v_peak, *step.hoist(*fields, alpha, beta,
# v_peak)) -> (*fields, spiked), fields in FIELD_LAYOUT order, and the same
# arguments, then n, vs, spikes to step.loop for n steps: Python ints are
# the faster values for one compartment, int64 arrays for a population
step_fields = compile_schedule(_SCHEDULE)
step_fields_batch = compile_schedule(_SCHEDULE, ARRAYS)


def step_fixed(
    words: CompartmentWords,
    da_input: Fixed,
    alpha: Fixed,
    *,
    beta: Fixed | None = None,
    v_peak: Fixed | None = None,
) -> tuple[CompartmentWords, bool]:
    """One step of the shipped block schedule on one compartment.

    ``da_input`` is the summed synaptic input at up to 12 fraction bits (a
    ``DA_FMT`` value, or a Q12 sum the schedule rounds onto that grid),
    ``alpha`` the synaptic decay factor; ``beta`` and ``v_peak`` are
    group-level constants shared by all compartments of a neuron group.
    Everything else lives in the packed state words.  Each raw value must
    lie in its ``schedule.INPUTS`` range, the range the schedule was
    compiled for.
    """
    inputs = (
        da_input.raw << Q12 - da_input.fmt.frac_bits,
        alpha.raw,
        0 if beta is None else beta.raw,
        _VPEAK_RAW if v_peak is None else v_peak.raw,
    )
    for (name, fmt), raw in zip(INPUTS.items(), inputs):
        if not fmt.min_raw <= raw <= fmt.max_raw:
            raise ValueError(f"{name} raw {raw} outside its compiled range {fmt}")
    fields = _field_values(unpack(words))
    *fields, spiked = step_fields(*fields, *inputs, *step_fields.hoist(*fields, *inputs[1:]))
    return pack(CompartmentFields(*fields)), spiked


def step_fixed_batch(
    batch: CompartmentFields,
    da_raw,
    alpha_raw: int,
    beta_raw: int = 0,
    v_peak_raw: int = _VPEAK_RAW,
    compiled=None,
    hoisted: tuple | None = None,
) -> np.ndarray:
    """One step of the shipped block schedule on a whole population; stores
    the fields it writes, new arrays, into ``batch``.

    ``da_raw`` is the per-neuron summed synaptic input at Q12, which the
    schedule rounds onto the accumulator grid; each field of ``batch`` must
    hold an int64 array of values of its format, and each other argument
    values of the range the schedule was compiled for: the
    ``schedule.INPUTS`` ranges of ``step_fields_batch``, or those of
    ``compiled``, an array form compiled for narrower ranges that runs in its
    place, with ``hoisted``, what its ``hoist`` returns for ``batch`` and
    these constants, if given.  Returns the boolean spike mask.
    """
    step, inputs = compiled or step_fields_batch, (alpha_raw, beta_raw, v_peak_raw)
    hoisted = step.hoist(*_field_values(batch), *inputs) if hoisted is None else hoisted
    return step.update(batch, da_raw, *inputs, *hoisted)
