"""Canonical firing-regime demonstrations on both backends.

Six parameter sets cover the classic response classes: regular spiking,
fast spiking, intrinsically bursting, chattering, low-threshold spiking,
and the rebound-spiking thalamo-cortical cell.  Each is run as a single
isolated neuron from the demonstration rest state (v = -70 mV, u = b*v)
under a piecewise-constant current protocol, and classified from its spike
train alone.

On the fixed backend the stimulus enters through the dendrite-accumulator
port with the synaptic decay disabled, so the neuron sees exactly the
programmed current each step (all protocol currents are representable on
the accumulator grid, and one past its range raises ``ValueError``).  The
16-bit bias-current field saturates at 8, so it cannot carry the
demonstration current of 10.  Each protocol segment is one call of the
compiled schedule's loop; the float backend carries ``v`` and ``u`` through
``float_update`` step by step.
"""

from __future__ import annotations

from dataclasses import astuple, dataclass
from math import isfinite

import numpy as np

from .analysis import SpikeTrain, cv_isi
from .fxp import DA_FMT, Q12, V_FMT, encode_checked
from .neuron import (
    DT_MS,
    NeuronParams,
    SimulationError,
    encode_neuron,
    float_update,
    initial_state,
    step_fields,
)

REST_V = -70.0
DEMO_CURRENT = 10.0
LTS_PROBE_CURRENT = 2.0  # drives LTS but is subthreshold for RS
REBOUND_CURRENT = -10.0
REBOUND_HOLD_MS = 200.0
REBOUND_WATCH_MS = 300.0

REGIME_PARAMS: dict[str, NeuronParams] = {
    "RS": NeuronParams(a=0.02, b=0.2, c=-65, d=8),
    "FS": NeuronParams(a=0.1, b=0.2, c=-65, d=2),
    "IB": NeuronParams(a=0.02, b=0.2, c=-55, d=4),
    "CH": NeuronParams(a=0.02, b=0.2, c=-50, d=2),
    "LTS": NeuronParams(a=0.02, b=0.25, c=-65, d=2),
    "TC": NeuronParams(a=0.02, b=0.25, c=-65, d=0.05),
}

Protocol = tuple[tuple[float, float], ...]  # (duration_ms, current) segments


def constant_current(i: float, duration_ms: float = 1000.0) -> Protocol:
    return ((duration_ms, i),)


def rebound_protocol() -> Protocol:
    return ((REBOUND_HOLD_MS, REBOUND_CURRENT), (REBOUND_WATCH_MS, 0.0))


@dataclass
class SingleRun:
    """Trace of one isolated neuron: per-step membrane voltage and spikes."""

    params: NeuronParams
    backend: str
    protocol: Protocol
    v_mv: np.ndarray
    spike_steps: list[int]

    def train(self) -> SpikeTrain:
        return SpikeTrain.from_steps(self.spike_steps)


def run_single(params: NeuronParams, protocol: Protocol, backend: str) -> SingleRun:
    return run_batch([params], [protocol], backend)[0]


def run_batch(
    params_list: list[NeuronParams],
    protocols: list[Protocol],
    backend: str,
) -> list[SingleRun]:
    """Run isolated neurons one after another, each for exactly the steps of
    its own protocol."""
    if backend == "fixed":
        run = _run_fixed
    elif backend == "float":
        run = _run_float
    else:
        raise ValueError(f"unknown backend {backend!r}")
    return [
        SingleRun(params, backend, protocol, *run(params, protocol))
        for params, protocol in zip(params_list, protocols)
    ]


def timing_comparison(
    duration_ms: float = 1000.0,
) -> dict[str, tuple[SpikeTrain, SpikeTrain]]:
    """(float reference, fixed) spike trains for the RS and FS timing runs."""
    names = ("RS", "FS")
    params = [REGIME_PARAMS[n] for n in names]
    protocols = [constant_current(DEMO_CURRENT, duration_ms)] * len(names)
    reference = run_batch(params, protocols, "float")
    test = run_batch(params, protocols, "fixed")
    return {
        name: (reference[j].train(), test[j].train())
        for j, name in enumerate(names)
    }


def _run_fixed(params: NeuronParams, protocol: Protocol) -> tuple[np.ndarray, list[int]]:
    """The compiled schedule's loop on one compartment's field values, held
    as Python ints through each protocol segment in one call; the state
    words are never packed."""
    rest, _, v_peak = encode_neuron(params, REST_V)
    fields = astuple(rest)
    hoisted = step_fields.hoist(*fields, 0, 0, v_peak)
    v_raw, spikes = [], []
    for ms, current in protocol:
        # the stimulus enters through the accumulator port, as a Q12 sum on
        # its grid, with decay off (alpha 0) and no dopamine gain (beta 0)
        da = encode_checked("current", current, DA_FMT) << Q12 - DA_FMT.frac_bits
        *fields, _ = step_fields.loop(*fields, da, 0, 0, v_peak, *hoisted,
                                      round(ms / DT_MS), v_raw, spikes)
    return np.array(v_raw) / V_FMT.scale, spikes


def _run_float(params: NeuronParams, protocol: Protocol) -> tuple[np.ndarray, list[int]]:
    """The float reference, ``float_update`` on ``v`` and ``u`` carried as
    floats from step to step; a step that leaves them not finite (an
    overflow, or a current that is not finite) raises."""
    rest = initial_state(params, v0=REST_V)
    v, u = rest.v, rest.u
    v_mv, spikes = [], []
    for ms, current in protocol:
        i = params.i_const + current
        for _ in range(round(ms / DT_MS)):
            v, u, spiked = float_update(params, v, u, i)
            if not (isfinite(v) and isfinite(u)):
                raise SimulationError(f"non-finite neuron state: v={v}, u={u}, I={i}")
            if spiked:
                spikes.append(len(v_mv))
            v_mv.append(v)
    return np.array(v_mv), spikes


# ---------------------------------------------------------------------------
# Classification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RegimeCheck:
    regime: str
    backend: str
    passed: bool
    detail: str


def classify_tonic(train: SpikeTrain, after_ms: float = 200.0) -> tuple[bool, str]:
    cv = cv_isi(train, after_ms)
    return cv < 0.1, f"CV of ISI after {after_ms:.0f} ms = {cv:.4f}"


def classify_bursting(train: SpikeTrain) -> tuple[bool, str]:
    gaps = train.intervals()
    intra = sum(1 for g in gaps if g < 10.0)
    inter = sum(1 for g in gaps if g > 20.0)
    ok = intra >= 2 and inter >= 1
    return ok, f"{intra} intra-burst ISIs (<10 ms), {inter} inter-burst ISIs (>20 ms)"


def run_demonstrations(backend: str, duration_ms: float = 1000.0) -> dict[str, SingleRun]:
    """All demonstration runs needed to classify the six regimes."""
    plan = [
        ("RS", REGIME_PARAMS["RS"], constant_current(DEMO_CURRENT, duration_ms)),
        ("FS", REGIME_PARAMS["FS"], constant_current(DEMO_CURRENT, duration_ms)),
        ("IB", REGIME_PARAMS["IB"], constant_current(DEMO_CURRENT, duration_ms)),
        ("CH", REGIME_PARAMS["CH"], constant_current(DEMO_CURRENT, duration_ms)),
        ("LTS", REGIME_PARAMS["LTS"], constant_current(LTS_PROBE_CURRENT, duration_ms)),
        ("RS-probe", REGIME_PARAMS["RS"], constant_current(LTS_PROBE_CURRENT, duration_ms)),
        ("REBOUND", REGIME_PARAMS["TC"], rebound_protocol()),
    ]
    runs = run_batch([p for _, p, _ in plan], [proto for _, _, proto in plan], backend)
    return {name: run for (name, _, _), run in zip(plan, runs)}


def classify_runs(by_name: dict[str, SingleRun], backend: str) -> list[RegimeCheck]:
    checks = []
    ok, detail = classify_tonic(by_name["RS"].train())
    checks.append(RegimeCheck("RS", backend, ok, f"tonic regular spiking: {detail}"))

    rs_count = len(by_name["RS"].spike_steps)
    fs_count = len(by_name["FS"].spike_steps)
    checks.append(
        RegimeCheck(
            "FS", backend, fs_count > 2 * rs_count,
            f"fast spiking: {fs_count} spikes vs {rs_count} for RS at equal input",
        )
    )

    for name in ("IB", "CH"):
        ok, detail = classify_bursting(by_name[name].train())
        checks.append(RegimeCheck(name, backend, ok, f"bursting: {detail}"))

    lts_spikes = len(by_name["LTS"].spike_steps)
    rs_probe_spikes = len(by_name["RS-probe"].spike_steps)
    checks.append(
        RegimeCheck(
            "LTS", backend, lts_spikes >= 1 and rs_probe_spikes == 0,
            f"low threshold: {lts_spikes} spikes at I={LTS_PROBE_CURRENT} "
            f"where RS fires {rs_probe_spikes}",
        )
    )

    rebound = by_name["REBOUND"]
    hold_steps = round(REBOUND_HOLD_MS / DT_MS)
    during = [s for s in rebound.spike_steps if s < hold_steps]
    release_window = round(100.0 / DT_MS)
    after = [s for s in rebound.spike_steps if hold_steps <= s < hold_steps + release_window]
    checks.append(
        RegimeCheck(
            "REBOUND", backend, not during and len(after) >= 1,
            f"rebound: {len(during)} spikes during hyperpolarisation, "
            f"{len(after)} within 100 ms of release",
        )
    )
    return checks
