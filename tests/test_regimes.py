"""The firing-regime demonstrations: pinned traces, one run per protocol."""

import hashlib
import json
import math
import re
from dataclasses import replace

import numpy as np
import pytest

from neurocore.fxp import DA_FMT, ISYN_FMT, V_FMT, Fixed, encode
from neurocore.neuron import (
    DT_MS,
    NeuronState,
    SimulationError,
    encode_neuron,
    float_update,
    initial_state,
    pack,
    step_fixed,
    step_float,
    unpack,
)
from neurocore.regimes import (
    DEMO_CURRENT,
    LTS_PROBE_CURRENT,
    REGIME_PARAMS,
    REST_V,
    constant_current,
    rebound_protocol,
    run_batch,
    run_demonstrations,
    run_single,
)

# SHA-256 of every demonstration's spike steps and voltage trace, recorded
# from the padded-batch implementation these runs replace
DEMONSTRATION_DIGESTS = {
    ("fixed", 100.0): "41736abed84bbaa054ba76d3ecf60c5bea681c47f19d8d883ff46d0341ed2d49",
    ("fixed", 1000.0): "bd1292e2296663c35682b700a5161b122be404d8d903daaf1d81a745dde91bb1",
    ("float", 100.0): "5d96553f09f427be3d85cd2c4444f6a1b5f2f6ab37467c24ea406ff1c00dab20",
    ("float", 1000.0): "d283c56cd95986473cf2d4bb335cd4683813d071a4f24695c74df66b59960dca",
}


def protocol_steps(protocol):
    return sum(round(ms / DT_MS) for ms, _ in protocol)


@pytest.mark.parametrize("backend, duration_ms", list(DEMONSTRATION_DIGESTS))
def test_demonstration_traces_pinned(backend, duration_ms):
    runs = run_demonstrations(backend, duration_ms)
    traces = {name: [run.spike_steps, run.v_mv.tolist()] for name, run in runs.items()}
    digest = hashlib.sha256(json.dumps(traces).encode()).hexdigest()
    assert digest == DEMONSTRATION_DIGESTS[backend, duration_ms]


@pytest.mark.parametrize("backend", ["fixed", "float"])
def test_each_run_steps_its_own_protocol(backend):
    # the 500 ms rebound protocol is longer than the 100 ms constant ones
    for name, run in run_demonstrations(backend, 100.0).items():
        assert len(run.v_mv) == protocol_steps(run.protocol), name
        assert all(0 <= s < len(run.v_mv) for s in run.spike_steps), name


@pytest.mark.parametrize("backend", ["fixed", "float"])
def test_batch_equals_single_runs(backend):
    params = [REGIME_PARAMS["RS"], REGIME_PARAMS["TC"], REGIME_PARAMS["CH"]]
    protocols = [
        ((20.0, 10.0),),
        ((10.0, -10.0), (30.0, 0.0)),
        ((5.0, 2.0), (15.0, 10.0)),
    ]
    batch = run_batch(params, protocols, backend)
    assert len(batch) == len(params)
    for p, protocol, got in zip(params, protocols, batch):
        alone = run_single(p, protocol, backend)
        assert (got.params, got.backend, got.protocol) == (p, backend, protocol)
        assert got.spike_steps == alone.spike_steps
        assert got.v_mv.dtype == np.float64
        assert np.array_equal(got.v_mv, alone.v_mv)


@pytest.mark.parametrize("name", REGIME_PARAMS)
def test_carried_fields_equal_word_level_steps(name):
    """The fixed run carries unpacked field values from step to step; a loop
    of word-level step_fixed calls, packing and unpacking every step, gives
    the same trace."""
    params = REGIME_PARAMS[name]
    protocol = ((30.0, 10.0), (10.0, -10.0))
    words = pack(encode_neuron(params, REST_V)[0])
    v_peak = encode(params.v_peak, V_FMT)
    v_mv, spikes = [], []
    for ms, current in protocol:
        da = encode(current, DA_FMT)
        for _ in range(round(ms / DT_MS)):
            words, spiked = step_fixed(words, da, Fixed(0, ISYN_FMT), v_peak=v_peak)
            if spiked:
                spikes.append(len(v_mv))
            v_mv.append(unpack(words).v / V_FMT.scale)
    run = run_single(params, protocol, "fixed")
    assert spikes, "the protocol should make every regime fire"
    assert run.spike_steps == spikes
    assert run.v_mv.tolist() == v_mv


def single_float_steps(params, state, protocol):
    """The v trace, spike steps and last state of ``step_float`` called
    once a step."""
    v_mv, spikes = [], []
    for ms, current in protocol:
        for _ in range(round(ms / DT_MS)):
            state, spiked = step_float(params, state, params.i_const + current)
            if spiked:
                spikes.append(len(v_mv))
            v_mv.append(state.v)
    return np.array(v_mv), spikes, state


@pytest.mark.parametrize("protocol", [constant_current(DEMO_CURRENT, 100.0),
                                      constant_current(LTS_PROBE_CURRENT, 100.0),
                                      rebound_protocol()], ids=["demo", "lts-probe", "rebound"])
@pytest.mark.parametrize("name", REGIME_PARAMS)
def test_float_loop_equals_single_steps(name, protocol):
    """The float run, one ``float_update.loop`` call a protocol segment,
    gives bit for bit the trace and spikes of ``step_float`` step by step."""
    params = REGIME_PARAMS[name]
    run = run_single(params, protocol, "float")
    v_mv, spikes, _ = single_float_steps(params, initial_state(params, REST_V), protocol)
    assert run.v_mv.tobytes() == v_mv.tobytes()
    assert run.spike_steps == spikes


def test_float_loop_from_past_the_peak_equals_single_steps():
    """A loop that starts from a stored v past the peak resets it on its
    first step, as ``step_float`` does, and returns the last step's state."""
    params, vs, spikes = REGIME_PARAMS["RS"], [], []
    v, u = float_update.loop(params, 40.0, -2.0, 10.0, 800, vs, spikes)
    v_mv, want, last = single_float_steps(params, NeuronState(40.0, -2.0), ((100.0, 10.0),))
    assert spikes[0] == 0 and spikes == want
    assert np.array(vs).tobytes() == v_mv.tobytes()
    assert (v, u) == (last.v, last.u)


@pytest.mark.parametrize(
    "changed, message",
    [
        (dict(i_const=10.0), "i_const = 10 saturates"),
        (dict(v_peak=3000.0), "v_peak = 3000 saturates"),
    ],
    ids=["i_const", "v_peak"],
)
def test_fixed_run_never_clips_silently(changed, message):
    with pytest.raises(ValueError, match=message):
        run_single(replace(REGIME_PARAMS["RS"], **changed), constant_current(0.0, 100.0), "fixed")


@pytest.mark.parametrize("current", [1e9, -4096.5, 4096.0])
def test_fixed_run_rejects_a_current_past_the_accumulator(current):
    """A protocol current outside ``DA_FMT``'s range raises, not clips to
    ±4096 (where the float backend would run the real value)."""
    with pytest.raises(ValueError, match="current = .* saturates its 16-bit field"):
        run_single(REGIME_PARAMS["RS"], ((1.0, 0.0), (1.0, current)), "fixed")


def test_fixed_run_takes_the_accumulator_ends():
    low, high = DA_FMT.min_raw / DA_FMT.scale, DA_FMT.max_raw / DA_FMT.scale
    for current in (low, high):
        assert len(run_single(REGIME_PARAMS["RS"], constant_current(current, 1.0), "fixed").v_mv) == 8


@pytest.mark.parametrize("current", [float("inf"), float("nan")])
def test_float_run_raises_on_a_non_finite_current(current):
    with pytest.raises(SimulationError, match="non-finite neuron state"):
        run_single(REGIME_PARAMS["RS"], ((1.0, 10.0), (1.0, current)), "float")


def test_float_run_raises_when_the_state_blows_up():
    """A reset increment so large that the next ``0.04 v^2`` overflows is a
    ``SimulationError``, not a trace of infinities; ``u`` is still finite."""
    with pytest.raises(SimulationError, match=r"non-finite neuron state: v=inf, u=9\.9"):
        run_single(replace(REGIME_PARAMS["RS"], d=1e308), constant_current(10.0, 100.0), "float")


@pytest.mark.parametrize(
    "params, protocol",
    [
        (REGIME_PARAMS["RS"], constant_current(-1e300, 10.0)),
        (REGIME_PARAMS["RS"], constant_current(-1e300, 2 * DT_MS)),
        (replace(REGIME_PARAMS["RS"], a=100.0), constant_current(10.0, 36.5)),
    ],
    ids=["v-squared-overflows", "on-the-last-step", "u-diverges"],
)
def test_float_run_raises_when_v_overflows(params, protocol):
    """A ``v'`` that overflows to inf (``0.04 v^2`` of a huge ``v``) is a
    ``SimulationError``, not a spike and a reset to ``c``, on the last step
    too; with ``a = 100``, ``u`` diverges and drives ``v`` there."""
    with pytest.raises(SimulationError, match="non-finite neuron state: v=inf"):
        run_single(params, protocol, "float")


@pytest.mark.parametrize("backend", ["fixed", "float"])
def test_bias_current_adds_to_the_protocol_current(backend):
    rs = REGIME_PARAMS["RS"]
    biased = run_single(replace(rs, i_const=5.0), constant_current(0.0, 500.0), backend)
    driven = run_single(rs, constant_current(5.0, 500.0), backend)
    assert biased.spike_steps and biased.spike_steps == driven.spike_steps


def test_unknown_backend_rejected():
    with pytest.raises(ValueError, match="unknown backend"):
        run_batch([REGIME_PARAMS["RS"]], [((1.0, 0.0),)], "analog")


@pytest.mark.parametrize("backend", ["fixed", "float"])
def test_run_batch_rejects_unequal_counts(backend):
    """Two parameter sets and one protocol is an error, not one run."""
    with pytest.raises(ValueError, match="^params_list has 2 entries but protocols has 1;"):
        run_batch([REGIME_PARAMS["RS"], REGIME_PARAMS["FS"]], [constant_current(10.0, 1.0)], backend)


@pytest.mark.parametrize("backend", ["fixed", "float"])
@pytest.mark.parametrize("duration", [-5.0, 0.0, 0.05])
def test_run_batch_rejects_a_segment_of_no_steps(backend, duration):
    """A negative segment, or one that rounds to no step, is an error, not
    a segment of 0 steps."""
    with pytest.raises(ValueError, match=re.escape(
            f"segment ({duration}, 10.0): duration_ms must be finite and round to at "
            f"least one 0.125 ms timestep, got {duration:g}")):
        run_batch([REGIME_PARAMS["RS"]], [((duration, 10.0), (1.0, 10.0))], backend)


@pytest.mark.parametrize("backend", ["fixed", "float"])
@pytest.mark.parametrize("duration", [math.inf, math.nan])
def test_run_batch_rejects_a_duration_that_is_not_finite(backend, duration):
    """An infinite (or NaN) segment is a ``ValueError`` naming it, not
    ``round``'s ``OverflowError`` (or its NaN ``ValueError``)."""
    with pytest.raises(ValueError, match=re.escape(
            f"segment ({duration}, 10.0): duration_ms must be finite")):
        run_batch([REGIME_PARAMS["RS"]], [((1.0, 10.0), (duration, 10.0))], backend)
