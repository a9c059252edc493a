"""The firing-regime demonstrations: pinned traces, one run per protocol."""

import hashlib
import json

import numpy as np
import pytest

from neurocore.neuron import DT_MS
from neurocore.regimes import (
    REGIME_PARAMS,
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


def test_unknown_backend_rejected():
    with pytest.raises(ValueError, match="unknown backend"):
        run_batch([REGIME_PARAMS["RS"]], [((1.0, 0.0),)], "analog")
