"""Connection building and the phase-ordered engine."""

import math

import numpy as np
import pytest

from neurocore.network import (
    ConfigError,
    ConnectionSpec,
    Network,
    PopulationSpec,
    SynapseGroup,
    build_connections,
)
from neurocore.neuron import DT_MS, NeuronParams, initial_state, step_float

RS = NeuronParams(a=0.02, b=0.2, c=-65, d=8)


def rng(seed=0):
    return np.random.default_rng(seed)


class TestBuildConnections:
    def test_full_cross_population_is_exact(self):
        spec = ConnectionSpec("STR1", "STR2", weight=-0.3, prob=1.0)
        pre, post = build_connections(spec, 100, 100, rng())
        assert len(pre) == 100 * 100

    def test_full_self_population_excludes_self_pairs(self):
        spec = ConnectionSpec("STR1", "STR1", weight=-0.3, prob=1.0)
        pre, post = build_connections(spec, 100, 100, rng())
        assert len(pre) == 100 * 99
        assert not np.any(pre == post)

    def test_zero_probability_is_empty(self):
        spec = ConnectionSpec("A", "B", weight=1.0, prob=0.0)
        pre, _ = build_connections(spec, 50, 50, rng())
        assert len(pre) == 0

    def test_partial_probability_within_binomial_bounds(self):
        spec = ConnectionSpec("STR1", "GPi/SNr", weight=-7.5, prob=0.15)
        n = 100 * 100
        sigma = math.sqrt(n * 0.15 * 0.85)
        for seed in range(5):
            pre, _ = build_connections(spec, 100, 100, rng(seed))
            assert abs(len(pre) - n * 0.15) <= 4 * sigma

    def test_invalid_probability_rejected(self):
        with pytest.raises(ConfigError):
            ConnectionSpec("A", "B", weight=1.0, prob=1.5)

    def test_synapse_listing(self):
        spec = ConnectionSpec("A", "B", weight=2.0, prob=1.0)
        pre, post = build_connections(spec, 2, 2, rng())
        group = SynapseGroup(spec, pre, post, pre_size=2)
        assert len(group) == 4
        assert group.pre_idx.tolist() == [0, 0, 1, 1]
        assert group.post_idx.tolist() == [0, 1, 0, 1]
        assert group.weight == 2.0
        assert group.spec.pre == "A" and group.spec.post == "B"


def single_pop_net(backend, i_const=10.0, size=1, seed=1):
    pop = PopulationSpec("solo", size, params=NeuronParams(
        a=0.02, b=0.2, c=-65, d=8, i_const=i_const))
    return Network([pop], [], seed=seed, backend=backend)


class TestEngine:
    def test_empty_network_steps(self):
        net = Network([], [], seed=1)
        assert net.step() == []
        assert net.step_index == 1

    def test_zero_steps_empty_record(self):
        net = single_pop_net("float")
        record = net.run(0)
        assert len(record) == 0

    def test_single_neuron_matches_direct_loop(self):
        net = single_pop_net("float", i_const=10.0)
        record = net.run(2000)
        engine_first = min(step for step, _, _ in record.events)

        params = NeuronParams(a=0.02, b=0.2, c=-65, d=8, i_const=10.0)
        state = initial_state(params)
        direct_first = None
        for t in range(2000):
            state, spiked = step_float(params, state, params.i_const, DT_MS)
            if spiked:
                direct_first = t
                break
        assert engine_first == direct_first

    def test_chain_delivers_one_step_later(self):
        driver = PopulationSpec("driver", 1, params=NeuronParams(
            a=0.02, b=0.2, c=-65, d=8, i_const=10.0))
        follower = PopulationSpec("follower", 1, params=RS)
        net = Network(
            [driver, follower],
            [ConnectionSpec("driver", "follower", weight=30.0, prob=1.0)],
            seed=1,
            backend="float",
        )
        follower_state = net.pops["follower"]
        for _ in range(2000):
            before = float(follower_state.isyn[0])
            events = net.step()
            driver_fired = any(name == "driver" for name, _ in events)
            after = float(follower_state.isyn[0])
            if driver_fired:
                # nothing lands this step; the weight arrives next step
                assert after == pytest.approx(before * net.pops["follower"].alpha)
                net.step()
                landed = float(follower_state.isyn[0])
                assert landed == pytest.approx(after * net.pops["follower"].alpha + 30.0)
                break
        else:
            pytest.fail("driver never fired")

    def test_every_spike_delivered_exactly_once(self):
        driver = PopulationSpec("driver", 5, params=NeuronParams(
            a=0.02, b=0.2, c=-65, d=8, i_const=10.0))
        sink = PopulationSpec("sink", 3, params=RS)
        net = Network(
            [driver, sink],
            [ConnectionSpec("driver", "sink", weight=0.5, prob=1.0)],
            seed=3,
            backend="float",
        )
        fanout = 3
        total_weight = 0.0
        expected = 0.0
        sink_state = net.pops["sink"]
        for _ in range(1500):
            pre_isyn = sink_state.isyn.sum()
            events = net.step()
            driver_spikes = sum(len(ix) for name, ix in events if name == "driver")
            delivered = sink_state.isyn.sum() - pre_isyn * sink_state.alpha
            total_weight += delivered
            expected += driver_spikes * fanout * 0.5
        # everything the driver emitted arrived, once (one step shifted);
        # the last step's spikes are still pending
        pending = sum(len(ix) for name, ix in net._pending if name == "driver")
        assert total_weight == pytest.approx(expected - pending * fanout * 0.5)

    def test_record_is_nondecreasing_in_step(self):
        net = single_pop_net("fixed", i_const=5.0, size=10)
        record = net.run(3000)
        steps = [step for step, _, _ in record.events]
        assert steps == sorted(steps)

    def test_deterministic_across_runs(self):
        def build():
            pops = [
                PopulationSpec("exc", 20, params=NeuronParams(
                    a=0.02, b=0.2, c=-65, d=8, i_const=5.0)),
                PopulationSpec("src", 20, rate_hz=100.0),
            ]
            conns = [ConnectionSpec("src", "exc", weight=2.0, prob=0.3)]
            return pops, conns

        pops, conns = build()
        rec1 = Network(pops, conns, seed=9, backend="fixed").run(1500)
        rec2 = Network(pops, conns, seed=9, backend="fixed").run(1500)
        assert rec1 == rec2
        rec4 = Network(pops, conns, seed=10, backend="fixed").run(1500)
        assert rec1 != rec4

    def test_backends_agree_on_isolated_population(self):
        firsts = {}
        for backend in ("fixed", "float"):
            net = single_pop_net(backend, i_const=5.0)
            record = net.run(4000)
            assert len(record) > 0
            firsts[backend] = min(step for step, _, _ in record.events)
        assert abs(firsts["fixed"] - firsts["float"]) <= 2

    def test_sources_excluded_from_default_recording(self):
        pops = [
            PopulationSpec("exc", 5, params=RS),
            PopulationSpec("src", 5, rate_hz=500.0),
        ]
        net = Network(pops, [ConnectionSpec("src", "exc", weight=0.5, prob=1.0)], seed=1)
        record = net.run(500)
        assert all(pop != "src" for _, pop, _ in record.events)
        explicit = Network(
            pops, [ConnectionSpec("src", "exc", weight=0.5, prob=1.0)], seed=1
        ).run(500, record={"src"})
        assert len(explicit) > 0
        assert all(pop == "src" for _, pop, _ in explicit.events)


class TestValidation:
    def test_unknown_population_in_connection(self):
        with pytest.raises(ConfigError, match="unknown population"):
            Network(
                [PopulationSpec("A", 2, params=RS)],
                [ConnectionSpec("A", "B", weight=1.0, prob=0.5)],
            )

    def test_source_cannot_be_post(self):
        pops = [
            PopulationSpec("A", 2, params=RS),
            PopulationSpec("S", 2, rate_hz=10.0),
        ]
        with pytest.raises(ConfigError, match="cannot receive"):
            Network(pops, [ConnectionSpec("A", "S", weight=1.0, prob=0.5)])

    def test_duplicate_names_rejected(self):
        with pytest.raises(ConfigError, match="duplicate"):
            Network([PopulationSpec("A", 2, params=RS)] * 2, [])

    def test_population_needs_exactly_one_kind(self):
        with pytest.raises(ConfigError):
            PopulationSpec("A", 2)
        with pytest.raises(ConfigError):
            PopulationSpec("A", 2, params=RS, rate_hz=5.0)

    def test_unknown_backend(self):
        with pytest.raises(ConfigError, match="backend"):
            Network([PopulationSpec("A", 2, params=RS)], [], backend="quantum")

    def test_negative_steps_rejected(self):
        net = Network([PopulationSpec("A", 2, params=RS)], [])
        with pytest.raises(ConfigError):
            net.run(-1)
