"""Connection building and the phase-ordered engine."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from neurocore import network
from neurocore.analysis import CSV_HEADER, export_raster_csv
from neurocore.bg import build_bg, measure_rates
from neurocore.config import load_default_config
from neurocore.fxp import DA_FMT, DA_PORT, Fixed, quantize_raw
from neurocore.network import (
    ConfigError,
    ConnectionSpec,
    Network,
    PopulationSpec,
    build_connections,
)
from neurocore.neuron import (
    DT_MS,
    CompartmentFields,
    NeuronParams,
    SimulationError,
    initial_state,
    pack,
    step_fixed,
    step_float,
)
from neurocore.synapse import alpha_fixed

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

    @pytest.mark.parametrize("block", [1, 64, 1 << 20])
    @pytest.mark.parametrize(
        "pre, post, pre_size, post_size",
        [("A", "B", 40, 30), ("A", "A", 30, 30), ("A", "A", 40, 25), ("A", "A", 25, 40),
         ("A", "B", 1, 90), ("A", "B", 90, 1), ("A", "A", 1, 1), ("A", "B", 0, 5)],
    )
    def test_blocked_draw_equals_dense_draw(
        self, monkeypatch, block, pre, post, pre_size, post_size
    ):
        monkeypatch.setattr(network, "_DRAW_BLOCK", block)
        spec = ConnectionSpec(pre, post, weight=1.0, prob=0.3)
        blocked_rng, dense_rng = rng(5), rng(5)
        got = build_connections(spec, pre_size, post_size, blocked_rng)
        mask = dense_rng.random((pre_size, post_size)) < spec.prob
        if pre == post:
            np.fill_diagonal(mask, False)
        want = np.divmod(np.flatnonzero(mask), post_size)
        assert got[0].tolist() == want[0].tolist()
        assert got[1].tolist() == want[1].tolist()
        assert blocked_rng.bit_generator.state == dense_rng.bit_generator.state

    def test_invalid_probability_rejected(self):
        with pytest.raises(ConfigError):
            ConnectionSpec("A", "B", weight=1.0, prob=1.5)

    @pytest.mark.parametrize("weight", [math.inf, -math.inf, math.nan])
    def test_non_finite_weight_rejected(self, weight):
        with pytest.raises(ConfigError, match="A -> B: weight .* is not finite"):
            ConnectionSpec("A", "B", weight=weight, prob=0.5)

    def test_synapse_listing(self):
        # a source ahead of A shifts A's pre ids; B's neurons follow A's; the
        # fixed backend stores raw Q12 weights
        for backend, weight in (("float", 2.0), ("fixed", 2 << 12)):
            net = Network(
                [PopulationSpec("S", 3, rate_hz=10.0),
                 PopulationSpec("A", 2, params=RS), PopulationSpec("B", 2, params=RS)],
                [ConnectionSpec("A", "B", weight=2.0, prob=1.0)],
                backend=backend,
            )
            table = net.synapses
            assert net.synapse_count() == 4
            pre_ids = np.repeat(np.arange(len(table.indptr) - 1), np.diff(table.indptr))
            assert (pre_ids - 3 - net.slices["A"].start).tolist() == [0, 0, 1, 1]
            assert (table.post_idx - net.slices["B"].start).tolist() == [0, 1, 0, 1]
            assert table.weight.tolist() == [weight] * 4

    def test_table_rows_in_event_then_connection_order(self):
        # rows follow pre id order; each row lists its connections in order
        pops = [PopulationSpec("A", 2, params=RS), PopulationSpec("B", 1, params=RS),
                PopulationSpec("S", 1, rate_hz=10.0)]
        conns = [ConnectionSpec("A", "B", 1.5, 1.0), ConnectionSpec("S", "A", 0.5, 1.0),
                 ConnectionSpec("A", "A", 0.25, 1.0)]
        table = Network(pops, conns, backend="float").synapses
        # pre ids: S = 0, then A = 1, 2 and B = 3; neuron indices A = 0, 1, B = 2
        assert table.indptr.tolist() == [0, 2, 4, 6, 6]
        assert table.post_idx.tolist() == [0, 1, 2, 1, 2, 0]
        assert table.weight.tolist() == [0.5, 0.5, 1.5, 0.25, 1.5, 0.25]
        assert table.targets_of(np.array([0, 2])).tolist() == [0, 1, 4, 5]


@st.composite
def tables_and_ids(draw, lengths):
    """A CSR table whose rows may be empty, and pre ids into it, repeats
    allowed, their count within the ``lengths`` bounds; a circuit fifty times
    the default has 60 to 80 ids pending on most steps."""
    row_lengths = draw(st.lists(st.integers(0, 5), min_size=1, max_size=20))
    indptr = np.concatenate([[0], np.cumsum(row_lengths)]).astype(np.int64)
    ids = draw(st.lists(st.integers(0, len(row_lengths) - 1),
                        min_size=lengths[0], max_size=lengths[1]))
    return indptr, np.array(ids, dtype=np.int64)


class TestTargetsOf:
    # a handful of ids, as on most steps of the default circuit, and many
    @pytest.mark.parametrize("lengths", [(0, 6), (7, 300)], ids=["few", "many"])
    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(data=st.data())
    def test_rows_in_given_order(self, lengths, data):
        indptr, ids = data.draw(tables_and_ids(lengths))
        size = int(indptr[-1])
        table = network.SynapseGroup(indptr, np.zeros(size, np.int32), np.zeros(size))
        got = table.targets_of(ids)
        want = [slot for i in ids.tolist() for slot in range(indptr[i], indptr[i + 1])]
        assert got.dtype == np.int64
        assert got.tolist() == want

    @pytest.mark.parametrize("lengths", [(1, 1), (1, 6), (7, 300)], ids=["one", "few", "many"])
    @settings(derandomize=True, max_examples=40, deadline=None)
    @given(data=st.data())
    def test_summed_rows_equal_the_gathered_slots(self, lengths, data):
        """Delivery reads each row as a slice; it sums, in the same order,
        the weights a gather of ``targets_of``'s slots would."""
        indptr, ids = data.draw(tables_and_ids(lengths))
        size = int(indptr[-1])
        table = network.SynapseGroup(indptr, np.arange(size, dtype=np.int32)[::-1] % 7,
                                     np.linspace(-1.5, 2.0, size))
        slots = table.targets_of(ids)
        want = np.bincount(table.post_idx[slots], table.weight[slots], minlength=9)
        assert np.array_equal(table.summed(ids, 9), want)


def one_step(net, record):
    """The events of one step of ``net``, run into ``record``."""
    seen = len(record)
    return net.run(1, into=record).events[seen:]


def single_pop_net(backend, i_const=10.0, size=1, seed=1):
    pop = PopulationSpec("solo", size, params=NeuronParams(
        a=0.02, b=0.2, c=-65, d=8, i_const=i_const))
    return Network([pop], [], seed=seed, backend=backend)


class TestEngine:
    def test_empty_network_steps(self):
        net = Network([], [], seed=1)
        assert net.run(1, into=network.SpikeRecord()).events == []
        assert net.step_index == 1

    def test_float_overflow_raises(self):
        # inhibition of -1e300 overflows the membrane update; the reset must
        # not turn the overflow into spikes
        net = Network(
            [PopulationSpec("P", 10, rate_hz=500.0), PopulationSpec("A", 10, params=RS)],
            [ConnectionSpec("P", "A", -1e300, 1.0)],
            backend="float",
        )
        with pytest.raises(SimulationError, match="overflow"):
            net.run(400)

    def test_float_input_sum_past_float64_raises(self):
        # the delivered sum is inf with no floating-point error, and the reset
        # would put v back to c; the fixed backend rejects this weight outright
        net = Network(
            [PopulationSpec("P", 10, rate_hz=4000.0), PopulationSpec("A", 3, params=RS)],
            [ConnectionSpec("P", "A", 1e308, 1.0)],
            backend="float",
        )
        with pytest.raises(SimulationError, match="overflow"):
            net.run(40)

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
            state, spiked = step_float(params, state, params.i_const)
            if spiked:
                direct_first = t
                break
        assert engine_first == direct_first

    def test_float_network_is_step_float_bit_for_bit(self):
        # no synapses, so each neuron's total current is its i_const; the
        # second population is set past its peak, which runs the pre-reset path
        params = {
            "P": NeuronParams(a=0.02, b=0.2, c=-65, d=8, i_const=10.0, v_peak=25.0),
            "Q": NeuronParams(a=0.1, b=0.25, c=-55, d=2, i_const=6.5, v_peak=35.0),
        }
        v0 = {"P": None, "Q": 40.0}
        net = Network(
            [PopulationSpec(name, 2, params=p) for name, p in params.items()], [], backend="float"
        )
        q = net.slices["Q"]
        net.state.v[q], net.state.u[q] = 40.0, params["Q"].b * 40.0
        steps = 2000
        v, u = np.empty((steps, net.size)), np.empty((steps, net.size))
        record = network.SpikeRecord()
        for t in range(steps):
            net.run(1, into=record)
            v[t], u[t] = net.state.v, net.state.u
        spikes = {name: sorted({t for t, pop, _ in record.events if pop == name})
                  for name in params}

        for name, p in params.items():
            state, direct_v, direct_u, direct_spikes = initial_state(p, v0[name]), [], [], []
            for t in range(steps):
                state, spiked = step_float(p, state, p.i_const)
                direct_v.append(state.v)
                direct_u.append(state.u)
                if spiked:
                    direct_spikes.append(t)
            for i in range(net.slices[name].start, net.slices[name].stop):
                assert v[:, i].tolist() == direct_v
                assert u[:, i].tolist() == direct_u
            assert spikes[name] == direct_spikes
        assert spikes["Q"][0] == 0 and len(spikes["P"]) > 3

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
        follower, record = net.slices["follower"].start, network.SpikeRecord()
        for _ in range(2000):
            before = float(net.state.isyn[follower])
            events = one_step(net, record)
            driver_fired = any(name == "driver" for _, name, _ in events)
            after = float(net.state.isyn[follower])
            if driver_fired:
                # nothing lands this step; the weight arrives next step
                assert after == pytest.approx(before * net.state.alpha)
                one_step(net, record)
                landed = float(net.state.isyn[follower])
                assert landed == pytest.approx(after * net.state.alpha + 30.0)
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
        sink, record = net.slices["sink"], network.SpikeRecord()
        for _ in range(1500):
            pre_isyn = net.state.isyn[sink].sum()
            events = one_step(net, record)
            driver_spikes = sum(1 for _, name, _ in events if name == "driver")
            delivered = net.state.isyn[sink].sum() - pre_isyn * net.state.alpha
            total_weight += delivered
            expected += driver_spikes * fanout * 0.5
        # everything the driver emitted arrived, once (one step shifted);
        # the last step's spikes are still pending
        pending = sum(1 for _, name, _ in events if name == "driver")
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
        assert len(rec1) > 0 and rec1.events == rec2.events
        rec4 = Network(pops, conns, seed=10, backend="fixed").run(1500)
        assert rec1.events != rec4.events

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


def test_record_reads_equal_an_eager_list(tmp_path):
    """Appends from several tables, some names None, of array and list ids,
    empty ones included, with lengths, event lists and columns read in
    between: every read equals the list built eagerly, of Python ints in
    append order, and stays one list; the columns hold that list, and the
    rates and the CSV equal loops over it, the CSV the per-event writer's."""
    tables = [(("P0", None, "P1"), (0, 10, 30)), (("P1",), (0,)), ((None, "P2", "P0"), (0, 5, 20))]
    record, eager = network.SpikeRecord(), []
    events = record.events
    rng = np.random.default_rng(3)
    for k in range(60):
        step, (names, starts) = 1013 * k, tables[k % 3]  # times that %g rounds
        indices = rng.choice(50, rng.integers(0, 4), replace=False)
        if k % 4 == 0:
            indices = indices.tolist()
        record.append(step, tables[k % 3], indices)
        for i in indices:
            slot = max(j for j, start in enumerate(starts) if start <= i)
            if names[slot] is not None:
                eager.append((step, names[slot], int(i) - starts[slot]))
        if k % 3 == 0:
            assert len(record) == len(eager)
        if k % 5 == 0:
            assert record.events == eager
        if k % 7 == 0:
            steps, codes, neurons = record.columns
            assert list(zip(steps.tolist(), [record.names[c] for c in codes.tolist()],
                            neurons.tolist())) == eager
    assert record.events is events and events == eager
    assert {type(i) for _, _, i in events} == {int}
    assert [column.dtype for column in record.columns] == [np.int64] * 3
    sizes = {"P0": 10, "P1": 20, "P2": 15, "P3": 4}
    for start, end in ((0.0, 1000.0), (1013 * 0.125, 5000.0), (2500.0, 1e5)):
        counts = dict.fromkeys(sizes, 0)
        for step, pop, _ in events:
            if pop in counts and start <= step * DT_MS < end:
                counts[pop] += 1
        seconds = (end - start) / 1000.0
        rates = {pop: counts[pop] / (size * seconds) for pop, size in sizes.items()}
        assert measure_rates(record, sizes, (start, end)) == (rates, counts)
    lines = [CSV_HEADER, *(f"{step},{step * DT_MS:g},{pop},{neuron}" for step, pop, neuron in events)]
    assert export_raster_csv(record, tmp_path / "r.csv").read_text() == "\n".join(lines) + "\n"


def test_networks_stepped_alternately_equal_each_alone():
    """Two networks of one config, stepped in turn, record what one records
    alone: no array one step writes into is another network's, or the
    next step's input."""
    cfg = replace(load_default_config(), seed=1)
    pair, alone = [build_bg(cfg) for _ in range(2)], build_bg(cfg)
    records = [network.SpikeRecord() for _ in pair]
    for _ in range(400):
        for net, record in zip(pair, records):
            net.run(1, into=record)
    want = alone.run(400).events
    assert len(want) > 100 and all(record.events == want for record in records)


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

    @pytest.mark.parametrize("size", [0, 2**31, 10**30])
    def test_size_the_synapse_table_cannot_index_rejected(self, size):
        message = rf"^population 'A': size {size} outside \[1, 2147483647\]$"
        with pytest.raises(ConfigError, match=message):
            PopulationSpec("A", size, params=RS)

    def test_more_ids_than_the_synapse_table_indexes_rejected_first(self):
        # checked before anything a population sizes is allocated: three
        # populations of 2**30 would otherwise ask for tens of GB
        pops = [PopulationSpec(f"S{i}", 2**30, rate_hz=10.0) for i in range(3)]
        with pytest.raises(ConfigError, match=f"^{3 * 2**30} sources and neurons, more than"):
            Network(pops, [])

    def test_population_needs_exactly_one_kind(self):
        with pytest.raises(ConfigError):
            PopulationSpec("A", 2)
        with pytest.raises(ConfigError):
            PopulationSpec("A", 2, params=RS, rate_hz=5.0)

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_seed_outside_64_bits_rejected_at_build(self, seed):
        with pytest.raises(ConfigError, match=rf"^seed must lie in \[0, 2\*\*64\), got {seed}$"):
            Network([PopulationSpec("S", 2, rate_hz=10.0)], [], seed=seed)

    def test_unknown_backend(self):
        with pytest.raises(ConfigError, match="backend"):
            Network([PopulationSpec("A", 2, params=RS)], [], backend="quantum")

    def test_negative_steps_rejected(self):
        net = Network([PopulationSpec("A", 2, params=RS)], [])
        with pytest.raises(ConfigError):
            net.run(-1)

    def test_record_of_an_unknown_population_rejected(self):
        net = build_bg(load_default_config())
        with pytest.raises(ConfigError, match="^record names unknown population 'STNN'$"):
            net.run(400, record={"STNN"})
        assert net.step_index == 0

    @pytest.mark.parametrize("name", ["STN", "GPe"])
    def test_record_of_a_string_rejected(self, name):
        """A string is not read as its characters (``'N'`` was reported as
        an unknown population) but rejected, naming what ``record`` takes."""
        net = build_bg(load_default_config())
        with pytest.raises(ConfigError, match=f"^record must be a collection of population "
                                              f"names, not '{name}'$"):
            net.run(400, record=name)
        assert net.step_index == 0
        events = net.run(400, record=[name]).events  # a one-name list is the way to say it
        assert net.step_index == 400 and events and {p for _, p, _ in events} == {name}

    @pytest.mark.parametrize(
        "population, connection, message",
        [
            (dict(params=replace(RS, i_const=10.0)), None, "'A': i_const = 10 saturates"),
            (dict(params=replace(RS, beta=-9.0)), None, "'A': beta = -9 saturates"),
            # c is also the initial v
            (dict(params=replace(RS, c=-3000.0)), None, "'A': c = -3000 saturates"),
            (dict(params=RS), 5000.0, "A -> A: weight = 5000 saturates"),
            (dict(params=RS), 1e-5, "A -> A: weight 1e-05 quantises to zero"),
            # the schedule compares v_peak with v, a 24-bit field
            (dict(params=replace(RS, v_peak=3000.0)), None, "'A': v_peak = 3000 saturates its 24"),
        ],
    )
    def test_fixed_encoding_never_clips_silently(self, population, connection, message):
        pops = [PopulationSpec("A", 2, **population)]
        conns = [] if connection is None else [ConnectionSpec("A", "A", connection, 1.0)]
        with pytest.raises(ConfigError, match=message):
            Network(pops, conns, backend="fixed")
        # the float backend has no fields to saturate
        Network(pops, conns, backend="float").run(5)


class TestRunRecordsWhatStepReturns:
    """``run`` records each step's pre ids as one array, cut into
    populations only when the record is read; its events equal those of the
    pre ids each ``step`` leaves pending, cut id by id through the network's
    id ranges, over one second of the shipped circuit at seed 1."""

    STEPS = 8000  # one second

    @pytest.fixture(scope="class")
    def stepped(self):
        net = build_bg(replace(load_default_config(), seed=1))
        owner = [(name, where.start) for name, where in net._ids.items()
                 for _ in range(where.start, where.stop)]
        events = []
        for t in range(self.STEPS):
            net.step()
            events.extend((t, owner[i][0], i - owner[i][1]) for i in net._pending.tolist())
        return events

    @pytest.mark.parametrize("record", [{"STN", "GPe"}, {"G_Ctx1", "STN"}],
                             ids=["subset", "source-named"])
    def test_recorded_populations(self, stepped, record):
        got = build_bg(replace(load_default_config(), seed=1)).run(self.STEPS, record=record)
        assert got.events == [event for event in stepped if event[1] in record]
        assert {pop for _, pop, _ in got.events} == record

    def test_named_record_table_kept_across_runs(self):
        """Runs of one step each that record the same names, passed as a new
        set every time, append one table object, and their events are those
        of a single run over the same steps."""
        net = build_bg(replace(load_default_config(), seed=1))
        record, names = network.SpikeRecord(), {"STN", "GPe"}
        for _ in range(self.STEPS // 2):
            net.run(1, record=set(names), into=record)
        assert len({id(table) for table in record._tables}) == 1
        whole = build_bg(replace(load_default_config(), seed=1)).run(self.STEPS // 2, record=names)
        assert record.events == whole.events

    def test_default_record_reused_across_runs(self, stepped):
        net, record = build_bg(replace(load_default_config(), seed=1)), network.SpikeRecord()
        want = [event for event in stepped if event[1] in net.slices]
        lengths = [1, 7, 992, 3000, 1, 3999]
        for steps in lengths:
            assert net.run(steps, into=record) is record
            assert len(record) == sum(1 for t, _, _ in want if t < net.step_index)
        assert sum(lengths) == self.STEPS and record.events == want


SHIPPED = load_default_config()
# every population of the shipped circuit, its generators included
SHIPPED_NAMES = [*SHIPPED.populations, *(g.name for g in SHIPPED.generators)]


class TestRunRecordsTheNamedPopulations:
    """``run`` appends each step's pre ids with a table that names the
    recorded populations; for any subset of the shipped circuit's
    populations, sources included, or the default, its events are those of
    a run that records every population, filtered to the subset, also when
    one record is reused across runs."""

    STEPS = 1600  # 200 ms at seed 1

    @pytest.fixture(scope="class")
    def everything(self):
        events = build_bg(replace(SHIPPED, seed=1)).run(self.STEPS, record=SHIPPED_NAMES).events
        assert {"G_Ctx1", "GPe"} <= {pop for _, pop, _ in events}  # sources and neurons
        return events

    @settings(derandomize=True, max_examples=12, deadline=None)
    @given(names=st.none() | st.sets(st.sampled_from(SHIPPED_NAMES), min_size=1),
           cuts=st.lists(st.integers(0, STEPS), max_size=3))
    def test_run_equals_every_population_filtered(self, everything, names, cuts):
        net, record = build_bg(replace(SHIPPED, seed=1)), network.SpikeRecord()
        want = [event for event in everything if event[1] in (names or net.slices)]
        bounds = [0, *sorted(cuts), self.STEPS]
        for start, stop in zip(bounds, bounds[1:]):
            assert net.run(stop - start, record=names, into=record) is record
            assert len(record) == sum(1 for t, _, _ in want if t < stop)
        assert record.events == want


def words(state, i):
    """The packed state words of neuron ``i`` of a fixed-backend state."""
    return pack(CompartmentFields(**{k: int(x[i]) for k, x in vars(state).items()}))


def test_sums_past_the_port_saturate_as_quantize_raw_did(monkeypatch):
    """A circuit whose summed input can leave ``DA_PORT``: the build clips
    each sum to the port, where it requantises (``fxp.quantize_raw``, what
    the network passed before the schedule rounded) as the sum itself does,
    and every neuron ends each step where the scalar stepper takes it from
    that accumulator value."""
    pops = [PopulationSpec("up", 40, rate_hz=4000.0), PopulationSpec("down", 40, rate_hz=4000.0),
            PopulationSpec("A", 30, params=RS), PopulationSpec("B", 30, params=RS)]
    conns = [ConnectionSpec("up", "A", 2047.0, 0.5), ConnectionSpec("down", "A", -2048.0, 0.5),
             ConnectionSpec("up", "B", 0.3, 0.5), ConnectionSpec("down", "B", -0.05, 0.5)]
    net = Network(pops, conns, seed=5)
    assert net._saturates and not build_bg(replace(load_default_config(), seed=1))._saturates
    passed, step_fixed_batch = [], network.step_fixed_batch

    def passing(batch, da, *args, **kwargs):
        passed.append(da)
        return step_fixed_batch(batch, da, *args, **kwargs)

    monkeypatch.setattr(network, "step_fixed_batch", passing)
    table, past = net.synapses, 0
    for _ in range(6):
        sums = np.zeros(net.size, dtype=np.int64)
        for pre in net._pending.tolist():
            for slot in range(table.indptr[pre], table.indptr[pre + 1]):
                sums[table.post_idx[slot]] += int(table.weight[slot])
        past += np.count_nonzero((sums < DA_PORT.min_raw) | (sums > DA_PORT.max_raw))
        before = [words(net.state, i) for i in range(net.size)]
        net.step()
        assert DA_PORT.min_raw <= passed[-1].min() and passed[-1].max() <= DA_PORT.max_raw
        assert np.array_equal(quantize_raw(passed[-1]), quantize_raw(sums))
        for i, start in enumerate(before):
            want, _ = step_fixed(start, Fixed(int(quantize_raw(sums[i])), DA_FMT), alpha_fixed())
            assert words(net.state, i) == want
    assert past > 20
