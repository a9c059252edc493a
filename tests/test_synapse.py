"""Dendrite accumulation, synaptic current, dopamine modulation, Poisson sources.

Accumulation is ``fxp.quantize_raw`` on the integer sum of delivered Q12
weights.  The synaptic-current and modulation steps are blocks of the
shipped schedule, so they are checked through ``neuron.step_fixed``.
"""

import copy
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, strategies as st

from neurocore import synapse
from neurocore.fxp import (
    DA_FMT,
    DDOP_FMT,
    ISYN_FMT,
    U_FMT,
    V_FMT,
    WEIGHT_FMT,
    Fixed,
    decode,
    encode,
    quantize_raw,
)
from neurocore.network import ConnectionSpec, Network, PopulationSpec
from neurocore.neuron import NeuronParams, encode_neuron, pack, step_fixed, unpack
from neurocore.synapse import PoissonSource, alpha_factor, alpha_fixed

RS = NeuronParams(a=0.02, b=0.2, c=-65, d=8)


class TestWeights:
    def test_table_weights_survive_quantisation(self):
        for w in (-7.5, -2.25, -1.5, -1.0, -0.3, 0.05, 1.125, 2.25, 5.0):
            net = Network([PopulationSpec("A", 2, params=RS)], [ConnectionSpec("A", "A", w, 1.0)])
            assert np.all(net.synapses.weight != 0)


class TestAccumulate:
    def test_no_spikes(self):
        assert int(quantize_raw(sum([]))) == 0

    def test_two_spikes_weight_five(self):
        w = encode(5.0, WEIGHT_FMT)
        acc = int(quantize_raw(w.raw + w.raw))
        assert acc == 80  # 2 * 5 * 2^3 on the 3-fraction-bit grid
        assert decode(Fixed(acc, DA_FMT)) == 10.0

    def test_small_weight_vanishes_on_grid(self):
        # round(0.05 * 8) = 0: below one accumulator LSB of 0.125
        assert int(quantize_raw(encode(0.05, WEIGHT_FMT).raw)) == 0

    def test_saturates(self):
        assert int(quantize_raw(2 * ISYN_FMT.max_raw)) == DA_FMT.max_raw

    @given(st.lists(st.integers(min_value=-30000, max_value=30000), max_size=20),
           st.randoms())
    def test_order_independent(self, raws, rnd):
        # the network adds delivered weights into per-target integer
        # accumulators, in whatever order the spikes arrive
        targets = [rnd.randrange(3) for _ in raws]
        order = list(range(len(raws)))
        rnd.shuffle(order)
        sums = []
        for sequence in (range(len(raws)), order):
            acc = np.zeros(3, dtype=np.int64)
            for i in sequence:
                np.add.at(acc, [targets[i]], raws[i])
            sums.append(quantize_raw(acc))
        assert np.array_equal(*sums)


def rest_words(i_syn=0.0, i_const=0.0, delta_dop=0.0):
    """RS at its rest point (-70, -14), where the membrane derivative is
    exactly the input current I."""
    fields, _, _ = encode_neuron(replace(RS, i_const=i_const), -70.0)
    return pack(replace(
        fields,
        u=encode(-14.0, U_FMT).raw,
        isyn=encode(i_syn, ISYN_FMT).raw,
        delta_dop=encode(delta_dop, DDOP_FMT).raw,
    ))


class TestIsynStep:
    def test_zero_stays_zero(self):
        new, _ = step_fixed(rest_words(), Fixed(0, DA_FMT), alpha_fixed())
        assert unpack(new).isyn == 0

    def test_single_spike_contributes_its_weight(self):
        acc = Fixed(int(quantize_raw(encode(5.0, WEIGHT_FMT).raw)), DA_FMT)
        new, _ = step_fixed(rest_words(), acc, alpha_fixed())
        assert unpack(new).isyn == encode(5.0, ISYN_FMT).raw

    def test_alpha_raw_value(self):
        # 1 - (1/8)/15 = 119/120, rounding to 4062 in Q12
        assert alpha_fixed().raw == 4062
        assert alpha_factor() == pytest.approx(119 / 120)

    def test_decay_is_bit_exact_and_tracks_exponential(self):
        alpha = alpha_fixed()
        zero_acc = Fixed(0, DA_FMT)
        words = rest_words(i_syn=100.0)
        expected_raw = unpack(words).isyn
        n = 400
        for _ in range(n):
            words, _ = step_fixed(words, zero_acc, alpha)
            expected_raw = (alpha.raw * expected_raw) >> 12
        i_syn = unpack(words).isyn
        assert i_syn == expected_raw
        ideal = 100.0 * (119 / 120) ** n
        assert abs(i_syn * ISYN_FMT.lsb - ideal) <= n * ISYN_FMT.lsb


def current_seen(i_const, i_syn, beta, delta_dop):
    """The total current I of one step, read off the membrane: at rest the
    update is v' = v + (I >> 3).  alpha = 1 keeps I_syn as stored, and the
    peak is out of reach so no reset hides the update."""
    words = rest_words(i_syn, i_const, delta_dop)
    new, _ = step_fixed(
        words,
        Fixed(0, DA_FMT),
        encode(1.0, ISYN_FMT),
        beta=encode(beta, DDOP_FMT),
        v_peak=Fixed(V_FMT.max_raw, V_FMT),
    )
    return (unpack(new).v - unpack(words).v) * 8 * V_FMT.lsb


class TestModulatedCurrent:
    def test_beta_zero_passes_current_through(self):
        for ddop in (-1.0, 0.0, 1.0):
            assert current_seen(5.0, 10.0, 0.0, ddop) == 15.0

    @pytest.mark.parametrize(
        "beta,expected", [(0.6, 16.0), (-0.6, 4.0)], ids=["direct", "indirect"]
    )
    def test_dopamine_scales_synaptic_current(self, beta, expected):
        # 10 * (1 +- 0.6); the encoded beta carries at most half an LSB of
        # error, and reading I off v floors it to 8 LSBs
        assert current_seen(0.0, 10.0, beta, 1.0) == pytest.approx(
            expected, abs=18 * ISYN_FMT.lsb
        )

    def test_monotone_in_delta_dop(self):
        for beta, sign in ((0.6, 1), (-0.6, -1)):
            values = [current_seen(0.0, 10.0, beta, ddop) for ddop in (-1.0, 0.0, 1.0)]
            ordered = sorted(values) if sign > 0 else sorted(values, reverse=True)
            assert values == ordered and len(set(values)) == 3

    def test_total_current_is_a_register_not_the_isyn_field(self):
        # 1500 * 1.6 exceeds the 24-bit I_syn field (2048) but not the
        # 32-bit register that carries I into the membrane update
        assert current_seen(0.0, 1500.0, 0.6, 1.0) == pytest.approx(2400.0, abs=0.5)
        assert 2400.0 > ISYN_FMT.max_raw * ISYN_FMT.lsb


class TestPoisson:
    def test_per_step_probability(self):
        src = PoissonSource("ctx", rate_hz=15.0, size=10)
        assert src.spike_probability() == pytest.approx(0.001875)

    def test_zero_rate_never_fires(self):
        src = PoissonSource("quiet", rate_hz=0.0, size=5)
        for step in range(1000):
            assert len(src.spikes_at(step, seed=1)) == 0

    def test_count_within_binomial_bounds(self):
        src = PoissonSource("ctx", rate_hz=15.0, size=20, stream_id=3)
        steps = 80_000  # ten simulated seconds
        p = src.spike_probability()
        counts = np.zeros(src.size)
        for step in range(steps):
            counts[src.spikes_at(step, seed=11)] += 1
        mean = steps * p
        bound = 4 * math.sqrt(steps * p * (1 - p))
        assert np.all(np.abs(counts - mean) <= bound)

    def test_same_seed_same_train(self):
        src = PoissonSource("ctx", rate_hz=200.0, size=50, stream_id=2)
        a = [src.spikes_at(step, seed=5).tolist() for step in range(200)]
        b = [src.spikes_at(step, seed=5).tolist() for step in range(200)]
        assert a == b

    def test_different_seed_differs(self):
        src = PoissonSource("ctx", rate_hz=200.0, size=50)
        a = [src.spikes_at(step, seed=5).tolist() for step in range(200)]
        b = [src.spikes_at(step, seed=6).tolist() for step in range(200)]
        assert a != b

    def test_rate_above_one_per_step_rejected(self):
        with pytest.raises(ValueError):
            PoissonSource("too-fast", rate_hz=9000.0, size=1)

    def test_nan_rate_rejected(self):
        # a NaN passes both range checks and would fail only at the first draw
        with pytest.raises(ValueError, match="^rate_hz = nan is not finite$"):
            PoissonSource("nan", rate_hz=float("nan"), size=1)

    @pytest.mark.parametrize("stream_id", [-1, 2**64])
    def test_stream_id_outside_64_bits_rejected(self, stream_id):
        # it keys the Philox generator, which would fail only at the first draw
        with pytest.raises(ValueError, match=rf"^stream_id must lie in .*, got {stream_id}$"):
            PoissonSource("x", 10.0, 5, stream_id=stream_id)


def fresh_draw(source, step, seed):
    """``spikes_at`` as a fresh generator per call computes it."""
    bitgen = np.random.Philox(
        key=np.array([seed, source.stream_id], dtype=np.uint64),
        counter=np.array([0, 0, 0, step], dtype=np.uint64),
    )
    draws = np.random.Generator(bitgen).random(source.size)
    return np.flatnonzero(draws < source.spike_probability())


class TestKeptGenerator:
    """One kept generator per source, reset for every step it draws, and a
    block of steps drawn per refill: every call returns what a fresh
    generator per call would."""

    @staticmethod
    def check(src, steps, seed=5):
        for step in steps:
            got = src.spikes_at(step, seed)
            assert np.array_equal(got, fresh_draw(src, step, seed)), step
            assert not got.flags.writeable  # served rows stay as drawn

    @pytest.mark.parametrize("size", [1, 3, 5, 100, synapse._BLOCK_NUMBERS + 1])
    def test_steps_in_order_reversed_and_repeated(self, size):
        # sizes that are not multiples of 4 leave draws in Philox's buffer;
        # the largest size draws one step per block
        src = PoissonSource("ctx", rate_hz=4000.0, size=size, stream_id=2)
        rows = max(1, synapse._BLOCK_NUMBERS // size)
        edges = [rows - 1, rows, rows + 1, 2 * rows - 1, 2 * rows, 3 * rows + 7]
        steps = [*range(45), *edges, *reversed(range(45)), *reversed(edges), 7, 7, 7, 8]
        self.check(src, [*steps, 2**40, 2**40 + rows - 1, 2**40 - 1, 2**63])

    def test_seed_switch_mid_block(self):
        src = PoissonSource("ctx", rate_hz=4000.0, size=5, stream_id=1)
        for step in range(20):
            for seed in (1, 2, 1):
                self.check(src, [step], seed)

    def test_last_counter_clamps_the_block(self):
        last = 2**64 - 1
        src = PoissonSource("ctx", rate_hz=4000.0, size=3, stream_id=4)
        self.check(src, [last - 2, last - 1, last, last - 5, last, last - 1])
        # a step the counter cannot hold fails as a fresh generator would
        with pytest.raises(OverflowError):
            fresh_draw(src, last + 1, 5)
        with pytest.raises(OverflowError):
            src.spikes_at(last + 1, seed=5)
        self.check(src, [last])

    def test_sources_and_seeds_interleaved(self):
        sources = [
            PoissonSource("a", rate_hz=6000.0, size=5, stream_id=0),
            PoissonSource("b", rate_hz=3000.0, size=3, stream_id=1),
        ]
        for step in range(30):
            for seed in (1, 2):
                for src in sources:
                    assert np.array_equal(src.spikes_at(step, seed), fresh_draw(src, step, seed))

    def test_deep_copy_draws_the_same(self):
        # the benchmark deep-copies built networks, sources included
        src = PoissonSource("ctx", rate_hz=4000.0, size=5, stream_id=3)
        src.spikes_at(11, seed=1)  # leaves a block behind in the original
        twin = copy.deepcopy(src)
        assert twin == src
        for step in (12, 0, 11, 3, 2**40, 13):
            want = fresh_draw(src, step, 1)
            assert np.array_equal(twin.spikes_at(step, seed=1), want)
            assert np.array_equal(src.spikes_at(step, seed=1), want)

    def test_deep_copy_mid_block_is_independent(self):
        src = PoissonSource("ctx", rate_hz=4000.0, size=5, stream_id=3)
        src.spikes_at(20, seed=1)
        twin = copy.deepcopy(src)
        self.check(twin, [21, 22], seed=2)  # the twin refills at another seed
        self.check(src, [21, 22, 23], seed=1)  # the original still serves its block
        self.check(twin, [24], seed=1)


@pytest.mark.parametrize(
    "p", [1.0, 1 - 2**-53, 0.5, 1 / 3, 0.001875, 5e-324], ids=str
)
def test_raw_limit_is_the_random_compare(p):
    # numpy's Philox random() is (raw >> 11) * 2**-53: a raw draw at most the
    # limit is a double below p, and the next raw up is not
    limit = synapse._raw_limit(p)
    assert (limit >> 11) * 2**-53 < p
    assert limit == 2**64 - 1 or ((limit + 1) >> 11) * 2**-53 >= p
    for key in range(200):
        raw = np.random.Philox(key=[key, 7]).random_raw(64)
        draws = np.random.Generator(np.random.Philox(key=[key, 7])).random(64)
        assert np.array_equal(raw <= limit, draws < p)
