"""Neuron dynamics: float reference, compartment words, fixed pipeline."""

import hashlib
from dataclasses import replace
from importlib import resources
from types import SimpleNamespace

import numpy as np
import pytest

from neurocore import network, neuron, regimes
from neurocore.compiler import ARRAYS, compile_schedule
from neurocore.fxp import DA_FMT, DA_PORT, DDOP_FMT, ISYN_FMT, REG_FMT, U_FMT, V_FMT, Fixed, encode
from neurocore.neuron import (
    CompartmentFields,
    NeuronParams,
    NeuronState,
    SimulationError,
    encode_neuron,
    initial_state,
    pack,
    step_fixed,
    step_fixed_batch,
    step_float,
    unpack,
)
from neurocore.schedule import FIELD_FORMATS, parse_schedule
from neurocore.synapse import alpha_fixed

RS = NeuronParams(a=0.02, b=0.2, c=-65, d=8)
FS = NeuronParams(a=0.1, b=0.2, c=-65, d=2)


def words_at(params, v, u):
    """The packed words of ``params`` at (v, u), with isyn and delta_dop 0."""
    fields, _, _ = encode_neuron(params, v)
    return pack(replace(fields, u=encode(u, U_FMT).raw))


def population(params, n, v0=None):
    """``n`` neurons at the encoded rest state of ``params``, as int64 arrays."""
    fields, _, _ = encode_neuron(params, v0)
    return CompartmentFields(**{k: np.full(n, x, dtype=np.int64) for k, x in vars(fields).items()})


def words_of(batch, i):
    """The packed words of neuron ``i`` of a population."""
    return pack(CompartmentFields(**{k: int(x[i]) for k, x in vars(batch).items()}))


def hoisting(form, *args):
    """A compiled ``form`` on ``args`` (the fields, DA and the group
    constants) and the values its ``hoist`` computes from them."""
    n = len(FIELD_FORMATS)
    return form(*args, *form.hoist(*args[:n], *args[n + 1:]))


class TestParams:
    def test_nonpositive_a_rejected(self):
        with pytest.raises(ValueError):
            NeuronParams(a=0.0, b=0.2, c=-65, d=8)

    def test_peak_below_reset_rejected(self):
        with pytest.raises(ValueError):
            NeuronParams(a=0.02, b=0.2, c=40, d=8)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
    @pytest.mark.parametrize("name", ["a", "b", "c", "d", "v_peak", "beta", "i_const"])
    def test_non_finite_rejected(self, name, value):
        # an infinite bias current would otherwise spike every step on the
        # float backend, and a NaN passes every ordered comparison
        with pytest.raises(ValueError, match=f"^{name} = {value} is not finite$"):
            replace(RS, **{name: value})


class TestStepFloat:
    def test_equilibrium_is_stationary(self):
        # (-70, -14) solves 0.04 v^2 + 4.8 v + 140 = 0 with u = b v
        state = NeuronState(v=-70.0, u=-14.0)
        new, spiked = step_float(RS, state, 0.0)
        assert not spiked
        assert new.v == -70.0
        assert new.u == -14.0

    def test_reset_replaces_update_past_peak(self):
        params = NeuronParams(a=0.02, b=0.2, c=-65, d=8, v_peak=30)
        state = NeuronState(v=31.0, u=-10.0)
        new, spiked = step_float(params, state, 0.0)
        assert spiked
        assert new.v == -65.0
        assert new.u == -2.0  # u + d, no integration on the reset path

    def test_hand_evaluated_step(self):
        state = NeuronState(v=-60.0, u=-12.0)
        new, spiked = step_float(RS, state, 10.0)
        assert not spiked
        # (0.04*3600 - 300 + 140 + 12 + 10) / 8 = 0.75
        assert new.v == pytest.approx(-59.25)
        assert new.u == pytest.approx(-12.0)  # b v = u here, du = 0

    def test_fresh_crossing_resets_same_step(self):
        params = NeuronParams(a=0.02, b=0.2, c=-65, d=8, v_peak=30)
        state = NeuronState(v=29.0, u=-10.0)
        new, spiked = step_float(params, state, 10.0)
        assert spiked
        assert new.v == -65.0

    def test_v_never_exceeds_peak_after_step(self):
        state = initial_state(RS, v0=-70.0)
        for _ in range(4000):
            state, _ = step_float(RS, state, 10.0)
            assert state.v <= RS.v_peak

    def test_non_finite_state_raises(self):
        with pytest.raises(SimulationError):
            step_float(RS, NeuronState(v=float("nan"), u=0.0), 0.0)

    def test_overflow_is_no_crossing(self):
        """0.04 v^2 overflows: ``float_update`` leaves v' inf, not reset to c
        as a spike, and ``step_float`` raises on that step, as the float
        loop does."""
        assert neuron.float_update(RS, -1e300, 0.0, 0.0)[::2] == (float("inf"), False)
        for v in (-1e160, -1e300):
            with pytest.raises(SimulationError, match="v=inf"):
                step_float(RS, NeuronState(v=v, u=0.0), 0.0)

    @pytest.mark.parametrize("kind", ["quiet", "crossing", "stored-past-peak", "overflow"])
    def test_array_form_equals_scalar_form(self, kind):
        """``float_update_batch`` gives, element by element, what
        ``float_update`` gives one neuron, NaN where it gives NaN: on quiet
        states, fresh crossings, stored v past the peak, and states whose
        ``0.04 v^2`` or sums overflow to inf or that are inf already."""
        rng, n = np.random.default_rng(24), 200
        params = list(rng.choice(list(regimes.REGIME_PARAMS.values()), n))
        p = SimpleNamespace(**{k: np.array([vars(x)[k] for x in params]) for k in "abcd"},
                            v_peak=np.array([x.v_peak for x in params]))
        v, u, current = {
            "quiet": (rng.uniform(-80, -60, n), rng.uniform(-16, -12, n), rng.uniform(0, 5, n)),
            "crossing": (rng.uniform(25, 30, n), rng.uniform(-20, 20, n), rng.uniform(40, 1e3, n)),
            "stored-past-peak": (30 + 10.0 ** rng.uniform(-6, 6, n), rng.uniform(-20, 20, n),
                                 rng.uniform(-10, 10, n)),
            "overflow": rng.choice([-np.inf, -1e300, -1.0, 1e300, 1.7e308], (3, n)),
        }[kind]
        with np.errstate(all="ignore"):
            got = neuron.float_update_batch(p, v, u, current)
        want = np.array([neuron.float_update(*args)
                         for args in zip(params, v.tolist(), u.tolist(), current.tolist())]).T
        for got_x, want_x in zip(got, want):
            assert np.array_equal(got_x, want_x, equal_nan=True)
        spiked = want[2].astype(bool)
        assert {"quiet": not spiked.any(), "crossing": spiked.all() and (v <= p.v_peak).all(),
                "stored-past-peak": spiked.all(),
                "overflow": np.isinf(want[0]).any() and np.isnan(want[0]).any()}[kind]


class TestEncodeNeuron:
    def test_rest_state_fields(self):
        fields, beta, v_peak = encode_neuron(replace(RS, i_const=5.0, beta=-0.6), -70.0)
        # u = b v by the core's multiply: 819 * -286720 >> 12, not encode(-14)
        assert fields == CompartmentFields(
            a=82, b=819, c=-266240, d=32768, isyn=0, iconst=20480, delta_dop=0,
            v=-286720, u=-57330,
        )
        assert (beta, v_peak) == (encode(-0.6, DDOP_FMT).raw, encode(30.0, V_FMT).raw)
        assert encode_neuron(RS)[0].v == encode(RS.c, V_FMT).raw


class TestCompartmentWords:
    def _random_fields(self, rng):
        def raw(width):
            return int(rng.integers(-(2 ** (width - 1)), 2 ** (width - 1)))

        return CompartmentFields(
            a=raw(16), b=raw(16), c=raw(24), d=raw(24), isyn=raw(24),
            iconst=raw(16), delta_dop=raw(16), v=raw(24), u=raw(24),
        )

    def test_roundtrip_random_fields(self):
        rng = np.random.default_rng(42)
        for _ in range(200):
            fields = self._random_fields(rng)
            assert unpack(pack(fields)) == fields

    def test_membrane_raw_sign_extended(self):
        fields = CompartmentFields(
            a=0, b=0, c=0, d=0, isyn=0, iconst=0, delta_dop=0, v=-266240, u=0
        )
        words = pack(fields)
        assert (words.word2 & 0xFFFFFF) == (-266240 & 0xFFFFFF)
        assert unpack(words).v == -266240

    def test_a_sits_in_word0_low_half(self):
        fields = CompartmentFields(
            a=819, b=0, c=0, d=0, isyn=0, iconst=0, delta_dop=0, v=0, u=0
        )
        assert pack(fields).word0 & 0xFFFF == 819

    def test_out_of_width_raw_rejected(self):
        fields = CompartmentFields(
            a=2**15, b=0, c=0, d=0, isyn=0, iconst=0, delta_dop=0, v=0, u=0
        )
        with pytest.raises(ValueError):
            pack(fields)


class TestStepFixed:
    def test_accumulator_aligned_nine_bits(self):
        # a unit on the 3-fraction-bit grid becomes a unit in Q12
        words = words_at(RS, -70.0, -14.0)
        new, _ = step_fixed(words, Fixed(8, DA_FMT), alpha=Fixed(0, ISYN_FMT))
        assert unpack(new).isyn == 4096

    def test_equilibrium_matches_float_oracle(self):
        words = words_at(RS, -70.0, -14.0)
        float_state = NeuronState(v=-70.0, u=-14.0)
        zero = Fixed(0, DA_FMT)
        alpha = alpha_fixed()
        for _ in range(1000):
            words, spiked = step_fixed(words, zero, alpha)
            float_state, _ = step_float(RS, float_state, 0.0)
            assert not spiked
        v_fixed = unpack(words).v / V_FMT.scale
        assert abs(v_fixed - float_state.v) <= V_FMT.lsb

    def test_reset_rule_exact(self):
        words = words_at(RS, 31.0, -10.0)
        new, spiked = step_fixed(words, Fixed(0, DA_FMT), alpha_fixed())
        assert spiked
        fields = unpack(new)
        assert fields.v == encode(-65.0, V_FMT).raw
        assert fields.u == encode(-10.0 + 8.0, V_FMT).raw

    def test_spike_resets_to_c_and_adds_d(self):
        words = words_at(FS, -70.0, -14.0)
        da = encode(10.0, DA_FMT)
        fired_at_c = False
        for _ in range(2000):
            before = unpack(words)
            words, spiked = step_fixed(words, da, Fixed(0, ISYN_FMT))
            after = unpack(words)
            if spiked:
                fired_at_c = True
                assert after.v == before.c
        assert fired_at_c

    def test_spike_raises_u_by_exactly_d(self):
        # same trajectory with d zeroed out isolates the reset increment
        da = encode(10.0, DA_FMT)
        zero_d = NeuronParams(a=RS.a, b=RS.b, c=RS.c, d=0.0)
        words_d = words_at(RS, -70.0, -14.0)
        words_0 = words_at(zero_d, -70.0, -14.0)
        for _ in range(2000):
            words_d, spiked_d = step_fixed(words_d, da, Fixed(0, ISYN_FMT))
            words_0, spiked_0 = step_fixed(words_0, da, Fixed(0, ISYN_FMT))
            assert spiked_d == spiked_0
            if spiked_d:
                gap = unpack(words_d).u - unpack(words_0).u
                assert gap == encode(8.0, V_FMT).raw
                break
        else:
            pytest.fail("no spike observed")

    @pytest.mark.parametrize(
        "da, alpha",
        [(Fixed(DA_PORT.max_raw + 1, REG_FMT), alpha_fixed()), (Fixed(0, DA_FMT), Fixed(1 << 24, REG_FMT))],
        ids=["da", "alpha"],
    )
    def test_input_outside_compiled_range_rejected(self, da, alpha):
        # the interval analysis dropped clips on the assumption of these ranges
        words = words_at(RS, -70.0, -14.0)
        with pytest.raises(ValueError, match="outside its compiled range"):
            step_fixed(words, da, alpha)

    def test_boundedness_under_extreme_input(self):
        words = words_at(RS, -70.0, -14.0)
        da_max = Fixed(DA_FMT.max_raw, DA_FMT)
        for _ in range(500):
            words, _ = step_fixed(words, da_max, alpha_fixed())
            fields = unpack(words)
            assert V_FMT.min_raw <= fields.v <= V_FMT.max_raw
            assert V_FMT.min_raw <= fields.u <= V_FMT.max_raw
            assert ISYN_FMT.min_raw <= fields.isyn <= ISYN_FMT.max_raw


# RS constants as raw fields: a, b, c = -65, d = 8.
_RS_RAW = dict(a=82, b=819, c=-266240, d=32768, iconst=0, delta_dop=0)

# Saturating corners of the fixed pipeline, recorded from the hand-written
# step_fixed the schedule replaced: (fields, DA raw, beta raw at REG_FMT or
# None) -> (isyn, v, u, spiked), stepped with alpha_fixed().
GOLDEN = {
    # the decayed I_syn plus the largest accumulator input clips the field
    "isyn-clip-high": ((dict(_RS_RAW, isyn=8_000_000, v=-286720, u=-57344), 32767, None),
                       (8388607, -266240, -24576, True)),
    "isyn-clip-low": ((dict(_RS_RAW, isyn=-8_000_000, v=-286720, u=-57344), -32768, None),
                      (-8388608, -1335296, -57344, False)),
    # stored v past the peak: reset, with u + d clipped to the U field
    "pre-reset-u-clip-high": ((dict(_RS_RAW, isyn=0, v=126976, u=8388507, d=8388607), 0, None),
                              (0, -266240, 8388607, True)),
    "pre-reset-u-clip-low": ((dict(_RS_RAW, isyn=0, v=8388607, u=-8388508, d=-8388608), 0, None),
                             (0, -266240, -8388608, True)),
    # fresh crossing this step, u' + d clipped
    "post-reset-u-clip": ((dict(_RS_RAW, isyn=0, v=122470, u=8383607, d=8388607, iconst=32767),
                           32767, None),
                          (8388607, -266240, 8388607, True)),
    # |beta * delta_dop| beyond the register: the dopamine gain clips
    "gain-clip-pos-beta": ((dict(_RS_RAW, isyn=1000, delta_dop=32767, v=-245760, u=-49152),
                            0, REG_FMT.max_raw),
                           (991, -266240, -16384, True)),
    "gain-clip-neg-beta": ((dict(_RS_RAW, isyn=-3, delta_dop=-32768, v=-245760, u=-49152),
                            0, REG_FMT.min_raw),
                           (-3, -444416, -49152, False)),
}


@pytest.mark.parametrize("case", GOLDEN)
def test_golden_corner_scalar(case):
    (fields, da, beta), (isyn, v, u, spiked) = GOLDEN[case]
    words, got_spike = step_fixed(
        pack(CompartmentFields(**fields)),
        Fixed(da, DA_FMT),
        alpha_fixed(),
        beta=None if beta is None else Fixed(beta, REG_FMT),
    )
    out = unpack(words)
    assert (out.isyn, out.v, out.u, got_spike) == (isyn, v, u, spiked)


@pytest.mark.parametrize("case", GOLDEN)
def test_golden_corner_batch(case):
    (fields, da, beta), (isyn, v, u, spiked) = GOLDEN[case]
    batch = CompartmentFields(**{k: np.array([x], dtype=np.int64) for k, x in fields.items()})
    got = step_fixed_batch(batch, np.array([da << 9], dtype=np.int64), alpha_fixed().raw, beta or 0)
    assert (batch.isyn[0], batch.v[0], batch.u[0], bool(got[0])) == (isyn, v, u, spiked)


def test_full_range_states_match_recorded_digest():
    """400 random states and group constants over every field's full range,
    stepped by both steppers; the digest was recorded from the hand-written
    pipeline the schedule replaced."""
    rng = np.random.default_rng(20240611)
    draw = lambda width, n: rng.integers(-(1 << (width - 1)), 1 << (width - 1), n)
    digest = hashlib.sha256()
    for _ in range(40):
        fields = {name: draw(width, 10) for name, (_, _, width) in neuron.FIELD_LAYOUT.items()}
        da = draw(16, 10)
        alpha, beta, v_peak = (int(draw(w, 1)[0]) for w in (16, 16, 24))
        batch = CompartmentFields(**{k: x.astype(np.int64) for k, x in fields.items()})
        spiked = step_fixed_batch(batch, da << 9, alpha, beta, v_peak_raw=v_peak)
        for i in range(10):
            words, s = step_fixed(
                pack(CompartmentFields(**{k: int(x[i]) for k, x in fields.items()})),
                Fixed(int(da[i]), DA_FMT),
                Fixed(alpha, ISYN_FMT),
                beta=Fixed(beta, DDOP_FMT),
                v_peak=Fixed(v_peak, V_FMT),
            )
            assert words == words_of(batch, i) and s == bool(spiked[i])
            digest.update(repr((words, s)).encode())
    assert digest.hexdigest() == "457a715d488e086a6f8276f267fd1bf43963ca8884f9382d262b37d72015eb93"


def test_network_form_is_the_shipped_schedule():
    """The array form the network runs, compiled for the input ranges its
    build enforces, equals the full-range form on every state and input in
    those ranges: the clips it drops never bind there."""
    rng = np.random.default_rng(20261018)
    n = 4000

    def draw(fmt):
        # every value over the whole range, a quarter of them on its ends
        values = rng.integers(fmt.min_raw, fmt.max_raw + 1, n)
        ends = rng.random(n) < 0.25
        values[ends] = rng.choice([fmt.min_raw, fmt.max_raw], ends.sum())
        return values

    inputs = network.STEP_INPUTS
    assert inputs["@alpha"] == alpha_fixed().raw and inputs["@beta"] is DDOP_FMT
    args = (
        *(draw(fmt) for fmt in FIELD_FORMATS.values()),
        draw(inputs["DA"]),
        inputs["@alpha"],
        draw(inputs["@beta"]),
        draw(inputs["@vpeak"]),
    )
    got = hoisting(network.step_fields_network, *args)
    want = hoisting(neuron.step_fields_batch, *args)
    for g, w in zip(got, want, strict=True):
        assert np.array_equal(g, w)


class Counted(np.ndarray):
    """An array that counts the ufuncs run on it, operators, clips and
    augmented assignments included: each call, and each call that makes a
    new array, one given no ``out``."""

    calls = allocations = 0

    def __array_ufunc__(self, ufunc, method, *inputs, out=None, **kwargs):
        Counted.calls += 1
        Counted.allocations += out is None
        plain = [x.view(np.ndarray) if isinstance(x, Counted) else x for x in inputs]
        if out is not None:
            kwargs["out"] = tuple(x.view(np.ndarray) for x in out)
        result = getattr(ufunc, method)(*plain, **kwargs)
        return out[0] if out else result.view(Counted) if isinstance(result, np.ndarray) else result


# as the network form's generated source counts them: 34 calls on a quiet
# step, 9 of them allocating (the three products that start a value, DA's
# two, the two comparisons with the peak, and the square and 5 v), one
# fewer than before ``hoist`` summed the membrane's @kbias + iconst; each
# flag's select pair runs 4 more where it is set, a masked copy into v, a
# sum into a new array (allocating), a masked copy into u and a clip; and a
# set $pre also copies it into $post for $spk: 34 + 4 + 4 + 1 = 43 calls
@pytest.mark.parametrize("kind, calls, allocations",
                         [("quiet", 34, 9), ("crossing", 38, 10), ("stored", 43, 11)],
                         ids=["quiet", "crossing", "stored-past-peak"])
def test_network_step_calls_and_allocations(monkeypatch, kind, calls, allocations):
    """The numpy calls one network step makes, counted by wrapping what the
    network form binds and every array it is given, and the calls among
    them that allocate: on a quiet step, on one where a neuron crosses the
    peak, so the two selects of ``$post`` run as masked copies, and on one
    where a neuron's stored v is past it, which sets ``$pre`` and ``$post``
    both."""
    net = network.Network([network.PopulationSpec("P", 600, params=RS)], [])
    step = network.step_fields_network
    for name in ("_where", "_count_nonzero", "_copyto"):  # the bound numpy calls that are no ufuncs
        def counting(*args, _call=step.__globals__[name], **kwargs):
            Counted.calls += 1
            Counted.allocations += _call is np.where
            result = _call(*args, **kwargs)
            return result.view(Counted) if isinstance(result, np.ndarray) else result
        monkeypatch.setitem(step.__globals__, name, counting)
    counted = lambda x: x.view(Counted) if isinstance(x, np.ndarray) else x
    state = CompartmentFields(**{k: counted(x) for k, x in vars(net.state).items()})
    da = np.zeros(600, dtype=np.int64)
    v_peak = encode(neuron.V_PEAK_DEFAULT, V_FMT).raw
    if kind == "crossing":
        state.v[7] = v_peak - 1  # crosses on this step
        da[7] = encode(100.0, DA_FMT).raw << 9
    elif kind == "stored":
        state.v[7] = v_peak + 4096
    Counted.calls = Counted.allocations = 0
    spiked = step_fixed_batch(state, counted(da), *map(counted, net._constants), compiled=step,
                              hoisted=tuple(map(counted, net._form[1])))
    assert np.flatnonzero(spiked).tolist() == ([] if kind == "quiet" else [7])
    assert (Counted.calls, Counted.allocations) == (calls, allocations)


@pytest.mark.parametrize("form, split", [
    ("regimes", {"step": 22, "call": 10, "run": 1, "constant": 3}),
    ("full-range", {"step": 29, "call": 5, "run": 2, "constant": 0}),
    ("network", {"step": 33, "call": 0, "run": 3, "constant": 0})], ids=lambda x: x)
def test_shipped_forms_split_ops_by_when_they_run(form, split):
    """The shipped schedule's 36 ops by when each compiled form runs them:
    each step, once per loop call, once per run (``hoist``) or never, a
    constant.  The regime form (``@alpha`` and ``@beta`` 0) folds ``$decay``,
    ``$mod`` and ``$gain`` and runs the synaptic path once per call; the
    array forms, with no such point, only hoist ``$mod`` and ``$gain``.  The
    membrane sum's chain sums ``@kbias + iconst`` once a run in the regime
    and network forms, and adds ``$i`` to it once per call in the regime
    form; the full-range form keeps a clip on ``$i``, so its chain stays."""
    step = {"regimes": regimes.step_regime, "full-range": neuron.step_fields,
            "network": network.step_fields_network}[form]
    assert step.split == split and sum(split.values()) == 36


@pytest.mark.parametrize("crossing", [None, 0, -1, "stored"],
                         ids=["none", "first", "last", "stored-past-peak"])
@pytest.mark.parametrize("form", ["batch", "network"])
def test_array_forms_match_scalar_when_few_flags_are_set(form, crossing):
    """Batches in which no neuron crosses, exactly the first or the last one
    does, or one holds a stored v past the peak: the array forms return a
    select's else operand where no flag is set, and still equal the scalar
    step neuron by neuron."""
    run = {"batch": neuron.step_fields_batch, "network": network.step_fields_network}[form]
    rng = np.random.default_rng(20261019)
    n = 9
    fields, beta, v_peak = encode_neuron(replace(RS, beta=0.6))
    batch = {name: np.full(n, x, dtype=np.int64) for name, x in vars(fields).items()}
    batch["v"] = rng.integers(encode(-75.0, V_FMT).raw, encode(-60.0, V_FMT).raw, n)
    batch["u"] = (batch["b"] * batch["v"]) >> 12
    batch["isyn"] = rng.integers(-4096, 4096, n)
    batch["delta_dop"][:] = encode(1.0, DDOP_FMT).raw
    if crossing == "stored":
        crossing, batch["v"][4] = 4, v_peak + 4096
    elif crossing is not None:
        batch["v"][crossing] = v_peak - 1  # just below the peak: crosses now
    da = rng.integers(-8, 8, n) << 9
    inputs = (da, alpha_fixed().raw, np.full(n, beta), np.full(n, v_peak))
    *got, spiked = hoisting(run, *batch.values(), *inputs)
    assert spiked.dtype == bool
    assert np.flatnonzero(spiked).tolist() == ([] if crossing is None else [crossing % n])
    assert len({id(x) for x in got}) == len(got)  # no two fields share an array
    for i in range(n):
        want = hoisting(neuron.step_fields, *(int(x[i]) for x in batch.values()),
                        *(int(np.broadcast_to(x, n)[i]) for x in inputs))
        assert (*(int(x[i]) for x in got), bool(spiked[i])) == want


@pytest.mark.parametrize("form", ["scalar", "batch", "network"])
def test_stored_past_peak_resets_from_u_before_the_update(form):
    """A stored v past the peak resets to c with u + d of the u the step
    started from, not of the updated u, in every form: the sum is computed
    only where some neuron is past the peak, after u has been updated."""
    fields, beta, v_peak = encode_neuron(RS)
    state = dict(vars(fields), v=v_peak + 4096, u=-40_000)
    a, b, v, u = state["a"], state["b"], state["v"], state["u"]
    assert (a * (((b * v) >> 12) - u)) >> 15  # u would move this step
    args = [*state.values(), 0, alpha_fixed().raw, beta, v_peak]
    if form != "scalar":
        args = [np.array([x], dtype=np.int64) for x in args]
    run = {"scalar": neuron.step_fields, "batch": neuron.step_fields_batch,
           "network": network.step_fields_network}[form]
    *got, spiked = hoisting(run, *args)
    got = dict(zip(FIELD_FORMATS, (int(np.ravel(x)[0]) for x in got)))
    assert (got["v"], got["u"], bool(np.ravel(spiked)[0])) == (state["c"], u + state["d"], True)


def test_schedule_text_is_what_runs(monkeypatch):
    """The shipped text, compiled afresh, reproduces both steppers, the
    network's array form and a fixed regime run's trace; one changed shift
    count in it changes all four."""
    text = resources.files("neurocore").joinpath("data/izhikevich_schedule.txt").read_text()
    mutated = text.replace("shr $dv <- $dv, 3", "shr $dv <- $dv, 4")
    assert mutated != text
    words = words_at(RS, -60.0, -12.0)
    batch = population(RS, 3, v0=-60.0)
    da = encode(10.0, DA_FMT)

    def run_all(network_form):
        scalar = step_fixed(words, da, alpha_fixed())
        trials = [CompartmentFields(**vars(batch)) for _ in range(2)]
        step_fixed_batch(trials[0], np.full(3, da.raw << 9), alpha_fixed().raw)
        step_fixed_batch(trials[1], np.full(3, da.raw << 9), alpha_fixed().raw,
                         compiled=network_form)
        trace = regimes.run_single(RS, regimes.constant_current(10.0, 20.0), "fixed").v_mv
        return scalar, trials[0].v.tolist(), trials[1].v.tolist(), trace.tolist()

    shipped = run_all(network.step_fields_network)
    for source, same in ((text, True), (mutated, False)):
        schedule = parse_schedule(source)
        monkeypatch.setattr(neuron, "step_fields", compile_schedule(schedule))
        monkeypatch.setattr(neuron, "step_fields_batch", compile_schedule(schedule, ARRAYS))
        monkeypatch.setattr(regimes, "step_regime",
                            compile_schedule(schedule, inputs=regimes.REGIME_INPUTS))
        network_form = compile_schedule(schedule, ARRAYS, inputs=network.STEP_INPUTS)
        for got, want in zip(run_all(network_form), shipped, strict=True):
            assert (got == want) is same


class TestBatchAgreesWithScalar:
    def test_bit_exact_over_random_states(self):
        rng = np.random.default_rng(7)
        n = 64
        batch = population(RS, n)
        batch.v = rng.integers(-400_000, 130_000, n).astype(np.int64)
        batch.u = rng.integers(-100_000, 100_000, n).astype(np.int64)
        batch.isyn = rng.integers(-80_000, 80_000, n).astype(np.int64)
        batch.delta_dop = np.full(n, encode(1.0, DA_FMT).raw << 9, dtype=np.int64)
        alpha = alpha_fixed()
        beta = encode(0.6, ISYN_FMT)
        da = rng.integers(-64, 64, n).astype(np.int64)

        scalar_words = [words_of(batch, i) for i in range(n)]
        for step in range(50):
            spiked = step_fixed_batch(
                batch, da << 9, alpha.raw, beta.raw
            )
            for i in range(n):
                scalar_words[i], scalar_spiked = step_fixed(
                    scalar_words[i], Fixed(int(da[i]), DA_FMT), alpha, beta=beta
                )
                assert scalar_spiked == bool(spiked[i]), (step, i)
                assert scalar_words[i] == words_of(batch, i), (step, i)


class TestBackendAgreement:
    @pytest.mark.parametrize("params", [RS, FS], ids=["RS", "FS"])
    def test_first_spike_within_two_steps(self, params):
        state = initial_state(params, v0=-70.0)
        batch = population(params, 1, v0=-70.0)
        da = np.array([encode(10.0, DA_FMT).raw << 9], dtype=np.int64)
        first_float = first_fixed = None
        for t in range(8000):
            if first_float is None:
                state, spiked = step_float(params, state, 10.0)
                if spiked:
                    first_float = t
            if first_fixed is None:
                if step_fixed_batch(batch, da, alpha_raw=0)[0]:
                    first_fixed = t
            if first_float is not None and first_fixed is not None:
                break
        assert first_float is not None and first_fixed is not None
        assert abs(first_float - first_fixed) <= 2
