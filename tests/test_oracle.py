"""The compiled schedule against an independent definition of it: a naive
interpreter that runs each op as the schedule text states it, on Python
ints, and saturates every write to its destination's format.  It has no
interval analysis and no rewrites, so every clip the compiler drops, every
op it hoists, fuses or sinks and every select it skips is checked here."""

from importlib import resources
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st

from neurocore import network
from neurocore.compiler import ARRAYS, INTS, compile_schedule, plan_schedule
from neurocore.fxp import DA_FMT, DA_PORT, REG_FMT, encode
from neurocore.neuron import encode_neuron
from neurocore.regimes import REGIME_INPUTS, REGIME_PARAMS
from neurocore.schedule import (
    CONSTANTS,
    FIELD_FORMATS,
    FIELD_LAYOUT,
    INPUTS,
    KQ_FRAC,
    Block,
    BlockSchedule,
    Op,
    ScheduleError,
    parse_schedule,
)

TEXT = resources.files("neurocore").joinpath("data/izhikevich_schedule.txt").read_text()


def _round(x: list) -> int:
    """To whole ``DA_FMT`` units at Q12, ties away from zero."""
    unit = 2 ** (12 - DA_FMT.frac_bits)
    units, rest = divmod(abs(x[0]), unit)
    return (units + (2 * rest >= unit)) * unit * (-1 if x[0] < 0 else 1)


# each op's unsaturated result from its operands' values, as the text states it
ARITHMETIC = {
    "mov": lambda x: x[0], "add": lambda x: x[0] + x[1], "sub": lambda x: x[0] - x[1],
    "mul": lambda x: x[0] * x[1] // 4096, "mulw": lambda x: x[0] * x[1] // 2**KQ_FRAC,
    "shl": lambda x: x[0] * 2 ** x[1], "shr": lambda x: x[0] // 2 ** x[1],
    "gt": lambda x: int(x[0] > x[1]), "sel": lambda x: x[1] if x[0] else x[2], "rnd": _round,
}


def ops_of(schedule) -> list[tuple]:
    """Each op of ``schedule`` as its arithmetic, destination, operands (a
    name or a literal's value) and the range its write saturates to: its
    destination's, and for ``rnd`` also that of whole ``DA_FMT`` units.  A
    test looks them up once per schedule, not once per interpreted step."""
    ops = []
    for op in (op for block in schedule.blocks for op in block.ops):
        fmt = FIELD_FORMATS.get(op.dest, REG_FMT)
        low, high = fmt.min_raw, fmt.max_raw
        if op.mnemonic == "rnd":
            unit = 2 ** (12 - DA_FMT.frac_bits)
            low, high = max(low, DA_FMT.min_raw * unit), min(high, DA_FMT.max_raw * unit)
        sources = [int(s) if s.isdigit() else s for s in op.sources]
        ops.append((ARITHMETIC[op.mnemonic], op.dest, sources, low, high))
    return ops


def interpret(ops: list[tuple], values: dict, results=("$spk",)) -> tuple:
    """The fields in ``FIELD_FORMATS`` order and the ``results`` registers
    after one step of a schedule, its ``ops_of``, from ``values``, the raw
    of every field and input: each op as the text states it, its write
    saturated."""
    values = {**values, **CONSTANTS}
    for arithmetic, dest, sources, low, high in ops:
        result = arithmetic([values[s] if isinstance(s, str) else s for s in sources])
        values[dest] = min(max(result, low), high)
    return (*(values[name] for name in FIELD_FORMATS), *(values[name] for name in results))


def ends_weighted(rng, low, high, n):
    """``n`` values over [low, high], a third of them on or next to its ends."""
    values = rng.integers(low, high + 1, n)
    near = rng.random(n) < 1 / 3
    values[near] = np.clip(rng.choice([low, low + 1, high - 1, high], near.sum()), low, high)
    return values


def draw_inputs(rng, inputs, n):
    """``n`` states: every field and input over its range, ends weighted;
    a third of the DA sums lie on or next to a rounding tie."""
    spans = {name: (x, x) if isinstance(x, int) else (x.min_raw, x.max_raw)
             for name, x in {**FIELD_FORMATS, **inputs}.items()}
    values = {name: ends_weighted(rng, *span, n) for name, span in spans.items()}
    ties = rng.random(n) < 1 / 3
    da = rng.integers(DA_PORT.min_raw // 512, DA_PORT.max_raw // 512, ties.sum()) * 512
    da += rng.choice([-257, -256, -255, 255, 256, 257], ties.sum())
    values["DA"][ties] = da.clip(DA_PORT.min_raw, DA_PORT.max_raw)
    return values


def run(step, args: dict) -> tuple:
    """``step`` and its ``hoist`` on ``args``, every field and input in order;
    asserts that nothing passed in, ``hoist``'s values included, is written,
    and that ``step.update``, where the form has one, stores the same fields
    into an object."""
    fixed = [x for name, x in args.items() if name in FIELD_FORMATS or name[0] == "@"]
    passed = (*args.values(), *step.hoist(*fixed))
    before = [np.copy(x) for x in passed]
    got = step(*passed)
    assert all(np.array_equal(x, b) for x, b in zip(passed, before, strict=True))
    if step.update is None:
        return got
    n = len(FIELD_FORMATS)
    state = SimpleNamespace(**dict(zip(FIELD_FORMATS, passed)))
    results = step.update(state, *passed[n:])
    assert all(np.array_equal(x, b) for x, b in zip(passed, before, strict=True))
    stored = [*vars(state).values(), *(results if len(got) > n + 1 else [results])]
    assert all(np.array_equal(x, y) for x, y in zip(stored, got, strict=True))
    return got


def stepped(ops, step, state: dict, results, k: int) -> list[tuple]:
    """``k`` interpreter steps of ``ops``, ``k`` calls of the int form's
    ``step`` and its ``loop`` over ``k`` steps, each step from ``state`` with
    the fields the last returned: asserts that all three agree, that the
    loop records each step's ``v`` and the steps whose first result is set,
    and that a loop of no steps returns the fields as given and each result
    None or hoisted.  Returns the interpreter's outputs, one tuple per step."""
    n = len(FIELD_FORMATS)
    fields = [state[name] for name in FIELD_FORMATS]
    ins = [x for name, x in state.items() if name not in FIELD_FORMATS]
    hoisted = step.hoist(*fields, *(x for name, x in state.items() if name[0] == "@"))
    want, values, got = [], dict(state), fields
    for _ in range(k):
        want.append(interpret(ops, values, results))
        values.update(zip(FIELD_FORMATS, want[-1]))
        got = step(*got[:n], *ins, *hoisted)
        assert got == want[-1]
    vs, spikes = [], []
    assert step.loop(*fields, *ins, *hoisted, k, vs, spikes) == want[-1]
    assert vs == [out[list(FIELD_FORMATS).index("v")] for out in want]
    assert spikes == [t for t, out in enumerate(want) if out[n]]
    none = step.loop(*fields, *ins, *hoisted, 0, vs, spikes)
    assert none[:n] == tuple(fields) and all(x is None or x in hoisted for x in none[n:])
    return want


def rows(got, n: int) -> list[tuple]:
    """The outputs of an array form, one tuple of Python ints per neuron."""
    return list(zip(*(np.broadcast_to(x, n).tolist() for x in got)))


def mutant(line: str, after: str = "mov isyn <- $isyn") -> str:
    """The shipped text with ``line`` inserted after the op ``after``, by
    default the write of isyn."""
    anchor = f"op: {after}\n"
    return TEXT.replace(anchor, f"{anchor}op: {line}\n")


# each text and the registers its step returns: the shipped text; the two
# ops whose one-call clip once ran on Python ints, a field written in
# ``step`` and a register computed in ``hoist``; a rounding that can
# saturate, as the port's range keeps the shipped one from doing; and three
# that an op writing into an array some later op still reads would break: a
# copy read after its source is rewritten, a temporary a sunk op reads at
# its select after another op last read it, and a select's else operand
# read after the select; and a register of DA and a field the schedule
# writes, which a loop must compute every step, read by a returned one; a
# constant only after its clip (2**37 saturates) that a kept clip reads,
# subtracted from $decay (0, a constant, in the regime form); and
# isyn, written from a value the call fixes, read before that write by a
# product that does not fold to 0, so a loop must write it every step; a
# value the call fixes that only a select each step reads as its x, one of
# whose operands the call rewrites after that select; a skipped select that
# only another one, on another flag, reads as its x; a skipped select that
# writes its flag, before another on that flag; and one that runs in a later
# select's branch, standing between two on one flag, on a value (v) that is
# rewritten before that later select; and one case for each rewrite the
# cases above do not reach: a product whose clip binds (DA * DA), shifted
# in place, which may not fuse past that clip; a select of an int and a flag,
# on a flag each sub-batch fixes, which may not skip to the flag (numpy adds
# bools as or); and a temporary read after its operand is rewritten, which
# may not be written inside its reader
SCHEDULES = {"shipped": (TEXT, ("$spk",)),
             "field-of-inputs": (mutant("sub isyn <- @alpha, @beta"), ("$spk",)),
             "register-of-inputs": (mutant("sub $k <- @alpha, @beta"), ("$spk", "$k")),
             "saturating-rnd": (mutant("rnd $k <- $decay"), ("$spk", "$k")),
             "copy-of-rewritten": (mutant("add $t <- $decay, $da\nop: mov $c <- $t\n"
                                          "op: add $t <- $t, @one"), ("$spk", "$c", "$t")),
             "sunk-read": (mutant("add $x <- $decay, @one\nop: add $w <- $x, $x\n"
                                  "op: add $z <- $x, $da\nop: gt $f <- $z, $decay\n"
                                  "op: sel $r <- $f, $w, $z"), ("$spk", "$r")),
             "else-read-after": (mutant("add $y <- $decay, @one\nop: gt $g <- $y, $isyn\n"
                                        "op: sel $s <- $g, $da, $y\nop: add $q <- $y, $s"),
                                 ("$spk", "$s", "$q")),
             "of-a-written-field": (mutant("add $w <- $da, isyn\nop: mov $x <- $w"),
                                    ("$spk", "$x")),
             "folded-into-a-clip": (mutant("shl $k <- @one, 25\nop: add $m <- $k, $da\n"
                                           "op: sub $n <- $decay, $m"), ("$spk", "$n")),
             "read-before-fixed-write": (mutant("mul $w <- @klin, isyn", "add $isyn <- $decay, $da"),
                                         ("$spk", "$w")),
             "call-fixed-x-of-a-step-select": (
                 mutant("add $x <- $da, @one\nop: sel $y <- $post, $x, u\nop: add $da <- $da, @one",
                        "gt $post <- v, @vpeak"), ("$spk", "$y")),
             "sunk-skip-select": (mutant("sel $z <- $pre, $da, v\nop: sel $w <- $post, $z, u",
                                         "gt $post <- v, @vpeak"), ("$spk", "$w")),
             "select-writes-its-flag": (
                 mutant("mov $f <- $post\nop: sel $f <- $f, $pre, $f\nop: sel $q <- $f, $da, v",
                        "gt $post <- v, @vpeak"), ("$spk", "$q")),
             "held-between-selects": (
                 mutant("sel $z <- $post, $da, v", "sel v <- $post, $c, v").replace(
                     "op: sel $spk <- $pre, $pre, $post\n",
                     "op: sel $spk <- $pre, $pre, $post\nop: sel $w <- $pre, $z, u\n"),
                 ("$spk", "$w")),
             "clip-before-a-shift": (mutant("mul $t <- DA, DA\nop: shr $t <- $t, 2"), ("$spk", "$t")),
             "int-or-flag": (mutant("gt $f <- @alpha, @beta\nop: gt $y <- isyn, @one\n"
                                    "op: sel $z <- $f, isyn, $y\nop: add $x <- $z, $z"), ("$spk", "$x")),
             "read-after-its-operand-rewritten": (
                 mutant("add $x <- isyn, @one\nop: shr $t <- $x, 1\nop: add $x <- $x, @one\n"
                        "op: add $y <- $x, $x\nop: sub $q <- $t, $y"), ("$spk", "$q"))}
# the input ranges of the three compiled forms the package runs
RANGES = {"full-range": INPUTS, "network": network.STEP_INPUTS, "regimes": REGIME_INPUTS}


@pytest.mark.parametrize("name", SCHEDULES)
@pytest.mark.parametrize("inputs", RANGES.values(), ids=RANGES)
def test_compiled_forms_equal_the_interpreter(name, inputs):
    """``INTS`` on Python ints, and ``ARRAYS`` with the group inputs as
    per-neuron arrays and as Python ints, each with its ``hoist``, equal the
    interpreter on states drawn over every range."""
    text, results = SCHEDULES[name]
    schedule = parse_schedule(text)
    rng = np.random.default_rng(20261019)
    n, batches = 200, 8
    values = draw_inputs(rng, inputs, n * batches)
    states = [dict(zip(values, state)) for state in zip(*(x.tolist() for x in values.values()))]
    ops = ops_of(schedule)
    want = [interpret(ops, state, results) for state in states]
    ints = compile_schedule(schedule, INTS, results, inputs)
    assert [run(ints, state) for state in states[::4]] == want[::4]
    arrays = compile_schedule(schedule, ARRAYS, results, inputs)
    assert rows(run(arrays, values), n * batches) == want
    for b in range(batches):  # one Python int per group input, as step_fixed_batch's defaults
        part = slice(b * n, (b + 1) * n)
        args = {k: states[b * n][k] if k[0] == "@" else x[part] for k, x in values.items()}
        group = {k: x for k, x in args.items() if k[0] == "@"}
        expect = [interpret(ops, {**state, **group}, results) for state in states[part]]
        assert rows(run(arrays, args), n) == expect


@pytest.mark.parametrize("name, inputs", [
    *(pytest.param(name, INPUTS, id=name) for name in SCHEDULES),
    *(pytest.param(name, REGIME_INPUTS, id=f"regimes-{name}") for name in SCHEDULES)])
def test_loop_equals_repeated_steps(name, inputs):
    """The int form's ``loop`` over ``k`` steps, compiled for ``inputs``,
    equals ``k`` calls of its ``step`` and ``k`` interpreter steps (what it
    runs once before its steps included): on drawn states, and from the RS
    rest state driven by a constant input with v just below the peak, which
    crosses it, and with a stored v past it; both spike on their first step
    and, where the input reaches v (not where ``isyn`` is overwritten), again
    later."""
    text, results = SCHEDULES[name]
    schedule = parse_schedule(text)
    step, ops = compile_schedule(schedule, INTS, results, inputs), ops_of(schedule)
    values = draw_inputs(np.random.default_rng(20261019), inputs, 60)
    for state in zip(*(x.tolist() for x in values.values())):
        stepped(ops, step, dict(zip(values, state)), results, 4)
    fields, _, v_peak = encode_neuron(REGIME_PARAMS["RS"])
    da = encode(10.0, DA_FMT).raw << 12 - DA_FMT.frac_bits
    driven = {**vars(fields), "DA": da, "@alpha": 0, "@beta": 0, "@vpeak": v_peak}
    for v in (v_peak - 1, v_peak + 4096):
        want = stepped(ops, step, {**driven, "v": v}, results, 400)
        spiked = [t for t, out in enumerate(want) if out[len(FIELD_FORMATS)]]
        assert spiked[0] == 0 and (len(spiked) > 1 or name == "field-of-inputs")


@pytest.mark.parametrize("form", [INTS, ARRAYS], ids=["ints", "arrays"])
def test_accumulator_rounds_ties_away_from_zero(form):
    """``rnd $da <- DA``, compiled for the network's inputs, on sums next
    to ties and at the port's ends: half an accumulator unit (512) rounds
    away from zero, less rounds to the nearer unit, and the ends hold."""
    cases = {0: 0, 255: 0, 256: 512, 257: 512, 767: 512, 768: 1024, -255: 0, -256: -512,
             -257: -512, -767: -512, -768: -1024, DA_PORT.max_raw: DA_PORT.max_raw,
             DA_PORT.max_raw - 256: DA_PORT.max_raw, DA_PORT.max_raw - 257: DA_PORT.max_raw - 512,
             DA_PORT.min_raw: DA_PORT.min_raw, DA_PORT.min_raw + 256: DA_PORT.min_raw,
             DA_PORT.min_raw + 257: DA_PORT.min_raw + 512}
    schedule = parse_schedule(TEXT)
    step = compile_schedule(schedule, form, results=("$da",), inputs=network.STEP_INPUTS)
    ops = ops_of(schedule)
    for sum_q12, rounded in cases.items():
        state = {**dict.fromkeys(FIELD_FORMATS, 0), "DA": sum_q12, "@alpha": 4062, "@beta": 0,
                 "@vpeak": 0}
        assert interpret(ops, state, results=("$da",))[-1] == rounded
        if form is ARRAYS:
            state = {k: x if k[0] == "@" else np.array([x]) for k, x in state.items()}
        assert int(np.ravel(run(step, state)[-1])[0]) == rounded


ARITY = {"mov": 1, "rnd": 1, "sel": 3, **dict.fromkeys(["add", "sub", "mul", "mulw", "gt"], 2)}
# short runs of ops the compiler writes in place, copies into, sinks, fuses
# or skips: a select into its else operand; a select whose x only it reads,
# computed from a temporary (of DA, so not hoisted) another op reads after
# it; a copy whose source is rewritten; a select whose x is computed from a
# temporary rewritten before it (sunk on a held copy), written to a field,
# which every form returns; a constant only after its clip (140 << 12
# saturates) read where a clip binds; a product whose clip binds (DA * DA)
# shifted in place, which may not fuse past that clip; and a select of an
# int and a flag, which may not skip to the flag (numpy adds bools as or),
# written to a field; an add/sub chain of terms fixed each step (q, read
# before its write), once a call (DA; each step in the array form) and once
# a run (constants), which sums the last two first, and one whose link keeps
# a clip (DA << 8 saturates), across which it may not; a temporary (t) read
# by one op after its operand is rewritten, which may not be inlined into
# that reader; and a product by a constant its rescale 2^12 does not divide
# (@kquad), of an operand small enough that the product stays inside a
# field; each letter a register of its own, q a field of the block's word,
# each p a drawn operand, any other token as written
MOTIFS = (("gt f p p", "add y p p", "sel y f p y"),
          ("gt f p p", "add t DA p", "add x t t", "add y t p", "sel z f x y"),
          ("add t p p", "mov c t", "add t t p"),
          ("gt f p p", "add t q @one", "add x t q", "add t t q", "sel z f x t", "mov q z"),
          ("shl t @kbias 12", "sub y p t"), ("mul t DA DA", "shr t t 2"),
          ("gt f DA q", "gt y q p", "sel z f q y", "add x z z", "mov q x"),
          ("add t q @kbias", "sub x t DA", "add y x @one", "sub q y q"),
          ("shl t DA 8", "add x t @kbias", "sub y x @one", "shr q y 17"),
          ("add x q @one", "shr t x 1", "add x x @one", "add y x x", "sub q t y"),
          ("shr t p 16", "mul q t @kquad"))


@st.composite
def generated(draw):
    """A short schedule, one op per block, and the registers it returns, the
    last it writes and perhaps one more: each op reads fields of its block's
    word, registers written before it, inputs, constants and literals, and
    writes a register, often one it reads, or a field; a select mostly tests
    a flag and picks registers, and a motif runs now and then.  Movs, shifts
    by literals, products by ``@one`` (a quotient), ops on inputs only
    (hoisted) and selects that skip, sink or copy all occur."""
    registers, flags, ops = [], [], []
    for _ in range(draw(st.integers(1, 7))):
        word = draw(st.sampled_from([0, 1, 2]))
        fields = [name for name, (w, _, _) in FIELD_LAYOUT.items() if w == word]
        motif = draw(st.sampled_from([()] * 3 + list(MOTIFS)))
        names = dict(zip("fyxztc", draw(st.permutations([f"$r{r}" for r in range(6)]))))
        names["q"] = draw(st.sampled_from(fields))
        for line in motif or [None]:
            pool = st.sampled_from([*fields, *INPUTS, *CONSTANTS, *registers, *registers])
            if line:  # its operands mostly fields, so that its values are arrays
                mnemonic, *tokens = line.split()
                dest, *sources = [names.get(t) or (t if t != "p" else draw(
                    st.one_of(st.sampled_from(fields), pool))) for t in tokens]
            else:
                mnemonic = draw(st.sampled_from([*ARITY, "shl", "shr", "mov", "gt", "sel", "sel"]))
                if mnemonic in ("shl", "shr"):
                    sources = (draw(pool), str(draw(st.integers(0, 12))))
                elif mnemonic == "sel":
                    picks = st.sampled_from(registers) if registers else pool
                    last = st.sampled_from(registers[-1:]) if registers else pool
                    sources = (draw(st.sampled_from(flags) if flags else pool),
                               draw(st.one_of(last, picks)), draw(picks))
                else:
                    sources = tuple(draw(st.one_of(pool, st.integers(0, 9).map(str)) if i else pool)
                                    for i in range(ARITY[mnemonic]))
                dest = draw(st.sampled_from([*fields, "$r0", "$r1", "$r2", "$r3",
                                             *dict.fromkeys([sources[0], sources[-1]])]))
                if dest[0] != "$" and dest not in fields:
                    dest = "$r0"
            registers += [dest] if dest[0] == "$" else []
            flags = [f for f in flags if f != dest] + [dest] * (mnemonic == "gt" and dest[0] == "$")
            ops.append(Block(f"b{len(ops)}", word, (Op(mnemonic, dest, tuple(sources)),)))
    assume(registers)
    results = dict.fromkeys([registers[-1], *draw(st.lists(st.sampled_from(registers), max_size=1))])
    return BlockSchedule("generated", tuple(ops)), tuple(results)


@settings(derandomize=True, max_examples=105, deadline=None, report_multiple_bugs=False,
          suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow])
@given(case=generated(), inputs=st.sampled_from(list(RANGES.values())))
def test_generated_schedules_equal_the_interpreter(case, inputs):
    """Every form, ``hoist`` included, on generated schedules that the
    planner accepts, compiled for each range the package runs: ``INTS`` per
    state and its ``loop`` over three steps, ``ARRAYS`` on a batch with group
    inputs per neuron and on one neuron at a time with them as Python ints,
    where a skipped select takes either branch."""
    schedule, results = case
    try:
        plan_schedule(schedule, inputs)
    except ScheduleError:
        assume(False)
    n = 24
    values = draw_inputs(np.random.default_rng(n), inputs, n)
    states = [dict(zip(values, state)) for state in zip(*(x.tolist() for x in values.values()))]
    ops = ops_of(schedule)
    want = [interpret(ops, state, results) for state in states]
    ints = compile_schedule(schedule, INTS, results, inputs)
    assert [run(ints, state) for state in states] == want
    for state in states[:6]:
        stepped(ops, ints, state, results, 3)
    arrays = compile_schedule(schedule, ARRAYS, results, inputs)
    assert rows(run(arrays, values), n) == want
    for state, expect in zip(states, want):
        one = {k: x if k[0] == "@" else np.array([x]) for k, x in state.items()}
        assert rows(run(arrays, one), 1) == [expect]
