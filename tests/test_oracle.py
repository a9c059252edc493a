"""The compiled schedule against an independent definition of it: a naive
interpreter that runs each op as the schedule text states it, on Python
ints, and saturates every write to its destination's format.  It has no
interval analysis and no rewrites, so every clip the compiler drops, every
op it hoists, fuses or sinks and every select it skips is checked here."""

from importlib import resources

import numpy as np
import pytest

from neurocore import network
from neurocore.fxp import DA_FMT, DA_PORT, REG_FMT
from neurocore.schedule import (
    ARRAYS,
    CONSTANTS,
    FIELD_FORMATS,
    INPUTS,
    INTS,
    KQ_FRAC,
    compile_schedule,
    parse_schedule,
)

TEXT = resources.files("neurocore").joinpath("data/izhikevich_schedule.txt").read_text()


# each op's unsaturated result from its operands' values, as the text states it
ARITHMETIC = {
    "mov": lambda x: x[0], "add": lambda x: x[0] + x[1], "sub": lambda x: x[0] - x[1],
    "mul": lambda x: x[0] * x[1] // 4096, "mulw": lambda x: x[0] * x[1] // 2**KQ_FRAC,
    "shl": lambda x: x[0] * 2 ** x[1], "shr": lambda x: x[0] // 2 ** x[1],
    "gt": lambda x: int(x[0] > x[1]), "sel": lambda x: x[1] if x[0] else x[2],
}


def interpret(schedule, values: dict, results=("$spk",)) -> tuple:
    """The fields in ``FIELD_FORMATS`` order and the ``results`` registers
    after one step of ``schedule`` from ``values``, the raw of every field
    and input."""
    values = {**values, **CONSTANTS}
    for block in schedule.blocks:
        for op in block.ops:
            x = [int(s) if s.isdigit() else values[s] for s in op.sources]
            fmt = FIELD_FORMATS.get(op.dest, REG_FMT)
            low, high = fmt.min_raw, fmt.max_raw
            if op.mnemonic == "rnd":  # to whole DA_FMT units, ties away from zero, and their range
                unit = 2 ** (12 - DA_FMT.frac_bits)
                units, rest = divmod(abs(x[0]), unit)
                result = (units + (2 * rest >= unit)) * unit * (-1 if x[0] < 0 else 1)
                low, high = max(low, DA_FMT.min_raw * unit), min(high, DA_FMT.max_raw * unit)
            else:
                result = ARITHMETIC[op.mnemonic](x)
            values[op.dest] = min(max(result, low), high)
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
    """``step`` and its ``hoist`` on ``args``, every field and input in order."""
    fixed = [x for name, x in args.items() if name in FIELD_FORMATS or name[0] == "@"]
    return step(*args.values(), *step.hoist(*fixed))


def rows(got, n: int) -> list[tuple]:
    """The outputs of an array form, one tuple of Python ints per neuron."""
    return list(zip(*(np.broadcast_to(x, n).tolist() for x in got)))


def mutant(line: str) -> str:
    """The shipped text with ``line`` inserted after the write of isyn."""
    anchor = "op: mov isyn <- $isyn\n"
    return TEXT.replace(anchor, f"{anchor}op: {line}\n")


# each text and the registers its step returns: the shipped text; the two
# ops whose one-call clip once ran on Python ints, a field written in
# ``step`` and a register computed in ``hoist``; and a rounding that can
# saturate, as the port's range keeps the shipped one from doing
SCHEDULES = {"shipped": (TEXT, ("$spk",)),
             "field-of-inputs": (mutant("sub isyn <- @alpha, @beta"), ("$spk",)),
             "register-of-inputs": (mutant("sub $k <- @alpha, @beta"), ("$spk", "$k")),
             "saturating-rnd": (mutant("rnd $k <- $decay"), ("$spk", "$k"))}


@pytest.mark.parametrize("name", SCHEDULES)
@pytest.mark.parametrize("inputs", [INPUTS, network.STEP_INPUTS], ids=["full-range", "network"])
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
    want = [interpret(schedule, state, results) for state in states]
    ints = compile_schedule(schedule, INTS, results, inputs)
    assert [run(ints, state) for state in states[::4]] == want[::4]
    arrays = compile_schedule(schedule, ARRAYS, results, inputs)
    assert rows(run(arrays, values), n * batches) == want
    for b in range(batches):  # one Python int per group input, as step_fixed_batch's defaults
        part = slice(b * n, (b + 1) * n)
        args = {k: states[b * n][k] if k[0] == "@" else x[part] for k, x in values.items()}
        group = {k: x for k, x in args.items() if k[0] == "@"}
        expect = [interpret(schedule, {**state, **group}, results) for state in states[part]]
        assert rows(run(arrays, args), n) == expect


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
    for sum_q12, rounded in cases.items():
        state = {**dict.fromkeys(FIELD_FORMATS, 0), "DA": sum_q12, "@alpha": 4062, "@beta": 0,
                 "@vpeak": 0}
        assert interpret(schedule, state, results=("$da",))[-1] == rounded
        if form is ARRAYS:
            state = {k: x if k[0] == "@" else np.array([x]) for k, x in state.items()}
        assert int(np.ravel(run(step, state)[-1])[0]) == rounded
