"""Block schedules: the microcode of the neurocore, its validator and its
compiler.

A schedule is an ordered list of computation blocks.  Each block may access
fields from at most one compartment-state word; values needed across words
are spilled through registers.  Identifier conventions in the ops:

    bare name   compartment-state field (``v``, ``u``, ``a`` ...)
    ``$name``   register
    ``@name``   group-level constant
    ``DA``      the dendrite-accumulator input port
    digits      a literal (shift counts)

The shipped schedule, ``data/izhikevich_schedule.txt``, *is* the fixed-point
Izhikevich arithmetic: :func:`compile_schedule` turns it into closures, and
:mod:`neurocore.neuron` runs them on one compartment's unpacked words and on
whole populations.  The ops are ``mov``, ``add``, ``sub``, ``mul`` (product
``>> 12``), ``mulw`` (product ``>> KQ_FRAC``), ``shl``, ``shr`` (arithmetic),
``gt`` (a 0/1 flag) and ``sel d <- f, x, y`` (``x`` if ``f`` else ``y``).
Every write saturates to its destination, a field to its ``FIELD_FORMATS``
format and a register to ``REG_FMT``, except where an interval analysis
shows the clip can never bind.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from importlib import resources

from .fxp import (
    AB_FMT,
    CD_FMT,
    DDOP_FMT,
    ICONST_FMT,
    ISYN_FMT,
    Q12,
    REG_FMT,
    U_FMT,
    V_FMT,
    FixedFormat,
)

# (word index, bit offset, format) of each compartment-state field.  Fields
# are as wide as their formats, packed LSB-first in two's complement and
# sign-extended on unpack.
_FIELDS = {
    "a": (0, 0, AB_FMT),
    "b": (0, 16, AB_FMT),
    "isyn": (0, 32, ISYN_FMT),
    "c": (1, 0, CD_FMT),
    "d": (1, 24, CD_FMT),
    "delta_dop": (1, 48, DDOP_FMT),
    "v": (2, 0, V_FMT),
    "u": (2, 24, U_FMT),
    "iconst": (2, 48, ICONST_FMT),
}
FIELD_LAYOUT = {name: (word, offset, fmt.width) for name, (word, offset, fmt) in _FIELDS.items()}
FIELD_FORMATS = {name: fmt for name, (_, _, fmt) in _FIELDS.items()}

# The quadratic coefficient is a group-level register constant, so it is not
# bound to the 12-fraction-bit state convention.  It is held at 24 fraction
# bits: at Q12 the coefficient error alone (164/4096 = 0.040039) visibly
# accelerates the membrane trajectory relative to the float reference.  The
# shipped schedule squares v first, so the wide constant scales a positive
# register value.
KQ_FRAC = 24

INPUT_PORTS = frozenset({"DA"})


class ScheduleError(ValueError):
    """Malformed schedule: unparseable text, an unknown identifier or op, or
    an op that cannot run."""


@dataclass(frozen=True)
class Op:
    """One abstract instruction: ``mnemonic dest <- source, source ...``."""

    mnemonic: str
    dest: str
    sources: tuple[str, ...]

    def render(self) -> str:
        return f"{self.mnemonic} {self.dest} <- {', '.join(self.sources)}"


@dataclass(frozen=True)
class Block:
    name: str
    word: int | None
    ops: tuple[Op, ...]

    def identifiers(self):
        for op in self.ops:
            yield op.dest
            yield from op.sources


@dataclass(frozen=True)
class BlockSchedule:
    name: str
    blocks: tuple[Block, ...]


@dataclass(frozen=True)
class Violation:
    """A block whose field accesses span more than one state word."""

    block: str
    words: frozenset[int]

    def describe(self) -> str:
        words = ", ".join(str(w) for w in sorted(self.words))
        return f"block {self.block!r} touches state words {{{words}}}"


def _field_words(block: Block) -> set[int]:
    words: set[int] = set()
    for ident in block.identifiers():
        if ident.startswith(("$", "@")) or ident in INPUT_PORTS:
            continue
        token = ident.split(",")[0].strip()
        if token.isdigit():  # literal shift count
            continue
        if token not in FIELD_LAYOUT:
            raise ScheduleError(
                f"unknown state field {token!r} in block {block.name!r}"
            )
        words.add(FIELD_LAYOUT[token][0])
    return words


def validate_schedule(schedule: BlockSchedule) -> list[Violation]:
    """Return one violation per block that touches more than one state word.

    A block whose declared word disagrees with the fields it references is
    reported as touching both.
    """
    violations = []
    for block in schedule.blocks:
        words = _field_words(block)
        if block.word is not None and words:
            words = words | {block.word}
        if len(words) > 1:
            violations.append(Violation(block=block.name, words=frozenset(words)))
    return violations


# ---------------------------------------------------------------------------
# Line-oriented text serialization
# ---------------------------------------------------------------------------

def render_schedule(schedule: BlockSchedule) -> str:
    lines = [f"schedule: {schedule.name}", ""]
    for block in schedule.blocks:
        lines.append(f"block: {block.name}")
        lines.append(f"word: {'-' if block.word is None else block.word}")
        for op in block.ops:
            lines.append(f"op: {op.render()}")
        lines.append("")
    return "\n".join(lines)


def parse_schedule(text: str) -> BlockSchedule:
    name = ""
    blocks: list[Block] = []
    current: dict | None = None

    def flush() -> None:
        nonlocal current
        if current is not None:
            blocks.append(
                Block(current["name"], current["word"], tuple(current["ops"]))
            )
            current = None

    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.strip()
        if not line or line.startswith("#"):
            continue
        if ":" not in line:
            raise ScheduleError(f"line {lineno}: expected 'key: value', got {line!r}")
        key, _, value = line.partition(":")
        key, value = key.strip(), value.strip()
        if key == "schedule":
            name = value
        elif key == "block":
            flush()
            current = {"name": value, "word": None, "ops": []}
        elif key == "word":
            if current is None:
                raise ScheduleError(f"line {lineno}: 'word' outside a block")
            try:
                current["word"] = None if value == "-" else int(value)
            except ValueError:
                raise ScheduleError(
                    f"line {lineno}: word must be a number or '-', got {value!r}"
                ) from None
        elif key == "op":
            if current is None:
                raise ScheduleError(f"line {lineno}: 'op' outside a block")
            current["ops"].append(_parse_op(value, lineno))
        else:
            raise ScheduleError(f"line {lineno}: unknown key {key!r}")
    flush()
    return BlockSchedule(name=name, blocks=tuple(blocks))


def _parse_op(text: str, lineno: int) -> Op:
    head, sep, rest = text.partition("<-")
    if not sep:
        raise ScheduleError(f"line {lineno}: op missing '<-': {text!r}")
    head_parts = head.split()
    if len(head_parts) != 2:
        raise ScheduleError(f"line {lineno}: expected 'mnemonic dest <- ...': {text!r}")
    sources = tuple(s.strip() for s in rest.split(",") if s.strip())
    return Op(mnemonic=head_parts[0], dest=head_parts[1], sources=sources)


def izhikevich_schedule() -> BlockSchedule:
    """The shipped schedule: the fixed-point Izhikevich arithmetic."""
    text = resources.files("neurocore").joinpath("data/izhikevich_schedule.txt").read_text()
    return parse_schedule(text)


# ---------------------------------------------------------------------------
# Compiler
# ---------------------------------------------------------------------------

_BINARY = {
    "add": operator.add,
    "sub": operator.sub,
    "mul": lambda x, y: (x * y) >> Q12,
    "mulw": lambda x, y: (x * y) >> KQ_FRAC,
    "shl": operator.lshift,
    "shr": operator.rshift,
    "gt": operator.gt,
}
_ARITY = {"mov": 1, "sel": 3, **dict.fromkeys(_BINARY, 2)}


def _saturate_int(fmt: FixedFormat):
    """Saturation to ``fmt`` on Python ints, bounds bound once."""
    lo, hi = fmt.min_raw, fmt.max_raw
    return lambda x: lo if x < lo else hi if x > hi else x


def _select_int(flag, x, y):
    return x if flag else y


def compile_schedule(schedule: BlockSchedule, saturate=_saturate_int, select=_select_int):
    """Compile ``schedule`` into ``run(env)``, which executes its ops in order
    on ``env`` (a dict from identifier to value) and returns it.

    ``saturate(fmt)`` returns the clip to ``fmt`` and ``select`` implements
    ``sel``; the defaults work on Python ints.  The caller puts the fields,
    each within its format, the group constants and ``DA`` into ``env``;
    registers and literals are added by the run.  A clip that an interval
    analysis from the field formats shows can never bind is left out.
    """
    violations = validate_schedule(schedule)
    if violations:
        raise ScheduleError(violations[0].describe())
    # value interval of every identifier written so far; constants and the
    # input port are unknown (None)
    ranges = {name: (fmt.min_raw, fmt.max_raw) for name, fmt in FIELD_FORMATS.items()}
    literals: dict[str, int] = {}
    ops = []
    for block in schedule.blocks:
        for op in block.ops:
            where = f"block {block.name!r}: {op.render()!r}"
            arity = _ARITY.get(op.mnemonic)
            if arity is None:
                raise ScheduleError(f"{where}: unknown op {op.mnemonic!r}")
            if len(op.sources) != arity:
                raise ScheduleError(f"{where}: {op.mnemonic} takes {arity} operand(s)")
            for src in op.sources:
                if src.isdigit():
                    literals[src] = int(src)
                    ranges[src] = (int(src), int(src))
                elif src.startswith("$") and src not in ranges:
                    raise ScheduleError(f"{where}: register {src} read before it is written")
            if not (op.dest.startswith("$") or op.dest in FIELD_LAYOUT):
                raise ScheduleError(f"{where}: {op.dest!r} cannot be written")
            fmt = FIELD_FORMATS.get(op.dest, REG_FMT)
            fn = select if op.mnemonic == "sel" else _BINARY.get(op.mnemonic)
            span = _span(op.mnemonic, [ranges.get(s) for s in op.sources])
            if span is not None and fmt.min_raw <= span[0] and span[1] <= fmt.max_raw:
                ranges[op.dest], sat = span, None
            else:
                ranges[op.dest], sat = (fmt.min_raw, fmt.max_raw), saturate(fmt)
            ops.append(_closure(fn, sat, op.dest, op.sources))

    def run(env: dict) -> dict:
        env.update(literals)
        for op in ops:
            op(env)
        return env

    return run


def _span(mnemonic: str, operands: list) -> tuple[int, int] | None:
    """Interval of an op's result from its operands' intervals, or None.

    Each int op is monotone in each operand, so its extremes over a box of
    operand values lie at the corners.
    """
    if mnemonic == "gt":
        return (0, 1)
    if None in operands:
        return None
    if mnemonic == "mov":
        return operands[0]
    if mnemonic == "sel":
        (lo1, hi1), (lo2, hi2) = operands[1:]
        return min(lo1, lo2), max(hi1, hi2)
    if mnemonic in ("shl", "shr") and not 0 <= operands[1][0] == operands[1][1] <= 63:
        return None
    fn = _BINARY[mnemonic]
    corners = [fn(x, y) for x in operands[0] for y in operands[1]]
    return min(corners), max(corners)


def _closure(fn, sat, dest, sources):
    """``env[dest] = sat(fn(*operands))``; ``mov`` has no ``fn``, and a
    ``sat`` of None is left out.  Operands are read one by one: unpacking
    them from one lookup is slower on the int run."""
    if len(sources) == 1:
        (x,) = sources
        if sat is None:
            def op(env):
                env[dest] = env[x]
        else:
            def op(env):
                env[dest] = sat(env[x])
    elif len(sources) == 2:
        x, y = sources
        if sat is None:
            def op(env):
                env[dest] = fn(env[x], env[y])
        else:
            def op(env):
                env[dest] = sat(fn(env[x], env[y]))
    else:
        f, x, y = sources
        if sat is None:
            def op(env):
                env[dest] = fn(env[f], env[x], env[y])
        else:
            def op(env):
                env[dest] = sat(fn(env[f], env[x], env[y]))
    return op
