"""Block schedules: the microcode of the neurocore, its text format and its
validator.

A schedule is an ordered list of computation blocks.  Each block may access
fields from at most one compartment-state word; values needed across words
are spilled through registers.  Identifier conventions in the ops:

    bare name   compartment-state field (``v``, ``u``, ``a`` ...)
    ``$name``   register
    ``@name``   group-level constant
    ``DA``      the dendrite-accumulator input port, a Q12 sum
    digits      an ASCII decimal literal (shift counts)

The shipped schedule, ``data/izhikevich_schedule.txt``, *is* the fixed-point
Izhikevich arithmetic, which :mod:`neurocore.compiler` turns into Python.
The ops are ``mov``, ``add``, ``sub``, ``mul`` (product ``>> 12``), ``mulw``
(product ``>> KQ_FRAC``), ``shl``, ``shr`` (arithmetic), ``rnd`` (to whole
``DA_FMT`` units, ties away from zero, and their range ``DA_PORT``: what the
shipped text does to the Q12 sum ``DA`` takes), ``gt`` (a 0/1 flag) and
``sel d <- f, x, y`` (``x`` if ``f`` else ``y``), each defined once, in
``neurocore.planner.OPS``.  Every write saturates to its destination, a
field to its ``FIELD_FORMATS`` format and a register to ``REG_FMT``.
"""

from __future__ import annotations

from dataclasses import dataclass
from importlib import resources

from .fxp import (
    AB_FMT,
    CD_FMT,
    DA_PORT,
    DDOP_FMT,
    ICONST_FMT,
    ISYN_FMT,
    Q12,
    REG_FMT,
    U_FMT,
    V_FMT,
    encode,
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

# Coefficients of the membrane equation, dv/dt = 0.04 v^2 + 5 v + 140 - u + I.
K_QUAD, K_LIN, K_BIAS = 0.04, 5.0, 140.0

# Group constants fixed at compile time, by raw value.
CONSTANTS = {
    "@one": 1 << Q12,
    "@kquad": round(K_QUAD * (1 << KQ_FRAC)),
    "@klin": encode(K_LIN, REG_FMT).raw,
    "@kbias": encode(K_BIAS, REG_FMT).raw,
}

# The input port and the group constants passed on every call, in the order
# the compiled function takes them after the fields, each with the range the
# compiler assumes for it by default.  ``@beta`` may span the whole register.
INPUTS = {"DA": DA_PORT, "@alpha": ISYN_FMT, "@beta": REG_FMT, "@vpeak": V_FMT}


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


def _literal(token: str, where: str) -> int | None:
    """The value of a decimal literal, or None if ``token`` is not one."""
    if not token.isdigit():
        return None
    if not token.isascii():
        raise ScheduleError(f"{where}: literal {token!r} is not ASCII digits")
    return int(token)


def _field_words(block: Block) -> set[int]:
    words: set[int] = set()
    for ident in block.identifiers():
        if ident.startswith(("$", "@")) or ident in INPUTS:
            continue
        token = ident.split(",")[0].strip()
        if _literal(token, f"block {block.name!r}") is not None:
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
# Line-oriented text parsing
# ---------------------------------------------------------------------------

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
