"""The planner of block schedules (:mod:`neurocore.schedule`): what
:mod:`neurocore.compiler` generates code from, and ``OPS``, the one
definition of the instruction set, which both read.

:func:`plan_schedule` checks a schedule and runs an interval analysis over
it from the range of every field, input (an argument: the network plans for
its narrower ones) and constant, which keeps a clip only where a write can
saturate and rejects a schedule in which some intermediate could leave
int64.  :func:`regroup_sums` reorders a plan's sum chains by when their
terms are fixed.
"""

from __future__ import annotations

import operator
import re
from collections import namedtuple
from dataclasses import dataclass, replace
from itertools import product

import numpy as np

from .fxp import DA_FMT, DA_PORT, Q12, REG_FMT
from .schedule import (CONSTANTS, FIELD_FORMATS, INPUTS, KQ_FRAC, BlockSchedule, ScheduleError,
                       _literal, validate_schedule)

_GRID = 1 << Q12 - DA_FMT.frac_bits  # one DA_FMT unit at Q12, the grid ``rnd`` rounds to
# The instruction set, one entry per op: its operand count, its unscaled int result (None where
# the interval analysis fixes its interval: ``gt``, ``sel``), that result's Python source (None
# where the compiler's ``Form`` writes it), the ufunc that writes it into an array, its rescale.
Instruction = namedtuple("Instruction", "arity value source ufunc rescale", defaults=(None, 0))
OPS = {
    "mov": Instruction(1, operator.pos, "{0}"),
    "add": Instruction(2, operator.add, "{0} + {1}", np.add),
    "sub": Instruction(2, operator.sub, "{0} - {1}", np.subtract),
    "mul": Instruction(2, operator.mul, "{0} * {1}", np.multiply, Q12),
    "mulw": Instruction(2, operator.mul, "{0} * {1}", np.multiply, KQ_FRAC),
    "shl": Instruction(2, operator.lshift, "{0} << {1}", np.left_shift),
    "shr": Instruction(2, operator.rshift, "{0} >> {1}", np.right_shift),
    "gt": Instruction(2, None, "{0} > {1}", np.greater),
    "rnd": Instruction(1, lambda x: (x + _GRID // 2 - (x < 0)) & -_GRID, None),
    "sel": Instruction(3, None, None),
}
_INT64_MIN, _INT64_MAX = -(1 << 63), (1 << 63) - 1
_NAME = re.compile(r"[$@][A-Za-z_]\w*", re.ASCII)


@dataclass(frozen=True)
class PlannedOp:
    """One op as generated code runs it: the Python local it writes, its
    operands as Python locals or integers, each bound of its clip that can
    bind (None where the interval analysis shows it never does), whether it
    is ``shaped``, an array in the array form whatever the inputs, a
    ``flag``, a bool there, and its operands' value intervals.  A ``skip``
    ``sel d <- f, x, y`` may return ``y`` where no ``f`` is set: ``y`` is a
    population-shaped array of ``where``'s dtype in ``d``'s format, ``d`` if
    a field."""

    dest: str
    mnemonic: str
    args: tuple[str | int, ...]
    lower: int | None
    upper: int | None
    skip: bool
    shaped: bool
    flag: bool
    spans: tuple[tuple[int, int], ...]

    @property
    def clips(self) -> bool:
        return self.lower is not None or self.upper is not None


def _local(name: str) -> str:
    """The Python local holding a field, input, register or constant."""
    return {"$": "r_", "@": "k_"}.get(name[0], "") + name.lstrip("$@")


def _operand(token: str, known: dict, where: str) -> tuple[str | int, tuple[int, int]]:
    """Python local or integer, and value interval, of one source operand."""
    if token in known:
        return known[token]
    value = _literal(token, where)
    if value is not None:
        return value, (value, value)
    if not _NAME.fullmatch(token):
        raise ScheduleError(f"{where}: {token!r} is not a register or constant name")
    if token.startswith("$"):
        raise ScheduleError(f"{where}: register {token} read before it is written")
    raise ScheduleError(f"{where}: unknown constant {token!r}")


def _interval(mnemonic: str, operands: list, where: str, square: bool = False) -> tuple[int, int]:
    """Interval of an op's result from its operands' intervals.

    Each int op is monotone in each operand, so its extremes over a box of
    operand values lie at the corners.  A ``square`` product, of one operand
    by itself, is never negative.  Raises ScheduleError where a shift count
    can leave [0, 63] or the unscaled result can leave int64, where int64
    arrays would wrap and Python ints would not.
    """
    op = OPS[mnemonic]
    if mnemonic == "gt":
        return 0, 1
    if mnemonic == "sel":
        (lo1, hi1), (lo2, hi2) = operands[1:]
        lo, hi = min(lo1, lo2), max(hi1, hi2)
    else:
        if mnemonic in ("shl", "shr") and not 0 <= operands[1][0] <= operands[1][1] <= 63:
            raise ScheduleError(f"{where}: shift count can leave [0, 63]")
        corners = [op.value(*corner) for corner in product(*operands)]
        lo, hi = 0 if square else min(corners), max(corners)
    if lo < _INT64_MIN or hi > _INT64_MAX:
        raise ScheduleError(f"{where}: an intermediate can leave int64, range [{lo}, {hi}]")
    return lo >> op.rescale, hi >> op.rescale


def plan_schedule(schedule: BlockSchedule, inputs: dict = INPUTS) -> list[PlannedOp]:
    """Check ``schedule`` and run the interval analysis over it, op by op.

    Fields start at their formats' ranges, ``CONSTANTS`` at their values and
    each of ``inputs`` at its format's range or, where it is an int (the one
    raw every call passes), as that constant.  An op whose clipped interval
    is one integer is a ``mov`` of it, which later ops read.  Raises
    ScheduleError for a word-rule violation, an unknown op, a wrong operand
    count, a malformed register name, a literal that is not ASCII digits, an
    unknown constant, a register read before it is written, a write to
    anything but a field or register, a shift count that can leave [0, 63]
    and an intermediate that can leave int64.
    """
    violations = validate_schedule(schedule)
    if violations:
        raise ScheduleError(violations[0].describe())
    # Python local or integer, and value interval, of every identifier an op can read
    known = {name: (x, (x, x)) if isinstance(x, int) else (_local(name), (x.min_raw, x.max_raw))
             for name, x in {**FIELD_FORMATS, **inputs, **CONSTANTS}.items()}
    # what holds a population-shaped array, and what a 0/1 flag (bool in arrays)
    shaped, flags = set(FIELD_FORMATS), set()
    plan = []
    for block in schedule.blocks:
        for op in block.ops:
            where = f"block {block.name!r}: {op.render()!r}"
            spec = OPS.get(op.mnemonic)
            if spec is None:
                raise ScheduleError(f"{where}: unknown op {op.mnemonic!r}")
            if len(op.sources) != spec.arity:
                raise ScheduleError(f"{where}: {op.mnemonic} takes {spec.arity} operand(s)")
            operands = [_operand(src, known, where) for src in op.sources]
            if op.dest in FIELD_FORMATS:
                fmt = FIELD_FORMATS[op.dest]
            elif op.dest.startswith("$"):
                if not _NAME.fullmatch(op.dest):
                    raise ScheduleError(f"{where}: {op.dest!r} is not a register name")
                fmt = REG_FMT
            else:
                raise ScheduleError(f"{where}: {op.dest!r} cannot be written")
            square = spec.rescale > 0 and op.sources[0] == op.sources[1]
            lo, hi = _interval(op.mnemonic, [span for _, span in operands], where, square)
            low, high = fmt.min_raw, fmt.max_raw
            if op.mnemonic == "rnd":
                low, high = max(low, DA_PORT.min_raw), min(high, DA_PORT.max_raw)
            clip = lambda x: min(max(x, low), high)
            mnemonic, args, names = op.mnemonic, tuple(s for s, _ in operands), op.sources
            spans = tuple(span for _, span in operands)
            if clip(lo) == clip(hi):  # a point, exact as the analysis is sound: its literal
                lo = hi = clip(lo)
                mnemonic, args, names, spans = "mov", (lo,), (lo,), ((lo, lo),)
            y, (y_lo, y_hi) = op.sources[-1], operands[-1][1]
            skip = (mnemonic == "sel" and y in shaped and low <= y_lo
                    and y_hi <= high and (op.dest == y or op.dest not in FIELD_FORMATS)
                    and (y not in flags or op.sources[1] in flags))
            known[op.dest] = args[0] if lo == hi else _local(op.dest), (clip(lo), clip(hi))
            (shaped.add if shaped.intersection(names) else shaped.discard)(op.dest)
            # a gt gives a bool array, and so does a mov of one or a sel of two
            kept = mnemonic in ("mov", "sel") and flags.issuperset(names[-2:])
            (flags.add if mnemonic == "gt" or kept else flags.discard)(op.dest)
            plan.append(PlannedOp(_local(op.dest), mnemonic, args, low if lo < low else None,
                                  high if hi > high else None, skip, op.dest in shaped,
                                  op.dest in flags, spans))
    return plan


def regroup_sums(plan: list[PlannedOp], readers: list, ats: list, times: list) -> list[PlannedOp]:
    """``plan`` with its sum chains regrouped by when their terms are fixed.

    ``readers``, ``ats`` and ``times`` are the compiler's analysis of
    ``plan``: each op's readers as (op, operand position), when each of its
    operands is fixed and when it is.  A chain is an add or sub, its root,
    and the adds and subs, its links, each keeping no clip and read only by
    the next op of the chain.  Where two or more of its terms are fixed
    before the root is, the chain sums its terms in the order they are
    fixed, those of one time in the order they stood, so the sum of the
    earlier ones is fixed before the root; each partial sum is a new local,
    and the last op writes the root's.  Exact, as no link clips; a chain
    stays as it stands where a partial sum could leave int64 or a term is
    rewritten between its read and the root.
    """
    dests, source = [op.dest for op in plan], {r: k for k, rs in enumerate(readers) for r in rs}

    def link(k: int | None) -> bool:
        j = readers[k][0][0] if k is not None and len(readers[k]) == 1 else None
        return j is not None and not plan[k].clips and {plan[k].mnemonic, plan[j].mnemonic} <= {
            "add", "sub"}

    def terms(i: int, sign: int, links: list):  # (when fixed, sign, arg, span, shaped, reader)
        for pos, arg in enumerate(plan[i].args):
            k, s = source.get((i, pos)), -sign if plan[i].mnemonic == "sub" and pos else sign
            if link(k):
                links.append(k)
                yield from terms(k, s, links)
            else:
                shaped = plan[k].shaped if k is not None else arg in FIELD_FORMATS
                yield ats[i][pos], s, arg, plan[i].spans[pos], shaped, i

    ops, links = {}, []
    for r, root in enumerate(plan):
        chain = []
        leaves = [] if root.mnemonic not in ("add", "sub") or link(r) else list(terms(r, 1, chain))
        if sum(t < times[r] for t, *_ in leaves) < 2 or any(
                arg in dests[i + 1:r] for _, _, arg, _, _, i in leaves):
            continue
        leaves.sort(key=lambda leaf: leaf[0])
        _, sign, acc, span, shaped, _ = leaves[0]
        new = []
        try:
            for n, (_, s, arg, term, its, _) in enumerate(leaves[1:], 1):  # sign * acc so far
                args, spans = ((arg, acc), (term, span)) if sign < s else ((acc, arg), (span, term))
                mnemonic, sign, shaped = "add" if s == sign else "sub", max(sign, s), shaped or its
                span, acc = _interval(mnemonic, spans, f"a sum of {root.dest}"), f"_sum{r}_{n}"
                new.append(PlannedOp(acc, mnemonic, args, None, None, False, shaped, False, spans))
        except ScheduleError:
            continue
        ops[r] = [*new[:-1], replace(root, mnemonic=mnemonic, args=args, spans=spans)]
        links += chain
    return [op for i, old in enumerate(plan) if i not in links for op in ops.get(i, [old])]
