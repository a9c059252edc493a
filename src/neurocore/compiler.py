"""The compiler of block schedules (:mod:`neurocore.schedule`) into Python.

:func:`compile_schedule` generates one straight-line Python function from a
schedule's plan (:mod:`neurocore.planner`), which :mod:`neurocore.neuron`
runs on one compartment's fields as Python ints, many steps to a call in
the regime runs, and on populations as int64 arrays.  Every write
saturates to its destination except where the plan's interval analysis
shows the clip can never bind.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import repeat
from types import SimpleNamespace

import numpy as np

from .planner import _GRID, _NAME, OPS, _local, plan_schedule, regroup_sums
from .schedule import FIELD_FORMATS, INPUTS, BlockSchedule, ScheduleError


@dataclass(frozen=True)
class Form:
    """How generated code clips a local ``{x}`` to a ``{bound}`` (with
    ``clip``, an array to both in one statement), selects ``{1}`` where
    ``{0}`` else ``{2}``, rounds ``{0}`` half away from zero to a unit's
    multiple (``{1}`` half the unit, ``{2}`` minus it, ``{3}`` 63) and
    shifts a product ``{0}`` right by ``{1}``, into ``{d}``, for one kind of
    value; ``names`` are the globals that code looks up.  It tests with
    ``some_set`` that some ``{0}`` is set: a ``skip`` select returns ``{2}``
    where none is, and consecutive ones on one flag share one branch, which
    tests it.  A ``copy`` form binds every integer once as a 0-d int64
    array global, not a literal, and writes a result into an array its call
    made and no later op reads: a ufunc ``_{mnemonic}`` with ``out=``, a
    clip with ``{out}``, a select into ``{2}`` with ``copy``.
    In a ``taken`` form a ``skip`` select is ``taken`` where its flag is set."""

    lower: str
    upper: str
    select: str
    some_set: str
    round: str
    rescale: str = "({0}) >> {1}"
    names: dict = field(default_factory=dict)
    clip: str | None = None
    copy: str | None = None
    taken: str | None = None


INTS = Form(
    lower="if {x} < {bound}: {x} = {bound}",
    upper="if {x} > {bound}: {x} = {bound}",
    select="{1} if {0} else {2}",
    some_set="{0}",
    round="-(({1} - {0}) & {2}) if {0} < 0 else ({0} + {1}) & {2}",  # a branch: cheaper here
    names={"_repeat": repeat},
    taken="{1}",
)
ARRAYS = Form(
    lower="{x} = _maximum({x}, {bound}{out})",
    upper="{x} = _minimum({x}, {bound}{out})",
    select="_where({0}, {1}, {2})",
    some_set="_count_nonzero({0})",
    # x >> 63 is -1 where x < 0, where (x - 1 + half) rounds |x| half up;
    # each statement after the first writes into the array the first made
    round="{0} + ({0} >> {3}); {d} += {1}; {d} &= {2}",
    rescale="{0}; {d} >>= {1}",
    names={"_maximum": np.maximum, "_minimum": np.minimum, "_where": np.where,
           "_count_nonzero": np.count_nonzero, "_copyto": np.copyto, "_fields": SimpleNamespace,
           **{f"_{name}": op.ufunc for name, op in OPS.items() if op.ufunc}},
    clip="{x} = {x}.clip({lower}, {upper}{out})",  # one call, not two
    copy="_copyto({2}, {1}, where={0})",
)


def compile_schedule(
    schedule: BlockSchedule,
    form: Form = INTS,
    results: tuple[str, ...] = ("$spk",),
    inputs: dict = INPUTS,
):
    """Compile ``schedule`` into one straight-line Python function, ``step``.

    ``step`` takes every field in ``FIELD_LAYOUT`` order, the ``inputs`` in
    their order, each within its range (:func:`plan_schedule`), and what
    ``step.hoist`` returns for those fields and ``@`` inputs; it returns the
    fields and the registers named in ``results``.  Each op runs when its
    value is fixed (``step.split`` counts them): a literal no op reads
    never; one on literals, constants, ``@`` inputs, unwritten fields and
    such values once a run, in ``hoist``; one on those, ``DA`` and such
    values once a ``loop`` call, before its steps if it takes any; any other
    each step, as does every write of a field read before it or of a
    register written twice whose earlier value an op fixed later reads.
    ``step.loop`` takes ``step``'s arguments and ``n, vs, spikes``, runs
    ``n`` steps on the fields as locals, appends each step's ``v`` to ``vs``
    and, where the first result is set, ``len(vs)`` first to ``spikes``, and
    returns what its last step returns (after none the fields as given, each
    result not hoisted None); ``step`` runs one.  A step that leaves every
    field the steps write as it found them is a fixed point: the loop ends
    there, extending ``vs`` by its ``v`` and, where its first result is set,
    ``spikes`` by the index of each step left, which is exact, as every other
    value a step reads is fixed for the call (the planner rejects a register
    read before its write).  A ``copy`` form has no
    ``loop``: its ``step`` calls ``step.update``, which runs the body on an
    object of the fields and stores those written.  Registers are locals,
    each clip the analysis keeps is inline, and ``form`` writes clips,
    selects and integers: ``INTS`` for Python ints, ``ARRAYS`` for int64
    arrays, where nothing passed in is written.  Exact rewrites drop
    operations: a sum chain sums its earlier-fixed terms first
    (:func:`~neurocore.planner.regroup_sums`), a product by a multiple of
    its rescale 2^s is one by the quotient, a product whose one reader
    shifts it right in place shifts once by both counts, and an op only a
    skipped select's ``x`` reads, fixed when the select is, runs in its
    branch on operands held where it stood.  A form with a ``loop`` also
    writes an op inside its one reader's expression where both run at one
    time, the op keeps no clip, writes no field or flag and no operand of it
    is rewritten before the read.  ``step.source`` is the generated text,
    built only from ``OPS``, the forms, checked register names and integer
    values, never from raw text; ``step.form`` and ``step.inputs`` are what
    it was compiled for, ``step.clips`` its plan's kept clips and its ops.
    """
    plan = plan_schedule(schedule, inputs)
    clips = sum(op.clips for op in plan), len(plan)  # of the ops as the schedule states them
    dests = [op.dest for op in plan]
    for name in results:
        if not (name.startswith("$") and _NAME.fullmatch(name) and _local(name) in dests):
            raise ScheduleError(f"result {name!r} is not a register the schedule writes")
    namespace = dict(form.names)

    def source(arg: str | int) -> str | int:
        if isinstance(arg, str) or not form.copy:
            return arg
        name = f"_i{arg}".replace("-", "m")
        namespace[name] = np.array(arg, dtype=np.int64)
        return name

    group, call = [_local(k) for k in inputs if k[0] == "@"], 3 if form.copy else 2
    per_call = {_local(k): call for k in inputs if k[0] != "@"}  # what each call passes

    def analyse() -> tuple[list, list, list, list, list]:
        # each read, (op, operand position), of what an op writes ((None, 0) if
        # returned); flags read
        dests, last, readers, flags, flagged = [], {}, [[] for _ in plan], set(), []
        for i, op in enumerate(plan):
            for pos, arg in enumerate(op.args):
                if arg in last:
                    readers[last[arg]].append((i, pos))
            last[op.dest] = i
            dests.append(op.dest)
            flagged.append(flags.intersection(op.args))
            (flags.add if op.flag else flags.discard)(op.dest)
        for name in last.keys() & {*FIELD_FORMATS, *map(_local, results)}:
            readers[last[name]].append((None, 0))
        # when each op's value is fixed: 0 never (a literal no op reads), 1 once a run (hoisted,
        # but a copy or a write of ``written``), ``call`` once a loop call (DA; 3 in a copy
        # form, with no loop), 3 each step, as is each write of ``late``: a field read before
        # its write, or a name written twice with a write that runs each step or that an op
        # fixed later reads; ``ats`` holds when each operand is
        written = {d for d in dests if d in FIELD_FORMATS or dests.count(d) > 1}  # none hoisted
        late = {f for f in written if any(f in op.args for op in plan[:dests.index(f) + 1])}
        size = -1
        while size < len(late):  # until no name joins it
            size, when, times, ats = len(late), {**per_call, **dict.fromkeys(late, 3)}, [], []
            for i, op in enumerate(plan):
                ats.append([when.get(a, 1) for a in op.args])
                t = 3 if op.dest in late else max(ats[-1])
                when[op.dest] = t = max(t, call if op.mnemonic == "mov" or op.dest in written
                                        else 1)
                times.append(t if readers[i] or op.mnemonic != "mov" or type(op.args[0]) is str
                             else 0)
            late |= {dests[k] for k, t in enumerate(times) if t == 3 or last[dests[k]] != k
                     and any(times[j] > t for j, _ in readers[k])}
        return dests, readers, flagged, times, ats

    dests, readers, flagged, times, ats = analyse()
    plan = regroup_sums(plan, readers, ats, times)
    dests, readers, flagged, times, _ = analyse()
    hoisted = {i for i, t in enumerate(times) if t == 1}
    passed = [dests[i] for i in sorted(hoisted) if any(j not in hoisted for j, _ in readers[i])]
    # product -> the shr of it in place, its one reader; skipped select -> the
    # op only its x reads, on the operands that op's ``held`` lines keep
    fused, sunk, held = {}, {}, {}
    for i, op in enumerate(plan):
        j, pos = readers[i][0] if len(readers[i]) == 1 else (None, 0)
        if j is None or i in hoisted or times[i] != times[j] or i in fused.values() or i in sunk:
            continue
        count = plan[j].args[-1]
        if (OPS[op.mnemonic].rescale and not op.clips and plan[j].mnemonic == "shr" and pos == 0
                and dests[j] == op.dest and isinstance(count, int)
                and OPS[op.mnemonic].rescale + count <= 63):
            fused[i] = j
        elif plan[j].skip and pos == 1 and op.dest.startswith("r_"):
            later = set(dests[i + 1:j]).intersection(op.args)
            held[i] = [f"    _{i}_{a} = {a}" for a in sorted(later)]
            sunk[j] = i, tuple(f"_{i}_{a}" if a in later else a for a in op.args)
    at = {i: j - 0.5 for j, (i, _) in sunk.items()}  # where each op runs: a sunk one at its select
    # (reader, operand position) -> the op written inside that reader's expression;
    # an op so written -> every name its expression reads (rnd's reads its operand thrice)
    inline, reads = {}, {}
    for i, op in enumerate(plan):
        j, pos = readers[i][0] if len(readers[i]) == 1 else (None, 0)
        if (form.copy or j is None or times[i] != times[j] or op.clips or op.flag or op.skip
                or dests[i] in FIELD_FORMATS or plan[j].skip or plan[j].mnemonic == "rnd"
                or i in fused or i in fused.values() or i in at or j in at):
            continue
        names = set().union(*(reads[inline[i, p]] if (i, p) in inline else {a}
                              for p, a in enumerate(op.args)))
        if names.isdisjoint(dests[i + 1:j]):
            inline[j, pos], reads[i] = i, names

    def function(ops: list[int]) -> list[str]:  # the body running ``ops``
        # a local -> the op that made its array in this call -> that array's last read
        lines, tested, owner, until = [], set(), {}, {}  # flags an ``_any_`` local tests

        def emit(i: int, indent: str, args: tuple, taken: bool = False) -> list[str] | str:
            op, clip, d = plan[i], plan[fused.get(i, i)], plan[i].dest
            args = tuple(emit(inline[i, p], "", plan[inline[i, p]].args) if (i, p) in inline
                         else a for p, a in enumerate(args))
            ends = [at.get(j, j) if j in ops else len(plan) for j, _ in readers[fused.get(i, i)]]
            free = [a for a in args if form.copy and a in owner and until[owner[a]] <= at.get(i, i)
                    and plan[owner[a]].flag == op.flag]  # arrays no later op reads
            if form.copy and op.mnemonic not in ("mov", "sel", "gt") and flagged[i] >= {*op.args}:
                args = (f"({source(0)} + {args[0]})", *args[1:])  # numpy adds bools as or
            copy = op.mnemonic == "sel" and args[2] in free and op.args[0] in flagged[i]
            out = args[2] if copy else free[0] if free and f"_{op.mnemonic}" in namespace else None
            if op.mnemonic == "rnd":
                args = (args[0], _GRID // 2, -_GRID, 63)
            shift = OPS[op.mnemonic].rescale
            if shift:
                k, x = args if isinstance(args[0], int) else args[::-1]
                if isinstance(k, int) and k % (1 << shift) == 0:
                    args, shift = (k >> shift, x), 0
                shift += plan[fused[i]].args[1] if i in fused else 0
            select = form.copy if copy else taken and form.taken or form.select
            template = {"sel": select, "rnd": form.round}.get(
                op.mnemonic, f"_{op.mnemonic}({{0}}, {{1}}, out={out})" if out else None)
            value = (template or OPS[op.mnemonic].source).format(*map(source, args), d=d)
            value = form.rescale.format(value, source(shift), d=d) if shift else value
            if i in reads:  # written inside its reader's expression
                return value if value.isidentifier() else f"({value})"
            value += f"; {d} = {args[2]}" if copy and d != args[2] else ""  # d names y's array
            lines = [indent + (value if copy else f"{d} = {value}")]
            mine = owner[out] if out is not None else i if op.shaped else None
            if op.mnemonic == "mov" and (args[0] in free or not clip.clips):
                mine = owner.get(args[0])
            inplace = mine is not None and (op.mnemonic != "mov" or args[0] in free)
            ys = owner.get(args[2]) if op.skip else mine  # d's array where no flag is set
            until.update({a: max(until.get(a, -1), *ends, -1) for a in {mine, ys} - {None}})
            owner.pop(d, None)
            owner.update({d: mine} if mine is not None and mine == ys else {})
            into = f", out={d}" if inplace else ""
            lo, hi = (None if b is None else source(b) for b in (clip.lower, clip.upper))
            if form.clip and lo is not None and hi is not None and clip.shaped:
                return [*lines, indent + form.clip.format(x=d, lower=lo, upper=hi, out=into)]
            sides = [(t, b) for t, b in ((form.lower, lo), (form.upper, hi)) if b is not None]
            return lines + [indent + t.format(x=d, bound=b, out=into) for t, b in sides]

        runs = []  # (flag, ops): each op alone, but skip selects on one flag in a row,
        for i in ops:  # while none of them writes it, share one branch
            f = plan[i].args[0] if plan[i].skip and i not in held else None
            if f is not None and runs and runs[-1][0] == f != plan[runs[-1][1][-1]].dest:
                runs[-1][1].append(i)
            else:
                runs.append((f, [i]))
        for _, run in runs:
            op, indent = plan[run[0]], "    "
            if run[0] in held:  # it runs in its select's branch, on operands held here
                lines += held[run[0]]
                continue
            if op.skip:  # an array's test is a local, made once until its flag is written
                f, indent, test = op.args[0], "        ", form.some_set.format(op.args[0])
                has = test if test == str(f) else f"_any_{f}".replace("-", "m")  # f may be < 0
                lines += [f"    {has} = {test}"][:has != test and f not in tested]
                tested.add(f)
                keep = [f"{indent}{plan[i].dest} = {plan[i].args[2]}" for i in run
                        if plan[i].dest != plan[i].args[2]]
                lines += [f"    if not {has}:", *keep, "    else:"] if keep else [f"    if {has}:"]
            for i in run:
                lines += emit(sunk[i][0], indent, sunk[i][1]) if i in sunk else []
                lines += emit(i, indent, plan[i].args, op.skip)
                tested.discard(plan[i].dest)
        return lines

    fields, ins = list(map(_local, FIELD_FORMATS)), [*map(_local, inputs), *passed]
    rest = [i for i, t in enumerate(times) if t > 1 and i not in fused.values() and i not in reads]
    body, pre = (function([i for i in rest if times[i] == t]) for t in (3, 2))
    writes, res = [f for f in fields if f in dests], [*map(_local, results)]
    args, unset = ", ".join(fields + ins), [r for r in res if r not in ins]
    lines = [f"def hoist({', '.join(fields + group)}):",
             *function([i for i in sorted(hoisted) if i not in reads]),
             f"    return ({''.join(name + ', ' for name in passed)})", f"def step({args}):"]
    if form.copy:  # the body once, in the entry step_fixed_batch runs; step calls it
        load, store = (", ".join(f"_s.{f}" for f in names) for names in (fields, writes))
        lines += [
            f"    _s = _fields({', '.join(f'{f}={f}' for f in fields)})",
            f"    {', '.join(res) or '_'} = update(_s, {', '.join(ins)})",
            f"    return {', '.join([load, *res])}",
            f"def update(_s, {', '.join(ins)}):", f"    {', '.join(fields)} = {load}", *body,
            *[f"    {store} = {', '.join(writes)}"][:len(writes)], f"    return {', '.join(res)}"]
    else:  # the body once, in a loop of _n steps after the ops run once; step runs one
        # the fields a step carries to the next, as each step starts: a step that leaves
        # them so is a fixed point, which every later step of the call repeats
        carried = [f for f in fields if f in {dests[i] for i in rest if times[i] == 3}]
        start = [f"    {', '.join(f'_was_{f}' for f in carried)} = {', '.join(carried)}"]
        fixed = " and ".join(f"{f} == _was_{f}" for f in carried) or "True"
        lines += [f"    return loop({args}, 1, [], [])", f"def loop({args}, _n, _vs, _spikes):",
                  "    _record, _spike, _end = _vs.append, _spikes.append, len(_vs) + _n",
                  *[f"    {' = '.join(unset)} = None"][:len(unset)], *["    if _n > 0:"][:len(pre)],
                  *("    " + line for line in [*pre, "for _ in range(_n):",
                                               *start[:len(carried)], *body]),
                  *[f"        if {res[0]}: _spike(len(_vs))"][:len(res)], "        _record(v)",
                  f"        if {fixed}:",
                  *[f"            if {res[0]}: _spikes.extend(range(len(_vs), _end))"][:len(res)],
                  "            _vs.extend(_repeat(v, _end - len(_vs)))", "            break",
                  f"    return {', '.join(fields + res)}"]
    text = "\n".join(lines) + "\n"
    exec(compile(text, "<schedule>", "exec"), namespace)
    step = namespace["step"]
    step.hoist, step.update, step.loop = (namespace.get(f) for f in ("hoist", "update", "loop"))
    step.split = dict(zip(("constant", "run", "call", "step"), map(times.count, range(4))))
    step.source, step.form, step.inputs, step.clips = text, form, inputs, clips
    return step


def run_corners(step) -> None:
    """Run ``step``, its ``hoist`` and, where it has one, its ``loop`` for
    two steps and for none, which returns the fields as given, at both ends
    of every field's and ``step.inputs``' range, each ``@`` input a Python
    int; raises ScheduleError where one fails, a defect of this compiler."""
    form, n = step.form, len(FIELD_FORMATS)
    ends = {k: (x, x) if isinstance(x, int) else (x.min_raw, x.max_raw)
            for k, x in {**FIELD_FORMATS, **step.inputs}.items()}
    for end in (0, 1):
        args = {k: np.array(x) if form.copy and k[0] != "@" else x[end] for k, x in ends.items()}
        try:
            passed = (*args.values(), *step.hoist(*(x for k, x in args.items() if k != "DA")))
            step(*passed)
            if step.loop:  # the second step runs on the fields the first wrote
                step.loop(*passed, 2, [], [])
                if step.loop(*passed, 0, [], [])[:n] != passed[:n]:
                    raise ValueError("a loop of 0 steps returns fields it was not given")
        except Exception as exc:  # reported as a schedule that does not run
            kind = "array" if form.copy else "int"
            raise ScheduleError(f"the {kind} form fails to run: {exc!r}") from exc
