"""Block-schedule validation, parsing and compilation."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import neurocore
from neurocore import network, neuron, regimes
from neurocore.compiler import ARRAYS, INTS, compile_schedule, plan_schedule, run_corners
from neurocore.fxp import ICONST_FMT, REG_FMT, U_FMT, V_FMT
from neurocore.schedule import (
    CONSTANTS,
    FIELD_LAYOUT,
    INPUTS,
    KQ_FRAC,
    Block,
    BlockSchedule,
    Op,
    ScheduleError,
    izhikevich_schedule,
    parse_schedule,
    validate_schedule,
)

SHIPPED = {"neuron.step_fields": neuron.step_fields,
           "neuron.step_fields_batch": neuron.step_fields_batch,
           "network.step_fields_network": network.step_fields_network,
           "regimes.step_regime": regimes.step_regime}


def block(name, word, *ops):
    return Block(name, word, tuple(ops))


class TestValidator:
    def test_cross_word_access_is_one_violation(self):
        schedule = BlockSchedule(
            "bad", (block("mix", None, Op("add", "$t", ("v", "c"))),)
        )
        violations = validate_schedule(schedule)
        assert len(violations) == 1
        assert violations[0].block == "mix"
        assert violations[0].words == frozenset({1, 2})

    def test_single_word_access_passes(self):
        schedule = BlockSchedule(
            "ok", (block("w2", 2, Op("add", "$t", ("v", "u", "iconst"))),)
        )
        assert validate_schedule(schedule) == []

    def test_empty_schedule_passes(self):
        assert validate_schedule(BlockSchedule("empty", ())) == []

    def test_unknown_field_raises_naming_it(self):
        schedule = BlockSchedule(
            "typo", (block("b", None, Op("mov", "$t", ("voltage",))),)
        )
        with pytest.raises(ScheduleError, match="voltage"):
            validate_schedule(schedule)

    def test_declared_word_conflicting_with_fields(self):
        schedule = BlockSchedule(
            "mismatch", (block("b", 0, Op("mov", "$t", ("v",))),)
        )
        violations = validate_schedule(schedule)
        assert len(violations) == 1
        assert violations[0].words == frozenset({0, 2})

    def test_registers_and_constants_are_unconstrained(self):
        schedule = BlockSchedule(
            "regs",
            (block("b", 0, Op("mul", "$x", ("@alpha", "isyn")), Op("shl", "$y", ("DA", "9"))),),
        )
        assert validate_schedule(schedule) == []


class TestCanonicalSchedule:
    def test_no_violations(self):
        assert validate_schedule(izhikevich_schedule()) == []

    def test_timestep_shift_happens_in_word2_block(self):
        schedule = izhikevich_schedule()
        shift_blocks = [
            b for b in schedule.blocks
            if any(op.mnemonic == "shr" and "3" in op.sources for op in b.ops)
        ]
        assert shift_blocks and all(b.word == 2 for b in shift_blocks)


class TestParser:
    def test_rejects_malformed_op(self):
        with pytest.raises(ScheduleError, match="line 3"):
            parse_schedule("schedule: x\nblock: b\nop: nonsense without arrow\n")

    def test_rejects_op_outside_block(self):
        with pytest.raises(ScheduleError):
            parse_schedule("schedule: x\nop: mov $a <- a\n")

    def test_rejects_non_numeric_word(self):
        with pytest.raises(ScheduleError, match="line 3"):
            parse_schedule("schedule: x\nblock: b\nword: two\n")

    def test_word_dash_means_register_only(self):
        schedule = parse_schedule(
            "schedule: x\nblock: spill\nword: -\nop: mov $a <- $b\n"
        )
        assert schedule.blocks[0].word is None


def program(*ops, word=2):
    return BlockSchedule("p", (block("b", word, *ops),))


class TestCompiler:
    @pytest.mark.parametrize(
        "op,message",
        [
            (Op("frob", "$x", ("v",)), "unknown op 'frob'"),
            (Op("add", "$x", ("v",)), "takes 2 operand"),
            (Op("sel", "$x", ("v", "u")), "takes 3 operand"),
            (Op("mov", "$x", ("$y",)), r"\$y read before it is written"),
            (Op("mov", "@vpeak", ("v",)), "cannot be written"),
            (Op("mov", "DA", ("v",)), "cannot be written"),
        ],
        ids=["unknown-op", "operands", "sel-operands", "unwritten", "constant", "port"],
    )
    def test_rejects(self, op, message):
        with pytest.raises(ScheduleError, match=message):
            compile_schedule(program(op))

    def test_rejects_word_rule_violation(self):
        with pytest.raises(ScheduleError, match="touches state words"):
            compile_schedule(program(Op("add", "$t", ("v", "c")), word=None))

    def test_writes_saturate_to_destination(self, monkeypatch):
        monkeypatch.setitem(CONSTANTS, "@k", 3 << KQ_FRAC)
        registers = ("$sum", "$sq", "$w", "$big", "$half", "$f")
        run = compile_schedule(
            program(
                Op("add", "$sum", ("v", "v")),
                Op("add", "v", ("v", "v")),
                Op("mul", "$sq", ("$sum", "$sum")),
                Op("mulw", "$w", ("@k", "$sum")),
                Op("shl", "$big", ("$sum", "12")),
                Op("shr", "$half", ("$sum", "1")),
                Op("gt", "$f", ("$sum", "v")),
                Op("sel", "u", ("$f", "$big", "u")),
            ),
            results=registers,
        )
        top = V_FMT.max_raw
        env = dict(zip([*FIELD_LAYOUT, *registers], call(run, v=top, u=0)))
        assert env["$sum"] == 2 * top  # a register is 32 bits wide
        assert env["v"] == top  # the v field is 24
        assert env["$sq"] == REG_FMT.max_raw
        assert env["$w"] == 3 * 2 * top
        assert env["$big"] == REG_FMT.max_raw
        assert env["$half"] == top
        assert env["$f"] is True
        assert env["u"] == V_FMT.max_raw

    @pytest.mark.parametrize(
        "op,message",
        [
            (Op("mov", "$x=1;y", ("v",)), "not a register name"),
            (Op("mov", "$x", ("$y)or(1",)), "not a register or constant name"),
            (Op("mov", "$x", ("@nope",)), "unknown constant '@nope'"),
            (Op("shr", "$x", ("v", "\u00b2")), "not ASCII digits"),
            (Op("shl", "$x", ("v", "64")), r"shift count can leave \[0, 63\]"),
            (Op("shl", "$x", ("v", "41")), "can leave int64"),
            (Op("mul", "$x", ("@big", "v")), "can leave int64"),
        ],
        ids=["dest-name", "source-name", "constant", "literal", "shift", "shl-int64", "mul-int64"],
    )
    def test_rejects_unsafe(self, monkeypatch, op, message):
        monkeypatch.setitem(CONSTANTS, "@big", 1 << 50)
        with pytest.raises(ScheduleError, match=message):
            compile_schedule(program(op))

    def test_results_must_be_written_registers(self):
        with pytest.raises(ScheduleError, match="not a register the schedule writes"):
            compile_schedule(program(Op("mov", "$x", ("v",))))
        assert call(compile_schedule(program(Op("mov", "$spk", ("v",)))), v=5)[-1] == 5

    def test_clip_kept_only_where_it_can_bind(self):
        ops = {op.dest: op for op in plan_schedule(program(
            Op("add", "$wide", ("v", "u")),  # 25 bits fit the 32-bit register
            Op("add", "v", ("v", "u")),  # but not the 24-bit field
            Op("mul", "$full", ("@beta", "v")),  # beyond the register both ways
            Op("add", "$up", ("@one", "$full")),  # then only above: @one > 0
            Op("add", "$in", ("@alpha", "DA")),  # known input ranges
        ))}
        assert not ops["r_wide"].clips
        assert (ops["v"].lower, ops["v"].upper) == (V_FMT.min_raw, V_FMT.max_raw)
        assert (ops["r_full"].lower, ops["r_full"].upper) == (REG_FMT.min_raw, REG_FMT.max_raw)
        assert (ops["r_up"].lower, ops["r_up"].upper) == (None, REG_FMT.max_raw)
        assert not ops["r_in"].clips

    def test_square_is_never_negative(self):
        square, product = plan_schedule(program(
            Op("mul", "$x", ("v", "v")),  # v * v, however wide v's range
            Op("mul", "$y", ("v", "u")),  # two operands: both signs
        ))
        assert (square.lower, square.upper) == (None, REG_FMT.max_raw)
        assert (product.lower, product.upper) == (REG_FMT.min_raw, REG_FMT.max_raw)

    def test_select_skipped_only_where_its_else_operand_is_safe(self):
        """A select may return its else operand where no flag is set only if
        that operand is an array of the population's shape and of the dtype
        ``where`` gives, and, for a field, the destination itself; the array
        form keeps every result of that shape either way."""
        sels = {
            "v": ("u", "v", True),  # the field itself
            "$reg": ("v", "$sum", True),  # a register computed from fields
            "$flag": ("$f", "$g", True),  # a flag where where gives one
            "$const": ("v", "@one", False),
            "$input": ("v", "DA", False),
            "u": ("u", "v", False),  # a different field
            "iconst": ("v", "iconst", False),  # a field holding a constant
            "$bool": ("v", "$g", False),  # a flag where where gives ints
        }
        ops = [Op("gt", "$f", ("v", "@vpeak")), Op("gt", "$g", ("u", "v")),
               Op("add", "$sum", ("v", "u")), Op("mov", "iconst", ("@one",))]
        ops += [Op("sel", dest, ("$f", x, y)) for dest, (x, y, _) in sels.items()]
        plan = {op.dest: op.skip for op in plan_schedule(program(*ops)) if op.mnemonic == "sel"}
        assert plan == {dest.replace("$", "r_"): skip for dest, (_, _, skip) in sels.items()}

        registers = tuple(name for name in sels if name.startswith("$"))
        arrays = compile_schedule(program(*ops), ARRAYS, results=registers)
        ints = compile_schedule(program(*ops), results=registers)
        n = 5
        fields = {name: np.arange(n) - 2 for name in FIELD_LAYOUT}
        inputs = (3, 0, 0, V_FMT.max_raw)  # DA, alpha, beta, v_peak: no flag $f set
        got = hoisting(arrays, *fields.values(), *inputs)
        for i in range(n):
            want = hoisting(ints, *(int(x[i]) for x in fields.values()), *inputs)
            assert [x.shape for x in got] == [(n,)] * len(got)
            assert [x[i].item() for x in got] == list(want)
        assert got[-1].dtype == np.int64  # $bool: where's dtype, not the flag's

    def test_a_flag_is_tested_once_until_it_is_written_again(self):
        """Skipped selects on one flag share one ``_count_nonzero``; a write
        to the flag between them tests it afresh, so no stale test runs."""
        ops = [Op("add", "$sum", ("v", "u")), Op("gt", "$f", ("v", "@vpeak")),
               Op("sel", "$a", ("$f", "v", "$sum")), Op("sel", "$b", ("$f", "u", "$sum")),
               Op("gt", "$f", ("u", "v")), Op("sel", "$c", ("$f", "v", "$sum")),
               Op("sel", "$k", ("@one", "v", "$sum"))]
        results = ("$a", "$b", "$c", "$k")
        arrays = compile_schedule(program(*ops), ARRAYS, results=results)
        ints = compile_schedule(program(*ops), results=results)
        tested = []
        arrays.__globals__["_count_nonzero"] = lambda x: tested.append(x) or np.count_nonzero(x)
        n = 5
        fields = {name: np.arange(n) - 2 for name in FIELD_LAYOUT}
        fields["u"] = 2 - np.arange(n)  # u > v at 0 and 1 only: the second $f is set there
        inputs = (3, 0, 0, V_FMT.max_raw)  # the first $f is set nowhere
        got = hoisting(arrays, *fields.values(), *inputs)
        assert len(tested) == 3  # the first $f, the second $f, @one
        for i in range(n):
            want = hoisting(ints, *(int(x[i]) for x in fields.values()), *inputs)
            assert [x[i].item() for x in got] == list(want)

    def test_run_corners_runs_the_loop_entry(self):
        """``run_corners`` runs the int form's ``loop`` for two steps and for
        none at each end, and reports one that fails, or that returns other
        fields after no steps, as a form that does not run; the array form
        has no ``loop``."""
        step = compile_schedule(izhikevich_schedule())
        loop, steps = step.loop, []
        step.loop = lambda *args: steps.append(args[-3]) or loop(*args)
        run_corners(step)
        assert steps == [2, 0, 2, 0]
        step.loop = lambda *args: 1 // 0
        with pytest.raises(ScheduleError, match="the int form fails to run: ZeroDivisionError"):
            run_corners(step)
        step.loop = lambda *args: (0, *loop(*args)[1:]) if args[-3] == 0 else loop(*args)
        with pytest.raises(ScheduleError, match="a loop of 0 steps returns fields it was not"):
            run_corners(step)
        assert compile_schedule(izhikevich_schedule(), ARRAYS).loop is None

    @pytest.mark.parametrize("form", [INTS, ARRAYS], ids=["ints", "arrays"])
    def test_exact_input_is_a_constant(self, form):
        """An input compiled for one raw is read as that constant, a negative
        one too, even as the flag of a skipped select."""
        run = compile_schedule(program(Op("sel", "$x", ("@alpha", "v", "u"))), form,
                               results=("$x",), inputs=INPUTS | {"@alpha": -3})
        assert call(run, v=6, u=7)[-1] == 6

    def test_exact_input_drops_clips(self):
        shipped = izhikevich_schedule()
        full = {op.dest: op for op in plan_schedule(shipped)}
        exact = {op.dest: op for op in plan_schedule(shipped, INPUTS | {"@alpha": 4062})}
        # alpha * isyn spans the register only while alpha spans its format
        assert full["r_decay"].clips and not exact["r_decay"].clips


def ends(fmt, seed):
    """Both ends of a format's range, values next to them and to zero, and
    random values between."""
    rng = np.random.default_rng(seed)
    near = [fmt.min_raw, fmt.min_raw + 1, -1, 0, 1, fmt.max_raw - 1, fmt.max_raw]
    return near + rng.integers(fmt.min_raw, fmt.max_raw + 1, 20).tolist()


class TestRewrites:
    """The exact rewrites the compiler emits, checked against the ops as
    written on Python ints and on int64 arrays, over every pair of operand
    values from both ends of their ranges."""

    @staticmethod
    def run_both(ops, results, want, **ranges):
        """Both forms of ``ops`` on every combination of the given fields'
        values equal ``want`` of them; returns the array form's globals."""
        grid = np.meshgrid(*(ends(fmt, i) for i, fmt in enumerate(ranges.values())))
        fields = dict(zip(ranges, (np.ravel(x).astype(np.int64) for x in grid)))
        arrays = compile_schedule(program(*ops), ARRAYS, results=results)
        ints = compile_schedule(program(*ops), results=results)
        expected = [want(*(int(x[i]) for x in fields.values())) for i in range(len(grid[0].flat))]
        got = call(arrays, **fields)[len(FIELD_LAYOUT):]
        assert [tuple(int(x[i]) for x in got) for i in range(len(expected))] == expected
        for i, values in enumerate(zip(*fields.values())):
            scalar = call(ints, **dict(zip(fields, map(int, values))))
            assert scalar[len(FIELD_LAYOUT):] == expected[i]
        return arrays.__globals__

    @pytest.mark.parametrize("mnemonic, shift", [("mul", 12), ("mulw", KQ_FRAC)])
    def test_fused_shift_is_two_shifts(self, mnemonic, shift):
        """floor(floor(x / 2^s) / 2^3) = floor(x / 2^(s + 3))"""
        ops = [Op(mnemonic, "$p", ("iconst", "v")), Op("shr", "$p", ("$p", "3"))]
        names = self.run_both(ops, ("$p",), lambda v, iconst: (((iconst * v) >> shift) >> 3,),
                              v=V_FMT, iconst=ICONST_FMT)
        assert f"_i{shift + 3}" in names and "_i3" not in names

    def test_no_fused_shift_past_a_clip_or_a_second_reader(self):
        ops = [Op("mul", "$p", ("v", "u")), Op("add", "$q", ("v", "iconst")),
               Op("mul", "$r", ("$q", "iconst")), Op("add", "$s", ("$r", "$r")),
               Op("shr", "$p", ("$p", "3")), Op("shr", "$r", ("$r", "3"))]
        reg = lambda x: min(max(x, REG_FMT.min_raw), REG_FMT.max_raw)

        def want(v, u, iconst):
            r = ((v + iconst) * iconst) >> 12
            return reg((v * u) >> 12) >> 3, r >> 3, 2 * r

        names = self.run_both(ops, ("$p", "$r", "$s"), want, v=V_FMT, u=U_FMT, iconst=ICONST_FMT)
        assert "_i3" in names and "_i15" not in names

    @pytest.mark.parametrize("mnemonic, shift, k", [
        ("mul", 12, 20480), ("mul", 12, -3 << 12), ("mul", 12, 1 << 12),
        ("mulw", KQ_FRAC, 3 << KQ_FRAC), ("mul", 12, 20481),
    ])
    def test_product_by_a_multiple_of_its_rescale(self, monkeypatch, mnemonic, shift, k):
        """(K * x) >> s = (K >> s) * x where 2^s divides K; other K keep the shift."""
        monkeypatch.setitem(CONSTANTS, "@k", k)
        names = self.run_both([Op(mnemonic, "$q", ("@k", "v"))], ("$q",),
                              lambda v: ((k * v) >> shift,), v=V_FMT)
        assert (f"_i{shift}" not in names) == (k % (1 << shift) == 0)

    def test_sum_chain_sums_earlier_terms_first(self):
        """v - @kbias - iconst + v, with v written last, so read each step:
        the two terms fixed once a run, both subtracted, are summed once in
        ``hoist``, and the step subtracts that sum; exact on both forms."""
        ops = [Op("sub", "$a", ("v", "@kbias")), Op("sub", "$b", ("$a", "iconst")),
               Op("add", "$c", ("$b", "v")), Op("mov", "v", ("$c",))]
        kbias = CONSTANTS["@kbias"]
        self.run_both(ops, ("$c",), lambda v, iconst: (2 * v - kbias - iconst,),
                      v=V_FMT, iconst=ICONST_FMT)
        for form in (INTS, ARRAYS):
            hoist = compile_schedule(program(*ops), form, ("$c",)).source.split("def step")[0]
            assert "573440 + iconst" in hoist

    def test_sum_chain_stays_across_a_kept_clip(self):
        """A link whose clip can bind (v * v saturates the register) ends
        the chain: nothing is summed ahead of it."""
        ops = [Op("mul", "$p", ("v", "v")), Op("add", "$a", ("$p", "$p")),
               Op("add", "$b", ("$a", "@kbias")), Op("add", "$c", ("$b", "iconst")),
               Op("mov", "v", ("$c",))]
        reg = lambda x: min(max(x, REG_FMT.min_raw), REG_FMT.max_raw)
        want = lambda v, iconst: (
            reg(reg(reg(2 * reg((v * v) >> 12)) + CONSTANTS["@kbias"]) + iconst),)
        self.run_both(ops, ("$c",), want, v=V_FMT, iconst=ICONST_FMT)
        assert "_sum" not in compile_schedule(program(*ops), results=("$c",)).source

    def test_no_temporary_inlined_past_a_rewrite_of_its_operand(self):
        """$t, read once, by $c, after its operand $x is rewritten: it keeps
        its own statement, and $c reads the $x it read."""
        ops = [Op("add", "$x", ("v", "@one")), Op("shr", "$t", ("$x", "1")),
               Op("add", "$x", ("$x", "@one")), Op("add", "$y", ("$x", "$x")),
               Op("sub", "$c", ("$t", "$y")), Op("mov", "v", ("$c",))]
        one = CONSTANTS["@one"]
        self.run_both(ops, ("$c",), lambda v: ((v + one >> 1) - 2 * (v + 2 * one),), v=V_FMT)
        assert "r_t = " in compile_schedule(program(*ops), results=("$c",)).source

    def test_regime_loop_sums_fixed_terms_once_and_inlines(self):
        """The regime loop: @kbias + iconst summed once a run, $i added to it
        once a call, and each single-reader temporary of a step inside its
        reader, so v's update is one statement."""
        source = regimes.step_regime.source
        body = source.split("for _ in range(_n):\n")[1]
        assert "_sum22_1 = 573440 + iconst" in source.split("def step")[0]
        assert "_sum22_2 = _sum22_1 + " in source.split("for _ in")[0]
        assert "r_bv =" not in body and "r_dv" not in body
        assert "        v = v + ((((_sum22_2 + " in body

    def test_shipped_sources_do_not_depend_on_the_string_hash(self):
        """Every shipped form's generated source is byte-identical in two
        interpreters whose string hashes differ, and in this one."""
        code = "from neurocore import network, neuron, regimes\n" + "".join(
            f"print({name}.source)\n" for name in SHIPPED)
        path = os.pathsep.join(filter(None, [str(Path(neurocore.__file__).parents[1]),
                                             os.environ.get("PYTHONPATH")]))
        runs = [subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                               env=os.environ | {"PYTHONPATH": path, "PYTHONHASHSEED": seed},
                               timeout=60, check=True).stdout for seed in ("1", "2")]
        here = "".join(step.source + "\n" for step in SHIPPED.values())
        assert runs == [here, here]

    def test_shipped_sources_are_pinned(self):
        """The SHA-256 of each shipped form's ``step.source``, the code that
        runs, and of the float reference's two texts (one neuron's update
        with its loop, and the arrays'), and the clips each form's plan
        keeps out of its ops.  A rewrite that changes a digest changes the
        step that runs: it is a change to this check, and CHANGES.md lists
        it with its reason."""
        floats = {"neuron.float_update": neuron.float_update,
                  "neuron.float_update_batch": neuron.float_update_batch}
        assert {name: hashlib.sha256(step.source.encode()).hexdigest()
                for name, step in {**SHIPPED, **floats}.items()} == {
            "neuron.step_fields":
                "49904c2da10aad509a6a5a8abfbc76ddad144223c8aaa52923ff07d7a73a429e",
            "neuron.step_fields_batch":
                "095242f1ba4396c5fee387cd66690a6ce45ed6ccc86f2b3ab6cdc5c6832985bf",
            "network.step_fields_network":
                "745dcbbdf6b5e6bc47dce21af6ed758c46ce0118feefdd786f7e626f1d0a29db",
            "regimes.step_regime":
                "cc0b647567d6925efd37a87dbd9d724c6bf1e51eee9b2ff85459da324047bf5e",
            "neuron.float_update":
                "fd8e89641de355dbefd5b35460c075a2d2a9c2b549f86fa3673f78c7c9d65f37",
            "neuron.float_update_batch":
                "fe34e3fcc5eea36b97b3e268536d5968055e0cc8dcef5c6c3e46332419d76200",
        }
        assert [step.clips for step in SHIPPED.values()] == [(13, 36), (13, 36), (6, 36), (6, 36)]


def hoisting(form, *args):
    """A compiled ``form`` on ``args`` (the fields, DA and the group
    constants) and the values its ``hoist`` computes from them."""
    n = len(FIELD_LAYOUT)
    return form(*args, *form.hoist(*args[:n], *args[n + 1:]))


def call(run, **fields):
    """``run`` on the given fields, every other field and input 0."""
    return hoisting(run, *(dict.fromkeys(FIELD_LAYOUT, 0) | fields).values(), *[0] * len(INPUTS))
