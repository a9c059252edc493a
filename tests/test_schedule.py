"""Block-schedule validation, serialization and compilation."""

from importlib import resources

import pytest

from neurocore.fxp import REG_FMT, V_FMT
from neurocore.schedule import (
    KQ_FRAC,
    Block,
    BlockSchedule,
    Op,
    ScheduleError,
    compile_schedule,
    izhikevich_schedule,
    parse_schedule,
    render_schedule,
    validate_schedule,
)


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

    def test_text_roundtrip(self):
        schedule = izhikevich_schedule()
        assert parse_schedule(render_schedule(schedule)) == schedule

    def test_shipped_file_matches_code(self):
        shipped = (
            resources.files("neurocore")
            .joinpath("data/izhikevich_schedule.txt")
            .read_text()
        )
        assert shipped == render_schedule(izhikevich_schedule())

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

    def test_writes_saturate_to_destination(self):
        run = compile_schedule(program(
            Op("add", "$sum", ("v", "v")),
            Op("add", "v", ("v", "v")),
            Op("mul", "$sq", ("$sum", "$sum")),
            Op("mulw", "$w", ("@k", "$sum")),
            Op("shl", "$big", ("$sum", "12")),
            Op("shr", "$half", ("$sum", "1")),
            Op("gt", "$f", ("$sum", "v")),
            Op("sel", "u", ("$f", "$big", "u")),
        ))
        top = V_FMT.max_raw
        env = run({"v": top, "u": 0, "@k": 3 << KQ_FRAC})
        assert env["$sum"] == 2 * top  # a register is 32 bits wide
        assert env["v"] == top  # the v field is 24
        assert env["$sq"] == REG_FMT.max_raw
        assert env["$w"] == 3 * 2 * top
        assert env["$big"] == REG_FMT.max_raw
        assert env["$half"] == top
        assert env["$f"] is True
        assert env["u"] == V_FMT.max_raw
