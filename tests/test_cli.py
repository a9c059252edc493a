"""Command-line interface: subcommands, exit codes, artifact layout."""

import json
import os
import subprocess
import sys
from dataclasses import replace
from importlib import resources
from pathlib import Path

import pytest

import neurocore
from neurocore import compiler
from neurocore.cli import main


def small_config(tmp_path, **overrides):
    """A scaled-down copy of the default network for quick CLI runs."""
    from neurocore.config import default_config_text

    text = default_config_text()
    text = text.replace("size = 100", "size = 20")
    text = text.replace("duration_ms = 1000", f"duration_ms = {overrides.get('duration_ms', 250)}")
    text = text.replace("settle_ms = 200", f"settle_ms = {overrides.get('settle_ms', 50)}")
    path = tmp_path / "small.cfg"
    path.write_text(text)
    return path


def single_error_line(capsys) -> str:
    """The whole of stderr, which must be one ``error: ...`` line."""
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    return err


class TestExitCodes:
    def test_unknown_subcommand_exits_2(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["frobnicate"])
        assert excinfo.value.code == 2
        assert "invalid choice: 'frobnicate'" in single_error_line(capsys)

    def test_missing_subcommand_exits_2(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main([])
        assert excinfo.value.code == 2
        assert "required: command" in single_error_line(capsys)

    def test_bad_flag_exits_2(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["errt", "--no-such-flag"])
        assert excinfo.value.code == 2
        assert "--no-such-flag" in single_error_line(capsys)

    def test_bad_int_exits_2(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["gonogo", "--seed", "abc"])
        assert excinfo.value.code == 2
        assert "--seed: invalid int value: 'abc'" in single_error_line(capsys)

    def test_bad_float_exits_2(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["regimes", "--duration-ms", "abc"])
        assert excinfo.value.code == 2
        assert "--duration-ms: invalid float value: 'abc'" in single_error_line(capsys)

    def test_config_parse_error_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("[population x]\nsize = banana\n")
        code = main(["gonogo", "--config", str(bad), "--out", str(tmp_path / "o")])
        assert code == 2
        assert "bad.cfg" in capsys.readouterr().err

    def test_missing_config_file_exits_2(self, tmp_path):
        code = main(["gonogo", "--config", str(tmp_path / "nope.cfg")])
        assert code == 2

    def test_threads_flag_removed(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["gonogo", "--threads", "2"])
        assert excinfo.value.code == 2
        assert "--threads" in single_error_line(capsys)

    def test_threads_config_key_rejected(self, tmp_path, capsys):
        cfg = small_config(tmp_path)
        cfg.write_text(cfg.read_text().replace("[simulation]\n", "[simulation]\nthreads = 2\n"))
        out_dir = tmp_path / "o"
        assert main(["gonogo", "--config", str(cfg), "--out", str(out_dir)]) == 2
        assert "unknown key 'threads'" in single_error_line(capsys)
        assert not out_dir.exists()


class TestInvalidInput:
    @pytest.mark.parametrize(
        "duration", ["100", "nan", "inf"], ids=["shorter-than-settle", "nan", "inf"]
    )
    def test_gonogo_rejects(self, tmp_path, capsys, duration):
        out_dir = tmp_path / "o"
        assert main(["gonogo", "--duration-ms", duration, "--out", str(out_dir)]) == 2
        assert "duration_ms" in single_error_line(capsys)
        assert not (out_dir / "rates_summary.json").exists()

    def test_gonogo_rejects_non_utf8_config(self, tmp_path, capsys):
        cfg = small_config(tmp_path)
        cfg.write_bytes(cfg.read_bytes().replace(b"# Default", b"# D\xe9fault", 1))
        out_dir = tmp_path / "o"
        assert main(["gonogo", "--config", str(cfg), "--out", str(out_dir)]) == 2
        assert f"{cfg}: not UTF-8 text" in single_error_line(capsys)
        assert not out_dir.exists()

    def test_float_overflow_exits_1(self, tmp_path, capsys):
        # an overflow of the float membrane update must not read as spikes
        cfg = small_config(tmp_path)
        cfg.write_text(cfg.read_text().replace("weight = -7.5", "weight = -1e300", 1))
        out_dir = tmp_path / "o"
        argv = ["gonogo", "--config", str(cfg), "--backend", "float", "--out", str(out_dir)]
        assert main(argv) == 1
        assert "overflow" in single_error_line(capsys)
        assert not (out_dir / "rates_summary.json").exists()

    def test_float_input_sum_overflow_exits_1(self, tmp_path, capsys):
        # a delivered sum past float64 is inf without a floating-point error
        cfg = tmp_path / "overflow.cfg"
        cfg.write_text(
            "[simulation]\nduration_ms = 5\nsettle_ms = 0\n\n"
            "[population A]\nsize = 3\na = 0.02\nb = 0.2\nc = -65\nd = 8\n\n"
            "[generator P]\nsize = 10\nrate_hz = 4000\ntargets = A\nweight = 1e308\nprob = 1\n"
        )
        out_dir = tmp_path / "o"
        argv = ["gonogo", "--config", str(cfg), "--backend", "float", "--out", str(out_dir)]
        assert main(argv) == 1
        assert "overflow" in single_error_line(capsys)
        assert not (out_dir / "rates_summary.json").exists()

    def test_gonogo_rejects_negative_seed(self, tmp_path, capsys):
        out_dir = tmp_path / "o"
        assert main(["gonogo", "--seed", "-1", "--out", str(out_dir)]) == 2
        assert "seed" in single_error_line(capsys)
        assert not (out_dir / "rates_summary.json").exists()

    @pytest.mark.parametrize("command", ["regimes", "errt", "gonogo"])
    def test_duration_with_infinite_step_count_rejected(self, tmp_path, capsys, command):
        # 1e308 ms is finite, but not once divided by the 0.125 ms timestep
        out_dir = tmp_path / "o"
        extra = [] if command == "errt" else ["--out", str(out_dir)]
        assert main([command, "--duration-ms", "1e308", *extra]) == 2
        assert "duration_ms" in single_error_line(capsys)
        assert not out_dir.exists()

    @pytest.mark.parametrize("where", ["flag", "environment", "config"])
    def test_gonogo_rejects_seed_past_64_bits(self, tmp_path, capsys, monkeypatch, where):
        cfg = small_config(tmp_path)
        argv = ["gonogo", "--config", str(cfg), "--out", str(tmp_path / "o")]
        if where == "flag":
            argv += ["--seed", str(2**64)]
        elif where == "environment":
            monkeypatch.setenv("NEUROCORE_SEED", str(2**64))
        else:
            cfg.write_text(cfg.read_text().replace("seed = 1", f"seed = {2**64}", 1))
        assert main(argv) == 2
        assert "seed" in single_error_line(capsys)
        assert not (tmp_path / "o").exists()

    def test_errt_too_short_for_two_spikes(self, capsys):
        """Both comparisons are made before anything is printed, so the
        rejected run writes nothing to stdout."""
        assert main(["errt", "--duration-ms", "5"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert "2 spikes" in captured.err

    def test_gonogo_rejects_sub_timestep_config_duration(self, tmp_path, capsys):
        # 0.01 ms rounds to zero 0.125 ms steps
        cfg = small_config(tmp_path, duration_ms=0.01, settle_ms=0)
        out_dir = tmp_path / "o"
        assert main(["gonogo", "--config", str(cfg), "--out", str(out_dir)]) == 2
        assert "duration_ms" in single_error_line(capsys)
        assert not (out_dir / "rates_summary.json").exists()

    @pytest.mark.parametrize("command", ["regimes", "errt"])
    def test_sub_timestep_duration_rejected(self, tmp_path, capsys, command):
        out_dir = tmp_path / "o"
        extra = ["--out", str(out_dir)] if command == "regimes" else []
        assert main([command, "--duration-ms", "0.01", *extra]) == 2
        assert "duration_ms" in single_error_line(capsys)
        assert not out_dir.exists()

    def test_regimes_rejects_nan(self, tmp_path, capsys):
        out_dir = tmp_path / "o"
        assert main(["regimes", "--duration-ms", "nan", "--out", str(out_dir)]) == 2
        assert "duration_ms" in single_error_line(capsys)
        assert not out_dir.exists()

    @pytest.mark.parametrize("command", ["gonogo", "regimes"])
    def test_unusable_out_dir_fails_before_simulating(self, tmp_path, capsys, monkeypatch,
                                                      command):
        """An --out under a regular file exits 2 with one line, and gonogo
        never starts the simulation."""
        (tmp_path / "file").write_text("")
        ran = []
        monkeypatch.setattr(neurocore.cli, "run_gonogo", lambda net, cfg: ran.append(cfg))
        extra = ["--config", str(small_config(tmp_path))] if command == "gonogo" else []
        assert main([command, *extra, "--out", str(tmp_path / "file" / "x")]) == 2
        assert "output directory" in single_error_line(capsys)
        assert ran == []


class TestInvalidCircuit:
    """Circuit values that crashed, ran silently wrong or clipped: exit 2,
    one ``error:`` line naming the section (and, for a clip, the value and
    the field's range), no output directory."""

    @pytest.mark.parametrize(
        "old, new, message",
        [
            ("rate_hz = 15", "rate_hz = 9000", "[generator G_Ctx1]"),
            ("rate_hz = 15", "rate_hz = -3", "[generator G_Ctx1]"),
            ("rate_hz = 15", "rate_hz = nan", "[generator G_Ctx1]"),
            ("weight = -7.5", "weight = 0.00001", "connection STR_D1 -> GPi/SNr"),
            ("weight = -7.5", "weight = nan", "[connection STR_D1 -> GPi/SNr]"),
            ("a = 0.1\n", "a = nan\n", "[population STR_FSI]"),
            ("i_const = 5", "i_const = 10",
             "population 'GPe': i_const = 10 saturates its 16-bit field, range [-8.0, 7.99975"),
            ("weight = -7.5", "weight = 5000",
             "connection STR_D1 -> GPi/SNr: weight = 5000 saturates its 24-bit field, "
             "range [-2048.0, 2047.99975"),
            ("i_const = 5", "i_const = 5\nv_peak = 3000",
             "population 'GPe': v_peak = 3000 saturates its 24-bit field, "
             "range [-2048.0, 2047.99975"),
            ("size = 20", f"size = {10**30}",
             f"small.cfg: [population STR_D1] size {10**30} outside [1, 2147483647]"),
            ("size = 20\nrate_hz = 15", f"size = {10**30}\nrate_hz = 15",
             f"small.cfg: [generator G_Ctx1] size {10**30} outside [1, 2147483647]"),
        ],
        ids=[
            "rate-9000", "rate-negative", "rate-nan", "weight-quantises-to-zero",
            "weight-nan", "a-nan", "i_const-saturates", "weight-saturates",
            "v_peak-saturates", "size-past-int32-ids", "generator-size-past-int32-ids",
        ],
    )
    def test_gonogo_rejects(self, tmp_path, capsys, old, new, message):
        cfg = small_config(tmp_path)
        cfg.write_text(cfg.read_text().replace(old, new, 1))
        out_dir = tmp_path / "o"
        assert main(["gonogo", "--config", str(cfg), "--out", str(out_dir)]) == 2
        assert message in single_error_line(capsys)
        assert not out_dir.exists()


class TestUnparseableConfig:
    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda text: "x = 1\n" + text,
             "small.cfg: line 1: 'x = 1' is not 'key = value' in a [section]"),
            (lambda text: text.replace("size = 20", "size 20", 1),
             "'size 20' is not 'key = value' in a [section]"),
        ],
        ids=["key-before-any-section", "line-without-equals"],
    )
    def test_one_error_line(self, tmp_path, capsys, edit, message):
        """configparser's messages for these two span several lines."""
        cfg = small_config(tmp_path)
        cfg.write_text(edit(cfg.read_text()))
        out_dir = tmp_path / "o"
        assert main(["gonogo", "--config", str(cfg), "--out", str(out_dir)]) == 2
        line = single_error_line(capsys)
        assert message in line and "small.cfg: line " in line
        assert not out_dir.exists()


class TestValidateSchedule:
    def test_schedule_whose_clip_reads_only_inputs_runs(self, tmp_path, capsys):
        """Ops on group inputs alone, in ``step`` and in ``hoist``, whose
        one-call clip once raised on Python ints: the forms now run."""
        text = resources.files("neurocore").joinpath("data/izhikevich_schedule.txt").read_text()
        for op in ("sub isyn <- @alpha, @beta", "sub $k <- @alpha, @beta"):
            path = tmp_path / "inputs.sched"
            anchor = "op: mov isyn <- $isyn\n"
            path.write_text(text.replace(anchor, f"{anchor}op: {op}\n"))
            assert main(["validate-schedule", "--schedule", str(path)]) == 0
            assert "compiles; 14 of 37 clips kept" in capsys.readouterr().out

    def test_form_that_fails_to_run_exits_2(self, monkeypatch, capsys):
        broken = replace(compiler.ARRAYS, clip="{x} = {x}.no_such_clip({lower}, {upper})")
        monkeypatch.setattr(neurocore.cli, "ARRAYS", broken)
        assert main(["validate-schedule"]) == 2
        assert "the array form fails to run: AttributeError" in single_error_line(capsys)

    def test_shipped_schedule_ok(self, capsys):
        assert main(["validate-schedule"]) == 0
        out = capsys.readouterr().out
        assert "OK" in out and "compiles; 13 of 36 clips kept" in out
        assert "6 in the network form" in out and "6 in the regime form" in out
        assert ("whose loop runs 22 ops per step, 10 once per call and 1 once per run, "
                "3 folded to constants)") in out

    def test_directory_schedule_exits_2(self, tmp_path, capsys):
        assert main(["validate-schedule", "--schedule", str(tmp_path)]) == 2
        assert str(tmp_path) in single_error_line(capsys)

    def test_violating_schedule_fails(self, tmp_path, capsys):
        bad = tmp_path / "bad.sched"
        bad.write_text(
            "schedule: bad\nblock: mix\nword: -\nop: add $t <- v, c\n"
        )
        assert main(["validate-schedule", "--schedule", str(bad)]) == 1
        assert "mix" in capsys.readouterr().out

    def test_unparseable_schedule_exits_2(self, tmp_path):
        bad = tmp_path / "junk.sched"
        bad.write_text("op: dangling <- x\n")
        assert main(["validate-schedule", "--schedule", str(bad)]) == 2

    def test_non_utf8_schedule_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.sched"
        bad.write_bytes(b"schedule: bad\nblock: b\nword: 2\nop: mov $x <- v\xff\n")
        assert main(["validate-schedule", "--schedule", str(bad)]) == 2
        assert "not UTF-8 text" in single_error_line(capsys)

    @pytest.mark.parametrize(
        "text,message",
        [
            ("block: b\nword: 2\nop: frob $x <- v\n", "unknown op 'frob'"),
            ("block: b\nword: two\nop: mov $x <- v\n", "word must be a number"),
            ("block: b\nword: 2\nop: shr $x <- v, \u00b2\n", "not ASCII digits"),
            ("block: b\nword: 2\nop: mov $x=1;y <- v\n", "not a register name"),
            ("block: b\nword: 2\nop: mov $x <- @nope\n", "unknown constant '@nope'"),
            ("block: b\nword: 2\nop: shl $x <- v, 41\nop: mov u <- $x\n", "can leave int64"),
        ],
        ids=["unknown-op", "non-numeric-word", "non-ascii-literal", "register-name",
             "unknown-constant", "int64-overflow"],
    )
    def test_uncompilable_schedule_exits_2(self, tmp_path, capsys, text, message):
        bad = tmp_path / "bad.sched"
        bad.write_text("schedule: bad\n" + text, encoding="utf-8")
        assert main(["validate-schedule", "--schedule", str(bad)]) == 2
        assert message in single_error_line(capsys)


class TestErrtCommand:
    def test_reports_both_regimes(self, capsys):
        assert main(["errt", "--duration-ms", "400"]) == 0
        out = capsys.readouterr().out
        assert "RS:" in out and "FS:" in out and "%" in out


class TestGonogoCommand:
    def test_output_tree(self, tmp_path):
        out_dir = tmp_path / "results"
        cfg = small_config(tmp_path)
        code = main(["gonogo", "--config", str(cfg), "--out", str(out_dir)])
        assert code == 0
        for condition in ("baseline", "high", "low"):
            assert (out_dir / f"raster_{condition}.csv").exists()
            assert (out_dir / f"raster_{condition}.svg").exists()
        summary = json.loads((out_dir / "rates_summary.json").read_text())
        assert summary["metadata"]["backend"] == "fixed"
        assert set(summary["conditions"]) == {"baseline", "high", "low"}
        baseline = summary["conditions"]["baseline"]["populations"]
        assert set(baseline) == {
            "STR_D1", "STR_D2", "STR_FSI", "GPe", "STN", "GPi/SNr"
        }
        for stats in baseline.values():
            assert set(stats) == {"mean_rate_hz", "spike_count"}

        # the output nucleus band thins out under high dopamine
        def gpi_events(condition):
            lines = (out_dir / f"raster_{condition}.csv").read_text().splitlines()[1:]
            settle_steps = 50 / 0.125
            return sum(
                1 for line in lines
                if line.split(",")[2] == "GPi/SNr" and int(line.split(",")[0]) >= settle_steps
            )

        assert gpi_events("high") < gpi_events("low")

    def test_builds_the_circuit_once(self, tmp_path, monkeypatch):
        """The build that validates the circuit is the one the three
        conditions run copies of: one draw per configured connection."""
        from neurocore.config import parse_config

        cfg, calls = small_config(tmp_path), []
        build_connections = neurocore.network.build_connections

        def counted(*args):
            calls.append(args)
            return build_connections(*args)

        monkeypatch.setattr(neurocore.network, "build_connections", counted)
        assert main(["gonogo", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0
        assert len(calls) == len(parse_config(cfg).connection_specs())

    def test_byte_identical_reruns(self, tmp_path):
        cfg = small_config(tmp_path)
        outputs = []
        for name in ("a", "b"):
            out_dir = tmp_path / name
            code = main([
                "gonogo", "--config", str(cfg), "--out", str(out_dir), "--seed", "5",
            ])
            assert code == 0
            outputs.append({
                p.name: p.read_bytes()
                for p in sorted(out_dir.iterdir())
                if p.suffix == ".csv"
            })
        assert outputs[0] == outputs[1]

    def test_env_seed_override(self, tmp_path, monkeypatch):
        cfg = small_config(tmp_path)
        monkeypatch.setenv("NEUROCORE_SEED", "77")
        out_dir = tmp_path / "env"
        assert main(["gonogo", "--config", str(cfg), "--out", str(out_dir)]) == 0
        summary = json.loads((out_dir / "rates_summary.json").read_text())
        assert summary["metadata"]["seed"] == 77

    def test_env_out_override(self, tmp_path, monkeypatch):
        cfg = small_config(tmp_path)
        target = tmp_path / "from-env"
        monkeypatch.setenv("NEUROCORE_OUT", str(target))
        assert main(["gonogo", "--config", str(cfg)]) == 0
        assert (target / "rates_summary.json").exists()

    def test_flag_beats_env(self, tmp_path, monkeypatch):
        cfg = small_config(tmp_path)
        monkeypatch.setenv("NEUROCORE_SEED", "77")
        out_dir = tmp_path / "flag"
        assert main([
            "gonogo", "--config", str(cfg), "--seed", "9", "--out", str(out_dir)
        ]) == 0
        summary = json.loads((out_dir / "rates_summary.json").read_text())
        assert summary["metadata"]["seed"] == 9

    def test_outputs_stay_under_out_dir(self, tmp_path, monkeypatch):
        cfg = small_config(tmp_path)
        out_dir = tmp_path / "only-here"
        monkeypatch.chdir(tmp_path)
        before = set(tmp_path.iterdir())
        assert main(["gonogo", "--config", str(cfg), "--out", str(out_dir)]) == 0
        created = set(tmp_path.iterdir()) - before
        assert created == {out_dir}

    def test_named_generator_rated_as_recorded(self, tmp_path):
        cfg = small_config(tmp_path)
        cfg.write_text(cfg.read_text().replace("record = STR_D1, STR_D2, STR_FSI, GPe, STN, GPi/SNr",
                                               "record = STN, G_Ctx1"))
        out_dir = tmp_path / "out"
        assert main(["gonogo", "--config", str(cfg), "--out", str(out_dir)]) == 0
        summary = json.loads((out_dir / "rates_summary.json").read_text())
        for condition, result in summary["conditions"].items():
            assert list(result["populations"]) == ["G_Ctx1", "STN"]  # sorted keys
            rows = [line.split(",") for line in
                    (out_dir / f"raster_{condition}.csv").read_text().splitlines()[1:]]
            in_window = sum(1 for step, time_ms, pop, _ in rows
                            if pop == "G_Ctx1" and 50 <= float(time_ms) < 250)
            stats = result["populations"]["G_Ctx1"]
            assert stats["spike_count"] == in_window > 0
            assert stats["mean_rate_hz"] == in_window / (20 * 0.2)


class TestRegimesCommand:
    def test_traces_and_report(self, tmp_path):
        out_dir = tmp_path / "regimes"
        code = main(["regimes", "--duration-ms", "400", "--out", str(out_dir)])
        assert code == 0
        report = (out_dir / "regimes_report.txt").read_text()
        for regime in ("RS", "FS", "IB", "CH", "LTS", "REBOUND"):
            assert regime in report
        assert "FAIL" not in report
        assert (out_dir / "regime_rs_fixed.csv").exists()
        assert (out_dir / "regime_rebound_float.csv").exists()
        header = (out_dir / "regime_rs_fixed.csv").read_text().splitlines()[0]
        assert header == "step,time_ms,v_mv"

    def test_trace_bytes(self, tmp_path):
        # the first millisecond of the fixed-point RS trace: the step, its
        # time in the shortest form and the voltage to six decimals
        out_dir = tmp_path / "regimes"
        main(["regimes", "--duration-ms", "1", "--out", str(out_dir)])
        assert (out_dir / "regime_rs_fixed.csv").read_bytes() == (
            b"step,time_ms,v_mv\n"
            b"0,0,-68.750488\n1,0.125,-67.586914\n2,0.25,-66.489258\n3,0.375,-65.441650\n"
            b"4,0.5,-64.430664\n5,0.625,-63.444580\n6,0.75,-62.472900\n7,0.875,-61.506104\n"
        )

    def test_empty_env_out_is_unset(self, tmp_path, monkeypatch):
        """An empty ``NEUROCORE_OUT`` means unset, as for ``gonogo``: the
        files go to ``out``, not into the working directory."""
        monkeypatch.chdir(tmp_path)
        monkeypatch.setenv("NEUROCORE_OUT", "")
        assert main(["regimes", "--duration-ms", "50"]) in (0, 1)
        assert list(tmp_path.iterdir()) == [tmp_path / "out"]
        assert (tmp_path / "out" / "regimes_report.txt").exists()


class TestPrintConfig:
    def test_prints_default(self, capsys):
        assert main(["print-config"]) == 0
        out = capsys.readouterr().out
        assert "[population GPe]" in out
        assert "[connection STN -> GPi/SNr]" in out

    def test_python_m_neurocore(self, capsys):
        """``python -m neurocore`` runs the same entry point, as it must in a
        checkout that is not installed."""
        src = Path(neurocore.__file__).parents[1]
        path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
        run = subprocess.run(
            [sys.executable, "-m", "neurocore", "print-config"],
            capture_output=True, text=True, env=os.environ | {"PYTHONPATH": path}, timeout=60,
        )
        assert main(["print-config"]) == 0
        assert (run.returncode, run.stdout, run.stderr) == (0, capsys.readouterr().out, "")
