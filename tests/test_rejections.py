"""Every way an input file is rejected: exit 2, one exact ``error:`` line on
stderr and no output directory, pinned message by message; and a fuzz test
that mutates the config, the ``gonogo`` flags, the environment and the
schedule and holds every run to the same contract."""

import contextlib
import io
import os
import tempfile
from importlib import resources
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import HealthCheck, event, given, settings, strategies as st

from neurocore.cli import main
from neurocore.config import default_config_text

CONNECTION = "[connection STR_D1 -> STR_D1]\nweight = -0.3\nprob = 1\n"


def case(old, new, message, id):
    return pytest.param(old, new, message, id=id)


@pytest.mark.parametrize(
    "old, new, message",
    [
        case("[generator G_Ctx1]", "[plasticity]\nrate = 1\n\n[generator G_Ctx1]",
             "unknown section [plasticity]", "unknown-section"),
        case("[population", "[populations", "unknown section [populations STR_D1]",
             "unknown-section-kind"),
        # [DEFAULT] is no section of configparser's own, whose keys every section would share
        case("[generator G_Ctx1]", "[DEFAULT]\nfoo = 1\n\n[generator G_Ctx1]",
             "unknown section [DEFAULT]", "default-section"),
        case("[simulation]", "[DEFAULT]\nseed = 5\n\n[simulation]",
             "unknown section [DEFAULT]", "default-section-known-key"),
        case("seed = 1", "seed = 1\nbetta = 0.6",
             "[simulation] has unknown key 'betta'", "unknown-key-simulation"),
        case("beta = 0.6", "beta = 0.6\nbetta = 0.6",
             "[population STR_D1] has unknown key 'betta'", "unknown-key-population"),
        case("rate_hz = 15", "rate_hz = 15\nbetta = 0.6",
             "[generator G_Ctx1] has unknown key 'betta'", "unknown-key-generator"),
        case(CONNECTION, CONNECTION + "betta = 0.6\n",
             "[connection STR_D1 -> STR_D1] has unknown key 'betta'", "unknown-key-connection"),
        case("d = 8\n", "", "[population STR_D1] is missing 'd'", "missing-population-key"),
        case("size = 100\na = 0.02", "a = 0.02",
             "[population STR_D1] is missing 'size'", "missing-population-size"),
        case("targets = STR_D1\n", "", "[generator G_Ctx1] is missing 'targets'",
             "missing-generator-key"),
        case(CONNECTION, CONNECTION.replace("prob = 1\n", ""),
             "[connection STR_D1 -> STR_D1] is missing 'prob'", "missing-connection-key"),
        case("a = 0.02", "a = fast", "[population STR_D1] a = 'fast' is not a number",
             "float-not-a-number"),
        case("seed = 1", "seed = 1.5", "[simulation] seed = '1.5' is not a number",
             "int-not-a-number"),
        case("size = 100", "size = 1e2", "[population STR_D1] size = '1e2' is not a number",
             "size-not-a-number"),
        case("weight = -7.5", "weight = inf",
             "[connection STR_D1 -> GPi/SNr] weight = 'inf' is not finite", "inf"),
        case("rate_hz = 15", "rate_hz = nan", "[generator G_Ctx1] rate_hz = 'nan' is not finite",
             "nan"),
        case("duration_ms = 1000", "duration_ms = 1e400",
             "[simulation] duration_ms = '1e400' is not finite", "float-overflow"),
        case("size = 100", "size = 0", "[population STR_D1] size 0 outside [1, 2147483647]",
             "size-0"),
        case("size = 100\nrate_hz", f"size = {2**31}\nrate_hz",
             "[generator G_Ctx1] size 2147483648 outside [1, 2147483647]", "size-2**31"),
        case("targets = STR_D1\n", "targets = ,\n", "[generator G_Ctx1] has an empty target list",
             "empty-targets"),
        case(CONNECTION, CONNECTION.replace(" -> ", " to "),
             "[connection STR_D1 to STR_D1] must be named 'connection PRE -> POST'",
             "connection-not-named-pre-post"),
        case("rate_hz = 15", "rate_hz = 9000",
             "[generator G_Ctx1] rate 9000.0 Hz exceeds one spike per step", "rate-too-high"),
        case("rate_hz = 15", "rate_hz = -3", "[generator G_Ctx1] rate must be >= 0, got -3.0",
             "rate-negative"),
        case("prob = 0.2", "prob = 1.5",
             "[generator G_Ctx1] connection G_Ctx1 -> STR_D1: prob 1.5 outside [0, 1]",
             "generator-prob"),
        case(CONNECTION, CONNECTION.replace("prob = 1", "prob = -0.5"),
             "[connection STR_D1 -> STR_D1] connection STR_D1 -> STR_D1: prob -0.5 outside [0, 1]",
             "connection-prob"),
        case("a = 0.02", "a = -1", "[population STR_D1] a must be positive, got -1.0",
             "population-value"),
        case("record = STR_D1, STR_D2, STR_FSI, GPe, STN, GPi/SNr", "record =",
             "[simulation] record must name at least one population", "empty-record"),
        case("settle_ms = 200", "settle_ms = 1000",
             "[simulation] settle_ms must satisfy 0 <= settle_ms < duration_ms (1000), got 1000",
             "simulation-value"),
        case("targets = STR_D1\n", "targets = STR_D1, ghost\n",
             "generator G_Ctx1 targets unknown population 'ghost'", "unknown-target"),
        case(CONNECTION, CONNECTION.replace("-> STR_D1", "-> ghost"),
             "connection STR_D1 -> ghost references unknown population 'ghost'",
             "unknown-endpoint"),
        case("size = 100\n", "size 100\n", "line 13: 'size 100' is not 'key = value' in a [section]",
             "line-without-equals"),
    ],
)
def test_config_rejection_message(tmp_path, capsys, old, new, message):
    text = default_config_text()
    assert old in text
    cfg = tmp_path / "run.cfg"
    cfg.write_text(text.replace(old, new, 1))
    out_dir = tmp_path / "o"
    assert main(["gonogo", "--config", str(cfg), "--out", str(out_dir)]) == 2
    assert capsys.readouterr().err == f"error: {cfg}: {message}\n"
    assert not out_dir.exists()


@pytest.mark.parametrize(
    "argv", [["gonogo", "--config"], ["validate-schedule", "--schedule"]], ids=["config", "schedule"]
)
@pytest.mark.parametrize(
    "make, reason",
    [
        (lambda path: None, "No such file or directory"),
        (lambda path: path.mkdir(), "Is a directory"),
        (lambda path: path.write_bytes(b"[simulation]\nseed = 1\xff\n"),
         "not UTF-8 text (invalid start byte)"),
    ],
    ids=["missing", "directory", "not-utf-8"],
)
def test_unreadable_file_message(tmp_path, capsys, argv, make, reason):
    path = tmp_path / "input"
    make(path)
    assert main([*argv, str(path)]) == 2
    assert capsys.readouterr().err == f"error: {path}: {reason}\n"


# ---------------------------------------------------------------------------
# Fuzz
# ---------------------------------------------------------------------------

# The shipped circuit, four-step runs of three neurons per group: every
# mutation that leaves it valid runs in milliseconds.
SMALL = (
    default_config_text()
    .replace("duration_ms = 1000", "duration_ms = 0.5")
    .replace("settle_ms = 200", "settle_ms = 0.25")
    .replace("size = 100", "size = 3")
)
LINES = SMALL.splitlines()
KEY_LINES = [i for i, line in enumerate(LINES) if " = " in line and not line.startswith("#")]
SECTION_LINES = [i for i, line in enumerate(LINES) if line.startswith("[")]
# the default duration is a full second, so its line is never dropped
DROPPABLE = [i for i in KEY_LINES if not LINES[i].startswith("duration_ms")]
# durations stay short or invalid, sizes small or invalid; other values run
# from one that quantises to zero to ones that saturate a fixed-point field
DURATIONS = ["0.5", "1", "0.25", "0.01", "0", "-1", "nan", "inf", "1e308", "x", ""]
SIZES = ["1", "2", "0", "-1", "1.5", str(2**31), str(2**64), "x", ""]
VALUES = ["0", "1", "2", "-1", "0.5", "1.5", "1e-9", "10", "5000", "1e300", "-1e300", "1e400",
          "nan", "-inf", "x", "", ",", "STR_D1", "float", "fixed", "ghost, STN"]
SECTIONS = ["simulation", "population X", "generator STN", "connection STN -> ghost",
            "connection STN", "populations STN", "DEFAULT", ""]
SEEDS = ["0", "5", "-1", str(2**64), "1.5", "x", ""]


@st.composite
def config_texts(draw):
    lines = list(LINES)
    for _ in range(draw(st.integers(0, 2))):
        # replace three times as often: most values reach the checks past the parser
        kind = draw(st.sampled_from(["replace", "drop", "replace", "duplicate", "misspell",
                                     "replace", "no-equals", "rename-section"]))
        i = draw(st.sampled_from(SECTION_LINES if kind == "rename-section" else
                                 DROPPABLE if kind == "drop" else KEY_LINES))
        key, _, value = lines[i].partition(" = ")
        if kind == "drop":
            lines[i] = ""
        elif kind == "duplicate":
            lines.insert(i, lines[i])
        elif kind == "misspell":
            lines[i] = f"{key}{draw(st.sampled_from(['_', 's', 'X']))} = {value}"
        elif kind == "replace":
            values = {"duration_ms": DURATIONS, "size": SIZES}.get(key, VALUES)
            lines[i] = f"{key} = {draw(st.sampled_from(values))}"
        elif kind == "no-equals":
            lines.insert(i, draw(st.sampled_from(["size 3", "oops", "= 1", "[broken"])))
        else:
            lines[i] = f"[{draw(st.sampled_from(SECTIONS))}]"
    return "\n".join(lines) + "\n"


def run_main(argv: list[str], env: dict) -> tuple[int, str]:
    """``main``'s exit code and stderr, with stdout swallowed, under ``env``
    (a None value unsets its variable)."""
    stderr = io.StringIO()
    with mock.patch.dict(os.environ), contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(stderr):
        for name, value in env.items():
            if value is None:
                os.environ.pop(name, None)
            else:
                os.environ[name] = value
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse's rejections
            code = exc.code
    return code, stderr.getvalue()


def check_exit(code: int, err: str) -> None:
    event(f"exit {code}")
    assert code in (0, 1, 2)
    if code:
        assert err.startswith("error: ") and err.count("\n") == 1, err
    else:
        assert err == ""


# at most two of these per run, each from its valid and invalid values
CHANGES = {"--seed": SEEDS, "--backend": ["fixed", "float", "gpu"], "--duration-ms": DURATIONS,
           "NEUROCORE_SEED": SEEDS}
# where the output goes: --out, NEUROCORE_OUT, neither (the config's default,
# under the working directory) or NEUROCORE_OUT under a regular file
OUTS = {"flag": "o", "env": "env", "none": "out", "under-a-file": "file/o"}


@st.composite
def run_settings(draw):
    names = draw(st.lists(st.sampled_from(sorted(CHANGES)), max_size=2, unique=True))
    return {name: draw(st.sampled_from(CHANGES[name])) for name in names}


FUZZ = settings(derandomize=True, deadline=None, suppress_health_check=[HealthCheck.too_slow])


@settings(FUZZ, max_examples=80)
@given(text=config_texts(), changed=run_settings(), out=st.sampled_from(sorted(OUTS)))
def test_gonogo_fuzz(text, changed, out):
    """Exit 0, 1 or 2; a failure is one ``error:`` line, and exit 2 writes
    nothing, wherever the output would have gone."""
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        cfg = tmp / "run.cfg"
        cfg.write_text(text)
        (tmp / "file").write_text("")
        target = tmp / OUTS[out]
        argv = ["gonogo", "--config", str(cfg)]
        argv += [arg for flag, value in changed.items() if flag.startswith("--")
                 for arg in (flag, value)]
        env = {"NEUROCORE_SEED": changed.get("NEUROCORE_SEED"), "NEUROCORE_OUT": ""}
        if out == "flag":
            argv += ["--out", str(target)]
        elif out != "none":
            env["NEUROCORE_OUT"] = str(target)
        cwd = os.getcwd()
        os.chdir(tmp)
        try:
            code, err = run_main(argv, env)
        finally:
            os.chdir(cwd)
        check_exit(code, err)
        if code == 2:
            assert sorted(p.name for p in tmp.iterdir()) == ["file", "run.cfg"]
        elif code == 0:
            assert (target / "rates_summary.json").exists()


SCHEDULE = resources.files("neurocore").joinpath("data/izhikevich_schedule.txt").read_text()
SCHEDULE_LINES = SCHEDULE.splitlines()
TOKENS = ["v", "u", "$x", "$dv", "@alpha", "@nope", "DA", "41", "-1", "0", "mul", "shr",
          "frob", "<-", ",", "block: extra", "word: 9", "word: -", "²", ""]


@st.composite
def schedule_texts(draw):
    lines = list(SCHEDULE_LINES)
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.integers(0, len(lines) - 1))
        kind = draw(st.sampled_from(["drop", "duplicate", "swap", "token", "insert"]))
        if kind == "drop":
            del lines[i]
        elif kind == "duplicate":
            lines.insert(i, lines[i])
        elif kind == "swap":
            j = draw(st.integers(0, len(lines) - 1))
            lines[i], lines[j] = lines[j], lines[i]
        elif kind == "token":
            words = lines[i].split(" ")
            words[draw(st.integers(0, len(words) - 1))] = draw(st.sampled_from(TOKENS))
            lines[i] = " ".join(words)
        else:
            lines.insert(i, draw(st.sampled_from(TOKENS)))
        if not lines:
            break
    return "\n".join(lines) + "\n"


@settings(FUZZ, max_examples=50)
@given(text=schedule_texts())
def test_validate_schedule_fuzz(text):
    """A mutated schedule is valid (0), breaks the one-state-word rule (1,
    reported on stdout) or is rejected with one ``error:`` line (2)."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "mutated.sched"
        path.write_text(text, encoding="utf-8")
        code, err = run_main(["validate-schedule", "--schedule", str(path)], {})
    if code == 2:
        check_exit(code, err)
    else:  # a violation is reported on stdout
        event(f"exit {code}")
        assert code in (0, 1) and err == ""
