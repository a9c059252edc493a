"""Command-line entry point.

Subcommands:

    regimes            run the six firing-regime demonstrations on both
                       backends; write voltage traces and a detection report
    errt               spike-timing accuracy of the fixed-point backend
                       against the float reference (RS and FS)
    gonogo             run the three dopamine conditions of the Go/No-Go
                       network; write rasters, CSVs and a rates summary
    validate-schedule  check a block schedule against the one-state-word rule,
                       compile it and count the clips it keeps, in general
                       and for the input ranges of the network and of the
                       regime runs, and the regime loop's ops by when they run

Exit codes: 0 success, 1 runtime or check failure, 2 usage/config errors.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import analysis, regimes
from .bg import build_bg, run_gonogo
from .compiler import ARRAYS, INTS, compile_schedule, plan_schedule, run_corners
from .config import (
    check_duration, default_config_text, load_default_config, parse_config, read_text,
)
from .network import BACKENDS, STEP_INPUTS, ConfigError
from .neuron import DT_MS, SimulationError
from .schedule import INPUTS, ScheduleError, izhikevich_schedule, parse_schedule, validate_schedule

ENV_SEED = "NEUROCORE_SEED"
ENV_OUT = "NEUROCORE_OUT"


class _Parser(argparse.ArgumentParser):
    """Rejects a command line with one ``error:`` line, as any invalid input."""

    def error(self, message):
        self.exit(2, f"error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="neurocore",
        description="Fixed-point neurocore emulator and Go/No-Go experiment runner.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_reg = sub.add_parser("regimes", help="run the firing-regime demonstrations")
    p_reg.add_argument("--duration-ms", type=float, default=1000.0)
    p_reg.add_argument("--out", default=None, help="output directory")
    p_reg.set_defaults(func=cmd_regimes)

    p_errt = sub.add_parser("errt", help="spike-timing accuracy, fixed vs float")
    p_errt.add_argument("--duration-ms", type=float, default=1000.0)
    p_errt.set_defaults(func=cmd_errt)

    p_go = sub.add_parser("gonogo", help="run the Go/No-Go dopamine conditions")
    p_go.add_argument("--config", default=None, help="network config file")
    p_go.add_argument("--seed", type=int, default=None)
    p_go.add_argument("--backend", choices=BACKENDS, default=None)
    p_go.add_argument("--duration-ms", type=float, default=None)
    p_go.add_argument("--out", default=None, help="output directory")
    p_go.set_defaults(func=cmd_gonogo)

    p_val = sub.add_parser("validate-schedule", help="validate a block schedule")
    p_val.add_argument("--schedule", default=None, help="schedule file (default: shipped)")
    p_val.set_defaults(func=cmd_validate_schedule)

    p_cfg = sub.add_parser("print-config", help="print the shipped default config")
    p_cfg.set_defaults(func=cmd_print_config)
    return parser


def _out_dir(path: str) -> Path:
    """Make the output directory; a path that cannot be one is a usage error."""
    out = Path(path)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"output directory {out}: {exc.strerror or exc}") from None
    return out


def cmd_regimes(args) -> int:
    check_duration(args.duration_ms)
    out = _out_dir(args.out or os.environ.get(ENV_OUT) or "out")
    checks = []
    for backend in ("float", "fixed"):
        runs = regimes.run_demonstrations(backend, args.duration_ms)
        for name, run in runs.items():
            steps = np.arange(len(run.v_mv))
            analysis.write_csv(out / f"regime_{name.lower()}_{backend}.csv", "step,time_ms,v_mv",
                               "%d,%g,%.6f\n", [steps, steps * DT_MS, run.v_mv])
        checks += regimes.classify_runs(runs, backend)
    report = "".join(
        f"{'PASS' if c.passed else 'FAIL'}  {c.regime:8s} [{c.backend}]  {c.detail}\n"
        for c in checks
    )
    (out / "regimes_report.txt").write_text(report, newline="\n")
    print(report, end="")
    print(f"traces and report written to {out}")
    return 0 if all(c.passed for c in checks) else 1


def cmd_errt(args) -> int:
    check_duration(args.duration_ms)
    rows = [f"{name}: {analysis.errt(ref, test):.3f}%   (first interval {ref.intervals()[0]:g} ms "
            f"float, {test.intervals()[0]:g} ms fixed)"  # all made first: a rejection prints none
            for name, (ref, test) in regimes.timing_comparison(args.duration_ms).items()]
    print("spike-timing accuracy (reference: float backend)")
    print(f"stimulus: constant I={regimes.DEMO_CURRENT:g}, "
          f"{args.duration_ms:g} ms, dt = {DT_MS} ms")
    print(*rows, sep="\n")
    return 0


def cmd_gonogo(args) -> int:
    config = parse_config(args.config) if args.config else load_default_config()
    seed = args.seed
    if seed is None and ENV_SEED in os.environ:
        try:
            seed = int(os.environ[ENV_SEED])
        except ValueError as exc:
            raise ConfigError(f"{ENV_SEED}={os.environ[ENV_SEED]!r} is not an integer") from exc
    overrides = {"seed": seed, "backend": args.backend, "duration_ms": args.duration_ms}
    config = replace(config, **{k: v for k, v in overrides.items() if v is not None})
    net = build_bg(config)  # a circuit its build rejects exits before the directory is made
    out = _out_dir(args.out or os.environ.get(ENV_OUT) or config.out_dir)

    t0 = time.perf_counter()
    results = run_gonogo(net, config)
    elapsed = time.perf_counter() - t0
    total_steps = len(results) * config.steps

    recorded = config.recorded
    summary = {
        "metadata": {
            "seed": config.seed,
            "backend": config.backend,
            "duration_ms": config.duration_ms,
            "settle_ms": config.settle_ms,
            "steps_per_second": round(total_steps / elapsed, 1),
        },
        "conditions": {},
    }
    for condition, result in results.items():
        analysis.export_raster_csv(result.record, out / f"raster_{condition}.csv")
        analysis.export_raster_svg(
            result.record,
            out / f"raster_{condition}.svg",
            populations=list(recorded),
            population_sizes=recorded,
        )
        summary["conditions"][condition] = {
            "delta_dop": result.delta_dop,
            "populations": {
                pop: {
                    "mean_rate_hz": result.rates[pop],
                    "spike_count": result.spike_counts[pop],
                }
                for pop in result.rates
            },
        }
        shown = ", ".join(f"{p}={r:.2f}" for p, r in result.rates.items())
        print(f"{condition} (delta_dop={result.delta_dop:+g}): {shown} Hz")
    (out / "rates_summary.json").write_text(
        json.dumps(summary, indent=2, sort_keys=True) + "\n", newline="\n"
    )
    print(f"throughput: {total_steps / elapsed:.0f} steps/s")
    print(f"outputs written to {out}")
    return 0


def cmd_validate_schedule(args) -> int:
    if args.schedule:
        schedule = parse_schedule(read_text(args.schedule, ScheduleError))
        origin = args.schedule
    else:
        schedule = izhikevich_schedule()
        origin = "shipped izhikevich-core schedule"
    violations = validate_schedule(schedule)
    if not violations:
        regime = regimes.REGIME_INPUTS
        regime_step = compile_schedule(schedule, INTS, inputs=regime)
        for form, ins in ((INTS, INPUTS), (ARRAYS, INPUTS), (ARRAYS, STEP_INPUTS)):
            run_corners(compile_schedule(schedule, form, inputs=ins), form, ins)
        run_corners(regime_step, INTS, regime)
        split = regime_step.split
        plan = plan_schedule(schedule)
        kept = sum(op.clips for op in plan)
        in_network, in_regimes = (sum(op.clips for op in plan_schedule(schedule, inputs))
                                  for inputs in (STEP_INPUTS, regime))
        print(
            f"{origin}: OK ({len(schedule.blocks)} blocks, one state word per block, "
            f"compiles; {kept} of {len(plan)} clips kept, {in_network} in the network form, "
            f"{in_regimes} in the regime form, whose loop runs {split['step']} ops per step, "
            f"{split['call']} once per call and {split['run']} once per run, "
            f"{split['constant']} folded to constants)"
        )
        return 0
    for v in violations:
        print(f"{origin}: {v.describe()}")
    return 1


def cmd_print_config(_args) -> int:
    print(default_config_text(), end="")
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, ScheduleError, analysis.InsufficientSpikesError,
            FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (SimulationError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
