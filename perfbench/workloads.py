"""The four benchmark workloads: how each sets up, what one pass runs and
times, and which correctness checks each pass and reference must meet.

The benchmark seed becomes the network seed of the circuit workloads; the
program only ever sees the generated specs.  ``regimes_scalar`` has no
random input, so its seed changes nothing.

``reference.json`` pins, per seed, the synapse count and the raster digest
of the fixed-backend circuits, recorded when the benchmark was defined.  A
run checks its first pass against its own seed's entry; for a seed with no
entry it makes one extra, untimed pass at seed 1.  At seed 1,
``gonogo_default`` also runs the shipped full second and checks it against
the frozen baseline rates of the acceptance suite.  A change that only
claims speed must leave every pinned digest, and so every simulated spike,
identical.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field, replace
from pathlib import Path
from time import perf_counter, perf_counter_ns

from neurocore import analysis, bg, cli, config, network, neuron, regimes

REFERENCE = json.loads((Path(__file__).with_name("reference.json")).read_text())

@dataclass
class Check:
    name: str
    passed: bool
    detail: str


@dataclass
class Pass:
    """What one pass measured and produced.

    Every timing belongs to this pass: ``run_s`` is its wall time, and the
    simulate phase, its step count and the step samples lie inside it.
    """

    run_s: float  # host time of the whole pass
    sim_s: float  # host time of the simulate phase
    steps: int  # timesteps the simulate phase advanced
    neuron_steps: int  # Izhikevich neuron updates in those steps
    step_ms: list[float]  # host time of one step, one sample per timed call
    digests: dict[str, str]
    synapses: int = 0
    outputs: dict = field(default_factory=dict)  # what the checks read


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def scale_config(cfg: config.RunConfig, factor: int) -> config.RunConfig:
    """Every group ``factor`` times larger, every connection probability
    ``factor`` times smaller: fan-in and input rates stay close to the
    shipped circuit while element work per call grows ``factor``-fold."""
    cfg.populations = {
        name: (size * factor, params) for name, (size, params) in cfg.populations.items()
    }
    cfg.generators = [
        replace(g, size=g.size * factor, prob=g.prob / factor) for g in cfg.generators
    ]
    cfg.connections = [replace(c, prob=c.prob / factor) for c in cfg.connections]
    return cfg


@dataclass(frozen=True)
class Circuit:
    """The shipped Go/No-Go circuit, baseline condition, one backend."""

    name: str
    backend: str
    scale: int
    duration_ms: float

    @property
    def reference(self) -> dict:
        return REFERENCE[self.name]

    def setup(self, seed: int):
        started = perf_counter()
        cfg = config.load_default_config()
        if self.scale != 1:
            cfg = scale_config(cfg, self.scale)
        net = network.Network(
            cfg.population_specs(), cfg.connection_specs(), seed=seed, backend=self.backend
        )
        return perf_counter() - started, (cfg, net)

    def run(self, state, out_dir: Path) -> Pass:
        cfg, net = state
        steps = round(self.duration_ms / neuron.DT_MS)
        record = network.SpikeRecord()
        step_ns = []
        started = perf_counter()
        for _ in range(steps):
            t0 = perf_counter_ns()
            net.run(1, into=record)
            step_ns.append(perf_counter_ns() - t0)
        sizes = {name: size for name, (size, _) in cfg.populations.items()}
        recorded = list(cfg.record) if cfg.record else list(sizes)
        settle_ms = cfg.settle_ms * self.duration_ms / cfg.duration_ms
        rates, _ = bg.measure_rates(record, sizes, (settle_ms, self.duration_ms))
        csv_path = analysis.export_raster_csv(record, out_dir / f"{self.name}.csv")
        analysis.export_raster_svg(
            record,
            out_dir / f"{self.name}.svg",
            populations=recorded,
            population_sizes={n: sizes[n] for n in recorded},
        )
        run_s = perf_counter() - started
        return Pass(
            run_s=run_s,
            sim_s=sum(step_ns) / 1e9,
            steps=steps,
            neuron_steps=steps * sum(sizes.values()),
            step_ms=[ns / 1e6 for ns in step_ns],
            digests={"raster": _sha256(csv_path.read_bytes())},
            synapses=net.synapse_count(),
            outputs={"rates": rates},
        )

    @property
    def pinned_seeds(self) -> set[int]:
        return {int(seed) for seed in self.reference["seeds"]}

    def reference_checks(self, ref_pass: Pass, seed: int, out_dir: Path) -> list[Check]:
        ref = self.reference
        pinned = ref["seeds"][str(seed)]
        checks = [
            Check(
                f"seed-{seed} synapse count",
                ref_pass.synapses == pinned["synapses"],
                f"{ref_pass.synapses} (reference {pinned['synapses']})",
            )
        ]
        if seed == ref.get("frozen_rates_seed"):
            # the frozen rates belong to the shipped run length
            full = replace(self, duration_ms=ref["frozen_rates_duration_ms"])
            full_pass = full.run(full.setup(seed)[1], out_dir)
            rates = full_pass.outputs["rates"]
            off = {
                pop: (rates.get(pop), rate)
                for pop, rate in ref["baseline_rates_hz"].items()
                if rates.get(pop) is None or abs(rates[pop] - rate) > 1e-9
            }
            checks.append(
                Check(
                    f"seed-{seed} baseline rates",
                    not off,
                    "equal to the frozen rates" if not off else f"(got, frozen): {off}",
                )
            )
            checks.append(
                _digest_check(
                    f"seed-{seed} full-length raster",
                    full_pass.digests["raster"],
                    ref["frozen_rates_raster"],
                )
            )
        if "raster" in pinned:  # fixed backend only: float sums may reorder
            checks.append(_digest_check(f"seed-{seed} raster", ref_pass.digests["raster"], pinned["raster"]))
        return checks


def _digest_check(name: str, got: str, want: str) -> Check:
    return Check(f"{name} digest matches reference", got == want, f"{got[:16]} (reference {want[:16]})")


@dataclass(frozen=True)
class Regimes:
    """ERRt timing comparison, then the regime demonstrations on both
    backends, at ``duration_ms`` of stimulus per neuron."""

    name: str = "regimes_scalar"
    duration_ms: float | None = None  # None: the CLI's default

    @property
    def reference(self) -> dict:
        return REFERENCE[self.name]

    def setup(self, seed: int):
        """The CLI parse of the ``regimes`` command: the only set-up this
        workload has.  The pass runs at the parsed stimulus length."""
        argv = ["regimes"] if self.duration_ms is None else ["regimes", "--duration-ms", str(self.duration_ms)]
        started = perf_counter()
        args = cli.build_parser().parse_args(argv)
        return perf_counter() - started, args.duration_ms

    def run(self, duration_ms: float, out_dir: Path) -> Pass:
        """``regimes.timing_comparison``, the float demonstrations, then the
        same demonstrations on the fixed backend one protocol at a time.

        The fixed protocols are taken from the float runs, so the plan stays
        ``run_demonstrations``'s own; each of them is one step-time sample.
        """
        started = perf_counter()
        t0 = perf_counter_ns()
        pairs = regimes.timing_comparison(duration_ms)
        sim_ns = perf_counter_ns() - t0
        errts = {name: analysis.errt(ref, test) for name, (ref, test) in pairs.items()}
        t0 = perf_counter_ns()
        flt = regimes.run_demonstrations("float", duration_ms)
        sim_ns += perf_counter_ns() - t0
        fixed, step_ms = {}, []
        for name, run in flt.items():
            t0 = perf_counter_ns()
            fixed[name] = regimes.run_single(run.params, run.protocol, "fixed")
            ns = perf_counter_ns() - t0
            sim_ns += ns
            step_ms.append(ns / len(fixed[name].v_mv) / 1e6)
        verdicts = regimes.classify_runs(fixed, "fixed") + regimes.classify_runs(flt, "float")
        run_s = perf_counter() - started

        # float reference and fixed test of each pair, then every demonstration
        steps = 2 * len(pairs) * round(duration_ms / neuron.DT_MS) + sum(
            len(run.v_mv) for runs in (flt, fixed) for run in runs.values()
        )
        spikes = lambda trains, runs: json.dumps(
            {"timing": trains, "demos": {n: r.spike_steps for n, r in runs.items()}},
            sort_keys=True,
        ).encode()
        return Pass(
            run_s=run_s,
            sim_s=sim_ns / 1e9,
            steps=steps,
            neuron_steps=steps,
            step_ms=step_ms,
            digests={
                "fixed": _sha256(spikes({n: list(t.times) for n, (_, t) in pairs.items()}, fixed)),
                "float": _sha256(spikes({n: list(r.times) for n, (r, _) in pairs.items()}, flt)),
            },
            outputs={
                "errt_pct": errts,
                "first_interval_ms": {n: [t.intervals()[0] for t in pair] for n, pair in pairs.items()},
                "regime_checks": (sum(v.passed for v in verdicts), len(verdicts)),
            },
        )

    pinned_seeds = None  # no random input: the seed changes nothing

    def reference_checks(self, ref_pass: Pass, seed: int, out_dir: Path) -> list[Check]:
        """Checks on one untimed pass at the CLI's stimulus length, which the
        references belong to."""
        full = replace(self, duration_ms=None)
        full_pass = full.run(full.setup(seed)[1], out_dir)
        out = full_pass.outputs
        ref = self.reference
        checks = [
            Check(f"ERRt {name}", out["errt_pct"].get(name) == want,
                  f"{out['errt_pct'].get(name)} % (reference {want} %)")
            for name, want in ref["errt_pct"].items()
        ]
        checks += [
            Check(f"first interval {name}", out["first_interval_ms"][name] == [want, want],
                  f"float, fixed = {out['first_interval_ms'][name]} ms (reference {want} ms)")
            for name, want in ref["first_interval_ms"].items()
        ]
        passed, total = out["regime_checks"]
        checks.append(
            Check("regime checks", passed == total == ref["regime_checks"],
                  f"{passed}/{total} passed (reference {ref['regime_checks']})")
        )
        checks.append(
            _digest_check("full-length fixed-backend spike", full_pass.digests["fixed"], ref["digests"]["fixed"])
        )
        return checks


WORKLOADS = {
    w.name: w
    for w in (
        Circuit("gonogo_default", "fixed", scale=1, duration_ms=25.0),
        Circuit("gonogo_scaled", "fixed", scale=50, duration_ms=25.0),
        Circuit("gonogo_float", "float", scale=1, duration_ms=100.0),
        Regimes(duration_ms=100.0),
    )
}
