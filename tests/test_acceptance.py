"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
report.  Regression constants were frozen from the first validated run and
are exact for the integer (fixed) backend.
"""

import math
import time
from dataclasses import replace

import numpy as np
import pytest

from neurocore.analysis import errt
from neurocore.bg import build_bg, run_gonogo
from neurocore.cli import main
from neurocore.config import default_config_text, load_default_config
from neurocore.fxp import Fixed, FixedFormat, mul_rescale, sat_add, shr
from neurocore.network import build_connections
from neurocore.neuron import CompartmentFields, pack, unpack
from neurocore.regimes import classify_runs, run_demonstrations, timing_comparison
from neurocore.schedule import izhikevich_schedule, validate_schedule

# -- frozen regression constants (first validated run, fixed backend) --------

FROZEN_ERRT = {"RS": 0.0, "FS": 0.0}
FROZEN_FIRST_INTERVAL_MS = {"RS": 17.875, "FS": 4.25}

FROZEN_GONOGO_RATES_SEED1 = {
    "baseline": {
        "STR_D1": 24.1625, "STR_D2": 20.125, "STR_FSI": 0.0,
        "GPe": 25.4875, "STN": 4.05, "GPi/SNr": 2.3875,
    },
    "high": {
        "STR_D1": 37.2875, "STR_D2": 7.9625, "STR_FSI": 0.0,
        "GPe": 45.5375, "STN": 0.9, "GPi/SNr": 0.0,
    },
    "low": {
        "STR_D1": 10.3625, "STR_D2": 32.3875, "STR_FSI": 0.0,
        "GPe": 12.5125, "STN": 6.6625, "GPi/SNr": 10.0125,
    },
}
FROZEN_SYNAPSE_COUNT_SEED1 = 62_070

GONOGO_SEEDS = (1, 2, 3, 4, 5)


def report(line: str) -> None:
    print(f"\n[acceptance] {line}")


def test_criterion_1_errt_reproduction():
    started = time.perf_counter()
    pairs = timing_comparison(duration_ms=1000.0)
    values = {name: errt(ref, test) for name, (ref, test) in pairs.items()}
    elapsed = time.perf_counter() - started

    assert values["RS"] == 0.0, f"RS ERRt must be exactly 0, got {values['RS']}"
    assert values["FS"] <= 3.0, f"FS ERRt above tolerance: {values['FS']}"
    for name, value in values.items():
        assert value == pytest.approx(FROZEN_ERRT[name], abs=1e-12)
        ref, test = pairs[name]
        assert ref.intervals()[0] == pytest.approx(FROZEN_FIRST_INTERVAL_MS[name])
        assert test.intervals()[0] == pytest.approx(FROZEN_FIRST_INTERVAL_MS[name])
    assert elapsed < 1.0, f"timing runs took {elapsed:.2f}s, budget is 1s"
    report(
        f"criterion 1 PASS: ERRt RS={values['RS']:.3f}% (exact), "
        f"FS={values['FS']:.3f}% (<=3%), runtime {elapsed:.2f}s"
    )


def test_criterion_2_regime_suite():
    started = time.perf_counter()
    failures = []
    for backend in ("float", "fixed"):
        for check in classify_runs(run_demonstrations(backend, 1000.0), backend):
            if not check.passed:
                failures.append(f"{backend}/{check.regime}: {check.detail}")
    elapsed = time.perf_counter() - started
    assert not failures, failures
    assert elapsed < 10.0, f"regime suite took {elapsed:.2f}s, budget is 10s"
    report(
        f"criterion 2 PASS: six regimes reproduced on both backends, "
        f"runtime {elapsed:.2f}s"
    )


def test_criterion_3_gonogo_signature():
    started = time.perf_counter()
    for seed in GONOGO_SEEDS:
        cfg = replace(load_default_config(), duration_ms=1000.0, seed=seed, backend="fixed")
        results = run_gonogo(build_bg(cfg), cfg)
        gpi = {c: r.rates["GPi/SNr"] for c, r in results.items()}
        assert gpi["high"] < gpi["baseline"] < gpi["low"], (seed, gpi)
        d1 = {c: r.rates["STR_D1"] for c, r in results.items()}
        d2 = {c: r.rates["STR_D2"] for c, r in results.items()}
        assert d1["high"] > d1["low"], (seed, d1)
        assert d2["low"] > d2["high"], (seed, d2)
        if seed == 1:
            for condition, frozen in FROZEN_GONOGO_RATES_SEED1.items():
                for pop, rate in frozen.items():
                    assert results[condition].rates[pop] == pytest.approx(
                        rate, abs=1e-9
                    ), (condition, pop)
    elapsed = time.perf_counter() - started
    assert elapsed < 300.0, f"gonogo suite took {elapsed:.0f}s, budget is 5 min"
    report(
        f"criterion 3 PASS: output-rate ordering high < baseline < low and the "
        f"striatal pathway split hold for all {len(GONOGO_SEEDS)} seeds, "
        f"runtime {elapsed:.0f}s"
    )


def test_criterion_4_fixed_point_soundness():
    cases = 100_000
    rng = np.random.default_rng(2024)
    fmt = FixedFormat(24, 12)
    raws_a = rng.integers(fmt.min_raw, fmt.max_raw + 1, cases)
    raws_b = rng.integers(fmt.min_raw, fmt.max_raw + 1, cases)
    # force the extremes into the pool
    raws_a[:2] = (fmt.min_raw, fmt.max_raw)
    raws_b[:2] = (fmt.max_raw, fmt.min_raw)
    shifts = rng.integers(0, 24, cases)
    for i in range(cases):
        a = Fixed(int(raws_a[i]), fmt)
        b = Fixed(int(raws_b[i]), fmt)
        for out in (sat_add(a, b), mul_rescale(a, b), shr(a, int(shifts[i]))):
            assert fmt.min_raw <= out.raw <= fmt.max_raw

    # shift-by-three equals multiply-by-1/8 within one LSB of the format
    eighth = raws_a >> 3
    exact = raws_a / 8.0
    assert np.all(np.abs(eighth - exact) < 1.0)

    # packed words round-trip bit-exactly
    for _ in range(10_000):
        fields = CompartmentFields(
            a=int(rng.integers(-(2**15), 2**15)),
            b=int(rng.integers(-(2**15), 2**15)),
            c=int(rng.integers(-(2**23), 2**23)),
            d=int(rng.integers(-(2**23), 2**23)),
            isyn=int(rng.integers(-(2**23), 2**23)),
            iconst=int(rng.integers(-(2**15), 2**15)),
            delta_dop=int(rng.integers(-(2**15), 2**15)),
            v=int(rng.integers(-(2**23), 2**23)),
            u=int(rng.integers(-(2**23), 2**23)),
        )
        assert unpack(pack(fields)) == fields

    violations = validate_schedule(izhikevich_schedule())
    assert violations == []
    report(
        f"criterion 4 PASS: {cases} random cases per operation stay in range, "
        "words round-trip bit-exactly, shipped schedule has zero violations"
    )


def test_criterion_5_oracle_agreement():
    from neurocore.regimes import REGIME_PARAMS, constant_current, run_batch

    protocols = [constant_current(10.0, 1000.0)] * 2
    params = [REGIME_PARAMS["RS"], REGIME_PARAMS["FS"]]
    float_runs = run_batch(params, protocols, "float")
    fixed_runs = run_batch(params, protocols, "fixed")
    details = []
    for name, f_run, x_run in zip(("RS", "FS"), float_runs, fixed_runs):
        first_f = f_run.spike_steps[0]
        first_x = x_run.spike_steps[0]
        assert abs(first_f - first_x) <= 2, (name, first_f, first_x)
        pre = min(first_f, first_x)
        divergence = float(np.max(np.abs(f_run.v_mv[:pre] - x_run.v_mv[:pre])))
        assert divergence <= 0.25, (name, divergence)
        details.append(
            f"{name} first spikes {first_f}/{first_x}, max dv {divergence:.4f} mV"
        )
    report(f"criterion 5 PASS: backends agree pre-spike ({'; '.join(details)})")


def test_criterion_6_connectivity_statistics():
    rows = load_default_config().connection_specs()
    for spec in rows:
        n_pairs = 100 * 100 - (100 if spec.pre == spec.post else 0)
        expected = n_pairs * spec.prob
        sigma = math.sqrt(n_pairs * spec.prob * (1 - spec.prob))
        for seed in range(20):
            rng = np.random.default_rng([seed, 777])
            pre, _ = build_connections(spec, 100, 100, rng)
            if spec.prob == 1.0:
                assert len(pre) == n_pairs, (spec.pre, spec.post, len(pre))
            else:
                assert abs(len(pre) - expected) <= 4 * sigma, (
                    spec.pre, spec.post, seed, len(pre), expected
                )
    net = build_bg(replace(load_default_config(), seed=1))
    assert net.synapse_count() == FROZEN_SYNAPSE_COUNT_SEED1
    report(
        f"criterion 6 PASS: all {len(rows)} connection rows within 4-sigma "
        f"binomial bounds over 20 seeds (full rows exact); seed-1 build has "
        f"{net.synapse_count()} synapses"
    )


def test_criterion_7_determinism(tmp_path):
    config = default_config_text().replace("size = 100", "size = 25")
    config = config.replace("duration_ms = 1000", "duration_ms = 400")
    config = config.replace("settle_ms = 200", "settle_ms = 100")
    cfg_path = tmp_path / "net.cfg"
    cfg_path.write_text(config)

    digests = []
    for run in ("r1", "r2"):
        out = tmp_path / run
        code = main([
            "gonogo", "--config", str(cfg_path), "--out", str(out), "--seed", "11",
        ])
        assert code == 0
        digests.append({
            p.name: p.read_bytes()
            for p in sorted(out.iterdir()) if p.suffix in (".csv", ".svg")
        })
    assert digests[0] == digests[1], "rerun with same seed changed outputs"
    report("criterion 7 PASS: gonogo outputs byte-identical across reruns")


def test_criterion_8_throughput_smoke():
    cfg = replace(load_default_config(), duration_ms=1000.0, seed=1, backend="fixed")
    net = build_bg(cfg)
    started = time.perf_counter()
    net.run(cfg.steps)
    elapsed = time.perf_counter() - started
    assert net.step_index == 8000
    assert elapsed < 60.0, f"default network took {elapsed:.1f}s for 8000 steps"
    report(
        f"criterion 8 PASS: 8000 steps (1 simulated second) of the default "
        f"network in {elapsed:.1f}s ({8000 / elapsed:.0f} steps/s); hardware "
        f"power/energy/latency figures are out of scope by design"
    )
