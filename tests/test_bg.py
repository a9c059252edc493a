"""Basal ganglia build, dopamine handling, and circuit structure."""

import copy
import hashlib
from dataclasses import replace

import numpy as np
import pytest

from neurocore.analysis import export_raster_csv
from neurocore.bg import CONDITIONS, DELTA_DOP_BY_CONDITION, build_bg, run_condition
from neurocore.config import load_default_config
from neurocore.fxp import DDOP_FMT, encode
from neurocore.network import ConfigError, ConnectionSpec, Network

RASTER_SHA256_SEED1 = {
    ("fixed", "baseline"): "3c22ac3fd1a27427ff30e394e2c79a3a6c5f6615d468f25ff4ce08d8d4548552",
    ("fixed", "high"): "63653ebc8ccfc4ada62c51c7f86e3b6937df872957588d1de1440fba148d2246",
    ("fixed", "low"): "a2b782fbf0dd4a882ca91bcfde97c4843a6513a5e86e37fa5120fae0b7e49da2",
    ("float", "baseline"): "740b8afe49d93df6a49a998516625aa3f5045a50f606fb3497fe31adf42a0e71",
    ("float", "high"): "adb2cfa10c0f97c111243f4899ce976c18aeee42715df5153580b7740f1e5b4a",
    ("float", "low"): "78f0dba2464a6ff7df7a9e0ce43551b5ab3897c84c272c5f6f356ef28657420f",
}


def resized(population_size, generator_size, **overrides):
    """The shipped circuit with every neuron group and generator group resized."""
    cfg = load_default_config()
    return replace(
        cfg,
        populations={name: (population_size, p) for name, (_, p) in cfg.populations.items()},
        generators=[replace(g, size=generator_size) for g in cfg.generators],
        **overrides,
    )


class TestTables:
    def test_pallidum_row(self):
        _, p = load_default_config().populations["GPe"]
        assert (p.a, p.b, p.c, p.d) == (0.1, 0.585, -65, 4)
        assert p.i_const == 5
        assert p.beta == 0

    def test_striatal_projection_rows_differ_only_in_beta(self):
        pops = load_default_config().populations
        (_, d1), (_, d2) = pops["STR_D1"], pops["STR_D2"]
        assert d1.beta == 0.6 and d2.beta == -0.6
        assert (d1.a, d1.b, d1.c, d1.d) == (d2.a, d2.b, d2.c, d2.d) == (0.02, 0.2, -65, 8)

    def test_indirect_pathway_projection(self):
        assert ConnectionSpec("STR_D2", "GPe", -7.5, 0.15) in load_default_config().connections

    def test_hyperdirect_drive(self):
        g = next(g for g in load_default_config().generators if g.name == "G_Ctx3")
        assert g.rate_hz == 4.0 and g.targets == ("STN",) and g.weight == 1.125 and g.prob == 0.05

    def test_noise_targets_every_neuron_population(self):
        cfg = load_default_config()
        noise = next(g for g in cfg.generators if g.name == "G_noise")
        assert set(noise.targets) == set(cfg.populations)

    def test_connection_count(self):
        cfg = load_default_config()
        assert len(cfg.connections) == 15
        assert len(cfg.connection_specs()) == 15 + 3 + len(cfg.populations)


class TestBuild:
    def test_default_population_inventory(self):
        cfg = load_default_config()
        net = build_bg(cfg)
        assert set(net.slices) == set(cfg.populations)
        assert set(net.sources) == {"G_Ctx1", "G_Ctx2", "G_Ctx3", "G_noise"}
        assert sum(s.stop - s.start for s in net.slices.values()) == 600

    def test_synapse_count_stable_for_seed(self):
        cfg = replace(load_default_config(), seed=1)
        counts = {build_bg(cfg).synapse_count() for _ in range(2)}
        assert len(counts) == 1
        count = counts.pop()
        # four p=1 striatal projections dominate: 2*9900 + 2*10000 plus
        # the probabilistic remainder
        assert 55_000 < count < 70_000

    def test_sizes_configurable(self):
        net = build_bg(resized(10, 7))
        gpe = net.slices["GPe"]
        assert gpe.stop - gpe.start == 10
        assert net.sources["G_noise"].size == 7


class TestDopamine:
    def test_set_dopamine_updates_fixed_state(self):
        net = build_bg(resized(5, 5))
        net.set_dopamine(1.0)
        raw = encode(1.0, DDOP_FMT).raw
        assert np.all(net.state.delta_dop[net.slices["STR_D1"]] == raw)
        net.set_dopamine(-1.0)
        assert np.all(net.state.delta_dop[net.slices["STR_D2"]] == -raw)

    def test_set_dopamine_never_clips_silently(self):
        with pytest.raises(ConfigError, match="delta_dop = 9 saturates its 16-bit field"):
            build_bg(resized(5, 5)).set_dopamine(9.0)
        # the float backend has no field to saturate
        net = build_bg(resized(5, 5, backend="float"))
        net.set_dopamine(9.0)
        assert net.state.delta_dop == 9.0

    @pytest.mark.parametrize("backend", ["fixed", "float"])
    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_set_dopamine_rejects_non_finite(self, backend, bad):
        # a NaN on the float backend would otherwise surface steps later as
        # a diverged membrane potential
        net = build_bg(resized(5, 5, backend=backend))
        with pytest.raises(ConfigError, match=f"^dopamine: delta_dop = {bad} is not finite$"):
            net.set_dopamine(bad)

    def test_gain_endpoints(self):
        # delta_dop = +1: D1 synaptic gain 1.6, D2 gain 0.4 (and mirrored at -1)
        pops = load_default_config().populations
        for ddop, d1_gain, d2_gain in ((1.0, 1.6, 0.4), (-1.0, 0.4, 1.6)):
            g1 = 1.0 + pops["STR_D1"][1].beta * ddop
            g2 = 1.0 + pops["STR_D2"][1].beta * ddop
            assert g1 == pytest.approx(d1_gain)
            assert g2 == pytest.approx(d2_gain)

    def test_last_dopamine_level_is_what_runs(self):
        """The fixed step reads the dopamine gain computed once per level:
        setting one level, then another, runs exactly as the second alone."""
        runs = []
        for levels in ((1.0, -1.0), (-1.0,), (1.0,)):
            net = build_bg(load_default_config())
            for ddop in levels:
                net.set_dopamine(ddop)
            runs.append(net.run(800).events)
        assert runs[0] == runs[1] != runs[2]

    def test_copy_taken_mid_run_continues_identically(self):
        """A deep copy carries its own computed gain: it runs on as the
        original would have, whatever the original is set to after."""
        whole = build_bg(load_default_config())
        whole.set_dopamine(1.0)
        events = whole.run(800).events
        net = build_bg(load_default_config())
        net.set_dopamine(1.0)
        net.run(400)
        twin = copy.deepcopy(net)
        net.set_dopamine(-1.0)
        continued = twin.run(400).events
        assert continued == [e for e in events if e[0] >= 400]
        assert net.run(400).events != continued

    def test_dopamine_inert_without_cortical_input(self):
        # striatum disconnected from the generators: beta has nothing to act
        # on, so the whole network's spike trains ignore the dopamine level
        cfg = resized(20, 20)
        pops = cfg.population_specs()
        internal_only = [
            spec for spec in cfg.connection_specs()
            if not spec.pre.startswith("G_")
        ]
        records = []
        for ddop in (0.0, 1.0, -1.0):
            net = Network(pops, internal_only, seed=4, backend="fixed")
            net.set_dopamine(ddop)
            records.append(net.run(2000))
        assert records[0].events == records[1].events == records[2].events
        assert len(records[0]) > 0  # bias-driven nuclei still fire


class TestGonogoRun:
    def test_condition_rates_and_counts(self):
        cfg = resized(30, 30, duration_ms=400.0, settle_ms=100.0, seed=2)
        result = run_condition(cfg, "baseline", 0.0)
        assert set(result.rates) == set(cfg.populations)
        window_s = 0.3
        for pop, rate in result.rates.items():
            assert rate == pytest.approx(result.spike_counts[pop] / (30 * window_s))

    def test_invalid_config_rejected(self):
        cfg = load_default_config()
        for bad in (
            {"duration_ms": 0},
            {"duration_ms": float("nan")},
            {"duration_ms": float("inf")},
            {"settle_ms": 2000.0, "duration_ms": 1000.0},
            {"settle_ms": -1.0},
            {"seed": -1},
            {"backend": "quantum"},
        ):
            with pytest.raises(ConfigError):
                replace(cfg, **bad)
        with pytest.raises(ConfigError):
            build_bg(resized(0, 5))

    @pytest.mark.parametrize("backend", ["fixed", "float"])
    @pytest.mark.parametrize("condition", CONDITIONS)
    def test_seed1_raster_digest(self, tmp_path, backend, condition):
        # SHA-256 of each seed-1, 1 s raster CSV as the per-population engine
        # wrote it; the float digests pin the order of delivered additions
        cfg = replace(load_default_config(), seed=1, backend=backend)
        result = run_condition(cfg, condition, DELTA_DOP_BY_CONDITION[condition])
        csv = export_raster_csv(result.record, tmp_path / "raster.csv")
        assert hashlib.sha256(csv.read_bytes()).hexdigest() == RASTER_SHA256_SEED1[
            backend, condition
        ]

    def test_steps_follow_timestep(self):
        assert replace(load_default_config(), duration_ms=1000.0).steps == 8000
