"""Run-config parsing and the shipped default network file."""

from dataclasses import replace

import pytest

from neurocore.config import (
    load_default_config,
    parse_config,
    parse_config_text,
)
from neurocore.network import ConfigError
from neurocore.neuron import NeuronParams
from neurocore.synapse import PoissonSource

MINIMAL = """\
[simulation]
duration_ms = 250
settle_ms = 50
seed = 3
backend = float

[population only]
size = 4
a = 0.02
b = 0.2
c = -65
d = 8
i_const = 5
"""

GENERATOR_AND_CONNECTION = """
[generator G]
size = 2
rate_hz = 10
targets = only
weight = 1
prob = 0.5

[connection only -> only]
weight = -1
prob = 0.1
"""

# The published circuit, written out independently of data/bg_default.cfg.
# Per-group neuron parameters (a, b, c, d, i_const, beta).
CIRCUIT_NEURONS = {
    "STR_D1": NeuronParams(a=0.02, b=0.2, c=-65, d=8, i_const=0, beta=0.6),
    "STR_D2": NeuronParams(a=0.02, b=0.2, c=-65, d=8, i_const=0, beta=-0.6),
    "STR_FSI": NeuronParams(a=0.1, b=0.2, c=-65, d=2, i_const=0, beta=0),
    "GPe": NeuronParams(a=0.1, b=0.585, c=-65, d=4, i_const=5, beta=0),
    "STN": NeuronParams(a=0.005, b=0.265, c=-65, d=2, i_const=2, beta=0),
    "GPi/SNr": NeuronParams(a=0.005, b=0.32, c=-65, d=2, i_const=5, beta=0),
}
# Internal connectivity: (pre, post) -> (weight, connection probability).
CIRCUIT_CONNECTIONS = {
    ("STR_D1", "STR_D1"): (-0.3, 1.0),
    ("STR_D1", "STR_D2"): (-0.3, 1.0),
    ("STR_D1", "GPi/SNr"): (-7.5, 0.15),
    ("STR_D2", "STR_D1"): (-0.3, 1.0),
    ("STR_D2", "STR_D2"): (-0.3, 1.0),
    ("STR_D2", "GPe"): (-7.5, 0.15),
    ("STR_FSI", "STR_D1"): (-1.5, 0.1),
    ("STR_FSI", "STR_D2"): (-1.5, 0.1),
    ("GPe", "STR_FSI"): (-2.25, 0.1),
    ("GPe", "GPe"): (-2.25, 0.1),
    ("GPe", "STN"): (-2.25, 0.1),
    ("GPe", "GPi/SNr"): (-2.25, 0.1),
    ("STN", "GPe"): (2.25, 0.1),
    ("STN", "GPi/SNr"): (2.25, 0.1),
    ("GPi/SNr", "GPi/SNr"): (-1.0, 0.1),
}
# Generators: name -> (rate Hz, targets, weight, connection probability, size).
CIRCUIT_GENERATORS = {
    "G_Ctx1": (15.0, ("STR_D1",), 5.0, 0.2, 100),
    "G_Ctx2": (15.0, ("STR_D2",), 5.0, 0.2, 100),
    "G_Ctx3": (4.0, ("STN",), 1.125, 0.05, 100),
    "G_noise": (5.0, tuple(CIRCUIT_NEURONS), 0.05, 0.1, 100),
}


class TestDefaultConfigMatchesTables:
    def test_populations(self):
        config = load_default_config()
        assert set(config.populations) == set(CIRCUIT_NEURONS)
        for name, params in CIRCUIT_NEURONS.items():
            size, parsed = config.populations[name]
            assert size == 100
            assert parsed == params, name

    def test_connections(self):
        config = load_default_config()
        parsed = {(c.pre, c.post): (c.weight, c.prob) for c in config.connections}
        assert parsed == CIRCUIT_CONNECTIONS

    def test_generators(self):
        config = load_default_config()
        parsed = {
            g.name: (g.rate_hz, g.targets, g.weight, g.prob, g.size)
            for g in config.generators
        }
        assert parsed == CIRCUIT_GENERATORS

    def test_simulation_defaults(self):
        config = load_default_config()
        assert config.duration_ms == 1000.0
        assert config.settle_ms == 200.0
        assert config.seed == 1
        assert config.backend == "fixed"
        assert config.record == tuple(CIRCUIT_NEURONS)


class TestParsing:
    def test_minimal_roundtrip(self):
        config = parse_config_text(MINIMAL)
        assert config.duration_ms == 250.0
        assert config.backend == "float"
        size, params = config.populations["only"]
        assert size == 4 and params.i_const == 5

    def test_population_specs_buildable(self):
        specs = parse_config_text(MINIMAL).population_specs()
        assert len(specs) == 1 and specs[0].kind == "izhikevich"

    def test_syntax_error_names_source_and_line(self, tmp_path):
        bad = tmp_path / "broken.cfg"
        bad.write_text("[simulation]\nduration_ms 1000\n")
        with pytest.raises(ConfigError) as excinfo:
            parse_config(bad)
        assert "broken.cfg" in str(excinfo.value)
        assert "line" in str(excinfo.value).lower()

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="No such file"):
            parse_config(tmp_path / "absent.cfg")

    def test_unknown_section_rejected(self):
        with pytest.raises(ConfigError, match="unknown section"):
            parse_config_text(MINIMAL + "\n[plasticity]\nrate = 1\n")

    @pytest.mark.parametrize(
        "line, section",
        [
            ("seed = 3", "simulation"),
            ("i_const = 5", "population only"),
            ("rate_hz = 10", "generator G"),
            ("prob = 0.1", "connection only -> only"),
        ],
        ids=["simulation", "population", "generator", "connection"],
    )
    def test_unknown_key_rejected(self, line, section):
        text = MINIMAL + GENERATOR_AND_CONNECTION
        parse_config_text(text)
        with pytest.raises(ConfigError, match=rf"<config>: \[{section}\] has unknown key 'betta'"):
            parse_config_text(text.replace(line, f"{line}\nbetta = 0.6", 1))

    def test_simulation_values_validated_with_source(self):
        with pytest.raises(ConfigError, match=r"<config>: \[simulation\] settle_ms"):
            parse_config_text(MINIMAL.replace("settle_ms = 50", "settle_ms = 250"))

    def test_missing_population_field(self):
        with pytest.raises(ConfigError, match="missing 'd'"):
            parse_config_text(MINIMAL.replace("d = 8\n", ""))

    def test_non_numeric_value(self):
        with pytest.raises(ConfigError, match="not a number"):
            parse_config_text(MINIMAL.replace("a = 0.02", "a = fast"))

    def test_connection_to_unknown_population(self):
        text = MINIMAL + "\n[connection only -> ghost]\nweight = 1\nprob = 0.5\n"
        with pytest.raises(ConfigError, match="ghost"):
            parse_config_text(text)

    def test_generator_target_must_exist(self):
        text = MINIMAL + (
            "\n[generator G]\nsize = 2\nrate_hz = 5\ntargets = ghost\n"
            "weight = 1\nprob = 0.5\n"
        )
        with pytest.raises(ConfigError, match="ghost"):
            parse_config_text(text)

    def test_connection_prob_error_names_file_and_section(self):
        text = MINIMAL + "\n[connection only -> only]\nweight = 1\nprob = 1.5\n"
        message = r"^<config>: \[connection only -> only\] .*prob 1.5 outside \[0, 1\]"
        with pytest.raises(ConfigError, match=message):
            parse_config_text(text)

    def test_generator_prob_checked_at_parse_with_file_and_section(self):
        text = MINIMAL + (
            "\n[generator G]\nsize = 2\nrate_hz = 5\ntargets = only\n"
            "weight = 1\nprob = 1.5\n"
        )
        with pytest.raises(ConfigError, match=r"^<config>: \[generator G\] .*prob 1.5 outside"):
            parse_config_text(text)

    def test_seed_spans_the_64_bit_key(self):
        config = parse_config_text(MINIMAL)
        assert replace(config, seed=2**64 - 1).seed == 2**64 - 1
        PoissonSource("S", 1000.0, 4).spikes_at(0, 2**64 - 1)
        for seed in (-1, 2**64):
            with pytest.raises(ConfigError, match="seed"):
                replace(config, seed=seed)

    def test_bad_backend(self):
        with pytest.raises(ConfigError, match="backend"):
            parse_config_text(MINIMAL.replace("backend = float", "backend = gpu"))

    def test_record_filter_checked(self):
        text = MINIMAL.replace("backend = float", "backend = float\nrecord = ghost")
        with pytest.raises(ConfigError, match="ghost"):
            parse_config_text(text)
