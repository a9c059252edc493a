"""Emulator of a microcode-programmable neurocore running fixed-point
Izhikevich neurons, with a basal ganglia Go/No-Go network on top."""

from .analysis import SpikeTrain, errt, export_raster, firing_rate, load_raster_csv
from .bg import build_bg, run_gonogo
from .config import RunConfig
from .fxp import Fixed, FixedFormat, decode, encode, mul_rescale, sat_add, shr
from .network import (
    ConfigError,
    ConnectionSpec,
    Network,
    PopulationSpec,
    SpikeRecord,
    build_connections,
)
from .neuron import (
    CompartmentWords,
    NeuronParams,
    NeuronState,
    pack,
    step_fixed,
    step_float,
    unpack,
)
from .schedule import BlockSchedule, izhikevich_schedule, validate_schedule
from .synapse import PoissonSource

__version__ = "0.1.0"

__all__ = [
    "BlockSchedule",
    "CompartmentWords",
    "ConfigError",
    "ConnectionSpec",
    "Fixed",
    "FixedFormat",
    "Network",
    "NeuronParams",
    "NeuronState",
    "PoissonSource",
    "PopulationSpec",
    "RunConfig",
    "SpikeRecord",
    "SpikeTrain",
    "build_bg",
    "build_connections",
    "decode",
    "encode",
    "errt",
    "export_raster",
    "firing_rate",
    "load_raster_csv",
    "izhikevich_schedule",
    "mul_rescale",
    "pack",
    "run_gonogo",
    "sat_add",
    "shr",
    "step_fixed",
    "step_float",
    "unpack",
    "validate_schedule",
]
