"""The benchmark's layers: which neurocore entry points a traced pass wraps,
what each counts, and the per-layer metrics derived from one traced pass.

Layers are the package modules.  ``schedule`` is never executed at run time
and ``config``/``cli`` are inside the end-to-end ``setup_s``, so none of
them has a probe.  The run is single-threaded, so no layer waits on
another; there is no wait-time metric.
"""

from __future__ import annotations

import inspect

import numpy as np

from spans import Probe, Tracer, self_times

# The 128-bit LCG multiplier of numpy's PCG64 bit generator.
PCG64_MULTIPLIER = 0x2360ED051FC65DA44385DF649FCCF645


def lcg_distance(state: int, target: int, increment: int,
                 multiplier: int = PCG64_MULTIPLIER, bits: int = 128) -> int:
    """Number of LCG steps from ``state`` to ``target`` (Brown's algorithm,
    as in pcg-cpp's ``distance``).  One PCG64 step is one 64-bit draw."""
    mask = (1 << bits) - 1
    bit, distance = 1, 0
    while state != target:
        if (state ^ target) & bit:
            state = (state * multiplier + increment) & mask
            distance |= bit
        increment = ((multiplier + 1) * increment) & mask
        multiplier = (multiplier * multiplier) & mask
        bit <<= 1
    return distance


def _rng_state(args, kwargs):
    rng = kwargs.get("rng", args[3] if len(args) > 3 else None)
    state = rng.bit_generator.state
    return rng, state if state.get("bit_generator") == "PCG64" else None


def _count_draws(counts, args, kwargs, result, token):
    rng, before = token
    if before is None:
        counts["network.build.unknown_generator"] += 1
        return
    after = rng.bit_generator.state["state"]["state"]
    counts["network.build.random_draws"] += lcg_distance(
        before["state"]["state"], after, before["state"]["inc"]
    )


def _fmt_getter(fn):
    """How to read the saturation format of a ``*_raw`` call, or None for a
    primitive that never saturates."""
    params = inspect.signature(fn).parameters
    if "fmt" not in params:
        return None
    pos = list(params).index("fmt")
    default = params["fmt"].default
    return lambda args, kwargs: args[pos] if len(args) > pos else kwargs.get("fmt", default)


def _raw_counter(fn):
    fmt_of = _fmt_getter(fn)
    bounds = {}  # id(fmt) -> (min_raw, max_raw); formats are module constants

    def count(counts, args, kwargs, result, token):
        counts["fxp.raw.elements"] += result.size
        if fmt_of is None:
            return
        fmt = fmt_of(args, kwargs)
        lo, hi = bounds.get(id(fmt)) or bounds.setdefault(id(fmt), (fmt.min_raw, fmt.max_raw))
        counts["fxp.sat.calls"] += 1
        # A result on a bound means the clip bound (or the exact bound value
        # arrived unclipped, which counts the same: the field is full).
        if result.size and (result.max() >= hi or result.min() <= lo):
            counts["fxp.sat.clip_bound"] += 1

    return count


def _add(key, amount):
    def count(counts, args, kwargs, result, token):
        counts[key] += amount(args, kwargs, result)
    return count


def neurocore_probes(nc) -> list[Probe]:
    """Probes on the public entry points of each layer of ``nc`` (the
    imported package, passed in as a namespace of its modules)."""
    fxp, neuron, synapse, network, bg, analysis, regimes = (
        nc.fxp, nc.neuron, nc.synapse, nc.network, nc.bg, nc.analysis, nc.regimes
    )
    raw = ("sat_raw", "sat_add_raw", "mul_rescale_raw", "shr_raw", "shl_raw", "quantize_raw")
    scalar = ("encode", "decode", "sat_add", "neg", "mul_rescale", "shr", "shl")
    size_of = lambda args, kwargs, result: np.size(result)
    file_bytes = lambda args, kwargs, result: result.stat().st_size
    probes = [Probe(fxp, name, "fxp.raw", _raw_counter(vars(fxp)[name])) for name in raw]
    probes += [Probe(fxp, name, "fxp.scalar") for name in scalar]
    probes += [
        Probe(fxp.FixedFormat, "saturate", "fxp.scalar"),
        Probe(neuron, "step_fixed_batch", "neuron.batch_step",
              _add("neuron.batch_step.neurons", size_of)),
        Probe(neuron, "step_fixed", "neuron.scalar_step"),
        Probe(neuron, "pack", "neuron.pack_unpack"),
        Probe(neuron, "unpack", "neuron.pack_unpack"),
        Probe(neuron, "step_float", "neuron.float_step"),
        # The float network's population update has no public name.
        Probe(network._FloatPop, "step", "neuron.float_step"),
        Probe(synapse.PoissonSource, "spikes_at", "synapse.poisson", _poisson_counter),
        Probe(network.Network, "__init__", "network.build",
              _add("network.build.synapses", lambda a, k, r: a[0].synapse_count())),
        Probe(network, "build_connections", "network.connect", _count_draws, _rng_state),
        Probe(network.Network, "step", "network.step"),
        Probe(network.SynapseGroup, "targets_of", "network.deliver",
              _add("network.deliver.synaptic_events", size_of)),
        Probe(network.SpikeRecord, "append", "network.record",
              _add("network.record.events", lambda a, k, r: len(a[3] if len(a) > 3 else k["indices"]))),
        Probe(bg, "measure_rates", "bg.measure_rates",
              _add("bg.measure_rates.events", lambda a, k, r: len(a[0]))),
        Probe(analysis, "export_raster_csv", "analysis.export_csv",
              _add("analysis.export_csv.bytes", file_bytes)),
        Probe(analysis, "export_raster_svg", "analysis.export_svg",
              _add("analysis.export_svg.bytes", file_bytes)),
        Probe(analysis, "errt", "analysis.errt"),
        Probe(regimes, "run_batch",
              lambda args, kwargs: "regimes." + (args[2] if len(args) > 2 else kwargs["backend"])),
    ]
    return probes


def _poisson_counter(counts, args, kwargs, result, token):
    counts["synapse.poisson.draws"] += args[0].size
    counts["synapse.poisson.spikes"] += len(result)


# Per-layer metrics reported by a traced run, in report order, with units.
PER_LAYER = (
    ("fxp.raw.calls", "count"),
    ("fxp.raw.busy_s", "s"),
    ("fxp.raw.elements", "count"),
    ("fxp.raw.ns_per_element", "ns"),
    ("fxp.sat.clip_binding_frac", "1"),
    ("fxp.scalar.calls", "count"),
    ("fxp.scalar.busy_s", "s"),
    ("neuron.batch_step.calls", "count"),
    ("neuron.batch_step.busy_s", "s"),
    ("neuron.batch_step.self_s", "s"),
    ("neuron.batch_step.ns_per_neuron", "ns"),
    ("neuron.scalar_step.calls", "count"),
    ("neuron.scalar_step.busy_s", "s"),
    ("neuron.pack_unpack.busy_s", "s"),
    ("neuron.float_step.busy_s", "s"),
    ("synapse.poisson.calls", "count"),
    ("synapse.poisson.busy_s", "s"),
    ("synapse.poisson.draws", "count"),
    ("synapse.poisson.spikes", "count"),
    ("synapse.poisson.spikes_per_draw", "1"),
    ("network.step.calls", "count"),
    ("network.step.busy_s", "s"),
    ("network.step.self_s", "s"),
    ("network.deliver.calls", "count"),
    ("network.deliver.busy_s", "s"),
    ("network.deliver.synaptic_events", "count"),
    ("network.record.events", "count"),
    ("network.record.busy_s", "s"),
    ("network.build.busy_s", "s"),
    ("network.build.synapses", "count"),
    ("network.build.random_draws", "count"),
    ("network.build.synapses_per_draw", "1"),
    ("bg.measure_rates.busy_s", "s"),
    ("bg.measure_rates.events", "count"),
    ("analysis.export_csv.busy_s", "s"),
    ("analysis.export_csv.bytes", "B"),
    ("analysis.export_svg.busy_s", "s"),
    ("analysis.export_svg.bytes", "B"),
    ("analysis.errt.busy_s", "s"),
    ("regimes.fixed.busy_s", "s"),
    ("regimes.float.busy_s", "s"),
    ("tracing.overhead_frac", "1"),
)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def pass_summary(tracer: Tracer, pass_index: int) -> dict:
    """Calls, busy and self time per span metric of one pass, plus the
    self time of every metric inside ``network.step`` spans."""
    a = tracer.arrays()
    own = a["pass_of"] == pass_index
    selfs = self_times(a["start"], a["end"], a["parent"])
    durations = a["end"] - a["start"]
    metric, parent = a["metric"], a["parent"].astype(np.int64)
    step_id = tracer.names.index("network.step") if "network.step" in tracer.names else -1
    # inside[i]: some ancestor of span i is a network.step span; parents are
    # recorded before their children, so a fixed point is reached in depth
    # iterations.
    inside = np.zeros(len(metric), dtype=bool)
    has_parent = parent >= 0
    while True:
        up = np.zeros_like(inside)
        up[has_parent] = (metric[parent[has_parent]] == step_id) | inside[parent[has_parent]]
        if np.array_equal(up, inside):
            break
        inside = up
    n = len(tracer.names)
    m = metric[own]
    step = own & inside
    return {
        "calls": np.bincount(m, minlength=n),
        "busy_ns": np.bincount(m, weights=durations[own], minlength=n),
        "self_ns": np.bincount(m, weights=selfs[own], minlength=n),
        "self_in_step_ns": np.bincount(metric[step], weights=selfs[step], minlength=n),
        "names": list(tracer.names),
    }


def layer_metrics(summary: dict, counts: dict, overhead: float) -> dict[str, float]:
    """The PER_LAYER values of one traced pass."""
    index = {name: i for i, name in enumerate(summary["names"])}
    get = lambda key, m: float(summary[key][index[m]]) if m in index else 0.0
    calls = lambda m: int(get("calls", m))
    busy = lambda m: get("busy_ns", m) / 1e9
    self_s = lambda m: get("self_ns", m) / 1e9
    c = lambda k: int(counts.get(k, 0))
    values = {
        "fxp.raw.calls": calls("fxp.raw"),
        "fxp.raw.busy_s": busy("fxp.raw"),
        "fxp.raw.elements": c("fxp.raw.elements"),
        "fxp.raw.ns_per_element": _ratio(busy("fxp.raw") * 1e9, c("fxp.raw.elements")),
        "fxp.sat.clip_binding_frac": _ratio(c("fxp.sat.clip_bound"), c("fxp.sat.calls")),
        "fxp.scalar.calls": calls("fxp.scalar"),
        "fxp.scalar.busy_s": busy("fxp.scalar"),
        "neuron.batch_step.calls": calls("neuron.batch_step"),
        "neuron.batch_step.busy_s": busy("neuron.batch_step"),
        "neuron.batch_step.self_s": self_s("neuron.batch_step"),
        "neuron.batch_step.ns_per_neuron": _ratio(
            busy("neuron.batch_step") * 1e9, c("neuron.batch_step.neurons")
        ),
        "neuron.scalar_step.calls": calls("neuron.scalar_step"),
        "neuron.scalar_step.busy_s": busy("neuron.scalar_step"),
        "neuron.pack_unpack.busy_s": busy("neuron.pack_unpack"),
        "neuron.float_step.busy_s": busy("neuron.float_step"),
        "synapse.poisson.calls": calls("synapse.poisson"),
        "synapse.poisson.busy_s": busy("synapse.poisson"),
        "synapse.poisson.draws": c("synapse.poisson.draws"),
        "synapse.poisson.spikes": c("synapse.poisson.spikes"),
        "synapse.poisson.spikes_per_draw": _ratio(
            c("synapse.poisson.spikes"), c("synapse.poisson.draws")
        ),
        "network.step.calls": calls("network.step"),
        "network.step.busy_s": busy("network.step"),
        "network.step.self_s": self_s("network.step"),
        "network.deliver.calls": calls("network.deliver"),
        "network.deliver.busy_s": busy("network.deliver"),
        "network.deliver.synaptic_events": c("network.deliver.synaptic_events"),
        "network.record.events": c("network.record.events"),
        "network.record.busy_s": busy("network.record"),
        "network.build.busy_s": busy("network.build"),
        "network.build.synapses": c("network.build.synapses"),
        "network.build.random_draws": c("network.build.random_draws"),
        "network.build.synapses_per_draw": _ratio(
            c("network.build.synapses"), c("network.build.random_draws")
        ),
        "bg.measure_rates.busy_s": busy("bg.measure_rates"),
        "bg.measure_rates.events": c("bg.measure_rates.events"),
        "analysis.export_csv.busy_s": busy("analysis.export_csv"),
        "analysis.export_csv.bytes": c("analysis.export_csv.bytes"),
        "analysis.export_svg.busy_s": busy("analysis.export_svg"),
        "analysis.export_svg.bytes": c("analysis.export_svg.bytes"),
        "analysis.errt.busy_s": busy("analysis.errt"),
        "regimes.fixed.busy_s": busy("regimes.fixed"),
        "regimes.float.busy_s": busy("regimes.float"),
        "tracing.overhead_frac": overhead,
    }
    return {name: values[name] for name, _ in PER_LAYER}
