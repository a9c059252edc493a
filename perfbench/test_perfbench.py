"""Self-test of the benchmark's tracing: self-time arithmetic on synthetic
span trees, and the wrapper install/restore round trip.

    python3 -m pytest -q perfbench/test_perfbench.py
"""

import random
import sys
import types
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

from layers import lcg_distance, neurocore_probes  # noqa: E402
from spans import Probe, Tracer, self_times, wrapped_attributes  # noqa: E402


def brute_self_times(start, end, parent):
    """Reference: per span, merge its clipped child intervals by hand."""
    out = []
    for i in range(len(start)):
        pieces = sorted(
            (max(start[j], start[i]), min(end[j], end[i]))
            for j in range(len(start))
            if parent[j] == i
        )
        covered, reach = 0, start[i]
        for s, e in pieces:
            s = max(s, reach)
            if e > s:
                covered += e - s
                reach = e
        out.append(end[i] - start[i] - covered)
    return out


def test_self_times_hand_tree():
    # root [0,100]; children [10,30] and [20,50] overlap, [90,120] overhangs
    # the root; [12,15] is a grandchild under the first child.
    start = [0, 10, 20, 90, 12]
    end = [100, 30, 50, 120, 15]
    parent = [-1, 0, 0, 0, 1]
    assert self_times(start, end, parent).tolist() == [50, 17, 30, 30, 3]
    assert brute_self_times(start, end, parent) == [50, 17, 30, 30, 3]


def test_self_times_random_trees_match_reference():
    rng = random.Random(7)
    for _ in range(50):
        start, end, parent = [], [], []
        for _ in range(rng.randint(1, 40)):
            p = rng.randrange(-1, len(start)) if start else -1
            lo, hi = (start[p], end[p]) if p >= 0 else (0, 1000)
            s = rng.randint(lo - 5, hi)
            start.append(s)
            end.append(s + rng.randint(0, hi - lo + 10))
            parent.append(p)
        assert self_times(start, end, parent).tolist() == brute_self_times(start, end, parent)


def test_self_times_sum_to_root_busy():
    # Sequential nesting, as a single-threaded trace records it: the self
    # times of a root and all its descendants add up to the root's span.
    start = [0, 5, 6, 20, 21, 23, 60]
    end = [100, 15, 9, 50, 22, 40, 70]
    parent = [-1, 0, 1, 0, 3, 3, 0]
    assert int(self_times(start, end, parent).sum()) == 100


def _fake_package():
    lib = types.ModuleType("fakelib")
    exec(
        "def prim(x):\n    return x + 1\n"
        "def outer(x):\n    return prim(x) * 2\n"
        "class Engine:\n    def step(self, x):\n        return outer(x)\n",
        lib.__dict__,
    )
    user = types.ModuleType("fakeuser")
    user.prim = lib.prim  # imported by name, as neuron imports fxp primitives
    user.call = lambda x: user.prim(x)
    return lib, user


def test_install_restore_round_trip():
    lib, user = _fake_package()
    before = {m.__name__: dict(vars(m)) for m in (lib, user)}
    engine_step = vars(lib.Engine)["step"]
    tracer = Tracer()
    tracer.begin_pass("p0")
    tracer.install(
        [
            Probe(lib, "prim", "lib.prim", lambda c, a, k, r, t: c.__setitem__("n", c["n"] + 1)),
            Probe(lib, "outer", "lib.outer"),
            Probe(lib.Engine, "step", "lib.step"),
        ],
        [lib, user],
    )
    assert sorted(wrapped_attributes([lib, user, lib.Engine])) == [
        "Engine.step", "fakelib.outer", "fakelib.prim", "fakeuser.prim",
    ]
    assert lib.Engine().step(1) == 4
    assert user.call(1) == 2  # the by-name copy is traced too
    names = [tracer.names[m] for m in tracer.metric]
    assert names == ["lib.step", "lib.outer", "lib.prim", "lib.prim"]
    assert list(tracer.parent) == [-1, 0, 1, -1]
    assert tracer.counts["p0"]["n"] == 2
    tracer.restore()
    assert wrapped_attributes([lib, user, lib.Engine]) == []
    assert vars(lib.Engine)["step"] is engine_step
    for m in (lib, user):
        assert all(vars(m)[k] is v for k, v in before[m.__name__].items())


def test_nested_call_of_same_metric_is_one_span():
    lib, user = _fake_package()
    tracer = Tracer()
    tracer.begin_pass("p0")
    tracer.install([Probe(lib, "prim", "layer"), Probe(lib, "outer", "layer")], [lib])
    try:
        lib.outer(1)
    finally:
        tracer.restore()
    assert len(tracer.start) == 1 and tracer.names[tracer.metric[0]] == "layer"


def test_neurocore_probes_install_and_restore():
    import neurocore
    from neurocore import analysis, bg, network, neuron, regimes  # noqa: F401

    modules = [m for n, m in sys.modules.items() if n.split(".")[0] == "neurocore"]
    probes = neurocore_probes(neurocore)
    owners = modules + [p.owner for p in probes if isinstance(p.owner, type)]
    before = {id(o): dict(vars(o)) for o in owners}
    tracer = Tracer()
    tracer.begin_pass("p0")
    tracer.install(probes, modules)
    try:
        # primitives imported by name are wrapped where they are called
        assert getattr(neuron.sat_raw, "__perfbench_wrapped__", False)
        assert getattr(network.quantize_raw, "__perfbench_wrapped__", False)
        assert getattr(network.step_fixed_batch, "__perfbench_wrapped__", False)
        net = network.Network(
            [network.PopulationSpec("P", 5, rate_hz=50.0),
             network.PopulationSpec("N", 4, params=neuron.NeuronParams(0.02, 0.2, -65, 8))],
            [network.ConnectionSpec("P", "N", 1.0, 0.5)],
        )
        net.run(3)
    finally:
        tracer.restore()
    assert wrapped_attributes(owners) == []
    for o in owners:
        assert all(vars(o).get(k) is v for k, v in before[id(o)].items())
    counts = tracer.counts["p0"]
    assert counts["network.build.random_draws"] == 5 * 4
    assert counts["synapse.poisson.draws"] == 3 * 5
    assert counts["neuron.batch_step.neurons"] == 3 * 4


def test_lcg_distance_counts_pcg64_draws():
    rng = np.random.default_rng([1, 2, 3])
    state = rng.bit_generator.state["state"]
    rng.random(1234)
    after = rng.bit_generator.state["state"]["state"]
    assert lcg_distance(state["state"], after, state["inc"]) == 1234
