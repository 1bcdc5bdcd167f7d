"""The benchmark in perfbench/ looks up program names by string at run time.
These tests fail when a name it traces or reads is deleted or renamed, instead
of leaving that to the benchmark run."""
import importlib
import importlib.util
import json
from pathlib import Path

from dataclasses import replace

import numpy as np

from tokensort import analysis, datagen, latentsort, metrics, tspbench

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", PERFBENCH / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _resolves(name: str) -> bool:
    """True if `name` is found the way tracing.instrument looks it up:
    "<module>.<function>", or "<module>.<Class>.<method>" defined on the class."""
    module_name, *path = name.split(".")
    module = importlib.import_module(f"tokensort.{module_name}")
    if len(path) == 2:
        cls = getattr(module, path[0], None)
        return cls is not None and callable(vars(cls).get(path[1]))
    return callable(getattr(module, path[0], None))


def test_traced_functions_resolve():
    tracing = _load_tracing()
    assert tracing.FUNCTIONS
    missing = [name for name in tracing.FUNCTIONS if not _resolves(name)]
    assert not missing, f"perfbench traces names tokensort no longer has: {missing}"


def test_checked_attributes_exist():
    # what perfbench/checks.py reads besides the traced functions
    assert analysis.DEFAULT_KEY_TOL > 0
    sinkhorn = metrics.SinkhornConfig()
    assert sinkhorn.samples >= 1
    assert sinkhorn.epsilon > 0


def test_config_fields_and_call_shapes(tmp_path):
    # the configs perfbench/workloads.py builds and the calls it and
    # perfbench/checks.py make, so that cutting a setting cannot break them
    cfg = latentsort.TrainConfig(epochs=1, lgp_coefficient=0.01, seed=2)
    bench = tspbench.BenchConfig(seed=3)
    assert replace(bench.train, seed=3).seed == 3
    assert bench.set_size >= 2 and bench.n_train_sets >= 1
    gen = datagen.PlanarGenConfig(seed=4)
    assert gen.collapse_distance > 0 and gen.min_edge_angle_degrees > 0
    profile = analysis.LatentGaussianProfile(np.array([0.0, 1.0]), np.array([0.1, 0.2]))
    assert analysis.rank_probability_matrix(profile).shape == (2, 2)
    model = latentsort.init_model(2, hidden_sizes=(3,), seed=cfg.seed)
    batch = [np.array([[0.0, 0.0], [1.0, 0.5]]), np.array([[0.5, 0.5]])]
    recon, lgp, grads = latentsort.batch_losses_and_grads(model, batch, cfg)
    assert recon >= 0 and lgp >= 0 and len(grads) == len(model.params())
    # checks.py reads the encoder's arrays from the model, and from the model
    # file its flat weights, reshaped by layer_sizes, and its biases
    enc = model.encoder
    assert all(p is a for p, a in zip(model.params(), enc.weights + enc.biases))
    latentsort.save_model(model, tmp_path / "model.json")
    stored = json.loads((tmp_path / "model.json").read_text())["encoder"]
    sizes = stored["layer_sizes"]
    assert sizes == [2, 3, 1]
    for w, b, flat, stored_b, rows, cols in zip(enc.weights, enc.biases, stored["weights"], stored["biases"],
                                                sizes[:-1], sizes[1:], strict=True):
        assert np.array_equal(np.asarray(flat).reshape(rows, cols), w)
        assert np.array_equal(np.asarray(stored_b), b)
    # planted.py wraps smd and sample_edge_points and calls the originals
    # positionally, smd with cfg possibly None, and extends Graph.edges as a
    # tuple of int pairs
    g, h = (datagen.generate_planar_graph(datagen.PlanarGenConfig(seed=s)) for s in (4, 5))
    assert metrics.smd(g, h, None) == metrics.smd(g, h)
    samples = metrics.SinkhornConfig().samples
    assert metrics.sample_edge_points(g, samples).shape == (samples, 2)
    assert type(g.edges) is tuple and all(type(u) is int and type(v) is int for u, v in g.edges)
