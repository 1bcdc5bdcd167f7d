"""Spans around calls into the program's public functions, patched in from outside.

The program is not edited. `instrument` replaces each listed function by a
wrapper everywhere it is looked up: the attribute of its defining module or
class, every other `tokensort` module that bound it at import (`tspbench`
binds `train` and `latent_sort`, `cli` binds most of what it calls), and every
module-level dict that holds it (`sorters.KEY_SCHEMES`, which `cli` shares).
On exit the originals are put back.

Each call records one span: name, start, end and the span that was open when
it began. Self time is a span's duration minus the durations of its direct
children.
"""
from __future__ import annotations

import contextlib
import functools
import importlib
import math
import sys
import time
from array import array

import numpy as np

# Layer -> the functions it is measured by, as "<module>.<name>" or
# "<module>.<Class>.<method>" under the `tokensort` package.
LAYERS = {
    "latentsort training": [
        "latentsort.train",
        "latentsort.batch_losses_and_grads",
        "latentsort.lgp_terms",
        "latentsort.Mlp.forward",
        "latentsort.Mlp.backward",
        "latentsort.AdamState.update",
    ],
    "latentsort inference": [
        "latentsort.latent_sort",
        "latentsort.encode_batch",
        "latentsort.load_model",
    ],
    "tspbench": ["tspbench.percentile_longer", "tspbench.path_length"],
    "sorters": [
        "sorters.lexicographical_sort",
        "sorters.mean_squared_sort",
        "sorters.svd_lowrank_sort",
        "sorters.principal_direction",
        "sorters.bfs_sort",
        "sorters.dfs_sort",
    ],
    "analysis": [
        "analysis.ambiguity_sets",
        "analysis.uniform_ambiguity_P",
        "analysis.ambiguity_error",
        "analysis.sorting_error",
        "analysis.validate_probability_matrix",
        "analysis.rank_probability_matrix",
    ],
    "metrics": ["metrics.smd", "metrics.sample_edge_points"],
    "datagen": ["datagen.generate_planar_graph", "datagen.delaunay"],
    "core": ["core.read_token_sets", "core.write_sequences", "core.tokenize_edges"],
    "cli": ["cli.main"],
}
FUNCTIONS = [name for names in LAYERS.values() for name in names]


def _lgp_pairs(x_sorted, *args, **kwargs) -> int:
    return max(len(x_sorted) - 1, 0)


def _enumerated_paths(points, *args, **kwargs) -> int:
    return math.factorial(len(points)) // 2


# Work counted at a function's boundary, from its arguments: function -> (count, how).
WORK_COUNTS = {
    "latentsort.lgp_terms": ("pairs", _lgp_pairs),
    "tspbench.percentile_longer": ("paths", _enumerated_paths),
}


class Tracer:
    """Spans kept in flat arrays until `summary` derives self times from them."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._open: list[int] = []
        self.work: dict[str, int] = {f"{fn}.{what}": 0 for fn, (what, _) in WORK_COUNTS.items()}

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn):
        nid = self._id(name)
        count = WORK_COUNTS.get(name)
        work_key = f"{name}.{count[0]}" if count else None
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if count:
                self.work[work_key] += count[1](*args, **kwargs)
            idx = len(self.start)
            self.name_id.append(nid)
            self.parent.append(self._open[-1] if self._open else -1)
            self.end.append(0.0)
            self._open.append(idx)
            self.start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                self.end[idx] = clock()
                self._open.pop()

        return traced

    def summary(self) -> dict[str, tuple[float, int]]:
        """name -> (total self seconds, calls), for every function in FUNCTIONS."""
        for name in FUNCTIONS:
            self._id(name)
        dur = np.frombuffer(self.end, dtype=np.float64) - np.frombuffer(self.start, dtype=np.float64)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        ids = np.frombuffer(self.name_id, dtype=np.int32)
        nested = parent >= 0
        child = np.bincount(parent[nested], weights=dur[nested], minlength=len(dur))
        self_s = np.bincount(ids, weights=dur - child, minlength=len(self.names))
        calls = np.bincount(ids, minlength=len(self.names))
        return {name: (float(self_s[i]), int(calls[i])) for i, name in enumerate(self.names)}


def _tokensort_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "tokensort" or name.startswith("tokensort."))]


@contextlib.contextmanager
def instrument(tracer: Tracer):
    """Route every call of the functions in FUNCTIONS through `tracer`."""
    undo: list[tuple] = []
    try:
        for name in FUNCTIONS:
            module_name, *path = name.split(".")
            module = importlib.import_module(f"tokensort.{module_name}")
            if len(path) == 2:
                cls = getattr(module, path[0])
                original = cls.__dict__[path[1]]
                setattr(cls, path[1], tracer.wrap(name, original))
                undo.append((setattr, cls, path[1], original))
                continue
            original = getattr(module, path[0])
            wrapper = tracer.wrap(name, original)
            for mod in _tokensort_modules():
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        undo.append((setattr, mod, attr, original))
                    elif isinstance(value, dict):
                        for key, entry in list(value.items()):
                            if entry is original:
                                value[key] = wrapper
                                undo.append((dict.__setitem__, value, key, original))
        yield tracer
    finally:
        for put, owner, key, original in reversed(undo):
            put(owner, key, original)
