"""The benchmark in perfbench/ looks up program names by string at run time.
These tests fail when a name it traces or reads is deleted or renamed, instead
of leaving that to the benchmark run."""
import importlib
import importlib.util
from pathlib import Path

from tokensort import analysis, metrics

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
