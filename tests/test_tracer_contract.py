"""The names the benchmark tracer wraps must exist where it looks for them.

``perfbench/tracer.py`` replaces package functions by name and swaps
``scan._KERNELS`` for wrapped copies. A refactor that renames a traced
function, or binds a scan's kernel some other way than looking it up in
``scan._KERNELS`` at call time, leaves the harness running with empty spans;
these tests fail instead.
"""

import importlib.util
from pathlib import Path

import pytest

from coherence_lab import ChannelKind, Measure, frozen_surface, scan

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _traced():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer.TRACED


@pytest.mark.parametrize(
    "layer, function",
    [(layer, function) for layer, functions in _traced().items() for function in functions],
)
def test_every_traced_function_exists_on_its_layer(layer, function):
    module = importlib.import_module(f"coherence_lab.{layer}")
    assert callable(getattr(module, function, None))


def test_scan_kernels_cover_every_measure():
    assert set(scan._KERNELS) == set(Measure)
    assert set(scan._C3_TERMS) == set(scan._KERNELS)


@pytest.mark.parametrize("measure", list(Measure))
def test_frozen_surface_calls_the_kernel_through_scan(monkeypatch, measure):
    calls = dict.fromkeys(Measure, 0)

    def counting(m, kernel):
        def wrapper(*args):
            calls[m] += 1
            return kernel(*args)
        return wrapper

    monkeypatch.setattr(scan, "_KERNELS", {m: counting(m, k) for m, k in scan._KERNELS.items()})
    frozen_surface(ChannelKind.BIT_FLIP, measure, 0.5, 1, grid_res=5)
    # per c1 plane one initial-side and one evolved-side kernel call, and only
    # for this measure
    assert calls == {m: 10 if m is measure else 0 for m in Measure}
