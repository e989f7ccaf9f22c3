"""Package surface: the names it exports and the names the benchmark traces."""

import importlib
import importlib.util
from pathlib import Path

import pytest

import spreadmux

MODULES = ("codes", "experiments", "metrics", "network", "optics", "signal")
TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def test_readme_python_api_import():
    from spreadmux import reproduction_config, run_experiment  # noqa: F401


def test_package_exports_every_module_all():
    expected = {"__version__"}
    for name in MODULES:
        module = importlib.import_module(f"spreadmux.{name}")
        expected |= set(module.__all__)
        for attr in module.__all__:
            assert getattr(spreadmux, attr) is getattr(module, attr)
    assert set(spreadmux.__all__) == expected
    assert len(spreadmux.__all__) == len(expected)


def _traced_names():
    # bench/tracing.py imports only the standard library
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing.TRACED


@pytest.mark.parametrize("module_name, qualname", _traced_names())
def test_benchmark_traced_name_exists(module_name, qualname):
    target = importlib.import_module(f"spreadmux.{module_name}")
    for part in qualname.split("."):
        target = getattr(target, part)
    assert callable(target)
