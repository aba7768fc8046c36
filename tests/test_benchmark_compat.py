"""The names the benchmark harness reaches in qarrival exist.

``benchmarks/run.py`` reads the beam-table cache statistics on every run,
and a traced run looks up each function and method that
``benchmarks/tracing.py`` lists with ``getattr``.  Removing one of them
from ``src/`` would break the benchmark; these tests catch it first.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

from qarrival import intensity
from qarrival.intensity import IntensityProfile

TRACING = Path(__file__).resolve().parents[1] / "benchmarks" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("benchmark_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_functions_exist(tracing):
    missing = [f"{home}.{attr}" for _, home, attr, _ in tracing.FUNCTIONS
               if not callable(getattr(importlib.import_module(f"qarrival.{home}"), attr, None))]
    assert not missing


def test_traced_methods_exist(tracing):
    missing = [attr for _, attr, _ in tracing.METHODS if attr not in IntensityProfile.__dict__]
    assert not missing


def test_beam_table_cache_statistics():
    info = intensity._beam_tables.cache_info()
    assert info.hits >= 0 and info.misses >= 0 and info.maxsize > 0
