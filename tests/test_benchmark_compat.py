"""The names the benchmark harness reaches in qarrival exist.

``benchmarks/run.py`` reads the beam-table cache statistics on every run,
and a traced run looks up each function and method that
``benchmarks/tracing.py`` lists with ``getattr``.  Removing one of them
from ``src/`` would break the benchmark; these tests catch it first, as
they do for the record fields the ``mc_study`` check reads and for the
argument position the tracer reads the sampler's record count from.
"""

import importlib
import importlib.util
import inspect
import warnings
from pathlib import Path

import numpy as np
import pytest

from qarrival import intensity, process, propagate
from qarrival.intensity import IntensityProfile
from qarrival.scenario import Scenario, StateFamily

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


def test_locator_size_is_its_point_count(beam_profile_r1):
    # the tracer's points metrics take np.size of the evaluators' first
    # argument, which for a locator reads Locator.size
    loc = beam_profile_r1.locate(np.linspace(0.0, 70.0, 12).reshape(3, 4))
    assert loc.size == np.size(loc) == 12
    assert np.size(loc[:, -1]) == 3


def test_sampled_records_expose_what_the_check_reads(beam_profile_r1):
    # the mc_study check reads n_detected, terminated and times[-1] per record
    records = process.sample_batch(3, StateFamily.coherent(1.0), beam_profile_r1, 5, 1).records
    assert len(records) == 5
    for rec in records:
        assert rec.n_detected == 3 and rec.terminated is False
        assert isinstance(rec.times, np.ndarray) and rec.times[-1] > rec.times[0]


def test_sampler_returns_times_and_counts(beam_scn):
    # the finite_source job unpacks (times, n_det) and checks the record
    # layout against n_det; on the navg = 5 packet Fock(1) stops every
    # record at one detection or none, so all rows are short
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        prof = intensity.build_profile(beam_scn.at_navg(5.0), t_max=45.0, dt=2e-3,
                                       derivative=False)
    out = process.sample_times_matrix(3, StateFamily.fock(1), prof, 2_000, 4)
    assert isinstance(out, tuple) and len(out) == 2
    times, n_det = out
    assert times.shape == (2_000, 3) and n_det.max() == 1
    assert np.array_equal(n_det, np.sum(~np.isnan(times), axis=1))


def test_sample_batch_calls_the_sampler_attribute(monkeypatch, beam_profile_r1):
    # the tracer wraps process.sample_times_matrix and reads the record
    # count of process.sample_times_matrix.records from its a[3]
    calls = []
    sampler = process.sample_times_matrix
    monkeypatch.setattr(process, "sample_times_matrix",
                        lambda *a, **k: calls.append((a, k)) or sampler(*a, **k))
    batch = process.sample_batch(3, StateFamily.coherent(1.0), beam_profile_r1, 7, 2)
    assert len(calls) == 1
    args, kwargs = calls[0]
    assert args[3] == 7 and not kwargs
    assert batch.times.shape == (7, 3)


def test_sampler_count_is_the_fourth_argument():
    # the tracer reads the record count of a sample_times_matrix call as a[3]
    params = list(inspect.signature(process.sample_times_matrix).parameters)
    assert params[3] == "count"


@pytest.mark.parametrize("eps, solver", [(0.0, "solve_renewal"), (0.5, "solve_volterra")])
def test_finite_profile_makes_one_solver_call(monkeypatch, eps, solver):
    # the tracer wraps both solvers by module attribute and reads a[0].grid.n_nodes;
    # a profile with its derivative solves both drives in one call
    calls = []
    original = getattr(propagate, solver)
    monkeypatch.setattr(propagate, solver,
                        lambda *a, **k: calls.append(a[0].grid.n_nodes) or original(*a, **k))
    scn = Scenario(m=1.0, a=0.1, eps=eps, p0=1.0, x0=-5.0, dp=0.7, navg=100.0)
    prof = intensity.build_profile(scn, t_max=10.0, dt=0.01)
    assert calls == [1001] and prof.domega is not None
