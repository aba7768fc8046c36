import ast
import pathlib

import numpy as np
import pytest

import qarrival
from qarrival import deltakernel as dk
from qarrival import fisher, process, scenario
from qarrival import propagate as pg
from qarrival.errors import GridMismatchError, ModeError
from qarrival.scenario import Scenario, StateFamily

COH = StateFamily.coherent(1.0)


def test_every_exported_name_resolves():
    missing = [name for name in qarrival.__all__ if not hasattr(qarrival, name)]
    assert not missing


def test_every_imported_name_is_exported():
    tree = ast.parse(pathlib.Path(qarrival.__file__).read_text())
    imported = {alias.asname or alias.name
                for node in tree.body if isinstance(node, ast.ImportFrom)
                if node.module != "__future__"
                for alias in node.names}
    assert imported
    assert sorted(imported - set(qarrival.__all__)) == []
    assert len(set(qarrival.__all__)) == len(qarrival.__all__)


# wrappers and exports that no code in the library, the CLI or the benchmark
# needed; where one had a caller, that caller calls the code behind it
REMOVED = [(dk, "remainder_R_with_dp"), (dk, "beam_intensity_dp"), (scenario, "family_F"),
           (Scenario, "at_p0"), (fisher, "_beam_tail_closed")]


@pytest.mark.parametrize("owner, name", REMOVED, ids=[name for _, name in REMOVED])
def test_removed_names_stay_gone(owner, name):
    assert not hasattr(owner, name)
    assert not hasattr(qarrival, name) and name not in qarrival.__all__


def _chi(p):
    return np.exp(-p * p)


POINT = Scenario(m=1.0, a=0.1, eps=0.0, p0=1.0, x0=-20.0, dp=0.7, navg=100.0)

# (call on the beam and the finite profile, error); each is a boundary check
# that no other test reaches
BOUNDARY_CHECKS = {
    "stationary-count": (lambda beam, fin: fisher.stationary_constant(0, COH), ValueError),
    "mle-on-finite": (lambda beam, fin: fisher.mle_variance_study(1, COH, fin, 2, 2, 0),
                      ModeError),
    "integral-count": (lambda beam, fin: process.total_prob_integral(0, COH, 5.0), ValueError),
    "total-dp-count": (lambda beam, fin: process.total_prob_dp(0, COH, fin), ValueError),
    "sampler-count": (lambda beam, fin: process.sample_times_matrix(0, COH, beam, 10, 0),
                      ValueError),
    "series-family": (lambda beam, fin: process.first_arrival_series_coeffs(
        "fock", 1.0, 0.1, 1.0), ValueError),
    "negative-mass": (lambda beam, fin: beam.invert_Omega(-1.0), ValueError),
    "detector-strength": (lambda beam, fin: dk.DeltaParams(0.0, 1.0), ModeError),
    "empty-window": (lambda beam, fin: dk.f_superposition(_chi, 1.0, dk.DeltaParams(0.1, 1.0),
                                                         (1.0, 1.0)), ValueError),
    "negative-time": (lambda beam, fin: dk.f_superposition(_chi, -1.0, dk.DeltaParams(0.1, 1.0),
                                                          (-1.0, 1.0)), ValueError),
    "beam-dp-momentum": (lambda beam, fin: dk.beam_intensity_with_dp(
        1.0, 0.0, 1.0, dk.DeltaParams(0.1, 1.0)), ModeError),
    "series-length": (lambda beam, fin: pg.ComplexSeries(pg.TimeGrid(1.0, 0.1), np.ones(5)),
                      GridMismatchError),
    "point-detector-kernel": (lambda beam, fin: pg.gaussian_kernel_g(POINT, pg.TimeGrid(1.0, 0.1)),
                              ModeError),
}


@pytest.mark.parametrize("name", sorted(BOUNDARY_CHECKS))
def test_boundary_checks_raise(name, beam_profile_r1, delta_profile):
    call, error = BOUNDARY_CHECKS[name]
    with pytest.raises(error):
        call(beam_profile_r1, delta_profile)
