import math
import warnings

import numpy as np
import pytest

from qarrival import intensity
from qarrival.deltakernel import DeltaParams
from qarrival.errors import ModeError, ToleranceError
from qarrival.fisher import (density_sweep, fisher_conditional, fisher_info,
                             i_infinity, mc_score_variance, mle_variance_study,
                             sparse_limit_I, stationary_constant)
from qarrival.intensity import build_profile
from qarrival.scenario import Scenario, StateFamily

DP = DeltaParams(0.1, 1.0)
COH = StateFamily.coherent(1.0)
QF = StateFamily.quasifree(1.0)


class TestStationaryConstants:
    @pytest.mark.parametrize("n", range(1, 11))
    def test_coherent_linear(self, n):
        assert stationary_constant(n, COH).value == pytest.approx(n, abs=1e-8)

    @pytest.mark.parametrize("n", range(1, 11))
    def test_quasifree_saturating(self, n):
        assert stationary_constant(n, QF).value == pytest.approx(n / (n + 2), abs=1e-8)

    def test_quasifree_single(self):
        assert stationary_constant(1, QF).value == pytest.approx(1.0 / 3.0, abs=1e-10)

    def test_fock_quadrature_runs(self):
        val = stationary_constant(2, StateFamily.fock(12)).value
        assert val > 0.0

    def test_fock_divergent_order_raises(self):
        with pytest.raises(ToleranceError):
            stationary_constant(11, StateFamily.fock(12))


class TestSparseLimit:
    def test_reference_value(self):
        assert i_infinity(1.0, DP) == pytest.approx(0.00907, abs=1e-5)
        assert sparse_limit_I(1, COH, 1.0, DP) == pytest.approx(0.00907, abs=1e-5)

    def test_saturation(self):
        vals = [sparse_limit_I(n, QF, 1.0, DP) for n in (1, 10, 100, 1000)]
        assert vals[-1] == pytest.approx(i_infinity(1.0, DP), rel=2e-3)
        assert all(a < b for a, b in zip(vals, vals[1:]))

    def test_no_detection_no_information(self):
        weak = DeltaParams(1e-9, 1.0)
        assert sparse_limit_I(3, COH, 1.0, weak) < 1e-17

    def test_fock_unsupported(self):
        with pytest.raises(ModeError):
            sparse_limit_I(2, StateFamily.fock(5), 1.0, DP)


@pytest.fixture(scope="module")
def sparse_profiles():
    out = {}
    for r0 in (1e-2, 1e-3, 1e-4):
        out[r0] = build_profile(Scenario(m=1.0, a=0.1, eps=0.0, p0=1.0,
                                         navg=math.inf, r0=r0))
    return out


class TestBeamInformation:
    def test_sparse_convergence_two_percent(self, sparse_profiles):
        prof = sparse_profiles[1e-4]
        for fam in (COH, QF):
            for n in (1, 2, 3, 5):
                val = fisher_info(n, fam, prof).value
                lim = sparse_limit_I(n, fam, 1.0, DP)
                assert abs(val - lim) / lim < 0.02

    def test_limit_recovery_monotone(self, sparse_profiles):
        for fam in (COH, QF):
            gaps = []
            for r0 in (1e-2, 1e-3, 1e-4):
                val = fisher_info(2, fam, sparse_profiles[r0]).value
                lim = sparse_limit_I(2, fam, 1.0, DP)
                gaps.append(abs(val - lim) / lim)
            assert gaps[0] > gaps[1] > gaps[2]
            assert gaps[0] / gaps[1] >= 2.0 and gaps[1] / gaps[2] >= 2.0

    def test_dense_coherent_vanishes(self):
        prof = build_profile(Scenario(m=1.0, a=0.1, eps=0.0, p0=1.0,
                                      navg=math.inf, r0=1e3))
        i_inf = i_infinity(1.0, DP)
        for n in range(1, 6):
            assert fisher_info(n, COH, prof).value < 1e-3 * i_inf

    def test_dense_quasifree_decreasing(self):
        vals = []
        for r0 in (10.0, 1e2, 1e3):
            prof = build_profile(Scenario(m=1.0, a=0.1, eps=0.0, p0=1.0,
                                          navg=math.inf, r0=r0))
            vals.append(fisher_info(3, QF, prof).value)
        assert vals[0] > vals[1] > vals[2]

    def test_beam_increasing_in_n(self, beam_profile):
        vals = [fisher_info(n, COH, beam_profile).value for n in range(1, 8)]
        assert all(a < b for a, b in zip(vals, vals[1:]))

    def test_report_decomposition_exact(self, beam_profile):
        rep = fisher_info(3, COH, beam_profile)
        assert rep.detection_part + rep.noevent_part == rep.value
        assert rep.noevent_part == 0.0 and rep.p_tot == 1.0
        assert rep.conditional == rep.value

    def test_interior_maximum_over_density(self):
        table = density_sweep([2], [0.0, 0.05, 0.5, 5.0, 50.0, 500.0], COH, 1.0, DP)
        row = table.info[0]
        k = int(np.argmax(row))
        assert 0 < k < len(row) - 1  # peak strictly inside the density range

    def test_sweep_sparse_endpoint(self):
        table = density_sweep([1, 3], [0.0], QF, 1.0, DP)
        assert table.info[0, 0] == pytest.approx(sparse_limit_I(1, QF, 1.0, DP))
        assert table.info[1, 0] == pytest.approx(sparse_limit_I(3, QF, 1.0, DP))

    def test_coherent_row_increasing_near_sparse(self):
        table = density_sweep([1, 2, 3], [1e-3], COH, 1.0, DP)
        col = table.info[:, 0]
        assert col[0] < col[1] < col[2]


class TestFiniteInformation:
    @pytest.fixture(scope="class")
    def narrow_profile(self, narrow_scn):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            return build_profile(narrow_scn, t_max=60.0, dt=2e-3)

    def test_conditional_identity_roundtrip(self, narrow_profile):
        coh = StateFamily.coherent(1000.0)
        rep = fisher_info(4, coh, narrow_profile)
        # recompose I_n from (conditional, p_tot, no-event part)
        recomposed = rep.p_tot * rep.conditional \
            + rep.noevent_part / rep.p_tot if rep.p_tot < 1 else rep.value
        assert recomposed == pytest.approx(rep.value, rel=1e-10)

    def test_parts_nonnegative(self, narrow_profile):
        coh = StateFamily.coherent(1000.0)
        for n in (1, 5, 20):
            rep = fisher_info(n, coh, narrow_profile)
            assert rep.detection_part >= 0.0 and rep.noevent_part >= 0.0

    def test_conditional_increasing_in_n(self, narrow_profile):
        coh = StateFamily.coherent(1000.0)
        vals = [fisher_info(n, coh, narrow_profile).conditional
                for n in (1, 5, 10, 20, 40)]
        assert all(a < b for a, b in zip(vals, vals[1:]))

    def test_interior_maximum_in_n(self, delta_profile):
        # the 100-particle member reaches its best detection count near
        # its total mass (~12), well inside the supported n range
        coh = StateFamily.coherent(100.0)
        ns = [1, 3, 6, 9, 12, 16, 20, 25, 30]
        vals = [fisher_info(n, coh, delta_profile).value for n in ns]
        k = int(np.argmax(vals))
        assert 0 < k < len(vals) - 1

    def test_conditional_guard(self, narrow_profile):
        rep = fisher_info(2, StateFamily.coherent(1000.0), narrow_profile)
        assert fisher_conditional(rep) == rep.conditional

    def test_derivative_free_profile_rejected(self, narrow_scn):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            prof = build_profile(narrow_scn, t_max=40.0, dt=5e-3, derivative=False)
        with pytest.raises(ModeError):
            fisher_info(1, StateFamily.coherent(1000.0), prof)


class TestMonteCarlo:
    def test_matches_quadrature(self, beam_profile_r1):
        quad_val = fisher_info(2, COH, beam_profile_r1).value
        mc = mc_score_variance(2, COH, beam_profile_r1, samples=30_000, seed=4)
        assert abs(mc.variance - quad_val) <= 3.0 * mc.std_error

    def test_score_mean_near_zero(self, beam_profile_r1):
        mc = mc_score_variance(1, COH, beam_profile_r1, samples=30_000, seed=6)
        assert abs(mc.mean) <= 3.0 * mc.mean_se

    def test_stationary_reference(self, make_flat_profile):
        # synthetic constant-intensity model: coherent information = n (dw/w)^2
        builder = make_flat_profile(omega0=0.2, slope=0.03)
        prof = builder(1.0)
        mc = mc_score_variance(4, COH, prof, samples=30_000, seed=12,
                               profile_builder=builder)
        expect = 4.0 * (0.03 / 0.2) ** 2
        assert abs(mc.variance - expect) <= 3.0 * mc.std_error
        # and the quadrature reproduces the same stationary value
        assert fisher_info(4, COH, prof).value == pytest.approx(expect, rel=1e-6)

    def test_fd_step_stability(self, beam_profile_r1):
        a = mc_score_variance(1, COH, beam_profile_r1, samples=30_000, seed=8,
                              fd_step=1e-3)
        b = mc_score_variance(1, COH, beam_profile_r1, samples=30_000, seed=8,
                              fd_step=5e-4)
        assert abs(a.variance - b.variance) <= max(a.std_error, 1e-6)

    def test_minimum_samples_enforced(self, beam_profile_r1):
        with pytest.raises(ValueError):
            mc_score_variance(1, COH, beam_profile_r1, samples=100, seed=0)


def test_study_profiles_share_one_grid(beam_profile_r1, monkeypatch):
    # the shifted profiles of both studies are built on one grid, which is
    # what lets them share a single cell locator per sample block
    built = []

    def spy(*args, **kwargs):
        built.append(build_profile(*args, **kwargs))
        return built[-1]

    monkeypatch.setattr(intensity, "build_profile", spy)
    mc_score_variance(1, COH, beam_profile_r1, samples=10_000, seed=1)
    assert len(built) == 2
    mle_variance_study(2, COH, beam_profile_r1, datasets=4, records_per_dataset=8,
                       seed=1, grid_points=5)
    assert len(built) == 7
    for prof in built[1:]:
        assert np.array_equal(prof.t, built[0].t)
