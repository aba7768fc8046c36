import dataclasses
import math
import warnings

import numpy as np
import pytest

from qarrival.deltakernel import DeltaParams, beam_asymptotes, beam_intensity
from qarrival.errors import RangeError
from qarrival.intensity import build_profile
from qarrival.scenario import Scenario


class TestBeamProfile:
    def test_initial_rate(self, beam_profile):
        assert beam_profile.omega[0] == pytest.approx(5.642)
        assert beam_profile.Omega[0] == 0.0

    def test_mass_nondecreasing(self, beam_profile):
        assert np.all(np.diff(beam_profile.Omega) >= 0.0)

    def test_mass_slope_matches_rate(self, beam_profile):
        t, om, big = beam_profile.t, beam_profile.omega, beam_profile.Omega
        lo = len(t) // 2
        fd = (big[lo + 1:-1] - big[lo - 1:-3]) / (t[lo + 1:-1] - t[lo - 1:-3])
        assert np.max(np.abs(fd - om[lo:-2]) / om[lo:-2]) < 1e-6

    def test_derivative_mass_consistent(self, beam_profile):
        # dOmega equals an independent cumulative integration (Simpson over
        # cell midpoints) of the profile's rate derivative to 1e-8
        t, dom = beam_profile.t, beam_profile.domega
        mid = len(t) // 2
        tt, dd = t[mid:mid + 2001], dom[mid:mid + 2001]
        mids = np.interp(0.5 * (tt[1:] + tt[:-1]), t, dom)
        simpson = np.sum((tt[1:] - tt[:-1]) / 6.0 * (dd[:-1] + 4.0 * mids + dd[1:]))
        ours = beam_profile.dOmega[mid + 2000] - beam_profile.dOmega[mid]
        assert abs(ours - simpson) < 1e-8 * max(1.0, abs(simpson))

    def test_linear_tail_growth(self, beam_profile):
        bt = beam_profile.beam_tail
        t_end = beam_profile.t[-1]
        assert beam_profile.Omega_at(t_end + 100.0) == pytest.approx(
            beam_profile.Omega[-1] + 100.0 * bt.omega_inf)
        # Omega - omega_inf * t stays bounded (sub-linear remainder)
        drift = beam_profile.Omega[-1] - bt.omega_inf * t_end
        assert abs(drift) < 0.5

    def test_inversion_roundtrip(self, beam_profile):
        for u in (0.1, 1.0, 10.0, 100.0):
            ts = beam_profile.invert_Omega(u)
            assert abs(beam_profile.Omega_at(ts) - u) < 1e-10 * max(1.0, u)

    def test_inversion_zero(self, beam_profile):
        assert beam_profile.invert_Omega(0.0) == 0.0

    def test_inversion_vectorised(self, beam_profile):
        us = np.array([0.5, 5.0, 50.0, 500.0])
        ts = beam_profile.invert_Omega(us)
        assert np.all(np.diff(ts) > 0)
        assert np.max(np.abs(beam_profile.Omega_at(ts) - us)) < 1e-9

    def test_constant_rate_profile_inverts_linearly(self):
        # fast beam: T ~ 1, omega ~ a r0 almost immediately
        scn = Scenario(m=1.0, a=0.1, eps=0.0, p0=1e4, x0=-20.0, navg=math.inf, r0=2.0)
        prof = build_profile(scn, t_max=20.0)
        w0 = 0.1 * 2.0
        assert prof.invert_Omega(1.0) == pytest.approx(1.0 / w0, rel=1e-4)

    def test_cached_beam_grid_is_read_only(self, beam_scn):
        # profiles with the same beam-table key share one cached grid
        first = build_profile(beam_scn)
        second = build_profile(dataclasses.replace(beam_scn, r0=1.0))
        before = second.t.copy()
        with pytest.raises(ValueError):
            first.t[:] = 0.0
        assert np.array_equal(second.t, before)


class TestFiniteProfiles:
    def test_mass_bounded_by_particle_number(self, delta_profile):
        assert delta_profile.Omega_inf <= 100.0 + 1e-9
        assert np.all(delta_profile.Omega <= 100.0 + 1e-9)

    def test_noevent_branch_range_error(self, delta_profile):
        with pytest.raises(RangeError):
            delta_profile.invert_Omega(delta_profile.Omega_inf + 1.0)

    def test_narrow_member_has_negligible_tail(self, narrow_scn):
        prof = build_profile(narrow_scn, t_max=60.0, dt=2e-3)
        assert prof.finite_tail.mass < 1e-6 * prof.Omega_inf

    def test_derivative_grid_matches_independent_fd(self, narrow_scn):
        # profile FD derivative vs a coarser independent re-solve
        prof = build_profile(narrow_scn, t_max=40.0, dt=5e-3)
        h = 5e-4
        hi = build_profile(narrow_scn.at_p0(narrow_scn.p0 + h), t_max=40.0,
                           dt=5e-3, derivative=False)
        lo = build_profile(narrow_scn.at_p0(narrow_scn.p0 - h), t_max=40.0,
                           dt=5e-3, derivative=False)
        fd = (hi.omega - lo.omega) / (2 * h)
        i = np.argmax(prof.omega)
        assert fd[i] == pytest.approx(prof.domega[i], rel=5e-4)

    def test_gaussian_profile_matches_overlap_density(self, packet_scn):
        import dataclasses
        scn = dataclasses.replace(packet_scn, eps=1.0)
        prof = build_profile(scn, t_max=30.0, dt=2e-3)
        from qarrival.propagate import (TimeGrid, gaussian_kernel_g,
                                        gaussian_overlap_h0, solve_volterra)
        grid = TimeGrid(30.0, 2e-3)
        h = solve_volterra(gaussian_overlap_h0(scn, grid),
                           gaussian_kernel_g(scn, grid), scn.gamma)
        expect = scn.navg * scn.gamma * np.abs(h.values) ** 2
        assert np.max(np.abs(prof.omega - expect)) == 0.0


class TestModelBoundary:
    def test_beam_rate_beyond_horizon_is_plateau(self, beam_profile):
        bt = beam_profile.beam_tail
        assert beam_profile.omega_at(beam_profile.t[-1] + 5.0) == bt.omega_inf

    def test_finite_rate_beyond_horizon_is_zero(self, delta_profile):
        assert delta_profile.omega_at(delta_profile.t[-1] + 5.0) == 0.0

    def test_profile_against_closed_form(self, beam_profile):
        dp_obj = DeltaParams(0.1, 1.0)
        ts = np.array([0.5, 5.0, 25.0])
        ours = beam_profile.omega_at(ts)
        exact = beam_intensity(ts, 1.0, 56.42, dp_obj)
        assert np.max(np.abs(ours - exact) / exact) < 1e-6


def test_beam_family_members_converge_to_beam_curve(beam_scn):
    # finite-number members approach the beam intensity: sup distance on
    # [5, 30] decreasing in the particle number (packets wide enough to
    # cover that window only appear around navg ~ 1e4)
    dp_obj = DeltaParams(0.1, 1.0)
    grid_t = np.linspace(5.0, 30.0, 200)
    beam_curve = beam_intensity(grid_t, 1.0, 56.42, dp_obj)
    sups = []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for navg in (1e2, 1e3, 1e4):
            prof = build_profile(beam_scn.at_navg(navg), t_max=35.0, dt=2e-3,
                                 derivative=False)
            sups.append(float(np.max(np.abs(prof.omega_at(grid_t) - beam_curve))))
    assert sups[0] > sups[1] > sups[2]
