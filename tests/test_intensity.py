import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import cumulative_trapezoid

from qarrival import deltakernel as dk
from qarrival import intensity
from qarrival.deltakernel import (BeamAsymptotes, DeltaParams, beam_asymptotes,
                                  beam_intensity)
from qarrival.errors import ConfigError, RangeError
from qarrival.intensity import IntensityProfile, build_profile
from qarrival.process import sample_times_matrix
from qarrival.scenario import Scenario, StateFamily


def beam_from_separate_remainders(t, p0, r0, dp):
    """The beam intensity and its derivative with R_p and dR_p/dp from two
    separate erfc evaluations, the formulas of ``beam_intensity_with_dp``."""
    bracket = dk.transmission_T(p0, dp) + dk.remainder_R(p0, t, dp)
    dbracket = dp.alpha / (p0 + dp.alpha) ** 2 + dk.remainder_R_dp(p0, t, dp)
    return (dp.a * r0 * np.abs(bracket) ** 2,
            2.0 * dp.a * r0 * np.real(np.conj(bracket) * dbracket))


class TestBeamProfile:
    @pytest.mark.parametrize("p0", [0.05, 0.05 * (1 + 1e-5), 1.0, 1.37])
    def test_tables_match_separate_remainders_bitwise(self, p0, monkeypatch):
        # on a grid whose p0-free ray is cached, one erfc evaluation serves R
        # and dR/dp; p0 = 0.05 = alpha takes the Taylor branch
        intensity._beam_ray(0.1, 1.0, 60.0, 0.01)
        erfc_calls = []
        counted = dk.erfc_c
        monkeypatch.setattr(dk, "erfc_c", lambda z: erfc_calls.append(1) or counted(z))
        build = intensity._beam_tables.__wrapped__
        shared = build(0.1, 1.0, p0, 60.0, 0.01)
        assert len(erfc_calls) == 1
        monkeypatch.setattr(dk, "beam_intensity_on_ray", lambda ray, p0, r0, dp:
                            beam_from_separate_remainders(ray[0], p0, r0, dp))
        separate = build(0.1, 1.0, p0, 60.0, 0.01)
        for a, b in zip(shared, separate):
            assert np.array_equal(a.view(np.uint64), b.view(np.uint64))

    @pytest.mark.parametrize("p0", [0.05 * (1 - 3e-5), 0.05, 0.05 * (1 + 1e-5), 1.0, 1.7])
    def test_tables_on_the_cached_ray_match_a_fresh_grid_bitwise(self, p0, monkeypatch):
        # below, at and just above alpha = a m / 2 = 0.05 (the Taylor branch):
        # beam_intensity_with_dp on a fresh writable grid computes both erfcs
        # itself, and the tables built from it are the cached ones
        build = intensity._beam_tables.__wrapped__
        t = intensity._beam_ray(0.1, 1.0, 60.0, 0.01)[0]
        cached = build(0.1, 1.0, p0, 60.0, 0.01)
        grid = intensity._beam_grid(60.0, 0.01)
        assert grid.flags.writeable and grid is not t
        fresh = dk.beam_intensity_with_dp(grid, p0, 1.0, DeltaParams(0.1, 1.0))
        monkeypatch.setattr(dk, "beam_intensity_on_ray", lambda ray, p0, r0, dp: fresh)
        rebuilt = build(0.1, 1.0, p0, 60.0, 0.01)
        assert np.array_equal(grid.view(np.uint64), t.view(np.uint64))
        assert len(cached) == 5
        for a, b in zip(cached, rebuilt):
            assert np.array_equal(a.view(np.uint64), b.view(np.uint64))

    def test_profiles_on_one_grid_share_its_read_only_ray(self, beam_scn):
        first = build_profile(beam_scn, t_max=30.0)
        other = build_profile(dataclasses.replace(beam_scn, p0=1.3), t_max=30.0)
        ray = intensity._beam_ray(beam_scn.a, beam_scn.m, 30.0, 0.01)
        assert first.t is other.t is ray[0]
        tables = intensity._beam_tables(beam_scn.a, beam_scn.m, 1.3, 30.0, 0.01)
        for arr in ray + tables:
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[:1] = 0.0

    @pytest.mark.parametrize("p0", [0.6, 1.0, 1.7])
    def test_tables_are_the_checked_formulas(self, p0):
        # criterion 11 checks the derivative of beam_intensity_with_dp against
        # finite differences of beam_intensity; the tables hold those two at
        # unit density
        dp_obj = DeltaParams(0.1, 1.0)
        t = intensity._beam_ray(0.1, 1.0, 60.0, 0.01)[0]
        g, gdot = intensity._beam_tables(0.1, 1.0, p0, 60.0, 0.01)[:2]
        for table, formula in ((g, dk.beam_intensity(t, p0, 1.0, dp_obj)),
                               (gdot, dk.beam_intensity_with_dp(t, p0, 1.0, dp_obj)[1])):
            assert np.array_equal(table.view(np.uint64), formula.view(np.uint64))

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


@pytest.mark.parametrize("t_max, dt", [(-5.0, None), (0.0, None), (math.nan, None),
                                       (math.inf, None), (None, 0.0), (None, -0.01),
                                       (None, math.nan), (None, math.inf)])
def test_build_profile_rejects_bad_grid(beam_scn, packet_scn, t_max, dt):
    for scn in (beam_scn, packet_scn, dataclasses.replace(packet_scn, eps=1.0)):
        with pytest.raises(ConfigError):
            build_profile(scn, t_max=t_max, dt=dt)


class TestFiniteProfiles:
    def test_mass_bounded_by_particle_number(self, delta_profile):
        assert delta_profile.Omega_inf <= 100.0 + 1e-9
        assert np.all(delta_profile.Omega <= 100.0 + 1e-9)

    def test_noevent_branch_range_error(self, delta_profile):
        with pytest.raises(RangeError):
            delta_profile.invert_Omega(delta_profile.Omega_inf + 1.0)

    def test_zero_tail_mass_ends_at_the_grid(self, packet_scn):
        # at t_max = 1 the packet has barely arrived and the tail fit has too
        # few nodes: no mass past the grid, so every u past Omega[-1] is NO-event
        with pytest.warns(UserWarning, match="too few positive nodes"):
            prof = build_profile(packet_scn, t_max=1.0, dt=0.05)
        assert prof.finite_tail.mass == 0.0
        assert prof.Omega_inf == prof.Omega[-1]
        with pytest.raises(RangeError):
            prof.invert_Omega(prof.Omega_inf)

    def test_dropped_tail_warns(self, packet_scn):
        # 21 nodes leave 7 in the last 30 % of the grid, too few for the fit,
        # while omega is still rising at t_max: the zero tail mass is a guess
        with pytest.warns(UserWarning, match="too few positive nodes"):
            prof = build_profile(packet_scn, t_max=5.0, dt=0.25)
        assert prof.omega[-1] > prof.omega[-2] > 0.0
        assert prof.finite_tail.mass == 0.0

    def test_narrow_member_has_negligible_tail(self, narrow_scn):
        prof = build_profile(narrow_scn, t_max=60.0, dt=2e-3)
        assert prof.finite_tail.mass < 1e-6 * prof.Omega_inf

    def test_derivative_grid_matches_independent_fd(self, narrow_scn):
        # profile FD derivative vs a coarser independent re-solve
        prof = build_profile(narrow_scn, t_max=40.0, dt=5e-3)
        h = 5e-4
        hi, lo = (build_profile(dataclasses.replace(narrow_scn, p0=narrow_scn.p0 + sign * h),
                                t_max=40.0, dt=5e-3, derivative=False) for sign in (1, -1))
        fd = (hi.omega - lo.omega) / (2 * h)
        i = np.argmax(prof.omega)
        assert fd[i] == pytest.approx(prof.domega[i], rel=5e-4)

    def test_gaussian_profile_matches_overlap_density(self, packet_scn):
        import dataclasses
        scn = dataclasses.replace(packet_scn, eps=1.0)
        with pytest.warns(UserWarning, match="decays too slowly"):
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


# ---------------------------------------------------------------------------
# Locator: one cell search shared by the evaluators of every profile on a grid
# ---------------------------------------------------------------------------

def _table_profile(t, omega, beam):
    """Profile over an arbitrary table; a beam continues at omega_inf = 0.7
    and domega_dp0_inf = -0.3, otherwise the evaluators continue as a finite
    profile does.  The derivative table is a signed reflection of ``omega``."""
    scn = Scenario(m=1.0, a=0.1, eps=0.0, p0=1.0, x0=-20.0, navg=math.inf, r0=1.0)
    tail = BeamAsymptotes(omega_inf=0.7, domega_dp0_inf=-0.3, c0=0.0, c_sqrt=0.0,
                          c_lin=0.0, dc_t32=0.0) if beam else None
    domega = omega[::-1] - 25.0
    return IntensityProfile(scn=scn, t=t, omega=omega,
                            Omega=cumulative_trapezoid(omega, t, initial=0.0),
                            domega=domega,
                            dOmega=cumulative_trapezoid(domega, t, initial=0.0),
                            dOmega_tilde=np.zeros_like(t),
                            Omega_inf=math.inf, dOmega_inf=math.nan, beam_tail=tail)


def _reference_omega(prof, tq, deriv=False):
    """np.interp with the constant continuation past the last node; of
    ``domega`` with ``deriv``."""
    bt = prof.beam_tail
    if deriv:
        y, tail = prof.domega, 0.0 if bt is None else bt.domega_dp0_inf
    else:
        y, tail = prof.omega, 0.0 if bt is None else bt.omega_inf
    return np.where(tq > prof.t[-1], tail, np.interp(tq, prof.t, y))


def _reference_Omega(prof, tq, deriv=False):
    """The quadratic cell model written out cell by cell, as first specified;
    of ``(dOmega, domega)`` with ``deriv``."""
    big, y = (prof.dOmega, prof.domega) if deriv else (prof.Omega, prof.omega)
    t = prof.t
    idx = np.clip(np.searchsorted(t, tq, side="right") - 1, 0, len(t) - 2)
    t0, t1 = t[idx], t[idx + 1]
    w0, w1 = y[idx], y[idx + 1]
    s = np.clip(tq - t0, 0.0, t1 - t0)
    out = big[idx] + w0 * s + 0.5 * ((w1 - w0) / (t1 - t0)) * s * s
    beyond = tq > t[-1]
    if prof.beam_tail is not None:
        bt = prof.beam_tail
        rate = bt.domega_dp0_inf if deriv else bt.omega_inf
        return np.where(beyond, big[-1] + rate * (tq - t[-1]), out)
    return np.where(beyond, big[-1], out)


def _bits(x):
    return np.asarray(x, dtype=float).view(np.uint64)


def _assert_points_match(prof, tq):
    """The per-point evaluators give the bits of omega_at/Omega_at."""
    omega = [prof._omega_point(x) for x in tq.tolist()]
    Omega = [prof._Omega_point(x) for x in tq.tolist()]
    assert all(type(v) is float for v in omega + Omega)
    assert np.array_equal(_bits(omega), _bits(prof.omega_at(tq)))
    assert np.array_equal(_bits(Omega), _bits(prof.Omega_at(tq)))


def _record_matrix(prof, count, rng):
    """A ``(count, 5)`` time matrix with what sampled blocks hold and more: NaN
    padding of short rows, points past and exactly at ``t[-1]``, ``+inf``,
    ``-0.0`` and grid nodes."""
    t = prof.t
    tq = np.sort(rng.uniform(0.0, 1.3 * t[-1], (count, 5)), axis=1)
    tq[::5, 0] = -0.0
    tq[1::6, 1] = t[rng.integers(0, t.size, tq[1::6].shape[0])]
    tq[2::7, -1] = t[-1]
    tq[3::11, -1] = math.inf
    tq[4::9, 3:] = math.nan
    return tq


def _assert_located_match(prof, loc, tq):
    """The four evaluators on the locator ``loc`` give the bits of the
    reference and of the same evaluator on the raw times ``tq``."""
    for ev, ref in ((prof.omega_at, _reference_omega(prof, tq)),
                    (prof.Omega_at, _reference_Omega(prof, tq)),
                    (prof.domega_at, _reference_omega(prof, tq, deriv=True)),
                    (prof.dOmega_at, _reference_Omega(prof, tq, deriv=True))):
        got = ev(loc)
        assert got.shape == tq.shape
        assert np.array_equal(_bits(got), _bits(ref))
        assert np.array_equal(_bits(got), _bits(ev(tq)))


@st.composite
def _tables_and_queries(draw):
    steps = draw(st.lists(st.floats(1e-3, 5.0), min_size=1, max_size=40))
    t = np.concatenate([[0.0], np.cumsum(steps)])
    t = t[np.concatenate([[True], np.diff(t) > 0.0])]
    if t.size < 2:
        t = np.array([0.0, 1.0])
    # + 0.0 turns -0.0 into 0.0, which np.interp would return as is
    omega = np.array(draw(st.lists(st.floats(0.0, 50.0), min_size=t.size,
                                   max_size=t.size))) + 0.0
    inside = draw(st.lists(st.floats(-1.0, 1.3 * t[-1]), max_size=60))
    nodes = draw(st.lists(st.sampled_from(t.tolist()), max_size=10))
    tq = np.array(inside + nodes + [0.0, t[-1], float(np.nextafter(t[-1], 0.0)),
                                    float(np.nextafter(t[-1], np.inf))])
    return t, omega, tq


class TestLocator:
    @given(case=_tables_and_queries(), beam=st.booleans())
    # a subnormal half-slope: 0.5 * (w1 - w0) / (t1 - t0) rounds differently
    @example(case=(np.array([0.0, 0.75]), np.array([0.0, 2.1999999999999997e-308]),
                   np.array([np.nextafter(0.75, 0.0), 0.0, 0.75])), beam=False)
    @settings(max_examples=150, deadline=None)
    def test_evaluators_match_interp_and_cell_model_bitwise(self, case, beam):
        t, omega, tq = case
        prof = _table_profile(t, omega, beam)
        loc = prof.locate(tq)
        assert loc.idx.dtype == np.intp
        for q in (tq, loc):
            assert np.array_equal(_bits(prof.omega_at(q)), _bits(_reference_omega(prof, tq)))
            assert np.array_equal(_bits(prof.Omega_at(q)), _bits(_reference_Omega(prof, tq)))
            assert np.array_equal(_bits(prof.domega_at(q)),
                                  _bits(_reference_omega(prof, tq, deriv=True)))
            assert np.array_equal(_bits(prof.dOmega_at(q)),
                                  _bits(_reference_Omega(prof, tq, deriv=True)))

    @given(case=_tables_and_queries(), beam=st.booleans())
    @settings(max_examples=150, deadline=None)
    def test_point_evaluators_match_bitwise(self, case, beam):
        t, omega, tq = case
        prof = _table_profile(t, omega, beam)
        tq = np.concatenate([tq, [-0.0, t[-1] + 1.0, 1e3 * t[-1]]])
        _assert_points_match(prof, tq)

    def test_built_point_evaluators_match_bitwise(self, beam_profile, delta_profile):
        rng = np.random.default_rng(4)
        for prof in (beam_profile, delta_profile):
            t = prof.t
            _assert_points_match(prof, np.concatenate([
                rng.uniform(0.0, 1.2 * t[-1], 5_000), t[::7], np.nextafter(t[::7], 0.0),
                np.nextafter(t[::7], np.inf), [0.0, t[-1], t[-1] + 3.0]]))

    def test_built_profiles_match_bitwise(self, beam_profile, delta_profile):
        rng = np.random.default_rng(3)
        for prof in (beam_profile, delta_profile):
            t = prof.t
            tq = np.concatenate([rng.uniform(-1.0, 1.2 * t[-1], 20_000), t,
                                 [0.0, t[-1], t[-1] + 3.0]]).reshape(-1, 2)
            assert np.array_equal(_bits(prof.omega_at(tq)), _bits(_reference_omega(prof, tq)))
            assert np.array_equal(_bits(prof.Omega_at(tq)), _bits(_reference_Omega(prof, tq)))
            for q in (tq, prof.locate(tq)):
                assert np.array_equal(_bits(prof.domega_at(q)),
                                      _bits(_reference_omega(prof, tq, deriv=True)))
                assert np.array_equal(_bits(prof.dOmega_at(q)),
                                      _bits(_reference_Omega(prof, tq, deriv=True)))

    def test_locator_shared_across_profiles_on_one_grid(self, beam_scn):
        a = build_profile(beam_scn, t_max=20.0)
        b = build_profile(dataclasses.replace(beam_scn, r0=3.0), t_max=20.0)
        c = build_profile(dataclasses.replace(beam_scn, p0=1.2), t_max=20.0)
        # equal grid, own array
        d = dataclasses.replace(c, t=c.t.copy())
        assert c.t is a.t and d.t is not a.t
        tq = np.linspace(0.0, 25.0, 300).reshape(-1, 3)
        loc = a.locate(tq)
        for prof in (a, b, c, d):
            assert np.array_equal(prof.omega_at(loc), prof.omega_at(tq))
            assert np.array_equal(prof.Omega_at(loc[:, -1]), prof.Omega_at(tq[:, -1]))

    def test_matrix_locator_matches_reference_bitwise(self, beam_profile_r1, delta_profile):
        rng = np.random.default_rng(5)
        for prof in (beam_profile_r1, delta_profile):
            tq = _record_matrix(prof, 3_000, rng)
            loc = prof.locate(tq)
            end = prof.t[-1]
            assert np.array_equal(loc.past, np.flatnonzero(tq > end))
            assert np.array_equal(loc.at, np.flatnonzero(tq == end))
            full = ~np.isnan(tq[:, -1])
            assert not loc.complete and loc[full].complete and not loc[~full].complete
            for last in (loc.last, loc[full].last):
                assert all(a.flags.c_contiguous for a in (last.idx, last.s, last.tq))
            for q, ref in ((loc, tq), (loc[full], tq[full]), (loc[~full], tq[~full]),
                           (loc[:, -1], tq[:, -1]), (loc.last, tq[:, -1]),
                           (loc[full].last, tq[full, -1])):
                _assert_located_match(prof, q, ref)

    def test_matrix_locator_serves_two_profiles_on_one_grid(self, beam_scn):
        a = build_profile(dataclasses.replace(beam_scn, r0=1.0))
        b = build_profile(dataclasses.replace(beam_scn, r0=1.0, p0=1.2))
        assert a.t is b.t
        tq = _record_matrix(a, 2_000, np.random.default_rng(6))
        loc = a.locate(tq)
        for prof in (a, b):
            _assert_located_match(prof, loc, tq)
            _assert_located_match(prof, loc.last, tq[:, -1])

    @given(case=_tables_and_queries(), beam=st.booleans(), width=st.integers(1, 4))
    @settings(max_examples=100, deadline=None)
    def test_matrix_locators_on_tables_match_bitwise(self, case, beam, width):
        t, omega, tq = case
        prof = _table_profile(t, omega, beam)
        tq = np.concatenate([tq, [-0.0, math.inf]])
        tq = np.concatenate([tq, np.full(-tq.size % width + width, math.nan)])
        tq = tq.reshape(-1, width)
        loc = prof.locate(tq)
        full = ~np.isnan(tq[:, -1])
        for q, ref in ((loc, tq), (loc.last, tq[:, -1]), (loc[full], tq[full]),
                       (loc[full].last, tq[full, -1])):
            _assert_located_match(prof, q, ref)

    def test_locator_from_another_grid_rejected(self, beam_scn):
        a = build_profile(beam_scn, t_max=20.0)
        b = build_profile(beam_scn, t_max=20.0, dt=0.02)
        loc = b.locate([1.0, 2.0])
        with pytest.raises(ValueError):
            a.omega_at(loc)
        with pytest.raises(ValueError):
            a.Omega_at(loc)
        with pytest.raises(ValueError):
            a.domega_at(loc)
        with pytest.raises(ValueError):
            a.dOmega_at(loc)

    def test_scalar_in_scalar_out(self, beam_profile, delta_profile):
        for prof in (beam_profile, delta_profile):
            for tq in (0.0, 2.5, prof.t[-1], prof.t[-1] + 1.0):
                loc = prof.locate(tq)
                for q in (tq, loc, prof.locate([tq])[0]):
                    assert type(prof.omega_at(q)) is float
                    assert type(prof.Omega_at(q)) is float
                    assert type(prof.domega_at(q)) is float
                    assert type(prof.dOmega_at(q)) is float
                assert prof.omega_at(loc) == _reference_omega(prof, np.array(tq))
                assert prof.Omega_at(loc) == _reference_Omega(prof, np.array(tq))


# ---------------------------------------------------------------------------
# Bucket index: the exact cell search of locate and invert_Omega
# ---------------------------------------------------------------------------

_EDGE_QUERIES = [math.nan, math.inf, -math.inf, -0.0, 0.0, -1.0, -1e300, 1e300, 5e-324]


def _queries_around(table):
    """Every node, its two float neighbours, and the edge queries."""
    return np.concatenate([table, np.nextafter(table, -np.inf), np.nextafter(table, np.inf),
                           _EDGE_QUERIES])


def _assert_search_exact(table, q):
    """The bucket index of ``table`` answers as a search of its interior."""
    index = intensity._BucketIndex.build(table)
    inner = table[1:-1]
    for shaped in (q, q.reshape(-1, 1), q[: q.size // 2 * 2].reshape(2, -1)):
        idx = index.search(shaped)
        assert idx.dtype == np.intp and idx.shape == shaped.shape
        assert np.array_equal(idx, np.searchsorted(inner, shaped, side="right"))
    for x in q[:20]:
        idx = index.search(np.asarray(x))
        assert idx.shape == () and idx == np.searchsorted(inner, x, side="right")


@st.composite
def _sorted_tables_and_queries(draw):
    """A sorted table of two or more nodes with flat runs, from wide, narrow
    and subnormal spans, and queries anywhere (NaN and +-inf included) and
    at its nodes."""
    values = draw(st.lists(st.one_of(st.floats(-1e3, 1e3), st.floats(-1e300, 1e300),
                                     st.floats(1.0, 1.0 + 1e-12), st.floats(-1e-310, 1e-310)),
                           min_size=2, max_size=30))
    repeats = draw(st.lists(st.integers(1, 4), min_size=len(values), max_size=len(values)))
    table = np.sort(np.repeat(np.array(values, dtype=float), repeats))
    anywhere = draw(st.lists(st.floats(), max_size=30))
    ends = float(table[0]), float(table[-1])  # min/max keep one zero for [0.0, -0.0]
    inside = draw(st.lists(st.floats(min(ends), max(ends)), max_size=30))
    return table, np.concatenate([np.array(anywhere + inside, dtype=float),
                                  _queries_around(table)])


@pytest.mark.parametrize("which", ["beam", "finite"])
def test_evaluators_at_infinity(beam_profile_r1, delta_profile, which):
    # the cell formulas were evaluated at +inf before the tail replaced them,
    # which warned "invalid value encountered in add" (an error under the
    # test filter); the finite times keep their bits
    prof = beam_profile_r1 if which == "beam" else delta_profile
    t = np.array([0.0, 1.0, prof.t[-1], prof.t[-1] + 3.0])
    evaluators = ((prof.omega_at, _reference_omega, False),
                  (prof.domega_at, _reference_omega, True),
                  (prof.Omega_at, _reference_Omega, False),
                  (prof.dOmega_at, _reference_Omega, True))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = [f(np.append(t, np.inf)) for f, _, _ in evaluators]
        scalars = [f(math.inf) for f, _, _ in evaluators]
    for vals, (_, reference, deriv) in zip(got, evaluators):
        assert np.array_equal(_bits(vals[:-1]), _bits(reference(prof, t, deriv=deriv)))
    if which == "beam":
        bt = prof.beam_tail
        expected = [bt.omega_inf, bt.domega_dp0_inf, math.inf,
                    math.copysign(math.inf, bt.domega_dp0_inf)]
    else:
        expected = [0.0, 0.0, prof.Omega[-1], prof.dOmega[-1]]
    assert [vals[-1] for vals in got] == expected == scalars


class TestBucketIndex:
    @given(case=_sorted_tables_and_queries())
    @settings(max_examples=300, deadline=None)
    def test_search_equals_searchsorted(self, case):
        _assert_search_exact(*case)

    @pytest.mark.parametrize("table", [
        [0.0, 1.0], [2.0, 2.0], [0.0, 2.0, 5.0], [2.0, 2.0, 2.0], [0.0, 1.0, 3.0, 4.0],
        [1.0, 1.0, 3.0, 5.0], [1.0, 3.0, 3.0, 3.0], [-0.0, 0.0, 1.0], [0.0, 1.0, 1.0, 1.0, 2.0],
        [-1e308, 0.0, 1e308], [-1e308, -1e307, 1e307, 1e308], [0.0, 5e-324, 1e-323, 2e-323]])
    def test_small_tables(self, table):
        # no interior node up to three of them, ties, a span that overflows,
        # subnormal spacings
        table = np.array(table, dtype=float)
        _assert_search_exact(table, _queries_around(table))

    def test_built_grids_and_masses(self, beam_profile_r1, delta_profile):
        rng = np.random.default_rng(8)
        for prof in (beam_profile_r1, delta_profile):
            for table in (prof.t, prof.Omega):
                q = np.concatenate([rng.uniform(-1.0, 1.2 * table[-1], 50_000),
                                    _queries_around(table)])
                _assert_search_exact(table, q)

    @pytest.mark.parametrize("beam", [True, False], ids=["beam", "delta"])
    def test_two_node_grid_has_no_interior(self, beam):
        # t[1:-1] is empty, so every point sits in the one cell
        prof = _table_profile(np.array([0.0, 1.5]), np.array([1.0, 2.0]), beam)
        tq = np.array([0.0, -0.0, 0.7, 1.5, 2.0, -1.0, math.nan, math.inf])
        assert np.array_equal(prof.locate(tq).idx, np.zeros(tq.size, dtype=np.intp))
        finite = tq[np.isfinite(tq)]
        assert np.array_equal(_bits(prof.omega_at(finite)), _bits(_reference_omega(prof, finite)))
        assert np.array_equal(_bits(prof.Omega_at(finite)), _bits(_reference_Omega(prof, finite)))


def _reference_invert(prof, u):
    """Inside the grid, the inversion as first written: a full-table search,
    a clamp, and the slope from the two cell nodes."""
    idx = np.clip(np.searchsorted(prof.Omega, u, side="right") - 1, 0, len(prof.t) - 2)
    t0, t1 = prof.t[idx], prof.t[idx + 1]
    w0, w1 = prof.omega[idx], prof.omega[idx + 1]
    kappa = (w1 - w0) / (t1 - t0)
    c = u - prof.Omega[idx]
    disc = np.sqrt(np.maximum(w0 * w0 + 2.0 * kappa * c, 0.0))
    with np.errstate(divide="ignore", invalid="ignore"):
        s = np.where(np.abs(kappa) > 1e-300 * np.abs(w0 + disc),
                     2.0 * c / (w0 + disc),
                     np.where(w0 > 0, c / np.where(w0 > 0, w0, 1.0), 0.0))
    return t0 + np.clip(s, 0.0, t1 - t0)


@pytest.fixture(scope="module")
def gaussian_profile(packet_scn):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return build_profile(dataclasses.replace(packet_scn, eps=0.5), t_max=45.0, dt=5e-3)


def test_inversion_matches_full_search_bitwise(beam_profile_r1, beam_profile, delta_profile,
                                               gaussian_profile):
    rng = np.random.default_rng(9)
    for prof in (beam_profile_r1, beam_profile, delta_profile, gaussian_profile):
        top = prof.Omega[-1]
        nodes = prof.Omega
        u = np.concatenate([rng.uniform(0.0, top, 50_000), nodes, np.nextafter(nodes, -np.inf),
                            np.nextafter(nodes, np.inf), [0.0, -0.0, top]])
        u = u[(u >= 0.0) & (u <= top)]
        assert np.array_equal(_bits(prof.invert_Omega(u)), _bits(_reference_invert(prof, u)))
        for x in (0.0, float(nodes[len(nodes) // 2]), top):
            assert prof.invert_Omega(x) == _reference_invert(prof, np.array([x]))[0]


def test_fast_path_serves_sampled_block(beam_profile_r1, monkeypatch):
    """At most 1 % of a sampled block's points reach np.searchsorted, in the
    sampler's inversion and in locate (a count, not a timing)."""
    fallback = []
    searchsorted = np.searchsorted

    def counting(a, v, *args, **kwargs):
        fallback.append(np.size(v))
        return searchsorted(a, v, *args, **kwargs)

    prof = dataclasses.replace(beam_profile_r1)  # fresh caches
    monkeypatch.setattr(intensity.np, "searchsorted", counting)
    times, _ = sample_times_matrix(5, StateFamily.coherent(1.0), prof, 64_000, 21)
    points = np.count_nonzero(~np.isnan(times))
    assert points == times.size
    assert sum(fallback) <= 0.01 * points
    fallback.clear()
    prof.locate(times)
    assert sum(fallback) <= 0.01 * points


def test_uniform_grid_buckets_hold_one_node(delta_profile, monkeypatch):
    """On a uniform grid every bucket is narrower than a cell, so locate
    sends only the undetected (NaN) times of short records to the fallback."""
    fallback = []
    searchsorted = np.searchsorted

    def counting(a, v, *args, **kwargs):
        fallback.append(np.size(v))
        return searchsorted(a, v, *args, **kwargs)

    times, _ = sample_times_matrix(5, StateFamily.coherent(100.0), delta_profile, 64_000, 21)
    undetected = np.count_nonzero(np.isnan(times))
    assert 0 < undetected < 0.01 * times.size
    monkeypatch.setattr(intensity.np, "searchsorted", counting)
    dataclasses.replace(delta_profile).locate(times)  # fresh caches
    assert sum(fallback) - undetected <= 0.01 * (times.size - undetected)
