import contextlib
import dataclasses
import math
import warnings

import numpy as np
import pytest

from scipy.special import gammaln

from qarrival import fisher, intensity
from qarrival import process as pr
from qarrival.deltakernel import DeltaParams
from qarrival.errors import ConfigError, ModeError, ToleranceError
from qarrival.fisher import (FisherReport, density_sweep, fisher_info,
                             fisher_info_many, i_infinity, mc_score_variance,
                             mle_variance_study, sparse_limit_I,
                             stationary_constant)
from qarrival.intensity import build_profile
from qarrival.quadrature import integrate_panels
from qarrival.scenario import Scenario, StateFamily, hn_values, log_family_Fn

DP = DeltaParams(0.1, 1.0)
BEAM = Scenario(m=1.0, a=0.1, eps=0.0, p0=1.0, navg=math.inf)
COH = StateFamily.coherent(1.0)
QF = StateFamily.quasifree(1.0)


class TestStationaryConstants:
    @pytest.mark.parametrize("n", range(1, 11))
    def test_coherent_linear(self, n):
        assert stationary_constant(n, COH) == pytest.approx(n, abs=1e-8)

    @pytest.mark.parametrize("n", range(1, 11))
    def test_quasifree_saturating(self, n):
        assert stationary_constant(n, QF) == pytest.approx(n / (n + 2), abs=1e-8)

    def test_quasifree_single(self):
        assert stationary_constant(1, QF) == pytest.approx(1.0 / 3.0, abs=1e-10)

    def test_fock_quadrature_runs(self, monkeypatch):
        # the time-stationary limit of a fixed-number source is the coherent
        # family, so the Fock quadrature is gone: n = 2 of Fock(12), which
        # used to run it, raises before any quadrature runs
        def fail(*args, **kwargs):
            raise AssertionError("ran the quadrature for a Fock family")

        monkeypatch.setattr(fisher, "integrate_panels", fail)
        with pytest.raises(ModeError, match="coherent and quasi-free"):
            stationary_constant(2, StateFamily.fock(12))

    def test_fock_divergent_order_raises(self):
        # n = N - 1 used to diverge at u = N and raise ToleranceError
        with pytest.raises(ModeError, match="coherent and quasi-free"):
            stationary_constant(11, StateFamily.fock(12))

    def test_fock_unsupported(self):
        # n = N and n = N + 1 (which used to read 0) are rejected too
        for n in (12, 13):
            with pytest.raises(ModeError):
                stationary_constant(n, StateFamily.fock(12))

    def test_quadrature_off_the_closed_form_raises(self, monkeypatch):
        monkeypatch.setattr(fisher, "integrate_panels", lambda f, edges, order: np.float64(2.5))
        with pytest.raises(ToleranceError, match="disagrees with the closed form") as info:
            stationary_constant(2, COH)
        assert info.value.estimate == 2.5


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
        row = density_sweep([2], [0.0, 0.05, 0.5, 5.0, 50.0, 500.0], COH, BEAM)[0]
        k = int(np.argmax(row))
        assert 0 < k < len(row) - 1  # peak strictly inside the density range

    def test_sweep_sparse_endpoint(self):
        info = density_sweep([1, 3], [0.0], QF, BEAM)
        assert info[0, 0] == pytest.approx(sparse_limit_I(1, QF, 1.0, DP))
        assert info[1, 0] == pytest.approx(sparse_limit_I(3, QF, 1.0, DP))

    def test_sweep_needs_a_beam(self, packet_scn):
        with pytest.raises(ModeError, match="beam mode"):
            density_sweep([1], [1.0], COH, packet_scn)

    def test_coherent_row_increasing_near_sparse(self):
        col = density_sweep([1, 2, 3], [1e-3], COH, BEAM)[:, 0]
        assert col[0] < col[1] < col[2]

    def test_intensity_touching_zero_warns(self, make_flat_profile):
        # one interior node at omega = 0, late enough that its weight is negligible
        prof = make_flat_profile()(1.0)
        omega = prof.omega.copy()
        omega[-2] = 0.0
        with pytest.warns(UserWarning, match="intensity touches 0 in the interior"):
            rep = fisher_info(2, COH, dataclasses.replace(prof, omega=omega))
        assert rep.value == fisher_info(2, COH, prof).value


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

    @pytest.mark.parametrize("ns", [(4,), (1, 6), (6, 7, 11)])
    def test_fock_below_profile_mass_rejected(self, delta_profile, ns):
        # Omega(inf) = 11.78 > 5: at n = 4 this was a "grid too coarse"
        # ToleranceError, at n = 6..11 a silent I_n = 0 with p_tot = 1
        with pytest.raises(ConfigError, match="particle number"):
            fisher_info_many(ns, StateFamily.fock(5), delta_profile)
        with pytest.raises(ConfigError, match="particle number"):
            mc_score_variance(ns[0], StateFamily.fock(5), delta_profile, samples=10_000, seed=0)

    def test_derivative_free_profile_rejected(self, narrow_scn):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            prof = build_profile(narrow_scn, t_max=40.0, dt=5e-3, derivative=False)
        assert prof.domega is None and prof.dOmega is None and prof.dOmega_tilde is None
        with pytest.raises(ModeError):
            fisher_info(1, StateFamily.coherent(1000.0), prof)
        with pytest.raises(ModeError):
            mc_score_variance(1, StateFamily.coherent(1000.0), prof, samples=10_000, seed=0)


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
        prof = make_flat_profile(omega0=0.2, slope=0.03)(1.0)
        mc = mc_score_variance(4, COH, prof, samples=30_000, seed=12)
        expect = 4.0 * (0.03 / 0.2) ** 2
        assert abs(mc.variance - expect) <= 3.0 * mc.std_error
        # and the quadrature reproduces the same stationary value
        assert fisher_info(4, COH, prof).value == pytest.approx(expect, rel=1e-6)

    def test_exact_score_matches_finite_differences(self, beam_profile_r1):
        # the central difference of the log-likelihood over rebuilt profiles
        # approaches the exact score as h^2 on the same records
        times, _ = pr.sample_times_matrix(2, COH, beam_profile_r1, 20_000, seed=8)
        exact = fisher._score_batch(times, COH, beam_profile_r1)
        errs = [np.max(np.abs(exact - _fd_score(times, COH, beam_profile_r1, h)))
                for h in (2e-3, 1e-3, 5e-4, 2.5e-4)]
        assert errs[1] <= 1e-3
        for coarse, fine in zip(errs, errs[1:]):
            assert 3.5 <= coarse / fine <= 4.5

    @pytest.mark.parametrize("family", [StateFamily.coherent(100.0),
                                        StateFamily.quasifree(100.0),
                                        StateFamily.fock(100)], ids=lambda f: f.kind)
    def test_exact_score_on_finite_profile(self, delta_profile, family):
        n = 12
        times, n_det = pr.sample_times_matrix(n, family, delta_profile, 20_000, seed=5)
        exact = fisher._score_batch(times, family, delta_profile)
        full = n_det == n
        assert 0 < full.sum() < full.size
        assert np.any(times[full] > delta_profile.t[-1])  # past the grid, omega = 0
        fds = [_fd_score(times, family, delta_profile, h) for h in (1e-3, 5e-4)]
        errs = [np.max(np.abs(exact[full] - fd[full])) for fd in fds]
        assert errs[0] <= 2e-5
        assert 3.5 <= errs[0] / errs[1] <= 4.5
        # short records: d log(1 - p_tot)/dp0 with the profile's fixed-slope
        # dOmega_inf, which the refitted tails of rebuilt profiles do not share
        closed = (-pr.total_prob_dp(n, family, delta_profile)
                  / pr.noevent_mass(n, family, delta_profile))
        assert np.all(exact[~full] == closed)

    def test_non_finite_scores_redrawn_from_stream_one(self, beam_profile_r1, monkeypatch):
        # scores that are not finite are replaced, in order, by the scores of
        # as many records drawn from substream 1, with a warning
        exact = fisher._score_batch
        first = []

        def spoiled(times, family, profile):
            score = exact(times, family, profile)
            if not first:
                first.append(len(score))
                score[[0, 7, 9]] = [np.nan, np.inf, -np.inf]
            return score

        monkeypatch.setattr(fisher, "_score_batch", spoiled)
        with pytest.warns(UserWarning, match="3 records had degenerate likelihoods"):
            mc = mc_score_variance(2, COH, beam_profile_r1, samples=10_000, seed=5)
        assert first == [10_000] and mc.resampled == 3
        score = exact(pr.sample_times_matrix(2, COH, beam_profile_r1, 10_000, 5)[0],
                      COH, beam_profile_r1)
        score[[0, 7, 9]] = exact(pr.sample_times_matrix(2, COH, beam_profile_r1, 3, 5,
                                                        stream_index=1)[0], COH, beam_profile_r1)
        assert (mc.variance, mc.mean) == (float(np.var(score, ddof=1)), float(np.mean(score)))

    def test_minimum_samples_enforced(self, beam_profile_r1):
        with pytest.raises(ValueError):
            mc_score_variance(1, COH, beam_profile_r1, samples=100, seed=0)


def _fd_score(times, family, profile, h):
    """Central difference of the batched log-likelihood over profiles rebuilt
    at p0 +- h on the input grid: the finite-difference score."""
    scn = profile.scn
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # slow-tail warnings of finite profiles
        plus, minus = (build_profile(dataclasses.replace(scn, p0=scn.p0 + sign * h),
                                     t_max=profile.t_max, dt=profile.dt)
                       for sign in (1.0, -1.0))
    return (pr.log_likelihood_batch(times, family, plus)
            - pr.log_likelihood_batch(times, family, minus)) / (2.0 * h)


def test_study_profiles_share_one_grid(beam_profile_r1, monkeypatch):
    # the Monte Carlo score builds no profile; the estimator study builds its
    # momentum grid on the input profile's own grid, so one cell locator
    # taken on the input serves every grid profile
    built = []

    def spy(*args, **kwargs):
        built.append(build_profile(*args, **kwargs))
        return built[-1]

    monkeypatch.setattr(intensity, "build_profile", spy)
    mc_score_variance(1, COH, beam_profile_r1, samples=10_000, seed=1)
    assert len(built) == 0
    study = mle_variance_study(2, COH, beam_profile_r1, datasets=4, records_per_dataset=8,
                               seed=1, grid_points=5)
    assert study.efficiency == study.crb / study.variance
    assert len(built) == 5
    for prof in built:
        assert np.array_equal(prof.t, beam_profile_r1.t)


# ---------------------------------------------------------------------------
# One pass for many detection counts, against the per-n quadrature
# ---------------------------------------------------------------------------

def _oracle_log_weight(family, n, u):
    u = np.asarray(u, dtype=float)
    logf = np.atleast_1d(log_family_Fn(family, n, u))
    if n == 1:
        pw = np.zeros_like(np.atleast_1d(u), dtype=float)
    else:
        with np.errstate(divide="ignore"):
            pw = (n - 1) * np.log(np.atleast_1d(u))
    return logf + pw - gammaln(n)


def _oracle_tail_S(n, family, u, tail_state):
    u_end, w_inf, wd_inf, dom_end, domt_end = tail_state
    dt_model = (u - u_end) / w_inf
    dom = dom_end + wd_inf * dt_model
    domt = domt_end + (wd_inf * wd_inf / w_inf) * dt_model
    phi_inf = wd_inf / w_inf
    ratio = dom / u
    ratio_t = domt / u
    hn = hn_values(family, n, u)
    return ((n - 1.0 - u * hn) * ratio + phi_inf) ** 2 \
        + (n - 1.0) * np.maximum(ratio_t - ratio * ratio, 0.0)


def _geometric_edges(a, b, per_decade):
    """Logarithmically spaced panel edges on [a, b], a > 0."""
    n = max(1, int(np.ceil(np.log10(b / a) * per_decade)))
    return a * (b / a) ** np.linspace(0.0, 1.0, n + 1)


def _oracle_bulk(n, family, profile):
    """The tabulated integral of the oracle, on the full and the thinned grid."""
    t = profile.t
    u = profile.Omega
    om = profile.omega
    dom = profile.domega
    interior = om > 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        phi = np.where(interior, dom / np.where(interior, om, 1.0), 0.0)
        upos = u > 0.0
        ratio = np.where(upos, profile.dOmega / np.where(upos, u, 1.0), 0.0)
        ratio_t = np.where(upos, profile.dOmega_tilde / np.where(upos, u, 1.0), 0.0)
    hn = hn_values(family, n, u)
    s_vals = ((n - 1.0 - u * hn) * ratio + phi) ** 2 \
        + (n - 1.0) * np.maximum(ratio_t - ratio * ratio, 0.0)
    with np.errstate(over="ignore"):
        integrand = np.exp(_oracle_log_weight(family, n, u)) * om * s_vals
    return float(np.trapezoid(integrand, t)), float(np.trapezoid(integrand[::2], t[::2]))


def _oracle_fisher_info(n, family, profile, rtol=1e-3, atol=1e-9):
    """The quadrature for one n as it was written before the batched pass."""
    pr.checked_omega_inf(family, profile)
    u = profile.Omega
    bulk, bulk_coarse = _oracle_bulk(n, family, profile)

    tail_val = 0.0
    bt = profile.beam_tail
    if bt is not None:
        tail_state = (u[-1], bt.omega_inf, bt.domega_dp0_inf,
                      profile.dOmega[-1], profile.dOmega_tilde[-1])

        def tail_integrand(uu):
            with np.errstate(over="ignore"):
                w = np.exp(_oracle_log_weight(family, n, uu))
            return w * _oracle_tail_S(n, family, uu, tail_state)

        u_end = u[-1]
        u_head = max(u_end * (1.0 + 1e-12), n + 60.0 + 14.0 * math.sqrt(n), u_end + 60.0)
        if family.kind == "coherent":
            tail_val = float(integrate_panels(tail_integrand,
                                              np.linspace(u_end, u_head, 257), 24))
        else:
            u_big = max(1e9, 1e4 * u_head)
            edges = np.concatenate([np.linspace(u_end, u_head, 193),
                                    _geometric_edges(u_head, u_big, 16)[1:]])
            phi_inf = bt.domega_dp0_inf / bt.omega_inf
            tail_val = float(integrate_panels(tail_integrand, edges, 24)) \
                + n * phi_inf ** 2 / u_big

    detection = bulk + tail_val
    if abs(bulk - bulk_coarse) > rtol * abs(detection) + atol:
        raise ToleranceError(
            f"profile grid too coarse for the information integral at n={n} "
            f"(thinning moved it by {abs(bulk - bulk_coarse):.3e})",
            estimate=detection, achieved=abs(bulk - bulk_coarse))

    p_tot = pr.total_prob(n, family, profile)
    mass = pr.noevent_mass(n, family, profile) if bt is None else 0.0
    if mass > 0.0:
        dp_tot = pr.total_prob_dp(n, family, profile)
        noevent = dp_tot * dp_tot / mass
    else:
        noevent = 0.0
    value = detection + noevent
    if mass > 0.0 and p_tot > 0.0:
        dp_tot = pr.total_prob_dp(n, family, profile)
        conditional = (value - dp_tot * dp_tot / (p_tot * mass)) / p_tot
    else:
        conditional = value if p_tot > 0.0 else math.nan
    return FisherReport(n=n, value=value, detection_part=detection,
                        noevent_part=noevent, p_tot=p_tot, conditional=conditional)


def _report_bits(rep):
    return (rep.n, np.array([rep.value, rep.detection_part, rep.noevent_part,
                             rep.p_tot, rep.conditional]).view(np.uint64).tolist())


def _closed_tail(profile):
    """Whether ``profile`` is a beam, whose tail has closed form: its reports
    then differ from the oracle's panel tail by the panels' own error, up to
    6e-12 of I_n."""
    return profile.beam_tail is not None


def _assert_reports_close(got, expected, profile):
    if not _closed_tail(profile):
        assert _report_bits(got) == _report_bits(expected)
        return
    assert got.n == expected.n and got.p_tot == expected.p_tot
    for field in ("value", "detection_part", "noevent_part", "conditional"):
        assert abs(getattr(got, field) - getattr(expected, field)) <= 1e-11 * expected.value


def _assert_batch_matches_oracle(ns, family, profile):
    """Every report equals the one :func:`fisher_info` gives for its n alone,
    bit for bit, and the per-n oracle's: bit for bit, or within 1e-11 of I_n
    where the tail has closed form.  Where the oracle raises (the thinning
    check for the first failing n in list order, the particle-number check
    of a Fock family), the batch raises the same error."""
    expected = []
    for n in ns:
        try:
            expected.append(_oracle_fisher_info(n, family, profile))
        except ConfigError as exc:
            with pytest.raises(ConfigError) as got:
                fisher_info_many(ns, family, profile)
            assert str(got.value) == str(exc)
            return
        except ToleranceError as exc:
            with pytest.raises(ToleranceError) as got:
                fisher_info_many(ns, family, profile)
            assert str(got.value) == str(exc)
            assert got.value.achieved == exc.achieved
            if _closed_tail(profile) and exc.estimate is not None:
                assert got.value.estimate == pytest.approx(exc.estimate, rel=1e-11)
            else:
                assert got.value.estimate == exc.estimate
            return
    got = fisher_info_many(ns, family, profile)
    assert [_report_bits(r) for r in got] == \
        [_report_bits(fisher_info(n, family, profile)) for n in ns]
    for rep, exp in zip(got, expected):
        _assert_reports_close(rep, exp, profile)


UNSORTED_NS = (3, 1, 8, 2, 2, 6, 4, 5, 7, 5)


def _fail_on_work(monkeypatch):
    """Make weighting a profile or building one fail, so a test shows that
    its input is rejected before any work."""
    def fail(*args, **kwargs):
        raise AssertionError("worked before checking the family")

    monkeypatch.setattr(fisher, "arrival_mass_logs", fail)
    monkeypatch.setattr(intensity, "build_profile", fail)


@pytest.fixture(scope="module")
def beam_profiles():
    return {r0: build_profile(Scenario(m=1.0, a=0.1, eps=0.0, p0=1.0, navg=math.inf,
                                       r0=r0))
            for r0 in (1e-4, 0.01, 1.0, 56.42, 1000.0)}


class TestBatchedInformation:
    @pytest.mark.parametrize("r0", [1e-4, 0.01, 1.0, 56.42, 1000.0])
    @pytest.mark.parametrize("family", [COH, QF, StateFamily.fock(5), StateFamily.fock(60)],
                             ids=lambda f: f"{f.kind}{f.param:g}")
    def test_beam_matches_per_n_bitwise(self, beam_profiles, r0, family):
        _assert_batch_matches_oracle(UNSORTED_NS, family, beam_profiles[r0])

    def test_fock_around_particle_number(self, beam_profiles, beam_profile_r1, monkeypatch):
        # a beam's infinite mass exceeds any particle number N, so every count
        # is rejected before any work: n > N used to read I_n = 0 with
        # p_tot = 1.  The counts around N keep their values on finite
        # profiles, whose mass ends below N (test_finite_profiles_match_per_n_bitwise).
        _fail_on_work(monkeypatch)
        for big_n in (1, 3):
            fam = StateFamily.fock(big_n)
            near = tuple(n for n in (big_n - 1, big_n, big_n + 1) if n >= 1)
            for prof in (beam_profiles[1e-4], beam_profiles[1000.0]):
                for n in near:
                    with pytest.raises(ConfigError, match="coherent family"):
                        fisher_info(n, fam, prof)
                with pytest.raises(ConfigError, match="particle number"):
                    fisher_info_many((1,) + near, fam, prof)
            with pytest.raises(ConfigError, match="particle number"):
                mc_score_variance(1, fam, beam_profile_r1, samples=10_000, seed=0)
            with pytest.raises(ConfigError, match="particle number"):
                mle_variance_study(1, fam, beam_profile_r1, datasets=4,
                                   records_per_dataset=8, seed=0, grid_points=5)

    @pytest.mark.parametrize("big_n", [12, 60])
    @pytest.mark.parametrize("r0", [1e-4, 1000.0])
    def test_fock_endpoint_count_diverges_on_beam(self, beam_profiles, big_n, r0, monkeypatch):
        # n = N - 1 used to diverge at u = N (I_11 of Fock(12) read 13.57,
        # 15.46 and 17.35 on 256, 1024 and 4096 tail panels); it and its
        # neighbours are now rejected before any work, as is the stationary
        # constant the divergence shared
        _fail_on_work(monkeypatch)
        fam = StateFamily.fock(big_n)
        prof = beam_profiles[r0]
        for n in (big_n - 2, big_n - 1, big_n, big_n + 1):
            with pytest.raises(ConfigError, match="coherent family"):
                fisher_info(n, fam, prof)
        with pytest.raises(ConfigError, match="particle number"):
            fisher_info_many((1, big_n - 1, big_n), fam, prof)
        with pytest.raises(ModeError):
            stationary_constant(big_n - 1, fam)

    @pytest.mark.parametrize("eps", [0.0, 0.5])
    def test_finite_profiles_match_per_n_bitwise(self, packet_scn, eps):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            prof = build_profile(dataclasses.replace(packet_scn, eps=eps),
                                 t_max=45.0, dt=5e-3)
        ns = (12, 1, 5, 11, 13, 3, 3, 40)
        for fam in (StateFamily.coherent(100.0), StateFamily.quasifree(100.0),
                    StateFamily.fock(100), StateFamily.fock(12)):
            _assert_batch_matches_oracle(ns, fam, prof)
        reps = fisher_info_many(ns, StateFamily.coherent(100.0), prof)
        assert all(rep.noevent_part > 0.0 for rep in reps)

    @pytest.mark.parametrize("r0", [1e-4, 0.01, 1.0, 56.42, 1000.0])
    @pytest.mark.parametrize("family", [COH, QF], ids=lambda f: f.kind)
    def test_beam_tabulated_sum_is_the_trapezoid_bitwise(self, beam_profiles, r0, family,
                                                          monkeypatch):
        # beams match the oracle only to 1e-11, through its panel tails; with
        # the closed-form tails at 0 the detection part is the tabulated sum
        # alone, which must be np.trapezoid's to the bit
        monkeypatch.setattr(fisher, "_beam_tails", lambda ns, fam, prof: dict.fromkeys(ns, 0.0))
        prof = beam_profiles[r0]
        for rep in fisher_info_many(range(1, 9), family, prof):
            bulk, _ = _oracle_bulk(rep.n, family, prof)
            assert np.float64(rep.detection_part).view(np.uint64) == \
                np.float64(bulk).view(np.uint64)

    def test_profile_never_written(self, beam_profiles, delta_profile, make_flat_profile):
        # every call reads the profile's arrays, including a beam's writable
        # r0 g tables, and writes only into arrays of its own
        coarse = build_profile(Scenario(m=1.0, a=0.1, eps=0.0, p0=1.0, navg=math.inf,
                                        r0=1.0), t_max=60.0, dt=1.0)
        flat = make_flat_profile()(1.0)
        omega = flat.omega.copy()
        omega[-2] = 0.0
        touching = dataclasses.replace(flat, omega=omega)
        finite_families = (StateFamily.coherent(100.0), StateFamily.quasifree(100.0),
                           StateFamily.fock(100), StateFamily.fock(12))
        cases = [(beam_profiles[56.42], fam, contextlib.nullcontext()) for fam in (COH, QF)] \
            + [(delta_profile, fam, contextlib.nullcontext()) for fam in finite_families] \
            + [(coarse, COH, pytest.raises(ToleranceError, match="too coarse")),
               (touching, COH, pytest.warns(UserWarning, match="touches 0"))]
        names = ("t", "omega", "Omega", "domega", "dOmega", "dOmega_tilde")
        for prof, fam, expect in cases:
            before = [getattr(prof, name).tobytes() for name in names]
            with expect:
                fisher_info_many((3, 1, 2, 5), fam, prof)
            assert [getattr(prof, name).tobytes() for name in names] == before

    def test_order_and_duplicates(self, beam_profile):
        reps = fisher_info_many((4, 2, 4, 1), COH, beam_profile)
        assert [rep.n for rep in reps] == [4, 2, 4, 1]
        assert reps[0] == reps[2]
        assert fisher_info_many((), COH, beam_profile) == ()

    @pytest.mark.parametrize("ns, first", [((1, 5, 3), 5), ((1, 2), 2)])
    def test_thinning_failure_names_first_failing_n(self, ns, first):
        # dt = 1 is too coarse for n >= 2 on this beam; n = 1 passes
        prof = build_profile(Scenario(m=1.0, a=0.1, eps=0.0, p0=1.0, navg=math.inf,
                                      r0=1.0), t_max=60.0, dt=1.0)
        assert fisher_info(1, COH, prof).value > 0.0
        with pytest.raises(ToleranceError, match=f"at n={first} ") as got:
            fisher_info_many(ns, COH, prof)
        with pytest.raises(ToleranceError) as alone:
            _oracle_fisher_info(first, COH, prof)
        # the estimate carries the closed-form tail, the oracle's the panel tail
        assert got.value.achieved == alone.value.achieved
        assert got.value.estimate == pytest.approx(alone.value.estimate, rel=1e-11)

    def test_non_finite_information_raises(self, delta_profile, monkeypatch):
        # navg = 1e300 overflows the integrand, whose I_n read nan; a no-event
        # part that overflows makes I_n infinite
        with warnings.catch_warnings():  # the short grid's tail fit, dOmega~ overflowing
            warnings.simplefilter("ignore")
            prof = build_profile(Scenario(m=1.0, a=0.1, eps=1.0, p0=1.0, x0=-20.0,
                                          dp=math.sqrt(0.5), navg=1e300), t_max=10.0, dt=0.01)
        with pytest.raises(ToleranceError, match="at n=1 .*not finite"):
            fisher_info_many((1, 2), StateFamily.coherent(1e300), prof)
        monkeypatch.setattr(pr, "total_prob_dp", lambda *args: 1e200)
        with pytest.raises(ToleranceError, match="at n=3 .*not finite") as got:
            fisher_info_many((3, 1), StateFamily.coherent(100.0), delta_profile)
        assert got.value.estimate == math.inf

    def test_bad_count_rejected_before_any_work(self, beam_profile, monkeypatch):
        def fail(*args):
            raise AssertionError("worked before validating n")

        monkeypatch.setattr(fisher, "arrival_mass_logs", fail)
        for ns in ((2, 0), (-1,), (3, 1, 0, 2)):
            with pytest.raises(ValueError):
                fisher_info_many(ns, COH, beam_profile)
        with pytest.raises(ValueError):
            fisher_info(0, COH, beam_profile)

    def test_density_sweep_columns_match_per_n(self):
        ns, r0s = [3, 1, 2, 8], [0.0, 1e-4, 0.05, 1.0, 56.42]
        for fam in (COH, QF):
            info = density_sweep(ns, r0s, fam, BEAM)
            for j, r0 in enumerate(r0s[1:], start=1):
                prof = build_profile(Scenario(m=1.0, a=0.1, eps=0.0, p0=1.0,
                                              navg=math.inf, r0=r0))
                for n, got in zip(ns, info[:, j]):
                    want = _oracle_fisher_info(n, fam, prof).value
                    assert abs(got - want) <= 1e-11 * want
                assert info[:, j].tolist() == \
                    [rep.value for rep in fisher_info_many(ns, fam, prof)]


# ---------------------------------------------------------------------------
# Closed-form beam tails against mpmath
# ---------------------------------------------------------------------------

TAIL_NS = tuple(range(1, 9)) + (20, 60)


def _mp_tail(kind, n, u_end, phi, c1, d):
    """The tail integral of F_n u^(n-1)/(n-1)! S_n over [u_end, inf) at 30
    digits, written from the definitions of S_n, ratio and clipped and split
    where clipped switches on.  The coherent weight is cut where it has
    fallen below 1e-40 of its mass; the quasi-free integral is taken in
    ``x = 1/(1+u)``, over a finite range."""
    import mpmath as mp

    with mp.workdps(30):
        u_end, phi, c1, d = (mp.mpf(v) for v in (u_end, phi, c1, d))
        log_fact = mp.loggamma(n)

        def f(u):
            ratio = phi + c1 / u
            clipped = max(d / u - c1 * c1 / u ** 2, 0)
            if kind == "coherent":
                w = mp.exp((n - 1) * mp.log(u) - u - log_fact)
                hn = 1
            else:
                w = n * mp.exp((n - 1) * mp.log(u) - (n + 1) * mp.log1p(u))
                hn = mp.mpf(n + 1) / (1 + u)
            return w * (((n - 1 - u * hn) * ratio + phi) ** 2 + (n - 1) * clipped)

        pts = [u_end]
        if d > 0 and c1 * c1 / d > u_end:
            pts.append(c1 * c1 / d)
        if kind == "coherent":
            far = max(pts[-1], n) + 40 * mp.sqrt(n) + 100
            pts = pts + [q for q in (n, far) if q > pts[-1]]
            return float(mp.quad(f, pts, method="gauss-legendre"))
        xs = [1 / (1 + u) for u in reversed(pts)]
        return float(mp.quad(lambda x: f((1 - x) / x) / (x * x), [0] + xs,
                             method="gauss-legendre"))


def _tail_constants(profile):
    """U, phi, c1 and d of the linear continuation past the beam grid."""
    bt = profile.beam_tail
    u_end = profile.Omega[-1]
    phi = bt.domega_dp0_inf / bt.omega_inf
    c1 = profile.dOmega[-1] - phi * u_end
    c3 = profile.dOmega_tilde[-1] - phi * phi * u_end
    return u_end, phi, c1, c3 - 2.0 * c1 * phi


def _closed_form_tails(kind, ns, u_end, phi, c1, d):
    """The closed-form tails :func:`fisher._beam_tails` takes for ``kind``."""
    tail = fisher._coherent_tail if kind == "coherent" else fisher._quasifree_tail
    return tail(np.asarray(ns, dtype=float), u_end, phi, c1, d)


class TestClosedFormTails:
    @pytest.mark.parametrize("p0", [0.6, 1.0, 1.7])
    @pytest.mark.parametrize("family", [COH, QF], ids=lambda f: f.kind)
    def test_grid_profiles_match_mpmath(self, beam_profiles, p0, family):
        for r0 in (1e-4, 0.01, 1.0, 56.42, 1000.0):
            prof = beam_profiles[r0] if p0 == 1.0 else build_profile(
                Scenario(m=1.0, a=0.1, eps=0.0, p0=p0, navg=math.inf, r0=r0))
            consts = _tail_constants(prof)
            got = _closed_form_tails(family.kind, TAIL_NS, *consts)
            for n, tail, rep in zip(TAIL_NS, got, fisher_info_many(TAIL_NS, family, prof)):
                assert abs(tail - _mp_tail(family.kind, n, *consts)) <= 1e-12 * rep.value

    @pytest.mark.parametrize("consts", [
        (0.5, 0.3, 0.8, 0.2),     # u* = 3.2 > U: clipped switches on inside the tail
        (0.5, 0.3, 0.8, -0.1),    # d < 0: clipped vanishes everywhere
        (3.0, 0.2, -1.5, 0.0),    # d = 0
        (2.0, -0.4, 0.0, 0.05),   # c1 = 0: u* = 0
        (40.0, 0.1, 30.0, 1.0),   # u* = 900 > U, far out in the weight
    ])
    @pytest.mark.parametrize("kind", ["coherent", "quasifree"])
    def test_synthetic_constants_match_mpmath(self, consts, kind):
        ns = (1, 2, 3, 5, 20, 60)
        for n, tail in zip(ns, _closed_form_tails(kind, ns, *consts)):
            ref = _mp_tail(kind, n, *consts)
            assert abs(tail - ref) <= 1e-12 * ref

    @pytest.mark.parametrize("u_end", [0.5, 3.0])  # x = 1/(1+U) on both sides of 1/2
    def test_counts_in_any_order(self, u_end):
        # one vectorised pass gives each count the bits it gets alone
        ns = (60, 2, 1, 7, 2, 3)
        for kind in ("coherent", "quasifree"):
            got = _closed_form_tails(kind, ns, u_end, 0.3, 0.8, 0.2)
            alone = [_closed_form_tails(kind, (n,), u_end, 0.3, 0.8, 0.2)[0]
                     for n in ns]
            assert got.tolist() == alone
