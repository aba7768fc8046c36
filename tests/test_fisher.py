import dataclasses
import math
import warnings

import numpy as np
import pytest

from scipy.special import gammaln

from qarrival import fisher, intensity
from qarrival import process as pr
from qarrival.deltakernel import DeltaParams
from qarrival.errors import ModeError, ToleranceError
from qarrival.fisher import (FisherReport, density_sweep, fisher_conditional,
                             fisher_info, fisher_info_many, i_infinity,
                             mc_score_variance, mle_variance_study,
                             sparse_limit_I, stationary_constant)
from qarrival.intensity import build_profile
from qarrival.quadrature import geometric_edges, integrate_panels, uniform_edges
from qarrival.scenario import Scenario, StateFamily, log_family_Fn

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
        times, n_det = pr.sample_times_matrix(2, COH, beam_profile_r1, 20_000, seed=8)
        exact = fisher._score_batch(times, n_det, COH, beam_profile_r1)
        errs = [np.max(np.abs(exact - _fd_score(times, n_det, COH, beam_profile_r1, h)))
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
        exact = fisher._score_batch(times, n_det, family, delta_profile)
        full = n_det == n
        assert 0 < full.sum() < full.size
        assert np.any(times[full] > delta_profile.t[-1])  # past the grid, omega = 0
        fds = [_fd_score(times, n_det, family, delta_profile, h) for h in (1e-3, 5e-4)]
        errs = [np.max(np.abs(exact[full] - fd[full])) for fd in fds]
        assert errs[0] <= 2e-5
        assert 3.5 <= errs[0] / errs[1] <= 4.5
        # short records: d log(1 - p_tot)/dp0 with the profile's fixed-slope
        # dOmega_inf, which the refitted tails of rebuilt profiles do not share
        closed = (-pr.total_prob_dp(n, family, delta_profile)
                  / pr.noevent_mass(n, family, delta_profile))
        assert np.all(exact[~full] == closed)

    def test_minimum_samples_enforced(self, beam_profile_r1):
        with pytest.raises(ValueError):
            mc_score_variance(1, COH, beam_profile_r1, samples=100, seed=0)


def _fd_score(times, n_det, family, profile, h):
    """Central difference of the batched log-likelihood over profiles rebuilt
    at p0 +- h on the input grid: the finite-difference score."""
    scn = profile.scn
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # slow-tail warnings of finite profiles
        plus, minus = (build_profile(scn.at_p0(scn.p0 + sign * h),
                                     t_max=profile.t_max, dt=profile.dt)
                       for sign in (1.0, -1.0))
    return (pr.log_likelihood_batch(times, n_det, family, plus)
            - pr.log_likelihood_batch(times, n_det, family, minus)) / (2.0 * h)


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
    mle_variance_study(2, COH, beam_profile_r1, datasets=4, records_per_dataset=8,
                       seed=1, grid_points=5)
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
    hn = fisher._hn_vec(family, n, u)
    return ((n - 1.0 - u * hn) * ratio + phi_inf) ** 2 \
        + (n - 1.0) * np.maximum(ratio_t - ratio * ratio, 0.0)


def _oracle_fisher_info(n, family, profile, rtol=1e-3, atol=1e-9):
    """The quadrature for one n as it was written before the batched pass."""
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
    hn = fisher._hn_vec(family, n, u)
    s_vals = ((n - 1.0 - u * hn) * ratio + phi) ** 2 \
        + (n - 1.0) * np.maximum(ratio_t - ratio * ratio, 0.0)
    with np.errstate(over="ignore"):
        integrand = np.exp(_oracle_log_weight(family, n, u)) * om * s_vals
    bulk = float(np.trapezoid(integrand, t))
    bulk_coarse = float(np.trapezoid(integrand[::2], t[::2]))

    tail_val = 0.0
    if profile.mode == "beam":
        bt = profile.beam_tail
        tail_state = (u[-1], bt.omega_inf, bt.domega_dp0_inf,
                      profile.dOmega[-1], profile.dOmega_tilde[-1])

        def tail_integrand(uu):
            with np.errstate(over="ignore"):
                w = np.exp(_oracle_log_weight(family, n, uu))
            return w * _oracle_tail_S(n, family, uu, tail_state)

        u_end = u[-1]
        u_head = max(u_end * (1.0 + 1e-12), n + 60.0 + 14.0 * math.sqrt(n), u_end + 60.0)
        if family.kind == "fock":
            u_head = min(u_head, family.param)
            if u_head > u_end:
                tail_val = float(integrate_panels(tail_integrand,
                                                  uniform_edges(u_end, u_head, 256), 24))
        elif family.kind == "coherent":
            tail_val = float(integrate_panels(tail_integrand,
                                              uniform_edges(u_end, u_head, 256), 24))
        else:
            u_big = max(1e9, 1e4 * u_head)
            edges = np.concatenate([uniform_edges(u_end, u_head, 192),
                                    geometric_edges(u_head, u_big, 16)[1:]])
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
    mass = pr.noevent_mass(n, family, profile) if profile.mode != "beam" else 0.0
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


def _assert_batch_matches_oracle(ns, family, profile):
    """Every report field equals the per-n oracle's bit for bit; where the
    oracle's thinning check fails, the batch raises the same error for the
    first failing n in list order."""
    expected = []
    for n in ns:
        try:
            expected.append(_oracle_fisher_info(n, family, profile))
        except ToleranceError as exc:
            with pytest.raises(ToleranceError) as got:
                fisher_info_many(ns, family, profile)
            assert str(got.value) == str(exc)
            assert got.value.estimate == exc.estimate
            assert got.value.achieved == exc.achieved
            return
    got = fisher_info_many(ns, family, profile)
    assert [_report_bits(r) for r in got] == [_report_bits(r) for r in expected]
    for n in dict.fromkeys(ns):
        assert _report_bits(fisher_info(n, family, profile)) == \
            _report_bits(_oracle_fisher_info(n, family, profile))


UNSORTED_NS = (3, 1, 8, 2, 2, 6, 4, 5, 7, 5)


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

    def test_fock_around_particle_number(self, beam_profiles):
        # n = N - 1, N and N + 1, on a profile whose thinning check passes
        for big_n in (3, 4):
            fam = StateFamily.fock(big_n)
            ns = (big_n + 1, big_n - 1, big_n, 1)
            _assert_batch_matches_oracle(ns, fam, beam_profiles[1e-4])
            assert fisher_info_many(ns, fam, beam_profiles[1e-4])[0].value == 0.0

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
        assert (got.value.estimate, got.value.achieved) == \
            (alone.value.estimate, alone.value.achieved)

    def test_bad_count_rejected_before_any_work(self, beam_profile, monkeypatch):
        def fail(*args):
            raise AssertionError("worked before validating n")

        monkeypatch.setattr(fisher, "_weight_logs", fail)
        for ns in ((2, 0), (-1,), (3, 1, 0, 2)):
            with pytest.raises(ValueError):
                fisher_info_many(ns, COH, beam_profile)
        with pytest.raises(ValueError):
            fisher_info(0, COH, beam_profile)

    def test_density_sweep_columns_match_per_n(self):
        ns, r0s = [3, 1, 2, 8], [0.0, 1e-4, 0.05, 1.0, 56.42]
        for fam in (COH, QF):
            table = density_sweep(ns, r0s, fam, 1.0, DP)
            for j, r0 in enumerate(r0s[1:], start=1):
                prof = build_profile(Scenario(m=1.0, a=0.1, eps=0.0, p0=1.0,
                                              navg=math.inf, r0=r0))
                col = [_oracle_fisher_info(n, fam, prof).value for n in ns]
                assert table.info[:, j].tolist() == col
