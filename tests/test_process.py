import dataclasses
import math
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.stats import binom, chisquare, geom, kstest, poisson

from qarrival import fisher, process
from qarrival.errors import ConfigError, ModeError
from qarrival.process import (SampleBatch, first_arrival_series_coeffs, joint_density,
                              log_joint_density, log_likelihood_batch,
                              noevent_mass, sample_batch, sample_times_matrix,
                              spatial_char, total_prob,
                              total_prob_dp, total_prob_integral)
from qarrival.intensity import build_profile
from qarrival.scenario import Scenario, StateFamily, family_Fn


class TestJointDensity:
    def test_single_arrival_at_origin_rate(self, beam_profile):
        coh = StateFamily.coherent(1.0)
        t = 1e-6
        # p1(0+) -> a r0 for the uniform beam
        assert joint_density([t], coh, beam_profile) == pytest.approx(5.642, rel=1e-4)

    def test_fock_exhausted(self, delta_profile):
        # Omega(inf) = 11.78 fits 12 particles, whose 13th arrival has weight 0
        fk = StateFamily.fock(12)
        times = np.linspace(16.0, 40.0, 13)
        assert log_joint_density(times[:12], fk, delta_profile) > -math.inf
        assert joint_density(times, fk, delta_profile) == 0.0

    def test_exponential_factorisation(self, beam_profile):
        # coherent two-arrival density = p1(t1) * omega(t2) e^{-(U2-U1)}
        coh = StateFamily.coherent(1.0)
        t1, t2 = 3.0, 7.0
        lhs = joint_density([t1, t2], coh, beam_profile)
        u1 = beam_profile.Omega_at(t1)
        u2 = beam_profile.Omega_at(t2)
        rhs = joint_density([t1], coh, beam_profile) \
            * beam_profile.omega_at(t2) * math.exp(-(u2 - u1))
        assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_unordered_rejected(self, beam_profile):
        with pytest.raises(ValueError):
            joint_density([2.0, 1.0], StateFamily.coherent(1.0), beam_profile)

    def test_empty_rejected(self, beam_profile):
        with pytest.raises(ValueError):
            joint_density([], StateFamily.coherent(1.0), beam_profile)

    @pytest.mark.parametrize("times", [[1.0, math.nan], [math.nan, 2.0], [math.nan]])
    def test_nan_time_rejected(self, beam_profile, times):
        with pytest.raises(ValueError):
            log_joint_density(times, StateFamily.coherent(1.0), beam_profile)

    def test_density_beyond_float_range_is_inf(self, beam_scn):
        # 200 arrivals in the first 0.2 of a dense beam: log p exceeds log(DBL_MAX)
        prof = build_profile(dataclasses.replace(beam_scn, r0=1000.0))
        coh = StateFamily.coherent(1.0)
        times = np.linspace(1e-4, 0.2, 200)
        log_p = log_joint_density(times, coh, prof)
        assert math.log(np.finfo(float).max) < log_p < math.inf
        assert joint_density(times, coh, prof) == math.inf


class TestTotalProbability:
    def test_beam_certain_detection(self, beam_profile, families):
        for kind, fam in families.items():
            for n in (1, 3, 7):
                if kind == "fock":  # no fixed-number beam (TestFockParticleNumber)
                    with pytest.raises(ConfigError):
                        total_prob(n, fam, beam_profile)
                else:
                    assert total_prob(n, fam, beam_profile) == 1.0

    def test_single_detection_closed_form(self, families):
        u = 2.9
        for fam in families.values():
            assert total_prob(1, fam, u) == pytest.approx(1.0 - family_Fn(fam, 0, u))

    def test_matches_survival_functions(self):
        # the closed forms are the Poisson / geometric / binomial tails
        u = 3.7
        assert total_prob(4, StateFamily.coherent(9.0), u) == pytest.approx(
            poisson.sf(3, u), abs=1e-14)
        assert total_prob(4, StateFamily.quasifree(9.0), u) == pytest.approx(
            (u / (1 + u)) ** 4, abs=1e-14)
        assert total_prob(4, StateFamily.fock(9), u) == pytest.approx(
            binom.sf(3, 9, u / 9.0), abs=1e-13)

    def test_two_path_consistency(self, families):
        for fam in families.values():
            for u in (0.8, 3.7):
                for n in range(1, 9):
                    a = total_prob(n, fam, u)
                    b = total_prob_integral(n, fam, u)
                    assert a == pytest.approx(b, abs=1e-6)

    def test_decreasing_to_zero(self):
        coh = StateFamily.coherent(5.0)
        vals = [total_prob(n, coh, 4.0) for n in range(1, 26)]
        assert all(a >= b for a, b in zip(vals, vals[1:]))
        assert vals[-1] < 1e-3

    def test_recurrence(self, families):
        u = 3.7
        for fam in families.values():
            for n in range(2, 9):
                lhs = total_prob(n, fam, u)
                rhs = total_prob(n - 1, fam, u) \
                    - family_Fn(fam, n - 1, u) * u ** (n - 1) / math.gamma(n)
                assert abs(lhs - rhs) < 1e-10

    def test_normalisation(self, families):
        for fam in families.values():
            for n in range(1, 9):
                s = total_prob_integral(n, fam, 3.7) + noevent_mass(n, fam, 3.7)
                assert abs(s - 1.0) < 1e-8

    def test_count_below_one_rejected_on_every_mass(self, beam_profile, delta_profile):
        # a beam used to return 1.0 for n = 0 where a finite mass raised
        coh = StateFamily.coherent(100.0)
        for where in (beam_profile, math.inf, delta_profile, 3.7, 0.0):
            for n in (0, -2):
                with pytest.raises(ValueError, match="n must be >= 1"):
                    total_prob(n, coh, where)

    def test_no_mass_means_no_detection(self, families):
        for fam in families.values():
            for n in (1, 4):
                assert noevent_mass(n, fam, 0.0) == 1.0
                assert total_prob(n, fam, 0.0) == 0.0


class TestTotalProbDerivative:
    def test_beam_is_zero(self, beam_profile):
        assert total_prob_dp(3, StateFamily.coherent(1.0), beam_profile) == 0.0

    def test_zero_mass_is_zero(self, delta_profile):
        # no mass accumulates, so no momentum moves the total; U^(n-1) has no log at 0
        prof = dataclasses.replace(delta_profile, Omega_inf=0.0, dOmega_inf=1.0)
        for n in (1, 3):
            assert total_prob_dp(n, StateFamily.coherent(100.0), prof) == 0.0

    def test_reduces_at_one_detection(self, delta_profile):
        coh = StateFamily.coherent(100.0)
        expect = delta_profile.dOmega_inf * family_Fn(coh, 1, delta_profile.Omega_inf)
        assert total_prob_dp(1, coh, delta_profile) == pytest.approx(expect, rel=1e-12)

    def test_matches_fd_over_momentum(self, narrow_scn):
        import warnings
        coh = StateFamily.coherent(narrow_scn.navg)
        h = 2e-4
        vals = {}
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            for tag, p0 in (("-", narrow_scn.p0 - h), ("0", narrow_scn.p0), ("+", narrow_scn.p0 + h)):
                prof = build_profile(dataclasses.replace(narrow_scn, p0=p0), t_max=60.0, dt=5e-3)
                vals[tag] = prof
        for n in (1, 3):
            fd = (total_prob(n, coh, vals["+"]) - total_prob(n, coh, vals["-"])) / (2 * h)
            an = total_prob_dp(n, coh, vals["0"])
            assert an == pytest.approx(fd, rel=1e-3, abs=1e-12)


class TestFockParticleNumber:
    """A Fock(N) source detects at most N particles, so its Omega(inf) <= N."""

    ENTRY_POINTS = {
        "noevent_mass": lambda fam, p: noevent_mass(3, fam, p),
        "total_prob": lambda fam, p: total_prob(6, fam, p),
        "total_prob_integral": lambda fam, p: total_prob_integral(2, fam, p),
        "total_prob_dp": lambda fam, p: total_prob_dp(4, fam, p),
        "sample_times_matrix": lambda fam, p: sample_times_matrix(3, fam, p, 10, 0),
        "log_joint_density": lambda fam, p: log_joint_density([20.0, 21.0], fam, p),
        "joint_density": lambda fam, p: joint_density([20.0, 21.0], fam, p),
        "log_likelihood_batch": lambda fam, p: log_likelihood_batch(
            np.array([[20.0, 21.0]]), fam, p),
    }

    @pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
    def test_profile_mass_above_n_rejected(self, delta_profile, entry):
        # the navg = 100 point profile holds Omega(inf) = 11.78
        assert 5.0 < delta_profile.Omega_inf < 12.0
        with pytest.raises(ConfigError, match="particle number"):
            self.ENTRY_POINTS[entry](StateFamily.fock(5), delta_profile)
        self.ENTRY_POINTS[entry](StateFamily.fock(12), delta_profile)

    def test_value_above_n_rejected(self):
        fam = StateFamily.fock(5)
        for u_inf in (5.0 * (1.0 + 2e-9), 11.56):
            with pytest.raises(ConfigError):
                noevent_mass(3, fam, u_inf)
            with pytest.raises(ConfigError):
                total_prob(3, fam, u_inf)
        # the profile build's relative slack of 1e-9 is allowed
        for u_inf in (5.0, 5.0 * (1.0 + 5e-10)):
            assert total_prob(3, fam, u_inf) + noevent_mass(3, fam, u_inf) == pytest.approx(1.0)

    @pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
    def test_beams_reject_fock(self, beam_profile, entry):
        # a beam's Omega(inf) is infinite, above any N; the beam limit of a
        # fixed-number source is the coherent family.  Before, Fock(2) on a
        # beam read p_tot = 1 for three detections.
        for big_n in (2, 60):
            with pytest.raises(ConfigError, match="coherent family"):
                self.ENTRY_POINTS[entry](StateFamily.fock(big_n), beam_profile)
        with pytest.raises(ConfigError, match="particle number"):
            total_prob(3, StateFamily.fock(2), math.inf)

    def test_integral_path_needs_finite_mass(self, beam_profile):
        # a beam's totals are exactly 1 through total_prob
        for fam in (StateFamily.coherent(1.0), StateFamily.quasifree(1.0)):
            assert total_prob(2, fam, beam_profile) == 1.0
            for where in (beam_profile, math.inf):
                with pytest.raises(ModeError):
                    total_prob_integral(2, fam, where)


class TestSampling:
    def test_negative_seed_rejected(self, beam_profile):
        with pytest.raises(ConfigError):
            sample_batch(2, StateFamily.coherent(1.0), beam_profile, 10, seed=-1)

    @pytest.mark.parametrize("n, count", [(3, 10 ** 11), (10 ** 8, 10), (1, 2 ** 24 + 1)])
    def test_point_budget_checked_before_drawing(self, beam_profile, monkeypatch, n, count):
        # 1e11 records or 1e8 detections per record died allocating the uniforms
        def fail(*args):
            raise AssertionError("drew uniforms past the point budget")

        monkeypatch.setattr(process, "_uniforms", fail)
        with pytest.raises(ConfigError, match="point budget"):
            sample_times_matrix(n, StateFamily.coherent(1.0), beam_profile, count, seed=0)

    def test_batch_reproducible(self, beam_profile):
        coh = StateFamily.coherent(1.0)
        a = sample_batch(3, coh, beam_profile, 500, seed=5)
        b = sample_batch(3, coh, beam_profile, 500, seed=5)
        assert all(np.array_equal(x.times, y.times) for x, y in zip(a.records, b.records))

    def test_per_record_streams(self, beam_profile):
        coh = StateFamily.coherent(1.0)
        r5a, _ = sample_times_matrix(2, coh, beam_profile, 1, seed=5, stream_index=5)
        r5b, _ = sample_times_matrix(2, coh, beam_profile, 1, seed=5, stream_index=5)
        r6, _ = sample_times_matrix(2, coh, beam_profile, 1, seed=5, stream_index=6)
        assert np.array_equal(r5a, r5b)
        assert not np.array_equal(r5a, r6)

    def test_record_invariants(self, delta_profile):
        # records are the rows of the sample matrix, cut at the detected count
        qf = StateFamily.quasifree(100.0)
        batch = sample_batch(4, qf, delta_profile, 300, seed=9)
        matrix = sample_times_matrix(4, qf, delta_profile, 300, seed=9)
        # one result type: sample_batch is the sampler on substream 0
        assert type(batch) is type(matrix) is SampleBatch
        assert np.array_equal(batch.times.view(np.uint64), matrix.times.view(np.uint64))
        assert np.array_equal(batch.n_detected, matrix.n_detected)
        times, n_det = matrix
        assert 0 < np.sum(n_det < 4) < 300
        records = batch.records
        assert len(records) == 300
        for rec, row, k in zip(records, times, n_det):
            assert np.all(np.diff(rec.times) > 0)
            assert np.array_equal(rec.times.view(np.uint64), row[:k].view(np.uint64))
            assert rec.n_detected == k and rec.terminated == (k < 4)
            # a view of the sampled matrix, kept out of the repr
            assert rec.times.base is batch.times
            assert repr(rec) == "ArrivalRecord(requested=4)"

    def test_constant_rate_interarrivals_exponential(self):
        # fast beam: omega ~ a r0 const; coherent arrivals are then a plain
        # Poisson stream and inter-arrival times are Exp(omega0)
        scn = Scenario(m=1.0, a=0.1, eps=0.0, p0=1e4, x0=-20.0, navg=math.inf, r0=2.0)
        prof = build_profile(scn, t_max=400.0, dt=0.02)
        coh = StateFamily.coherent(1.0)
        times, _ = sample_times_matrix(4, coh, prof, 4000, seed=3)
        gaps = np.diff(np.concatenate([np.zeros((4000, 1)), times], axis=1), axis=1)
        stat = kstest(gaps.ravel(), "expon", args=(0.0, 1.0 / 0.2))
        assert stat.pvalue > 0.01

    def test_first_arrival_histogram_matches_density(self, beam_profile):
        # chi^2 against the first-arrival density at 1% binning tolerance
        coh = StateFamily.coherent(1.0)
        times, _ = sample_times_matrix(1, coh, beam_profile, 1_000_000, seed=17)
        t1 = times[:, 0]
        edges = np.linspace(0.0, 0.8, 41)
        counts, _ = np.histogram(t1, edges)
        probs = []
        for lo, hi in zip(edges[:-1], edges[1:]):
            val, _ = quad(lambda t: joint_density([t], coh, beam_profile), lo, hi,
                          limit=100)
            probs.append(val)
        probs = np.array(probs)
        keep = probs * 1e6 > 20
        stat = chisquare(counts[keep], probs[keep] / probs[keep].sum() * counts[keep].sum())
        assert stat.pvalue > 0.01

    def test_reach_fraction_matches_total_prob(self, delta_profile):
        coh = StateFamily.coherent(100.0)
        count = 40000
        _, n_det = sample_times_matrix(5, coh, delta_profile, count, seed=21)
        for n in (1, 2, 5):
            frac = float(np.mean(n_det >= n))
            p = total_prob(n, coh, delta_profile)
            se = math.sqrt(max(p * (1 - p), 1e-12) / count)
            assert abs(frac - p) <= max(3 * se, 2e-4)

    def test_joint_two_arrival_grid(self, beam_profile):
        # empirical (t1,t2) mass on a coarse grid vs the joint density. For the
        # coherent family p(t1, t2) = omega(t1) omega(t2) exp(-Omega(t2)), so
        # with U = Omega(edges) the profile's own model gives each cell's mass
        # in closed form: (U[i+1] - U[i]) (exp(-U[j]) - exp(-U[j+1])) off the
        # diagonal, exp(-A) (1 - exp(-D) (1 + D)) on it, A = U[i], D = U[i+1] - A
        coh = StateFamily.coherent(1.0)
        times, _ = sample_times_matrix(2, coh, beam_profile, 200_000, seed=33)
        edges = np.linspace(0.0, 1.2, 5)
        emp, _, _ = np.histogram2d(times[:, 0], times[:, 1], bins=(edges, edges))
        emp /= 200_000
        u = beam_profile.Omega_at(edges).tolist()
        for i in range(4):
            for j in range(i, 4):
                if i < j:
                    val = (u[i + 1] - u[i]) * (math.exp(-u[j]) - math.exp(-u[j + 1]))
                else:
                    d = u[i + 1] - u[i]
                    val = math.exp(-u[i]) * (1.0 - math.exp(-d) * (1.0 + d))
                if i >= 1:
                    # the nested quad of joint_density converges here; on the
                    # head cells (i = 0) it warns of roundoff
                    nested, _ = quad(
                        lambda t2: quad(
                            lambda t1: joint_density([t1, t2], coh, beam_profile),
                            edges[i], min(edges[i + 1], t2), limit=60)[0],
                        edges[j], edges[j + 1], limit=60)
                    assert nested == pytest.approx(val, rel=1e-6)
                if val * 200_000 < 50:
                    continue
                se = math.sqrt(val / 200_000)
                assert abs(emp[i, j] - val) < 4 * se + 1e-4

    def test_fock_stops_at_its_particle_number(self, beam_scn):
        # Fock(1) on the navg = 5 packet (Omega(inf) = 0.117): the sampler's
        # k >= N branch ends every record after at most one detection
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            prof = build_profile(beam_scn.at_navg(5.0), t_max=45.0, dt=2e-3,
                                 derivative=False)
        fam, count = StateFamily.fock(1), 40_000
        assert 0.1 < prof.Omega_inf < 0.13
        times, n_det = sample_times_matrix(3, fam, prof, count, seed=4)
        assert n_det.max() == 1 and np.all(np.isnan(times[:, 1:]))
        records = sample_batch(3, fam, prof, 2_000, seed=4).records
        assert all(r.n_detected <= 1 and r.terminated for r in records)
        p = total_prob(1, fam, prof)
        se = math.sqrt(p * (1.0 - p) / count)
        assert abs(np.mean(n_det == 1) - p) <= 5.0 * se
        # F_2 = 0 for one particle, so three detections never happen
        ll = log_likelihood_batch(times, fam, prof)
        assert np.all(ll == math.log(noevent_mass(3, fam, prof)))

    def test_peak_at_origin_grows_with_density(self, beam_scn):
        # two-arrival mass near (0,0) increases with the beam density
        coh = StateFamily.coherent(1.0)
        masses = []
        for r0 in (56.42 / 4, 56.42):
            prof = build_profile(Scenario(eps=0.0, navg=math.inf, r0=r0,
                                          m=1.0, a=0.1, p0=1.0, x0=-20.0),
                                 t_max=30.0)
            times, _ = sample_times_matrix(2, coh, prof, 50_000, seed=8)
            masses.append(float(np.mean((times[:, 1] < 0.05))))
        assert masses[1] > masses[0]


class TestLikelihood:
    def test_terminated_record(self, delta_profile):
        # rows short of n score the log of the NO-event mass, whatever they hold
        coh = StateFamily.coherent(100.0)
        times = np.full((2, 40), np.nan)
        times[0, 0] = 5.0
        ll = log_likelihood_batch(times, coh, delta_profile)
        assert np.all(ll == math.log(noevent_mass(40, coh, delta_profile)))

    def test_completeness_from_last_column(self, delta_profile):
        # a record is complete when its last column holds a time; the NaN
        # padding of short rows is the only count the likelihood reads
        coh = StateFamily.coherent(100.0)
        times = np.array([[5.0, 6.0, 7.0],
                          [5.0, 6.0, np.nan],
                          [np.nan, np.nan, np.nan],
                          [10.0, 20.0, 30.0]])
        short = math.log(noevent_mass(3, coh, delta_profile))
        complete = [log_joint_density(times[i], coh, delta_profile) for i in (0, 3)]
        for rows in (times, delta_profile.locate(times)):
            ll = log_likelihood_batch(rows, coh, delta_profile)
            assert ll[1] == ll[2] == short
            assert [ll[0], ll[3]] == complete

    @pytest.mark.parametrize("row", [[5.0, math.nan, 7.0], [7.0, 5.0, 9.0], [-3.0, 1.0, 2.0],
                                     [5.0, 5.0, 9.0], [math.nan, 1.0, 2.0],
                                     [1.0, math.inf, math.inf], [-math.inf, 1.0, 2.0]])
    def test_rows_that_are_not_records_rejected(self, beam_profile_r1, row):
        # the rule of log_joint_density: times >= 0 and strictly increasing,
        # NaN only as the trailing padding of a short record
        coh = StateFamily.coherent(1.0)
        times = np.array([[1.0, 2.0, 3.0], row])
        with pytest.raises(ValueError, match="positive and strictly increasing"):
            log_joint_density(row, coh, beam_profile_r1)
        with pytest.raises(ValueError, match="positive and strictly increasing"):
            log_likelihood_batch(times, coh, beam_profile_r1)

    def test_record_edge_values_accepted(self, beam_profile_r1, delta_profile):
        # -0.0, +inf, short rows and all-NaN rows are records, as in log_joint_density
        times = np.array([[-0.0, 1.0, math.inf],
                          [-0.0, 1.0, 2.0],
                          [2.0, math.nan, math.nan],
                          [math.nan, math.nan, math.nan]])
        for fam, prof in ((StateFamily.coherent(1.0), beam_profile_r1),
                          (StateFamily.coherent(100.0), delta_profile)):
            ll = log_likelihood_batch(times, fam, prof)
            # past a finite grid the batch floors omega = 0 (TestBatchLikelihood)
            rows = 2 if prof.beam_tail is not None else 1
            assert list(ll[2 - rows:2]) == [log_joint_density(row, fam, prof)
                                            for row in times[2 - rows:2]]
            mass = noevent_mass(3, fam, prof)
            assert ll[2] == ll[3] == (math.log(mass) if mass > 0.0 else -math.inf)

    @pytest.mark.parametrize("shape", [(4, 0), (0, 0), (3,)])
    def test_records_need_a_time_matrix(self, delta_profile, shape):
        coh = StateFamily.coherent(100.0)
        times = np.ones(shape)
        for score in (log_likelihood_batch, fisher._score_batch):
            with pytest.raises(ValueError, match="time matrix"):
                score(times, coh, delta_profile)


class TestBatchLikelihood:
    def test_complete_records_match_joint_density(self, beam_profile):
        qf = StateFamily.quasifree(5.0)
        times, n_det = sample_times_matrix(3, qf, beam_profile, 400, seed=2)
        assert np.all(n_det == 3)
        ll = log_likelihood_batch(times, qf, beam_profile)
        assert ll.shape == (400,)
        for row, val in zip(times, ll):
            assert val == log_joint_density(row, qf, beam_profile)
        loc = beam_profile.locate(times)
        assert np.array_equal(log_likelihood_batch(loc, qf, beam_profile), ll)

    def test_mixed_short_and_complete_records(self, delta_profile):
        # Omega_inf ~ 12 for this packet, so n = 12 leaves about half short
        coh = StateFamily.coherent(100.0)
        n = 12
        times, n_det = sample_times_matrix(n, coh, delta_profile, 400, seed=4)
        full = n_det == n
        assert 50 < full.sum() < 350
        ll = log_likelihood_batch(times, coh, delta_profile)
        assert np.all(ll[~full] == math.log(noevent_mass(n, coh, delta_profile)))
        on_grid = times[full, -1] <= delta_profile.t[-1]
        assert 0 < on_grid.sum() < full.sum()
        for row, val, inside in zip(times[full], ll[full], on_grid):
            if inside:
                assert val == log_joint_density(row, coh, delta_profile)
            else:
                # omega = 0 past a finite grid: -inf there, the 1e-300 floor here
                assert log_joint_density(row, coh, delta_profile) == -math.inf
                assert -math.inf < val < math.log(1e-300) + 100.0


def _beam_edge_records(t, n, rng):
    """Records of n arrivals on the beam grid ``t`` at the edges of the cell
    search: every time on a node, the last exactly at ``t[-1]``, the last
    past it, all past it, and a first time of -0.0."""
    inside = np.sort(rng.uniform(1e-3, t[-1], n))
    nodes = t[np.sort(rng.choice(t.size, n, replace=False))]
    records = [nodes, np.append(inside[1:], t[-1]), np.append(inside[1:], t[-1] + 3.0),
               t[-1] + np.arange(1.0, n + 1.0), np.append(-0.0, inside[1:])]
    return np.array([r for r in records if np.all(r[1:] > r[:-1])])


@pytest.mark.parametrize("n", [1, 2, 3, 7, 8, 9, 34, 60])
def test_joint_density_matches_batch_bitwise(beam_profile, delta_profile, n):
    # the per-record path must give the batched likelihood's bits at any
    # length, on both sides of the 8-term cut of the sum, at the grid's edges
    rng = np.random.default_rng(n)
    edges = np.concatenate([_beam_edge_records(beam_profile.t, n, rng) for _ in range(20)])
    assert np.any(edges == beam_profile.t[-1]) and np.any(np.signbit(edges[:, 0]))
    cases = [(fam, beam_profile, *sample_times_matrix(n, fam, beam_profile, 200, seed=n))
             for fam in (StateFamily.coherent(5.0), StateFamily.quasifree(5.0))]
    cases += [(fam, beam_profile, edges, np.full(len(edges), n))
              for fam in (StateFamily.coherent(5.0), StateFamily.quasifree(5.0))]
    # Fock(60) on the finite profile, whose mass (11.78) ends below N: any
    # ordered times on its grid form a complete row with F_n > 0, up to n = N
    times = np.sort(np.random.default_rng(n).uniform(5.0, 44.9, (200, n)), axis=1)
    cases.append((StateFamily.fock(60), delta_profile, times, np.full(200, n)))
    for fam, prof, times, n_det in cases:
        assert np.all(n_det == n)
        batch = log_likelihood_batch(times, fam, prof)
        assert np.all(np.isfinite(batch))
        rows = np.array([log_joint_density(row, fam, prof) for row in times])
        assert np.array_equal(rows.view(np.uint64), batch.view(np.uint64))


class TestSpatialCounts:
    def test_normalised(self, families):
        for fam in families.values():
            char = spatial_char(2.0, fam, 3.0)
            assert char(0.0) == pytest.approx(1.0)

    def test_mean_from_derivative(self, families):
        h = 1e-5
        for fam in families.values():
            char = spatial_char(2.0, fam, 3.0)
            mean = (-1j * (char(h) - char(-h)) / (2 * h)).real
            assert mean == pytest.approx(6.0, rel=1e-8)

    def test_callable_density(self):
        char = spatial_char((0.0, 1.0), StateFamily.coherent(4.0),
                            lambda x: 2.0 * x)
        h = 1e-5
        mean = (-1j * (char(h) - char(-h)) / (2 * h)).real
        assert mean == pytest.approx(1.0, rel=1e-6)

    def test_beam_limits_match_ref_distributions(self):
        # the beam law: a constant density 2 over an interval of length 1.5
        s = np.linspace(-2, 2, 9)
        mu = 3.0
        pois = spatial_char(1.5, StateFamily.coherent(1.0), 2.0)(s)
        assert np.allclose(pois, np.exp(mu * (np.exp(1j * s) - 1.0)))
        # geometric with success prob 1/(1+mu) supported on k = 0, 1, ...
        geo = spatial_char(1.5, StateFamily.quasifree(1.0), 2.0)(s)
        p_succ = 1.0 / (1.0 + mu)
        ref = [np.sum((1 - p_succ) ** np.arange(400) * p_succ
                      * np.exp(1j * si * np.arange(400))) for si in s]
        assert np.allclose(geo, ref, atol=1e-10)

    def test_fock_converges_to_poisson(self):
        s = np.linspace(-3, 3, 13)
        mu = 2.5
        target = np.exp(mu * (np.exp(1j * s) - 1.0))
        errs = []
        for big_n in (10, 100, 1000):
            char = spatial_char(1.0, StateFamily.fock(big_n), mu)
            errs.append(np.max(np.abs(char(s) - target)))
        assert errs[0] > errs[1] > errs[2]
        assert errs[2] < 1e-2


def test_series_coefficients_family_split():
    c0c, csc, clc = first_arrival_series_coeffs("coherent", 56.42, 0.1, 1.0)
    c0q, csq, clq = first_arrival_series_coeffs("quasifree", 56.42, 0.1, 1.0)
    assert c0c == c0q == pytest.approx(5.642)
    assert csc == csq
    assert clc - clq == pytest.approx(0.1 ** 2 * 56.42 ** 2)


def _block_points(kind, n):
    """The BLOCK_POINTS of each blocking the tests try: one record per block
    (1), a few records with points left over (7 and 3n + 1), one block."""
    return {"one": 1, "seven": 7, "3n+1": 3 * n + 1, "huge": 2 ** 62}[kind]


def _bits(x):
    return np.ascontiguousarray(x).view(np.uint64)


def _hexes(result):
    return [v.hex() if isinstance(v, float) else v for v in dataclasses.astuple(result)]


class TestBlocks:
    """The bulk passes over records give the same bits for any block size."""

    @given(n=st.integers(1, 5), count=st.integers(1, 80),
           kind=st.sampled_from(["one", "seven", "3n+1"]),
           on_packet=st.booleans(), quasifree=st.booleans())
    # counts that are whole multiples of the block, on the packet's short rows
    @example(n=3, count=30, kind="3n+1", on_packet=True, quasifree=True)
    @example(n=1, count=21, kind="seven", on_packet=True, quasifree=False)
    @settings(max_examples=60, deadline=None)
    def test_sampler(self, beam_profile_r1, delta_profile, n, count, kind, on_packet,
                     quasifree):
        prof = delta_profile if on_packet else beam_profile_r1
        fam = StateFamily.quasifree(100.0) if quasifree else StateFamily.coherent(100.0)
        with mock.patch.object(process, "BLOCK_POINTS", _block_points("huge", n)):
            whole = sample_times_matrix(n, fam, prof, count, seed=count)
        with mock.patch.object(process, "BLOCK_POINTS", _block_points(kind, n)):
            blocked = sample_times_matrix(n, fam, prof, count, seed=count)
        for a, b in zip(whole, blocked):
            assert np.array_equal(_bits(a), _bits(b))

    @pytest.mark.parametrize("kind", ["3n+1", "huge"])
    @pytest.mark.parametrize("on_packet", [False, True])
    def test_score_variance(self, beam_profile_r1, delta_profile, kind, on_packet):
        # on the packet at n = 3 the quasi-free family leaves about a fifth of
        # the records short, so some blocks of 3 records hold only short rows
        n, fam, prof = ((3, StateFamily.quasifree(100.0), delta_profile) if on_packet
                        else (2, StateFamily.coherent(1.0), beam_profile_r1))
        times, n_det = sample_times_matrix(n, fam, prof, 10_000, seed=8)
        assert (np.sum(n_det < n) > 1_000) == on_packet
        whole = fisher._score_batch(times, fam, prof)
        with mock.patch.object(process, "BLOCK_POINTS", _block_points(kind, n)):
            mc = fisher.mc_score_variance(n, fam, prof, samples=10_000, seed=8)
        reference = fisher.McScore(
            variance=float(np.var(whole, ddof=1)),
            std_error=fisher._jackknife_se_of_variance(whole),
            mean=float(np.mean(whole)), mean_se=float(np.std(whole, ddof=1) / 100.0),
            samples=10_000, resampled=0)
        assert _hexes(mc) == _hexes(reference)

    @pytest.mark.parametrize("sampling_records", [15, fisher.MLE_BLOCK_RECORDS])
    def test_mle_study(self, beam_profile_r1, sampling_records):
        # 15 records per sampling block: three datasets of 5, then one
        coh = StateFamily.coherent(1.0)
        with mock.patch.object(fisher, "MLE_BLOCK_RECORDS", sampling_records):
            studies = []
            for kind in ("huge", "one", "seven", "3n+1"):
                with mock.patch.object(process, "BLOCK_POINTS", _block_points(kind, 2)):
                    studies.append(_hexes(fisher.mle_variance_study(
                        2, coh, beam_profile_r1, datasets=10, records_per_dataset=5, seed=3)))
        assert all(s == studies[0] for s in studies[1:])

    @given(x=st.lists(st.floats(allow_nan=False) | st.sampled_from([-0.0, 0.0]),
                      min_size=1, max_size=48),
           n=st.integers(1, 12))
    # eight terms, where numpy's sum is pairwise and 1e16 absorbs each 1.0 alone
    @example(x=[1e16] + [1.0] * 7, n=8)
    @settings(max_examples=200, deadline=None)
    def test_row_sums(self, x, n):
        # column adds give np.sum's bits, -0.0 and infinities included, for a
        # matrix and for one record
        rows = np.array(x[:len(x) - len(x) % n] or x[:1] * n).reshape(-1, n)
        with np.errstate(invalid="ignore", over="ignore"):
            got, want = process._row_sums(rows), np.sum(rows, axis=1)
            assert np.array_equal(_bits(got), _bits(want))
            for row in (rows[0], np.array(x)):
                got, want = process._row_sums(row), np.sum(row)
                assert np.array_equal(_bits(got), _bits(want))
