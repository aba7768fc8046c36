import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qarrival.errors import ConfigError, SingularFamilyError
from qarrival.scenario import (Scenario, StateFamily, family_Fn, family_Hn, gamma_eps,
                               log_family_Fn)

FAMILIES = [StateFamily.fock(12), StateFamily.coherent(3.0), StateFamily.quasifree(3.0)]


class TestWeightFunction:
    def test_normalised_at_zero(self):
        for fam in FAMILIES:
            assert family_Fn(fam, 0, 0.0) == pytest.approx(1.0)

    def test_quasifree_half(self):
        assert family_Fn(StateFamily.quasifree(2.0), 0, 1.0) == pytest.approx(0.5)

    def test_fock_vanishes_past_particle_number(self):
        assert family_Fn(StateFamily.fock(3), 0, 3.5) == 0.0

    def test_negative_mass_rejected(self):
        with pytest.raises(ValueError):
            family_Fn(StateFamily.coherent(1.0), 0, -0.1)


class TestSignedDerivatives:
    def test_quasifree_factorial_at_zero(self):
        assert family_Fn(StateFamily.quasifree(4.0), 2, 0.0) == pytest.approx(2.0)

    def test_fock_zero_beyond_order(self):
        assert family_Fn(StateFamily.fock(2), 3, 0.1) == 0.0

    def test_coherent_order_free(self):
        assert family_Fn(StateFamily.coherent(7.0), 5, math.log(2.0)) == pytest.approx(0.5)

    def test_log_matches_linear(self):
        for fam in FAMILIES:
            for n in range(0, 6):
                for u in (0.0, 0.3, 2.5, 7.0):
                    if u > fam.domain_max:
                        continue
                    lin = family_Fn(fam, n, u)
                    if lin > 1e-300:
                        assert math.exp(log_family_Fn(fam, n, u)) == pytest.approx(lin, rel=1e-12)

    def test_finite_difference_relation(self):
        # F_{n+1} = -dF_n/du within 1e-8 of central differences
        h = 1e-6
        for fam in FAMILIES:
            top = min(fam.domain_max, 20.0)
            for n in range(0, 5):
                for u in np.linspace(0.05, top - 0.05, 9):
                    fd = (family_Fn(fam, n, u - h) - family_Fn(fam, n, u + h)) / (2 * h)
                    assert fd == pytest.approx(family_Fn(fam, n + 1, u), abs=1e-8, rel=1e-6)

    def test_decay_condition(self):
        # u^n F_n(u) -> 0 along the admissible axis, checked at u = 1e3:
        # exponentially small for the coherent family, down by the 1/u law
        # for the quasi-free one
        for n in range(0, 5):
            assert 1e3 ** n * family_Fn(StateFamily.coherent(3.0), n, 1e3) < 1e-300
            qf = StateFamily.quasifree(3.0)
            at_far = 1e3 ** n * family_Fn(qf, n, 1e3)
            at_near = 10.0 ** n * family_Fn(qf, n, 10.0)
            assert at_far < 0.05 * at_near

    def test_large_order_stability(self):
        # log-space evaluation holds up at particle numbers ~1e6
        fam = StateFamily.fock(10 ** 6)
        val = log_family_Fn(fam, 50, 1000.0)
        assert np.isfinite(val)


def test_log_fn_float_branch_matches_array_branch_bitwise():
    # includes u = 0, Fock u >= N (at and past N = 12), Fock n > N and NaN
    u = np.concatenate([[0.0, 1e-300, 12.0, np.nextafter(12.0, 0.0), 12.5, 40.0, math.nan],
                        np.random.default_rng(5).uniform(0.0, 15.0, 500)])
    for fam in FAMILIES:
        for n in (0, 1, 2, 5, 11, 12, 13, 30):
            arr = log_family_Fn(fam, n, u)
            pts = [log_family_Fn(fam, n, float(x)) for x in u]
            assert all(type(v) is float for v in pts)
            assert np.array_equal(np.array(pts).view(np.uint64), arr.view(np.uint64))
            with pytest.raises(ValueError):
                log_family_Fn(fam, n, -0.5)


class TestRatio:
    def test_coherent_is_unit(self):
        assert family_Hn(StateFamily.coherent(2.0), 7, 13.0) == 1.0

    def test_quasifree(self):
        assert family_Hn(StateFamily.quasifree(2.0), 1, 0.0) == pytest.approx(2.0)

    def test_fock_value(self):
        # frozen from symbolic differentiation of (1-u/N)^N at u=0, N=10, n=2
        assert family_Hn(StateFamily.fock(10), 2, 0.0) == pytest.approx(0.8)

    def test_singular_raises(self):
        with pytest.raises(SingularFamilyError):
            family_Hn(StateFamily.fock(3), 5, 0.5)
        with pytest.raises(SingularFamilyError):
            family_Hn(StateFamily.fock(3), 1, 3.0)

    @pytest.mark.parametrize("family", [StateFamily.coherent(2.0), StateFamily.quasifree(2.0),
                                        StateFamily.fock(1), StateFamily.fock(7)],
                             ids=lambda f: f"{f.kind}{f.param:g}")
    def test_one_formula_bitwise(self, family):
        # family_Hn checks its domain, then evaluates the family's hn;
        # Fock n = N (F_N constant, F_{N+1} = 0) included
        u = np.random.default_rng(11).uniform(0.0, min(family.domain_max, 40.0), 500)
        top = int(family.domain_max) if family.kind == "fock" else 9
        for n in range(top + 1):
            ref = family.hn(n, u).view(np.uint64)
            assert np.array_equal(family_Hn(family, n, u).view(np.uint64), ref)
            points = np.array([family_Hn(family, n, float(x)) for x in u[:25]])
            assert np.array_equal(points.view(np.uint64), ref[:25])


@given(u=st.floats(0.0, 20.0), n=st.integers(0, 8))
@settings(max_examples=120, deadline=None)
def test_fn_nonnegative_everywhere(u, n):
    for fam in FAMILIES:
        assert family_Fn(fam, n, u) >= 0.0


@given(u=st.floats(0.0, 11.9), du=st.floats(0.01, 0.1))
@settings(max_examples=80, deadline=None)
def test_weight_nonincreasing(u, du):
    for fam in FAMILIES:
        assert family_Fn(fam, 0, u + du) <= family_Fn(fam, 0, u) + 1e-12


class TestScenarioConfig:
    def test_roundtrip_finite(self):
        scn = Scenario(m=1.0, a=0.1, eps=0.5, p0=1.0, x0=-20.0, dp=0.7, navg=100.0, r0=56.42)
        assert Scenario.from_config(scn.to_config()) == scn

    def test_roundtrip_beam(self):
        scn = Scenario(m=1.0, a=0.1, eps=0.0, p0=1.0, x0=-20.0, navg=math.inf, r0=56.42)
        back = Scenario.from_config(scn.to_config())
        assert back.beam and back.r0 == scn.r0

    def test_beam_family_member_width(self):
        scn = Scenario(eps=0.0, navg=math.inf, r0=56.42, m=1.0, a=0.1, p0=1.0, x0=-20.0)
        member = scn.at_navg(100.0)
        assert member.dp ** 2 == pytest.approx(0.5, rel=2e-4)

    @pytest.mark.parametrize("navg", [0.0, -2.0, math.nan, -math.inf])
    def test_member_needs_positive_navg(self, navg):
        # checked before the width dp = sqrt(pi/2) r0 / navg is formed
        scn = Scenario(eps=0.0, navg=math.inf, r0=56.42, m=1.0, a=0.1, p0=1.0, x0=-20.0)
        with pytest.raises(ConfigError, match="navg must be > 0"):
            scn.at_navg(navg)

    def test_bad_key_rejected(self):
        with pytest.raises(ConfigError):
            Scenario.from_config("m=1\nbogus=2\n")

    def test_missing_key_rejected(self):
        with pytest.raises(ConfigError):
            Scenario.from_config("m=1\n")

    def test_beam_requires_point_detector(self):
        with pytest.raises(ConfigError):
            Scenario(eps=1.0, navg=math.inf, r0=1.0)

    def test_comments_and_blanks_ok(self):
        text = "# comment\nm=1\na=0.1\neps=0\np0=1\nx0=-20\ndp=0\nnavg=inf\nr0=56.42\nmode=beam\n"
        assert Scenario.from_config(text).beam


class TestScenarioValidation:
    FINITE = dict(m=1.0, a=0.1, eps=1.0, p0=1.0, x0=-20.0, dp=0.5, navg=10.0)

    @pytest.mark.parametrize("field", ["m", "a", "p0"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_rejected(self, field, value):
        with pytest.raises(ConfigError):
            Scenario(**{**self.FINITE, field: value})

    def test_nan_momentum_in_config_rejected(self):
        text = Scenario(**self.FINITE).to_config().replace("p0=1.0", "p0=nan")
        with pytest.raises(ConfigError):
            Scenario.from_config(text)

    @pytest.mark.parametrize("p0", [0.0, -1.0])
    def test_beam_needs_positive_momentum(self, p0):
        # the beam tables differentiate T(|p0|) as if p0 > 0
        with pytest.raises(ConfigError):
            Scenario(m=1.0, a=0.1, eps=0.0, p0=p0, x0=-20.0, navg=math.inf, r0=1.0)

    def test_negative_infinite_navg_is_no_beam(self):
        # only navg = +inf is the beam; -inf is a non-positive particle number
        with pytest.raises(ConfigError, match="particle number must be positive"):
            Scenario(m=1.0, a=0.1, eps=0.0, p0=1.0, x0=-20.0, navg=-math.inf, r0=1.0)

    @pytest.mark.parametrize("x0", [-1e154, 1e154, -1e150, 1e3])
    def test_far_source_allowed(self, x0):
        # either sign, up to where the drive's square of x0 overflows
        assert Scenario(**{**self.FINITE, "x0": x0}).x0 == x0

    def test_source_at_detector_allowed(self):
        scn = Scenario(**{**self.FINITE, "x0": 0.0, "p0": 0.0})
        assert scn.x0 == 0.0


class TestBoundaries:
    """Every rejection of a scenario, a config file and a state family."""

    FINITE = dict(m=1.0, a=0.1, eps=1.0, p0=1.0, x0=-20.0, dp=0.5, navg=10.0)
    BEAM = dict(m=1.0, a=0.1, eps=0.0, p0=1.0, x0=-20.0, navg=math.inf, r0=1.0)

    @pytest.mark.parametrize("mode, change, match", [
        ("finite", {"m": 0.0}, "must be positive"),
        ("beam", {"m": -1.0}, "must be positive"),
        ("finite", {"a": 0.0}, "must be positive"),
        ("finite", {"eps": -0.5}, "eps must be >= 0"),
        ("finite", {"navg": 0.0}, "particle number must be positive"),
        ("finite", {"navg": -3.0}, "particle number must be positive"),
        ("finite", {"dp": 0.0}, "dp must be positive"),
        ("finite", {"dp": -0.5}, "dp must be positive"),
        ("beam", {"r0": 0.0}, "positive density"),
        ("beam", {"r0": -1.0}, "positive density"),
        # the Gaussian drive divides by dp^2 and scales with p0^2/dp^2
        ("finite", {"dp": 1e-300}, "width dp="),
        ("finite", {"dp": 1e-160}, "width dp="),
        ("finite", {"dp": 1e200}, "width dp="),
        ("finite", {"p0": 1e300}, "momentum p0="),
        ("finite", {"p0": -1e160}, "momentum p0="),
        # (p0/(2 dp^2))^2 overflowed in the drive: I_n = nan with exit 0
        ("finite", {"dp": 1e-100}, "momentum p0="),
        # 2 eps^2 overflowed in the detector kernel: an OverflowError traceback
        ("finite", {"eps": 1e200}, "width eps="),
        ("finite", {"eps": 1e154}, "width eps="),
        # (p0/(2 dp^2) - i x0)^2 overflowed in the drive: I_n_cond = nan with exit 0
        ("finite", {"x0": -1e300}, "position x0="),
        ("finite", {"x0": 1e300}, "position x0="),
        ("finite", {"x0": -1e155}, "position x0="),
        # and so did its quotient by 4A, |4A| >= 1/dp^2
        ("finite", {"x0": -1e154, "dp": 1e3}, "position x0="),
    ])
    def test_scenario_rejects(self, mode, change, match):
        base = self.FINITE if mode == "finite" else self.BEAM
        with pytest.raises(ConfigError, match=match):
            Scenario(**{**base, **change})

    def test_point_detector_has_no_gaussian_rate(self):
        scn = Scenario(**{**self.FINITE, "eps": 0.0})
        with pytest.raises(ConfigError, match="eps > 0"):
            scn.gamma
        with pytest.raises(ConfigError, match="eps > 0"):
            gamma_eps(0.1, 0.0)

    @pytest.mark.parametrize("extra, match", [
        ("just words", "expected key=value"),
        ("mode=pulsed", "mode must be"),
        ("a=fast", "non-numeric value"),
        ("navg=inf", "requires mode=beam"),
        ("mode=beam", "mode=beam requires navg=inf"),
        ("navg=inf\nmode=beam", "beam mode requires the point detector"),
    ])
    def test_from_config_rejects(self, extra, match):
        # a repeated key overrides the earlier one
        text = Scenario(**self.FINITE).to_config() + extra + "\n"
        with pytest.raises(ConfigError, match=match):
            Scenario.from_config(text)

    def test_from_config_type_error(self):
        # a constructor that refuses the config's keywords (here a subclass
        # with a required extra field) fails as a configuration error
        @dataclasses.dataclass(frozen=True)
        class Tagged(Scenario):
            tag: str = dataclasses.field(kw_only=True)

        with pytest.raises(ConfigError, match="tag"):
            Tagged.from_config(Scenario(**self.FINITE).to_config())

    @pytest.mark.parametrize("make, error, match", [
        (lambda: StateFamily.named("thermal", 1.0), ConfigError, "unknown family kind"),
        (lambda: StateFamily.fock(2.5), ConfigError, "integer N >= 1"),
        (lambda: StateFamily.fock(0), ConfigError, "integer N >= 1"),
        (lambda: StateFamily.fock(math.nan), ConfigError, "integer N >= 1"),
        (lambda: StateFamily.fock(math.inf), ConfigError, "integer N >= 1"),
        (lambda: StateFamily.named("fock", math.inf), ConfigError, "integer N >= 1"),
        (lambda: StateFamily.coherent(0.0), ConfigError, "must be positive"),
        (lambda: StateFamily.coherent(math.nan), ConfigError, "must be positive"),
        (lambda: StateFamily.quasifree(math.inf), ConfigError, "must be positive"),
        (lambda: StateFamily.quasifree(-1.0), ConfigError, "must be positive"),
        (lambda: family_Fn(StateFamily.coherent(1.0), 1, np.array([0.5, -0.1])),
         ValueError, "must be >= 0"),
        (lambda: family_Hn(StateFamily.quasifree(1.0), 1, -0.1), ValueError, "must be >= 0"),
        (lambda: log_family_Fn(StateFamily.coherent(1.0), -1, 0.5), ValueError,
         "order n must be >= 0"),
    ], ids=["kind", "fock-fraction", "fock-zero", "fock-nan", "fock-inf", "fock-mean-inf",
            "coherent-mean", "coherent-nan", "quasifree-inf", "quasifree-mean",
            "negative-mass", "negative-mass-ratio", "negative-order"])
    def test_family_rejects(self, make, error, match):
        with pytest.raises(error, match=match):
            make()
