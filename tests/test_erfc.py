import math

import mpmath as mp
import numpy as np
import pytest
from scipy.special import wofz

from qarrival.deltakernel import erfc_c, erfcx_c

mp.mp.dps = 30

RAY = complex(math.cos(math.pi / 4), -math.sin(math.pi / 4))


def _exact(z):
    return complex(mp.erfc(mp.mpc(z.real, z.imag)))


class TestKnownValues:
    def test_zero(self):
        assert erfc_c(0.0 + 0.0j) == 1.0

    def test_real_unit(self):
        # frozen from the high-precision oracle (mpmath, 30 digits)
        assert erfc_c(1.0 + 0.0j).real == pytest.approx(0.15729920705028513, abs=1e-14)

    def test_reflection_identity(self):
        z = 2.0 * RAY
        assert abs(erfc_c(-z) - (2.0 - erfc_c(z))) < 1e-13


class TestAccuracy:
    def test_measurement_ray(self):
        # the arguments the detector model produces: c * exp(-i pi/4) sqrt(t)
        cs = np.linspace(1e-4, 30.0, 160)
        vals = erfc_c(cs * RAY)
        worst = max(abs(v - _exact(c * RAY)) / abs(_exact(c * RAY))
                    for c, v in zip(cs, vals))
        assert worst < 1e-12

    def test_contract_region(self):
        rng = np.random.default_rng(7)
        pts = []
        while len(pts) < 300:
            z = complex(rng.uniform(-5, 30), rng.uniform(-30, 30))
            if abs(z) <= 30:
                pts.append(z)
        worst = 0.0
        for z in pts:
            ex = _exact(z)
            if not 1e-250 < abs(ex) < 1e250:
                continue
            worst = max(worst, abs(erfc_c(z) - ex) / abs(ex))
        assert worst < 1e-12

    def test_against_faddeeva(self):
        # independent library oracle: erfcx(z) = w(iz)
        zs = np.array([0.5 + 0.2j, 3.0 * RAY, 9.0 * RAY, 2.0 + 5.0j, 12.0 + 1.0j])
        ours = erfcx_c(zs)
        ref = wofz(1j * zs)
        assert np.max(np.abs(ours - ref) / np.abs(ref)) < 1e-12


class TestScaledForm:
    def test_agreement_where_plain_is_finite(self):
        z = 4.0 * RAY
        assert abs(erfcx_c(z) - np.exp(z * z) * erfc_c(z)) / abs(erfcx_c(z)) < 1e-12
