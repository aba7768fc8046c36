import math

import pytest

from qarrival.intensity import build_profile
from qarrival.scenario import Scenario, StateFamily

FIG_BASE = dict(m=1.0, a=0.1, p0=1.0, x0=-20.0)


@pytest.fixture(scope="session")
def beam_scn():
    return Scenario(eps=0.0, navg=math.inf, r0=56.42, dp=0.0, **FIG_BASE)


@pytest.fixture(scope="session")
def beam_profile(beam_scn):
    return build_profile(beam_scn)


@pytest.fixture(scope="session")
def beam_profile_r1():
    scn = Scenario(eps=0.0, navg=math.inf, r0=1.0, dp=0.0, **FIG_BASE)
    return build_profile(scn)


@pytest.fixture(scope="session")
def packet_scn(beam_scn):
    # finite member of the beam family: navg=100 fixes dp^2 = 0.5
    return beam_scn.at_navg(100.0)


@pytest.fixture(scope="session")
def narrow_scn(beam_scn):
    # navg=1000 member: narrow momentum spread, negligible late tail
    return beam_scn.at_navg(1000.0)


@pytest.fixture(scope="session")
def delta_profile(packet_scn):
    import warnings
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return build_profile(packet_scn, t_max=45.0, dt=2e-3)


@pytest.fixture(scope="session")
def families():
    return {
        "fock": StateFamily.fock(9),
        "coherent": StateFamily.coherent(5.0),
        "quasifree": StateFamily.quasifree(5.0),
    }


@pytest.fixture(scope="session")
def make_flat_profile():
    """Synthetic constant-intensity profile factory (time-stationary model).

    omega(p; t) = omega0 + slope * (p - p0) for all t; the exact model the
    stationary constants describe.
    """
    import numpy as np

    from qarrival.deltakernel import BeamAsymptotes
    from qarrival.intensity import IntensityProfile

    def factory(omega0=0.2, slope=0.03, p0=1.0, t_max=400.0, nodes=4001):
        def at(p):
            w = omega0 + slope * (p - p0)
            t = np.linspace(0.0, t_max, nodes)
            scn = Scenario(m=1.0, a=0.1, eps=0.0, p0=p, x0=-20.0,
                           navg=math.inf, r0=1.0)
            tail = BeamAsymptotes(omega_inf=w, domega_dp0_inf=slope,
                                  c0=w, c_sqrt=0.0, c_lin=0.0, dc_t32=0.0)
            return IntensityProfile(
                scn=scn, t=t,
                omega=np.full_like(t, w), Omega=w * t,
                domega=np.full_like(t, slope), dOmega=slope * t,
                dOmega_tilde=(slope ** 2 / w) * t,
                Omega_inf=math.inf, dOmega_inf=math.nan,
                beam_tail=tail)
        return at

    return factory
