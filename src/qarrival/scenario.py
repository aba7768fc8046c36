"""Physical scenarios, unit conventions, and source-state families.

Unit conventions
----------------
All quantities are dimensionless multiples of a length unit ``l``, a time
unit ``tau``, the momentum unit ``pbar = hbar/l``, and the mass unit
``pbar*tau/l``.  In these units ``hbar = 1``, so it never appears
explicitly in the formulas below.

A :class:`Scenario` bundles the parameters of one detection setup: particle
mass ``m``, detection strength ``a``, detector width ``eps`` (``eps = 0``
selects the point-detector limit), source momentum ``p0``, source position
``x0`` (the paper's setup has ``x0 < 0``; ``x0 >= 0`` is accepted, e.g. for
kernel identities at ``x0 = 0``), momentum width ``dp``, mean particle
number ``navg`` (``inf`` selects the uniform-beam limit) and spatial density
``r0``.

A :class:`StateFamily` selects how the many-particle state is composed from
identical single-particle wavefunctions: fixed particle number (``fock``),
a coherent superposition (``coherent``), or a geometric classical mixture
(``quasifree``).  Each family is characterised by a weight function ``F``
with the signed derivatives ``F_n = (-1)^n F^(n)``:

==========  ======================================  =================
family      F(u)                                    F_n(u)
==========  ======================================  =================
fock(N)     (1 - u/N)^N   (0 for u > N)             N!/(N^n (N-n)!) (1-u/N)^(N-n)
coherent    exp(-u)                                 exp(-u)
quasifree   1/(1 + u)                               n!/(1+u)^(n+1)
==========  ======================================  =================
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
from scipy.special import gammaln

from .errors import ConfigError, SingularFamilyError

# Scaled detection rate of the finite-width Gaussian detector.  With this
# scaling the eps -> 0 limit reproduces the point detector of strength a.
def gamma_eps(a: float, eps: float) -> float:
    """Detection rate gamma for a Gaussian detector of width eps."""
    if eps <= 0.0:
        raise ConfigError("gamma_eps requires eps > 0 (eps = 0 is the point detector)")
    return a / (2.0 * eps * math.sqrt(2.0 * math.pi))


_CONFIG_KEYS = ("m", "a", "eps", "p0", "x0", "dp", "navg", "r0", "mode")


@dataclass(frozen=True)
class Scenario:
    """Parameter record for one detection setup (paper units, hbar = 1)."""

    m: float = 1.0          # particle mass
    a: float = 0.1          # detection strength (length/time)
    eps: float = 0.0        # detector width; 0 = point detector
    p0: float = 1.0         # source momentum
    x0: float = -20.0       # source position (paper: < 0; detector at x = 0)
    dp: float = 0.0         # momentum width of the source Gaussian
    navg: float = math.inf  # mean particle number; inf = beam
    r0: float = 56.42       # spatial particle density (beam mode)

    def __post_init__(self):
        finite = ("m", "a", "eps", "p0", "x0", "dp", "r0")
        bad = [k for k in finite if not math.isfinite(getattr(self, k))]
        if bad or math.isnan(self.navg):
            raise ConfigError(f"non-finite parameter: {', '.join(bad) or 'navg'}")
        if self.m <= 0 or self.a <= 0:
            raise ConfigError("mass and detection strength must be positive")
        if self.eps < 0:
            raise ConfigError("detector width eps must be >= 0")
        if not math.isfinite(2.0 * self.eps * self.eps):  # the detector kernel's width term
            raise ConfigError(f"detector width eps={self.eps!r} is out of range: "
                              f"2 eps^2 must be finite")
        if not self.beam:
            if self.navg <= 0:
                raise ConfigError("mean particle number must be positive")
            if self.dp <= 0:
                raise ConfigError("momentum width dp must be positive in finite mode")
            # the Gaussian drives divide by dp^2, scale with p0^2/dp^2 and square
            # b = p0/(2 dp^2), so p0/dp^2 must be finite too
            dp2 = self.dp * self.dp
            if not (math.isfinite(dp2) and dp2 > 0.0 and math.isfinite(1.0 / dp2)):
                raise ConfigError(f"momentum width dp={self.dp!r} is out of range: "
                                  f"dp^2 and 1/dp^2 must be finite")
            b = 0.5 * self.p0 / dp2
            if not (math.isfinite(self.p0 * self.p0 / dp2) and math.isfinite(b * b)):
                raise ConfigError(f"source momentum p0={self.p0!r} is out of range for "
                                  f"dp={self.dp!r}: p0^2/dp^2 and (p0/(2 dp^2))^2 "
                                  f"must be finite")
        else:
            if self.eps != 0.0:
                raise ConfigError("beam mode requires the point detector (eps = 0)")
            if self.r0 <= 0:
                raise ConfigError("beam mode requires a positive density r0")
            if self.p0 <= 0:
                raise ConfigError("beam mode requires a positive momentum p0")

    @property
    def beam(self) -> bool:
        return self.navg == math.inf

    @property
    def delta_detector(self) -> bool:
        return self.eps == 0.0

    @property
    def gamma(self) -> float:
        """Detection rate of the finite-width detector."""
        return gamma_eps(self.a, self.eps)

    def at_navg(self, navg: float) -> "Scenario":
        """Finite-navg member of the beam family with the same density r0.

        The momentum width is tied to navg so that r0 stays the maximal
        spatial density of the packet: dp = sqrt(pi/2) * r0 / navg.
        """
        if not navg > 0.0:  # NaN too
            raise ConfigError(f"mean particle number navg must be > 0, got {navg}")
        if math.isinf(navg):
            return replace(self, navg=math.inf, dp=0.0, eps=0.0)
        dp = math.sqrt(math.pi / 2.0) * self.r0 / navg
        return replace(self, navg=navg, dp=dp)

    # -- flat key=value config files (the CLI contract) ------------------

    def to_config(self) -> str:
        mode = "beam" if self.beam else "finite"
        navg = "inf" if self.beam else repr(self.navg)
        lines = [
            f"m={self.m!r}",
            f"a={self.a!r}",
            f"eps={self.eps!r}",
            f"p0={self.p0!r}",
            f"x0={self.x0!r}",
            f"dp={self.dp!r}",
            f"navg={navg}",
            f"r0={self.r0!r}",
            f"mode={mode}",
        ]
        return "\n".join(lines) + "\n"

    @classmethod
    def from_config(cls, text: str) -> "Scenario":
        values = {}
        for lineno, raw in enumerate(text.splitlines(), 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"line {lineno}: expected key=value, got {raw!r}")
            key, _, val = line.partition("=")
            key = key.strip()
            if key not in _CONFIG_KEYS:
                raise ConfigError(f"line {lineno}: unknown key {key!r}")
            values[key] = val.strip()
        missing = [k for k in _CONFIG_KEYS if k not in values and k != "mode"]
        if missing:
            raise ConfigError(f"missing keys: {', '.join(missing)}")
        mode = values.get("mode", "finite")
        if mode not in ("finite", "beam"):
            raise ConfigError(f"mode must be 'finite' or 'beam', got {mode!r}")
        try:
            num = {k: float(values[k]) for k in _CONFIG_KEYS if k != "mode"}
        except ValueError as exc:
            raise ConfigError(f"non-numeric value: {exc}") from exc
        if (mode == "beam") != (num["navg"] == math.inf):
            raise ConfigError("mode=beam requires navg=inf" if mode == "beam"
                              else "navg=inf requires mode=beam")
        if mode == "beam":
            num["dp"] = 0.0
        try:
            return cls(**num)
        except TypeError as exc:
            raise ConfigError(str(exc)) from exc


# ---------------------------------------------------------------------------
# Source-state families
# ---------------------------------------------------------------------------

_KINDS = ("fock", "coherent", "quasifree")


@dataclass(frozen=True)
class StateFamily:
    """Composition rule of the many-particle source state.

    ``param`` is the particle number N (integer >= 1) for ``fock``.  No
    formula reads it for the other kinds, whose mean number comes from the
    profile (``navg`` or ``r0``), so ``coherent(5.0)`` and ``coherent(1.0)`` agree.
    """

    kind: str
    param: float

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ConfigError(f"unknown family kind {self.kind!r}")
        if self.kind == "fock":
            if self.param < 1 or self.param != int(self.param):
                raise ConfigError("fock family needs an integer N >= 1")
        elif self.param <= 0:
            raise ConfigError("mean particle number must be positive")

    @classmethod
    def fock(cls, n_particles: int) -> "StateFamily":
        return cls("fock", float(n_particles))

    @classmethod
    def coherent(cls, navg: float) -> "StateFamily":
        return cls("coherent", float(navg))

    @classmethod
    def quasifree(cls, navg: float) -> "StateFamily":
        return cls("quasifree", float(navg))

    @property
    def domain_max(self) -> float:
        """Upper end of the admissible integrated-intensity range."""
        return self.param if self.kind == "fock" else math.inf


def _check_domain(omega_int):
    u = np.asarray(omega_int, dtype=float)
    if np.any(u < 0.0):
        raise ValueError("integrated intensity must be >= 0")
    return u


def log_family_Fn(family: StateFamily, n: int, omega_int):
    """log F_n; -inf where F_n vanishes.  Stable for large n and N."""
    if n < 0:
        raise ValueError("order n must be >= 0")
    if isinstance(omega_int, float):
        return _log_family_Fn_float(family, n, float(omega_int))
    u = np.asarray(omega_int, dtype=float)
    scalar = u.ndim == 0
    u = np.atleast_1d(u)
    out = log_family_Fn_from_logs(family, n, u, family_logs(family, u))
    return float(out[0]) if scalar else out


def family_logs(family: StateFamily, u: np.ndarray):
    """The n-independent logs behind :func:`log_family_Fn` on a 1-D array.

    ``log1p(u)`` for the quasi-free family, the mask ``u < N`` with
    ``log1p(-u/N)`` on it for the fixed-number family, None for the coherent
    family.  Computed once per grid, they serve every order n through
    :func:`log_family_Fn_from_logs`.
    """
    u = _check_domain(u)
    if family.kind == "coherent":
        return None
    if family.kind == "quasifree":
        return np.log1p(u)
    inside = u < family.param
    with np.errstate(divide="ignore"):
        return inside, np.log1p(-u[inside] / family.param)


def log_family_Fn_from_logs(family: StateFamily, n: int, u: np.ndarray, logs):
    """log F_n on the 1-D array ``u`` from its :func:`family_logs`."""
    if family.kind == "coherent":
        return -u
    if family.kind == "quasifree":
        return gammaln(n + 1.0) - (n + 1.0) * logs
    N = family.param
    out = np.full_like(u, -np.inf)
    if n <= N:
        inside, log_rest = logs
        logpref = gammaln(N + 1.0) - n * math.log(N) - gammaln(N - n + 1.0)
        out[inside] = logpref + (N - n) * log_rest
    return out


def arrival_mass_logs(family: StateFamily, u: np.ndarray):
    """The n-independent logs of :func:`log_arrival_mass` on the 1-D array
    ``u``: ``log u`` and the family's :func:`family_logs`."""
    fam_logs = family_logs(family, u)
    with np.errstate(divide="ignore"):
        return np.log(u), fam_logs


def log_arrival_mass(family: StateFamily, n: int, u: np.ndarray, logs=None):
    """log w_n(u) = log of F_n(u) u^(n-1) / (n-1)! on a 1-D array, the mass
    density of the n-th arrival; -inf where it vanishes.

    ``logs`` are the :func:`arrival_mass_logs` of ``u``, computed once and
    shared by every order n on the same nodes.
    """
    log_u, fam_logs = arrival_mass_logs(family, u) if logs is None else logs
    logf = log_family_Fn_from_logs(family, n, u, fam_logs)
    pw = np.zeros_like(u) if n == 1 else (n - 1) * log_u
    return logf + pw - gammaln(n)


def _log_family_Fn_float(family: StateFamily, n: int, u: float) -> float:
    """log F_n at one Python float without the array round trip, which
    costs about 6 us per call; the expressions of :func:`log_family_Fn`,
    same bits."""
    if u < 0.0:
        raise ValueError("integrated intensity must be >= 0")
    if family.kind == "coherent":
        return -u
    if family.kind == "quasifree":
        return float(gammaln(n + 1.0) - (n + 1.0) * np.log1p(u))
    N = family.param
    if n > N or not u < N:
        return -math.inf
    logpref = gammaln(N + 1.0) - n * math.log(N) - gammaln(N - n + 1.0)
    with np.errstate(divide="ignore"):
        return float(logpref + (N - n) * np.log1p(-u / N))


def family_Fn(family: StateFamily, n: int, omega_int):
    """Signed derivative F_n = (-1)^n F^(n) of the family weight function."""
    logs = log_family_Fn(family, n, omega_int)
    return np.exp(logs) if isinstance(logs, np.ndarray) else math.exp(logs)


def hn_values(family: StateFamily, n: int, u):
    """H_n = F_{n+1}/F_n on the array ``u``, 0 where F_n vanishes (the
    weight of the n-th arrival is 0 there) and for Fock n >= N (F_{N+1} = 0)."""
    u = np.asarray(u, dtype=float)
    if family.kind == "coherent":
        return np.ones_like(u)
    if family.kind == "quasifree":
        return (n + 1.0) / (1.0 + u)
    big_n = family.param
    if n >= big_n:
        return np.zeros_like(u)
    return np.where(u < big_n, (big_n - n) / np.where(u < big_n, big_n - u, 1.0), 0.0)


def family_Hn(family: StateFamily, n: int, omega_int):
    """Ratio H_n = F_{n+1}/F_n; requires F_n > 0 at the evaluation point."""
    u = _check_domain(omega_int)
    if family.kind == "fock":
        N = family.param
        if n > N:
            raise SingularFamilyError(f"F_{n} vanishes identically for fock N={N:g}")
        if np.any(u >= N):
            raise SingularFamilyError("F_n vanishes at the requested point (u >= N)")
    out = hn_values(family, n, u)
    return float(out) if out.ndim == 0 else out
