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
identical single-particle wavefunctions: fixed particle number (:class:`Fock`),
a coherent superposition (:class:`Coherent`), or a geometric classical
mixture (:class:`QuasiFree`).  Each family is characterised by a weight
function ``F`` with the signed derivatives ``F_n = (-1)^n F^(n)``:

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
from typing import ClassVar

import numpy as np
from scipy.special import beta, betainc, expn, gammaincc, gammaln

from .errors import ConfigError, ModeError, SingularFamilyError
from .quadrature import integrate_panels

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
            # they square b - i x0 too, and divide the square by 4A with
            # |4A| >= 1/dp^2 (x0 = -1e300 overflowed there and wrote NaN)
            b_lin = complex(b, -self.x0)
            b_sq = b_lin * b_lin
            if not all(map(math.isfinite, (b_sq.real, b_sq.imag,
                                           b_sq.real * dp2, b_sq.imag * dp2))):
                raise ConfigError(f"source position x0={self.x0!r} is out of range for "
                                  f"p0={self.p0!r}, dp={self.dp!r}: b^2 and b^2 dp^2, "
                                  f"b = p0/(2 dp^2) - i x0, must be finite")
        else:
            if self.eps != 0.0:
                raise ConfigError("beam mode requires the point detector (eps = 0)")
            if self.r0 <= 0:
                raise ConfigError("beam mode requires a positive density r0")
            if self.p0 <= 0:
                raise ConfigError("beam mode requires a positive momentum p0")
            # the constants of deltakernel.beam_asymptotes, in products that
            # overflow to inf where its powers raise
            alpha = 0.5 * self.a * self.m
            s = self.p0 + alpha
            consts = (alpha, s * s * s, self.a * self.r0 * self.p0 * self.p0 / (s * s),
                      self.a * self.r0 * 2.0 * alpha * self.p0 / (s * s * s))
            if not all(0.0 < c < math.inf for c in consts):  # NaN too
                raise ConfigError(f"beam constants out of range for a={self.a!r}, m={self.m!r}, "
                                  f"p0={self.p0!r}, r0={self.r0!r}: a m/2, (p0 + a m/2)^3, "
                                  "omega_inf and domega_inf must be finite and > 0")

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
        mode = "beam" if self.beam else "finite"  # a beam's navg reads inf
        return "".join(f"{k}={getattr(self, k)!r}\n" for k in _CONFIG_KEYS[:-1]) + f"mode={mode}\n"

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

@dataclass(frozen=True)
class StateFamily:
    """Composition rule of the many-particle source state: :class:`Fock`,
    :class:`Coherent` or :class:`QuasiFree`, each holding all of its formulas.
    ``param`` is the particle number N (integer >= 1) of a Fock family; no
    formula reads it for the others, whose mean number comes from the profile.

    The formulas trust n and the mass u (a float array; a Python float for
    ``log_fn_float``), which :func:`log_family_Fn` and :func:`family_Hn`
    check.  ``log_fn`` takes the n-independent ``logs(u)`` of a grid;
    ``u_hn_into`` and ``log_fn_plus`` write u H_n and log F_n + pw into the
    Fisher pass's work arrays; ``next_u`` solves F_k(u_next) = v F_k(u_k) for
    the sampler; ``count_char`` is the count's characteristic function at
    phase = exp(i s) - 1.  Only the coherent and quasi-free families have the
    beam formulas: C_n, its quadrature rule and the beam tails.
    """

    kind: ClassVar[str]
    domain_max: ClassVar[float] = math.inf  # upper end of the admissible mass range
    param: float

    def __post_init__(self):
        if not 0.0 < self.param < math.inf:  # NaN too
            raise ConfigError("mean particle number must be positive and finite")

    @staticmethod
    def fock(n_particles: int) -> "Fock":
        return Fock(float(n_particles))

    @staticmethod
    def coherent(navg: float) -> "Coherent":
        return Coherent(float(navg))

    @staticmethod
    def quasifree(navg: float) -> "QuasiFree":
        return QuasiFree(float(navg))

    @staticmethod
    def named(kind: str, mean: float) -> "StateFamily":
        """The family ``kind`` of a source of mean particle number ``mean``."""
        if kind not in _FAMILIES:
            raise ConfigError(f"unknown family kind {kind!r}")
        return _FAMILIES[kind].of_mean(mean)

    @classmethod
    def of_mean(cls, mean: float) -> "StateFamily":
        return cls(mean)


class Coherent(StateFamily):
    """Coherent superposition; Poisson counts."""

    kind = "coherent"

    def logs(self, u):
        _check_domain(u)
        return None

    def log_fn(self, n: int, u, logs):
        return -u

    def log_fn_float(self, n: int, u: float) -> float:
        return -u

    def hn(self, n: int, u):
        return np.ones_like(u)

    def u_hn_into(self, n: int, u, logs, out):
        return u  # H_n = 1

    def log_fn_plus(self, n: int, u, logs, pw, out):
        np.subtract(pw, u, out=out)  # pw + (-u) is pw - u

    def next_u(self, u, v, k: int):
        return u - np.log(v)

    def count_char(self, phase, mu):
        return np.exp(phase * mu)

    def sparse_constant(self, n: int) -> float:
        return float(n)

    def stationary_integral(self, n: int, integrand) -> float:
        u_head = n + 60.0 + 14.0 * math.sqrt(n)
        return float(integrate_panels(integrand, np.linspace(0.0, u_head, 193), 24))

    def beam_tail(self, n: np.ndarray, u_end: float, phi: float, c1: float, d: float):
        """Integral of w_n S_n over ``[U, inf)`` at ``U = u_end``, one per count
        in ``n``: with ``v = u - n``, ``S_n = A^2 + (n-1) clipped`` and
        ``A = -phi v - c1 (v+1)/u``, each square a centred moment of upper
        incomplete gamma functions (notes/decisions.md, "Closed-form beam tails")."""
        log_u, lgn = math.log(u_end), gammaln(n)

        def edge(s):  # U^s e^-U / (n-1)!, times the common factor U + 1 - n
            return np.exp(s * log_u - u_end - lgn) * (u_end + 1.0 - n)

        g1, g2 = self._gamma_pair(n, u_end)
        v2 = n * gammaincc(n, u_end) + edge(n)      # int w v^2
        v11 = g1 + edge(n - 1.0)                    # int w v (v+1)/u
        v00 = g2 + edge(n - 2.0)                    # int w (v+1)^2/u^2
        total = phi * phi * v2 + 2.0 * phi * c1 * v11 + c1 * c1 * v00
        if d > 0.0:
            g1, g2 = self._gamma_pair(n, max(u_end, c1 * c1 / d))
            total += d * g1 - c1 * c1 * g2
        return total

    @staticmethod
    def _gamma_pair(n: np.ndarray, x: float):
        """``Gamma(n-1, x)/(n-2)!`` and ``Gamma(n-2, x)/(n-2)!`` for counts n,
        0 at n = 1 (where the factor n - 1 in front of them vanishes)."""
        g1 = np.where(n >= 2.0, gammaincc(np.maximum(n - 1.0, 1.0), x), 0.0)
        g2 = np.where(n >= 3.0, gammaincc(np.maximum(n - 2.0, 1.0), x) / np.maximum(n - 2.0, 1.0),
                      np.where(n == 2.0, expn(1, x), 0.0))
        return g1, g2


class QuasiFree(StateFamily):
    """Geometric classical mixture; geometric counts."""

    kind = "quasifree"

    def logs(self, u):
        """``log1p(u)``, and ``1 + u`` for the in-place u H_n."""
        u = _check_domain(u)
        return np.log1p(u), 1.0 + u

    def log_fn(self, n: int, u, logs):
        return gammaln(n + 1.0) - (n + 1.0) * logs[0]

    def log_fn_float(self, n: int, u: float) -> float:
        return float(gammaln(n + 1.0) - (n + 1.0) * np.log1p(u))

    def hn(self, n: int, u):
        return (n + 1.0) / (1.0 + u)

    def u_hn_into(self, n: int, u, logs, out):
        return np.multiply(u, np.divide(n + 1.0, logs[1], out=out), out=out)

    def log_fn_plus(self, n: int, u, logs, pw, out):
        np.subtract(gammaln(n + 1.0), np.multiply(logs[0], n + 1.0, out=out), out=out)
        out += pw

    def next_u(self, u, v, k: int):
        return (1.0 + u) * v ** (-1.0 / (k + 1)) - 1.0

    def count_char(self, phase, mu):
        return 1.0 / (1.0 - phase * mu)

    def sparse_constant(self, n: int) -> float:
        return n / (n + 2.0)

    def stationary_integral(self, n: int, integrand) -> float:
        # in x = 1/(1+u) the integrand is the polynomial n (1-x)^(n-1) (n - (n+1)(1-x))^2
        return float(integrate_panels(lambda x: integrand((1.0 - x) / x) / (x * x),
                                      np.linspace(0.0, 1.0, 65), 24))

    def beam_tail(self, n: np.ndarray, u_end: float, phi: float, c1: float, d: float):
        """:meth:`Coherent.beam_tail` in ``x = 1/(1+u)``: the integrand is
        ``n (1-x)^(n-3) P(x)`` on ``[0, 1/(1+U)]``, ``P = B^2 + (n-1) x (d (1-x)
        - c1^2 x)`` (the second term on ``x < 1/(1+u*)`` only) and ``B = phi
        ((n+1) x - 1)(1-x) + c1 x ((n+1) x - 2)``, whose factor ``1 - x`` at n = 1
        divides out (notes/decisions.md, "Closed-form beam tails")."""
        out = np.empty_like(n)
        one = n == 1.0
        if one.any():  # B = (1-x)(e0 + e1 x)
            e0, e1 = -phi, 2.0 * (phi - c1)
            x_end = 1.0 / (1.0 + u_end)
            out[one] = x_end * (e0 * e0 + x_end * (e0 * e1 + x_end * e1 * e1 / 3.0))
        n = n[~one]
        zero = np.zeros_like(n)
        total = self._beta_integral(
            n, u_end,
            self._square(-phi + zero, (n + 2.0) * phi - 2.0 * c1, (n + 1.0) * (c1 - phi)),
            self._square((n - 1.0) * c1, n * (phi - 2.0 * c1), (n + 1.0) * (c1 - phi)))
        if d > 0.0:
            k1, k2 = (n - 1.0) * d, (n - 1.0) * (d + c1 * c1)
            total += self._beta_integral(n, max(u_end, c1 * c1 / d),
                                         np.stack([zero, k1, -k2, zero, zero]),
                                         np.stack([k1 - k2, 2.0 * k2 - k1, -k2, zero, zero]))
        out[~one] = n * total
        return out

    @staticmethod
    def _square(q0, q1, q2) -> np.ndarray:
        """Coefficients of ``(q0 + q1 z + q2 z^2)^2``, one column per count."""
        return np.stack([q0 * q0, 2.0 * q0 * q1, q1 * q1 + 2.0 * q0 * q2, 2.0 * q1 * q2,
                         q2 * q2])

    @staticmethod
    def _beta_integral(n: np.ndarray, u_low: float, px: np.ndarray, py: np.ndarray):
        """``int_0^X (1-x)^(n-3) P(x) dx`` at ``X = 1/(1+u_low)``, one per count
        n >= 2, for ``P = sum_k px[k] x^k = sum_k py[k] (1-x)^k``: incomplete
        beta functions for n >= 3; at n = 2 the remainder ``sum_{j>k} X^j/j``
        of the log series for X <= 1/2, and the powers of ``1 - x`` for X > 1/2."""
        x_end = 1.0 / (1.0 + u_low)
        k = np.arange(5.0)[:, None]
        out = np.empty_like(n)
        two = n == 2.0
        if two.any() and x_end > 0.5:
            ell = math.log1p(1.0 / u_low)  # -log(1 - X)
            kk = k[1:]
            out[two] = py[0, two] * ell + np.sum(py[1:, two] * (-np.expm1(-kk * ell) / kk),
                                                 axis=0)
        elif two.any():
            j = np.arange(1.0, 60.0)
            tail_sums = np.cumsum((x_end ** j / j)[::-1])[::-1]  # sum_{j' >= j}, small end first
            out[two] = np.sum(px[:, two] * tail_sums[:5, None], axis=0)
        many = ~two
        if many.any():
            a, b = k + 1.0, n[many] - 2.0
            out[many] = np.sum(px[:, many] * beta(a, b) * betainc(a, b, x_end), axis=0)
        return out


class Fock(StateFamily):
    """Fixed particle number N; binomial counts.  It has no beam, whose
    infinite mass exceeds any N: that limit is the coherent family."""

    kind = "fock"

    def __post_init__(self):
        if not (self.param >= 1 and float(self.param).is_integer()):  # NaN and inf too
            raise ConfigError("fock family needs an integer N >= 1")

    @classmethod
    def of_mean(cls, mean: float) -> "Fock":
        """A Fock source of mean number ``mean`` holds ``round(mean)`` particles."""
        return cls(float(round(mean)) if math.isfinite(mean) else mean)

    @property
    def domain_max(self) -> float:
        return self.param

    def logs(self, u):
        """The mask ``u < N`` and ``log1p(-u/N)`` on it."""
        u = _check_domain(u)
        inside = u < self.param
        with np.errstate(divide="ignore"):
            return inside, np.log1p(-u[inside] / self.param)

    def _log_prefactor(self, n: int):
        N = self.param
        return gammaln(N + 1.0) - n * math.log(N) - gammaln(N - n + 1.0)

    def log_fn(self, n: int, u, logs):
        N = self.param
        out = np.full_like(u, -np.inf)
        if n <= N:
            inside, log_rest = logs
            out[inside] = self._log_prefactor(n) + (N - n) * log_rest
        return out

    def log_fn_float(self, n: int, u: float) -> float:
        N = self.param
        if n > N or not u < N:
            return -math.inf
        with np.errstate(divide="ignore"):
            return float(self._log_prefactor(n) + (N - n) * np.log1p(-u / N))

    def hn(self, n: int, u):
        N = self.param  # H_n is 0 for n >= N, where F_{N+1} = 0
        if n >= N:
            return np.zeros_like(u)
        return np.where(u < N, (N - n) / np.where(u < N, N - u, 1.0), 0.0)

    def u_hn_into(self, n: int, u, logs, out):
        return np.multiply(u, self.hn(n, u), out=out)

    def log_fn_plus(self, n: int, u, logs, pw, out):
        out[:] = self.log_fn(n, u, logs)
        out += pw

    def next_u(self, u, v, k: int):
        N = self.param
        if k >= N:
            return np.full_like(u, np.inf)
        return N * (1.0 - (1.0 - u / N) * v ** (1.0 / (N - k)))

    def count_char(self, phase, mu):
        N = self.param
        return (1.0 + phase * mu / N) ** N

    def sparse_constant(self, n: int) -> float:
        raise ModeError("sparse-beam constants exist for the coherent and quasi-free "
                        "families only")


_FAMILIES = {cls.kind: cls for cls in (Fock, Coherent, QuasiFree)}


def _check_domain(omega_int):
    u = np.asarray(omega_int, dtype=float)
    if np.any(u < 0.0):
        raise ValueError("integrated intensity must be >= 0")
    return u


def log_family_Fn(family: StateFamily, n: int, omega_int):
    """log F_n; -inf where F_n vanishes.  Stable for large n and N.  A Python
    float skips the array round trip (about 6 us per call), same bits."""
    if n < 0:
        raise ValueError("order n must be >= 0")
    if isinstance(omega_int, float):
        u = float(omega_int)
        if u < 0.0:
            raise ValueError("integrated intensity must be >= 0")
        return family.log_fn_float(n, u)
    u = np.atleast_1d(np.asarray(omega_int, dtype=float))
    out = family.log_fn(n, u, family.logs(u))
    return float(out[0]) if np.ndim(omega_int) == 0 else out


def log_arrival_mass(family: StateFamily, n: int, u: np.ndarray):
    """log w_n(u) = log of F_n(u) u^(n-1) / (n-1)! on a 1-D array, the mass
    density of the n-th arrival; -inf where it vanishes."""
    logs = family.logs(u)
    with np.errstate(divide="ignore"):
        pw = np.zeros_like(u) if n == 1 else (n - 1) * np.log(u)
    return family.log_fn(n, u, logs) + pw - gammaln(n)


def family_Fn(family: StateFamily, n: int, omega_int):
    """Signed derivative F_n = (-1)^n F^(n) of the family weight function."""
    logs = log_family_Fn(family, n, omega_int)
    return np.exp(logs) if isinstance(logs, np.ndarray) else math.exp(logs)


def family_Hn(family: StateFamily, n: int, omega_int):
    """Ratio H_n = F_{n+1}/F_n; requires F_n > 0 at the evaluation point."""
    u = _check_domain(omega_int)
    N = family.domain_max  # F_n vanishes for n > N, and at u >= N for a finite N
    if n > N:
        raise SingularFamilyError(f"F_{n} vanishes identically for fock N={N:g}")
    if np.any(u >= N) and N < math.inf:
        raise SingularFamilyError("F_n vanishes at the requested point (u >= N)")
    out = family.hn(n, u)
    return float(out) if out.ndim == 0 else out
