"""Zero-energy Faddeev Green function and the spectral parameter k.

For the exponentially growing incident waves e^{i zeta . z} with
zeta = (k, ik), zeta . z = k(x+iy), the Green function depends on z and k
only through the complex product w = k z and splits as

    G_k(z) = G_k^0(z) + N(kz),
    G_k^0(z) = -(1/2pi) ln|z| - gamma/2pi - (1/2pi) ln|k|,

with N entire, real-valued and N(0) = 0.  In closed form

    G_k(z) = (1/2pi) Re E1(-i k z),      N(w) = (1/2pi) Re Ein(-i w),

where E1 is the exponential integral and Ein its entire part
(Ein(s) = gamma + ln s + E1(s)).  Re E1 is continuous across the E1 branch
cut, and e^{-i zeta . z} G_k(z) decays in every direction of w, which is the
radiation condition that singles this branch out.  G_k is evaluated only
through the split: ``g0`` for the logarithmic part and, for N, either
``green_remainder`` (the Ein series for |w| <= 4; beyond, E1 by its continued
fraction, or near the negative real axis the Ein series again) or, in the
single layer S_k (``boundary_ops.assemble_S``), a ``gauss_legendre`` rule for
Ein(s) = int_0^1 (1 - e^{-st})/t dt, which is separable in the two points.
Everything is validated against independent oracles in the test suite (weak
Laplace identity, kz-scaling, realness, decay of the ratio
|G_k e^{-i zeta.z}| sqrt(|k||z|)).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import cache

import numpy as np

__all__ = [
    "EULER_GAMMA",
    "KPoint",
    "epsilon_from_log",
    "log_abs_k_from_eps",
    "g0",
    "green_remainder",
    "gauss_legendre",
]

EULER_GAMMA = float(np.euler_gamma)

# series/E1 crossover for the entire part Ein(-iw); the series avoids the
# ln|w| cancellation near w = 0
_SERIES_RADIUS = 4.0
# the series stops once the next term's bound |s|^n/(n n!) is below this times max(1, max|s|)
_SERIES_TOL = 1e-17
_CF_ARG, _CF_DEPTH = 0.8 * np.pi, 200   # |s| > 4: E1 by continued fraction for |arg s| <= _CF_ARG


def epsilon_from_log(log_abs_k: float, nu: float) -> float:
    """eps = [-nu (gamma/2pi + ln|k|/2pi)]^{-1} from ln|k| directly."""
    if nu <= 0:
        raise ValueError(f"boundary length must be positive, got {nu}")
    bracket = -nu * (EULER_GAMMA + log_abs_k) / (2 * np.pi)
    if abs(bracket) < 1e-14:
        raise ValueError(f"epsilon pole: |k| = e^-gamma makes the bracket vanish (ln|k| = {log_abs_k})")
    return 1.0 / bracket


def log_abs_k_from_eps(eps: float, nu: float) -> float:
    """Invert eps(|k|): ln|k| = -gamma - 2pi/(nu*eps)."""
    if eps <= 0 or nu <= 0:
        raise ValueError(f"need eps > 0 and nu > 0, got eps={eps}, nu={nu}")
    return -EULER_GAMMA - 2 * np.pi / (nu * eps)


@dataclass(frozen=True)
class KPoint:
    """Nonzero complex spectral parameter k, stored in log-polar form.

    Storing ln|k| keeps eps-parametrized scans meaningful down to
    eps ~ 1e-3, where |k| = e^{-gamma - 2pi/(nu eps)} underflows double
    precision; the ``k`` property may then round to 0.0 while ``log_abs``
    and all Green-function formulas stay exact.
    """

    log_abs: float
    phi: float

    def __post_init__(self):
        if not np.isfinite(self.log_abs):
            raise ValueError(f"ln|k| must be finite, got {self.log_abs}")
        object.__setattr__(self, "phi", float(np.mod(self.phi, 2 * np.pi)))

    @classmethod
    def from_k(cls, k) -> "KPoint":
        """The KPoint of a complex k; a KPoint is returned unchanged."""
        if isinstance(k, cls):
            return k
        k = complex(k)
        if k == 0:
            raise ValueError("k = 0 is not a valid spectral parameter")
        return cls(float(np.log(abs(k))), float(np.angle(k)))

    @classmethod
    def from_polar_log(cls, log_abs: float, phi: float) -> "KPoint":
        return cls(float(log_abs), float(phi))

    @classmethod
    def from_eps(cls, eps: float, phi: float, nu: float) -> "KPoint":
        """The k with eps(k) = eps on a boundary of length nu, arg k = phi."""
        return cls(log_abs_k_from_eps(eps, nu), float(phi))

    @property
    def abs(self) -> float:
        return float(np.exp(self.log_abs))

    @property
    def k(self) -> complex:
        return self.abs * complex(np.cos(self.phi), np.sin(self.phi))

    def eps(self, nu: float) -> float:
        """eps(|k|); warns outside its regime |k| < e^-gamma, where it is negative."""
        if self.log_abs > -EULER_GAMMA:
            warnings.warn(f"epsilon evaluated outside its regime |k| < e^-gamma "
                          f"(ln|k| = {self.log_abs:.4g}); value is negative", stacklevel=2)
        return epsilon_from_log(self.log_abs, nu)

    def kz(self, z) -> np.ndarray:
        """Complex product k*z (w-variable of the Green function)."""
        return self.k * np.asarray(z, dtype=complex)

    def __repr__(self):
        return f"KPoint(|k|=e^{self.log_abs:.6g}, arg={self.phi:.6g})"


def g0(k, z) -> float:
    """Logarithmic part G_k^0(z) = -(1/2pi) ln|z| - gamma/2pi - (1/2pi) ln|k|."""
    kp = KPoint.from_k(k)
    az = np.abs(np.asarray(z, dtype=complex))
    if np.any(az == 0):
        raise ValueError("G_k^0 is singular at z = 0")
    val = -(np.log(az) + EULER_GAMMA + kp.log_abs) / (2 * np.pi)
    return float(val) if np.isscalar(z) or np.ndim(z) == 0 else val


def _ein(zeta: np.ndarray) -> np.ndarray:
    """Entire part of the exponential integral, by its Taylor series.

    Ein(s) = sum_{n>=1} (-1)^{n+1} s^n / (n n!), accurate to machine
    precision for |s| <= _SERIES_RADIUS.  The number of terms is chosen per
    call from max|s|: the sum stops before the first term whose bound
    |s|^n / (n n!) is below _SERIES_TOL * max(1, max|s|), which is one term
    at |s| ~ 1e-32 and about 30 at |s| = 4.
    """
    zeta = np.asarray(zeta, dtype=complex)
    smax = float(np.max(np.abs(zeta), initial=0.0))
    tol = _SERIES_TOL * max(1.0, smax)
    total = zeta.copy()
    term = zeta
    n, bound = 1, smax * smax / 4    # bound of term 2
    while bound >= tol:
        term = term * (-zeta) * (n / (n + 1) ** 2)
        total += term
        n += 1
        bound *= smax * n / (n + 1) ** 2
    return total


def green_remainder(w) -> np.ndarray:
    """Smooth remainder N(w) = G_k(z) - G_k^0(z) as a function of w = kz.

    Entire, real-valued, N(0) = 0.  Vectorized over w.
    """
    w = np.asarray(w, dtype=complex)
    out = np.empty(w.shape, dtype=float)
    zeta = -1j * w
    small = np.abs(w) <= _SERIES_RADIUS
    if np.any(small):
        out[small] = _ein(zeta[small]).real / (2 * np.pi)
    if not np.all(small):
        # Ein = gamma + ln s + E1(s), whose Re is continuous across the E1 cut; E1(s) = e^{-s} / f, f =
        # s + 1/(1 + 1/(s + 2/(1 + ...))) evaluated backward, is within 1e-14 up to |s| = 20 for |arg s|
        # <= _CF_ARG, and nearer the negative real axis the series (a call of its own) is as accurate
        big = zeta[~small]
        cf = np.abs(np.angle(big)) <= _CF_ARG
        s = f = big[cf]
        for n in range(_CF_DEPTH, 0, -1):
            f = s + n / (1 + n / f)
        big[~cf] = _ein(big[~cf])
        big[cf] = EULER_GAMMA + np.log(np.abs(s)) + np.exp(-s) / f
        out[~small] = big.real / (2 * np.pi)
    return out


def _legendre(n: int, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(P_n(x), P_n'(x)) by the three-term recurrence (k + 1) P_{k+1} = (2k + 1) x P_k - k P_{k-1}."""
    p0, p1 = np.ones_like(x), x
    for k in range(1, n):
        p0, p1 = p1, ((2 * k + 1) * x * p1 - k * p0) / (k + 1)
    return p1, n * (x * p1 - p0) / (x * x - 1.0)


@cache
def gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """n-point Gauss-Legendre nodes (ascending) and weights 2 / ((1 - x^2) P_n'(x)^2) on [-1, 1],
    once per process; read-only.  The nodes are Newton steps on P_n from -cos(pi (i - 1/4) / (n + 1/2)),
    whose error, at most 1.1e-2 (n = 2), four steps take to rounding; no LAPACK call is made."""
    x = -np.cos(np.pi * (np.arange(1, n + 1) - 0.25) / (n + 0.5))
    for _ in range(4):
        x = x - np.divide(*_legendre(n, x))
    w = 2.0 / ((1.0 - x * x) * _legendre(n, x)[1] ** 2)
    x.flags.writeable = w.flags.writeable = False
    return x, w
