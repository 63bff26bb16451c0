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
radiation condition that singles this branch out.  The package evaluates G_k
in one place, the single layer S_k (``boundary_ops.assemble_S``): G_k^0 by the
log layer and N(w) by a ``gauss_legendre`` rule for
Ein(s) = int_0^1 (1 - e^{-st})/t dt, which is separable in the two points.
The test suite holds S_k to the closed form through scipy's ``exp1`` and
checks -Lap G_k = delta_0 weakly and the decay of the ratio
|G_k e^{-i zeta.z}| sqrt(|k||z|).  This module keeps the spectral parameter
(``KPoint``), the conversions between eps and |k|, and the quadrature rule.
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
    "gauss_legendre",
]

EULER_GAMMA = float(np.euler_gamma)


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
