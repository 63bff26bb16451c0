import warnings

import numpy as np
import pytest
from numpy.polynomial.legendre import leggauss
from scipy.special import exp1

from faddeev_ep.green import (
    EULER_GAMMA,
    KPoint,
    epsilon_from_log,
    log_abs_k_from_eps,
)


def test_g0_domain_errors():
    with pytest.raises(ValueError):
        KPoint.from_k(0.0)


def test_epsilon_values():
    assert epsilon_from_log(-EULER_GAMMA - 1, 2 * np.pi) == pytest.approx(1.0, rel=1e-12)
    assert epsilon_from_log(-EULER_GAMMA - 10, 2 * np.pi) == pytest.approx(0.1, rel=1e-12)
    assert epsilon_from_log(-EULER_GAMMA - 1, 4 * np.pi) == pytest.approx(0.5, rel=1e-12)


def test_epsilon_pole_and_regime():
    with pytest.raises(ValueError):
        epsilon_from_log(-EULER_GAMMA, 2 * np.pi)
    with pytest.raises(ValueError):
        epsilon_from_log(-5.0, 0.0)
    with pytest.warns(UserWarning):
        KPoint.from_k(1.0).eps(2 * np.pi)
    with warnings.catch_warnings():
        warnings.simplefilter("error")   # the scan reads eps on its pool threads: no warning there
        assert epsilon_from_log(1.0, 2 * np.pi) < 0


def test_epsilon_monotone_in_abs_k():
    eps = [KPoint.from_polar_log(np.log(a), 0.0).eps(2 * np.pi) for a in np.geomspace(1e-8, 0.3, 20)]
    assert np.all(np.diff(eps) > 0)
    assert np.all(np.array(eps) > 0)


def test_kpoint_from_eps_roundtrip():
    kp = KPoint.from_eps(0.05, 1.2, 2 * np.pi)
    assert kp.eps(2 * np.pi) == pytest.approx(0.05, rel=1e-12)
    assert kp.phi == pytest.approx(1.2)
    # deep below the underflow threshold of k itself
    kp2 = KPoint.from_eps(0.002, 0.0, 2 * np.pi)
    assert np.isfinite(kp2.log_abs)
    assert kp2.eps(2 * np.pi) == pytest.approx(0.002, rel=1e-12)
    assert log_abs_k_from_eps(0.002, 2 * np.pi) < -400


def _bump(x, y, x0=0.0, y0=0.0, radius=0.8):
    r2 = ((x - x0) ** 2 + (y - y0) ** 2) / radius**2
    out = np.zeros_like(r2)
    m = r2 < 1
    out[m] = np.exp(-1.0 / (1.0 - r2[m]))
    return out


def _lap(f, x, y, h=1e-4):
    return (f(x + h, y) + f(x - h, y) + f(x, y + h) + f(x, y - h) - 4 * f(x, y)) / h**2


def _disk_quadrature(f, radius, center, nr=400, nth=400):
    """2-D polar quadrature oracle around ``center`` (integrable ln-singularity)."""
    xg, wg = leggauss(nr)
    r = 0.5 * radius * (xg + 1)
    wr = 0.5 * radius * wg
    th = 2 * np.pi * np.arange(nth) / nth
    rg, tg = np.meshgrid(r, th, indexing="ij")
    x = center[0] + rg * np.cos(tg)
    y = center[1] + rg * np.sin(tg)
    return np.sum(f(x, y) * rg * wr[:, None] * (2 * np.pi / nth))


@pytest.mark.parametrize("center", [(0.0, 0.0), (0.6, -0.3)])
def test_weak_laplace_identity(center):
    """-Lap G_k = delta_0, tested weakly against a smooth bump, with G_k in the closed form
    (1/2pi) Re E1(-ikz) (residual measured 3.6e-9 at centre (0, 0), 2.4e-10 at (0.6, -0.3))."""
    k = KPoint.from_k(1.3 + 0.4j)
    radius = 0.5

    def psi(x, y):
        return _bump(x, y, *center, radius=radius)

    def integrand(x, y):
        z = x + 1j * y
        g = np.zeros_like(x)
        ok = np.abs(z) > 0
        g[ok] = exp1(-1j * k.kz(z[ok])).real / (2 * np.pi)
        return g * _lap(psi, x, y)

    # integrate over the bump support (the Green log-singularity, when the
    # bump covers the origin, is integrable for the polar rule)
    val = _disk_quadrature(integrand, radius, center)
    expected = -psi(np.array([0.0]), np.array([0.0]))[0]
    assert abs(val - expected) < 1e-5


def test_decay_ratio_bounded():
    """|G_k(z) e^{-i zeta.z}| sqrt(|k||z|) stays below a single constant, with G_k in
    the closed form (1/2pi) Re E1(-ikz): at |kz| ~ 250 the split G_k^0 + N cancels to
    no digits."""
    worst = 0.0
    for ka in np.geomspace(0.5, 50, 10):
        for za in np.geomspace(0.1, 5, 10):
            for ph in np.linspace(0, 2 * np.pi, 6, endpoint=False):
                for phz in np.linspace(0, 2 * np.pi, 6, endpoint=False):
                    k = ka * np.exp(1j * ph)
                    z = za * np.exp(1j * phz)
                    w = k * z
                    g = exp1(-1j * w).real / (2 * np.pi)
                    worst = max(worst, abs(g) * np.exp(w.imag) * np.sqrt(ka * za))
    assert worst < 0.5  # measured 0.151 on this grid
