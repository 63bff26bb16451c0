import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial.legendre import leggauss
from scipy.special import exp1

from faddeev_ep.green import (
    EULER_GAMMA,
    KPoint,
    epsilon_from_log,
    g0,
    green_remainder,
    log_abs_k_from_eps,
)


def test_g0_values():
    assert g0(1.0, 1.0) == pytest.approx(-EULER_GAMMA / (2 * np.pi), abs=1e-12)
    assert abs(g0(1.0, 1.0) - (-0.091867)) < 1e-5
    assert g0(np.exp(-EULER_GAMMA), 1.0) == pytest.approx(0.0, abs=1e-14)
    assert g0(1.0, np.e) == pytest.approx(-(1 + EULER_GAMMA) / (2 * np.pi), abs=1e-12)
    assert abs(g0(1.0, np.e) - (-0.251022)) < 1e-5


def test_g0_domain_errors():
    with pytest.raises(ValueError):
        g0(1.0, 0.0)
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


def test_remainder_vanishes_at_zero():
    assert green_remainder(0.0) == 0.0
    vals = np.abs(green_remainder(1e-6 * np.exp(1j * np.linspace(0, 2 * np.pi, 16))))
    assert np.max(vals) < 1e-5


def test_remainder_depends_on_kz_only():
    rng = np.random.default_rng(11)
    for _ in range(50):
        k = rng.uniform(0.1, 3) * np.exp(1j * rng.uniform(0, 2 * np.pi))
        z = rng.uniform(0.1, 3) * np.exp(1j * rng.uniform(0, 2 * np.pi))
        a = green_remainder(np.array([k * z]))[0]
        b = green_remainder(np.array([(k / 2) * (2 * z)]))[0]
        assert abs(a - b) <= 1e-8


def test_series_exp1_branches_agree():
    """The Taylor-series and exp1 evaluations coincide at the crossover radius."""
    from scipy.special import exp1

    from faddeev_ep.green import _ein

    ws = 4.0 * np.exp(1j * np.linspace(0, 2 * np.pi, 64, endpoint=False))
    zeta = -1j * ws
    series = _ein(zeta).real / (2 * np.pi)
    via_exp1 = (EULER_GAMMA + np.log(np.abs(zeta)) + exp1(zeta).real) / (2 * np.pi)
    assert np.max(np.abs(series - via_exp1)) < 1e-12


def _ein_mpmath(s: complex) -> complex:
    """Ein(s) = gamma + ln s + E1(s) at 80 digits (the cancellation at |s| ~ 1e-30 costs 30)."""
    import mpmath

    with mpmath.workdps(80):
        s = mpmath.mpc(s)
        return complex(mpmath.euler + mpmath.log(s) + mpmath.e1(s))


def _series_cuts():
    """|s| at which the adaptive series changes its number of terms, below |s| = 4."""
    from faddeev_ep.green import _SERIES_TOL

    cuts = []
    for n in range(2, 40):
        # the term-n bound |s|^n / (n n!) crosses _SERIES_TOL * max(1, |s|)
        r = (_SERIES_TOL * n * math.factorial(n)) ** (1 / n)
        if r > 1:
            r = (_SERIES_TOL * n * math.factorial(n)) ** (1 / (n - 1))
        if r <= 4:
            cuts.append(r)
    return cuts


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(log10_abs=st.floats(-30.0, float(np.log10(4.0))), arg=st.floats(0.0, 2 * np.pi),
       others=st.lists(st.floats(-30.0, float(np.log10(4.0))), max_size=3))
def test_ein_against_mpmath_across_the_adaptive_cut(log10_abs, arg, others):
    """The adaptive series agrees with mpmath Ein to 1e-15 max(1, |s|) for |s| in
    [1e-30, 4], alone and in an array whose max|s| sets the number of terms."""
    from faddeev_ep.green import _ein

    s = np.array([10.0**x * np.exp(1j * (arg + i)) for i, x in enumerate([log10_abs, *others])])
    got = _ein(s)
    for si, gi in zip(s, got):
        assert abs(gi - _ein_mpmath(si)) <= 1e-15 * max(1.0, abs(si))


@pytest.mark.parametrize("scale", [1 - 1e-9, 1 + 1e-9])
def test_ein_at_the_term_count_changes(scale):
    """Just below and above every |s| where the number of terms changes."""
    from faddeev_ep.green import _ein

    cuts = _series_cuts()
    assert len(cuts) > 20
    for r in cuts:
        s = scale * r * np.exp(0.7j)
        assert abs(_ein(np.array([s]))[0] - _ein_mpmath(s)) <= 1e-15 * max(1.0, abs(s))


def test_remainder_against_mpmath_across_the_e1_switch():
    """N(w) on both sides of |w| = 4 (series below, E1 above) against mpmath."""
    radii = [3.9, 4.0 - 1e-12, 4.0, 4.0 + 1e-12, 4.1, 6.0]
    w = np.concatenate([r * np.exp(1j * np.linspace(0, 2 * np.pi, 24, endpoint=False)) for r in radii])
    ref = np.array([_ein_mpmath(-1j * x).real / (2 * np.pi) for x in w])
    assert np.max(np.abs(green_remainder(w) - ref)) <= 1e-14


def test_remainder_against_mpmath_beyond_the_series_radius():
    """N(w) for 4 < |w| <= 20 (the range A5 reaches) at 64 angles, on both sides of the
    switch from the E1 continued fraction to the Ein series at |arg s| = 0.8 pi.  The
    error is measured against |Ein(s)| / 2pi, of which N is the real part: near the
    negative real axis Re Ein passes through zero while |Ein| ~ e^|s| / |s|, so no double
    evaluation is accurate relative to N itself there (scipy's exp1 reads 2.7e-12 so)."""
    w = np.concatenate([r * np.exp(1j * np.linspace(0, 2 * np.pi, 64, endpoint=False))
                        for r in np.linspace(4.0 + 1e-9, 20.0, 33)])
    ref = np.array([_ein_mpmath(-1j * x) for x in w]) / (2 * np.pi)
    err = np.abs(green_remainder(w) - ref.real) / np.maximum(1.0, np.abs(ref))
    assert np.max(err) <= 5e-14   # measured 2.3e-15


def test_realness_at_random_points():
    """N(kz) against the conjugate-branch sum G_k = (E1(s) + E1(conj s))/4pi, s = -ikz, whose
    imaginary parts cancel; |kz| runs from 0.05 to 8.2, so both branches of N are checked."""
    rng = np.random.default_rng(5)
    worst = 0.0
    for _ in range(100):
        k = rng.uniform(0.1, 3) * np.exp(1j * rng.uniform(0, 2 * np.pi))
        z = rng.uniform(0.1, 3) * np.exp(1j * rng.uniform(0, 2 * np.pi))
        s = -1j * k * z
        g = (exp1(s) + exp1(np.conj(s))) / (4 * np.pi)
        assert abs(g.imag) <= 1e-8 * max(1.0, abs(g))
        ref = g.real + (EULER_GAMMA + np.log(abs(s))) / (2 * np.pi)   # G_k - G_k^0
        worst = max(worst, abs(green_remainder(k * z) - ref))
    assert worst < 1e-14   # measured 8.9e-16


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
    """-Lap G_k = delta_0, tested weakly against a smooth bump."""
    k = KPoint.from_k(1.3 + 0.4j)
    radius = 0.5

    def psi(x, y):
        return _bump(x, y, *center, radius=radius)

    def integrand(x, y):
        z = x + 1j * y
        g = np.zeros_like(x)
        ok = np.abs(z) > 0
        g[ok] = g0(k, z[ok]) + green_remainder(k.kz(z[ok]))
        return g * _lap(psi, x, y)

    # integrate over the bump support (the Green log-singularity, when the
    # bump covers the origin, is integrable for the polar rule)
    val = _disk_quadrature(integrand, radius, center)
    expected = -psi(np.array([0.0]), np.array([0.0]))[0]
    assert abs(val - expected) < 1e-5


def test_decay_ratio_bounded():
    """|G_k(z) e^{-i zeta.z}| sqrt(|k||z|) stays below a single constant, with G_k in
    the closed form (1/2pi) Re E1(-ikz) that the E1 branch of N uses: at |kz| ~ 250 the
    split G_k^0 + N cancels to no digits."""
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


def test_remainder_smoothness_proxy():
    """Finite-difference second derivatives of N stay bounded on |w| <= 1."""
    h = 1e-4
    worst = 0.0
    for theta in np.linspace(0, np.pi, 8):
        d = np.exp(1j * theta)
        s = np.linspace(-1, 1, 41)
        w = s * d
        second = (green_remainder(w + h * d) - 2 * green_remainder(w) + green_remainder(w - h * d)) / h**2
        worst = max(worst, float(np.max(np.abs(second))))
    assert worst < 1.0
