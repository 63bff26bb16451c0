import os

# one BLAS thread unless the caller chose: the suite's matrices are 128..512 wide,
# where threading costs more than it gains (must run before numpy loads)
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", "1")

import numpy as np  # noqa: E402
import pytest  # noqa: E402

from faddeev_ep.geometry import make_circle, sample  # noqa: E402
from faddeev_ep.dtn_maps import (  # noqa: E402
    PerturbedFamily,
    absorbing_potential,
    omega_poly_cos,
    omega_radial_poly,
    standard_conductive,
    zero_potential,
)


@pytest.fixture(scope="session")
def nodes128():
    return sample(make_circle(1.0), 128)


@pytest.fixture(scope="session")
def nodes256():
    return sample(make_circle(1.0), 256)


@pytest.fixture(scope="session")
def conductive():
    return standard_conductive()


@pytest.fixture(scope="session")
def absorbing():
    return absorbing_potential(1.0)


@pytest.fixture(scope="session")
def zero_pot():
    return zero_potential()


@pytest.fixture(scope="session")
def radial_family(conductive):
    return PerturbedFamily(conductive, omega_radial_poly())


@pytest.fixture(scope="session")
def cos_family(conductive):
    return PerturbedFamily(conductive, omega_poly_cos())


def perfbench_workloads():
    """perfbench/workloads.py, loaded from its file (perfbench is not a package)."""
    import importlib.util
    from pathlib import Path

    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return workloads


def rotation_matrix(n: int, alpha: float) -> np.ndarray:
    """Band-limited shift by alpha on n uniform nodes, (R f)(t_j) = f(t_j + alpha): the phase
    e^{i m alpha} on DFT mode m and 1 on the Nyquist mode, so R is real, circulant and orthogonal.
    (cos(n alpha / 2) on the Nyquist mode would interpolate the shift but is not unitary: it scales
    the Nyquist eigenvalue of the circulant log layer by cos^2.)"""
    phase = np.exp(1j * alpha * np.fft.fftfreq(n) * n)
    phase[n // 2] = 1.0
    row = np.fft.ifft(phase).real
    return row[(np.arange(n)[:, None] - np.arange(n)[None, :]) % n]


def traced_peak(fn, *args):
    """tracemalloc peak, in bytes, of one call fn(*args)."""
    import tracemalloc

    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def dtn_mode_oracle(m, n_radial_fn, rtol=1e-11):
    """Radial-ODE oracle for the Dirichlet-to-Neumann eigenvalue of mode m.

    Shoots the regular solution u ~ r^{|m|} of -u'' - u'/r + (m^2/r^2 - n) u = 0
    from near the origin to r = 1 with an adaptive integrator and returns
    u'(1)/u(1).  Entirely independent of the collocation solver.
    """
    from scipy.integrate import solve_ivp

    m = abs(int(m))
    r0 = 1e-8 if m == 0 else 1e-3

    def rhs(r, y):
        u, up = y
        return [up, -up / r + (m * m / r**2 - complex(n_radial_fn(np.array([r]))[0])) * u]

    y0 = [1.0 + 0j, (m / r0) + 0j] if m else [1.0 + 0j, 0.0 + 0j]
    sol = solve_ivp(rhs, [r0, 1.0], y0, rtol=rtol, atol=1e-14)
    return complex(sol.y[1, -1] / sol.y[0, -1])


def single_layer_fourier_oracle(k, M):
    """Fourier-Galerkin oracle for the weighted Faddeev single layer on the unit circle.

    Returns D A D on the modes m = -M..M, where A is S_k in the basis
    e^{imt} of the circle z = e^{it} and D = diag(max(1,|m|)^{1/2}); its
    singular values approximate those of ``weighted_matrix(assemble_S(k, nodes))``.
    Shares no code path with the assembly:

    * the log part is the analytic spectrum of S_k^0 on the circle,
      1/(2|m|) for m != 0 and -(gamma + ln|k|) for the constant mode
      (no product quadrature);
    * the remainder N(w) = (1/2pi) Re[gamma + ln(-iw) + E1(-iw)] at
      w = k(e^{it} - e^{is}) is evaluated in mpmath at 30 digits by the
      E1 closed form alone (no Taylor series, no series/E1 switch), with
      N(0) = 0 on the diagonal;
    * the Sobolev weights are applied as a diagonal in the Fourier basis
      (no circulant weight matrices).

    The Galerkin entries of the smooth remainder still come from a
    2M x 2M trapezoid grid in (t, s).  The kernel is entire, so the
    truncation and trapezoid errors fall off faster than geometrically in
    M: for |k| <= 2, M = 16, 24, 32 and 40 all reproduce sigma_min to the
    double-precision floor of the SVD (about 1e-12 relative at |k| = 2).
    """
    import mpmath

    k = complex(k)
    n_grid = 2 * M
    t = 2 * np.pi * np.arange(n_grid) / n_grid
    remainder = np.zeros((n_grid, n_grid))
    with mpmath.workdps(30):
        circle = [mpmath.expj(2 * mpmath.pi * j / n_grid) for j in range(n_grid)]
        minus_ik = mpmath.mpc(k.imag, -k.real)
        for a in range(n_grid):
            for b in range(n_grid):
                if a != b:
                    s = minus_ik * (circle[a] - circle[b])
                    ein = mpmath.euler + mpmath.log(s) + mpmath.e1(s)
                    remainder[a, b] = float(mpmath.re(ein) / (2 * mpmath.pi))
    m = np.arange(-M, M + 1)
    fourier = np.exp(1j * np.outer(m, t))
    # A_mn = (1/2pi) int int e^{-imt} N e^{ins} ds dt by the trapezoid rule in t and s
    galerkin = (2 * np.pi / n_grid**2) * (fourier.conj() @ remainder @ fourier.T)
    log_spectrum = np.where(m == 0, -(np.euler_gamma + np.log(abs(k))), 0.5 / np.maximum(1, np.abs(m)))
    galerkin += np.diag(log_spectrum)
    d = np.sqrt(np.maximum(1, np.abs(m)))
    return d[:, None] * galerkin * d[None, :]
