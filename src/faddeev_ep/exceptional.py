"""The three exceptional-point detectors.

(i)   Kernel criterion: sigma_min and near-zero eigenvalue of the
      weight-symmetrized A(k) = F_n - F^out(k); a point k is exceptional
      iff A has a nontrivial kernel, with multiplicity equal to the kernel
      dimension.
(ii)  Small-(lambda, eps) expansion: xi = eig_near_zero, the branch through
      the zero mode at (0,0) while |xi| stays well below the next eigenvalue
      (about 2), behaves as xi = a lambda + b eps + O(.^2) with a = -mu/nu, b = 1,
      mu = int omega q dS, nu = |bd O|; the locus xi = 0 is eps ~ (mu/nu) lambda.
(iii) Parity counter: n^-(k) counts negative eigenvalues of
      P(k) = I + S_k (F_n - F_0) with multiplicity; endpoints of a path
      with different parity bracket an exceptional point.  The endpoints
      are counted from the eigenvalues; the bisection between them reads
      only the parity, which for a real P is the sign of det P.
"""

from __future__ import annotations

import csv
import warnings
from dataclasses import dataclass

import numpy as np

from .boundary_ops import (
    HMINUS,
    HPLUS,
    L2,
    BoundaryOperator,
    KWorkspace,
    NearSingularError,
    sigma_min,
    weighted_matrix,
)
from .disk_solver import DiskDtnSolver
from .dtn_maps import PerturbedFamily, Potential, assemble_F0, assemble_Fn, assemble_Fout_zero
from .geometry import NodeSet
from .green import KPoint, epsilon_from_log, gauss_legendre, log_abs_k_from_eps

__all__ = [
    "TOL_KER_REL",
    "TOL_NEG",
    "CriterionOperator",
    "ScanResult",
    "LocusResult",
    "XiCurve",
    "ParityRecord",
    "ParityVerdict",
    "mu",
    "mu_for_family",
    "check_locus_lambda",
    "criterion",
    "scan",
    "scan_to_csv",
    "trace_locus",
    "fit_xi",
    "fn_minus_f0",
    "assemble_A",
    "assemble_P",
    "n_minus",
    "parity_path",
]

#: kernel tolerance, relative to ||A||: singular values below it count as kernel
TOL_KER_REL = 1e-5

#: eigenvalues of P(k) within +-TOL_NEG of zero flag the count as unreliable
TOL_NEG = 1e-6

#: parity_path bisects its path down to this fraction of its length
PARITY_RESOLUTION = 1 / 256

#: mu quadrature: Gauss-Legendre radii crossed with trapezoid angles
MU_RADII, MU_ANGLES = 200, 128


def mu(omega_fn, q_fn) -> float:
    """mu = integral over the unit disk of omega(z) q(|z|) dS, by quadrature.

    Gauss-Legendre in radius crossed with trapezoid in angle; flags
    (warns on) mu <= 0, where the sign-definite perturbation theory has
    nothing to say.
    """
    x, w = gauss_legendre(MU_RADII)
    r = 0.5 * (x + 1.0)
    wr = 0.5 * w
    theta = 2 * np.pi * np.arange(MU_ANGLES) / MU_ANGLES
    zgrid = r[:, None] * np.exp(1j * theta[None, :])
    om = np.asarray(omega_fn(zgrid), dtype=float)
    qq = np.asarray(q_fn(r), dtype=float)[:, None]
    val = float(np.sum(om * qq * r[:, None] * wr[:, None]) * (2 * np.pi / MU_ANGLES))
    if val <= 0:
        warnings.warn(f"mu = {val:.3e} <= 0: the sign hypothesis of the locus expansion fails", stacklevel=2)
    return val


def mu_for_family(family: PerturbedFamily) -> float:
    if family.base.q_fn is None:
        raise ValueError("mu needs the conductivity q of a conductive base potential")
    return mu(family.omega_fn, family.base.q_fn)


@dataclass(frozen=True)
class CriterionOperator:
    """Weighted-symmetrized A(k) together with its kernel diagnostics."""

    a_weighted: np.ndarray
    sigma_min: float
    norm: float
    eig_near_zero: float
    kernel_dim_estimate: int
    tol_ker: float
    k: KPoint


def fn_minus_f0(n: Potential, nodes: NodeSet) -> np.ndarray:
    """A fresh, writable matrix of D = F_n - F_0."""
    return assemble_Fn(nodes, n).matrix - assemble_F0(nodes).matrix


def assemble_A(k, n: Potential, nodes: NodeSet) -> BoundaryOperator:
    """A(k) = F_n - F^out(k) = (F_n - F_0) + S_k^{-1}, formed in place; S_k^{-1} refuses near E_D."""
    a = fn_minus_f0(n, nodes)
    a += KWorkspace.at(k, nodes).inverse.matrix
    return BoundaryOperator(a, HPLUS, HMINUS, nodes)


def _weighted_a(k, n: Potential, nodes: NodeSet) -> tuple[np.ndarray, np.ndarray]:
    """Weight-symmetrized A(k) and its Hermitian part; k = None takes the limit F_n - F^out(0)."""
    a = (BoundaryOperator(assemble_Fn(nodes, n).matrix - assemble_Fout_zero(nodes).matrix, HPLUS, HMINUS, nodes)
         if k is None else assemble_A(k, n, nodes))
    aw = weighted_matrix(a)
    return aw, 0.5 * (aw + aw.conj().T)


def _eig_near_zero(herm: np.ndarray) -> float:
    """The eigenvalue of a Hermitian matrix nearest zero."""
    eigs = np.linalg.eigvalsh(herm)
    return float(eigs[np.argmin(np.abs(eigs))])


def criterion(k, n: Potential, nodes: NodeSet) -> CriterionOperator:
    """Kernel-criterion diagnostics of A(k) = F_n - F^out(k).

    For n_lambda pass ``family.at(lam)``.  ``eig_near_zero`` is the
    eigenvalue of the Hermitian part of the weighted A nearest zero; near
    k = 0 the non-self-adjoint part is O(|k|)-small, which makes sign
    changes of this eigenvalue a well-posed root-finding target.  E_D
    proximity propagates from the inversion of S_k.
    """
    ws = KWorkspace.at(k, nodes)
    aw, herm = _weighted_a(ws, n, nodes)
    sv = np.linalg.svd(aw, compute_uv=False)
    norm, smin = float(sv[0]), float(sv[-1])
    tol_ker = TOL_KER_REL * norm
    kdim = int(np.sum(sv < tol_ker))
    return CriterionOperator(aw, smin, norm, _eig_near_zero(herm), kdim, tol_ker, ws.k)


def assemble_P(k, n: Potential, nodes: NodeSet) -> BoundaryOperator:
    """P(k) = I + S_k (F_n - F_0).  S_k and F_0 are real, so P is real
    exactly when F_n is (which :meth:`DiskDtnSolver.dtn_matrix` decides).

    Entries of S_k (hence P) span a dynamic range ~ e^{2|k| diam} at large
    |k|, so sigma_min(P) stops measuring kernel distance beyond |k| ~ 2;
    the eigenvalues, which the parity detector consumes, remain accurate
    and N-stable across the desk annulus (checked to |k| = 10).
    """
    mat = KWorkspace.at(k, nodes).s.matrix @ fn_minus_f0(n, nodes)
    mat.flat[:: nodes.n_nodes + 1] += 1.0   # + I
    return BoundaryOperator(mat, L2, L2, nodes)


@dataclass(frozen=True)
class ParityRecord:
    """Eigenvalue census of P(k) used by the parity detector, with the P counted."""

    k: KPoint
    eigs: np.ndarray
    n_minus: int
    near_exceptional: bool
    p: BoundaryOperator


def n_minus(k, n: Potential, nodes: NodeSet) -> ParityRecord:
    """Count negative real eigenvalues of P(k) with algebraic multiplicity.

    A real matrix has an exactly conjugation-closed spectrum, so complex
    pairs contribute evenly and cannot flip the parity.  Any eigenvalue
    within TOL_NEG of zero marks the count as unreliable
    (``near_exceptional``).  Only meaningful for real potentials: a complex
    P(k) warns.  :func:`parity_path` counts its two endpoints here and
    bisects between them on the sign of det P (:func:`_det_parity`).
    """
    ws = KWorkspace.at(k, nodes)
    p = assemble_P(ws, n, nodes)
    is_complex = np.iscomplexobj(p.matrix)
    if is_complex:
        warnings.warn("n^- is defined for real potentials; counts for complex n are not meaningful", stacklevel=2)
    eigs = np.linalg.eigvals(p.matrix)
    real_mask = np.abs(eigs.imag) < 1e-12 if is_complex else eigs.imag == 0.0
    count = int(np.sum(real_mask & (eigs.real < -TOL_NEG)))
    near = bool(np.min(np.abs(eigs)) < TOL_NEG)
    return ParityRecord(ws.k, eigs, count, near, p)


# ---------------------------------------------------------------------------
# Grid scans

@dataclass(frozen=True)
class ScanResult:
    """Per-k record of the detector outputs (serializable for plotting)."""

    k: KPoint
    eps: float | None
    sigma_min_A: float | None
    eig_near_zero: float | None
    sigma_min_P: float | None
    n_minus: int | None
    flags: tuple[str, ...]


def _safe_eps(kp: KPoint, nu: float) -> float | None:
    try:
        return epsilon_from_log(kp.log_abs, nu)
    except ValueError:
        return None


def scan(points, n: Potential, nodes: NodeSet) -> list[ScanResult]:
    """Evaluate the kernel criterion and the parity count on a k-grid;
    individual failures are recorded and the scan continues.  Both detectors
    read the one S_k that each point assembles, inverts and refuses on its own."""
    out = []
    for kp in points:
        ws = KWorkspace(kp, nodes)
        flags: list[str] = []
        sigma_a = near = sigma_p = nminus = None
        try:
            crit = criterion(ws, n, nodes)
            sigma_a, near = crit.sigma_min, crit.eig_near_zero
            if crit.kernel_dim_estimate > 0:
                flags.append("kernel")
        except NearSingularError:
            flags.append("ed_refused")
        except Exception as exc:
            flags.append(f"criterion_failed:{type(exc).__name__}")
        try:
            rec = n_minus(ws, n, nodes)
            sigma_p = sigma_min(rec.p)
            nminus = rec.n_minus
            if rec.near_exceptional:
                flags.append("near_exceptional")
        except Exception as exc:
            flags.append(f"parity_failed:{type(exc).__name__}")
        out.append(ScanResult(ws.k, _safe_eps(ws.k, nodes.length), sigma_a, near, sigma_p, nminus, tuple(flags)))
    return out


def scan_to_csv(results, path) -> None:
    """CSV stream (k_re, k_im, eps, sigma_min_A, eig_near_zero, sigma_min_P, n_minus, flags)."""

    def fmt(x):
        return "" if x is None else repr(float(x))

    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["k_re", "k_im", "eps", "sigma_min_A", "eig_near_zero", "sigma_min_P", "n_minus", "flags"])
        for r in results:
            k = r.k.k
            writer.writerow([
                repr(k.real), repr(k.imag), fmt(r.eps), fmt(r.sigma_min_A), fmt(r.eig_near_zero),
                fmt(r.sigma_min_P), "" if r.n_minus is None else str(r.n_minus),
                ";".join(r.flags),
            ])


# ---------------------------------------------------------------------------
# Locus tracing (detector ii)

@dataclass(frozen=True)
class LocusResult:
    """Exceptional locus eps*(phi) for a perturbation strength lambda.

    The first-order prediction carried here is eps = (mu/nu) lambda, the
    zero of the Rayleigh eigenvalue xi = -(mu/nu) lambda + eps of the
    weighted criterion operator (in the normalization where the eps-slope
    is +1); mu = int omega q dS and nu = |bd O|.
    """

    lam: float
    mu: float
    nu: float
    angles: np.ndarray
    eps_star: np.ndarray
    rays_traced: int
    failures: tuple[str, ...] = ()

    @property
    def prediction(self) -> float:
        return self.mu * self.lam / self.nu

    @property
    def ratio_errors(self) -> np.ndarray:
        return np.abs(self.eps_star / self.prediction - 1.0)

    @property
    def max_ratio_error(self) -> float:
        return float(np.max(self.ratio_errors))

    @property
    def ratio_errors_unnormalized(self) -> np.ndarray:
        """Deviation from the mu*lambda prediction (no 1/nu); kept for
        comparison, the measured locus excludes it on any nu != 1 curve."""
        return np.abs(self.eps_star / (self.mu * self.lam) - 1.0)

    @property
    def mean_eps(self) -> float:
        return float(np.mean(self.eps_star))

    def log_abs_k(self) -> np.ndarray:
        """ln|k*| along the locus (|k*| itself may underflow)."""
        return np.array([log_abs_k_from_eps(e, self.nu) for e in self.eps_star])


def _bracketed_root(f, a, fa, b, fb, xtol):
    """The end with the smaller |f| of a bracket of width <= xtol around a sign change
    of f, from ends a, b whose values fa, fb the caller has evaluated.  False-position
    steps are kept xtol/2 inside the bracket, and a step after the first that has not
    halved it is followed by a bisection: at most 2 ceil(log2(|b - a| / xtol)) + 1
    evaluations, none repeated and none outside the bracket."""
    secant = first = True
    while abs(b - a) > xtol and fa * fb < 0:
        width = abs(b - a)
        x = a - fa * (b - a) / (fb - fa) if secant else 0.5 * (a + b)
        x = min(max(x, min(a, b) + 0.5 * xtol), max(a, b) - 0.5 * xtol)
        fx = f(x)
        if (fx < 0) == (fa < 0):
            a, fa = x, fx
        else:
            b, fb = x, fx
        secant, first = first or abs(b - a) <= 0.5 * width, False
    return a if abs(fa) < abs(fb) else b


def check_locus_lambda(lam: float) -> None:
    """The locus expansion is for small lambda > 0: a ValueError unless 0 < lam <= 0.1."""
    if not 0 < lam <= 0.1:
        raise ValueError(f"locus tracing expects 0 < lambda <= 0.1, got {lam}")


def trace_locus(lam: float, family: PerturbedFamily, nodes: NodeSet, angles,
                xtol_rel: float = 1e-6) -> LocusResult:
    """Root-find eps*(phi) with eig_near_zero(A(k(eps, phi))) = 0 for n_lambda.

    Requires small lambda > 0 and mu > 0.  Rays without a sign change are
    reported as failures (for lambda > 0 that contradicts the expansion
    and indicates resolution failure).  Each eps is evaluated once per ray (the
    widening's capped end eps = 0.6 aside): each widening step moves both ends,
    and :func:`_bracketed_root` starts from the evaluated bracket ends and returns
    eps* within xtol = xtol_rel * (mu/nu) lambda of the sign change.
    For an n_lambda whose samples have angular bandwidth 0
    (:meth:`DiskDtnSolver.angular_modes`) on a centred circle, F_n is
    rotation invariant and S_k rotation covariant, so A(k) rotates with
    arg k and eps* does not depend on phi (the exceptional set is a union
    of circles): only the first angle is traced, and its eps* is fanned
    out to every angle.
    """
    check_locus_lambda(lam)
    muval = mu_for_family(family)
    if muval <= 0:
        raise ValueError(f"mu = {muval:.3e} <= 0: no locus is predicted")
    pot = family.at(lam)
    nu = nodes.length
    target = muval * lam / nu
    lo0, hi0 = 0.2 * target, 3.0 * target

    def ray(phi):
        """(eps*, None) on a ray, or (nan, the bracket without a sign change)."""
        def f(eps):
            return criterion(KPoint.from_eps(eps, phi, nu), pot, nodes).eig_near_zero

        lo, hi = lo0, hi0
        flo, fhi = f(lo), f(hi)
        widen = 0
        while flo * fhi > 0 and widen < 6:
            lo, hi = lo * 0.5, min(hi * 1.5, 0.6)
            flo, fhi = f(lo), f(hi)
            widen += 1
        if flo * fhi > 0:
            return np.nan, (lo, hi)
        return _bracketed_root(f, lo, flo, hi, fhi, xtol_rel * target), None

    angles = np.asarray(angles, dtype=float)
    if nodes.centred_circle and set(DiskDtnSolver(nodes.n_nodes).angular_modes(pot)) <= {0}:
        traced = [ray(angles[0])] if angles.size else []
        per_angle = traced * angles.size
    else:
        traced = per_angle = [ray(phi) for phi in angles]
    eps_star = np.array([eps for eps, _ in per_angle], dtype=float).reshape(angles.shape)
    failures = tuple(f"phi={phi:.4f}: no sign change of eig_near_zero in eps [{bad[0]:.3g}, {bad[1]:.3g}]"
                     for phi, (_, bad) in zip(angles, per_angle) if bad is not None)
    return LocusResult(float(lam), muval, float(nu), angles, eps_star, len(traced), failures)


# ---------------------------------------------------------------------------
# xi(lambda, eps) expansion fit (detector ii, coefficients)

@dataclass(frozen=True)
class XiCurve:
    """Samples (lam, eps, xi) of xi = eig_near_zero and their linear fit."""

    samples: list
    a: float
    b: float
    residual: float
    xi00: float


def fit_xi(family: PerturbedFamily, nodes: NodeSet, lambda_grid, eps_grid) -> XiCurve:
    """Sample xi = eig_near_zero of A(k) for n_lambda on the grid; fit xi ~ a lam + b eps.

    The k of each eps lies on the ray arg k = 0, and eps = 0 takes the limit
    F^out(0).  While |xi| stays well below the next eigenvalue (about 2), the
    eigenvalue nearest zero is the branch through the zero mode at (0,0).  The
    least-squares fit has no intercept (the anchor xi(0,0) = 0 is recorded
    separately in ``xi00``).
    """
    lambda_grid = np.sort(np.asarray(lambda_grid, dtype=float))
    eps_grid = np.sort(np.asarray(eps_grid, dtype=float))
    if np.any(np.abs(lambda_grid) > 0.1) or np.any(eps_grid > 0.1) or np.any(eps_grid < 0):
        raise ValueError("fit_xi grids must sit in |lambda| <= 0.1, 0 <= eps <= 0.1")
    nu = nodes.length
    # S_k does not depend on lambda: one workspace per nonzero eps serves every lambda
    spaces = [(eps, None if eps == 0.0 else KWorkspace(KPoint.from_eps(eps, 0.0, nu), nodes))
              for eps in eps_grid]
    xi00 = _eig_near_zero(_weighted_a(None, family.base, nodes)[1])
    samples = [(float(lam), float(eps), _eig_near_zero(_weighted_a(ws, family.at(lam), nodes)[1]))
               for lam in lambda_grid for eps, ws in spaces]

    arr = np.array(samples)
    design, target = arr[:, :2], arr[:, 2]
    coef, *_ = np.linalg.lstsq(design, target, rcond=None)
    resid = float(np.sqrt(np.mean((design @ coef - target) ** 2)))
    return XiCurve(samples, float(coef[0]), float(coef[1]), resid, xi00)


# ---------------------------------------------------------------------------
# Parity along paths (detector iii)

@dataclass(frozen=True)
class ParityVerdict:
    evidence: bool
    message: str
    bracket: tuple[KPoint, KPoint] | None = None
    record_a: ParityRecord | None = None
    record_b: ParityRecord | None = None
    flags: tuple[str, ...] = ()


def _det_parity(k, n: Potential, nodes: NodeSet) -> int | None:
    """The parity of n^-(k) from the sign of det P(k), one LU (slogdet), or None where det P is 0 or not
    finite.  For a real P, det P is the product of |lambda|^2 over the complex pairs times the real
    eigenvalues, so sign det P = (-1)^{n^-}; a complex P reads the real part of slogdet's sign."""
    sign, logdet = np.linalg.slogdet(assemble_P(k, n, nodes).matrix)
    if not np.isfinite(logdet):   # -inf where det P = 0
        return None
    return int(np.real(sign) < 0)


def parity_path(k_a, k_b, n: Potential, nodes: NodeSet) -> ParityVerdict:
    """Bisect a path for the parity jump of n^-; returns a bracketing interval.

    The path interpolates linearly in (ln|k|, arg k), an analytic arc that
    cannot pass through k = 0, and is bisected down to PARITY_RESOLUTION of
    its length.  The endpoints are counted by :func:`n_minus` (``record_a``,
    ``record_b``), and a count flagged as near-exceptional refuses the
    verdict.  Each midpoint reads only the parity, from the sign of det P
    (:func:`_det_parity`); one whose det P is 0 or not finite is flagged
    ``midpoint_near_exceptional`` and ends the bisection with the bracket
    +-1/4 of the current width around it.
    """
    k_a = KPoint.from_k(k_a)
    k_b = KPoint.from_k(k_b)

    def path(s: float) -> KPoint:
        return KPoint.from_polar_log((1 - s) * k_a.log_abs + s * k_b.log_abs, (1 - s) * k_a.phi + s * k_b.phi)

    rec_a = n_minus(path(0.0), n, nodes)
    rec_b = n_minus(path(1.0), n, nodes)
    if rec_a.near_exceptional or rec_b.near_exceptional:
        raise ValueError("endpoint n^- count is near-exceptional: parity verdict refused")
    if (rec_a.n_minus - rec_b.n_minus) % 2 == 0:
        return ParityVerdict(False, "no parity evidence", record_a=rec_a, record_b=rec_b)

    lo, hi = 0.0, 1.0
    par_lo = rec_a.n_minus % 2
    flags: list[str] = []
    while hi - lo > PARITY_RESOLUTION:
        mid = 0.5 * (lo + hi)
        par_mid = _det_parity(path(mid), n, nodes)
        if par_mid is None:
            flags.append(f"midpoint_near_exceptional@s={mid:.6f}")
            lo, hi = mid - 0.25 * (hi - lo), mid + 0.25 * (hi - lo)
            break
        if par_mid == par_lo:
            lo = mid
        else:
            hi = mid
    return ParityVerdict(
        True,
        f"parity jump bracketed in s = [{lo:.6f}, {hi:.6f}]",
        bracket=(path(lo), path(hi)),
        record_a=rec_a,
        record_b=rec_b,
        flags=tuple(flags),
    )
