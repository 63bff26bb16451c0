"""Potentials on the disk and the four Dirichlet-to-Neumann maps.

Interior maps: F_0 (Laplace) and F_n (Schrodinger with potential n).
Exterior maps: the Faddeev map F^out(k) = F_0 - (S_k)^{-1}, its continuous
extension F^out(0) (block-diagonal: 0 on constants, F_0 - B^{-1} on
mean-free data), and the classical bounded-solution map F_b^out.

F_0 and F_b^out are realized through the single-layer representation
u = Stilde[sigma] + c with mean-free sigma, which is complete for both the
interior and the bounded exterior problem:

    F_0      = (K' + I/2) B^{-1} P_perp,
    F_b^out  = (K' - I/2) B^{-1} P_perp,

with K' the adjoint double layer.  F_n wraps the polar collocation solver
in :mod:`faddeev_ep.disk_solver` and in this version requires the unit
disk (general curves are supported for the Laplace-only maps).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import __version__, sha256
from .boundary_ops import (
    HMINUS,
    HPLUS,
    BoundaryOperator,
    KWorkspace,
    OperatorCache,
    block_form,
    invert_on_meanfree,
)
from .disk_solver import DiskDtnSolver, radial_size
from .geometry import NodeSet
from .green import KPoint

__all__ = [
    "Potential",
    "PerturbedFamily",
    "zero_potential",
    "conductive_radial",
    "standard_conductive",
    "absorbing_potential",
    "raster_potential",
    "omega_radial_poly",
    "omega_poly_cos",
    "assemble_F0",
    "assemble_Fn",
    "fn_supported",
    "fn_key",
    "assemble_Fout",
    "assemble_Fout_zero",
    "assemble_Fout_bounded",
    "adjoint_double_layer",
]


@dataclass(frozen=True)
class Potential:
    """Complex-valued potential n(z) supported in the closed unit disk.

    A potential is its values: stored operators are keyed on its samples on
    the interior solver's grid (:func:`fn_key`), so two potentials with equal
    values share an entry.  It declares no symmetry either: whether n is real,
    and whether its samples have angular bandwidth 0
    (:meth:`DiskDtnSolver.angular_modes`), is read from those samples.
    ``q_fn`` is the radial conductivity of a conductive n, which mu reads.
    """

    eval_fn: Callable[[np.ndarray], np.ndarray]
    q_fn: Callable[[np.ndarray], np.ndarray] | None = None
    # each key has one owner, which alone reads and writes it: ("sampled", N) -> (sha256 of the
    # interior solver's samples of n, their angular modes, whether they are real), DiskDtnSolver.sampled;
    # ("Fn", N) -> F_n, assemble_Fn; ("route_refs", N) -> (P_ref^{-1}, A_ref^{-1}), exceptional.route_references
    memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def eval(self, z) -> np.ndarray:
        """n(z) for complex z (vectorized); zero outside the closed disk."""
        z = np.asarray(z, dtype=complex)
        vals = np.asarray(self.eval_fn(z), dtype=complex)
        return np.where(np.abs(z) <= 1.0, vals, 0.0)


def zero_potential() -> Potential:
    return Potential(lambda z: np.zeros(np.shape(z)))


_CONDUCTIVE_TOL = 1e-4   # relative finite-difference error _check_conductive accepts


def _check_conductive(n_fn, q_fn) -> None:
    """Verify n = -q^{-1/2} Lap q^{1/2} by finite differences on 120 golden-angle points."""
    j = np.arange(120)
    r, th = 0.05 + 0.9 * (j + 0.5) / 120, 2 * np.pi * np.mod(j * (np.sqrt(5) - 1) / 2, 1)
    x, y = r * np.cos(th), r * np.sin(th)
    h = 1e-3

    def f(xx, yy):
        return np.sqrt(np.asarray(q_fn(np.abs(xx + 1j * yy)), dtype=float))

    lap = (f(x + h, y) + f(x - h, y) + f(x, y + h) + f(x, y - h) - 4 * f(x, y)) / h**2
    n_fd = -lap / f(x, y)
    n_stored = np.asarray(n_fn(x + 1j * y), dtype=complex).real
    scale = max(1.0, float(np.max(np.abs(n_stored))))
    err = float(np.max(np.abs(n_fd - n_stored))) / scale
    if err > _CONDUCTIVE_TOL:
        raise ValueError(f"conductive structure check failed: |n_fd - n| = {err:.3e} > {_CONDUCTIVE_TOL}")


def conductive_radial(q, dq, d2q) -> Potential:
    """Conductive potential n = -q^{-1/2} Lap q^{1/2} from a radial q > 0.

    ``q, dq, d2q`` are vectorized radial callables; q must be C^2 with
    q - 1 vanishing outside the disk (q(1) = 1, q'(1) = 0).  n is checked
    against q by finite differences; a mismatch raises ValueError.
    """

    def n_radial(r):
        r = np.asarray(r, dtype=float)
        qq = np.asarray(q(r), dtype=float)
        if np.any(qq <= 0):
            raise ValueError("conductivity q must be positive")
        qp = np.asarray(dq(r), dtype=float)
        qpp = np.asarray(d2q(r), dtype=float)
        # -( q''/2q - q'^2/4q^2 + q'/2qr ), with the r -> 0 limit q''(0)/2q(0)
        small = r < 1e-8
        last = np.where(small, qpp / (2 * qq), qp / (2 * qq * np.where(small, 1.0, r)))
        return -(qpp / (2 * qq) - qp**2 / (4 * qq**2) + last)

    pot = Potential(lambda z: n_radial(np.abs(z)),
                    q_fn=lambda r: np.asarray(q(np.asarray(r, dtype=float)), dtype=float))
    _check_conductive(pot.eval, pot.q_fn)
    return pot


def standard_conductive(amplitude: float = 2.0, power: int = 3) -> Potential:
    """The canonical radial fixture q = 1 + amplitude (1 - r^2)^power."""
    a, p = float(amplitude), int(power)
    if p < 2:
        raise ValueError("power >= 2 keeps q in C^2 across the boundary")

    def q(r):
        s = 1 - np.minimum(r, 1.0) ** 2
        return 1 + a * s**p

    def dq(r):
        r = np.minimum(r, 1.0)
        s = 1 - r**2
        return -2 * a * p * r * s ** (p - 1)

    def d2q(r):
        r = np.minimum(r, 1.0)
        s = 1 - r**2
        return -2 * a * p * (s ** (p - 1) - 2 * (p - 1) * r**2 * s ** (p - 2))

    return conductive_radial(q, dq, d2q)


def absorbing_potential(delta: float = 1.0) -> Potential:
    """n = i * delta on the disk (Im n >= delta > 0)."""
    if delta <= 0:
        raise ValueError(f"absorption delta must be positive, got {delta}")
    d = float(delta)
    return Potential(lambda z: 1j * d * np.ones(np.shape(z)))


def raster_potential(path) -> Potential:
    """Gridded n(z) from a JSON raster: {x0, y0, dx, dy, re: [[..]], im: [[..]]}.

    Bilinear interpolation inside the raster, zero outside it and outside
    the closed unit disk.  A raster under 2 x 2, ``im`` shaped unlike ``re``, a
    non-finite value or a bad grid is a ValueError.
    """
    with open(path) as fh:
        doc = json.load(fh)
    re = np.asarray(doc["re"], dtype=float)
    im = np.asarray(doc.get("im", np.zeros_like(re)), dtype=float)
    x0, y0, dx, dy = grid = [float(doc[k]) for k in ("x0", "y0", "dx", "dy")]
    if (re.ndim != 2 or min(re.shape) < 2 or im.shape != re.shape or min(dx, dy) <= 0
            or not all(np.all(np.isfinite(a)) for a in (grid, re, im))):
        raise ValueError(f"raster {path} needs finite re and im of one shape of at least 2 x 2, finite x0, y0 and "
                         f"finite dx, dy > 0; got re {re.shape}, im {im.shape}, x0 {x0}, y0 {y0}, dx {dx}, dy {dy}")
    vals = re + 1j * im
    ny, nx = vals.shape

    def interp(z):
        z = np.asarray(z, dtype=complex)
        fx = (z.real - x0) / dx
        fy = (z.imag - y0) / dy
        ix = np.clip(np.floor(fx).astype(int), 0, nx - 2)
        iy = np.clip(np.floor(fy).astype(int), 0, ny - 2)
        tx = np.clip(fx - ix, 0.0, 1.0)
        ty = np.clip(fy - iy, 0.0, 1.0)
        v = (
            vals[iy, ix] * (1 - tx) * (1 - ty)
            + vals[iy, ix + 1] * tx * (1 - ty)
            + vals[iy + 1, ix] * (1 - tx) * ty
            + vals[iy + 1, ix + 1] * tx * ty
        )
        inside = (fx >= 0) & (fx <= nx - 1) & (fy >= 0) & (fy <= ny - 1)
        return np.where(inside, v, 0.0)

    return Potential(interp)


# ---------------------------------------------------------------------------
# Perturbation profiles and families

def omega_radial_poly(power: int = 3, amplitude: float = 1.0):
    """Radial profile omega = amplitude (1 - r^2)^power."""
    a, p = float(amplitude), int(power)

    def fn(z):
        r = np.abs(np.asarray(z, dtype=complex))
        s = np.maximum(1 - r**2, 0.0)
        return a * s**p

    return fn


def omega_poly_cos(power: int = 3, amplitude: float = 1.0, cos_coeff: float = 0.5):
    """omega = amplitude (1 - r^2)^power (1 + cos_coeff cos theta)."""
    a, p, c = float(amplitude), int(power), float(cos_coeff)

    def fn(z):
        z = np.asarray(z, dtype=complex)
        r = np.abs(z)
        s = np.maximum(1 - r**2, 0.0)
        with np.errstate(invalid="ignore", divide="ignore"):
            cos_th = np.where(r > 0, z.real / np.where(r > 0, r, 1.0), 0.0)
        return a * s**p * (1 + c * cos_th)

    return fn


@dataclass(frozen=True)
class PerturbedFamily:
    """n_lambda = n + lambda omega for a conductive base n and real profile omega."""

    base: Potential
    omega_fn: Callable
    _members: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def at(self, lam: float) -> Potential:
        """n_lambda; one Potential object per lambda, so its F_n key is sampled once."""
        lam = float(lam)
        if lam == 0.0:
            return self.base
        return self._members.get(lam) or self._members.setdefault(lam, self._perturbed(lam))

    def _perturbed(self, lam: float) -> Potential:
        base = self.base

        def fn(z):
            return base.eval_fn(np.asarray(z, dtype=complex)) + lam * self.omega_fn(z)

        return Potential(fn, q_fn=base.q_fn)


# ---------------------------------------------------------------------------
# DtN maps

#: adjoint_double_layer forms K' this many rows at a time, so no N x N temporary is made
_KPRIME_ROWS = 32


def adjoint_double_layer(nodes: NodeSet, k=None) -> np.ndarray:
    """Nystrom matrix of K' (``k`` None) or of K_k': density -> normal derivative
    of its Laplace or Faddeev single layer.

    K' has kernel -(1/2pi) (z-z').nu_z / |z-z'|^2 with the curvature diagonal
    limit -kappa/(4 pi), formed in real arithmetic a block of rows at a time, so
    its only N x N array is the result.  K_k' adds the normal derivative of
    N(k(z-z')): since d/dz Re E1(-ikz)/2pi = Re(-e^{ikz}/(2pi z)), that kernel is
    Re(-expm1(ik(z-z')) nu_z / (2pi (z-z'))), with diagonal Re(-ik nu_z)/(2pi).
    """
    z, nu, w = nodes.z, nodes.normals, nodes.weights
    kern = np.empty((nodes.n_nodes, nodes.n_nodes))
    for i in range(0, nodes.n_nodes, _KPRIME_ROWS):
        rows = slice(i, i + _KPRIME_ROWS)
        dx, dy = z.real[rows, None] - z.real, z.imag[rows, None] - z.imag
        with np.errstate(invalid="ignore", divide="ignore"):   # the diagonal is set below
            kern[rows] = -(dx * nu.real[rows, None] + dy * nu.imag[rows, None]) / (2 * np.pi * (dx * dx + dy * dy))
    diag = -nodes.curvature / (4 * np.pi)
    if k is not None:
        ik = 1j * KPoint.from_k(k).k
        dz = z[:, None] - z[None, :]
        with np.errstate(invalid="ignore", divide="ignore"):
            kern += (-np.expm1(ik * dz) * nu[:, None] / (2 * np.pi * dz)).real
        diag = diag + (-ik * nu).real / (2 * np.pi)
    np.fill_diagonal(kern, diag)
    kern *= w
    return kern


def _f0_matrix(nodes: NodeSet) -> np.ndarray:
    """k-independent F_0 = (K' + I/2) B^{-1} P_perp, kept in ``nodes.memo`` beside the B^{-1} it reads."""
    f0 = nodes.memo.get("f0")
    if f0 is None:
        binv = invert_on_meanfree(nodes)   # before K', so that B and its inverse are not formed beside it
        kprime = adjoint_double_layer(nodes)
        kprime.flat[:: nodes.n_nodes + 1] += 0.5   # K' + I/2
        f0 = kprime @ binv
        f0.flags.writeable = False
        f0 = nodes.memo.setdefault("f0", f0)
    return f0


def assemble_F0(nodes: NodeSet) -> BoundaryOperator:
    """Interior Laplace Dirichlet-to-Neumann map (annihilates constants)."""
    return BoundaryOperator(_f0_matrix(nodes), HPLUS, HMINUS, nodes)


def assemble_Fout_bounded(nodes: NodeSet) -> BoundaryOperator:
    """Exterior Laplace map built from bounded solutions: (K' - I/2) B^{-1} P_perp = F_0 - B^{-1} P_perp."""
    return BoundaryOperator(_f0_matrix(nodes) - invert_on_meanfree(nodes), HPLUS, HMINUS, nodes)


def assemble_Fout_zero(nodes: NodeSet) -> BoundaryOperator:
    """Continuous k -> 0 limit of F^out: 0 on constants, F_0 - B^{-1} on mean-free."""
    return BoundaryOperator(block_form(assemble_Fout_bounded(nodes)).perp_perp, HPLUS, HMINUS, nodes)


def assemble_Fout(k, nodes: NodeSet) -> BoundaryOperator:
    """Exterior Faddeev map F^out(k) = F_0 - (S_k)^{-1}.

    Near the exterior-Dirichlet singular set the inversion of S_k refuses
    with NearSingularError; the refusal itself is the E_D detector.
    """
    return BoundaryOperator(_f0_matrix(nodes) - KWorkspace.at(k, nodes).inverse.matrix, HPLUS, HMINUS, nodes)


def fn_supported(nodes: NodeSet) -> bool:
    """Whether :func:`assemble_Fn` can assemble F_n on ``nodes``: the unit circle
    only, a centred circle {1: c} with |c - 1| < 1e-14."""
    c = nodes.curve
    return nodes.centred_circle and abs(c.coeffs[c.modes == 1][0] - 1.0) < 1e-14


def fn_key(nodes: NodeSet, potential: Potential) -> str:
    """Content key of F_n, stable across processes.

    sha256 over the potential's values on the interior solver's collocation
    grid (sampled once per Potential and N), N, the radial grid size and the
    package version: two potentials with equal values share one entry.
    """
    n = nodes.n_nodes
    digest = DiskDtnSolver(n).sampled(potential)[0]
    doc = {"operator": "F_n", "samples": digest, "n": n, "nh": radial_size(n), "version": __version__}
    return sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()


def assemble_Fn(nodes: NodeSet, potential: Potential, store: OperatorCache | None = None) -> BoundaryOperator:
    """Interior Schrodinger Dirichlet-to-Neumann map for -Lap - n on the disk.

    F_n is k-independent and reused across whole k-scans: it is kept in
    ``potential.memo`` for the potential's lifetime.  Only the first call per
    potential and N computes :func:`fn_key` and reads or writes the entry in
    ``store``; without a store it solves.
    """
    if not fn_supported(nodes):
        c = nodes.curve
        raise NotImplementedError(
            "F_n assembly requires the unit disk in this version; "
            f"got curve {c.name} {c.params} (Laplace-only maps support general curves)"
        )
    mat = potential.memo.get(("Fn", nodes.n_nodes))
    if mat is None:
        def build():
            return DiskDtnSolver(nodes.n_nodes).dtn_matrix(potential)

        mat = build() if store is None else store.get_or_build(fn_key(nodes, potential), build)
        mat = potential.memo.setdefault(("Fn", nodes.n_nodes), mat)
    return BoundaryOperator(mat, HPLUS, HMINUS, nodes)
