"""Single-layer operators on the boundary and the mean/mean-free calculus.

Operators are dense N x N matrices acting on node-value density vectors.
The logarithmic singularity of the single-layer kernels is handled by the
classical product quadrature for 2pi-periodic log kernels (exact for
trigonometric polynomials up to the Nyquist mode), so that on analytic
curves the assembly converges spectrally.

Sobolev weights realize the H^{+-1/2} norms as Fourier-mode multipliers
(max(1,|m|))^s in the trigonometric basis of the parameter circle; every
singular-value statement about an operator H^a -> H^b is made on the
weight-symmetrized matrix W_b M W_{-a}.
"""

from __future__ import annotations

import contextlib
import json
import logging
import os
import struct
import tempfile
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import sha256
from .geometry import NodeSet
from .green import EULER_GAMMA, KPoint, gauss_legendre

__all__ = [
    "HMINUS",
    "HPLUS",
    "L2",
    "BoundaryOperator",
    "BlockForm",
    "NearSingularError",
    "log_quadrature_matrix",
    "assemble_log_layer",
    "assemble_S0",
    "SingleLayer",
    "assemble_S",
    "assemble_B",
    "mean_projectors",
    "block_form",
    "checked_inverse",
    "updated_inverse",
    "LayerReference",
    "layer_reference",
    "invert_S",
    "KWorkspace",
    "invert_on_meanfree",
    "weighted_matrix",
    "sigma_min",
    "operator_norm",
    "adjoint_arclength",
    "meanfree_form_gap",
    "save_operator",
    "load_operator",
    "OperatorCache",
]

HMINUS = "H-1/2"
HPLUS = "H+1/2"
L2 = "L2"

_SPACE_ORDER = {HMINUS: -0.5, HPLUS: 0.5, L2: 0.0}

#: invert_S refuses S_k (E_D) where 1/cond_1 of the weighted S_k, read from its update, is below this
SINGULARITY_THRESHOLD = 1e-6


class NearSingularError(RuntimeError):
    """A boundary system is numerically singular (k near E_D or E); the message names ``k``."""

    def __init__(self, message, sigma_min=None, norm=None, k=None, suspected=None):
        super().__init__(message)
        self.sigma_min = sigma_min
        self.norm = norm
        self.k = k
        self.suspected = suspected

    def __str__(self):
        return super().__str__() if self.k is None else f"at {self.k}: {super().__str__()}"

    def at(self, k) -> "NearSingularError":
        """A fresh copy of this refusal, raised at ``k``."""
        return NearSingularError(self.args[0], self.sigma_min, self.norm, k, self.suspected)


@dataclass(frozen=True)
class BoundaryOperator:
    """Dense operator between boundary Sobolev spaces in the node basis."""

    matrix: np.ndarray
    domain_space: str
    range_space: str
    nodes: NodeSet

    def __post_init__(self):
        n = self.nodes.n_nodes
        if self.matrix.shape != (n, n):
            raise ValueError(f"matrix shape {self.matrix.shape} does not match NodeSet with N={n}")
        if self.domain_space not in _SPACE_ORDER or self.range_space not in _SPACE_ORDER:
            raise ValueError(f"unknown space tag in ({self.domain_space}, {self.range_space})")
        self.matrix.flags.writeable = False


def _circulant(symbol: np.ndarray) -> np.ndarray:
    """Real circulant matrix with eigenvalue symbol[m] on DFT mode m (in FFT order)."""
    n = len(symbol)
    row = np.fft.ifft(symbol).real
    return row[(np.arange(n)[:, None] - np.arange(n)[None, :]) % n]


def log_quadrature_matrix(n_nodes: int) -> np.ndarray:
    """Circulant weights R with sum_j R[i,j] f(t_j) ~ int ln(4 sin^2((t_i-t)/2)) f(t) dt.

    Exact on trigonometric polynomials through the Nyquist mode: the
    circulant eigenvalue on e^{imt} is -2pi/|m| (0 at m=0).
    """
    if n_nodes % 2 or n_nodes < 4:
        raise ValueError(f"log quadrature needs an even node count >= 4, got {n_nodes}")
    m = np.abs(np.fft.fftfreq(n_nodes) * n_nodes)
    lam = np.zeros(n_nodes)
    lam[m > 0] = -2 * np.pi / m[m > 0]
    return _circulant(lam)


def _log_kernel_matrix(nodes: NodeSet) -> np.ndarray:
    """Nystrom matrix of the single layer with kernel -(1/2pi) ln|z - z'|.

    k-independent, kept in ``nodes.memo`` (scans reassemble S_k at many k).
    """
    cached = nodes.memo.get("log_kernel")
    if cached is not None:
        return cached
    n, t, x, y, speed = nodes.n_nodes, nodes.t, nodes.z.real, nodes.z.imag, nodes.speed
    ratio = (x[:, None] - x) ** 2 + (y[:, None] - y) ** 2   # |z_i - z_j|^2 in reals, over 4 sin^2((t_i - t_j)/2) below
    sin2 = 4.0 * np.sin((t[:, None] - t) / 2.0) ** 2
    np.fill_diagonal(ratio, 1.0)   # the diagonal of the log is set below
    np.fill_diagonal(sin2, 1.0)
    ratio /= sin2
    del sin2
    np.log(ratio, out=ratio)
    np.fill_diagonal(ratio, 2 * np.log(speed))   # the ratio's limit on the diagonal is |z'(t)|^2
    mat = log_quadrature_matrix(n) / (-4 * np.pi)
    mat -= ratio / (2 * n)   # (2pi/n) (-1/4pi) ln ratio
    mat *= speed
    mat.flags.writeable = False
    return nodes.memo.setdefault("log_kernel", mat)


def assemble_log_layer(nodes: NodeSet) -> BoundaryOperator:
    """Full (unrestricted) log single layer -(1/2pi) ln|z-z'| on all densities."""
    return BoundaryOperator(_log_kernel_matrix(nodes), HMINUS, HPLUS, nodes)


def assemble_S0(k, nodes: NodeSet) -> BoundaryOperator:
    """Single layer S_k^0 with kernel G_k^0 = -(1/2pi) ln|z-z'| - gamma/2pi - ln|k|/2pi."""
    const = (EULER_GAMMA + KPoint.from_k(k).log_abs) / (2 * np.pi)
    return BoundaryOperator(_log_kernel_matrix(nodes) - const * nodes.weights[None, :], HMINUS, HPLUS, nodes)


#: (reach, m): assemble_S takes the m-point Gauss-Legendre rule for Ein from the first row whose
#: reach covers |k| 2 max|z - mean z| >= |k| max|z_i - z_j|.  Against mpmath, N(w) is then within
#: 1e-15 max(1, |Ein(-iw)|/2pi) for |w| <= 10, 3.2e-15 to 24 and 7.1e-14 to 64 (rounding of e^{iwt}).
_EIN_ORDERS = ((3e-3, 2), (0.1, 4), (1.0, 6), (5.0, 10), (10.0, 14), (24.0, 24), (64.0, 32))


def _ein_factors(kp: KPoint, nodes: NodeSet) -> tuple[np.ndarray, np.ndarray]:
    """Real N x r factors X, Y with S_k = L + X Y^T, r = 2m + 1 (see :func:`assemble_S`); the
    constant column of X, whose column of Y carries ln|k|, is the last."""
    z = nodes.z - np.mean(nodes.z)
    reach = 2 * kp.abs * np.max(np.abs(z))
    m = next((m for r, m in _EIN_ORDERS if reach <= r), None)
    if m is None:
        raise ValueError(f"S_k at |k| = {kp.abs:.4g} needs the Ein rule beyond its table's reach "
                         f"|k| 2 max|z - mean z| = {_EIN_ORDERS[-1][0]:g}")
    gx, gw = gauss_legendre(m)
    t, c = 0.5 * (gx + 1.0), gw / (gx + 1.0)
    ikzt = 1j * kp.kz(z)[:, None] * t
    a, b = np.exp(ikzt), np.exp(-ikzt)
    v = (nodes.speed / nodes.n_nodes)[:, None]
    x = np.hstack([a.real, a.imag, np.ones_like(v)])
    y = np.hstack([-c * b.real * v, c * b.imag * v, (np.sum(c) - EULER_GAMMA - kp.log_abs) * v])
    return x, y


@dataclass(frozen=True)
class SingleLayer(BoundaryOperator):
    """S_k = L + x y^T with the real N x r factors it was formed from (:func:`assemble_S`)."""

    x: np.ndarray
    y: np.ndarray

    def reference_factors(self) -> tuple[np.ndarray, np.ndarray]:
        """(X, Y') with S_k = S_ref + X Y'^T (:func:`layer_reference`): Y less alpha v in its constant column."""
        y = self.y.copy()
        y[:, -1] -= layer_reference(self.nodes).alpha * self.nodes.speed / self.nodes.n_nodes
        return self.x, y


def assemble_S(k, nodes: NodeSet) -> SingleLayer:
    """Faddeev single layer S_k = S_k^0 + Nystrom(N(k(z - z'))) in one real N x N GEMM.

    Ein(s) = int_0^1 (1 - e^{-st})/t dt, so with the nodes t_q of a Gauss-Legendre rule on [0, 1]
    and c_q = its weights / t_q, 2pi N(k(z_i - z_j)) = sum_q c_q (1 - Re(a_iq b_jq)) for
    a = e^{ikzt} and b = e^{-ikzt}.  Then S_k = L + X Y^T with the log kernel L, X = [Re a, Im a, 1]
    and Y = [-c Re b, c Im b, sum c - gamma - ln|k|] times the column scale |z'(t_j)|/N, of rank
    2m + 1.  z is centred at its mean, which leaves w = k(z_i - z_j) and shrinks |a| and |b|.
    S_k carries X and Y, which :func:`invert_S` and the transform's routes update from.
    """
    x, y = _ein_factors(KPoint.from_k(k), nodes)
    mat = x @ y.T
    mat += _log_kernel_matrix(nodes)
    x.flags.writeable = y.flags.writeable = False
    return SingleLayer(mat, HMINUS, HPLUS, nodes, x, y)


def mean_projectors(nodes: NodeSet) -> tuple[np.ndarray, np.ndarray]:
    """(P_const, P_perp) as dense matrices; the package applies P_perp by rank-one updates instead."""
    pc = np.outer(np.ones(nodes.n_nodes), nodes.weights) / nodes.length
    return pc, np.eye(nodes.n_nodes) - pc


def _project_out(m: np.ndarray, v: np.ndarray, u: np.ndarray | None = None) -> np.ndarray:
    """(I - u v^T) m (I - u v^T), u = 1 by default (then P_perp m P_perp for v = w/nu), by
    two rank-one updates of a copy of m: no dense projector and no N^3 product."""
    out = m - np.outer(m.sum(axis=1) if u is None else m @ u, v)
    out -= v @ out if u is None else np.outer(u, v @ out)
    return out


def assemble_B(nodes: NodeSet) -> BoundaryOperator:
    """Log single layer restricted to mean-free densities (the perp-perp block)."""
    return BoundaryOperator(_project_out(_log_kernel_matrix(nodes), nodes.weights / nodes.length), HMINUS, HPLUS, nodes)


def invert_on_meanfree(nodes: NodeSet) -> np.ndarray:
    """B^{-1} on mean-free densities and 0 on constants, P_perp (P_perp B P_perp + 1 c^T)^{-1}: the NodeSet's one
    factorization of the log layer, kept in ``nodes.memo``, which F_0, F_b^out and :func:`layer_reference` read."""
    inv = nodes.memo.get("meanfree_inverse")
    if inv is None:
        c = nodes.weights / nodes.length
        inv = np.linalg.inv(assemble_B(nodes).matrix + c)   # + 1 c^T
        inv -= c @ inv   # P_perp on the left
        inv.flags.writeable = False
        inv = nodes.memo.setdefault("meanfree_inverse", inv)
    return inv


@dataclass(frozen=True)
class BlockForm:
    """Operator blocks in the splitting psi = (c, phi), c = mean, phi = psi - c."""

    cc: complex
    c_perp: np.ndarray   # row functional on mean-free inputs, outputs a constant
    perp_c: np.ndarray   # mean-free column generated by a unit constant input
    perp_perp: np.ndarray
    nodes: NodeSet

    def reassemble(self) -> np.ndarray:
        c = self.nodes.weights / self.nodes.length   # 1 (cc c^T + c_perp) + perp_c c^T + perp_perp
        return (self.cc * c + self.c_perp) + np.outer(self.perp_c, c) + self.perp_perp


def block_form(op: BoundaryOperator) -> BlockForm:
    """Project an operator onto the constants/mean-free block decomposition."""
    c = op.nodes.weights / op.nodes.length
    m = op.matrix
    row, col = c @ m, m.sum(axis=1)   # c^T M and M 1
    cc = c @ col
    return BlockForm(cc, row - row.sum() * c, col - cc, _project_out(m, c), op.nodes)


# ---------------------------------------------------------------------------
# Sobolev weights and weighted singular data

def _mode_multipliers(n: int, order: float) -> np.ndarray:
    m = np.abs(np.fft.fftfreq(n) * n)
    return np.maximum(1.0, m) ** order


def _sobolev_apply(m: np.ndarray, order: float, axis: int = 0) -> np.ndarray:
    """The order-s weight W applied to m along ``axis`` (W m for axis 0, m W for the last axis) by FFT:
    W is a real symmetric circulant, so no N x N W is formed, and a complex m takes it on its real
    and imaginary parts."""
    if np.iscomplexobj(m):
        return _sobolev_apply(m.real, order, axis) + 1j * _sobolev_apply(m.imag, order, axis)
    n = m.shape[axis]
    mult = _mode_multipliers(n, order)[: n // 2 + 1]
    f = np.fft.rfft(m, axis=axis)
    f *= mult[:, None] if axis == 0 else mult
    return np.fft.irfft(f, n, axis=axis)


def weighted_matrix(op: BoundaryOperator) -> np.ndarray:
    """W_b M W_{-a} for M: H^a -> H^b, whose singular values are the operator's."""
    a = _SPACE_ORDER[op.domain_space]
    b = _SPACE_ORDER[op.range_space]
    m = op.matrix
    if b != 0.0:
        m = _sobolev_apply(m, b)
    if a != 0.0:
        m = _sobolev_apply(m, -a, axis=1)
    return m


def sigma_min(op: BoundaryOperator) -> float:
    return float(np.linalg.svd(weighted_matrix(op), compute_uv=False)[-1])


def operator_norm(op: BoundaryOperator) -> float:
    return float(np.linalg.svd(weighted_matrix(op), compute_uv=False)[0])


def adjoint_arclength(matrix: np.ndarray, nodes: NodeSet) -> np.ndarray:
    """Adjoint with respect to the arc-length inner product sum w_j u_j conj(v_j)."""
    w = nodes.weights
    return (matrix.conj().T * w[None, :]) / w[:, None]


def meanfree_form_gap(op: BoundaryOperator) -> float:
    """-max of the Hermitian quadratic form of ``op`` over mean-free data.

    For a negative-definite-on-mean-free operator (such as the k -> 0
    exterior map) this is the spectral gap delta with
    (op phi, phi) <= -delta ||phi||^2 for all mean-free phi, measured in
    the weighted norms of the operator's spaces.  The mean-free constraint
    int phi dl = 0 turns into orthogonality to W_{-a} w in the weighted
    coordinates and is imposed by projection; a negative return value
    means the form has a positive mean-free direction.
    """
    a = _SPACE_ORDER[op.domain_space]
    wmat = weighted_matrix(op)
    herm = 0.5 * (wmat + wmat.conj().T)
    c = _sobolev_apply(op.nodes.weights, -a, axis=-1) if a != 0.0 else op.nodes.weights.copy()
    c = c / np.linalg.norm(c)
    eigs = np.sort(np.linalg.eigvalsh(_project_out(herm, c, c)).real)
    # the projected-out direction contributes one ~0 eigenvalue at the top
    return -float(eigs[-2])


def _refuse_beyond(norm: float, inv_norm: float, limit: float, what: str, k, suspected: str) -> None:
    """The refusal: NearSingularError naming ``suspected``, with sigma_min = 1/inv_norm and ``norm``,
    where the 1-norm condition norm * inv_norm exceeds ``limit`` or is not finite."""
    if not norm * inv_norm <= limit:   # nan, from a non-finite inverse, refuses too
        raise NearSingularError(f"{what} is near-singular: 1-norm condition {norm * inv_norm:.2e} > {limit:.0e}; "
                                f"suspected set {suspected}", 1.0 / inv_norm, norm, k, suspected)


def checked_inverse(mat, limit: float, what: str, k, suspected: str) -> np.ndarray:
    """mat^{-1} from one inv, which is also the refusal (NearSingularError naming ``suspected``, with
    sigma_min = 1/|mat^{-1}|_1 and norm = |mat|_1) where inv fails or |mat|_1 |mat^{-1}|_1 exceeds ``limit``
    or is not finite.

    It is the one inverse of a system that may be refused: the transform's k-independent P_ref and A_ref
    once, and per k only the r x r capacitances of :func:`updated_inverse` (S_ref's G is read from B^{-1})."""
    norm = float(np.linalg.norm(mat, 1))
    try:
        inv = np.linalg.inv(mat)
        inv_norm = float(np.linalg.norm(inv, 1))
    except np.linalg.LinAlgError:
        inv_norm = np.inf
    _refuse_beyond(norm, inv_norm, limit, what, k, suspected)
    return inv


def updated_inverse(ref_inv, u, vt, mat, limit: float, what: str, k, suspected: str, weighted=None) -> np.ndarray:
    """M^{-1} for M = M_ref + u vt (an N x r ``u``, an r x N ``vt``), as the rank-r update of ref_inv = M_ref^{-1}
    (Woodbury): ref_inv - (ref_inv u) C^{-1} (vt ref_inv), with the r x r capacitance C = I + vt ref_inv u,
    and one Newton step X + (I - X M) X.  ``mat`` is a function that returns M, for that step; no N x N
    system is inverted or solved.

    C^{-1} comes from :func:`checked_inverse`, refused where C is singular or not finite.  M^{-1} is refused
    on the measure of checked_inverse read from the update, before the step: |M|_1 |M^{-1}|_1, or with
    ``weighted`` = (|W' M W'|_1, W ref_inv W, order) for W = W_order (u and vt real) |W' M W'|_1 times
    |W ref_inv W - (W ref_inv u) C^{-1} (vt ref_inv W)|_1.  The update's rounding grows with the
    conditioning of M and of M_ref; after the step its residual |M^{-1} M - I|_1 is np.linalg.inv's."""
    m = None
    if weighted is None:
        m = mat()
        norm, weighted_ref_inv = float(np.linalg.norm(m, 1)), None
    else:
        norm, weighted_ref_inv, order = weighted
    hu = ref_inv @ u
    cap = vt @ hu
    cap.flat[:: len(cap) + 1] += 1.0   # + I
    cvh = checked_inverse(cap, np.finfo(float).max, f"the capacitance of {what}", k, suspected) @ (vt @ ref_inv)
    inv = hu @ cvh
    np.subtract(ref_inv, inv, out=inv)
    inv_hat = inv if weighted_ref_inv is None else (
        weighted_ref_inv - _sobolev_apply(hu, order) @ _sobolev_apply(cvh.T, order).T)
    inv_norm = float(np.linalg.norm(inv_hat, 1))
    del inv_hat
    _refuse_beyond(norm, inv_norm, limit, what, k, suspected)
    r = inv @ (mat() if m is None else m)
    del m
    r *= -1.0
    r.flat[:: len(r) + 1] += 1.0   # I - X M
    inv += r @ inv
    return inv


@dataclass(frozen=True)
class LayerReference:
    """The k-independent S_ref = L + alpha 1 v^T (v = |z'(t_j)|/N, the column scale of S_k's factors)
    of which every S_k is a rank-r update, and G = S_ref^{-1} (``inverse``), formed in blocks from B^{-1}.

    alpha makes the Schur complement of S_ref's constants block 1, so S_ref is invertible wherever B is
    on mean-free densities; on the unit circle alpha = 1 and the weighted S_ref has singular values 1/2
    and 1.  No fixed k would do: S_k^0 = L + (-gamma - ln|k|) 1 v^T, so alpha = 1 is S_k^0 at
    |k| = e^{-1-gamma}, which is singular on the circle of radius e.  ``weighted`` = W_{1/2} S_ref W_{1/2}
    and ``weighted_inverse`` = W_{-1/2} G W_{-1/2} carry the E_D measure of every S_k.
    """

    alpha: float
    inverse: np.ndarray
    weighted: np.ndarray
    weighted_inverse: np.ndarray


def layer_reference(nodes: NodeSet) -> LayerReference:
    """The NodeSet's :class:`LayerReference`, built once and kept in ``nodes.memo``, from L's blocks (cc, b;
    p, B) and B^{-1} (:func:`invert_on_meanfree`): 1 v^T adds to cc alone, so alpha sets cc - b B^{-1} p to 1,
    and then G = [[1, -b B^{-1}], [-B^{-1} p, B^{-1} + (B^{-1} p)(b B^{-1})]]; no N x N system is solved or
    inverted.  S_ref is refused (E_D) on the measure of S_k, or where G is not finite."""
    ref = nodes.memo.get("layer_reference")
    if ref is not None:
        return ref
    bf, binv = block_form(assemble_log_layer(nodes)), invert_on_meanfree(nodes)
    bp, bb = binv @ bf.perp_c, bf.c_perp @ binv   # B^{-1} p and b B^{-1}
    alpha = float((1.0 - (bf.cc - bf.c_perp @ bp)) * nodes.n_nodes / np.sum(nodes.speed))   # alpha 1^T v joins cc
    del bf
    g = BlockForm(1.0, -bb, -bp, np.outer(bp, bb) + binv, nodes).reassemble()
    s_ref = _log_kernel_matrix(nodes) + alpha * nodes.speed / nodes.n_nodes
    weighted = _sobolev_apply(_sobolev_apply(s_ref, 0.5), 0.5, axis=1)   # W_{1/2} S_ref W_{1/2}
    del s_ref
    ref = LayerReference(alpha, g, weighted, _sobolev_apply(_sobolev_apply(g, -0.5), -0.5, axis=1))
    _refuse_beyond(float(np.linalg.norm(ref.weighted, 1)), float(np.linalg.norm(ref.weighted_inverse, 1)),
                   1.0 / SINGULARITY_THRESHOLD, "S_ref", None, "E_D")
    for m in (g, ref.weighted, ref.weighted_inverse):
        m.flags.writeable = False
    return nodes.memo.setdefault("layer_reference", ref)


def invert_S(k, s_op: SingleLayer) -> BoundaryOperator:
    """S_k^{-1} as the rank-r update of the NodeSet's G = S_ref^{-1} (:func:`layer_reference`) for
    S_k = S_ref + X Y'^T, read from the S_k that :func:`assemble_S` formed and its factors
    (:meth:`SingleLayer.reference_factors`); that S_k is the matrix of the update's Newton step.

    Refused (E_D) when 1/(|S^|_1 |S^^{-1}|_1) < SINGULARITY_THRESHOLD, with S^ = W_{1/2} S_k W_{1/2}
    and S^^{-1} = W_{-1/2} S_k^{-1} W_{-1/2}, both read from the references at O(N^2 r), or where the
    r x r capacitance is singular or not finite.  r = 2m + 1 is 5 or 9 for |k| <= 1e-2; no N x N
    system is inverted per k.
    """
    ref = layer_reference(s_op.nodes)
    x, y = s_op.reference_factors()
    norm = float(np.linalg.norm(ref.weighted + _sobolev_apply(x, 0.5) @ _sobolev_apply(y, 0.5).T, 1))
    inv = updated_inverse(ref.inverse, x, y.T, lambda: s_op.matrix, 1.0 / SINGULARITY_THRESHOLD, "S_k",
                          KPoint.from_k(k), "E_D", (norm, ref.weighted_inverse, -0.5))
    return BoundaryOperator(inv, HPLUS, HMINUS, s_op.nodes)


class KWorkspace:
    """S_k at one k on one NodeSet, with its factors, and S_k^{-1}, each built once, on first use.

    criterion, n_minus, assemble_P, assemble_A, assemble_Fout and trace_u take one in place of k,
    so the quantities at k share one S_k: ``s`` is the one place where a k-point's Ein factors X, Y
    and S_k = L + X Y^T are built (:func:`assemble_S`), and ``inverse`` is :func:`invert_S`'s update
    from that S_k.  The workspace keeps S_k until it is dropped; trace_u drops it (``del ws.s``)
    once P(k) is formed, since route A reads S_k^{-1} and the factors alone, and a later ``s``
    builds it again.  Where invert_S refuses (k near E_D), every access of ``inverse`` raises its
    refusal; where the Ein rule refuses (k beyond its table), every access of ``s`` or ``inverse``
    raises.
    """

    def __init__(self, k, nodes: NodeSet):
        self.k = KPoint.from_k(k)
        self.nodes = nodes
        self._inverse: BoundaryOperator | None = None
        self._refused: NearSingularError | None = None   # the refusal of the inversion, at self.k

    @classmethod
    def at(cls, k, nodes: NodeSet) -> "KWorkspace":
        """``k`` itself if it is a workspace on ``nodes``, else a new workspace at ``k``."""
        if isinstance(k, cls) and k.nodes is nodes:
            return k
        return cls(k.k if isinstance(k, cls) else k, nodes)

    @cached_property
    def s(self) -> SingleLayer:
        return assemble_S(self.k, self.nodes)

    @property
    def inverse(self) -> BoundaryOperator:
        if self._inverse is None and self._refused is None:
            try:
                self._inverse = invert_S(self.k, self.s)
            except NearSingularError as exc:
                self._refused = exc.at(self.k)   # kept without the traceback, which holds the frames' arrays
        if self._refused is not None:
            raise self._refused.at(self.k)
        return self._inverse


# ---------------------------------------------------------------------------
# Binary export of assembled operators and the operator store

_MAGIC = b"FEPO"

log = logging.getLogger("faddeev_ep")


def save_operator(path, matrix: np.ndarray, header: dict) -> None:
    """Write a matrix as raw row-major doubles behind a JSON header.

    The header is augmented with dtype, shape and a sha256 checksum of the
    payload bytes.  The file is written under a temporary name in the same
    directory and renamed onto ``path``, so a failed write never leaves a
    truncated file there.
    """
    matrix = np.ascontiguousarray(matrix)
    payload = matrix.tobytes()
    doc = dict(header)
    doc.update({
        "dtype": str(matrix.dtype),
        "shape": list(matrix.shape),
        "checksum": sha256(payload).hexdigest(),
    })
    head = json.dumps(doc, sort_keys=True).encode()
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(os.path.abspath(path)), suffix=".tmp")
    try:
        with open(fd, "wb") as fh:
            fh.write(_MAGIC + struct.pack("<Q", len(head)) + head)
            fh.write(payload)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def load_operator(path) -> tuple[np.ndarray, dict]:
    """Read a matrix written by save_operator, verifying the checksum."""
    with open(path, "rb") as fh:
        if fh.read(4) != _MAGIC:
            raise ValueError(f"{path} is not an operator container")
        (hlen,) = struct.unpack("<Q", fh.read(8))
        header = json.loads(fh.read(hlen).decode())
        payload = fh.read()
    if sha256(payload).hexdigest() != header["checksum"]:
        raise ValueError(f"checksum mismatch in {path}")
    mat = np.frombuffer(payload, dtype=np.dtype(header["dtype"])).reshape(tuple(header["shape"])).copy()
    return mat, header


class OperatorCache:
    """Content-keyed disk store of operator matrices: :func:`save_operator` files
    in ``directory``, one per key.

    Keys are hex digests of everything a matrix depends on (``fn_key``), so stores on one directory
    share their entries across processes.  Checksums are verified on read; a corrupted entry, or one
    whose header is malformed or names another key, is rebuilt.  Matrices are kept in memory by their
    owners (``Potential.memo``), not here.
    """

    def __init__(self, directory):
        self.dir = str(directory)
        os.makedirs(self.dir, exist_ok=True)

    def get_or_build(self, key: str, builder) -> np.ndarray:
        """The read-only matrix under ``key``: loaded from disk, or built by
        ``builder()`` and saved."""
        path, mat = os.path.join(self.dir, key + ".op"), None
        if os.path.exists(path):
            try:
                mat, header = load_operator(path)
                if header.get("key") != key:
                    raise ValueError(f"its header names key {header.get('key')!r}")
            except (ValueError, TypeError, OSError, KeyError, struct.error) as exc:
                mat = None
                log.warning("cache entry %s invalid (%s); rebuilding", path, exc)
                with contextlib.suppress(OSError):
                    os.remove(path)
        if mat is None:
            mat = builder()
            save_operator(path, mat, {"key": key})
        mat.flags.writeable = False
        return mat
