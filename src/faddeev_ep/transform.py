"""Boundary trace of the scattering solution and the transform t(k).

The trace of u(., k) on the boundary is computed by two formulations that
are algebraically equivalent but solved through different linear systems:

    via_LS:      u = (I + S_k (F_n - F_0))^{-1} e^{i zeta . z}
    via_LS0428:  u = (F_n - F^out)^{-1} (F_0 - F^out) e^{i zeta . z}

Their disagreement is recorded as a residual; off the singular sets it
must vanish to solver precision.  The scattering transform is the node
quadrature of

    t(k) = int e^{i conj(k z)} [(F_n - F_0) u](z, k) dl_z.

Each route inverts its matrix M, P(k) = I + S_k (F_n - F_0) or A(k) = F_n - F^out(k)
= (F_n - F_0) + S_k^{-1}, as a rank-r update of a k-independent reference.  A k-point's
workspace forms S_k = S_ref + X Y'^T once (boundary_ops.KWorkspace), so P(k) = P_ref + X (Y'^T D)
with P_ref = I + S_ref D, and A(k) = A_ref + (S_k^{-1} X)(-Y'^T G) with A_ref = D + G,
G = S_ref^{-1} and D = F_n - F_0.  P_ref^{-1} and A_ref^{-1} each come from their own
checked_inverse, once per potential, and are kept in its memo, so the routes stay two different
systems.  Per k only r x r capacitances are inverted (updated_inverse): M^{-1} is both the solve
and the refusal, with E suspected where a capacitance is singular or not finite, or
|M|_1 |M^{-1}|_1 exceeds CONDITION_CAP.  The E_D refusal stays with the inversion of S_k, which
reads the same measure on the weighted S_k.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .boundary_ops import (KWorkspace, NearSingularError, assemble_log_layer, checked_inverse, layer_reference,
                           updated_inverse)
from .dtn_maps import Potential
from .exceptional import assemble_A, assemble_P, fn_minus_f0
from .geometry import NodeSet
from .green import KPoint

__all__ = ["CONDITION_CAP", "BoundaryTrace", "TransformValue", "BoundReport",
           "trace_u", "scatter_t", "bound_check"]

#: cap on the 1-norm condition number of the two route matrices; beyond it the
#: value is reported unavailable rather than extrapolated
CONDITION_CAP = 1e10


@dataclass(frozen=True)
class BoundaryTrace:
    """Boundary values of u(., k) by both routes."""

    k: KPoint
    u_nodes: np.ndarray        # via_LS (canonical)
    u_alt: np.ndarray          # via_LS0428
    residual: float            # relative cross-route disagreement


@dataclass(frozen=True)
class TransformValue:
    k: KPoint
    t: complex

    @property
    def bound_product(self) -> float:
        """|t(k)| * |ln|k||, the quantity bounded by the small-k estimate."""
        return abs(self.t) * abs(self.k.log_abs)


@dataclass(frozen=True)
class BoundReport:
    """sup of |t|.|ln|k|| along a k-sequence approaching 0.

    ``increments_non_increasing`` records saturation: the growth of the
    bound product per unit of ln(1/|k|) does not increase toward k = 0,
    the numerical signature of a finite sup constant (the product climbs
    concavely onto a plateau rather than diverging).  ``values`` holds t(k),
    None where the trace was refused.
    """

    log_abs_k: np.ndarray
    bound_products: np.ndarray
    sup: float
    increments_non_increasing: bool
    valid: bool
    failures: tuple[str, ...] = ()
    values: tuple[TransformValue | None, ...] = ()


def _weighted_norm(v: np.ndarray, nodes: NodeSet) -> float:
    return float(np.sqrt(np.sum(nodes.weights * np.abs(v) ** 2)))


def _matvec(mat: np.ndarray, v: np.ndarray) -> np.ndarray:
    """mat @ v, without casting a real mat to a complex N x N copy."""
    return mat @ v if np.iscomplexobj(mat) else mat @ v.real + 1j * (mat @ v.imag)


def _route_references(n: Potential, nodes: NodeSet, kp: KPoint) -> tuple[np.ndarray, np.ndarray]:
    """(P_ref^{-1}, A_ref^{-1}) for P_ref = I + S_ref D and A_ref = D + S_ref^{-1}, kept in ``n.memo``
    beside F_n; a reference that checked_inverse refuses refuses the route at ``kp``."""
    key = ("trace_refs", nodes.n_nodes)
    refs = n.memo.get(key)
    if refs is None:
        d = fn_minus_f0(n, nodes)
        ref = layer_reference(nodes)
        p_ref = assemble_log_layer(nodes).matrix @ d   # (L + alpha 1 v^T) D + I
        p_ref += ref.alpha * (nodes.speed / nodes.n_nodes) @ d
        p_ref.flat[:: nodes.n_nodes + 1] += 1.0
        p_inv = checked_inverse(p_ref, CONDITION_CAP, "P_ref", kp, "E")
        del p_ref
        d += ref.inverse
        refs = (p_inv, checked_inverse(d, CONDITION_CAP, "A_ref", kp, "E"))
        for m in refs:
            m.flags.writeable = False
        refs = n.memo.setdefault(key, refs)
    return refs


def trace_u(k, n: Potential, nodes: NodeSet) -> BoundaryTrace:
    """Solve both boundary formulations for the trace of u(., k).

    Near-singular systems raise NearSingularError naming the suspected
    set: E_D when S_k itself is singular, E when the scattering systems
    lose invertibility.  Given a workspace, it reads that workspace's S_k
    and S_k^{-1} and drops its S_k once P(k) is formed.
    """
    ws = KWorkspace.at(k, nodes)
    kp = ws.k
    p_inv, a_inv = _route_references(n, nodes, kp)   # before S_k, which would live through their first build
    sinv = ws.inverse.matrix  # raises with suspected="E_D" near the Dirichlet set
    x, y = ws.s.reference_factors()   # S_k = S_ref + X Y'^T
    rhs = np.exp(1j * kp.kz(nodes.z))

    def p_k():   # P(k) from the workspace's S_k, which then goes: route A reads S_k^{-1}, X and Y'
        p = assemble_P(ws, n, nodes).matrix
        del ws.s
        return p

    # P(k) = P_ref + X (Y'^T D), formed once for its 1-norm and the Newton step
    ytd = y.T @ fn_minus_f0(n, nodes)
    u_ls = _matvec(updated_inverse(p_inv, x, ytd, p_k, CONDITION_CAP, "P(k)", kp, "E"), rhs)
    # A(k) = D + S_k^{-1} = A_ref + (S_k^{-1} X)(-Y'^T G), since S_k^{-1} - G = -S_k^{-1} (S_k - S_ref) G
    vt = -(y.T @ layer_reference(nodes).inverse)
    u_alt = _matvec(updated_inverse(a_inv, sinv @ x, vt, lambda: assemble_A(ws, n, nodes).matrix, CONDITION_CAP,
                                    "A(k)", kp, "E"), _matvec(sinv, rhs))

    denom = max(_weighted_norm(u_ls, nodes), 1e-300)
    residual = _weighted_norm(u_ls - u_alt, nodes) / denom
    return BoundaryTrace(kp, u_ls, u_alt, residual)


def scatter_t(k, n: Potential, nodes: NodeSet) -> TransformValue:
    """t(k) by node quadrature of e^{i conj(kz)} (F_n - F_0) u over the boundary."""
    kp = KPoint.from_k(k)
    u = trace_u(kp, n, nodes).u_nodes   # before D: the trace's peak does not hold D too
    dens = _matvec(fn_minus_f0(n, nodes), u)
    weight = np.exp(1j * np.conj(kp.kz(nodes.z)))
    t = complex(np.sum(nodes.weights * weight * dens))
    return TransformValue(kp, t)


def bound_check(n: Potential, k_sequence, nodes: NodeSet) -> BoundReport:
    """Report sup |t(k)|.|ln|k|| along a sequence of k tending to 0.

    Intended for the negative-perturbation fixtures (empty exceptional
    set): the product must stay bounded.  Refining the sequence toward 0
    must not accelerate its growth: the per-ln(1/|k|) increments have to
    be non-increasing (within 5%), which certifies saturation onto a
    finite plateau.  Any trace failure marks the report invalid.
    """
    pts = sorted(map(KPoint.from_k, k_sequence), key=lambda p: -p.log_abs)  # outer -> inner
    prods = np.full(len(pts), np.nan)
    values: list[TransformValue | None] = [None] * len(pts)
    failures = []
    for i, kp in enumerate(pts):
        try:
            values[i] = scatter_t(kp, n, nodes)
            prods[i] = values[i].bound_product
        except NearSingularError as exc:
            failures.append(str(exc))   # names its k
    valid = not failures
    sup = float(np.nanmax(prods)) if np.any(np.isfinite(prods)) else np.nan
    logs = np.array([p.log_abs for p in pts])
    increments_ok = False
    if valid and len(pts) >= 4:
        slopes = np.diff(prods) / np.diff(-logs)  # growth per unit of ln(1/|k|)
        increments_ok = bool(np.all(slopes[1:] <= np.maximum(slopes[:-1], 0) * 1.05 + 1e-12))
    return BoundReport(
        log_abs_k=logs,
        bound_products=prods,
        sup=sup,
        increments_non_increasing=increments_ok,
        valid=valid,
        failures=tuple(failures),
        values=tuple(values),
    )
