"""Embedded operator-identity validation suite.

Fast structural checks run by the command-line ``validate`` subcommand and
by the batch harness before longer detector runs: quadrature consistency,
the jump relation F_0 S_k = K_k' + I/2 (the interior normal derivative of the
Faddeev single layer, with K_k' in closed form) on low trigonometric
densities, F_0 on the traces of harmonic polynomials and F_b^out on those of
the exterior harmonics z^-m against their exact normal derivatives, block
structure of S_k^0 and of S_k^{-1}, and the structure of F^out(0).

The constants block of S_k^0 is 1/eps(k) + c, with c = (1/nu) w^T L 1 a
constant of the curve (L the log-kernel layer): 0 on the unit circle and
-(nu/2pi) ln R on a centred circle of radius R.  Off circles c is read at the
first k of the spread, and the other k check that it does not depend on k.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .boundary_ops import (
    HPLUS,
    HMINUS,
    BoundaryOperator,
    KWorkspace,
    adjoint_arclength,
    assemble_B,
    assemble_log_layer,
    assemble_S,
    assemble_S0,
    block_form,
    meanfree_form_gap,
    operator_norm,
)
from .dtn_maps import adjoint_double_layer, assemble_F0, assemble_Fout_bounded, assemble_Fout_zero
from .geometry import NodeSet, sample
from .green import KPoint, epsilon_from_log

__all__ = ["CheckResult", "run_validation"]


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    measured: float
    threshold: float

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"[{status}] {self.name}: measured {self.measured:.3e} (threshold {self.threshold:.1e})"


def run_validation(nodes: NodeSet) -> list[CheckResult]:
    """Run the checks on ``nodes``, the node set of the run itself, so that its
    k-independent operators are built once per run."""
    nodes2 = sample(nodes.curve, 2 * nodes.n_nodes)
    checks: list[CheckResult] = []

    def add(name, measured, threshold):
        checks.append(CheckResult(name, bool(measured <= threshold), float(measured), float(threshold)))

    # geometry
    add("normals orthogonal to tangents",
        float(np.max(np.abs(nodes.normals.real * nodes.dz.real + nodes.normals.imag * nodes.dz.imag))), 1e-12)
    add("length stable under N-doubling", abs(nodes.length - nodes2.length), 1e-10)

    # operator identities at a spread of k
    nu = nodes.length
    c = -nu / (2 * np.pi) * np.log(nu / (2 * np.pi)) if nodes.centred_circle else None
    worst_jump = 0.0
    worst_cc = 0.0
    f0 = assemble_F0(nodes)
    # S_k sigma is harmonic inside, with normal derivative (K_k' + I/2) sigma; K_k' is closed-form
    # and shares no code with S_k.  Measured, relative to max|(K_k' + I/2) sigma| per density: at
    # most 1.0e-9 on the unit circle and 8.8e-10 on R = 1.25 at N = 64..256 (the constant density at
    # |k| = 1e-3, whose jump is O(|k|)), 1.1e-11 on the 1.5 x 1 ellipse, 3.6e-9 on the kite at N = 64
    m = np.arange(5)
    dens = np.hstack([np.cos(np.outer(nodes.t, m)), np.sin(np.outer(nodes.t, m[1:]))])
    for i, r in enumerate(np.geomspace(1e-3, 1.0, 10)):
        kp = KPoint.from_polar_log(np.log(r), (i % 4) * np.pi / 3)
        jump = adjoint_double_layer(nodes, kp) @ dens + 0.5 * dens
        resid = f0.matrix @ (assemble_S(kp, nodes).matrix @ dens) - jump
        worst_jump = max(worst_jump, float(np.max(np.max(np.abs(resid), axis=0) / np.max(np.abs(jump), axis=0))))
        cc = block_form(assemble_S0(kp, nodes)).cc
        inv_eps = 1.0 / epsilon_from_log(kp.log_abs, nu)   # negative past |k| = e^-gamma
        c = cc - inv_eps if c is None else c
        worst_cc = max(worst_cc, abs(cc - inv_eps - c) / abs(inv_eps + c))
    add("F_0 S_k = K_k' + I/2 on cos mt, sin mt (m = 0..4)", worst_jump, 1e-8)
    add("constants block of S_k^0 = 1/eps + c", worst_cc, 1e-10)

    # S_k^0, B symmetry in the arc-length pairing
    kp = KPoint.from_k(0.5)
    s0 = assemble_S0(kp, nodes)
    add("S_k^0 self-adjoint", float(np.max(np.abs(s0.matrix - adjoint_arclength(s0.matrix, nodes)))), 1e-10)
    b = assemble_B(nodes)
    add("B self-adjoint", float(np.max(np.abs(b.matrix - adjoint_arclength(b.matrix, nodes)))), 1e-10)

    # F^out(0) structure
    fz = assemble_Fout_zero(nodes)
    add("F^out(0) self-adjoint", float(np.max(np.abs(fz.matrix - adjoint_arclength(fz.matrix, nodes)))), 1e-8)
    gap = meanfree_form_gap(fz)
    add("F^out(0) mean-free gap at least 0.5 (measured shortfall)", 0.5 - gap, 0.0)

    def worst_on_traces(dtn, power):
        """Max relative error of ``dtn`` on the traces of Re, Im z^(power m), m = 1..4."""
        worst = 0.0
        for m in range(1, 5):
            f, dn = nodes.z ** (power * m), power * m * nodes.z ** (power * m - 1) * nodes.normals
            for u, exact in ((f.real, dn.real), (f.imag, dn.imag)):
                worst = max(worst, float(np.max(np.abs(dtn @ u - exact)) / np.max(np.abs(exact))))
        return worst

    # F_0 = (K' + I/2) B^{-1} on the traces of the harmonic Re z^m, Im z^m against their exact
    # normal derivatives Re, Im of m z^{m-1} n.  Measured: at most 2.7e-13 on the circle and the
    # ellipses at N = 32..256, 1.2e-13 on the kite at N = 128 and 4.0e-9 at N = 64, where the
    # kite is short of quadrature resolution; the threshold sits above that last value
    add("F_0 maps Re, Im z^m (m = 1..4) to their normal derivatives", worst_on_traces(f0.matrix, 1), 1e-8)
    # F_b^out on the traces of the exterior harmonics Re, Im z^-m, decaying at infinity, against their
    # normal derivatives Re, Im (-m z^(-m-1) n).  Measured: at most 1.1e-13 on the unit circle and on
    # R = 1.25 at N = 64..256, 1.25e-8 on the 1.5 x 1 ellipse at N = 64 (7.1e-14 at N = 128), and on the
    # kite 9.7e-5 at N = 64, 1.4e-10 at N = 128; the threshold sits above the ellipse at N = 64
    fb = assemble_Fout_bounded(nodes).matrix
    add("F_b^out maps Re, Im z^-m (m = 1..4) to their normal derivatives", worst_on_traces(fb, -1), 1e-6)
    binv = f0.matrix - fb   # B^{-1} P_perp

    # inverse block structure of S_k at small k.  With b and p the off-diagonal blocks of the log layer L
    # (0 on circles) and s = c - b B^{-1} p the Schur complement of its constants block, the block inverse
    # of S_k^0 is cc = eps/(1 + s eps) and perp = B^{-1} + cc (B^{-1} p)(b B^{-1}).  S_k - S_k^0 = O(|k|)
    # has no constants block to first order, so cc agrees to rounding: measured at most 2.0e-13 relative
    # to eps (the circle, R = 1.25, the 1.5 x 1 ellipse and the kite at N = 32..256), threshold 1e-10.
    # The perp block keeps the O(|k|) term, at most 0.041 |k| (kite, |k| = 7.9e-7 at eps = 0.05, and
    # 0.0094 |k| on the ellipse), threshold |k|.  Without S_k's constant column (cc -> 1/s_ref = 1) both
    # fail off circles; on a circle b = p = 0 and only cc sees it
    eps = 0.05
    kp = KPoint.from_eps(eps, 0.0, nu)
    bf = block_form(KWorkspace(kp, nodes).inverse)
    lb = block_form(assemble_log_layer(nodes))
    bp, bb = binv @ lb.perp_c, lb.c_perp @ binv
    cc = eps / (1 + (c - lb.c_perp @ bp) * eps)
    add("cc of S_k^{-1} = eps/(1 + s eps), relative to eps", abs(bf.cc - cc) / eps, 1e-10)
    perp = BoundaryOperator(bf.perp_perp - binv - cc * np.outer(bp, bb), HPLUS, HMINUS, nodes)
    add("perp block of S_k^{-1} = B^{-1} + cc (B^{-1} p)(b B^{-1})", operator_norm(perp), kp.abs)
    return checks
