"""Dirichlet-to-Neumann maps: interior, exterior, and their identities.

Assembles F_0, F_n for the conductive and absorbing fixtures, the
exterior Faddeev map F^out(k) and its k -> 0 limit, and checks the
potential-theory identities that tie them together.  Also reports the
mean-free spectral gap of F^out(0) per geometry.
"""

import numpy as np

from faddeev_ep import (
    KPoint,
    absorbing_potential,
    assemble_F0,
    assemble_Fn,
    assemble_Fout,
    assemble_Fout_bounded,
    assemble_Fout_zero,
    assemble_S,
    make_circle,
    make_ellipse,
    sample,
    standard_conductive,
)
from faddeev_ep.boundary_ops import weighted_matrix

nodes = sample(make_circle(1.0), 128)

print("== interior Laplace map on the circle ==")
f0 = assemble_F0(nodes)
for m in (1, 4, 16):
    e = np.exp(1j * m * nodes.t)
    lam = np.real((f0.matrix @ e)[0] / e[0])
    print(f"F_0 e^(i{m}t) = {lam:.10f} e^(i{m}t)   (harmonic extension r^|m|)")

print("\n== interior maps with potentials ==")
cond = standard_conductive()
fn = assemble_Fn(nodes, cond)
print(f"conductive: ||F_n 1|| = {np.max(np.abs(fn.matrix @ np.ones(128))):.2e} "
      "(q^(1/2) extends the unit trace with zero flux)")
absorb = absorbing_potential(1.0)
fa = assemble_Fn(nodes, absorb)
u = np.exp(2j * nodes.t)
qf = np.imag(np.sum(nodes.weights * (fa.matrix @ u) * np.conj(u)))
print(f"absorbing:  Im (F_n u, u) = {qf:.4f} < 0 (sign-definite absorption)")

print("\n== exterior maps ==")
kp = KPoint.from_k(0.3)
fo = assemble_Fout(kp, nodes)
s = assemble_S(kp, nodes)
resid = np.linalg.norm((f0.matrix - fo.matrix) @ s.matrix - np.eye(128), 2)
print(f"(F_0 - F^out(k)) S_k = I to {resid:.2e} at |k| = 0.3")

fz = assemble_Fout_zero(nodes)
fb = assemble_Fout_bounded(nodes)
print(f"F^out(0) annihilates constants: {np.max(np.abs(fz.matrix @ np.ones(128))):.2e}")
for m in (1, 6):
    e = np.exp(1j * m * nodes.t)
    print(f"F^out(0) mode {m}: {np.real((fz.matrix @ e)[0] / e[0]):+.8f}   "
          f"F_b^out mode {m}: {np.real((fb.matrix @ e)[0] / e[0]):+.8f}")

print("\n== continuity of F^out at k = 0 ==")
for eps in (0.2, 0.1, 0.05):
    kp = KPoint.from_eps(eps, 0.0, nodes.length)
    d = weighted_matrix(assemble_Fout(kp, nodes)) - weighted_matrix(fz)
    print(f"eps = {eps:<5} ||F^out(k) - F^out(0)|| = {np.linalg.norm(d, 2):.6f}")

print("\n== mean-free spectral gap of F^out(0) per geometry ==")
from faddeev_ep.boundary_ops import meanfree_form_gap

for curve in (make_circle(1.0), make_ellipse(2.0, 1.0)):
    nd = sample(curve, 128)
    gap = meanfree_form_gap(assemble_Fout_zero(nd))
    print(f"{curve.key():<26} gap delta = {gap:.6f} (F^out(0) <= -delta on mean-free data)")
