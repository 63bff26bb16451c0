"""Boundary geometry and the single-layer operators.

Walks through the basic machinery: sample a curve, assemble the Faddeev
single layer S_k with its log-kernel part S_k^0, inspect the
constants/mean-free block structure, and export an operator to the binary
container for offline analysis.
"""

import numpy as np

from faddeev_ep import (
    KPoint,
    assemble_B,
    assemble_S,
    assemble_S0,
    block_form,
    invert_S,
    make_circle,
    make_ellipse,
    make_kite,
    sample,
)
from faddeev_ep.boundary_ops import save_operator, weighted_matrix

print("== curves and quadrature ==")
for curve in (make_circle(1.0), make_ellipse(2.0, 1.0), make_kite()):
    nodes = sample(curve, 128)
    doubled = sample(curve, 256)
    print(f"{curve.key():<28} length = {nodes.length:.12f}  "
          f"(doubling changes it by {abs(nodes.length - doubled.length):.1e})")

nodes = sample(make_circle(1.0), 128)
k = KPoint.from_k(0.3)

print("\n== S_k^0 block structure on the unit circle ==")
s0 = assemble_S0(k, nodes)
bf = block_form(s0)
print(f"constants -> constants block: {bf.cc:.12f}")
print(f"1/eps(k):                     {1 / k.eps(nodes.length):.12f}")
print(f"mean-free mode m=5 eigenvalue: "
      f"{np.real((s0.matrix @ np.exp(5j * nodes.t))[0] / np.exp(5j * nodes.t[0])):.12f} "
      f"(log layer gives 1/(2|m|) = {1 / 10})")

print("\n== the full Faddeev layer and its inverse ==")
s = assemble_S(k, nodes)
print(f"||S_k - S_k^0|| entries: {np.max(np.abs(s.matrix - s0.matrix)):.3e} at |k| = 0.3")
sinv = invert_S(k, s)
print(f"inverse contract ||S S^-1 - I|| = {np.max(np.abs(s.matrix @ sinv.matrix - np.eye(128))):.2e}")

print("\n== small-k asymptotics of the inverse ==")
for eps in (0.1, 0.05, 0.025):
    kp = KPoint.from_eps(eps, 0.0, nodes.length)
    ccinv = block_form(invert_S(kp, assemble_S(kp, nodes))).cc
    print(f"eps = {eps:<6} constants block of S_k^-1 = {ccinv:.8f} (should be ~ eps)")

print("\n== conditioning of the layer along real k ==")
for r in (0.5, 2.0, 3.0, 4.0):
    sv = np.linalg.svd(weighted_matrix(assemble_S(KPoint.from_k(r), nodes)), compute_uv=False)
    print(f"|k| = {r:<4} sigma_min/sigma_max = {sv[-1] / sv[0]:.2e}   "
          "(exponential decay; inversion refuses past ~2.7)")

print("\n== operator export ==")
b = assemble_B(nodes)
save_operator("log_layer_B.op", b.matrix, {
    "curve": nodes.curve.key(), "n": nodes.n_nodes, "k": None,
    "spaces": [b.domain_space, b.range_space],
})
sv = np.linalg.svd(weighted_matrix(b), compute_uv=False)
sv = sv[sv > 1e-10]  # the constants direction is outside B's block by definition
print(f"wrote log_layer_B.op ({b.matrix.nbytes} payload bytes + JSON header); "
      f"weighted mean-free conditioning = {sv[0] / sv[-1]:.4f}")
