"""Interior Schrodinger solves on the unit disk in polar coordinates.

Solves -Lap u - n u = 0 with Dirichlet data on the unit circle, one solve
per boundary Fourier mode, and returns the outward normal derivatives that
form the columns of a Dirichlet-to-Neumann matrix.

Discretization: Fourier modes in theta crossed with Chebyshev collocation
in r.  The radial grid is the positive half of a symmetric Chebyshev grid
with no point at r = 0; values at negative radius are folded back through
u_m(-r) = (-1)^m u_m(r), which keeps the polar coordinate singularity out
of the system.  Angular coupling by a non-radial n enters as a mode
convolution with the FFT of n, assembled sparsely with the numerically
detected bandwidth.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import LinearOperator, onenormest, splu

__all__ = ["DiskDtnSolver", "InteriorResonanceError", "cheb", "radial_size"]

#: condition estimate above which the interior Dirichlet solve is refused
CONDITION_LIMIT = 1e8


class InteriorResonanceError(RuntimeError):
    """Zero is (numerically) an interior Dirichlet eigenvalue of -Lap - n."""


def cheb(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Chebyshev differentiation matrix and points x_j = cos(j pi / n), j=0..n."""
    if n == 0:
        return np.zeros((1, 1)), np.ones(1)
    x = np.cos(np.pi * np.arange(n + 1) / n)
    c = np.ones(n + 1)
    c[0] = c[-1] = 2.0
    c *= (-1.0) ** np.arange(n + 1)
    dx = x[:, None] - x[None, :]
    d = np.outer(c, 1.0 / c) / (dx + np.eye(n + 1))
    d -= np.diag(d.sum(axis=1))
    return d, x


def radial_size(n_boundary: int) -> int:
    """Positive radial collocation points (including r = 1) for N boundary
    nodes: resolves the boundary Nyquist mode r^{N/2} with margin."""
    return max(24, n_boundary // 4 + 13)


class DiskDtnSolver:
    """Factory for Dirichlet-to-Neumann matrices of -Lap - n on the unit disk.

    Parameters
    ----------
    n_boundary : int
        Number of (even) boundary nodes; boundary data lives on the uniform
        grid theta_l = 2 pi l / n_boundary.  The radial grid has
        :func:`radial_size` points.
    """

    def __init__(self, n_boundary: int):
        if n_boundary % 2:
            raise ValueError("n_boundary must be even")
        self.n_boundary = n_boundary
        self.nh = radial_size(n_boundary)
        p_full = 2 * self.nh
        d, x = cheb(p_full - 1)
        self.r = x[: self.nh]                       # positive radii, r[0] = 1
        flip = np.arange(p_full - 1, p_full - 1 - self.nh, -1)
        dr2_full = d @ d + np.diag(1.0 / x) @ d
        # parity-folded radial operators (even/odd angular modes)
        self._dr2 = {
            +1: dr2_full[: self.nh, : self.nh] + dr2_full[: self.nh, flip],
            -1: dr2_full[: self.nh, : self.nh] - dr2_full[: self.nh, flip],
        }
        self._d1 = {
            +1: d[: self.nh, : self.nh] + d[: self.nh, flip],
            -1: d[: self.nh, : self.nh] - d[: self.nh, flip],
        }
        self._inv_r2 = 1.0 / self.r**2

    def _mode_laplacian(self, m: int) -> np.ndarray:
        s = 1 if m % 2 == 0 else -1
        return self._dr2[s] - (m * m) * np.diag(self._inv_r2)

    def samples(self, potential) -> np.ndarray:
        """Every value of n the solve reads: the radial profile at the radii
        for a radial n, else n at the radii times 2N equispaced angles."""
        if getattr(potential, "radial", False):
            return np.asarray(potential.eval_radial(self.r), dtype=complex)
        m_int = 2 * self.n_boundary
        theta = 2 * np.pi * np.arange(m_int) / m_int
        return np.asarray(potential.eval(self.r[:, None] * np.exp(1j * theta[None, :])), dtype=complex)

    def _potential_modes(self, potential) -> dict[int, np.ndarray]:
        """FFT of n over theta at each radius; returns {d: n_hat_d(r)} above noise,
        judged on the interior radii the coupling reads (masking on r = 1 is ragged)."""
        nvals = self.samples(potential)
        if nvals.ndim == 1:   # a radial profile couples no angular modes
            return {0: nvals} if np.any(nvals != 0) else {}
        m_int = nvals.shape[1]
        nhat = np.fft.fft(nvals, axis=1) / m_int
        interior = np.abs(nhat[1:])
        scale = max(float(np.max(interior)), 1e-300)
        d_vals = (np.fft.fftfreq(m_int) * m_int).astype(int)
        out = {}
        for i, d in enumerate(d_vals):
            if np.max(interior[:, i]) > 1e-13 * scale:
                out[int(d)] = nhat[:, i]
        return out

    def dtn_matrix(self, potential) -> np.ndarray:
        """Assemble the N x N Dirichlet-to-Neumann matrix in the node basis;
        refuses a near-resonant interior solve (InteriorResonanceError)."""
        nb = self.n_boundary
        nhat = self._potential_modes(potential)
        bandwidth = max((abs(d) for d in nhat), default=0)
        m_int = nb if bandwidth == 0 else 2 * nb
        m_vals = (np.fft.fftfreq(m_int) * m_int).astype(int)
        n_int = self.nh - 1
        size = m_int * n_int
        is_complex = any(np.max(np.abs(v.imag)) > 1e-13 for v in nhat.values())
        dtype = complex if is_complex else float

        rows, cols, data = [], [], []
        bc_cols = np.empty((m_int, n_int), dtype=float)   # L_m[1:, 0] per mode
        dn_rows0 = np.empty(m_int)                        # fold of D at the boundary row
        dn_rows = np.empty((m_int, n_int))
        for mi, m in enumerate(m_vals):
            lm = self._mode_laplacian(m)
            blk = -lm[1:, 1:]
            r0 = mi * n_int
            rr, cc = np.meshgrid(np.arange(n_int), np.arange(n_int), indexing="ij")
            rows.append((r0 + rr).ravel())
            cols.append((r0 + cc).ravel())
            data.append(blk.ravel())
            bc_cols[mi] = lm[1:, 0]
            s = 1 if m % 2 == 0 else -1
            dn_rows0[mi] = self._d1[s][0, 0]
            dn_rows[mi] = self._d1[s][0, 1:]
        for d, nvals in nhat.items():
            coupling = -nvals[1:]                          # at interior radii
            src = (np.arange(m_int) - d) % m_int
            for mi in range(m_int):
                r0 = mi * n_int
                c0 = src[mi] * n_int
                rows.append(r0 + np.arange(n_int))
                cols.append(c0 + np.arange(n_int))
                data.append(coupling)
        entries = np.concatenate([np.asarray(d, dtype=complex) for d in data])
        mat = sparse.csc_matrix(
            (entries if is_complex else entries.real, (np.concatenate(rows), np.concatenate(cols))),
            shape=(size, size),
        )
        lu = splu(mat)
        self._check_condition(mat, lu, dtype)

        # boundary-mode right-hand sides: f_hat = e_{m0} for the nb boundary modes
        bmodes = (np.fft.fftfreq(nb) * nb).astype(int)
        mode_index = {int(m): i for i, m in enumerate(m_vals)}
        rhs = np.zeros((size, nb), dtype=dtype)
        for j, m0 in enumerate(bmodes):
            mi = mode_index[int(m0)]
            rhs[mi * n_int : (mi + 1) * n_int, j] = bc_cols[mi]
        sol = lu.solve(rhs)

        ghat = np.zeros((m_int, nb), dtype=complex)
        for j, m0 in enumerate(bmodes):
            ghat[mode_index[int(m0)], j] = dn_rows0[mode_index[int(m0)]]
        ghat += np.einsum("mp,mpj->mj", dn_rows, sol.reshape(m_int, n_int, nb))

        theta_b = 2 * np.pi * np.arange(nb) / nb
        phi = np.exp(1j * np.outer(theta_b, m_vals))      # mode -> node evaluation
        dft = np.exp(-1j * np.outer(bmodes, theta_b)) / nb
        fn = phi @ ghat @ dft
        if not is_complex:
            imag_scale = float(np.max(np.abs(fn.imag)))
            if imag_scale > 1e-8 * max(1.0, float(np.max(np.abs(fn.real)))):
                raise ArithmeticError(f"DtN matrix lost realness for a real potential: Im = {imag_scale:.2e}")
            return np.ascontiguousarray(fn.real)
        return fn

    def _check_condition(self, mat, lu, dtype):
        size = mat.shape[0]
        inv_op = LinearOperator(
            (size, size), matvec=lu.solve, rmatvec=lambda v: lu.solve(v, trans="H"),
            dtype=dtype,
        )
        cond = onenormest(mat) * onenormest(inv_op)
        if cond > CONDITION_LIMIT * self._baseline_condition:
            raise InteriorResonanceError(
                f"interior Dirichlet solve is near-resonant (condition estimate {cond:.2e}); "
                "zero is close to an interior Dirichlet eigenvalue of -Lap - n. "
                "Dilating the domain slightly (rescaling the potential) moves the eigenvalue away."
            )

    @cached_property
    def _baseline_condition(self) -> float:
        """Condition estimate of the n = 0 system, per solver instance.

        Collocation matrices are intrinsically stiff (condition ~ nh^4), so
        resonance is flagged relative to the potential-free baseline.
        """
        return float(max(np.linalg.cond(-self._mode_laplacian(m)[1:, 1:], p=1) for m in (0, 1)))
