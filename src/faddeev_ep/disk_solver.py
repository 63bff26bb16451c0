"""Interior Schrodinger solves on the unit disk in polar coordinates.

Solves -Lap u - n u = 0 with Dirichlet data on the unit circle, one solve
per boundary Fourier mode, and returns the outward normal derivatives that
form the columns of a Dirichlet-to-Neumann matrix.

Discretization: Fourier modes in theta crossed with Chebyshev collocation
in r.  The radial grid is the positive half of a symmetric Chebyshev grid
with no point at r = 0; values at negative radius are folded back through
u_m(-r) = (-1)^m u_m(r), which keeps the polar coordinate singularity out
of the system.  Every n, radial or not, is sampled at the radii times 2N
equispaced angles, and its angular coupling enters as a mode
convolution with the FFT of n, truncated at the ends of the mode range (not
wrapped).  With the modes ordered by m and grouped in runs of b modes, b the
numerically detected angular bandwidth of n, the system is block-tridiagonal
and is solved by dense block elimination fused with the forward sweep.  n
couples no radii, so an off-diagonal block is held compact, one value per mode
pair and radius (shape (b, b, nh - 1)), and applied by einsum.  Each run
inverts its diagonal block once (gesv against the identity, the work of a
solve against the b·(nh - 1) columns of A[i, i+1]) and forms its gain
G_i = D'_i^{-1} A[i, i+1] and forward span.  The forward sweep ends at the first
run past the last boundary mode whose forward span is empty (see below): every
later forward span is zero, so is every solution from there on, and those runs
are neither inverted nor given a gain.

There is no backward sweep.  With A = L U, U unit block upper bidiagonal with the
gains above its diagonal, the normal derivatives R u of the solution u = U^{-1} y
are W^T y, where y are the forward spans and U^T W = R^T.  U^T is block lower
bidiagonal, so W_i = R_i^T - G_{i-1}^T W_{i-1} is formed in the same loop as G_{i-1},
starting at the run of the lowest boundary mode (-N/2; the modes of a non-radial
n start at -N, and below -N/2 every forward span is empty), and W_i^T y_i is added
into the result at once.  Each gain and each span is dropped once the next run
has used it, so the solve holds one gain, one span and one W besides the run's
own blocks: (b·(nh - 1))^2 values for the gain, where a backward sweep would keep
one for every run.  R holds only the rows of the modes |m| <= N/2, which F_n reads.

The solution of boundary mode m0 decays as r^|m| and away from m0, and so do the
rows of W away from their mode; every step sets the entries below a fixed floor
(1e-150) to zero, which moves no entry of F_n and keeps BLAS out of subnormal
arithmetic, also in the products of two kept entries in W_i^T y_i.  With the
columns in descending mode order the nonzero columns of each span are then
contiguous, and each span and each W is stored as that span and its offset only
(on the interior256 potential at N = 256, on average 15 of the 257 columns of a
span and 23 of the 257 of a W per run).  The Nyquist boundary column
cos(N theta / 2) is solved as its -N/2 and +N/2 halves, each in its own place of
that order, and summed in the normal derivatives.  A radial n gives runs of one
mode, zero off-diagonal blocks and zero gains, so there y is the solution and W
is R.

F_n is read off the boundary modes |m| <= N/2 only (the modes beyond would
alias onto the N nodes), with both Nyquist halves, weight 1 each, folded into
one row, and is taken to the nodes by two FFTs.

The resonance refusal reads the same sweep.  Its gain max_j |y_j|_1 / |b_j|_1
over the boundary columns b_j and their forward spans y_j, summed as the spans
are formed, is the gain |L^{-1} B| of the forward elimination, and equals
max_j |u_j|_1 / |b_j|_1, a lower bound of |A^{-1}|_1, for a radial n.  Every
Dirichlet eigenfunction has a nonzero normal derivative, so the boundary data
excites it: near an eigenvalue the gain grows as 1 / the distance.  The solve is
refused when its gain exceeds CONDITION_LIMIT times the gain for n = 0, before
F_n is formed.  That baseline needs no solve: the collocation is exact for the
n = 0 solutions u_m = r^|m| (|m| <= N/2 <= 2 nh - 1), whose gain |u_m|_1 / |b_m|_1
is largest at m = 0, where u = 1, so it is (nh - 1) / |b_0|_1, set once per solver.
"""

from __future__ import annotations

import numpy as np

from . import sha256

__all__ = ["DiskDtnSolver", "InteriorResonanceError", "cheb", "radial_size"]

#: boundary-solve gain, relative to its n = 0 value, above which the interior Dirichlet solve is refused
CONDITION_LIMIT = 1e5

#: sweep entries below this are set to 0: they move no entry of F_n = O(N), and subnormals stall BLAS
_FLOOR = 1e-150


class InteriorResonanceError(RuntimeError):
    """Zero is (numerically) an interior Dirichlet eigenvalue of -Lap - n."""


def _flush(x: np.ndarray) -> np.ndarray:
    """Set the entries of x below _FLOOR to 0, in place; returns x."""
    x[np.abs(x) < _FLOOR] = 0
    return x


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
        # the n = 0 gain, at m = 0 where u = 1 on the nh - 1 interior radii (see the module docstring)
        self._baseline_gain = (self.nh - 1) / float(np.abs(self._dr2[+1][1:, 0]).sum())

    def samples(self, potential) -> np.ndarray:
        """Every value of n the solve reads: n at the radii times 2N equispaced angles."""
        m_int = 2 * self.n_boundary
        theta = 2 * np.pi * np.arange(m_int) / m_int
        return np.asarray(potential.eval(self.r[:, None] * np.exp(1j * theta[None, :])), dtype=complex)

    def sampled(self, potential) -> tuple[str, dict[int, np.ndarray], bool]:
        """sha256 of :meth:`samples`, their FFT over theta, {d: n_hat_d(r)} above noise
        on the interior radii the coupling reads (masking on r = 1 is ragged), and whether
        every sample is real (imaginary part exactly 0).  Sampled once per potential and N:
        all three are kept in ``potential.memo``, the samples not.  A non-finite sample is
        a ValueError."""
        got = potential.memo.get(("sampled", self.n_boundary))
        if got is None:
            nvals = self.samples(potential)
            if not np.all(np.isfinite(nvals)):
                raise ValueError(f"potential has non-finite values on the N = {self.n_boundary} interior grid")
            m_int = nvals.shape[1]
            nhat = np.fft.fft(nvals, axis=1) / m_int
            interior = np.max(np.abs(nhat[1:]), axis=0)
            keep = np.flatnonzero(interior > 1e-13 * max(float(np.max(interior)), 1e-300))
            d_vals = (np.fft.fftfreq(m_int) * m_int).astype(int)
            modes = dict(zip(d_vals[keep].tolist(), nhat[:, keep].T.copy()))   # copies: nhat is not kept
            got = potential.memo.setdefault(("sampled", self.n_boundary),
                                            (sha256(nvals.tobytes()).hexdigest(), modes, not np.any(nvals.imag)))
        return got

    def angular_modes(self, potential) -> dict[int, np.ndarray]:
        """{d: n_hat_d(r)} of :meth:`sampled`, the one bandwidth detector: keys within {0}
        mean the samples have angular bandwidth 0, i.e. n is radial as the solve sees it."""
        return self.sampled(potential)[1]

    def dtn_matrix(self, potential) -> np.ndarray:
        """Assemble the N x N Dirichlet-to-Neumann matrix in the node basis;
        refuses a near-resonant interior solve (InteriorResonanceError)."""
        nb = self.n_boundary
        nhat = self.angular_modes(potential)
        bandwidth = max((abs(d) for d in nhat), default=0)
        m_int = nb if bandwidth == 0 else 2 * nb
        m_vals = np.arange(-(m_int // 2), m_int // 2)
        n_int = self.nh - 1
        is_complex = any(np.max(np.abs(v[1:].imag)) > 1e-13 for v in nhat.values())   # interior radii
        dtype = complex if is_complex else float
        coupling = {d: -(v[1:] if is_complex else v[1:].real) for d, v in nhat.items()}   # interior radii
        step = max(bandwidth, 1)
        runs = [m_vals[i : i + step] for i in range(0, m_int, step)]
        radii = np.arange(n_int)
        # n couples mode m to m - d at each radius and no radii to each other.  Mode
        # index r = i step + a of run i couples to r - d only inside the mode range
        # (the convolution is truncated, not wrapped), so runs of `step` modes make
        # the matrix block-tridiagonal: the coupling of run i to run i - o, o in
        # (-1, 0, 1), is band[o step + a - a'] for a, a' in the runs, cut for a short run
        band = np.zeros((4 * step - 1, n_int), dtype=dtype)       # d = 1 - 2 step .. 2 step - 1
        for d, c in coupling.items():
            band[d + 2 * step - 1] = c
        pos = np.arange(step)
        coupled = {o: band[o * step + pos[:, None] - pos[None, :] + 2 * step - 1] for o in (-1, 0, 1)}

        def coupling_block(i, j):
            """Coupling of run i to run j, shape (len(run i), len(run j), n_int)."""
            return coupled[i - j][: len(runs[i]), : len(runs[j])]

        def diag_block(i):
            """Block (run i, run i) of the system matrix, rows and columns (mode, radius)."""
            c = coupling_block(i, i)
            out = np.zeros((len(c), n_int, len(c), n_int), dtype=dtype)
            out[:, radii, :, radii] = c.transpose(2, 0, 1)
            for a, m in enumerate(runs[i]):   # minus the mode Laplacian d_r^2 + d_r / r - m^2 / r^2
                out[a, :, a, :] -= self._dr2[1 if m % 2 == 0 else -1][1:, 1:]
                out[a, radii, a, radii] += m * m * self._inv_r2[1:]
            return out.reshape(len(c) * n_int, -1)

        def apply_coupling(c, y):
            """The off-diagonal block with compact form c (a coupling_block) times y."""
            return np.einsum("abp,bpt->apt", c, y.reshape(c.shape[1], n_int, -1)).reshape(len(c) * n_int, -1)

        # boundary-mode right-hand sides: f_hat = e_{m0} for the nb boundary modes,
        # whose columns L_m[1:, 0] and normal-derivative rows depend on parity only.
        # The Nyquist column is the real cos(N theta / 2): weight 1/2 on -N/2 and on
        # +N/2 when both are in the mode range (a radial n has -N/2 only), solved as
        # two columns and summed in gb.
        parity = np.where(m_vals % 2 == 0, 1, -1)
        bidx = (np.fft.fftfreq(nb) * nb).astype(int) + m_int // 2   # boundary modes' positions in m_vals
        modes, cols, weights = bidx, np.arange(nb), np.ones(nb)
        if m_int > nb:
            modes, cols = np.append(bidx, bidx[nb // 2] + nb), np.append(cols, nb // 2)
            weights[nb // 2] = 0.5
            weights = np.append(weights, 0.5)
        # solve columns in descending mode order: a run's right-hand sides are then
        # adjacent columns, and the nonzero columns of its solution, which decays away
        # from its boundary mode, are a span
        order = np.argsort(-modes)
        modes, cols, weights = modes[order], cols[order], weights[order]
        rhs = weights[:, None] * np.array([self._dr2[parity[p]][1:, 0] for p in modes])
        dn_rows = np.array([self._d1[s][0, 1:] for s in parity])

        def mode_columns(i, ps, vecs):
            """One column per mode position ps[c] in run i: vecs[c] on that mode's rows, zero elsewhere."""
            out = np.zeros((len(runs[i]), n_int, len(ps)), dtype=dtype)
            out[ps - i * step, :, np.arange(len(ps))] = vecs
            return out.reshape(len(runs[i]) * n_int, -1)

        def live(lo, x):
            """Flush x, whose columns start at lo, and keep only its nonzero columns: (lo', x')."""
            cols = np.flatnonzero(_flush(x).any(axis=0))
            return (lo + cols[0], x[:, cols[0] : cols[-1] + 1]) if cols.size else (lo, x[:, :0])

        def joined(a, b, product):
            """a - product(b) for the blocks a = (lo, A) and b = (lo, B), on the columns they span together."""
            ends = [(lo, lo + x.shape[1]) for lo, x in (a, b) if x.shape[1]]
            lo = min((e[0] for e in ends), default=0)
            out = np.zeros((len(a[1]), max((e[1] for e in ends), default=0) - lo), dtype=dtype)
            out[:, a[0] - lo : a[0] - lo + a[1].shape[1]] = a[1]
            if b[1].shape[1]:
                out[:, b[0] - lo : b[0] - lo + b[1].shape[1]] -= product(b[1])
            return lo, out

        # A = L U, one forward sweep: run i inverts D'_i = A[i, i] - A[i, i-1] G_{i-1} and forms
        # its forward span y_i = D'_i^{-1} (B_i - A[i, i-1] y_{i-1}), B_i the boundary columns js
        # whose mode lies in run i (adjacent in the descending order), and its gain
        # G_i = D'_i^{-1} A[i, i+1], U's block above the diagonal.  The rows of F_n are
        # R u = R U^{-1} y = W^T y, R the normal-derivative rows of the modes -N/2 .. N/2
        # (positions lo_out ..), with U^T W = R^T: W_i = R_i^T - G_{i-1}^T W_{i-1} from the
        # run of the lowest boundary mode on (every y below it is empty).  So each G and y is
        # dropped once the next run has used it.  Past the last run with a boundary column,
        # the first empty forward span ends the loop: every later forward span is zero
        first_b, last_b, lo_out = modes.min() // step, modes.max() // step, m_int // 2 - nb // 2
        ghat = np.zeros((nb + 1, modes.size), dtype=dtype)   # W^T y: rows -N/2 .. N/2, one column per solved column
        y_norm = np.zeros(modes.size)                         # |y_j|_1 of each solved column
        g, y = None, (0, np.zeros((0, 0), dtype=dtype))
        w = y
        for i, run in enumerate(runs):
            js = np.flatnonzero(modes // step == i)
            diag = diag_block(i)
            if i:
                diag -= apply_coupling(coupling_block(i, i - 1), g)
            lo, x = joined((js[0] if js.size else 0, mode_columns(i, modes[js], rhs[js])), y,
                           lambda v: apply_coupling(coupling_block(i, i - 1), v))
            inv = np.linalg.inv(diag)
            lo, x = y = live(lo, inv @ x)
            if i >= last_b and not x.shape[1]:
                break
            y_norm[lo : lo + x.shape[1]] += np.abs(x).sum(axis=0)
            if i >= first_b:
                k0 = max(i * step, lo_out)
                ps = np.arange(k0, min(i * step + len(run), lo_out + nb + 1))
                wlo, wx = w = live(*joined((k0 - lo_out, mode_columns(i, ps, dn_rows[ps])), w, lambda v: g.T @ v))
                ghat[wlo : wlo + wx.shape[1], lo : lo + x.shape[1]] += wx.T @ x
            if i + 1 < len(runs):
                up = coupling_block(i, i + 1)
                g = np.einsum("xap,abp->xbp", inv.reshape(len(inv), len(up), n_int), up).reshape(len(inv), -1)
            del diag, inv   # before the next run makes its blocks: a raster's solve then peaks 20% lower

        # refuse before F_n is formed; a solve that overflows has an inf or nan gain and is refused
        gain = np.max(y_norm / np.abs(rhs).sum(axis=1))
        if not gain <= CONDITION_LIMIT * self._baseline_gain:
            raise InteriorResonanceError(
                f"interior Dirichlet solve is near-resonant (boundary-solve gain {gain / self._baseline_gain:.2e} "
                "times its n = 0 value); zero is close to an interior Dirichlet eigenvalue of -Lap - n. "
                "Dilating the domain slightly (rescaling the potential) moves the eigenvalue away."
            )
        ghat[modes - lo_out, np.arange(modes.size)] += weights * [self._d1[parity[p]][0, 0] for p in modes]

        # row m in FFT order, column in node order: the two Nyquist halves add into row and column N/2
        gb = np.zeros((nb, nb), dtype=complex)
        np.add.at(gb, ((np.arange(nb + 1) - nb // 2)[:, None] % nb, cols), ghat)
        fn = np.fft.ifft(np.fft.fft(gb, axis=1), axis=0)
        # the real modes of a complex n (1 + i y: n_hat_{+-1} = +-r/2) are solved in real arithmetic too
        if not is_complex and self.sampled(potential)[2]:
            imag_scale = float(np.max(np.abs(fn.imag)))
            if imag_scale > 1e-8 * max(1.0, float(np.max(np.abs(fn.real)))):
                raise ArithmeticError(f"DtN matrix lost realness for a real potential: Im = {imag_scale:.2e}")
            return np.ascontiguousarray(fn.real)
        return fn
