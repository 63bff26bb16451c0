"""Closed boundary curves and their quadrature node sets.

Every curve is a table of Fourier coefficients c_m of z(t) = sum_m c_m e^{imt},
t in [0, 2pi), and z, z' and z'' are read from that one series.  The circle of
radius r is {1: r}, the ellipse (a cos t, b sin t) is {1: (a+b)/2, -1: (a-b)/2}
and the kite (cos t + 0.65 cos 2t - 0.65, 1.5 sin t) is
{-2: 0.325, -1: -0.25, 0: -0.65, 1: 1.25, 2: 0.325}.  The interior map F_n is
supported exactly on the table {1: 1}.  Node sets carry uniform-parameter
trapezoid quadrature, spectrally accurate for smooth closed curves, and
outward unit normals.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "BoundaryCurve",
    "NodeSet",
    "make_circle",
    "make_ellipse",
    "make_kite",
    "curve_from_fourier",
    "curve_from_fourier_json",
    "curve_by_name",
    "sample",
]


@dataclass(frozen=True, eq=False)
class BoundaryCurve:
    """The curve z(t) = sum_m coeffs[i] e^{i modes[i] t} (``modes`` sorted); ``name``
    and the constructor's ``params`` identify it in configs and cache keys."""

    modes: np.ndarray
    coeffs: np.ndarray
    name: str
    params: dict = field(default_factory=dict)

    def z(self, t, order: int = 0) -> np.ndarray:
        """z(t), z'(t) or z''(t) (``order`` 0, 1 or 2) from the series, vectorized over t."""
        phase = np.exp(1j * np.outer(np.asarray(t, dtype=float), self.modes))
        return phase @ (self.coeffs * (1j * self.modes) ** order)

    def key(self) -> str:
        """Stable identifier (name plus sorted parameters)."""
        items = ",".join(f"{k}={self.params[k]!r}" for k in sorted(self.params))
        return f"{self.name}({items})"


@dataclass(frozen=True, eq=False)
class NodeSet:
    """Quadrature nodes on a boundary curve.

    Attributes
    ----------
    curve : BoundaryCurve
    n_nodes : int
        Even number of uniform-parameter nodes.
    t : (N,) parameters 2*pi*j/N.
    z : (N,) complex node positions.
    dz : (N,) complex tangent vectors z'(t_j).
    speed : (N,) |z'(t_j)|.
    weights : (N,) arc-length weights |z'(t_j)| * 2*pi/N.
    normals : (N,) complex outward unit normals.
    curvature : (N,) signed curvature.
    memo : k-independent operators built on these nodes (log kernel, B^{-1} on mean-free
        densities, F_0, the layer reference of every S_k^{-1}).
    """

    curve: BoundaryCurve
    n_nodes: int
    t: np.ndarray
    z: np.ndarray
    dz: np.ndarray
    speed: np.ndarray
    weights: np.ndarray
    normals: np.ndarray
    curvature: np.ndarray
    memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @property
    def length(self) -> float:
        """Quadrature estimate of the boundary length |dO|."""
        return float(np.sum(self.weights))

    @property
    def centred_circle(self) -> bool:
        """Whether z(t) = c e^{it} (m = 1 is the only nonzero mode), so that a
        rotation of the plane by a shifts the node data by a in t."""
        c = self.curve
        return c.modes[c.coeffs != 0].tolist() == [1]


def _freeze(*arrays: np.ndarray) -> None:
    for a in arrays:
        a.flags.writeable = False


def _table(coeffs: dict[int, complex], name: str, params: dict) -> BoundaryCurve:
    modes = np.array(sorted(coeffs), dtype=int)
    if len(modes) == 0:
        raise ValueError("empty Fourier coefficient table")
    c = np.array([complex(coeffs[int(m)]) for m in modes])
    _freeze(modes, c)
    return BoundaryCurve(modes, c, name, params)


def make_circle(radius: float = 1.0) -> BoundaryCurve:
    """Circle of given radius centred at the origin."""
    if radius <= 0:
        raise ValueError(f"radius must be positive, got {radius}")
    r = float(radius)
    return _table({1: r}, "circle", {"radius": r})


def make_ellipse(a: float, b: float) -> BoundaryCurve:
    """Ellipse z(t) = (a cos t, b sin t)."""
    if a <= 0 or b <= 0:
        raise ValueError(f"ellipse axes must be positive, got a={a}, b={b}")
    a, b = float(a), float(b)
    return _table({1: (a + b) / 2, -1: (a - b) / 2}, "ellipse", {"a": a, "b": b})


def make_kite() -> BoundaryCurve:
    """The standard kite z(t) = (cos t + 0.65 cos 2t - 0.65, 1.5 sin t)."""
    return _table({-2: 0.325, -1: -0.25, 0: -0.65, 1: 1.25, 2: 0.325}, "kite", {})


def curve_from_fourier(coeffs: dict[int, complex], name: str = "fourier") -> BoundaryCurve:
    """Curve z(t) = sum_m c_m e^{imt} from the table ``coeffs`` {m: c_m}."""
    curve = _table(coeffs, name, {})
    curve.params.update(modes=curve.modes.tolist(), coeffs=[str(x) for x in curve.coeffs])
    return curve


def curve_from_fourier_json(path) -> BoundaryCurve:
    """Load a custom curve from a JSON file.

    Expected schema: {"name": str, "coeffs": {"<m>": [re, im], ...}}, each [re, im] finite.
    """
    with open(path) as fh:
        doc = json.load(fh)
    coeffs = {}
    for m, v in doc["coeffs"].items():
        if not (isinstance(v, list) and len(v) == 2 and all(type(x) in (int, float) and np.isfinite(x) for x in v)):
            raise ValueError(f"{path}: Fourier coefficient {m!r} is {v!r}, not a pair [re, im] of finite numbers")
        coeffs[int(m)] = complex(*v)
    return curve_from_fourier(coeffs, name=doc.get("name", "fourier"))


_CURVES = {"circle": make_circle, "ellipse": make_ellipse, "kite": make_kite, "fourier": curve_from_fourier_json}


def curve_by_name(name: str, **params) -> BoundaryCurve:
    """Factory used by configs: ``params`` are the keywords of the named builder, so a
    missing or foreign parameter is a TypeError."""
    if name not in _CURVES:
        raise ValueError(f"unknown curve name {name!r}; valid: {sorted(_CURVES)}")
    return _CURVES[name](**params)


def sample(curve: BoundaryCurve, n: int) -> NodeSet:
    """Sample a curve at N uniform parameters with trapezoid weights.

    Requires N even and >= 16 (the log-quadrature and the Sobolev weights
    both assume an even number of nodes).
    """
    if n < 16 or n % 2:
        raise ValueError(f"node count must be even and at least 16, got {n}")
    t = 2 * np.pi * np.arange(n) / n
    z, dz, d2z = (curve.z(t, order) for order in range(3))
    speed = np.abs(dz)
    if np.min(speed) <= 0:
        raise ValueError(f"irregular parametrization: |z'| vanishes on {curve.name}")
    weights = speed * (2 * np.pi / n)
    # outward normal for counterclockwise orientation: (y', -x')/|z'|
    normals = (dz.imag - 1j * dz.real) / speed
    flux = float(np.sum(weights * (normals.real * z.real + normals.imag * z.imag)))
    if flux <= 0:
        raise ValueError(f"curve {curve.name} is not counterclockwise (normal flux {flux:.3e})")
    curvature = (dz.real * d2z.imag - dz.imag * d2z.real) / speed**3
    nodes = NodeSet(curve, n, t, z, dz, speed, weights, normals, curvature)
    _freeze(t, z, dz, speed, weights, normals, curvature)
    return nodes
