"""Closed C^2 boundary curves and their quadrature node sets.

Curves are 2pi-periodic parametrizations t -> z(t) of the boundary of a
bounded domain, identified with the complex plane (z = x + iy).  Node sets
carry uniform-parameter trapezoid quadrature, which is spectrally accurate
for smooth closed curves, together with outward unit normals.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Callable

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
    """A smooth closed curve t in [0, 2pi) -> z(t) in C.

    Parameters
    ----------
    param, deriv, second_deriv : callable
        Vectorized maps from parameter values to complex points z(t),
        z'(t), z''(t).
    name : str
        Identifier used in configs and cache keys.
    params : dict
        Constructor parameters, recorded for reproducibility.
    """

    param: Callable[[np.ndarray], np.ndarray]
    deriv: Callable[[np.ndarray], np.ndarray]
    second_deriv: Callable[[np.ndarray], np.ndarray]
    name: str
    params: dict = field(default_factory=dict)

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

    @property
    def length(self) -> float:
        """Quadrature estimate of the boundary length |dO|."""
        return float(np.sum(self.weights))

    def mean(self, values: np.ndarray) -> complex:
        """Arc-length mean (1/|dO|) * integral of values over the boundary."""
        return np.sum(self.weights * values) / self.length

    @property
    def centred_circle(self) -> bool:
        """Whether z_j = r e^{i t_j} on a circle centred at the origin, so that a
        rotation of the plane by a shifts the node data by a in t."""
        r = abs(self.z[0])
        return bool(np.max(np.abs(self.z - r * np.exp(1j * self.t))) <= 1e-14 * r)


def _freeze(*arrays: np.ndarray) -> None:
    for a in arrays:
        a.flags.writeable = False


def make_circle(radius: float) -> BoundaryCurve:
    """Circle of given radius centred at the origin."""
    if radius <= 0:
        raise ValueError(f"radius must be positive, got {radius}")
    r = float(radius)
    return BoundaryCurve(
        param=lambda t: r * np.exp(1j * np.asarray(t, dtype=float)),
        deriv=lambda t: 1j * r * np.exp(1j * np.asarray(t, dtype=float)),
        second_deriv=lambda t: -r * np.exp(1j * np.asarray(t, dtype=float)),
        name="circle",
        params={"radius": r},
    )


def make_ellipse(a: float, b: float) -> BoundaryCurve:
    """Ellipse z(t) = (a cos t, b sin t)."""
    if a <= 0 or b <= 0:
        raise ValueError(f"ellipse axes must be positive, got a={a}, b={b}")
    a, b = float(a), float(b)

    def param(t):
        t = np.asarray(t, dtype=float)
        return a * np.cos(t) + 1j * b * np.sin(t)

    def deriv(t):
        t = np.asarray(t, dtype=float)
        return -a * np.sin(t) + 1j * b * np.cos(t)

    def second_deriv(t):
        t = np.asarray(t, dtype=float)
        return -a * np.cos(t) - 1j * b * np.sin(t)

    return BoundaryCurve(param, deriv, second_deriv, "ellipse", {"a": a, "b": b})


def make_kite() -> BoundaryCurve:
    """The standard kite z(t) = (cos t + 0.65 cos 2t - 0.65, 1.5 sin t)."""

    def param(t):
        t = np.asarray(t, dtype=float)
        return np.cos(t) + 0.65 * np.cos(2 * t) - 0.65 + 1.5j * np.sin(t)

    def deriv(t):
        t = np.asarray(t, dtype=float)
        return -np.sin(t) - 1.3 * np.sin(2 * t) + 1.5j * np.cos(t)

    def second_deriv(t):
        t = np.asarray(t, dtype=float)
        return -np.cos(t) - 2.6 * np.cos(2 * t) - 1.5j * np.sin(t)

    return BoundaryCurve(param, deriv, second_deriv, "kite", {})


def curve_from_fourier(coeffs: dict[int, complex], name: str = "fourier") -> BoundaryCurve:
    """Curve from a table of Fourier coefficients of z(t).

    ``coeffs`` maps mode index m to the complex coefficient c_m of
    z(t) = sum_m c_m e^{i m t}.
    """
    modes = np.array(sorted(coeffs), dtype=int)
    if len(modes) == 0:
        raise ValueError("empty Fourier coefficient table")
    c = np.array([complex(coeffs[int(m)]) for m in modes])

    def series(t, order):
        t = np.atleast_1d(np.asarray(t, dtype=float))
        phase = np.exp(1j * np.outer(t, modes))
        vals = phase @ (c * (1j * modes) ** order)
        return vals

    return BoundaryCurve(
        param=lambda t: series(t, 0),
        deriv=lambda t: series(t, 1),
        second_deriv=lambda t: series(t, 2),
        name=name,
        params={"modes": [int(m) for m in modes], "coeffs": [str(x) for x in c]},
    )


def curve_from_fourier_json(path) -> BoundaryCurve:
    """Load a custom curve from a JSON file.

    Expected schema: {"name": str, "coeffs": {"<m>": [re, im], ...}}.
    """
    with open(path) as fh:
        doc = json.load(fh)
    coeffs = {int(m): complex(v[0], v[1]) for m, v in doc["coeffs"].items()}
    return curve_from_fourier(coeffs, name=doc.get("name", "fourier"))


def curve_by_name(name: str, **params) -> BoundaryCurve:
    """Factory used by configs: circle / ellipse / kite / fourier-json."""
    if name == "circle":
        return make_circle(params.get("radius", 1.0))
    if name == "ellipse":
        return make_ellipse(params["a"], params["b"])
    if name == "kite":
        return make_kite()
    if name == "fourier":
        return curve_from_fourier_json(params["path"])
    raise ValueError(f"unknown curve name {name!r}")


def sample(curve: BoundaryCurve, n: int) -> NodeSet:
    """Sample a curve at N uniform parameters with trapezoid weights.

    Requires N even and >= 16 (the log-quadrature and the Sobolev weights
    both assume an even number of nodes).
    """
    if n < 16:
        raise ValueError(f"need at least 16 nodes, got {n}")
    if n % 2 != 0:
        raise ValueError(f"node count must be even, got {n}")
    t = 2 * np.pi * np.arange(n) / n
    z = np.asarray(curve.param(t), dtype=complex)
    dz = np.asarray(curve.deriv(t), dtype=complex)
    d2z = np.asarray(curve.second_deriv(t), dtype=complex)
    speed = np.abs(dz)
    if np.min(speed) <= 0:
        raise ValueError(f"irregular parametrization: |z'| vanishes on {curve.name}")
    closure = abs(curve.param(0.0) - curve.param(2 * np.pi))
    if closure > 1e-12 * max(1.0, float(np.max(np.abs(z)))):
        raise ValueError(f"curve {curve.name} does not close: |z(0)-z(2pi)| = {closure:.3e}")
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
