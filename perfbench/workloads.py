"""The benchmark's workloads: one ``RunConfig`` document per name and seed.

The seed sets only a rotation offset that is added to every angular grid
the config exposes: the scan angles, the parity path angle and the
transform ray angle.  Radii, sizes and tolerances are fixed, so the set of
refused k-points and the split between the Green series and E1 do not
depend on the seed.  ``RunConfig`` gives the locus no angle offset (it
always traces ``2 pi j / locus_angles``), so the locus grid itself is the
same for every seed.

This module imports nothing from the package: the runner stays free of
numpy, and the worker process receives only the generated document.
"""

from __future__ import annotations

import math

#: one-line reason for each workload, also listed in BENCHMARK.json
WHY = {
    "locus": "radial kernel-criterion solves at |k| ~ e^-75: Green series, S_k inversion, weighted SVD; warm disk cache read path",
    "scan": "non-radial sigma_scan 16x8 to |k| = 4: three S_k assemblies per point, E1 branch, refusal ring; no interior solve",
    "interior256": "non-radial N = 256 interior solve dominates (SuperLU fill, peak RSS); empty cache write path; both trace routes",
}

NAMES = tuple(WHY)

#: workloads whose disk cache is filled by one discarded warm-up repeat; the
#: others start every repeat from an empty cache
WARM_CACHE = {"locus": True, "scan": True, "interior256": False}

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0

SCAN_RADII = (1e-3, 4.0, 16)      # geomspace(rmin, rmax, nr)
SCAN_NPHI = 8


def rotation(seed: int) -> float:
    """Angular offset in [0, 2 pi) for a seed; seed 0 gives 0 (the canonical grids)."""
    return 2.0 * math.pi * math.fmod(seed * _GOLDEN, 1.0)


def _geomspace(lo: float, hi: float, n: int) -> list[float]:
    step = math.log(hi / lo) / (n - 1)
    return [lo * math.exp(i * step) for i in range(n)]


def scan_points(seed: int) -> list[list[float]]:
    """The 16 x 8 log-polar grid as explicit (re, im) pairs, radius-major."""
    off = rotation(seed)
    pts = []
    for r in _geomspace(*SCAN_RADII):
        for j in range(SCAN_NPHI):
            phi = off + 2.0 * math.pi * j / SCAN_NPHI
            pts.append([r * math.cos(phi), r * math.sin(phi)])
    return pts


def config(name: str, seed: int) -> dict:
    """The RunConfig fields of a workload; ``outdir`` and ``cache_dir`` are
    filled in per repeat by the runner."""
    off = rotation(seed)
    conductive = {"kind": "conductive", "amplitude": 2.0, "power": 3}
    poly_cos = {"profile": "poly_cos", "amplitude": 1.0, "power": 3, "cos_coeff": 0.5}
    base = {"curve": {"name": "circle", "radius": 1.0}, "potential": conductive,
            "workers": 2, "use_cache": True, "seed": 0}
    if name == "locus":
        return {**base, "n_nodes": 128, "lam": 0.05,
                "omega": {"profile": "radial_poly", "amplitude": 1.0, "power": 3},
                "detectors": ["validate", "locus", "xi_fit", "parity"], "locus_angles": 16,
                "parity_eps": {"eps_a": 0.5, "eps_b": 2.0, "phi": off, "scale": "prediction"}}
    if name == "scan":
        return {**base, "n_nodes": 128, "lam": 0.05, "omega": poly_cos,
                "detectors": ["sigma_scan"],
                "kgrid": {"type": "list", "values": scan_points(seed)}}
    if name == "interior256":
        return {**base, "n_nodes": 256, "lam": -0.05, "omega": poly_cos,
                "detectors": ["transform"],
                "transform_krange": {"rmin": 1e-6, "rmax": 1e-2, "n": 9,
                                     "phi": math.fmod(0.9 + off, 2.0 * math.pi)}}
    raise ValueError(f"unknown workload {name!r}; choose from {', '.join(NAMES)}")


def warmup_overrides() -> dict:
    """Turn a workload config into a cheap run that still fills the disk cache:
    ``harness.run`` routes F_n through the cache before any detector other
    than ``validate``, and one scan point is the cheapest such detector."""
    return {"detectors": ["sigma_scan"], "kgrid": {"type": "list", "values": [[0.5, 0.0]]}}
