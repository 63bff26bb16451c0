"""Correctness checks on one repeat's outputs.

Every seed is held to invariants that do not depend on the rotation offset.
Seed 0 is also compared value by value with ``reference_seed0.json``, whose
``tolerances`` table gives, for each CSV column and summary value, the
allowed difference ``abs + rel * |reference|`` and the solver tolerance it
comes from.  A column with ``"exact": true`` must match as text.
"""

from __future__ import annotations

import csv
import io
import json
import math
from pathlib import Path

REFERENCE = Path(__file__).with_name("reference_seed0.json")

# the E_D refusal ring of the scan grid: |k| = 4 is refused for every angle
_REFUSED_RADIUS = 4.0


def _rows(text: str) -> list[dict]:
    return list(csv.DictReader(io.StringIO(text)))


def invariants(workload: str, outputs: dict) -> list[str]:
    """Seed-independent properties of a workload's ``summary.json`` and CSV files."""
    summary = outputs["summary.json"]
    bad = []
    if workload == "locus":
        if summary.get("validation") is None or not all(c["passed"] for c in summary["validation"]):
            bad.append("validation suite did not pass")
        loc = summary["locus"]
        if loc["failures"]:
            bad.append(f"locus rays failed: {loc['failures']}")
        if not loc["max_ratio_error"] <= 0.3:
            bad.append(f"locus max ratio error {loc['max_ratio_error']:.3g} > 0.3")
        par = summary["parity"]
        br = par["bracket_eps"]
        if not par["evidence"] or br is None or not min(br) <= loc["mean_eps"] <= max(br):
            bad.append(f"parity bracket {br} does not contain mean eps* {loc['mean_eps']:.6g}")
        xi = summary["xi_fit"]
        a_ref = -xi["mu"] / xi["nu"]
        if abs(xi["a"] / a_ref - 1) > 0.05 or abs(xi["b"] - 1) > 0.05:
            bad.append(f"xi fit a = {xi['a']:.5g} (expect {a_ref:.5g}), b = {xi['b']:.5g} (expect 1), not within 5%")
    elif workload == "scan":
        for r in _rows(outputs["scan.csv"]):
            flags = r["flags"].split(";") if r["flags"] else []
            on_ring = math.isclose(math.hypot(float(r["k_re"]), float(r["k_im"])), _REFUSED_RADIUS, rel_tol=1e-9)
            if "kernel" in flags:
                bad.append(f"kernel flag at k = {r['k_re']}+{r['k_im']}j")
            if ("ed_refused" in flags) != on_ring:
                bad.append(f"refusal {'missing' if on_ring else 'off the |k| = 4 ring'} at k = {r['k_re']}+{r['k_im']}j")
    elif workload == "interior256":
        tr = summary["transform"]
        if not (tr["valid"] and tr["sup_bound_product"] < 2.0 and tr["increments_non_increasing"]):
            bad.append(f"transform bound check failed: {tr}")
    return bad


def _close(value: str, ref: str, tol: dict, scale: float | None = None) -> bool:
    if tol.get("exact"):
        return value == ref
    if value == "" or ref == "":
        return value == ref
    v, r = float(value), float(ref)
    return abs(v - r) <= tol.get("abs", 0.0) + tol.get("rel", 0.0) * (abs(r) if scale is None else scale)


def compare(workload: str, outputs: dict, reference: dict) -> list[str]:
    """Differences between a seed-0 repeat's outputs and the stored reference."""
    ref = reference["workloads"][workload]
    tols = reference["tolerances"]
    bad = []
    for fname, ref_rows in ref["csv"].items():
        rows = _rows(outputs[fname])
        if len(rows) != len(ref_rows):
            bad.append(f"{fname}: {len(rows)} rows, reference has {len(ref_rows)}")
            continue
        for i, (row, rrow) in enumerate(zip(rows, ref_rows)):
            scale = None
            if fname == "transform.csv":   # t is compared relative to |t|
                scale = abs(complex(float(rrow["t_re"]), float(rrow["t_im"])))
            for col, rval in rrow.items():
                tol = tols[f"{fname}:{col}"]
                if not _close(row[col], rval, tol, scale if col in ("t_re", "t_im") else None):
                    bad.append(f"{fname} row {i} {col}: {row[col]} vs reference {rval}")
    summary = outputs["summary.json"]
    for path, rval in ref["summary"].items():
        section, key = path.split(".")
        val = summary[section][key]
        tol = tols[f"summary:{path}"]
        if tol.get("exact"):
            ok = json.dumps(val) == json.dumps(rval)
        elif isinstance(rval, list):
            ok = len(val) == len(rval) and all(_close(repr(v), repr(r), tol) for v, r in zip(val, rval))
        else:
            ok = _close(repr(val), repr(rval), tol)
        if not ok:
            bad.append(f"summary {path}: {val} vs reference {rval}")
    return bad


def check(workload: str, seed: int, resp: dict, reference: dict | None = None) -> list[str]:
    """All correctness failures of one repeat (empty when it passes)."""
    errors = resp["manifest"]["detector_errors"]
    if errors:
        return [f"detector error {d}: {e}" for d, e in errors.items()]
    outputs = resp["outputs"]
    bad = invariants(workload, outputs)
    if seed == 0:
        if reference is None:
            with open(REFERENCE) as fh:
                reference = json.load(fh)
        bad += compare(workload, outputs, reference)
    return bad
