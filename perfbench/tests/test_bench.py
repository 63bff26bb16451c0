"""Tests of the benchmark itself: tracing, layer coverage, correctness check, spec.

Run from the repository root with ``python -m pytest perfbench/tests -q``
(about a minute: one traced repeat of each workload).
"""

import copy
import json
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(HERE))

import check  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    """One traced seed-0 repeat of each workload, after the warm-up the runner does."""
    out = {}
    for name in workloads.NAMES:
        work = tmp_path_factory.mktemp(name)
        deadline = time.monotonic() + run.RUN_LIMIT_S
        cfg = {**workloads.config(name, 0), "cache_dir": str(work / "cache")}
        if workloads.WARM_CACHE[name]:
            warm = run.one_repeat({**cfg, **workloads.warmup_overrides()}, work, False, deadline)
            assert not warm.get("failures"), warm["failures"]
        rep = run.one_repeat(cfg, work, True, deadline, spans=work / "spans.jsonl")
        assert not rep.get("failures"), rep["failures"]
        rep["spans_path"] = work / "spans.jsonl"
        out[name] = rep
    return out


def test_pool_threads_keep_their_own_span_stacks():
    tracer = tracing.Tracer("t")

    def leaf():
        time.sleep(0.02)

    leaf = tracer.wrap("m.leaf", leaf)

    def inner(_):
        time.sleep(0.01)
        leaf()

    inner = tracer.wrap("m.inner", inner)

    def outer():
        with ThreadPoolExecutor(max_workers=2) as pool:
            list(pool.map(inner, range(4)))

    tracer.wrap("m.outer", outer)()
    spans = {s.id: s for s in tracer.spans}
    by_name = {n: [s for s in spans.values() if s.name == n] for n in ("m.outer", "m.inner", "m.leaf")}
    (root,) = by_name["m.outer"]
    assert all(s.parent == root.id for s in by_name["m.inner"])
    for s in by_name["m.leaf"]:
        parent = spans[s.parent]
        assert parent.name == "m.inner" and parent.thread == s.thread
    own = tracing.self_times(list(spans.values()))
    assert min(own.values()) >= 0
    # two threads ran four 30 ms calls; the union, not the sum, is subtracted from outer
    assert own[root.id] < 0.5 * (root.end - root.start)


def test_every_self_time_is_non_negative_on_scan(traced):
    rep = traced["scan"]
    assert rep["min_self_s"] >= 0
    spans = [tracing.Span(**json.loads(line)) for line in rep["spans_path"].read_text().splitlines()]
    assert len(spans) == rep["spans"]
    assert min(tracing.self_times(spans).values()) >= 0
    assert len({s.thread for s in spans}) >= 2   # the harness pool really ran


def test_every_layer_metric_records_work_where_expected(traced):
    missing = []
    for spec in run.PER_LAYER:
        for wl in {w for move in spec["moves"] for w in move["workloads"]}:
            if not traced[wl]["layers"][spec["name"]] > 0:
                missing.append(f"{spec['name']} on {wl}")
    assert not missing, missing
    assert traced["scan"]["layers"]["boundary_ops.assemble_S.per_kpoint"] == 3.0
    assert traced["interior256"]["layers"]["transform.trace_u.per_point"] == 2.0


def test_seed0_outputs_pass_and_a_perturbed_reference_fails(traced):
    reference = json.loads(check.REFERENCE.read_text())
    for name, rep in traced.items():
        assert check.check(name, 0, rep, reference) == []

    def perturbed(workload, fname, col, factor):
        ref = copy.deepcopy(reference)
        row = ref["workloads"][workload]["csv"][fname][0]
        tol = ref["tolerances"][f"{fname}:{col}"]
        step = 10 * (tol.get("abs", 0.0) + tol.get("rel", 0.0) * abs(float(row[col])))
        row[col] = repr(float(row[col]) + factor * step)
        return ref

    assert check.check("locus", 0, traced["locus"], perturbed("locus", "locus.csv", "eps_star", 1))
    assert check.check("scan", 0, traced["scan"], perturbed("scan", "scan.csv", "sigma_min_P", -1))
    assert check.check("interior256", 0, traced["interior256"],
                       perturbed("interior256", "transform.csv", "bound_product", 1))
    ref = copy.deepcopy(reference)
    ref["workloads"]["scan"]["csv"]["scan.csv"][0]["n_minus"] = "1"
    assert check.check("scan", 0, traced["scan"], ref)


def test_seed_only_rotates_the_angular_grids():
    reference = json.loads(check.REFERENCE.read_text())
    for name in workloads.NAMES:
        assert workloads.config(name, 0) == reference["workloads"][name]["config"]
        a, b = workloads.config(name, 0), workloads.config(name, 7)
        for key in ("parity_eps", "kgrid", "transform_krange"):
            a.pop(key, None), b.pop(key, None)
        assert a == b
    radii = {round(abs(complex(*p)), 12) for p in workloads.scan_points(7)}
    assert radii == {round(abs(complex(*p)), 12) for p in workloads.scan_points(0)}


def test_benchmark_json_lists_what_the_runner_reports():
    doc = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in doc["workloads"]] == list(workloads.NAMES)
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in doc["per_layer"]] == [
        (s["name"], s["unit"]) for s in run.PER_LAYER]
    setup = next(m for m in doc["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in doc["end_to_end"])
