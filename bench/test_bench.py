"""Tests of the benchmark harness itself: pass-through wrappers, metric
coverage per workload, metric names and the behaviour-guard digest."""

import json
import re
import sys

import numpy as np
import pytest

import harness
import spans

if str(harness.SRC) not in sys.path:
    sys.path.insert(0, str(harness.SRC))
import suborbit  # noqa: E402

BENCHMARK = json.loads((harness.ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9_.-]+")
FLOW_LAYERS = ("flows.build_flow", "flows.integrate_flow",
               "flows.conservation_report")

SMALL_VERIFY = harness.Workload(
    "verify-small", "",
    lambda sub, seed: [harness.VerifyInput((1, 1, 2), 0),
                       harness.VerifyInput((1, 1, 4), 0)],
    harness.run_verify, lambda inputs: [])
SMALL_FLOW = harness.Workload(
    "flow-small", "",
    lambda sub, seed: [harness.build_flow_input(sub, **harness.FLOW_222,
                                                x0_seed=seed, steps=50)],
    harness.run_flow, lambda inputs: [])


def traced_metrics(wl, seed=3):
    inputs = wl.make_inputs(suborbit, seed)
    m = harness.measure(wl, suborbit, inputs, seed, 0.0, trace=True)
    return harness.summarize(wl, m, 0.0, trace=True)


def test_wrappers_return_the_callee_result_unchanged():
    tracer = spans.Tracer()
    sentinel = object()
    assert tracer.timed("x", lambda *a, **k: sentinel)(1, k=2) is sentinel
    assert tracer.counted("c", lambda: sentinel)() is sentinel
    a = np.random.default_rng(0).standard_normal((5, 3))
    svd = tracer.timed_svd(np.linalg.svd)
    for kwargs in ({}, {"full_matrices": False}):
        for got, want in zip(svd(a, **kwargs), np.linalg.svd(a, **kwargs)):
            np.testing.assert_array_equal(got, want)
    np.testing.assert_array_equal(svd(a, compute_uv=False),
                                  np.linalg.svd(a, compute_uv=False))

    def boom():
        raise KeyError("k")
    with pytest.raises(KeyError):
        tracer.timed("y", boom)()
    assert [s[0] for s in tracer.spans] == ["x", "linalg.svd", "linalg.svd",
                                            "linalg.svd", "y"]
    assert not tracer._stack


def test_install_wraps_every_lookup_site_and_uninstall_restores():
    originals = {f"{m}.{fn}": getattr(sys.modules[f"suborbit.{m}"], fn)
                 for m, fns in spans.LAYERS.items() for fn in fns}
    numpy_originals = (np.linalg.svd, np.einsum, np.tensordot)
    before = suborbit.run_case((1, 1, 2), (1.0, 2.0, 3.0), seed=1).to_dict()
    tracer = spans.Tracer()
    tracer.install()
    try:
        for module in ("orbit", "generic", "pencil", "momentmap"):
            site = sys.modules[f"suborbit.{module}"].centralizer
            assert site.__wrapped__ is originals["lie.centralizer"]
        assert suborbit.bridge.build_setup.__wrapped__ is originals["orbit.build_setup"]
        traced = suborbit.run_case((1, 1, 2), (1.0, 2.0, 3.0), seed=1).to_dict()
    finally:
        tracer.uninstall()
    assert traced == before
    names = {s[0] for s in tracer.spans}
    assert {"bridge.run_case", "lie.centralizer", "generic.is_in_R",
            "pencil.kronecker_test", "linalg.svd"} <= names
    for name, fn in originals.items():
        module, attr = name.split(".")
        assert getattr(sys.modules[f"suborbit.{module}"], attr) is fn
    assert (np.linalg.svd, np.einsum, np.tensordot) == numpy_originals


def test_aggregate_self_time_and_nested_same_name():
    spans_ = [["a", 0.0, 10.0, -1, None],
              ["b", 1.0, 4.0, 0, None],
              ["a", 5.0, 9.0, 0, None],
              ["b", 6.0, 7.0, 2, None]]
    agg = spans.aggregate(spans_)
    assert agg["a"] == {"calls": 2, "s": 10.0, "self_s": 3.0 + 3.0}
    assert agg["b"] == {"calls": 2, "s": 4.0, "self_s": 4.0}


def test_every_layer_metric_appears_where_the_workload_reaches_it():
    declared = [m["name"] for m in BENCHMARK["per_layer"]]
    reached = {
        "verify-small": [n for n in spans.SPAN_NAMES if n not in FLOW_LAYERS],
        "flow-small": list(FLOW_LAYERS) + ["orbit.build_setup",
                                           "invariants.build_family"],
    }
    for wl in (SMALL_VERIFY, SMALL_FLOW):
        result, detail = traced_metrics(wl)
        metrics = result["metrics"]
        assert sorted(metrics) == sorted(declared)
        for m in BENCHMARK["per_layer"]:
            assert metrics[m["name"]]["unit"] == m["unit"]
        for name in reached[wl.name]:
            assert metrics[f"{name}.calls"]["value"] > 0, name
            assert metrics[f"{name}.s"]["value"] > 0, name
        assert metrics["linalg.svd.calls"]["value"] > 0
        assert metrics["numpy.einsum.calls"]["value"] > 0
        assert detail["traced_digest_equal"] and not detail["unstable_cases"]
        assert result["failed"] == 0
    assert metrics["flows.rhs_us"]["value"] > 0


def test_metric_and_workload_names():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(harness.WORKLOADS)
    for w in BENCHMARK["workloads"]:
        assert w["why"] == harness.WORKLOADS[w["name"]].why
    e2e = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert e2e == harness.END_TO_END
    names = list(e2e) + [m["name"] for m in BENCHMARK["per_layer"]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name), name


def test_digest_leaves_out_floats():
    a = {"n": 3, "ok": True, "r": 0.5, "v": [1.0, 2], "s": "x", "z": None,
         "d": {"f": np.float64(1.5), "i": np.int64(2), "b": np.bool_(False)}}
    b = dict(a, r=0.25, v=[3.0, 2], d=dict(a["d"], f=2.5))
    assert harness.non_float(a) == {"n": 3, "ok": True, "v": [2], "s": "x",
                                    "z": None, "d": {"i": 2, "b": False}}
    assert harness.digest({"k": harness.non_float(a)}) == \
        harness.digest({"k": harness.non_float(b)})
    assert harness.digest({"k": harness.non_float(a)}) != \
        harness.digest({"k": harness.non_float(dict(a, n=4))})


def test_baseline_guard_allows_fixing_an_undecided_case_only():
    base = harness.load_baseline()["workloads"]["verify-large"]["cases"]
    records = {k: v["record"] for k, v in base.items()}
    decided = {k: v["decided"] for k, v in base.items()}
    assert harness.baseline_problems("verify-large", records, decided) == []
    undecided = next(k for k, v in decided.items() if not v)
    fixed = dict(records, **{undecided: dict(records[undecided],
                                             conclusion=suborbit.CONFIRMED)})
    assert harness.baseline_problems(
        "verify-large", fixed, dict(decided, **{undecided: True})) == []
    key = next(k for k, v in decided.items() if v)
    broken = dict(records, **{key: dict(records[key], n=records[key]["n"] + 1)})
    assert harness.baseline_problems("verify-large", broken, decided)


def test_no_package_means_no_result(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(harness, "SRC", tmp_path / "src")
    assert harness.main(["--workload", "flow-222", "--seed", "0",
                         "--seconds", "1"]) == 2
    assert capsys.readouterr().out == ""
