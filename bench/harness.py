"""Workloads, metrics and output checks of the suborbit benchmark.

Every workload is closed-loop and single-process: one call into the package
is in flight at a time, and the next starts when the previous returns.  The
harness drives the package only through its public functions (``run_case``,
``build_setup``, ``build_flow``, ``build_family``, ``integrate_flow``,
``conservation_report``); the workload seed given on the command line stays
in the harness, and the package receives only the inputs generated from it.

A run (``run.py``) has four phases:

1. set-up, timed ``SETUP_REPEATS`` times: a fresh ``import suborbit`` plus
   input generation (for ``flow-222`` that includes building the flow, which
   happens once per run); ``setup_s`` is the median;
2. an untimed warm-up on small inputs, so that caches fill before timing;
3. timed passes over the inputs until ``--seconds`` have passed (at least
   one pass), each pass in an order shuffled from the seed;
4. output checks: every pass gives the same records, and no case that the
   committed baseline decided has lost its verdict or changed an integer or
   boolean field of its report.

The machine's speed drifts on a scale of seconds, so every time is a median
over passes, taken per case: ``wall_s`` is the sum over the cases of their
median times.

With ``--trace 1`` phase 3 starts with one untraced reference pass; then the
span tracer of ``spans.py`` is installed, the set-up is repeated once under
it, and the per-layer metrics are that set-up plus the median traced pass.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import platform
import random
import resource
import statistics
import sys
import time
import traceback
import warnings
from collections import Counter
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any, Callable

import numpy as np

import spans

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"
BASELINE_PATH = BENCH_DIR / "baseline.json"

SETUP_REPEATS = 11

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "case_max_s": "s",
    "steps_per_s": "1/s",
    "peak_rss_mb": "MB",
    "decided_frac": "frac",
}


# -- inputs and the calls they make ---------------------------------------

def partition_key(partition) -> str:
    return ",".join(map(str, partition))


@dataclass(frozen=True)
class VerifyInput:
    """One ``run_case`` call, with the spectrum 1..p as ``cmd_sweep`` uses."""

    partition: tuple
    seed: int

    @property
    def key(self) -> str:
        return partition_key(self.partition)


@dataclass(frozen=True)
class FlowInput:
    """A built flow and its x0, made the way ``cmd_flow`` makes them."""

    key: str
    flow: Any
    family: Any
    x0: Any
    steps: int
    dt: float = 1e-3
    record_stride: int = 100
    drift_tol: float = 1e-6   # the CLI's default --drift-tol


@dataclass
class Outcome:
    """What one call returned, reduced to what the benchmark checks."""

    key: str
    record: dict       # the non-float fields of the report
    decided: bool      # CONFIRMED or REDUCED; for a flow, both gates passed
    failed: bool       # raised, diverged or broke the drift gate
    seconds: float     # the whole call
    rk4_steps: int = 0
    integrate_s: float = 0.0


def run_verify(sub, inp: VerifyInput) -> Outcome:
    spectrum = [float(j + 1) for j in range(len(inp.partition))]
    t0 = time.perf_counter()
    case = sub.run_case(list(inp.partition), spectrum, seed=inp.seed)
    elapsed = time.perf_counter() - t0
    return Outcome(inp.key, non_float(case.to_dict()),
                   case.conclusion in (sub.CONFIRMED, sub.REDUCED), False, elapsed)


def build_flow_input(sub, partition, spectrum, b_spectrum, x0_seed: int,
                     steps: int, space: str = "m_tilde",
                     x0_norm: float = 2.0) -> FlowInput:
    setup = sub.build_setup(partition, spectrum)
    flow = sub.build_flow(setup, b_spectrum, space)
    family = sub.build_family(setup, space)
    rng = np.random.default_rng([x0_seed, 61])
    c0 = flow.domain.basis @ rng.standard_normal(flow.domain.dim)
    c0 *= x0_norm / max(np.linalg.norm(c0), 1e-300)
    x0 = sub.LieElement.from_coords(c0, setup.n)
    return FlowInput(partition_key(partition), flow, family, x0, steps)


def run_flow(sub, inp: FlowInput) -> Outcome:
    """Integrate from x0 and gate on divergence and on the member drift."""
    t0 = time.perf_counter()
    try:
        traj = sub.integrate_flow(inp.flow, inp.x0, inp.dt, inp.steps,
                                  inp.record_stride)
    except sub.FlowDivergenceError:
        traj = None
    integrate_s = time.perf_counter() - t0
    passed = False
    if traj is not None:
        drifts = sub.conservation_report(inp.flow, traj, inp.family)
        passed = max(drifts.values(), default=0.0) <= inp.drift_tol
    elapsed = time.perf_counter() - t0
    record = {
        "space": inp.flow.space,
        "steps": inp.steps,
        "records": len(traj) if traj is not None else 0,
        "flow_dim": int(inp.flow.domain.dim),
        "members": [m.name for m in inp.family.members],
        "diverged": traj is None,
        "passed": passed,
    }
    return Outcome(inp.key, record, passed, not passed, elapsed, inp.steps,
                   integrate_s)


# -- workloads ------------------------------------------------------------

@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    make_inputs: Callable[[Any, int], list]     # (package, seed) -> inputs
    run_one: Callable[[Any, Any], Outcome]
    warmup: Callable[[list], list]              # inputs -> small inputs


def sweep_partitions(max_n: int):
    """Ascending partitions of n = 2..max_n with at least two parts."""
    def rec(remaining, minimum):
        if remaining == 0:
            yield ()
            return
        for first in range(minimum, remaining + 1):
            for rest in rec(remaining - first, first):
                yield (first,) + rest
    return [p for n in range(2, max_n + 1) for p in rec(n, 1) if len(p) >= 2]


VERIFY_LARGE = ((2, 3, 3), (3, 3, 3), (1, 1, 6), (1,) * 8)
FLOW_222 = dict(partition=(2, 2, 2), spectrum=(1.0, 2.0, 3.0),
                b_spectrum=(1.0, 3.0, 7.0))
FLOW_STEPS = 2000


def _verify_warmup(inputs):
    return [VerifyInput((1, 1, 2), 0)]


def _flow_warmup(inputs):
    return [replace(inputs[0], steps=200)]


WORKLOADS = {
    wl.name: wl for wl in (
        Workload(
            "verify-large",
            "run_case seed 42, spectrum 1..p, on (2,3,3), (3,3,3), (1,1,6), "
            "(1^8): orbit setup and large SVDs dominate; (1^8) is INCONCLUSIVE "
            "at baseline and stays in",
            lambda sub, seed: [VerifyInput(p, 42) for p in VERIFY_LARGE],
            run_verify, _verify_warmup),
        Workload(
            "sweep-n6",
            "run_case seed 0 on the 23 partitions of sweep --max-n 6: many "
            "small centralizer rank decisions dominate and setup is minor",
            lambda sub, seed: [VerifyInput(p, 0) for p in sweep_partitions(6)],
            run_verify, _verify_warmup),
        Workload(
            "flow-222",
            "(2,2,2), b (1,3,7), m_tilde, dt 1e-3, x0 as cmd_flow builds it for "
            "--seed; flow built once, then 2000-step RK4 runs: the flow RHS "
            "dominates",
            lambda sub, seed: [build_flow_input(sub, **FLOW_222, x0_seed=seed,
                                                steps=FLOW_STEPS)],
            run_flow, _flow_warmup),
    )
}


# -- running --------------------------------------------------------------

def attempt(wl: Workload, sub, inp) -> Outcome:
    """One call; an exception counts as a failed operation."""
    t0 = time.perf_counter()
    try:
        return wl.run_one(sub, inp)
    except Exception as exc:   # the benchmark reports it and keeps going
        traceback.print_exc(file=sys.stderr)
        return Outcome(inp.key, {"error": type(exc).__name__}, False, True,
                       time.perf_counter() - t0)


def pass_order(seed: int, index: int, count: int) -> list[int]:
    order = list(range(count))
    random.Random(f"{seed}/{index}").shuffle(order)
    return order


def run_pass(wl, sub, inputs, order, tracer=None, label=""):
    outcomes = []
    for i in order:
        if tracer is not None:
            tracer.case = f"{label}{inputs[i].key}"
        outcomes.append(attempt(wl, sub, inputs[i]))
    return outcomes


def layer_metrics(agg: dict, counts: Counter, ambiguity_warnings: int,
                  rk4_steps: int) -> dict:
    """The per-layer metrics of one traced section."""
    zero = {"calls": 0, "s": 0.0, "self_s": 0.0}
    out = {}
    for name in spans.SPAN_NAMES:
        rec = agg.get(name, zero)
        out[f"{name}.calls"] = rec["calls"]
        out[f"{name}.s"] = rec["s"]
        out[f"{name}.self_s"] = rec["self_s"]
    integrate_s = out["flows.integrate_flow.s"]
    out["flows.rhs_us"] = 1e6 * integrate_s / (4 * rk4_steps) if rk4_steps else 0.0
    small, large = agg.get(spans.SVD, zero), agg.get(spans.SVD_LARGE, zero)
    out["linalg.svd.calls"] = small["calls"] + large["calls"]
    out["linalg.svd.s"] = small["s"] + large["s"]
    out["linalg.svd.large.calls"] = large["calls"]
    out["linalg.svd.large.s"] = large["s"]
    out["linalg.svd.out_mb"] = counts["linalg.svd.out_bytes"] / 1e6
    out["linalg.rank_ambiguity_warnings"] = ambiguity_warnings
    for fn in spans.COUNTED_NUMPY:
        out[f"numpy.{fn}.calls"] = counts[f"numpy.{fn}.calls"]
    return out


LAYER_UNITS = {"calls": "count", "s": "s", "self_s": "s", "rhs_us": "us",
               "out_mb": "MB_computed", "rank_ambiguity_warnings": "count",
               "failed_frac": "frac", "overhead": "ratio"}


def layer_unit(name: str) -> str:
    return LAYER_UNITS[name.rsplit(".", 1)[-1]]


class _Section:
    """Spans, counters and warnings recorded between two points of a run."""

    def __init__(self, tracer: spans.Tracer, caught: list):
        self.tracer, self.caught = tracer, caught
        self.mark, self.before = len(tracer.spans), Counter(tracer.counts)
        caught.clear()

    def metrics(self, rk4_steps: int, warning_class) -> dict:
        n_warn = sum(issubclass(w.category, warning_class) for w in self.caught)
        return layer_metrics(spans.aggregate(self.tracer.spans, self.mark),
                             self.tracer.counts - self.before, n_warn, rk4_steps)


def measure(wl: Workload, sub, inputs: list, seed: int, seconds: float,
            trace: bool) -> dict:
    """Warm up, run timed passes, and return the raw measurements."""
    for inp in wl.warmup(inputs):
        attempt(wl, sub, inp)
    m = {"passes": [], "reference": None, "setup_layers": None, "layers": [],
         "tracer": None}
    tracer = None
    if trace:
        m["reference"] = run_pass(wl, sub, inputs, pass_order(seed, 0, len(inputs)))
        m["tracer"] = tracer = spans.Tracer()
    with warnings.catch_warnings(record=trace) as caught:
        try:
            if trace:
                warnings.simplefilter("always")
                tracer.install()
                tracer.case = "setup"
                section = _Section(tracer, caught)
                inputs = wl.make_inputs(sub, seed)
                m["setup_layers"] = section.metrics(0, sub.RankAmbiguityWarning)
            start = time.perf_counter()
            while not m["passes"] or time.perf_counter() - start < seconds:
                index = len(m["passes"]) + 1
                section = _Section(tracer, caught) if trace else None
                outs = run_pass(wl, sub, inputs, pass_order(seed, index, len(inputs)),
                                tracer, f"{index}/")
                m["passes"].append(outs)
                if trace:
                    m["layers"].append(section.metrics(
                        sum(o.rk4_steps for o in outs), sub.RankAmbiguityWarning))
        finally:
            if trace:
                tracer.uninstall()
    return m


# -- results --------------------------------------------------------------

def _is_float(v) -> bool:
    return isinstance(v, (float, complex, np.floating, np.complexfloating))


def non_float(obj):
    """The integer, boolean, string and None fields of a report, floats left out."""
    if isinstance(obj, dict):
        return {str(k): non_float(v) for k, v in obj.items() if not _is_float(v)}
    if isinstance(obj, np.ndarray):
        return non_float(obj.tolist())
    if isinstance(obj, (list, tuple)):
        return [non_float(v) for v in obj if not _is_float(v)]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if obj is None or isinstance(obj, str):
        return obj
    return type(obj).__name__


def digest(records: dict) -> str:
    """SHA-256 over the non-float records of all cases, in key order."""
    text = json.dumps([[k, records[k]] for k in sorted(records)],
                      sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def _guard(obj):
    """Only the integer and boolean leaves: the fields the behaviour guard keeps."""
    if isinstance(obj, (bool, int)):
        return obj
    if isinstance(obj, dict):
        return {k: g for k, v in obj.items() if (g := _guard(v)) is not None}
    if isinstance(obj, list):
        return [g for v in obj if (g := _guard(v)) is not None]
    return None


def _guard_diff(base, cur, path: str) -> list[str]:
    if isinstance(base, dict) and isinstance(cur, dict):
        return [d for k in base if k in cur
                for d in _guard_diff(base[k], cur[k], f"{path}.{k}")]
    if (isinstance(base, list) and isinstance(cur, list)
            and len(base) == len(cur)):
        return [d for i, (b, c) in enumerate(zip(base, cur))
                for d in _guard_diff(b, c, f"{path}[{i}]")]
    return [] if base == cur else [f"{path}: {base!r} -> {cur!r}"]


def load_baseline() -> dict:
    try:
        return json.loads(BASELINE_PATH.read_text())
    except FileNotFoundError:
        return {}


def baseline_problems(name: str, records: dict, decided: dict) -> list[str]:
    """Cases the baseline decided that lost the verdict or changed a field.

    A case the baseline left undecided (INCONCLUSIVE) may change freely, so
    that fixing it is not read as a regression.
    """
    base = load_baseline().get("workloads", {}).get(name)
    if base is None:
        return [f"no baseline recorded for {name}"]
    problems = []
    for key, entry in base["cases"].items():
        if key not in records:
            problems.append(f"{key}: not run")
        elif entry["decided"]:
            brec, cur = entry["record"], records[key]
            if not decided[key] or brec.get("conclusion") != cur.get("conclusion"):
                problems.append(f"{key}: verdict {brec.get('conclusion')} -> "
                                f"{cur.get('conclusion')}")
            problems += [f"{key}{d}" for d in
                         _guard_diff(_guard(brec), _guard(cur), "")]
    return problems


def write_baseline(name: str, seed: int, outcomes: list):
    doc = load_baseline()
    records = {o.key: o.record for o in outcomes}
    doc.setdefault("workloads", {})[name] = {
        "recorded_with_seed": seed,
        "digest": digest(records),
        "cases": {o.key: {"decided": o.decided, "record": o.record}
                  for o in sorted(outcomes, key=lambda o: o.key)},
    }
    BASELINE_PATH.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")


def environment() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": {k: v for k, v in sorted(os.environ.items())
                         if k.endswith("_THREADS")},
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "platform": platform.platform(),
    }


def per_case_medians(passes: list, field: str) -> dict:
    by_key: dict[str, list] = {}
    for outs in passes:
        for o in outs:
            by_key.setdefault(o.key, []).append(getattr(o, field))
    return {k: statistics.median(v) for k, v in by_key.items()}


def summarize(wl: Workload, m: dict, setup_s: float, trace: bool):
    """(last-line result, detail) of one run."""
    runs = ([m["reference"]] if m["reference"] else []) + m["passes"]
    outcomes = [o for outs in runs for o in outs]
    first = {o.key: o.record for o in runs[0]}
    decided = {o.key: o.decided for o in runs[0]}
    unstable = sorted({o.key for outs in runs[1:] for o in outs
                       if o.record != first[o.key]})
    problems = baseline_problems(wl.name, first, decided)
    attempted = len(outcomes)
    n_decided = sum(o.decided for o in outcomes)
    case_s = per_case_medians(m["passes"], "seconds")
    wall_s = sum(case_s.values())

    if trace:
        setup = m["setup_layers"]
        metrics = {k: setup[k] + statistics.median(layer[k] for layer in m["layers"])
                   for k in setup}
        metrics["failed_frac"] = (attempted - n_decided) / attempted
        reference_s = sum(o.seconds for o in m["reference"])
        metrics["trace.overhead"] = wall_s / reference_s
        units = {k: layer_unit(k) for k in metrics}
    else:
        steps = sum(per_case_medians(m["passes"], "rk4_steps").values())
        if steps:
            work_rate = steps / sum(per_case_medians(m["passes"], "integrate_s").values())
        else:
            work_rate = len(case_s) / wall_s
        metrics = {
            "setup_s": setup_s,
            "wall_s": wall_s,
            "case_max_s": max(case_s.values()),
            "steps_per_s": work_rate,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "decided_frac": n_decided / attempted,
        }
        units = END_TO_END
    result = {
        "correct": not unstable and not problems,
        "attempted": attempted,
        "failed": sum(o.failed for o in outcomes),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    detail = {
        "workload": wl.name,
        "trace": int(trace),
        "environment": environment(),
        "passes": len(m["passes"]),
        "pass_s": [sum(o.seconds for o in outs) for outs in m["passes"]],
        "case_median_s": case_s,
        "verdicts": {o.key: o.record.get("conclusion", o.record.get("passed"))
                     for o in runs[0]},
        "failed_frac": (attempted - n_decided) / attempted,
        "digest": digest(first),
        "baseline_digest": load_baseline().get("workloads", {})
                                          .get(wl.name, {}).get("digest"),
        "unstable_cases": unstable,
        "baseline_problems": problems,
    }
    if trace:
        traced = {o.key: o.record for o in m["passes"][0]}
        detail["traced_digest_equal"] = digest(traced) == digest(first)
        detail["unwrapped"] = m["tracer"].unwrapped
    return result, detail


def import_package(wl: Workload, seed: int):
    """Time a fresh ``import suborbit`` plus input generation, several times."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    times = []
    for _ in range(SETUP_REPEATS):
        for name in [n for n in sys.modules
                     if n == "suborbit" or n.startswith("suborbit.")]:
            del sys.modules[name]
        t0 = time.perf_counter()
        sub = importlib.import_module("suborbit")
        inputs = wl.make_inputs(sub, seed)
        times.append(time.perf_counter() - t0)
    if Path(sub.__file__).resolve().parent != SRC / "suborbit":
        raise ImportError(f"imported suborbit from {sub.__file__}, not from {SRC}")
    return statistics.median(times), sub, inputs


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--write-baseline", action="store_true",
                    help="record the verdicts of this run in bench/baseline.json")
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be non-negative and --seconds positive")
    if not (SRC / "suborbit" / "__init__.py").is_file():
        print(f"error: no suborbit package under {SRC}", file=sys.stderr)
        return 2

    wl = WORKLOADS[args.workload]
    setup_s, sub, inputs = import_package(wl, args.seed)
    m = measure(wl, sub, inputs, args.seed, args.seconds, bool(args.trace))
    if args.write_baseline:
        write_baseline(wl.name, args.seed, m["passes"][0])
    result, detail = summarize(wl, m, setup_s, bool(args.trace))
    if args.trace:
        OUT_DIR.mkdir(exist_ok=True)
        path = OUT_DIR / f"spans-{wl.name}-seed{args.seed}.jsonl"
        m["tracer"].write_jsonl(path)
        detail["spans_file"] = str(path.relative_to(ROOT))
    print(json.dumps(detail))
    print(json.dumps(result))
    return 0
