"""Command-line surface: batch verification, flow conservation runs, and the
small-rank sweep.

Reports are JSON documents written atomically with sorted keys and full float
precision, so a rerun with identical inputs reproduces the file byte for
byte.  Wall-clock timings go to stderr only, never into the report.  Exit
codes are the machine contract: 0 for a confirmed or reduced-and-confirmed
verdict, 1 for input errors, 2 for an inconclusive or failed verification,
3 for an integrator blow-up.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
import time
import warnings

import numpy as np

from . import __version__
from .bridge import CONFIRMED, INCONCLUSIVE, REDUCED, run_case
from .flows import (FlowDivergenceError, build_flow, conservation_report,
                    energy_drift, integrate_flow, lax_residual, phi_spectrum)
from .invariants import build_family, member_values
from .lie import LieElement
from .orbit import build_setup


def _write_atomic(path: str, text: str):
    d = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".suborbit-", suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as f:
            f.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _write_json(path: str, doc: dict):
    _write_atomic(path, json.dumps(doc, indent=2, sort_keys=True) + "\n")


def _parse_list(text: str, what: str, kind) -> list:
    """The comma-separated values of ``text`` converted by ``kind`` (int or float)."""
    try:
        vals = [kind(t) for t in text.split(",") if t != ""]
    except ValueError:
        noun = "integers" if kind is int else "numbers"
        raise ValueError(f"could not parse {what} {text!r} as a comma-separated "
                         f"list of {noun}")
    if not vals:
        raise ValueError(f"{what} is empty")
    return vals


def cmd_verify(args) -> int:
    partition = _parse_list(args.partition, "partition", int)
    spectrum = _parse_list(args.spectrum, "spectrum", float)
    t0 = time.perf_counter()
    case = run_case(partition, spectrum, seed=args.seed,
                    dim_samples=args.samples, rank_tol=args.tolerance_rank)
    elapsed = time.perf_counter() - t0
    doc = {
        "tool": {"name": "suborbit", "version": __version__},
        "inputs": {
            "partition": partition,
            "spectrum": spectrum,
            "seed": args.seed,
            "samples": args.samples,
            "rank_tol": args.tolerance_rank,
        },
        "case": case.to_dict(),
        "conclusion": case.conclusion,
    }
    if args.out:
        _write_json(args.out, doc)
    else:
        print(json.dumps(doc, indent=2, sort_keys=True))
    print(f"conclusion: {case.conclusion} ({elapsed:.2f}s)", file=sys.stderr)
    return 0 if case.conclusion in (CONFIRMED, REDUCED) else 2


def cmd_flow(args) -> int:
    partition = _parse_list(args.partition, "partition", int)
    spectrum = _parse_list(args.spectrum, "spectrum", float)
    b_values = _parse_list(args.b_spectrum, "b-spectrum", float)
    if not 0 < args.dt < np.inf:
        raise ValueError(f"--dt must be positive and finite, got {args.dt}")
    if not np.isfinite(args.x0_norm):
        raise ValueError(f"--x0-norm must be finite, got {args.x0_norm}")
    if not 0 <= args.drift_tol < np.inf:
        raise ValueError(f"--drift-tol must be finite and non-negative, "
                         f"got {args.drift_tol}")
    if len(b_values) != len(partition):
        raise ValueError(
            f"b-spectrum has {len(b_values)} entries for {len(partition)} blocks")
    setup = build_setup(partition, spectrum)
    spec = build_flow(setup, b_values, args.space)
    family = build_family(setup, args.space)
    rng = np.random.default_rng([args.seed, 61])
    c0 = spec.domain.basis @ rng.standard_normal(spec.domain.dim)
    c0 *= args.x0_norm / max(np.linalg.norm(c0), 1e-300)
    x0 = LieElement.from_coords(c0, setup.n)

    t0 = time.perf_counter()
    try:
        traj = integrate_flow(spec, x0, args.dt, args.steps, args.record_stride)
    except FlowDivergenceError as e:
        print(f"error: {e}", file=sys.stderr)
        return 3
    elapsed = time.perf_counter() - t0

    drifts = conservation_report(spec, traj, family)
    lax_max = max(lax_residual(spec, traj.state(i, setup.n), 0.5 + 0.5j)
                  for i in range(len(traj)))
    summary = {
        "tool": {"name": "suborbit", "version": __version__},
        "inputs": {
            "partition": partition, "spectrum": spectrum, "b_spectrum": b_values,
            "space": args.space, "dt": args.dt, "steps": args.steps,
            "record_stride": args.record_stride, "seed": args.seed,
            "x0_norm": args.x0_norm, "drift_tol": args.drift_tol,
        },
        "members": [m.name for m in family.members],
        "drifts": drifts,
        "max_drift": max(drifts.values()) if drifts else 0.0,
        "energy_drift": energy_drift(spec, traj),
        "lax_residual_max": lax_max,
        "projection_residual_max": float(traj.residuals.max()),
        "phi_spectrum": phi_spectrum(spec).tolist(),
        "passed": (max(drifts.values()) <= args.drift_tol) if drifts else True,
    }
    if args.out_summary:
        _write_json(args.out_summary, summary)
    if args.out_traj:
        _write_trajectory_csv(args.out_traj, spec, traj, family)
    print(f"max drift {summary['max_drift']:.3e} over T = {args.dt * args.steps:g} "
          f"({elapsed:.2f}s)", file=sys.stderr)
    return 0 if summary["passed"] else 2


def _write_trajectory_csv(path: str, spec, traj, family):
    n = spec.setup.n
    dom = spec.domain
    header = (["t"] + [f"c_{i + 1}" for i in range(dom.dim)]
              + [f"f_{i + 1}" for i in range(len(family.members))])
    rows = []
    for i in range(len(traj)):
        x = traj.state(i, n)
        coeffs = dom.coeffs(x.coords)
        vals = member_values(family, x)
        rows.append([repr(float(traj.times[i]))]
                    + [repr(float(c)) for c in coeffs]
                    + [repr(float(v)) for v in vals])
    buf = []
    buf.append(",".join(header))
    for row in rows:
        buf.append(",".join(row))
    _write_atomic(path, "\n".join(buf) + "\n")


def _partitions(n: int):
    """Ascending partitions of n with at least two parts."""
    def rec(remaining, minimum):
        if remaining == 0:
            yield []
            return
        for first in range(minimum, remaining + 1):
            for rest in rec(remaining - first, first):
                yield [first] + rest
    for part in rec(n, 1):
        if len(part) >= 2:
            yield part


def cmd_sweep(args) -> int:
    if args.max_n < 2:
        raise ValueError(f"--max-n must be at least 2, got {args.max_n}")
    t0 = time.perf_counter()
    cases = []
    worst = 0
    for n in range(2, args.max_n + 1):
        for part in _partitions(n):
            spectrum = [float(j + 1) for j in range(len(part))]
            case = run_case(part, spectrum, seed=args.seed,
                            dim_samples=args.samples)
            cases.append({
                "partition": part,
                "n": n,
                "conclusion": case.conclusion,
                "notes": case.notes,
            })
            if case.conclusion == INCONCLUSIVE:
                worst = 2
            print(f"  {part} -> {case.conclusion}", file=sys.stderr)
    doc = {
        "tool": {"name": "suborbit", "version": __version__},
        "inputs": {"max_n": args.max_n, "seed": args.seed, "samples": args.samples},
        "cases": cases,
        "all_confirmed": worst == 0,
    }
    if args.out:
        _write_json(args.out, doc)
    else:
        print(json.dumps(doc, indent=2, sort_keys=True))
    print(f"sweep over n <= {args.max_n}: {len(cases)} cases "
          f"({time.perf_counter() - t0:.1f}s)", file=sys.stderr)
    return worst


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="suborbit",
        description="verify integrability data for flows on real suborbits of "
                    "unitary adjoint orbits")
    sub = ap.add_subparsers(dest="command", required=True)

    v = sub.add_parser("verify", help="run the full verification for one partition")
    v.add_argument("--partition", required=True,
                   help="comma-separated block sizes, e.g. 1,1,2")
    v.add_argument("--spectrum", required=True,
                   help="comma-separated distinct block values, e.g. 1,2,3")
    v.add_argument("--samples", type=int, default=25)
    v.add_argument("--seed", type=int, default=0)
    v.add_argument("--tolerance-rank", type=float, default=1e-9)
    v.add_argument("--out", default=None, help="write the JSON report here")
    v.set_defaults(func=cmd_verify)

    f = sub.add_parser("flow", help="integrate the reduced flow and report drifts")
    f.add_argument("--partition", required=True)
    f.add_argument("--spectrum", required=True)
    f.add_argument("--b-spectrum", required=True,
                   help="block values of the second commuting element")
    f.add_argument("--space", choices=["m", "m_tilde"], default="m_tilde")
    f.add_argument("--dt", type=float, default=1e-3)
    f.add_argument("--steps", type=int, default=10000)
    f.add_argument("--record-stride", type=int, default=100)
    f.add_argument("--seed", type=int, default=0)
    f.add_argument("--x0-norm", type=float, default=2.0)
    f.add_argument("--drift-tol", type=float, default=1e-6)
    f.add_argument("--out-traj", default=None, help="write the trajectory CSV here")
    f.add_argument("--out-summary", default=None, help="write the JSON summary here")
    f.set_defaults(func=cmd_flow)

    s = sub.add_parser("sweep", help="verify every partition up to a small rank")
    s.add_argument("--max-n", type=int, default=6)
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--samples", type=int, default=25)
    s.add_argument("--out", default=None)
    s.set_defaults(func=cmd_sweep)
    return ap


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as e:
        # argparse exits 2 on a usage error, which is the inconclusive code
        # here; --help exits 0
        return 1 if e.code else 0
    if getattr(args, "seed", 0) < 0:
        print("error: seed must be non-negative", file=sys.stderr)
        return 1
    # warnings that pass the active filters are printed as one line per
    # distinct message, ahead of any error line
    error = None
    with warnings.catch_warnings(record=True) as caught:
        try:
            code = args.func(args)
        except (ValueError, OSError) as e:
            code, error = 1, f"error: {e}"
    for message in dict.fromkeys(str(w.message) for w in caught):
        print(f"warning: {message}", file=sys.stderr)
    if error:
        print(error, file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
