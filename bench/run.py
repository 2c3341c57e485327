"""Run one workload of the suborbit benchmark and print its metrics.

    python3 bench/run.py --workload verify-large --seed 0 --seconds 20 --trace 0

Workloads: verify-large, sweep-n6, flow-222 (see harness.py).  The last line
of standard output is the result, a JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  The line before it
holds the details: environment, per-pass times, verdicts and the verdict
digest.  A traced run also writes its spans to ``bench/out/``.

BLAS threads are pinned to 1 before numpy is imported, so that numbers taken
on one machine are comparable; the environment block records the setting.
"""

import os
import sys

if __name__ == "__main__":
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
                "NUMEXPR_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    from harness import main
    sys.exit(main())
