"""One program process of a benchmark run: one workload under one hash seed.

Started by ``run.py`` with ``PYTHONHASHSEED`` and the BLAS thread count set
in its environment; writes one JSON result document to ``--out``.  Not
meant to be run by hand, though it can be::

    PYTHONHASHSEED=0 OPENBLAS_NUM_THREADS=1 PYTHONPATH=src \\
        python3 perfbench/child.py --workload plan_cold --seed 1 --rounds 1 \\
        --spawned-at 0 --out result.json
"""

from __future__ import annotations

import argparse
import importlib
import json
import time

import common

#: Each workload is the module of the same name in this directory.
WORKLOADS = ("plan_cold", "hybrid_exec", "serve_warm", "catalog_churn")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--rounds", type=int, default=None)
    parser.add_argument("--budget", type=float, default=1.0)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--spans-out", default=None)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    if args.spawned_at <= 0:
        args.spawned_at = time.monotonic()

    result = common.new_result(args.spawned_at)
    module = importlib.import_module(args.workload)
    recorder = None
    if args.trace and getattr(module, "TRACED_IN_PROCESS", True):
        import spans

        recorder = spans.install()
    module.run(args, result, recorder)
    if recorder is not None:
        result["layers"].update(recorder.layers())
        if args.spans_out:
            with open(args.spans_out, "w") as handle:
                json.dump(recorder.to_json(), handle)
    with open(args.out, "w") as handle:
        json.dump(result, handle)


if __name__ == "__main__":
    main()
