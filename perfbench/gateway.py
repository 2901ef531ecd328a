"""The serve_warm program process: ``Engine.serve()`` over the §9.1 catalog.

Started by the serve_warm load process with the run's ``PYTHONHASHSEED``
and BLAS thread count.  Builds ``benchmark_catalog()`` with the 12 V_exp
views materialized, starts the gateway with the default ``GatewayConfig``
(an ephemeral port on 127.0.0.1), prints ``READY <port>``, and serves until
a line (or end of file) arrives on standard input.  It then stops the
gateway and writes its peak RSS — and with ``--trace 1`` its per-layer
figures and spans — to ``--out``.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import sys

import common


async def serve(engine) -> None:
    gateway = await engine.serve()
    try:
        print(f"READY {gateway.port}", flush=True)
        await asyncio.get_running_loop().run_in_executor(None, sys.stdin.readline)
    finally:
        await gateway.stop()


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--spans-out", default=None)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()

    recorder = None
    if args.trace:
        import spans

        recorder = spans.install()
    from repro.api import Engine

    catalog, views = common.catalog_with_views()
    asyncio.run(serve(Engine(catalog, views=views)))
    report = {"peak_rss_mb": common.peak_rss_mb(), "layers": {}}
    if recorder is not None:
        report["layers"] = recorder.layers()
        if args.spans_out:
            with open(args.spans_out, "w") as handle:
                json.dump(recorder.to_json(), handle)
    with open(args.out, "w") as handle:
        json.dump(report, handle)


if __name__ == "__main__":
    main()
