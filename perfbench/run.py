"""The repo benchmark: four workloads against the program's public API.

Usage (from the repository root)::

    python3 perfbench/run.py --workload plan_cold --seed 1 --seconds 16 --trace 0
    python3 perfbench/run.py --workload serve_warm --seed 1 --seconds 16 --trace 1
    python3 perfbench/run.py --smoke            # a few operations of every workload

This runner imports nothing from the program.  For each workload it starts
one program process per hash seed in :data:`HASH_SEEDS` (``child.py``),
each with an explicit ``PYTHONHASHSEED`` and a BLAS thread count of
:data:`BLAS_THREADS`.  The first process runs whole rounds for its share of
``--seconds``; every later one runs exactly as many rounds, so each hash
seed does the same work.  The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics`` — the
end-to-end metrics of ``BENCHMARK.json`` untraced, its per-layer metrics
with ``--trace 1``.  Every run also writes a record under
``.perfbench/runs/``; a traced run writes its spans under
``.perfbench/traces/``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from datetime import datetime, timezone

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".perfbench")

WORKLOADS = ("plan_cold", "hybrid_exec", "serve_warm", "catalog_churn")
#: Chase work depends on the hash seed today; every run spreads its rounds
#: evenly over this list, so the dependence shows as a spread, not as noise.
HASH_SEEDS = (0, 1, 7, 123)
BLAS_THREADS = 1
#: A run must end within 180 s; program processes share what is left of this.
RUN_DEADLINE_S = 170.0

#: Where a traced run takes each per-layer metric from.  A metric whose
#: home set holds the traced workload comes from that workload's processes;
#: any other comes from a one-round traced run of the first workload in
#: its home set (the workload whose end-to-end figures the layer moves).
LAYER_HOMES = {
    "data.catalog_build_ms": WORKLOADS,
    "planner.session_build_ms": WORKLOADS,
    "planner.encode_ms": ("plan_cold", "catalog_churn"),
    "planner.saturate_ms": ("plan_cold", "catalog_churn"),
    "planner.extract_ms": ("plan_cold", "catalog_churn"),
    "planner.postopt_ms": ("plan_cold", "catalog_churn"),
    "api.rewrite_overhead_ms": ("plan_cold", "catalog_churn"),
    "service.plan_hit_us": ("catalog_churn", "serve_warm", "plan_cold"),
    "chase.rounds": ("plan_cold",),
    "chase.tgd_applications": ("plan_cold",),
    "chase.matches_attempted": ("plan_cold",),
    "chase.atoms_materialized": ("plan_cold",),
    "chase.constraints_skipped": ("plan_cold",),
    "chase.pruned_applications": ("plan_cold",),
    "chase.truncated_plans": ("plan_cold",),
    "chase.hashseed_work_spread": ("plan_cold",),
    "cost.est_speedup_geomean": ("plan_cold",),
    "hybrid.ra_build_ms": ("hybrid_exec",),
    "hybrid.plan_ms": ("hybrid_exec",),
    "backends.la_exec_ms": ("hybrid_exec",),
    "hybrid.views_used": ("hybrid_exec",),
    "server.reported_ms": ("serve_warm",),
    "server.batch_wait_ms": ("serve_warm",),
    "server.unattributed_ms": ("serve_warm",),
    "server.batch_size_mean": ("serve_warm",),
    "server.codec_us": ("serve_warm",),
    "catalog.delta_apply_ms": ("catalog_churn",),
    "service.revalidate_ms": ("catalog_churn",),
    "service.cache_hit_share": ("catalog_churn",),
    "service.plans_kept_warm": ("catalog_churn",),
    "service.plans_revalidated": ("catalog_churn",),
}


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def program_present() -> bool:
    return os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py"))


def child_env(hash_seed: int) -> dict:
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = str(hash_seed)
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[name] = str(BLAS_THREADS)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


class Runner:
    def __init__(self, seed: int, deadline: float):
        self.seed = seed
        self.deadline = deadline
        self.stamp = datetime.now(timezone.utc).strftime("%Y%m%dT%H%M%S") + f"-{os.getpid()}"
        for sub in ("results", "runs", "traces"):
            os.makedirs(os.path.join(OUT_DIR, sub), exist_ok=True)

    def child(self, workload, hash_seed, trace, rounds=None, budget=1.0) -> dict:
        """Run one program process to completion and return its result."""
        name = f"{workload}-h{hash_seed}-t{trace}-{self.stamp}"
        out = os.path.join(OUT_DIR, "results", name + ".json")
        command = [
            sys.executable, os.path.join(HERE, "child.py"),
            "--workload", workload, "--seed", str(self.seed), "--trace", str(trace),
            "--budget", repr(budget), "--out", out,
        ]
        if rounds is not None:
            command += ["--rounds", str(rounds)]
        if trace:
            command += ["--spans-out", os.path.join(OUT_DIR, "traces", name + ".json")]
        remaining = self.deadline - time.monotonic()
        if remaining <= 1.0:
            return {"crashed": "run deadline reached before the process started"}
        spawned_at = time.monotonic()
        process = subprocess.Popen(
            command + ["--spawned-at", repr(spawned_at)], cwd=ROOT, env=child_env(hash_seed)
        )
        try:
            code = process.wait(timeout=remaining)
        except subprocess.TimeoutExpired:
            process.kill()
            process.wait()
            return {"crashed": f"{workload} (hash seed {hash_seed}) passed the run deadline"}
        if code != 0 or not os.path.isfile(out):
            return {"crashed": f"{workload} (hash seed {hash_seed}) exited with code {code}"}
        with open(out) as handle:
            result = json.load(handle)
        os.remove(out)
        result["hash_seed"] = hash_seed
        return result

    def workload(self, workload, trace, budget, hash_seeds=HASH_SEEDS, rounds=None) -> list:
        """One process per hash seed; the first sets the round count."""
        results = []
        for hash_seed in hash_seeds:
            result = self.child(workload, hash_seed, trace, rounds=rounds, budget=budget)
            results.append(result)
            if "crashed" in result:
                break
            if rounds is None:
                rounds = result["rounds"]
        return results


# ---------------------------------------------------------------------------
# Aggregation
# ---------------------------------------------------------------------------


def end_to_end(results: list, raw: bool = False) -> dict:
    """The end-to-end metrics; ``raw=True`` skips the speed scaling."""
    samples = (lambda r: r["raw"]) if raw else (lambda r: r)
    latencies = [x for r in results for x in samples(r)["latencies"]]
    hits = [x for r in results for x in samples(r)["hit_seconds"]]
    return {
        "setup_s": statistics.median(r["setup_s"] for r in results),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in results),
        "op_ms_p50": statistics.median(latencies) * 1e3,
        "ops_per_s": statistics.median(x for r in results for x in samples(r)["round_rates"]),
        "hit_us_p50": statistics.median(hits) * 1e6,
        "plan_mflop": statistics.median(r["plan_mflop"] for r in results),
    }


def tail_figures(results: list) -> dict:
    """Figures kept in the run record only: too lumpy to gate (see README)."""
    latencies = [x for r in results for x in r["raw"]["latencies"]]
    timed = sum(r["timed_seconds"] for r in results)
    percentiles = statistics.quantiles(latencies, n=100, method="inclusive")
    return {
        "op_ms_p90": percentiles[89] * 1e3,
        "op_ms_p99": percentiles[98] * 1e3,
        "samples": len(latencies),
        "ops_per_s_mean": len(latencies) / timed,
    }


def layers_of(workload: str, results: list) -> dict:
    """Per-layer figures of one workload's processes (means across them)."""
    merged = {}
    names = {name for r in results for name in r["layers"]}
    for name in names:
        values = [r["layers"][name] for r in results if name in r["layers"]]
        merged[name] = sum(values) / len(values)
    if workload == "plan_cold":
        chase = [r["chase"] for r in results]
        for field in chase[0]:
            merged[f"chase.{field}"] = sum(c[field] for c in chase)
        work = [c["tgd_applications"] for c in chase]
        merged["chase.hashseed_work_spread"] = max(work) - min(work)
    return merged


def summarize(result: dict) -> dict:
    """A process result without its raw samples, for the run record."""
    keep = {k: v for k, v in result.items() if k not in ("latencies", "hit_seconds", "raw")}
    keep["samples"] = len(result.get("latencies", []))
    return keep


def git_head():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def emit(metrics: dict, units: dict, correct: bool, attempted: int, failed: int) -> dict:
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }


def latest_untraced(workload: str):
    """The newest untraced run record of ``workload``, if any."""
    runs = os.path.join(OUT_DIR, "runs")
    candidates = sorted(
        name for name in os.listdir(runs) if name.startswith(f"{workload}-") and "-trace0-" in name
    )
    if not candidates:
        return None
    with open(os.path.join(runs, candidates[-1])) as handle:
        return json.load(handle).get("metrics")


def run_once(args, spec) -> int:
    e2e_units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layer_units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    runner = Runner(args.seed, time.monotonic() + RUN_DEADLINE_S)
    budget = args.seconds / len(HASH_SEEDS)
    results = runner.workload(args.workload, args.trace, budget)
    crashed = [r["crashed"] for r in results if "crashed" in r]
    problems = list(crashed)
    problems += [e for r in results for e in r.get("errors", [])]
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "hash_seeds": list(HASH_SEEDS),
        "blas_threads": BLAS_THREADS,
        "git_head": git_head(),
        "python": sys.version.split()[0],
        "processes": [summarize(r) for r in results],
    }
    attempted = sum(r.get("attempted", 0) for r in results)
    failed = sum(r.get("failed", 0) for r in results)
    record["attempted"], record["failed"] = attempted, failed
    metrics = {}
    if not crashed:
        metrics = end_to_end(results)
        record["end_to_end"] = dict(metrics)
        record["raw_end_to_end"] = end_to_end(results, raw=True)
        record["figures"] = tail_figures(results)
        if args.trace:
            layers = complete_layers(runner, args.workload, results, problems, record)
            metrics = layers
    record["metrics"] = metrics
    record["problems"] = problems
    path = os.path.join(
        OUT_DIR, "runs", f"{args.workload}-seed{args.seed}-trace{args.trace}-{runner.stamp}.json"
    )
    with open(path, "w") as handle:
        json.dump(record, handle, indent=1)

    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    if crashed:
        return 1
    units = layer_units if args.trace else e2e_units
    missing = sorted(set(units) - set(metrics))
    if missing:
        print(f"metrics not measured: {missing}", file=sys.stderr)
        return 1
    if args.trace:
        traced = record["end_to_end"]
        untraced = latest_untraced(args.workload)
        print("traced end-to-end: " + json.dumps(traced))
        if untraced:
            overhead = {
                name: traced[name] - untraced[name] for name in traced if name in untraced
            }
            print("untraced end-to-end (latest record): " + json.dumps(untraced))
            print("tracing overhead (traced - untraced): " + json.dumps(overhead))
    print(json.dumps(emit(metrics, units, not problems, attempted, failed)))
    return 0


def complete_layers(runner, workload, results, problems, record) -> dict:
    """Per-layer metrics of a traced run, filling layers it bypasses."""
    layers = layers_of(workload, results)
    chosen = {}
    borrowed = {}
    for name, homes in LAYER_HOMES.items():
        if workload in homes:
            if name in layers:
                chosen[name] = layers[name]
            continue
        home = homes[0]
        if home not in borrowed:
            seeds = HASH_SEEDS if home == "plan_cold" else HASH_SEEDS[:1]
            extra = runner.workload(home, 1, 0.0, hash_seeds=seeds, rounds=1)
            problems += [r["crashed"] for r in extra if "crashed" in r]
            problems += [e for r in extra for e in r.get("errors", [])]
            record.setdefault("borrowed", {})[home] = [summarize(r) for r in extra]
            borrowed[home] = layers_of(home, extra) if all("crashed" not in r for r in extra) else {}
        if name in borrowed[home]:
            chosen[name] = borrowed[home][name]
    return chosen


def smoke(args) -> int:
    """A few operations of each workload, one hash seed; non-zero on any failed check."""
    runner = Runner(args.seed, time.monotonic() + 600.0)
    status = 0
    workloads = [args.workload] if args.workload else list(WORKLOADS)
    for workload in workloads:
        result = runner.child(workload, HASH_SEEDS[0], args.trace, rounds=1)
        if "crashed" in result:
            print(f"{workload}: {result['crashed']}", file=sys.stderr)
            status = 1
            continue
        for error in result["errors"]:
            print(f"{workload}: check failed: {error}", file=sys.stderr)
            status = 1
        print(json.dumps({
            "workload": workload,
            "attempted": result["attempted"],
            "failed": result["failed"],
            "failures": result["failures"],
            "checks_failed": len(result["errors"]),
            "skipped_nonfinite": result["skipped_nonfinite"],
        }))
    return status


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=16.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="a few operations per workload")
    args = parser.parse_args()
    if not program_present():
        print(f"no program sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    if args.smoke:
        return smoke(args)
    if args.workload is None:
        parser.error("--workload is required unless --smoke is given")
    return run_once(args, load_spec())


if __name__ == "__main__":
    sys.exit(main())
