"""plan_cold: every plan a cache miss — the chase and extraction do the work.

Each round builds a fresh ``Engine`` (a fresh default workspace) over the
§9.1 catalog with the 12 V_exp views materialized and plans the 57 Table
2/3 pipelines once, in a seeded order.  A warm re-read of each pipeline
follows (the ``hit_seconds`` sample), then one 500-deep transpose chain
over ``Syn5``: an operation outside every timing that fails today with a
``RecursionError``.
"""

from __future__ import annotations

import math
import time

import numpy as np

import common
import refeval

DEEP_CHAIN_DEPTH = 500
#: ``SaturationResult`` counters summed per sweep of the 57 pipelines.
CHASE_FIELDS = (
    "rounds",
    "tgd_applications",
    "matches_attempted",
    "atoms_materialized",
    "constraints_skipped",
    "pruned_applications",
)


def deep_chain():
    from repro.lang.builder import matrix, transpose

    expr = matrix("Syn5")
    for _ in range(DEEP_CHAIN_DEPTH):
        expr = transpose(expr)
    return expr


def chase_counts(results) -> dict:
    counts = {name: 0 for name in CHASE_FIELDS}
    counts["truncated_plans"] = 0
    for result in results:
        saturation = result.saturation
        if saturation is None:
            continue
        for name in CHASE_FIELDS:
            counts[name] += int(getattr(saturation, name))
        counts["truncated_plans"] += 0 if saturation.reached_fixpoint else 1
    return counts


def run(args, result, recorder=None) -> None:
    from repro.api import Engine

    catalog, views = common.catalog_with_views()
    suite = common.pipeline_suite()
    deep = deep_chain()
    rng = np.random.default_rng(args.seed)
    budget = common.Budget(args.rounds, args.budget)

    first_round = None
    signatures = None
    chase = None
    round_seconds = []
    overheads = []
    common.mark_setup_done(result)
    while budget.more(result["rounds"]):
        order = rng.permutation(len(suite))
        scale = common.speed_scale()
        if recorder is not None:
            recorder.begin_op()
        started = time.perf_counter()
        engine = Engine(catalog, views=views)
        cold = {}
        for index in order:
            name, expr = suite[index]
            t0 = time.perf_counter()
            plan = engine.rewrite(expr)
            elapsed = time.perf_counter() - t0
            common.sample(result, "latencies", elapsed, scale)
            overheads.append(elapsed - sum(plan.stage_timings.values()))
            cold[name] = plan
        round_seconds.append(time.perf_counter() - started)
        common.sample(result, "round_rates", len(suite) / round_seconds[-1], 1 / scale)
        result["attempted"] += len(suite)
        for name, plan in cold.items():
            if plan.cache_hit:
                common.fail_check(result, f"{name}: cold plan reported a cache hit")

        for index in order:
            name, expr = suite[index]
            t0 = time.perf_counter()
            warm = engine.rewrite(expr)
            common.sample(result, "hit_seconds", time.perf_counter() - t0, scale)
            result["attempted"] += 1
            if not warm.cache_hit or common.plan_signature(warm) != common.plan_signature(cold[name]):
                common.fail_check(result, f"{name}: warm re-read differs from its cold plan")

        result["attempted"] += 1
        try:
            deep_plan = engine.rewrite(deep)
        except Exception as exc:  # the deep chain's known fault, counted
            common.count_failure(result, exc)
        else:
            if deep_plan.best.to_string() != "Syn5":
                common.fail_check(result, f"deep chain planned to {deep_plan.best.to_string()[:80]}")

        round_signatures = {name: common.plan_signature(plan) for name, plan in cold.items()}
        round_chase = chase_counts(cold.values())
        if first_round is None:
            first_round, signatures, chase = cold, round_signatures, round_chase
        else:
            if round_signatures != signatures:
                common.fail_check(result, f"round {result['rounds']}: plans differ from round 0")
            if round_chase != chase:
                result["figures"]["chase_counts_unstable"] = True
        result["rounds"] += 1

    result["timed_seconds"] = sum(round_seconds)
    result["peak_rss_mb"] = common.peak_rss_mb()
    result["figures"]["round_seconds"] = round_seconds
    result["chase"] = chase
    result["layers"]["api.rewrite_overhead_ms"] = common.mean(overheads) * 1e3
    if recorder is not None:
        recorder.active = False
    check(catalog, views, suite, first_round, result)


def check(catalog, views, suite, plans, result) -> None:
    """Costs against the paper, values against the reference evaluator."""
    from repro.api import Engine
    from repro.benchkit.expected import EXPECTED_REWRITES, build_expected_rewrite
    from repro.cost import resolve_estimator
    from repro.cost.model import expression_cost

    env = common.roles()
    estimator = resolve_estimator("naive")
    matrices, scalars = common.raw_arrays(catalog)
    executor = Engine(catalog, views=views)
    flops = 0
    speedups = []
    for name, expr in suite:
        plan = plans[name]
        flops += refeval.dense_flops(plan.best, catalog.shape)
        if plan.best_cost > plan.original_cost * (1 + 1e-9) + 1e-9:
            common.fail_check(result, f"{name}: best_cost {plan.best_cost} > original {plan.original_cost}")
        if plan.best_cost > 0:
            speedups.append(plan.original_cost / plan.best_cost)
        if name in EXPECTED_REWRITES:
            paper = expression_cost(build_expected_rewrite(name, env), catalog, estimator)
            if plan.best_cost > paper * (1 + 1e-9) + 1e-9:
                common.fail_check(result, f"{name}: cost {plan.best_cost} > paper rewrite {paper}")
        reference = refeval.evaluate(expr, matrices, scalars)
        if not np.all(np.isfinite(reference)):
            result["skipped_nonfinite"].append(name)
            continue
        value = executor.execute(plan).evaluation.value
        if not refeval.values_match(value, reference):
            common.fail_check(result, f"{name}: plan value differs from the reference")
    result["plan_mflop"] = flops / 1e6
    result["figures"]["plans_checked"] = len(suite)
    result["layers"]["cost.est_speedup_geomean"] = math.exp(
        sum(math.log(s) for s in speedups) / len(speedups)
    )
    result["figures"]["speedup_zero_cost_plans"] = len(suite) - len(speedups)
