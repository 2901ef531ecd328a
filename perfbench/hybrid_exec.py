"""hybrid_exec: RA + LA execution of Q1–Q10 (Table 7) with warm plans.

Both micro-hybrid datasets run side by side, each in its own engine: the
Twitter-like and the MIMIC-like data, with the hybrid views V3h–V5h over
the Morpheus factors of ``Mfeat`` materialized.  A warm-up pass plans every
query (cold) and builds M and N; each timed round then submits the 20
queries once, in a seeded order, through ``Engine.submit_hybrid``, so the
time goes to LA execution on dense M and sparse N, not to the planner.
"""

from __future__ import annotations

import time

import numpy as np

import common
import refeval

#: Dataset sizes: the Twitter-like data as in ``benchmarks/bench_fig10_twitter.py``;
#: the MIMIC-like data shrunk from its defaults so a round stays near 0.2 s.
TWITTER = dict(n_tweets=8_000, n_hashtags=300, density=0.002)
MIMIC = dict(n_patients=2_000, n_services=1_000, density=0.002)
HYBRID_VIEWS = ("V3h", "V4h", "V5h")


def build(dataset: str):
    """One dataset's catalog, queries and view-enabled engine, warmed up."""
    from repro.api import Engine
    from repro.benchkit.harness import materialize_views
    from repro.benchkit.hybrid_queries import hybrid_queries, hybrid_views
    from repro.data import datasets

    if dataset == "twitter":
        catalog, spec = datasets.twitter_dataset(**TWITTER)
    else:
        catalog, spec = datasets.mimic_dataset(**MIMIC)
    queries = hybrid_queries(catalog, spec, dataset=dataset)
    # The first submit builds M and N (Q_RA) and the Morpheus factors the
    # hybrid views are defined over; the views are then materialized.
    Engine(catalog).submit_hybrid(queries[0])
    views = hybrid_views(catalog)
    materialize_views(views, catalog)
    engine = Engine(catalog, views=views)
    for query in queries:
        engine.submit_hybrid(query)
    return catalog, queries, engine


def reference_values(catalog, queries) -> list:
    """Each query's Q_LA as stated, over M and N rebuilt from the raw tables."""
    matrices, scalars = common.raw_arrays(catalog)
    values = []
    for query in queries:
        env = dict(matrices)
        for builder in query.builders:
            if hasattr(builder, "left_table"):
                env[builder.name] = refeval.join_feature_matrix(
                    catalog.table(builder.left_table),
                    catalog.table(builder.right_table),
                    builder.key,
                    builder.left_columns,
                    builder.right_columns,
                )
            else:
                env[builder.name] = refeval.pivot_sparse_matrix(
                    catalog.table(builder.fact_table), builder
                )
        values.append(refeval.evaluate(query.analysis, env, scalars))
    return values


def run(args, result, recorder=None) -> None:
    datasets = {name: build(name) for name in ("twitter", "mimic")}
    work = [
        (name, index, query)
        for name, (_, queries, _) in datasets.items()
        for index, query in enumerate(queries)
    ]
    rng = np.random.default_rng(args.seed)
    budget = common.Budget(args.rounds, args.budget)
    plans = {}
    checked_values = {}
    la_seconds = []

    common.mark_setup_done(result)
    while budget.more(result["rounds"]):
        last_values = {}
        round_started = result["timed_seconds"]
        scale = common.speed_scale()
        for position in rng.permutation(len(work)):
            name, index, query = work[position]
            engine = datasets[name][2]
            if recorder is not None:
                recorder.begin_op()
            t0 = time.perf_counter()
            answer = engine.submit_hybrid(query)
            elapsed = time.perf_counter() - t0
            common.sample(result, "latencies", elapsed, scale)
            result["timed_seconds"] += elapsed
            common.sample(result, "hit_seconds", answer.plan_seconds, scale)
            la_seconds.append(answer.hybrid.la_seconds)
            result["attempted"] += 1
            key = (name, index)
            if not answer.rewrite.cache_hit:
                common.fail_check(result, f"{name} {query.name}: timed plan was not a cache hit")
            first = plans.setdefault(key, answer.rewrite)
            if common.plan_signature(first) != common.plan_signature(answer.rewrite):
                common.fail_check(result, f"{name} {query.name}: plan changed between rounds")
            if key not in checked_values:
                checked_values[key] = answer.value
            last_values[key] = answer.value
        rate = len(work) / (result["timed_seconds"] - round_started)
        common.sample(result, "round_rates", rate, 1 / scale)
        result["rounds"] += 1

    result["peak_rss_mb"] = common.peak_rss_mb()
    if recorder is not None:
        recorder.active = False
    # Values: the first and the last timed round, against the reference.
    for name, (catalog, queries, engine) in datasets.items():
        references = reference_values(catalog, queries)
        for index, query in enumerate(queries):
            for value in (checked_values[(name, index)], last_values[(name, index)]):
                if not refeval.values_match(value, references[index]):
                    common.fail_check(result, f"{name} {query.name}: value differs from the reference")
    flops = 0
    views_used = 0
    for (name, _), plan in plans.items():
        flops += refeval.dense_flops(plan.best, datasets[name][0].shape)
        views_used += 1 if set(plan.used_views) & set(HYBRID_VIEWS) else 0
    result["plan_mflop"] = flops / 1e6
    result["layers"].update({
        "hybrid.plan_ms": common.median(result["raw"]["hit_seconds"]) * 1e3,
        "backends.la_exec_ms": common.median(la_seconds) * 1e3,
        "hybrid.views_used": views_used,
    })
