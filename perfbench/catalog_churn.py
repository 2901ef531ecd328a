"""catalog_churn: catalog deltas beside reads on a warm plan cache.

Two tenant workspaces over ``benchmark_catalog()`` are warmed on a probe set
of Table 2/3 pipelines whose cold plans take a few milliseconds.  A seeded
stream of single-relation ``ReStat`` deltas then alternates between the
tenants; one step applies one delta through ``Engine.apply_delta`` and has
both tenants re-read every probe through ``WorkspaceHandle.rewrite``.

Every stream relation lies in exactly one probe's footprint, so each step
evicts one plan and re-plans it cold; three of the four relations belong to
P1.4 and one to P2.25, which keeps the median step inside one cluster of
the re-plan cost instead of on the edge between two.
"""

from __future__ import annotations

import time

import numpy as np

import common
import refeval

TENANTS = ("tenant-a", "tenant-b")
PROBES = ("P1.1", "P1.4", "P1.13", "P1.15", "P2.10", "P2.25")
STREAM_RELATIONS = ("Syn7", "Syn3", "AL1", "Syn9")
#: One round: every stream relation updated once on each tenant.
STEPS_PER_ROUND = len(STREAM_RELATIONS) * len(TENANTS)


def delta_stream(catalog, seed: int):
    """The seeded stream: relation order and the alternative nnz per relation.

    Step ``i`` updates tenant ``i % 2``.  Its tenant-local step ``t = i // 2``
    sets relation ``order[t % 4]`` to its alternative nnz on even passes
    over the order and back to the original on odd ones, so a tenant's
    catalog cycles through eight states.
    """
    rng = np.random.default_rng(seed)
    order = [STREAM_RELATIONS[k] for k in rng.permutation(len(STREAM_RELATIONS))]
    original, alternative = {}, {}
    for name in STREAM_RELATIONS:
        meta = catalog.meta(name)
        nnz = meta.nnz
        shift = int(rng.integers(1, 4))
        alternative[name] = nnz - shift if nnz - shift >= 0 else nnz + shift
        if alternative[name] > meta.rows * meta.cols:
            alternative[name] = nnz - shift
        original[name] = nnz
    return order, original, alternative


def step_target(step: int, order, original, alternative):
    local = step // len(TENANTS)
    name = order[local % len(order)]
    passes = local // len(order)
    return TENANTS[step % len(TENANTS)], name, (alternative if passes % 2 == 0 else original)[name]


def run(args, result, recorder=None) -> None:
    from repro.api import Engine, WorkspaceRegistry
    from repro.benchkit import datasets as benchkit_datasets
    from repro.benchkit.pipelines import build_pipeline
    from repro.catalog.delta import CatalogDelta, ReStat

    env = common.roles()
    probes = [(name, build_pipeline(name, env)) for name in PROBES]
    registry = WorkspaceRegistry()
    for tenant in TENANTS:
        registry.register(tenant, catalog=benchkit_datasets.benchmark_catalog())
    engine = Engine(workspaces=registry)
    last = {}
    for tenant in TENANTS:
        handle = engine.workspace(tenant)
        for name, expr in probes:
            last[(tenant, name)] = handle.rewrite(expr)
    order, original, alternative = delta_stream(registry.get(TENANTS[0]).catalog, args.seed)
    state = {tenant: dict(original) for tenant in TENANTS}
    warm_plans = list(last.values())

    budget = common.Budget(args.rounds, args.budget)
    served = []  # (reader's catalog state, probe, plan signature) per read
    delta_seconds = []
    kept = []
    revalidated = []
    overheads = []
    reads = warm_reads = 0
    step = 0
    common.mark_setup_done(result)
    while budget.more(result["rounds"]):
        round_started = result["timed_seconds"]
        scale = common.speed_scale()
        for _ in range(STEPS_PER_ROUND):
            tenant, relation, nnz = step_target(step, order, original, alternative)
            delta = CatalogDelta((ReStat(name=relation, nnz=nnz),))
            if recorder is not None:
                recorder.begin_op()
            t0 = time.perf_counter()
            report = engine.apply_delta(tenant, delta)
            t1 = time.perf_counter()
            answers = []
            for reader in TENANTS:
                handle = engine.workspace(reader)
                for name, expr in probes:
                    r0 = time.perf_counter()
                    plan = handle.rewrite(expr)
                    answers.append((reader, name, plan, time.perf_counter() - r0))
            elapsed = time.perf_counter() - t0
            common.sample(result, "latencies", elapsed, scale)
            result["timed_seconds"] += elapsed
            delta_seconds.append(t1 - t0)
            kept.append(report.plans_kept_warm)
            revalidated.append(report.plans_revalidated)
            result["attempted"] += 1 + len(answers)
            state[tenant][relation] = nnz
            touched = set(delta.touched_names())
            for reader, name, plan, seconds in answers:
                previous = last[(reader, name)]
                footprint = previous.footprint
                names = set(footprint.relations) | set(footprint.views) if footprint else None
                expect_warm = reader != tenant or (names is not None and not (names & touched))
                if plan.cache_hit != expect_warm:
                    common.fail_check(
                        result,
                        f"step {step} {reader} {name}: cache_hit={plan.cache_hit}, "
                        f"footprint {'disjoint from' if expect_warm else 'meets'} {sorted(touched)}",
                    )
                if plan.cache_hit:
                    common.sample(result, "hit_seconds", seconds, scale)
                    warm_reads += 1 if reader == tenant else 0
                else:
                    overheads.append(seconds - sum(plan.stage_timings.values()))
                reads += 1 if reader == tenant else 0
                last[(reader, name)] = plan
                key = tuple(sorted(state[reader].items()))
                served.append((key, name, common.plan_signature(plan)))
            step += 1
        rate = STEPS_PER_ROUND / (result["timed_seconds"] - round_started)
        common.sample(result, "round_rates", rate, 1 / scale)
        result["rounds"] += 1

    result["peak_rss_mb"] = common.peak_rss_mb()
    if recorder is not None:
        recorder.active = False
    check_against_fresh_engines(served, original, probes, result)
    shape = registry.get(TENANTS[0]).catalog.shape
    result["plan_mflop"] = sum(refeval.dense_flops(plan.best, shape) for plan in warm_plans) / 1e6
    result["figures"]["delta_ms_p50"] = common.median(delta_seconds) * 1e3
    result["layers"].update({
        "service.cache_hit_share": warm_reads / reads,
        "service.plans_kept_warm": common.mean(kept),
        "service.plans_revalidated": common.mean(revalidated),
        "api.rewrite_overhead_ms": common.mean(overheads) * 1e3,
    })


def check_against_fresh_engines(served, original, probes, result) -> None:
    """Every read equals a cold plan on a catalog fast-forwarded to its state.

    A tenant's catalog cycles through a few states, so each distinct state
    is replayed once: a fresh ``benchmark_catalog()`` gets the state's
    ``ReStat`` deltas, and a fresh engine plans every probe cold.
    """
    from repro.api import Engine
    from repro.benchkit import datasets as benchkit_datasets
    from repro.catalog.delta import CatalogDelta, ReStat

    references = {}
    for key, name, signature in served:
        if key not in references:
            catalog = benchkit_datasets.benchmark_catalog()
            for relation, nnz in key:
                if nnz != original[relation]:
                    catalog.apply_delta(CatalogDelta((ReStat(name=relation, nnz=nnz),)))
            fresh = Engine(catalog)
            references[key] = {probe: common.plan_signature(fresh.rewrite(expr)) for probe, expr in probes}
        if references[key][name] != signature:
            common.fail_check(result, f"{name} in state {dict(key)}: {signature} != cold {references[key][name]}")
    result["figures"]["reference_states"] = len(references)
