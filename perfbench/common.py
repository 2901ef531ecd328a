"""Shared pieces of the workload processes: inputs, budgets and results.

Everything here runs inside a program process (``child.py`` or
``gateway.py``), which the runner starts with an explicit
``PYTHONHASHSEED`` and BLAS thread count.
"""

from __future__ import annotations

import resource
import statistics
import time
import warnings
from typing import Dict, List, Optional, Tuple

#: Materializing V10/V11 (dets of 100x100 products) overflows float64 by
#: design of the Table 6 bindings; the benchmark reports such values
#: instead of printing NumPy's warning once per process.
warnings.filterwarnings("ignore", category=RuntimeWarning, module=r"numpy\..*")


#: What :func:`calibration_seconds` reads on the reference machine (2 vCPU,
#: Python 3.11) in its usual state.  See :func:`speed_scale`.
CALIBRATION_REFERENCE_S = 1.4e-3


def calibration_seconds() -> float:
    """Median time of a fixed pure-Python loop: the machine's speed right now."""
    samples = []
    for _ in range(5):
        started = time.perf_counter()
        total = 0
        for i in range(15_000):
            total += i * i % 7
        samples.append(time.perf_counter() - started)
    return statistics.median(samples)


def speed_scale() -> float:
    """Factor that scales a time measured now to the reference machine speed.

    The machines this runs on change speed by up to a factor of two over
    seconds to minutes (other tenants share the host).  A CPU-bound workload
    measures the calibration loop before each round and multiplies the
    round's times by this factor (divides its rates), so a fast or slow
    phase of the machine does not read as a change of the program.
    """
    return CALIBRATION_REFERENCE_S / calibration_seconds()


def sample(result: dict, key: str, value: float, factor: float) -> None:
    """Record one sample scaled by ``factor``, keeping the raw value too."""
    result[key].append(value * factor)
    result["raw"][key].append(value)


def peak_rss_mb() -> float:
    """Peak resident set size of this process so far, in MB (Linux KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Budget:
    """Whole rounds, bounded either by a round count or by wall time.

    The first process of a run gets ``seconds`` and reports how many rounds
    fit; the runner then gives every later process exactly that many rounds,
    so each hash seed of a run does the same work.
    """

    def __init__(self, rounds: Optional[int], seconds: float):
        self.rounds = rounds
        self.seconds = seconds
        self.started = time.perf_counter()

    def more(self, done: int) -> bool:
        if self.rounds is not None:
            return done < self.rounds
        return done == 0 or time.perf_counter() - self.started < self.seconds


def new_result(spawned_at: float) -> dict:
    return {
        "spawned_at": spawned_at,
        "setup_s": None,
        "rounds": 0,
        "attempted": 0,
        "failed": 0,
        "failures": {},
        "errors": [],
        "skipped_nonfinite": [],
        "latencies": [],
        "timed_seconds": 0.0,
        "round_rates": [],
        "hit_seconds": [],
        "raw": {"latencies": [], "round_rates": [], "hit_seconds": []},
        "plan_mflop": None,
        "peak_rss_mb": None,
        "figures": {},
        "layers": {},
    }


def mark_setup_done(result: dict) -> None:
    """Setup ends at the first timed operation (CLOCK_MONOTONIC is system-wide)."""
    result["setup_s"] = time.monotonic() - result["spawned_at"]


def count_failure(result: dict, exc: BaseException) -> None:
    result["failed"] += 1
    kind = type(exc).__name__
    result["failures"][kind] = result["failures"].get(kind, 0) + 1


def fail_check(result: dict, message: str) -> None:
    """Record a failed correctness check (at most 20 messages are kept)."""
    if len(result["errors"]) < 20:
        result["errors"].append(message)
    result["figures"]["check_failures"] = result["figures"].get("check_failures", 0) + 1


# ---------------------------------------------------------------------------
# The §9.1 LA suite: benchmark catalog, dense Table 6 roles, V_exp views
# ---------------------------------------------------------------------------


def roles():
    from repro.benchkit.datasets import ROLE_BINDINGS_DENSE
    from repro.benchkit.pipelines import default_roles

    return default_roles(ROLE_BINDINGS_DENSE)


def pipeline_suite() -> List[Tuple[str, object]]:
    """The 57 Table 2/3 pipelines over the dense Table 6 roles, in table order."""
    from repro.benchkit.pipelines import build_pipeline, pipeline_names

    env = roles()
    return [(name, build_pipeline(name, env)) for name in pipeline_names()]


def catalog_with_views():
    """``benchmark_catalog()`` plus the 12 V_exp views, materialized."""
    from repro.benchkit import datasets as benchkit_datasets
    from repro.benchkit.harness import materialize_views
    from repro.benchkit.views_vexp import build_vexp_views

    catalog = benchkit_datasets.benchmark_catalog()
    views = build_vexp_views(roles())
    materialize_views(views, catalog)
    return catalog, views


def raw_arrays(catalog) -> Tuple[Dict[str, object], Dict[str, float]]:
    """Every stored matrix value and scalar of a catalog, by name."""
    matrices = {
        name: catalog.matrix(name).values
        for name in catalog.matrix_names()
        if catalog.has_matrix_values(name)
    }
    scalars = {name: catalog.scalar(name) for name in ("s1", "s2") if catalog.has_scalar(name)}
    return matrices, scalars


def plan_signature(result) -> Tuple[str, float, Tuple[str, ...]]:
    """What must agree between two plans of one pipeline."""
    return (result.best.to_string(), float(result.best_cost), tuple(sorted(result.used_views)))


def median(values: List[float]) -> Optional[float]:
    return statistics.median(values) if values else None


def mean(values: List[float]) -> Optional[float]:
    return sum(values) / len(values) if values else None
