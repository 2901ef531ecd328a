"""Tests of the benchmark's own machinery.

Run with ``python3 -m pytest perfbench/check_perfbench.py -q`` from the
repository root.  The file name keeps these tests out of the repository's
default test collection: the last test runs every workload in smoke mode,
which takes a while.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import numpy as np
import pytest
from scipy import sparse

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import refeval  # noqa: E402
from repro.data.table import Table  # noqa: E402
from repro.hybrid.query import PivotSparseMatrix  # noqa: E402
from repro.lang import matrix_expr as mx  # noqa: E402
from repro.lang.builder import (  # noqa: E402
    colsums,
    det,
    elem_div,
    hadamard,
    inv,
    mat_exp,
    mat_pow,
    matrix,
    rowsums,
    scalar,
    scalar_mul,
    sub,
    sum_all,
    trace,
    transpose,
)
from repro.lang.relational_expr import Predicate  # noqa: E402

A = np.array([[1.0, 2.0], [3.0, 4.0]])
B = np.array([[0.0, 1.0], [1.0, 0.0]])
MATRICES = {"A": A, "B": sparse.csr_matrix(B), "Z": np.zeros((2, 2))}
SCALARS = {"s": 2.0}


def ev(expr):
    return refeval.evaluate(expr, MATRICES, SCALARS)


@pytest.mark.parametrize(
    "expr, expected",
    [
        (matrix("A") @ matrix("B"), [[2, 1], [4, 3]]),
        (transpose(matrix("A")), [[1, 3], [2, 4]]),
        (inv(matrix("A")), [[-2, 1], [1.5, -0.5]]),
        (det(matrix("A")), [[-2]]),
        (trace(matrix("A")), [[5]]),
        (sum_all(matrix("A")), [[10]]),
        (rowsums(matrix("A")), [[3], [7]]),
        (colsums(matrix("A")), [[4, 6]]),
        (hadamard(matrix("A"), matrix("B")), [[0, 2], [3, 0]]),
        (matrix("A") + matrix("B"), [[1, 3], [4, 4]]),
        (sub(matrix("A"), matrix("B")), [[1, 1], [2, 4]]),
        (scalar_mul(scalar("s"), matrix("A")), [[2, 4], [6, 8]]),
        (hadamard(matrix("A"), trace(matrix("A"))), [[5, 10], [15, 20]]),
        (trace(matrix("A")) + det(matrix("A")), [[3]]),
        (elem_div(mx.ScalarConst(1.0), det(matrix("A"))), [[-0.5]]),
        (mat_exp(matrix("Z")), [[1, 0], [0, 1]]),
        (mat_pow(matrix("A"), 2), [[7, 10], [15, 22]]),
        (mx.CBind(matrix("A"), matrix("B")), [[1, 2, 0, 1], [3, 4, 1, 0]]),
    ],
)
def test_evaluate_hand_computed(expr, expected):
    np.testing.assert_allclose(ev(expr), np.asarray(expected, dtype=float))


def test_division_by_zero_is_non_finite_not_an_error():
    value = ev(elem_div(matrix("A"), matrix("B")))
    assert not np.all(np.isfinite(value))


def test_overflowing_det_is_non_finite():
    big = {"H": np.eye(100) * 1e5}
    assert not np.isfinite(refeval.evaluate(det(matrix("H")), big, {})[0, 0])


def test_shared_subtrees_are_evaluated_once_and_correctly():
    product = matrix("A") @ matrix("A")
    np.testing.assert_allclose(ev(product + product), 2 * (A @ A))


def test_dense_flops_from_shapes():
    shapes = {"X": (2, 3), "Y": (3, 4), "S": (3, 3)}
    flops = lambda expr: refeval.dense_flops(expr, shapes.__getitem__)  # noqa: E731
    assert flops(matrix("X")) == 0
    assert flops(transpose(matrix("X"))) == 0
    assert flops(matrix("X") @ matrix("Y")) == 2 * 2 * 3 * 4
    assert flops(sum_all(matrix("X") @ matrix("Y"))) == 48 + 8
    assert flops(inv(matrix("S"))) == 2 * 27
    assert flops(det(matrix("S"))) == 18
    assert flops(trace(matrix("S"))) == 3
    assert flops(hadamard(matrix("X"), trace(matrix("S")))) == 3 + 6
    # every occurrence counts: plans are executed as written
    assert flops((matrix("X") @ matrix("Y")) + (matrix("X") @ matrix("Y"))) == 2 * 48 + 8


def test_pivot_and_join_rebuild_q_ra():
    facts = Table(
        "F",
        {
            "id": np.array([0.0, 0.0, 1.0, 2.0]),
            "item": np.array([1.0, 1.0, 0.0, 2.0]),
            "m": np.array([1.0, 2.0, 5.0, 4.0]),
            "tag": ["covid a", "covid b", "covid c", "other"],
        },
    )
    builder = PivotSparseMatrix(
        name="N", fact_table="F", row_key="id", col_key="item", measure="m",
        n_rows=3, n_cols=3, filters=(Predicate("tag", "like", "covid"),),
        measure_filter=("<=", 4.0),
    )
    # (0,1) sums to 3 and passes; (1,0) is 5 and is filtered; (2,2) fails LIKE
    np.testing.assert_array_equal(
        refeval.pivot_sparse_matrix(facts, builder), [[0, 3, 0], [0, 0, 0], [0, 0, 0]]
    )
    left = Table("L", {"id": np.array([1.0, 0.0]), "a": np.array([10.0, 20.0])})
    right = Table("R", {"id": np.array([0.0, 1.0]), "b": np.array([7.0, 8.0])})
    np.testing.assert_array_equal(
        refeval.join_feature_matrix(left, right, "id", ("a",), ("b",)), [[10, 8], [20, 7]]
    )


def test_values_match_normalizes_program_values():
    assert refeval.values_match(5.0, np.array([[5.0]]))
    assert refeval.values_match(sparse.csr_matrix(B), B)
    assert not refeval.values_match(A, A.T)
    assert not refeval.values_match(A[:, :1], A)


def test_smoke_mode_runs_every_workload():
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert done.returncode == 0, done.stderr[-3000:]
    lines = [json.loads(line) for line in done.stdout.splitlines() if line.startswith("{")]
    by_name = {line["workload"]: line for line in lines}
    assert set(by_name) == {"plan_cold", "hybrid_exec", "serve_warm", "catalog_churn"}
    for line in lines:
        assert line["checks_failed"] == 0
    # the deep transpose chain is the one operation that fails today
    assert by_name["plan_cold"]["failed"] in (0, 1)
    assert sorted(by_name["plan_cold"]["skipped_nonfinite"]) == ["P1.17", "P2.23", "P2.8"]
    for name in ("hybrid_exec", "serve_warm", "catalog_churn"):
        assert by_name[name]["failed"] == 0
