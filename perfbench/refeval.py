"""Reference evaluator and dense flop counter for the benchmark's checks.

Both walk a ``repro.lang`` expression tree but share no code with the
program's backends: values come straight from NumPy/SciPy over the raw
arrays a caller hands in, so a fault in a backend or in a rewrite cannot
hide behind the same fault in the reference.

* :func:`evaluate` returns a dense 2-D ``float64`` array (a scalar result is
  1x1).  Elementwise operators broadcast a 1x1 operand, as the paper's LA
  language does for scalars.
* :func:`dense_flops` counts the floating-point operations of evaluating the
  tree as stated with dense kernels, from operand shapes alone.  Reading a
  stored matrix (a base matrix or a materialized view) is free.
* :func:`join_feature_matrix` and :func:`pivot_sparse_matrix` rebuild the
  hybrid queries' RA outputs (Q_RA) from the raw tables.
"""

from __future__ import annotations

from typing import Callable, Dict, Mapping, Tuple

import numpy as np
from scipy import linalg as scipy_linalg
from scipy import sparse

Shape = Tuple[int, int]


def _dense(value) -> np.ndarray:
    if sparse.issparse(value):
        value = value.toarray()
    array = np.asarray(value, dtype=np.float64)
    if array.ndim == 0:
        return array.reshape(1, 1)
    if array.ndim == 1:
        return array.reshape(-1, 1)
    return array


def _diag(value: np.ndarray) -> np.ndarray:
    if value.shape[1] == 1:
        return np.diag(value.reshape(-1))
    return np.diag(value).reshape(-1, 1)


_UNARY: Dict[str, Callable[[np.ndarray], np.ndarray]] = {
    "tr": lambda a: a.T,
    "inv_m": np.linalg.inv,
    "exp": scipy_linalg.expm,
    "adj": lambda a: np.linalg.det(a) * np.linalg.inv(a),
    "diag": _diag,
    "row_sums": lambda a: a.sum(axis=1, keepdims=True),
    "col_sums": lambda a: a.sum(axis=0, keepdims=True),
    "det": lambda a: np.linalg.det(a),
    "trace": lambda a: np.trace(a),
    "sum": lambda a: a.sum(),
}

_BINARY: Dict[str, Callable[[np.ndarray, np.ndarray], np.ndarray]] = {
    "multi_m": lambda a, b: a @ b,
    "add_m": lambda a, b: a + b,
    "sub_m": lambda a, b: a - b,
    "div_m": lambda a, b: a / b,
    "multi_e": lambda a, b: a * b,
    "multi_ms": lambda a, b: a * b,
    "cbind": lambda a, b: np.hstack([a, b]),
    "rbind": lambda a, b: np.vstack([a, b]),
}


def evaluate(expr, matrices: Mapping[str, object], scalars: Mapping[str, float]) -> np.ndarray:
    """Evaluate ``expr`` over raw arrays; returns a dense 2-D float64 array.

    ``matrices`` maps stored names to ndarrays or SciPy sparse matrices,
    ``scalars`` maps scalar names to floats.  Overflow yields ``inf`` rather
    than an exception, so callers can recognise a non-finite reference.
    """
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        return _evaluate(expr, matrices, scalars, {})


def _evaluate(expr, matrices, scalars, memo) -> np.ndarray:
    cached = memo.get(id(expr))
    if cached is not None:
        return cached[1]
    op = expr.op
    if op == "name":
        value = _dense(matrices[expr.payload[0]])
    elif op == "scalar_ref":
        value = _dense(float(scalars[expr.payload[0]]))
    elif op == "scalar_const":
        value = _dense(float(expr.payload[0]))
    elif op == "identity":
        value = np.eye(expr.payload[0])
    elif op == "zero":
        value = np.zeros(expr.payload)
    elif op == "mat_pow":
        value = np.linalg.matrix_power(
            _evaluate(expr.children[0], matrices, scalars, memo), expr.payload[0]
        )
    elif op in _UNARY:
        value = _dense(_UNARY[op](_evaluate(expr.children[0], matrices, scalars, memo)))
    elif op in _BINARY:
        left = _evaluate(expr.children[0], matrices, scalars, memo)
        right = _evaluate(expr.children[1], matrices, scalars, memo)
        value = _dense(_BINARY[op](left, right))
    else:
        raise NotImplementedError(f"reference evaluator has no operator {op!r}")
    # Keep the node alive with its value: ids are only unique among live objects.
    memo[id(expr)] = (expr, value)
    return value


def _shape(expr, shape_of: Callable[[str], Shape], flops: list) -> Shape:
    op = expr.op
    if op == "name":
        return tuple(shape_of(expr.payload[0]))
    if op in ("scalar_ref", "scalar_const"):
        return (1, 1)
    if op == "identity":
        return (expr.payload[0], expr.payload[0])
    if op == "zero":
        return tuple(expr.payload)
    shapes = [_shape(child, shape_of, flops) for child in expr.children]
    if op == "multi_m":
        (m, k), (_, n) = shapes
        flops[0] += 2 * m * k * n
        return (m, n)
    if op in ("add_m", "sub_m", "div_m", "multi_e", "multi_ms"):
        left, right = shapes
        out = right if left == (1, 1) else left
        flops[0] += out[0] * out[1]
        return out
    if op == "cbind":
        return (shapes[0][0], shapes[0][1] + shapes[1][1])
    if op == "rbind":
        return (shapes[0][0] + shapes[1][0], shapes[0][1])
    (rows, cols), = shapes
    n = rows
    if op == "tr":
        return (cols, rows)
    if op == "inv_m":
        flops[0] += 2 * n ** 3
        return (rows, cols)
    if op == "exp":
        # Counted as six dense products: a fixed stand-in for the Pade
        # scaling-and-squaring kernel, whose real count depends on the norm.
        flops[0] += 12 * n ** 3
        return (rows, cols)
    if op == "adj":
        flops[0] += 2 * n ** 3 + (2 * n ** 3) // 3 + n * n
        return (rows, cols)
    if op == "det":
        flops[0] += (2 * n ** 3) // 3
        return (1, 1)
    if op == "mat_pow":
        flops[0] += max(expr.payload[0] - 1, 0) * 2 * n ** 3
        return (rows, cols)
    if op == "row_sums":
        flops[0] += rows * cols
        return (rows, 1)
    if op == "col_sums":
        flops[0] += rows * cols
        return (1, cols)
    if op == "sum":
        flops[0] += rows * cols
        return (1, 1)
    if op == "trace":
        flops[0] += n
        return (1, 1)
    if op == "diag":
        return (rows, rows) if cols == 1 else (rows, 1)
    raise NotImplementedError(f"flop counter has no operator {op!r}")


def dense_flops(expr, shape_of: Callable[[str], Shape]) -> int:
    """Dense floating-point operations of evaluating ``expr`` as stated.

    ``shape_of`` maps a stored matrix name to its ``(rows, cols)``.  Every
    occurrence of a subtree counts (no common-subexpression sharing), since
    the program's backends evaluate a plan exactly as written.
    """
    flops = [0]
    _shape(expr, shape_of, flops)
    return flops[0]


# ---------------------------------------------------------------------------
# Q_RA: the hybrid queries' matrix builders, recomputed from raw tables
# ---------------------------------------------------------------------------

_COMPARE = {
    "<": np.less,
    "<=": np.less_equal,
    ">": np.greater,
    ">=": np.greater_equal,
    "==": np.equal,
    "!=": np.not_equal,
}


def join_feature_matrix(left, right, key: str, left_columns, right_columns) -> np.ndarray:
    """Rows of ``left`` (in table order) joined 1-1 with ``right`` on ``key``."""
    position = {float(k): i for i, k in enumerate(np.asarray(right.column(key), dtype=float))}
    rows = [position[float(k)] for k in np.asarray(left.column(key), dtype=float)]
    left_part = np.column_stack([np.asarray(left.column(c), dtype=float) for c in left_columns])
    right_part = np.column_stack(
        [np.asarray(right.column(c), dtype=float)[rows] for c in right_columns]
    )
    return np.hstack([left_part, right_part])


def _predicate_mask(table, predicate) -> np.ndarray:
    column = table.column(predicate.column)
    if predicate.comparator == "like":
        return np.asarray([str(predicate.value) in str(v) for v in column], dtype=bool)
    values = np.asarray(column, dtype=object if isinstance(column, list) else float)
    return np.asarray(_COMPARE[predicate.comparator](values, predicate.value), dtype=bool)


def pivot_sparse_matrix(table, builder) -> np.ndarray:
    """The filtered fact table pivoted to a dense (rows x cols) matrix.

    Duplicate (row, col) facts add up; ``measure_filter`` then keeps only
    the cells whose summed value passes it.
    """
    mask = np.ones(table.n_rows, dtype=bool)
    for predicate in builder.filters:
        mask &= _predicate_mask(table, predicate)
    rows = np.asarray(table.column(builder.row_key), dtype=np.int64)[mask]
    cols = np.asarray(table.column(builder.col_key), dtype=np.int64)[mask]
    vals = np.asarray(table.column(builder.measure), dtype=float)[mask]
    out = np.zeros((builder.n_rows, builder.n_cols))
    np.add.at(out, (rows, cols), vals)
    if builder.measure_filter is not None:
        comparator, threshold = builder.measure_filter
        out = np.where(_COMPARE[comparator](out, threshold), out, 0.0)
    return out


def values_match(value, reference: np.ndarray, rtol: float = 1e-6) -> bool:
    """Whether a program value equals a reference up to rounding.

    The absolute tolerance scales with the reference's magnitude, because
    a rewrite legitimately reorders floating-point sums.
    """
    got = _dense(value)
    if got.shape != reference.shape:
        return False
    scale = float(np.max(np.abs(reference))) if reference.size else 0.0
    return bool(np.allclose(got, reference, rtol=rtol, atol=rtol * max(scale, 1.0)))
