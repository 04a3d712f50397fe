"""Statistical experiments: zero-amplitude statistics, cross-correlation,
and the complexity-comparison report.

These scan many clocks, so signals are evaluated over whole windows with
numpy, block by block. Every amplitude is a dyadic rational, and the window
evaluator keeps each node as exact integers scaled by a static power of two,
so zero tests, run lengths and correlation sums are exact at every size.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Tuple

import numpy as np

from .expr import Expr, Ref, Sum, topological_order
from .reference import BLOCK_CLOCKS, ReferenceSystem
from .switchboard import SwitchState

_INT64_LIMIT = 1 << 63


def eval_array(
    expr: Expr,
    system: ReferenceSystem,
    t_start: int,
    clocks: int,
    switches: Optional[SwitchState] = None,
) -> Tuple[np.ndarray, int]:
    """Exact signal values over clocks [t_start, t_start + clocks).

    Returns (ints, exp2): the value at clock t_start + k is ints[k] * 2**exp2.
    Each node is held as integers scaled by a static exponent floor: a Ref's
    wire exponent, the minimum over a Sum's terms, the total over a
    Product's factors. ints is int64 when the static magnitude bound of every
    node fits in 63 bits, otherwise an object array of Python ints.
    """
    order = topological_order(expr)
    index = {id(node): i for i, node in enumerate(order)}
    floor: List[int] = []
    bound: List[int] = []
    # per node: (kind, operand, children); kind is "wire", "zero", "sum" or "product"
    plan: List[tuple] = []
    for node in order:
        if isinstance(node, Ref):
            floor.append(system.scheme.magnitude_exp2(node.wire.bit_value))
            bound.append(1)
            grounded = switches is not None and switches.is_grounded(node.wire)
            plan.append(("zero", None, ()) if grounded else ("wire", node.wire, ()))
        elif isinstance(node, Sum):
            kids = [index[id(term)] for _, term in node.terms]
            f = min(floor[j] for j in kids)
            weights = [(j, coeff << (floor[j] - f)) for (coeff, _), j in zip(node.terms, kids)]
            floor.append(f)
            bound.append(sum(abs(w) * bound[j] for j, w in weights))
            plan.append(("sum", weights, kids))
        else:
            kids = [index[id(factor)] for factor in node.factors]
            floor.append(sum(floor[j] for j in kids))
            bound.append(math.prod(bound[j] for j in kids))
            plan.append(("product", kids, kids))
    dtype = np.int64 if max(bound) < _INT64_LIMIT else object
    # a child's block array is dropped after the last node that reads it
    last_use = list(range(len(order)))
    for i, (_, _, kids) in enumerate(plan):
        for j in kids:
            last_use[j] = i
    wires = {operand for kind, operand, _ in plan if kind == "wire"}

    ints = np.empty(clocks, dtype=dtype)
    for lo in range(0, clocks, BLOCK_CLOCKS):
        n = min(BLOCK_CLOCKS, clocks - lo)
        signs = {w: system.sign_array(w, t_start + lo, n) for w in wires}
        vals: List[Optional[np.ndarray]] = [None] * len(order)
        for i, (kind, operand, kids) in enumerate(plan):
            # wire reads stay int8; every arithmetic result has the chosen dtype
            if kind == "wire":
                value = signs[operand]
            elif kind == "zero":
                value = np.zeros(n, dtype=np.int8)
            elif kind == "sum":
                (j, w), rest = operand[0], operand[1:]
                value = np.multiply(vals[j], w, dtype=dtype)
                for j, w in rest:
                    if w == 1:
                        np.add(value, vals[j], out=value)
                    elif w == -1:
                        np.subtract(value, vals[j], out=value)
                    else:
                        np.add(value, np.multiply(vals[j], w, dtype=dtype), out=value)
            else:
                value = vals[operand[0]].astype(dtype)
                for j in operand[1:]:
                    np.multiply(value, vals[j], out=value)
            vals[i] = value
            for j in kids:
                if last_use[j] == i:
                    vals[j] = None
        ints[lo : lo + n] = vals[-1]
    return ints, floor[-1]


@dataclass
class ZeroStats:
    clocks: int
    zero_clocks: int
    zero_fraction: float
    # run length of consecutive zero clocks -> occurrence count
    waiting_time_histogram: Dict[int, int]

    def histogram_slope(self) -> Optional[float]:
        """Least-squares slope of log(count) vs run length, over bins with
        enough mass to be meaningful. None if fewer than two usable bins."""
        pts = [(k, math.log(c)) for k, c in sorted(self.waiting_time_histogram.items()) if c >= 10]
        if len(pts) < 2:
            return None
        xs = np.array([p[0] for p in pts])
        ys = np.array([p[1] for p in pts])
        return float(np.polyfit(xs, ys, 1)[0])

    def to_json(self) -> dict:
        return {
            "clocks": self.clocks,
            "zero_clocks": self.zero_clocks,
            "zero_fraction": self.zero_fraction,
            "waiting_time_histogram": {str(k): v for k, v in sorted(self.waiting_time_histogram.items())},
        }


def run_zero_stats(
    expr: Expr, system: ReferenceSystem, clocks: int, t_start: int = 0
) -> ZeroStats:
    """Fraction of zero-amplitude clocks and histogram of zero run lengths."""
    if clocks < 1:
        raise ValueError(f"clocks must be >= 1, got {clocks}")
    ints, _ = eval_array(expr, system, t_start, clocks)
    zero = ints == 0
    zero_clocks = int(np.count_nonzero(zero))
    # the mask changes value where a zero run starts or ends, alternately
    edges = np.flatnonzero(np.diff(zero, prepend=False, append=False))
    lengths = edges[1::2] - edges[::2]
    counts = np.bincount(lengths)
    histogram = {int(k): int(counts[k]) for k in np.flatnonzero(counts)}
    return ZeroStats(clocks, zero_clocks, zero_clocks / clocks, histogram)


def run_crosscorr(
    expr_a: Expr,
    expr_b: Expr,
    system: ReferenceSystem,
    clocks: int,
    t_start: int = 0,
) -> float:
    """Empirical cross-correlation (1/T) sum a*b, normalized by the signals'
    root-mean-square amplitudes. Identical signals give exactly 1.0."""
    if clocks < 1:
        raise ValueError(f"clocks must be >= 1, got {clocks}")
    a, _ = eval_array(expr_a, system, t_start, clocks)
    b, _ = eval_array(expr_b, system, t_start, clocks)
    # the 2**exp2 scales cancel in the normalized ratio
    norm_a = math.sqrt(_dot(a, a) / clocks)
    norm_b = math.sqrt(_dot(b, b) / clocks)
    if norm_a == 0.0 or norm_b == 0.0:
        raise ValueError("cross-correlation of a zero-variance signal")
    if expr_a is expr_b or expr_a == expr_b:
        return 1.0
    return (_dot(a, b) / clocks) / (norm_a * norm_b)


def _dot(x: np.ndarray, y: np.ndarray) -> int:
    """Exact sum of x * y over two integer arrays from eval_array."""
    if x.dtype == np.int64 and y.dtype == np.int64:
        if len(x) * int(np.abs(x).max()) * int(np.abs(y).max()) < _INT64_LIMIT:
            return int(np.dot(x, y))
    return int(np.dot(x.astype(object), y.astype(object)))


def speedup_report(
    num_bits: int, name_bits: Optional[int] = None, number_bits: Optional[int] = None
) -> dict:
    """Complexity comparison for an M noise-bit search.

    classical_ratio = 2**M / M, grover_ratio = 2**M / M**1.5 (quoted
    formulas, not re-derived), photon_bound = M * 2**M; optional phonebook
    switching costs when name/number widths are given.
    """
    if num_bits < 1:
        raise ValueError(f"num_bits must be >= 1, got {num_bits}")
    classical = Fraction(2**num_bits, num_bits)
    report = {
        "num_bits": num_bits,
        "superposition_size": 2**num_bits,
        "search_switch_ops": num_bits,
        "classical_ratio": str(classical),
        "classical_ratio_value": float(classical),
        "grover_ratio_value": 2**num_bits / num_bits**1.5,
        "photon_bound": num_bits * 2**num_bits,
    }
    if name_bits is not None and number_bits is not None:
        from .phonebook import switching_cost

        report["phonebook_forward_ops"] = switching_cost(name_bits, number_bits, "forward")
        report["phonebook_inverse_ops"] = switching_cost(name_bits, number_bits, "inverse")
    return report
