"""Statistical experiments: zero-amplitude statistics, cross-correlation,
and the complexity-comparison report.

These scan many clocks, so signals are evaluated vectorized over numpy
float64. For RTW amplitudes and the moderate system sizes used here every
product and sum is exactly representable, so zero tests remain exact; the
test suite pins the vectorized path to the exact scalar evaluator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Optional

import numpy as np

from .expr import Expr, Product, Ref, Sum
from .reference import ReferenceSystem
from .switchboard import SwitchState


def eval_array(
    expr: Expr,
    system: ReferenceSystem,
    t_start: int,
    clocks: int,
    switches: Optional[SwitchState] = None,
) -> np.ndarray:
    """Signal values over clocks [t_start, t_start + clocks)."""
    memo: Dict[int, np.ndarray] = {}

    def go(node: Expr) -> np.ndarray:
        key = id(node)
        hit = memo.get(key)
        if hit is not None:
            return hit
        if isinstance(node, Ref):
            if switches is not None and switches.is_grounded(node.wire):
                value = np.zeros(clocks)
            else:
                value = system.value_array(node.wire, t_start, clocks)
        elif isinstance(node, Sum):
            value = np.zeros(clocks)
            for coeff, term in node.terms:
                value = value + coeff * go(term)
        else:
            value = go(node.factors[0]).copy()
            for factor in node.factors[1:]:
                value *= go(factor)
        memo[key] = value
        return value

    try:
        return go(expr)
    finally:
        del go  # go holds itself in its closure; breaking the cycle frees memo now


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
    values = eval_array(expr, system, t_start, clocks)
    zero = values == 0.0
    zero_clocks = int(zero.sum())
    histogram: Dict[int, int] = {}
    run = 0
    for z in zero:
        if z:
            run += 1
        elif run:
            histogram[run] = histogram.get(run, 0) + 1
            run = 0
    if run:
        histogram[run] = histogram.get(run, 0) + 1
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
    a = eval_array(expr_a, system, t_start, clocks)
    b = eval_array(expr_b, system, t_start, clocks)
    norm_a = math.sqrt(float(np.mean(a * a)))
    norm_b = math.sqrt(float(np.mean(b * b)))
    if norm_a == 0.0 or norm_b == 0.0:
        raise ValueError("cross-correlation of a zero-variance signal")
    if expr_a is expr_b or expr_a == expr_b:
        return 1.0
    return float(np.mean(a * b)) / (norm_a * norm_b)


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
