"""Statistical experiments: zero-amplitude statistics, cross-correlation,
and the complexity-comparison report.

These scan many clocks, so signals are evaluated over whole windows with
numpy, block by block. Every amplitude is a dyadic rational, and the window
evaluator keeps each node as exact integers scaled by a static power of two,
so zero tests, run lengths and correlation sums are exact at every size.

Each (expression, scheme) is compiled once into a cached program: node
order, exponent floors, dtype, Sum weights and the nodes grouped by height.
`eval_array` runs it node by node over blocks of clocks; `eval_configs` runs
it height by height over switch configurations x a window of clocks, which
is how every protocol (the searches, entangle discrimination and the
phonebook) reads the un-grounded signal, the collapse and the probes of a
whole window at once.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass
from fractions import Fraction
from typing import AbstractSet, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .expr import Expr, Ref, Sum, topological_order
from .reference import BLOCK_CLOCKS, ReferenceSystem, RtwScheme, WireId

_INT64_LIMIT = 1 << 63


class _Program:
    """Everything eval_array and eval_configs need of one (expr, scheme),
    built once. It holds node indices and wires, never the nodes, so the
    cache entry does not keep its expression alive.

    Each node is held as integers scaled by a static exponent floor: a Ref's
    wire exponent, the minimum over a Sum's terms, the total over a
    Product's factors. dtype is int64 when the static magnitude bound of
    every node fits in 63 bits, otherwise object (Python ints).
    """

    def __init__(self, expr: Expr, scheme: RtwScheme):
        order = topological_order(expr)
        index = {id(node): i for i, node in enumerate(order)}
        floor: List[int] = []
        bound: List[int] = []
        height: List[int] = []
        # per node: (kind, operand, children); kind is "wire" (operand: its
        # row in self.wires, set below), "sum" or "product"
        plan: List[tuple] = []
        for node in order:
            if isinstance(node, Ref):
                floor.append(scheme.magnitude_exp2(node.wire.bit_value))
                bound.append(1)
                height.append(0)
                plan.append(("wire", node.wire, ()))
                continue
            if isinstance(node, Sum):
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
            height.append(1 + max(height[j] for j in kids))
        self.plan = plan
        self.exp2 = floor[-1]
        self.dtype = np.int64 if max(bound) < _INT64_LIMIT else object
        # a child's block array is dropped after the last node that reads it
        self.last_use = list(range(len(order)))
        for i, (_, _, kids) in enumerate(plan):
            for j in kids:
                self.last_use[j] = i
        refs = [i for i, (kind, _, _) in enumerate(plan) if kind == "wire"]
        self.wires = list({plan[i][1].tag: plan[i][1] for i in refs}.values())
        # wire tag -> row of the wire in sign_rows(self.wires, ...)
        self.wire_index = {w.tag: k for k, w in enumerate(self.wires)}
        for i in refs:
            plan[i] = ("wire", self.wire_index[plan[i][1].tag], ())
        self.refs = np.array(refs, dtype=np.intp)
        self.ref_wires = np.array([plan[i][1] for i in refs], dtype=np.intp)
        self.levels = self._levels(plan, height)
        # rows of the tallest matrix eval_configs makes: the nodes, or the
        # children a level gathers
        self.width = max([len(plan)] + [len(flat) for _, _, flat, _, _ in self.levels])

    def _levels(self, plan: List[tuple], height: List[int]) -> List[tuple]:
        """Per height and kind: (targets, ufunc, flat children, reduceat
        starts, weights or None). A level reads only lower levels."""
        groups: Dict[Tuple[int, str], List[int]] = {}
        for i, (kind, _, _) in enumerate(plan):
            if kind != "wire":
                groups.setdefault((height[i], kind), []).append(i)
        levels = []
        for (_, kind), targets in sorted(groups.items()):
            flat: List[int] = []
            starts: List[int] = []
            weights: List[int] = []
            for i in targets:
                _, operand, kids = plan[i]
                starts.append(len(flat))
                flat.extend(kids)
                if kind == "sum":
                    weights.extend(w for _, w in operand)
            ufunc = np.add if kind == "sum" else np.multiply
            w = None
            if any(x != 1 for x in weights):
                w = np.array(weights, dtype=self.dtype)[:, None]
            levels.append((np.array(targets, dtype=np.intp), ufunc,
                           np.array(flat, dtype=np.intp), np.array(starts, dtype=np.intp), w))
        return levels


# id(expr) -> scheme -> program; an entry is dropped when its expression dies
_PROGRAMS: Dict[int, Dict[RtwScheme, _Program]] = {}


def _program(expr: Expr, scheme: RtwScheme) -> _Program:
    """The cached program of expr under scheme, built on first use. Keyed by
    identity: hashing a frozen dataclass DAG recurses over every path."""
    key = id(expr)
    by_scheme = _PROGRAMS.get(key)
    if by_scheme is None:
        by_scheme = _PROGRAMS[key] = {}
        weakref.finalize(expr, _PROGRAMS.pop, key, None).atexit = False
    program = by_scheme.get(scheme)
    if program is None:
        program = by_scheme[scheme] = _Program(expr, scheme)
    return program


def eval_array(
    expr: Expr,
    system: ReferenceSystem,
    t_start: int,
    clocks: int,
) -> Tuple[np.ndarray, int]:
    """Exact signal values over clocks [t_start, t_start + clocks).

    Returns (ints, exp2): the value at clock t_start + k is ints[k] * 2**exp2.
    ints is int64 or object by the program's static bound (see _Program).
    Nodes are evaluated one by one over blocks of clocks.
    """
    program = _program(expr, system.scheme)
    plan, last_use, dtype = program.plan, program.last_use, program.dtype

    ints = np.empty(clocks, dtype=dtype)
    for lo in range(0, clocks, BLOCK_CLOCKS):
        n = min(BLOCK_CLOCKS, clocks - lo)
        signs = system.sign_rows(program.wires, t_start + lo, n)
        vals: List[Optional[np.ndarray]] = [None] * len(plan)
        for i, (kind, operand, kids) in enumerate(plan):
            # wire reads stay int8; every arithmetic result has the chosen dtype
            if kind == "wire":
                value = signs[operand]
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
    return ints, program.exp2


def eval_configs(
    expr: Expr,
    system: ReferenceSystem,
    t0: int,
    clocks: int,
    grounded: Sequence[AbstractSet[WireId]],
) -> Tuple[np.ndarray, int]:
    """Exact signal values over clocks [t0, t0 + clocks), one row per switch
    configuration.

    grounded[r] is the set of wires grounded in configuration r. Returns
    (ints, exp2): configuration r reads ints[r, k] * 2**exp2 at clock t0 + k,
    with the dtype rule of eval_array. All configurations see the same wire
    draws, and each height of the DAG is one gather and one reduceat over a
    nodes x (configurations * clocks) matrix. Clocks are taken in spans that
    keep the tallest such matrix within BLOCK_CLOCKS entries.
    """
    program = _program(expr, system.scheme)
    configs = len(grounded)
    # live[k, r] = 0 where configuration r grounds wire k
    live = np.ones((len(program.wires), configs), dtype=np.int8)
    index = program.wire_index
    cut = [(k, r) for r, wires in enumerate(grounded) for w in wires
           if (k := index.get(w.tag)) is not None]
    if cut:
        live[tuple(zip(*cut))] = 0
    ints = np.empty((configs, clocks), dtype=program.dtype)
    span = max(1, BLOCK_CLOCKS // (program.width * max(configs, 1)))
    for lo in range(0, clocks, span):
        n = min(span, clocks - lo)
        signs = system.sign_rows(program.wires, t0 + lo, n)
        vals = np.empty((len(program.plan), configs * n), dtype=program.dtype)
        reads = signs[:, None, :] * live[:, :, None]  # wires x configurations x clocks
        vals[program.refs] = reads[program.ref_wires].reshape(-1, configs * n)
        for targets, ufunc, flat, starts, weights in program.levels:
            gathered = vals[flat]
            if weights is not None:
                gathered *= weights
            vals[targets] = ufunc.reduceat(gathered, starts, axis=0)
        ints[:, lo : lo + n] = vals[-1].reshape(configs, n)
    return ints, program.exp2


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
    root-mean-square amplitudes. Signals equal over the window give exactly 1.0."""
    if clocks < 1:
        raise ValueError(f"clocks must be >= 1, got {clocks}")
    a, exp2_a = eval_array(expr_a, system, t_start, clocks)
    b, exp2_b = eval_array(expr_b, system, t_start, clocks)
    # the 2**exp2 scales cancel in the normalized ratio
    norm_a = math.sqrt(_dot(a, a) / clocks)
    norm_b = math.sqrt(_dot(b, b) / clocks)
    if norm_a == 0.0 or norm_b == 0.0:
        raise ValueError("cross-correlation of a zero-variance signal")
    if exp2_a == exp2_b and np.array_equal(a, b):
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
    switching costs when both name/number widths are given (each >= 1).
    """
    if not 1 <= num_bits <= 1023:
        # 2**1024 / M**1.5 overflows the float grover_ratio_value
        raise ValueError(f"num_bits must be between 1 and 1023, got {num_bits}")
    if (name_bits is None) != (number_bits is None):
        raise ValueError(
            f"phonebook costs need both name_bits and number_bits or neither, "
            f"got name_bits={name_bits}, number_bits={number_bits}"
        )
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
    if name_bits is not None:
        from .phonebook import switching_cost

        report["phonebook_forward_ops"] = switching_cost(name_bits, number_bits, "forward")
        report["phonebook_inverse_ops"] = switching_cost(name_bits, number_bits, "inverse")
    return report
