"""Statistical experiments: zero-amplitude statistics, cross-correlation,
and the complexity-comparison report.

These scan many clocks, so signals are evaluated over whole windows with
numpy, block by block. Every amplitude is a dyadic rational, and the window
evaluator keeps each node as exact integers scaled by a static power of two,
so zero tests, run lengths and correlation sums are exact at every size.

Each (expression, scheme) is compiled once into a cached program: wire
rows, exponent floors, dtype, and the Sums and Products grouped into levels
of one height, kind and arity, each holding its children in arity-major
order. `eval_array` runs it node by node over blocks of clocks, each Sum
and Product in the narrowest exact dtype for its static bound (int8 below
2**7, int16 below 2**15, int32 below 2**31, int64 below 2**63, else
object) and each sign row in int8. A
`ConfigReader` runs it level by level over switch configurations x a window
of clocks, one gather and one reduce per level, which is how every protocol
(the searches, entangle discrimination and the phonebook) reads the
un-grounded signal, the collapse and the probes of a whole window at once;
a scan prepares its reader once (program, seed column, grounded wire rows,
span) and reads every window from it. `eval_configs` is the one-shot read.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
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
    Product's factors. bound is the root's static magnitude bound, and
    dtype is int64 when it fits in 63 bits, otherwise object (Python ints).
    Every bound is at least 1 and covers each partial sum and product of its
    node, so the terms of a node may be combined in any order. Coefficients
    are nonzero, so no node's bound is below a child's, and the root's is
    the largest. plan gives each Sum and Product the narrowest exact dtype
    for its own bound (int8, int16, int32, int64, then object), which is
    never narrower than a child's; it is built on eval_array's first call,
    so a program only the searches read never pays for it.

    support is the bitmask (bit i for noise-bit i) of the bits every
    product-string of the expansion assigns, one wire each: a Ref's own bit,
    the disjoint union over a Product's factors, the one value all of a
    Sum's terms share. An overlap or a mismatch gives None.

    Nodes are numbered wires first, one row per distinct wire in
    self.wires, then the Sums and Products grouped by (height, kind, arity),
    each group a contiguous range of rows that reads only lower groups.
    """

    def __init__(self, expr: Expr, scheme: RtwScheme):
        order = topological_order(expr)
        position = {id(node): i for i, node in enumerate(order)}
        self.wires: List[WireId] = []
        # wire tag -> row
        wire_row: Dict[int, int] = {}
        floor: List[int] = []
        bound: List[int] = []
        height: List[int] = []
        support: List[Optional[int]] = []
        # per position: a wire's row, or (kind, children's positions, weights)
        nodes: List[object] = []
        for node in order:
            if isinstance(node, Ref):
                floor.append(scheme.magnitude_exp2(node.wire.bit_value))
                bound.append(1)
                height.append(0)
                support.append(1 << node.wire.bit_index)
                if node.wire.tag not in wire_row:
                    wire_row[node.wire.tag] = len(self.wires)
                    self.wires.append(node.wire)
                nodes.append(wire_row[node.wire.tag])
                continue
            if isinstance(node, Sum):
                kids = [position[id(term)] for _, term in node.terms]
                f = min(floor[j] for j in kids)
                weights = [coeff << (floor[j] - f) for (coeff, _), j in zip(node.terms, kids)]
                floor.append(f)
                bound.append(sum(abs(w) * bound[j] for j, w in zip(kids, weights)))
                nodes.append(("sum", kids, weights))
                shared = {support[j] for j in kids}
                support.append(shared.pop() if len(shared) == 1 else None)
            else:
                kids = [position[id(factor)] for factor in node.factors]
                floor.append(sum(floor[j] for j in kids))
                bound.append(math.prod(bound[j] for j in kids))
                nodes.append(("product", kids, None))
                parts = [support[j] for j in kids]
                disjoint = None not in parts and sum(parts).bit_count() == sum(
                    p.bit_count() for p in parts)
                support.append(sum(parts) if disjoint else None)
            height.append(1 + max(height[j] for j in kids))
        self.exp2 = floor[-1]
        self.support = support[-1]
        self.bound = bound[-1]
        self.dtype = np.int64 if self.bound < _INT64_LIMIT else object
        self.wire_row = wire_row
        # the stream seeds of self.wires per system, as ReferenceSystem.seed_column
        self.seeds: "weakref.WeakKeyDictionary[ReferenceSystem, np.ndarray]" = (
            weakref.WeakKeyDictionary())

        groups: Dict[Tuple[int, str, int], List[int]] = {}
        for i, node in enumerate(nodes):
            if isinstance(node, tuple):
                groups.setdefault((height[i], node[0], len(node[1])), []).append(i)
        # topological position -> row; a group's children sit in lower groups
        row = {i: node for i, node in enumerate(nodes) if isinstance(node, int)}
        self.nodes = len(self.wires)
        # per group: (first row, end row, ufunc, arity, the children in
        # arity-major order (child j of every target, j = 0..arity-1), Sum
        # weights shaped (arity, targets, 1) or None when all are 1)
        self.levels = []
        # per group: its Sums or Products (topological positions) and their
        # children's rows, from which plan is built on eval_array's first call
        self._groups: List[Tuple[List[int], List[List[int]]]] = []
        self._nodes, self._bound = nodes, bound
        for (_, kind, arity), targets in sorted(groups.items()):
            first = self.nodes
            self.nodes += len(targets)
            row.update((i, first + k) for k, i in enumerate(targets))
            kids = [[row[j] for j in nodes[i][1]] for i in targets]
            self._groups.append((targets, kids))
            flat = np.array(kids, dtype=np.intp).T.reshape(-1)
            weights = None
            if kind == "sum":
                table = [nodes[i][2] for i in targets]
                if any(w != 1 for ws in table for w in ws):
                    weights = np.array(table, dtype=self.dtype).T[:, :, None].copy()
            ufunc = np.add if kind == "sum" else np.multiply
            self.levels.append((first, self.nodes, ufunc, arity, flat, weights))
        self.root = row[len(order) - 1]
        # rows of the tallest matrix eval_configs makes: the nodes, or the
        # children a level gathers
        self.width = max([self.nodes] + [len(level[4]) for level in self.levels])

    @cached_property
    def plan(self) -> List[tuple]:
        """Per Sum or Product row, in row order, for eval_array's node loop:
        (kind, [(child row, weight)] or child rows, child rows, dtype), dtype
        the narrowest exact one for the node's static bound."""
        plan = []
        for targets, kids in self._groups:
            for i, k in zip(targets, kids):
                kind, _, weights = self._nodes[i]
                operand = list(zip(k, weights)) if kind == "sum" else k
                plan.append((kind, operand, k, _exact_dtype(self._bound[i])))
        return plan

    @cached_property
    def last_use(self) -> List[int]:
        """Per row, the plan row after which eval_array drops its block array."""
        last_use = list(range(self.nodes))
        for i, (_, _, kids, _) in enumerate(self.plan, start=len(self.wires)):
            for j in kids:
                last_use[j] = i
        return last_use


def _exact_dtype(bound: int):
    """The narrowest dtype that holds every integer of magnitude <= bound."""
    for dtype in (np.int8, np.int16, np.int32, np.int64):
        if bound <= np.iinfo(dtype).max:
            return dtype
    return object


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


def _seed_column(program: _Program, system: ReferenceSystem) -> np.ndarray:
    """The stream seeds of the program's wires on system, kept with the
    program for as long as both live."""
    seeds = program.seeds.get(system)
    if seeds is None:
        seeds = program.seeds[system] = system.seed_column(program.wires)
    return seeds


def eval_array(
    expr: Expr,
    system: ReferenceSystem,
    t_start: int,
    clocks: int,
) -> Tuple[np.ndarray, int]:
    """Exact signal values over clocks [t_start, t_start + clocks).

    Returns (ints, exp2): the value at clock t_start + k is ints[k] * 2**exp2.
    ints is int64 or object by the program's static bound (see _Program).
    Nodes are evaluated one by one over blocks of clocks, sign rows in int8
    and every Sum and Product in the narrowest exact dtype for its own bound.
    """
    program = _program(expr, system.scheme)
    plan, last_use = program.plan, program.last_use
    seeds = _seed_column(program, system)
    first = len(program.wires)

    ints = np.empty(clocks, dtype=program.dtype)
    for lo in range(0, clocks, BLOCK_CLOCKS):
        n = min(BLOCK_CLOCKS, clocks - lo)
        # wire reads stay int8; each node computes in its own dtype, never
        # narrower than a child's
        vals: List[Optional[np.ndarray]] = [*system.seeded_sign_rows(
            program.wires, seeds, t_start + lo, n)]
        vals.extend([None] * len(plan))
        for i, (kind, operand, kids, dtype) in enumerate(plan, start=first):
            if kind == "sum":
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
        ints[lo : lo + n] = vals[program.root]
    return ints, program.exp2


class ConfigReader:
    """One expression's reads of fixed switch configurations on one system,
    prepared once for a scan that reads window after window.

    grounded[r] is the set of wires grounded in configuration r. Preparing
    resolves the cached program, its seed column on the system, the
    (wire row, configuration) pairs a grounding zeroes and the span of
    clocks one pass takes; read() then evaluates windows from them. All
    configurations see the same wire draws, and each level of the program
    is one gather and one reduce over an arity x targets x (configurations
    * clocks) array.
    """

    __slots__ = ("program", "system", "seeds", "configs", "cut", "span")

    def __init__(self, expr: Expr, system: ReferenceSystem,
                 grounded: Sequence[AbstractSet[WireId]]):
        program = self.program = _program(expr, system.scheme)
        self.system = system
        self.seeds = _seed_column(program, system)
        self.configs = len(grounded)
        rows = program.wire_row
        cut = [(k, r) for r, wires in enumerate(grounded) for w in wires
               if (k := rows.get(w.tag)) is not None]
        self.cut = tuple(np.array(pairs, dtype=np.intp) for pairs in zip(*cut)) if cut else None
        # clocks per pass: the tallest matrix, program.width rows of
        # configurations x clocks, stays within BLOCK_CLOCKS entries
        self.span = max(1, BLOCK_CLOCKS // (program.width * max(self.configs, 1)))

    def read(self, t0: int, clocks: int) -> Tuple[np.ndarray, int]:
        """Exact values over clocks [t0, t0 + clocks), one row per
        configuration: configuration r reads ints[r, k] * 2**exp2 at clock
        t0 + k, with the dtype rule of eval_array."""
        program, configs = self.program, self.configs
        wires, levels = len(program.wires), program.levels
        ints = np.empty((configs, clocks), dtype=program.dtype)
        for lo in range(0, clocks, self.span):
            n = min(self.span, clocks - lo)
            cols = configs * n
            vals = np.empty((program.nodes, configs, n), dtype=program.dtype)
            # every configuration sees the same draws; a grounded wire reads 0
            vals[:wires] = self.system.seeded_sign_rows(
                program.wires, self.seeds, t0 + lo, n)[:, None, :]
            if self.cut is not None:
                vals[self.cut] = 0
            vals = vals.reshape(program.nodes, cols)
            for first, end, ufunc, arity, flat, weights in levels:
                # np.take is about twice as fast as vals[flat] on these rows
                gathered = np.take(vals, flat, axis=0).reshape(arity, end - first, cols)
                if weights is not None:
                    gathered *= weights
                ufunc.reduce(gathered, axis=0, out=vals[first:end])
            ints[:, lo : lo + n] = vals[program.root].reshape(configs, n)
        return ints, program.exp2


def eval_configs(
    expr: Expr,
    system: ReferenceSystem,
    t0: int,
    clocks: int,
    grounded: Sequence[AbstractSet[WireId]],
) -> Tuple[np.ndarray, int]:
    """Exact signal values over clocks [t0, t0 + clocks), one row per switch
    configuration, grounded[r] being the wires configuration r grounds: the
    one-shot read ConfigReader(expr, system, grounded).read(t0, clocks).

    Returns (ints, exp2): configuration r reads ints[r, k] * 2**exp2 at
    clock t0 + k, with the dtype rule of eval_array.
    """
    return ConfigReader(expr, system, grounded).read(t0, clocks)


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
    bound_a = _program(expr_a, system.scheme).bound
    bound_b = _program(expr_b, system.scheme).bound
    # the 2**exp2 scales cancel in the normalized ratio
    norm_a = math.sqrt(_dot(a, a, bound_a, bound_a) / clocks)
    norm_b = math.sqrt(_dot(b, b, bound_b, bound_b) / clocks)
    if norm_a == 0.0 or norm_b == 0.0:
        raise ValueError("cross-correlation of a zero-variance signal")
    if exp2_a == exp2_b and np.array_equal(a, b):
        return 1.0
    return (_dot(a, b, bound_a, bound_b) / clocks) / (norm_a * norm_b)


def _dot(x: np.ndarray, y: np.ndarray, bound_x: int, bound_y: int) -> int:
    """Exact sum of x * y over two integer arrays from eval_array, whose
    entries are at most bound_x and bound_y in magnitude."""
    if x.dtype == np.int64 and y.dtype == np.int64:
        if (len(x) * bound_x * bound_y < _INT64_LIMIT
                or len(x) * int(np.abs(x).max()) * int(np.abs(y).max()) < _INT64_LIMIT):
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
