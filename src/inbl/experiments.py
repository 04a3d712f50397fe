"""Statistical experiments: zero-amplitude statistics, cross-correlation,
and the complexity-comparison report.

Every amplitude is a dyadic rational, and the one window evaluator,
`ConfigReader`, keeps each node as exact integers scaled by a static power
of two, so zero tests, run lengths and correlation sums are exact at every
size. It runs an (expression, scheme)'s cached program (see _Program) level
by level over switch configurations x a window of clocks, in passes of at
most PASS_BYTES; a configuration is a wire mask (see switchboard). Every
protocol reads the un-grounded signal, the collapse and the probes of a
whole window this way, one reader per scan; `eval_array` is the row of a
one-configuration reader with no wire grounded. The statistics fold each
pass's root row as it comes (ConfigReader.passes), carrying the open zero
run or the exact correlation sums on, so they hold one pass at any window.

A read is its sign rows, then the level routine: a read of one pass takes
them from the (program, system)'s sign stream (see _SignStream), which keeps
the last block of whole 64-clock words it drew; a wider one, and every
statistics pass, draws each pass in place, counting flips on from the last.
"""

from __future__ import annotations

import math
import weakref
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from operator import mul
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .expr import Expr, Ref, Sum, topological_order
from .reference import ReferenceSystem, RtwScheme, WireId

_INT64_LIMIT = 1 << 63
# bytes one ConfigReader pass holds, over every configuration: its row
# matrices and its largest gather; larger passes miss the cache and raise
# the peak memory of a scan
PASS_BYTES = 1 << 20


class _Program:
    """Everything a ConfigReader needs of one (expr, scheme), built once;
    never the nodes, so the cache entry does not keep its expression alive.

    Each node is held as integers scaled by a static exponent floor: a Ref's
    wire exponent, the minimum over a Sum's terms, the total over a
    Product's factors. bound is the root's static magnitude bound, and
    dtype, that of every read, is int64 when it fits in 63 bits, otherwise
    object (Python ints). Every bound is at least 1 and covers each partial
    sum and product of its node, so its terms may be combined in any order.
    Coefficients are nonzero, so no node's bound is below a child's.

    support is the bitmask (bit i for noise-bit i) of the bits every
    product-string of the expansion assigns, one wire each: a Ref's own bit,
    the disjoint union over a Product's factors, the one value all of a
    Sum's terms share. An overlap or a mismatch gives None.

    A read's rows sit in one matrix per dtype in use, whose row count
    matrices maps it to; the int8 matrix starts with one sign row per
    distinct wire in self.wires. levels holds, per level of one height, kind
    and arity (each reading only lower levels), (dtype, first row, end row,
    ufunc, arity, kids, weights): its nodes are rows [first, end) of the
    matrix of the narrowest exact dtype for their largest bound (int8,
    int16, int32, int64, then object). kids reads their children in
    arity-major order (child j of every node, j = 0..arity-1), one (dtype,
    rows, places) per matrix they sit in: rows is a slice if they are an
    arithmetic progression of rows, else an index array, and places (None
    if alone) puts them among the children. weights is the Sum weights
    shaped (arity, nodes, 1, 1), or None when all are 1. Rows are numbered
    in the order the lowest level reading them reads them, so the levels of
    U(N), a product-string and EVEN(N) read slices. root is the root's
    (dtype, row). column_bytes is one configuration-clock's bytes: all rows
    and the largest gather. tags holds each wire row's WireId.tag, the bit
    of a wire mask (see switchboard) that grounds it, and mask_bytes the
    bytes of a mask that hold the largest.
    """

    def __init__(self, expr: Expr, scheme: RtwScheme):
        # position: a node's index in info; the Refs of one wire share one
        position: Dict[int, int] = {}
        wire_at: Dict[int, WireId] = {}
        first_ref: Dict[int, int] = {}
        # per position: (exponent floor, bound, height, support)
        info: List[Tuple[int, int, int, Optional[int]]] = []
        # per Sum or Product position: its children's positions, a Sum's weights
        kids: Dict[int, List[int]] = {}
        weights: Dict[int, List[int]] = {}
        # (height, is a Product, arity) -> positions
        groups: Dict[Tuple[int, bool, int], List[int]] = {}
        exp2s = _EXP2S[scheme]
        # each node after its children, in topological_order's order
        for node in topological_order(expr):
            if isinstance(node, Ref):
                wire = node.wire
                i = first_ref.get(wire.tag)
                if i is None:
                    i = first_ref[wire.tag] = len(info)
                    wire_at[i] = wire
                    info.append((exp2s[wire.bit_value], 1, 0, 1 << wire.bit_index))
                position[id(node)] = i
                continue
            i = position[id(node)] = len(info)
            if isinstance(node, Sum):
                k = kids[i] = [position[id(term)] for _, term in node.terms]
                floors, bounds, heights, parts = zip(*map(info.__getitem__, k))
                f = min(floors)
                w = weights[i] = [c << (x - f) for (c, _), x in zip(node.terms, floors)]
                h = 1 + max(heights)
                info.append((f, sum(map(mul, map(abs, w), bounds)), h,
                             parts[0] if parts.count(parts[0]) == len(parts) else None))
                groups.setdefault((h, False, len(k)), []).append(i)
            else:
                k = kids[i] = [position[id(factor)] for factor in node.factors]
                floors, bounds, heights, parts = zip(*map(info.__getitem__, k))
                union = None if None in parts else sum(parts)
                disjoint = union is not None and union.bit_count() == sum(
                    map(int.bit_count, parts))
                h = 1 + max(heights)
                info.append((sum(floors), math.prod(bounds), h, union if disjoint else None))
                groups.setdefault((h, True, len(k)), []).append(i)
        self.exp2, self.bound, _, self.support = info[-1]
        self.dtype = np.int64 if self.bound < _INT64_LIMIT else object
        # the sign stream of self.wires per system, for as long as both live
        self.streams: "weakref.WeakKeyDictionary[ReferenceSystem, _SignStream]" = (
            weakref.WeakKeyDictionary())

        # top level down, order a level's nodes by their key, then key its
        # children by where it reads them; a lower level's keys are smaller
        # and overwrite a higher one's. Only the root has no key, and it is
        # alone in its level: every other node is below it.
        levels = sorted(groups.items())
        reader: Dict[int, int] = {}
        key = 0
        flats = []
        for _, targets in reversed(levels):
            if len(targets) > 1:
                targets.sort(key=reader.__getitem__)
            flat = (kids[targets[0]] if len(targets) == 1
                    else list(chain.from_iterable(zip(*map(kids.__getitem__, targets)))))
            flats.append(flat)
            key -= len(flat)
            reader.update(zip(flat, range(key, key + len(flat))))
        wires = sorted(wire_at, key=reader.get)
        self.wires: List[WireId] = list(map(wire_at.__getitem__, wires))
        self.tags = np.array([wire.tag for wire in self.wires], dtype=np.intp)
        self.mask_bytes = (int(self.tags.max()) >> 3) + 1

        # per position: its dtype's index in _DTYPES << 32 | its row; the
        # wires are the first rows of the int8 matrix
        at = dict(zip(wires, range(len(wires))))
        self.matrices: Dict[object, int] = {np.int8: len(wires)}
        self.levels: List[tuple] = []
        gather = 0
        for ((_, is_product, arity), targets), flat in zip(levels, reversed(flats)):
            dtype = _exact_dtype(max([info[i][1] for i in targets]))
            first = self.matrices.get(dtype, 0)
            end = self.matrices[dtype] = first + len(targets)
            base = _DTYPES.index(dtype) << 32
            at.update(zip(targets, range(base + first, base + end)))
            w = None
            if not is_product:
                table = list(zip(*map(weights.__getitem__, targets)))
                if set(chain.from_iterable(table)) != {1}:
                    w = np.array(table, dtype=dtype).reshape(arity, len(targets), 1, 1)
            reads = _reads(list(map(at.__getitem__, flat)))
            if w is not None or not isinstance(reads[0][1], slice):
                gather = max(gather, len(flat) * _ITEMSIZE[dtype])
            self.levels.append((dtype, first, end, np.multiply if is_product else np.add,
                                arity, reads, w))
        rank, row = divmod(at[position[id(expr)]], 1 << 32)
        self.root = (_DTYPES[rank], row)
        self.column_bytes = gather + sum([r * _ITEMSIZE[d] for d, r in self.matrices.items()])


def _reads(places: List[int]) -> tuple:
    """A level's kids (see _Program) from its children's places, index in
    _DTYPES << 32 | row, in arity-major order."""
    first, last = places[0], places[-1]
    rank, base = first >> 32, first >> 32 << 32
    step = places[1] - first if len(places) > 1 else 1
    if last >> 32 == rank and step > 0 and places == list(range(first, last + 1, step)):
        return ((_DTYPES[rank], slice(first - base, last - base + 1, step), None),)
    if min(places) >> 32 == max(places) >> 32:
        rows = [p - base for p in places] if base else places
        return ((_DTYPES[rank], np.array(rows, dtype=np.intp), None),)
    by_dtype: Dict[int, List[int]] = {}
    for k, place in enumerate(places):
        by_dtype.setdefault(place >> 32, []).append(k)
    return tuple((_DTYPES[d], np.array([places[k] - (d << 32) for k in ks], dtype=np.intp),
                  np.array(ks, dtype=np.intp)) for d, ks in sorted(by_dtype.items()))


# the exact dtypes from narrowest to widest
_DTYPES = [np.int8, np.int16, np.int32, np.int64, object]
_ITEMSIZE = {dtype: np.dtype(dtype).itemsize for dtype in _DTYPES}
_LIMITS = [(dtype, int(np.iinfo(dtype).max)) for dtype in _DTYPES[:-1]]
# per scheme: the wire exponents of bit values 0 and 1
_EXP2S = {scheme: (scheme.magnitude_exp2(0), scheme.magnitude_exp2(1)) for scheme in RtwScheme}


def _exact_dtype(bound: int):
    """The narrowest dtype that holds every integer of magnitude <= bound."""
    for dtype, top in _LIMITS:
        if bound <= top:
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


class _SignStream:
    """The sign rows of one program's wires on one system: their seed column
    (ReferenceSystem.seed_column) and the last block drawn, int8 signs of
    every wire over clocks [start, start + block width).

    A window inside the block is a view of it. Any other window takes its
    cover, from the 64-clock word that holds its first clock to the end of
    the word that holds its last, into a new block, where the following
    reads of a scan or of the next query, which move forward in simulated
    time, mostly find their clocks. A cover that starts inside the old block
    copies the words it holds and draws only the rest. At flip_prob != 1/2
    the draw counts flips from the old block's last clock at or before the
    first clock drawn, else from clock 0 (see origin). Every sign is a pure
    function of (wire, clock), so a window reads the same signs either way.
    ConfigReader asks only for one pass, so a block holds at most one pass
    of sign rows and the partial words at its ends, 126 clocks. The stream
    holds no reference to its program or system: the program keeps it in a
    weak-keyed table of systems, and ConfigReader passes the system in.
    """

    __slots__ = ("seeds", "start", "block")

    def __init__(self, program: _Program, system: ReferenceSystem):
        self.seeds = system.seed_column(program.wires)
        self.start = 0
        self.block = np.empty((len(self.seeds), 0), dtype=np.int8)

    def origin(self, t0: int) -> Optional[Tuple[int, np.ndarray]]:
        """Where a draw from clock t0 counts flips from (the start of
        ReferenceSystem.draw_sign_rows): the block's last clock at or before
        t0 and the sign bits there, or None (clock 0) if it holds none."""
        k = min(t0 - self.start, self.block.shape[1] - 1)
        return (self.start + k, self.block[:, k] > 0) if k >= 0 else None

    def window(self, system: ReferenceSystem, t0: int, clocks: int) -> np.ndarray:
        """The sign rows over clocks [t0, t0 + clocks), a view of the block."""
        k = t0 - self.start
        if k < 0 or k + clocks > self.block.shape[1]:
            if t0 < 0:
                raise ValueError(f"clock must be >= 0, got {t0}")
            start = t0 & -64
            block = np.empty((len(self.seeds), ((t0 + clocks + 63) & -64) - start), dtype=np.int8)
            # the words the old block holds from start on are copied, not drawn
            held = self.block[:, start - self.start :] if k >= 0 else block[:, :0]
            block[:, : held.shape[1]] = held
            rest = start + held.shape[1]
            system.draw_sign_rows(block[:, held.shape[1] :], self.seeds, rest, self.origin(rest))
            self.block, self.start, k = block, start, t0 - start
        return self.block[:, k : k + clocks]


def _stream(program: _Program, system: ReferenceSystem) -> _SignStream:
    """The program's sign stream on system, made on first use."""
    stream = program.streams.get(system)
    if stream is None:
        stream = program.streams[system] = _SignStream(program, system)
    return stream


def eval_array(
    expr: Expr,
    system: ReferenceSystem,
    t_start: int,
    clocks: int,
) -> Tuple[np.ndarray, int]:
    """Exact signal values over clocks [t_start, t_start + clocks): row 0 of
    a one-configuration ConfigReader read, with no wire grounded.

    Returns (ints, exp2): the value at clock t_start + k is ints[k] * 2**exp2.
    ints is int64 or object by the program's static bound (see _Program).
    """
    ints, exp2 = ConfigReader(expr, system, [0]).read(t_start, clocks)
    return ints[0], exp2


class ConfigReader:
    """One expression's reads of fixed switch configurations on one system,
    prepared once for a scan that reads window after window.

    grounded[r] is the wire mask of configuration r (see switchboard): bit
    WireId.tag set for every grounded wire. Preparing resolves the cached
    program, its sign stream on the system, the wires' alive factors, 0 for
    a wire that a configuration grounds and 1 for any other, and the span of
    clocks one pass takes: PASS_BYTES over column_bytes per configuration.
    The alive factors are the complements of the masks' low mask_bytes,
    unpacked to bits in one call and gathered at the wires' tags, so they
    take time and memory linear in wires x configurations; a reader of one
    configuration that grounds no tag in those bytes reads its signs as
    drawn. A read of one pass takes its sign rows from the stream's block;
    passes, which wider reads and the statistics use, draws them in place;
    both run them through run, the one level routine. run takes
    any int8 wires x columns sign matrix (clocks or sign states), times each
    configuration's alive factors, into one matrix of rows x configurations
    x columns per dtype of the program, and reduces each level's children, a
    view or one np.take per matrix they sit in, into its rows.
    """

    __slots__ = ("program", "system", "stream", "configs", "alive", "span")

    def __init__(self, expr: Expr, system: ReferenceSystem, grounded: Sequence[int]):
        program = self.program = _program(expr, system.scheme)
        self.system = system
        self.stream = _stream(program, system)
        configs = self.configs = len(grounded)
        # alive[k, r, 0] is 0 where configuration r grounds wire row k, else 1
        self.alive = None
        size = program.mask_bytes
        low = (1 << (size << 3)) - 1
        if configs > 1 or configs and grounded[0] & low:
            live = b"".join([(~mask & low).to_bytes(size, "little") for mask in grounded])
            bits = np.unpackbits(np.frombuffer(live, np.uint8), bitorder="little").view(np.int8)
            self.alive = np.take(bits.reshape(configs, -1), program.tags, axis=1).T[:, :, None]
        self.span = max(1, PASS_BYTES // (program.column_bytes * max(configs, 1)))

    def read(self, t0: int, clocks: int) -> Tuple[np.ndarray, int]:
        """Exact values over clocks [t0, t0 + clocks), one row per
        configuration: configuration r reads ints[r, k] * 2**exp2 at clock
        t0 + k, ints being int64 or object by the program's static bound."""
        ints = np.empty((self.configs, clocks), dtype=self.program.dtype)
        if 0 < clocks <= self.span:  # one pass, from the stream's block
            ints[:] = self.run(self.matrices(clocks), self.stream.window(self.system, t0, clocks))
        else:
            for lo, row in zip(range(0, clocks, self.span), self.passes(t0, clocks)):
                ints[:, lo : lo + row.shape[1]] = row
        return ints, self.program.exp2

    def passes(self, t0: int, clocks: int, width: int = 0):
        """Each configuration's root row (see run) over clocks [t0, t0 +
        clocks) in passes of width clocks (default span), the last shorter,
        each a view that the next overwrites. A pass draws its signs in place,
        into configuration 0's rows, counting flips on from the pass before."""
        seeds, width = self.stream.seeds, max(1, min(width or self.span, clocks))
        full, start = self.matrices(width), self.stream.origin(t0)
        for lo in range(t0, t0 + clocks, width):
            n = min(width, t0 + clocks - lo)
            # a short final pass uses the contiguous front of each matrix: a
            # reduce into a strided [:, :, :n] view takes numpy's slow path
            mats = full if n == width else {
                d: m.reshape(-1)[: len(m) * self.configs * n].reshape(len(m), self.configs, n)
                for d, m in full.items()}
            signs = mats[np.int8][: len(seeds), 0]
            self.system.draw_sign_rows(signs, seeds, lo, start)
            start = (lo + n - 1, signs[:, n - 1] > 0)
            yield self.run(mats, signs)

    def matrices(self, columns: int) -> Dict[object, np.ndarray]:
        """Empty row matrices for run: rows x configurations x columns per dtype."""
        return {dtype: np.empty((rows, self.configs, columns), dtype=dtype)
                for dtype, rows in self.program.matrices.items()}

    def run(self, mats: Dict[object, np.ndarray], signs: np.ndarray) -> np.ndarray:
        """Each configuration's root row, a view of mats = matrices(columns),
        over the columns of signs: the program's wire signs (int8, wires x
        columns) at clocks or any sign states, times its alive factors."""
        program, configs, n = self.program, self.configs, signs.shape[1]
        if self.alive is None:
            mats[np.int8][: len(signs), 0] = signs
        else:
            np.multiply(signs[:, None], self.alive, out=mats[np.int8][: len(signs)])
        # a child's matrix may be wider than its reader's dtype, by a
        # sibling's bound; its values still fit, so every cast is unsafe
        for dtype, first, end, ufunc, arity, reads, weights in program.levels:
            if len(reads) == 1:
                src, rows, _ = reads[0]
                kids = (mats[src][rows] if isinstance(rows, slice)
                        else np.take(mats[src], rows, axis=0))
            else:
                kids = np.empty((arity * (end - first), configs, n), dtype=dtype)
                for src, rows, places in reads:
                    kids[places] = np.take(mats[src], rows, axis=0)
            kids = kids.reshape(arity, end - first, configs, n)
            if weights is not None:
                kids = np.multiply(kids, weights, dtype=dtype, casting="unsafe")
            # one binary call skips the copy of kids[0] that reduce makes
            if arity == 2:
                ufunc(kids[0], kids[1], out=mats[dtype][first:end], dtype=dtype,
                      casting="unsafe")
            else:
                ufunc.reduce(kids, axis=0, out=mats[dtype][first:end])
        return mats[program.root[0]][program.root[1]]


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
    """Fraction of zero-amplitude clocks and histogram of zero run lengths,
    folded pass by pass: a run still open at a pass's end is carried on."""
    if clocks < 1:
        raise ValueError(f"clocks must be >= 1, got {clocks}")
    reader = ConfigReader(expr, system, [0])
    # run edges take up to 8 bytes a clock: passes of at most PASS_BYTES / 16
    # clocks keep them in cache, where wider ones were page-faulted afresh
    width = min(reader.span, PASS_BYTES >> 4, clocks)
    # zero[0] is the clock before the pass; the mask changes value where a
    # zero run starts or ends, alternately
    zero, change = np.zeros(width + 1, dtype=bool), np.empty(width, dtype=bool)
    counts = np.zeros(0, dtype=np.intp)  # runs within a pass, by length
    histogram: Counter = Counter()  # runs through a pass's end, then all
    start = None  # the open run's first clock, from t_start
    for lo, (row,) in zip(range(0, clocks, width), reader.passes(t_start, clocks, width)):
        n = len(row)
        np.equal(row, 0, out=zero[1 : n + 1])
        edges = np.flatnonzero(np.not_equal(zero[1 : n + 1], zero[:n], out=change[:n]))
        zero[0] = zero[n]
        if start is not None and len(edges):  # the open run ends
            histogram[lo + int(edges[0]) - start] += 1
            start, edges = None, edges[1:]
        if len(edges) % 2:  # the last run stays open
            start, edges = lo + int(edges[-1]), edges[:-1]
        if len(edges):
            more = np.bincount(edges[1::2] - edges[::2], minlength=len(counts))
            more[: len(counts)] += counts
            counts = more
    if start is not None:
        histogram[clocks - start] += 1
    lengths = np.flatnonzero(counts)
    histogram.update(dict(zip(lengths.tolist(), counts[lengths].tolist())))
    zero_clocks = sum([k * c for k, c in histogram.items()])
    return ZeroStats(clocks, zero_clocks, zero_clocks / clocks, dict(sorted(histogram.items())))


def run_crosscorr(
    expr_a: Expr,
    expr_b: Expr,
    system: ReferenceSystem,
    clocks: int,
    t_start: int = 0,
) -> float:
    """Empirical cross-correlation (1/T) sum a*b, normalized by the signals'
    root-mean-square amplitudes. Signals equal over the window give exactly 1.0.
    The exact sums are folded over both signals' passes in lockstep."""
    if clocks < 1:
        raise ValueError(f"clocks must be >= 1, got {clocks}")
    ra, rb = ConfigReader(expr_a, system, [0]), ConfigReader(expr_b, system, [0])
    p, q, width = ra.program, rb.program, min(ra.span, rb.span)
    aa = bb = ab = 0
    equal = p.exp2 == q.exp2
    for (a,), (b,) in zip(ra.passes(t_start, clocks, width), rb.passes(t_start, clocks, width)):
        aa += _dot(a, a, p.bound, p.bound)
        bb += _dot(b, b, q.bound, q.bound)
        ab += _dot(a, b, p.bound, q.bound)
        equal = equal and np.array_equal(a, b)
    # the 2**exp2 scales cancel in the normalized ratio, and so do 4**ka and
    # 4**kb, each nonzero only where that sum's quotient by clocks alone
    # would pass the float range: a power of two keeps the float steps exact
    ka, kb = (max(0, s.bit_length() - clocks.bit_length() - 999) >> 1 for s in (aa, bb))
    norm_a = math.sqrt(aa / (clocks << 2 * ka))
    norm_b = math.sqrt(bb / (clocks << 2 * kb))
    if norm_a == 0.0 or norm_b == 0.0:
        raise ValueError("cross-correlation of a zero-variance signal")
    if equal:
        return 1.0
    return (ab / (clocks << (ka + kb))) / (norm_a * norm_b)


def _dot(x: np.ndarray, y: np.ndarray, bound_x: int, bound_y: int) -> int:
    """Exact sum of x * y over two integer rows, whose entries are at most
    bound_x and bound_y in magnitude. A row narrower than int64 is summed
    without a copy, in int32 where every partial sum fits, which is twice
    as fast, else in int64."""
    if x.dtype != object and y.dtype != object:
        limit = len(x) * bound_x * bound_y
        if (limit < _INT64_LIMIT
                or len(x) * int(np.abs(x).max()) * int(np.abs(y).max()) < _INT64_LIMIT):
            wide = np.int32 if limit < 1 << 31 else np.int64
            return int(np.einsum("i,i", x, y, dtype=wide, casting="unsafe"))
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
