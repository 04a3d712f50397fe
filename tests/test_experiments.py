import gc
import math
import random
import tracemalloc
import weakref
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from inbl import experiments
from inbl.experiments import (
    ConfigReader,
    eval_array,
    run_crosscorr,
    run_zero_stats,
    speedup_report,
)
from inbl.dsl import format_dsl
from inbl.dyadic import Dyadic
from inbl.expr import (
    Pattern,
    Product,
    Ref,
    Sum,
    build_even,
    build_odd,
    build_product_string,
    build_universe,
    evaluate,
    iter_wires,
    ref,
    topological_order,
)
from inbl.oracle import expand
from inbl.phonebook import PhonebookSpec, build_phonebook, lookup
from inbl.reference import ReferenceSystem, RtwScheme, WireId
from inbl.switchboard import SwitchState, ground_inverse

from conftest import dags, random_canonical_expr, sum_of_strings, wire_mask
from scalar_model import eval_at_sign_state, sign_states


def test_eval_array_matches_scalar_evaluator():
    rng = random.Random(0)
    for trial in range(30):
        m = rng.randint(1, 6)
        system = ReferenceSystem(
            m,
            rng.choice([RtwScheme.ASYMMETRIC, RtwScheme.SYMMETRIC]),
            master_seed=trial,
        )
        expr = random_canonical_expr(rng, m)
        ints, exp2 = eval_array(expr, system, 5, 40)
        for k, t in enumerate(range(5, 45)):
            assert Dyadic(int(ints[k]), exp2) == evaluate(expr, system, t)


def test_eval_array_exact_where_float64_cancels():
    # 2^60 + 1 - 2^60 is 0.0 in float64; the exact value is the R1_0 sign
    system = ReferenceSystem(2, RtwScheme.SYMMETRIC, master_seed=12)
    big = Product((ref(1, 1), ref(2, 1)))
    e = Sum(((2**60, big), (1, ref(1, 0)), (-(2**60), big)))
    ints, exp2 = eval_array(e, system, 0, 5000)
    assert ints.dtype == np.int64 and exp2 == 0
    assert list(ints) == [system.wire_sign(WireId(1, 0), t) for t in range(5000)]
    assert run_zero_stats(e, system, 5000).zero_fraction == 0.0


def test_eval_array_all_low_product_does_not_underflow():
    # 2^-1100 is below the smallest float64 subnormal
    m = 1100
    system = ReferenceSystem(m, RtwScheme.ASYMMETRIC, master_seed=13)
    low = build_product_string(Pattern.from_string("0" * m), m)
    ints, exp2 = eval_array(low, system, 0, 300)
    assert exp2 == -m
    assert set(np.abs(ints).tolist()) == {1}
    for t in (0, 1, 299):
        assert Dyadic(int(ints[t]), exp2) == evaluate(low, system, t)


def test_eval_array_wide_sum_takes_the_object_path():
    system = ReferenceSystem(2, RtwScheme.ASYMMETRIC, master_seed=14)
    e = Sum(((2**70, Product((ref(1, 1), ref(2, 1)))), (-3, ref(1, 0)), (1, ref(2, 0))))
    ints, exp2 = eval_array(e, system, 7, 200)
    assert ints.dtype == object
    for k, t in enumerate(range(7, 207)):
        assert Dyadic(int(ints[k]), exp2) == evaluate(e, system, t)


def test_eval_array_deep_chain_without_recursion():
    # 5,000 nested nodes built in code; each level is a Sum or a Product
    depth = 5000
    system = ReferenceSystem(2, RtwScheme.SYMMETRIC, master_seed=15)
    flat, doubling = ref(1, 1), ref(1, 1)
    for level in range(depth):
        if level % 2:
            flat = Product((flat, ref(2, 1)))
            doubling = Product((doubling,))
        else:
            flat = Sum(((1, flat),))
            doubling = Sum(((2, doubling),))
    s11 = np.array([system.wire_sign(WireId(1, 1), t) for t in range(100)])
    s21 = np.array([system.wire_sign(WireId(2, 1), t) for t in range(100)])
    ints, exp2 = eval_array(flat, system, 0, 100)
    # depth / 2 factors of R2_1 multiply R1_1
    assert ints.dtype == np.int64 and exp2 == 0
    assert np.array_equal(ints, s11 * s21 ** (depth // 2))
    ints, exp2 = eval_array(doubling, system, 0, 100)
    assert ints.dtype == object
    assert [Dyadic(int(v), exp2) for v in ints] == [Dyadic(int(s) << (depth // 2)) for s in s11]



# the exact dtypes from narrowest to widest
_WIDTHS = [np.int8, np.int16, np.int32, np.int64, object]


@pytest.mark.parametrize("high,low,dtype", [
    (64, 63, np.int8),
    (64, 64, np.int16),
    (2**14, 2**14 - 1, np.int16),
    (2**14, 2**14, np.int32),
    (2**30, 2**30 - 1, np.int32),
    (2**30, 2**30, np.int64),
    (2**62, 2**62 - 1, np.int64),
    (2**62, 2**62, object),
])
def test_eval_array_node_dtype_at_each_edge(high, low, dtype):
    # the root reaches +/-(high + low) whenever R1_1 and R2_1 agree
    system = ReferenceSystem(2, RtwScheme.SYMMETRIC, master_seed=20)
    e = Sum(((high, ref(1, 1)), (low, ref(2, 1))))
    program = experiments._program(e, system.scheme)
    assert program.levels[-1][0] is dtype and program.root[0] is dtype
    ints, exp2 = eval_array(e, system, 50, 300)
    assert ints.dtype == (object if dtype is object else np.int64)
    assert {-(high + low), high + low} <= set(ints.tolist())
    for k, t in enumerate(range(50, 350)):
        assert Dyadic(int(ints[k]), exp2) == evaluate(e, system, t)


def _level_children(level):
    """A level's children as (source, row), in arity-major order."""
    _, first, end, _, arity, kids, _ = level
    children = [None] * (arity * (end - first))
    for source, rows, places in kids:
        rows = range(rows.start, rows.stop, rows.step) if isinstance(rows, slice) else rows.tolist()
        for k, row in zip(range(len(children)) if places is None else places.tolist(), rows):
            children[k] = (source, row)
    return children


def _pass_edges(reader, clocks):
    """The first and last clock offset of every pass of a read of clocks."""
    width = min(reader.span, clocks)
    return sorted({k for lo in range(0, clocks, width) for k in (lo, min(lo + width, clocks) - 1)})


@settings(max_examples=100, deadline=None)
@given(
    dag=dags(),
    scheme=st.sampled_from(RtwScheme),
    seed=st.integers(0, 2**32),
    t=st.integers(0, 200),
    clocks=st.integers(65, 200),
)
def test_eval_array_node_dtypes_hold_their_bounds(dag, scheme, seed, t, clocks):
    # 65 clocks or more always cross a 64-clock word
    m, expr, _ = dag
    system = ReferenceSystem(m, scheme, master_seed=seed)
    ints, exp2 = eval_array(expr, system, t, clocks)
    row, row_exp2 = ConfigReader(expr, system, [wire_mask(frozenset())]).read(t, clocks)
    assert exp2 == row_exp2 and np.array_equal(ints, row[0])
    for k in _pass_edges(experiments.ConfigReader(expr, system, [wire_mask(frozenset())]), clocks):
        assert Dyadic(int(ints[k]), exp2) == evaluate(expr, system, t + k)
    program = experiments._program(expr, scheme)
    bounds = {(np.int8, r): 1 for r in range(len(program.wires))}
    for level in program.levels:
        dtype, first, end, ufunc, arity, _, weights = level
        children, nodes = _level_children(level), end - first
        rank = _WIDTHS.index(dtype)
        for i in range(nodes):
            kids = children[i::nodes]
            if ufunc is np.add:
                w = [1] * arity if weights is None else weights[:, i].ravel().tolist()
                bound = sum(abs(c) * bounds[kid] for c, kid in zip(w, kids))
            else:
                bound = math.prod(bounds[kid] for kid in kids)
            bounds[dtype, first + i] = bound
            # every child's values, cast into the level's dtype, are exact
            assert all(rank >= _narrowest(bounds[kid]) for kid in kids)
        # the narrowest dtype that holds the level's largest bound
        assert rank == _narrowest(max(bounds[dtype, r] for r in range(first, end)))
    assert bounds[program.root] == program.bound


def _narrowest(bound):
    fits = [w is object or bound <= np.iinfo(w).max for w in _WIDTHS]
    return fits.index(True)


def test_zero_stats_asymmetric_universe_never_zero():
    system = ReferenceSystem(4, RtwScheme.ASYMMETRIC, master_seed=1)
    stats = run_zero_stats(build_universe(4), system, 100_000)
    assert stats.zero_fraction == 0.0
    assert stats.waiting_time_histogram == {}


@pytest.mark.parametrize("m,expected", [(1, 0.5), (4, 1 - 2**-4)])
def test_zero_stats_symmetric_universe_fraction(m, expected):
    T = 1_000_000
    system = ReferenceSystem(m, RtwScheme.SYMMETRIC, master_seed=2)
    stats = run_zero_stats(build_universe(m), system, T)
    sigma = math.sqrt(expected * (1 - expected) / T)
    assert abs(stats.zero_fraction - expected) <= 3 * sigma


def test_zero_stats_histogram_geometric_slope():
    system = ReferenceSystem(1, RtwScheme.SYMMETRIC, master_seed=3)
    stats = run_zero_stats(build_universe(1), system, 1_000_000)
    slope = stats.histogram_slope()
    assert slope is not None
    assert abs(slope - (-math.log(2))) <= 0.1 * math.log(2)


def test_zero_stats_histogram_counts():
    system = ReferenceSystem(1, RtwScheme.SYMMETRIC, master_seed=4)
    stats = run_zero_stats(build_universe(1), system, 50_000)
    assert sum(k * c for k, c in stats.waiting_time_histogram.items()) == stats.zero_clocks


def test_crosscorr_self_is_one():
    system = ReferenceSystem(4, master_seed=5)
    e = build_product_string(Pattern.from_string("1010"), 4)
    assert run_crosscorr(e, e, system, 10_000) == 1.0
    # two equal chains built apart, deeper than a recursive == can compare
    chains = []
    for _ in range(2):
        chain = e
        for _ in range(3000):
            chain = Sum(((1, chain),))
        chains.append(chain)
    assert chains[0] is not chains[1]
    assert run_crosscorr(*chains, system, 10_000) == 1.0



def test_crosscorr_loose_bound_small_values_matches_python_ints():
    # the 2**40 terms cancel: the static bound is loose, but every value is +/-1
    T = 2**20
    system = ReferenceSystem(8, master_seed=21)
    x = Product((ref(1, 1), ref(2, 1)))
    a = Sum(((2**40, x), (-(2**40), x), (1, ref(1, 0))))
    b = build_product_string(Pattern.from_string("01101001"), 8)
    assert T * experiments._program(a, system.scheme).bound ** 2 >= 2**63
    sa = system.sign_array(WireId(1, 0), 0, T).tolist()
    sb = [1] * T
    for i, bit in enumerate("01101001", start=1):
        sb = [s * v for s, v in zip(sb, system.sign_array(WireId(i, int(bit)), 0, T).tolist())]
    def dot(x, y):
        return sum(u * v for u, v in zip(x, y))

    expected = (dot(sa, sb) / T) / (math.sqrt(dot(sa, sa) / T) * math.sqrt(dot(sb, sb) / T))
    assert run_crosscorr(a, b, system, T) == expected



def test_crosscorr_one_past_int64_is_exact():
    # T * c**2 is 2**63: a . a is one past the int64 range, so neither the
    # static bound nor the measured maxima may admit np.dot on int64
    T = c = 2**21
    system = ReferenceSystem(2, RtwScheme.SYMMETRIC, master_seed=22)
    a = Sum(((c, ref(1, 1)),))
    b = Sum(((c, ref(1, 1)), (1, ref(2, 0))))
    s1, s2 = system.sign_rows([WireId(1, 1), WireId(2, 0)], 0, T).astype(np.int64)
    agree = int(np.dot(s1, s2))
    dot_aa, dot_bb, dot_ab = T * c * c, T * c * c + T + 2 * c * agree, T * c * c + c * agree
    assert dot_aa == 2**63
    expected = (dot_ab / T) / (math.sqrt(dot_aa / T) * math.sqrt(dot_bb / T))
    assert run_crosscorr(a, b, system, T) == expected


def test_crosscorr_distinct_strings_bounded():
    T = 100_000
    rng = random.Random(6)
    system = ReferenceSystem(6, master_seed=6)
    for _ in range(5):
        a, b = rng.sample(range(64), 2)
        ea = build_product_string(Pattern.from_string(format(a, "06b")), 6)
        eb = build_product_string(Pattern.from_string(format(b, "06b")), 6)
        assert abs(run_crosscorr(ea, eb, system, T)) <= 5 / math.sqrt(T)


def test_crosscorr_string_vs_containing_universe_positive():
    system = ReferenceSystem(3, master_seed=7)
    e = build_product_string(Pattern.from_string("101"), 3)
    estimate = run_crosscorr(e, build_universe(3), system, 100_000)
    assert estimate > 0  # reported, no certified bound


def test_crosscorr_zero_variance_rejected():
    from inbl.expr import Sum

    system = ReferenceSystem(2, master_seed=8)
    p = build_product_string(Pattern.from_string("10"), 2)
    dead = Sum(((1, p), (-1, p)))
    with pytest.raises(ValueError):
        run_crosscorr(dead, p, system, 10_000)


def test_speedup_report_values():
    report = speedup_report(4, 8, 8)
    assert report["classical_ratio"] == "4"
    assert report["classical_ratio_value"] == 4.0
    assert report["grover_ratio_value"] == 16 / 8
    assert report["photon_bound"] == 64
    assert report["phonebook_forward_ops"] == 24
    assert report["phonebook_inverse_ops"] == 24
    report = speedup_report(10)
    assert report["classical_ratio"] == str(Fraction(1024, 10))
    assert report["photon_bound"] == 10 * 1024


def test_speedup_report_takes_both_phonebook_widths_or_neither():
    both = speedup_report(4, 3, 5)
    assert (both["phonebook_forward_ops"], both["phonebook_inverse_ops"]) == (13, 11)
    assert "phonebook_forward_ops" not in speedup_report(4)
    for name_bits, number_bits in ((3, None), (None, 5), (0, None)):
        with pytest.raises(ValueError, match="both name_bits and number_bits or neither"):
            speedup_report(4, name_bits, number_bits)
    for name_bits, number_bits in ((0, 5), (3, 0), (-1, 5)):
        with pytest.raises(ValueError, match=">= 1"):
            speedup_report(4, name_bits, number_bits)


def test_flip_prob_affects_dwell_times():
    # sticky signs: long zero runs of the symmetric 1-bit universe get longer
    fair = ReferenceSystem(1, RtwScheme.SYMMETRIC, master_seed=9)
    sticky = ReferenceSystem(1, RtwScheme.SYMMETRIC, master_seed=9, flip_prob=Fraction(1, 8))
    u = build_universe(1)
    runs_fair = run_zero_stats(u, fair, 200_000).waiting_time_histogram
    runs_sticky = run_zero_stats(u, sticky, 200_000).waiting_time_histogram
    mean = lambda h: sum(k * c for k, c in h.items()) / max(1, sum(h.values()))
    assert mean(runs_sticky) > mean(runs_fair)


def test_evaluators_release_their_memo_on_return():
    # with the cycle collector off, only reference counting frees memory: a
    # memo left in a reference cycle would stay allocated after the call.
    # One warm-up call of each runs before the baseline, so that seeds are
    # cached and the interpreter's free lists are filled.
    m, clocks = 4, 2**16
    u = build_universe(m)
    u10 = build_universe(10)
    system = ReferenceSystem(m, master_seed=1)
    names = [format(x, "04b") for x in range(16)]
    book = build_phonebook(PhonebookSpec(4, 4, tuple(zip(names, reversed(names)))))
    book_system = ReferenceSystem(8, master_seed=2)
    gc.collect()
    gc.disable()
    tracemalloc.start()
    try:
        eval_array(u, system, 0, 8)
        evaluate(u, system, 0)
        expand(u, m)
        format_dsl(u10)
        lookup(book, book_system, names[0])
        baseline = tracemalloc.get_traced_memory()[0]
        ints, _ = eval_array(u, system, 0, clocks)
        assert ints.nbytes == 8 * clocks
        del ints
        for t in range(1000):
            evaluate(u, system, t)
        for _ in range(1000):
            expand(u, m)
        for _ in range(50):
            format_dsl(u10)
        for t in range(100):
            lookup(book, book_system, names[t % 16], t_start=t)
        held = tracemalloc.get_traced_memory()[0] - baseline
    finally:
        tracemalloc.stop()
        gc.enable()
    assert held < 64 * 1024, held


@settings(max_examples=200, deadline=None)
@given(
    dag=dags(),
    scheme=st.sampled_from(RtwScheme),
    seed=st.integers(0, 2**32),
    t=st.integers(0, 500),
    clocks=st.integers(1, 5),
    data=st.data(),
)
def test_eval_configs_matches_scalar_evaluator(dag, scheme, seed, t, clocks, data):
    m, expr, wide = dag
    wires = [WireId(i, v) for i in range(1, m + 1) for v in (0, 1)]
    configs = data.draw(st.lists(st.frozensets(st.sampled_from(wires)), min_size=1, max_size=6))
    system = ReferenceSystem(m, scheme, master_seed=seed)
    ints, exp2 = ConfigReader(expr, system, list(map(wire_mask, configs))).read(t, clocks)
    assert ints.shape == (len(configs), clocks)
    if wide:
        assert ints.dtype == object
    for r, grounded in enumerate(map(wire_mask, configs)):
        for k in range(clocks):
            assert Dyadic(int(ints[r, k]), exp2) == evaluate(expr, system, t + k, grounded)


@st.composite
def _reader_shapes(draw):
    """(num_bits, expr) for the reader's mask tests: a random DAG, a
    product-string (a root whose factors are all wires) of up to 70 bits,
    whose tags cross a byte and a 64-bit word, or a sum whose height-2
    Product level holds a product of wires beside a product over a sum."""
    kind = draw(st.sampled_from(["dag", "string", "mixed"]))
    if kind == "dag":
        m, expr, _ = draw(dags())
        return m, expr
    m = draw(st.integers(1, 70)) if kind == "string" else 3
    bits = [draw(st.integers(0, 1)) for _ in range(m)]
    if kind == "string":
        return m, build_product_string(Pattern.from_string("".join(map(str, bits))), m)
    pure = Product((Product((ref(1, bits[0]), ref(2, bits[1]))), ref(3, bits[2])))
    impure = Product((Sum(((1, ref(1, 1 - bits[0])), (3, ref(2, bits[1])))), ref(3, 1)))
    return m, Sum(((1, pure), (-2, impure)))


@settings(max_examples=300, deadline=None)
@given(
    shape=_reader_shapes(),
    scheme=st.sampled_from(RtwScheme),
    flip=st.sampled_from([Fraction(1, 2), Fraction(1, 100)]),
    seed=st.integers(0, 2**32),
    t=st.integers(0, 300),
    clocks=st.integers(1, 24),
    span=st.sampled_from([1, 3, 8, None]),
    data=st.data(),
)
def test_reader_masks_match_scalar_evaluator(shape, scheme, flip, seed, t, clocks, span, data):
    # configuration 0 may ground wires; a mask may ground wires outside the
    # expression or far past the system's, and a lone configuration may
    # ground only wires outside the expression
    m, expr = shape
    inside = wire_mask(iter_wires(expr))
    any_tag = st.integers(2, 2 * m + 200)
    if data.draw(st.booleans()):
        outside = any_tag.filter(lambda x: not inside >> x & 1)
        groundings = [data.draw(st.frozensets(outside, max_size=2 * m + 2))]
    else:
        tags = st.frozensets(any_tag, max_size=2 * m + 2)
        groundings = data.draw(st.lists(tags, min_size=1, max_size=20))
    masks = [sum(1 << tag for tag in grounded) for grounded in groundings]
    system = ReferenceSystem(m, scheme, master_seed=seed, flip_prob=flip)
    pass_bytes = experiments.PASS_BYTES
    if span is not None:  # windows of several passes
        column_bytes = experiments._program(expr, scheme).column_bytes
        experiments.PASS_BYTES = column_bytes * len(masks) * span
    try:
        reader = ConfigReader(expr, system, masks)
        assert span is None or reader.span == span
        ints, exp2 = reader.read(t, clocks)
    finally:
        experiments.PASS_BYTES = pass_bytes
    assert ints.shape == (len(masks), clocks)
    for r, grounded in enumerate(groundings):
        switches = SwitchState()
        for tag in grounded:
            switches.ground(WireId(tag >> 1, tag & 1))
        assert switches.mask == masks[r]
        for k in range(clocks):
            assert Dyadic(int(ints[r, k]), exp2) == evaluate(expr, system, t + k, masks[r])
    if len(masks) == 1 and not masks[0] & inside:  # it reads as un-grounded
        assert np.array_equal(ints[0], eval_array(expr, system, t, clocks)[0])


@st.composite
def _small_exprs(draw):
    """(num_bits, expr) over at most 4 noise-bits: a random DAG, or a random
    canonical expression, which more often reads 5 to 8 wires."""
    if draw(st.booleans()):
        m, expr, _ = draw(dags())
        return m, expr
    m = draw(st.integers(1, 4))
    return m, random_canonical_expr(random.Random(draw(st.integers(0, 2**32))), m)


@settings(max_examples=150, deadline=None)
@given(
    shape=_small_exprs(),
    scheme=st.sampled_from(RtwScheme),
    masks=st.lists(st.frozensets(st.integers(2, 9)).map(lambda tags: sum(1 << t for t in tags)),
                   min_size=1, max_size=4),
)
def test_run_over_every_sign_state_matches_the_oracle(shape, scheme, masks):
    # the level routine reads any sign matrix: over all 2**W sign states of
    # the program's W wires (at most 8), every configuration's root row is
    # the expansion's value at each state
    m, expr = shape
    expansion = expand(expr, m)
    if expansion.noncanonical:  # no evaluation identity is claimed
        return
    reader = ConfigReader(expr, ReferenceSystem(m, scheme), masks)
    wires = reader.program.wires
    signs = sign_states(len(wires))
    rows = reader.run(reader.matrices(signs.shape[1]), signs)
    assert rows.shape == (len(masks), 1 << len(wires))
    for s, column in enumerate(signs.T.tolist()):
        state = dict(zip(wires, column))
        for r, mask in enumerate(masks):
            assert Dyadic(int(rows[r, s]), reader.program.exp2) == eval_at_sign_state(
                expansion, scheme, state, mask)


def test_reader_alive_factors_take_memory_linear_in_wires():
    # an 8,192-bit product-string under two configurations: preparing the
    # reader allocates a few bytes per wire and configuration, not a word
    # per wire for every 64 tags of the masks
    m, configs = 8192, 2
    pattern = Pattern.from_string("01" * (m // 2))
    expr = build_product_string(pattern, m)
    wires = list(iter_wires(expr))
    masks = [ground_inverse(pattern, m).mask, wire_mask(wires[::3])]
    system = ReferenceSystem(m, master_seed=4)
    ConfigReader(expr, system, [0])  # the program and its sign stream
    tracemalloc.start()
    try:
        reader = ConfigReader(expr, system, masks)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 64 * m * configs, peak
    expected = [[0 if mask >> wire.tag & 1 else 1 for mask in masks]
                for wire in reader.program.wires]
    assert reader.alive.shape == (m, configs, 1)
    assert reader.alive[:, :, 0].tolist() == expected


def test_eval_configs_window_in_spans_matches_eval_array():
    # 256 full 8-bit strings: the product level gathers 2,048 children, so a
    # window of 300 clocks over 3 configurations is taken in several passes
    m = 8
    expr = sum_of_strings([format(x, "08b") for x in range(256)], m)
    system = ReferenceSystem(m, RtwScheme.ASYMMETRIC, master_seed=18, flip_prob=Fraction(1, 4))
    configs = [frozenset(), frozenset({WireId(1, 0)}), frozenset({WireId(2, 1), WireId(5, 0)})]
    reader = experiments.ConfigReader(expr, system, list(map(wire_mask, configs)))
    assert reader.span < 300
    ints, exp2 = ConfigReader(expr, system, list(map(wire_mask, configs))).read(1000, 300)
    row, row_exp2 = eval_array(expr, system, 1000, 300)
    assert row_exp2 == exp2 and np.array_equal(ints[0], row)
    for k in _pass_edges(reader, 300):
        assert Dyadic(int(ints[0, k]), exp2) == evaluate(expr, system, 1000 + k)
    for r, grounded in enumerate(map(wire_mask, configs[1:]), start=1):
        for k in range(300):
            assert Dyadic(int(ints[r, k]), exp2) == evaluate(expr, system, 1000 + k, grounded)
    # the asymmetric universe never cancels; grounding changes what it reads
    assert np.all(ints[0] != 0) and not np.array_equal(ints[0], ints[1])


def test_eval_configs_mixed_arity_levels():
    # height 1 holds three Sums and three Products of every arity 1-5, a
    # level per kind and arity; the 2**70 root weight forces the object path
    m = 5
    wires = [ref(i, v) for i in range(1, m + 1) for v in (0, 1)]
    weights = [-3, 1, 2**40]
    mid = []
    for arity in range(1, 6):
        for shift in range(3):
            kids = [wires[(3 * arity + 7 * shift + j) % len(wires)] for j in range(arity)]
            mid.append(Sum(tuple((weights[(arity + shift + j) % 3], kid)
                                 for j, kid in enumerate(kids))))
            mid.append(Product(tuple(kids)))
    expr = Sum(((2**70, mid[0]),) + tuple((weights[i % 3], node) for i, node in enumerate(mid)))
    system = ReferenceSystem(m, RtwScheme.ASYMMETRIC, master_seed=19)
    configs = [frozenset(), frozenset({WireId(1, 0), WireId(3, 1)}), frozenset({WireId(5, 1)}),
               frozenset(w.wire for w in wires[::3])]
    program = experiments._program(expr, system.scheme)
    assert program.dtype == object
    levels = {(ufunc, arity, end - first) for _, first, end, ufunc, arity, _, _ in program.levels}
    assert levels >= {(ufunc, arity, 3) for ufunc in (np.add, np.multiply) for arity in range(1, 6)}
    clocks = 1000
    assert experiments.ConfigReader(expr, system, list(map(wire_mask, configs))).span < clocks
    ints, exp2 = ConfigReader(expr, system, list(map(wire_mask, configs))).read(40, clocks)
    assert ints.shape == (len(configs), clocks)
    for r, grounded in enumerate(map(wire_mask, configs)):
        for k in range(clocks):
            assert Dyadic(int(ints[r, k]), exp2) == evaluate(expr, system, 40 + k, grounded)


@pytest.mark.parametrize("scheme", list(RtwScheme))
def test_factored_levels_read_their_children_as_slices(scheme):
    # the rows are laid out in the order the levels read them, so none of
    # these levels gathers: U(N)'s sums and root, a product-string's level,
    # and EVEN(N)'s sums and root, which reads R1_0 and the sums from the
    # int8 matrix that starts with the sign rows
    shapes = [build_universe(6), build_product_string(Pattern.from_string("01101001"), 8),
              build_even(6)]
    levels = [level for expr in shapes for level in experiments._program(expr, scheme).levels]
    for level in levels:
        (_, rows, places), = level[5]
        assert isinstance(rows, slice) and places is None
    sums = experiments._program(build_universe(6), scheme).levels[0]
    assert sums[5] == ((np.int8, slice(0, 12, 1), None),)


def test_window_of_several_passes_matches_scalar_evaluator():
    # a window of 3 passes and a part, over 3 configurations
    m = 8
    expr = sum_of_strings([format(x, "08b") for x in range(0, 256, 3)], m)
    system = ReferenceSystem(m, RtwScheme.SYMMETRIC, master_seed=23, flip_prob=Fraction(1, 8))
    configs = [frozenset(), frozenset({WireId(3, 0)}), frozenset({WireId(1, 1), WireId(8, 0)})]
    reader = experiments.ConfigReader(expr, system, list(map(wire_mask, configs)))
    clocks = 3 * reader.span + 5
    ints, exp2 = reader.read(70, clocks)
    assert ints.shape == (3, clocks)
    edges = _pass_edges(reader, clocks)
    assert len(edges) == 8
    for r, grounded in enumerate(map(wire_mask, configs)):
        for k in edges:
            assert Dyadic(int(ints[r, k]), exp2) == evaluate(expr, system, 70 + k, grounded)
    assert np.count_nonzero(ints[0]) > 0


def _narrow_over_object():
    # the height-2 products share one object level, by X's 2**80 bound, so
    # small Y and Y2 sit in it too; int8 levels read them: P with a weight,
    # Q with one binary call, each casting its object children down
    s1 = Sum(((2**40, ref(1, 0)), (1, ref(2, 0))))
    s2 = Sum(((2**40, ref(3, 1)), (1, ref(1, 1))))
    x = Product((s1, s2))
    y = Product((Sum(((1, ref(2, 1)), (1, ref(1, 1)))), ref(3, 0)))
    y2 = Product((Sum(((1, ref(3, 1)), (1, ref(2, 0)))), ref(1, 0)))
    return Sum(((1, Product((x, Sum(((3, y),))))), (1, Product((y, y2)))))


@pytest.mark.parametrize("expr,root,kids", [
    (Product((ref(1, 0), Sum(((2**40, ref(2, 0)), (1, ref(2, 1)))))), np.int64, {np.int8, np.int64}),
    (Sum(((2**70, build_universe(3)), (1, ref(1, 0)))), object, {np.int8}),
    (_narrow_over_object(), object, {np.int8, object}),
], ids=["sign-and-int64-factors", "object-root-over-int8", "int8-levels-over-object-rows"])
def test_mixed_dtype_children_match_scalar_evaluator(expr, root, kids):
    system = ReferenceSystem(3, RtwScheme.ASYMMETRIC, master_seed=24)
    level = experiments._program(expr, system.scheme).levels[-1]
    # the root reads one matrix per dtype its children sit in
    assert level[0] is root and {dtype for dtype, _, _ in level[5]} == kids
    configs = [frozenset(), frozenset({WireId(1, 1)}), frozenset({WireId(2, 0)}),
               frozenset({WireId(1, 0), WireId(3, 1)})]
    ints, exp2 = ConfigReader(expr, system, list(map(wire_mask, configs))).read(9, 200)
    for r, grounded in enumerate(map(wire_mask, configs)):
        for k in range(200):
            assert Dyadic(int(ints[r, k]), exp2) == evaluate(expr, system, 9 + k, grounded)


def test_eval_array_of_no_clocks_is_empty():
    system = ReferenceSystem(2, RtwScheme.SYMMETRIC, master_seed=25)
    ints, exp2 = eval_array(build_universe(2), system, 5, 0)
    assert ints.dtype == np.int64 and ints.shape == (0,) and exp2 == 0


@pytest.mark.parametrize("flip", [Fraction(1, 2), Fraction(1, 100)])
def test_seed_column_is_kept_per_program_and_system(flip):
    # symmetric weights 1, 2, 4, 8 spell out the four wire signs of each read
    def signed_sum(bit):
        return Sum(((1, ref(bit, 0)), (2, ref(bit, 1)), (4, ref(bit + 1, 0)), (8, ref(bit + 1, 1))))

    first, second = signed_sum(1), signed_sum(3)
    systems = [ReferenceSystem(4, RtwScheme.SYMMETRIC, master_seed=s, flip_prob=flip)
               for s in (20, 21)]
    configs = [frozenset(), frozenset({WireId(1, 1), WireId(4, 0)}), frozenset({WireId(2, 0)})]
    reads = [(first, systems[0], 0), (second, systems[0], 50), (first, systems[1], 30),
             (second, systems[0], 10), (first, systems[0], 400), (first, systems[1], 5)]
    for expr, system, t0 in reads:
        ints, exp2 = ConfigReader(expr, system, list(map(wire_mask, configs))).read(t0, 64)
        assert exp2 == 0
        bit = 1 if expr is first else 3
        wires = [WireId(bit, 0), WireId(bit, 1), WireId(bit + 1, 0), WireId(bit + 1, 1)]
        for r, grounded in enumerate(configs):
            for k in range(64):
                want = sum(w * system.wire_sign(wire, t0 + k)
                           for w, wire in zip((1, 2, 4, 8), wires) if wire not in grounded)
                assert ints[r, k] == want
    for expr in (first, second):
        program = experiments._program(expr, RtwScheme.SYMMETRIC)
        streams = dict(program.streams)
        assert set(streams) == (set(systems) if expr is first else {systems[0]})
        for system, stream in streams.items():
            column = stream.seeds
            assert column.tolist() == [[system.wire_seed(w)] for w in program.wires]
            ConfigReader(expr, system, list(map(wire_mask, configs))).read(7, 3)
            # reused, not rebuilt
            assert program.streams[system] is stream and stream.seeds is column


def test_seed_column_dies_with_its_program_or_system():
    gc.collect()
    gc.disable()
    try:
        e = Sum(((1, Product((ref(1, 0), ref(2, 1)))), (3, ref(3, 0))))
        keep, dropped = ReferenceSystem(3, master_seed=22), ReferenceSystem(3, master_seed=23)
        for system in (keep, dropped):
            ConfigReader(e, system, [wire_mask(frozenset())]).read(0, 2)
        program = experiments._program(e, keep.scheme)
        assert len(program.streams) == 2
        # the stream holds no reference to its system: it dies with it
        stream = program.streams[dropped]
        gone = weakref.ref(stream.seeds), weakref.ref(stream.block)
        assert stream.block.shape == (3, 64)
        del system, dropped, stream
        assert list(program.streams) == [keep] and gone[0]() is None and gone[1]() is None
        stream = program.streams[keep]
        column, block = weakref.ref(stream.seeds), weakref.ref(stream.block)
        program = weakref.ref(program)
        del e, stream  # reference counting alone drops the program and its streams
        assert program() is None and column() is None and block() is None
    finally:
        gc.enable()


def _spelling_sum(wires):
    """A symmetric signal that spells out its wires' signs: weight 2**i on
    wires[i], so every sign row can be checked from one read."""
    return Sum(tuple((1 << i, ref(w.bit_index, w.bit_value)) for i, w in enumerate(wires)))


def _tie_clocks(flip, seed, wires, clocks):
    """The clocks below `clocks` whose flip lane ties on one of the wires."""
    seen = set()
    system = ReferenceSystem(4, RtwScheme.SYMMETRIC, master_seed=seed, flip_prob=flip)
    real = ReferenceSystem._tie_flips

    def recording(self, stream_seed, t):
        seen.add(t)
        return real(self, stream_seed, t)

    ReferenceSystem._tie_flips = recording
    try:
        system.sign_rows(wires, 0, clocks)
    finally:
        ReferenceSystem._tie_flips = real
    return sorted(seen)


@pytest.mark.parametrize("flip", [Fraction(1, 2), Fraction(1, 100), Fraction(1, 3), Fraction(1)])
def test_stream_reads_are_bit_identical_to_fresh_draws(flip):
    # two programs share one system, and one program reads two systems;
    # their wires overlap, and at flip != 1/2 each stream counts flips on
    # from its own block
    wires_a = [WireId(b, v) for b in (1, 2, 3) for v in (0, 1)]
    wires_b = [WireId(b, v) for b in (4, 3, 2) for v in (1, 0)]
    a, b = _spelling_sum(wires_a), _spelling_sum(wires_b)
    seeds = (31, 32)
    systems = [ReferenceSystem(4, RtwScheme.SYMMETRIC, master_seed=s, flip_prob=flip)
               for s in seeds]
    pairs = [(a, wires_a, 0), (b, wires_b, 0), (a, wires_a, 1)]
    top = 40_000
    ties = _tie_clocks(flip, seeds[0], sorted(set(wires_a + wires_b), key=lambda w: w.tag), top)
    if flip == Fraction(1, 3):
        assert ties  # the reads below straddle them
    rng = random.Random(f"stream-{flip}")
    reads = 0
    last = {i: (0, 1) for i in range(len(pairs))}
    for step in range(160):
        i = rng.randrange(len(pairs))
        expr, wires, s = pairs[i]
        system = systems[s]
        t, n = last[i]
        stream = experiments._program(expr, RtwScheme.SYMMETRIC).streams.get(system)
        kind = rng.choice(["forward", "backward", "overlap", "word", "block", "wide", "empty",
                           "negative", "tie"])
        if kind == "forward":
            t0, n = t + n + rng.randrange(70), rng.randint(1, 100)
        elif kind == "backward":
            t0, n = max(0, t - rng.randint(1, 300)), rng.randint(1, 100)
        elif kind == "overlap":
            t0, n = t + rng.randrange(n), rng.randint(1, 200)
        elif kind == "word":  # across a 64-clock word edge
            t0, n = 64 * rng.randint(1, 600) - rng.randint(1, 5), rng.randint(2, 12)
        elif kind == "block" and stream is not None and stream.block.size:  # across its end
            t0, n = stream.start + stream.block.shape[1] - rng.randint(1, 8), rng.randint(2, 100)
        elif kind == "wide":  # one pass through the stream, or more drawn in place
            span = ConfigReader(expr, system, [0, 0]).span
            t0, n = rng.randrange(top), span + rng.choice([0, 1, rng.randint(2, 600)])
        elif kind == "tie" and ties:
            t0 = max(0, rng.choice(ties) - rng.randint(0, 3))
            n = rng.randint(1, 8)
        elif kind == "negative":
            t0 = -rng.randint(1, 100)
            with pytest.raises(ValueError):
                ConfigReader(expr, system, [wire_mask(frozenset())]).read(t0, rng.randint(1, 50))
            continue
        else:  # empty
            t0, n = rng.choice([-rng.randint(1, 9), rng.randrange(top)]), 0
        grounded = wires[rng.randrange(len(wires))]
        masks = [wire_mask(frozenset()), wire_mask({grounded})]
        ints, exp2 = ConfigReader(expr, system, masks).read(t0, n)
        assert exp2 == 0 and ints.shape == (2, n)
        if n == 0:
            continue
        fresh = ReferenceSystem(4, RtwScheme.SYMMETRIC, master_seed=seeds[s], flip_prob=flip)
        want = fresh.sign_rows(wires, t0, n).astype(np.int64)
        weights = np.array([1 << r for r in range(len(wires))])
        assert np.array_equal(ints[0], weights @ want), (step, kind, t0, n)
        weights[wires.index(grounded)] = 0
        assert np.array_equal(ints[1], weights @ want), (step, kind, t0, n)
        # scalar reads on the same system, which move only the scalar anchors
        for k in {0, n - 1, rng.randrange(n)}:
            r = rng.randrange(len(wires))
            assert system.wire_sign(wires[r], t0 + k) == want[r, k], (step, kind, t0 + k)
        last[i] = (t0, n)
        reads += 1
    assert reads > 80


def test_a_window_inside_the_block_draws_nothing(monkeypatch):
    wires = [WireId(1, 0), WireId(1, 1), WireId(2, 0)]
    expr = _spelling_sum(wires)
    system = ReferenceSystem(2, RtwScheme.SYMMETRIC, master_seed=33, flip_prob=Fraction(1, 100))
    drawn = []
    real = ReferenceSystem.draw_sign_rows

    def counting(self, bits, seeds, t0, start=None):
        drawn.append((t0, bits.shape[1]))
        return real(self, bits, seeds, t0, start)

    monkeypatch.setattr(ReferenceSystem, "draw_sign_rows", counting)
    reader = ConfigReader(expr, system, [wire_mask(frozenset())])
    reader.read(70, 5)
    assert drawn == [(64, 64)]  # the window's word-aligned cover
    for t0, n in ((70, 5), (64, 64), (100, 20), (127, 1)):
        reader.read(t0, n)
        ConfigReader(expr, system, [wire_mask(frozenset()), wire_mask({wires[0]})]).read(t0, n)
    assert drawn == [(64, 64)]
    reader.read(126, 3)  # crosses the block's end: draws only the word after it
    assert drawn[1:] == [(128, 64)]
    span = reader.span
    reader.read(0, span + 1)  # over one pass: drawn in place, pass by pass
    assert drawn[2:] == [(0, span), (span, 1)]
    reader.read(150, 2)  # the stream still holds its block
    assert len(drawn) == 4
    reader.read(64, span)  # one pass: the stream copies its block, draws the rest
    assert drawn[4:] == [(192, ((64 + span + 63) & -64) - 192)]
    assert reader.stream.start == 64


@pytest.mark.parametrize("read", ["eval_array", "fragment_search"])
def test_a_stream_block_holds_at_most_one_pass(read):
    # 4,096 clocks of a 2,000-bit product string, or a tau = 4,096 fragment
    # search on a 2,000-bit sum of three strings: each reads several passes,
    # so its stream keeps no more than one pass and the partial words at the
    # block's two ends
    from inbl.search import fragment_search

    rng = random.Random(37)
    m = 2000
    strings = ["".join(rng.choice("01") for _ in range(m)) for _ in range(3)]
    system = ReferenceSystem(m, master_seed=37)
    if read == "eval_array":
        expr = build_product_string(Pattern.from_string(strings[0]), m)
        eval_array(expr, system, 0, 4096)
    else:
        expr = sum_of_strings(strings, m)
        fragment_search(expr, system, Pattern.fragments({1: int(strings[1][0])}), tau=4096)
    program = experiments._program(expr, system.scheme)
    stream, bound = program.streams[system], experiments.PASS_BYTES + 126 * len(program.wires)
    assert stream.block.nbytes <= bound
    # the widest read the stream serves, one pass that starts and ends mid-word
    reader = ConfigReader(expr, system, [0])
    reader.read(63, reader.span)
    assert 0 < stream.block.nbytes <= bound


@pytest.mark.parametrize("flip, counters", [(Fraction(1, 2), 1), (Fraction(1, 100), 16)])
def test_a_read_across_the_block_end_draws_only_the_new_words(flip, counters, monkeypatch):
    # the block holds clocks 163,648-163,711; a 5-clock read at 163,710
    # copies the two clocks it holds and draws the one word after it: one
    # fair draw of 64 clocks, or 16 flip counters of 4 clocks counted on
    # from the block's last clock, per wire
    from inbl import reference

    wires = [WireId(1, 0), WireId(1, 1), WireId(2, 0)]
    expr = _spelling_sum(wires)
    system = ReferenceSystem(2, RtwScheme.SYMMETRIC, master_seed=36, flip_prob=flip)
    reader = ConfigReader(expr, system, [wire_mask(frozenset())])
    reader.read(163_650, 20)
    assert (reader.stream.start, reader.stream.block.shape[1]) == (163_648, 64)
    drawn = []
    real = reference._draw_into

    def counting(x, tmp, *stream):
        drawn.append(x.size)
        return real(x, tmp, *stream)

    monkeypatch.setattr(reference, "_draw_into", counting)
    ints, _ = reader.read(163_710, 5)
    assert sum(drawn) == len(wires) * counters
    fresh = ReferenceSystem(2, RtwScheme.SYMMETRIC, master_seed=36, flip_prob=flip)
    weights = np.array([1 << r for r in range(len(wires))])
    assert np.array_equal(ints[0], weights @ fresh.sign_rows(wires, 163_710, 5).astype(np.int64))


@pytest.mark.parametrize("flip", [Fraction(1, 100), Fraction(1, 3), Fraction(1, 8)])
def test_wide_reads_count_on_from_each_pass(flip, monkeypatch):
    # a span of 20 clocks makes every wide read hundreds of passes, and
    # configuration 0 grounds a wire: the next pass must count on from each
    # pass's draw, not from what the grounded configuration reads
    wires = [WireId(b, v) for b in (1, 2, 3) for v in (0, 1)]
    expr = _spelling_sum(wires)
    configs = [frozenset({wires[2]}), frozenset()]
    column_bytes = experiments._program(expr, RtwScheme.SYMMETRIC).column_bytes
    monkeypatch.setattr(experiments, "PASS_BYTES", 20 * column_bytes * len(configs))
    system = ReferenceSystem(4, RtwScheme.SYMMETRIC, master_seed=31, flip_prob=flip)
    reader = ConfigReader(expr, system, list(map(wire_mask, configs)))
    assert reader.span == 20
    top, cap = 40_000, reader.span
    if flip == Fraction(1, 3):
        assert _tie_clocks(flip, 31, wires, top)  # the first read straddles them
    weights = np.array([1 << r for r in range(len(wires))])
    cut = np.where(np.arange(len(wires)) == 2, 0, weights)
    fresh = ReferenceSystem(4, RtwScheme.SYMMETRIC, master_seed=31, flip_prob=flip)
    # from clock 0, from inside the stream's block, from after it, and back
    for t0, n in ((0, top), (5000, cap), (5010, cap + 7), (top - 9000, 9000), (700, cap + 1)):
        ints, _ = reader.read(t0, n)
        want = fresh.sign_rows(wires, t0, n).astype(np.int64)
        assert np.array_equal(ints[0], cut @ want), (t0, n)
        assert np.array_equal(ints[1], weights @ want), (t0, n)


@pytest.mark.parametrize("flip", [Fraction(1, 100), Fraction(1, 3)])
def test_scalar_and_stream_reads_share_no_state(flip):
    # the same reads on three systems: stream reads alone, scalar reads
    # alone, and both interleaved; neither kind changes what the other reads
    wires = [WireId(b, v) for b in (1, 2, 3) for v in (0, 1)]
    expr = _spelling_sum(wires)
    configs = [frozenset(), frozenset({wires[4]})]
    stream_only, scalar_only, mixed = (
        ReferenceSystem(3, RtwScheme.SYMMETRIC, master_seed=35, flip_prob=flip) for _ in range(3))
    rng = random.Random(f"share-{flip}")
    span = ConfigReader(expr, stream_only, list(map(wire_mask, configs))).span
    for step in range(40):
        t0 = rng.randrange(20_000)
        n = rng.choice([1, 7, 64, 300, span + 9])
        clocks = [max(0, t0 + rng.randint(-500, n + 500)) for _ in range(3)]
        for t in clocks:  # scalar reads before, in and after the window
            w = rng.choice(wires)
            assert mixed.wire_sign(w, t) == scalar_only.wire_sign(w, t), (step, t)
        anchors, state = dict(mixed._anchors), set(vars(mixed))
        got, _ = ConfigReader(expr, mixed, list(map(wire_mask, configs))).read(t0, n)
        want, _ = ConfigReader(expr, stream_only, list(map(wire_mask, configs))).read(t0, n)
        assert np.array_equal(got, want), (step, t0, n)
        # the stream read moved no scalar anchor and added no state
        assert mixed._anchors == anchors and set(vars(mixed)) == state
    assert mixed._anchors and not stream_only._anchors


def test_program_cache_entry_dies_with_its_expression():
    system = ReferenceSystem(3, master_seed=16)
    gc.collect()
    gc.disable()
    try:
        before = len(experiments._PROGRAMS)
        e = Sum(((1, Product((ref(1, 0), ref(2, 1)))), (3, ref(3, 0))))
        key = id(e)
        ConfigReader(e, system, [wire_mask(frozenset())]).read(0, 1)
        eval_array(e, system, 0, 4)
        assert experiments._program(e, system.scheme) is experiments._program(e, system.scheme)
        assert len(experiments._PROGRAMS) == before + 1 and key in experiments._PROGRAMS
        del e  # reference counting alone runs the finalizer
        assert len(experiments._PROGRAMS) == before and key not in experiments._PROGRAMS
    finally:
        gc.enable()


def test_program_cache_keeps_one_program_per_scheme():
    # asymmetric low wires read +/-1/2, so the same product has floor -2
    e = Product((ref(1, 0), ref(2, 0), ref(2, 1)))
    asym = ReferenceSystem(2, RtwScheme.ASYMMETRIC, master_seed=17)
    sym = ReferenceSystem(2, RtwScheme.SYMMETRIC, master_seed=17)
    configs = [frozenset(), frozenset({WireId(2, 1)})]
    asym_ints, asym_exp2 = ConfigReader(e, asym, list(map(wire_mask, configs))).read(3, 1)
    sym_ints, sym_exp2 = ConfigReader(e, sym, list(map(wire_mask, configs))).read(3, 1)
    assert (asym_exp2, sym_exp2) == (-2, 0)
    assert set(experiments._PROGRAMS[id(e)]) == {RtwScheme.ASYMMETRIC, RtwScheme.SYMMETRIC}
    assert asym_ints.tolist() == sym_ints.tolist()  # same seed, same signs
    assert Dyadic(int(asym_ints[0, 0]), asym_exp2) == evaluate(e, asym, 3)
    assert asym_ints[1, 0] == 0


def _level_table(expr):
    """The asymmetric program of expr as plain values: dtypes by name, row
    index arrays as lists, a Sum level's weights as arity x nodes lists."""
    program = experiments._program(expr, RtwScheme.ASYMMETRIC)
    name = lambda dtype: np.dtype(dtype).name
    levels = [(name(dtype), first, end, ufunc.__name__, arity,
               [(name(src), rows if isinstance(rows, slice) else rows.tolist(),
                 None if places is None else places.tolist()) for src, rows, places in reads],
               None if weights is None else weights.reshape(arity, -1).tolist())
              for dtype, first, end, ufunc, arity, reads, weights in program.levels]
    return {"levels": levels, "wires": [w.tag for w in program.wires],
            "root": (name(program.root[0]), program.root[1]),
            "column_bytes": program.column_bytes,
            "matrices": {name(d): rows for d, rows in program.matrices.items()}}


def _node_order(expr):
    """topological_order(expr) with each node as its wire tag (a Ref), its
    (weight, child index) pairs (a Sum) or its child indices (a Product)."""
    order = topological_order(expr)
    at = {id(node): k for k, node in enumerate(order)}
    return [node.wire.tag if isinstance(node, Ref)
            else [(c, at[id(term)]) for c, term in node.terms] if isinstance(node, Sum)
            else [at[id(factor)] for factor in node.factors] for node in order]


def test_compiled_level_table_is_pinned():
    # pinned tables and node orders of three shapes: a rewrite of the
    # compile or of topological_order must keep the same table, the same
    # row order and the same walk
    u3 = {
        "levels": [
            ("int8", 6, 9, "add", 2, [("int8", slice(0, 6, 1), None)], [[1, 1, 1], [2, 2, 2]]),
            ("int8", 9, 10, "multiply", 3, [("int8", slice(6, 9, 1), None)], None),
        ],
        "wires": [2, 4, 6, 3, 5, 7], "root": ("int8", 9), "column_bytes": 16,
        "matrices": {"int8": 10},
    }
    assert _level_table(build_universe(3)) == u3
    assert _node_order(build_universe(3)) == [
        7, 6, [(1, 1), (1, 0)], 5, 4, [(1, 4), (1, 3)], 3, 2, [(1, 7), (1, 6)], [8, 5, 2]]

    # ODD(3): a -1 weight, and Refs that U(3) and EVEN(3) share
    odd3 = {
        "levels": [
            ("int8", 6, 11, "add", 2, [("int8", [0, 1, 1, 2, 2, 3, 4, 4, 5, 5], None)],
             [[1, 1, 1, 1, 1], [2, 2, 2, 2, 2]]),
            ("int8", 11, 13, "multiply", 3, [("int8", [6, 0, 7, 8, 9, 10], None)], None),
            ("int8", 13, 14, "add", 2, [("int8", slice(11, 13, 1), None)], [[1], [-1]]),
        ],
        "wires": [2, 4, 6, 3, 5, 7], "root": ("int8", 13), "column_bytes": 24,
        "matrices": {"int8": 14},
    }
    assert _level_table(build_odd(3)) == odd3
    assert _node_order(build_odd(3)) == [
        7, 6, [(1, 1), (1, 0)], 5, 4, [(1, 4), (1, 3)], 2, [6, 5, 2], [(1, 1), (1, 0)],
        [(1, 4), (1, 3)], 3, [(1, 6), (1, 10)], [11, 9, 8], [(1, 12), (-1, 7)]]

    # one Ref object r in three terms, beside the interned Ref of its wire:
    # both take the one sign row of R1_0
    r = Ref(WireId(1, 0))
    mixed = Sum(((1, Product((r, ref(2, 1), ref(3, 0), ref(4, 1)))),
                 (2, Product((r, ref(2, 0), ref(3, 1), ref(4, 1)))),
                 (-1, Product((ref(1, 0), ref(2, 1), ref(3, 1), ref(4, 0)))),
                 (3, Product((ref(1, 1), ref(2, 0), ref(3, 0), r)))))
    pinned = {
        "levels": [
            ("int8", 8, 12, "multiply", 4,
             [("int8", [7, 7, 7, 0, 1, 2, 1, 2, 4, 3, 3, 4, 5, 5, 6, 7], None)], None),
            ("int8", 12, 13, "add", 4, [("int8", slice(8, 12, 1), None)], [[2], [4], [-2], [3]]),
        ],
        "wires": [3, 5, 4, 7, 6, 9, 8, 2], "root": ("int8", 12), "column_bytes": 29,
        "matrices": {"int8": 13},
    }
    assert _level_table(mixed) == pinned
    assert _node_order(mixed) == [
        2, 6, 4, 3, [3, 2, 1, 0], 8, 7, 5, 2, [8, 7, 6, 5], 9, [0, 2, 6, 10], [0, 7, 1, 10],
        [(1, 12), (2, 11), (-1, 9), (3, 4)]]
