import gc
import math
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from inbl.experiments import (
    eval_array,
    run_crosscorr,
    run_zero_stats,
    speedup_report,
)
from inbl.expr import Pattern, build_product_string, build_universe, evaluate
from inbl.reference import ReferenceSystem, RtwScheme

from conftest import random_canonical_expr, random_switches


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
        switches = random_switches(rng, m) if rng.random() < 0.5 else None
        arr = eval_array(expr, system, 5, 40, switches)
        for k, t in enumerate(range(5, 45)):
            assert arr[k] == float(evaluate(expr, system, t, switches))


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
    # memo left in a reference cycle would stay allocated after the call
    m, clocks = 4, 2**16
    u = build_universe(m)
    system = ReferenceSystem(m, master_seed=1)
    eval_array(u, system, 0, 8)  # derive and cache the wire seeds first
    gc.collect()
    gc.disable()
    tracemalloc.start()
    try:
        baseline = tracemalloc.get_traced_memory()[0]
        values = eval_array(u, system, 0, clocks)
        assert values.nbytes == 8 * clocks
        del values
        for t in range(1000):
            evaluate(u, system, t)
        held = tracemalloc.get_traced_memory()[0] - baseline
    finally:
        tracemalloc.stop()
        gc.enable()
    assert held < 64 * 1024, held
