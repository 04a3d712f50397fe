"""Collapse measurement and the protocols built on it.

Grounding the inverse wires of a pattern annihilates every product-string
that disagrees with it, so a nonzero reading proves that a match exists.
Every protocol is one step, `_probe_at_live_clock`: collapse, probe, one
read at the live clock. Its switch actions come first, each configuration
recorded as its wire mask (see switchboard), one int: per collapse pattern
the inverse grounding, then each probe wire grounded on it and restored.
`wait_for_live_clock` then scans windows from the clocks the protocol
reads, each later window WINDOW_GROWTH times the one before up to one
reader pass. Each window is one exact call to the protocol's one
`experiments.ConfigReader` (the one window evaluator) for the un-grounded
signal and the recorded configurations, reading on past its scan, so the
live clock's window holds every reading. A read of one pass copies its
signs from the (expression, system)'s sign stream, whose block the
previous read on the system has mostly drawn already.

`fragment_search` is the one search routine (one collapse, no probes);
`full_string_search` is it with a pattern that assigns every bit. A zero
reading is exact only when the expression is certified (its compiled
program's support is not None) and the pattern assigns every bit of that
support: at most one product-string survives and no clock cancels it, so
one read decides. Any other search reads tau clocks, at most BLOCK_CLOCKS
since it holds them at once, and reports epsilon = 2**-tau beside a
negative verdict: the miss rate if each clock cancels with probability
1/2, not a proven bound, since some fragment searches cancel more often.
Amplitudes become `Dyadic` values only in the reported outcome, whose
fields fix every reading: from the live clock, t_start + clocks_waited,
the search read clocks_observed clocks, all exact zeros except a
present's last, its amplitude at witness_clock. Entangle discrimination
checks its signal's class on the oracle's 2-bit expansion, then collapses
bit 1 onto each value and probes one bit-2 wire.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .dyadic import Dyadic
from .errors import IllegalClass, MaxWaitExceeded
from .experiments import ConfigReader, _program
from .expr import Expr, Pattern
from .oracle import BellClass, Expansion, expand, legal_bell_class
from .reference import BLOCK_CLOCKS, ReferenceSystem, WireId, wire_id
from .switchboard import ground_inverse

DEFAULT_MAX_WAIT = 10_000
DEFAULT_TAU = 64
# each scan window is this many times the one before: a read's cost barely
# depends on its width up to a pass, so fewer, wider windows find a sparse
# signal's live clock for less
WINDOW_GROWTH = 8
# entangle's collapses of bit 1 onto 0 and onto 1
_BIT1_COLLAPSES = (Pattern(((1, 0),)), Pattern(((1, 1),)))


class Verdict(Enum):
    PRESENT = "present"
    ABSENT = "absent"
    ABSENT_BOUNDED = "absent_bounded"


@dataclass
class SearchOutcome:
    verdict: Verdict
    switch_ops: int
    clocks_waited: int
    clocks_observed: int
    witness_clock: Optional[int] = None
    amplitude: Optional[Dyadic] = None
    epsilon: Optional[Dyadic] = None  # 2**-tau when bounded, not a proven bound

    @property
    def present(self) -> bool:
        return self.verdict is Verdict.PRESENT

    def to_json(self) -> dict:
        return {
            "verdict": self.verdict.value,
            "switch_ops": self.switch_ops,
            "clocks_waited": self.clocks_waited,
            "clocks_observed": self.clocks_observed,
            "witness_clock": self.witness_clock,
            "amplitude": None if self.amplitude is None else self.amplitude.to_json(),
            "epsilon": None if self.epsilon is None else self.epsilon.to_json(),
        }


class LiveClock(NamedTuple):
    """The live clock a scan found and the readings the caller asked for
    from it on: configuration r reads readings[r, k] * 2**exp2 at clock
    clock + k, row 0 being the un-grounded signal."""

    clock: int
    readings: np.ndarray
    exp2: int


def wait_for_live_clock(
    expr: Expr,
    system: ReferenceSystem,
    t_start: int = 0,
    max_wait: int = DEFAULT_MAX_WAIT,
    grounded: Sequence[int] = (),
    reads: int = 1,
) -> LiveClock:
    """Smallest t >= t_start where the un-grounded superposition is nonzero.

    Each window reads reads - 1 clocks past those it scans, so the LiveClock
    carries exactly the `reads` clocks (1 to BLOCK_CLOCKS) the caller reads
    from the live clock on. The first window scans `reads` clocks, each
    later one WINDOW_GROWTH times more, capped so its read is one reader
    pass (or at the first, if wider) and clipped at t_start + max_wait.
    Reads take the un-grounded signal and each configuration in grounded, a
    wire mask. max_wait must be >= 0; with 0, t_start must be live.
    """
    if max_wait < 0:
        raise ValueError(f"max_wait must be >= 0, got {max_wait}")
    if not 1 <= reads <= BLOCK_CLOCKS:
        raise ValueError(f"reads must be between 1 and {BLOCK_CLOCKS}, got {reads}")
    reader = ConfigReader(expr, system, [0, *grounded])
    end = t_start + max_wait + 1
    t0, width, cap = t_start, reads, max(reader.span - reads + 1, reads)
    while t0 < end:
        n = min(width, end - t0)
        ints, exp2 = reader.read(t0, n + reads - 1)
        live = ints[0, :n].nonzero()[0]
        if len(live):
            k = int(live[0])
            return LiveClock(t0 + k, ints[:, k : k + reads], exp2)
        t0 += n
        width = min(WINDOW_GROWTH * width, cap)
    raise MaxWaitExceeded(t_start, max_wait)


def _probe_at_live_clock(
    expr: Expr,
    system: ReferenceSystem,
    collapses: Sequence[Pattern],
    probes: Sequence[WireId],
    max_wait: int,
    t_start: int,
    reads: int = 1,
) -> Tuple[LiveClock, int]:
    """Collapse, probe, one read at the live clock: every protocol's step.

    Per collapse pattern, ground its inverse wires and record the
    configuration, then ground, record and restore each probe wire in turn
    (a probe wire the collapse grounds stays grounded). The LiveClock reads
    the recorded configurations as rows 1, 2, ... in that order, after the
    un-grounded row 0. Returns it and the switch actions that changed the
    state: each collapse's groundings and each probe that grounded a wire.
    """
    configs, ops = [], 0
    for pattern in collapses:
        switches = ground_inverse(pattern, system.num_bits)
        configs.append(switches.mask)
        ops += switches.mask.bit_count()
        for wire in probes:
            changed = switches.ground(wire)
            configs.append(switches.mask)
            if changed:
                switches.restore(wire)
            ops += changed
    return wait_for_live_clock(expr, system, t_start, max_wait, configs, reads), ops


def full_string_search(
    expr: Expr,
    system: ReferenceSystem,
    pattern: Pattern,
    max_wait: int = DEFAULT_MAX_WAIT,
    t_start: int = 0,
    tau: int = DEFAULT_TAU,
) -> SearchOutcome:
    """Membership test for a full M-bit string: a fragment search whose
    pattern assigns every bit. Exact in both directions after one reading
    on a certified expression, such as any sum of full product-strings;
    otherwise bounded by tau like any fragment search."""
    if not pattern.is_full(system.num_bits):
        raise ValueError(f"a full-string search needs {system.num_bits} bits, got {pattern}")
    return fragment_search(expr, system, pattern, tau, max_wait, t_start)


def fragment_search(
    expr: Expr,
    system: ReferenceSystem,
    pattern: Pattern,
    tau: int = DEFAULT_TAU,
    max_wait: int = DEFAULT_MAX_WAIT,
    t_start: int = 0,
) -> SearchOutcome:
    """Test whether any string matching the (possibly partial) pattern exists.

    A nonzero reading is an exact positive proof. If expr is certified and
    the pattern assigns every bit of its support, the reading at the live
    clock is exact either way. Otherwise the survivors can transiently
    cancel, so after tau zero readings the verdict is ABSENT_BOUNDED with
    epsilon 2**-tau, which is not a proven bound (see the module docstring).
    The scan's live window holds the tau readings at once, so tau is at
    most BLOCK_CLOCKS (2**15), where 2**-tau is already below 2**-32768.
    """
    if not 1 <= tau <= BLOCK_CLOCKS:
        raise ValueError(f"tau must be between 1 and {BLOCK_CLOCKS}, got {tau}")
    support = _program(expr, system.scheme).support
    exact = support is not None and not support & ~pattern.mask
    n = 1 if exact else tau
    live, switch_ops = _probe_at_live_clock(expr, system, [pattern], (), max_wait, t_start, n)
    t, reads = live.clock, live.readings[1]
    hits = reads.nonzero()[0]
    present = len(hits) > 0
    observed = int(hits[0]) + 1 if present else n
    verdict = Verdict.PRESENT if present else Verdict.ABSENT if exact else Verdict.ABSENT_BOUNDED
    return SearchOutcome(
        verdict=verdict,
        switch_ops=switch_ops,
        clocks_waited=t - t_start,
        clocks_observed=observed,
        witness_clock=t + observed - 1 if present else None,
        amplitude=Dyadic(int(reads[observed - 1]), live.exp2) if present or exact else None,
        epsilon=None if present or exact else Dyadic.pow2(-tau),
    )


def entangle_discriminate(
    expr: Expr,
    system: ReferenceSystem,
    max_wait: int = DEFAULT_MAX_WAIT,
    t_start: int = 0,
    probe_partner_value: int = 0,
) -> Tuple[BellClass, LiveClock]:
    """Identify which of the six legal two-bit configurations a signal is.

    expr must expand to one of the six legal classes (coefficient 1 on each
    of its strings), or IllegalClass is raised before any switch action:
    the probes cannot tell every other signal from a legal one, and would
    name a wrong class on some seeds. The check is the oracle's 2-bit
    expansion, at most 9 monomials per node, so O(nodes).

    All probing happens inside one live clock: per bit-1 value v the
    collapse 1=v grounds R1_(1-v), and the probe also grounds R2_p, where
    probe_partner_value selects p (the two variants give identical
    verdicts). Returns the class and the LiveClock, whose rows 1-4 read the
    collapse 1=0, it with R2_p, the collapse 1=1 and it with R2_p.
    """
    if system.num_bits != 2:
        raise ValueError("entanglement discrimination is defined for 2 noise-bits")
    if probe_partner_value not in (0, 1):
        raise ValueError("probe_partner_value must be 0 or 1")
    if legal_bell_class(expand(expr, 2)) is None:
        raise IllegalClass("the signal is none of the six legal two-bit classes")
    partner = [wire_id(2, probe_partner_value)]
    live, _ = _probe_at_live_clock(expr, system, _BIT1_COLLAPSES, partner, max_wait, t_start)
    # per bit-1 value: None when no string has it, else the bit-2 value
    # entangled with it, p if grounding R2_p zeroes the collapse, else 1-p
    found = [None if not side else probe_partner_value ^ bool(both)
             for side, both in live.readings[1:5, 0].reshape(2, 2).tolist()]
    strings = {f"{v}{b}" for v, b in enumerate(found) if b is not None}
    cls = legal_bell_class(Expansion(dict.fromkeys(strings, 1), 2))
    if cls is None:
        raise IllegalClass(
            f"probe readings (bit1=0 -> {found[0]}, bit1=1 -> {found[1]}) match no legal class"
        )
    return cls, live
