"""The scalar reference model: exact values read one clock at a time.

The package has one evaluator that its protocols and CLI call, the window
evaluator `experiments.ConfigReader`. The tests check it against values
computed here, independently of it:

- `eval_via_expansion` sums the oracle's explicit product-string table,
  wire by wire, at one clock.
- `eval_at_sign_state` sums the same table at one sign state of the wires,
  and `sign_states` lists every sign state of W wires, the int8 matrix
  that `ConfigReader.run` takes in place of a window of clocks.

A configuration is a wire mask here too, the int a `ConfigReader` row takes:
a wire reads zero when bit `WireId.tag` of the mask is set.

The rest of the scalar model still lives in the package, because the
benchmark's tracer wraps or counts these names there: `expr.evaluate`,
`ReferenceSystem.wire_value` with `wire_sign`, `_sign_bit` and its
`_anchors`, `ReferenceSystem.sign_array` with `sign_rows`, and the `Dyadic`
arithmetic that only they use. They move into this module once the
benchmark stops tracing them.
"""

from typing import Callable, Dict, Mapping, Tuple

import numpy as np

from inbl.dyadic import ZERO, Dyadic
from inbl.oracle import Expansion
from inbl.reference import ReferenceSystem, RtwScheme, WireId


def eval_via_expansion(
    expansion: Expansion,
    system: ReferenceSystem,
    t: int,
    grounded: int = 0,
) -> Dyadic:
    """Ground-truth signal value: sum of coefficient * wire-value products."""
    return _sum_of_products(expansion, lambda wire: system.wire_value(wire, t), grounded)


def eval_at_sign_state(
    expansion: Expansion,
    scheme: RtwScheme,
    signs: Mapping[WireId, int],
    grounded: int = 0,
) -> Dyadic:
    """The expansion's value where each wire it reads has sign signs[wire]
    (+1 or -1) and the magnitude the scheme gives its bit value."""
    return _sum_of_products(
        expansion,
        lambda wire: Dyadic(signs[wire], scheme.magnitude_exp2(wire.bit_value)),
        grounded)


def sign_states(wires: int) -> np.ndarray:
    """Every sign state of the given number of wires, int8 wires x
    2**wires: column s gives wire row k the sign -1 where bit k of s is set."""
    bits = np.arange(1 << wires)[None, :] >> np.arange(wires)[:, None] & 1
    return (1 - 2 * bits).astype(np.int8)


def _sum_of_products(
    expansion: Expansion,
    wire_value: Callable[[WireId], Dyadic],
    grounded: int,
) -> Dyadic:
    """Sum of coefficient * wire-value products, a grounded wire reading 0."""
    wire_cache: Dict[Tuple[int, str], Dyadic] = {}  # each wire is read at most once
    total = ZERO
    for key, coeff in expansion.entries.items():
        value = Dyadic(coeff)
        for i, ch in enumerate(key):
            if ch == "-":
                continue
            v = wire_cache.get((i, ch))
            if v is None:
                wire = WireId(i + 1, int(ch))
                v = wire_cache[(i, ch)] = (
                    ZERO if grounded >> wire.tag & 1 else wire_value(wire))
            value = value * v
            if value.is_zero():
                break
        total = total + value
    return total
