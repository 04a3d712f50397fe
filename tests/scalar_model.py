"""The scalar reference model: exact values read one clock at a time.

The package has one evaluator that its protocols and CLI call, the window
evaluator `experiments.ConfigReader`. The tests check it against values
computed here, independently of it:

- `eval_via_expansion` sums the oracle's explicit product-string table,
  wire by wire, at one clock.

A configuration is a wire mask here too, the int a `ConfigReader` row takes:
a wire reads zero when bit `WireId.tag` of the mask is set.

The rest of the scalar model still lives in the package, because the
benchmark's tracer wraps or counts these names there: `expr.evaluate`,
`ReferenceSystem.wire_value` with `wire_sign`, `_sign_bit` and its
`_anchors`, `ReferenceSystem.sign_array` with `sign_rows`, and the `Dyadic`
arithmetic that only they use. They move into this module once the
benchmark stops tracing them.
"""

from typing import Dict, Tuple

from inbl.dyadic import ZERO, Dyadic
from inbl.oracle import Expansion
from inbl.reference import ReferenceSystem, WireId


def eval_via_expansion(
    expansion: Expansion,
    system: ReferenceSystem,
    t: int,
    grounded: int = 0,
) -> Dyadic:
    """Ground-truth signal value: sum of coefficient * wire-value products."""
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
                    ZERO if grounded >> wire.tag & 1 else system.wire_value(wire, t))
            value = value * v
            if value.is_zero():
                break
        total = total + value
    return total
