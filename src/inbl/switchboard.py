"""Two-state switches on the reference wires.

Every wire is either Live (connected to its reference source) or Grounded
(forced to exactly zero). A configuration is one int, its wire mask: bit
`WireId.tag` is set for every grounded wire. The mask is the only form a
configuration takes: recording one copies the int, the window evaluator
(`experiments.ConfigReader`) reads a sequence of them and the scalar
`expr.evaluate` reads one. Grounding and restoring are idempotent and
report whether they changed the state, so a protocol can count the switch
operations it actually made.
"""

from __future__ import annotations

from .expr import Pattern
from .reference import WireId, wire_id


class SwitchState:
    __slots__ = ("mask",)

    def __init__(self):
        # bit WireId.tag is set for every grounded wire
        self.mask = 0

    def ground(self, wire: WireId) -> bool:
        """Force the wire to zero. Returns True if the state changed."""
        bit = 1 << wire.tag
        if self.mask & bit:
            return False
        self.mask |= bit
        return True

    def restore(self, wire: WireId) -> bool:
        """Reconnect the wire to its reference source."""
        bit = 1 << wire.tag
        if not self.mask & bit:
            return False
        self.mask ^= bit
        return True

    def __repr__(self) -> str:
        # tag order is (bit_index, bit_value) order
        mask = self.mask
        wires = [(tag >> 1, tag & 1) for tag in range(mask.bit_length()) if mask >> tag & 1]
        return f"SwitchState(grounded={wires})"


def ground_inverse(pattern: Pattern, num_bits: int) -> SwitchState:
    """Ground the wire of the opposite bit value for every assigned bit.

    This is the collapse configuration: every product-string that disagrees
    with the pattern on an assigned bit uses a grounded wire and vanishes.
    """
    pattern.check_fits(num_bits)
    switches = SwitchState()
    for idx, val in pattern.assignments:
        switches.ground(wire_id(idx, 1 - val))
    return switches
