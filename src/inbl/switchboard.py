"""Two-state switches on the reference wires.

Every wire is either Live (connected to its reference source) or Grounded
(forced to exactly zero). Grounding and restoring are idempotent and
report whether they changed the state, so a protocol can count the switch
operations it actually made.
"""

from __future__ import annotations

from typing import FrozenSet

from .expr import Pattern
from .reference import WireId, wire_id


class SwitchState:
    def __init__(self):
        self._grounded: set = set()

    def is_grounded(self, wire: WireId) -> bool:
        return wire in self._grounded

    @property
    def grounded(self) -> FrozenSet[WireId]:
        return frozenset(self._grounded)

    def ground(self, wire: WireId) -> bool:
        """Force the wire to zero. Returns True if the state changed."""
        if wire in self._grounded:
            return False
        self._grounded.add(wire)
        return True

    def restore(self, wire: WireId) -> bool:
        """Reconnect the wire to its reference source."""
        if wire not in self._grounded:
            return False
        self._grounded.discard(wire)
        return True

    def __repr__(self) -> str:
        wires = sorted((w.bit_index, w.bit_value) for w in self._grounded)
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
