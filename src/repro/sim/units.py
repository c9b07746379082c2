"""Time units for the integer-nanosecond simulation clock.

All simulator timestamps and delays are integers counted in nanoseconds.
These constants make call sites read naturally::

    yield sim.sleep(30 * NS)     # one flow-table lookup
    yield sim.sleep(31 * MS)     # one SDN controller round trip
"""

NS = 1
US = 1_000
MS = 1_000_000
S = 1_000_000_000


def seconds_to_ns(seconds: float) -> int:
    """Convert (possibly fractional) seconds to integer nanoseconds."""
    return round(seconds * S)


def ns_to_seconds(ns: int) -> float:
    """Convert integer nanoseconds to float seconds."""
    return ns / S
