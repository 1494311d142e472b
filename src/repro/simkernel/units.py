"""Time and bandwidth unit helpers.

All simulator time is kept as integer nanoseconds to make event ordering
exact and runs bit-reproducible; these constants/converters keep call sites
readable (``kernel.call_after(3 * MILLISECOND, ...)``).
"""

NANOSECOND = 1
MICROSECOND = 1_000
MILLISECOND = 1_000_000
SECOND = 1_000_000_000

KBIT_PER_S = 1_000
MBIT_PER_S = 1_000_000
GBIT_PER_S = 1_000_000_000


def tx_time_ns(nbytes: int, bits_per_second: int) -> int:
    """Serialization delay of ``nbytes`` on a link of the given rate.

    Rounded up to a whole nanosecond so a transmission never takes zero
    time, which keeps link FIFO ordering well defined.
    """
    if nbytes < 0:
        raise ValueError(f"negative byte count: {nbytes}")
    if bits_per_second <= 0:
        raise ValueError(f"non-positive bandwidth: {bits_per_second}")
    bits = nbytes * 8
    return max(1, (bits * SECOND + bits_per_second - 1) // bits_per_second)

