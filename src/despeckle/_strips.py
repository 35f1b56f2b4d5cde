"""Cache-sized strips of a large array.

:func:`_bounds` splits the lines (rows) of an array into contiguous
strips of at least :data:`_STRIP_BYTES` each; callers filter one strip at
a time, in order. A strip's working set stays in cache while it is
filtered, where a whole-array pass over a 2048x2048 image would stream
every intermediate through memory. An array smaller than two strips is
one strip.

Each strip writes a disjoint part of a preallocated output and computes
every element exactly as a whole-array pass would, so results do not
depend on the strip count.

The strips run in one thread on purpose. Spreading them over a thread
pool made a 2048x2048 scene about 15% faster, but only while a second
CPU was idle: on a machine shared with other work the gain came and
went from one run to the next, and with it the run time.
"""

_STRIP_BYTES = 1 << 20


def _bounds(lines: int, line_bytes: int) -> list:
    """Contiguous slices covering ``range(lines)``, each at least
    :data:`_STRIP_BYTES` of lines (one slice when the whole is smaller)."""
    count = max(1, lines // -(-_STRIP_BYTES // line_bytes))
    bounds = [i * lines // count for i in range(count + 1)]
    return [slice(start, stop) for start, stop in zip(bounds, bounds[1:])]
