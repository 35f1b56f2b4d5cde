"""Cache-sized strips of a large array.

:func:`_for_each_strip` splits the lines (rows or columns) of an array
into contiguous strips of at least :data:`_STRIP_BYTES` each and calls a
per-strip function on every strip, in order, in the caller. A strip's
working set stays in cache while it is filtered, where a whole-array
pass over a 2048x2048 image would stream every intermediate through
memory. An array smaller than two strips is one strip.

Strip functions write disjoint parts of preallocated outputs and compute
every element exactly as a whole-array call would, so results do not
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


def _for_each_strip(fn, lines: int, line_bytes: int) -> None:
    """Call ``fn(strip)`` for every slice of :func:`_bounds`, in order."""
    for part in _bounds(lines, line_bytes):
        fn(part)
