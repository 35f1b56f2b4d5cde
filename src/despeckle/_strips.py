"""Cache-sized strips of a large array.

:func:`_bounds` splits the lines (rows) of an array into contiguous
strips of at least :data:`_STRIP_BYTES` each; callers filter one strip at
a time, in order. A strip's working set stays in cache while it is
filtered, where a whole-array pass over a 2048x2048 image would stream
every intermediate through memory. An array smaller than two strips is
one strip.

Each strip writes a disjoint part of a preallocated output and computes
every element exactly as a whole-array pass would, so results do not
depend on the strip count. :func:`_halo_strips` serves the 3x3
neighbourhood filters: it yields each strip with a one-pixel border.

The strips run in one thread on purpose. Spreading them over a thread
pool made a 2048x2048 scene about 15% faster, but only while a second
CPU was idle: on a machine shared with other work the gain came and
went from one run to the next, and with it the run time.
"""

import numpy as np

_STRIP_BYTES = 1 << 20


def _bounds(lines: int, line_bytes: int) -> list:
    """Contiguous slices covering ``range(lines)``, each at least
    :data:`_STRIP_BYTES` of lines (one slice when the whole is smaller)."""
    count = max(1, lines // -(-_STRIP_BYTES // line_bytes))
    bounds = [i * lines // count for i in range(count + 1)]
    return [slice(start, stop) for start, stop in zip(bounds, bounds[1:])]


def _halo_strips(arr: np.ndarray, scratch: int):
    """Yield ``(s, x, buffers)`` for each strip ``s`` of the rows of a 2-D
    array. ``x`` holds rows ``s`` with one more row and column on every
    side, replicated at the array's border (``scipy.ndimage``'s "nearest"
    mode); ``buffers`` are ``scratch`` uninitialised arrays of ``x``'s shape.

    All of them are views of buffers that the next strip reuses, so the
    caller may overwrite ``x`` too.
    """
    rows, cols = arr.shape
    strips = _bounds(rows, arr[0].nbytes)
    tallest = max(s.stop - s.start for s in strips)
    # One block rather than one array per buffer: once freed, a block this
    # size raises glibc's dynamic mmap threshold, and with it the heap's trim
    # threshold, past the images of a 256x256 flow, so they stop being
    # returned to the system and faulted in again after every call.
    buffers = np.empty((scratch + 1, tallest + 2, cols + 2))
    for s in strips:
        x, *views = (b[: s.stop - s.start + 2] for b in buffers)
        x[1:-1, 1:-1] = arr[s]
        x[0, 1:-1] = arr[max(s.start - 1, 0)]
        x[-1, 1:-1] = arr[min(s.stop, rows - 1)]
        x[:, 0] = x[:, 1]
        x[:, -1] = x[:, -2]
        yield s, x, views
